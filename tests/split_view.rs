//! Split-view detection through client gossip, plus bundle
//! regressions.
//!
//! The strongest attack an equivocating domain can mount is to keep every
//! individual client's view internally consistent while showing different
//! clients different histories. Detection then requires clients (or
//! third-party auditors) to compare notes — the same gossip mechanism
//! Certificate Transparency relies on, which the paper inherits by
//! building on CT-style logs.
//!
//! Misbehavior can also hide *inside* a proof bundle (two conflicting
//! checkpoints in one response) or behind a stale server-side bundle
//! cache; both must be flagged with the same evidence as two separate
//! checkpoints would be.

use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response};
use distrust::core::server::DirectHost;
use distrust::core::{DeploymentClient, DeploymentDescriptor, DomainInfo, DomainStatus};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::Misbehavior;
use distrust::log::batch::{CheckpointBundle, ProofBundle};
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::log::merkle::MerkleLog;
use distrust::tee::host::EnclaveService;
use distrust::tee::vendor::VendorRoots;
use distrust::wire::{Decode, Encode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn descriptor_for(host: &DirectHost, key: &SigningKey) -> DeploymentDescriptor {
    DeploymentDescriptor {
        app_name: "any".into(),
        developer_key: SigningKey::derive(b"dev", b"k").verifying_key(),
        vendor_roots: VendorRoots::new(vec![]),
        domains: vec![DomainInfo {
            index: 0,
            addr: host.addr(),
            vendor: None,
            checkpoint_key: key.verifying_key(),
        }],
    }
}

fn client(descriptor: &DeploymentDescriptor, seed: &[u8]) -> DeploymentClient {
    DeploymentClient::new(descriptor.clone(), Box::new(HmacDrbg::new(seed, b"")))
}

fn status_with(head: [u8; 32], size: u64) -> DomainStatus {
    DomainStatus {
        domain_index: 0,
        app_digest: [1; 32],
        app_version: 1,
        log_size: size,
        log_head: head,
        framework_measurement: [2; 32],
    }
}

/// A domain that serves a *consistent* fork per audit round: even rounds
/// see history A, odd rounds history B, over the batched single-request
/// audit. Each client's one audit is self-consistent — only gossip can
/// expose the fork.
struct BranchingService {
    key: SigningKey,
    log_id: [u8; 32],
    rounds: Arc<AtomicU64>,
}

impl BranchingService {
    fn head_for(branch: u64) -> [u8; 32] {
        if branch.is_multiple_of(2) {
            [0xaa; 32]
        } else {
            [0xbb; 32]
        }
    }
}

impl EnclaveService for BranchingService {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                // One batched request per audit round: allocate the branch
                // here, so a single client always sees one branch.
                let branch = self.rounds.fetch_add(1, Ordering::SeqCst);
                let head = Self::head_for(branch);
                let cp = SignedCheckpoint::sign(
                    CheckpointBody {
                        log_id: self.log_id,
                        size: 1,
                        head,
                        logical_time: 1,
                    },
                    &self.key,
                );
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id,
                    attestation: BundleAttestation::Unattested(status_with(head, 1)),
                    bundle: CheckpointBundle {
                        checkpoints: vec![cp],
                        proof: ProofBundle::default(),
                    },
                }))
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

#[test]
fn gossip_exposes_split_view() {
    let key = SigningKey::derive(b"split view", b"checkpoint");
    let lid = log_id(b"split-deploy", 0);
    let mut host = DirectHost::spawn(BranchingService {
        key,
        log_id: lid,
        rounds: Arc::new(AtomicU64::new(0)),
    })
    .expect("spawn");
    let descriptor = descriptor_for(&host, &key);

    // Client A audits: sees branch 0 ([0xaa]) — internally consistent.
    let mut client_a = client(&descriptor, b"client a");
    let report_a = client_a.audit(None);
    assert!(
        report_a.misbehavior.is_empty(),
        "client A alone sees a consistent view: {report_a:?}"
    );

    // Client B audits: sees branch 1 ([0xbb]) — also internally consistent.
    let mut client_b = client(&descriptor, b"client b");
    let report_b = client_b.audit(None);
    assert!(
        report_b.misbehavior.is_empty(),
        "client B alone sees a consistent view: {report_b:?}"
    );

    // The two views must actually differ for this test to mean anything.
    let head_a = client_a.gossip_payload()[0].1.body.head;
    let head_b = client_b.gossip_payload()[0].1.body.head;
    assert_ne!(head_a, head_b, "domain forked its history");

    // Gossip: B relays its checkpoints to A → equivocation proof.
    let evidence = client_a.ingest_gossip(&client_b.gossip_payload());
    let proof = evidence
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { proof, .. } => Some(proof.clone()),
            _ => None,
        })
        .expect("split view detected through gossip");
    assert!(proof.verify(&key.verifying_key()));

    // The proof is transferable: any third party verifies it from bytes.
    let wire = proof.to_wire();
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&wire).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));

    host.shutdown();
}

/// A domain that equivocates *inside* one proof bundle: two correctly
/// signed checkpoints for the same size with different heads in a single
/// `AuditBundle`.
struct EquivocatingBundleDomain {
    key: SigningKey,
    log_id: [u8; 32],
}

impl EnclaveService for EquivocatingBundleDomain {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                let sign = |head: [u8; 32]| {
                    SignedCheckpoint::sign(
                        CheckpointBody {
                            log_id: self.log_id,
                            size: 1,
                            head,
                            logical_time: 1,
                        },
                        &self.key,
                    )
                };
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id,
                    attestation: BundleAttestation::Unattested(status_with([0xaa; 32], 1)),
                    bundle: CheckpointBundle {
                        checkpoints: vec![sign([0xaa; 32]), sign([0xbb; 32])],
                        proof: ProofBundle::default(),
                    },
                }))
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

#[test]
fn equivocation_inside_one_bundle_yields_transferable_proof() {
    // Served one checkpoint per audit, this fork needs two audits (or two
    // clients + gossip) to surface; a bundle carrying both checkpoints
    // convicts the domain in a single round, with the same transferable
    // evidence.
    let key = SigningKey::derive(b"bundle equivocation", b"checkpoint");
    let lid = log_id(b"bundle-equiv-deploy", 0);
    let mut host = DirectHost::spawn(EquivocatingBundleDomain { key, log_id: lid }).expect("spawn");
    let descriptor = descriptor_for(&host, &key);

    let mut auditor = client(&descriptor, b"auditor");
    let report = auditor.audit(None);
    let proof = report
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { domain: 0, proof } => Some(proof.clone()),
            _ => None,
        })
        .expect("in-bundle equivocation flagged");
    // Publicly verifiable from bytes alone.
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&proof.to_wire()).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));
    assert!(!report.is_clean());

    host.shutdown();
}

/// A domain whose bundle cache went stale: after showing a client size 2,
/// it serves a (correctly signed, internally valid) bundle for size 1.
struct StaleCacheDomain {
    key: SigningKey,
    log_id: [u8; 32],
    log: MerkleLog,
    audits: u64,
}

impl EnclaveService for StaleCacheDomain {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                self.audits += 1;
                let cp = |size: usize, time: u64, log: &MerkleLog, key: &SigningKey, lid| {
                    SignedCheckpoint::sign(
                        CheckpointBody {
                            log_id: lid,
                            size: size as u64,
                            head: log.root_of_prefix(size),
                            logical_time: time,
                        },
                        key,
                    )
                };
                let (bundle, status) = if self.audits == 1 {
                    // Fresh view: both epochs plus the real 1→2 proof.
                    let proof = self.log.prove_consistency_range(&[1, 2]).expect("proof");
                    (
                        CheckpointBundle {
                            checkpoints: vec![
                                cp(1, 1, &self.log, &self.key, self.log_id),
                                cp(2, 2, &self.log, &self.key, self.log_id),
                            ],
                            proof,
                        },
                        status_with(self.log.root(), 2),
                    )
                } else {
                    // Stale cached prefix: an old, size-1 view.
                    (
                        CheckpointBundle {
                            checkpoints: vec![cp(1, 1, &self.log, &self.key, self.log_id)],
                            proof: ProofBundle::default(),
                        },
                        status_with(self.log.root_of_prefix(1), 1),
                    )
                };
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id,
                    attestation: BundleAttestation::Unattested(status),
                    bundle,
                }))
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

#[test]
fn stale_cached_prefix_is_flagged_as_rollback() {
    let key = SigningKey::derive(b"stale cache", b"checkpoint");
    let lid = log_id(b"stale-deploy", 0);
    let mut log = MerkleLog::new();
    log.append(b"v1");
    log.append(b"v2");
    let mut host = DirectHost::spawn(StaleCacheDomain {
        key,
        log_id: lid,
        log,
        audits: 0,
    })
    .expect("spawn");
    let descriptor = descriptor_for(&host, &key);

    let mut auditor = client(&descriptor, b"auditor");
    // First audit verifies up to size 2.
    let first = auditor.audit(None);
    assert!(
        first.misbehavior.is_empty() && first.domains[0].failure.is_none(),
        "fresh view is consistent: {first:?}"
    );
    // Second audit gets the stale size-1 bundle: a checkpoint going
    // backwards.
    let second = auditor.audit(None);
    assert!(
        second.misbehavior.iter().any(|m| matches!(
            m,
            Misbehavior::Rollback {
                domain: 0,
                trusted_size: 2,
                offered_size: 1,
            }
        )),
        "stale prefix must be flagged as rollback: {second:?}"
    );
    assert!(!second.is_clean());

    host.shutdown();
}

#[test]
fn gossip_between_honest_clients_is_quiet() {
    // Against an honest deployment, gossip produces no evidence.
    let deployment = distrust::core::Deployment::launch(
        distrust::apps::analytics::app_spec(3),
        b"honest gossip seed",
    )
    .expect("launch");
    let mut a = deployment.client(b"client a");
    let mut b = deployment.client(b"client b");
    assert!(a.audit(None).is_clean());
    assert!(b.audit(None).is_clean());
    assert_eq!(a.audit_stats().audited_domains, 3);
    assert!(a.ingest_gossip(&b.gossip_payload()).is_empty());
    assert!(b.ingest_gossip(&a.gossip_payload()).is_empty());
}
