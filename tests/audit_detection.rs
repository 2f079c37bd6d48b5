//! Detection tests: a misbehaving trust domain is caught by the client's
//! audit, and equivocation yields a transferable cryptographic proof —
//! the paper's core guarantee ("the user will be able to detect whenever
//! the system does not execute the expected code … and will obtain a
//! publicly verifiable proof of misbehavior").

use distrust::core::client::AuditFailure;
use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response};
use distrust::core::server::DirectHost;
use distrust::core::{ClientError, DeploymentClient, DeploymentDescriptor, DomainInfo};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::Misbehavior;
use distrust::log::batch::{CheckpointBundle, ProofBundle};
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::tee::host::EnclaveService;
use distrust::tee::vendor::VendorRoots;
use distrust::wire::transport::{TcpAcceptor, Transport};
use distrust::wire::{Decode, Encode};
use std::net::SocketAddr;

/// An unattested domain's answer to `BatchAudit`: a status at
/// `(size, head)` and a one-checkpoint bundle signed over the same, with
/// no consistency proof.
fn unattested_bundle(
    request_id: u64,
    key: &SigningKey,
    log_id: [u8; 32],
    (size, head): (u64, [u8; 32]),
    logical_time: u64,
) -> Response {
    let status = distrust::core::DomainStatus {
        domain_index: 0,
        app_digest: [1; 32],
        app_version: 1,
        log_size: size,
        log_head: head,
        framework_measurement: [2; 32],
    };
    let checkpoint = SignedCheckpoint::sign(
        CheckpointBody {
            log_id,
            size,
            head,
            logical_time,
        },
        key,
    );
    Response::AuditBundle(Box::new(AuditBundle {
        request_id,
        attestation: BundleAttestation::Unattested(status),
        bundle: CheckpointBundle {
            checkpoints: vec![checkpoint],
            proof: ProofBundle::default(),
        },
    }))
}

/// A client auditing the one unattested domain at `addr`, pinning `key`.
fn client_for(addr: SocketAddr, key: &SigningKey) -> DeploymentClient {
    let descriptor = DeploymentDescriptor {
        app_name: "any".into(),
        developer_key: SigningKey::derive(b"dev", b"k").verifying_key(),
        vendor_roots: VendorRoots::new(vec![]),
        domains: vec![DomainInfo {
            index: 0,
            addr,
            vendor: None,
            checkpoint_key: key.verifying_key(),
        }],
    };
    DeploymentClient::new(descriptor, Box::new(HmacDrbg::new(b"auditor", b"")))
}

/// A malicious trust domain: reports the status of an honest unattested
/// domain, but signs a DIFFERENT log head for the same size on every
/// audit — classic equivocation (showing different histories to
/// different clients).
struct EquivocatingDomain {
    key: SigningKey,
    log_id: [u8; 32],
    flip: bool,
}

impl EnclaveService for EquivocatingDomain {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                self.flip = !self.flip;
                let head = if self.flip { [0xaa; 32] } else { [0xbb; 32] };
                unattested_bundle(request_id, &self.key, self.log_id, (1, head), 1)
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

#[test]
fn equivocating_domain_yields_transferable_proof() {
    let key = SigningKey::derive(b"equivocator", b"checkpoint");
    let lid = log_id(b"evil-deploy", 0);
    let mut host = DirectHost::spawn(EquivocatingDomain {
        key,
        log_id: lid,
        flip: false,
    })
    .expect("spawn");

    let mut client = client_for(host.addr(), &key);

    // First audit: the checkpoint says head 0xaa — fine so far (it
    // matches the status the fake domain reports).
    let first = client.audit(None);
    assert!(
        first.misbehavior.is_empty(),
        "first view is internally consistent: {first:?}"
    );

    // Second audit: same size, different head. The auditor holds both
    // signed checkpoints → equivocation proof.
    let second = client.audit(None);
    let equivocation = second
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { proof, .. } => Some(proof.clone()),
            _ => None,
        })
        .expect("equivocation detected");

    // The proof is PUBLICLY verifiable: serialize, hand to a third party
    // knowing only the domain's public key, verify.
    let wire = equivocation.to_wire();
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&wire).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));
    // And it does not frame an innocent domain.
    let innocent = SigningKey::derive(b"innocent", b"k");
    assert!(!transported.verify(&innocent.verifying_key()));

    host.shutdown();
}

/// A domain that rewrites history: reports a log that is not an extension
/// of what it previously showed.
struct RewritingDomain {
    key: SigningKey,
    log_id: [u8; 32],
    phase: u64,
}

impl EnclaveService for RewritingDomain {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                self.phase += 1;
                // Two different "histories": sizes grow but heads are
                // unrelated and no consistency proof is offered.
                let view = if self.phase == 1 {
                    (1u64, [0x10u8; 32])
                } else {
                    (2u64, [0x20u8; 32])
                };
                unattested_bundle(request_id, &self.key, self.log_id, view, self.phase)
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

#[test]
fn history_rewrite_without_proof_is_flagged() {
    let key = SigningKey::derive(b"rewriter", b"checkpoint");
    let lid = log_id(b"rewrite-deploy", 0);
    let mut host = DirectHost::spawn(RewritingDomain {
        key,
        log_id: lid,
        phase: 0,
    })
    .expect("spawn");

    let mut client = client_for(host.addr(), &key);

    let first = client.audit(None);
    assert!(first.misbehavior.is_empty(), "{first:?}");
    let second = client.audit(None);
    assert!(
        second
            .misbehavior
            .iter()
            .any(|m| matches!(m, Misbehavior::InconsistentGrowth { .. })),
        "rewrite must be flagged: {second:?}"
    );

    host.shutdown();
}

/// A domain that answers every request, `BatchAudit` included, with an
/// error frame.
struct RefusingDomain;

impl EnclaveService for RefusingDomain {
    fn handle(&mut self, _request: Vec<u8>) -> Vec<u8> {
        Response::Error("unknown request".into()).to_wire()
    }
}

#[test]
fn batch_audit_error_is_a_typed_domain_failure() {
    let key = SigningKey::derive(b"refusing", b"checkpoint");
    let mut host = DirectHost::spawn(RefusingDomain).expect("spawn");
    let mut client = client_for(host.addr(), &key);

    // Every round asks again, and every round the refusal is this
    // domain's own failure — not misbehaviour evidence.
    for _ in 0..2 {
        let report = client.audit(None);
        assert!(!report.is_clean());
        assert!(report.misbehavior.is_empty(), "{report:?}");
        assert!(
            matches!(
                report.domains[0].failure,
                Some(AuditFailure::Request(ClientError::Unexpected(_)))
            ),
            "{report:?}"
        );
    }
    assert_eq!(client.audit_stats().audited_domains, 2);

    host.shutdown();
}

/// An honest unattested domain with a one-entry log.
struct HonestDomain {
    key: SigningKey,
    log_id: [u8; 32],
}

impl EnclaveService for HonestDomain {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                unattested_bundle(request_id, &self.key, self.log_id, (1, [0x77; 32]), 1)
            }
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

/// Serves `service` on loopback, but closes the first `drop_first`
/// accepted connections unanswered — a domain that restarted under a
/// client's persistent connection.
fn spawn_dropping_first(drop_first: usize, mut service: impl EnclaveService) -> SocketAddr {
    let acceptor = TcpAcceptor::bind_loopback().expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for _ in 0..drop_first {
            drop(acceptor.accept());
        }
        let Ok(mut conn) = acceptor.accept() else {
            return;
        };
        while let Ok(request) = conn.recv() {
            if conn.send(&service.handle(request)).is_err() {
                break;
            }
        }
    });
    addr
}

fn honest(seed: &[u8]) -> (SigningKey, HonestDomain) {
    let key = SigningKey::derive(seed, b"checkpoint");
    let domain = HonestDomain {
        key,
        log_id: log_id(seed, 0),
    };
    (key, domain)
}

#[test]
fn closed_first_connection_is_retried_in_the_same_round() {
    let (key, domain) = honest(b"closed once");
    let mut client = client_for(spawn_dropping_first(1, domain), &key);
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        report.domains[0].status.as_ref().map(|s| s.log_size),
        Some(1)
    );
}

#[test]
fn second_transport_failure_is_a_typed_domain_failure() {
    let (key, domain) = honest(b"closed twice");
    let mut client = client_for(spawn_dropping_first(2, domain), &key);
    // One retry only: the second closed connection fails the domain.
    let report = client.audit(None);
    assert!(report.misbehavior.is_empty(), "{report:?}");
    assert!(
        matches!(
            report.domains[0].failure,
            Some(AuditFailure::Request(
                ClientError::ConnectionLost(_) | ClientError::Io(_)
            ))
        ),
        "{report:?}"
    );
    // The next round connects afresh and is served.
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn checkpoint_signed_by_wrong_key_is_flagged() {
    let real_key = SigningKey::derive(b"hijacked", b"real");
    let attacker_key = SigningKey::derive(b"hijacked", b"attacker");
    let lid = log_id(b"hijack-deploy", 0);
    // The domain signs with the attacker's key (e.g. after host takeover
    // of an unattested domain).
    let mut host = DirectHost::spawn(EquivocatingDomain {
        key: attacker_key,
        log_id: lid,
        flip: false,
    })
    .expect("spawn");

    // The client pins the REAL key.
    let mut client = client_for(host.addr(), &real_key);
    let report = client.audit(None);
    assert!(
        report
            .misbehavior
            .iter()
            .any(|m| matches!(m, Misbehavior::BadSignature { .. })),
        "{report:?}"
    );
    host.shutdown();
}
