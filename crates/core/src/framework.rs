//! The application-independent enclave framework — the paper's core design
//! (§4.1).
//!
//! "Instead of sealing the developer's code directly on to the enclave, we
//! instead seal an application-independent framework on to the TEE. This
//! application-independent framework accepts application code as input and
//! executes it."
//!
//! Responsibilities, in the order the paper derives them:
//!
//! 1. **Run application code in a sandbox** so updates cannot escape and
//!    tamper with the framework ([`crate::abi`], `distrust-sandbox`).
//! 2. **Accept only developer-signed updates**, verified against the
//!    public key sealed at initialization ([`crate::manifest`]).
//! 3. **Record every activated code digest in an append-only log** and
//!    make update notices available *before* the new code serves its
//!    first request (`distrust-log`).
//! 4. **Attest**: answer client challenges with a quote binding the
//!    client's nonce, the current log head, and the running app digest.

use crate::abi::{app_call, import_names, AppHost};
use crate::manifest::{ReleaseError, ReleaseManifest, SignedRelease};
use crate::protocol::{
    AttestationBinding, AuditBundle, BundleAttestation, DomainStatus, Request, Response,
    ShardAuditBundle, UpdateNotice,
};
use distrust_crypto::schnorr::{SigningKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use distrust_gossip::envelope::{GossipEnvelope, GossipHead};
use distrust_gossip::evidence::EvidenceBundle;
use distrust_log::batch::{CheckpointBundle, ProofBundle};
use distrust_log::checkpoint::{CheckpointBody, SignedCheckpoint};
use distrust_log::shard::{ShardBundle, ShardEpoch, ShardSnapshot, ShardedLog};
use distrust_log::store::{open_store, LogStore, StorageConfig, StoreError};
use distrust_sandbox::{Instance, Limits};
use distrust_tee::enclave::Enclave;
use distrust_wire::codec::{Decode, Encode};
use std::collections::HashMap;
use std::sync::Arc;

/// Meta-log record kinds — the framework's durable signed artifacts,
/// persisted through [`ShardedLog::append_meta`] and replayed on boot so a
/// restarted domain *reuses* its pre-crash signatures instead of minting
/// fresh ones (re-signing the same sizes would make an honest restart look
/// like equivocation to a client holding the pre-crash head).
const META_GENESIS: u8 = 1;
/// An epoch: `SignedCheckpoint ‖ ShardSnapshot`, appended at update time.
const META_EPOCH: u8 = 2;
/// An [`UpdateNotice`], appended (before its epoch record) at update time.
const META_NOTICE: u8 = 3;

/// Computes the framework measurement: the value a TEE attests when it
/// loads this framework sealed with a particular developer key. Everything
/// that defines the trusted framework identity goes in here.
pub fn framework_measurement(developer_key: &VerifyingKey, app_name: &str) -> Digest {
    distrust_crypto::sha256_many(&[
        b"distrust/framework-measurement/v2",
        &developer_key.to_bytes(),
        app_name.as_bytes(),
    ])
}

/// Static configuration sealed into the framework at initialization.
pub struct FrameworkConfig {
    /// This domain's index in the deployment.
    pub domain_index: u32,
    /// The application this deployment is pinned to.
    pub app_name: String,
    /// The developer's update-signing public key (§4.1: sealed alongside
    /// the framework).
    pub developer_key: VerifyingKey,
    /// Log identifier for checkpoints.
    pub log_id: [u8; 32],
    /// Sandbox execution limits applied to every application instance.
    pub limits: Limits,
    /// Shards of the append-only log (appends route by the releasing
    /// app's id). `1` (or `0`, normalized to `1`) is the single-tree
    /// layout: checkpoints sign the tree's root and audits are served as
    /// [`Response::AuditBundle`], which clients verify as a 1-shard
    /// [`ShardBundle`]. With more shards, checkpoints sign the top-level
    /// shard-head commitment and audits are served as
    /// [`Response::ShardAuditBundle`]. Note that a
    /// framework is pinned to one app, so *its own* appends all route to
    /// that app's shard — multi-shard configs lay the commitment/audit
    /// groundwork (and are what multi-app or key-range routing will
    /// spread load across), but today's parallel-append win lives at the
    /// `ShardedLog` layer, not in a single-app framework.
    pub log_shards: u32,
    /// Where the log lives. [`StorageConfig::Ephemeral`] keeps everything
    /// in memory (tests, legacy behavior); [`StorageConfig::Durable`]
    /// persists segments + signed artifacts so a restart resumes the
    /// identical signed history.
    pub storage: StorageConfig,
}

struct RunningApp {
    instance: Instance,
    import_names: Vec<String>,
    manifest: ReleaseManifest,
}

/// Upper bound on checkpoints per [`AuditBundle`]; a client further behind
/// than this gets one direct consistency step from its verified size to
/// the earliest included checkpoint.
const MAX_BUNDLE_CHECKPOINTS: usize = 64;

/// Shared per-epoch audit artifacts, amortised across every auditing
/// client: one [`CheckpointBundle`] per distinct `verified_size`, rebuilt
/// only when the log grows. With this cache a `BatchAudit` performs **no
/// signing and no proof construction** in steady state — serving ten
/// thousand auditors costs ten thousand hash-map lookups, not ten thousand
/// Schnorr signatures.
#[derive(Default)]
struct AuditCache {
    /// Log size the cached bundles describe; any other size invalidates.
    epoch: u64,
    /// Signed size-0 checkpoint for audits of a still-empty log.
    genesis: Option<SignedCheckpoint>,
    /// Bundles keyed by the client-reported verified size (1-shard logs).
    bundles: HashMap<u64, CheckpointBundle>,
    /// Sharded bundles keyed the same way (multi-shard logs).
    shard_bundles: HashMap<u64, ShardBundle>,
    hits: u64,
    misses: u64,
}

/// Most relayed peer heads the gossip board retains.
const MAX_BOARD_HEADS: usize = 64;
/// Most relayed evidence bundles the gossip board retains.
const MAX_BOARD_EVIDENCE: usize = 64;

/// The domain's gossip bulletin board: peer checkpoints and evidence that
/// clients left behind for other clients to pick up.
///
/// Everything here is stored **unverified** — the framework holds no
/// other domain's checkpoint key, so it cannot tell a real peer head from
/// a fabricated one. That is fine: the board is a rendezvous, not an
/// authority. Every client verifies relayed heads and evidence against
/// its own pinned keys on ingest, so the worst a poisoned board costs is
/// wasted bytes. Bounds are hard caps with oldest-first eviction for
/// heads and insert-refusal for evidence, so a flooder cannot grow the
/// domain's memory.
#[derive(Default)]
struct GossipBoard {
    /// Relayed peer heads, oldest first, deduplicated exactly.
    heads: Vec<GossipHead>,
    /// Relayed evidence bundles, deduplicated by content hash.
    evidence: Vec<EvidenceBundle>,
    evidence_seen: std::collections::HashSet<Digest>,
}

impl GossipBoard {
    /// Merges a client's envelope into the board. `own_domain` filters
    /// heads claiming to come from this domain itself — clients get those
    /// first-hand, and relaying them would only launder forgeries.
    fn ingest(&mut self, envelope: GossipEnvelope, own_domain: u32) {
        for head in envelope.heads {
            if head.domain == own_domain || self.heads.contains(&head) {
                continue;
            }
            if self.heads.len() >= MAX_BOARD_HEADS {
                self.heads.remove(0);
            }
            self.heads.push(head);
        }
        for bundle in envelope.evidence {
            if self.evidence.len() >= MAX_BOARD_EVIDENCE {
                break;
            }
            if self.evidence_seen.insert(bundle.dedup_key()) {
                self.evidence.push(bundle);
            }
        }
    }
}

/// One trust domain's framework state.
pub struct EnclaveFramework {
    config: FrameworkConfig,
    /// `Some` on TEE-backed domains, `None` on trust domain 0 (Figure 2:
    /// the developer's own domain runs without secure hardware).
    enclave: Option<Enclave>,
    /// Key signing log checkpoints. On TEE domains this is derived inside
    /// the enclave from the sealing secret; on domain 0 it is a plain host
    /// key. Clients pin the corresponding public keys at deployment.
    checkpoint_key: SigningKey,
    /// The code-digest log: Merkle shards (appends routed by app id) under
    /// a top-level shard-head commitment. With one shard the commitment
    /// is the single tree's root.
    log: ShardedLog,
    /// Update notices, one per activated release.
    notices: Vec<UpdateNotice>,
    /// One signed checkpoint per log append ("epoch"), signed at update
    /// time so audits are served from cache instead of signing per client.
    epoch_checkpoints: Vec<SignedCheckpoint>,
    /// The per-shard snapshot behind each epoch checkpoint, parallel to
    /// `epoch_checkpoints` — what sharded audit bundles serve and what
    /// maps a client's verified total size back to per-shard baselines.
    epoch_snapshots: Vec<ShardSnapshot>,
    /// Shared proof/bundle cache for [`Request::BatchAudit`].
    audit_cache: AuditCache,
    app: Option<RunningApp>,
    app_host: Box<dyn AppHost>,
    logical_time: u64,
    /// §3.3 lockdown: set when a release with `locks_updates` activates;
    /// permanently rejects further updates.
    locked: bool,
    /// Highest version seen in *recovered* notices. Current TEEs cannot
    /// migrate app state across restarts, so the app instance itself is
    /// not persisted — but version monotonicity must survive the restart
    /// or a replayed old release would be re-accepted.
    recovered_version: u64,
    /// Bulletin board of peer gossip this domain relays between clients.
    /// Deliberately not persisted: gossip is epidemic state, rebuilt by
    /// the next exchange, and a crash wiping it costs only freshness.
    gossip: GossipBoard,
}

impl EnclaveFramework {
    /// Opens a framework over the configured storage, recovering any
    /// persisted log and signed history. `enclave` is `None` for trust
    /// domain 0. With [`StorageConfig::Ephemeral`] this is infallible in
    /// practice and equivalent to the pre-durability constructor.
    pub fn open(
        config: FrameworkConfig,
        enclave: Option<Enclave>,
        checkpoint_key: SigningKey,
        app_host: Box<dyn AppHost>,
    ) -> Result<Self, StoreError> {
        let shards = config.log_shards.max(1) as usize;
        let store = open_store(&config.storage, shards)?;
        Self::open_with_store(config, enclave, checkpoint_key, app_host, store)
    }

    /// [`Self::open`] with an explicit store — the injection point for
    /// restart tests that share one [`distrust_log::store::MemStore`]
    /// across framework lifetimes.
    ///
    /// Recovery rebuilds the Merkle shards from persisted leaves, then
    /// replays the meta log: the genesis checkpoint, every epoch's signed
    /// checkpoint + shard snapshot, and every update notice are *reused*,
    /// not re-signed. Boot refuses to proceed when the signed history
    /// outruns the recovered log ([`StoreError::LostSignedHistory`] — a
    /// fsync hole or deleted segment) or diverges from it (`Corrupt`) —
    /// serving in either state would manufacture equivocation evidence
    /// against our own key.
    pub fn open_with_store(
        config: FrameworkConfig,
        enclave: Option<Enclave>,
        checkpoint_key: SigningKey,
        app_host: Box<dyn AppHost>,
        store: Arc<dyn LogStore>,
    ) -> Result<Self, StoreError> {
        let shards = config.log_shards.max(1) as usize;
        let (log, meta) = ShardedLog::with_store(shards, store)?;
        let mut genesis = None;
        let mut notices: Vec<UpdateNotice> = Vec::new();
        let mut epoch_checkpoints: Vec<SignedCheckpoint> = Vec::new();
        let mut epoch_snapshots: Vec<ShardSnapshot> = Vec::new();
        let mut logical_time = 0u64;
        for record in &meta {
            match record.kind {
                META_GENESIS => {
                    let cp = SignedCheckpoint::from_wire(&record.payload)
                        .map_err(|_| StoreError::Corrupt("meta genesis record"))?;
                    logical_time = logical_time.max(cp.body.logical_time);
                    genesis = Some(cp);
                }
                META_EPOCH => {
                    let mut input = record.payload.as_slice();
                    let cp = SignedCheckpoint::decode(&mut input)
                        .map_err(|_| StoreError::Corrupt("meta epoch checkpoint"))?;
                    let snapshot = ShardSnapshot::decode(&mut input)
                        .map_err(|_| StoreError::Corrupt("meta epoch snapshot"))?;
                    if !input.is_empty() {
                        return Err(StoreError::Corrupt("meta epoch trailing bytes"));
                    }
                    if snapshot.shard_count() != shards {
                        return Err(StoreError::ShardCountMismatch {
                            store: snapshot.shard_count(),
                            configured: shards,
                        });
                    }
                    logical_time = logical_time.max(cp.body.logical_time);
                    epoch_checkpoints.push(cp);
                    epoch_snapshots.push(snapshot);
                }
                META_NOTICE => {
                    let notice = UpdateNotice::from_wire(&record.payload)
                        .map_err(|_| StoreError::Corrupt("meta notice record"))?;
                    logical_time = logical_time.max(notice.logical_time);
                    notices.push(notice);
                }
                _ => return Err(StoreError::Corrupt("unknown meta record kind")),
            }
        }
        // Boot guards: the recovered log must carry every size the signed
        // history committed to, and match it bit for bit at the head.
        let snapshot = log.snapshot();
        if let Some(last) = epoch_checkpoints.last() {
            if last.body.size > snapshot.total() {
                return Err(StoreError::LostSignedHistory {
                    signed: last.body.size,
                    recovered: snapshot.total(),
                });
            }
            if last.body.size == snapshot.total() && last.body.head != snapshot.commitment() {
                return Err(StoreError::Corrupt(
                    "recovered log diverges from signed head",
                ));
            }
        }
        let locked = notices.iter().any(|n| n.manifest.locks_updates);
        let recovered_version = notices
            .iter()
            .map(|n| n.manifest.version)
            .max()
            .unwrap_or(0);
        Ok(Self {
            config,
            enclave,
            checkpoint_key,
            log,
            notices,
            epoch_checkpoints,
            epoch_snapshots,
            audit_cache: AuditCache {
                genesis,
                ..AuditCache::default()
            },
            app: None,
            app_host,
            logical_time,
            locked,
            recovered_version,
            gossip: GossipBoard::default(),
        })
    }

    /// True once a final release has locked this deployment.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Highest version this domain has accepted — from the running app or
    /// from recovered update notices (the instance itself does not
    /// survive a restart; the version floor must).
    pub fn current_version(&self) -> u64 {
        self.app
            .as_ref()
            .map(|a| a.manifest.version)
            .unwrap_or(0)
            .max(self.recovered_version)
    }

    /// Whether this domain has secure hardware.
    pub fn is_attested(&self) -> bool {
        self.enclave.is_some()
    }

    /// Current domain status snapshot.
    pub fn status(&self) -> DomainStatus {
        let (app_digest, app_version) = match &self.app {
            Some(app) => (app.manifest.code_digest, app.manifest.version),
            None => ([0u8; 32], 0),
        };
        let snapshot = self.log.snapshot();
        DomainStatus {
            domain_index: self.config.domain_index,
            app_digest,
            app_version,
            log_size: snapshot.total(),
            log_head: snapshot.commitment(),
            framework_measurement: framework_measurement(
                &self.config.developer_key,
                &self.config.app_name,
            ),
        }
    }

    /// Applies a signed release following the §4.1 ordering: verify the
    /// developer signature, append the digest to the append-only log,
    /// record the client-visible update notice, and only then activate the
    /// new code.
    pub fn apply_update(&mut self, release: &SignedRelease) -> Result<DomainStatus, ReleaseError> {
        if self.locked {
            return Err(ReleaseError::DeploymentLocked);
        }
        let module = release.verify(&self.config.developer_key)?;
        if release.manifest.app_name != self.config.app_name {
            return Err(ReleaseError::WrongApp {
                expected: self.config.app_name.clone(),
                got: release.manifest.app_name.clone(),
            });
        }
        // The floor is the max of the running version and the recovered
        // one: the app instance does not survive a restart, but version
        // monotonicity must, or a replayed old release would re-activate.
        let current = self.current_version();
        if release.manifest.version <= current {
            return Err(ReleaseError::StaleVersion {
                current,
                offered: release.manifest.version,
            });
        }
        // Instantiate first: a module that cannot even instantiate is
        // rejected without touching the log.
        let instance = Instance::new(module.clone(), self.config.limits)
            .map_err(|t| ReleaseError::InvalidModule(t.to_string()))?;
        // 1. Log the digest (the permanent record), routed to the shard
        //    the releasing app's id hashes to (shard 0 on 1-shard logs).
        let shard = self.log.shard_for(release.manifest.app_name.as_bytes());
        let log_index = self
            .log
            .append(shard, &release.manifest.log_leaf())
            .map_err(|e| ReleaseError::LogAppend(e.to_string()))?;
        // 2. Record the notice — visible to clients before the new code
        //    serves any request (we hold the domain lock throughout).
        self.logical_time += 1;
        let notice = UpdateNotice {
            manifest: release.manifest.clone(),
            log_index,
            logical_time: self.logical_time,
        };
        self.notices.push(notice.clone());
        // Sign this epoch's checkpoint once, here — every BatchAudit until
        // the next update is served from it without touching the key.
        let (checkpoint, snapshot) = self
            .sign_epoch()
            .map_err(|e| ReleaseError::LogAppend(e.to_string()))?;
        // Persist the signed artifacts (notice first — an epoch record
        // implies its notice): a restart reuses these instead of minting
        // fresh signatures for the same sizes.
        let mut epoch_wire = Vec::new();
        checkpoint.encode(&mut epoch_wire);
        snapshot.encode(&mut epoch_wire);
        self.log
            .append_meta(META_NOTICE, &notice.to_wire())
            .and_then(|()| self.log.append_meta(META_EPOCH, &epoch_wire))
            .map_err(|e| ReleaseError::Persist(e.to_string()))?;
        self.epoch_checkpoints.push(checkpoint);
        self.epoch_snapshots.push(snapshot);
        self.audit_cache.bundles.clear();
        self.audit_cache.shard_bundles.clear();
        // 3. Activate (and lock, if this is a final release).
        self.app = Some(RunningApp {
            import_names: import_names(&module),
            instance,
            manifest: release.manifest.clone(),
        });
        if release.manifest.locks_updates {
            self.locked = true;
        }
        Ok(self.status())
    }

    /// Signs a checkpoint of the current log (the shard-head commitment;
    /// on a 1-shard log, the single tree's root) and returns it with the
    /// shard snapshot it commits to. Syncs the store first —
    /// sign-before-durable would let a crash fabricate equivocation
    /// evidence against this domain's own key.
    fn sign_epoch(&mut self) -> Result<(SignedCheckpoint, ShardSnapshot), StoreError> {
        self.log.sync()?;
        self.logical_time += 1;
        let snapshot = self.log.snapshot();
        let checkpoint = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: self.config.log_id,
                size: snapshot.total(),
                head: snapshot.commitment(),
                logical_time: self.logical_time,
            },
            &self.checkpoint_key,
        );
        Ok((checkpoint, snapshot))
    }

    /// `(hits, misses)` of the shared audit-bundle cache — how many
    /// `BatchAudit` requests were served without signing or proving.
    pub fn audit_cache_stats(&self) -> (u64, u64) {
        (self.audit_cache.hits, self.audit_cache.misses)
    }

    /// Ensures the audit cache describes the current log size, clearing
    /// stale bundles, and returns `(cache_key, current_size)` for
    /// `verified_size`: anything at or past the head needs only the
    /// latest checkpoint, so those collapse onto one slot.
    fn audit_cache_key(&mut self, verified_size: u64) -> (u64, u64) {
        let current = self.log.total_len();
        if self.audit_cache.epoch != current {
            self.audit_cache.bundles.clear();
            self.audit_cache.shard_bundles.clear();
            self.audit_cache.epoch = current;
        }
        (verified_size.min(current), current)
    }

    /// Signs (once) and returns the size-0 checkpoint served while the
    /// log is still empty.
    fn genesis_checkpoint(&mut self) -> SignedCheckpoint {
        if let Some(genesis) = &self.audit_cache.genesis {
            return genesis.clone();
        }
        self.logical_time += 1;
        let signed = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: self.config.log_id,
                size: 0,
                head: self.log.commitment(),
                logical_time: self.logical_time,
            },
            &self.checkpoint_key,
        );
        // Best-effort persistence: a restart that loses this record just
        // signs another size-0 checkpoint over the same (empty) head —
        // identical body except logical_time, which cannot read as
        // equivocation. Updates, by contrast, persist-or-fail.
        let _ = self.log.append_meta(META_GENESIS, &signed.to_wire());
        self.audit_cache.genesis = Some(signed.clone());
        signed
    }

    /// Serves the checkpoint/proof half of a batched audit from the shared
    /// per-epoch cache, building (and caching) it on first demand
    /// (1-shard logs: the single-tree bundle).
    fn audit_bundle(&mut self, verified_size: u64) -> CheckpointBundle {
        let (key, current) = self.audit_cache_key(verified_size);
        if let Some(bundle) = self.audit_cache.bundles.get(&key) {
            self.audit_cache.hits += 1;
            return bundle.clone();
        }
        self.audit_cache.misses += 1;
        let bundle = self.build_audit_bundle(key, current);
        self.audit_cache.bundles.insert(key, bundle.clone());
        bundle
    }

    fn build_audit_bundle(&mut self, verified_size: u64, current: u64) -> CheckpointBundle {
        let empty = ProofBundle::default();
        if self.epoch_checkpoints.is_empty() {
            // Nothing installed yet: serve a (cached) signed view of the
            // empty log.
            return CheckpointBundle {
                checkpoints: vec![self.genesis_checkpoint()],
                proof: empty,
            };
        }
        if verified_size >= current {
            // Client already at the head: the latest checkpoint alone.
            // (The `last()` is guarded by the emptiness check above; the
            // if-let keeps this path panic-free regardless.)
            if let Some(latest) = self.epoch_checkpoints.last() {
                return CheckpointBundle {
                    checkpoints: vec![latest.clone()],
                    proof: empty,
                };
            }
        }
        let mut checkpoints: Vec<SignedCheckpoint> = self
            .epoch_checkpoints
            .iter()
            .filter(|cp| cp.body.size > verified_size)
            .cloned()
            .collect();
        if checkpoints.len() > MAX_BUNDLE_CHECKPOINTS {
            checkpoints.drain(..checkpoints.len() - MAX_BUNDLE_CHECKPOINTS);
        }
        // Proof chain: verified prefix (when provable, i.e. non-empty)
        // through every included checkpoint size.
        let mut sizes: Vec<usize> = Vec::with_capacity(checkpoints.len() + 1);
        if verified_size >= 1 {
            sizes.push(verified_size as usize);
        }
        sizes.extend(checkpoints.iter().map(|cp| cp.body.size as usize));
        let proof = self
            .log
            .lock_shard(0)
            .prove_consistency_range(&sizes)
            .unwrap_or_default();
        CheckpointBundle { checkpoints, proof }
    }

    /// The multi-shard counterpart of [`Self::audit_bundle`]: epoch shard
    /// snapshots plus per-shard consistency runs from the client's
    /// verified epoch, served from the same per-epoch cache.
    fn shard_audit_bundle(&mut self, verified_size: u64) -> ShardBundle {
        let (key, _) = self.audit_cache_key(verified_size);
        if let Some(bundle) = self.audit_cache.shard_bundles.get(&key) {
            self.audit_cache.hits += 1;
            return bundle.clone();
        }
        self.audit_cache.misses += 1;
        let bundle = self.build_shard_audit_bundle(key);
        self.audit_cache.shard_bundles.insert(key, bundle.clone());
        bundle
    }

    fn build_shard_audit_bundle(&mut self, verified_size: u64) -> ShardBundle {
        let shard_count = self.log.shard_count();
        // Empty runs are always provable; a `None` here can only mean a
        // baseline/shard-count mismatch, answered with the empty bundle
        // (which verifies nothing) rather than a panic.
        let empty_runs = |log: &ShardedLog| {
            log.prove_shard_runs(&vec![0; shard_count], &[])
                .unwrap_or_default()
        };
        if self.epoch_checkpoints.is_empty() {
            let checkpoint = self.genesis_checkpoint();
            return ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint,
                    shards: self.log.snapshot(),
                }],
                proof: empty_runs(&self.log),
            };
        }
        // The client's verified total maps back to the epoch it verified
        // (clients only ever verify signed epoch checkpoints); its shard
        // sizes are the proof baseline. An unknown total gets the
        // from-scratch baseline — the client's own per-shard cache decides
        // what it accepts.
        let baseline: Vec<u64> = self
            .epoch_snapshots
            .iter()
            .find(|s| s.total() == verified_size)
            .map(|s| s.sizes.clone())
            .unwrap_or_else(|| vec![0; shard_count]);
        let mut included: Vec<usize> = (0..self.epoch_checkpoints.len())
            .filter(|&i| self.epoch_checkpoints[i].body.size > verified_size)
            .collect();
        if included.is_empty() {
            // Client already at the head: the latest epoch alone, no runs.
            let last = self.epoch_checkpoints.len() - 1;
            return ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint: self.epoch_checkpoints[last].clone(),
                    shards: self.epoch_snapshots[last].clone(),
                }],
                proof: empty_runs(&self.log),
            };
        }
        if included.len() > MAX_BUNDLE_CHECKPOINTS {
            included.drain(..included.len() - MAX_BUNDLE_CHECKPOINTS);
        }
        let snapshots: Vec<&ShardSnapshot> =
            included.iter().map(|&i| &self.epoch_snapshots[i]).collect();
        let proof = self
            .log
            .prove_shard_runs(&baseline, &snapshots)
            .unwrap_or_else(|| empty_runs(&self.log));
        let epochs = included
            .iter()
            .map(|&i| ShardEpoch {
                checkpoint: self.epoch_checkpoints[i].clone(),
                shards: self.epoch_snapshots[i].clone(),
            })
            .collect();
        ShardBundle { epochs, proof }
    }

    /// Handles one protocol request.
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Attest { nonce } => {
                let binding = AttestationBinding {
                    nonce,
                    status: self.status(),
                };
                match &self.enclave {
                    Some(enclave) => Response::Quote(Box::new(enclave.quote(&binding.to_wire()))),
                    None => Response::Unattested(binding.status),
                }
            }
            Request::GetStatus => Response::Status(self.status()),
            Request::AppCall { method, payload } => match &mut self.app {
                None => Response::AppError("no application installed".into()),
                Some(app) => match app_call(
                    &mut app.instance,
                    &app.import_names,
                    self.app_host.as_mut(),
                    method,
                    &payload,
                ) {
                    Ok(payload) => Response::AppResult { payload },
                    Err(e) => Response::AppError(e.to_string()),
                },
            },
            Request::Update { release } => match self.apply_update(&release) {
                Ok(status) => Response::UpdateAck {
                    log_size: status.log_size,
                    digest: status.app_digest,
                },
                Err(e) => Response::UpdateRejected(e.to_string()),
            },
            Request::GetLogEntries { from } => {
                // The multi-shard flattening (shards concatenated in
                // shard order) is NOT append-only — an append to a lower
                // shard inserts mid-sequence — so incremental polling
                // with a remembered offset would silently skip entries.
                // Full dumps are fine; incremental reads are per-shard
                // ([`Request::GetShardEntries`], append-only within a
                // shard). On 1-shard logs every offset is served.
                if self.log.shard_count() != 1 && from != 0 {
                    return Response::Error(
                        "sharded log: incremental reads are per-shard; use GetShardEntries \
                         (GetLogEntries supports only from=0 on multi-shard logs)"
                            .into(),
                    );
                }
                match self.log.all_entries_from(from) {
                    Some(leaves) => Response::LogEntries(leaves),
                    None => Response::Error("log range out of bounds".into()),
                }
            }
            Request::GetShardEntries { shard, from } => {
                if shard as usize >= self.log.shard_count() {
                    return Response::Error(format!(
                        "no shard {shard} (log has {})",
                        self.log.shard_count()
                    ));
                }
                match self.log.entries_from(shard, from) {
                    Some(leaves) => Response::LogEntries(leaves),
                    None => Response::Error("shard range out of bounds".into()),
                }
            }
            Request::GetNotices { since } => Response::Notices(
                self.notices
                    .iter()
                    .filter(|n| n.log_index >= since)
                    .cloned()
                    .collect(),
            ),
            Request::BatchAudit {
                request_id,
                nonce,
                verified_size,
            } => {
                let binding = AttestationBinding {
                    nonce,
                    status: self.status(),
                };
                let attestation = match &self.enclave {
                    Some(enclave) => {
                        BundleAttestation::Quote(Box::new(enclave.quote(&binding.to_wire())))
                    }
                    None => BundleAttestation::Unattested(binding.status),
                };
                // 1-shard logs answer with the single-tree bundle;
                // multi-shard logs with the sharded one. The request is
                // the same either way — clients discover the layout from
                // the response tag.
                if self.log.shard_count() == 1 {
                    let bundle = self.audit_bundle(verified_size);
                    Response::AuditBundle(Box::new(AuditBundle {
                        request_id,
                        attestation,
                        bundle,
                    }))
                } else {
                    let bundle = self.shard_audit_bundle(verified_size);
                    Response::ShardAuditBundle(Box::new(ShardAuditBundle {
                        request_id,
                        attestation,
                        bundle,
                    }))
                }
            }
            Request::Gossip { envelope } => {
                let own_domain = self.config.domain_index;
                self.gossip.ingest(envelope, own_domain);
                // Reply with our own signed head first (reusing the cached
                // epoch/genesis signature — gossip must not mint fresh
                // signatures, or every exchange would move the log head),
                // then everything clients have left on the board.
                let own = self
                    .epoch_checkpoints
                    .last()
                    .cloned()
                    .unwrap_or_else(|| self.genesis_checkpoint());
                let mut heads = Vec::with_capacity(1 + self.gossip.heads.len());
                heads.push(GossipHead {
                    domain: own_domain,
                    checkpoint: own,
                });
                heads.extend(self.gossip.heads.iter().cloned());
                Response::Gossip {
                    envelope: GossipEnvelope {
                        heads,
                        evidence: self.gossip.evidence.clone(),
                    },
                }
            }
            // Domains never cosign their own heads — a quorum of one
            // interested party is not a quorum. Only witness relays
            // ([`crate::witness`]) answer with `Some`.
            Request::WitnessHead => Response::WitnessHead { cosigned: None },
        }
    }
}

/// Adapts the framework to the byte-in/byte-out service interface used by
/// both hosting modes (TEE proxy and direct).
pub struct FrameworkService {
    framework: EnclaveFramework,
}

impl FrameworkService {
    /// Wraps a framework.
    pub fn new(framework: EnclaveFramework) -> Self {
        Self { framework }
    }

    /// Access to the wrapped framework (tests, in-process deployments).
    pub fn framework_mut(&mut self) -> &mut EnclaveFramework {
        &mut self.framework
    }
}

impl distrust_tee::host::EnclaveService for FrameworkService {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(req) => self.framework.handle(req),
            Err(e) => Response::Error(format!("malformed request: {e}")),
        };
        response.to_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::NoImports;
    use distrust_sandbox::guests::{counter_module, hostile_module};

    fn dev() -> SigningKey {
        SigningKey::derive(b"framework tests", b"developer")
    }

    fn fresh_framework() -> EnclaveFramework {
        let developer = dev();
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "counter".into(),
                developer_key: developer.verifying_key(),
                log_id: [7; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            None,
            SigningKey::derive(b"framework tests", b"checkpoint"),
            Box::new(NoImports),
        )
        .unwrap()
    }

    fn release(version: u64) -> SignedRelease {
        SignedRelease::create(
            "counter",
            version,
            "notes",
            &counter_module(version),
            &dev(),
        )
    }

    #[test]
    fn install_and_call() {
        let mut fw = fresh_framework();
        let status = fw.apply_update(&release(1)).unwrap();
        assert_eq!(status.app_version, 1);
        assert_eq!(status.log_size, 1);
        // The counter app speaks raw exports, not the ABI `handle`; an
        // ABI call must fail gracefully, not crash the framework.
        let resp = fw.handle(Request::AppCall {
            method: 0,
            payload: vec![],
        });
        assert!(matches!(resp, Response::AppError(_)));
        // Framework is still alive.
        assert!(matches!(fw.handle(Request::GetStatus), Response::Status(_)));
    }

    #[test]
    fn update_ordering_log_then_notice_then_activate() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        let status = fw.status();
        assert_eq!(status.app_version, 2);
        assert_eq!(status.log_size, 2);
        // Notices exist for both versions and reference the right leaves.
        match fw.handle(Request::GetNotices { since: 0 }) {
            Response::Notices(n) => {
                assert_eq!(n.len(), 2);
                assert_eq!(n[0].manifest.version, 1);
                assert_eq!(n[0].log_index, 0);
                assert_eq!(n[1].manifest.version, 2);
                assert_eq!(n[1].log_index, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsigned_update_rejected_and_not_logged() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let mallory = SigningKey::derive(b"framework tests", b"mallory");
        let evil = SignedRelease::create("counter", 2, "evil", &counter_module(2), &mallory);
        let resp = fw.handle(Request::Update { release: evil });
        assert!(matches!(resp, Response::UpdateRejected(_)));
        // The log did not grow — rejected updates leave no trace of
        // activation (nothing ran).
        assert_eq!(fw.status().log_size, 1);
        assert_eq!(fw.status().app_version, 1);
    }

    #[test]
    fn stale_and_replayed_versions_rejected() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        assert!(matches!(
            fw.apply_update(&release(2)),
            Err(ReleaseError::StaleVersion { .. })
        ));
        assert!(matches!(
            fw.apply_update(&release(1)),
            Err(ReleaseError::StaleVersion { .. })
        ));
    }

    #[test]
    fn wrong_app_name_rejected() {
        let mut fw = fresh_framework();
        let other = SignedRelease::create("other-app", 1, "", &counter_module(1), &dev());
        assert!(matches!(
            fw.apply_update(&other),
            Err(ReleaseError::WrongApp { .. })
        ));
    }

    #[test]
    fn hostile_update_is_activated_but_contained() {
        // A signed-but-malicious module DOES get activated (the framework
        // cannot judge semantics — §3.3 non-goals) but cannot escape the
        // sandbox: its traps surface as AppErrors and the framework state
        // (including the log) stays intact.
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let evil = SignedRelease::create("counter", 2, "totally benign", &hostile_module(), &dev());
        fw.apply_update(&evil).unwrap();
        let resp = fw.handle(Request::AppCall {
            method: 0,
            payload: vec![],
        });
        assert!(matches!(resp, Response::AppError(_)));
        // The evidence trail survives: both digests in the log.
        assert_eq!(fw.status().log_size, 2);
        match fw.handle(Request::GetLogEntries { from: 0 }) {
            Response::LogEntries(leaves) => assert_eq!(leaves.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoints_sign_current_log() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let (cp, snapshot) = fw.sign_epoch().unwrap();
        assert_eq!(cp.body.size, 1);
        assert_eq!(cp.body.head, fw.status().log_head);
        assert_eq!(cp.body.head, snapshot.commitment());
        let key = SigningKey::derive(b"framework tests", b"checkpoint").verifying_key();
        assert!(cp.verify(&key));
        // Logical time advances.
        let (cp2, _) = fw.sign_epoch().unwrap();
        assert!(cp2.body.logical_time > cp.body.logical_time);
    }

    #[test]
    fn consistency_proofs_served() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let head1 = fw.status().log_head;
        fw.apply_update(&release(2)).unwrap();
        let head2 = fw.status().log_head;
        let mut audit = |verified_size| match fw.handle(Request::BatchAudit {
            request_id: 1,
            nonce: [0; 32],
            verified_size,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        // From a verified size of 1, the bundle links head 1 to head 2.
        let bundle = audit(1);
        let step = bundle.proof.step(0).expect("one consistency step");
        assert_eq!((step.old_size, step.new_size), (1, 2));
        assert!(step.verify(&head1, &head2));
        // Past the head, only the latest checkpoint comes back: no proof.
        let bundle = audit(5);
        assert_eq!(bundle.checkpoints.len(), 1);
        assert!(bundle.proof.is_empty());
    }

    #[test]
    fn attest_binds_nonce_and_status_unattested_domain() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        match fw.handle(Request::Attest { nonce: [9; 32] }) {
            Response::Unattested(status) => {
                assert_eq!(status.app_version, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn app_state_reset_on_update_is_documented_behaviour() {
        // Current TEEs cannot migrate state across code changes (§4.1);
        // our framework matches: each release starts a fresh instance.
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        let status = fw.status();
        assert_eq!(status.app_version, 2);
    }

    fn checkpoint_vk() -> VerifyingKey {
        SigningKey::derive(b"framework tests", b"checkpoint").verifying_key()
    }

    #[test]
    fn batch_audit_served_from_shared_cache() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        for i in 0..5u64 {
            match fw.handle(Request::BatchAudit {
                request_id: i,
                nonce: [i as u8; 32],
                verified_size: 0,
            }) {
                Response::AuditBundle(b) => {
                    assert_eq!(b.request_id, i, "request id echoed");
                    assert_eq!(b.bundle.checkpoints.len(), 2, "one checkpoint per epoch");
                    assert!(b
                        .bundle
                        .checkpoints
                        .iter()
                        .all(|cp| cp.verify(&checkpoint_vk())));
                    let last = b.bundle.checkpoints.last().unwrap();
                    assert_eq!(last.body.size, 2);
                    assert_eq!(last.body.head, fw.status().log_head);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Five identical audits: one bundle build, four cache hits — and
        // zero fresh signatures (the epoch checkpoints were signed at
        // update time).
        let (hits, misses) = fw.audit_cache_stats();
        assert_eq!((hits, misses), (4, 1));
    }

    #[test]
    fn batch_audit_bundles_verify_with_the_auditor() {
        use distrust_log::auditor::Auditor;
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let mut auditor = Auditor::new(vec![checkpoint_vk()]);
        let bundle = match fw.handle(Request::BatchAudit {
            request_id: 1,
            nonce: [1; 32],
            verified_size: 0,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);

        // Growth: the next bundle links the verified prefix to the head.
        fw.apply_update(&release(2)).unwrap();
        fw.apply_update(&release(3)).unwrap();
        let bundle = match fw.handle(Request::BatchAudit {
            request_id: 2,
            nonce: [2; 32],
            verified_size: 1,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(bundle.checkpoints.len(), 2, "sizes 2 and 3");
        assert_eq!(bundle.proof.len(), 2, "steps 1→2 and 2→3");
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 3);

        // Steady state: same bundle again — nothing verified, all skipped.
        let before = auditor.prefix_cache(0).unwrap().signatures_verified();
        let bundle = match fw.handle(Request::BatchAudit {
            request_id: 3,
            nonce: [3; 32],
            verified_size: 3,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        let cache = auditor.prefix_cache(0).unwrap();
        assert_eq!(
            cache.signatures_verified(),
            before,
            "unchanged log must not cost a signature verification"
        );
    }

    #[test]
    fn batch_audit_on_empty_log_serves_genesis() {
        use distrust_log::auditor::Auditor;
        let mut fw = fresh_framework();
        let mut auditor = Auditor::new(vec![checkpoint_vk()]);
        let bundle = match fw.handle(Request::BatchAudit {
            request_id: 7,
            nonce: [7; 32],
            verified_size: 0,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(bundle.checkpoints.len(), 1);
        assert_eq!(bundle.checkpoints[0].body.size, 0);
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        // First install: growth from the empty log is vacuously
        // consistent.
        fw.apply_update(&release(1)).unwrap();
        let bundle = match fw.handle(Request::BatchAudit {
            request_id: 8,
            nonce: [8; 32],
            verified_size: 0,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        };
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);
    }

    #[test]
    fn service_round_trips_bytes() {
        use distrust_tee::host::EnclaveService;
        let mut svc = FrameworkService::new(fresh_framework());
        let resp_bytes = svc.handle(Request::GetStatus.to_wire());
        assert!(matches!(
            Response::from_wire(&resp_bytes),
            Ok(Response::Status(_))
        ));
        // Garbage in, error frame out.
        let resp_bytes = svc.handle(vec![0xff, 0xfe]);
        assert!(matches!(
            Response::from_wire(&resp_bytes),
            Ok(Response::Error(_))
        ));
    }
}
