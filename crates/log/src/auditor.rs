//! Client/third-party auditing across trust domains.
//!
//! §3.3: "the client can check that the digests match across all n trust
//! domains, ensuring that if at least one trust domain is honest … the
//! client will receive a digest of the correct code."
//!
//! The auditor tracks the latest verified checkpoint per domain, verifies
//! that each new checkpoint extends the previous one (consistency), verifies
//! signatures, and cross-checks digest histories across domains. Outcomes
//! are explicit: [`AuditOutcome::Consistent`], or a [`Misbehavior`] value
//! carrying the strongest available evidence.
//!
//! Checkpoints arrive as bundles, and every bundle is verified by one
//! walk, [`Auditor::observe_shard_bundle`]. A single-tree
//! [`CheckpointBundle`] ([`Auditor::observe_bundle`]) is handed to it as
//! a 1-shard [`ShardBundle`] — a 1-shard commitment is the shard root, so
//! nothing about the single-tree checkpoints changes. Thanks to the
//! per-domain [`VerifiedPrefixCache`], the walk never re-verifies
//! signatures or proofs at or below the already-verified prefix.

use crate::batch::{CheckpointBundle, VerifiedPrefixCache};
use crate::checkpoint::{EquivocationProof, SignedCheckpoint};
use crate::shard::ShardBundle;
use distrust_crypto::schnorr::VerifyingKey;
use distrust_crypto::sha256::Digest;
use std::collections::HashMap;

/// Most shards a [`ShardBundle`] may announce before the auditor rejects
/// it as malformed. The sharded-log design targets tens of shards (one
/// per append-heavy partition); 1024 leaves generous headroom while
/// keeping every `shard_count`-sized allocation in the audit path bounded
/// by a constant instead of by a wire-announced value.
pub const MAX_BUNDLE_SHARDS: usize = 1024;

/// Evidence of misbehavior discovered during an audit.
#[derive(Clone, Debug)]
pub enum Misbehavior {
    /// A domain signed two conflicting views of the same log prefix —
    /// transferable cryptographic proof against that domain.
    Equivocation {
        /// Index of the offending domain.
        domain: u32,
        /// The proof object third parties can verify.
        proof: EquivocationProof,
    },
    /// A checkpoint carried an invalid signature.
    BadSignature {
        /// Index of the offending domain.
        domain: u32,
        /// The rejected checkpoint.
        checkpoint: SignedCheckpoint,
    },
    /// A new checkpoint failed the consistency proof against the trusted
    /// prior checkpoint (history rewrite or truncation).
    InconsistentGrowth {
        /// Index of the offending domain.
        domain: u32,
        /// The previously trusted checkpoint.
        trusted: SignedCheckpoint,
        /// The checkpoint that failed to extend it.
        offered: SignedCheckpoint,
    },
    /// A checkpoint went backwards (smaller size than already verified).
    Rollback {
        /// Index of the offending domain.
        domain: u32,
        /// Previously verified size.
        trusted_size: u64,
        /// Offered (smaller) size.
        offered_size: u64,
    },
    /// Domains disagree about the digest history. Not attributable to a
    /// single domain without more evidence, but proves at least one of the
    /// quoted domains is lying (the paper's detection guarantee).
    CrossDomainDivergence {
        /// The conflicting signed checkpoints, by domain index.
        views: Vec<(u32, SignedCheckpoint)>,
    },
    /// A batched-audit bundle was structurally invalid (empty, descending
    /// sizes, step/checkpoint mismatch). Not transferable evidence by
    /// itself, but a served bundle a correct domain would never produce.
    MalformedBundle {
        /// Index of the offending domain.
        domain: u32,
        /// What was wrong with the bundle.
        reason: String,
    },
}

/// Result of feeding an audit round.
#[derive(Clone, Debug)]
pub enum AuditOutcome {
    /// Everything verified and all domains agree.
    Consistent,
    /// Evidence of misbehavior (strongest form available).
    Misbehavior(Box<Misbehavior>),
}

impl AuditOutcome {
    /// True when the audit found no problems.
    pub fn is_consistent(&self) -> bool {
        matches!(self, AuditOutcome::Consistent)
    }
}

/// Per-domain audit state: the log public key and the latest verified
/// checkpoint with all checkpoints ever accepted (for equivocation hunting).
struct DomainState {
    key: VerifyingKey,
    latest: Option<SignedCheckpoint>,
    /// All correctly signed checkpoints seen, by size — equivocation is
    /// detected by finding two different heads at one size.
    seen: HashMap<u64, SignedCheckpoint>,
    /// Highest fully verified prefix plus performed/skipped verification
    /// counters — what makes batched audits cheap on repeat.
    cache: VerifiedPrefixCache,
}

impl DomainState {
    /// True when `cp` is byte-identical to the checkpoint already accepted
    /// at its size. `seen` only ever holds checkpoints whose signature this
    /// auditor verified, so such a checkpoint has nothing left to prove.
    fn is_known(&self, cp: &SignedCheckpoint) -> bool {
        self.seen.get(&cp.body.size) == Some(cp)
    }

    /// Checkpoint-level prechecks of [`Auditor::observe_shard_bundle`]:
    /// the evidence hunts over the *signed checkpoints*, before any
    /// per-shard verification. In order: signature verification skipping
    /// checkpoints byte-identical to already-verified ones (one batch
    /// equation for the rest, per-checkpoint checks only to assign blame);
    /// equivocation inside the batch (two correctly signed heads for one
    /// size are transferable proof); equivocation against everything
    /// previously seen; structural ascending sizes; and rollback below the
    /// verified prefix. Returns the first misbehavior found, `None` when clean.
    fn precheck_checkpoint_batch(
        &mut self,
        domain: u32,
        cps: &[&SignedCheckpoint],
    ) -> Option<Misbehavior> {
        // 1. Signatures, skipping checkpoints byte-identical to ones this
        //    auditor already verified (the common steady-state case). The
        //    rest are checked together with one batch equation; only when
        //    it fails does the per-checkpoint loop run, to name the first
        //    bad checkpoint in bundle order (blame). Either way the
        //    counters record one skip or one signature per checkpoint.
        let fresh: Vec<&SignedCheckpoint> = cps
            .iter()
            .copied()
            .filter(|cp| !self.is_known(cp))
            .collect();
        let batch_ok = SignedCheckpoint::verify_all(&fresh, &self.key);
        for cp in cps {
            if self.is_known(cp) {
                self.cache.note_skipped();
                continue;
            }
            if !batch_ok && !cp.verify(&self.key) {
                return Some(Misbehavior::BadSignature {
                    domain,
                    checkpoint: (*cp).clone(),
                });
            }
            self.cache.note_signature();
        }
        // 2. Equivocation inside the batch.
        for (i, a) in cps.iter().enumerate() {
            // lint:allow(taint-alloc): `i` enumerates `cps` itself, so the slice start is bounded by the batch length by construction
            for b in &cps[i + 1..] {
                if a.body.size == b.body.size
                    && a.body.log_id == b.body.log_id
                    && a.body.head != b.body.head
                {
                    return Some(Misbehavior::Equivocation {
                        domain,
                        proof: EquivocationProof {
                            a: (*a).clone(),
                            b: (*b).clone(),
                        },
                    });
                }
            }
        }
        // 3. Equivocation against history.
        for cp in cps {
            if let Some(prior) = self.seen.get(&cp.body.size) {
                if prior.body.head != cp.body.head && prior.body.log_id == cp.body.log_id {
                    return Some(Misbehavior::Equivocation {
                        domain,
                        proof: EquivocationProof {
                            a: prior.clone(),
                            b: (*cp).clone(),
                        },
                    });
                }
            }
        }
        // 4. Structure: ascending sizes. Same-size entries reaching this
        //    point agree on the head (conflicts were flagged above) and
        //    are treated as duplicates by the chain walks.
        for w in cps.windows(2) {
            if w[1].body.size < w[0].body.size {
                return Some(Misbehavior::MalformedBundle {
                    domain,
                    reason: "checkpoint sizes descending".into(),
                });
            }
        }
        // 5. Rollback: no checkpoint may be older than the verified
        //    prefix (a stale cached bundle, or a stale entry smuggled
        //    into an otherwise-fresh bundle).
        if let Some(trusted) = &self.latest {
            for cp in cps {
                if cp.body.size < trusted.body.size {
                    return Some(Misbehavior::Rollback {
                        domain,
                        trusted_size: trusted.body.size,
                        offered_size: cp.body.size,
                    });
                }
            }
        }
        None
    }
}

/// A stateful cross-domain log auditor.
pub struct Auditor {
    domains: Vec<DomainState>,
}

impl Auditor {
    /// Creates an auditor for `keys[i]` = domain `i`'s log key.
    pub fn new(keys: Vec<VerifyingKey>) -> Self {
        Self {
            domains: keys
                .into_iter()
                .map(|key| DomainState {
                    key,
                    latest: None,
                    seen: HashMap::new(),
                    cache: VerifiedPrefixCache::new(),
                })
                .collect(),
        }
    }

    /// Number of domains tracked.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The latest verified checkpoint for a domain.
    pub fn latest(&self, domain: u32) -> Option<&SignedCheckpoint> {
        self.domains.get(domain as usize)?.latest.as_ref()
    }

    /// Ingests one signed checkpoint from `domain`, with a consistency
    /// proof against the previously verified checkpoint when one exists
    /// (`proof` may be `None` for a first observation). The one-at-a-time
    /// oracle the bundle walk is property-tested against; like the walk,
    /// it commits the checkpoint as a 1-shard prefix.
    #[cfg(test)]
    pub fn observe(
        &mut self,
        domain: u32,
        checkpoint: SignedCheckpoint,
        proof: Option<&crate::merkle::ConsistencyProof>,
    ) -> AuditOutcome {
        let Some(state) = self.domains.get_mut(domain as usize) else {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        };
        // Verified-prefix fast path: a checkpoint byte-identical to the
        // latest verified one has nothing left to prove — no signature
        // re-verification, no proof.
        if state.latest.as_ref() == Some(&checkpoint) {
            state.cache.note_skipped();
            return AuditOutcome::Consistent;
        }
        if !checkpoint.verify(&state.key) {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        }
        state.cache.note_signature();
        // Equivocation hunt: same size, different head, both signed.
        if let Some(prior) = state.seen.get(&checkpoint.body.size) {
            if prior.body.head != checkpoint.body.head
                && prior.body.log_id == checkpoint.body.log_id
            {
                let proof = EquivocationProof {
                    a: prior.clone(),
                    b: checkpoint.clone(),
                };
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation {
                    domain,
                    proof,
                }));
            }
        }
        if let Some(trusted) = &state.latest {
            if checkpoint.body.size < trusted.body.size {
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::Rollback {
                    domain,
                    trusted_size: trusted.body.size,
                    offered_size: checkpoint.body.size,
                }));
            }
            if checkpoint.body.size == trusted.body.size {
                // Same size: heads must match (the equivocation check above
                // already caught the conflicting case for stored sizes).
                if checkpoint.body.head != trusted.body.head {
                    let proof = EquivocationProof {
                        a: trusted.clone(),
                        b: checkpoint.clone(),
                    };
                    return AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation {
                        domain,
                        proof,
                    }));
                }
            } else {
                // Growth requires a valid consistency proof — except from
                // size 0: the empty tree is a prefix of every tree, so
                // growth from it is vacuously consistent (RFC 6962 defines
                // no proof for old_size = 0).
                let ok = trusted.body.size == 0
                    || match proof {
                        Some(p) => {
                            state.cache.note_consistency();
                            p.old_size == trusted.body.size
                                && p.new_size == checkpoint.body.size
                                && p.verify(&trusted.body.head, &checkpoint.body.head)
                        }
                        None => false,
                    };
                if !ok {
                    return AuditOutcome::Misbehavior(Box::new(Misbehavior::InconsistentGrowth {
                        domain,
                        trusted: trusted.clone(),
                        offered: checkpoint.clone(),
                    }));
                }
            }
        }
        let (size, head) = (checkpoint.body.size, checkpoint.body.head);
        state.cache.record(size, head);
        state.cache.record_shards(&[size], &[head]);
        state.seen.insert(size, checkpoint.clone());
        state.latest = Some(checkpoint);
        AuditOutcome::Consistent
    }

    /// Ingests a single-tree [`CheckpointBundle`] from `domain`: verified
    /// as its 1-shard [`ShardBundle`] view by
    /// [`Auditor::observe_shard_bundle`], with identical outcomes.
    pub fn observe_bundle(&mut self, domain: u32, bundle: &CheckpointBundle) -> AuditOutcome {
        self.observe_shard_bundle(domain, &ShardBundle::from(bundle.clone()))
    }

    /// Ingests an audit bundle from `domain` — the one verification walk.
    /// Checkpoint-level detection first (signatures skipped at or below
    /// the verified prefix, equivocation hunts inside the bundle and
    /// against history — yielding a transferable
    /// [`Misbehavior::Equivocation`] proof — ascending sizes, rollback),
    /// then the sharded-commitment checks:
    ///
    /// * every epoch's snapshot must reproduce its signed `(size, head)` —
    ///   `size = Σ shard sizes`, `head =` the shard-heads commitment;
    /// * each shard must evolve append-only across epochs, proven by that
    ///   shard's consistency run (one verification per grown transition
    ///   above the per-shard verified prefix; a shard going backwards is
    ///   flagged as [`Misbehavior::Rollback`] with that shard's sizes);
    /// * the verified prefix is tracked **per shard**
    ///   ([`VerifiedPrefixCache::shard_prefixes`]), so steady-state audits
    ///   of a sharded log verify nothing at all, and a grown log costs one
    ///   consistency check per shard that actually grew.
    pub fn observe_shard_bundle(&mut self, domain: u32, bundle: &ShardBundle) -> AuditOutcome {
        let misb = |m: Misbehavior| AuditOutcome::Misbehavior(Box::new(m));
        let malformed = |domain: u32, reason: &str| {
            AuditOutcome::Misbehavior(Box::new(Misbehavior::MalformedBundle {
                domain,
                reason: reason.into(),
            }))
        };
        let Some(state) = self.domains.get_mut(domain as usize) else {
            return malformed(domain, "unknown domain index");
        };
        let epochs = &bundle.epochs;
        if epochs.is_empty() {
            return malformed(domain, "bundle carries no epochs");
        }
        let shard_count = epochs[0].shards.shard_count();
        if shard_count == 0 {
            return malformed(domain, "epoch snapshot has no shards");
        }
        if shard_count > MAX_BUNDLE_SHARDS {
            return malformed(domain, "bundle shard count exceeds the audit limit");
        }
        // No-op after the guard above; keeps every allocation and index
        // below bounded by a constant rather than by wire input.
        let shard_count = shard_count.min(MAX_BUNDLE_SHARDS);
        if epochs.iter().any(|e| e.shards.shard_count() != shard_count) {
            return malformed(domain, "shard count varies across epochs");
        }
        if bundle.proof.runs.len() != shard_count {
            return malformed(domain, "proof runs do not match shard count");
        }
        // 0. Commitment binding: the snapshot must reproduce exactly the
        //    signed (size, head). A snapshot that does not is not evidence
        //    against the key — the signature may even be valid — but a
        //    correct domain never serves it.
        for e in epochs {
            if !e.well_formed() {
                return malformed(domain, "snapshot does not produce the signed (size, head)");
            }
        }
        // 1–5. The checkpoint-level prechecks over the epochs' signed
        //      checkpoints.
        let refs: Vec<&SignedCheckpoint> = epochs.iter().map(|e| &e.checkpoint).collect();
        if let Some(m) = state.precheck_checkpoint_batch(domain, &refs) {
            return misb(m);
        }
        // 6. Per-shard chain verification from the cached per-shard
        //    prefix. The walk commits `latest` and the shard prefixes
        //    together, so no prefix means no verified checkpoint either:
        //    a first observation.
        let mut prev: Option<Vec<(u64, Digest)>> = match state.cache.shard_prefixes() {
            Some(p) if p.len() == shard_count => Some(p.to_vec()),
            Some(_) => return malformed(domain, "shard count changed across audits"),
            None => None,
        };
        let mut next_step = vec![0usize; shard_count];
        for e in epochs {
            let Some(prev_states) = &prev else {
                // First observation: adopt the snapshot without proof
                // (trust on first use; gossip and the cross-domain check
                // catch a first view that differs from everyone else's).
                prev = Some(
                    e.shards
                        .sizes
                        .iter()
                        .copied()
                        .zip(e.shards.heads.iter().copied())
                        .collect(),
                );
                continue;
            };
            let mut advanced = false;
            for s in 0..shard_count {
                let (ps, ph) = prev_states[s];
                let (ns, nh) = (e.shards.sizes[s], e.shards.heads[s]);
                if ns < ps {
                    return misb(Misbehavior::Rollback {
                        domain,
                        trusted_size: ps,
                        offered_size: ns,
                    });
                }
                if ns == ps {
                    if nh != ph {
                        // Same shard size, different head: a rewritten
                        // shard hiding under a grown sibling.
                        return misb(Misbehavior::InconsistentGrowth {
                            domain,
                            trusted: state.latest.clone().unwrap_or_else(|| e.checkpoint.clone()),
                            offered: e.checkpoint.clone(),
                        });
                    }
                    continue;
                }
                advanced = true;
                if ps == 0 {
                    // Growth from the empty shard is vacuously consistent.
                    continue;
                }
                let expanded = bundle.proof.step(s, next_step[s]);
                next_step[s] += 1;
                let ok = match expanded {
                    Some(p) => {
                        state.cache.note_consistency();
                        p.old_size == ps && p.new_size == ns && p.verify(&ph, &nh)
                    }
                    None => false,
                };
                if !ok {
                    return misb(Misbehavior::InconsistentGrowth {
                        domain,
                        trusted: state.latest.clone().unwrap_or_else(|| e.checkpoint.clone()),
                        offered: e.checkpoint.clone(),
                    });
                }
            }
            if !advanced {
                // A re-served epoch (every shard unchanged): nothing to
                // verify.
                state.cache.note_skipped();
            }
            prev = Some(
                e.shards
                    .sizes
                    .iter()
                    .copied()
                    .zip(e.shards.heads.iter().copied())
                    .collect(),
            );
        }
        // 7. Commit.
        for e in epochs {
            state
                .seen
                .insert(e.checkpoint.body.size, e.checkpoint.clone());
        }
        let last = epochs.last().expect("non-empty");
        state
            .cache
            .record(last.checkpoint.body.size, last.checkpoint.body.head);
        state
            .cache
            .record_shards(&last.shards.sizes, &last.shards.heads);
        state.latest = Some(last.checkpoint.clone());
        AuditOutcome::Consistent
    }

    /// The verified-prefix cache for a domain: highest verified size and
    /// the performed/skipped verification counters.
    pub fn prefix_cache(&self, domain: u32) -> Option<&VerifiedPrefixCache> {
        self.domains.get(domain as usize).map(|d| &d.cache)
    }

    /// Ingests a checkpoint relayed by *another client* (gossip).
    ///
    /// A malicious domain can mount a split-view attack: show client A one
    /// history and client B another, each internally consistent. Neither
    /// client alone can detect it — but the two signed checkpoints
    /// together are an equivocation proof. Exchanging checkpoints
    /// out-of-band (exactly how Certificate Transparency closes the same
    /// gap) and feeding them here turns the split view into transferable
    /// evidence.
    ///
    /// Unlike [`Auditor::observe_shard_bundle`], gossip makes no freshness
    /// or growth demands: the relaying client may legitimately be behind, so only
    /// signature validity and same-size-different-head conflicts matter.
    ///
    /// Each head is verified once: a head byte-identical to the checkpoint
    /// already accepted at its size is `Consistent` without a signature
    /// check — the rule the bundle prechecks apply, sound because only
    /// verified checkpoints are ever accepted. Gossip leaves the
    /// verified-prefix counters alone either way.
    pub fn ingest_gossip(&mut self, domain: u32, checkpoint: SignedCheckpoint) -> AuditOutcome {
        let Some(state) = self.domains.get_mut(domain as usize) else {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        };
        if state.is_known(&checkpoint) {
            return AuditOutcome::Consistent;
        }
        if !checkpoint.verify(&state.key) {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        }
        if let Some(prior) = state.seen.get(&checkpoint.body.size) {
            if prior.body.head != checkpoint.body.head
                && prior.body.log_id == checkpoint.body.log_id
            {
                let proof = EquivocationProof {
                    a: prior.clone(),
                    b: checkpoint,
                };
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation {
                    domain,
                    proof,
                }));
            }
        } else {
            state.seen.insert(checkpoint.body.size, checkpoint);
        }
        AuditOutcome::Consistent
    }

    /// Exports the latest verified checkpoints for gossiping to peers.
    pub fn gossip_payload(&self) -> Vec<(u32, SignedCheckpoint)> {
        self.domains
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.latest.clone().map(|cp| (i as u32, cp)))
            .collect()
    }

    /// Cross-checks the verified checkpoints across all domains. The paper
    /// requires all `n` domains to report the *same* digest history; any
    /// divergence is flagged.
    ///
    /// Comparison is grouped by checkpoint size: every checkpoint each
    /// domain has presented is bucketed by its announced log size, and all
    /// checkpoints within a size bucket must share the same head. Domains
    /// lagging behind (no checkpoint at a given size) are not flagged —
    /// being behind is consistent; disagreeing at the same size is not.
    pub fn cross_check(&self) -> AuditOutcome {
        let mut views: Vec<(u32, &SignedCheckpoint)> = Vec::new();
        for (i, d) in self.domains.iter().enumerate() {
            if let Some(cp) = &d.latest {
                views.push((i as u32, cp));
            }
        }
        if views.len() < 2 {
            return AuditOutcome::Consistent;
        }
        // Compare at the minimum common size using each domain's stored
        // checkpoint for that size when available; otherwise compare heads
        // only between same-size domains.
        let mut by_size: HashMap<u64, Vec<(u32, &SignedCheckpoint)>> = HashMap::new();
        for (i, d) in self.domains.iter().enumerate() {
            for cp in d.seen.values() {
                by_size
                    .entry(cp.body.size)
                    .or_default()
                    .push((i as u32, cp));
            }
        }
        for (_, group) in by_size {
            if group.len() < 2 {
                continue;
            }
            let head0 = group[0].1.body.head;
            if group.iter().any(|(_, cp)| cp.body.head != head0) {
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::CrossDomainDivergence {
                    views: group.into_iter().map(|(i, cp)| (i, cp.clone())).collect(),
                }));
            }
        }
        AuditOutcome::Consistent
    }
}

/// Convenience: checks that all domains report exactly the same digest for
/// the current code — the simple "do all the attested measurements match"
/// check from §4.1 (deployment without updates).
pub fn digests_match(digests: &[Digest]) -> bool {
    match digests.split_first() {
        None => true,
        Some((first, rest)) => rest.iter().all(|d| d == first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ProofBundle;
    use crate::checkpoint::{log_id, CheckpointBody};
    use crate::merkle::MerkleLog;
    use distrust_crypto::schnorr::{SchnorrSignature, SigningKey};

    struct Domain {
        sk: SigningKey,
        log: MerkleLog,
        lid: [u8; 32],
        time: u64,
    }

    impl Domain {
        fn new(i: u32) -> Self {
            Self {
                sk: SigningKey::derive(b"auditor tests", &i.to_le_bytes()),
                log: MerkleLog::new(),
                lid: log_id(b"dep", i),
                time: 0,
            }
        }

        fn checkpoint(&mut self) -> SignedCheckpoint {
            self.time += 1;
            SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: self.lid,
                    size: self.log.len() as u64,
                    head: self.log.root(),
                    logical_time: self.time,
                },
                &self.sk,
            )
        }
    }

    fn auditor_for(domains: &[Domain]) -> Auditor {
        Auditor::new(domains.iter().map(|d| d.sk.verifying_key()).collect())
    }

    #[test]
    fn honest_growth_is_consistent() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        assert!(auditor.observe(0, cp1, None).is_consistent());
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        let proof = d.log.prove_consistency(1, 2).unwrap();
        assert!(auditor.observe(0, cp2, Some(&proof)).is_consistent());
    }

    #[test]
    fn growth_without_proof_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        auditor.observe(0, cp1, None);
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        match auditor.observe(0, cp2, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
            }
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn history_rewrite_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp = d.checkpoint();
        let _ = auditor.observe(0, cp, None);
        // Rebuild the log with a different history of the same length + 1.
        let mut forged = MerkleLog::new();
        forged.append(b"evil-1");
        forged.append(b"evil-2");
        forged.append(b"evil-3");
        let forged_cp = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 3,
                head: forged.root(),
                logical_time: 99,
            },
            &d.sk,
        );
        let bogus_proof = forged.prove_consistency(2, 3).unwrap();
        match auditor.observe(0, forged_cp, Some(&bogus_proof)) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
            }
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn rollback_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        auditor.observe(0, cp2, None);
        // Offer a checkpoint for size 1.
        let old = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: d.log.root_of_prefix(1),
                logical_time: 100,
            },
            &d.sk,
        );
        match auditor.observe(0, old, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::Rollback { .. }))
            }
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn equivocation_yields_transferable_proof() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp_honest = d.checkpoint();
        auditor.observe(0, cp_honest, None);
        // The domain signs a different head for the same size.
        let cp_fork = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [0xee; 32],
                logical_time: 50,
            },
            &d.sk,
        );
        match auditor.observe(0, cp_fork, None) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::Equivocation { domain, proof } => {
                    assert_eq!(domain, 0);
                    assert!(proof.verify(&d.sk.verifying_key()));
                }
                other => panic!("expected equivocation, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn bad_signature_flagged() {
        let d = Domain::new(0);
        let stranger = SigningKey::derive(b"stranger", b"");
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let cp = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [1; 32],
                logical_time: 1,
            },
            &stranger,
        );
        match auditor.observe(0, cp, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::BadSignature { .. }))
            }
            other => panic!("expected bad signature, got {other:?}"),
        }
    }

    #[test]
    fn cross_domain_divergence_detected() {
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        d0.log.append(b"v1");
        d1.log.append(b"v1-evil");
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        assert!(auditor.observe(0, cp0, None).is_consistent());
        assert!(auditor.observe(1, cp1, None).is_consistent());
        match auditor.cross_check() {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::CrossDomainDivergence { views } => {
                    assert_eq!(views.len(), 2);
                }
                other => panic!("expected divergence, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn agreeing_domains_cross_check_clean() {
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        for leaf in [b"v1".as_slice(), b"v2"] {
            d0.log.append(leaf);
            d1.log.append(leaf);
        }
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        auditor.observe(0, cp0, None);
        auditor.observe(1, cp1, None);
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn lagging_domain_not_flagged() {
        // Domain 1 has seen fewer updates but agrees on the shared prefix.
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        d0.log.append(b"v1");
        d0.log.append(b"v2");
        d1.log.append(b"v1");
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        auditor.observe(0, cp0, None);
        auditor.observe(1, cp1, None);
        // Sizes differ (2 vs 1) so no same-size comparison exists; clean.
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn gossip_detects_split_view() {
        // A domain shows client A history "0xaa" and client B history
        // "0xbb" at the same size. Each client alone is satisfied; gossip
        // between them exposes the equivocation.
        let d = Domain::new(0);
        let make_cp = |head: [u8; 32]| {
            SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: d.lid,
                    size: 3,
                    head,
                    logical_time: 3,
                },
                &d.sk,
            )
        };
        let mut auditor_a = auditor_for(std::slice::from_ref(&d));
        let mut auditor_b = auditor_for(std::slice::from_ref(&d));
        assert!(auditor_a
            .observe(0, make_cp([0xaa; 32]), None)
            .is_consistent());
        assert!(auditor_b
            .observe(0, make_cp([0xbb; 32]), None)
            .is_consistent());
        // Client B relays its view to client A.
        let payload = auditor_b.gossip_payload();
        assert_eq!(payload.len(), 1);
        match auditor_a.ingest_gossip(0, payload[0].1.clone()) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::Equivocation { proof, .. } => {
                    assert!(proof.verify(&d.sk.verifying_key()));
                }
                other => panic!("expected equivocation, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn gossip_tolerates_lagging_peers() {
        // An older-but-consistent checkpoint from a peer is NOT flagged.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let old_cp = d.checkpoint();
        d.log.append(b"v2");
        let new_cp = d.checkpoint();
        let proof = d.log.prove_consistency(1, 2).unwrap();
        assert!(auditor.observe(0, old_cp.clone(), None).is_consistent());
        assert!(auditor.observe(0, new_cp, Some(&proof)).is_consistent());
        // Peer is still at size 1 with the same head: fine.
        assert!(auditor.ingest_gossip(0, old_cp).is_consistent());
    }

    #[test]
    fn gossip_rejects_forged_checkpoints() {
        let d = Domain::new(0);
        let stranger = SigningKey::derive(b"stranger", b"");
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let forged = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [9; 32],
                logical_time: 1,
            },
            &stranger,
        );
        match auditor.ingest_gossip(0, forged) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::BadSignature { .. }))
            }
            other => panic!("expected bad signature, got {other:?}"),
        }
        // A forged checkpoint must not frame the domain: no equivocation
        // state was recorded.
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn gossip_skips_known_heads_but_not_corrupted_copies() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp = d.checkpoint();
        assert!(auditor.observe(0, cp.clone(), None).is_consistent());
        let counters = |a: &Auditor| {
            let c = a.prefix_cache(0).expect("domain 0");
            (
                c.signatures_verified(),
                c.consistency_verified(),
                c.skipped(),
            )
        };
        let before = counters(&auditor);
        // A byte-identical relay of a verified head: nothing to prove.
        assert!(auditor.ingest_gossip(0, cp.clone()).is_consistent());
        assert_eq!(counters(&auditor), before);
        // Same body, corrupted signature: not the known head, so it is
        // verified — and rejected.
        let mut bytes = cp.signature.to_bytes();
        bytes[79] ^= 1;
        let corrupted = SignedCheckpoint {
            body: cp.body.clone(),
            signature: SchnorrSignature::from_bytes(&bytes).expect("s stays canonical"),
        };
        match auditor.ingest_gossip(0, corrupted.clone()) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::BadSignature { domain, checkpoint } => {
                    assert_eq!(domain, 0);
                    assert_eq!(checkpoint, corrupted);
                }
                other => panic!("expected bad signature, got {other:?}"),
            },
            other => panic!("expected bad signature, got {other:?}"),
        }
        assert_eq!(counters(&auditor), before);
        assert_eq!(auditor.latest(0), Some(&cp));
        assert!(auditor.ingest_gossip(0, cp).is_consistent());
    }

    /// An honest bundle of `epochs` releases, one checkpoint per epoch,
    /// linked from the empty log.
    fn epoch_bundle(d: &mut Domain, epochs: usize) -> CheckpointBundle {
        let checkpoints: Vec<SignedCheckpoint> = (0..epochs)
            .map(|i| {
                d.log.append(format!("release {i}").as_bytes());
                d.checkpoint()
            })
            .collect();
        let sizes: Vec<usize> = checkpoints.iter().map(|cp| cp.body.size as usize).collect();
        let proof = d.log.prove_consistency_range(&sizes).expect("honest range");
        CheckpointBundle { checkpoints, proof }
    }

    #[test]
    fn forged_signature_in_a_64_epoch_bundle_is_named() {
        let mut d = Domain::new(0);
        let honest = epoch_bundle(&mut d, 64);
        let key = d.sk.verifying_key();
        let stranger = SigningKey::derive(b"stranger", b"");
        // Two forgeries: the right body signed by another key, and the
        // domain's own signature lifted from the neighbouring checkpoint.
        type Forge = fn(&CheckpointBundle, usize, &SigningKey) -> SignedCheckpoint;
        let forgeries: [(&str, Forge); 2] = [
            ("stranger key", |b, p, stranger| {
                SignedCheckpoint::sign(b.checkpoints[p].body.clone(), stranger)
            }),
            ("neighbour's signature", |b, p, _| SignedCheckpoint {
                body: b.checkpoints[p].body.clone(),
                signature: b.checkpoints[(p + 1) % b.checkpoints.len()].signature,
            }),
        ];
        for (how, forge) in forgeries {
            for positions in [&[0][..], &[31], &[63], &[40, 17]] {
                let mut bundle = honest.clone();
                for &p in positions {
                    bundle.checkpoints[p] = forge(&honest, p, &stranger);
                }
                // What the per-signature loop names: the first bad one in
                // bundle order.
                let expected = bundle
                    .checkpoints
                    .iter()
                    .find(|cp| !cp.verify(&key))
                    .cloned()
                    .expect("a forged checkpoint");
                let first = *positions.iter().min().expect("non-empty");
                assert_eq!(expected, bundle.checkpoints[first]);
                let mut auditor = auditor_for(std::slice::from_ref(&d));
                match auditor.observe_bundle(0, &bundle) {
                    AuditOutcome::Misbehavior(m) => match *m {
                        Misbehavior::BadSignature { domain, checkpoint } => {
                            assert_eq!(domain, 0);
                            assert_eq!(checkpoint, expected, "{how} at {positions:?}");
                        }
                        other => panic!("{how} at {positions:?}: got {other:?}"),
                    },
                    other => panic!("{how} at {positions:?}: got {other:?}"),
                }
                assert!(auditor.latest(0).is_none(), "nothing committed");
            }
        }
        // The honest bundle passes, charging one signature per checkpoint;
        // served again, it charges none.
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        assert!(auditor.observe_bundle(0, &honest).is_consistent());
        let cache = auditor.prefix_cache(0).expect("domain 0");
        assert_eq!((cache.signatures_verified(), cache.skipped()), (64, 0));
        let last = CheckpointBundle {
            checkpoints: vec![honest.checkpoints[63].clone()],
            proof: ProofBundle::default(),
        };
        assert!(auditor.observe_bundle(0, &last).is_consistent());
        let cache = auditor.prefix_cache(0).expect("domain 0");
        assert_eq!(cache.signatures_verified(), 64);
    }

    #[test]
    fn forged_signature_behind_a_verified_prefix_is_named() {
        // Half the history is verified; a bundle re-serving it with one
        // checkpoint's signature swapped is not byte-identical to the
        // known one, so it is checked and named.
        let mut d = Domain::new(0);
        let honest = epoch_bundle(&mut d, 16);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let first_half = CheckpointBundle {
            checkpoints: honest.checkpoints[..8].to_vec(),
            proof: d
                .log
                .prove_consistency_range(&(1..=8).collect::<Vec<_>>())
                .expect("honest range"),
        };
        assert!(auditor.observe_bundle(0, &first_half).is_consistent());
        let mut bundle = honest.clone();
        bundle.checkpoints[3].signature = honest.checkpoints[4].signature;
        match auditor.observe_bundle(0, &bundle) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::BadSignature { checkpoint, .. } => {
                    assert_eq!(checkpoint, bundle.checkpoints[3])
                }
                other => panic!("expected bad signature, got {other:?}"),
            },
            other => panic!("expected bad signature, got {other:?}"),
        }
    }

    #[test]
    fn bundle_smuggling_stale_checkpoint_flagged_as_rollback() {
        // The per-step path flags any served checkpoint older than the
        // verified prefix as Rollback; a stale entry hidden inside an
        // otherwise-fresh bundle must be flagged identically.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        assert!(auditor.observe(0, cp2.clone(), None).is_consistent());
        let stale = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: d.log.root_of_prefix(1),
                logical_time: 50,
            },
            &d.sk,
        );
        let bundle = CheckpointBundle {
            checkpoints: vec![stale, cp2],
            proof: ProofBundle::default(),
        };
        match auditor.observe_bundle(0, &bundle) {
            AuditOutcome::Misbehavior(m) => assert!(matches!(
                *m,
                Misbehavior::Rollback {
                    trusted_size: 2,
                    offered_size: 1,
                    ..
                }
            )),
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn bundle_with_duplicate_checkpoint_is_tolerated() {
        // A re-served checkpoint (same size, same head) is accepted by
        // the per-step path; a bundle containing the duplicate must be
        // too — only conflicting heads are evidence.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp = d.checkpoint();
        let again = d.checkpoint(); // same size/head, fresh logical time
        let bundle = CheckpointBundle {
            checkpoints: vec![cp, again],
            proof: ProofBundle::default(),
        };
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);
    }

    mod sharded {
        use super::*;
        use crate::shard::{ShardBundle, ShardEpoch, ShardSnapshot, ShardedLog};

        /// A sharded trust-domain mirror: shard log + per-epoch signed
        /// checkpoints over the shard-head commitment, shaped like the
        /// framework's shard-aware audit server side.
        struct ShardDomain {
            sk: SigningKey,
            log: ShardedLog,
            epochs: Vec<(SignedCheckpoint, ShardSnapshot)>,
            lid: [u8; 32],
            time: u64,
        }

        impl ShardDomain {
            fn new(shards: usize) -> Self {
                Self {
                    sk: SigningKey::derive(b"shard auditor tests", &(shards as u32).to_le_bytes()),
                    log: ShardedLog::new(shards),
                    epochs: Vec::new(),
                    lid: log_id(b"shard-dep", 0),
                    time: 0,
                }
            }

            fn append(&mut self, shard: u32, leaf: &[u8]) {
                self.log.append(shard, leaf).expect("shard exists");
                let snapshot = self.log.snapshot();
                self.time += 1;
                let cp = SignedCheckpoint::sign(
                    CheckpointBody {
                        log_id: self.lid,
                        size: snapshot.total(),
                        head: snapshot.commitment(),
                        logical_time: self.time,
                    },
                    &self.sk,
                );
                self.epochs.push((cp, snapshot));
            }

            /// Bundle for a client whose per-shard verified sizes are
            /// `baseline` (zeros = fresh client).
            fn bundle_from(&self, baseline: &[u64]) -> ShardBundle {
                let total: u64 = baseline.iter().sum();
                let included: Vec<&(SignedCheckpoint, ShardSnapshot)> = self
                    .epochs
                    .iter()
                    .filter(|(cp, _)| cp.body.size > total)
                    .collect();
                if included.is_empty() {
                    let (cp, snap) = self.epochs.last().expect("non-empty").clone();
                    return ShardBundle {
                        epochs: vec![ShardEpoch {
                            checkpoint: cp,
                            shards: snap,
                        }],
                        proof: self
                            .log
                            .prove_shard_runs(baseline, &[])
                            .expect("empty runs"),
                    };
                }
                let snaps: Vec<&ShardSnapshot> = included.iter().map(|(_, s)| s).collect();
                let proof = self
                    .log
                    .prove_shard_runs(baseline, &snaps)
                    .expect("honest runs");
                ShardBundle {
                    epochs: included
                        .into_iter()
                        .map(|(cp, s)| ShardEpoch {
                            checkpoint: cp.clone(),
                            shards: s.clone(),
                        })
                        .collect(),
                    proof,
                }
            }

            fn auditor(&self) -> Auditor {
                Auditor::new(vec![self.sk.verifying_key()])
            }
        }

        fn baseline_of(auditor: &Auditor) -> Vec<u64> {
            auditor
                .prefix_cache(0)
                .and_then(|c| c.shard_prefixes())
                .map(|p| p.iter().map(|(s, _)| *s).collect())
                .unwrap_or_default()
        }

        #[test]
        fn honest_sharded_growth_is_consistent() {
            let mut d = ShardDomain::new(3);
            d.append(0, b"a0");
            d.append(1, b"b0");
            let mut auditor = d.auditor();
            let bundle = d.bundle_from(&[0, 0, 0]);
            assert!(auditor.observe_shard_bundle(0, &bundle).is_consistent());
            assert_eq!(auditor.latest(0).unwrap().body.size, 2);
            let prefixes = auditor.prefix_cache(0).unwrap().shard_prefixes().unwrap();
            assert_eq!(
                prefixes.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                vec![1, 1, 0]
            );

            // Growth touching two shards, linked from the cached baseline.
            d.append(0, b"a1");
            d.append(2, b"c0");
            let bundle = d.bundle_from(&baseline_of(&auditor));
            assert!(auditor.observe_shard_bundle(0, &bundle).is_consistent());
            assert_eq!(auditor.latest(0).unwrap().body.size, 4);

            // Steady state: the same head again verifies nothing.
            let cache = auditor.prefix_cache(0).unwrap();
            let (sigs, cons) = (cache.signatures_verified(), cache.consistency_verified());
            let bundle = d.bundle_from(&baseline_of(&auditor));
            assert!(auditor.observe_shard_bundle(0, &bundle).is_consistent());
            let cache = auditor.prefix_cache(0).unwrap();
            assert_eq!(cache.signatures_verified(), sigs);
            assert_eq!(cache.consistency_verified(), cons);
        }

        #[test]
        fn bundle_shard_count_above_limit_is_malformed() {
            // Regression for the shard-count bomb: `observe_shard_bundle`
            // used to allocate `vec![0usize; shard_count]` (and index
            // per-shard arrays) straight off the wire-announced count.
            // Anything above MAX_BUNDLE_SHARDS must be rejected as
            // malformed before any shard_count-sized work happens.
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            let mut auditor = d.auditor();
            let (cp, _) = d.epochs.last().expect("non-empty").clone();
            let oversized = ShardSnapshot {
                sizes: vec![0; MAX_BUNDLE_SHARDS + 1],
                heads: vec![MerkleLog::new().root(); MAX_BUNDLE_SHARDS + 1],
            };
            let bundle = ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint: cp,
                    shards: oversized,
                }],
                proof: Default::default(),
            };
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::MalformedBundle { reason, .. } => {
                        assert!(reason.contains("audit limit"), "reason: {reason}")
                    }
                    other => panic!("expected malformed bundle, got {other:?}"),
                },
                other => panic!("expected misbehavior, got {other:?}"),
            }
        }

        #[test]
        fn snapshot_commitment_mismatch_is_malformed() {
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            let mut auditor = d.auditor();
            let mut bundle = d.bundle_from(&[0, 0]);
            // The served snapshot no longer reproduces the signed head.
            bundle.epochs[0].shards.heads[1][0] ^= 0xff;
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => {
                    assert!(matches!(*m, Misbehavior::MalformedBundle { .. }))
                }
                other => panic!("expected malformed, got {other:?}"),
            }
        }

        #[test]
        fn rewritten_shard_behind_grown_sibling_flagged() {
            // Shard 0 is rewritten at constant size while shard 1 grows:
            // the total grows, the commitment is correctly signed, but
            // shard 0's head changed without an append.
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            let mut auditor = d.auditor();
            assert!(auditor
                .observe_shard_bundle(0, &d.bundle_from(&[0, 0]))
                .is_consistent());

            let forged = ShardedLog::new(2);
            forged.append(0, b"EVIL").unwrap();
            forged.append(1, b"b0").unwrap();
            let snap = forged.snapshot();
            d.time += 1;
            let cp = SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: d.lid,
                    size: snap.total(),
                    head: snap.commitment(),
                    logical_time: d.time,
                },
                &d.sk,
            );
            let bundle = ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint: cp,
                    shards: snap,
                }],
                proof: forged.prove_shard_runs(&[1, 0], &[]).expect("empty runs"),
            };
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => {
                    assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
                }
                other => panic!("expected inconsistent growth, got {other:?}"),
            }
        }

        #[test]
        fn per_shard_rollback_flagged() {
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            d.append(0, b"a1");
            let mut auditor = d.auditor();
            assert!(auditor
                .observe_shard_bundle(0, &d.bundle_from(&[0, 0]))
                .is_consistent());
            // A snapshot where shard 0 shrank but shard 1 grew enough to
            // keep the total moving forward.
            let forged = ShardedLog::new(2);
            forged.append(0, b"a0").unwrap();
            forged.append(1, b"b0").unwrap();
            forged.append(1, b"b1").unwrap();
            let snap = forged.snapshot();
            d.time += 1;
            let cp = SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: d.lid,
                    size: snap.total(),
                    head: snap.commitment(),
                    logical_time: d.time,
                },
                &d.sk,
            );
            let bundle = ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint: cp,
                    shards: snap,
                }],
                proof: forged.prove_shard_runs(&[1, 0], &[]).expect("runs"),
            };
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::Rollback {
                        trusted_size,
                        offered_size,
                        ..
                    } => {
                        assert_eq!((trusted_size, offered_size), (2, 1));
                    }
                    other => panic!("expected rollback, got {other:?}"),
                },
                other => panic!("expected misbehavior, got {other:?}"),
            }
        }

        #[test]
        fn sharded_equivocation_yields_transferable_proof() {
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            let mut auditor = d.auditor();
            assert!(auditor
                .observe_shard_bundle(0, &d.bundle_from(&[0, 0]))
                .is_consistent());
            // A conflicting, correctly signed view at the same total size.
            let forked = ShardedLog::new(2);
            forked.append(1, b"other-shard").unwrap();
            let snap = forked.snapshot();
            let cp = SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: d.lid,
                    size: snap.total(),
                    head: snap.commitment(),
                    logical_time: 99,
                },
                &d.sk,
            );
            let bundle = ShardBundle {
                epochs: vec![ShardEpoch {
                    checkpoint: cp,
                    shards: snap,
                }],
                proof: forked.prove_shard_runs(&[0, 0], &[]).expect("runs"),
            };
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::Equivocation { proof, .. } => {
                        assert!(proof.verify(&d.sk.verifying_key()));
                    }
                    other => panic!("expected equivocation, got {other:?}"),
                },
                other => panic!("expected misbehavior, got {other:?}"),
            }
        }

        #[test]
        fn missing_proof_step_rejected() {
            let mut d = ShardDomain::new(2);
            d.append(0, b"a0");
            let mut auditor = d.auditor();
            assert!(auditor
                .observe_shard_bundle(0, &d.bundle_from(&[0, 0]))
                .is_consistent());
            d.append(0, b"a1");
            let mut bundle = d.bundle_from(&baseline_of(&auditor));
            bundle.proof.runs[0].steps.clear();
            match auditor.observe_shard_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => {
                    assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
                }
                other => panic!("expected inconsistent growth, got {other:?}"),
            }
        }
    }

    #[test]
    fn digest_match_helper() {
        assert!(digests_match(&[]));
        assert!(digests_match(&[[1; 32]]));
        assert!(digests_match(&[[1; 32], [1; 32], [1; 32]]));
        assert!(!digests_match(&[[1; 32], [2; 32]]));
    }
}
