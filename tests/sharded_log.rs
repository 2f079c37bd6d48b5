//! Sharded-log integration: the 1-shard contract and the multi-shard
//! deployment path, end to end.
//!
//! A 1-shard [`ShardedLog`] is **proof-compatible** with a plain
//! single-tree [`MerkleLog`]: identical checkpoints and consistency
//! proofs, byte for byte, so one auditor accepts bundles built from
//! either. Beyond one shard, deployments sign shard-head commitments,
//! serve `ShardAuditBundle`s, and clients track per-shard verified
//! prefixes — all exercised here over real sockets.

use distrust::core::abi::{AppHost, NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::session::TrustPolicy;
use distrust::core::{AppSpec, Deployment, Request, Response};
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::{AuditOutcome, Auditor, Misbehavior};
use distrust::log::batch::CheckpointBundle;
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::log::shard::{ShardBundle, ShardEpoch};
use distrust::log::{MerkleLog, ShardedLog};
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};
use distrust::wire::codec::encode_seq;
use distrust::wire::Encode;
use proptest::prelude::*;

/// Method 1 returns `base + input[0]` — a minimal versioned app.
fn adder_module(base: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    f.constant(OUTBOX_ADDR)
        .lget(1)
        .load8(0)
        .constant(base)
        .add()
        .store8(0)
        .constant(1)
        .ret();
    let idx = mb.function(f.build().unwrap());
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

fn launch_sharded(seed: &[u8], n: usize, shards: u32) -> Deployment {
    let spec = AppSpec {
        name: "adder".into(),
        module: adder_module(100),
        notes: "v1".into(),
        hosts: (0..n)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    Deployment::launch_sharded(spec, seed, shards).expect("launch")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a random append sequence, a 1-shard `ShardedLog` produces
    /// byte-identical checkpoint bodies and consistency proofs to a plain
    /// single `MerkleLog`.
    #[test]
    fn one_shard_log_is_byte_identical_to_legacy(
        leaf_count in 1usize..40,
        old_seed in any::<u64>(),
    ) {
        let sharded = ShardedLog::new(1);
        let mut plain = MerkleLog::new();
        let lid = log_id(b"compat", 0);
        for i in 0..leaf_count {
            let leaf = format!("digest-{i}");
            sharded.append(0, leaf.as_bytes()).unwrap();
            plain.append(leaf.as_bytes());
            // Checkpoint bodies (the signed bytes!) are identical.
            let snap = sharded.snapshot();
            let new_body = CheckpointBody {
                log_id: lid,
                size: snap.total(),
                head: snap.commitment(),
                logical_time: i as u64,
            };
            let legacy_body = CheckpointBody {
                log_id: lid,
                size: plain.len() as u64,
                head: plain.root(),
                logical_time: i as u64,
            };
            prop_assert_eq!(new_body.to_wire(), legacy_body.to_wire());
        }
        // Consistency proofs between random sizes are identical too.
        let old = 1 + (old_seed as usize) % leaf_count;
        let new_proof = sharded.prove_shard_consistency(0, old as u64, leaf_count as u64);
        let legacy_proof = plain.prove_consistency(old, leaf_count);
        prop_assert_eq!(&new_proof, &legacy_proof);
        if let (Some(a), Some(b)) = (new_proof, legacy_proof) {
            prop_assert_eq!(a.to_wire_proof(), b.to_wire_proof());
        }
    }

    /// Cross-acceptance: bundles built from a plain `MerkleLog` and from
    /// a 1-shard `ShardedLog` are interchangeable — one auditor consumes
    /// an alternating mix of both and stays consistent throughout.
    #[test]
    fn old_and_new_one_shard_bundles_interoperate(ops in proptest::collection::vec(any::<bool>(), 1..10)) {
        let sk = SigningKey::derive(b"interop", b"cp");
        let lid = log_id(b"interop", 0);
        let sharded = ShardedLog::new(1);
        let mut plain = MerkleLog::new();
        let mut epochs: Vec<SignedCheckpoint> = Vec::new();
        let mut auditor = Auditor::new(vec![sk.verifying_key()]);

        for (i, from_new_server) in ops.iter().enumerate() {
            // Both logs receive the identical append (they mirror one
            // deployment's history).
            let leaf = format!("digest-{i}");
            sharded.append(0, leaf.as_bytes()).unwrap();
            plain.append(leaf.as_bytes());
            let time = (i + 1) as u64;
            // The epoch checkpoint is signed over whichever representation
            // the serving path uses — the bytes must agree regardless.
            let (size, head) = if *from_new_server {
                let snap = sharded.snapshot();
                (snap.total(), snap.commitment())
            } else {
                (plain.len() as u64, plain.root())
            };
            epochs.push(SignedCheckpoint::sign(
                CheckpointBody { log_id: lid, size, head, logical_time: time },
                &sk,
            ));
            // Serve a bundle from the chosen implementation and feed the
            // one shared auditor.
            let verified = auditor.latest(0).map(|cp| cp.body.size).unwrap_or(0);
            let checkpoints: Vec<SignedCheckpoint> = epochs
                .iter()
                .filter(|cp| cp.body.size > verified)
                .cloned()
                .collect();
            let mut sizes: Vec<usize> = Vec::new();
            if verified >= 1 {
                sizes.push(verified as usize);
            }
            sizes.extend(checkpoints.iter().map(|cp| cp.body.size as usize));
            let proof = if *from_new_server {
                sharded
                    .lock_shard(0)
                    .prove_consistency_range(&sizes)
                    .unwrap_or_default()
            } else {
                plain.prove_consistency_range(&sizes).unwrap_or_default()
            };
            let bundle = CheckpointBundle { checkpoints, proof };
            prop_assert!(
                auditor.observe_bundle(0, &bundle).is_consistent(),
                "bundle from {} server rejected at epoch {i}",
                if *from_new_server { "1-shard" } else { "plain" }
            );
            prop_assert_eq!(auditor.latest(0).unwrap().body.size, (i + 1) as u64);
        }
    }
}

/// `ConsistencyProof` has no standalone Encode impl (it rides inside
/// proof bundles as pool indices); compare its canonical field encoding.
trait WireProof {
    fn to_wire_proof(&self) -> Vec<u8>;
}

impl WireProof for distrust::log::ConsistencyProof {
    fn to_wire_proof(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.old_size.encode(&mut out);
        self.new_size.encode(&mut out);
        encode_seq(&self.path, &mut out);
        out
    }
}

#[test]
fn sharded_deployment_audits_clean_end_to_end() {
    // A real 4-shard deployment over real sockets: audits flow through
    // `Response::ShardAuditBundle`, clients track per-shard prefixes, and
    // sessions gate trust exactly as on the 1-shard layout.
    let mut deployment = launch_sharded(b"sharded e2e", 3, 4);
    let mut client = deployment.client(b"auditor");

    let report = client.audit(Some(&deployment.initial_app_digest));
    assert!(report.is_clean(), "{report:?}");
    // The auditor tracked per-shard prefixes for every domain.
    for d in 0..3u32 {
        let cache = client.auditor_prefix_cache(d).expect("domain exists");
        let prefixes = cache.shard_prefixes().expect("sharded audit ran");
        assert_eq!(prefixes.len(), 4, "one prefix per shard");
        assert_eq!(
            prefixes.iter().map(|(s, _)| *s).sum::<u64>(),
            1,
            "v1 is one leaf in one shard"
        );
    }

    // Updates keep flowing and re-audits stay clean (and cheap).
    let release = deployment.sign_release(2, "v2", &adder_module(200));
    for result in client.push_update(&release) {
        result.expect("update accepted");
    }
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");

    // Steady state: an unchanged sharded log re-audits with zero fresh
    // signature verifications.
    let before = client
        .auditor_prefix_cache(0)
        .unwrap()
        .signatures_verified();
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        client
            .auditor_prefix_cache(0)
            .unwrap()
            .signatures_verified(),
        before,
        "unchanged sharded log must not cost signature re-verification"
    );

    // Sessions work unchanged on top.
    let mut session = client.session(TrustPolicy::audited());
    assert_eq!(session.call(1, 1, &[5]).unwrap(), vec![205u8]);
    drop(session);

    // The flattened log is still served.
    let entries = client.log_entries(0, 0).unwrap();
    assert_eq!(entries.len(), 2, "v1 + v2 digests");

    deployment.shutdown();
}

#[test]
fn shard_entries_and_fallback() {
    // Against a sharded deployment: per-shard slices concatenate to the
    // flattened log; out-of-range shards and offsets surface the server's
    // error, with no fallback to the flattened log; and on a 1-shard
    // deployment shard 0 is the whole log.
    let sharded = launch_sharded(b"shard entries", 2, 4);
    let mut client = sharded.client(b"reader");
    let flattened = client.log_entries(0, 0).unwrap();
    assert_eq!(flattened.len(), 1, "v1 digest");
    let mut per_shard = Vec::new();
    for s in 0..4u32 {
        per_shard.extend(client.shard_entries(0, s, 0).unwrap());
    }
    assert_eq!(per_shard, flattened, "shard slices concatenate to the log");
    assert!(
        client.shard_entries(0, 9, 0).is_err(),
        "out-of-range shard must error"
    );
    let routed = ShardedLog::new(4).shard_for(b"adder");
    for s in 0..4u32 {
        if s == routed {
            continue;
        }
        assert!(
            client.shard_entries(0, s, 1).is_err(),
            "offset past empty shard {s} must error"
        );
    }

    let single = launch_sharded(b"shard entries single", 2, 1);
    let mut client = single.client(b"reader");
    assert_eq!(
        client.shard_entries(0, 0, 0).unwrap(),
        client.log_entries(0, 0).unwrap(),
        "shard 0 of a 1-shard log IS the log"
    );
}

#[test]
fn one_shard_prefix_refuses_multi_shard_bundle() {
    // An auditor that verified a domain as a 1-shard log holds a 1-shard
    // prefix. A bundle later claiming a 4-shard decomposition of that
    // domain's log — even a correctly signed, well-formed one — cannot be
    // linked to that prefix, and is refused as malformed.
    let key = SigningKey::derive(b"reshard", b"cp");
    let lid = log_id(b"reshard", 0);
    let sign = |size: u64, head: [u8; 32], time: u64| {
        SignedCheckpoint::sign(
            CheckpointBody {
                log_id: lid,
                size,
                head,
                logical_time: time,
            },
            &key,
        )
    };
    let mut auditor = Auditor::new(vec![key.verifying_key()]);
    let mut plain = MerkleLog::new();
    plain.append(b"v1");
    let single = CheckpointBundle {
        checkpoints: vec![sign(1, plain.root(), 1)],
        proof: Default::default(),
    };
    assert!(auditor.observe_bundle(0, &single).is_consistent());
    let prefixes = auditor.prefix_cache(0).unwrap().shard_prefixes().unwrap();
    assert_eq!(prefixes.len(), 1, "the single-tree walk is a 1-shard walk");

    let sharded = ShardedLog::new(4);
    sharded.append(0, b"v1").unwrap();
    sharded.append(1, b"v2").unwrap();
    let snapshot = sharded.snapshot();
    let bundle = ShardBundle {
        epochs: vec![ShardEpoch {
            checkpoint: sign(snapshot.total(), snapshot.commitment(), 2),
            shards: snapshot,
        }],
        proof: sharded.prove_shard_runs(&[0; 4], &[]).unwrap(),
    };
    assert!(bundle.epochs[0].well_formed());
    match auditor.observe_shard_bundle(0, &bundle) {
        AuditOutcome::Misbehavior(m) => match *m {
            Misbehavior::MalformedBundle { reason, .. } => {
                assert!(reason.contains("shard count"), "reason: {reason}")
            }
            other => panic!("expected a malformed bundle, got {other:?}"),
        },
        AuditOutcome::Consistent => panic!("a 4-shard bundle linked to a 1-shard prefix"),
    }
    assert_eq!(auditor.latest(0).unwrap().body.size, 1, "nothing committed");
}

#[test]
fn one_shard_deployment_byte_compatible_on_the_wire() {
    // A 1-shard deployment answers BatchAudit with the single-tree bundle
    // shape (tag 12); a multi-shard one with the sharded shape (tag 13).
    let deployment = launch_sharded(b"one shard wire", 2, 1);
    let mut client = deployment.client(b"prober");
    match client
        .exchange(
            0,
            &Request::BatchAudit {
                request_id: 42,
                nonce: [9; 32],
                verified_size: 0,
            },
        )
        .unwrap()
    {
        Response::AuditBundle(b) => assert_eq!(b.request_id, 42),
        other => panic!("1-shard deployment must answer the single-tree bundle, got {other:?}"),
    }
    // And the multi-shard deployment answers the sharded shape.
    let deployment = launch_sharded(b"four shard wire", 2, 4);
    let mut client = deployment.client(b"prober");
    match client
        .exchange(
            0,
            &Request::BatchAudit {
                request_id: 43,
                nonce: [9; 32],
                verified_size: 0,
            },
        )
        .unwrap()
    {
        Response::ShardAuditBundle(b) => {
            assert_eq!(b.request_id, 43);
            assert!(b.bundle.epochs.iter().all(|e| e.well_formed()));
        }
        other => panic!("4-shard deployment must answer the sharded bundle, got {other:?}"),
    }
}
