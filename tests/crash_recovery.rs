//! Crash-recovery: the durable store must make a restart indistinguishable
//! from a pause, for any way the process can die.
//!
//! Two layers are exercised. At the **log** layer, a kill-at-every-offset
//! matrix truncates (and bit-flips) the on-disk segment bytes and asserts
//! the invariant the recovery algorithm promises: the recovered shard
//! commitment equals the commitment of some *prefix* of the pre-crash
//! history — never a panic, never a root the log did not once have. At the
//! **framework** layer, a restarted domain must resume its *signed*
//! history: the persisted genesis/epoch checkpoints are reused (re-signing
//! would look like equivocation), so an auditing client holding the
//! pre-crash head sees ordinary growth.

use distrust::core::abi::{AppHost, NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig};
use distrust::core::{AppSpec, Deployment, Request, Response, SignedRelease};
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::Auditor;
use distrust::log::checkpoint::log_id;
use distrust::log::{DurableOptions, MerkleLog, ShardedLog, StorageConfig, StoreError};
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};
use std::path::{Path, PathBuf};

/// Method 1 returns `base + input[0]`.
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

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "distrust-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path, segment_bytes: u64) -> StorageConfig {
    StorageConfig::Durable(DurableOptions {
        dir: dir.to_path_buf(),
        segment_bytes,
        fsync_every: 1,
    })
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Shard-0 segment files of a 1-shard log, in segment order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".dlog"))
        })
        .collect();
    files.sort();
    files
}

/// Builds a 1-shard durable log with enough leaves to span several
/// segments, returning its directory and a mirror of every prefix root:
/// `mirror.root_of_prefix(k)` is the commitment the log had at `k` leaves
/// (for one shard the snapshot commitment IS the tree root, byte for byte
/// — so this doubles as the single-tree commitment check).
fn seeded_log(tag: &str, leaves: usize) -> (PathBuf, MerkleLog) {
    let dir = tempdir(tag);
    let (log, meta) = ShardedLog::open(1, &durable(&dir, 192)).unwrap();
    assert!(meta.is_empty());
    let mut mirror = MerkleLog::new();
    for i in 0..leaves {
        let leaf = format!("leaf-{i:04}");
        log.append(0, leaf.as_bytes()).unwrap();
        mirror.append(leaf.as_bytes());
        assert_eq!(
            log.commitment(),
            mirror.root_of_prefix(i + 1),
            "1-shard durable log must stay byte-compatible with the plain tree"
        );
    }
    (dir, mirror)
}

/// Opens the (possibly damaged) copy and asserts the recovery invariant:
/// some prefix of the pre-crash history, identical commitment, and the
/// log keeps working. Returns the recovered length.
fn assert_recovers_to_prefix(dir: &Path, mirror: &MerkleLog, context: &str) -> usize {
    let (log, _) = ShardedLog::open(1, &durable(dir, 192))
        .unwrap_or_else(|e| panic!("{context}: recovery must not fail: {e}"));
    let recovered = log.total_len() as usize;
    assert!(
        recovered <= mirror.len(),
        "{context}: recovered {recovered} leaves, only {} ever existed",
        mirror.len()
    );
    assert_eq!(
        log.commitment(),
        mirror.root_of_prefix(recovered),
        "{context}: recovered root must be the exact pre-crash prefix root"
    );
    // The repaired log must accept appends and keep agreeing with a
    // mirror that took the same path.
    let mut extended = MerkleLog::new();
    for leaf in mirror.leaves_from(0).unwrap().iter().take(recovered) {
        extended.append(leaf);
    }
    log.append(0, b"post-crash").unwrap();
    extended.append(b"post-crash");
    assert_eq!(
        log.commitment(),
        extended.root(),
        "{context}: post-repair append diverged"
    );
    recovered
}

#[test]
fn truncating_the_tail_at_every_byte_offset_recovers_a_prefix() {
    let (dir, mirror) = seeded_log("trunc", 28);
    let files = segment_files(&dir);
    assert!(
        files.len() >= 3,
        "need rotation: got {} segments",
        files.len()
    );
    let tail = files.last().unwrap();
    let tail_name = tail.file_name().unwrap().to_owned();
    let tail_len = std::fs::metadata(tail).unwrap().len();

    // Leaves safely inside sealed segments survive any tail damage.
    let sealed_floor = {
        let scratch = tempdir("trunc-floor");
        copy_dir(&dir, &scratch);
        std::fs::remove_file(scratch.join(&tail_name)).unwrap();
        let (log, _) = ShardedLog::open(1, &durable(&scratch, 192)).unwrap();
        let floor = log.total_len() as usize;
        let _ = std::fs::remove_dir_all(&scratch);
        floor
    };

    let scratch = tempdir("trunc-case");
    for cut in 0..tail_len {
        copy_dir(&dir, &scratch);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join(&tail_name))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let recovered =
            assert_recovers_to_prefix(&scratch, &mirror, &format!("truncated tail at {cut}"));
        assert!(
            recovered >= sealed_floor,
            "truncating the tail at {cut} lost sealed history: {recovered} < {sealed_floor}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipping_any_byte_anywhere_recovers_a_prefix() {
    let (dir, mirror) = seeded_log("flip", 28);
    let scratch = tempdir("flip-case");
    for file in segment_files(&dir) {
        let name = file.file_name().unwrap().to_owned();
        let len = std::fs::metadata(&file).unwrap().len();
        for at in 0..len {
            copy_dir(&dir, &scratch);
            let path = scratch.join(&name);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at as usize] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert_recovers_to_prefix(&scratch, &mirror, &format!("bit flip in {name:?} at {at}"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_shard_restart_resumes_identical_commitment() {
    let dir = tempdir("multishard");
    let storage = durable(&dir, 256);
    let (before_snapshot, before_lens) = {
        let (log, _) = ShardedLog::open(4, &storage).unwrap();
        for i in 0..40 {
            log.append_routed(format!("key-{i}").as_bytes(), format!("val-{i}").as_bytes())
                .unwrap();
        }
        log.sync().unwrap();
        let lens: Vec<u64> = (0..4).map(|s| log.shard_len(s).unwrap()).collect();
        (log.snapshot(), lens)
    };
    let (log, _) = ShardedLog::open(4, &storage).unwrap();
    assert_eq!(
        log.snapshot(),
        before_snapshot,
        "restart changed the snapshot"
    );
    for (s, len) in before_lens.iter().enumerate() {
        assert_eq!(log.shard_len(s as u32), Some(*len));
    }
    // Routing and appends continue where they left off.
    log.append_routed(b"key-40", b"val-40").unwrap();
    assert_eq!(log.total_len(), 41);
    let _ = std::fs::remove_dir_all(&dir);
}

fn framework_config(shards: u32, dev: &SigningKey, storage: StorageConfig) -> FrameworkConfig {
    FrameworkConfig {
        domain_index: 0,
        app_name: "adder".into(),
        developer_key: dev.verifying_key(),
        log_id: log_id(b"crash", 0),
        limits: Limits::default(),
        log_shards: shards,
        storage,
    }
}

/// The satellite regression: restart a domain, then re-audit with a
/// client that verified the pre-crash head. Any re-signing of old history
/// (fresh genesis, shifted epoch) would surface as misbehavior here.
fn restart_keeps_auditor_consistent(shards: u32) {
    let dir = tempdir(&format!("fw-restart-{shards}"));
    let storage = durable(&dir, 4 << 20);
    let dev = SigningKey::derive(b"crash", b"dev");
    let cp_key = SigningKey::derive(b"crash", b"cp");
    let mut auditor = Auditor::new(vec![cp_key.verifying_key()]);

    let observe = |auditor: &mut Auditor, fw: &mut EnclaveFramework, id: u64| {
        let verified = auditor.latest(0).map(|cp| cp.body.size).unwrap_or(0);
        let request = Request::BatchAudit {
            request_id: id,
            nonce: [id as u8; 32],
            verified_size: verified,
        };
        match fw.handle(request) {
            Response::AuditBundle(b) => auditor.observe_bundle(0, &b.bundle),
            Response::ShardAuditBundle(b) => auditor.observe_shard_bundle(0, &b.bundle),
            other => panic!("expected an audit bundle, got {other:?}"),
        }
    };

    let (pre_size, pre_head) = {
        let mut fw = EnclaveFramework::open(
            framework_config(shards, &dev, storage.clone()),
            None,
            cp_key,
            Box::new(NoImports),
        )
        .unwrap();
        let v1 = SignedRelease::create("adder", 1, "v1", &adder_module(100), &dev);
        fw.apply_update(&v1).expect("v1 applies");
        let v2 = SignedRelease::create("adder", 2, "v2", &adder_module(200), &dev);
        fw.apply_update(&v2).expect("v2 applies");
        assert!(
            observe(&mut auditor, &mut fw, 1).is_consistent(),
            "pre-crash audit must be clean"
        );
        let status = fw.status();
        (status.log_size, status.log_head)
    }; // domain crashes here

    let mut fw = EnclaveFramework::open(
        framework_config(shards, &dev, storage),
        None,
        cp_key,
        Box::new(NoImports),
    )
    .expect("restart recovers");

    // The log resumed exactly where it crashed, and the version floor
    // survived even though the app instance did not.
    let status = fw.status();
    assert_eq!(status.log_size, pre_size, "restart changed the log size");
    assert_eq!(status.log_head, pre_head, "restart changed the log head");
    assert_eq!(
        fw.current_version(),
        2,
        "recovered notices must floor the version"
    );
    let replay = SignedRelease::create("adder", 2, "v2 again", &adder_module(200), &dev);
    assert!(
        matches!(
            fw.apply_update(&replay),
            Err(distrust::core::ReleaseError::StaleVersion {
                current: 2,
                offered: 2
            })
        ),
        "a replayed pre-crash version must stay stale after restart"
    );

    // The pre-crash auditor sees ordinary growth — no equivocation, no
    // rollback — both right after the restart and across a new release.
    assert!(
        observe(&mut auditor, &mut fw, 2).is_consistent(),
        "restart must look like a pause to an auditor holding the pre-crash head"
    );
    assert_eq!(auditor.latest(0).unwrap().body.size, pre_size);
    let v3 = SignedRelease::create("adder", 3, "v3", &adder_module(300), &dev);
    fw.apply_update(&v3).expect("post-restart update applies");
    assert!(
        observe(&mut auditor, &mut fw, 3).is_consistent(),
        "post-restart growth must chain onto the recovered history"
    );
    assert_eq!(auditor.latest(0).unwrap().body.size, pre_size + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_domain_resumes_signed_history_one_shard() {
    restart_keeps_auditor_consistent(1);
}

#[test]
fn restarted_domain_resumes_signed_history_four_shards() {
    restart_keeps_auditor_consistent(4);
}

#[test]
fn missing_log_behind_signed_history_refuses_to_boot() {
    // Signed checkpoints say two entries exist; the segment files are
    // gone. Serving the shorter log would equivocate against the domain's
    // own signatures, so boot must refuse — loudly, not by resetting.
    let dir = tempdir("lost-history");
    let storage = durable(&dir, 4 << 20);
    let dev = SigningKey::derive(b"lost", b"dev");
    let cp_key = SigningKey::derive(b"lost", b"cp");
    {
        let mut fw = EnclaveFramework::open(
            framework_config(1, &dev, storage.clone()),
            None,
            cp_key,
            Box::new(NoImports),
        )
        .unwrap();
        let v1 = SignedRelease::create("adder", 1, "v1", &adder_module(100), &dev);
        fw.apply_update(&v1).expect("v1 applies");
        let v2 = SignedRelease::create("adder", 2, "v2", &adder_module(200), &dev);
        fw.apply_update(&v2).expect("v2 applies");
    }
    for file in segment_files(&dir) {
        std::fs::remove_file(file).unwrap();
    }
    match EnclaveFramework::open(
        framework_config(1, &dev, storage),
        None,
        cp_key,
        Box::new(NoImports),
    ) {
        Err(StoreError::LostSignedHistory {
            signed: 2,
            recovered: 0,
        }) => {}
        Err(other) => panic!("expected LostSignedHistory, got {other:?}"),
        Ok(_) => panic!("boot must refuse a log shorter than its signed history"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_deployment_survives_a_full_restart_end_to_end() {
    // The whole stack over real sockets: launch durably, update, kill
    // every domain, relaunch on the same directory, and keep serving.
    let dir = tempdir("deploy");
    let spec = |base: u64| AppSpec {
        name: "adder".into(),
        module: adder_module(base),
        notes: "v1".into(),
        hosts: (0..2)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };

    let mut deployment =
        Deployment::launch_durable(spec(100), b"durable e2e", 1, &dir).expect("fresh launch");
    let mut client = deployment.client(b"auditor");
    assert!(client
        .audit(Some(&deployment.initial_app_digest))
        .is_clean());
    let v2 = deployment.sign_release(2, "v2", &adder_module(200));
    for result in client.push_update(&v2) {
        result.expect("v2 accepted");
    }
    assert!(client.audit(None).is_clean());
    drop(client);
    deployment.shutdown();
    drop(deployment);

    // Relaunch over the recovered logs. Version 1 is not re-pushed (the
    // logs prove both domains already activated it); the app instance is
    // gone until the next release arrives.
    let deployment =
        Deployment::launch_durable(spec(100), b"durable e2e", 1, &dir).expect("relaunch recovers");
    let mut client = deployment.client(b"auditor-2");
    let v3 = deployment.sign_release(3, "v3", &adder_module(300));
    for result in client.push_update(&v3) {
        result.expect("post-restart update accepted");
    }
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    // The recovered log holds all three releases, not just the new one.
    let entries = client.log_entries(0, 0).unwrap();
    assert_eq!(
        entries.len(),
        3,
        "v1 + v2 + v3 digests survived the restart"
    );
    // And the app serves again on the new release.
    let mut session = client.session(distrust::core::session::TrustPolicy::audited());
    assert_eq!(
        session.call(1, 1, &[5]).unwrap(),
        vec![49u8],
        "300 + 5 = 305 = 0x131, low byte 0x31"
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
