//! Protocol robustness: trust domains face the open network, so the
//! request decoder and the framework dispatcher must survive arbitrary
//! bytes — answering with error frames, never crashing or hanging.

use distrust::core::abi::{NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig, FrameworkService};
use distrust::core::protocol::{Request, Response};
use distrust::core::SignedRelease;
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::StorageConfig;
use distrust::sandbox::guests::counter_module;
use distrust::sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};
use distrust::tee::host::EnclaveService;
use distrust::tee::{Vendor, VendorKind};
use distrust::wire::{Decode, Encode};
use proptest::prelude::*;

fn service() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    FrameworkService::new(
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "fuzzed".into(),
                developer_key: dev.verifying_key(),
                log_id: [1; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            None,
            SigningKey::derive(b"protocol fuzz", b"cp"),
            Box::new(NoImports),
        )
        .unwrap(),
    )
}

/// A service with three installed releases, so batched audit responses
/// carry real multi-checkpoint bundles with consistency steps.
fn service_with_history() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let mut svc = service();
    for v in 1..=3u64 {
        let release = SignedRelease::create("fuzzed", v, "", &counter_module(v), &dev);
        svc.framework_mut().apply_update(&release).expect("applies");
    }
    svc
}

/// A 4-shard service with three installed releases, so batched audits are
/// answered with the sharded bundle shape (`Response::ShardAuditBundle`).
fn sharded_service_with_history() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let mut svc = FrameworkService::new(
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "fuzzed".into(),
                developer_key: dev.verifying_key(),
                log_id: [2; 32],
                limits: Limits::default(),
                log_shards: 4,
                storage: StorageConfig::Ephemeral,
            },
            None,
            SigningKey::derive(b"protocol fuzz", b"cp-sharded"),
            Box::new(NoImports),
        )
        .unwrap(),
    );
    for v in 1..=3u64 {
        let release = SignedRelease::create("fuzzed", v, "", &counter_module(v), &dev);
        svc.framework_mut().apply_update(&release).expect("applies");
    }
    svc
}

/// A TEE-backed service (simulated vendor + provisioned device):
/// `Request::Attest` is answered with a real `Response::Quote` instead of
/// the unattested fallback.
fn attested_service() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let vendor = Vendor::new(VendorKind::ALL[0], b"protocol fuzz vendor");
    let mut rng = HmacDrbg::new(b"protocol fuzz", b"device-rng");
    let device = vendor.provision_device(&mut rng);
    let enclave = device.launch([3; 32]);
    let checkpoint_key = enclave.derive_signing_key(b"checkpoint");
    FrameworkService::new(
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 1,
                app_name: "fuzzed".into(),
                developer_key: dev.verifying_key(),
                log_id: [3; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            Some(enclave),
            checkpoint_key,
            Box::new(NoImports),
        )
        .unwrap(),
    )
}

/// An ABI-speaking echo app: its `handle` export copies the inbox to the
/// outbox, so a successful `AppCall` is answered with a real
/// `Response::AppResult` carrying the request payload back.
fn echo_app_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    // handle(method, addr, len) -> len ; copy byte-by-byte (local 3 = i)
    let mut f = FuncBuilder::new(3, 1, 1);
    f.constant(0).lset(3);
    f.label("loop")
        .lget(3)
        .lget(2)
        .op(Instr::GeU)
        .jnz("done")
        // outbox[i] = inbox[addr + i]
        .constant(OUTBOX_ADDR)
        .lget(3)
        .add()
        .lget(1)
        .lget(3)
        .add()
        .load8(0)
        .store8(0)
        .lget(3)
        .constant(1)
        .add()
        .lset(3)
        .jmp("loop")
        .label("done")
        .lget(2)
        .ret();
    let idx = mb.function(f.build().expect("echo builds"));
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

/// A real server-produced `ShardAuditBundle` response frame, cached for
/// verified sizes 0..=5 like its single-tree sibling below.
fn shard_audit_response_frame(verified_size: u64) -> Vec<u8> {
    use std::sync::OnceLock;
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let frames = FRAMES.get_or_init(|| {
        let mut svc = sharded_service_with_history();
        (0..=5u64)
            .map(|vs| {
                let frame = svc.handle(
                    Request::BatchAudit {
                        request_id: 77,
                        nonce: [7; 32],
                        verified_size: vs,
                    }
                    .to_wire(),
                );
                assert!(matches!(
                    Response::from_wire(&frame),
                    Ok(Response::ShardAuditBundle(_))
                ));
                frame
            })
            .collect()
    });
    frames[verified_size as usize].clone()
}

/// A real server-produced `AuditBundle` response frame. Built once per
/// process (release signing is expensive in debug builds) and cached for
/// verified sizes 0..=5.
fn batch_audit_response_frame(verified_size: u64) -> Vec<u8> {
    use std::sync::OnceLock;
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let frames = FRAMES.get_or_init(|| {
        let mut svc = service_with_history();
        (0..=5u64)
            .map(|vs| {
                let frame = svc.handle(
                    Request::BatchAudit {
                        request_id: 99,
                        nonce: [9; 32],
                        verified_size: vs,
                    }
                    .to_wire(),
                );
                assert!(matches!(
                    Response::from_wire(&frame),
                    Ok(Response::AuditBundle(_))
                ));
                frame
            })
            .collect()
    });
    frames[verified_size as usize].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary request bytes always produce a decodable response frame.
    #[test]
    fn garbage_requests_get_error_responses(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut svc = service();
        let response_bytes = svc.handle(bytes);
        let response = Response::from_wire(&response_bytes).expect("response always decodes");
        // With no app installed, everything either errors or reports
        // benign state — but never panics.
        let _ = response;
    }

    /// Request decode/encode round-trips (the framework and the client
    /// must agree byte-for-byte, since responses are hashed into quotes).
    #[test]
    fn structured_requests_round_trip(
        tag in 0u8..7,
        nonce in any::<[u8; 32]>(),
        method in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        number in any::<u64>(),
    ) {
        let request = match tag {
            0 => Request::Attest { nonce },
            1 => Request::GetStatus,
            2 => Request::AppCall { method, payload: payload.clone() },
            3 => Request::GetLogEntries { from: number },
            4 => Request::GetNotices { since: number },
            5 => Request::BatchAudit {
                request_id: method,
                nonce,
                verified_size: number,
            },
            _ => Request::GetShardEntries {
                shard: method as u32,
                from: number,
            },
        };
        let wire = request.to_wire();
        prop_assert_eq!(Request::from_wire(&wire), Ok(request));
    }

    /// Truncating a valid request at any point yields a decode error (or a
    /// shorter valid request), never a panic; the service still answers.
    #[test]
    fn truncated_requests_are_handled(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        cut in 0usize..64,
    ) {
        let request = Request::AppCall { method: 1, payload };
        let mut wire = request.to_wire();
        wire.truncate(cut.min(wire.len()));
        let mut svc = service();
        let response_bytes = svc.handle(wire);
        prop_assert!(Response::from_wire(&response_bytes).is_ok());
    }

    /// Truncating a real AuditBundle response at any point must error —
    /// never panic, never decode to a different value.
    #[test]
    fn truncated_audit_bundle_rejected(verified_size in 0u64..5, cut_seed in any::<u64>()) {
        let frame = batch_audit_response_frame(verified_size);
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(Response::from_wire(&frame[..cut]).is_err());
    }

    /// Flipping any single bit of an AuditBundle response either fails to
    /// decode or decodes to a *different* value — a mutated frame can
    /// never misparse back into the original (canonical encoding), so a
    /// tampered bundle always reaches the verifier visibly changed.
    #[test]
    fn bit_flipped_audit_bundle_never_misparses(
        verified_size in 0u64..5,
        flip_seed in any::<u64>(),
    ) {
        let frame = batch_audit_response_frame(verified_size);
        let original = Response::from_wire(&frame).expect("valid frame decodes");
        let mut mutated = frame.clone();
        let bit = (flip_seed as usize) % (frame.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        match Response::from_wire(&mutated) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(decoded, original);
            }
        }
    }

    /// Oversized trailing garbage after a complete AuditBundle is
    /// rejected, not silently dropped.
    #[test]
    fn audit_bundle_with_trailing_bytes_rejected(
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut frame = batch_audit_response_frame(0);
        frame.extend_from_slice(&garbage);
        prop_assert!(Response::from_wire(&frame).is_err());
    }

    /// Truncating a real sharded audit response at any point must error —
    /// never panic, never decode to a different value.
    #[test]
    fn truncated_shard_audit_bundle_rejected(verified_size in 0u64..5, cut_seed in any::<u64>()) {
        let frame = shard_audit_response_frame(verified_size);
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(Response::from_wire(&frame[..cut]).is_err());
    }

    /// Flipping any single bit of a sharded audit response either fails to
    /// decode or decodes to a *different* value (canonical encoding): a
    /// tampered shard bundle always reaches the verifier visibly changed.
    #[test]
    fn bit_flipped_shard_audit_bundle_never_misparses(
        verified_size in 0u64..5,
        flip_seed in any::<u64>(),
    ) {
        let frame = shard_audit_response_frame(verified_size);
        let original = Response::from_wire(&frame).expect("valid frame decodes");
        let mut mutated = frame.clone();
        let bit = (flip_seed as usize) % (frame.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        match Response::from_wire(&mutated) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(decoded, original);
            }
        }
    }

    /// Trailing garbage after a complete sharded audit response is
    /// rejected, not silently dropped.
    #[test]
    fn shard_audit_bundle_with_trailing_bytes_rejected(
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut frame = shard_audit_response_frame(0);
        frame.extend_from_slice(&garbage);
        prop_assert!(Response::from_wire(&frame).is_err());
    }

    /// Arbitrary GetShardEntries parameters — shard indices and offsets
    /// far out of range included — always get a decodable answer back,
    /// never a panic or a hang.
    #[test]
    fn arbitrary_shard_entry_requests_answered(
        shard in any::<u32>(),
        from in any::<u64>(),
        sharded in any::<bool>(),
    ) {
        let mut svc = if sharded { sharded_service_with_history() } else { service() };
        let response_bytes = svc.handle(Request::GetShardEntries { shard, from }.to_wire());
        prop_assert!(Response::from_wire(&response_bytes).is_ok());
    }
}

proptest! {
    // Each case pays release-signing cost; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary BatchAudit parameters — including verified sizes far past
    /// the log head — always get a decodable AuditBundle back, and the
    /// request id is echoed faithfully.
    #[test]
    fn arbitrary_batch_audit_parameters_answered(
        request_id in any::<u64>(),
        nonce in any::<[u8; 32]>(),
        verified_size in any::<u64>(),
        with_history in any::<bool>(),
    ) {
        let mut svc = if with_history { service_with_history() } else { service() };
        let response_bytes = svc.handle(Request::BatchAudit { request_id, nonce, verified_size }.to_wire());
        match Response::from_wire(&response_bytes) {
            Ok(Response::AuditBundle(b)) => {
                prop_assert_eq!(b.request_id, request_id);
                prop_assert!(!b.bundle.checkpoints.is_empty());
            }
            other => prop_assert!(false, "expected audit bundle, got {:?}", other),
        }
    }

    /// The full update-then-call flow over the wire: `Request::Update` is
    /// acknowledged with `Response::UpdateAck`, a stale replay is refused
    /// with `Response::UpdateRejected`, and an `AppCall` into the freshly
    /// installed echo app answers `Response::AppResult` with the request
    /// payload echoed back byte-for-byte.
    #[test]
    fn update_then_app_call_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let dev = SigningKey::derive(b"protocol fuzz", b"dev");
        let mut svc = service();
        let release = SignedRelease::create("fuzzed", 1, "", &echo_app_module(), &dev);
        let update = Request::Update { release: release.clone() };
        let wire = update.to_wire();
        // The fan-out fast path stays in lockstep with the Encode impl.
        prop_assert_eq!(&wire, &Request::encode_update(&release));
        let ack = Response::from_wire(&svc.handle(wire.clone()));
        prop_assert!(
            matches!(ack, Ok(Response::UpdateAck { log_size: 1, .. })),
            "expected ack at log size 1, got {:?}",
            ack
        );
        // The same version again is stale; the rejection decodes cleanly.
        let replay = Response::from_wire(&svc.handle(wire));
        prop_assert!(
            matches!(replay, Ok(Response::UpdateRejected(_))),
            "expected rejection, got {:?}",
            replay
        );
        let call = Request::AppCall { method: 0, payload: payload.clone() };
        match Response::from_wire(&svc.handle(call.to_wire())) {
            Ok(Response::AppResult { payload: echoed }) => prop_assert_eq!(echoed, payload),
            other => prop_assert!(false, "expected echoed app result, got {:?}", other),
        }
    }

    /// Truncating an update frame at any point never panics the service —
    /// it always answers with a frame that decodes.
    #[test]
    fn truncated_update_requests_are_handled(cut_seed in any::<u64>()) {
        let dev = SigningKey::derive(b"protocol fuzz", b"dev");
        let release = SignedRelease::create("fuzzed", 1, "", &counter_module(1), &dev);
        let wire = Request::encode_update(&release);
        let cut = (cut_seed as usize) % wire.len();
        let mut svc = service();
        let response_bytes = svc.handle(wire[..cut].to_vec());
        prop_assert!(Response::from_wire(&response_bytes).is_ok());
    }
}

#[test]
fn attest_on_a_tee_domain_answers_with_a_quote() {
    let mut svc = attested_service();
    let frame = svc.handle(Request::Attest { nonce: [5; 32] }.to_wire());
    let response = Response::from_wire(&frame).expect("decodes");
    assert!(
        matches!(response, Response::Quote(_)),
        "expected a quote, got {response:?}"
    );
    // Canonical encoding: re-encoding the decoded quote reproduces the
    // server's exact bytes.
    assert_eq!(response.to_wire(), frame);
}

#[test]
fn consistency_proofs_between_installed_epochs_decode_and_verify() {
    // The service's log has size 3; heads come from the full bundle.
    let bundle = |verified_size| {
        let frame = batch_audit_response_frame(verified_size);
        let response = Response::from_wire(&frame).expect("decodes");
        // Canonical encoding: the decoded answer re-encodes to the
        // server's exact bytes.
        assert_eq!(response.to_wire(), frame);
        match response {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("expected an audit bundle, got {other:?}"),
        }
    };
    let heads: Vec<[u8; 32]> = bundle(0)
        .checkpoints
        .iter()
        .map(|cp| cp.body.head)
        .collect();
    assert_eq!(heads.len(), 3);
    // From a verified size of 1: one step per transition, 1→2→3.
    let from_one = bundle(1);
    for (i, (old, new)) in [(1u64, 2u64), (2, 3)].into_iter().enumerate() {
        let step = from_one.proof.step(i).expect("step expands");
        assert_eq!((step.old_size, step.new_size), (old, new));
        assert!(step.verify(&heads[old as usize - 1], &heads[new as usize - 1]));
    }
    // Past the head: the latest checkpoint alone, no proof.
    let past = bundle(5);
    assert_eq!(past.checkpoints.len(), 1);
    assert!(past.proof.is_empty());
}

#[test]
fn retired_tags_stay_retired() {
    // Request tags 4/5 and response tags 7/8 carried the per-step
    // checkpoint and consistency messages. Their old frames, byte for
    // byte, must no longer decode, so no future message can silently
    // take over a tag an old peer still sends.
    let mut old_proof = Vec::new();
    1u64.encode(&mut old_proof);
    3u64.encode(&mut old_proof);
    distrust::wire::codec::encode_seq(&[[7u8; 32]], &mut old_proof);
    let frame = |tag: u8, body: &[u8]| [&[tag][..], body].concat();
    for request in [frame(4, &[]), frame(5, &3u64.to_le_bytes())] {
        assert!(Request::from_wire(&request).is_err());
        let answer = Response::from_wire(&service().handle(request)).expect("decodes");
        assert!(matches!(answer, Response::Error(_)), "{answer:?}");
    }
    for response in [
        frame(7, &gossip_checkpoint(0, 1, 3).to_wire()),
        frame(8, &old_proof),
    ] {
        assert!(Response::from_wire(&response).is_err());
    }
}

#[test]
fn audit_bundle_length_bombs_rejected_before_allocation() {
    // A frame claiming a ludicrous checkpoint count must fail fast on the
    // length guard, not attempt the allocation.
    let frame = batch_audit_response_frame(0);
    // The checkpoint sequence length prefix sits right after the tag(1) +
    // request_id(8) + attestation tag(1) + DomainStatus(88) prefix of an
    // unattested bundle; overwrite it with u32::MAX.
    let status_len = distrust::core::DomainStatus {
        domain_index: 0,
        app_digest: [0; 32],
        app_version: 0,
        log_size: 0,
        log_head: [0; 32],
        framework_measurement: [0; 32],
    }
    .to_wire()
    .len();
    let off = 1 + 8 + 1 + status_len;
    let mut bomb = frame.clone();
    bomb[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::from_wire(&bomb).is_err());
    // Sanity: patching the same bytes back decodes again.
    let mut intact = bomb;
    intact[off..off + 4].copy_from_slice(&frame[off..off + 4]);
    assert!(Response::from_wire(&intact).is_ok());
}

#[test]
fn shard_audit_bundle_length_bombs_rejected_before_allocation() {
    // Same layout as the single-tree bundle up to the sequence length
    // prefix: tag(1) + request_id(8) + attestation tag(1) + DomainStatus,
    // then the epoch sequence length. A ludicrous epoch count must fail
    // fast on the length guard, not attempt the allocation.
    let frame = shard_audit_response_frame(0);
    let status_len = distrust::core::DomainStatus {
        domain_index: 0,
        app_digest: [0; 32],
        app_version: 0,
        log_size: 0,
        log_head: [0; 32],
        framework_measurement: [0; 32],
    }
    .to_wire()
    .len();
    let off = 1 + 8 + 1 + status_len;
    let mut bomb = frame.clone();
    bomb[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::from_wire(&bomb).is_err());
    // Sanity: patching the same bytes back decodes again.
    let mut intact = bomb;
    intact[off..off + 4].copy_from_slice(&frame[off..off + 4]);
    assert!(Response::from_wire(&intact).is_ok());
}

#[test]
fn every_request_variant_gets_a_sensible_answer_without_an_app() {
    type ResponseCheck = fn(&Response) -> bool;
    let mut svc = service();
    let cases: Vec<(Request, ResponseCheck)> = vec![
        (Request::GetStatus, |r| matches!(r, Response::Status(_))),
        (Request::Attest { nonce: [0; 32] }, |r| {
            matches!(r, Response::Unattested(_))
        }),
        (
            Request::AppCall {
                method: 1,
                payload: vec![],
            },
            |r| matches!(r, Response::AppError(_)),
        ),
        (Request::GetLogEntries { from: 0 }, |r| {
            matches!(r, Response::LogEntries(_))
        }),
        (Request::GetNotices { since: 0 }, |r| {
            matches!(r, Response::Notices(_))
        }),
        (Request::GetShardEntries { shard: 0, from: 0 }, |r| {
            matches!(r, Response::LogEntries(_))
        }),
        (Request::GetShardEntries { shard: 9, from: 0 }, |r| {
            matches!(r, Response::Error(_))
        }),
    ];
    for (request, check) in cases {
        let resp_bytes = svc.handle(request.to_wire());
        let response = Response::from_wire(&resp_bytes).expect("decodes");
        assert!(check(&response), "unexpected response {response:?}");
    }
}

// --- Gossip / witness-head wire surface (epidemic checkpoint exchange) ---
//
// Every encoding added by the gossip subsystem gets the same treatment as
// the audit bundles above: truncation at every cut must error, a single
// flipped bit must never misparse back to the original value, and length
// bombs must die on the guard instead of allocating.

use distrust::gossip::envelope::{GossipEnvelope, GossipHead};
use distrust::gossip::evidence::EvidenceBundle;
use distrust::gossip::witness::{cosign_signing_bytes, CosignedHeads};
use distrust::log::checkpoint::{log_id, CheckpointBody, EquivocationProof, SignedCheckpoint};

fn gossip_checkpoint(domain: u32, head: u8, size: u64) -> SignedCheckpoint {
    let sk = SigningKey::derive(b"protocol fuzz", b"gossip domain");
    SignedCheckpoint::sign(
        CheckpointBody {
            log_id: log_id(b"protocol fuzz", domain),
            size,
            head: [head; 32],
            logical_time: size,
        },
        &sk,
    )
}

fn fuzz_gossip_envelope() -> GossipEnvelope {
    GossipEnvelope {
        heads: vec![
            GossipHead {
                domain: 0,
                checkpoint: gossip_checkpoint(0, 0x11, 4),
            },
            GossipHead {
                domain: 1,
                checkpoint: gossip_checkpoint(1, 0x22, 7),
            },
        ],
        evidence: vec![EvidenceBundle {
            domain: 2,
            proof: EquivocationProof {
                a: gossip_checkpoint(2, 0x33, 5),
                b: gossip_checkpoint(2, 0x44, 5),
            },
        }],
    }
}

fn fuzz_cosigned_heads() -> CosignedHeads {
    let mut rng = HmacDrbg::new(b"protocol fuzz", b"witness quorum");
    let quorum = distrust::crypto::threshold::generate(1, 1, &mut rng).expect("keygen");
    let heads = vec![
        gossip_checkpoint(0, 0x55, 3).body,
        gossip_checkpoint(1, 0x66, 6).body,
    ];
    // With t = 1 a single partial IS the group signature.
    let partial =
        distrust::crypto::threshold::partial_sign(&quorum.shares[0], &cosign_signing_bytes(&heads));
    CosignedHeads {
        heads,
        signature: partial.value,
    }
}

/// Every frame shape the gossip surface puts on the wire: `Gossip` and
/// `WitnessHead` requests, `Gossip` and `WitnessHead` (Some and None)
/// responses. Paired with whether the frame is a request, so the fuzz
/// cases decode each against the right type.
fn gossip_surface_frames() -> Vec<(bool, Vec<u8>)> {
    vec![
        (
            true,
            Request::Gossip {
                envelope: fuzz_gossip_envelope(),
            }
            .to_wire(),
        ),
        (true, Request::WitnessHead.to_wire()),
        (
            false,
            Response::Gossip {
                envelope: fuzz_gossip_envelope(),
            }
            .to_wire(),
        ),
        (
            false,
            Response::WitnessHead {
                cosigned: Some(fuzz_cosigned_heads()),
            }
            .to_wire(),
        ),
        (false, Response::WitnessHead { cosigned: None }.to_wire()),
    ]
}

#[test]
fn gossip_surface_frames_round_trip() {
    for (is_request, frame) in gossip_surface_frames() {
        if is_request {
            let decoded = Request::from_wire(&frame).expect("request decodes");
            assert_eq!(decoded.to_wire(), frame, "canonical request encoding");
        } else {
            let decoded = Response::from_wire(&frame).expect("response decodes");
            assert_eq!(decoded.to_wire(), frame, "canonical response encoding");
        }
    }
}

#[test]
fn gossip_surface_truncation_rejected_at_every_cut() {
    for (is_request, frame) in gossip_surface_frames() {
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            let rejected = if is_request {
                Request::from_wire(prefix).is_err()
            } else {
                Response::from_wire(prefix).is_err()
            };
            assert!(
                rejected,
                "prefix of {cut}/{} bytes must not parse",
                frame.len()
            );
        }
    }
}

#[test]
fn gossip_surface_length_bombs_rejected() {
    // A Gossip request claiming u32::MAX heads must die on the length
    // guard without allocating.
    let mut bomb = vec![10u8];
    u32::MAX.encode(&mut bomb);
    assert!(Request::from_wire(&bomb).is_err());
    // Same for the response side.
    bomb[0] = 14;
    assert!(Response::from_wire(&bomb).is_err());
    // A WitnessHead response claiming u32::MAX cosigned heads likewise.
    let mut bomb = vec![15u8, 1u8];
    u32::MAX.encode(&mut bomb);
    assert!(Response::from_wire(&bomb).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flipping any single bit of any gossip-surface frame either fails
    /// to decode or decodes to a *different* value — canonical encodings
    /// mean a tampered frame can never impersonate the original.
    #[test]
    fn bit_flipped_gossip_frames_never_misparse(
        frame_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        let frames = gossip_surface_frames();
        let (is_request, frame) = &frames[(frame_seed as usize) % frames.len()];
        let bit = (flip_seed as usize) % (frame.len() * 8);
        let mut mutated = frame.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        if *is_request {
            let original = Request::from_wire(frame).expect("valid frame decodes");
            if let Ok(decoded) = Request::from_wire(&mutated) {
                prop_assert_ne!(decoded, original);
            }
        } else {
            let original = Response::from_wire(frame).expect("valid frame decodes");
            if let Ok(decoded) = Response::from_wire(&mutated) {
                prop_assert_ne!(decoded, original);
            }
        }
    }

    /// Trailing garbage after any complete gossip-surface frame is
    /// rejected, not silently dropped.
    #[test]
    fn gossip_frames_with_trailing_bytes_rejected(
        frame_seed in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let frames = gossip_surface_frames();
        let (is_request, frame) = &frames[(frame_seed as usize) % frames.len()];
        let mut extended = frame.clone();
        extended.extend_from_slice(&garbage);
        if *is_request {
            prop_assert!(Request::from_wire(&extended).is_err());
        } else {
            prop_assert!(Response::from_wire(&extended).is_err());
        }
    }

    /// A live framework answers arbitrary gossip envelopes (including
    /// ones full of unverifiable heads) with a decodable Gossip response,
    /// and WitnessHead requests with a decodable answer — never a panic.
    #[test]
    fn framework_answers_gossip_and_witness_head(
        domain in any::<u32>(),
        head in any::<u8>(),
        size in any::<u64>(),
    ) {
        let mut svc = service();
        let envelope = GossipEnvelope {
            heads: vec![GossipHead {
                domain,
                checkpoint: gossip_checkpoint(domain, head, size),
            }],
            evidence: Vec::new(),
        };
        let frame = svc.handle(Request::Gossip { envelope }.to_wire());
        let gossip_answered = matches!(
            Response::from_wire(&frame),
            Ok(Response::Gossip { .. })
        );
        prop_assert!(gossip_answered);
        let frame = svc.handle(Request::WitnessHead.to_wire());
        let witness_head_answered = matches!(
            Response::from_wire(&frame),
            Ok(Response::WitnessHead { cosigned: None })
        );
        prop_assert!(witness_head_answered);
    }
}
