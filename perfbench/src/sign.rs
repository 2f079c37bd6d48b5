//! `sign`: a closed loop of trust-gated 2-of-3 threshold signatures over
//! one pinned session — Table 3, end to end. Compute-bound in the guest
//! interpreter, the guest↔host boundary and client BLS verification; no
//! log writes and one gating audit per deployment.

use crate::common::{self, Auditors, Ctx, Messages};
use crate::probes;
use crate::trace::HostCallCounters;
use distrust_apps::threshold_signer::{signer_module, ThresholdPublic, ThresholdSigningClient};
use distrust_core::client::DeploymentClient;
use distrust_core::{Deployment, TrustPolicy};
use distrust_crypto::bls::Signature;
use distrust_crypto::threshold::KeyShare;
use std::time::{Duration, Instant};

/// The tail percentile `sign` reports (≥ 100 signatures per run). Higher
/// percentiles follow the host's background load more than the program.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// One deployment of the signer and its user's client.
struct Fixture {
    deployment: Deployment,
    client: DeploymentClient,
    public: ThresholdPublic,
    shares: Vec<KeyShare>,
    counters: HostCallCounters,
}

impl Fixture {
    /// Keygen, launch, and the user's first gating audit.
    fn set_up(trace: bool) -> Result<Self, String> {
        let mut counters = HostCallCounters::default();
        let (spec, public, shares) = common::signer_spec(trace.then_some(&mut counters));
        let deployment =
            Deployment::launch(spec, b"perfbench/sign").map_err(|e| format!("launch: {e}"))?;
        let mut client = deployment.client(b"perfbench/user");
        client
            .session(TrustPolicy::pinned(deployment.initial_app_digest))
            .refresh_trust()
            .map_err(|e| format!("gating audit: {e}"))?;
        Ok(Self {
            deployment,
            client,
            public,
            shares,
            counters,
        })
    }
}

/// What the episodes accumulate for the checks after them.
#[derive(Default)]
struct Totals {
    signed: Vec<(Vec<u8>, Signature)>,
    host_calls: u64,
    ops: u64,
}

/// Warm-up, then `seconds` of signatures on one deployment.
fn episode(
    ctx: &mut Ctx,
    fixture: &mut Fixture,
    messages: &mut Messages,
    seconds: f64,
    totals: &mut Totals,
) {
    let signer = ThresholdSigningClient::new(fixture.public.clone());
    let digest = fixture.deployment.initial_app_digest;
    let mut session = fixture.client.session(TrustPolicy::pinned(digest));
    // Warm-up, the session's gating audit included.
    for _ in 0..ctx.plan.warmup_ops {
        let message = messages.next_message();
        let result = signer.sign(&mut session, &message);
        ctx.check(result.is_ok(), "warm-up signature");
        if let Ok(sig) = result {
            totals.signed.push((message, sig));
        }
    }
    let calls_before = if ctx.trace {
        fixture.counters.settle()
    } else {
        0
    };

    let measured = ctx.latency_ms.len();
    ctx.loop_started();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut previous_end = Instant::now();
    while Instant::now() < deadline {
        let message = messages.next_message();
        let op = ctx.latency_ms.len();
        let traced = ctx.traces_op(op);
        ctx.tracer.set_enabled(traced);
        let started = Instant::now();
        let result = if traced {
            let span = ctx.tracer.begin_op(op as u64, "op.sign");
            let sig = common::traced_sign(&mut session, &fixture.public, &message, &mut ctx.tracer);
            ctx.tracer.end(span);
            sig
        } else {
            signer.sign(&mut session, &message).ok()
        };
        let ended = Instant::now();
        ctx.record_op(
            result.is_some(),
            ended - started,
            started - previous_end,
            traced,
        );
        if let Some(sig) = result {
            totals.signed.push((message, sig));
        }
        previous_end = ended;
    }
    ctx.loop_ended();
    ctx.tracer.set_enabled(false);
    totals.ops += (ctx.latency_ms.len() - measured) as u64;
    if ctx.trace {
        totals.host_calls += fixture.counters.settle() - calls_before;
    }
}

/// Runs the workload into `ctx`.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let episodes = ctx.plan.setups.max(1);
    let seconds = ctx.plan.seconds / episodes as f64;
    let mut messages = Messages::new(ctx);
    let mut totals = Totals::default();
    let mut setup_s = Vec::with_capacity(episodes);
    let mut fixture = None;
    for _ in 0..episodes {
        // The previous deployment shuts down before the next set-up.
        drop(fixture.take());
        let started = Instant::now();
        let mut f = Fixture::set_up(ctx.trace)?;
        setup_s.push(started.elapsed().as_secs_f64());
        episode(ctx, &mut f, &mut messages, seconds, &mut totals);
        ctx.note_peak_rss();
        fixture = Some(f);
    }
    let mut fixture = fixture.expect("at least one episode ran");
    ctx.set_median("setup_s", &setup_s);

    // Output check: every signature verifies under the group key and
    // equals the aggregate of native partial signatures.
    if ctx.corrupt && totals.signed.len() >= 2 {
        totals.signed[0].1 = totals.signed[1].1;
    }
    for (message, sig) in &totals.signed {
        let ok = fixture.public.public_key.verify(message, sig)
            && common::native_signature(&fixture.shares, message) == Some(*sig);
        ctx.check_output(ok, "signature differs from native aggregate");
    }
    ctx.finish_loop_metrics(TAIL_PERCENTILE);
    if !ctx.trace {
        return Ok(());
    }

    // Exact when every domain signed every message once.
    let per_op = totals.host_calls as f64 / totals.ops.max(1) as f64;
    ctx.set("abi.host_calls_per_op", per_op);
    ctx.set_unattributed("op.sign");
    let mut auditors = Auditors::new(&fixture.deployment);
    let version = probes::cycles(ctx, &fixture.deployment, &mut auditors, &signer_module(), 2);
    probes::run_all(ctx, &fixture.deployment, &mut fixture.client, version)
}
