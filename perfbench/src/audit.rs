//! `audit`: writes beside reads on a durable deployment. The
//! threshold-signer app runs on `Deployment::launch_durable` in a fresh
//! directory (real fsync) with 64 releases pushed during set-up; each
//! measured cycle pushes one more release, has a long-lived client
//! re-audit, and has a new client open a session, run the gating audit
//! and go away. Log append/fsync, bundle building, checkpoint and quote
//! verification and the verified-prefix cache dominate; no guest runs
//! beyond instantiating each release.
//!
//! The run ends after a fixed number of cycles, not a fixed time: the log
//! grows every cycle, and a faster program must not be handed more
//! history.

use crate::common::{self, Auditors, Ctx, Messages};
use crate::probes;
use crate::trace::HostCallCounters;
use distrust_apps::threshold_signer::{signer_module, ThresholdPublic, ThresholdSigningClient};
use distrust_core::{Deployment, TrustPolicy};
use distrust_sandbox::Module;
use std::path::PathBuf;
use std::time::Instant;

/// The tail percentile `audit` reports (40 cycles leave ten beyond p75).
pub const TAIL_PERCENTILE: f64 = 75.0;

/// One durable deployment grown to the set-up history, with its
/// developer and long-lived client.
struct Fixture {
    deployment: Deployment,
    public: ThresholdPublic,
    auditors: Auditors,
    counters: HostCallCounters,
    dir: PathBuf,
}

impl Fixture {
    /// Launch in a fresh directory, push the seeded set-up releases, and
    /// have the long-lived client audit once. Counts rejected pushes.
    fn set_up(ctx: &mut Ctx, dir: PathBuf, module: &Module) -> Result<Self, String> {
        let mut counters = HostCallCounters::default();
        let (spec, public, _) = common::signer_spec(ctx.trace.then_some(&mut counters));
        let deployment = Deployment::launch_durable(spec, b"perfbench/audit", 1, &dir)
            .map_err(|e| format!("launch: {e}"))?;
        let mut developer = deployment.client(b"perfbench/developer");
        let mut notes = ctx.rng(b"release notes");
        for version in 2..=ctx.plan.audit_releases + 1 {
            let notes = common::release_notes(&mut notes, version);
            let ok = common::push_release(&deployment, &mut developer, version, &notes, module);
            ctx.check(ok, "set-up release accepted at log size == version");
        }
        let auditors = Auditors::new(&deployment);
        Ok(Self {
            deployment,
            public,
            auditors,
            counters,
            dir,
        })
    }

    fn tear_down(self) -> Result<(), String> {
        drop(self.deployment);
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))
    }
}

/// One warm-up cycle, then `cycles` measured ones on one deployment.
/// Returns the host calls the measured cycles made and the last version.
fn episode(ctx: &mut Ctx, fixture: &mut Fixture, module: &Module, cycles: usize) -> (u64, u64) {
    let mut notes = ctx.rng(b"cycle notes");
    let mut version = ctx.plan.audit_releases + 1;
    let (deployment, auditors) = (&fixture.deployment, &mut fixture.auditors);
    // The first join opens the first fresh connections.
    version += 1;
    let note = common::release_notes(&mut notes, version);
    let ok = common::audit_cycle(ctx, deployment, auditors, version, &note, module);
    ctx.check(ok, "warm-up cycle");
    auditors.consistency_verified = 0;
    auditors.skipped = 0;
    auditors.reaudits = 0;

    let calls_before = fixture.counters.calls();
    ctx.loop_started();
    let mut previous_end = Instant::now();
    for _ in 0..cycles {
        version += 1;
        let note = common::release_notes(&mut notes, version);
        let op = ctx.latency_ms.len();
        let traced = ctx.traces_op(op);
        ctx.tracer.set_enabled(traced);
        let started = Instant::now();
        let span = ctx.tracer.begin_op(op as u64, "op.cycle");
        let ok = common::audit_cycle(ctx, deployment, auditors, version, &note, module);
        ctx.tracer.end(span);
        let ended = Instant::now();
        ctx.record_op(ok, ended - started, started - previous_end, traced);
        previous_end = ended;
    }
    ctx.loop_ended();
    ctx.tracer.set_enabled(false);
    (fixture.counters.calls() - calls_before, version)
}

/// Runs the workload into `ctx`: the fixed cycle count split evenly over
/// one deployment per set-up.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let module = signer_module();
    let episodes = ctx.plan.setups.max(1);
    let mut setup_s = Vec::with_capacity(episodes);
    let (mut calls, mut cycles, mut version) = (0, 0, 0);
    let (mut consistency_verified, mut skipped, mut reaudits) = (0, 0, 0);
    let mut fixture: Option<Fixture> = None;
    for i in 0..episodes {
        if let Some(f) = fixture.take() {
            f.tear_down()?;
        }
        let started = Instant::now();
        let mut f = Fixture::set_up(ctx, ctx.scratch.join(format!("audit-{i}")), &module)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let n =
            ctx.plan.audit_cycles / episodes + usize::from(i < ctx.plan.audit_cycles % episodes);
        let (episode_calls, last) = episode(ctx, &mut f, &module, n);
        calls += episode_calls;
        version = last;
        cycles += n;
        consistency_verified += f.auditors.consistency_verified;
        skipped += f.auditors.skipped;
        reaudits += f.auditors.reaudits;
        ctx.note_peak_rss();
        fixture = Some(f);
    }
    let mut fixture = fixture.expect("at least one episode ran");
    ctx.set_median("setup_s", &setup_s);

    // Output check: one signature under the last release.
    let signer = ThresholdSigningClient::new(fixture.public.clone());
    let message = Messages::new(ctx).next_message();
    let signed = {
        let deployment = &fixture.deployment;
        let mut client = deployment.client(b"perfbench/signer");
        let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
        signer.sign(&mut session, &message)
    };
    let ok = signed.is_ok_and(|sig| signer.public.public_key.verify(&message, &sig));
    ctx.check(ok, "signature under the last release");
    ctx.finish_loop_metrics(TAIL_PERCENTILE);

    if ctx.trace {
        ctx.set("abi.host_calls_per_op", calls as f64 / cycles.max(1) as f64);
        ctx.set_unattributed("op.cycle");
        fixture.auditors.consistency_verified = consistency_verified;
        fixture.auditors.skipped = skipped;
        fixture.auditors.reaudits = reaudits;
        probes::cycle_metrics(ctx, &fixture.auditors);
        let mut client = fixture.deployment.client(b"perfbench/probe");
        probes::run_all(ctx, &fixture.deployment, &mut client, version)?;
    }
    fixture.tear_down()
}
