//! `submit`: private-analytics submissions (4-dimensional seeded
//! vectors, every domain must accept) at seeded Poisson arrivals, mean
//! 100/s — an open loop, each submission timed from when it was due. The
//! guest work is trivial, so wire framing, reactor wake-up after idle
//! gaps, the proxy hop and framework dispatch dominate; no crypto, no log.

use crate::common::{self, Auditors, Ctx};
use crate::probes;
use crate::trace::HostCallCounters;
use distrust_apps::analytics::{self, AnalyticsClient, METHOD_SUBMIT};
use distrust_core::client::DeploymentClient;
use distrust_core::{Deployment, FanoutCall, Session, TrustPolicy};
use distrust_crypto::drbg::HmacDrbg;
use rand::RngCore;
use std::time::{Duration, Instant};

/// The tail percentile `submit` reports (≥ 200 submissions per run). p99
/// spreads too much between runs to gate on.
pub const TAIL_PERCENTILE: f64 = 95.0;
/// Mean arrival rate (submissions per second).
pub const RATE_PER_S: f64 = 100.0;
/// Counters per submission.
pub const DIMS: usize = 4;

/// Seeded inputs: the arrival schedule, the submitted vectors, and the
/// randomness that splits them into shares.
pub struct Inputs {
    arrivals: HmacDrbg,
    values: HmacDrbg,
    /// Share randomness handed to the client.
    pub shares: HmacDrbg,
}

impl Inputs {
    /// The input streams of `ctx`'s seed.
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            arrivals: ctx.rng(b"arrivals"),
            values: ctx.rng(b"vectors"),
            shares: ctx.rng(b"shares"),
        }
    }

    /// The gap to the next arrival: exponential with mean 1/`RATE_PER_S`.
    pub fn next_gap(&mut self) -> Duration {
        // Uniform in (0, 1] from 53 random bits.
        let u = ((self.arrivals.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / RATE_PER_S)
    }

    /// The next submitted vector (counters below 1000).
    pub fn next_vector(&mut self) -> Vec<u64> {
        (0..DIMS).map(|_| self.values.next_u64() % 1000).collect()
    }
}

/// `AnalyticsClient::submit` written out from the same public calls with
/// a span around each: share splitting, then the all-domain fan-out.
fn traced_submit(
    session: &mut Session<'_>,
    values: &[u64],
    rng: &mut HmacDrbg,
    ctx: &mut Ctx,
) -> bool {
    let span = ctx.tracer.begin("client.share");
    let shares = analytics::share_values(values, session.domain_count(), rng);
    let payloads: Vec<Vec<u8>> = shares
        .iter()
        .map(|share| share.iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();
    ctx.tracer.end(span);
    let span = ctx.tracer.begin("core.fanout");
    let report = session.fanout(&FanoutCall::per_domain(METHOD_SUBMIT, payloads));
    ctx.tracer.end(span);
    report.is_ok_and(|r| r.require().is_ok() && r.successes().all(|(_, resp)| resp == [0]))
}

/// One deployment of the analytics app and its user's client.
struct Fixture {
    deployment: Deployment,
    client: DeploymentClient,
    counters: HostCallCounters,
}

impl Fixture {
    /// Launch and the user's first gating audit.
    fn set_up(trace: bool) -> Result<Self, String> {
        let mut counters = HostCallCounters::default();
        let mut spec = analytics::app_spec(common::N);
        if trace {
            spec.hosts = counters.wrap(spec.hosts);
        }
        let deployment =
            Deployment::launch(spec, b"perfbench/submit").map_err(|e| format!("launch: {e}"))?;
        let mut client = deployment.client(b"perfbench/user");
        client
            .session(TrustPolicy::pinned(deployment.initial_app_digest))
            .refresh_trust()
            .map_err(|e| format!("gating audit: {e}"))?;
        Ok(Self {
            deployment,
            client,
            counters,
        })
    }
}

/// Warm-up, then `seconds` of scheduled submissions on one deployment,
/// then the output check: the analyst's totals and count equal the sums
/// of the accepted vectors. Returns the host calls the loop made.
fn episode(
    ctx: &mut Ctx,
    fixture: &mut Fixture,
    inputs: &mut Inputs,
    seconds: f64,
    first: bool,
) -> u64 {
    let analyst = AnalyticsClient::new(DIMS);
    let digest = fixture.deployment.initial_app_digest;
    let mut session = fixture.client.session(TrustPolicy::pinned(digest));
    let mut totals = [0u64; DIMS];
    let mut accepted = 0u64;
    let mut tally = |ok: bool, values: &[u64]| {
        if ok {
            accepted += 1;
            for (t, v) in totals.iter_mut().zip(values) {
                *t = t.wrapping_add(*v);
            }
        }
    };
    for _ in 0..ctx.plan.warmup_ops * 10 {
        let values = inputs.next_vector();
        let ok = analyst
            .submit(&mut session, &values, &mut inputs.shares)
            .is_ok();
        ctx.check(ok, "warm-up submission");
        tally(ok, &values);
    }
    let calls_before = fixture.counters.calls();

    ctx.loop_started();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut due = start + inputs.next_gap();
    while due < end {
        let values = inputs.next_vector();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let op = ctx.latency_ms.len();
        let traced = ctx.traces_op(op);
        ctx.tracer.set_enabled(traced);
        let started = Instant::now();
        let ok = if traced {
            let span = ctx.tracer.begin_op(op as u64, "op.submit");
            let ok = traced_submit(&mut session, &values, &mut inputs.shares, ctx);
            ctx.tracer.end(span);
            ok
        } else {
            analyst
                .submit(&mut session, &values, &mut inputs.shares)
                .is_ok()
        };
        let ended = Instant::now();
        ctx.record_op(
            ok,
            ended - due,
            started.saturating_duration_since(due),
            traced,
        );
        tally(ok, &values);
        due += inputs.next_gap();
    }
    ctx.loop_ended();
    ctx.tracer.set_enabled(false);
    let calls = fixture.counters.calls() - calls_before;

    let mut aggregate = analyst.aggregate(&mut session);
    if ctx.corrupt && first {
        if let Ok((sums, _)) = &mut aggregate {
            sums[0] = sums[0].wrapping_add(1);
        }
    }
    let ok =
        matches!(&aggregate, Ok((sums, count)) if sums[..] == totals[..] && *count == accepted);
    ctx.check(ok, "aggregate differs from the submitted vectors");
    calls
}

/// Runs the workload into `ctx`.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let episodes = ctx.plan.setups.max(1);
    let seconds = ctx.plan.seconds / episodes as f64;
    let mut inputs = Inputs::new(ctx);
    let mut setup_s = Vec::with_capacity(episodes);
    let mut calls = 0;
    let mut fixture = None;
    for i in 0..episodes {
        // The previous deployment shuts down before the next set-up.
        drop(fixture.take());
        let started = Instant::now();
        let mut f = Fixture::set_up(ctx.trace)?;
        setup_s.push(started.elapsed().as_secs_f64());
        calls += episode(ctx, &mut f, &mut inputs, seconds, i == 0);
        ctx.note_peak_rss();
        fixture = Some(f);
    }
    let mut fixture = fixture.expect("at least one episode ran");
    ctx.set_median("setup_s", &setup_s);
    ctx.finish_loop_metrics(TAIL_PERCENTILE);
    if !ctx.trace {
        return Ok(());
    }

    let ops = ctx.latency_ms.len().max(1) as f64;
    ctx.set("abi.host_calls_per_op", calls as f64 / ops);
    ctx.set_unattributed("op.submit");
    let mut auditors = Auditors::new(&fixture.deployment);
    let module = analytics::analytics_module();
    let version = probes::cycles(ctx, &fixture.deployment, &mut auditors, &module, 2);
    probes::run_all(ctx, &fixture.deployment, &mut fixture.client, version)
}
