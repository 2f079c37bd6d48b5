//! Per-layer probes of a traced run. Each times one layer from the
//! outside, around calls into its public functions, after the workload's
//! measured loop: in-process signing through the sandbox, echo round
//! trips through the reactor and the enclave proxy, framework dispatch,
//! bundle building and verification at the workload's history, raw store
//! appends and fsyncs, quote and Schnorr verification, the Table 3
//! environments, and the threshold-signature fan-out split.

use crate::common::{self, Auditors, Ctx, Messages, N, T};
use crate::stats;
use crate::trace::{HostCounters, TimingHost};
use distrust_apps::analytics::{analytics_module, METHOD_SUBMIT};
use distrust_apps::threshold_signer::{signer_module, SignerHost, METHOD_SIGN};
use distrust_bench::{Environment, SigningBench};
use distrust_core::abi::{app_call, import_names, AppHost, NoImports};
use distrust_core::client::DeploymentClient;
use distrust_core::framework::{EnclaveFramework, FrameworkConfig};
use distrust_core::protocol::{Request, Response};
use distrust_core::{Deployment, DirectHost, SignedRelease, TrustPolicy};
use distrust_crypto::bls::Signature;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::schnorr::SigningKey;
use distrust_crypto::threshold;
use distrust_log::store::{DurableOptions, DurableStore, LogStore, StorageConfig};
use distrust_log::{log_id, Auditor, CheckpointBundle};
use distrust_sandbox::{Instance, Limits, Module};
use distrust_tee::{EnclaveClient, EnclaveHost};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Op ids of probe spans start here, clear of the measured loop's.
const PROBE_OPS: u64 = 1 << 32;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f`, returning its result and the elapsed time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed())
}

/// Runs `ctx.plan.probe_cycles` traced update → re-audit → join cycles
/// on a `sign` or `submit` deployment, pushing `module` from
/// `first_version` on; returns the last version pushed.
pub fn cycles(
    ctx: &mut Ctx,
    deployment: &Deployment,
    auditors: &mut Auditors,
    module: &Module,
    first_version: u64,
) -> u64 {
    let mut rng = ctx.rng(b"probe release notes");
    let mut version = first_version - 1;
    ctx.tracer.set_enabled(true);
    for i in 0..ctx.plan.probe_cycles as u64 {
        version += 1;
        let notes = common::release_notes(&mut rng, version);
        let span = ctx.tracer.begin_op(PROBE_OPS + i, "probe.cycle");
        let ok = common::audit_cycle(ctx, deployment, auditors, version, &notes, module);
        ctx.tracer.end(span);
        ctx.check(ok, "probe cycle");
    }
    ctx.tracer.set_enabled(false);
    cycle_metrics(ctx, auditors);
    version
}

/// Per-step medians of the recorded cycles and the long-lived client's
/// prefix-cache counters per re-audit.
pub fn cycle_metrics(ctx: &mut Ctx, auditors: &Auditors) {
    for (metric, span) in [
        ("core.update_ms", "core.update"),
        ("log.reaudit_ms", "log.reaudit"),
        ("core.join_ms", "core.join"),
    ] {
        let samples = ctx.tracer.durations_ms(span);
        ctx.set_median(metric, &samples);
    }
    let reaudits = auditors.reaudits.max(1) as f64;
    ctx.set(
        "log.consistency_verified_per_audit",
        auditors.consistency_verified as f64 / reaudits,
    );
    ctx.set("log.skipped_per_audit", auditors.skipped as f64 / reaudits);
}

/// Every probe; `history` is the workload's log size.
pub fn run_all(
    ctx: &mut Ctx,
    deployment: &Deployment,
    client: &mut DeploymentClient,
    history: u64,
) -> Result<(), String> {
    quote(ctx, deployment, client);
    signer_in_process(ctx);
    fanout_split(ctx)?;
    echo(ctx).map_err(|e| format!("echo probe: {e}"))?;
    dispatch(ctx)?;
    bundles(ctx, history)?;
    store(ctx).map_err(|e| format!("store probe: {e}"))?;
    table3(ctx).map_err(|e| format!("table3 probe: {e}"))?;
    schnorr(ctx);
    Ok(())
}

/// `tee.quote_verify_ms`: full verification of a TEE domain's quote.
fn quote(ctx: &mut Ctx, deployment: &Deployment, client: &mut DeploymentClient) {
    let descriptor = &deployment.descriptor;
    let measurement = descriptor.expected_measurement();
    let quote = match client.exchange(1, &Request::Attest { nonce: [7; 32] }) {
        Ok(Response::Quote(q)) => q,
        _ => {
            ctx.check(false, "domain 1 answers Attest with a quote");
            return;
        }
    };
    let mut samples = Vec::new();
    for _ in 0..ctx.plan.probe_reps {
        let (result, t) =
            timed(|| quote.verify(&descriptor.vendor_roots, Some(&measurement), None));
        ctx.check(result.is_ok(), "quote verifies");
        samples.push(ms(t));
    }
    ctx.set_median("tee.quote_verify_ms", &samples);
}

/// Cost of one `Instant::now()`, so timed host calls can be corrected
/// for the clock reads the timing itself adds.
fn clock_read_cost() -> Duration {
    let reads = 20_000u32;
    let started = Instant::now();
    for _ in 0..reads {
        std::hint::black_box(Instant::now());
    }
    started.elapsed() / reads
}

/// The sandboxed signer in process, one instance per share: each message
/// is signed once behind a counting host (the sandbox's own time, against
/// native `partial_sign`) and once behind a timing host (the boundary
/// split: host time, corrected for the clock reads, and the rest as guest
/// time). Client-side verification of the partials and of the aggregate
/// is timed on the same messages.
fn signer_in_process(ctx: &mut Ctx) {
    let mut rng = HmacDrbg::new(b"perfbench", b"signer keys");
    let keys = threshold::generate(T, N, &mut rng).expect("2-of-3 keygen");
    let module = signer_module();
    let names = import_names(&module);
    let clock = clock_read_cost();
    let domain = |share, timed| {
        let counters = Arc::new(HostCounters::default());
        let host = TimingHost::new(
            Box::new(SignerHost::new(share)),
            Arc::clone(&counters),
            timed,
        );
        let instance =
            Instance::new(module.clone(), Limits::default()).expect("signer instantiates");
        (instance, host, counters)
    };
    let mut plain: Vec<_> = keys.shares.iter().map(|s| domain(*s, false)).collect();
    let mut timed_hosts: Vec<_> = keys.shares.iter().map(|s| domain(*s, true)).collect();
    let mut messages = Messages::new(ctx);
    let (mut calls, mut host_ms, mut guest_ms, mut sandboxed, mut native) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut verify, mut aggregate) = (Vec::new(), Vec::new());
    for _ in 0..ctx.plan.probe_reps {
        let message = messages.next_message();
        let (mut sign_calls, mut sign_host, mut sign_total) =
            (0u64, Duration::ZERO, Duration::ZERO);
        let mut partials = Vec::new();
        for (((instance, host, counters), (t_instance, t_host, t_counters)), share) in plain
            .iter_mut()
            .zip(timed_hosts.iter_mut())
            .zip(&keys.shares)
        {
            let c0 = counters.calls();
            let (out, t) = timed(|| {
                app_call(
                    instance,
                    &names,
                    host as &mut dyn AppHost,
                    METHOD_SIGN,
                    &message,
                )
            });
            sign_calls += counters.calls() - c0;
            sign_total += t;
            sandboxed.push(ms(t));
            let (c0, h0) = (t_counters.calls(), t_counters.host_time());
            let t_out = app_call(
                t_instance,
                &names,
                t_host as &mut dyn AppHost,
                METHOD_SIGN,
                &message,
            );
            let clock_reads = clock * (t_counters.calls() - c0) as u32;
            sign_host += (t_counters.host_time() - h0).saturating_sub(clock_reads);
            let (expected, t) = timed(|| threshold::partial_sign(share, &message));
            native.push(ms(t));
            let parse = |out: Result<Vec<u8>, _>| {
                out.ok()
                    .and_then(|b: Vec<u8>| <[u8; 48]>::try_from(b.as_slice()).ok())
                    .and_then(|b| Signature::from_bytes(&b))
            };
            ctx.check(
                parse(out) == Some(expected.value),
                "sandboxed partial equals native",
            );
            ctx.check(
                parse(t_out) == Some(expected.value),
                "timed sandboxed partial equals native",
            );
            partials.push(expected);
        }
        calls.push(sign_calls as f64);
        host_ms.push(ms(sign_host));
        guest_ms.push(ms(sign_total.saturating_sub(sign_host)));
        for p in partials.iter().take(T) {
            let (ok, t) = timed(|| threshold::verify_partial(&keys.commitments, &message, p));
            ctx.check(ok, "partial verifies");
            verify.push(ms(t));
        }
        let (ok, t) = timed(|| {
            threshold::aggregate(T, &partials[..T])
                .is_ok_and(|s| keys.public_key.verify(&message, &s))
        });
        ctx.check(ok, "aggregate verifies");
        aggregate.push(ms(t));
    }
    ctx.check(
        calls.windows(2).all(|w| w[0] == w[1]),
        "host calls per signature repeat",
    );
    ctx.set_median("abi.host_calls_per_sign", &calls);
    ctx.set_median("abi.host_ms_per_sign", &host_ms);
    ctx.set_median("sandbox.guest_ms_per_sign", &guest_ms);
    ctx.set_median("crypto.partial_sign_ms", &native);
    ctx.set_median("crypto.verify_partial_ms", &verify);
    ctx.set_median("crypto.aggregate_verify_ms", &aggregate);
    let (s, n) = (stats::median(&sandboxed), stats::median(&native));
    ctx.set(
        "sandbox.overhead_pct",
        s.zip(n).map_or(0.0, |(s, n)| (s / n - 1.0) * 100.0),
    );
}

/// `core.fanout_wait_ms`: a fan-out's wall time minus the client's
/// validation inside it, over every traced threshold signature of the
/// run — the `sign` loop's, plus a few on a small signer deployment so
/// every workload reports it.
fn fanout_split(ctx: &mut Ctx) -> Result<(), String> {
    let (spec, public, _) = common::signer_spec(None);
    let deployment =
        Deployment::launch(spec, b"perfbench/probe-sign").map_err(|e| format!("launch: {e}"))?;
    let mut client = deployment.client(b"perfbench/probe-user");
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
    let mut messages = Messages::new(ctx);
    for i in 0..ctx.plan.probe_reps as u64 + 2 {
        let message = messages.next_message();
        // The first two are warm-up (gating audit, connections).
        ctx.tracer.set_enabled(i >= 2);
        let span = ctx.tracer.begin_op(PROBE_OPS + 100 + i, "probe.sign");
        let sig = common::traced_sign(&mut session, &public, &message, &mut ctx.tracer);
        ctx.tracer.end(span);
        ctx.check(sig.is_some(), "probe signature");
    }
    ctx.tracer.set_enabled(false);
    let waits = ctx.tracer.self_ms("core.fanout_collect");
    ctx.set_median("core.fanout_wait_ms", &waits);
    Ok(())
}

/// Echo round trips: through the reactor back to back and after
/// `submit`'s mean inter-arrival gap, and through an enclave proxy after
/// the same gap.
fn echo(ctx: &mut Ctx) -> std::io::Result<()> {
    let idle = Duration::from_millis(10);
    let payload = vec![0x5a; 64];
    let mut direct = DirectHost::spawn(|request: Vec<u8>| request)?;
    let mut client = EnclaveClient::connect(direct.addr())?;
    let mut busy = Vec::new();
    let mut idle_direct = Vec::new();
    for i in 0..ctx.plan.probe_reps * 20 {
        let (reply, t) = timed(|| client.exchange(&payload));
        ctx.check(reply.is_ok_and(|r| r == payload), "direct echo");
        if i >= ctx.plan.probe_reps {
            busy.push(us(t));
        }
    }
    for _ in 0..ctx.plan.probe_reps * 2 {
        std::thread::sleep(idle);
        let (reply, t) = timed(|| client.exchange(&payload));
        ctx.check(reply.is_ok_and(|r| r == payload), "direct echo after idle");
        idle_direct.push(us(t));
    }
    drop(client);
    direct.shutdown();

    let mut proxied = EnclaveHost::spawn(|request: Vec<u8>| request)?;
    let mut client = EnclaveClient::connect(proxied.addr())?;
    let mut idle_tee = Vec::new();
    for i in 0..ctx.plan.probe_reps * 2 + 2 {
        std::thread::sleep(idle);
        let (reply, t) = timed(|| client.exchange(&payload));
        ctx.check(reply.is_ok_and(|r| r == payload), "proxied echo after idle");
        if i >= 2 {
            idle_tee.push(us(t));
        }
    }
    drop(client);
    proxied.shutdown();
    ctx.set_median("wire.echo_busy_us", &busy);
    ctx.set_median("wire.echo_idle_us", &idle_direct);
    ctx.set_median("tee.proxy_echo_idle_us", &idle_tee);
    Ok(())
}

/// A domain-0 style framework (no enclave) for in-process probes.
fn probe_framework(
    app: &str,
    developer: &SigningKey,
    storage: StorageConfig,
    host: Box<dyn AppHost>,
) -> Result<EnclaveFramework, String> {
    EnclaveFramework::open(
        FrameworkConfig {
            domain_index: 0,
            app_name: app.to_string(),
            developer_key: developer.verifying_key(),
            log_id: log_id(b"perfbench-probe", 0),
            limits: Limits::default(),
            log_shards: 1,
            storage,
        },
        None,
        SigningKey::derive(b"perfbench", b"probe checkpoint"),
        host,
    )
    .map_err(|e| format!("probe framework: {e}"))
}

/// `core.dispatch_us`: the framework handling a `submit` app call in
/// process.
fn dispatch(ctx: &mut Ctx) -> Result<(), String> {
    let app = "private-analytics";
    let developer = SigningKey::derive(b"perfbench", b"probe developer");
    let mut framework = probe_framework(
        app,
        &developer,
        StorageConfig::Ephemeral,
        Box::new(NoImports),
    )?;
    let release = SignedRelease::create(app, 1, "probe", &analytics_module(), &developer);
    ctx.check(
        framework.apply_update(&release).is_ok(),
        "probe release applies",
    );
    let payload: Vec<u8> = [1u64, 2, 3, 4]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut samples = Vec::new();
    for _ in 0..ctx.plan.probe_reps * 25 {
        let request = Request::AppCall {
            method: METHOD_SUBMIT,
            payload: payload.clone(),
        };
        let (response, t) = timed(|| framework.handle(request));
        let ok = matches!(response, Response::AppResult { payload } if payload == [0]);
        ctx.check(ok, "dispatched submit accepted");
        samples.push(us(t));
    }
    ctx.set_median("core.dispatch_us", &samples);
    Ok(())
}

fn batch_audit(framework: &mut EnclaveFramework, verified_size: u64) -> Option<CheckpointBundle> {
    match framework.handle(Request::BatchAudit {
        request_id: verified_size + 1,
        nonce: [3; 32],
        verified_size,
    }) {
        Response::AuditBundle(answer) => Some(answer.bundle),
        _ => None,
    }
}

/// Bundle building and verification on a durable in-process framework
/// grown to the workload's history: `core.apply_update_ms`,
/// `core.bundle_build_ms` (the first `BatchAudit` after a release, so the
/// cache is cold), and an `Auditor` verifying the full bundle from empty
/// and then one new epoch at a time.
fn bundles(ctx: &mut Ctx, history: u64) -> Result<(), String> {
    let app = "bls-threshold-signer";
    let dir = ctx.scratch.join("probe-log");
    let developer = SigningKey::derive(b"perfbench", b"probe developer");
    let storage = StorageConfig::Durable(DurableOptions::new(&dir));
    let mut framework = probe_framework(app, &developer, storage, Box::new(NoImports))?;
    let key = SigningKey::derive(b"perfbench", b"probe checkpoint").verifying_key();
    let module = signer_module();
    let reps = ctx.plan.probe_reps.min(8) as u64;
    let (mut apply, mut build) = (Vec::new(), Vec::new());
    let mut full = None;
    let release = |framework: &mut EnclaveFramework, ctx: &mut Ctx, version: u64| {
        let r = SignedRelease::create(app, version, "probe", &module, &developer);
        let (ok, t) = timed(|| framework.apply_update(&r).is_ok());
        ctx.check(ok, "probe release applies");
        ms(t)
    };
    for version in 1..=history {
        apply.push(release(&mut framework, ctx, version));
        if version + reps > history {
            let (bundle, t) = timed(|| batch_audit(&mut framework, 0));
            build.push(ms(t));
            full = bundle;
        }
    }
    let full = full.ok_or("no audit bundle at the workload's history")?;
    let mut cold = Vec::new();
    let mut auditor = Auditor::new(vec![key]);
    for _ in 0..reps {
        auditor = Auditor::new(vec![key]);
        let (outcome, t) = timed(|| auditor.observe_bundle(0, &full));
        ctx.check(outcome.is_consistent(), "full bundle verifies");
        cold.push(ms(t));
    }
    let mut warm = Vec::new();
    for version in history + 1..=history + reps {
        apply.push(release(&mut framework, ctx, version));
        let bundle = batch_audit(&mut framework, version - 1).ok_or("no incremental bundle")?;
        let (outcome, t) = timed(|| auditor.observe_bundle(0, &bundle));
        ctx.check(outcome.is_consistent(), "incremental bundle verifies");
        warm.push(ms(t));
    }
    drop(framework);
    remove_dir(&dir)?;
    ctx.set_median("core.apply_update_ms", &apply);
    ctx.set_median("core.bundle_build_ms", &build);
    ctx.set_median("log.bundle_verify_cold_ms", &cold);
    ctx.set_median("log.bundle_verify_warm_ms", &warm);
    Ok(())
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// `log.append_us` and `log.fsync_ms`: direct `DurableStore` calls.
fn store(ctx: &mut Ctx) -> Result<(), String> {
    let dir = ctx.scratch.join("probe-store");
    let opts = DurableOptions {
        fsync_every: u32::MAX,
        ..DurableOptions::new(&dir)
    };
    let store = DurableStore::open(opts, 1).map_err(|e| e.to_string())?;
    store.recover().map_err(|e| e.to_string())?;
    let leaf = [0xab; 64];
    let (mut append, mut fsync) = (Vec::new(), Vec::new());
    let mut index = 0u64;
    for _ in 0..ctx.plan.probe_reps * 25 {
        let (ok, t) = timed(|| store.append(0, index, &leaf).is_ok());
        ctx.check(ok, "store append");
        append.push(us(t));
        index += 1;
    }
    for _ in 0..ctx.plan.probe_reps {
        ctx.check(store.append(0, index, &leaf).is_ok(), "store append");
        index += 1;
        let (ok, t) = timed(|| store.sync().is_ok());
        ctx.check(ok, "store fsync");
        fsync.push(ms(t));
    }
    drop(store);
    remove_dir(&dir)?;
    ctx.set_median("log.append_us", &append);
    ctx.set_median("log.fsync_ms", &fsync);
    Ok(())
}

/// Table 3's three environments, interleaved round-robin so drift hits
/// every row alike. The paper's ordering is reported, not gated.
fn table3(ctx: &mut Ctx) -> std::io::Result<()> {
    let environments = [
        Environment::Baseline,
        Environment::Sandbox,
        Environment::TeeSandbox,
    ];
    let mut benches = Vec::new();
    for env in environments {
        benches.push(SigningBench::start(env)?);
    }
    let mut samples = vec![Vec::new(); benches.len()];
    let mut messages = Messages::new(ctx);
    for round in 0..ctx.plan.probe_reps * 2 + 1 {
        let message = messages.next_message();
        for k in 0..benches.len() {
            let row = (round + k) % benches.len();
            let (sig, t) = timed(|| benches[row].sign(&message));
            ctx.check(
                benches[row].verify_output(&message, &sig),
                "table3 signature",
            );
            // Round 0 is warm-up.
            if round > 0 {
                samples[row].push(ms(t));
            }
        }
    }
    drop(benches);
    let medians: Vec<f64> = samples
        .iter()
        .map(|s| stats::median(s).unwrap_or(0.0))
        .collect();
    ctx.set("table3.baseline_ms", medians[0]);
    ctx.set("table3.sandbox_ms", medians[1]);
    ctx.set("table3.tee_sandbox_ms", medians[2]);
    let paper_order = medians[0] < medians[1] && medians[1] < medians[2];
    ctx.set("table3.paper_order", f64::from(u8::from(paper_order)));
    Ok(())
}

/// `crypto.schnorr_verify_us`: one checkpoint-style signature check.
fn schnorr(ctx: &mut Ctx) {
    let key = SigningKey::derive(b"perfbench", b"schnorr probe");
    let public = key.verifying_key();
    let message = Messages::new(ctx).next_message();
    let signature = key.sign(&message);
    let mut samples = Vec::new();
    for _ in 0..ctx.plan.probe_reps * 10 {
        let (ok, t) = timed(|| public.verify(&message, &signature));
        ctx.check(ok, "schnorr verifies");
        samples.push(us(t));
    }
    ctx.set_median("crypto.schnorr_verify_us", &samples);
}
