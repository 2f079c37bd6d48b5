//! What the three workloads share: run configuration, the per-run record
//! of operations and failures, the signer deployment, the traced form of
//! a threshold signature, and the update → re-audit → join cycle.

use crate::stats;
use crate::sys;
use crate::trace::{HostCallCounters, Tracer};
use distrust_apps::threshold_signer::{signer_module, SignerHost, ThresholdPublic, METHOD_SIGN};
use distrust_core::abi::AppHost;
use distrust_core::client::{AuditReport, DeploymentClient};
use distrust_core::{AppSpec, Deployment, Session, TrustPolicy};
use distrust_crypto::bls::Signature;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::threshold::{self, KeyShare, PartialSignature};
use distrust_sandbox::{Limits, Module};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Signing threshold and domain count of every deployment (Figure 2:
/// domain 0 direct, domains 1–2 behind enclave proxies).
pub const T: usize = 2;
/// Trust domains per deployment.
pub const N: usize = 3;

/// How much work one run does. [`Plan::full`] is the benchmark; the
/// self-tests run [`Plan::toy`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// Measured time of the time-bounded workloads (`sign`, `submit`).
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median. `sign` and `submit`
    /// measure an equal share of `seconds` on each set-up's deployment,
    /// so one deployment's luck (which reactor thread a connection lands
    /// on, timer phase) does not decide a run.
    pub setups: usize,
    /// Untimed signatures before the measured ones; `submit` warms up
    /// with ten times as many submissions, `audit` with one cycle.
    pub warmup_ops: usize,
    /// Releases the `audit` set-up pushes after version 1.
    pub audit_releases: u64,
    /// Measured `audit` cycles (fixed, so a faster program is not handed
    /// more history).
    pub audit_cycles: usize,
    /// Update → re-audit → join cycles a traced `sign`/`submit` run adds
    /// on its own deployment.
    pub probe_cycles: usize,
    /// Repetitions of each in-process probe.
    pub probe_reps: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            setups: 5,
            warmup_ops: 5,
            audit_releases: 64,
            audit_cycles: 40,
            probe_cycles: 5,
            probe_reps: 20,
        }
    }

    /// Seconds-long sizes for the self-tests.
    #[cfg(test)]
    pub fn toy() -> Self {
        Self {
            seconds: 0.3,
            setups: 2,
            warmup_ops: 1,
            audit_releases: 3,
            audit_cycles: 3,
            probe_cycles: 2,
            probe_reps: 3,
        }
    }
}

/// One run's state: configuration, tracer, scratch directory, the record
/// of measured operations, and the metrics gathered so far.
pub struct Ctx {
    /// Work sizes.
    pub plan: Plan,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Private scratch directory, removed when the run ends.
    pub scratch: PathBuf,
    /// Span recorder (enabled on traced operations only).
    pub tracer: Tracer,
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Latency (ms) of each measured operation, in run order.
    pub latency_ms: Vec<f64>,
    /// Whether each measured operation was traced.
    pub traced: Vec<bool>,
    /// How late (ms) the generator issued each measured operation.
    pub late_ms: Vec<f64>,
    /// Highest thread count sampled during the measured loop.
    pub threads_peak: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Tamper with one output before checking it — the self-tests set
    /// this to prove each workload's output checks fire.
    pub corrupt: bool,
    cpu_start: Option<Duration>,
    loop_cpu: Duration,
}

impl Ctx {
    /// A fresh run whose scratch directory lives under `out_dir`.
    pub fn new(plan: Plan, seed: u64, trace: bool, out_dir: &Path) -> std::io::Result<Self> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let scratch = out_dir.join(format!("run-{}-{run}", std::process::id()));
        if scratch.exists() {
            std::fs::remove_dir_all(&scratch)?;
        }
        std::fs::create_dir_all(&scratch)?;
        Ok(Self {
            plan,
            seed,
            trace,
            scratch,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            latency_ms: Vec::new(),
            traced: Vec::new(),
            late_ms: Vec::new(),
            threads_peak: 0,
            metrics: BTreeMap::new(),
            corrupt: false,
            cpu_start: None,
            loop_cpu: Duration::ZERO,
        })
    }

    /// A seeded generator for one input stream of this run.
    pub fn rng(&self, stream: &[u8]) -> HmacDrbg {
        seeded_rng(self.seed, stream)
    }

    /// Records an output check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }

    /// Whether measured operation `index` is traced: in a traced run every
    /// other operation is, so the untraced ones between them price the
    /// tracing itself.
    pub fn traces_op(&self, index: usize) -> bool {
        self.trace && index.is_multiple_of(2)
    }

    /// Marks the start of a measured loop.
    pub fn loop_started(&mut self) {
        self.cpu_start = sys::cpu_time();
    }

    /// Records the output check of an operation already counted: failed
    /// unless `ok`.
    pub fn check_output(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }

    /// Records one measured operation; a failed one counts as failed and
    /// contributes no latency.
    pub fn record_op(&mut self, ok: bool, latency: Duration, late: Duration, traced: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        self.latency_ms.push(latency.as_secs_f64() * 1e3);
        self.late_ms.push(late.as_secs_f64() * 1e3);
        self.traced.push(traced);
        if self.trace {
            self.threads_peak = self.threads_peak.max(sys::threads().unwrap_or(0));
        }
    }

    /// Marks the end of a measured loop; CPU time adds up over loops.
    pub fn loop_ended(&mut self) {
        if let (Some(start), Some(end)) = (self.cpu_start.take(), sys::cpu_time()) {
            self.loop_cpu += end.saturating_sub(start);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a metric to the median of `samples` (0 when there are none).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples).unwrap_or(0.0));
    }

    /// Derives the metrics every workload reports from its measured loop:
    /// the end-to-end latency pair with the workload's tail percentile,
    /// and the loop-level per-layer figures.
    pub fn finish_loop_metrics(&mut self, tail_percentile: f64) {
        let n = self.latency_ms.len();
        if !stats::tail_is_supported(n, tail_percentile) {
            eprintln!(
                "perfbench: warning: {n} samples leave fewer than ten beyond p{tail_percentile}"
            );
        }
        let p50 = stats::median(&self.latency_ms).unwrap_or(0.0);
        let tail = stats::percentile(&self.latency_ms, tail_percentile).unwrap_or(0.0);
        self.set("op_p50_ms", p50);
        self.set("op_tail_ms", tail);
        self.note_peak_rss();
        if !self.trace {
            return;
        }
        let split = |traced: bool| -> Vec<f64> {
            self.latency_ms
                .iter()
                .zip(&self.traced)
                .filter(|(_, t)| **t == traced)
                .map(|(l, _)| *l)
                .collect()
        };
        let (on, off) = (split(true), split(false));
        let overhead = match (stats::median(&on), stats::median(&off)) {
            (Some(a), Some(b)) if b > 0.0 => (a / b - 1.0) * 100.0,
            _ => 0.0,
        };
        self.set("trace.overhead_pct", overhead);
        let (first, last) = stats::decile_medians(&self.latency_ms).unwrap_or((0.0, 0.0));
        self.set("history.first_decile_ms", first);
        self.set("history.last_decile_ms", last);
        self.set(
            "loadgen.late_p99_ms",
            stats::percentile(&self.late_ms, 99.0).unwrap_or(0.0),
        );
        let ops = self.latency_ms.len().max(1) as f64;
        self.set(
            "process.cpu_ms_per_op",
            self.loop_cpu.as_secs_f64() * 1e3 / ops,
        );
        self.set("process.threads_peak", self.threads_peak as f64);
    }

    /// Sets `peak_rss_mb` to the peak resident set so far, unless it is
    /// already set. Workloads that measure on several deployments note it
    /// after the first: later deployments land in whatever memory the
    /// allocator kept from earlier ones, which adds noise, not signal.
    pub fn note_peak_rss(&mut self) {
        let peak = sys::peak_rss_mb().unwrap_or(0.0);
        self.metrics.entry("peak_rss_mb").or_insert(peak);
    }

    /// Sets `unattributed_ms`: the median over traced operations named
    /// `op_name` of the time no direct child span covers.
    pub fn set_unattributed(&mut self, op_name: &str) {
        let rest = self.tracer.self_ms(op_name);
        self.set_median("unattributed_ms", &rest);
    }
}

/// The generator of input stream `stream` under workload seed `seed`.
pub fn seeded_rng(seed: u64, stream: &[u8]) -> HmacDrbg {
    HmacDrbg::new(&seed.to_le_bytes(), stream)
}

/// The threshold-signer application with fixed keys: `(spec, public,
/// shares)`. Keys never depend on the workload seed, so host-call counts
/// (which follow the shares' bits) repeat exactly across runs.
pub fn signer_spec(
    timing: Option<&mut HostCallCounters>,
) -> (AppSpec, ThresholdPublic, Vec<KeyShare>) {
    let mut rng = HmacDrbg::new(b"perfbench", b"signer keys");
    let keys = threshold::generate(T, N, &mut rng).expect("2-of-3 keygen");
    let hosts: Vec<Box<dyn AppHost>> = keys
        .shares
        .iter()
        .map(|s| Box::new(SignerHost::new(*s)) as Box<dyn AppHost>)
        .collect();
    let hosts = match timing {
        Some(t) => t.wrap(hosts),
        None => hosts,
    };
    let spec = AppSpec {
        name: "bls-threshold-signer".to_string(),
        module: signer_module(),
        notes: "v1: BLS threshold signing service".to_string(),
        hosts,
        limits: Limits::default(),
    };
    let public = ThresholdPublic {
        threshold: T,
        public_key: keys.public_key,
        commitments: keys.commitments,
    };
    (spec, public, keys.shares)
}

/// Distinct seeded messages: 24 random bytes plus a counter.
pub struct Messages {
    rng: HmacDrbg,
    next: u64,
}

impl Messages {
    /// The message stream of `ctx`'s seed.
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            rng: ctx.rng(b"messages"),
            next: 0,
        }
    }

    /// The next message.
    pub fn next_message(&mut self) -> Vec<u8> {
        let mut msg = vec![0u8; 32];
        self.rng.generate(&mut msg[..24]);
        msg[24..].copy_from_slice(&self.next.to_le_bytes());
        self.next += 1;
        msg
    }
}

/// The group signature native signing produces for `message`: the
/// aggregate of the first `T` shares' `partial_sign`.
pub fn native_signature(shares: &[KeyShare], message: &[u8]) -> Option<Signature> {
    let partials: Vec<PartialSignature> = shares
        .iter()
        .take(T)
        .map(|s| threshold::partial_sign(s, message))
        .collect();
    threshold::aggregate(T, &partials).ok()
}

/// `ThresholdSigningClient::sign` written out from the same public calls
/// in the same order, with a span around each: the fan-out (with the
/// client's partial verification inside it), aggregation, and the
/// aggregate's verification under the group key.
pub fn traced_sign(
    session: &mut Session<'_>,
    public: &ThresholdPublic,
    message: &[u8],
    tracer: &mut Tracer,
) -> Option<Signature> {
    let fanout = tracer.begin("core.fanout_collect");
    let partials = session.fanout_collect(
        METHOD_SIGN,
        message.to_vec(),
        public.threshold,
        |d, payload| {
            let verify = tracer.begin("crypto.verify_partial");
            let partial = <[u8; 48]>::try_from(payload)
                .ok()
                .and_then(|b| Signature::from_bytes(&b))
                .map(|value| PartialSignature {
                    index: (d + 1) as u8,
                    value,
                })
                .filter(|p| threshold::verify_partial(&public.commitments, message, p));
            tracer.end(verify);
            partial
        },
    );
    tracer.end(fanout);
    let partials = partials.ok().filter(|p| p.len() >= public.threshold)?;
    let aggregate = tracer.begin("crypto.aggregate");
    let signature = threshold::aggregate(public.threshold, &partials).ok();
    tracer.end(aggregate);
    let verify = tracer.begin("crypto.aggregate_verify");
    let valid = signature.is_some_and(|s| public.public_key.verify(message, &s));
    tracer.end(verify);
    signature.filter(|_| valid)
}

/// The developer and a long-lived auditing client of one deployment,
/// plus the counters the update → re-audit → join cycle accumulates.
pub struct Auditors {
    /// The developer's client (pushes releases).
    pub developer: DeploymentClient,
    /// A client that stays up and re-audits after every release.
    pub long_lived: DeploymentClient,
    /// Consistency steps the long-lived client verified in re-audits.
    pub consistency_verified: u64,
    /// Verifications its prefix cache let it skip in re-audits.
    pub skipped: u64,
    /// Re-audits run.
    pub reaudits: u64,
    joins: u64,
}

impl Auditors {
    /// Clients for `deployment`; the long-lived one audits once (warm-up).
    pub fn new(deployment: &Deployment) -> Self {
        let mut long_lived = deployment.client(b"perfbench/long-lived");
        long_lived.audit(Some(&deployment.initial_app_digest));
        Self {
            developer: deployment.client(b"perfbench/developer"),
            long_lived,
            consistency_verified: 0,
            skipped: 0,
            reaudits: 0,
            joins: 0,
        }
    }

    fn cache_counters(&self, domains: u32) -> (u64, u64) {
        (0..domains)
            .filter_map(|d| self.long_lived.auditor_prefix_cache(d))
            .fold((0, 0), |(c, s), cache| {
                (c + cache.consistency_verified(), s + cache.skipped())
            })
    }
}

/// Pushes `version` and checks every domain accepted it at log size ==
/// version. Returns whether it did.
pub fn push_release(
    deployment: &Deployment,
    developer: &mut DeploymentClient,
    version: u64,
    notes: &str,
    module: &Module,
) -> bool {
    let release = deployment.sign_release(version, notes, module);
    developer
        .push_update(&release)
        .iter()
        .all(|r| matches!(r, Ok((size, _)) if *size == version))
}

fn heads(report: &AuditReport) -> Vec<Option<[u8; 32]>> {
    report
        .domains
        .iter()
        .map(|d| d.status.as_ref().map(|s| s.log_head))
        .collect()
}

/// One `audit` cycle: the developer pushes `version`, the long-lived
/// client re-audits, and a new client opens a session, runs the gating
/// audit and is dropped. Checks: the push is accepted at log size ==
/// version, both audits are clean, and both clients see the same heads.
/// Returns whether every check held.
pub fn audit_cycle(
    ctx: &mut Ctx,
    deployment: &Deployment,
    auditors: &mut Auditors,
    version: u64,
    notes: &str,
    module: &Module,
) -> bool {
    let tracer = &mut ctx.tracer;
    let digest = deployment.initial_app_digest;
    let domains = deployment.domain_count() as u32;

    let span = tracer.begin("core.update");
    let pushed = push_release(deployment, &mut auditors.developer, version, notes, module);
    tracer.end(span);

    let (c0, s0) = auditors.cache_counters(domains);
    let span = tracer.begin("log.reaudit");
    let report = auditors.long_lived.audit(Some(&digest));
    tracer.end(span);
    let (c1, s1) = auditors.cache_counters(domains);
    auditors.consistency_verified += c1 - c0;
    auditors.skipped += s1 - s0;
    auditors.reaudits += 1;

    auditors.joins += 1;
    let span = tracer.begin("core.join");
    let mut joining = deployment.client(format!("perfbench/join-{}", auditors.joins).as_bytes());
    let joined_heads = {
        let mut session = joining.session(TrustPolicy::pinned(digest));
        session
            .refresh_trust()
            .ok()
            .filter(|r| r.is_clean())
            .map(heads)
    };
    drop(joining);
    tracer.end(span);

    let mut long_lived_heads = heads(&report);
    if ctx.corrupt {
        long_lived_heads[0] = long_lived_heads[0].map(|mut h| {
            h[0] ^= 1;
            h
        });
    }
    pushed && report.is_clean() && joined_heads == Some(long_lived_heads)
}

/// Seeded release notes for `version`.
pub fn release_notes(rng: &mut HmacDrbg, version: u64) -> String {
    let mut tag = [0u8; 8];
    rng.generate(&mut tag);
    format!("release {version}: {:016x}", u64::from_le_bytes(tag))
}
