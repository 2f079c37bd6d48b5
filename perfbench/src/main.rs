//! The repository benchmark: one std-only program that drives a live
//! in-process deployment (n = 3, t = 2; domain 0 direct on the reactor,
//! domains 1–2 behind enclave proxies) through one of three workloads and
//! prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sign|submit|audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and writes the run's spans to
//! `.perfbench_out/spans-<workload>-<seed>.jsonl`. See `README.md`.

mod audit;
mod common;
mod probes;
mod sign;
mod stats;
mod submit;
mod sys;
mod trace;

use common::{Ctx, Plan};
use std::path::Path;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("abi.host_calls_per_op", "count"),
    ("abi.host_calls_per_sign", "count"),
    ("abi.host_ms_per_sign", "ms"),
    ("sandbox.guest_ms_per_sign", "ms"),
    ("sandbox.overhead_pct", "%"),
    ("crypto.partial_sign_ms", "ms"),
    ("crypto.verify_partial_ms", "ms"),
    ("crypto.aggregate_verify_ms", "ms"),
    ("crypto.schnorr_verify_us", "us"),
    ("core.fanout_wait_ms", "ms"),
    ("core.dispatch_us", "us"),
    ("core.apply_update_ms", "ms"),
    ("core.bundle_build_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.join_ms", "ms"),
    ("log.reaudit_ms", "ms"),
    ("log.bundle_verify_cold_ms", "ms"),
    ("log.bundle_verify_warm_ms", "ms"),
    ("log.consistency_verified_per_audit", "count"),
    ("log.skipped_per_audit", "count"),
    ("log.append_us", "us"),
    ("log.fsync_ms", "ms"),
    ("tee.quote_verify_ms", "ms"),
    ("tee.proxy_echo_idle_us", "us"),
    ("wire.echo_busy_us", "us"),
    ("wire.echo_idle_us", "us"),
    ("process.cpu_ms_per_op", "ms"),
    ("process.threads_peak", "count"),
    ("table3.baseline_ms", "ms"),
    ("table3.sandbox_ms", "ms"),
    ("table3.tee_sandbox_ms", "ms"),
    ("table3.paper_order", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("unattributed_ms", "ms"),
    ("history.first_decile_ms", "ms"),
    ("history.last_decile_ms", "ms"),
];

/// Where runs keep scratch state and span files, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench_out";

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop threshold signatures.
    Sign,
    /// Open-loop private-analytics submissions.
    Submit,
    /// Durable update → re-audit → join cycles.
    Audit,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sign" => Some(Self::Sign),
            "submit" => Some(Self::Submit),
            "audit" => Some(Self::Audit),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Sign => "sign",
            Self::Submit => "submit",
            Self::Audit => "audit",
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sign|submit|audit> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `workload` into `ctx`, then removes the run's scratch directory.
fn run_workload(workload: Workload, ctx: &mut Ctx) -> Result<(), String> {
    let result = match workload {
        Workload::Sign => sign::run(ctx),
        Workload::Submit => submit::run(ctx),
        Workload::Audit => audit::run(ctx),
    };
    let cleanup = std::fs::remove_dir_all(&ctx.scratch);
    result?;
    cleanup.map_err(|e| format!("remove {}: {e}", ctx.scratch.display()))
}

/// The result line: exactly the metrics of `list`, with their units.
fn result_json(ctx: &Ctx, list: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = ctx
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let listed = |k: &&str| END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == k);
    let extra: Vec<&&str> = ctx.metrics.keys().filter(|k| !listed(k)).collect();
    if !extra.is_empty() {
        return Err(format!("metrics measured but not listed: {extra:?}"));
    }
    let correct = ctx.failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        ctx.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    let plan = Plan::full(args.seconds);
    let run = Ctx::new(plan, args.seed, args.trace, out_dir)
        .map_err(|e| format!("scratch directory: {e}"))
        .and_then(|mut ctx| run_workload(args.workload, &mut ctx).map(|()| ctx));
    let ctx = match run {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    match result_json(&ctx, list) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
