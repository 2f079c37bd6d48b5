//! Self-tests: the metric lists agree with `BENCHMARK.json`, the command
//! line and result line keep their contract, every workload runs at toy
//! size with zero failures, each workload's output check fires on a
//! corrupted output, and the host-call count repeats exactly.

use super::*;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(OUT_DIR)
}

fn toy(workload: Workload, trace: bool, corrupt: bool) -> Ctx {
    let mut plan = Plan::toy();
    if corrupt {
        // Enough operations that there is an output to tamper with.
        plan.seconds = 0.5;
    }
    let mut ctx = Ctx::new(plan, 7, trace, &out_dir()).expect("scratch directory");
    ctx.corrupt = corrupt;
    run_workload(workload, &mut ctx).expect("workload runs");
    ctx
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
/// plain string search (the benchmark has no JSON dependency).
fn benchmark_json_section(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(benchmark_json_section("end_to_end"), pairs(END_TO_END));
    assert_eq!(benchmark_json_section("per_layer"), pairs(PER_LAYER));
}

#[test]
fn command_line_contract() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    assert_eq!(
        parse_args(&args("--workload audit --seed 42 --seconds 10 --trace 1")),
        Ok(Args {
            workload: Workload::Audit,
            seed: 42,
            seconds: 10.0,
            trace: true
        })
    );
    assert!(parse_args(&args("--workload audit --seed 42 --seconds 10")).is_err());
    assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(parse_args(&args("--workload sign --seed 1 --seconds 0 --trace 0")).is_err());
    assert!(parse_args(&args("--workload sign --seed 1 --seconds 1 --trace 2")).is_err());
    assert!(parse_args(&args("--workload sign --seed -1 --seconds 1 --trace 0")).is_err());
}

#[test]
fn result_line_has_exactly_the_listed_metrics() {
    let mut ctx = Ctx::new(Plan::toy(), 1, false, &out_dir()).expect("scratch directory");
    std::fs::remove_dir_all(&ctx.scratch).expect("scratch removed");
    assert!(
        result_json(&ctx, END_TO_END).is_err(),
        "missing metrics are refused"
    );
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        ctx.set(name, 1.5 + i as f64);
    }
    ctx.attempted = 3;
    let line = result_json(&ctx, END_TO_END).expect("complete");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    ctx.set("unlisted", 1.0);
    assert!(
        result_json(&ctx, END_TO_END).is_err(),
        "unlisted metrics are refused"
    );
    ctx.metrics.remove("unlisted");
    ctx.set("op_p50_ms", f64::NAN);
    assert!(result_json(&ctx, END_TO_END).is_err(), "NaN is refused");
}

fn assert_clean(ctx: &Ctx, list: &[(&str, &str)]) {
    assert_eq!(ctx.failed, 0);
    assert!(ctx.attempted > 0);
    let line = result_json(ctx, list).expect("every listed metric measured");
    assert!(line.starts_with("{\"correct\": true"));
}

#[test]
fn sign_runs_clean_and_its_check_fires() {
    assert_clean(&toy(Workload::Sign, false, false), END_TO_END);
    let corrupted = toy(Workload::Sign, false, true);
    assert_eq!(corrupted.failed, 1, "one tampered signature, one failure");
}

#[test]
fn submit_runs_clean_and_its_check_fires() {
    assert_clean(&toy(Workload::Submit, false, false), END_TO_END);
    let corrupted = toy(Workload::Submit, false, true);
    assert_eq!(
        corrupted.failed, 1,
        "tampered totals fail the aggregate check"
    );
}

#[test]
fn audit_runs_clean_and_its_check_fires() {
    let ctx = toy(Workload::Audit, true, false);
    assert_clean(&ctx, PER_LAYER);
    assert_eq!(ctx.metrics["log.consistency_verified_per_audit"], 3.0);
    let corrupted = toy(Workload::Audit, false, true);
    // Every deployment's warm-up cycle and every measured cycle see a
    // tampered head.
    let plan = Plan::toy();
    assert_eq!(corrupted.failed, (plan.setups + plan.audit_cycles) as u64);
}

#[test]
fn host_calls_per_op_repeat_exactly() {
    let a = toy(Workload::Sign, true, false);
    assert_clean(&a, PER_LAYER);
    let b = toy(Workload::Sign, true, false);
    let calls = a.metrics["abi.host_calls_per_op"];
    assert!(calls > 0.0 && calls.fract() == 0.0, "{calls}");
    assert_eq!(calls, b.metrics["abi.host_calls_per_op"]);
    // The live deployment crosses the boundary exactly as often per
    // signature as the three in-process signers do.
    assert_eq!(calls, a.metrics["abi.host_calls_per_sign"]);
}

#[test]
fn submit_traced_run_reports_every_layer() {
    let ctx = toy(Workload::Submit, true, false);
    assert_clean(&ctx, PER_LAYER);
    assert_eq!(
        ctx.metrics["abi.host_calls_per_op"], 0.0,
        "analytics imports nothing"
    );
    assert!(ctx.tracer.spans().iter().any(|s| s.name == "core.fanout"));
}
