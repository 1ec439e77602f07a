//! The one command runs all three workloads to their end, untraced and
//! traced, at smoke size, and every output check passes.

use sage_util::Json;
use std::process::Command;

#[test]
fn smoke_runs_every_workload_to_the_end() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("start perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let res = Json::parse(last).expect("result line is JSON");
    assert_eq!(
        res.get("correct").and_then(Json::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        res.get("failed").and_then(Json::as_usize),
        Some(0),
        "{last}"
    );
    assert!(res.get("attempted").and_then(Json::as_usize).unwrap_or(0) > 0);
    let metrics = res.get("metrics").expect("metrics");
    for name in [
        "matrix.setup_s",
        "matrix.ops_per_s",
        "serve.op_p50_ms",
        "serve.peak_rss_mb",
        "train.ops_per_s",
        "matrix.traced.eval.cells_per_s.nn",
        "matrix.traced.transport.ns_per_pkt.nn",
        "serve.traced.serve.actions_per_s.sym",
        "serve.traced.serve.other_us_per_action",
        "train.traced.util.par_speedup_x",
        "train.traced.trace.overhead_pct",
    ] {
        let v = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{name} missing or not finite"
        );
    }
    for w in ["matrix", "serve", "train"] {
        assert!(
            stdout.contains(&format!("workload {w} seed 7 trace 1")),
            "{w} traced run missing"
        );
        assert!(stdout.contains("host-speed reference"));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonsense"])
        .output()
        .expect("start perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
