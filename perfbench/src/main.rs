//! `perfbench`: one command that measures the Sage workspace end to end
//! and layer by layer, on three workloads that each run in their own
//! process:
//!
//! * `matrix` — a fixed sub-matrix of the evaluation farm through
//!   `run_matrix`, on one worker;
//! * `serve` — one `ServeRuntime` serving a churning flow population over
//!   synthetic 10 ms ticks, NN tier then symbolic tier;
//! * `train` — CRR `train_step` on the committed pool at two workers.
//!
//! ```text
//! perfbench --workload <matrix|serve|train|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --smoke
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with `--trace 1`
//! it interleaves untraced and traced rounds and prints the per-layer
//! metrics plus the tracing overhead. Every run checks the program's
//! outputs and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--workload all` runs the three workloads as child processes, one after
//! another; `--smoke` does so at a tiny size, untraced and traced.

mod checks;
pub mod host;
mod matrix;
mod serve;
mod trace;
mod train;

use checks::Checks;
use sage_util::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2023;
/// Measured seconds per run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 30.0;
const WORKLOADS: [&str; 3] = ["matrix", "serve", "train"];

/// The end-to-end metrics every untraced run prints, with their units
/// (the `end_to_end` list of `BENCHMARK.json`). Each workload gives them
/// its own meaning; the README's table says which.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// The per-layer metrics every traced run prints, with their units (the
/// `per_layer` list of `BENCHMARK.json`). A workload that does not call a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("eval.cells_per_s.heuristic", "1/s"),
    ("eval.cells_per_s.nn", "1/s"),
    ("eval.cells_per_s.tree", "1/s"),
    ("transport.ns_per_pkt.heuristic", "ns"),
    ("transport.ns_per_pkt.nn", "ns"),
    ("transport.pkts.heuristic", "count"),
    ("transport.pkts.nn", "count"),
    ("transport.retx_pkts.nn", "count"),
    ("netsim.pkts_dropped", "count"),
    ("cc.ack_ns", "ns"),
    ("cc.ack_calls", "count"),
    ("policy.tick_us.nn", "us"),
    ("policy.tick_us.tree", "us"),
    ("policy.ticks.nn", "count"),
    ("policy.share.nn", "ratio"),
    ("gr.state_us", "us"),
    ("nn.step_infer_us", "us"),
    ("tree.predict_ns", "ns"),
    ("serve.actions_per_s.nn", "1/s"),
    ("serve.actions_per_s.sym", "1/s"),
    ("serve.infer_us_per_row", "us"),
    ("serve.other_us_per_action", "us"),
    ("serve.tree_ns_per_action", "ns"),
    ("serve.admit_us", "us"),
    ("serve.evict_us", "us"),
    ("serve.observe_us_per_action", "us"),
    ("serve.batch_rows", "rows"),
    ("serve.nn_actions", "count"),
    ("serve.sym_actions", "count"),
    ("serve.audits", "count"),
    ("serve.escalations", "count"),
    ("serve.fallbacks", "count"),
    ("serve.evictions", "count"),
    ("serve.reported_actions_per_s", "1/s"),
    ("serve.tick_p99_ms", "ms"),
    ("pool.load_s", "s"),
    ("crr.init_s", "s"),
    ("crr.step_ms.t1", "ms"),
    ("crr.step_ms.t2", "ms"),
    ("util.par_speedup_x", "x"),
    ("nn.flops_per_sample", "FLOP"),
    ("nn.gflops", "GFLOP/s"),
    ("model.save_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny configurations of every workload (tests, quick checks).
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// What a workload hands back: its check tally and its metrics.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Element-wise median over rounds of the same sequence of timed units
/// (every round replays identical work).
pub fn median_per_unit(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Each timed unit's time over rounds that replay the same units: the
/// median over the rounds of its time at nominal host speed (see
/// [`host::Pacer`]). The end-to-end timings are built from these.
pub struct Estimate {
    pub units: Vec<f64>,
}

impl Estimate {
    pub fn of(rounds: &[host::Pacer]) -> Self {
        let norm: Vec<Vec<f64>> = rounds.iter().map(host::Pacer::normalised).collect();
        Estimate {
            units: median_per_unit(&norm),
        }
    }

    /// Total seconds of the units.
    pub fn secs(&self) -> f64 {
        self.units.iter().sum()
    }

    /// Median unit time, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&self.units) * 1e3
    }
}

/// A wall-clock budget for the measured part of a run: rounds continue
/// while the next one, expected to take as long as the longest so far,
/// still ends inside the budget (and at least `min_rounds` run).
pub struct Budget {
    start: Instant,
    seconds: f64,
    longest: f64,
    rounds: usize,
    min_rounds: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_rounds: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            longest: 0.0,
            rounds: 0,
            min_rounds,
        }
    }

    /// Call before each round; records the previous round's length.
    pub fn another(&mut self, last_round_secs: f64) -> bool {
        self.longest = self.longest.max(last_round_secs);
        let more = self.rounds < self.min_rounds
            || self.start.elapsed().as_secs_f64() + self.longest <= self.seconds;
        if more {
            self.rounds += 1;
        }
        more
    }
}

/// The committed pipeline artifacts the workloads read.
pub fn artifact(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../artifacts")
        .join(name)
}

/// Where a run writes its spans and scratch files (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> &'static str {
    "usage: perfbench --workload <matrix|serve|train|all> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --smoke"
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = val("--workload")?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let x: f64 = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(x > 0.0 && x.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(x);
            }
            "--trace" => {
                o.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.smoke && o.workload.is_empty() {
        o.workload = "all".into();
    }
    // A smoke run is one short round per workload unless told otherwise.
    o.seconds = seconds.unwrap_or(if o.smoke { 1.0 } else { DEFAULT_SECONDS });
    if o.workload != "all" && !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

/// The metrics in the order of `expected`, each with its expected unit.
/// A traced run fills the metrics of layers its workload does not call
/// with 0; a missing end-to-end metric, a non-finite value, a wrong unit
/// or a metric not in the list is an error.
fn complete(got: &[Metric], expected: &[(&str, &str)], fill: bool) -> Result<Vec<Metric>, String> {
    if let Some(m) = got.iter().find(|m| !expected.iter().any(|e| e.0 == m.name)) {
        return Err(format!("an unlisted metric {}", m.name));
    }
    expected
        .iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => Err(format!("{name} in {} instead of {unit}", m.unit)),
            Some(m) if !m.value.is_finite() => Err(format!("{name} = {}", m.value)),
            Some(m) => Ok(m.clone()),
            None if fill => Ok(metric(name, 0.0, unit)),
            None => Err(format!("no {name}")),
        })
        .collect()
}

fn result_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let m = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(&m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", Json::Obj(m)),
    ])
    .to_string()
}

fn run_one(opts: &Opts) -> ExitCode {
    for name in ["sage.model", "sage.tree", "pool.bin"] {
        if !artifact(name).is_file() {
            eprintln!(
                "perfbench: missing input {}; run from a checkout of the repository",
                artifact(name).display()
            );
            return ExitCode::from(2);
        }
    }
    println!("host: {}", host::describe());
    let inputs: &[&str] = match opts.workload.as_str() {
        "train" => &["pool.bin"],
        _ => &["sage.model", "sage.tree"],
    };
    for name in inputs {
        let crc = std::fs::read(artifact(name)).map(|b| sage_util::crc32(&b));
        println!("input: {name} crc32={:08x}", crc.unwrap_or(0));
    }
    let ref_before = host::reference_ns_per_iter();
    let mut tracer = opts.trace.then(Tracer::new);
    let started = Instant::now();
    let result = match opts.workload.as_str() {
        "matrix" => matrix::run(opts, tracer.as_mut()),
        "serve" => serve::run(opts, tracer.as_mut()),
        _ => train::run(opts, tracer.as_mut()),
    };
    let wall = started.elapsed().as_secs_f64();
    let ref_after = host::reference_ns_per_iter();
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host-speed reference: {ref_before:.4} ns/iter before, {ref_after:.4} ns/iter after ({:+.1}%)",
        (ref_after / ref_before - 1.0) * 100.0
    );
    if let Some(t) = &tracer {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", t.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        for (name, n, total, own) in trace::summary(t.spans()) {
            println!(
                "  span {name:<16} n={n:<7} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    } else {
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        out.metrics.push(metric("peak_rss_mb", rss, "MB"));
    }
    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    out.metrics = match complete(&out.metrics, expected, opts.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} reported {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {}: {:.1} s, {} checks attempted, {} failed",
        opts.workload, opts.seed, opts.trace as u8, wall, out.checks.attempted, out.checks.failed
    );
    for f in &out.checks.first_failures {
        println!("  FAILED: {f}");
    }
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.checks.failed == 0 && out.checks.attempted > 0;
    println!("{}", result_line(correct, &out.checks, &out.metrics));
    ExitCode::SUCCESS
}

/// Run every workload as a child process of this binary and fold their
/// result lines into one.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces: &[bool] = if opts.smoke {
        &[false, true]
    } else if opts.trace {
        &[true]
    } else {
        &[false]
    };
    let mut total = Checks::default();
    let mut metrics = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        for &t in traces {
            let mut args = vec![
                "--workload".to_string(),
                w.to_string(),
                "--seed".into(),
                opts.seed.to_string(),
                "--seconds".into(),
                opts.seconds.to_string(),
                "--trace".into(),
                (t as u8).to_string(),
            ];
            if opts.smoke {
                args.push("--smoke".into());
            }
            let out = match std::process::Command::new(&exe).args(&args).output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: cannot start {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let Some(res) = last.filter(|_| out.status.success()) else {
                eprintln!("perfbench: workload {w} (trace {}) did not finish", t as u8);
                return ExitCode::FAILURE;
            };
            correct &= res.get("correct").and_then(Json::as_bool) == Some(true);
            total.attempted += res.get("attempted").and_then(Json::as_usize).unwrap_or(0) as u64;
            total.failed += res.get("failed").and_then(Json::as_usize).unwrap_or(0) as u64;
            if let Some(Json::Obj(ms)) = res.get("metrics") {
                for (name, m) in ms {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    let tag = if t { "traced." } else { "" };
                    metrics.push(metric(&format!("{w}.{tag}{name}"), value, unit));
                }
            }
        }
    }
    println!(
        "all workloads: {} checks attempted, {} failed",
        total.attempted, total.failed
    );
    println!("{}", result_line(correct, &total, &metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        run_all(&opts)
    } else {
        run_one(&opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(&args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(o.workload, "serve");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 20.0);
        assert!(o.trace && !o.smoke);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "train", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "train", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
        let smoke = parse_args(&args(&["--smoke"])).expect("smoke");
        assert_eq!((smoke.workload.as_str(), smoke.seconds), ("all", 1.0));
        let plain = parse_args(&args(&["--workload", "train"])).expect("plain");
        assert_eq!(plain.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn median_per_unit_takes_elementwise_medians() {
        let rounds = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 2.0, 0.0],
        ];
        assert_eq!(median_per_unit(&rounds), vec![3.0, 2.0, 5.0]);
        assert!(median_per_unit(&[]).is_empty());
    }

    /// The metric lists here are the manifest's, name for name and unit
    /// for unit, in its order.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        let manifest = Json::parse(&text).expect("manifest is JSON");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(list)) = manifest.get(key) else {
                panic!("no {key} list")
            };
            let theirs: Vec<(&str, &str)> = list
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k);
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(theirs, ours, "{key}");
        }
    }

    #[test]
    fn completion_fills_layers_and_rejects_gaps() {
        let got = vec![metric("ops_per_s", 2.0, "1/s")];
        let want = [("ops_per_s", "1/s"), ("setup_s", "s")];
        assert!(complete(&got, &want, false).is_err());
        let filled = complete(&got, &want, true).expect("filled");
        assert_eq!(filled[1].name, "setup_s");
        assert_eq!(filled[1].value, 0.0);
        let wrong_unit = vec![metric("ops_per_s", 2.0, "ms")];
        assert!(complete(&wrong_unit, &want, true).is_err());
        let unlisted = vec![metric("other", 2.0, "1/s")];
        assert!(complete(&unlisted, &want, true).is_err());
        let nan = vec![metric("ops_per_s", f64::NAN, "1/s")];
        assert!(complete(&nan, &want, true).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = result_line(true, &c, &[metric("setup_s", 0.25, "s")]);
        let j = Json::parse(&line).expect("json");
        let Json::Obj(top) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = j
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
