//! `matrix` workload: a fixed sub-matrix of the evaluation farm, run
//! through `run_matrix` on one worker.
//!
//! Every round runs the same cells, each through its own single-cell
//! `run_matrix` call, so heuristic, NN and tree cells are timed apart and
//! a class's rate is built from each cell's fastest round. A traced run
//! interleaves those rounds with traced ones
//! that roll the same cells out through `rollout_with`, wrapping every flow
//! of the scheme under test in a timing `CongestionControl` and shadowing
//! the NN flow's observations through the GR unit, `step_infer` and the
//! tree.

use crate::checks::{self, Checks};
use crate::host::Pacer;
use crate::trace::Tracer;
use crate::{artifact, median, metric, Budget, Estimate, Metric, Opts, Outcome};
use sage_collector::{rollout_with, set1_flat_grid, set1_step_grid, set2_grid, RolloutResult};
use sage_core::SageModel;
use sage_distill::SymbolicModel;
use sage_eval::matrix::{
    run_matrix, scenario_fairness, scenarios_fault, scenarios_multihop, MatrixCell, MatrixSpec,
    ScenarioSpec,
};
use sage_eval::runner::Contender;
use sage_gr::{GrConfig, GrUnit, RewardParams};
use sage_netsim::time::Nanos;
use sage_nn::Array;
use sage_transport::sim::TickRecord;
use sage_transport::{AckEvent, CongestionControl, SocketView};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Rollout length of every cell but the 64-flow one, seconds.
const SECS: f64 = 12.0;
/// The 64-flow fairness cell. Its standard 12 s version costs about 10 s
/// for `sage` alone on one worker, longer than a whole round should take;
/// at 4 s every flow has joined (64 x 0.05 s stagger = 3.2 s).
const FAIR_FLOWS: usize = 64;
const FAIR_SECS: f64 = 4.0;
const FAIR_STAGGER_SECS: f64 = 0.05;
const SET1: [&str; 2] = ["s1-flat-bw48-rtt40-q4", "s1-step-bw48x2-rtt40-q1"];
const SET2: [&str; 1] = ["s2-bw48-rtt40-q2"];
const FAULTS: [&str; 1] = ["burst-mild"];
const MULTIHOP: &str = "mh-parking-cross";
/// Rollout seed of every cell: the evaluation farm's own fixed seed, so
/// the sub-matrix is the farm's cells exactly. Many-flow cells are chaotic
/// (the 64-flow `sage` cell takes 2.2 to 2.8 s and peaks at 165 to 306 MB
/// of heap depending on the seed), so `--seed` does not reach them.
const CELL_SEED: u64 = sage_bench::SEED;
const HEURISTICS: [&str; 3] = ["cubic", "bbr2", "copa"];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Shadow tree walks are timed in batches of this many distinct states,
/// so the timer's own cost is amortised.
const TREE_BATCH: usize = 32;

/// The scenarios of the sub-matrix, in run order.
fn scenarios(smoke: bool) -> Vec<ScenarioSpec> {
    let secs = if smoke { 1.0 } else { SECS };
    let mut out: Vec<ScenarioSpec> = set1_flat_grid(secs)
        .into_iter()
        .chain(set1_step_grid(secs))
        .chain(set2_grid(secs))
        .filter(|e| SET1.contains(&e.id.as_str()) || SET2.contains(&e.id.as_str()))
        .map(ScenarioSpec::from_env)
        .collect();
    out.extend(scenarios_fault(Some(&FAULTS), secs));
    out.extend(
        scenarios_multihop(secs)
            .into_iter()
            .filter(|s| s.id() == MULTIHOP),
    );
    out.push(if smoke {
        scenario_fairness(8, 1.0, FAIR_STAGGER_SECS)
    } else {
        scenario_fairness(FAIR_FLOWS, FAIR_SECS, FAIR_STAGGER_SECS)
    });
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Heuristic,
    Nn,
    Tree,
}

struct Group {
    class: Class,
    schemes: Vec<Contender>,
}

struct Setup {
    groups: Vec<Group>,
    scenarios: Vec<ScenarioSpec>,
    model: Arc<SageModel>,
    tree: Arc<SymbolicModel>,
}

fn setup(smoke: bool) -> Result<Setup, String> {
    let model = SageModel::load_file(&artifact("sage.model"))
        .map_err(|e| format!("load sage.model: {e}"))?;
    let tree = SymbolicModel::load_file(&artifact("sage.tree"))
        .map_err(|e| format!("load sage.tree: {e}"))?;
    let (model, tree) = (Arc::new(model), Arc::new(tree));
    // `sage-sym` resolves the installed tree first, so the cells use the
    // file loaded here whatever the environment says.
    sage_distill::install(tree.clone());
    let groups = vec![
        Group {
            class: Class::Heuristic,
            schemes: HEURISTICS.map(Contender::Heuristic).to_vec(),
        },
        Group {
            class: Class::Nn,
            schemes: vec![Contender::Model {
                name: "sage",
                model: model.clone(),
                gr_cfg: GrConfig::default(),
            }],
        },
        Group {
            class: Class::Tree,
            schemes: vec![Contender::Heuristic("sage-sym")],
        },
    ];
    Ok(Setup {
        groups,
        scenarios: scenarios(smoke),
        model,
        tree,
    })
}

fn gr_of(c: &Contender) -> GrConfig {
    match c {
        Contender::Model { gr_cfg, .. } | Contender::Hybrid { gr_cfg, .. } => *gr_cfg,
        _ => GrConfig::default(),
    }
}

/// One untraced round: per contender class, each cell's `run_matrix`
/// wall time (scenario-major order) and the cells returned.
struct Round {
    secs: Vec<(Class, Pacer)>,
    cells: Vec<Vec<MatrixCell>>,
}

impl Round {
    fn total_secs(&self) -> f64 {
        self.secs.iter().flat_map(|s| s.1.raw()).sum()
    }
}

/// Each cell's estimated time over the rounds, per class.
fn estimates(rounds: &[Round]) -> Vec<(Class, Estimate)> {
    (0..rounds[0].secs.len())
        .map(|gi| {
            let per_round: Vec<Pacer> = rounds.iter().map(|r| r.secs[gi].1.clone()).collect();
            (rounds[0].secs[gi].0, Estimate::of(&per_round))
        })
        .collect()
}

/// Cells per second of a class (all classes with `None`).
fn rate(est: &[(Class, Estimate)], class: Option<Class>) -> f64 {
    let (mut n, mut t) = (0usize, 0.0);
    for (c, e) in est {
        if class.is_none_or(|k| k == *c) {
            n += e.units.len();
            t += e.secs();
        }
    }
    n as f64 / t
}

/// Print each scenario family's and class's share of a round, from the
/// cells' fastest times.
fn print_shares(s: &Setup, est: &[(Class, Estimate)], rounds: usize) {
    let mut by_family: Vec<(&'static str, f64)> = Vec::new();
    let mut by_class: Vec<(Class, f64)> = Vec::new();
    let mut total = 0.0;
    for (g, (_, e)) in s.groups.iter().zip(est) {
        for (i, t) in e.units.iter().enumerate() {
            let fam = s.scenarios[i / g.schemes.len()].family.name();
            match by_family.iter_mut().find(|f| f.0 == fam) {
                Some(f) => f.1 += t,
                None => by_family.push((fam, *t)),
            }
            match by_class.iter_mut().find(|c| c.0 == g.class) {
                Some(c) => c.1 += t,
                None => by_class.push((g.class, *t)),
            }
            total += t;
        }
    }
    let pct = |t: f64| t / total * 100.0;
    let fams: Vec<String> = by_family
        .iter()
        .map(|(f, t)| format!("{f} {:.1}%", pct(*t)))
        .collect();
    let classes: Vec<String> = by_class
        .iter()
        .map(|(c, t)| format!("{c:?} {:.1}%", pct(*t)))
        .collect();
    println!(
        "matrix: {} rounds; {:.2} s per round at nominal host speed; by family: {}; by class: {}",
        rounds,
        total,
        fams.join(", "),
        classes.join(", ")
    );
}

/// Run every cell once, each through its own single-cell `run_matrix`
/// call on one worker.
fn run_round(s: &Setup, checks: &mut Checks) -> Round {
    let mut round = Round {
        secs: Vec::new(),
        cells: Vec::new(),
    };
    for g in &s.groups {
        let (mut secs, mut cells) = (Pacer::new(), Vec::new());
        for sc in &s.scenarios {
            for c in &g.schemes {
                let spec = MatrixSpec {
                    schemes: vec![c.clone()],
                    scenarios: vec![sc.clone()],
                    seeds: vec![CELL_SEED],
                    alpha: 2.0,
                    threads: 1,
                };
                let report = secs.time(|| run_matrix(&spec, |_, _| {}));
                check_cells(&report.cells, std::slice::from_ref(sc), 1, checks);
                cells.extend(report.cells);
            }
        }
        round.secs.push((g.class, secs));
        round.cells.push(cells);
    }
    round
}

/// Checks on the cells `run_matrix` returns (scenario-major order).
fn check_cells(cells: &[MatrixCell], scenarios: &[ScenarioSpec], per: usize, c: &mut Checks) {
    c.check(cells.len() == scenarios.len() * per, || {
        format!("matrix returned {} cells", cells.len())
    });
    for (i, cell) in cells.iter().enumerate() {
        let env = &scenarios[i / per].env;
        let who = || format!("{}/{}", cell.scheme, cell.scenario);
        c.check(cell.completed, || {
            format!("{}: cell did not complete", who())
        });
        c.check(
            checks::shares_in_range(cell.loss_pct, cell.retx_pct),
            || format!("{}: loss {}% retx {}%", who(), cell.loss_pct, cell.retx_pct),
        );
        c.check(
            checks::jain_in_range(cell.fairness, cell.flow_goodputs.len()),
            || {
                format!(
                    "{}: Jain {} over {} flows",
                    who(),
                    cell.fairness,
                    cell.flow_goodputs.len()
                )
            },
        );
        c.check(
            !cell.survived || checks::owd_at_least_propagation(cell.avg_owd_ms, env.rtt_ms / 2.0),
            || {
                format!(
                    "{}: mean OWD {} ms below propagation",
                    who(),
                    cell.avg_owd_ms
                )
            },
        );
    }
}

/// Checks on one rollout of a cell: per-flow accounting, capacity,
/// propagation, and agreement with the cell `run_matrix` returned for the
/// same (scenario, scheme, seed).
fn check_rollout(res: &RolloutResult, sc: &ScenarioSpec, cell: &MatrixCell, c: &mut Checks) {
    let env = &sc.env;
    let who = || format!("{}/{}", cell.scheme, cell.scenario);
    for f in &res.all_stats {
        c.check(checks::flow_accounting_holds(f), || {
            format!(
                "{}: flow {} delivered {} B of {} sent pkts, lost {} of {}+{}",
                who(),
                f.name,
                f.delivered_bytes,
                f.sent_pkts,
                f.lost_pkts,
                f.sent_pkts,
                f.retx_pkts
            )
        });
        c.check(
            f.delivered_bytes == 0
                || checks::owd_at_least_propagation(f.avg_owd_ms, env.rtt_ms / 2.0),
            || format!("{}: flow {} mean OWD {} ms", who(), f.name, f.avg_owd_ms),
        );
    }
    let delivered: u64 = res.all_stats.iter().map(|f| f.delivered_bytes).sum();
    let secs = env.duration as f64 / 1e9;
    c.check(
        checks::within_capacity(delivered, checks::peak_mbps(&env.link), secs),
        || format!("{}: {delivered} B delivered in {secs} s", who()),
    );
    c.check(
        res.stats.avg_goodput_mbps.to_bits() == cell.goodput_mbps.to_bits()
            && res.stats.avg_owd_ms.to_bits() == cell.avg_owd_ms.to_bits()
            && res.stats.lost_pkts == cell.lost_pkts,
        || format!("{}: direct rollout differs from the matrix cell", who()),
    );
}

/// Per-cell callback timings, shared between the wrappers of one cell.
#[derive(Default)]
struct CcTimes {
    /// Everything spent inside the wrappers, shadow calls included.
    wrap_ns: AtomicU64,
    ack_ns: AtomicU64,
    ack_calls: AtomicU64,
    tick_ns: AtomicU64,
    tick_calls: AtomicU64,
    gr_ns: AtomicU64,
    infer_ns: AtomicU64,
    shadow_calls: AtomicU64,
    tree_ns: AtomicU64,
    tree_calls: AtomicU64,
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Shadow of the NN flow: the same observations the wrapped policy gets,
/// fed to a GR unit, a batch-of-1 `step_infer` and the tree.
struct Shadow {
    model: Arc<SageModel>,
    tree: Arc<SymbolicModel>,
    gr: GrUnit,
    hidden: Array,
    prev_lost_bytes: u64,
    states: Vec<Vec<f64>>,
}

impl Shadow {
    fn new(model: Arc<SageModel>, tree: Arc<SymbolicModel>) -> Self {
        let hidden = if model.cfg.gru > 0 {
            model.cfg.gru
        } else {
            model.cfg.enc1
        };
        Shadow {
            model,
            tree,
            gr: GrUnit::new(GrConfig::default(), RewardParams::default()),
            hidden: Array::zeros(1, hidden),
            prev_lost_bytes: 0,
            states: Vec::with_capacity(TREE_BATCH),
        }
    }

    fn observe(&mut self, now: Nanos, sock: &SocketView, cwnd_before: f64, t: &CcTimes) {
        let lost_delta = sock.lost_bytes_total.saturating_sub(self.prev_lost_bytes);
        self.prev_lost_bytes = sock.lost_bytes_total;
        let tick = TickRecord {
            now,
            goodput_bps: sock.delivery_rate_bps,
            mean_owd: 0.0,
            lost_bytes_delta: lost_delta,
            cwnd_pkts: cwnd_before,
        };
        let t0 = Instant::now();
        let step = self.gr.on_tick(sock, &tick);
        t.gr_ns.fetch_add(since(t0), Relaxed);
        let x = Array::row(self.model.prepare_input(&step.state));
        let t0 = Instant::now();
        let (mix, h) = self
            .model
            .policy
            .step_infer(&self.model.store, &x, &self.hidden);
        t.infer_ns.fetch_add(since(t0), Relaxed);
        black_box(mix);
        self.hidden = h;
        t.shadow_calls.fetch_add(1, Relaxed);
        self.states.push(step.state);
        if self.states.len() == TREE_BATCH {
            let t0 = Instant::now();
            for s in &self.states {
                black_box(self.tree.predict(black_box(s)));
            }
            t.tree_ns.fetch_add(since(t0), Relaxed);
            t.tree_calls.fetch_add(TREE_BATCH as u64, Relaxed);
            self.states.clear();
        }
    }
}

/// Timing wrapper: forwards every call to the scheme under test and
/// times the callbacks. `cwnd_pkts`, `ssthresh_pkts` and `pacing_bps` are
/// plain reads and stay untimed (their cost counts as transport time).
struct TimedCc {
    inner: Box<dyn CongestionControl>,
    times: Arc<CcTimes>,
    shadow: Option<Shadow>,
}

impl TimedCc {
    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        self.times.wrap_ns.fetch_add(since(t0), Relaxed);
        r
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, now: Nanos, mss: u32) {
        self.timed(|s| s.inner.init(now, mss));
    }

    fn on_ack(&mut self, ack: &AckEvent, sock: &SocketView) {
        self.timed(|s| {
            let t0 = Instant::now();
            s.inner.on_ack(ack, sock);
            s.times.ack_ns.fetch_add(since(t0), Relaxed);
            s.times.ack_calls.fetch_add(1, Relaxed);
        });
    }

    fn on_congestion_event(&mut self, now: Nanos, sock: &SocketView) {
        self.timed(|s| s.inner.on_congestion_event(now, sock));
    }

    fn on_rto(&mut self, now: Nanos, sock: &SocketView) {
        self.timed(|s| s.inner.on_rto(now, sock));
    }

    fn on_exit_recovery(&mut self, now: Nanos, sock: &SocketView) {
        self.timed(|s| s.inner.on_exit_recovery(now, sock));
    }

    fn on_tick(&mut self, now: Nanos, sock: &SocketView) {
        self.timed(|s| {
            let cwnd_before = s.inner.cwnd_pkts();
            let t0 = Instant::now();
            s.inner.on_tick(now, sock);
            s.times.tick_ns.fetch_add(since(t0), Relaxed);
            s.times.tick_calls.fetch_add(1, Relaxed);
            if let Some(sh) = &mut s.shadow {
                sh.observe(now, sock, cwnd_before, &s.times);
            }
        });
    }

    fn cwnd_pkts(&self) -> f64 {
        self.inner.cwnd_pkts()
    }

    fn ssthresh_pkts(&self) -> f64 {
        self.inner.ssthresh_pkts()
    }

    fn pacing_bps(&self) -> Option<f64> {
        self.inner.pacing_bps()
    }
}

/// Per-class sums of one traced round.
#[derive(Default, Clone, Copy)]
struct ClassSums {
    wall_ns: u64,
    wrap_ns: u64,
    ack_ns: u64,
    ack_calls: u64,
    tick_ns: u64,
    tick_calls: u64,
    tx_pkts: u64,
    retx_pkts: u64,
    gr_ns: u64,
    infer_ns: u64,
    shadow_calls: u64,
    tree_ns: u64,
    tree_calls: u64,
}

struct TracedRound {
    secs: f64,
    sums: Vec<(Class, ClassSums)>,
    dropped_pkts: u64,
}

impl TracedRound {
    fn of(&self, class: Class) -> ClassSums {
        self.sums
            .iter()
            .find(|s| s.0 == class)
            .map(|s| s.1)
            .unwrap_or_default()
    }
}

/// Roll every cell out through `rollout_with`; with `timed`, every flow of
/// the scheme under test runs inside a [`TimedCc`] (plus the shadow on the
/// NN class's test flow) and spans are recorded. Returns the per-class sums.
fn rollout_round(
    s: &Setup,
    reference: &Round,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> TracedRound {
    let dropped = sage_obs::counter("netsim.pkts_dropped");
    let dropped0 = dropped.value();
    let (round_id, round_start) = tracer.as_deref_mut().map_or((0, 0), Tracer::start);
    let t_round = Instant::now();
    let mut sums = Vec::new();
    for (gi, g) in s.groups.iter().enumerate() {
        let mut acc = ClassSums::default();
        for (si, sc) in s.scenarios.iter().enumerate() {
            for (ci, c) in g.schemes.iter().enumerate() {
                let env = &sc.env;
                let times = Arc::new(CcTimes::default());
                let traced = tracer.is_some();
                let mut first = true;
                let mk = |flow_seed: u64| -> Box<dyn CongestionControl> {
                    let inner = c.build(env, flow_seed);
                    if !traced {
                        return inner;
                    }
                    let shadow = (g.class == Class::Nn && first)
                        .then(|| Shadow::new(s.model.clone(), s.tree.clone()));
                    first = false;
                    Box::new(TimedCc {
                        inner,
                        times: times.clone(),
                        shadow,
                    })
                };
                let (span, start) = tracer.as_deref_mut().map_or((0, 0), Tracer::start);
                let t0 = Instant::now();
                let res = rollout_with(env, c.name(), mk, gr_of(c), CELL_SEED);
                let wall = since(t0);
                let cell = &reference.cells[gi][si * g.schemes.len() + ci];
                check_rollout(&res, sc, cell, checks);
                let tx: u64 = res
                    .all_stats
                    .iter()
                    .map(|f| f.sent_pkts + f.retx_pkts)
                    .sum();
                let retx: u64 = res.all_stats.iter().map(|f| f.retx_pkts).sum();
                let v = |a: &AtomicU64| a.load(Relaxed);
                acc.wall_ns += wall;
                acc.wrap_ns += v(&times.wrap_ns);
                acc.ack_ns += v(&times.ack_ns);
                acc.ack_calls += v(&times.ack_calls);
                acc.tick_ns += v(&times.tick_ns);
                acc.tick_calls += v(&times.tick_calls);
                acc.tx_pkts += tx;
                acc.retx_pkts += retx;
                acc.gr_ns += v(&times.gr_ns);
                acc.infer_ns += v(&times.infer_ns);
                acc.shadow_calls += v(&times.shadow_calls);
                acc.tree_ns += v(&times.tree_ns);
                acc.tree_calls += v(&times.tree_calls);
                if let Some(t) = tracer.as_deref_mut() {
                    t.close(
                        span,
                        round_id,
                        "matrix.cell",
                        start,
                        vec![
                            ("class", gi as f64),
                            ("flows", res.all_stats.len() as f64),
                            ("transmissions", tx as f64),
                            ("cc_callback_ns", v(&times.wrap_ns) as f64),
                            ("policy_ticks", v(&times.tick_calls) as f64),
                        ],
                    );
                }
            }
        }
        sums.push((g.class, acc));
    }
    if let Some(t) = tracer {
        t.close(round_id, 0, "matrix.round", round_start, Vec::new());
    }
    TracedRound {
        secs: t_round.elapsed().as_secs_f64(),
        sums,
        dropped_pkts: dropped.value() - dropped0,
    }
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut setup_p = Pacer::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        s = Some(setup_p.time(|| setup(opts.smoke))?);
    }
    let setup_secs = setup_p.normalised();
    let s = s.ok_or("no set-up ran")?;
    let n_cells: usize =
        s.groups.iter().map(|g| g.schemes.len()).sum::<usize>() * s.scenarios.len();
    eprintln!(
        "matrix: {} cells per round ({} scenarios), farm seed {CELL_SEED}",
        n_cells,
        s.scenarios.len(),
    );
    match tracer {
        None => run_untraced(opts, &s, &mut checks, &setup_secs),
        Some(t) => run_traced(opts, &s, &mut checks, t),
    }
    .map(|metrics| Outcome { checks, metrics })
}

fn run_untraced(
    opts: &Opts,
    s: &Setup,
    checks: &mut Checks,
    setup_secs: &[f64],
) -> Result<Vec<Metric>, String> {
    let mut budget = Budget::new(opts.seconds, 1);
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = 0.0;
    while budget.another(last) {
        let r = run_round(s, checks);
        last = r.total_secs();
        rounds.push(r);
    }
    // Verification pass, outside the measured rounds: every cell again
    // through `rollout_with` for the per-flow checks.
    let reference = rounds.last().ok_or("no round ran")?;
    rollout_round(s, reference, checks, None);
    let est = estimates(&rounds);
    print_shares(s, &est, rounds.len());
    let all: Vec<f64> = est.iter().flat_map(|e| e.1.units.iter().copied()).collect();
    println!(
        "matrix: heuristic {:.4} cells/s, nn {:.4} cells/s, tree {:.4} cells/s (nominal host speed)",
        rate(&est, Some(Class::Heuristic)),
        rate(&est, Some(Class::Nn)),
        rate(&est, Some(Class::Tree))
    );
    Ok(vec![
        metric("setup_s", median(setup_secs), "s"),
        metric("ops_per_s", rate(&est, None), "1/s"),
        metric("op_p50_ms", median(&all) * 1e3, "ms"),
    ])
}

fn run_traced(
    opts: &Opts,
    s: &Setup,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    // Untraced and traced rounds alternate, so both see the same host.
    let mut budget = Budget::new(opts.seconds, 1);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = 0.0;
    while budget.another(last) {
        let r = run_round(s, checks);
        let t = rollout_round(s, &r, checks, Some(&mut *tracer));
        last = r.total_secs() + t.secs;
        plain.push(r);
        traced.push(t);
    }
    let est = estimates(&plain);
    // Work counts of a deterministic round must repeat exactly.
    let first = &traced[0];
    for t in &traced[1..] {
        checks.check(
            t.dropped_pkts == first.dropped_pkts
                && t.of(Class::Nn).tx_pkts == first.of(Class::Nn).tx_pkts
                && t.of(Class::Heuristic).tx_pkts == first.of(Class::Heuristic).tx_pkts,
            || "matrix: work counts differ between identical rounds".into(),
        );
    }
    let med = |f: &dyn Fn(&TracedRound) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let per_pkt = |c: Class| {
        med(&|t| {
            let x = t.of(c);
            (x.wall_ns - x.wrap_ns.min(x.wall_ns)) as f64 / x.tx_pkts.max(1) as f64
        })
    };
    let (h, nn) = (first.of(Class::Heuristic), first.of(Class::Nn));
    let tree_tick_us = med(&|t| {
        let x = t.of(Class::Tree);
        x.tick_ns as f64 / x.tick_calls.max(1) as f64 / 1e3
    });
    let plain_secs: Vec<f64> = plain.iter().map(Round::total_secs).collect();
    let overhead =
        (median(&traced.iter().map(|t| t.secs).collect::<Vec<_>>()) / median(&plain_secs) - 1.0)
            * 100.0;
    Ok(vec![
        metric(
            "eval.cells_per_s.heuristic",
            rate(&est, Some(Class::Heuristic)),
            "1/s",
        ),
        metric("eval.cells_per_s.nn", rate(&est, Some(Class::Nn)), "1/s"),
        metric(
            "eval.cells_per_s.tree",
            rate(&est, Some(Class::Tree)),
            "1/s",
        ),
        metric(
            "transport.ns_per_pkt.heuristic",
            per_pkt(Class::Heuristic),
            "ns",
        ),
        metric("transport.ns_per_pkt.nn", per_pkt(Class::Nn), "ns"),
        metric("transport.pkts.heuristic", h.tx_pkts as f64, "count"),
        metric("transport.pkts.nn", nn.tx_pkts as f64, "count"),
        metric("transport.retx_pkts.nn", nn.retx_pkts as f64, "count"),
        metric("netsim.pkts_dropped", first.dropped_pkts as f64, "count"),
        metric(
            "cc.ack_ns",
            med(&|t| {
                let x = t.of(Class::Heuristic);
                x.ack_ns as f64 / x.ack_calls.max(1) as f64
            }),
            "ns",
        ),
        metric("cc.ack_calls", h.ack_calls as f64, "count"),
        metric(
            "policy.tick_us.nn",
            med(&|t| {
                let x = t.of(Class::Nn);
                x.tick_ns as f64 / x.tick_calls.max(1) as f64 / 1e3
            }),
            "us",
        ),
        metric("policy.tick_us.tree", tree_tick_us, "us"),
        metric("policy.ticks.nn", nn.tick_calls as f64, "count"),
        metric(
            "policy.share.nn",
            med(&|t| {
                let x = t.of(Class::Nn);
                x.tick_ns as f64 / x.wall_ns.max(1) as f64
            }),
            "ratio",
        ),
        metric(
            "gr.state_us",
            med(&|t| {
                let x = t.of(Class::Nn);
                x.gr_ns as f64 / x.shadow_calls.max(1) as f64 / 1e3
            }),
            "us",
        ),
        metric(
            "nn.step_infer_us",
            med(&|t| {
                let x = t.of(Class::Nn);
                x.infer_ns as f64 / x.shadow_calls.max(1) as f64 / 1e3
            }),
            "us",
        ),
        metric(
            "tree.predict_ns",
            med(&|t| {
                let x = t.of(Class::Nn);
                x.tree_ns as f64 / x.tree_calls.max(1) as f64
            }),
            "ns",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_eval::score::ScoreKind;

    fn cell(sc: &ScenarioSpec) -> MatrixCell {
        MatrixCell {
            scheme: "cubic".into(),
            scenario: sc.id().to_string(),
            family: sc.family,
            seed: CELL_SEED,
            completed: true,
            survived: true,
            kind: ScoreKind::Power,
            intervals: Vec::new(),
            intervals_alpha3: Vec::new(),
            score: 0.0,
            goodput_mbps: 10.0,
            avg_owd_ms: sc.env.rtt_ms,
            p95_owd_ms: sc.env.rtt_ms,
            loss_pct: 1.0,
            retx_pct: 1.0,
            restarts: 0,
            lost_pkts: 0,
            fairness: 1.0,
            flow_goodputs: vec![10.0],
            series: Vec::new(),
            digest: 0,
        }
    }

    #[test]
    fn cell_checks_reject_fabricated_cells() {
        let sc = &scenarios(true)[0];
        let mut c = Checks::default();
        check_cells(&[cell(sc)], std::slice::from_ref(sc), 1, &mut c);
        assert_eq!((c.attempted, c.failed), (5, 0));
        let bad = [
            MatrixCell {
                completed: false,
                ..cell(sc)
            },
            MatrixCell {
                loss_pct: 100.5,
                ..cell(sc)
            },
            MatrixCell {
                fairness: 0.5,
                flow_goodputs: vec![1.0],
                ..cell(sc)
            },
            MatrixCell {
                avg_owd_ms: sc.env.rtt_ms / 2.0 - 0.1,
                ..cell(sc)
            },
        ];
        for b in bad {
            let mut c = Checks::default();
            check_cells(&[b], std::slice::from_ref(sc), 1, &mut c);
            assert_eq!(c.failed, 1, "{:?}", c.first_failures);
        }
        // A missing cell.
        let mut c = Checks::default();
        check_cells(&[], std::slice::from_ref(sc), 1, &mut c);
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn rollout_checks_reject_tampered_results() {
        let sc = &scenarios(true)[0];
        let c = Contender::Heuristic("cubic");
        let spec = MatrixSpec {
            schemes: vec![c.clone()],
            scenarios: vec![sc.clone()],
            seeds: vec![CELL_SEED],
            alpha: 2.0,
            threads: 1,
        };
        let reference = run_matrix(&spec, |_, _| {}).cells.remove(0);
        let roll = || {
            rollout_with(
                &sc.env,
                c.name(),
                |s| c.build(&sc.env, s),
                gr_of(&c),
                CELL_SEED,
            )
        };
        let mut ok = Checks::default();
        check_rollout(&roll(), sc, &reference, &mut ok);
        assert!(ok.attempted > 0);
        assert_eq!(ok.failed, 0, "{:?}", ok.first_failures);

        // The direct rollout no longer matches the matrix cell.
        let mut c1 = Checks::default();
        let other = MatrixCell {
            goodput_mbps: reference.goodput_mbps + 1e-9,
            ..reference.clone()
        };
        check_rollout(&roll(), sc, &other, &mut c1);
        assert_eq!(c1.failed, 1);

        // More payload delivered than sent, and more than the link carries.
        let mut res = roll();
        res.all_stats[0].delivered_bytes = u64::MAX / 4;
        let mut c2 = Checks::default();
        check_rollout(&res, sc, &reference, &mut c2);
        assert_eq!(c2.failed, 2, "{:?}", c2.first_failures);

        // Faster than propagation.
        let mut res = roll();
        res.all_stats[0].avg_owd_ms = 0.5;
        let mut c3 = Checks::default();
        check_rollout(&res, sc, &reference, &mut c3);
        assert_eq!(c3.failed, 1, "{:?}", c3.first_failures);
    }
}
