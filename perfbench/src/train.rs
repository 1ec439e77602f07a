//! `train` workload: CRR on the committed `artifacts/pool.bin` with the
//! reproduction config (`default_train_cfg`: batch 16, unroll 8, default
//! `NetConfig`) at two workers, through `Pool::load_file`,
//! `CrrTrainer::new` and `CrrTrainer::train_step`.

use crate::checks::{self, Checks};
use crate::host::Pacer;
use crate::trace::Tracer;
use crate::{artifact, median, metric, out_dir, Budget, Estimate, Opts, Outcome};
use sage_collector::Pool;
use sage_core::{CrrConfig, CrrTrainer, NetConfig, SageModel};
use std::time::Instant;

/// Workers of the measured trainer (`CrrConfig.threads`).
const THREADS: usize = 2;
const STEPS_PER_ROUND: usize = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Steps after which the one- and two-worker models must be identical.
const INVARIANCE_STEPS: usize = 3;

fn config(seed: u64, threads: usize) -> CrrConfig {
    CrrConfig {
        seed,
        threads,
        ..sage_bench::default_train_cfg()
    }
}

/// Matmul FLOPs per training sample of one CRR step (2 per multiply-add;
/// backward counted as twice the forward), from the network shapes and
/// the step's passes: target policy over `unroll + 1` steps, target critic
/// at the bootstrap state, online critic forward and backward, advantage
/// policy pass plus `1 + adv_samples` critic rows per sample, and the
/// policy-improvement unroll forward and backward.
fn flops_per_sample(cfg: &CrrConfig) -> f64 {
    let n: &NetConfig = &cfg.net;
    let d = n.input_dim() as f64;
    let (e1, g, e2, fc) = (n.enc1 as f64, n.gru as f64, n.enc2 as f64, n.fc as f64);
    let after_gru = if n.gru > 0 { g } else { e1 };
    let trunk_in = if n.enc2 > 0 { e2 } else { after_gru };
    let policy = 2.0
        * (d * e1
            + e1 * e1
            + if n.gru > 0 {
                3.0 * (e1 * g + g * g)
            } else {
                0.0
            }
            + if n.enc2 > 0 { after_gru * e2 } else { 0.0 }
            + trunk_in * fc
            + n.residual_blocks as f64 * 2.0 * fc * fc
            + fc * 3.0 * n.gmm_k as f64);
    let h = n.critic_hidden as f64;
    let critic = 2.0 * ((d + 1.0) * h + h * h + h * n.atoms as f64);
    let (b, l, m) = (cfg.batch as f64, cfg.unroll as f64, cfg.adv_samples as f64);
    let per_step = policy * (l + 1.0) * b
        + critic * b
        + 3.0 * critic * l * b
        + policy * l * b
        + critic * (1.0 + m) * l * b
        + 3.0 * policy * l * b;
    per_step / (l * b)
}

struct Setup {
    pool: Pool,
    trainer: CrrTrainer,
    pool_s: f64,
    init_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let pool = Pool::load_file(&artifact("pool.bin")).map_err(|e| format!("load pool.bin: {e}"))?;
    let pool_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let trainer = CrrTrainer::new(config(seed, THREADS), &pool);
    Ok(Setup {
        pool,
        trainer,
        pool_s,
        init_s: t1.elapsed().as_secs_f64(),
    })
}

fn params(m: &SageModel) -> impl Iterator<Item = &[f64]> {
    m.store.params.iter().map(|p| p.value.data.as_slice())
}

/// One round: a fresh trainer from the run's seed (untimed, plus one
/// untimed warm-up step that builds the trainer's sampling cache), then
/// `steps` timed steps. Every round therefore replays the same steps.
/// Returns the steps' times.
fn round(
    seed: u64,
    threads: usize,
    pool: &Pool,
    steps: usize,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Pacer {
    let mut tr = CrrTrainer::new(config(seed, threads), pool);
    tr.train_step(pool);
    let tr = &mut tr;
    let clip = tr.cfg.weight_clip;
    let mut times = Pacer::with_width(threads);
    let (round_span, round_start) = tracer.as_deref_mut().map_or((0, 0), Tracer::start);
    for _ in 0..steps {
        let (span, start) = tracer.as_deref_mut().map_or((0, 0), Tracer::start);
        let t0 = Instant::now();
        let m = tr.train_step(pool);
        times.record(t0.elapsed().as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            t.close(
                span,
                round_span,
                "crr.train_step",
                start,
                vec![
                    ("threads", tr.cfg.threads as f64),
                    ("policy_loss", m.policy_loss),
                    ("critic_loss", m.critic_loss),
                ],
            );
        }
        times.probe();
        let step = tr.steps_done();
        checks.check(checks::losses_finite(&m), || {
            format!("train step {step}: non-finite loss {m:?}")
        });
        checks.check(checks::critic_ce_nonneg(&m), || {
            format!("train step {step}: critic cross-entropy {}", m.critic_loss)
        });
        checks.check(checks::weight_in_range(&m, clip), || {
            format!(
                "train step {step}: mean weight {} outside (0, {clip}]",
                m.mean_weight
            )
        });
    }
    if let Some(t) = tracer {
        t.close(
            round_span,
            0,
            "crr.round",
            round_start,
            vec![("threads", threads as f64)],
        );
    }
    let finite = params(tr.model()).all(checks::all_finite);
    checks.check(finite, || {
        format!("train step {}: non-finite parameter", tr.steps_done())
    });
    times
}

/// Two models serialise to the same bytes.
fn same_model(a: &SageModel, b: &SageModel) -> bool {
    matches!((a.to_bytes(), b.to_bytes()), (Ok(x), Ok(y)) if x == y)
}

/// Save the trained model to a scratch file, load it back, and compare
/// the bytes. Returns the save time in milliseconds.
fn round_trip(tr: &CrrTrainer, seed: u64, checks: &mut Checks) -> Result<f64, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("train-{}-{seed}.model", std::process::id()));
    let t0 = Instant::now();
    tr.model()
        .save_file(&path)
        .map_err(|e| format!("save model: {e}"))?;
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let loaded = SageModel::load_file(&path);
    std::fs::remove_file(&path).ok();
    let same = loaded.is_ok_and(|l| same_model(&l, tr.model()));
    checks.check(same, || {
        "train: save/load round trip changed the model".into()
    });
    Ok(save_ms)
}

/// A trainer after `INVARIANCE_STEPS` steps from the start `cfg` gives.
fn trained(cfg: CrrConfig, pool: &Pool) -> CrrTrainer {
    let mut tr = CrrTrainer::new(cfg, pool);
    for _ in 0..INVARIANCE_STEPS {
        tr.train_step(pool);
    }
    tr
}

/// Train from the same start at one and at two workers; the models must
/// be byte-identical.
fn thread_invariance(pool: &Pool, seed: u64, checks: &mut Checks) {
    let one = trained(config(seed, 1), pool);
    let two = trained(config(seed, THREADS), pool);
    checks.check(same_model(one.model(), two.model()), || {
        format!(
            "train: model after {INVARIANCE_STEPS} steps differs between 1 and {THREADS} workers"
        )
    });
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (mut setup_p, mut pool_s, mut init_s) = (Pacer::new(), Vec::new(), Vec::new());
    let mut s = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so peak memory holds one pool.
        drop(s.take());
        let x = setup_p.time(|| setup(opts.seed))?;
        pool_s.push(x.pool_s);
        init_s.push(x.init_s);
        s = Some(x);
    }
    let s = s.ok_or("no set-up ran")?;
    let steps = if opts.smoke { 2 } else { STEPS_PER_ROUND };
    let samples = (s.trainer.cfg.batch * s.trainer.cfg.unroll) as f64;
    eprintln!(
        "train: batch {} x unroll {}, {THREADS} workers, seed {}",
        s.trainer.cfg.batch, s.trainer.cfg.unroll, opts.seed
    );
    let mut budget = Budget::new(opts.seconds, 1);
    let mut last = 0.0;
    let metrics = match tracer {
        None => {
            let mut rounds = Vec::new();
            while budget.another(last) {
                let t = round(opts.seed, THREADS, &s.pool, steps, &mut checks, None);
                last = t.raw().iter().sum();
                rounds.push(t);
            }
            eprintln!("train: {} rounds of {steps} steps", rounds.len());
            round_trip(&s.trainer, opts.seed, &mut checks)?;
            let est = Estimate::of(&rounds);
            vec![
                metric("setup_s", median(&setup_p.normalised()), "s"),
                metric(
                    "ops_per_s",
                    samples * est.units.len() as f64 / est.secs(),
                    "1/s",
                ),
                metric("op_p50_ms", est.p50_ms(), "ms"),
            ]
        }
        Some(tracer) => {
            let (mut plain, mut traced, mut t1_ms, mut t2_ms) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let seed = opts.seed;
            while budget.another(last) {
                let a = round(seed, THREADS, &s.pool, steps, &mut checks, None);
                let b = round(
                    seed,
                    THREADS,
                    &s.pool,
                    steps,
                    &mut checks,
                    Some(&mut *tracer),
                );
                let c = round(seed, 1, &s.pool, steps, &mut checks, Some(&mut *tracer));
                let (a, b, c) = (a.raw(), b.raw(), c.raw());
                plain.push(a.iter().sum::<f64>());
                traced.push(b.iter().sum::<f64>());
                t2_ms.extend(b.iter().map(|x| x * 1e3));
                t1_ms.extend(c.iter().map(|x| x * 1e3));
                last = a.iter().chain(&b).chain(&c).sum();
            }
            let save_ms = round_trip(&s.trainer, opts.seed, &mut checks)?;
            let flops = flops_per_sample(&s.trainer.cfg);
            let rate_t2 = samples / (median(&t2_ms) / 1e3);
            vec![
                metric("pool.load_s", median(&pool_s), "s"),
                metric("crr.init_s", median(&init_s), "s"),
                metric("crr.step_ms.t1", median(&t1_ms), "ms"),
                metric("crr.step_ms.t2", median(&t2_ms), "ms"),
                metric("util.par_speedup_x", median(&t1_ms) / median(&t2_ms), "x"),
                metric("nn.flops_per_sample", flops, "FLOP"),
                metric("nn.gflops", flops * rate_t2 / 1e9, "GFLOP/s"),
                metric("model.save_ms", save_ms, "ms"),
                metric(
                    "trace.overhead_pct",
                    (median(&traced) / median(&plain) - 1.0) * 100.0,
                    "%",
                ),
            ]
        }
    };
    thread_invariance(&s.pool, opts.seed, &mut checks);
    Ok(Outcome { checks, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::load_file(&artifact("pool.bin")).expect("committed pool")
    }

    #[test]
    fn step_checks_pass_on_real_steps() {
        let mut c = Checks::default();
        round(3, THREADS, &pool(), 2, &mut c, None);
        assert_eq!((c.attempted, c.failed), (7, 0), "{:?}", c.first_failures);
    }

    #[test]
    fn invariance_check_rejects_different_models() {
        let pool = pool();
        let mut c = Checks::default();
        thread_invariance(&pool, 3, &mut c);
        assert_eq!(c.failed, 0);
        // Negative control: a different start must not compare equal.
        let a = trained(config(3, 1), &pool);
        let b = trained(config(4, 1), &pool);
        assert!(!same_model(a.model(), b.model()));
        assert!(same_model(a.model(), a.model()));
    }

    #[test]
    fn round_trip_check_passes_and_cleans_up() {
        let pool = pool();
        let tr = trained(config(3, 1), &pool);
        let mut c = Checks::default();
        round_trip(&tr, 99, &mut c).expect("round trip");
        assert_eq!((c.attempted, c.failed), (1, 0));
        let left = out_dir().join(format!("train-{}-99.model", std::process::id()));
        assert!(!left.exists());
    }

    #[test]
    fn flops_grow_with_the_network() {
        let base = config(1, 1);
        let mut wide = base;
        wide.net.fc *= 2;
        let f = flops_per_sample(&base);
        assert!(f > 1e5, "{f}");
        assert!(flops_per_sample(&wide) > f);
    }
}
