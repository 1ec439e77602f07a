//! Host facts printed beside every run: a fixed reference loop timed
//! before and after the workload (a slowed host shows beside its numbers),
//! peak resident memory, core count and SIMD support.
//!
//! The [`Pacer`] probes the host's speed between the timed units of a
//! workload. On a shared host the speed of plain code drifts by tens of
//! percent over seconds to minutes while the process sees neither steal
//! time nor lost CPU time (other tenants share the cores and caches), so
//! the end-to-end timings are reported at a fixed nominal host speed.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Iterations of the reference loop printed before and after a run.
const REF_ITERS: u64 = 4_000_000;
/// Iterations of the arithmetic part of one probe (about 0.3 ms).
const PROBE_ITERS: u64 = 100_000;
/// Slots of the probe's pointer-chase ring (`u32`, 256 KiB: the size of a
/// core's private cache, which the workloads share with other tenants).
const RING: usize = 1 << 16;
/// Steps of one pointer chase (about 0.1 ms).
const CHASE_STEPS: u64 = 20_000;
/// Probe readings of an undisturbed host, ns per iteration of the
/// arithmetic loop and ns per chase step, on a 2-vCPU x86-64 host with
/// AVX-512. Only their ratio to a reading matters.
const NOMINAL_LOOP_NS: f64 = 2.5;
const NOMINAL_CHASE_NS: f64 = 6.0;

/// Nanoseconds per iteration of a fixed integer/float loop that lives in
/// this file, so no change to the program can move it.
fn loop_ns_per_iter(iters: u64) -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16 + i as f64 * 1e-9;
    }
    black_box((x, acc));
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// One cycle through every slot of the ring, in a scrambled order.
fn ring() -> &'static [u32] {
    static CELL: OnceLock<Vec<u32>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut order: Vec<u32> = (0..RING as u32).collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; RING];
        for w in 0..RING {
            next[order[w] as usize] = order[(w + 1) % RING];
        }
        next
    })
}

/// Nanoseconds per step of a dependent walk through the ring.
fn chase_ns_per_step() -> f64 {
    let r = ring();
    let t0 = Instant::now();
    let mut i = black_box(0u32);
    for _ in 0..CHASE_STEPS {
        i = r[i as usize];
    }
    black_box(i);
    t0.elapsed().as_nanos() as f64 / CHASE_STEPS as f64
}

/// How much slower than nominal the host runs now: the geometric mean of
/// the arithmetic loop's and the chase's readings over their nominal
/// values. Each part is the best of two (a reading hit by an interrupt is
/// not the host's speed); the chase first walks once to load the ring.
pub fn slowdown() -> f64 {
    let alu = loop_ns_per_iter(PROBE_ITERS).min(loop_ns_per_iter(PROBE_ITERS));
    chase_ns_per_step();
    let chase = chase_ns_per_step().min(chase_ns_per_step());
    (alu / NOMINAL_LOOP_NS * chase / NOMINAL_CHASE_NS).sqrt()
}

/// The reference loop's speed, best of three runs.
pub fn reference_ns_per_iter() -> f64 {
    (0..3)
        .map(|_| loop_ns_per_iter(REF_ITERS))
        .fold(f64::INFINITY, f64::min)
}

/// Times units of work and probes the host's speed between them. Each
/// unit's time is also given normalised: divided by the mean slowdown of
/// the probes that bracket it, which is the time the unit would have taken
/// had the host run at nominal speed throughout.
#[derive(Debug, Default, Clone)]
pub struct Pacer {
    /// Cores probed at once: as many as the timed work keeps busy.
    width: usize,
    /// Slowdown read by every probe, in order.
    probes: Vec<f64>,
    /// Each unit's wall time, seconds, and how many probes preceded it.
    units: Vec<(f64, usize)>,
}

impl Pacer {
    /// A pacer for single-threaded work that has probed once.
    pub fn new() -> Self {
        Pacer::with_width(1)
    }

    /// A pacer for work that keeps `width` threads busy, which has probed
    /// once.
    pub fn with_width(width: usize) -> Self {
        let mut p = Pacer {
            width: width.max(1),
            ..Pacer::default()
        };
        p.probe();
        p
    }

    /// Probe the host's speed now: the mean slowdown read by `width`
    /// threads probing at the same time.
    pub fn probe(&mut self) {
        let s = if self.width <= 1 {
            slowdown()
        } else {
            std::thread::scope(|sc| {
                let others: Vec<_> = (1..self.width).map(|_| sc.spawn(slowdown)).collect();
                let mine = slowdown();
                others
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("a probe thread runs a plain loop and cannot panic")
                    })
                    .sum::<f64>()
                    + mine
            }) / self.width as f64
        };
        self.probes.push(s);
    }

    /// Record one unit's wall time, seconds.
    pub fn record(&mut self, secs: f64) {
        self.units.push((secs, self.probes.len()));
    }

    /// Time `f` as one unit, then probe.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(t0.elapsed().as_secs_f64());
        self.probe();
        r
    }

    /// Wall times of the units, seconds.
    pub fn raw(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.0).collect()
    }

    /// Times of the units at nominal host speed, seconds.
    pub fn normalised(&self) -> Vec<f64> {
        self.units
            .iter()
            .map(|&(secs, n)| {
                let before = self.probes[n.saturating_sub(1)];
                let after = self.probes.get(n).copied().unwrap_or(before);
                secs / ((before + after) / 2.0)
            })
            .collect()
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One line of host metadata: cores and SIMD support.
pub fn describe() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd = format!(
        "avx2={} avx512f={}",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "avx2=false avx512f=false".to_string();
    format!("cores={cores} {simd}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_units_use_the_probes_around_them() {
        let p = Pacer {
            width: 1,
            probes: vec![1.0, 2.0, 2.0],
            units: vec![(1.5, 1), (2.0, 2), (3.0, 3)],
        };
        assert_eq!(p.raw(), vec![1.5, 2.0, 3.0]);
        // Bracketed by 1 and 2: the host ran at 2/3 of nominal speed.
        let n = p.normalised();
        assert!((n[0] - 1.0).abs() < 1e-12);
        assert!((n[1] - 1.0).abs() < 1e-12);
        // No probe after the last unit: the one before stands alone.
        assert!((n[2] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_probe_reads_a_positive_slowdown() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0);
        let mut p = Pacer::with_width(2);
        p.probe();
        assert_eq!(p.probes.len(), 2);
        assert!(p.probes.iter().all(|s| s.is_finite() && *s > 0.0));
        assert_eq!(ring().len(), RING);
        // The ring is one cycle: a walk of RING steps returns to the start
        // and visits every slot.
        let r = ring();
        let (mut i, mut seen) = (0u32, vec![false; RING]);
        for _ in 0..RING {
            seen[i as usize] = true;
            i = r[i as usize];
        }
        assert_eq!(i, 0);
        assert!(seen.iter().all(|&s| s));
    }
}
