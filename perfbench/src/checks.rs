//! Output checks. Each predicate is either a property the method must
//! have or a computation made apart from the evaluation, serving or
//! training path; every evaluation counts as one operation attempted, and
//! a false result as one operation failed. The unit tests at the bottom
//! are the negative controls: each predicate must reject a fabricated
//! violation.

use sage_core::crr::StepMetrics;
use sage_netsim::link::LinkModel;
use sage_transport::{FlowStats, MIN_CWND, MSS};

/// Attempted/failed tally plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes a failure and is only built when
    /// the check fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }
}

/// Highest rate the link model ever offers, Mbit/s, read from the model's
/// own parameters (not through the simulator).
pub fn peak_mbps(link: &LinkModel) -> f64 {
    match link {
        LinkModel::Constant { mbps } => *mbps,
        LinkModel::Step {
            before_mbps,
            after_mbps,
            ..
        } => before_mbps.max(*after_mbps),
        LinkModel::Piecewise { points } => points.iter().map(|p| p.1).fold(0.0, f64::max),
        LinkModel::Trace { mbps, .. } => mbps.iter().copied().fold(0.0, f64::max),
    }
}

/// Per-flow transport accounting: the receiver cannot get more payload
/// than the sender's new packets carried, and no more packets can be lost
/// than were transmitted.
pub fn flow_accounting_holds(f: &FlowStats) -> bool {
    f.delivered_bytes <= f.sent_pkts * MSS as u64 && f.lost_pkts <= f.sent_pkts + f.retx_pkts
}

/// A cell's delivered bytes fit through its bottleneck at peak rate.
pub fn within_capacity(delivered_bytes: u64, peak_mbps: f64, secs: f64) -> bool {
    delivered_bytes as f64 <= peak_mbps * 1e6 / 8.0 * secs
}

/// Delivered packets cannot arrive before one propagation delay.
pub fn owd_at_least_propagation(mean_owd_ms: f64, one_way_prop_ms: f64) -> bool {
    mean_owd_ms.is_finite() && mean_owd_ms >= one_way_prop_ms
}

/// Jain's index over `n` flows lies in `[1/n, 1]`.
pub fn jain_in_range(jain: f64, n: usize) -> bool {
    let n = n.max(1) as f64;
    // One ulp of slack at each end: the index is a ratio of f64 sums.
    jain.is_finite() && jain >= 1.0 / n - 1e-12 && jain <= 1.0 + 1e-12
}

/// Loss and retransmission shares are percentages of transmissions.
pub fn shares_in_range(loss_pct: f64, retx_pct: f64) -> bool {
    (0.0..=100.0).contains(&loss_pct) && (0.0..=100.0).contains(&retx_pct)
}

/// Every due flow that was observed this tick got exactly one action, and
/// no flow got an action without an observation. Both slices are keys;
/// order does not matter.
pub fn one_action_per_observed(observed: &[u64], acted: &[u64]) -> bool {
    let mut o = observed.to_vec();
    let mut a = acted.to_vec();
    o.sort_unstable();
    a.sort_unstable();
    o == a
}

/// A served congestion window is finite and inside the deployment clamp.
pub fn cwnd_in_range(cwnd: f64, max_cwnd: f64) -> bool {
    cwnd.is_finite() && (MIN_CWND..=max_cwnd).contains(&cwnd)
}

/// Serving counters add up: actions by tier sum to the actions returned,
/// and admissions minus evictions equal the live flows.
pub fn serve_counts_add_up(
    tier_actions: u64,
    returned: u64,
    admitted: u64,
    evicted: u64,
    live: usize,
) -> bool {
    tier_actions == returned && admitted.checked_sub(evicted) == Some(live as u64)
}

/// Losses of a CRR step are finite.
pub fn losses_finite(m: &StepMetrics) -> bool {
    m.policy_loss.is_finite() && m.critic_loss.is_finite() && m.mean_q.is_finite()
}

/// The critic loss is a cross-entropy, so it cannot be negative.
pub fn critic_ce_nonneg(m: &StepMetrics) -> bool {
    m.critic_loss >= 0.0
}

/// The mean advantage weight `exp(A/beta)`, clipped, lies in `(0, clip]`.
pub fn weight_in_range(m: &StepMetrics, weight_clip: f64) -> bool {
    m.mean_weight > 0.0 && m.mean_weight <= weight_clip
}

/// Every value is finite.
pub fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(delivered: u64, sent: u64, retx: u64, lost: u64) -> FlowStats {
        FlowStats {
            name: "t".into(),
            avg_goodput_mbps: 1.0,
            avg_owd_ms: 30.0,
            p95_owd_ms: 40.0,
            avg_srtt_ms: 60.0,
            delivered_bytes: delivered,
            lost_pkts: lost,
            retx_pkts: retx,
            sent_pkts: sent,
            restarts: 0,
            active_secs: 1.0,
        }
    }

    fn step(policy: f64, critic: f64, weight: f64) -> StepMetrics {
        StepMetrics {
            policy_loss: policy,
            critic_loss: critic,
            mean_weight: weight,
            mean_q: 1.0,
        }
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || "never".into());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.first_failures, vec!["bad".to_string()]);
    }

    #[test]
    fn peak_reads_every_link_model() {
        assert_eq!(peak_mbps(&LinkModel::Constant { mbps: 48.0 }), 48.0);
        let step = LinkModel::Step {
            before_mbps: 12.0,
            after_mbps: 48.0,
            at: 5,
        };
        assert_eq!(peak_mbps(&step), 48.0);
        let pw = LinkModel::Piecewise {
            points: vec![(0, 3.0), (10, 9.0), (20, 1.0)],
        };
        assert_eq!(peak_mbps(&pw), 9.0);
        let tr = LinkModel::Trace {
            interval: 1,
            mbps: vec![2.0, 7.0],
            repeat: true,
        };
        assert_eq!(peak_mbps(&tr), 7.0);
    }

    #[test]
    fn flow_accounting_rejects_fabricated_violations() {
        assert!(flow_accounting_holds(&flow(1500 * 10, 10, 2, 3)));
        // Delivered more payload than the new packets carried.
        assert!(!flow_accounting_holds(&flow(1500 * 10 + 1, 10, 2, 3)));
        // Lost more packets than were transmitted.
        assert!(!flow_accounting_holds(&flow(0, 10, 2, 13)));
    }

    #[test]
    fn capacity_rejects_more_than_the_link_carries() {
        // 48 Mbit/s for 12 s carries 72 MB.
        assert!(within_capacity(72_000_000, 48.0, 12.0));
        assert!(!within_capacity(72_000_001, 48.0, 12.0));
    }

    #[test]
    fn owd_rejects_faster_than_light() {
        assert!(owd_at_least_propagation(20.0, 20.0));
        assert!(!owd_at_least_propagation(19.99, 20.0));
        assert!(!owd_at_least_propagation(f64::NAN, 20.0));
    }

    #[test]
    fn jain_rejects_out_of_range() {
        assert!(jain_in_range(1.0, 1));
        assert!(jain_in_range(0.25, 4));
        assert!(!jain_in_range(0.2, 4));
        assert!(!jain_in_range(1.01, 4));
        assert!(!jain_in_range(f64::NAN, 4));
    }

    #[test]
    fn shares_reject_over_100_percent() {
        assert!(shares_in_range(100.0, 0.0));
        assert!(!shares_in_range(100.5, 0.0));
        assert!(!shares_in_range(1.0, -0.1));
    }

    #[test]
    fn one_action_rejects_missing_duplicate_and_unobserved() {
        assert!(one_action_per_observed(&[3, 1, 2], &[1, 2, 3]));
        assert!(!one_action_per_observed(&[1, 2, 3], &[1, 2]));
        assert!(!one_action_per_observed(&[1, 2], &[1, 2, 2]));
        assert!(!one_action_per_observed(&[1, 2], &[1, 3]));
    }

    #[test]
    fn cwnd_rejects_clamp_escapes() {
        assert!(cwnd_in_range(MIN_CWND, 40_000.0));
        assert!(cwnd_in_range(40_000.0, 40_000.0));
        assert!(!cwnd_in_range(MIN_CWND - 0.5, 40_000.0));
        assert!(!cwnd_in_range(40_000.5, 40_000.0));
        assert!(!cwnd_in_range(f64::INFINITY, 40_000.0));
        assert!(!cwnd_in_range(f64::NAN, 40_000.0));
    }

    #[test]
    fn serve_counts_reject_mismatches() {
        assert!(serve_counts_add_up(10, 10, 7, 2, 5));
        assert!(!serve_counts_add_up(10, 9, 7, 2, 5));
        assert!(!serve_counts_add_up(10, 10, 7, 2, 4));
        assert!(!serve_counts_add_up(10, 10, 2, 7, 0));
    }

    #[test]
    fn train_checks_reject_fabricated_steps() {
        assert!(losses_finite(&step(0.5, 2.0, 1.0)));
        assert!(!losses_finite(&step(f64::NAN, 2.0, 1.0)));
        assert!(!losses_finite(&step(0.5, f64::INFINITY, 1.0)));
        assert!(critic_ce_nonneg(&step(0.5, 0.0, 1.0)));
        assert!(!critic_ce_nonneg(&step(0.5, -1e-9, 1.0)));
        assert!(weight_in_range(&step(0.5, 2.0, 20.0), 20.0));
        assert!(!weight_in_range(&step(0.5, 2.0, 0.0), 20.0));
        assert!(!weight_in_range(&step(0.5, 2.0, 20.5), 20.0));
        assert!(all_finite(&[0.0, -1.0, 3.5]));
        assert!(!all_finite(&[0.0, f64::NAN]));
    }
}
