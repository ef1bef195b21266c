//! Campaign result types and the paper's evaluation metrics.

use std::sync::Arc;

use cmfuzz_config_model::ConfigValue;
use cmfuzz_coverage::{CoverageSnapshot, Ticks};
use cmfuzz_fuzzer::FaultLog;

/// One adaptive configuration mutation applied during a campaign
/// (paper §III-B2: value mutation on coverage saturation).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMutationEvent {
    /// Virtual time the mutation was applied.
    pub time: Ticks,
    /// Index of the instance whose configuration changed.
    pub instance: usize,
    /// Mutated entity name (shared with the instance's setup, so a long
    /// mutation history costs no string copies).
    pub entity: Arc<str>,
    /// The value it was set to.
    pub value: ConfigValue,
}

/// A sample pushed onto a [`CoverageCurve`] out of time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveError {
    /// Time of the rejected sample.
    pub time: Ticks,
    /// Time of the last accepted sample, which `time` precedes.
    pub last: Ticks,
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coverage sample at {} precedes last sample at {}",
            self.time, self.last
        )
    }
}

impl std::error::Error for CurveError {}

/// Union branch coverage sampled over virtual time.
///
/// # Examples
///
/// ```
/// use cmfuzz::metrics::CoverageCurve;
/// use cmfuzz_coverage::Ticks;
///
/// let mut curve = CoverageCurve::new();
/// curve.push(Ticks::new(0), 10).unwrap();
/// curve.push(Ticks::new(100), 25).unwrap();
/// curve.push(Ticks::new(100), 26).unwrap(); // equal timestamps are fine
/// assert!(curve.push(Ticks::new(50), 30).is_err());
/// assert_eq!(curve.final_branches(), 26);
/// assert_eq!(curve.time_to_reach(20), Some(Ticks::new(100)));
/// assert_eq!(curve.time_to_reach(27), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageCurve {
    points: Vec<(Ticks, usize)>,
}

impl CoverageCurve {
    /// Creates an empty curve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample; time must be non-decreasing (equal timestamps are
    /// accepted, e.g. two samplers sharing one clock reading).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] — and leaves the curve unchanged — if `time`
    /// precedes the last sample.
    pub fn push(&mut self, time: Ticks, branches: usize) -> Result<(), CurveError> {
        if let Some(&(last, _)) = self.points.last() {
            if time < last {
                return Err(CurveError { time, last });
            }
        }
        self.points.push((time, branches));
        Ok(())
    }

    /// The samples, time-ordered.
    #[must_use]
    pub fn points(&self) -> &[(Ticks, usize)] {
        &self.points
    }

    /// Branches covered at the final sample (0 for an empty curve).
    #[must_use]
    pub fn final_branches(&self) -> usize {
        self.points.last().map_or(0, |&(_, b)| b)
    }

    /// Earliest sampled time at which coverage reached `branches`.
    #[must_use]
    pub fn time_to_reach(&self, branches: usize) -> Option<Ticks> {
        self.points
            .iter()
            .find(|&&(_, b)| b >= branches)
            .map(|&(t, _)| t)
    }
}

/// Aggregate execution statistics across a campaign's instances, the
/// fairness evidence that every fuzzer consumed the same budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Fuzzing sessions executed, summed over instances.
    pub sessions: u64,
    /// Protocol messages sent, summed over instances.
    pub messages: u64,
    /// Fault events observed (duplicates included).
    pub crashes_observed: u64,
    /// Seeds retained into instance corpora, summed over instances.
    pub seeds_retained: u64,
    /// Seeds dropped as exact duplicates (same model, same bytes).
    pub seeds_deduped_exact: u64,
    /// Seeds evicted from full corpora to make room.
    pub seeds_evicted: u64,
    /// Seeds imported from other instances or campaigns (intra-campaign
    /// sync plus fleet-wide sharing).
    pub seeds_imported: u64,
}

/// Final corpus occupancy of one campaign, summed over its instances —
/// the evidence that corpus memory stays capped no matter how long the
/// campaign runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusOccupancy {
    /// Seeds resident across all instance corpora.
    pub seeds: usize,
    /// Approximate resident payload bytes. Seed buffers are `Arc`-shared
    /// between the corpus and in-flight outboxes, so each corpus entry is
    /// counted once at its payload length; index overhead is excluded.
    pub approx_bytes: usize,
}

/// The outcome of one parallel fuzzing campaign (one Table I cell for one
/// repetition).
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Fuzzer name (`"cmfuzz"`, `"peach"`, `"spfuzz"`).
    pub fuzzer: String,
    /// Target name (e.g. `"mosquitto"`).
    pub target: String,
    /// Parallel instances used.
    pub instances: usize,
    /// Virtual-time budget the campaign ran for.
    pub budget: Ticks,
    /// Union branch coverage over time, across all instances.
    pub curve: CoverageCurve,
    /// Final union coverage bitset across all instances (mergeable with
    /// [`CoverageSnapshot::merge`]).
    pub coverage: CoverageSnapshot,
    /// Deduplicated faults across all instances.
    pub faults: FaultLog,
    /// Adaptive configuration mutations, in application order.
    pub config_mutations: Vec<ConfigMutationEvent>,
    /// Aggregate execution statistics.
    pub stats: CampaignStats,
    /// Final corpus occupancy across instances.
    pub corpus: CorpusOccupancy,
}

impl CampaignResult {
    /// Final union branch count.
    #[must_use]
    pub fn final_branches(&self) -> usize {
        self.curve.final_branches()
    }

    /// Fraction (in `[0, 1]`) of the statically-reachable branch set this
    /// campaign covered. `reachable` is the upper bound the reachability
    /// preflight proved (`CampaignReach::reachable_branch_count`) — the
    /// honest denominator for partitioned campaigns, where raw
    /// coverage-of-total punishes an instance for branches its partition
    /// can never open. A zero bound yields `0.0`.
    #[must_use]
    pub fn coverage_of_reachable(&self, reachable: usize) -> f64 {
        if reachable == 0 {
            return 0.0;
        }
        self.final_branches() as f64 / reachable as f64
    }

    /// Renders a human-readable multi-line summary: headline numbers, the
    /// fault list, and the configuration mutations applied.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} on {}: {} branches, {} unique faults ({} observed), \
             {} sessions / {} messages over {} x {} instances, \
             corpus {} seeds / ~{} bytes\n",
            self.fuzzer,
            self.target,
            self.final_branches(),
            self.faults.unique_count(),
            self.faults.total_observed(),
            self.stats.sessions,
            self.stats.messages,
            self.budget,
            self.instances,
            self.corpus.seeds,
            self.corpus.approx_bytes,
        );
        for fault in self.faults.faults() {
            out.push_str(&format!("  fault: {fault}\n"));
        }
        for event in &self.config_mutations {
            out.push_str(&format!(
                "  config@{}: instance {} set {}={}\n",
                event.time,
                event.instance,
                event.entity,
                event.value.render(),
            ));
        }
        out
    }
}

/// Coverage improvement of `ours` over `baseline`, in percent (Table I's
/// *Improv* column).
///
/// # Examples
///
/// ```
/// use cmfuzz::metrics::improvement_pct;
///
/// assert_eq!(improvement_pct(134, 100), 34.0);
/// assert_eq!(improvement_pct(100, 0), 0.0, "degenerate baseline");
/// ```
#[must_use]
pub fn improvement_pct(ours: usize, baseline: usize) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (ours as f64 - baseline as f64) / baseline as f64 * 100.0
}

/// The paper's *Speedup* metric: "the baseline fuzzer's time to reach its
/// final coverage divided by the time CMFuzz requires to achieve the same
/// coverage".
///
/// Returns `None` when CMFuzz never reaches the baseline's final coverage
/// within its budget (did not occur in the paper, and should not here).
/// A CMFuzz time of zero (coverage reached at the very first sample) is
/// reported against half the first sampling interval to avoid an infinite
/// ratio.
#[must_use]
pub fn speedup(ours: &CoverageCurve, baseline: &CoverageCurve) -> Option<f64> {
    let target = baseline.final_branches();
    let baseline_time = baseline.time_to_reach(target)?;
    let our_time = ours.time_to_reach(target)?;
    let ours_ticks = if our_time == Ticks::ZERO {
        // Reached before the first inter-sample gap elapsed; attribute half
        // a sampling interval.
        let interval = ours.points().get(1).map_or(1, |&(t, _)| t.get().max(1));
        (interval as f64 / 2.0).max(0.5)
    } else {
        our_time.get() as f64
    };
    Some(baseline_time.get() as f64 / ours_ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(u64, usize)]) -> CoverageCurve {
        let mut c = CoverageCurve::new();
        for &(t, b) in points {
            c.push(Ticks::new(t), b).unwrap();
        }
        c
    }

    #[test]
    fn final_and_time_to_reach() {
        let c = curve(&[(0, 5), (10, 8), (20, 8), (30, 12)]);
        assert_eq!(c.final_branches(), 12);
        assert_eq!(c.time_to_reach(8), Some(Ticks::new(10)));
        assert_eq!(c.time_to_reach(12), Some(Ticks::new(30)));
        assert_eq!(c.time_to_reach(13), None);
        assert_eq!(c.time_to_reach(0), Some(Ticks::new(0)));
    }

    #[test]
    fn out_of_order_sample_is_rejected_and_curve_unchanged() {
        let mut c = CoverageCurve::new();
        c.push(Ticks::new(10), 1).unwrap();
        let err = c.push(Ticks::new(5), 2).unwrap_err();
        assert_eq!(
            err,
            CurveError {
                time: Ticks::new(5),
                last: Ticks::new(10),
            }
        );
        assert!(err.to_string().contains("precedes"));
        assert_eq!(c.points(), &[(Ticks::new(10), 1)]);
    }

    #[test]
    fn equal_timestamp_samples_are_accepted() {
        let mut c = CoverageCurve::new();
        c.push(Ticks::new(10), 1).unwrap();
        c.push(Ticks::new(10), 3).unwrap();
        assert_eq!(c.points().len(), 2);
        assert_eq!(c.final_branches(), 3);
    }

    #[test]
    fn improvement_percentage() {
        assert!((improvement_pct(5668, 5668) - 0.0).abs() < 1e-9);
        assert!((improvement_pct(8835, 5668) - 55.88).abs() < 0.01);
        assert!(improvement_pct(50, 100) < 0.0, "regressions are negative");
    }

    #[test]
    fn speedup_basic() {
        // Baseline reaches its final 100 branches at t=1000; ours at t=10.
        let ours = curve(&[(0, 50), (10, 100), (1000, 120)]);
        let baseline = curve(&[(0, 40), (500, 80), (1000, 100)]);
        assert_eq!(speedup(&ours, &baseline), Some(100.0));
    }

    #[test]
    fn speedup_instant_lead_is_finite() {
        let ours = curve(&[(0, 100), (50, 110)]);
        let baseline = curve(&[(0, 40), (1000, 90)]);
        let s = speedup(&ours, &baseline).expect("reached");
        assert!(s.is_finite());
        assert_eq!(s, 1000.0 / 25.0);
    }

    #[test]
    fn speedup_none_when_unreached() {
        let ours = curve(&[(0, 10), (100, 20)]);
        let baseline = curve(&[(0, 40), (100, 90)]);
        assert_eq!(speedup(&ours, &baseline), None);
    }

    #[test]
    fn empty_curve_defaults() {
        let c = CoverageCurve::new();
        assert_eq!(c.final_branches(), 0);
        assert_eq!(c.time_to_reach(0), None);
        assert!(c.points().is_empty());
    }
}
