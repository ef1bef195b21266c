//! The parallel campaign runner.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cmfuzz_config_model::{ConfigValue, ConstraintSet, ResolvedConfig};
use cmfuzz_coverage::{CoverageSnapshot, SaturationDetector, Ticks};
use cmfuzz_fuzzer::pit::{self, PitDefinition};
use cmfuzz_fuzzer::{
    EngineConfig, EngineStats, FaultLog, FuzzEngine, Seed, StartError, SESSION_MESSAGES_BOUNDS,
};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{NetworkedTarget, ProtocolSpec, ProtocolTarget};
use cmfuzz_telemetry::{Event, HistogramSnapshot, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exec::Pool;
use crate::metrics::{CampaignResult, ConfigMutationEvent, CorpusOccupancy, CoverageCurve};

pub use crate::error::CampaignError;

/// Options shared by every campaign (CMFuzz and baselines run under
/// identical budgets — the paper's fairness requirement).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Parallel fuzzing instances (the paper uses 4).
    pub instances: usize,
    /// Virtual-time budget per instance; stands in for the 24-hour wall
    /// clock (one tick = one fuzzing session).
    pub budget: Ticks,
    /// Coverage-curve sampling interval (also the round length).
    pub sample_interval: Ticks,
    /// Sessions executed per [`FuzzEngine::run_batch`] call inside a
    /// round. Purely a throughput knob: batching renders sessions into one
    /// arena and defers the coverage diff, but results are bit-identical
    /// at every batch size (including 1). Clamped to at least 1.
    ///
    /// [`FuzzEngine::run_batch`]: cmfuzz_fuzzer::FuzzEngine::run_batch
    pub batch: usize,
    /// Stagnation window before adaptive configuration mutation fires.
    pub saturation_window: Ticks,
    /// Campaign RNG seed; repetitions use different seeds.
    pub seed: u64,
    /// Share retained seeds across instances every N rounds (SPFuzz-style
    /// synchronization); `None` disables sharing.
    pub seed_sync_every_rounds: Option<u32>,
    /// Run each round's instances as cells on an [`exec::Pool`] of one
    /// job per instance, which the campaign spawns at boot and keeps
    /// parked between rounds. `false` executes every instance's round
    /// inline on the calling thread — byte-identical results, kept as the
    /// sequential reference for determinism tests and for single-core
    /// debugging.
    ///
    /// [`exec::Pool`]: crate::exec::Pool
    pub worker_pool: bool,
    /// Link impairment applied to every instance's network namespace
    /// (loss/duplication/reordering, the paper's lossy IoT radio links).
    /// The impairment RNG is derived from [`CampaignOptions::seed`] per
    /// instance, so impaired campaigns stay deterministic. The default
    /// perfect link never consults that RNG and reproduces the historical
    /// behaviour bit-for-bit.
    pub link: LinkConditions,
    /// Base engine tunables (per-instance seeds are derived from `seed`).
    pub engine: EngineConfig,
    /// Skip the static preflight verification pass. Preflight rejects a
    /// campaign with [`CampaignError::Preflight`] when `cmfuzz-analyze`
    /// finds error-severity defects in the subject's models or the
    /// instance setups; set this to deliberately run a broken setup (for
    /// example to exercise the runner's boot-time fallback paths).
    pub skip_preflight: bool,
    /// Label stamped onto every telemetry event this campaign emits (see
    /// [`Telemetry::set_campaign`]). Fleet runs multiplex many campaigns
    /// over one JSONL stream; the label keeps each line attributable.
    /// `None` leaves events unlabelled.
    pub campaign_id: Option<String>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            instances: 4,
            budget: Ticks::new(20_000),
            sample_interval: Ticks::new(100),
            batch: 16,
            saturation_window: Ticks::new(600),
            seed: 0,
            seed_sync_every_rounds: None,
            worker_pool: true,
            link: LinkConditions::perfect(),
            engine: EngineConfig::default(),
            skip_preflight: false,
            campaign_id: None,
        }
    }
}

/// What one parallel instance is told to do — the output of a scheduler,
/// consumed by [`run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct InstanceSetup {
    /// Startup configuration (empty = target defaults, the baselines'
    /// behaviour).
    pub initial_config: ResolvedConfig,
    /// Entities this instance may mutate adaptively on saturation, with
    /// their typical values (paper §III-B2). Empty disables adaptive
    /// configuration mutation. At most 65 536 entities, each with at
    /// most 65 536 values.
    pub adaptive_entities: Vec<(String, Vec<ConfigValue>)>,
    /// Fixed session plans (SPFuzz path partitioning); empty = random
    /// state-model walks.
    pub session_plans: Vec<Vec<String>>,
}

struct Instance {
    engine: FuzzEngine<NetworkedTarget<ProtocolTarget>>,
    config: ResolvedConfig,
    /// The setup's adaptive entities; names are shared with every
    /// [`ConfigMutationEvent`] that records them, and each
    /// [`MutationRecord`] points into this table.
    adaptive: Vec<(Arc<str>, Vec<ConfigValue>)>,
    saturation: SaturationDetector,
    rng: StdRng,
    /// Whether an `InstanceStalled` event was already emitted (non-adaptive
    /// instances only; adaptive ones mutate their way out instead).
    stalled: bool,
    /// The engine statistics already in telemetry: [`publish_round`]
    /// publishes what the engine counted since.
    published: EngineStats,
}

impl Instance {
    /// Runs one round of `iterations` sessions in batches of `batch`.
    fn run_round(&mut self, iterations: u64, batch: u64) {
        for sessions in round_batches(iterations, batch) {
            self.engine.run_batch(sessions as usize);
        }
    }
}

/// Session counts of one round's `run_batch` calls: full batches of
/// `batch`, then the remainder.
fn round_batches(iterations: u64, batch: u64) -> impl Iterator<Item = u64> {
    (0..iterations)
        .step_by(batch as usize)
        .map(move |start| batch.min(iterations - start))
}

/// A campaign paused at a round boundary: the parked [`CampaignRun`]
/// itself, handed back by [`run_campaign_slice`] and continued by the
/// next call. Its instances stay booted in memory between slices, as the
/// paper's long-lived fuzzer processes do, so nothing is exported or
/// replayed.
pub type CampaignCheckpoint = CampaignRun;

/// What one [`CampaignRun::slice`] actually executed — the scheduling
/// signal fleet policies feed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceReport {
    /// Rounds executed in this slice (0 when the campaign was already
    /// complete or the slice budget was below one round).
    pub rounds: u64,
    /// Fuzzing sessions executed in this slice, summed over instances.
    pub sessions: u64,
    /// Union branches discovered during this slice.
    pub new_branches: usize,
    /// Total union branch coverage after the slice.
    pub union_branches: usize,
    /// Whether the campaign's whole budget is now exhausted.
    pub done: bool,
    /// Whether a [`CampaignControl`] signal stopped the slice at a round
    /// boundary before its budget ran out (the run resumes exactly where
    /// the interruption landed).
    pub interrupted: bool,
}

#[derive(Debug, Default)]
struct ControlInner {
    paused: AtomicBool,
    killed: AtomicBool,
}

/// Live control signals for a running campaign.
///
/// A control handle is shared between an operator (the control plane) and
/// the slice runner: [`CampaignRun::slice`] checks it at every round
/// boundary and stops the slice early — never mid-round — when a pause or
/// kill is requested, setting [`SliceReport::interrupted`]. The handle
/// carries no RNG and is consulted strictly *between* rounds, so control
/// actions change how much work a slice does but never what any executed
/// round computes: resuming an interrupted run reproduces the
/// uninterrupted campaign byte-for-byte.
///
/// Cloning shares the signal. Pause is reversible ([`CampaignControl::resume`]);
/// kill is permanent.
#[derive(Debug, Clone, Default)]
pub struct CampaignControl {
    inner: Arc<ControlInner>,
}

impl CampaignControl {
    /// Creates a handle with no signal raised.
    #[must_use]
    pub fn new() -> Self {
        CampaignControl::default()
    }

    /// Requests a stop at the next round boundary; reversible.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Release);
    }

    /// Clears a pause request (a kill stays in force).
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::Release);
    }

    /// Permanently requests a stop at the next round boundary.
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::Release);
    }

    /// Whether a pause is currently requested.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.inner.paused.load(Ordering::Acquire)
    }

    /// Whether the campaign has been killed.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.inner.killed.load(Ordering::Acquire)
    }

    /// Whether the runner should stop at the next round boundary.
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.is_paused() || self.is_killed()
    }
}

/// A live campaign: `setups.len()` booted instances plus the campaign's
/// virtual clock, coverage curve, fault log and configuration-mutation
/// history, advanced one [`CampaignRun::slice`] at a time.
///
/// This is the paper's long-lived parallel campaign. Slicing it is
/// invisible: any partition of the budget into slices reproduces the
/// uninterrupted [`run_campaign`] byte-for-byte, because the instances
/// simply stay in memory between slices.
///
/// The run keeps its own copy of the [`CampaignOptions`] it was booted
/// with; only the budget may change later ([`CampaignRun::set_budget`]).
pub struct CampaignRun {
    fuzzer: String,
    target: String,
    options: CampaignOptions,
    rounds_done: u64,
    consumed: Ticks,
    curve: CoverageCurve,
    /// Every applied configuration mutation, compactly; [`CampaignRun::result`]
    /// expands them into [`ConfigMutationEvent`]s.
    config_mutations: Vec<MutationRecord>,
    /// Running merge of every instance's unique faults, kept so
    /// `FaultFound` events fire exactly once per campaign-unique fault.
    seen_faults: FaultLog,
    instances: Vec<Instance>,
    /// Runs the rounds' instance cells: one job per instance when
    /// [`CampaignOptions::worker_pool`] is set, otherwise one job, which
    /// runs them inline.
    pool: Pool,
}

impl fmt::Debug for CampaignRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignRun")
            .field("fuzzer", &self.fuzzer)
            .field("target", &self.target)
            .field("rounds_done", &self.rounds_done)
            .field("consumed", &self.consumed)
            .field("instances", &self.instances.len())
            .finish_non_exhaustive()
    }
}

impl CampaignRun {
    /// Boots a fresh campaign: one instance per setup over the shared Pit
    /// models of `spec`, each in its own network namespace, started under
    /// its setup's configuration (falling back to target defaults when
    /// that configuration conflicts). Emits `CampaignStarted`.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::NoInstances`] for an empty `setups`,
    /// [`CampaignError::PitParse`] for a broken registry Pit document,
    /// [`CampaignError::Preflight`] when static analysis finds
    /// error-severity model defects (unless `options.skip_preflight`), and
    /// [`CampaignError::TargetBoot`] when an instance cannot boot its
    /// default configuration.
    pub fn boot(
        spec: &ProtocolSpec,
        fuzzer: &str,
        setups: &[InstanceSetup],
        options: &CampaignOptions,
        telemetry: &Telemetry,
    ) -> Result<Self, CampaignError> {
        if setups.is_empty() {
            return Err(CampaignError::NoInstances);
        }
        let pit = parse_pit(spec)?;
        if !options.skip_preflight {
            let report = crate::preflight::preflight_campaign(spec, &pit, setups, telemetry);
            if report.has_errors() {
                return Err(CampaignError::Preflight(report.into_diagnostics()));
            }
        }
        telemetry.set_campaign(options.campaign_id.as_deref());
        let mut instances = Vec::with_capacity(setups.len());
        for (i, setup) in setups.iter().enumerate() {
            let mut engine = build_engine(spec, fuzzer, options, &pit, i);
            let config = if engine.start(&setup.initial_config).is_ok() {
                setup.initial_config.clone()
            } else {
                // A scheduler should never hand out a conflicting startup
                // configuration, but a campaign must not die if one slips
                // through: fall back to target defaults.
                let defaults = ResolvedConfig::new();
                engine
                    .start(&defaults)
                    .map_err(|error| CampaignError::TargetBoot {
                        target: spec.name.to_owned(),
                        instance: i,
                        error,
                    })?;
                defaults
            };
            engine.set_session_plans(&setup.session_plans);
            instances.push(Instance {
                engine,
                config,
                adaptive: adaptive_entities(setup),
                saturation: SaturationDetector::new(options.saturation_window),
                rng: StdRng::seed_from_u64(options.seed.wrapping_add(0xC0FF_EE00 + i as u64)),
                stalled: false,
                published: EngineStats::default(),
            });
        }
        telemetry.emit(Event::CampaignStarted {
            fuzzer: fuzzer.to_owned(),
            target: spec.name.to_owned(),
            instances: setups.len(),
            budget: options.budget.get(),
        });
        let mut curve = CoverageCurve::new();
        curve
            .push(Ticks::ZERO, union_coverage(&instances).covered_count())
            .expect("first sample of an empty curve");
        Ok(CampaignRun {
            fuzzer: fuzzer.to_owned(),
            target: spec.name.to_owned(),
            options: options.clone(),
            rounds_done: 0,
            consumed: Ticks::ZERO,
            curve,
            config_mutations: Vec::new(),
            seen_faults: FaultLog::new(),
            pool: round_pool(options, &instances),
            instances,
        })
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }

    /// Virtual time consumed so far.
    #[must_use]
    pub fn consumed(&self) -> Ticks {
        self.consumed
    }

    /// Rounds the current budget allows in total.
    fn rounds_total(&self) -> u64 {
        self.options.budget.get() / self.options.sample_interval.get().max(1)
    }

    /// Whether the campaign's whole budget has been executed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.rounds_done >= self.rounds_total()
    }

    /// Union branch coverage across instances so far.
    #[must_use]
    pub fn union_branches(&self) -> usize {
        self.curve.final_branches()
    }

    /// Runs one round on every instance, as cells on the run's pool.
    /// Instances share nothing within a round, so the result is the same
    /// whether the pool runs them in parallel or inline in order.
    fn run_round(&mut self, iterations: u64, batch: u64) {
        let cells = std::mem::take(&mut self.instances)
            .into_iter()
            .map(|mut instance| {
                move || {
                    instance.run_round(iterations, batch);
                    instance
                }
            });
        self.instances = self.pool.run_cells(cells);
    }

    /// Changes the campaign's total budget. Rounds already executed are
    /// unaffected; a larger budget re-opens a complete campaign.
    pub fn set_budget(&mut self, budget: Ticks) {
        self.options.budget = budget;
    }

    /// Runs up to `slice_budget` virtual ticks of the campaign, pausing at
    /// the next round boundary, and reports what the slice executed.
    /// Oversized budgets are clamped to the remaining rounds.
    ///
    /// Instances run their rounds on real threads when
    /// [`CampaignOptions::worker_pool`] is set (the "parallel" in parallel
    /// fuzzing), but the result is deterministic because instances share
    /// nothing within a round. The slice emits the campaign's
    /// events through `telemetry` (labelled with
    /// [`CampaignOptions::campaign_id`]), publishes each round's engine
    /// counts into its registry after the round's seed sync, and drains it
    /// at every round boundary. `control` is
    /// checked at every round boundary (see [`CampaignControl`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Restart`] when a mid-campaign restart strands an
    /// instance. The run then keeps the progress of the rounds before the
    /// failing one for reporting, but must not be sliced again.
    #[allow(clippy::too_many_lines)]
    pub fn slice(
        &mut self,
        slice_budget: Ticks,
        telemetry: &Telemetry,
        control: Option<&CampaignControl>,
    ) -> Result<SliceReport, CampaignError> {
        telemetry.set_campaign(self.options.campaign_id.as_deref());
        for instance in &mut self.instances {
            instance.engine.settle_imports();
        }
        // Resolved only for an enabled pipeline: a disabled one would hand
        // out detached handles that nothing reads.
        let counter = |name| telemetry.is_enabled().then(|| telemetry.counter(name));
        let rounds_counter = counter("campaign.rounds");
        let mutations_counter = counter("campaign.config_mutations");
        let syncs_counter = counter("campaign.seed_syncs");

        let interval = self.options.sample_interval;
        let iterations_per_round = interval.get().max(1);
        let batch = self.options.batch.max(1) as u64;
        let seed_sync_every = self.options.seed_sync_every_rounds;
        let rounds_total = self.rounds_total();
        let start_round = self.rounds_done;
        let branches_before = self.curve.final_branches();
        let sessions_before: u64 = self
            .instances
            .iter()
            .map(|i| i.engine.stats().sessions)
            .sum();
        let slice_rounds = (slice_budget.get() / iterations_per_round)
            .min(rounds_total.saturating_sub(start_round));
        let end_round = start_round + slice_rounds;
        // Set when a control signal interrupts the slice at a round
        // boundary, short of `end_round`.
        let mut interrupted = false;

        for round in start_round..end_round {
            // Control signals are honoured strictly between rounds: no
            // instance state is in flight, so stopping here is as clean as
            // never having scheduled the round.
            if control.is_some_and(CampaignControl::should_stop) {
                interrupted = true;
                break;
            }
            self.run_round(iterations_per_round, batch);

            let now = self.consumed + interval;
            if let Some(counter) = &rounds_counter {
                counter.incr();
            }
            if telemetry.is_enabled() {
                for (index, instance) in self.instances.iter().enumerate() {
                    telemetry.span_record(index, "fuzzing", interval);
                    for fault in instance.engine.fault_log().faults() {
                        if self.seen_faults.record(fault.clone()) {
                            telemetry.emit(Event::FaultFound {
                                time: now,
                                instance: index,
                                kind: fault.kind.to_string(),
                                function: fault.function.clone(),
                            });
                        }
                    }
                }
            }

            // SPFuzz-style seed synchronization between rounds.
            if let Some(every) = seed_sync_every {
                if every > 0 && (round + 1) % u64::from(every) == 0 {
                    let shared = sync_seeds(&mut self.instances);
                    if let Some(counter) = &syncs_counter {
                        counter.incr();
                    }
                    telemetry.emit(Event::SeedSynced {
                        round,
                        time: now,
                        seeds_shared: shared,
                    });
                }
            }
            // Published before adaptive mutation, whose failed restart
            // ends the slice: the round's sessions still reach the registry.
            if telemetry.is_enabled() {
                publish_round(telemetry, &mut self.instances, iterations_per_round, batch);
            }

            // Adaptive configuration mutation on saturation (paper
            // §III-B2). The detector is fed for every instance (its state
            // is private and RNG-free, so this cannot perturb campaign
            // results), but only adaptive instances act on it; non-adaptive
            // ones report a stall once and keep running.
            for (index, instance) in self.instances.iter_mut().enumerate() {
                let covered = instance.engine.covered_count();
                let saturated = instance.saturation.observe(now, covered);
                if instance.adaptive.is_empty() {
                    if saturated && !instance.stalled {
                        instance.stalled = true;
                        telemetry.emit(Event::InstanceStalled {
                            time: now,
                            instance: index,
                            covered,
                        });
                    }
                    continue;
                }
                if saturated {
                    telemetry.emit(Event::SaturationDetected {
                        time: now,
                        instance: index,
                        covered,
                    });
                    match mutate_instance_config(instance) {
                        Ok(Some((entity, value))) => {
                            if let Some(counter) = &mutations_counter {
                                counter.incr();
                            }
                            let (name, values) = &instance.adaptive[entity];
                            telemetry.emit(Event::ConfigMutated {
                                time: now,
                                instance: index,
                                entity: name.to_string(),
                                value: values[value].render(),
                            });
                            self.config_mutations.push(MutationRecord {
                                time: now,
                                instance: u32::try_from(index).expect("fewer than 2^32 instances"),
                                entity: u16::try_from(entity).expect("checked at boot"),
                                value: u16::try_from(value).expect("checked at boot"),
                            });
                        }
                        Ok(None) => {}
                        Err(error) => {
                            // The instance lost its running configuration:
                            // the run keeps the rounds before this one.
                            return Err(CampaignError::Restart {
                                target: self.target.clone(),
                                instance: index,
                                error,
                            });
                        }
                    }
                    instance.saturation.reset_window(now);
                }
            }

            let union_branches = union_coverage(&self.instances).covered_count();
            self.curve
                .push(now, union_branches)
                .expect("virtual clock is monotone");
            if telemetry.is_enabled() {
                telemetry.emit(Event::RoundCompleted {
                    round,
                    time: now,
                    union_branches,
                    sessions: self
                        .instances
                        .iter()
                        .map(|i| i.engine.stats().sessions)
                        .sum(),
                });
                telemetry.drain();
            }
            self.consumed = now;
            self.rounds_done = round + 1;
        }
        let executed_through = self.rounds_done;

        let done = executed_through >= rounds_total;
        if done {
            let mut faults = FaultLog::new();
            for instance in &self.instances {
                faults.merge(instance.engine.fault_log());
            }
            telemetry.emit(Event::CampaignFinished {
                time: self.consumed,
                branches: self.curve.final_branches(),
                unique_faults: faults.unique_count(),
                config_mutations: self.config_mutations.len(),
            });
            telemetry.drain();
        }

        let sessions_after: u64 = self
            .instances
            .iter()
            .map(|i| i.engine.stats().sessions)
            .sum();
        Ok(SliceReport {
            rounds: executed_through - start_round,
            sessions: sessions_after - sessions_before,
            new_branches: self.curve.final_branches().saturating_sub(branches_before),
            union_branches: self.curve.final_branches(),
            done,
            interrupted,
        })
    }

    /// The campaign's result so far — partial while budget remains, the
    /// uninterrupted [`run_campaign`] result once complete. The run is
    /// left untouched.
    #[must_use]
    pub fn result(&self) -> CampaignResult {
        let mut corpus = CorpusOccupancy::default();
        let mut faults = FaultLog::new();
        let mut stats = crate::metrics::CampaignStats::default();
        for instance in &self.instances {
            // Queued imports count as resident: the next slice settles them.
            let queued = instance.engine.queued_imports();
            corpus.seeds += instance.engine.corpus_len() + queued.len();
            corpus.approx_bytes += instance.engine.corpus_bytes()
                + queued.iter().map(|s| s.bytes.len()).sum::<usize>();
            faults.merge(instance.engine.fault_log());
            let engine = instance.engine.stats();
            stats.sessions += engine.sessions;
            stats.messages += engine.messages;
            stats.crashes_observed += engine.crashes_observed;
            stats.seeds_retained += engine.seeds_retained;
            stats.seeds_deduped_exact += engine.seeds_deduped_exact;
            stats.seeds_evicted += engine.seeds_evicted;
            stats.seeds_imported += engine.seeds_imported;
        }
        let coverage = CoverageSnapshot::merge(self.instances.iter().map(|i| i.engine.coverage()))
            .unwrap_or_else(|| CoverageSnapshot::empty(0));
        CampaignResult {
            fuzzer: self.fuzzer.clone(),
            target: self.target.clone(),
            instances: self.instances.len(),
            budget: self.options.budget,
            curve: self.curve.clone(),
            coverage,
            faults,
            config_mutations: self
                .config_mutations
                .iter()
                .map(|record| {
                    let instance = record.instance as usize;
                    let (entity, values) =
                        &self.instances[instance].adaptive[usize::from(record.entity)];
                    ConfigMutationEvent {
                        time: record.time,
                        instance,
                        entity: Arc::clone(entity),
                        value: values[usize::from(record.value)].clone(),
                    }
                })
                .collect(),
            stats,
            corpus,
        }
    }

    /// [`CampaignRun::result`], consuming the run.
    #[must_use]
    pub fn into_result(self) -> CampaignResult {
        self.result()
    }

    /// Up to `max` of this campaign's seeds, for sharing with campaigns
    /// of the same subject. Seed bytes are shared, not copied.
    ///
    /// A share is the first `max` distinct seeds in instance order, then
    /// retention order (oldest first), then queued imports, deduplicated
    /// by content hash so one campaign never donates the same input
    /// twice.
    #[must_use]
    pub fn seeds_to_share(&self, max: usize) -> Vec<Seed> {
        let mut seen = std::collections::BTreeSet::new();
        self.instances
            .iter()
            .flat_map(|i| i.engine.corpus().iter().chain(i.engine.queued_imports()))
            .filter(|seed| seen.insert(seed.content_hash()))
            .take(max)
            .cloned()
            .collect()
    }

    /// Offers seeds shared by another campaign of the same subject to
    /// every instance whose running configuration satisfies
    /// `constraints`, returning `(accepted, rejected)` transfer counts.
    ///
    /// An instance whose configuration violates the constraint set
    /// (adaptive mutation may have moved it into a region the subject's
    /// models declare unreachable) rejects every seed, each counting once.
    /// Otherwise each seed not already present verbatim is accepted and
    /// queued ([`FuzzEngine::queue_import`]); the next slice offers the
    /// queue to the corpus, whose retention path still drops exact
    /// duplicates and evicts at capacity.
    ///
    /// Accepted seeds count toward the engines' `seeds_imported` but are
    /// never published as `corpus.shared_in` by the runner: the caller
    /// owns the counts it is handed back.
    pub fn import_seeds(&mut self, seeds: &[Seed], constraints: &ConstraintSet) -> (u64, u64) {
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for instance in &mut self.instances {
            if !constraints.violations(&instance.config).is_empty() {
                rejected += seeds.len() as u64;
                continue;
            }
            for seed in seeds {
                if instance.engine.queue_import(seed) {
                    instance.published.seeds_imported += 1;
                    accepted += 1;
                }
            }
        }
        (accepted, rejected)
    }
}

/// Reads one [`EngineStats`] field.
type StatField = fn(&EngineStats) -> u64;

/// Metric counters published from [`EngineStats`], each with the field it
/// reads.
const ENGINE_COUNTERS: [(&str, StatField); 10] = [
    ("engine.sessions", |s| s.sessions),
    ("engine.messages", |s| s.messages),
    ("engine.model_mutations", |s| s.model_mutations),
    ("engine.seed_reuses", |s| s.seed_reuses),
    ("engine.byte_mutations", |s| s.byte_mutations),
    ("engine.faults_observed", |s| s.crashes_observed),
    ("corpus.retained", |s| s.seeds_retained),
    ("corpus.deduped_exact", |s| s.seeds_deduped_exact),
    ("corpus.evicted", |s| s.seeds_evicted),
    ("corpus.shared_in", |s| s.seeds_imported),
];

/// Bucket bounds of the `engine.batch_sessions` histogram.
const BATCH_SESSIONS_BOUNDS: &[u64] = &[1, 4, 16, 64, 256];

/// Publishes one round into `telemetry`'s registry: what every engine
/// counted since its last publish (the [`ENGINE_COUNTERS`] and the
/// `engine.session_messages` histogram), and the round's `run_batch`
/// calls as `engine.batches` and `engine.batch_sessions`.
fn publish_round(telemetry: &Telemetry, instances: &mut [Instance], iterations: u64, batch: u64) {
    let mut counts = [0u64; ENGINE_COUNTERS.len()];
    let mut buckets = vec![0u64; SESSION_MESSAGES_BOUNDS.len() + 1];
    let mut messages = 0;
    for instance in instances.iter_mut() {
        let (now, then) = (instance.engine.stats(), instance.published);
        for (count, (_, field)) in counts.iter_mut().zip(ENGINE_COUNTERS) {
            *count += field(&now) - field(&then);
        }
        for (bucket, (n, t)) in buckets
            .iter_mut()
            .zip(now.session_messages.iter().zip(&then.session_messages))
        {
            *bucket += n - t;
        }
        messages += now.messages - then.messages;
        instance.published = now;
    }
    for ((name, _), count) in ENGINE_COUNTERS.iter().zip(counts) {
        telemetry.counter(name).add(count);
    }
    // Rejected shares are counted by whoever offers them; a campaign's
    // registry names the metric beside `corpus.shared_in` all the same.
    let _ = telemetry.counter("corpus.shared_rejected");
    telemetry
        .histogram("engine.session_messages", &SESSION_MESSAGES_BOUNDS)
        .absorb(&HistogramSnapshot {
            bounds: SESSION_MESSAGES_BOUNDS.to_vec(),
            count: buckets.iter().sum(),
            counts: buckets,
            sum: messages,
        });
    let batches = telemetry.counter("engine.batches");
    let sizes = telemetry.histogram("engine.batch_sessions", BATCH_SESSIONS_BOUNDS);
    for _ in instances.iter() {
        for sessions in round_batches(iterations, batch) {
            batches.incr();
            sizes.record(sessions);
        }
    }
}

fn round_pool(options: &CampaignOptions, instances: &[Instance]) -> Pool {
    let jobs = if options.worker_pool {
        instances.len()
    } else {
        1
    };
    Pool::new(jobs)
}

/// The setup's adaptive table.
///
/// # Panics
///
/// Panics if the table does not fit a [`MutationRecord`]: more than
/// 65 536 entities, or an entity with more than 65 536 values.
fn adaptive_entities(setup: &InstanceSetup) -> Vec<(Arc<str>, Vec<ConfigValue>)> {
    let fits = |len: usize| len <= usize::from(u16::MAX) + 1;
    assert!(
        fits(setup.adaptive_entities.len())
            && setup.adaptive_entities.iter().all(|(_, v)| fits(v.len())),
        "adaptive entities and their values are limited to 65 536 each"
    );
    setup
        .adaptive_entities
        .iter()
        .map(|(name, values)| (Arc::from(name.as_str()), values.clone()))
        .collect()
}

/// One applied configuration mutation, by position in its instance's
/// adaptive table: 16 bytes, where a [`ConfigMutationEvent`] holds a
/// shared name and a value that may own a string.
#[derive(Debug, Clone, Copy)]
struct MutationRecord {
    time: Ticks,
    instance: u32,
    entity: u16,
    value: u16,
}

fn parse_pit(spec: &ProtocolSpec) -> Result<PitDefinition, CampaignError> {
    pit::parse(spec.pit_document).map_err(|error| CampaignError::PitParse {
        target: spec.name.to_owned(),
        error,
    })
}

/// Builds instance `i`'s engine: its own network namespace and link seed,
/// and an engine seed derived from the campaign seed.
fn build_engine(
    spec: &ProtocolSpec,
    fuzzer: &str,
    options: &CampaignOptions,
    pit: &PitDefinition,
    i: usize,
) -> FuzzEngine<NetworkedTarget<ProtocolTarget>> {
    let target = NetworkedTarget::with_conditions(
        (spec.build)(),
        &format!("{fuzzer}-{}-{i}", spec.name),
        options.link,
        // Distinct from the engine and mutation seed streams; a perfect
        // link never draws from it.
        (options.seed ^ 0x4C49_4E4B_F00D_5EED).wrapping_add(i as u64),
    );
    let engine_config = EngineConfig {
        seed: options
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
        ..options.engine.clone()
    };
    FuzzEngine::new(target, pit.clone(), engine_config)
}

/// Runs one parallel fuzzing campaign: `setups.len()` isolated instances
/// over the shared Pit models of `spec`, each in its own network
/// namespace, with per-round coverage sampling, optional seed
/// synchronization, and adaptive configuration mutation for instances that
/// declare adaptive entities.
///
/// Instances execute their rounds on real threads (the "parallel" in
/// parallel fuzzing) but the result is deterministic for a given options
/// struct because instances share nothing within a round.
///
/// # Panics
///
/// Panics on any [`CampaignError`]; use [`try_run_campaign`] to handle
/// failures programmatically.
#[must_use]
pub fn run_campaign(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
) -> CampaignResult {
    try_run_campaign_with_telemetry(spec, fuzzer, setups, options, &Telemetry::disabled())
        .unwrap_or_else(|error| panic!("campaign failed: {error}"))
}

/// [`run_campaign`], but campaign-level failures come back as a typed
/// [`CampaignError`] instead of a panic.
///
/// # Errors
///
/// As [`CampaignRun::boot`] and [`CampaignRun::slice`].
pub fn try_run_campaign(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    try_run_campaign_with_telemetry(spec, fuzzer, setups, options, &Telemetry::disabled())
}

/// [`try_run_campaign`] with an observability pipeline attached: one
/// [`CampaignRun`] booted and sliced through its whole budget.
///
/// The runner emits the full event taxonomy (`CampaignStarted`,
/// `RoundCompleted`, `SaturationDetected`, `ConfigMutated`, `SeedSynced`,
/// `FaultFound`, `InstanceStalled`, `CampaignFinished`), publishes engine
/// execution counters into `telemetry`'s registry, and records per-instance
/// `"fuzzing"` phase spans in virtual ticks. The event bus is drained to
/// the sinks at every round boundary, so sink output order is as
/// deterministic as the campaign itself. A disabled pipeline reduces to
/// [`try_run_campaign`] exactly — instrumentation never perturbs the RNG
/// sequence, so results are identical either way.
///
/// # Errors
///
/// As [`try_run_campaign`].
pub fn try_run_campaign_with_telemetry(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    let mut run = CampaignRun::boot(spec, fuzzer, setups, options, telemetry)?;
    run.slice(options.budget, telemetry, None)?;
    Ok(run.result())
}

/// Runs up to `slice_budget` virtual ticks of a campaign, pausing at the
/// next round boundary, and returns the paused run as a
/// [`CampaignCheckpoint`] plus a [`SliceReport`] of what the slice
/// executed.
///
/// Pass `None` to boot a fresh campaign, or a previous call's checkpoint
/// to continue it; `options.budget` replaces the run's budget
/// ([`CampaignRun::set_budget`]). Slicing is invisible to the campaign:
/// any partition of the budget into slices reproduces the uninterrupted
/// [`run_campaign`] result byte-for-byte ([`CampaignRun::into_result`]).
///
/// `spec`, `fuzzer`, `setups`, and `options` must be the same on every
/// call for a given campaign; a continued run keeps the ones it was
/// booted with, apart from the budget.
///
/// # Errors
///
/// As [`try_run_campaign`]; preflight runs only on the initial boot.
///
/// # Panics
///
/// Panics if `checkpoint` came from a campaign with a different subject or
/// instance count.
pub fn run_campaign_slice(
    spec: &ProtocolSpec,
    fuzzer: &str,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    checkpoint: Option<CampaignCheckpoint>,
    slice_budget: Ticks,
) -> Result<(CampaignCheckpoint, SliceReport), CampaignError> {
    let telemetry = Telemetry::disabled();
    let mut run = match checkpoint {
        Some(mut run) => {
            assert_eq!(run.target, spec.name, "checkpoint is for {}", run.target);
            assert_eq!(
                run.instances.len(),
                setups.len(),
                "checkpoint was taken with a different instance count"
            );
            run.set_budget(options.budget);
            run
        }
        None => CampaignRun::boot(spec, fuzzer, setups, options, &telemetry)?,
    };
    let report = run.slice(slice_budget, &telemetry, None)?;
    Ok((run, report))
}

fn union_coverage(instances: &[Instance]) -> CoverageSnapshot {
    let (first, rest) = instances
        .split_first()
        .expect("campaign needs at least one instance");
    let mut union = first.engine.coverage().clone();
    for instance in rest {
        union.union_with(instance.engine.coverage());
    }
    union
}

/// Returns the number of seed copies imported across instances.
fn sync_seeds(instances: &mut [Instance]) -> usize {
    let outboxes: Vec<Vec<Seed>> = instances
        .iter_mut()
        .map(|i| i.engine.export_new_seeds())
        .collect();
    let mut copies = 0;
    for (i, instance) in instances.iter_mut().enumerate() {
        for (j, outbox) in outboxes.iter().enumerate() {
            if i != j {
                // Cap what is shared per round so one lucky instance cannot
                // flood everyone's corpus.
                let shared = &outbox[..outbox.len().min(16)];
                instance.engine.import_seeds(shared);
                copies += shared.len();
            }
        }
    }
    copies
}

/// Picks one adaptive entity and one of its typical values, restarting the
/// instance's target under the mutated configuration. Conflicting picks
/// (failed starts) are retried a few times and abandoned otherwise — the
/// previous configuration keeps running. Returns the applied mutation as
/// (entity, value) positions in the adaptive table, or an error if a
/// known-good configuration refuses to boot again (the instance would be
/// dead with budget remaining).
fn mutate_instance_config(instance: &mut Instance) -> Result<Option<(usize, usize)>, StartError> {
    for _attempt in 0..4 {
        let entity = instance.rng.random_range(0..instance.adaptive.len());
        let (name, values) = &instance.adaptive[entity];
        if values.is_empty() {
            continue;
        }
        let pick = instance.rng.random_range(0..values.len());
        let value = values[pick].clone();
        if instance.config.get(name) == Some(&value) {
            continue;
        }
        let mut candidate = instance.config.clone();
        candidate.set(name, value.clone());
        if instance.engine.start(&candidate).is_ok() {
            instance.config = candidate;
            return Ok(Some((entity, pick)));
        }
        // Failed start: the engine is left unstarted; restore the running
        // configuration before trying another value.
        instance.engine.start(&instance.config)?;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_coverage::VirtualClock;
    use cmfuzz_fuzzer::Target;
    use cmfuzz_protocols::spec_by_name;

    fn small_options(seed: u64) -> CampaignOptions {
        CampaignOptions {
            instances: 2,
            budget: Ticks::new(600),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn default_setup_campaign_produces_monotone_curve() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let result = run_campaign(&spec, "peach", &setups, &small_options(1));
        assert_eq!(result.fuzzer, "peach");
        assert_eq!(result.target, "dnsmasq");
        assert_eq!(result.curve.points().len(), 7, "initial + 6 rounds");
        let mut last = 0;
        for &(_, branches) in result.curve.points() {
            assert!(branches >= last, "union coverage is monotone");
            last = branches;
        }
        assert!(result.final_branches() > 10);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let a = run_campaign(&spec, "peach", &setups, &small_options(9));
        let b = run_campaign(&spec, "peach", &setups, &small_options(9));
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.faults.unique_count(), b.faults.unique_count());
        let c = run_campaign(&spec, "peach", &setups, &small_options(10));
        // Different seed virtually always walks a different curve.
        assert!(a.curve != c.curve || a.final_branches() == c.final_branches());
    }

    #[test]
    fn batch_size_does_not_change_campaign_results() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let reference = run_campaign(
            &spec,
            "cmfuzz",
            &setups,
            &CampaignOptions {
                batch: 1,
                ..small_options(21)
            },
        );
        // Batch size is a throughput knob: every size must walk the exact
        // same campaign, including one larger than a whole round.
        for batch in [7, 16, 64, 1000] {
            let options = CampaignOptions {
                batch,
                ..small_options(21)
            };
            let result = run_campaign(&spec, "cmfuzz", &setups, &options);
            assert_eq!(result.curve, reference.curve, "batch {batch}");
            assert_eq!(result.coverage, reference.coverage, "batch {batch}");
            assert_eq!(result.stats, reference.stats, "batch {batch}");
            assert_eq!(
                result.faults.unique_count(),
                reference.faults.unique_count(),
                "batch {batch}"
            );
            // The full Debug render covers every field, including ones
            // future changes add — batch size must be invisible in all of
            // them.
            assert_eq!(
                format!("{result:?}"),
                format!("{reference:?}"),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn campaign_coverage_bitset_matches_final_curve_point() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let result = run_campaign(&spec, "peach", &setups, &small_options(5));
        assert_eq!(
            result.coverage.covered_count(),
            result.final_branches(),
            "the mergeable bitset and the curve must agree on final union coverage"
        );
    }

    #[test]
    fn telemetry_does_not_perturb_campaign_results() {
        use cmfuzz_telemetry::RingBufferSink;

        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let plain = run_campaign(&spec, "peach", &setups, &small_options(9));

        let ring = RingBufferSink::new(4096);
        let telemetry = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        let observed =
            try_run_campaign_with_telemetry(&spec, "peach", &setups, &small_options(9), &telemetry)
                .expect("campaign runs");

        assert_eq!(plain.curve, observed.curve, "instrumentation-free results");
        assert_eq!(plain.faults.unique_count(), observed.faults.unique_count());
        assert_eq!(plain.stats, observed.stats);

        assert_eq!(ring.count_of_kind("campaign_started"), 1);
        assert_eq!(ring.count_of_kind("campaign_finished"), 1);
        assert_eq!(ring.count_of_kind("round_completed"), 6, "600/100 budget");
        assert_eq!(
            ring.count_of_kind("fault_found"),
            observed.faults.unique_count()
        );
        assert_eq!(telemetry.dropped_events(), 0);
        let snap = telemetry.metrics_snapshot();
        assert_eq!(
            snap.counter("engine.sessions"),
            Some(observed.stats.sessions)
        );
        assert_eq!(snap.counter("campaign.rounds"), Some(6));
        // Each instance spent the whole budget in the fuzzing phase.
        for instance in 0..2 {
            assert_eq!(
                telemetry.phase_breakdown(instance),
                vec![("fuzzing".to_owned(), Ticks::new(600))]
            );
        }
    }

    #[test]
    fn published_metrics_equal_summed_engine_stats() {
        let spec = spec_by_name("mosquitto").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        // Batch 7 leaves a remainder batch in every 100-session round.
        let options = CampaignOptions {
            batch: 7,
            seed_sync_every_rounds: Some(2),
            ..small_options(4)
        };
        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        let mut run = CampaignRun::boot(&spec, "cmfuzz", &setups, &options, &telemetry).unwrap();
        run.slice(Ticks::new(300), &telemetry, None).unwrap();
        // Shares queued between slices are counted by whoever queued them.
        let quiet = Telemetry::disabled();
        let mut donor =
            CampaignRun::boot(&spec, "cmfuzz", &setups, &small_options(5), &quiet).unwrap();
        donor.slice(Ticks::new(300), &quiet, None).unwrap();
        let (accepted, _) = run.import_seeds(&donor.seeds_to_share(8), &ConstraintSet::default());
        assert!(accepted > 0);
        run.slice(Ticks::new(300), &telemetry, None).unwrap();
        assert!(run.is_complete());

        let snap = telemetry.metrics_snapshot();
        let summed = |field: StatField| -> u64 {
            run.instances.iter().map(|i| field(&i.engine.stats())).sum()
        };
        for (name, field) in ENGINE_COUNTERS {
            let queued = if name == "corpus.shared_in" {
                accepted
            } else {
                0
            };
            assert_eq!(snap.counter(name), Some(summed(field) - queued), "{name}");
        }
        assert!(snap.counter("corpus.shared_in") > Some(0), "seeds synced");
        let histogram = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        let messages = histogram("engine.session_messages");
        assert_eq!(messages.count, summed(|s| s.sessions));
        assert_eq!(messages.sum, summed(|s| s.messages));
        // 6 rounds x 2 instances x (14 batches of 7 + one of 2).
        assert_eq!(snap.counter("engine.batches"), Some(6 * 2 * 15));
        let batches = histogram("engine.batch_sessions");
        assert_eq!(batches.count, 6 * 2 * 15);
        assert_eq!(batches.sum, summed(|s| s.sessions));
    }

    #[test]
    fn config_mutations_are_logged_with_their_instance() {
        let spec = spec_by_name("libcoap").unwrap();
        let model = cmfuzz_config_model::extract_model(&{
            let target = (spec.build)();
            target.config_space()
        });
        let setups = vec![InstanceSetup {
            adaptive_entities: model
                .mutable_entities()
                .map(|e| (e.name().to_owned(), e.values().to_vec()))
                .collect(),
            ..InstanceSetup::default()
        }];
        let options = CampaignOptions {
            instances: 1,
            budget: Ticks::new(2000),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed: 4,
            ..CampaignOptions::default()
        };
        let result = run_campaign(&spec, "cmfuzz", &setups, &options);
        assert!(
            !result.config_mutations.is_empty(),
            "saturation must have fired at least once"
        );
        for event in &result.config_mutations {
            assert_eq!(event.instance, 0);
            assert!(model.entity(&event.entity).is_some());
            assert!(event.time > Ticks::ZERO);
        }
        // The run stores each mutation as a 16-byte record.
        assert_eq!(std::mem::size_of::<MutationRecord>(), 16);
    }

    #[test]
    fn adaptive_mutation_unlocks_config_branches() {
        let spec = spec_by_name("mosquitto").unwrap();
        let model = cmfuzz_config_model::extract_model(&{
            let target = (spec.build)();
            target.config_space()
        });
        let adaptive: Vec<(String, Vec<ConfigValue>)> = model
            .mutable_entities()
            .map(|e| (e.name().to_owned(), e.values().to_vec()))
            .collect();
        let with_adaptive = vec![InstanceSetup {
            adaptive_entities: adaptive,
            ..InstanceSetup::default()
        }];
        let without = vec![InstanceSetup::default()];
        let options = CampaignOptions {
            instances: 1,
            budget: Ticks::new(3000),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed: 3,
            ..CampaignOptions::default()
        };
        let adaptive_result = run_campaign(&spec, "cmfuzz", &with_adaptive, &options);
        let static_result = run_campaign(&spec, "peach", &without, &options);
        assert!(
            adaptive_result.final_branches() > static_result.final_branches(),
            "adaptive {} <= static {}",
            adaptive_result.final_branches(),
            static_result.final_branches()
        );
    }

    #[test]
    fn sliced_campaign_reproduces_the_uninterrupted_run() {
        let spec = spec_by_name("mosquitto").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(7);
        let reference = run_campaign(&spec, "peach", &setups, &options);

        let mut checkpoint = None;
        loop {
            let (next, report) = run_campaign_slice(
                &spec,
                "peach",
                &setups,
                &options,
                checkpoint.take(),
                Ticks::new(200),
            )
            .expect("slice runs");
            let done = report.done;
            checkpoint = Some(next);
            if done {
                break;
            }
        }
        let sliced = checkpoint.expect("final checkpoint").into_result();
        assert_eq!(
            format!("{reference:?}"),
            format!("{sliced:?}"),
            "three 200-tick slices must be invisible"
        );
    }

    #[test]
    fn slice_reports_carry_scheduling_signals() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(1);
        let (first, report) =
            run_campaign_slice(&spec, "peach", &setups, &options, None, Ticks::new(300))
                .expect("first slice");
        assert_eq!(report.rounds, 3);
        assert!(!report.done);
        assert!(report.sessions > 0, "instances actually fuzzed");
        assert_eq!(report.union_branches, first.union_branches());
        assert_eq!(first.rounds_done(), 3);
        assert_eq!(first.consumed(), Ticks::new(300));
        assert!(!first.is_complete());

        let (second, rest) = run_campaign_slice(
            &spec,
            "peach",
            &setups,
            &options,
            Some(first),
            // Oversized slice budgets are clamped to the remaining rounds.
            Ticks::new(10_000),
        )
        .expect("second slice");
        assert_eq!(rest.rounds, 3);
        assert!(rest.done);
        assert!(second.is_complete());
        assert_eq!(second.consumed(), Ticks::new(600));

        // A completed campaign has nothing left to run.
        let (done, idle) = run_campaign_slice(
            &spec,
            "peach",
            &setups,
            &options,
            Some(second),
            Ticks::new(100),
        )
        .expect("idle slice");
        assert_eq!(idle.rounds, 0);
        assert!(idle.done);
        assert_eq!(done.rounds_done(), 6);
    }

    #[test]
    fn control_signals_interrupt_at_round_boundaries_without_drift() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let options = small_options(3);
        let reference = run_campaign(&spec, "peach", &setups, &options);

        // A raised pause stops the very first slice before any round runs.
        let control = CampaignControl::new();
        control.pause();
        assert!(control.is_paused());
        let telemetry = Telemetry::disabled();
        let mut run =
            CampaignRun::boot(&spec, "peach", &setups, &options, &telemetry).expect("boots");
        let report = run
            .slice(Ticks::new(10_000), &telemetry, Some(&control))
            .expect("paused slice");
        assert!(report.interrupted, "pause must interrupt the slice");
        assert_eq!(report.rounds, 0);
        assert!(!report.done);
        assert_eq!(run.rounds_done(), 0);

        // Resume: one slice that covers the whole budget runs to the end
        // and matches the uninterrupted campaign.
        control.resume();
        assert!(!control.should_stop());
        let rest = run
            .slice(Ticks::new(10_000), &telemetry, Some(&control))
            .expect("resumed slice");
        assert!(rest.done);
        assert!(!rest.interrupted);
        assert_eq!(
            format!("{reference:?}"),
            format!("{:?}", run.result()),
            "an interrupted-then-resumed campaign must not drift"
        );

        // Kill is permanent: resume does not clear it.
        let control = CampaignControl::new();
        control.kill();
        control.resume();
        assert!(control.is_killed());
        assert!(control.should_stop());
    }

    #[test]
    fn empty_setups_are_a_typed_error() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let err = try_run_campaign(&spec, "peach", &[], &small_options(1))
            .expect_err("no instances to run");
        assert_eq!(err, CampaignError::NoInstances);
    }

    #[test]
    fn impaired_campaigns_are_deterministic_and_cost_coverage() {
        let spec = spec_by_name("libcoap").unwrap();
        let setups = vec![InstanceSetup::default(); 2];
        let lossy = CampaignOptions {
            link: LinkConditions::new(0.3, 0.1, 0.1),
            ..small_options(9)
        };
        let a = run_campaign(&spec, "peach", &setups, &lossy);
        let b = run_campaign(&spec, "peach", &setups, &lossy);
        assert_eq!(a.curve, b.curve, "same seed, same impairment pattern");
        assert!(a.final_branches() > 0, "fuzzing survives the lossy link");
        let perfect = run_campaign(&spec, "peach", &setups, &small_options(9));
        assert_ne!(
            a.curve, perfect.curve,
            "a 30% lossy link must actually change what the campaign sees"
        );
    }

    #[test]
    fn conflicting_initial_config_falls_back_to_defaults() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut bad = ResolvedConfig::new();
        bad.set("auth-method", ConfigValue::Str("tls".into()));
        bad.set("tls_enabled", ConfigValue::Bool(false));
        let setups = vec![InstanceSetup {
            initial_config: bad,
            ..InstanceSetup::default()
        }];
        // Preflight would (correctly) reject this setup before the runner
        // ever sees it; skip it to exercise the boot-time fallback.
        let options = CampaignOptions {
            skip_preflight: true,
            ..small_options(2)
        };
        let result = run_campaign(&spec, "cmfuzz", &setups, &options);
        assert!(
            result.final_branches() > 0,
            "campaign survived the conflict"
        );
    }

    #[test]
    fn preflight_rejects_conflicting_setup_before_any_instance_starts() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut bad = ResolvedConfig::new();
        bad.set("auth-method", ConfigValue::Str("tls".into()));
        bad.set("tls_enabled", ConfigValue::Bool(false));
        let setups = vec![InstanceSetup {
            initial_config: bad,
            ..InstanceSetup::default()
        }];
        let err = try_run_campaign(&spec, "cmfuzz", &setups, &small_options(2))
            .expect_err("preflight must reject the conflicting setup");
        let CampaignError::Preflight(diagnostics) = err else {
            panic!("expected Preflight, got {err}");
        };
        assert!(diagnostics.iter().any(|d| d.code() == "CM014"));
        assert!(err_display_mentions_preflight(&diagnostics));
    }

    fn err_display_mentions_preflight(diagnostics: &[cmfuzz_analyze::Diagnostic]) -> bool {
        CampaignError::Preflight(diagnostics.to_vec())
            .to_string()
            .contains("preflight rejected the campaign")
    }

    #[test]
    fn session_plans_are_honoured() {
        let spec = spec_by_name("mosquitto").unwrap();
        // A plan that only ever sends Connect: the Publish path is absent.
        let connect_only = vec![InstanceSetup {
            session_plans: vec![vec!["Connect".to_owned()]],
            ..InstanceSetup::default()
        }];
        let free = vec![InstanceSetup::default()];
        let options = small_options(5);
        let constrained = run_campaign(&spec, "spfuzz", &connect_only, &options);
        let unconstrained = run_campaign(&spec, "peach", &free, &options);
        assert!(
            constrained.final_branches() < unconstrained.final_branches(),
            "restricting sessions must cost coverage"
        );
    }
}
