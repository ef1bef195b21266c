//! Dynamic fleet management: campaigns admitted into, controlled in, and
//! removed from a *running* fleet.
//!
//! [`run_fleet`](crate::run_fleet) executes a fixed schedule; the control
//! plane needs the same machinery with the schedule open-ended. A
//! [`FleetManager`] owns one live [`CampaignRun`] per scheduled campaign
//! and steps the fleet one wave at a time: the caller decides when to
//! step, which makes live admission ([`FleetManager::admit`]),
//! pause/resume, budget extension, and kill natural. Runs stay booted from
//! their first lease to [`FleetManager::finish`], which keeps each run's
//! result and drops the run.
//!
//! A wave is three steps, and [`FleetManager::step_wave`] is exactly
//! these three calls: [`FleetManager::plan_wave`] picks the leases and
//! takes their runs out of their entries, [`Wave::execute`] runs the
//! slices without borrowing the manager, and [`FleetManager::commit_wave`]
//! puts the runs back and feeds the reports to the policy. A caller that
//! shares the manager behind a lock therefore holds it to plan and to
//! commit, never while slices run. While a run is out, its entry reports
//! the progress it had at the lease, is not eligible for planning, and
//! applies a budget extension at commit; a pause or kill reaches the
//! running slice at its next round boundary through [`CampaignControl`].
//!
//! Determinism is preserved by construction: the manager contains no RNG,
//! entries are never reordered (killed campaigns become tombstones so
//! policy indices stay stable), and a fixed admission sequence stepped to
//! completion reproduces [`run_fleet`](crate::run_fleet) of the same
//! schedule bit-for-bit — `run_fleet` is itself implemented on top of
//! this type.

use std::sync::Arc;

use cmfuzz::campaign::{CampaignControl, CampaignOptions, CampaignRun, SliceReport};
use cmfuzz::exec::Pool;
use cmfuzz::metrics::CampaignResult;
use cmfuzz::preflight::{analyze_fleet_schedule, analyze_reachability_for, FleetEntryView};
use cmfuzz::CampaignError;
use cmfuzz_config_model::ConstraintSet;
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fuzzer::{Seed, Target};
use cmfuzz_telemetry::{Counter, Telemetry};

use crate::{CampaignOutcome, FleetCampaign, FleetOptions, FleetResult, SchedulingPolicy};

/// Lifecycle state of one managed campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted but never scheduled yet.
    Pending,
    /// Running with budget remaining; eligible for scheduling.
    Active,
    /// Administratively paused; skipped by the scheduler until resumed.
    Paused,
    /// Killed; a permanent tombstone (the entry keeps its index so policy
    /// state stays aligned, but it is never scheduled again).
    Killed,
    /// Ran to its own budget.
    Complete,
}

impl CampaignState {
    /// Stable lowercase label (used by the control-plane status protocol).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CampaignState::Pending => "pending",
            CampaignState::Active => "active",
            CampaignState::Paused => "paused",
            CampaignState::Killed => "killed",
            CampaignState::Complete => "complete",
        }
    }
}

/// Point-in-time view of one managed campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The campaign's fleet id.
    pub id: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Slices leased so far.
    pub leases: u64,
    /// Virtual ticks consumed so far.
    pub consumed: Ticks,
    /// Rounds executed so far.
    pub rounds_done: u64,
    /// Union branch coverage so far.
    pub branches: usize,
    /// Branches the reachability analyzer certified this campaign's
    /// partition can ever cover; `None` when admission skipped preflight.
    pub reachable_branches: Option<usize>,
}

/// Why [`FleetManager::step_wave`] ran nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleReason {
    /// No eligible campaign: everything is complete, killed, or paused.
    NoneEligible,
    /// The fleet-wide total budget is exhausted.
    BudgetExhausted,
    /// The policy declined to schedule any eligible campaign.
    PolicyDeclined,
}

/// What one [`FleetManager::step_wave`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveOutcome {
    /// A wave of slices ran. `progress` is false when no lease executed a
    /// round and nothing completed — granting more identical leases
    /// cannot help, so batch drivers stop there.
    Ran {
        /// Leases in the wave.
        scheduled: usize,
        /// Whether any lease executed a round or finished its campaign.
        progress: bool,
    },
    /// Nothing ran; the fleet state is unchanged. Recoverable when the
    /// reason is (e.g.) an all-paused fleet.
    Idle(IdleReason),
}

/// Progress of one campaign, as [`FleetManager::status`] reports it.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    consumed: Ticks,
    rounds_done: u64,
    branches: usize,
}

/// Where an entry's live run is. The run is stored inline: a fleet holds
/// one slot per campaign, and a parked run is the common case.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum RunSlot {
    /// Never leased; the first lease boots the run.
    Unbooted,
    /// Parked between leases.
    Parked(CampaignRun),
    /// Out on a planned wave, with the progress it had at the lease.
    Leased(Progress),
}

#[derive(Debug)]
pub(crate) struct FleetEntry {
    pub(crate) campaign: FleetCampaign,
    /// `campaign.options` as slices actually run them: labelled with the
    /// fleet id, worker pool off (the wave's pool cells supply
    /// parallelism).
    prepared: CampaignOptions,
    /// The live campaign, booted at its first lease.
    slot: RunSlot,
    /// The subject's declared startup constraints, built at the
    /// campaign's first seed import and vetted against from then on.
    constraints: Option<ConstraintSet>,
    leases: u64,
    control: CampaignControl,
    paused: bool,
    pub(crate) killed: bool,
    /// Reachability-certified branch ceiling for this campaign's
    /// partition, computed once at admission (`None` when preflight was
    /// skipped). Fed to the scheduling policy as a prior before the
    /// campaign's first lease.
    reachable_branches: Option<usize>,
}

impl FleetEntry {
    fn new(campaign: FleetCampaign, reachable_branches: Option<usize>) -> Self {
        let mut prepared = campaign.options.clone();
        prepared.campaign_id = Some(campaign.id.clone());
        prepared.worker_pool = false;
        FleetEntry {
            campaign,
            prepared,
            slot: RunSlot::Unbooted,
            constraints: None,
            leases: 0,
            control: CampaignControl::new(),
            paused: false,
            killed: false,
            reachable_branches,
        }
    }

    /// The parked run; `None` before the first lease and while leased.
    fn run(&self) -> Option<&CampaignRun> {
        match &self.slot {
            RunSlot::Parked(run) => Some(run),
            _ => None,
        }
    }

    fn leased(&self) -> bool {
        matches!(self.slot, RunSlot::Leased(_))
    }

    fn complete(&self) -> bool {
        self.run().is_some_and(CampaignRun::is_complete)
    }

    fn progress(&self) -> Progress {
        match &self.slot {
            RunSlot::Unbooted => Progress::default(),
            RunSlot::Parked(run) => Progress {
                consumed: run.consumed(),
                rounds_done: run.rounds_done(),
                branches: run.union_branches(),
            },
            RunSlot::Leased(progress) => *progress,
        }
    }

    fn state(&self) -> CampaignState {
        if self.killed {
            CampaignState::Killed
        } else if self.paused {
            CampaignState::Paused
        } else if matches!(self.slot, RunSlot::Unbooted) {
            CampaignState::Pending
        } else if self.complete() {
            CampaignState::Complete
        } else {
            CampaignState::Active
        }
    }

    fn eligible(&self) -> bool {
        !self.killed && !self.paused && !self.leased() && !self.complete()
    }
}

/// A running fleet with dynamic membership and live per-campaign control.
///
/// Every mutation — admission, control, planning and committing a wave —
/// takes `&mut self`; only [`Wave::execute`] runs apart from the manager.
/// Concurrent control planes wrap the manager in a mutex, hold it to plan
/// and to commit, and release it while the wave executes: control applied
/// meanwhile reaches the running slices through their [`CampaignControl`]
/// signals (which are thread-safe) at the next round boundary. One wave
/// is meant to be out at a time.
#[derive(Debug)]
pub struct FleetManager {
    entries: Vec<FleetEntry>,
    options: FleetOptions,
    telemetry: Telemetry,
    waves_counter: Counter,
    leases_counter: Counter,
    ticks_counter: Counter,
    shared_in_counter: Counter,
    shared_rejected_counter: Counter,
    waves: u64,
    leases: u64,
    spent: u64,
    seeds_shared: u64,
    seeds_share_rejected: u64,
    /// Entries `0..primed` have had their reachability prior handed to a
    /// policy; `step_wave` advances the watermark so every admitted
    /// campaign is primed exactly once, at its first wave.
    primed: usize,
    /// Runs every wave's slices, one job per slot; spawned at the first
    /// wave, and each wave holds a clone while it executes.
    pool: Option<Arc<Pool>>,
}

impl FleetManager {
    /// Creates an empty fleet.
    #[must_use]
    pub fn new(options: FleetOptions, telemetry: &Telemetry) -> Self {
        FleetManager {
            entries: Vec::new(),
            waves_counter: telemetry.counter("fleet.waves"),
            leases_counter: telemetry.counter("fleet.leases"),
            ticks_counter: telemetry.counter("fleet.ticks"),
            shared_in_counter: telemetry.counter("corpus.shared_in"),
            shared_rejected_counter: telemetry.counter("corpus.shared_rejected"),
            telemetry: telemetry.clone(),
            options,
            waves: 0,
            leases: 0,
            spent: 0,
            seeds_shared: 0,
            seeds_share_rejected: 0,
            primed: 0,
            pool: None,
        }
    }

    /// Admits one campaign; see [`FleetManager::admit_batch`].
    ///
    /// # Errors
    ///
    /// As [`FleetManager::admit_batch`].
    pub fn admit(&mut self, campaign: FleetCampaign) -> Result<usize, CampaignError> {
        self.admit_batch(vec![campaign]).map(|indices| indices[0])
    }

    /// Admits a batch of campaigns into the running fleet, validating the
    /// batch *together with* every live (non-killed) entry through the
    /// static fleet preflight (unless [`FleetOptions::skip_preflight`]) —
    /// duplicate ids, zero budgets, and broken subject models are rejected
    /// before anything is scheduled. Returns the entry indices, which stay
    /// valid for the manager's lifetime.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Preflight`] with the full diagnostic list when
    /// validation rejects the batch; the fleet is unchanged in that case.
    pub fn admit_batch(
        &mut self,
        campaigns: Vec<FleetCampaign>,
    ) -> Result<Vec<usize>, CampaignError> {
        if !self.options.skip_preflight {
            let entries: Vec<FleetEntryView<'_>> = self
                .entries
                .iter()
                .filter(|entry| !entry.killed)
                .map(|entry| &entry.campaign)
                .chain(campaigns.iter())
                .map(|campaign| FleetEntryView {
                    id: &campaign.id,
                    spec: &campaign.spec,
                    budget: campaign.options.budget,
                    setups: &campaign.setups,
                })
                .collect();
            let report = analyze_fleet_schedule(&entries);
            if report.has_errors() {
                return Err(CampaignError::Preflight(report.into_diagnostics()));
            }
        }
        let first = self.entries.len();
        let skip_preflight = self.options.skip_preflight;
        self.entries.extend(campaigns.into_iter().map(|campaign| {
            // Reachability is part of admission-time static analysis, so
            // `skip_preflight` opts out of it too (the entry then carries
            // no prior and the policy probes in plain index order).
            let reachable = (!skip_preflight).then(|| {
                analyze_reachability_for(&campaign.spec, &campaign.setups).reachable_branch_count()
            });
            FleetEntry::new(campaign, reachable)
        }));
        Ok((first..self.entries.len()).collect())
    }

    /// Index of the campaign with this id, killed entries included.
    #[must_use]
    pub fn find(&self, id: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.campaign.id == id)
    }

    /// The live [`CampaignControl`] handle for entry `index` — share it
    /// with another thread to interrupt an in-flight slice at its next
    /// round boundary.
    #[must_use]
    pub fn control(&self, index: usize) -> Option<CampaignControl> {
        self.entries.get(index).map(|e| e.control.clone())
    }

    /// Pauses the campaign: it is skipped by scheduling until resumed,
    /// and an in-flight slice stops at its next round boundary. Returns
    /// false for unknown ids and killed campaigns.
    pub fn pause(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                self.entries[index].paused = true;
                self.entries[index].control.pause();
                true
            }
            _ => false,
        }
    }

    /// Clears a pause. Returns false for unknown ids and killed campaigns.
    pub fn resume(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                self.entries[index].paused = false;
                self.entries[index].control.resume();
                true
            }
            _ => false,
        }
    }

    /// Permanently removes the campaign from scheduling. The entry stays
    /// as a tombstone (indices never shift under a policy) and its run is
    /// kept for the final report. Returns false for unknown ids.
    pub fn kill(&mut self, id: &str) -> bool {
        match self.find(id) {
            Some(index) => {
                self.entries[index].killed = true;
                self.entries[index].control.kill();
                true
            }
            _ => false,
        }
    }

    /// Extends a campaign's budget to `budget` (the only live
    /// reconfiguration a run allows: rounds already executed are
    /// unaffected, the campaign simply keeps going further). A run out on
    /// a wave takes the new budget when the wave commits.
    /// Requests below the current budget are rejected. Returns false for
    /// unknown ids, killed campaigns, and non-extensions.
    pub fn extend_budget(&mut self, id: &str, budget: Ticks) -> bool {
        match self.find(id) {
            Some(index) if !self.entries[index].killed => {
                let entry = &mut self.entries[index];
                if budget <= entry.campaign.options.budget {
                    return false;
                }
                entry.campaign.options.budget = budget;
                entry.prepared.budget = budget;
                if let RunSlot::Parked(run) = &mut entry.slot {
                    run.set_budget(budget);
                }
                true
            }
            _ => false,
        }
    }

    /// Status rows for every entry, in admission order. A campaign out on
    /// a wave reports the progress it had at the lease, with that lease
    /// already counted.
    #[must_use]
    pub fn status(&self) -> Vec<CampaignStatus> {
        self.entries
            .iter()
            .map(|entry| {
                let progress = entry.progress();
                CampaignStatus {
                    id: entry.campaign.id.clone(),
                    state: entry.state(),
                    leases: entry.leases,
                    consumed: progress.consumed,
                    rounds_done: progress.rounds_done,
                    branches: progress.branches,
                    reachable_branches: entry.reachable_branches,
                }
            })
            .collect()
    }

    /// Whether the campaign's run is out on a planned wave that has not
    /// been committed yet.
    #[must_use]
    pub fn is_leased(&self, id: &str) -> bool {
        self.find(id)
            .is_some_and(|index| self.entries[index].leased())
    }

    /// The campaign's current result, read from its live run — partial
    /// while the campaign is still running, final once complete. No
    /// corpus is copied. `None` for unknown ids, campaigns never
    /// scheduled yet, and campaigns whose run is out on a wave (see
    /// [`FleetManager::is_leased`]).
    ///
    /// Because per-campaign results are slicing-invariant (with rare-seed
    /// sharing off), a *served* campaign's result here is bit-identical to
    /// an offline [`crate::run_fleet`] of the same submission — the
    /// control plane's determinism gate compares exactly this.
    #[must_use]
    pub fn campaign_result(&self, id: &str) -> Option<CampaignResult> {
        self.entries[self.find(id)?].run().map(CampaignRun::result)
    }

    /// Campaigns admitted (tombstones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no campaign was ever admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Virtual ticks consumed across every executed slice so far.
    #[must_use]
    pub fn spent(&self) -> Ticks {
        Ticks::new(self.spent)
    }

    /// Whether every non-killed campaign ran to its own budget.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.entries
            .iter()
            .filter(|e| !e.killed)
            .all(FleetEntry::complete)
    }

    /// Runs one scheduling wave: [`FleetManager::plan_wave`],
    /// [`Wave::execute`], [`FleetManager::commit_wave`].
    ///
    /// # Errors
    ///
    /// As [`FleetManager::commit_wave`].
    pub fn step_wave(
        &mut self,
        policy: &mut dyn SchedulingPolicy,
    ) -> Result<WaveOutcome, CampaignError> {
        let mut wave = match self.plan_wave(policy) {
            Ok(wave) => wave,
            Err(reason) => return Ok(WaveOutcome::Idle(reason)),
        };
        wave.execute();
        self.commit_wave(wave, policy)
    }

    /// Plans one scheduling wave: asks `policy` to pick up to
    /// [`FleetOptions::slots`] eligible campaigns, leases each a slice of
    /// the remaining fleet budget, counts the leases, and takes the leased
    /// runs out of their entries into the returned [`Wave`].
    ///
    /// # Errors
    ///
    /// Why no wave was planned; the fleet state is then unchanged apart
    /// from the policy's reachability priors.
    pub fn plan_wave(&mut self, policy: &mut dyn SchedulingPolicy) -> Result<Wave, IdleReason> {
        // Hand newly admitted campaigns' reachability priors to the
        // policy before it picks — each entry is primed exactly once, at
        // the first wave after its admission.
        while self.primed < self.entries.len() {
            if let Some(reachable) = self.entries[self.primed].reachable_branches {
                policy.prime(self.primed, reachable);
            }
            self.primed += 1;
        }
        let eligible: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].eligible())
            .collect();
        if eligible.is_empty() {
            return Err(IdleReason::NoneEligible);
        }
        let remaining = self
            .options
            .total_budget
            .map(|total| total.get().saturating_sub(self.spent));
        if remaining == Some(0) {
            return Err(IdleReason::BudgetExhausted);
        }

        let slots = self.options.slots.max(1).min(eligible.len());
        let picked = policy.pick(&eligible, slots);
        // Defensive sanitation: keep only eligible, distinct picks.
        let mut seen = std::collections::BTreeSet::new();
        let mut wave: Vec<usize> = picked
            .into_iter()
            .filter(|i| eligible.contains(i) && seen.insert(*i))
            .collect();
        wave.truncate(slots);
        if wave.is_empty() {
            return Err(IdleReason::PolicyDeclined);
        }

        // Split the remaining fleet allowance across this wave's leases.
        let mut lease_budgets = Vec::with_capacity(wave.len());
        let mut left = remaining.unwrap_or(u64::MAX);
        for _ in &wave {
            let granted = self.options.slice.get().min(left);
            if left != u64::MAX {
                left -= granted;
            }
            lease_budgets.push(granted);
        }
        while lease_budgets.last() == Some(&0) {
            lease_budgets.pop();
            wave.pop();
        }
        if wave.is_empty() {
            return Err(IdleReason::BudgetExhausted);
        }

        let slots = self.options.slots;
        let pool = Arc::clone(self.pool.get_or_insert_with(|| Arc::new(Pool::new(slots))));
        let leases = wave
            .into_iter()
            .zip(lease_budgets)
            .map(|(index, granted)| {
                let entry = &mut self.entries[index];
                entry.leases += 1;
                self.leases += 1;
                let leased = RunSlot::Leased(entry.progress());
                let run = match std::mem::replace(&mut entry.slot, leased) {
                    RunSlot::Parked(run) => Some(run),
                    RunSlot::Unbooted | RunSlot::Leased(_) => None,
                };
                let boot = run
                    .is_none()
                    .then(|| (entry.campaign.clone(), entry.prepared.clone()));
                Lease {
                    index,
                    budget: Ticks::new(granted),
                    control: entry.control.clone(),
                    run,
                    boot,
                    outcome: None,
                }
            })
            .collect();
        Ok(Wave {
            leases,
            telemetry: self.telemetry.clone(),
            pool,
        })
    }

    /// Commits an executed wave: puts every run back in its entry (with
    /// any budget extended meanwhile), feeds the reports to the policy in
    /// lease order, accounts the ticks spent, and performs the
    /// wave-boundary rare-seed exchange. A lease that never executed puts
    /// its run back untouched.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CampaignError`] any lease reports, after
    /// every run of the wave is back in its entry. A campaign whose slice
    /// failed is killed: its run keeps the progress made before the
    /// failing round, for the final report, but is never sliced again.
    pub fn commit_wave(
        &mut self,
        wave: Wave,
        policy: &mut dyn SchedulingPolicy,
    ) -> Result<WaveOutcome, CampaignError> {
        let scheduled = wave.leases.len();
        let mut failure = None;
        let mut wave_progress = false;
        for lease in wave.leases {
            let entry = &mut self.entries[lease.index];
            entry.slot = match lease.run {
                Some(mut run) => {
                    run.set_budget(entry.prepared.budget);
                    RunSlot::Parked(run)
                }
                None => RunSlot::Unbooted,
            };
            let report = match lease.outcome {
                Some(Ok(report)) => report,
                Some(Err(error)) => {
                    if entry.run().is_some() {
                        entry.killed = true;
                        entry.control.kill();
                    }
                    failure.get_or_insert(error);
                    continue;
                }
                None => continue,
            };
            policy.observe(lease.index, &report);
            let executed = report.rounds * entry.campaign.options.sample_interval.get().max(1);
            self.spent += executed;
            self.ticks_counter.add(executed);
            if report.rounds > 0 || report.done {
                wave_progress = true;
            }
        }
        if let Some(error) = failure {
            return Err(error);
        }
        self.waves += 1;
        self.waves_counter.incr();
        self.leases_counter.add(scheduled as u64);

        if self.options.share_rare_seeds > 0 {
            let (accepted, rejected) =
                exchange_seeds(&mut self.entries, self.options.share_rare_seeds);
            self.seeds_shared += accepted;
            self.seeds_share_rejected += rejected;
            self.shared_in_counter.add(accepted);
            self.shared_rejected_counter.add(rejected);
        }

        Ok(WaveOutcome::Ran {
            scheduled,
            progress: wave_progress,
        })
    }

    /// Consumes the manager into a [`FleetResult`], reported under
    /// `policy_name`. Each run leaves its campaign's result and is dropped;
    /// never-scheduled campaigns are booted for a zero-progress result, so
    /// every admitted campaign (killed ones included) has an outcome row.
    /// A run still out on a wave that was never committed is gone with
    /// that wave and reported the same way. The telemetry pipeline is
    /// drained.
    ///
    /// # Errors
    ///
    /// Propagates boot failures of never-scheduled campaigns.
    pub fn finish(self, policy_name: &str) -> Result<FleetResult, CampaignError> {
        let telemetry = self.telemetry;
        let campaigns = self
            .entries
            .into_iter()
            .map(|entry| {
                let run = match entry.slot {
                    RunSlot::Parked(run) => run,
                    RunSlot::Unbooted | RunSlot::Leased(_) => CampaignRun::boot(
                        &entry.campaign.spec,
                        &entry.campaign.fuzzer,
                        &entry.campaign.setups,
                        &entry.prepared,
                        &Telemetry::disabled(),
                    )?,
                };
                Ok(CampaignOutcome {
                    id: entry.campaign.id,
                    leases: entry.leases,
                    consumed: run.consumed(),
                    completed: run.is_complete(),
                    reachable_branches: entry.reachable_branches,
                    result: run.into_result(),
                })
            })
            .collect::<Result<Vec<_>, CampaignError>>()?;

        telemetry.drain();
        Ok(FleetResult {
            policy: policy_name.to_owned(),
            waves: self.waves,
            leases: self.leases,
            spent: Ticks::new(self.spent),
            seeds_shared: self.seeds_shared,
            seeds_share_rejected: self.seeds_share_rejected,
            campaigns,
        })
    }
}

/// One wave boundary's fleet-wide seed exchange: every running campaign
/// in a [`FleetCampaign::share_group`] donates up to `max_per_donor`
/// seeds ([`CampaignRun::seeds_to_share`]) to every other member of the
/// group.
///
/// Seeds pass between live runs directly; their bytes are shared, never
/// copied. All donations are gathered before any import, so a seed
/// accepted this wave propagates further only at the next boundary — the
/// exchange is order-independent within a wave apart from the
/// deterministic fleet ordering of the recipients themselves. Donations
/// across subjects are rejected wholesale (seed model ids index the
/// donor's Pit model table, which only campaigns of the same subject
/// share); within a subject, [`CampaignRun::import_seeds`] additionally
/// rejects instances whose running configuration violates the subject's
/// declared startup constraints. Killed campaigns neither donate nor
/// receive. Returns `(accepted, rejected)` transfer totals.
fn exchange_seeds(entries: &mut [FleetEntry], max_per_donor: usize) -> (u64, u64) {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (index, entry) in entries.iter().enumerate() {
        let Some(group) = entry.campaign.share_group.as_deref() else {
            continue;
        };
        // A campaign the policy has not scheduled yet has no corpus to
        // donate and no run to import into; a killed campaign is out of
        // the fleet entirely. Skip both this wave.
        if entry.run().is_none() || entry.killed {
            continue;
        }
        match groups.iter_mut().find(|(name, _)| name == group) {
            Some((_, members)) => members.push(index),
            None => groups.push((group.to_owned(), vec![index])),
        }
    }

    let mut accepted_total = 0u64;
    let mut rejected_total = 0u64;
    for (_, members) in &groups {
        if members.len() < 2 {
            continue;
        }
        let donations: Vec<Vec<Seed>> = members
            .iter()
            .map(|&i| {
                entries[i]
                    .run()
                    .expect("grouped members are running")
                    .seeds_to_share(max_per_donor)
            })
            .collect();
        for (&donor, seeds) in members.iter().zip(&donations) {
            for &recipient in members {
                if recipient == donor {
                    continue;
                }
                if entries[donor].campaign.spec.name != entries[recipient].campaign.spec.name {
                    rejected_total += seeds.len() as u64;
                    continue;
                }
                let entry = &mut entries[recipient];
                let constraints = entry
                    .constraints
                    .get_or_insert_with(|| (entry.campaign.spec.build)().config_constraints());
                let RunSlot::Parked(run) = &mut entry.slot else {
                    unreachable!("grouped members are running");
                };
                let (accepted, rejected) = run.import_seeds(seeds, constraints);
                accepted_total += accepted;
                rejected_total += rejected;
            }
        }
    }
    (accepted_total, rejected_total)
}

/// A planned wave: the leased runs, out of their entries. Made by
/// [`FleetManager::plan_wave`], run by [`Wave::execute`] without the
/// manager, and handed back through [`FleetManager::commit_wave`].
#[derive(Debug)]
pub struct Wave {
    leases: Vec<Lease>,
    telemetry: Telemetry,
    /// The manager's pool.
    pool: Arc<Pool>,
}

#[derive(Debug)]
struct Lease {
    index: usize,
    budget: Ticks,
    control: CampaignControl,
    run: Option<CampaignRun>,
    /// What a first lease boots the run from.
    boot: Option<(FleetCampaign, CampaignOptions)>,
    outcome: Option<Result<SliceReport, CampaignError>>,
}

impl Wave {
    /// Runs every lease's slice as a cell on the manager's pool, each in
    /// its own telemetry scope; a campaign's first lease boots its run.
    /// With one slot or one lease, the slice runs on the calling thread.
    /// Each slice checks its campaign's [`CampaignControl`] at every round
    /// boundary.
    pub fn execute(&mut self) {
        let cells = std::mem::take(&mut self.leases)
            .into_iter()
            .map(|mut lease| {
                let telemetry = self.telemetry.clone();
                move || {
                    let scope = telemetry.scoped(VirtualClock::new());
                    lease.outcome = Some(lease.slice(scope.telemetry()));
                    scope.commit();
                    lease
                }
            });
        self.leases = self.pool.run_cells(cells);
    }
}

impl Lease {
    /// Boots the campaign's run on its first lease, then slices it.
    fn slice(&mut self, telemetry: &Telemetry) -> Result<SliceReport, CampaignError> {
        let run = match (&mut self.run, &self.boot) {
            (Some(run), _) => run,
            (None, Some((campaign, options))) => self.run.insert(CampaignRun::boot(
                &campaign.spec,
                &campaign.fuzzer,
                &campaign.setups,
                options,
                telemetry,
            )?),
            (None, None) => unreachable!("a lease without a run carries its boot plan"),
        };
        run.slice(self.budget, telemetry, Some(&self.control))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundRobin;
    use cmfuzz::campaign::InstanceSetup;
    use cmfuzz_protocols::spec_by_name;

    fn campaign(name: &str, id: &str, seed: u64, budget: u64) -> FleetCampaign {
        FleetCampaign {
            id: id.into(),
            spec: spec_by_name(name).expect("subject exists"),
            fuzzer: "cmfuzz".into(),
            setups: vec![InstanceSetup::default(); 2],
            options: CampaignOptions {
                instances: 2,
                budget: Ticks::new(budget),
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed,
                worker_pool: false,
                ..CampaignOptions::default()
            },
            share_group: None,
        }
    }

    fn options() -> FleetOptions {
        FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            ..FleetOptions::default()
        }
    }

    #[test]
    fn admission_validates_against_live_entries() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit(campaign("mosquitto", "m/0", 3, 400))
            .expect("first admission");
        let err = manager
            .admit(campaign("mosquitto", "m/0", 5, 400))
            .expect_err("duplicate id against a live entry");
        let CampaignError::Preflight(diagnostics) = err else {
            panic!("expected preflight rejection");
        };
        assert!(diagnostics.iter().any(|d| d.code() == "CM050"));
        assert_eq!(manager.len(), 1, "rejected batch admits nothing");

        // A killed entry releases its id.
        assert!(manager.kill("m/0"));
        manager
            .admit(campaign("mosquitto", "m/0", 5, 400))
            .expect("id is free after the kill");
        assert_eq!(manager.len(), 2);
    }

    #[test]
    fn admission_records_reachability_and_primes_the_policy_once() {
        struct Recorder {
            primed: Vec<(usize, usize)>,
        }
        impl SchedulingPolicy for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn pick(&mut self, eligible: &[usize], slots: usize) -> Vec<usize> {
                eligible[..slots.min(eligible.len())].to_vec()
            }
            fn observe(&mut self, _index: usize, _report: &cmfuzz::campaign::SliceReport) {}
            fn prime(&mut self, index: usize, reachable_branches: usize) {
                self.primed.push((index, reachable_branches));
            }
        }

        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let status = manager.status();
        for row in &status {
            let reachable = row
                .reachable_branches
                .expect("admission certifies a ceiling");
            assert!(
                reachable > 0,
                "{}: a bootable partition reaches branches",
                row.id
            );
        }

        let mut policy = Recorder { primed: Vec::new() };
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(
            policy.primed,
            vec![
                (0, status[0].reachable_branches.unwrap()),
                (1, status[1].reachable_branches.unwrap()),
            ],
            "every admitted campaign primed at its first wave"
        );
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(policy.primed.len(), 2, "priming happens exactly once");

        // Late admission picks up the watermark.
        manager
            .admit(campaign("mosquitto", "m/1", 5, 400))
            .expect("late admit");
        manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(policy.primed.len(), 3);
        assert_eq!(policy.primed[2].0, 2);

        // Outcomes carry the ceiling into the final report.
        while manager.step_wave(&mut policy).expect("wave runs")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let result = manager.finish("recorder").expect("finish");
        for outcome in &result.campaigns {
            assert!(outcome.reachable_branches.is_some());
            assert!(
                outcome.coverage_of_reachable() > 0.0,
                "{} covered some of its certified ceiling",
                outcome.id
            );
        }

        // skip_preflight opts out of reachability certification too.
        let mut skipped = FleetManager::new(
            FleetOptions {
                skip_preflight: true,
                ..options()
            },
            &telemetry,
        );
        skipped
            .admit(campaign("mosquitto", "m/0", 3, 400))
            .expect("admission without preflight");
        assert_eq!(skipped.status()[0].reachable_branches, None);
    }

    #[test]
    fn pause_resume_kill_steer_scheduling_at_wave_boundaries() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let mut policy = RoundRobin::new();

        assert!(manager.pause("m/0"));
        let outcome = manager.step_wave(&mut policy).expect("wave runs");
        assert_eq!(
            outcome,
            WaveOutcome::Ran {
                scheduled: 1,
                progress: true
            },
            "paused campaign is skipped, the other leases the wave"
        );
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Paused);
        assert_eq!(status[0].leases, 0);
        assert_eq!(status[1].state, CampaignState::Active);
        assert_eq!(status[1].leases, 1);

        assert!(manager.resume("m/0"));
        assert!(manager.kill("d/0"));
        while manager.step_wave(&mut policy).expect("wave runs")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[1].state, CampaignState::Killed);
        assert!(
            status[1].consumed < Ticks::new(400),
            "killed campaign kept only its pre-kill progress"
        );
        assert!(manager.all_complete(), "tombstones don't block completion");

        let result = manager.finish("round_robin").expect("finish");
        assert_eq!(result.campaigns.len(), 2);
        assert!(result.campaigns[0].completed);
        assert!(!result.campaigns[1].completed);
    }

    #[test]
    fn late_admission_joins_scheduling_and_stays_deterministic() {
        let telemetry = Telemetry::disabled();
        let run = |late: bool| {
            let mut manager = FleetManager::new(options(), &telemetry);
            manager
                .admit(campaign("mosquitto", "m/0", 3, 300))
                .expect("admit");
            let mut policy = RoundRobin::new();
            if late {
                // One wave alone, then the second campaign joins.
                manager.step_wave(&mut policy).expect("wave");
            }
            manager
                .admit(campaign("dnsmasq", "d/0", 7, 300))
                .expect("late admit");
            while manager.step_wave(&mut policy).expect("wave")
                != WaveOutcome::Idle(IdleReason::NoneEligible)
            {}
            manager.finish("round_robin").expect("finish")
        };
        let late = run(true);
        assert!(late.all_complete());
        // Scheduling order differs, but each campaign's result is
        // slicing-invariant — the late-admission fleet reproduces the
        // up-front fleet's per-campaign results exactly.
        let upfront = run(false);
        for (a, b) in late.campaigns.iter().zip(&upfront.campaigns) {
            assert_eq!(
                format!("{:?}", a.result()),
                format!("{:?}", b.result()),
                "{} drifted across admission orders",
                a.id
            );
        }
    }

    #[test]
    fn extend_budget_keeps_a_finished_campaign_going() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit(campaign("dnsmasq", "d/0", 7, 200))
            .expect("admit");
        let mut policy = RoundRobin::new();
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        assert_eq!(manager.status()[0].state, CampaignState::Complete);

        assert!(!manager.extend_budget("d/0", Ticks::new(100)), "no shrink");
        assert!(manager.extend_budget("d/0", Ticks::new(400)));
        assert_eq!(manager.status()[0].state, CampaignState::Active);
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[0].consumed, Ticks::new(400));
    }

    #[test]
    fn a_hand_driven_wave_split_reproduces_run_fleet() {
        let fleet = vec![
            campaign("mosquitto", "m/0", 3, 300),
            campaign("dnsmasq", "d/0", 7, 300),
            campaign("libcoap", "c/0", 11, 200),
        ];
        let offline =
            crate::run_fleet(&fleet, &mut RoundRobin::new(), &options()).expect("offline fleet");

        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager.admit_batch(fleet).expect("admission");
        let mut policy = RoundRobin::new();
        while let Ok(mut wave) = manager.plan_wave(&mut policy) {
            wave.execute();
            let outcome = manager.commit_wave(wave, &mut policy).expect("commit");
            if !matches!(outcome, WaveOutcome::Ran { progress: true, .. }) {
                break;
            }
        }
        let by_hand = manager.finish(policy.name()).expect("finish");
        assert_eq!(format!("{by_hand:?}"), format!("{offline:?}"));
    }

    #[test]
    fn a_leased_campaign_reports_its_lease_and_is_not_eligible() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(
            FleetOptions {
                slots: 1,
                ..options()
            },
            &telemetry,
        );
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let mut policy = RoundRobin::new();
        manager.step_wave(&mut policy).expect("wave leases m/0");
        manager.step_wave(&mut policy).expect("wave leases d/0");
        let before = manager.status();
        assert_eq!(before[0].consumed, Ticks::new(100));

        let mut first = manager.plan_wave(&mut policy).expect("leases m/0");
        assert!(manager.is_leased("m/0"));
        assert!(!manager.is_leased("d/0"));
        assert!(manager.campaign_result("m/0").is_none());
        let during = manager.status();
        assert_eq!(during[0].state, CampaignState::Active);
        assert_eq!(during[0].leases, 2, "the lease is counted at plan time");
        assert_eq!(during[0].consumed, before[0].consumed);
        assert_eq!(during[0].rounds_done, before[0].rounds_done);
        assert_eq!(during[0].branches, before[0].branches);

        // Only d/0 is eligible while m/0 is out, and then nothing is.
        let mut second = manager.plan_wave(&mut policy).expect("leases d/0");
        assert!(manager.is_leased("d/0"));
        assert_eq!(manager.status()[1].leases, 2);
        assert_eq!(
            manager.plan_wave(&mut policy).err(),
            Some(IdleReason::NoneEligible)
        );

        // An extension of a leased run lands at commit.
        assert!(manager.extend_budget("m/0", Ticks::new(500)));
        first.execute();
        second.execute();
        manager.commit_wave(first, &mut policy).expect("commit");
        manager.commit_wave(second, &mut policy).expect("commit");
        let after = manager.status();
        assert!(!manager.is_leased("m/0"));
        assert_eq!(after[0].consumed, Ticks::new(200));
        assert_eq!(after[0].leases, 2);
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        assert_eq!(manager.status()[0].consumed, Ticks::new(500));
    }

    #[test]
    fn control_between_plan_and_commit_stops_the_slice_at_a_round_boundary() {
        let telemetry = Telemetry::disabled();
        let mut manager = FleetManager::new(options(), &telemetry);
        manager
            .admit_batch(vec![
                campaign("mosquitto", "m/0", 3, 400),
                campaign("dnsmasq", "d/0", 7, 400),
            ])
            .expect("admission");
        let mut policy = RoundRobin::new();
        manager.step_wave(&mut policy).expect("first wave");
        let before = manager.status();

        let mut wave = manager.plan_wave(&mut policy).expect("leases both");
        assert!(manager.is_leased("m/0") && manager.is_leased("d/0"));
        assert!(manager.pause("m/0"));
        assert!(manager.kill("d/0"));
        assert_eq!(manager.status()[0].state, CampaignState::Paused);
        wave.execute();
        assert_eq!(
            manager.commit_wave(wave, &mut policy).expect("commit"),
            WaveOutcome::Ran {
                scheduled: 2,
                progress: false
            },
            "both slices stopped before their first round"
        );
        let after = manager.status();
        for (row, was) in after.iter().zip(&before) {
            assert_eq!(row.consumed, was.consumed, "{} ran no round", row.id);
            assert_eq!(row.leases, 2);
        }
        assert_eq!(
            manager.step_wave(&mut policy).expect("idle"),
            WaveOutcome::Idle(IdleReason::NoneEligible)
        );
        assert_eq!(manager.status()[0].leases, 2, "no lease while paused");

        assert!(manager.resume("m/0"));
        while manager.step_wave(&mut policy).expect("wave")
            != WaveOutcome::Idle(IdleReason::NoneEligible)
        {}
        let status = manager.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[0].consumed, Ticks::new(400));
        assert_eq!(status[1].state, CampaignState::Killed);
        assert_eq!(
            status[1].leases, 2,
            "a killed campaign is never leased again"
        );
    }
}
