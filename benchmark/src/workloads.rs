//! The four workloads: what each builds from its seed, its set-up phase,
//! and its untraced measurement.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::{try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::metrics::{CampaignResult, CampaignStats};
use cmfuzz::preflight::{analyze_reachability_for, preflight_campaign, CampaignReach};
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{
    CoverageGradient, FleetCampaign, FleetManager, FleetOptions, FleetResult, SchedulingPolicy,
    WaveOutcome,
};
use cmfuzz_fuzzer::pit;
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{all_specs, ProtocolSpec};
use cmfuzz_server::{
    parse_json, serve, BlockingClient, CampaignSubmission, ControlPlane, JsonValue, PlaneOptions,
    Request, ServerOptions, Submission,
};
use cmfuzz_telemetry::Telemetry;

use crate::trace::span_if;

/// Budget of every served campaign: far more than any window executes.
const SERVE_BUDGET: u64 = 1_000_000_000;

/// How long after its window an open loop may still send late requests.
const LATE_SEND_GRACE: Duration = Duration::from_secs(2);

/// How long a control-plane request may wait for its reply before it
/// counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a stopping server may take before it is abandoned.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I CMFuzz cell: six subjects, four instances each.
    Campaign,
    /// The same pipeline over an impaired link.
    Lossy,
    /// Eighteen single-partition campaigns sliced through the fleet manager.
    Fleet,
    /// A served fleet answering an open loop of status and result requests.
    Serve,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::Campaign,
    Workload::Lossy,
    Workload::Fleet,
    Workload::Serve,
];

impl Workload {
    /// Stable name used on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Lossy => "lossy",
            Workload::Fleet => "fleet",
            Workload::Serve => "serve",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Relation-aware partitions per subject: parallel instances of one
    /// campaign, except in `fleet`, where each partition is a campaign.
    #[must_use]
    pub fn partitions(self) -> usize {
        match self {
            Workload::Campaign | Workload::Lossy => 4,
            Workload::Fleet => 3,
            Workload::Serve => 2,
        }
    }

    fn link(self) -> LinkConditions {
        match self {
            // The `--link` value the CI table runs use.
            Workload::Lossy => LinkConditions::new(0.1, 0.05, 0.05),
            _ => LinkConditions::perfect(),
        }
    }
}

/// Sizes of one run: the paper scale, or the smoke scale that keeps every
/// code path and check but cuts the budgets.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measurement window of a run; `--seconds` overrides it.
    pub window: Duration,
    /// Per-instance budget of a `campaign`/`lossy` campaign, in ticks.
    pub campaign_budget: u64,
    /// Per-campaign budget in `fleet`, in ticks.
    pub fleet_budget: u64,
    /// Open-loop request rate of the served load, per second.
    pub serve_rate: u32,
    /// Repetitions of the set-up phase; the median is reported.
    pub setup_reps: usize,
    /// Sessions each instance replays in a traced run.
    pub replay_cap: u64,
    /// Budget of the campaign sliced to measure slice overhead.
    pub slice_budget: u64,
    /// Budget of the untimed warm-up campaign.
    pub warmup_ticks: u64,
}

impl Scale {
    /// The paper-scale workloads.
    #[must_use]
    pub fn paper() -> Self {
        Scale {
            window: Duration::from_secs(20),
            campaign_budget: 20_000,
            fleet_budget: 20_000,
            serve_rate: 50,
            setup_reps: 15,
            replay_cap: 5_000,
            slice_budget: 2_000,
            warmup_ticks: 2_000,
        }
    }

    /// Budgets cut so that all four workloads finish within seconds.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            window: Duration::from_millis(500),
            campaign_budget: 600,
            fleet_budget: 400,
            serve_rate: 50,
            setup_reps: 3,
            replay_cap: 300,
            slice_budget: 400,
            warmup_ticks: 200,
        }
    }
}

/// One campaign of a workload, as the runners take it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Campaign id (also its fleet id).
    pub id: String,
    /// Subject.
    pub spec: ProtocolSpec,
    /// Per-instance setups from the relation-aware schedule.
    pub setups: Vec<InstanceSetup>,
    /// Campaign options, seed and budget included.
    pub options: CampaignOptions,
    /// Rare-seed sharing group (fleet only).
    pub share_group: Option<String>,
}

impl Plan {
    /// The plan as a fleet campaign.
    #[must_use]
    pub fn fleet_campaign(&self) -> FleetCampaign {
        FleetCampaign {
            id: self.id.clone(),
            spec: self.spec,
            fuzzer: "cmfuzz".into(),
            setups: self.setups.clone(),
            options: self.options.clone(),
            share_group: self.share_group.clone(),
        }
    }

    /// Sessions the plan executes when run to its budget.
    #[must_use]
    pub fn sessions(&self) -> u64 {
        let interval = self.options.sample_interval.get().max(1);
        self.options.budget.get() / interval * interval * self.setups.len() as u64
    }

    /// Reachability verdicts of the plan's partitions.
    #[must_use]
    pub fn reach(&self) -> CampaignReach {
        analyze_reachability_for(&self.spec, &self.setups)
    }
}

/// Branches of `result` that `reach` proved dead (must be zero).
#[must_use]
pub fn dead_covered(reach: &CampaignReach, result: &CampaignResult) -> usize {
    let covered: Vec<u32> = result.coverage.covered_ids().map(|id| id.index()).collect();
    reach.dead_covered(&covered).len()
}

/// The served submission: one campaign per subject with two
/// relation-aware partitions as instances, seeds `seed..seed+5`, and a
/// budget no window exhausts.
#[must_use]
pub fn submission(seed: u64) -> Submission {
    Submission {
        campaigns: all_specs()
            .iter()
            .zip(0u64..)
            .map(|(spec, i)| CampaignSubmission {
                id: format!("{}/served", spec.name),
                subject: spec.name.to_owned(),
                instances: Workload::Serve.partitions(),
                budget: SERVE_BUDGET,
                sample_interval: CampaignSubmission::DEFAULT_SAMPLE_INTERVAL,
                saturation_window: CampaignSubmission::DEFAULT_SATURATION_WINDOW,
                seed: seed.wrapping_add(i),
                share_group: None,
                paused: false,
            })
            .collect(),
    }
}

/// The workload's campaigns, derived from `seed` alone.
///
/// # Errors
///
/// Materialization failures of the served submission.
pub fn plans(workload: Workload, scale: &Scale, seed: u64) -> Result<Vec<Plan>, String> {
    if workload == Workload::Serve {
        return Ok(submission(seed)
            .materialize()?
            .into_iter()
            .map(|c| Plan {
                id: c.id,
                spec: c.spec,
                setups: c.setups,
                options: c.options,
                share_group: c.share_group,
            })
            .collect());
    }
    let partitions = workload.partitions();
    let mut plans = Vec::new();
    for spec in all_specs() {
        let mut scratch = (spec.build)();
        let schedule = build_schedule(&mut scratch, partitions, &ScheduleOptions::default());
        let setups = cmfuzz_setups(&schedule, partitions);
        if workload == Workload::Fleet {
            for (part, setup) in setups.into_iter().enumerate() {
                let options = CampaignOptions {
                    instances: 1,
                    budget: Ticks::new(scale.fleet_budget),
                    sample_interval: Ticks::new(100),
                    saturation_window: Ticks::new(200),
                    seed: seed.wrapping_add(plans.len() as u64 * 7919),
                    worker_pool: false,
                    ..CampaignOptions::default()
                };
                plans.push(Plan {
                    id: format!("{}/part-{part}", spec.name),
                    spec,
                    setups: vec![setup],
                    options,
                    share_group: Some(spec.name.to_owned()),
                });
            }
        } else {
            let options = CampaignOptions {
                instances: partitions,
                budget: Ticks::new(scale.campaign_budget),
                sample_interval: Ticks::new(100),
                batch: 16,
                seed: seed.wrapping_add(plans.len() as u64),
                worker_pool: false,
                link: workload.link(),
                ..CampaignOptions::default()
            };
            plans.push(Plan {
                id: format!("{}/cmfuzz", spec.name),
                spec,
                setups,
                options,
                share_group: None,
            });
        }
    }
    Ok(plans)
}

/// Fleet knobs of the `fleet` workload (and the fleet layer probe).
#[must_use]
pub fn fleet_options() -> FleetOptions {
    FleetOptions {
        slots: 2,
        slice: Ticks::new(100),
        total_budget: None,
        skip_preflight: false,
        share_rare_seeds: 4,
    }
}

/// Plane knobs of the `serve` workload (and the server layer probe).
#[must_use]
pub fn plane_options() -> PlaneOptions {
    PlaneOptions {
        fleet: FleetOptions {
            slots: 1,
            slice: Ticks::new(100),
            ..FleetOptions::default()
        },
        policy: "round-robin".into(),
        ..PlaneOptions::default()
    }
}

/// A short untimed campaign that fills caches and finishes lazy set-up.
///
/// # Errors
///
/// Campaign failures.
pub fn warm_up(scale: &Scale, seed: u64) -> Result<(), String> {
    let spec = all_specs().swap_remove(0);
    let options = CampaignOptions {
        instances: 1,
        budget: Ticks::new(scale.warmup_ticks),
        seed,
        worker_pool: false,
        ..CampaignOptions::default()
    };
    try_run_campaign(&spec, "warmup", &[InstanceSetup::default()], &options)
        .map(|_| ())
        .map_err(|e| format!("warm-up: {e}"))
}

/// Runs the workload's set-up phase once, returning the seconds it took
/// and the plans it built.
///
/// - `campaign`, `lossy`: schedule plus preflight for every subject;
/// - `fleet`: schedule plus `FleetManager::admit_batch`;
/// - `serve`: start the plane and its server, then submit (staged paused)
///   until the ack; tear-down is not timed.
///
/// # Errors
///
/// Preflight rejections and harness failures.
pub fn setup(workload: Workload, scale: &Scale, seed: u64) -> Result<(f64, Vec<Plan>), String> {
    let started = Instant::now();
    match workload {
        Workload::Campaign | Workload::Lossy => {
            let plans = plans(workload, scale, seed)?;
            for plan in &plans {
                let pit = pit::parse(plan.spec.pit_document).map_err(|e| format!("{e}"))?;
                let report =
                    preflight_campaign(&plan.spec, &pit, &plan.setups, &Telemetry::disabled());
                if report.has_errors() {
                    return Err(format!("{}: preflight rejected the campaign", plan.id));
                }
            }
            Ok((started.elapsed().as_secs_f64(), plans))
        }
        Workload::Fleet => {
            let plans = plans(workload, scale, seed)?;
            let mut manager = FleetManager::new(fleet_options(), &Telemetry::disabled());
            manager
                .admit_batch(plans.iter().map(Plan::fleet_campaign).collect())
                .map_err(|e| format!("admission: {e}"))?;
            Ok((started.elapsed().as_secs_f64(), plans))
        }
        Workload::Serve => {
            // Staged paused: the engine stays idle, so repetitions measure
            // admission alone and leave no running fleet behind.
            let served = Served::start(&submission(seed), true)?;
            let seconds = started.elapsed().as_secs_f64();
            served.stop()?;
            Ok((seconds, Vec::new()))
        }
    }
}

/// What an untraced (or probe) measurement observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions per second of each pass (one entry per served window).
    pub pass_rates: Vec<f64>,
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Union branches summed over campaigns (first pass).
    pub branches: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused or failed a check.
    pub failed: u64,
    /// Campaign statistics summed over the first pass.
    pub stats: CampaignStats,
    /// Adaptive configuration restarts in the first pass.
    pub restarts: u64,
    /// First failure messages, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn absorb_first_pass(&mut self, pass: usize, result: &CampaignResult) {
        if pass == 0 {
            self.restarts += result.config_mutations.len() as u64;
            let s = &mut self.stats;
            s.sessions += result.stats.sessions;
            s.messages += result.stats.messages;
            s.seeds_retained += result.stats.seeds_retained;
            s.seeds_deduped_exact += result.stats.seeds_deduped_exact;
        }
    }
}

/// Repetitions of a workload's set-up phase, spread over its measurement
/// window: the machine's speed drifts within seconds, so repetitions taken
/// in one burst would all sample the same moment.
pub struct SetupReps<'a> {
    run: Box<dyn FnMut() -> Result<f64, String> + 'a>,
    every: Duration,
    next: Instant,
    left: usize,
    /// Seconds each repetition took.
    pub seconds: Vec<f64>,
    /// Failed repetitions.
    pub errors: Vec<String>,
}

impl<'a> SetupReps<'a> {
    /// `reps` repetitions of `run`, one due every `span / reps`.
    pub fn new(reps: usize, span: Duration, run: impl FnMut() -> Result<f64, String> + 'a) -> Self {
        let every = span / u32::try_from(reps.max(1)).unwrap_or(u32::MAX);
        SetupReps {
            run: Box::new(run),
            every,
            next: Instant::now() + every,
            left: reps,
            seconds: Vec::with_capacity(reps),
            errors: Vec::new(),
        }
    }

    fn run_one(&mut self) {
        self.left -= 1;
        self.next += self.every;
        match (self.run)() {
            Ok(seconds) => self.seconds.push(seconds),
            Err(e) => self.errors.push(e),
        }
    }

    /// Runs the next repetition if it is due; call between operations.
    pub fn tick(&mut self) {
        if self.left > 0 && Instant::now() >= self.next {
            self.run_one();
        }
    }

    /// Runs the remaining repetitions back to back.
    pub fn finish(&mut self) {
        while self.left > 0 {
            self.run_one();
        }
    }
}

/// Runs every plan to its budget with `try_run_campaign`, in passes, until
/// `window` has elapsed (at least one pass). Each pass repeats the same
/// seeds, so every pass must reproduce the first one's branches. The
/// operation timed is a whole pass — the six-subject Table I row.
#[must_use]
pub fn measure_campaigns(
    plans: &[Plan],
    reaches: &[CampaignReach],
    window: Duration,
    reps: &mut SetupReps<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    for pass in 0.. {
        let mut pass_sessions = 0u64;
        let mut pass_wall = 0.0;
        let mut pass_branches = 0;
        for (plan, reach) in plans.iter().zip(reaches) {
            reps.tick();
            let t = Instant::now();
            let result = try_run_campaign(&plan.spec, "cmfuzz", &plan.setups, &plan.options);
            let seconds = t.elapsed().as_secs_f64();
            out.attempted += 1;
            pass_wall += seconds;
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    out.fail(format!("{}: {e}", plan.id));
                    continue;
                }
            };
            if result.stats.sessions != plan.sessions() {
                out.fail(format!(
                    "{}: ran {} sessions, expected {}",
                    plan.id,
                    result.stats.sessions,
                    plan.sessions()
                ));
            }
            let dead = dead_covered(reach, &result);
            if dead > 0 {
                out.fail(format!("{}: covered {dead} branches proven dead", plan.id));
            }
            pass_sessions += result.stats.sessions;
            pass_branches += result.final_branches();
            out.absorb_first_pass(pass, &result);
        }
        if pass == 0 {
            out.branches = pass_branches;
        } else if pass_branches != out.branches {
            out.fail(format!(
                "pass {pass} covered {pass_branches} branches, pass 0 covered {}",
                out.branches
            ));
        }
        out.pass_rates.push(pass_sessions as f64 / pass_wall);
        out.op_ms.push(pass_wall * 1e3);
        if started.elapsed() >= window {
            break;
        }
    }
    out
}

/// One fleet pass: admission, then waves until the fleet is done or
/// `deadline` passes.
#[derive(Debug)]
pub struct FleetPass {
    /// Seconds spent in `admit_batch`.
    pub admit_s: f64,
    /// Duration of each wave that ran, in milliseconds.
    pub wave_ms: Vec<f64>,
    /// Seconds spent stepping waves.
    pub stepping_s: f64,
    /// The fleet's result.
    pub result: FleetResult,
}

/// Admits `plans` into a fresh [`FleetManager`] and steps it under
/// `policy`, calling `between` after every wave; `traced` records
/// admission and waves as spans.
///
/// # Errors
///
/// Admission and slice failures.
pub fn fleet_pass(
    plans: &[Plan],
    policy: &mut dyn SchedulingPolicy,
    deadline: Option<Instant>,
    traced: bool,
    between: &mut dyn FnMut(),
) -> Result<FleetPass, String> {
    let mut manager = FleetManager::new(fleet_options(), &Telemetry::disabled());
    let campaigns: Vec<FleetCampaign> = plans.iter().map(Plan::fleet_campaign).collect();
    let t = Instant::now();
    span_if(traced, "fleet.manager.admit", || {
        manager.admit_batch(campaigns)
    })
    .map_err(|e| format!("admission: {e}"))?;
    let admit_s = t.elapsed().as_secs_f64();
    let mut wave_ms = Vec::new();
    let mut stepping_s = 0.0;
    while deadline.is_none_or(|d| Instant::now() < d) {
        let t = Instant::now();
        let outcome = span_if(traced, "fleet.manager.wave", || manager.step_wave(policy))
            .map_err(|e| format!("wave: {e}"))?;
        let seconds = t.elapsed().as_secs_f64();
        let WaveOutcome::Ran { progress, .. } = outcome else {
            break;
        };
        wave_ms.push(seconds * 1e3);
        stepping_s += seconds;
        if !progress {
            break;
        }
        between();
    }
    let result = manager
        .finish(policy.name())
        .map_err(|e| format!("finish: {e}"))?;
    Ok(FleetPass {
        admit_s,
        wave_ms,
        stepping_s,
        result,
    })
}

/// Runs fleet passes until `window` has elapsed (at least one), checking
/// that every campaign completes, the fleet spends exactly its budget, and
/// no campaign covers a branch proven dead.
#[must_use]
pub fn measure_fleet(
    plans: &[Plan],
    reaches: &[CampaignReach],
    window: Duration,
    reps: &mut SetupReps<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    for pass in 0.. {
        let mut between = || reps.tick();
        let fleet = match fleet_pass(
            plans,
            &mut CoverageGradient::new(),
            None,
            false,
            &mut between,
        ) {
            Ok(fleet) => fleet,
            Err(e) => {
                out.attempted += plans.len() as u64;
                out.fail(e);
                break;
            }
        };
        let sessions = check_fleet(&fleet.result, plans, reaches, pass, &mut out);
        out.op_ms.extend(&fleet.wave_ms);
        out.pass_rates.push(sessions as f64 / fleet.stepping_s);
        if started.elapsed() >= window {
            break;
        }
    }
    out
}

/// Folds one complete fleet result into `out`, with its checks, and
/// returns the sessions its campaigns executed.
fn check_fleet(
    result: &FleetResult,
    plans: &[Plan],
    reaches: &[CampaignReach],
    pass: usize,
    out: &mut Outcome,
) -> u64 {
    let budget: u64 = plans.iter().map(|p| p.options.budget.get()).sum();
    if result.spent.get() != budget {
        out.fail(format!(
            "fleet spent {} ticks, expected {budget}",
            result.spent.get()
        ));
    }
    let mut branches = 0;
    let mut sessions = 0;
    for ((outcome, plan), reach) in result.campaigns.iter().zip(plans).zip(reaches) {
        out.attempted += 1;
        let campaign = outcome.result();
        if !outcome.completed {
            out.fail(format!("{}: incomplete", plan.id));
        }
        let dead = dead_covered(reach, &campaign);
        if dead > 0 {
            out.fail(format!("{}: covered {dead} branches proven dead", plan.id));
        }
        branches += campaign.final_branches();
        sessions += campaign.stats.sessions;
        out.absorb_first_pass(pass, &campaign);
    }
    if pass == 0 {
        out.branches = branches;
    } else if branches != out.branches {
        out.fail(format!(
            "pass {pass} covered {branches} branches, pass 0 covered {}",
            out.branches
        ));
    }
    sessions
}

/// One request of the served load.
#[derive(Debug, Clone, Copy)]
pub enum Req {
    /// `status` for every campaign.
    Status,
    /// `result` of the campaign at this index.
    Result(usize),
}

/// What an open-loop schedule observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Latency of every request, from its due time, in milliseconds.
    pub all_ms: Vec<f64>,
    /// Latency of `status` requests.
    pub status_ms: Vec<f64>,
    /// Latency of `result` requests.
    pub result_ms: Vec<f64>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that errored or failed a check.
    pub failed: u64,
    /// Latest the generator sent any request after its due time, in ms.
    pub max_late_ms: f64,
    /// First failure messages.
    pub errors: Vec<String>,
}

impl Load {
    /// Share of attempted requests answered within `limit_ms`; failures
    /// count as missing the limit.
    #[must_use]
    pub fn within_pct(&self, limit_ms: f64) -> f64 {
        let hits = self.all_ms.iter().filter(|&&ms| ms <= limit_ms).count();
        100.0 * hits as f64 / self.attempted.max(1) as f64
    }
}

/// An open loop at `rate` requests per second for `window`: three of four
/// requests are `status`, one is `result` (round-robin over `campaigns`
/// campaigns). Each request is sent when due, or at once when the
/// previous reply came late, and timed from its due time.
pub fn open_loop(
    window: Duration,
    rate: u32,
    campaigns: usize,
    mut issue: impl FnMut(Req) -> Result<(), String>,
) -> Load {
    let mut load = Load::default();
    let period = Duration::from_secs(1) / rate.max(1);
    let start = Instant::now();
    for k in 0u32.. {
        let offset = period * k;
        if offset >= window {
            break;
        }
        if start.elapsed() >= window + LATE_SEND_GRACE {
            // The system fell so far behind that requests due inside the
            // window could not even be sent: each counts as refused.
            let unsent = (window.as_nanos() - offset.as_nanos()).div_ceil(period.as_nanos());
            load.attempted += unsent as u64;
            load.failed += unsent as u64;
            load.errors.push(format!(
                "{unsent} requests due in the window were never sent"
            ));
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        load.max_late_ms = load.max_late_ms.max(late.as_secs_f64() * 1e3);
        let req = if k % 4 == 3 {
            Req::Result((k / 4) as usize % campaigns.max(1))
        } else {
            Req::Status
        };
        let answer = issue(req);
        let ms = due.elapsed().as_secs_f64() * 1e3;
        load.attempted += 1;
        match answer {
            Ok(()) => {
                load.all_ms.push(ms);
                match req {
                    Req::Status => load.status_ms.push(ms),
                    Req::Result(_) => load.result_ms.push(ms),
                }
            }
            Err(e) => {
                load.failed += 1;
                if load.errors.len() < 8 {
                    load.errors.push(e);
                }
            }
        }
    }
    load
}

/// Consumption seen per campaign, to check it never decreases.
#[derive(Debug, Default)]
pub struct Progress {
    consumed: BTreeMap<String, u64>,
}

impl Progress {
    /// Records `consumed` for `id`, failing if it went backwards.
    ///
    /// # Errors
    ///
    /// A message naming the campaign whose consumption decreased.
    pub fn observe(&mut self, id: &str, consumed: u64) -> Result<(), String> {
        let last = self.consumed.entry(id.to_owned()).or_insert(0);
        if consumed < *last {
            return Err(format!("{id}: consumed went from {last} to {consumed}"));
        }
        *last = consumed;
        Ok(())
    }
}

fn ok_reply(line: &str) -> Result<JsonValue, String> {
    let value = parse_json(line).map_err(|e| format!("reply is not JSON ({e}): {line}"))?;
    if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("reply not ok: {line}"));
    }
    Ok(value)
}

/// Checks one wire reply: JSON with `ok: true`, and for `status`, every
/// campaign's `consumed` non-decreasing.
///
/// # Errors
///
/// What was wrong with the reply.
pub fn check_reply(req: Req, line: &str, progress: &mut Progress) -> Result<(), String> {
    let value = ok_reply(line)?;
    match req {
        Req::Status => {
            let rows = value
                .get("campaigns")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("status without campaigns: {line}"))?;
            for row in rows {
                let id = row.get("id").and_then(JsonValue::as_str);
                let consumed = row.get("consumed").and_then(JsonValue::as_u64);
                let (Some(id), Some(consumed)) = (id, consumed) else {
                    return Err(format!("malformed status row: {line}"));
                };
                progress.observe(id, consumed)?;
            }
        }
        Req::Result(_) => {
            value
                .get("digest")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("result without digest: {line}"))?;
        }
    }
    Ok(())
}

/// Serves the workload's submission and drives the open loop over the
/// submitting connection for `window`: sessions per second are the
/// engine's during the window, branches are summed from the final status.
#[must_use]
pub fn measure_serve(seed: u64, rate: u32, window: Duration) -> (Outcome, Load) {
    let mut out = Outcome::default();
    let mut load = Load::default();
    let measured = Served::start(&submission(seed), false).and_then(|mut served| {
        served.wait_all_leased()?;
        let rows = served.status()?;
        let before = served.sessions(&rows);
        let started = Instant::now();
        load = tcp_load(&mut served, window, rate);
        let wall = started.elapsed().as_secs_f64();
        let rows = served.status()?;
        out.pass_rates
            .push((served.sessions(&rows) - before) as f64 / wall);
        out.branches = rows.iter().map(|row| row.branches as usize).sum();
        served.stop()
    });
    out.op_ms.clone_from(&load.all_ms);
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.errors.extend(load.errors.iter().cloned());
    if let Err(e) = measured {
        out.attempted += 1;
        out.fail(e);
    }
    (out, load)
}

/// The open loop over `served`'s own connection, every reply checked.
pub fn tcp_load(served: &mut Served, window: Duration, rate: u32) -> Load {
    let ids: Vec<String> = served.campaigns.iter().map(|(id, _)| id.clone()).collect();
    let mut progress = Progress::default();
    open_loop(window, rate, ids.len(), |req| {
        let request = match req {
            Req::Status => Request::Status,
            Req::Result(i) => Request::Result { id: ids[i].clone() },
        };
        let line = served.request(&request)?;
        check_reply(req, &line, &mut progress)
    })
}

/// Runs `f` on its own thread and waits at most `limit` for it. A call
/// that does not return in time is abandoned (its thread ends with the
/// process) and yields `None`.
pub fn bounded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let mut handle = Some(std::thread::spawn(f));
    join_within(&mut handle, limit).and_then(Result::ok)
}

/// Joins `handle` if its thread finishes within `limit`.
fn join_within<T>(
    handle: &mut Option<std::thread::JoinHandle<T>>,
    limit: Duration,
) -> Option<std::thread::Result<T>> {
    let deadline = Instant::now() + limit;
    while handle.as_ref().is_some_and(|h| !h.is_finished()) {
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.take().map(std::thread::JoinHandle::join)
}

/// One campaign row of a `status` reply.
#[derive(Debug, Clone)]
pub struct Row {
    /// Campaign id.
    pub id: String,
    /// Virtual ticks consumed.
    pub consumed: u64,
    /// Union branches.
    pub branches: u64,
    /// Slices leased.
    pub leases: u64,
}

type ServerThread = std::thread::JoinHandle<std::io::Result<cmfuzz_server::ServeSummary>>;

/// A control plane serving on loopback with its submission acknowledged,
/// reached only over its TCP connection (whose replies time out) so that
/// a stalled plane cannot hang the benchmark. Dropping it stops the
/// server and the plane.
pub struct Served {
    /// The plane, for in-process probes.
    pub plane: Arc<ControlPlane>,
    client: BlockingClient,
    /// Set once a reply timed out: a late reply may still arrive, so the
    /// connection can no longer pair requests with replies.
    broken: bool,
    /// Campaign ids and instance counts, in submission order.
    pub campaigns: Vec<(String, u64)>,
    /// Seconds from sending `submit` to reading its ack.
    pub submit_s: f64,
    kill: Arc<AtomicBool>,
    server: Option<ServerThread>,
}

impl Served {
    /// Starts a plane with [`plane_options`], serves it with default
    /// [`ServerOptions`] on an ephemeral loopback port, and submits
    /// `submission` (every campaign staged paused when `paused`) over one
    /// connection until the ack.
    ///
    /// # Errors
    ///
    /// Plane, socket and admission failures.
    pub fn start(submission: &Submission, paused: bool) -> Result<Self, String> {
        let mut submission = submission.clone();
        for campaign in &mut submission.campaigns {
            campaign.paused = paused;
        }
        let plane = Arc::new(ControlPlane::start(plane_options())?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let kill = Arc::new(AtomicBool::new(false));
        let options = ServerOptions {
            kill_override: Some(Arc::clone(&kill)),
            ..ServerOptions::default()
        };
        let server_plane = Arc::clone(&plane);
        let mut server = Some(std::thread::spawn(move || {
            serve(&listener, &server_plane, &options)
        }));
        let client = match BlockingClient::connect(&addr, REPLY_TIMEOUT) {
            Ok(client) => client,
            Err(e) => {
                kill.store(true, Ordering::Release);
                join_within(&mut server, STOP_GRACE);
                return Err(format!("connect: {e}"));
            }
        };
        let mut served = Served {
            plane,
            client,
            broken: false,
            campaigns: submission
                .campaigns
                .iter()
                .map(|c| (c.id.clone(), c.instances as u64))
                .collect(),
            submit_s: 0.0,
            kill,
            server,
        };
        let t = Instant::now();
        let reply = served.request(&Request::Submit(submission))?;
        served.submit_s = t.elapsed().as_secs_f64();
        let reply = ok_reply(&reply)?;
        let admitted = reply.get("admitted").and_then(JsonValue::as_array);
        if admitted.map(<[JsonValue]>::len) != Some(served.campaigns.len()) {
            return Err("submit: ack does not list every campaign".into());
        }
        Ok(served)
    }

    /// Sends one request and returns its reply line.
    ///
    /// # Errors
    ///
    /// Socket failures and reply timeouts; after a timeout every later
    /// request fails at once.
    pub fn request(&mut self, request: &Request) -> Result<String, String> {
        if self.broken {
            return Err("connection abandoned after a reply timeout".into());
        }
        self.client.request(request).map_err(|e| {
            self.broken = true;
            format!("request: {e}")
        })
    }

    /// Every campaign's row, from a `status` request.
    ///
    /// # Errors
    ///
    /// Request failures and malformed replies.
    pub fn status(&mut self) -> Result<Vec<Row>, String> {
        let line = self.request(&Request::Status)?;
        let value = ok_reply(&line)?;
        let rows = value
            .get("campaigns")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("status without campaigns: {line}"))?;
        rows.iter()
            .map(|row| {
                let text = |k: &str| row.get(k).and_then(JsonValue::as_str);
                let num = |k: &str| row.get(k).and_then(JsonValue::as_u64);
                Some(Row {
                    id: text("id")?.to_owned(),
                    consumed: num("consumed")?,
                    branches: num("branches")?,
                    leases: num("leases")?,
                })
            })
            .collect::<Option<Vec<Row>>>()
            .ok_or_else(|| format!("malformed status row: {line}"))
    }

    /// Engine sessions behind `rows`: consumed ticks times instances.
    #[must_use]
    pub fn sessions(&self, rows: &[Row]) -> u64 {
        rows.iter()
            .map(|row| {
                let instances = self
                    .campaigns
                    .iter()
                    .find(|(id, _)| *id == row.id)
                    .map_or(1, |(_, n)| *n);
                row.consumed * instances
            })
            .sum()
    }

    /// Waits until every campaign has been leased at least once.
    ///
    /// # Errors
    ///
    /// Request failures, or 30 seconds passing first.
    pub fn wait_all_leased(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.status()?.iter().all(|row| row.leases > 0) {
            if Instant::now() >= deadline {
                return Err("campaigns were not all scheduled within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Stops the server and the plane.
    ///
    /// # Errors
    ///
    /// The server still running after the shutdown request and its
    /// kill-switch input; it is then abandoned to end with the process.
    pub fn stop(mut self) -> Result<(), String> {
        if self.shut_down() {
            Ok(())
        } else {
            Err("server did not stop; abandoned".into())
        }
    }

    /// `shutdown` over the wire (the server answers it without taking the
    /// manager lock), then the kill-switch input, each with a bounded wait.
    fn shut_down(&mut self) -> bool {
        if self.server.is_none() {
            return true;
        }
        if self.request(&Request::Shutdown).is_ok()
            && join_within(&mut self.server, STOP_GRACE).is_some()
        {
            return true;
        }
        self.kill.store(true, Ordering::Release);
        join_within(&mut self.server, STOP_GRACE).is_some()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // The plane's own drop joins its engine thread once the server
        // thread has released its handle.
        self.shut_down();
    }
}
