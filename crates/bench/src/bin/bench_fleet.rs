//! Measures fleet scheduling policies against the round-robin baseline
//! and records the comparison in `BENCH_fleet.json`.
//!
//! The fleet is the six evaluation subjects, each split into its
//! relation-aware configuration partitions (one single-instance campaign
//! per partition), competing for a fixed total budget that is deliberately
//! smaller than the sum of the per-campaign budgets — so scheduling
//! decisions matter. Every policy runs the same fleet under the same
//! seeds; the coverage-gradient policy must match or beat round-robin's
//! total coverage at equal budget, and a same-seed repeat must reproduce
//! the run exactly. Two separate `--smoke` runs differ only in their
//! `wall_seconds` lines, which CI checks across processes.
//!
//! Every policy run is additionally audited against the configuration-
//! space reachability analyzer: each campaign's JSON row reports the
//! certified-reachable branch ceiling of its partition, the fraction of
//! that ceiling it covered, and how many *proven-dead* branches it
//! covered anyway (`dead_covered`). A non-zero fleet-wide
//! `dead_covered_total` means the analyzer claimed a branch could never
//! fire under the partition and a campaign fired it — an analyzer
//! soundness violation. Exits non-zero if any gate fails, so CI can hold
//! both the scheduler and the analyzer to their claims.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::preflight::analyze_reachability_for;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_bench::report;
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{
    run_fleet, CoverageGradient, FleetCampaign, FleetOptions, FleetResult, RoundRobin,
    SchedulingPolicy, UcbBandit,
};
use cmfuzz_protocols::all_specs;

/// Partitions per subject (relation-aware groups, one campaign each).
const PARTITIONS: usize = 3;

struct BenchScale {
    label: &'static str,
    /// Per-campaign budget in virtual ticks.
    campaign_budget: u64,
    /// Fleet-wide allowance; deliberately less than the sum of campaign
    /// budgets so policies must choose.
    total_budget: u64,
    slice: u64,
    slots: usize,
}

impl BenchScale {
    fn smoke() -> Self {
        BenchScale {
            label: "smoke",
            campaign_budget: 300,
            total_budget: 3000,
            slice: 100,
            slots: 4,
        }
    }

    fn default() -> Self {
        BenchScale {
            label: "default",
            campaign_budget: 600,
            total_budget: 7200,
            slice: 200,
            slots: 4,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = BenchScale::default();
    let mut out = PathBuf::from("BENCH_fleet.json");
    let mut seed: u64 = 0xF1EE7;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => scale = BenchScale::smoke(),
            "--seed" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => seed = n,
                None => usage_error("--seed expects an unsigned integer"),
            },
            "--campaign-budget" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => scale.campaign_budget = n,
                _ => usage_error("--campaign-budget expects a positive tick count"),
            },
            "--total-budget" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => scale.total_budget = n,
                _ => usage_error("--total-budget expects a positive tick count"),
            },
            "--slice" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => scale.slice = n,
                _ => usage_error("--slice expects a positive tick count"),
            },
            "--slots" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => scale.slots = n,
                _ => usage_error("--slots expects a positive worker count"),
            },
            "--out" => match iter.next() {
                Some(path) => out = PathBuf::from(path),
                None => usage_error("--out expects a file path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let fleet = build_fleet(&scale, seed);
    let fleet_options = FleetOptions {
        slots: scale.slots,
        slice: Ticks::new(scale.slice),
        total_budget: Some(Ticks::new(scale.total_budget)),
        skip_preflight: false,
        share_rare_seeds: 0,
    };

    eprintln!(
        "[bench_fleet] {} campaigns, {} ticks each, {} total ({} scale)",
        fleet.len(),
        scale.campaign_budget,
        scale.total_budget,
        scale.label,
    );

    let runs: Vec<(FleetResult, f64)> = [
        Box::new(RoundRobin::new()) as Box<dyn SchedulingPolicy>,
        Box::new(CoverageGradient::new()),
        Box::new(UcbBandit::new()),
    ]
    .into_iter()
    .map(|mut policy| {
        eprintln!("[bench_fleet] scheduling with {}...", policy.name());
        run_policy(&fleet, &fleet_options, policy.as_mut())
    })
    .collect();
    eprintln!("[bench_fleet] determinism: re-running coverage-gradient with the same seed...");
    let (repeat, _) = run_policy(&fleet, &fleet_options, &mut CoverageGradient::new());

    let deterministic = fleet_digest(&repeat) == fleet_digest(&runs[1].0);
    let round_robin = runs[0].0.total_branches();
    let gradient = runs[1].0.total_branches();
    let mut dead_covered_total = 0usize;
    let policy_blocks = runs
        .iter()
        .map(|(result, wall)| {
            let (block, dead_covered) = policy_json(&fleet, result, *wall);
            dead_covered_total += dead_covered;
            block
        })
        .collect::<Vec<_>>()
        .join(",\n");

    #[allow(clippy::cast_precision_loss)]
    let improvement_pct = if round_robin == 0 {
        0.0
    } else {
        (gradient as f64 - round_robin as f64) / round_robin as f64 * 100.0
    };

    let json = format!(
        "{{\n  \"experiment\": \"fleet\",\n  \"scale\": \"{}\",\n  \"machine\": {},\n  \"campaigns\": {},\n  \"seed\": {seed},\n  \"slots\": {},\n  \"slice_ticks\": {},\n  \"campaign_budget_ticks\": {},\n  \"total_budget_ticks\": {},\n  \"deterministic\": {deterministic},\n  \"gradient_vs_round_robin_pct\": {improvement_pct:.2},\n  \"dead_covered_total\": {dead_covered_total},\n  \"policies\": [\n{policy_blocks}\n  ]\n}}\n",
        scale.label,
        report::machine_info_json(),
        fleet.len(),
        scale.slots,
        scale.slice,
        scale.campaign_budget,
        scale.total_budget,
    );
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("[bench_fleet] cannot write {}: {err}", out.display());
        exit(2);
    }
    print!("{json}");

    let mut failed = false;
    if gradient < round_robin {
        eprintln!(
            "[bench_fleet] FAIL: coverage-gradient covered {gradient} branches, \
             round-robin {round_robin} at the same budget"
        );
        failed = true;
    }
    if !deterministic {
        eprintln!("[bench_fleet] FAIL: same-seed coverage-gradient runs diverged");
        failed = true;
    }
    if dead_covered_total > 0 {
        eprintln!(
            "[bench_fleet] FAIL: campaigns covered {dead_covered_total} branches the \
             reachability analyzer proved statically dead — the analyzer is unsound"
        );
        failed = true;
    }
    if failed {
        exit(1);
    }
}

/// Runs the fleet once under `policy`, returning the result and its
/// wall-clock seconds; exits with the campaign's code on failure.
fn run_policy(
    fleet: &[FleetCampaign],
    options: &FleetOptions,
    policy: &mut dyn SchedulingPolicy,
) -> (FleetResult, f64) {
    let started = Instant::now();
    let result = match run_fleet(fleet, policy, options) {
        Ok(result) => result,
        Err(error) => {
            eprintln!(
                "[bench_fleet] fleet failed under {}: {error}",
                policy.name()
            );
            exit(error.exit_code());
        }
    };
    let wall = started.elapsed().as_secs_f64();
    eprintln!(
        "[bench_fleet]   {} branches across {} campaigns ({} completed), {} waves, {:.3}s",
        result.total_branches(),
        result.campaigns.len(),
        result.completed_count(),
        result.waves,
        wall,
    );
    (result, wall)
}

/// Six subjects × their relation-aware partitions, one single-instance
/// campaign per partition.
fn build_fleet(scale: &BenchScale, seed: u64) -> Vec<FleetCampaign> {
    let mut fleet = Vec::new();
    for spec in all_specs() {
        let mut scratch = (spec.build)();
        let schedule = build_schedule(&mut scratch, PARTITIONS, &ScheduleOptions::default());
        let setups = cmfuzz_setups(&schedule, PARTITIONS);
        for (part, setup) in setups.into_iter().enumerate() {
            let options = CampaignOptions {
                instances: 1,
                budget: Ticks::new(scale.campaign_budget),
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed: seed.wrapping_add(fleet.len() as u64 * 7919),
                worker_pool: false,
                ..CampaignOptions::default()
            };
            fleet.push(FleetCampaign {
                id: format!("{}/part-{part}", spec.name),
                spec,
                fuzzer: "cmfuzz".into(),
                setups: vec![setup],
                options,
                share_group: None,
            });
        }
    }
    fleet
}

/// Deterministic fingerprint of everything scheduling influenced (wall
/// times excluded).
fn fleet_digest(result: &FleetResult) -> String {
    let mut digest = format!(
        "{}|{}|{}|{}",
        result.policy,
        result.waves,
        result.leases,
        result.spent.get()
    );
    for outcome in &result.campaigns {
        digest.push_str(&format!(
            "|{}:{}:{}:{}:{}",
            outcome.id,
            outcome.branches(),
            outcome.consumed.get(),
            outcome.leases,
            outcome.completed,
        ));
    }
    digest
}

/// Renders one policy run's JSON block and audits it against the
/// reachability analyzer: each campaign reports its certified-reachable
/// ceiling, the fraction of it covered, and how many *proven-dead*
/// branches it covered anyway. The second return value is the run's total
/// dead-covered count — any non-zero value is a soundness violation (the
/// analyzer claimed a branch could never fire and the campaign fired it)
/// and fails the bench.
fn policy_json(
    fleet: &[FleetCampaign],
    result: &FleetResult,
    wall_seconds: f64,
) -> (String, usize) {
    let mut dead_covered_total = 0usize;
    let campaigns = fleet
        .iter()
        .zip(&result.campaigns)
        .map(|(campaign, outcome)| {
            let occupancy = outcome.checkpoint.corpus_occupancy();
            let reach = analyze_reachability_for(&campaign.spec, &campaign.setups);
            let covered: Vec<u32> = outcome
                .result()
                .coverage
                .covered_ids()
                .map(|id| id.index())
                .collect();
            let dead_covered = reach.dead_covered(&covered).len();
            dead_covered_total += dead_covered;
            let reachable = outcome
                .reachable_branches
                .unwrap_or_else(|| reach.reachable_branch_count());
            format!(
                "        {{\"id\": \"{}\", \"branches\": {}, \"reachable\": {reachable}, \
                 \"coverage_of_reachable\": {:.4}, \"dead_covered\": {dead_covered}, \
                 \"consumed_ticks\": {}, \
                 \"leases\": {}, \"completed\": {}, \"corpus_seeds\": {}, \
                 \"corpus_bytes\": {}}}",
                outcome.id,
                outcome.branches(),
                outcome.coverage_of_reachable(),
                outcome.consumed.get(),
                outcome.leases,
                outcome.completed,
                occupancy.seeds,
                occupancy.approx_bytes,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let block = format!(
        "    {{\n      \"policy\": \"{}\",\n      \"wall_seconds\": {wall_seconds:.3},\n      \
         \"waves\": {},\n      \"leases\": {},\n      \"spent_ticks\": {},\n      \
         \"total_branches\": {},\n      \"completed\": {},\n      \"dead_covered\": {dead_covered_total},\n      \"campaigns\": [\n{campaigns}\n      ]\n    }}",
        result.policy,
        result.waves,
        result.leases,
        result.spent.get(),
        result.total_branches(),
        result.completed_count(),
    );
    (block, dead_covered_total)
}

const USAGE: &str = "usage: bench_fleet [--smoke] [--seed <n>] [--out <path>]\n\
    \n\
    --smoke            small budgets for CI smoke runs (default: the full bench scale)\n\
    --seed             base campaign seed (default: 0xF1EE7)\n\
    --out              where to write the JSON record (default: BENCH_fleet.json)\n\
    --campaign-budget  per-campaign budget in ticks (overrides the scale)\n\
    --total-budget     fleet-wide allowance in ticks (overrides the scale)\n\
    --slice            per-lease slice budget in ticks (overrides the scale)\n\
    --slots            worker slots per wave (overrides the scale)";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}
