//! The traced run: per-layer metrics of one workload.
//!
//! Every layer is reached only through its public functions, wrapped in
//! spans by this file (see [`crate::trace`]):
//!
//! 1. **Set-up layers** — `extract_model`, `quantify_target` (its target
//!    boots counted as startup probes), `allocate` and `build_schedule`
//!    per subject at the workload's partition count, then
//!    `analyze_reachability_for` and `preflight_campaign` per campaign.
//! 2. **Reference** — one untraced pass of the workload itself, the
//!    denominator of `core.campaign.overhead_pct` (for `serve`, the served
//!    window of step 6).
//! 3. **Engine replay** — every instance of every campaign replayed with
//!    its campaign's engine seed, link seed and startup configuration as
//!    `FuzzEngine<Timed<NetworkedTarget<Timed<ProtocolTarget>,
//!    Timed<DatagramLink>>>>`, once untraced and once traced. The traced
//!    replay splits `run_batch` wall time into engine, wrapper, transport
//!    and server self time; comparing the two gives the tracing overhead.
//!    First, one instance run alone by `try_run_campaign` and replayed
//!    must agree, so the replay stays tied to the campaign runner.
//! 4. **Slice overhead** — the first campaign run whole and in 100-tick
//!    `run_campaign_slice` pieces, results asserted identical.
//! 5. **Fleet probe** — the workload's campaigns admitted into a
//!    `FleetManager` and stepped under a timed `CoverageGradient`.
//! 6. **Server probe** — the workload's subjects served by a
//!    `ControlPlane`; the open-loop schedule is issued in-process to
//!    `status`/`result_digest`, then over TCP.
//!
//! Steps 5 and 6 run pinned to one CPU, as the `fleet` and `serve`
//! workloads do (see [`crate::pin_to_one_cpu`]).
//!
//! Every workload goes through every step, so each per-layer metric is
//! measured on each workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmfuzz::allocation::{allocate, AllocationOptions};
use cmfuzz::campaign::{run_campaign_slice, try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::preflight::{preflight_campaign, CampaignReach};
use cmfuzz::relation::{quantify_target, RelationOptions};
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_config_model::{extract_model, ResolvedConfig};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::CoverageGradient;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine, Target};
use cmfuzz_protocols::{all_specs, DatagramLink, NetworkedTarget, ProtocolTarget};
use cmfuzz_server::{parse_json, JsonValue};
use cmfuzz_telemetry::Telemetry;

use crate::stats::{median, tail};
use crate::trace::{self, span, Recorder, Timed, TimedPolicy};
use crate::workloads::{
    self, bounded, dead_covered, fleet_pass, open_loop, submission, tcp_load, Load, Outcome, Plan,
    Progress, Req, Scale, Served, SetupReps, Workload, REPLY_TIMEOUT,
};

use crate::{progress, Report};

/// How long past its window an in-process phase may run before it counts
/// as stalled.
const LATE_LIMIT: Duration = REPLY_TIMEOUT;

const ENGINE: &str = "fuzzer.engine";
const NET: &str = "protocols.net";
const NET_BOOT: &str = "protocols.net.boot";
const TRANSPORT: &str = "protocols.transport";
const SERVER: &str = "protocols.server";
const SERVER_BOOT: &str = "protocols.server.boot";
const PROBE: &str = "core.relation.probe";
const POLICY: &str = "fleet.policy";

/// Mean duration of `layer`'s spans, in microseconds.
fn mean_us(recorder: &Recorder, layer: &str) -> f64 {
    let agg = recorder.layer(layer);
    agg.total_ns as f64 / agg.count.max(1) as f64 / 1e3
}

fn tail_detail(values: &[f64]) -> String {
    tail(values).map_or_else(
        || "n=0".to_owned(),
        |t| format!("p{} n={} beyond={}", t.percentile, t.samples, t.beyond),
    )
}

fn tail_value(values: &[f64]) -> f64 {
    tail(values).map_or(f64::NAN, |t| t.value)
}

/// Runs the traced measurement of `workload` and records every per-layer
/// metric in `report`; with `trace_out`, writes the span aggregates there
/// as JSON.
///
/// # Errors
///
/// Harness failures that leave a layer unmeasured.
pub fn run(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    window: Duration,
    trace_out: Option<&str>,
    report: &mut Report,
) -> Result<(), String> {
    let mut all = Recorder::default();
    let plans = workloads::plans(workload, scale, seed)?;
    let reaches: Vec<CampaignReach> = plans.iter().map(Plan::reach).collect();

    progress("set-up layers");
    setup_layers(workload, scale, &plans, report, &mut all)?;

    progress("reference pass");
    let mut no_reps = SetupReps::new(0, Duration::ZERO, || Ok(0.0));
    let reference = match workload {
        Workload::Campaign | Workload::Lossy => Some(workloads::measure_campaigns(
            &plans,
            &reaches,
            Duration::ZERO,
            &mut no_reps,
        )),
        Workload::Fleet => Some(workloads::measure_fleet(
            &plans,
            &reaches,
            Duration::ZERO,
            &mut no_reps,
        )),
        Workload::Serve => None,
    };
    if let Some(outcome) = &reference {
        report.absorb(outcome.attempted, outcome.failed, &outcome.errors);
    }

    progress("engine replay");
    replay_matches_campaign(&plans[0], scale, report);
    let replay_rate = replay_layers(&plans, scale, report, &mut all);
    progress("slice overhead");
    slice_layer(&plans[0], scale, report);
    progress("fleet probe");
    crate::pin_to_one_cpu();
    fleet_layers(&plans, &reaches, window / 5, report, &mut all);
    progress("server probe");
    let served_rate = server_layers(workload, seed, scale, window, reference.as_ref(), report)?;

    let workload_rate = reference
        .as_ref()
        .map_or(served_rate, |outcome| median(&outcome.pass_rates));
    report.metric(
        "core.campaign.overhead_pct",
        100.0 * (1.0 - workload_rate / replay_rate),
        format!("workload {workload_rate:.0} vs untraced replay {replay_rate:.0} sessions/s"),
    );

    if let Some(path) = trace_out {
        let json = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":{}}}\n",
            workload.name(),
            all.to_json()
        );
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Length of each server-probe phase (in-process, then TCP): short on most
/// workloads, half the window on `serve`, whose traced run it is.
fn probe_window(workload: Workload, window: Duration) -> Duration {
    match workload {
        Workload::Serve => window / 2,
        _ => window / 5,
    }
}

fn setup_layers(
    workload: Workload,
    scale: &Scale,
    plans: &[Plan],
    report: &mut Report,
    all: &mut Recorder,
) -> Result<(), String> {
    let partitions = workload.partitions();
    for _ in 0..scale.setup_reps {
        for spec in all_specs() {
            let mut target = (spec.build)();
            let model = span("config_model.extract", || {
                extract_model(&target.config_space())
            });
            let mut probed = Timed::new((spec.build)(), PROBE, PROBE);
            let graph = span("core.relation.quantify", || {
                quantify_target(&mut probed, &model, &RelationOptions::default())
            });
            span("core.allocation.allocate", || {
                allocate(&graph, partitions, &AllocationOptions::default())
            });
            span("core.schedule.build", || {
                build_schedule(&mut target, partitions, &ScheduleOptions::default())
            });
        }
        for plan in plans {
            span("analyze.reach", || plan.reach());
            let pit = pit::parse(plan.spec.pit_document).map_err(|e| format!("{e}"))?;
            let verdict = span("core.preflight.campaign", || {
                preflight_campaign(&plan.spec, &pit, &plan.setups, &Telemetry::disabled())
            });
            if verdict.has_errors() {
                return Err(format!("{}: preflight rejected the campaign", plan.id));
            }
        }
    }
    let rec = trace::take();
    let reps = scale.setup_reps.max(1) as f64;
    for (metric, layer) in [
        ("config_model.extract_us", "config_model.extract"),
        ("core.relation.quantify_us", "core.relation.quantify"),
        ("core.allocation.allocate_us", "core.allocation.allocate"),
        ("core.schedule.build_us", "core.schedule.build"),
        ("analyze.reach_us", "analyze.reach"),
        ("core.preflight.campaign_us", "core.preflight.campaign"),
    ] {
        report.metric(
            metric,
            mean_us(&rec, layer),
            format!("mean of {} calls", rec.layer(layer).count),
        );
    }
    report.metric(
        "core.relation.startup_probes",
        rec.layer(PROBE).count as f64 / reps,
        "target boots per set-up, six subjects",
    );
    all.merge(&rec);
    Ok(())
}

type TracedTarget = Timed<NetworkedTarget<Timed<ProtocolTarget>, Timed<DatagramLink>>>;

/// Builds instance `i` of `plan` exactly as the campaign runner does —
/// engine seed, link seed, startup configuration (falling back to
/// defaults), session plans — around `target`, and boots it.
/// [`replay_matches_campaign`] checks that it still does.
fn replay_engine<T: Target>(plan: &Plan, i: usize, target: T) -> Result<FuzzEngine<T>, String> {
    let options: &CampaignOptions = &plan.options;
    let pit = pit::parse(plan.spec.pit_document).map_err(|e| format!("{e}"))?;
    let config = EngineConfig {
        // The engine seed of `run_campaign_slice_with_control` in
        // crates/core/src/campaign.rs.
        seed: options
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
        ..options.engine.clone()
    };
    let mut engine = FuzzEngine::new(target, pit, config);
    let setup = &plan.setups[i];
    if engine.start(&setup.initial_config).is_err() {
        engine
            .start(&ResolvedConfig::new())
            .map_err(|e| format!("{}: instance {i} does not boot: {e}", plan.id))?;
    }
    engine.set_session_plans(&setup.session_plans);
    Ok(engine)
}

fn link(plan: &Plan, i: usize) -> DatagramLink {
    DatagramLink::with_conditions(
        &format!("cmfuzz-{}-{i}", plan.spec.name),
        plan.options.link,
        // The link seed of `run_campaign_slice_with_control` in
        // crates/core/src/campaign.rs.
        (plan.options.seed ^ 0x4C49_4E4B_F00D_5EED).wrapping_add(i as u64),
    )
}

/// Checks that the replay builds instances as the campaign runner does:
/// the first instance of `plan`, with adaptive restarts off (the replay
/// has none), run alone by `try_run_campaign` for the slice probe's
/// budget, must end with the statistics and coverage of the same instance
/// replayed for the same sessions.
fn replay_matches_campaign(plan: &Plan, scale: &Scale, report: &mut Report) {
    report.attempted += 1;
    let alone = Plan {
        setups: vec![InstanceSetup {
            adaptive_entities: Vec::new(),
            ..plan.setups[0].clone()
        }],
        options: CampaignOptions {
            instances: 1,
            budget: Ticks::new(scale.slice_budget),
            ..plan.options.clone()
        },
        ..plan.clone()
    };
    let campaign = match try_run_campaign(&alone.spec, "cmfuzz", &alone.setups, &alone.options) {
        Ok(result) => result,
        Err(e) => return report.fail(format!("{}: {e}", alone.id)),
    };
    let target = NetworkedTarget::with_transport((alone.spec.build)(), link(&alone, 0));
    let mut engine = match replay_engine(&alone, 0, target) {
        Ok(engine) => engine,
        Err(e) => return report.fail(e),
    };
    drive(
        &mut engine,
        alone.sessions(),
        alone.options.batch.max(1) as u64,
        false,
    );
    let (replay, run) = (engine.stats(), &campaign.stats);
    let same = (replay.sessions, replay.messages, replay.seeds_retained)
        == (run.sessions, run.messages, run.seeds_retained)
        && *engine.coverage() == campaign.coverage;
    if !same {
        report.fail(format!(
            "{}: the replay no longer reproduces the campaign runner's instance",
            alone.id
        ));
    }
}

/// Drives `engine` for `sessions` sessions in campaign-sized batches,
/// returning the wall seconds spent in `run_batch`.
fn drive<T: Target>(engine: &mut FuzzEngine<T>, sessions: u64, batch: u64, traced: bool) -> f64 {
    let mut left = sessions;
    let started = Instant::now();
    while left > 0 {
        let n = left.min(batch);
        trace::span_if(traced, ENGINE, || engine.run_batch(n as usize));
        left -= n;
    }
    started.elapsed().as_secs_f64()
}

/// Replays every instance untraced and traced; returns the untraced
/// replay rate in sessions per second.
fn replay_layers(plans: &[Plan], scale: &Scale, report: &mut Report, all: &mut Recorder) -> f64 {
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut sessions = 0u64;
    let mut messages = 0u64;
    let mut boots = Recorder::default();
    let mut runs = Recorder::default();
    for plan in plans {
        let per_instance = (plan.sessions() / plan.setups.len() as u64).min(scale.replay_cap);
        let batch = plan.options.batch.max(1) as u64;
        for i in 0..plan.setups.len() {
            report.attempted += 1;
            let target = NetworkedTarget::with_transport((plan.spec.build)(), link(plan, i));
            let mut plain = match replay_engine(plan, i, target) {
                Ok(engine) => engine,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            plain_s += drive(&mut plain, per_instance, batch, false);

            let traced_target: TracedTarget = Timed::new(
                NetworkedTarget::with_transport(
                    Timed::new((plan.spec.build)(), SERVER, SERVER_BOOT),
                    Timed::new(link(plan, i), TRANSPORT, TRANSPORT),
                ),
                NET,
                NET_BOOT,
            );
            let booted = replay_engine(plan, i, traced_target);
            boots.merge(&trace::take());
            let mut traced = match booted {
                Ok(engine) => engine,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            traced_s += drive(&mut traced, per_instance, batch, true);
            runs.merge(&trace::take());
            // The wrappers are transparent: both replays must agree.
            if plain.stats() != traced.stats() || plain.coverage() != traced.coverage() {
                report.fail(format!("{} instance {i}: traced replay diverged", plan.id));
            }
            sessions += traced.stats().sessions;
            messages += traced.stats().messages;
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let engine = runs.layer(ENGINE);
    let server = runs.layer(SERVER);
    let transport = runs.layer(TRANSPORT);
    report.metric(
        "fuzzer.engine.self_ns_per_session",
        per(engine.self_ns, sessions),
        format!("{sessions} sessions replayed"),
    );
    report.metric(
        "protocols.net.self_ns_per_msg",
        per(runs.layer(NET).self_ns, messages),
        format!("{messages} messages"),
    );
    report.metric(
        "protocols.transport.self_ns_per_msg",
        per(transport.self_ns, messages),
        "nested server time excluded",
    );
    report.metric("protocols.transport.calls", transport.count as f64, "");
    report.metric(
        "protocols.server.self_ns_per_msg",
        per(server.self_ns, server.count),
        "per message the server handled",
    );
    report.metric("protocols.server.msgs", server.count as f64, "");
    report.metric(
        "protocols.server.boot_us",
        mean_us(&boots, SERVER_BOOT),
        format!("{} boots", boots.layer(SERVER_BOOT).count),
    );
    // Self times tile their root spans exactly; what this checks is that
    // the spans cover the replay loop's own clock.
    let self_sum: u64 = runs.layers().values().map(|a| a.self_ns).sum();
    let self_sum_pct = 100.0 * self_sum as f64 / (traced_s * 1e9);
    report.metric(
        "trace.self_sum_pct",
        self_sum_pct,
        "self times summed over the traced replay loop's wall clock",
    );
    if (self_sum_pct - 100.0).abs() > 5.0 {
        report.fail(format!(
            "self times cover {self_sum_pct:.1}% of the traced replay's wall clock"
        ));
    }
    let plain_rate = sessions as f64 / plain_s;
    let traced_rate = sessions as f64 / traced_s;
    report.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
        format!("traced {traced_rate:.0} vs untraced {plain_rate:.0} sessions/s"),
    );
    all.merge(&boots);
    all.merge(&runs);
    plain_rate
}

/// Runs `plan` (budget cut to the slice probe's) whole and in 100-tick
/// slices three times each and reports the extra time per slice.
fn slice_layer(plan: &Plan, scale: &Scale, report: &mut Report) {
    let options = CampaignOptions {
        budget: Ticks::new(scale.slice_budget),
        ..plan.options.clone()
    };
    let slice = Ticks::new(100);
    let mut whole_s = Vec::new();
    let mut sliced_s = Vec::new();
    let mut slices = 0u64;
    for _ in 0..3 {
        report.attempted += 1;
        let t = Instant::now();
        let whole = try_run_campaign(&plan.spec, "cmfuzz", &plan.setups, &options);
        whole_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut checkpoint = None;
        slices = 0;
        let sliced = loop {
            match run_campaign_slice(
                &plan.spec,
                "cmfuzz",
                &plan.setups,
                &options,
                checkpoint.take(),
                slice,
            ) {
                Ok((next, slice_report)) => {
                    slices += 1;
                    if slice_report.done {
                        break Ok(next.into_result());
                    }
                    checkpoint = Some(next);
                }
                Err(e) => break Err(e),
            }
        };
        sliced_s.push(t.elapsed().as_secs_f64());
        match (whole, sliced) {
            (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => {}
            (Ok(_), Ok(_)) => report.fail(format!(
                "{}: sliced run differs from the whole run",
                plan.id
            )),
            (Err(e), _) | (_, Err(e)) => report.fail(format!("{}: {e}", plan.id)),
        }
    }
    report.metric(
        "core.campaign.slice_overhead_us",
        (median(&sliced_s) - median(&whole_s)) * 1e6 / slices.max(1) as f64,
        format!("{slices} slices of {}", plan.id),
    );
}

fn fleet_layers(
    plans: &[Plan],
    reaches: &[CampaignReach],
    window: Duration,
    report: &mut Report,
    all: &mut Recorder,
) {
    let mut policy = TimedPolicy::new(CoverageGradient::new(), POLICY);
    let deadline = Instant::now() + window;
    let pass = match fleet_pass(plans, &mut policy, Some(deadline), true, &mut || {}) {
        Ok(pass) => pass,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    let rec = trace::take();
    let waves = pass.wave_ms.len();
    for (outcome, reach) in pass.result.campaigns.iter().zip(reaches) {
        report.attempted += 1;
        let dead = dead_covered(reach, &outcome.result());
        if dead > 0 {
            report.fail(format!(
                "{}: covered {dead} branches proven dead",
                outcome.id
            ));
        }
    }
    report.metric(
        "fleet.manager.admit_us",
        pass.admit_s * 1e6,
        format!("{} campaigns", plans.len()),
    );
    report.metric(
        "fleet.manager.wave_ms.p50",
        median(&pass.wave_ms),
        format!("n={waves}"),
    );
    report.metric(
        "fleet.manager.wave_ms.tail",
        tail_value(&pass.wave_ms),
        tail_detail(&pass.wave_ms),
    );
    report.metric(
        "fleet.policy.us_per_wave",
        rec.layer(POLICY).total_ns as f64 / waves.max(1) as f64 / 1e3,
        format!("{} policy calls", rec.layer(POLICY).count),
    );
    report.metric("fleet.leases", pass.result.leases as f64, "");
    report.metric("fleet.seeds_shared", pass.result.seeds_shared as f64, "");
    all.merge(&rec);
}

/// Counter `name` from the plane's metrics JSON (0 when absent).
fn counter(metrics: &JsonValue, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0) as f64
}

/// Serves the workload's subjects, issues the open-loop schedule
/// in-process and then over TCP, and returns the engine's sessions per
/// second during the TCP phase. Restart and corpus ratios come from
/// `reference` when the workload has one, else from the plane's counters.
fn server_layers(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    window: Duration,
    reference: Option<&Outcome>,
    report: &mut Report,
) -> Result<f64, String> {
    let phase = probe_window(workload, window);
    let mut served = Served::start(&submission(seed), false)?;
    served.wait_all_leased()?;
    report.metric(
        "server.plane.submit_ms",
        served.submit_s * 1e3,
        "submit until ack",
    );

    // In-process: the same schedule against the plane's own methods, on a
    // helper thread so that a stalled plane cannot hang the run.
    let ids: Vec<String> = served.campaigns.iter().map(|(id, _)| id.clone()).collect();
    let plane = Arc::clone(&served.plane);
    let rate = scale.serve_rate;
    let names = ids.clone();
    let inproc = bounded(phase + LATE_LIMIT, move || {
        let mut progress = Progress::default();
        open_loop(phase, rate, names.len(), |req| match req {
            Req::Status => plane
                .status()
                .iter()
                .try_for_each(|row| progress.observe(&row.id, row.consumed.get())),
            Req::Result(i) => plane
                .result_digest(&names[i])
                .map(|_| ())
                .ok_or_else(|| format!("{}: no result", names[i])),
        })
    })
    .unwrap_or_else(|| Load {
        attempted: 1,
        failed: 1,
        errors: vec!["in-process phase stalled on the manager lock".into()],
        ..Load::default()
    });
    report.absorb(inproc.attempted, inproc.failed, &inproc.errors);

    let rows = served.status()?;
    let before = served.sessions(&rows);
    let started = Instant::now();
    let tcp = tcp_load(&mut served, phase, rate);
    let rows = served.status()?;
    let engine_rate = (served.sessions(&rows) - before) as f64 / started.elapsed().as_secs_f64();
    report.absorb(tcp.attempted, tcp.failed, &tcp.errors);

    for (metric, values) in [
        ("server.plane.status_ms", &inproc.status_ms),
        ("server.plane.result_ms", &inproc.result_ms),
        ("server.net.req_ms", &tcp.all_ms),
    ] {
        report.metric(
            &format!("{metric}.p50"),
            median(values),
            format!("n={}", values.len()),
        );
        report.metric(
            &format!("{metric}.tail"),
            tail_value(values),
            tail_detail(values),
        );
    }
    report.metric(
        "server.net.overhead_ms.p50",
        median(&tcp.status_ms) - median(&inproc.status_ms),
        "TCP status p50 minus in-process status p50",
    );
    report.metric(
        "server.net.within_50ms_pct",
        tcp.within_pct(50.0),
        format!(
            "of {} attempted; generator at most {:.3} ms late",
            tcp.attempted, tcp.max_late_ms
        ),
    );
    let hub = served.plane.hub();
    report.metric(
        "telemetry.fanout.events_published",
        hub.events_published() as f64,
        "",
    );
    report.metric(
        "telemetry.fanout.events_dropped",
        hub.events_dropped() as f64,
        "",
    );

    let (restarts, sessions, retained, deduped) = match reference {
        Some(outcome) => (
            outcome.restarts as f64,
            outcome.stats.sessions as f64,
            outcome.stats.seeds_retained as f64,
            outcome.stats.seeds_deduped_exact as f64,
        ),
        None => {
            let metrics = parse_json(&served.plane.metrics_json())
                .map_err(|e| format!("plane metrics are not JSON: {e}"))?;
            (
                counter(&metrics, "campaign.config_mutations"),
                counter(&metrics, "engine.sessions"),
                counter(&metrics, "corpus.retained"),
                counter(&metrics, "corpus.deduped_exact"),
            )
        }
    };
    report.metric(
        "core.campaign.restarts",
        restarts,
        "adaptive configuration restarts",
    );
    report.metric(
        "fuzzer.corpus.retained_per_ksession",
        1e3 * retained / sessions.max(1.0),
        format!("of {sessions} sessions"),
    );
    report.metric(
        "fuzzer.corpus.dedup_exact_per_ksession",
        1e3 * deduped / sessions.max(1.0),
        "exact duplicates dropped",
    );
    if let Some(error) = served.plane.last_error() {
        report.fail(format!("engine stopped: {error}"));
    }
    served.stop()?;
    Ok(engine_rate)
}
