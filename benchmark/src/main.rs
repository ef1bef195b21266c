//! `cmfuzz-benchmark`: the repository benchmark.
//!
//! ```text
//! cmfuzz-benchmark run --workload <name> --seed <u64> [--seconds <n>]
//!                      [--trace 0|1] [--trace-out <file>] [--smoke]
//! cmfuzz-benchmark calibrate [--seed <u64>] [--smoke]
//! ```
//!
//! `run` executes one workload, checks its outputs, prints every metric as
//! `<workload> <metric> <value> <unit>` and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! report the per-layer metrics. It exits 1 when any check fails.
//! `--seconds` sets the measurement window (default 20 s, the `run_seconds`
//! of `BENCHMARK.json`; 0.5 s with `--smoke`); a run still going after one
//! and a half windows plus a minute is stopped as a failure.
//!
//! `calibrate` runs each workload five times on one seed, each in its own
//! process, and reports per metric the median, quartiles and spread, the
//! bound it proposes, and the metrics that do not repeat within a tenth.
//! See `README.md` next to this file.

mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cmfuzz_server::{parse_json, JsonValue};

use crate::workloads::{Outcome, Plan, Scale, Workload};

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: reported by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sessions_per_s", "sessions/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("branches", "branches", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

/// Per-layer metrics: reported by every traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("config_model.extract_us", "us", "lower"),
    layer("core.relation.quantify_us", "us", "lower"),
    layer("core.relation.startup_probes", "count", "lower"),
    layer("core.allocation.allocate_us", "us", "lower"),
    layer("core.schedule.build_us", "us", "lower"),
    layer("analyze.reach_us", "us", "lower"),
    layer("core.preflight.campaign_us", "us", "lower"),
    layer("fuzzer.engine.self_ns_per_session", "ns", "lower"),
    layer("protocols.net.self_ns_per_msg", "ns", "lower"),
    layer("protocols.transport.self_ns_per_msg", "ns", "lower"),
    layer("protocols.transport.calls", "count", "lower"),
    layer("protocols.server.self_ns_per_msg", "ns", "lower"),
    layer("protocols.server.msgs", "count", "higher"),
    layer("protocols.server.boot_us", "us", "lower"),
    layer("core.campaign.restarts", "count", "higher"),
    layer("core.campaign.overhead_pct", "%", "lower"),
    layer("core.campaign.slice_overhead_us", "us", "lower"),
    layer(
        "fuzzer.corpus.retained_per_ksession",
        "1/ksession",
        "higher",
    ),
    layer(
        "fuzzer.corpus.dedup_exact_per_ksession",
        "1/ksession",
        "lower",
    ),
    layer("fleet.manager.admit_us", "us", "lower"),
    layer("fleet.manager.wave_ms.p50", "ms", "lower"),
    layer("fleet.manager.wave_ms.tail", "ms", "lower"),
    layer("fleet.policy.us_per_wave", "us", "lower"),
    layer("fleet.leases", "count", "higher"),
    layer("fleet.seeds_shared", "count", "higher"),
    layer("server.plane.submit_ms", "ms", "lower"),
    layer("server.plane.status_ms.p50", "ms", "lower"),
    layer("server.plane.status_ms.tail", "ms", "lower"),
    layer("server.plane.result_ms.p50", "ms", "lower"),
    layer("server.plane.result_ms.tail", "ms", "lower"),
    layer("server.net.req_ms.p50", "ms", "lower"),
    layer("server.net.req_ms.tail", "ms", "lower"),
    layer("server.net.overhead_ms.p50", "ms", "lower"),
    layer("server.net.within_50ms_pct", "%", "higher"),
    layer("telemetry.fanout.events_published", "count", "higher"),
    layer("telemetry.fanout.events_dropped", "count", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.self_sum_pct", "%", "higher"),
];

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Whether `name` is a valid metric or workload name.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics, counts and notes one run reports.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    metrics: Vec<(&'static MetricDef, f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused or failed a check.
    pub failed: u64,
    /// Failure messages.
    pub errors: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        Report {
            workload: workload.name(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records metric `name` (declared in [`END_TO_END`] or [`PER_LAYER`])
    /// with a free-form detail printed after its unit.
    pub fn metric(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        self.metrics.push((def(name), value, detail.into()));
    }

    /// Counts `failed` of `attempted` operations and keeps their messages.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.absorb(1, 1, &[message.into()]);
    }

    /// Prints every metric line and the final JSON line; returns whether
    /// the run is correct. A run is correct when nothing failed and every
    /// declared metric of `expected` was reported with a finite value.
    fn emit(mut self, expected: &[MetricDef]) -> bool {
        for want in expected {
            match self.metrics.iter().find(|(d, _, _)| d.name == want.name) {
                Some((_, value, _)) if value.is_finite() => {}
                Some(_) => self.fail(format!("{} is not a finite number", want.name)),
                None => self.fail(format!("{} was not measured", want.name)),
            }
        }
        self.metrics
            .retain(|(d, _, _)| expected.iter().any(|w| w.name == d.name));
        for message in &self.errors {
            println!("# FAIL {message}");
        }
        let mut json = String::new();
        for (d, value, detail) in &self.metrics {
            let value = if value.is_finite() { *value } else { 0.0 };
            println!("{} {} {value} {} {detail}", self.workload, d.name, d.unit);
            if !json.is_empty() {
                json.push(',');
            }
            let _ = write!(
                json,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                d.name, d.unit
            );
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPUs this process may run on, from `Cpus_allowed_list` ("0-3,6").
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut bounds = part.split('-').map(|n| n.trim().parse::<usize>());
        match (bounds.next(), bounds.next()) {
            (Some(Ok(lo)), Some(Ok(hi))) => cpus.extend(lo..=hi),
            (Some(Ok(cpu)), None) => cpus.push(cpu),
            _ => {}
        }
    }
    cpus
}

/// Moves every thread of this process, and so every thread it starts
/// later, onto one CPU (the last one allowed) through `taskset`, and says
/// so on standard output; when `taskset` fails the run goes on unpinned
/// and says that instead.
///
/// Only what spreads work over threads runs pinned: the `fleet` workload
/// (two slots) and the `serve` workload (the served control plane), each
/// from its start, and the fleet and server probes that end every traced
/// run. The single-threaded `campaign` and `lossy` use every CPU the
/// process is allowed. See README.md, "Machine and load", for the runs
/// behind this: unpinned on a two-vCPU virtual machine, 13 of 17 `serve`
/// runs starved requests past their reply timeout (pinned, 13 of 13
/// passed), and in ten alternating pairs the IQR of `fleet`'s sessions per
/// second was 30% of the median unpinned against 10.5% pinned.
pub fn pin_to_one_cpu() {
    let pid = std::process::id().to_string();
    let pinned = allowed_cpus().last().copied().filter(|cpu| {
        Command::new("taskset")
            .args(["-a", "-p", "-c", &cpu.to_string(), &pid])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|status| status.success())
    });
    match pinned {
        Some(cpu) => println!("# pinned: from here on every thread of the run shares cpu {cpu}"),
        None => println!("# unpinned: taskset could not pin the run"),
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    scale: Scale,
    window: Duration,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
}

/// Longest window `--seconds` accepts: with [`run_deadline`] it keeps
/// every run under three minutes.
const MAX_SECONDS: f64 = 60.0;

const USAGE: &str = "usage:
  cmfuzz-benchmark run --workload <campaign|lossy|fleet|serve> --seed <u64>
                       [--seconds <n>] [--trace 0|1] [--trace-out <file>] [--smoke]
  cmfuzz-benchmark calibrate [--seed <u64>] [--smoke]";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let scale = if smoke {
        Scale::smoke()
    } else {
        Scale::paper()
    };
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        scale,
        window: seconds.map_or(scale.window, Duration::from_secs_f64),
        trace,
        trace_out,
        smoke,
    })
}

/// Prints the run's header; called before anything is pinned, so the
/// parallelism it reports is the machine's.
fn header(args: &RunArgs) {
    let w = args.workload;
    println!(
        "# cmfuzz-benchmark run workload={} seed={} seconds={} trace={} scale={}",
        w.name(),
        args.seed,
        args.window.as_secs_f64(),
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "paper" }
    );
    println!(
        "# machine available_parallelism={} os={} arch={}",
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    // The only load generator is the served workload's client (also the
    // traced runs' server probe): one thread on one connection. Everything
    // else is a closed loop of library calls on the calling thread.
    let open_loop = w == Workload::Serve || args.trace;
    let (threads, connections) = if open_loop { (1, 1) } else { (0, 0) };
    assert!(
        threads <= nproc() && connections <= nproc(),
        "load generator exceeds available parallelism"
    );
    if open_loop {
        println!(
            "# load generator_threads={threads} connections={connections} loop=open rate={}/s mix=3status:1result latency=from-due-time",
            args.scale.serve_rate
        );
    } else {
        println!(
            "# load generator_threads={threads} connections={connections} loop=closed (operations back to back on the calling thread)"
        );
    }
    println!(
        "# network: fuzzed traffic crosses each instance's in-process cmfuzz-netsim namespace, not loopback; control-plane requests use 127.0.0.1 TCP"
    );
}

/// Sample count and quartile spread of `values`, for the detail column.
fn spread_detail(values: &[f64]) -> String {
    match stats::iqr_share(values) {
        Some(iqr) => format!("n={} iqr={:.1}%", values.len(), iqr * 100.0),
        None => format!("n={}", values.len()),
    }
}

/// One progress line on standard error.
pub fn progress(message: &str) {
    eprintln!("[cmfuzz-benchmark] {message}");
}

fn untraced(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let (workload, seed, scale, window) = (args.workload, args.seed, &args.scale, args.window);
    let (_, plans) = workloads::setup(workload, scale, seed)?;
    let reaches: Vec<_> = plans.iter().map(Plan::reach).collect();
    // Set-up repetitions run spread over the measurement window, between
    // operations, because the speed a ~10 ms set-up sees drops by up to
    // half for stretches of about a second. The served workload cannot
    // interleave them with its load, so it runs them back to back before
    // the window: spaced out with idle gaps between them, they read up to
    // 1.7 times slower for seconds at a time.
    let span = match workload {
        Workload::Serve => Duration::ZERO,
        _ => window,
    };
    let mut reps = workloads::SetupReps::new(scale.setup_reps, span, || {
        workloads::setup(workload, scale, seed).map(|(seconds, _)| seconds)
    });
    progress(&format!("measuring for {window:?}"));
    let outcome: Outcome = match workload {
        Workload::Campaign | Workload::Lossy => {
            workloads::measure_campaigns(&plans, &reaches, window, &mut reps)
        }
        Workload::Fleet => workloads::measure_fleet(&plans, &reaches, window, &mut reps),
        Workload::Serve => {
            reps.finish();
            let (outcome, load) = workloads::measure_serve(seed, scale.serve_rate, window);
            println!(
                "serve generator_max_late_ms {} ms (latest send after its due time)",
                load.max_late_ms
            );
            if let Some(t) = stats::tail(&load.all_ms) {
                println!(
                    "serve req_tail_ms {} ms p{} n={} beyond={}",
                    t.value, t.percentile, t.samples, t.beyond
                );
            }
            println!(
                "serve req_within_50ms_pct {} % of {} attempted",
                load.within_pct(50.0),
                load.attempted
            );
            outcome
        }
    };
    reps.finish();
    report.absorb(
        scale.setup_reps as u64,
        reps.errors.len() as u64,
        &reps.errors,
    );
    report.absorb(outcome.attempted, outcome.failed, &outcome.errors);
    report.metric(
        "sessions_per_s",
        stats::median(&outcome.pass_rates),
        format!(
            "passes={} {}",
            outcome.pass_rates.len(),
            spread_detail(&outcome.pass_rates)
        ),
    );
    report.metric(
        "setup_s",
        stats::median(&reps.seconds),
        spread_detail(&reps.seconds),
    );
    report.metric(
        "op_p50_ms",
        stats::median(&outcome.op_ms),
        spread_detail(&outcome.op_ms),
    );
    report.metric("branches", outcome.branches as f64, "summed over campaigns");
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "VmHWM"),
        None => report.fail("cannot read VmHWM from /proc/self/status"),
    }
    Ok(())
}

/// What a run may take beyond one and a half windows (a traced `serve`
/// run measures for 1.2 windows) before it counts as stuck.
const RUN_MARGIN: Duration = Duration::from_secs(60);

/// How long a run with measurement window `window` may take before it is
/// stuck, not slow.
fn run_deadline(window: Duration) -> Duration {
    window.mul_f64(1.5) + RUN_MARGIN
}

/// Ends a stuck run: after `deadline` it prints a failed result line and
/// exits with code 1. The served workload can stall when the control
/// plane's engine thread keeps winning the manager lock (see README.md,
/// "Known causes"); a stalled run must still end, and end as a failure.
fn watchdog(workload: Workload, deadline: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        println!("# FAIL {} run exceeded {deadline:?}", workload.name());
        println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
        std::process::exit(1);
    });
}

fn run_cmd(args: &[String]) -> ExitCode {
    let args = match parse_run(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    header(&args);
    watchdog(args.workload, run_deadline(args.window));
    if !args.trace && matches!(args.workload, Workload::Fleet | Workload::Serve) {
        pin_to_one_cpu();
    }
    let mut report = Report::new(args.workload);
    let measured = workloads::warm_up(&args.scale, args.seed).and_then(|()| {
        if args.trace {
            layers::run(
                args.workload,
                &args.scale,
                args.seed,
                args.window,
                args.trace_out.as_deref(),
                &mut report,
            )
        } else {
            untraced(&args, &mut report)
        }
    });
    if let Err(e) = measured {
        report.fail(e);
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    if report.emit(expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs per workload in a calibration.
const CALIBRATION_RUNS: usize = 5;

/// The values one metric took over a workload's calibration runs.
type Samples = Vec<(&'static MetricDef, Vec<f64>)>;

fn calibrate_cmd(args: &[String]) -> ExitCode {
    let mut seed = 1u64;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs an unsigned integer\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };

    let mut baseline = Vec::new();
    let mut all_correct = true;
    for workload in workloads::ALL {
        let mut samples: Samples = END_TO_END.iter().map(|d| (d, Vec::new())).collect();
        for run in 1..=CALIBRATION_RUNS {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload.name(), "--trace", "0"]);
            cmd.args(["--seed", &seed.to_string()]);
            if smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = parse_json(stdout.lines().last().unwrap_or_default());
            let correct = result
                .as_ref()
                .is_ok_and(|r| r.get("correct").and_then(JsonValue::as_bool) == Some(true));
            if !correct {
                eprintln!("{} run {run}: incorrect\n{stdout}", workload.name());
                all_correct = false;
            }
            for (d, values) in &mut samples {
                let value = result
                    .as_ref()
                    .ok()
                    .and_then(|r| r.get("metrics")?.get(d.name)?.get("value").cloned());
                if let Some(JsonValue::Number(v)) = value {
                    values.push(v);
                }
            }
            progress(&format!(
                "calibrate {} run {run}/{CALIBRATION_RUNS}",
                workload.name()
            ));
        }
        baseline.push(calibration_rows(workload, &samples));
    }
    println!(
        "{{\"seed\":{seed},\"runs\":{CALIBRATION_RUNS},\"available_parallelism\":{},\"workloads\":{{{}}}}}",
        nproc(),
        baseline.join(",")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one workload's calibration table and returns its JSON member.
fn calibration_rows(workload: Workload, samples: &Samples) -> String {
    let mut members = Vec::new();
    for (d, values) in samples.iter().filter(|(_, v)| !v.is_empty()) {
        let (q1, med, q3) = stats::quartiles(values).unwrap_or((values[0], values[0], values[0]));
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if med == 0.0 {
            0.0
        } else {
            (hi - lo) / med.abs()
        };
        let bound = d.bound.unwrap_or(0.0).max(spread);
        let repeats = spread <= 0.10;
        println!(
            "{} {} median={med} q1={q1} q3={q3} spread={:.1}% proposed_bound={bound:.3}{}",
            workload.name(),
            d.name,
            spread * 100.0,
            if repeats {
                ""
            } else {
                " DOES-NOT-REPEAT-WITHIN-10%"
            }
        );
        members.push(format!(
            "\"{}\":{{\"unit\":\"{}\",\"median\":{med},\"q1\":{q1},\"q3\":{q3},\"min\":{lo},\"max\":{hi},\"spread\":{spread},\"proposed_bound\":{bound},\"repeats_within_tenth\":{repeats}}}",
            d.name, d.unit
        ));
    }
    format!("\"{}\":{{{}}}", workload.name(), members.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("calibrate") => calibrate_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(json: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        json.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
    }

    fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
    }

    #[test]
    fn name_charset() {
        for good in ["setup_s", "fleet.manager.wave_ms.p50", "a-b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", "sp ace", "slash/name", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_in_benchmark_json_uses_the_charset() {
        let json = benchmark_json();
        let mut seen = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for entry in entries(&json, key) {
                let name = text(entry, "name");
                assert!(valid_name(name), "{key}: {name:?}");
                assert!(seen.insert(name.to_owned()), "{name} is used twice");
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metrics_this_program_reports() {
        let json = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&json, key);
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(text(entry, "name"), d.name);
                assert_eq!(text(entry, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(entry, "better"), d.better, "{}", d.name);
                let bound = match entry.get("bound") {
                    Some(JsonValue::Number(b)) => Some(*b),
                    _ => None,
                };
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
        let names: Vec<&str> = entries(&json, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"
            && d.unit == "s"
            && d.better == "lower"
            && d.bound == END_TO_END.iter().filter_map(|d| d.bound).reduce(f64::max)));
    }

    #[test]
    fn default_window_is_the_listed_run_seconds_and_every_window_ends_in_time() {
        let run_seconds = match benchmark_json().get("run_seconds") {
            Some(JsonValue::Number(s)) => *s,
            other => panic!("run_seconds is {other:?}"),
        };
        assert_eq!(Scale::paper().window.as_secs_f64(), run_seconds);
        assert!(run_seconds <= MAX_SECONDS);
        let longest = run_deadline(Duration::from_secs_f64(MAX_SECONDS));
        assert!(longest < Duration::from_secs(180), "{longest:?}");
    }
}
