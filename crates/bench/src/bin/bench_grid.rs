//! Measures the parallel experiment grid against the sequential reference
//! and records both in `BENCH_grid.json`.
//!
//! Runs the Table I grid twice at the same scale — once with one worker
//! (the sequential reference) and once with `--jobs`/`CMFUZZ_JOBS`
//! workers — verifies the rendered tables are byte-identical, and writes
//! wall-clock timings plus the speedup to the output file. Exits non-zero
//! if the outputs diverge, so CI can gate on determinism as well as speed.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use cmfuzz_bench::{
    default_jobs, report, table1_cell_count, table1_with_jobs, try_table1_with_jobs_timed,
    ExperimentScale,
};
use cmfuzz_telemetry::Telemetry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_label = "quick";
    let mut jobs: Option<usize> = None;
    let mut out = PathBuf::from("BENCH_grid.json");

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().map(String::as_str) {
                Some("quick") => scale_label = "quick",
                Some("paper") => scale_label = "paper",
                other => usage_error(&format!("--scale expects quick|paper, got {other:?}")),
            },
            "--jobs" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = Some(n),
                _ => usage_error("--jobs expects a positive integer"),
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

    let scale = match scale_label {
        "paper" => ExperimentScale::paper(),
        _ => ExperimentScale::quick(),
    };

    let jobs = jobs.unwrap_or_else(default_jobs);
    let cells = table1_cell_count(&scale);

    eprintln!("[bench_grid] table1 grid, {scale_label} scale, {cells} cells");
    eprintln!("[bench_grid] sequential reference (1 worker)...");
    let started = Instant::now();
    let sequential_rows = table1_with_jobs(&scale, &Telemetry::disabled(), 1);
    let sequential = started.elapsed();

    eprintln!("[bench_grid] parallel grid ({jobs} workers)...");
    let started = Instant::now();
    let (parallel_rows, cell_timings) =
        match try_table1_with_jobs_timed(&scale, &Telemetry::disabled(), jobs) {
            Ok(timed) => timed,
            Err(error) => {
                eprintln!("[bench_grid] grid failed: {error}");
                exit(error.exit_code());
            }
        };
    let parallel = started.elapsed();

    let sequential_render = report::render_table1(&sequential_rows);
    let parallel_render = report::render_table1(&parallel_rows);
    let identical = sequential_render == parallel_render;
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9);

    // Per-cell wall time makes the headline speedup auditable: the grid
    // total should be explainable from the cell costs and the worker
    // count, not taken on faith.
    let cell_seconds = cell_timings
        .iter()
        .map(|cell| {
            format!(
                "    {{\"label\": \"{}\", \"seconds\": {:.3}}}",
                cell.label, cell.seconds
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"table1\",\n  \"scale\": \"{scale_label}\",\n  \"cells\": {cells},\n  \"machine\": {machine},\n  \"jobs_sequential\": 1,\n  \"jobs_parallel\": {jobs},\n  \"sequential_seconds\": {:.3},\n  \"parallel_seconds\": {:.3},\n  \"speedup\": {:.2},\n  \"outputs_identical\": {identical},\n  \"parallel_cell_seconds\": [\n{cell_seconds}\n  ]\n}}\n",
        sequential.as_secs_f64(),
        parallel.as_secs_f64(),
        speedup,
        machine = report::machine_info_json(),
    );
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("[bench_grid] cannot write {}: {err}", out.display());
        exit(2);
    }

    eprintln!(
        "[bench_grid] sequential {:.3}s, parallel {:.3}s, speedup {speedup:.2}x, identical: {identical}",
        sequential.as_secs_f64(),
        parallel.as_secs_f64(),
    );
    print!("{json}");

    if !identical {
        eprintln!("[bench_grid] FAIL: parallel output diverges from sequential reference");
        exit(1);
    }
}

const USAGE: &str = "usage: bench_grid [--scale quick|paper] [--jobs <n>] [--out <path>]\n\
    \n\
    --scale  experiment scale for the timed grid (default: quick)\n\
    --jobs   parallel worker count (default: $CMFUZZ_JOBS or available parallelism)\n\
    --out    where to write the JSON timing record (default: BENCH_grid.json)";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}
