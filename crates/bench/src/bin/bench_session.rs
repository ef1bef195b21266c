//! Measures the batched session path and records it in
//! `BENCH_session.json`.
//!
//! Every protocol subject runs behind a real [`NetworkedTarget`] over a
//! perfect datagram link, once with the per-session
//! [`FuzzEngine::run_iteration`] loop and once through
//! [`FuzzEngine::run_batch`]: arena-rendered sessions, burst sends, one
//! word-parallel coverage diff per batch. `run_iteration` is the
//! reference `run_batch` is tested against, and batching is bit-identical
//! by construction (asserted again here), so the ratio isolates the wire
//! and diff overhead the batch amortizes.
//!
//! Exits non-zero if the geometric-mean speedup falls below 1.5x, so CI
//! can gate on the optimization staying real. `--smoke` runs a shortened
//! measurement that keeps every identity assertion but skips the
//! throughput gate (CI runners are too noisy for short timings).

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use cmfuzz_bench::report;
use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_protocols::{all_specs, NetworkedTarget};

const THRESHOLD: f64 = 1.5;
/// Sessions per [`FuzzEngine::run_batch`] call in the batched wire runs.
const BATCH: usize = 64;

struct SubjectResult {
    name: &'static str,
    unbatched_sessions_per_sec: f64,
    unbatched_messages_per_sec: f64,
    batched_sessions_per_sec: f64,
    batched_messages_per_sec: f64,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_label = "quick";
    let mut smoke = false;
    let mut sessions_override: Option<u64> = None;
    let mut out = PathBuf::from("BENCH_session.json");

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().map(String::as_str) {
                Some("quick") => scale_label = "quick",
                Some("paper") => scale_label = "paper",
                other => usage_error(&format!("--scale expects quick|paper, got {other:?}")),
            },
            "--sessions" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => sessions_override = Some(n),
                other => usage_error(&format!(
                    "--sessions expects a positive count, got {other:?}"
                )),
            },
            "--smoke" => smoke = true,
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

    let (warmup, mut iterations) = if smoke {
        (200u64, 2_000u64)
    } else {
        match scale_label {
            "paper" => (5_000u64, 200_000u64),
            _ => (2_000u64, 30_000u64),
        }
    };
    if let Some(n) = sessions_override {
        iterations = n;
    }
    let config = EngineConfig {
        seed: 7,
        ..EngineConfig::default()
    };

    eprintln!(
        "[bench_session] {scale_label} scale{}: {iterations} sessions per engine per subject",
        if smoke { " (smoke)" } else { "" },
    );
    let results = run_batched_wire(warmup, iterations, &config);
    let geomean =
        (results.iter().map(|r| r.speedup.ln()).sum::<f64>() / results.len() as f64).exp();

    let json = format!(
        "{{\n  \"experiment\": \"session_throughput\",\n  \"scale\": \"{scale_label}\",\n  \"smoke\": {smoke},\n  \"sessions_per_engine\": {iterations},\n  \"machine\": {machine},\n{section},\n  \"threshold\": {THRESHOLD},\n  \"gated\": {gated}\n}}\n",
        machine = report::machine_info_json(),
        section = render_batched_wire(&results, geomean),
        gated = !smoke,
    );
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("[bench_session] cannot write {}: {err}", out.display());
        exit(2);
    }
    eprintln!(
        "[bench_session] batched wire geomean {geomean:.2}x (threshold {THRESHOLD}x{})",
        if smoke {
            ", not gated under --smoke"
        } else {
            ""
        },
    );
    print!("{json}");

    if !smoke && geomean < THRESHOLD {
        eprintln!(
            "[bench_session] FAIL: batched_wire geomean speedup {geomean:.2}x below the {THRESHOLD}x gate",
        );
        exit(1);
    }
}

/// Per-session iteration loop vs [`FuzzEngine::run_batch`] behind a real
/// datagram transport on a perfect link.
fn run_batched_wire(warmup: u64, iterations: u64, config: &EngineConfig) -> Vec<SubjectResult> {
    let mut results = Vec::new();
    for spec in all_specs() {
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let target = NetworkedTarget::new(
            (spec.build)(),
            &format!("bench-session-unbatched-{}", spec.name),
        );
        let mut unbatched = FuzzEngine::new(target, parsed, config.clone());
        unbatched
            .start(&ResolvedConfig::new())
            .expect("subject boots on defaults");
        for _ in 0..warmup {
            unbatched.run_iteration();
        }
        let messages_before = unbatched.stats().messages;
        let started = Instant::now();
        for _ in 0..iterations {
            unbatched.run_iteration();
        }
        let unbatched_elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let unbatched_messages = (unbatched.stats().messages - messages_before) as f64;

        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let target = NetworkedTarget::new(
            (spec.build)(),
            &format!("bench-session-batched-{}", spec.name),
        );
        let mut batched = FuzzEngine::new(target, parsed, config.clone());
        batched
            .start(&ResolvedConfig::new())
            .expect("subject boots on defaults");
        let mut remaining = warmup;
        while remaining > 0 {
            let n = remaining.min(BATCH as u64) as usize;
            batched.run_batch(n);
            remaining -= n as u64;
        }
        let messages_before = batched.stats().messages;
        let started = Instant::now();
        let mut remaining = iterations;
        while remaining > 0 {
            let n = remaining.min(BATCH as u64) as usize;
            batched.run_batch(n);
            remaining -= n as u64;
        }
        let batched_elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let batched_messages = (batched.stats().messages - messages_before) as f64;

        // run_batch is bit-identical to the iteration loop; a divergence
        // here means the ratio compares different work.
        assert_eq!(
            unbatched.covered_count(),
            batched.covered_count(),
            "{}: batching changed coverage",
            spec.name
        );
        assert_eq!(
            unbatched.corpus_len(),
            batched.corpus_len(),
            "{}: batching changed retention",
            spec.name
        );
        assert_eq!(unbatched.stats().messages, batched.stats().messages);
        assert_eq!(unbatched.stats().sessions, batched.stats().sessions);

        let result = SubjectResult {
            name: spec.name,
            unbatched_sessions_per_sec: iterations as f64 / unbatched_elapsed,
            unbatched_messages_per_sec: unbatched_messages / unbatched_elapsed,
            batched_sessions_per_sec: iterations as f64 / batched_elapsed,
            batched_messages_per_sec: batched_messages / batched_elapsed,
            speedup: unbatched_elapsed / batched_elapsed,
        };
        eprintln!(
            "[bench_session] batched  {:>10}: unbatched {:>9.0} sess/s, batch({BATCH}) {:>9.0} sess/s, speedup {:.2}x",
            result.name, result.unbatched_sessions_per_sec, result.batched_sessions_per_sec,
            result.speedup,
        );
        results.push(result);
    }
    results
}

fn render_batched_wire(results: &[SubjectResult], geomean: f64) -> String {
    let subjects: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "      {{\n        \"name\": \"{}\",\n        \"unbatched_sessions_per_sec\": {:.0},\n        \"unbatched_messages_per_sec\": {:.0},\n        \"batched_sessions_per_sec\": {:.0},\n        \"batched_messages_per_sec\": {:.0},\n        \"speedup\": {:.2}\n      }}",
                r.name,
                r.unbatched_sessions_per_sec,
                r.unbatched_messages_per_sec,
                r.batched_sessions_per_sec,
                r.batched_messages_per_sec,
                r.speedup,
            )
        })
        .collect();
    format!(
        "  \"batched_wire\": {{\n    \"target\": \"networked (datagram link, perfect conditions)\",\n    \"subjects\": [\n{}\n    ],\n    \"geomean_speedup\": {geomean:.2}\n  }}",
        subjects.join(",\n"),
    )
}

const USAGE: &str =
    "usage: bench_session [--scale quick|paper] [--sessions N] [--smoke] [--out <path>]\n\
    \n\
    --scale     measurement length (default: quick)\n\
    --sessions  override the per-engine session count\n\
    --smoke     shortened run: identity asserts only, no throughput gate\n\
    --out       where to write the JSON record (default: BENCH_session.json)";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}
