//! Shared command-line handling for the report binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--scale quick|paper` — experiment scale (overrides the
//!   `CMFUZZ_SCALE` environment variable);
//! * `--jobs <n>` — grid worker threads (overrides the `CMFUZZ_JOBS`
//!   environment variable; default: available parallelism);
//! * `--link <loss>,<dup>,<reorder>` — impair every campaign's network
//!   link with the given probabilities in `[0, 1]` (default: perfect
//!   link);
//! * `--telemetry <path>` — stream the campaign's structured events to
//!   `<path>` as JSON Lines, one event per line.
//!
//! Progress reporting always goes through the telemetry pipeline's
//! [`ProgressSink`], so a run with no flags still prints `[cmfuzz]`
//! status lines to stderr.

use std::path::PathBuf;
use std::process::exit;

use cmfuzz_coverage::VirtualClock;
use cmfuzz_netsim::LinkConditions;
use cmfuzz_telemetry::{JsonlSink, ProgressSink, Telemetry};

use crate::experiments::ExperimentScale;

/// Parsed command line of a report binary.
#[derive(Debug)]
pub struct Cli {
    /// Experiment scale to run at.
    pub scale: ExperimentScale,
    /// Grid worker threads for the experiment cells.
    pub jobs: usize,
    /// Event pipeline: a progress sink always, a JSONL sink when
    /// `--telemetry` was given.
    pub telemetry: Telemetry,
}

/// Parses `std::env::args`, exiting with a usage message on bad input.
///
/// `experiment` names the binary in `--help` output.
#[must_use]
pub fn parse_args(experiment: &str) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<ExperimentScale> = None;
    let mut jobs: Option<usize> = None;
    let mut link: Option<LinkConditions> = None;
    let mut jsonl_path: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().map(String::as_str) {
                Some("quick") => scale = Some(ExperimentScale::quick()),
                Some("paper") => scale = Some(ExperimentScale::paper()),
                other => usage_error(
                    experiment,
                    &format!("--scale expects quick|paper, got {other:?}"),
                ),
            },
            "--jobs" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = Some(n),
                _ => usage_error(experiment, "--jobs expects a positive integer"),
            },
            "--link" => match iter.next().and_then(|s| parse_link(s)) {
                Some(conditions) => link = Some(conditions),
                None => usage_error(
                    experiment,
                    "--link expects <loss>,<dup>,<reorder> probabilities in [0, 1]",
                ),
            },
            "--telemetry" => match iter.next() {
                Some(path) => jsonl_path = Some(PathBuf::from(path)),
                None => usage_error(experiment, "--telemetry expects a file path"),
            },
            "--help" | "-h" => {
                println!("{}", usage(experiment));
                exit(0);
            }
            other => usage_error(experiment, &format!("unknown argument {other:?}")),
        }
    }

    let mut builder =
        Telemetry::builder(VirtualClock::new()).sink(Box::new(ProgressSink::default()));
    if let Some(path) = jsonl_path {
        match JsonlSink::create(&path) {
            Ok(sink) => builder = builder.sink(Box::new(sink)),
            Err(err) => {
                eprintln!("cannot open telemetry file {}: {err}", path.display());
                exit(2);
            }
        }
    }

    let mut scale = scale.unwrap_or_else(ExperimentScale::from_env);
    if let Some(conditions) = link {
        scale.link = conditions;
    }
    Cli {
        scale,
        jobs: jobs.unwrap_or_else(default_jobs),
        telemetry: builder.build(),
    }
}

/// Worker count for grid execution: `CMFUZZ_JOBS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 when even
/// that is unavailable).
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(raw) = std::env::var("CMFUZZ_JOBS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("[cmfuzz] ignoring invalid CMFUZZ_JOBS={raw:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a `loss,dup,reorder` probability triple; rejects values outside
/// `[0, 1]` (rather than silently clamping a typo like `--link 3,0,0`).
fn parse_link(spec: &str) -> Option<LinkConditions> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [loss, dup, reorder] = parts.as_slice() else {
        return None;
    };
    let parse = |s: &str| -> Option<f64> {
        let p = s.trim().parse::<f64>().ok()?;
        (0.0..=1.0).contains(&p).then_some(p)
    };
    Some(LinkConditions::new(
        parse(loss)?,
        parse(dup)?,
        parse(reorder)?,
    ))
}

fn usage(experiment: &str) -> String {
    format!(
        "usage: {experiment} [--scale quick|paper] [--jobs <n>] [--link <loss>,<dup>,<reorder>] [--telemetry <path>]\n\
         \n\
         --scale      experiment scale (default: $CMFUZZ_SCALE or quick)\n\
         --jobs       grid worker threads (default: $CMFUZZ_JOBS or available parallelism)\n\
         --link       impair every campaign link with the given loss/duplicate/reorder\n\
         \u{20}            probabilities in [0, 1] (default: 0,0,0 — a perfect link)\n\
         --telemetry  write structured events to <path> as JSON Lines"
    )
}

fn usage_error(experiment: &str, message: &str) -> ! {
    eprintln!("{message}\n{}", usage(experiment));
    exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
