//! Regenerates the paper's Figure 4 coverage-over-time series.

use cmfuzz_bench::{cli, figure4};

fn main() {
    let args = cli::parse_args("figure4");
    let series = figure4(&args.scale, &args.telemetry, args.jobs).unwrap_or_else(|error| {
        args.telemetry.flush();
        eprintln!("figure4: {error}");
        std::process::exit(error.exit_code());
    });
    args.telemetry.flush();
    print!("{}", cmfuzz_bench::report::render_figure4(&series));
}
