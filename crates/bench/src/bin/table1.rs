//! Regenerates the paper's Table I. `--scale paper` for the full run.

use cmfuzz_bench::{cli, table1};

fn main() {
    let args = cli::parse_args("table1");
    let rows = table1(&args.scale, &args.telemetry, args.jobs).unwrap_or_else(|error| {
        args.telemetry.flush();
        eprintln!("table1: {error}");
        std::process::exit(error.exit_code());
    });
    args.telemetry.flush();
    print!("{}", cmfuzz_bench::report::render_table1(&rows));
}
