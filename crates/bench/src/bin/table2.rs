//! Regenerates the paper's Table II vulnerability summary.

use cmfuzz_bench::{cli, table2};

fn main() {
    let args = cli::parse_args("table2");
    let rows = table2(&args.scale, &args.telemetry, args.jobs).unwrap_or_else(|error| {
        args.telemetry.flush();
        eprintln!("table2: {error}");
        std::process::exit(error.exit_code());
    });
    args.telemetry.flush();
    print!("{}", cmfuzz_bench::report::render_table2(&rows));
}
