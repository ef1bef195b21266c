//! Runs the design-choice ablations DESIGN.md calls out.

use cmfuzz_bench::{ablation, cli};

fn main() {
    let args = cli::parse_args("ablation");
    let rows = ablation(&args.scale, &args.telemetry, args.jobs).unwrap_or_else(|error| {
        args.telemetry.flush();
        eprintln!("ablation: {error}");
        std::process::exit(error.exit_code());
    });
    args.telemetry.flush();
    print!("{}", cmfuzz_bench::report::render_ablation(&rows));
}
