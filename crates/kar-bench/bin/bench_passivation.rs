//! Resident-set sweep: hot-head goodput over a Zipf actor population far
//! larger than the resident budget (≥ 1 M keys in the full run, 10× the
//! budget in the smoke run), unbounded vs bounded by the passivation
//! watermarks. Gated on bounded goodput ≥ 0.8× unbounded and the bounded
//! peak resident set staying at the hard watermark.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_passivation [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "passivation",
        "hot-head goodput, resident set unbounded vs bounded",
        kar_bench::passivation::bench,
    )
}
