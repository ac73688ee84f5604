//! Retry-orchestration sweep: healthy-path goodput next to a ~30%-failing
//! neighbor, naive immediate re-calls vs exponential backoff under the mesh
//! retry budget. Gated on policy goodput ≥ 0.8× the naive arm.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_retry [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "retry",
        "healthy goodput next to a failing neighbor",
        kar_bench::retry::bench,
    )
}
