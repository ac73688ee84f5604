//! Lock-granularity sweep: contended producers on per-partition broker
//! locks (single vs batched appends), and skewed actors balanced by
//! dispatch-shard work stealing. Gated on at least one steal and the hottest
//! shard below `MAX_SKEWED_LOAD_RATIO` times the mean.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_lock_granularity [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "lock_granularity",
        "contended producers, and skewed actors balanced by stealing",
        kar_bench::lock_granularity::bench,
    )
}
