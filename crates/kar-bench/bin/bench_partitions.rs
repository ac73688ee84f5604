//! Partition-scaling sweep: call throughput, p50/p99 latency and partitions
//! touched of one component at 1/2/4/8 home partitions under an ack-bound
//! workload.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_partitions [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "partitions",
        "call throughput over the home-partition count",
        kar_bench::partitions::bench,
    )
}
