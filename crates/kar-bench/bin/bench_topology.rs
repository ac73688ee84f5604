//! Topology-scaling sweep for the fixed reactor pool: call throughput, lane
//! and resident reactor-thread counts at a 1× (2 components × 2 partitions)
//! and a 100× (8 × 50) topology. Gated on 100× throughput ≥ 0.8× the 1×
//! baseline and the pool holding its configured size at both points.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_topology [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "topology",
        "call throughput from a 1x to a 100x topology",
        kar_bench::topology::bench,
    )
}
