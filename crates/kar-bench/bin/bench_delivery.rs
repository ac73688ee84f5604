//! Delivery-plane sweep: call throughput and latency with response batching
//! off vs on (8 callers funnelling responses into one client partition), and
//! consumer wakeup latency under the replayed rotating park vs the shared
//! wait group. Gated on batching lifting call throughput at least 1.5×.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_delivery [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "delivery",
        "response batching off vs on, and consumer wakeup latency",
        kar_bench::delivery::bench,
    )
}
