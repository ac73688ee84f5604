//! State-plane sweep: contended mixed get/set/cas on the sharded store
//! (per-command vs pipelined), and store round trips per actor invocation
//! through the actor-state cache.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_store [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "store",
        "contended store commands, and round trips per invocation",
        kar_bench::store::bench,
    )
}
