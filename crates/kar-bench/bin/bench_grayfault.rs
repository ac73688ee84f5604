//! Gray-failure sweep: goodput of a stateful workload under a seeded ~1%
//! fault plan with an exponential-backoff policy, vs naive re-calls, vs the
//! fault-free baseline. Gated on policy goodput ≥ 0.8× fault-free, no
//! policy-arm caller error, and exactly-once persistence in every arm.
//! `KAR_CHAOS_SEED` (decimal or `0x`-hex) replays a fault schedule.
//!
//! Usage: `cargo run --release -p kar-bench --bin bench_grayfault [-- --smoke | -- OUT.json]`
//! (the shared command line of `kar_bench::report::run_bench`).

use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::report::run_bench(
        "grayfault",
        "goodput under a seeded gray-failure plan",
        kar_bench::grayfault::bench,
    )
}
