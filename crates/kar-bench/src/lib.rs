//! Benchmark harnesses regenerating the paper's evaluation (§6).
//!
//! * [`fault`] — the fault-injection harness behind Table 1, Figure 7a,
//!   Figure 7b, the paired-failure scenario and the total-failure scenario
//!   (§6.1). It deploys the Reefer application on a time-compressed mesh,
//!   hard-stops victim nodes, measures the detection / consensus /
//!   reconciliation phases of every outage and the maximum order latency
//!   around each failure, and checks the application invariants.
//! * [`latency`] — the messaging-latency harness behind Table 2 (§6.2):
//!   Direct HTTP baseline, Kafka-only baseline, KAR actor invocation with and
//!   without the placement cache, across the ClusterDev / ClusterProd /
//!   Managed deployment profiles.
//! * [`report`] — summary statistics for the paper-figure binaries, and
//!   the one report of the `bench_*` binaries: `BenchReport`
//!   (host `nproc`, mode, sections of workload, typed rows, values and
//!   gates) and [`report::run_bench`], their shared command line.
//! * [`throughput`] — the closed-loop call driver the call-path harnesses
//!   share, and dispatch throughput as a function of `dispatch_workers` (a
//!   tier-1 test gates the scaling).
//! * [`sim`] — the deterministic-simulation scenarios of the `sim_explore`
//!   binary and the repository benchmark's `sim_sweep` workload.
//!
//! Each module below backs one `bench_<name>` binary (see `bin/`): no
//! argument runs the full workload into `BENCH_<name>.json`, one path
//! argument writes there instead, and `--smoke` runs a seconds-scale
//! workload into `target/bench-smoke/BENCH_<name>.json` (the CI gate).
//!
//! * [`lock_granularity`] — contended producers on per-partition broker
//!   locks, and skewed actors balanced by dispatch work stealing.
//! * [`partitions`] — call throughput of one component over its
//!   home-partition count under a durable-ack-bound workload.
//! * [`store`] — contended mixed commands on the sharded store (per-command
//!   and pipelined), and store round trips per actor invocation.
//! * [`topology`] — call throughput and resident reactor threads from a 1×
//!   to a 100× topology under a fixed reactor pool.
//! * [`delivery`] — call throughput with response batching off vs on, and
//!   consumer wakeup latency under the old rotating park vs the wait group.
//! * [`retry`] — healthy goodput next to a ~30%-failing neighbor, naive
//!   re-calls vs exponential backoff under the mesh retry budget.
//! * [`grayfault`] — goodput under a seeded ~1% gray-failure plan with an
//!   exponential-backoff policy vs naive re-calls vs fault-free.
//! * [`passivation`] — hot-head goodput over a Zipf population far larger
//!   than memory, resident set unbounded vs bounded by the watermarks.
//!
//! The paper's tables and figures have binaries of their own
//! (`table1_failures`, `table2_latency`, `fig7a_phases`,
//! `fig7b_order_latency`, `paired_failures`, `total_failure`) and Criterion
//! benches (see `benches/`); they print the paper's numbers alongside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod fault;
pub mod grayfault;
pub mod latency;
pub mod lock_granularity;
pub mod partitions;
pub mod passivation;
pub mod report;
pub mod retry;
pub mod sim;
pub mod store;
pub mod throughput;
pub mod topology;
