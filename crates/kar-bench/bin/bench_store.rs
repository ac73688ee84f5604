//! State-plane sweep: contended mixed get/set/cas on the sharded store
//! (per-command vs pipelined) and actor state flush (store round trips per
//! invocation through the actor-state cache).
//!
//! Prints both tables and writes `BENCH_store.json` to the current
//! directory.
//!
//! Usage:
//!   cargo run --release -p kar-bench --bin bench_store [out.json]
//!   cargo run --release -p kar-bench --bin bench_store -- --smoke
//!
//! `--smoke` runs a seconds-scale shrunken workload and writes no file: CI
//! uses it to surface state-plane lock regressions and deadlocks.

use kar_bench::store::{
    contended_store_row, contended_store_sweep, measure_state_flush, state_flush_row, to_json,
    ContendedStoreConfig, StateFlushConfig,
};

fn main() {
    let arg = std::env::args().nth(1);
    let smoke = arg.as_deref() == Some("--smoke");
    let (contended_config, flush_config) = if smoke {
        (ContendedStoreConfig::smoke(), StateFlushConfig::smoke())
    } else {
        (ContendedStoreConfig::default(), StateFlushConfig::default())
    };

    println!(
        "Contended mixed commands: {} threads x {} ops, latency {}us, batch {}, {}B values",
        contended_config.threads,
        contended_config.ops_per_thread,
        contended_config.op_latency.as_micros(),
        contended_config.batch_size,
        contended_config.value_bytes,
    );
    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "api", "ops", "elapsed ms", "ops/s", "round trips", "contended"
    );
    let contended = contended_store_sweep(&contended_config);
    for report in &contended {
        println!("{}", contended_store_row(report));
    }

    println!(
        "\nActor state flush: {} actors x {} calls, {} fields/call, store latency {}us",
        flush_config.actors,
        flush_config.calls_per_actor,
        flush_config.fields_per_call,
        flush_config.store_latency.as_micros(),
    );
    println!(
        "{:>12} {:>12} {:>10} {:>12} {:>10}",
        "invocations", "round trips", "rt/invoc", "elapsed ms", "calls/s"
    );
    let flush = measure_state_flush(&flush_config);
    println!("{}", state_flush_row(&flush));

    if smoke {
        println!("\nsmoke mode: workloads completed without deadlock, no file written");
        return;
    }
    let out_path = arg.unwrap_or_else(|| "BENCH_store.json".to_owned());
    let json = to_json(&contended_config, &contended, &flush_config, &flush);
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");
    println!("\nwrote {out_path}");
}
