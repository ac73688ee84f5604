//! Lock-granularity sweep: contended producers on per-partition broker
//! locks (single vs batched appends) and skewed actors balanced by
//! dispatch-shard work stealing.
//!
//! Prints both tables and writes `BENCH_lock_granularity.json` to the
//! current directory. Exits 1 if the skewed workload did not balance (no
//! steal, or the hottest shard at or above `MAX_SKEWED_LOAD_RATIO` times
//! the mean).
//!
//! Usage:
//!   cargo run --release -p kar-bench --bin bench_lock_granularity [out.json]
//!   cargo run --release -p kar-bench --bin bench_lock_granularity -- --smoke
//!
//! `--smoke` runs a seconds-scale shrunken workload and writes no file: CI
//! uses it to surface lock-ordering regressions and deadlocks.

use kar_bench::lock_granularity::{
    contended_row, contended_sweep, measure_skewed, skewed_balanced, skewed_row, to_json,
    ContendedConfig, SkewedConfig, MAX_SKEWED_LOAD_RATIO,
};

fn main() {
    let arg = std::env::args().nth(1);
    let smoke = arg.as_deref() == Some("--smoke");
    let (contended_config, skewed_config) = if smoke {
        (ContendedConfig::smoke(), SkewedConfig::smoke())
    } else {
        (ContendedConfig::default(), SkewedConfig::default())
    };

    println!(
        "Contended producers: {} threads x {} records, ack {}us, batch size {}",
        contended_config.producers,
        contended_config.records_per_producer,
        contended_config.ack_latency.as_micros(),
        contended_config.batch_size,
    );
    println!(
        "{:>8} {:>9} {:>12} {:>14}",
        "append", "records", "elapsed ms", "records/s"
    );
    let contended = contended_sweep(&contended_config);
    for report in &contended {
        println!("{}", contended_row(report));
    }

    println!(
        "\nSkewed actors: {} actors on {}/{} shards, {} calls each, {}us service time",
        skewed_config.actors,
        skewed_config.hot_shards,
        skewed_config.workers,
        skewed_config.calls_per_actor,
        skewed_config.service_time.as_micros(),
    );
    println!(
        "{:>8} {:>12} {:>12} {:>13} {:>7} {:>7} {:>8}",
        "calls", "elapsed ms", "calls/s", "max/mean", "steals", "hits", "misses"
    );
    let skewed = measure_skewed(&skewed_config);
    println!("{}", skewed_row(&skewed));
    if !skewed_balanced(&skewed) {
        eprintln!(
            "FAIL: skewed actors did not balance: {} steals, max/mean {:.2} \
             (gate: > 0 steals, max/mean < {MAX_SKEWED_LOAD_RATIO})",
            skewed.steals, skewed.max_over_mean
        );
        std::process::exit(1);
    }

    if smoke {
        println!("\nsmoke mode: workloads completed without deadlock, no file written");
        return;
    }
    let out_path = arg.unwrap_or_else(|| "BENCH_lock_granularity.json".to_owned());
    let json = to_json(&contended_config, &contended, &skewed_config, &skewed);
    std::fs::write(&out_path, &json).expect("write BENCH_lock_granularity.json");
    println!("\nwrote {out_path}");
}
