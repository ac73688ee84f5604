//! Messaging-throughput sweep over dispatch worker counts.
//!
//! Drives the multi-actor workload of `kar_bench::throughput` at 1/2/4/8
//! dispatch workers, prints the table, and writes `BENCH_messaging.json`
//! (throughput + p50/p99 latency per worker count) to the current directory —
//! the start of the repository's performance trajectory.
//!
//! Usage:
//!   cargo run --release -p kar-bench --bin bench_messaging [out.json]
//!   cargo run --release -p kar-bench --bin bench_messaging -- --smoke
//!
//! `--smoke` runs a seconds-scale shrunken sweep and writes no file. Any
//! other option prints the usage and exits 2.

use kar_bench::throughput::{
    parse_messaging_args, sweep, table_row, to_json, MessagingArgs, ThroughputConfig,
    MESSAGING_USAGE,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_messaging_args(&args).unwrap_or_else(|error| {
        eprintln!("bench_messaging: {error}\n{MESSAGING_USAGE}");
        std::process::exit(2);
    });
    let config = match mode {
        MessagingArgs::Smoke => ThroughputConfig::smoke(),
        MessagingArgs::Full { .. } => ThroughputConfig::default(),
    };
    println!(
        "Messaging throughput: {} actors x {} calls, {}us service time per call",
        config.actors, config.calls_per_actor, config.service_time_us
    );
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>10}",
        "workers", "calls", "calls/s", "p50 ms", "p99 ms"
    );
    let mut reports = Vec::new();
    for report in sweep(&config, &[1, 2, 4, 8]) {
        println!("{}", table_row(&report));
        reports.push(report);
    }
    let single = reports[0].throughput;
    let at_four = reports[2].throughput;
    println!(
        "speedup at 4 workers: {:.2}x over 1 worker",
        at_four / single
    );
    match mode {
        MessagingArgs::Smoke => println!("smoke mode: sweep completed, no file written"),
        MessagingArgs::Full { out_path } => {
            let json = to_json(&config, &reports);
            std::fs::write(&out_path, &json).expect("write BENCH_messaging.json");
            println!("wrote {out_path}");
        }
    }
}
