//! Messaging-throughput harness for the sharded parallel dispatcher.
//!
//! Measures end-to-end invocation throughput and latency of one component
//! under a multi-actor workload while varying `MeshConfig::dispatch_workers`:
//! `actors` client threads each drive a distinct actor with sequential
//! blocking calls, and every invocation performs a fixed amount of
//! latency-bound service work (modelling the store operations, nested calls
//! and external I/O real actors do) so the server side — not the clients —
//! is the bottleneck. With one worker the component executes invocations
//! serially (the pre-refactor behavior); with N workers, actors spread over
//! N shards and their service times overlap — which is why throughput scales
//! even on a single-core host, where CPU-bound work could not.
//!
//! The `bench_messaging` binary sweeps 1/2/4/8 workers and emits
//! `BENCH_messaging.json` with throughput and p50/p99 latency per worker
//! count, starting the repository's performance trajectory. Its command
//! line is parsed by [`parse_messaging_args`].

use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarResult, Value};

/// Configuration of one throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Number of distinct actors, each driven by its own client thread.
    pub actors: usize,
    /// Sequential blocking calls each client thread issues.
    pub calls_per_actor: usize,
    /// Service time of every invocation, in microseconds: the invocation
    /// holds its actor (and its dispatch worker) for this long, emulating
    /// store operations / external I/O. This is what parallel dispatch
    /// overlaps; zero measures pure runtime overhead.
    pub service_time_us: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            actors: 32,
            calls_per_actor: 20,
            service_time_us: 1_500,
        }
    }
}

impl ThroughputConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ThroughputConfig {
            actors: 8,
            calls_per_actor: 5,
            service_time_us: 500,
        }
    }
}

/// Usage line of the `bench_messaging` binary.
pub const MESSAGING_USAGE: &str =
    "usage: bench_messaging [out.json]   full sweep, written to out.json \
     (default BENCH_messaging.json)\n       bench_messaging --smoke      \
     shrunken sweep, no file written";

/// What a `bench_messaging` command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessagingArgs {
    /// The full sweep, written to this path.
    Full {
        /// Where the JSON report goes.
        out_path: String,
    },
    /// The shrunken [`ThroughputConfig::smoke`] sweep; no file is written.
    Smoke,
}

/// Parses the `bench_messaging` arguments (program name excluded): no
/// argument or one output path runs the full sweep, `--smoke` the shrunken
/// one. Any other `--flag`, or more than one argument, is an error the
/// binary reports with [`MESSAGING_USAGE`].
pub fn parse_messaging_args(args: &[String]) -> Result<MessagingArgs, String> {
    match args {
        [] => Ok(MessagingArgs::Full {
            out_path: "BENCH_messaging.json".to_owned(),
        }),
        [flag] if flag == "--smoke" => Ok(MessagingArgs::Smoke),
        [flag] if flag.starts_with("--") => Err(format!("unknown option {flag}")),
        [path] => Ok(MessagingArgs::Full {
            out_path: path.clone(),
        }),
        _ => Err(format!("expected at most one argument, got {}", args.len())),
    }
}

/// The result of one throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Dispatch workers the mesh ran with.
    pub workers: usize,
    /// Total calls completed (actors × calls_per_actor).
    pub total_calls: usize,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Completed calls per second.
    pub throughput: f64,
    /// Median per-call latency.
    pub p50: Duration,
    /// 99th-percentile per-call latency.
    pub p99: Duration,
}

/// An actor whose invocations take a configured service time, emulating the
/// latency-bound work (store round trips, external I/O) that parallel
/// dispatch overlaps across actors.
struct Spinner;

impl Actor for Spinner {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "work" => {
                let service = Duration::from_micros(args[0].as_i64().unwrap_or(0) as u64);
                if !service.is_zero() {
                    std::thread::sleep(service);
                }
                Ok(Outcome::value(Value::Null))
            }
            other => Err(kar_types::KarError::application(format!(
                "no method {other}"
            ))),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted series.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Measures messaging throughput with `workers` dispatch workers.
pub fn measure_throughput(workers: usize, config: &ThroughputConfig) -> ThroughputReport {
    // The reactor pool is pinned at the same size for every measurement, so
    // the sweep compares the dispatch *concurrency bound* (shard claims),
    // not thread counts: 1 worker means one invocation at a time even with
    // 8 reactors available.
    let mesh = Mesh::new(
        MeshConfig::for_tests()
            .with_dispatch_workers(workers)
            .with_reactor_threads(8),
    );
    let node = mesh.add_node();
    mesh.add_component(node, "spin-server", |c| {
        c.host("Spinner", || Box::new(Spinner))
    });
    let client = mesh.client();

    // Warm up: place and instantiate every actor outside the measured phase.
    for actor in 0..config.actors {
        let target = ActorRef::new("Spinner", format!("s{actor}"));
        client
            .call(&target, "work", vec![Value::Int(0)])
            .expect("warmup call");
    }

    let service = config.service_time_us as i64;
    let started = Instant::now();
    let drivers: Vec<_> = (0..config.actors)
        .map(|actor| {
            let client = client.clone();
            let calls = config.calls_per_actor;
            std::thread::spawn(move || {
                let target = ActorRef::new("Spinner", format!("s{actor}"));
                let mut latencies = Vec::with_capacity(calls);
                for _ in 0..calls {
                    let t0 = Instant::now();
                    client
                        .call(&target, "work", vec![Value::Int(service)])
                        .expect("work call");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(config.actors * config.calls_per_actor);
    for driver in drivers {
        latencies.extend(driver.join().expect("driver thread"));
    }
    let elapsed = started.elapsed();
    mesh.shutdown();

    latencies.sort();
    let total_calls = latencies.len();
    ThroughputReport {
        workers,
        total_calls,
        elapsed,
        throughput: total_calls as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
    }
}

/// Runs the full 1/2/4/8-worker sweep.
pub fn sweep(config: &ThroughputConfig, worker_counts: &[usize]) -> Vec<ThroughputReport> {
    worker_counts
        .iter()
        .map(|&workers| measure_throughput(workers, config))
        .collect()
}

/// Serializes reports as the `BENCH_messaging.json` document (hand-rolled:
/// the offline serde shim has no serializer).
pub fn to_json(config: &ThroughputConfig, reports: &[ThroughputReport]) -> String {
    let mut rows = String::new();
    for (index, report) in reports.iter().enumerate() {
        if index > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"workers\": {}, \"total_calls\": {}, \"elapsed_ms\": {:.3}, \
             \"throughput_calls_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            report.workers,
            report.total_calls,
            report.elapsed.as_secs_f64() * 1e3,
            report.throughput,
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
        ));
    }
    format!(
        "{{\n  \"benchmark\": \"messaging_throughput\",\n  \
         \"workload\": {{\"actors\": {}, \"calls_per_actor\": {}, \"service_time_us\": {}}},\n  \
         \"rows\": [\n{rows}\n  ]\n}}\n",
        config.actors, config.calls_per_actor, config.service_time_us,
    )
}

/// One human-readable table row.
pub fn table_row(report: &ThroughputReport) -> String {
    format!(
        "{:>7} {:>12} {:>12.0} {:>10.2} {:>10.2}",
        report.workers,
        report.total_calls,
        report.throughput,
        report.p50.as_secs_f64() * 1e3,
        report.p99.as_secs_f64() * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ThroughputConfig {
        // 32 actors spread over 4 shards with a worst-case bucket of 10, so
        // the ideal speedup (3.2x) has comfortable headroom over the 2x
        // assertion even on a single-core host.
        ThroughputConfig {
            actors: 32,
            calls_per_actor: 10,
            service_time_us: 1_500,
        }
    }

    #[test]
    fn four_workers_at_least_double_single_worker_throughput() {
        let config = small();
        let serial = measure_throughput(1, &config);
        let parallel = measure_throughput(4, &config);
        assert!(
            parallel.throughput >= 2.0 * serial.throughput,
            "expected >= 2x speedup at 4 workers: serial {:.0}/s, parallel {:.0}/s",
            serial.throughput,
            parallel.throughput
        );
    }

    #[test]
    fn report_fields_are_consistent() {
        let config = ThroughputConfig {
            actors: 2,
            calls_per_actor: 5,
            service_time_us: 100,
        };
        let report = measure_throughput(2, &config);
        assert_eq!(report.workers, 2);
        assert_eq!(report.total_calls, 10);
        assert!(report.throughput > 0.0);
        assert!(report.p50 <= report.p99);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let config = small();
        let reports = vec![
            ThroughputReport {
                workers: 1,
                total_calls: 10,
                elapsed: Duration::from_millis(100),
                throughput: 100.0,
                p50: Duration::from_micros(500),
                p99: Duration::from_micros(900),
            },
            ThroughputReport {
                workers: 4,
                total_calls: 10,
                elapsed: Duration::from_millis(25),
                throughput: 400.0,
                p50: Duration::from_micros(450),
                p99: Duration::from_micros(800),
            },
        ];
        let json = to_json(&config, &reports);
        assert!(json.contains("\"benchmark\": \"messaging_throughput\""));
        assert!(json.contains("\"workers\": 1"));
        assert!(json.contains("\"workers\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn messaging_args_accept_smoke_and_paths_and_reject_other_flags() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|a| a.to_string()).collect() };
        assert_eq!(
            parse_messaging_args(&[]),
            Ok(MessagingArgs::Full {
                out_path: "BENCH_messaging.json".to_owned()
            })
        );
        assert_eq!(
            parse_messaging_args(&args(&["--smoke"])),
            Ok(MessagingArgs::Smoke)
        );
        assert_eq!(
            parse_messaging_args(&args(&["out.json"])),
            Ok(MessagingArgs::Full {
                out_path: "out.json".to_owned()
            })
        );
        assert!(parse_messaging_args(&args(&["--smok"])).is_err());
        assert!(parse_messaging_args(&args(&["--help"])).is_err());
        assert!(parse_messaging_args(&args(&["a.json", "b.json"])).is_err());
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 50.0), Duration::from_millis(51));
        assert_eq!(percentile(&sorted, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }
}
