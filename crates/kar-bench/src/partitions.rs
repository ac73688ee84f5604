//! Partition-scaling sweep: call throughput of one component as a function
//! of its home-partition count.
//!
//! Before the partition-set tentpole, every component owned exactly one
//! queue partition, and the durable-append acknowledgement — paid *under the
//! partition log lock*, as a real replicated log serializes its acks — was
//! the last serial bottleneck of the message plane: every request into a
//! component and every response out of a client funnelled through one
//! partition's ack pipeline. With a partition *set*, requests hash across
//! `partitions_per_component` home partitions by actor key, acks to
//! distinct partitions overlap, and one consumer per partition feeds the
//! sharded dispatch pool in per-shard batches.
//!
//! The sweep drives a fixed multi-actor workload (per-actor client threads,
//! sequential blocking calls, a configurable durable-ack latency) against a
//! single hosting component at 1/2/4/8 home partitions and reports
//! throughput and p50/p99 latency per point. The `bench_partitions` binary
//! emits `BENCH_partitions.json`; its `--smoke` mode runs a seconds-scale
//! workload in CI to catch partition-routing and consumer-fan-out
//! regressions.

use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarResult, LatencyProfile, Value};

use crate::report::percentile;

/// Configuration of one partition-scaling measurement.
#[derive(Debug, Clone)]
pub struct PartitionSweepConfig {
    /// Number of distinct actors, each driven by its own client thread.
    pub actors: usize,
    /// Sequential blocking calls each client thread issues.
    pub calls_per_actor: usize,
    /// Durable-append acknowledgement latency: the per-partition serial
    /// resource that partition sets parallelize.
    pub append_latency: Duration,
    /// Home-partition counts to sweep.
    pub partition_counts: Vec<usize>,
}

impl Default for PartitionSweepConfig {
    fn default() -> Self {
        PartitionSweepConfig {
            actors: 16,
            calls_per_actor: 25,
            append_latency: Duration::from_micros(200),
            partition_counts: vec![1, 2, 4, 8],
        }
    }
}

impl PartitionSweepConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        PartitionSweepConfig {
            actors: 8,
            calls_per_actor: 8,
            append_latency: Duration::from_micros(150),
            partition_counts: vec![1, 4],
        }
    }
}

/// The result of one partition-scaling measurement.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Home partitions per component the mesh ran with.
    pub partitions: usize,
    /// Total calls completed.
    pub total_calls: usize,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Completed calls per second.
    pub throughput: f64,
    /// Median per-call latency.
    pub p50: Duration,
    /// 99th-percentile per-call latency.
    pub p99: Duration,
    /// Server home partitions that actually received records — the sweep
    /// asserts the hash routing really spreads the workload.
    pub partitions_touched: usize,
}

/// A zero-service echo actor: the workload is pure message plane, so the
/// partition count is the only variable.
struct Echo;

impl Actor for Echo {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "ping" => Ok(Outcome::value(Value::Null)),
            other => Err(kar_types::KarError::application(format!(
                "no method {other}"
            ))),
        }
    }
}

/// Measures call throughput with `partitions` home partitions per component.
pub fn measure_partitions(partitions: usize, config: &PartitionSweepConfig) -> PartitionReport {
    let mesh_config = MeshConfig {
        latency: LatencyProfile {
            queue_append: config.append_latency,
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::for_tests()
    }
    .with_dispatch_workers(4)
    // Constant pool across the sweep: the variable is the partition layout
    // (append-lock width and consumer lanes), never the thread count.
    .with_reactor_threads(8)
    .with_partitions_per_component(partitions);
    let mesh = Mesh::new(mesh_config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "echo-server", |c| c.host("Echo", || Box::new(Echo)));
    let client = mesh.client();

    // Warm up: place every actor outside the measured phase.
    for actor in 0..config.actors {
        client
            .call(&ActorRef::new("Echo", format!("e{actor}")), "ping", vec![])
            .expect("warmup call");
    }

    let started = Instant::now();
    let drivers: Vec<_> = (0..config.actors)
        .map(|actor| {
            let client = client.clone();
            let calls = config.calls_per_actor;
            std::thread::spawn(move || {
                let target = ActorRef::new("Echo", format!("e{actor}"));
                let mut latencies = Vec::with_capacity(calls);
                for _ in 0..calls {
                    let t0 = Instant::now();
                    client.call(&target, "ping", vec![]).expect("ping call");
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

    let touched = mesh.snapshot().component(server).map_or(0, |c| {
        let home = c.partitions.home();
        c.queues
            .iter()
            .filter(|q| home.contains(&q.partition) && q.end_offset > 0)
            .count()
    });
    mesh.shutdown();

    latencies.sort();
    let total_calls = latencies.len();
    PartitionReport {
        partitions,
        total_calls,
        elapsed,
        throughput: total_calls as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        partitions_touched: touched,
    }
}

/// Runs the configured sweep.
pub fn sweep(config: &PartitionSweepConfig) -> Vec<PartitionReport> {
    config
        .partition_counts
        .iter()
        .map(|&partitions| measure_partitions(partitions, config))
        .collect()
}

/// Throughput ratio of the 4-partition point over the 1-partition point
/// (0.0 if either is missing).
pub fn four_over_one(reports: &[PartitionReport]) -> f64 {
    let at = |count: usize| {
        reports
            .iter()
            .find(|r| r.partitions == count)
            .map(|r| r.throughput)
    };
    match (at(1), at(4)) {
        (Some(one), Some(four)) if one > 0.0 => four / one,
        _ => 0.0,
    }
}

/// Serializes reports as the `BENCH_partitions.json` document (hand-rolled:
/// the offline serde shim has no serializer).
pub fn to_json(config: &PartitionSweepConfig, reports: &[PartitionReport]) -> String {
    let mut rows = String::new();
    for (index, report) in reports.iter().enumerate() {
        if index > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"partitions\": {}, \"total_calls\": {}, \"elapsed_ms\": {:.3}, \
             \"throughput_calls_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"partitions_touched\": {}}}",
            report.partitions,
            report.total_calls,
            report.elapsed.as_secs_f64() * 1e3,
            report.throughput,
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
            report.partitions_touched,
        ));
    }
    format!(
        "{{\n  \"benchmark\": \"partition_scaling\",\n  \
         \"workload\": {{\"actors\": {}, \"calls_per_actor\": {}, \
         \"append_latency_us\": {}}},\n  \
         \"speedup_4_over_1\": {:.2},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        config.actors,
        config.calls_per_actor,
        config.append_latency.as_micros(),
        four_over_one(reports),
    )
}

/// One human-readable table row.
pub fn table_row(report: &PartitionReport) -> String {
    format!(
        "{:>10} {:>8} {:>12.0} {:>10.2} {:>10.2} {:>9}",
        report.partitions,
        report.total_calls,
        report.throughput,
        report.p50.as_secs_f64() * 1e3,
        report.p99.as_secs_f64() * 1e3,
        report.partitions_touched,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PartitionSweepConfig {
        PartitionSweepConfig {
            actors: 8,
            calls_per_actor: 10,
            append_latency: Duration::from_micros(200),
            partition_counts: vec![1, 4],
        }
    }

    #[test]
    fn four_partitions_beat_one_on_the_ack_bound_workload() {
        let config = small();
        let one = measure_partitions(1, &config);
        let four = measure_partitions(4, &config);
        assert_eq!(one.partitions_touched, 1);
        assert!(
            four.partitions_touched >= 3,
            "8 actors only touched {} of 4 home partitions",
            four.partitions_touched
        );
        assert!(
            four.throughput >= 1.3 * one.throughput,
            "expected >= 1.3x speedup at 4 partitions: 1p {:.0}/s, 4p {:.0}/s",
            one.throughput,
            four.throughput
        );
    }

    #[test]
    fn report_fields_and_json_are_consistent() {
        let reports = vec![
            PartitionReport {
                partitions: 1,
                total_calls: 10,
                elapsed: Duration::from_millis(100),
                throughput: 100.0,
                p50: Duration::from_micros(700),
                p99: Duration::from_micros(950),
                partitions_touched: 1,
            },
            PartitionReport {
                partitions: 4,
                total_calls: 10,
                elapsed: Duration::from_millis(40),
                throughput: 250.0,
                p50: Duration::from_micros(400),
                p99: Duration::from_micros(800),
                partitions_touched: 4,
            },
        ];
        assert!((four_over_one(&reports) - 2.5).abs() < 1e-9);
        let json = to_json(&small(), &reports);
        assert!(json.contains("\"benchmark\": \"partition_scaling\""));
        assert!(json.contains("\"partitions\": 1"));
        assert!(json.contains("\"partitions\": 4"));
        assert!(json.contains("\"speedup_4_over_1\": 2.50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(four_over_one(&[]), 0.0);
    }
}
