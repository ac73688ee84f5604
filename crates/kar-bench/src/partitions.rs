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

use std::time::Duration;

use kar::{Mesh, MeshConfig};
use kar_types::LatencyProfile;

use crate::report::{as_us, ratio, sized, Section};
use crate::throughput::{actors, closed_loop, CallStats, Echo};

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
    /// The closed-loop run.
    pub calls: CallStats,
    /// Server home partitions that actually received records — the sweep
    /// asserts the hash routing really spreads the workload.
    pub partitions_touched: usize,
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
    let targets = actors("Echo", "e", config.actors);
    let calls = closed_loop(
        &mesh.client(),
        &targets,
        config.calls_per_actor,
        "ping",
        &[],
    );
    let touched = mesh.snapshot().component(server).map_or(0, |c| {
        let home = c.partitions.home();
        c.queues
            .iter()
            .filter(|q| home.contains(&q.partition) && q.end_offset > 0)
            .count()
    });
    mesh.shutdown();

    PartitionReport {
        partitions,
        calls,
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

/// The `bench_partitions` report: the sweep at the smoke or full size.
pub fn bench(smoke: bool) -> Vec<Section> {
    let config = sized(smoke, PartitionSweepConfig::smoke);
    vec![section(&config, &sweep(&config))]
}

/// The sweep rows and the 4-over-1 speedup (reported, not gated; the unit
/// test `four_partitions_beat_one_on_the_ack_bound_workload` holds it).
fn section(config: &PartitionSweepConfig, reports: &[PartitionReport]) -> Section {
    Section::new(
        "partition_scaling",
        vec![
            ("actors", config.actors.into()),
            ("calls_per_actor", config.calls_per_actor.into()),
            ("append_latency_us", as_us(config.append_latency).into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        let mut row = vec![("partitions", r.partitions.into())];
        row.extend(r.calls.cells());
        row.push(("partitions_touched", r.partitions_touched.into()));
        row
    }))
    .value(
        "speedup_4_over_1",
        ratio(
            reports.iter().map(|r| (r.partitions, r.calls.throughput)),
            4,
            1,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchReport, Cell};
    use crate::throughput::stats_at;

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
        let _serial = crate::serialize_timing_test();
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
            four.calls.throughput >= 1.3 * one.calls.throughput,
            "expected >= 1.3x speedup at 4 partitions: 1p {:.0}/s, 4p {:.0}/s",
            one.calls.throughput,
            four.calls.throughput
        );
    }

    #[test]
    fn report_fields_and_json_are_consistent() {
        let report = |partitions, throughput| PartitionReport {
            partitions,
            calls: stats_at(throughput),
            partitions_touched: partitions,
        };
        let reports = vec![report(1, 100.0), report(4, 250.0)];
        let section = section(&PartitionSweepConfig::smoke(), &reports);
        assert!(section.gates.is_empty(), "bench_partitions gates nothing");
        assert_eq!(section.values, vec![("speedup_4_over_1", Cell::Num(2.5))]);
        let json = BenchReport::new("partitions", true, vec![section]).to_json();
        assert!(json.contains("\"partitions\": 4"));
        assert!(json.contains("\"speedup_4_over_1\": 2.5"));
    }
}
