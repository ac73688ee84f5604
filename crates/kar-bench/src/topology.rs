//! Topology-scaling harness for the event-driven invocation core: call
//! throughput and resident thread count as the mesh grows from a 1× to a
//! 100× topology (components × home partitions) under a **fixed** reactor
//! pool.
//!
//! Before the reactor tentpole, every component spawned its own consumer,
//! dispatch and response-waiter threads, so a 100× topology meant hundreds
//! of resident threads — and throughput collapsed under scheduler pressure
//! long before the message plane saturated. With the fixed pool, partitions
//! and components only add *pump targets*: the thread count is set once by
//! `MeshConfig::reactor_threads` and the workload's throughput must hold as
//! the topology grows two orders of magnitude.
//!
//! The harness drives the same fixed multi-actor echo workload against every
//! scale point and reports throughput, latency percentiles, the number of
//! consumer lanes (which *does* grow with topology) and the number of
//! resident `kar-reactor-` threads (which must not). The `bench_topology`
//! binary emits `BENCH_topology.json` and, in both modes, exits 1 if
//! throughput at 100× drops below 0.8× the 1× baseline or the pool size
//! drifts; its `--smoke` mode runs a seconds-scale workload in CI.

use std::time::Duration;

use kar::{Mesh, MeshConfig};
use kar_types::LatencyProfile;

use crate::report::{as_us, ratio, sized, Bound, Gate, Section};
use crate::throughput::{actors, closed_loop, CallStats, Echo};

/// One topology scale point: `components` hosting components, each with
/// `partitions_per_component` home partitions.
#[derive(Debug, Clone)]
pub struct TopologyScale {
    /// Human-readable label (`"1x"`, `"100x"`).
    pub label: String,
    /// Number of hosting components.
    pub components: usize,
    /// Home partitions per component.
    pub partitions_per_component: usize,
}

/// Configuration of one topology-scaling measurement.
#[derive(Debug, Clone)]
pub struct TopologyScaleConfig {
    /// Number of distinct actors, each driven by its own client thread.
    pub actors: usize,
    /// Sequential blocking calls each client thread issues.
    pub calls_per_actor: usize,
    /// Durable-append acknowledgement latency.
    pub append_latency: Duration,
    /// Size of the fixed reactor pool — identical at every scale point; the
    /// topology is the only variable.
    pub reactor_threads: usize,
    /// Scale points to measure.
    pub scales: Vec<TopologyScale>,
}

/// The canonical 1× and 100× scale points of the gate: 2 components × 2
/// partitions versus 8 components × 50 partitions (4 → 400 home partitions).
fn canonical_scales() -> Vec<TopologyScale> {
    vec![
        TopologyScale {
            label: "1x".to_owned(),
            components: 2,
            partitions_per_component: 2,
        },
        TopologyScale {
            label: "100x".to_owned(),
            components: 8,
            partitions_per_component: 50,
        },
    ]
}

impl Default for TopologyScaleConfig {
    fn default() -> Self {
        TopologyScaleConfig {
            actors: 16,
            calls_per_actor: 40,
            append_latency: Duration::from_micros(100),
            reactor_threads: 8,
            scales: canonical_scales(),
        }
    }
}

impl TopologyScaleConfig {
    /// A seconds-scale configuration for CI smoke runs. The scale points are
    /// not shrunk — the 100× topology *is* the subject — only the workload.
    pub fn smoke() -> Self {
        TopologyScaleConfig {
            actors: 8,
            calls_per_actor: 8,
            append_latency: Duration::from_micros(50),
            reactor_threads: 4,
            scales: canonical_scales(),
        }
    }
}

/// The result of one topology-scale measurement.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// Label of the scale point.
    pub label: String,
    /// Hosting components the mesh ran with.
    pub components: usize,
    /// Home partitions per component.
    pub partitions_per_component: usize,
    /// Consumer lanes across live components (grows with topology).
    pub lanes: usize,
    /// Resident `kar-reactor-` OS threads observed while the mesh was live
    /// (must equal the configured pool at every scale).
    pub resident_reactor_threads: usize,
    /// Reactor pool size the mesh reports.
    pub configured_reactor_threads: usize,
    /// The closed-loop run.
    pub calls: CallStats,
}

/// Counts live OS threads of this process whose name starts with `prefix`
/// (Linux; other platforms report `None` and the caller falls back to the
/// mesh's own pool accounting).
fn threads_named(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(Result::ok)
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .filter(|comm| comm.trim_end().starts_with(prefix))
            .count(),
    )
}

/// Measures call throughput at one topology scale point.
pub fn measure_topology(scale: &TopologyScale, config: &TopologyScaleConfig) -> TopologyReport {
    let mesh_config = MeshConfig {
        latency: LatencyProfile {
            queue_append: config.append_latency,
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::for_tests()
    }
    .with_reactor_threads(config.reactor_threads)
    .with_partitions_per_component(scale.partitions_per_component);
    let mesh = Mesh::new(mesh_config);
    let node = mesh.add_node();
    for i in 0..scale.components {
        mesh.add_component(node, &format!("echo-{i}"), |c| {
            c.host("Echo", || Box::new(Echo))
        });
    }
    let targets = actors("Echo", "e", config.actors);
    let calls = closed_loop(
        &mesh.client(),
        &targets,
        config.calls_per_actor,
        "ping",
        &[],
    );

    let snapshot = mesh.snapshot();
    let configured = snapshot.reactor_threads;
    let resident = threads_named("kar-reactor-").unwrap_or(configured);
    let lanes = snapshot
        .components
        .iter()
        .filter(|c| c.alive)
        .map(|c| c.lanes)
        .sum();
    mesh.shutdown();

    TopologyReport {
        label: scale.label.clone(),
        components: scale.components,
        partitions_per_component: scale.partitions_per_component,
        lanes,
        resident_reactor_threads: resident,
        configured_reactor_threads: configured,
        calls,
    }
}

/// Runs the configured sweep.
pub fn sweep(config: &TopologyScaleConfig) -> Vec<TopologyReport> {
    config
        .scales
        .iter()
        .map(|scale| measure_topology(scale, config))
        .collect()
}

/// True when every scale point ran with exactly the configured reactor pool
/// resident — the tentpole's thread invariant.
pub fn pool_held(config: &TopologyScaleConfig, reports: &[TopologyReport]) -> bool {
    reports.iter().all(|r| {
        r.configured_reactor_threads == config.reactor_threads
            && r.resident_reactor_threads == config.reactor_threads
    })
}

/// Throughput at 100× must hold at least this fraction of the 1× baseline.
pub const GATE_MIN_RATIO: f64 = 0.8;

/// The `bench_topology` report: the sweep at the smoke or full size.
pub fn bench(smoke: bool) -> Vec<Section> {
    let config = sized(smoke, TopologyScaleConfig::smoke);
    vec![section(&config, &sweep(&config))]
}

/// The sweep rows, gated on throughput at 100× and on the reactor pool
/// holding its configured size at every scale.
fn section(config: &TopologyScaleConfig, reports: &[TopologyReport]) -> Section {
    Section::new(
        "topology_scaling",
        vec![
            ("actors", config.actors.into()),
            ("calls_per_actor", config.calls_per_actor.into()),
            ("append_latency_us", as_us(config.append_latency).into()),
            ("reactor_threads", config.reactor_threads.into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        let mut row = vec![
            ("label", r.label.as_str().into()),
            ("components", r.components.into()),
            (
                "partitions_per_component",
                r.partitions_per_component.into(),
            ),
            ("lanes", r.lanes.into()),
            (
                "resident_reactor_threads",
                r.resident_reactor_threads.into(),
            ),
        ];
        row.extend(r.calls.cells());
        row
    }))
    .gate(Gate::new(
        "throughput_100x_over_1x",
        ratio(
            reports
                .iter()
                .map(|r| (r.label.as_str(), r.calls.throughput)),
            "100x",
            "1x",
        ),
        Bound::AtLeast(GATE_MIN_RATIO),
    ))
    .gate(Gate::holds("pool_held", pool_held(config, reports)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate_list, BenchReport, Bound};
    use crate::throughput::stats_at;

    #[test]
    fn throughput_holds_at_100x_topology_with_a_fixed_pool() {
        let config = TopologyScaleConfig::smoke();
        let reports = sweep(&config);
        // The pool is the mesh's own accounting here (the resident OS-thread
        // check needs a process of its own — tests/reactor_topology.rs — and
        // the bench binary, where no sibling test pollutes /proc).
        for report in &reports {
            assert_eq!(
                report.configured_reactor_threads, config.reactor_threads,
                "{}: the reactor pool resized with topology",
                report.label
            );
        }
        // The strict >= 0.8x gate runs in CI through the release-built
        // `bench_topology --smoke`; this debug-build sanity check only has
        // to rule out the pre-reactor collapse (~0.1x at 100x), not hold
        // the optimized bar under unoptimized per-call overhead.
        let ratio = ratio(
            reports
                .iter()
                .map(|r| (r.label.as_str(), r.calls.throughput)),
            "100x",
            "1x",
        );
        assert!(
            ratio >= 0.5,
            "throughput fell to {ratio:.2}x at the 100x topology (debug sanity bound: >= 0.5x)"
        );
    }

    #[test]
    fn report_fields_and_json_are_consistent() {
        let config = TopologyScaleConfig::smoke();
        let report =
            |label: &str, components, partitions_per_component, throughput| TopologyReport {
                label: label.to_owned(),
                components,
                partitions_per_component,
                lanes: components * partitions_per_component,
                resident_reactor_threads: 4,
                configured_reactor_threads: 4,
                calls: stats_at(throughput),
            };
        let reports = vec![report("1x", 2, 2, 640.0), report("100x", 8, 50, 576.0)];
        assert!(pool_held(&config, &reports));
        let mut drifted = reports.clone();
        drifted[1].resident_reactor_threads = 17;
        assert!(!pool_held(&config, &drifted));
        let section = section(&config, &reports);
        assert_eq!(
            gate_list(std::slice::from_ref(&section)),
            vec![
                ("throughput_100x_over_1x".to_owned(), Bound::AtLeast(0.8)),
                ("pool_held".to_owned(), Bound::AtLeast(1.0)),
            ]
        );
        let json = BenchReport::new("topology", true, vec![section]).to_json();
        assert!(json.contains("\"label\": \"100x\""));
        assert!(json.contains("\"value\": 0.9, \"at_least\": 0.8, \"passed\": true"));
        assert!(
            !BenchReport::new("topology", true, vec![self::section(&config, &drifted)]).passed()
        );
    }
}
