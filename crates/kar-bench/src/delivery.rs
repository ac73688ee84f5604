//! Delivery-plane harness: end-to-end call latency/throughput with response
//! batching off vs on, and consumer wakeup latency under the old rotating
//! park vs the shared wait group.
//!
//! # Call path (response batching)
//!
//! Every call's response is a durable queue append whose ack is paid under
//! the destination partition's log lock. The measured topology is the
//! paper's asymmetric shape: the server's *request* legs spread over its
//! multi-partition home set, while every *response* funnels into the one
//! home partition of the caller (`MeshConfig::client_partitions = 1`) — so
//! the response leg is the bottleneck station of the tandem queue, exactly
//! the "call latency is dominated by the response through the message
//! plane" observation motivating this harness. Group commit
//! ([`kar::MeshConfig::response_batching`]) lets the server's concurrent
//! completions share acks on that funnel, lifting its ceiling; the gate
//! requires ≥ 1.5× call throughput at 8 callers.
//!
//! The ack is modelled at replicated-log scale (2 ms, the managed-Kafka
//! regime of Table 2): the mesh's per-call scheduling overhead hides a
//! 200 µs ack, so the response station would never saturate and batching
//! would have nothing to amortize.
//!
//! # Wakeup latency (rotation vs group wait)
//!
//! A consumer thread owning several partitions used to park on one member's
//! append signal at a time, rotating each idle 2 ms slice; an append to a
//! non-parked partition waited out up to a full slice. The harness replays
//! that strategy (verbatim, as the "before" emulation) against the
//! [`kar_types::WaitSignalGroup`] sweep-and-park the runtime now uses, and
//! measures append→deliver latency percentiles. The group-wait p99 is
//! reported, not gated (it swings with host load);
//! `group_wait_wakeup_beats_the_rotation_slice` holds it below one slice.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Mesh, MeshConfig};
use kar_queue::{Broker, BrokerConfig, Consumer};
use kar_types::{ActorRef, ComponentId, LatencyProfile, WaitSignalGroup};

use crate::report::{as_us, percentile, ratio, sized, Bound, Gate, Section};
use crate::throughput::{closed_loop, CallStats, Echo};

/// The idle slice of the replayed rotation strategy (the old consumer
/// loop's constant).
pub const ROTATION_SLICE: Duration = Duration::from_millis(2);

/// Configuration of the call-path (response batching) measurement.
#[derive(Debug, Clone)]
pub struct DeliveryConfig {
    /// Concurrent caller threads, each driving its own actor with
    /// sequential blocking calls.
    pub callers: usize,
    /// Sequential calls per caller.
    pub calls_per_caller: usize,
    /// Durable-append acknowledgement latency (the per-partition serial
    /// resource group commit amortizes).
    pub append_latency: Duration,
    /// Home partitions of the hosting component — the spread of the request
    /// legs. The client funnels every response into its single partition.
    pub server_partitions: usize,
}

impl Default for DeliveryConfig {
    fn default() -> Self {
        DeliveryConfig {
            callers: 8,
            calls_per_caller: 40,
            append_latency: Duration::from_millis(2),
            server_partitions: 4,
        }
    }
}

impl DeliveryConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        DeliveryConfig {
            callers: 8,
            calls_per_caller: 10,
            append_latency: Duration::from_millis(2),
            server_partitions: 4,
        }
    }
}

/// The result of one call-path measurement.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// Whether response batching was enabled.
    pub batching: bool,
    /// The closed-loop run.
    pub calls: CallStats,
    /// Batch appends the response batcher performed / completions enqueued
    /// (summed over the server components; `0/0` with batching off).
    pub batch_flushes: u64,
    /// Completions enqueued into the response batcher.
    pub batch_enqueued: u64,
}

/// Measures end-to-end call throughput and latency percentiles with response
/// batching off or on.
pub fn measure_call_path(batching: bool, config: &DeliveryConfig) -> DeliveryReport {
    let mesh_config = MeshConfig {
        latency: LatencyProfile {
            queue_append: config.append_latency,
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::for_tests()
    }
    .with_dispatch_workers(4)
    // Hold the pool constant across both arms: the response funnel is the
    // measured variable.
    .with_reactor_threads(8)
    .with_partitions_per_component(config.server_partitions)
    .with_client_partitions(1)
    .with_response_batching(batching);
    let mesh = Mesh::new(mesh_config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "echo-server", |c| c.host("Echo", || Box::new(Echo)));
    let client = mesh.client();

    // Pick caller actors whose keys hash evenly over the server's home set,
    // so the request legs genuinely spread and the client's single response
    // partition is the serial station under test. Key routing is a stable
    // hash over the home set, so the pick is computed, not probed.
    let server_set = mesh
        .snapshot()
        .component(server)
        .expect("server snapshot")
        .partitions
        .clone();
    let per_partition = config.callers.div_ceil(config.server_partitions);
    let mut fill = vec![0usize; config.server_partitions];
    let mut actors: Vec<ActorRef> = Vec::with_capacity(config.callers);
    let mut candidate = 0usize;
    while actors.len() < config.callers && candidate < 4096 {
        let actor = ActorRef::new("Echo", format!("d{candidate}"));
        candidate += 1;
        let partition = server_set
            .partition_for_key(&actor.qualified_name())
            .expect("non-empty home set");
        let slot = server_set
            .home()
            .iter()
            .position(|p| *p == partition)
            .expect("home partition");
        if fill[slot] < per_partition {
            fill[slot] += 1;
            actors.push(actor);
        }
    }
    // Fallback for hash pathologies: accept unbalanced candidates rather
    // than starving the workload.
    let mut next = candidate;
    while actors.len() < config.callers {
        actors.push(ActorRef::new("Echo", format!("d{next}")));
        next += 1;
    }
    let calls = closed_loop(&client, &actors, config.calls_per_caller, "ping", &[]);
    let (enqueued, flushes) = mesh.response_batch_stats(server).unwrap_or((0, 0));
    mesh.shutdown();

    DeliveryReport {
        batching,
        calls,
        batch_flushes: flushes,
        batch_enqueued: enqueued,
    }
}

// ---------------------------------------------------------------------
// Wakeup latency: rotation vs group wait
// ---------------------------------------------------------------------

/// Configuration of the wakeup-latency measurement.
#[derive(Debug, Clone)]
pub struct WakeupConfig {
    /// Partitions owned by the single consumer thread.
    pub partitions: usize,
    /// Appends measured (cycled over the partitions).
    pub appends: usize,
    /// Gap between appends; long enough that the consumer has swept and
    /// parked before each one.
    pub gap: Duration,
}

impl Default for WakeupConfig {
    fn default() -> Self {
        WakeupConfig {
            partitions: 4,
            appends: 150,
            gap: Duration::from_millis(3),
        }
    }
}

impl WakeupConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        WakeupConfig {
            partitions: 4,
            appends: 40,
            gap: Duration::from_millis(3),
        }
    }
}

/// The result of one wakeup-latency measurement.
#[derive(Debug, Clone)]
pub struct WakeupReport {
    /// `"rotation"` or `"group-wait"`.
    pub strategy: &'static str,
    /// Appends measured.
    pub appends: usize,
    /// Median append→deliver latency.
    pub p50: Duration,
    /// 99th-percentile append→deliver latency.
    pub p99: Duration,
    /// Worst observed append→deliver latency.
    pub max: Duration,
}

/// Measures append→deliver latency for one consumer thread owning
/// `config.partitions` partitions, parking either by the replayed rotation
/// strategy (`group_wait == false`) or on a shared wait group.
pub fn measure_wakeup(group_wait: bool, config: &WakeupConfig) -> WakeupReport {
    let broker: Broker<Instant> = Broker::new(BrokerConfig::default());
    broker
        .create_topic("wake", config.partitions)
        .expect("fresh topic");
    let appends = config.appends;
    let consumer_broker = broker.clone();
    let partitions = config.partitions;
    let consumer = std::thread::spawn(move || {
        let consumers: Vec<Consumer<Instant>> = (0..partitions)
            .map(|p| {
                consumer_broker
                    .consumer(ComponentId::from_raw(1), "wake", p)
                    .expect("partition exists")
            })
            .collect();
        let group = Arc::new(WaitSignalGroup::new());
        if group_wait {
            for consumer in &consumers {
                consumer.join_wait_group(&group);
            }
        }
        let mut latencies = Vec::with_capacity(appends);
        let mut park_rotation = 0usize;
        while latencies.len() < appends {
            let seen = group.current();
            let mut drained = false;
            for consumer in &consumers {
                for record in consumer.poll(16).expect("poll") {
                    latencies.push(record.into_payload().elapsed());
                    drained = true;
                }
            }
            if drained {
                continue;
            }
            if group_wait {
                group.wait(seen, ROTATION_SLICE);
            } else {
                // The pre-overhaul strategy, replayed verbatim: park on one
                // member's append signal for a slice, rotating each time.
                park_rotation = (park_rotation + 1) % consumers.len();
                for record in consumers[park_rotation]
                    .poll_wait(16, ROTATION_SLICE)
                    .expect("poll_wait")
                {
                    latencies.push(record.into_payload().elapsed());
                }
            }
        }
        if group_wait {
            for consumer in &consumers {
                consumer.leave_wait_group(&group);
            }
        }
        latencies
    });
    let producer = broker.producer(ComponentId::from_raw(2));
    for i in 0..config.appends {
        std::thread::sleep(config.gap);
        producer
            .send("wake", i % config.partitions, Instant::now())
            .expect("send");
    }
    let mut latencies = consumer.join().expect("consumer thread");
    latencies.sort();
    WakeupReport {
        strategy: if group_wait { "group-wait" } else { "rotation" },
        appends: latencies.len(),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Batched call throughput must be at least this multiple of unbatched.
pub const GATE_MIN_SPEEDUP: f64 = 1.5;

/// The `bench_delivery` report: both sweeps at the smoke or full size.
pub fn bench(smoke: bool) -> Vec<Section> {
    let call = sized(smoke, DeliveryConfig::smoke);
    let wakeup = sized(smoke, WakeupConfig::smoke);
    let calls = [false, true].map(|batching| measure_call_path(batching, &call));
    let wakeups = [false, true].map(|group_wait| measure_wakeup(group_wait, &wakeup));
    vec![
        call_path_section(&call, &calls),
        wakeup_section(&wakeup, &wakeups),
    ]
}

/// The call-path sweep, gated on the batching speedup.
fn call_path_section(config: &DeliveryConfig, reports: &[DeliveryReport]) -> Section {
    Section::new(
        "call_path",
        vec![
            ("callers", config.callers.into()),
            ("calls_per_caller", config.calls_per_caller.into()),
            ("append_latency_us", as_us(config.append_latency).into()),
            ("server_partitions", config.server_partitions.into()),
            ("client_partitions", 1usize.into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        let mut row = vec![("batching", r.batching.into())];
        row.extend(r.calls.cells());
        row.push(("batch_flushes", r.batch_flushes.into()));
        row.push(("batch_enqueued", r.batch_enqueued.into()));
        row
    }))
    .gate(Gate::new(
        "speedup_batched_over_unbatched",
        ratio(
            reports.iter().map(|r| (r.batching, r.calls.throughput)),
            true,
            false,
        ),
        Bound::AtLeast(GATE_MIN_SPEEDUP),
    ))
}

/// The wakeup sweep. The group-wait p99 is reported, not gated: it swings
/// with host load, so the enforced check is the unit test holding it below
/// one rotation slice and below the rotation p99.
fn wakeup_section(config: &WakeupConfig, reports: &[WakeupReport]) -> Section {
    let group_p99 = reports
        .iter()
        .find(|r| r.strategy == "group-wait")
        .map_or(f64::NAN, |r| as_us(r.p99));
    Section::new(
        "wakeup",
        vec![
            ("partitions", config.partitions.into()),
            ("appends", config.appends.into()),
            ("gap_us", as_us(config.gap).into()),
            ("rotation_slice_us", as_us(ROTATION_SLICE).into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        vec![
            ("strategy", r.strategy.into()),
            ("appends", r.appends.into()),
            ("p50_us", as_us(r.p50).into()),
            ("p99_us", as_us(r.p99).into()),
            ("max_us", as_us(r.max).into()),
        ]
    }))
    .value("group_wait_p99_us", group_p99)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate_list, BenchReport, Bound, Cell};
    use crate::throughput::stats_at;

    fn tiny() -> DeliveryConfig {
        DeliveryConfig {
            callers: 4,
            calls_per_caller: 6,
            append_latency: Duration::from_millis(2),
            server_partitions: 2,
        }
    }

    #[test]
    fn batched_call_path_beats_unbatched_on_the_response_funnel() {
        let config = tiny();
        let unbatched = measure_call_path(false, &config);
        let batched = measure_call_path(true, &config);
        assert_eq!(unbatched.calls.total_calls, 24);
        assert_eq!(batched.calls.total_calls, 24);
        assert_eq!((unbatched.batch_enqueued, unbatched.batch_flushes), (0, 0));
        assert!(batched.batch_enqueued > 0);
        assert!(
            batched.calls.throughput > unbatched.calls.throughput,
            "batched {:.0}/s vs unbatched {:.0}/s",
            batched.calls.throughput,
            unbatched.calls.throughput
        );
    }

    #[test]
    fn group_wait_wakeup_beats_the_rotation_slice() {
        let config = WakeupConfig {
            partitions: 4,
            appends: 30,
            gap: Duration::from_millis(3),
        };
        let rotation = measure_wakeup(false, &config);
        let group = measure_wakeup(true, &config);
        assert_eq!(rotation.appends, 30);
        assert_eq!(group.appends, 30);
        // Absolute gate: a condvar wake must beat a full rotation slice even
        // on a loaded machine (half a slice is typical but scheduler noise
        // can push p99 past it); the comparative gate below is the real
        // assertion.
        assert!(
            group.p99 < ROTATION_SLICE,
            "group-wait p99 {:?} above the rotation slice",
            group.p99
        );
        assert!(
            group.p99 < rotation.p99,
            "group-wait p99 {:?} not below rotation p99 {:?}",
            group.p99,
            rotation.p99
        );
    }

    #[test]
    fn json_document_is_balanced_and_carries_the_gates() {
        let call_reports = vec![
            DeliveryReport {
                batching: false,
                calls: stats_at(100.0),
                batch_flushes: 0,
                batch_enqueued: 0,
            },
            DeliveryReport {
                batching: true,
                calls: stats_at(200.0),
                batch_flushes: 4,
                batch_enqueued: 10,
            },
        ];
        let wakeup_reports = vec![
            WakeupReport {
                strategy: "rotation",
                appends: 30,
                p50: Duration::from_micros(900),
                p99: Duration::from_micros(1900),
                max: Duration::from_micros(2100),
            },
            WakeupReport {
                strategy: "group-wait",
                appends: 30,
                p50: Duration::from_micros(30),
                p99: Duration::from_micros(120),
                max: Duration::from_micros(400),
            },
        ];
        let sections = vec![
            call_path_section(&DeliveryConfig::smoke(), &call_reports),
            wakeup_section(&WakeupConfig::smoke(), &wakeup_reports),
        ];
        // The one gate `bench_delivery` enforces in both modes; the
        // group-wait p99 is a plain value.
        assert_eq!(
            gate_list(&sections),
            vec![(
                "speedup_batched_over_unbatched".to_owned(),
                Bound::AtLeast(1.5)
            )]
        );
        assert_eq!(sections[0].gates[0].value, 2.0);
        assert_eq!(
            sections[1].values,
            vec![("group_wait_p99_us", Cell::Num(120.0))]
        );
        let json = BenchReport::new("delivery", true, sections).to_json();
        assert!(json.contains("\"strategy\": \"group-wait\""));
        assert!(json.contains("\"rotation_slice_us\": 2000"));
    }
}
