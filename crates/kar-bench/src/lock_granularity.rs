//! Lock-granularity benchmarks for the message plane.
//!
//! Two workloads measure the message plane's per-partition broker logs,
//! batched appends, sharded placement cache and dispatch-shard work
//! stealing:
//!
//! * **Contended producers** (broker level): N producer threads append
//!   concurrently, each to its own partition, with a durable-ack latency per
//!   append. Per-partition locking lets the acks overlap, and the batch row
//!   shows how `send_batch` amortizes the ack and the lock across records.
//! * **Skewed actors** (mesh level): every actor is chosen so that static
//!   actor→shard hashing piles the whole workload onto 2 of the 8 dispatch
//!   shards. Idle workers steal whole actors, so the hottest shard's load
//!   over the mean stays near 1 instead of the ≈ 4 static hashing alone
//!   would leave. The row also reports the placement cache hit/miss
//!   counters of the driving client.
//!
//! The `bench_lock_granularity` binary runs both, prints the tables, and
//! emits `BENCH_lock_granularity.json`; `--smoke` runs a seconds-scale
//! shrunken version in CI so lock-ordering regressions and deadlocks
//! surface there, not under production load. Both modes exit 1 unless the
//! skewed workload stole and ended below [`MAX_SKEWED_LOAD_RATIO`].

use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_queue::{Broker, BrokerConfig};
use kar_types::{ActorRef, ComponentId, KarResult, Value};

// ---------------------------------------------------------------------
// Contended producers
// ---------------------------------------------------------------------

/// Configuration of the contended-producer workload.
#[derive(Debug, Clone, Copy)]
pub struct ContendedConfig {
    /// Concurrent producer threads (each appending to its own partition).
    pub producers: usize,
    /// Records each producer appends.
    pub records_per_producer: usize,
    /// Records per `send_batch` call in the batch row.
    pub batch_size: usize,
    /// Durable-ack latency per append (per batch in the batch row).
    pub ack_latency: Duration,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        ContendedConfig {
            producers: 8,
            records_per_producer: 200,
            batch_size: 20,
            ack_latency: Duration::from_micros(200),
        }
    }
}

impl ContendedConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ContendedConfig {
            producers: 4,
            records_per_producer: 40,
            batch_size: 10,
            ack_latency: Duration::from_micros(100),
        }
    }
}

/// One row of the contended-producer table.
#[derive(Debug, Clone, Copy)]
pub struct ContendedReport {
    /// True when records were appended through `send_batch`.
    pub batched: bool,
    /// Total records appended.
    pub records: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Appended records per second.
    pub records_per_sec: f64,
}

/// Runs the contended-producer workload once.
pub fn measure_contended(batched: bool, config: &ContendedConfig) -> ContendedReport {
    let broker: Broker<u64> = Broker::new(BrokerConfig {
        append_latency: config.ack_latency,
        ..BrokerConfig::default()
    });
    broker
        .create_topic("bench", config.producers)
        .expect("create bench topic");
    let started = Instant::now();
    let threads: Vec<_> = (0..config.producers)
        .map(|p| {
            let broker = broker.clone();
            let records = config.records_per_producer;
            let batch_size = config.batch_size;
            std::thread::spawn(move || {
                let producer = broker.producer(ComponentId::from_raw(p as u64 + 1));
                if batched {
                    let mut sent = 0;
                    while sent < records {
                        let batch: Vec<u64> = (sent..records.min(sent + batch_size))
                            .map(|i| i as u64)
                            .collect();
                        sent += batch.len();
                        producer.send_batch("bench", p, batch).expect("send_batch");
                    }
                } else {
                    for i in 0..records {
                        producer.send("bench", p, i as u64).expect("send");
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("producer thread");
    }
    let elapsed = started.elapsed();
    let records = config.producers * config.records_per_producer;
    ContendedReport {
        batched,
        records,
        elapsed,
        records_per_sec: records as f64 / elapsed.as_secs_f64(),
    }
}

/// Runs both contended-producer rows: single-record appends, then batches.
pub fn contended_sweep(config: &ContendedConfig) -> Vec<ContendedReport> {
    vec![
        measure_contended(false, config),
        measure_contended(true, config),
    ]
}

// ---------------------------------------------------------------------
// Skewed actors
// ---------------------------------------------------------------------

/// Configuration of the skewed-actor workload.
#[derive(Debug, Clone, Copy)]
pub struct SkewedConfig {
    /// Dispatch workers (shards) of the serving component.
    pub workers: usize,
    /// Shards the actors are skewed onto (actor names are chosen so static
    /// hashing lands every actor on one of this many shards).
    pub hot_shards: usize,
    /// Number of distinct actors.
    pub actors: usize,
    /// Asynchronous invocations fired per actor (plus one final blocking
    /// call per actor as a completion barrier).
    pub calls_per_actor: usize,
    /// Service time of each invocation.
    pub service_time: Duration,
}

impl Default for SkewedConfig {
    fn default() -> Self {
        SkewedConfig {
            workers: 8,
            hot_shards: 2,
            actors: 32,
            calls_per_actor: 20,
            service_time: Duration::from_micros(1_500),
        }
    }
}

impl SkewedConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        SkewedConfig {
            workers: 4,
            hot_shards: 1,
            actors: 6,
            calls_per_actor: 8,
            service_time: Duration::from_micros(500),
        }
    }
}

/// Gate on the skewed workload: the hottest shard's load over the mean must
/// stay below this. The default workload measures 1.16–1.28 (see
/// `BENCH_lock_granularity.json`); static hashing alone left 5.25.
pub const MAX_SKEWED_LOAD_RATIO: f64 = 2.0;

/// One row of the skewed-actor table.
#[derive(Debug, Clone)]
pub struct SkewedReport {
    /// Total invocations executed (tells + barrier calls).
    pub total_calls: usize,
    /// Wall-clock duration from first tell to last barrier return.
    pub elapsed: Duration,
    /// Invocations per second.
    pub throughput: f64,
    /// Requests admitted per dispatch shard.
    pub shard_loads: Vec<u64>,
    /// Hottest shard load over mean shard load (1.0 = perfectly balanced).
    pub max_over_mean: f64,
    /// Whole-actor steals performed.
    pub steals: u64,
    /// Placement cache hits observed by the driving client.
    pub placement_hits: u64,
    /// Placement cache misses observed by the driving client.
    pub placement_misses: u64,
}

/// The actor: sleeps for the configured service time per invocation.
struct Sleeper;

impl Actor for Sleeper {
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

/// The dispatcher's static shard of an actor: the same stable hash of the
/// qualified name `DispatchPool` uses.
fn static_shard(actor: &ActorRef, workers: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    actor.qualified_name().hash(&mut hasher);
    (hasher.finish() as usize) % workers
}

/// Picks `count` actor names that all hash onto the first `hot_shards`
/// dispatch shards, maximizing static imbalance.
pub fn skewed_actor_names(config: &SkewedConfig) -> Vec<String> {
    let mut names = Vec::with_capacity(config.actors);
    let mut candidate = 0u64;
    while names.len() < config.actors {
        let name = format!("s{candidate}");
        candidate += 1;
        if static_shard(&ActorRef::new("Sleeper", &name), config.workers) < config.hot_shards {
            names.push(name);
        }
    }
    names
}

/// Runs the skewed-actor workload once.
pub fn measure_skewed(config: &SkewedConfig) -> SkewedReport {
    // One reactor per shard, whatever the host's core count: the auto-sized
    // pool has as few as 2 reactors, and 2 reactors drain 2 hot shards
    // without ever leaving one idle to steal, so shard balance would
    // measure the host, not the stealing.
    let mesh = Mesh::new(
        MeshConfig::for_tests()
            .with_dispatch_workers(config.workers)
            .with_reactor_threads(config.workers),
    );
    let node = mesh.add_node();
    let server = mesh.add_component(node, "skew-server", |c| {
        c.host("Sleeper", || Box::new(Sleeper))
    });
    let client = mesh.client();
    let names = skewed_actor_names(config);

    // Warm up: place and instantiate every actor outside the measured phase.
    for name in &names {
        client
            .call(&ActorRef::new("Sleeper", name), "work", vec![Value::Int(0)])
            .expect("warmup call");
    }

    let service = config.service_time.as_micros() as i64;
    let started = Instant::now();
    // Firehose: queue every invocation asynchronously so the skewed shards'
    // queues actually build up (that is what stealing redistributes).
    for _ in 0..config.calls_per_actor {
        for name in &names {
            client
                .tell(
                    &ActorRef::new("Sleeper", name),
                    "work",
                    vec![Value::Int(service)],
                )
                .expect("tell");
        }
    }
    // Completion barrier: per-actor FIFO means each blocking call returns
    // only after every queued tell of that actor has executed.
    for name in &names {
        client
            .call(
                &ActorRef::new("Sleeper", name),
                "work",
                vec![Value::Int(service)],
            )
            .expect("barrier call");
    }
    let elapsed = started.elapsed();

    let shard_loads = mesh.shard_loads(server).expect("server shard loads");
    let steals = mesh.steal_count(server).expect("server steal count");
    let placement = mesh
        .placement_counters(client.component_id())
        .expect("client placement counters");
    mesh.shutdown();

    let total_calls = config.actors * (config.calls_per_actor + 1);
    let mean = shard_loads.iter().sum::<u64>() as f64 / shard_loads.len() as f64;
    let max = shard_loads.iter().copied().max().unwrap_or(0) as f64;
    SkewedReport {
        total_calls,
        elapsed,
        throughput: total_calls as f64 / elapsed.as_secs_f64(),
        max_over_mean: if mean > 0.0 { max / mean } else { 0.0 },
        shard_loads,
        steals,
        placement_hits: placement.hits,
        placement_misses: placement.misses,
    }
}

/// Whether the skewed workload balanced: at least one steal, and the
/// hottest shard below [`MAX_SKEWED_LOAD_RATIO`] times the mean.
pub fn skewed_balanced(report: &SkewedReport) -> bool {
    report.steals > 0 && report.max_over_mean < MAX_SKEWED_LOAD_RATIO
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// One human-readable contended-producer table row.
pub fn contended_row(report: &ContendedReport) -> String {
    format!(
        "{:>8} {:>9} {:>12.1} {:>14.0}",
        if report.batched { "batch" } else { "single" },
        report.records,
        report.elapsed.as_secs_f64() * 1e3,
        report.records_per_sec,
    )
}

/// One human-readable skewed-actor table row.
pub fn skewed_row(report: &SkewedReport) -> String {
    format!(
        "{:>8} {:>12.1} {:>12.0} {:>13.2} {:>7} {:>7} {:>8}",
        report.total_calls,
        report.elapsed.as_secs_f64() * 1e3,
        report.throughput,
        report.max_over_mean,
        report.steals,
        report.placement_hits,
        report.placement_misses,
    )
}

/// Serializes both workloads as the `BENCH_lock_granularity.json` document
/// (hand-rolled: the offline serde shim has no serializer).
pub fn to_json(
    contended_config: &ContendedConfig,
    contended: &[ContendedReport],
    skewed_config: &SkewedConfig,
    skewed: &SkewedReport,
) -> String {
    let mut contended_rows = String::new();
    for (index, report) in contended.iter().enumerate() {
        if index > 0 {
            contended_rows.push_str(",\n");
        }
        contended_rows.push_str(&format!(
            "      {{\"batched\": {}, \"records\": {}, \
             \"elapsed_ms\": {:.3}, \"records_per_sec\": {:.1}}}",
            report.batched,
            report.records,
            report.elapsed.as_secs_f64() * 1e3,
            report.records_per_sec,
        ));
    }
    let loads: Vec<String> = skewed.shard_loads.iter().map(u64::to_string).collect();
    let skewed_row = format!(
        "{{\"total_calls\": {}, \"elapsed_ms\": {:.3}, \
         \"throughput_calls_per_sec\": {:.1}, \"shard_loads\": [{}], \
         \"max_over_mean\": {:.3}, \"steals\": {}, \
         \"placement_hits\": {}, \"placement_misses\": {}}}",
        skewed.total_calls,
        skewed.elapsed.as_secs_f64() * 1e3,
        skewed.throughput,
        loads.join(", "),
        skewed.max_over_mean,
        skewed.steals,
        skewed.placement_hits,
        skewed.placement_misses,
    );
    format!(
        "{{\n  \"benchmark\": \"lock_granularity\",\n  \"contended_producer\": {{\n    \
         \"workload\": {{\"producers\": {}, \"records_per_producer\": {}, \
         \"batch_size\": {}, \"ack_latency_us\": {}}},\n    \
         \"rows\": [\n{contended_rows}\n    ]\n  }},\n  \
         \"skewed_actors\": {{\n    \
         \"workload\": {{\"workers\": {}, \"hot_shards\": {}, \"actors\": {}, \
         \"calls_per_actor\": {}, \"service_time_us\": {}}},\n    \
         \"rows\": [\n      {skewed_row}\n    ]\n  }}\n}}\n",
        contended_config.producers,
        contended_config.records_per_producer,
        contended_config.batch_size,
        contended_config.ack_latency.as_micros(),
        skewed_config.workers,
        skewed_config.hot_shards,
        skewed_config.actors,
        skewed_config.calls_per_actor,
        skewed_config.service_time.as_micros(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_names_land_on_hot_shards_only() {
        let config = SkewedConfig::default();
        let names = skewed_actor_names(&config);
        assert_eq!(names.len(), config.actors);
        for name in &names {
            let shard = static_shard(&ActorRef::new("Sleeper", name), config.workers);
            assert!(shard < config.hot_shards, "{name} landed on shard {shard}");
        }
    }

    #[test]
    fn contended_smoke_runs_and_fine_is_not_slower() {
        let config = ContendedConfig {
            producers: 4,
            records_per_producer: 20,
            batch_size: 5,
            ack_latency: Duration::from_millis(1),
        };
        let reports = contended_sweep(&config);
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert_eq!(report.records, 80);
            assert!(report.records_per_sec > 0.0);
        }
        // A global lock would serialize every ack: 80 records x 1 ms. Per-
        // partition locks overlap the four producers' acks (~20 ms), so
        // even a loaded host stays well under the serialized floor.
        let serialized = config.ack_latency * 80;
        assert!(
            reports[0].elapsed < serialized,
            "single appends took {:?}, no faster than one global lock ({serialized:?})",
            reports[0].elapsed
        );
    }

    #[test]
    fn skewed_smoke_runs_and_reports_loads() {
        let config = SkewedConfig {
            workers: 2,
            hot_shards: 1,
            actors: 3,
            calls_per_actor: 4,
            service_time: Duration::from_micros(200),
        };
        let report = measure_skewed(&config);
        assert_eq!(report.shard_loads.len(), 2);
        assert!(report.total_calls > 0);
        assert!(report.placement_hits + report.placement_misses > 0);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let contended_config = ContendedConfig::smoke();
        let skewed_config = SkewedConfig::smoke();
        let contended = vec![ContendedReport {
            batched: false,
            records: 10,
            elapsed: Duration::from_millis(10),
            records_per_sec: 1000.0,
        }];
        let skewed = SkewedReport {
            total_calls: 10,
            elapsed: Duration::from_millis(10),
            throughput: 1000.0,
            shard_loads: vec![5, 5],
            max_over_mean: 1.0,
            steals: 2,
            placement_hits: 9,
            placement_misses: 1,
        };
        let json = to_json(&contended_config, &contended, &skewed_config, &skewed);
        assert!(json.contains("\"benchmark\": \"lock_granularity\""));
        assert!(json.contains("\"contended_producer\""));
        assert!(json.contains("\"skewed_actors\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
