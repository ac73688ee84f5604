//! State-plane benchmarks for the sharded, pipelined store.
//!
//! Two workloads measure the sharded store, its pipeline command API, and
//! the per-activation actor-state cache:
//!
//! * **Contended mixed commands** (store level): N client threads run a
//!   mixed get/set/cas workload concurrently, each over its own key space,
//!   with a per-round-trip latency. The per-command row pays one round trip
//!   per command; the *pipelined* row batches commands through the
//!   `Pipeline` API (one latency charge and one lock pass per batch).
//! * **Actor state flush** (mesh level): actors write several state fields
//!   per invocation. The runtime answers reads from the actor-state cache
//!   and flushes the writes as one pipelined round trip before responding,
//!   so the reported metric — store round trips per invocation — is 1.
//!
//! The `bench_store` binary runs both, prints the tables, and emits
//! `BENCH_store.json`; `--smoke` runs a seconds-scale shrunken version in CI
//! so state-plane lock regressions surface there.

use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_store::{Store, StoreConfig};
use kar_types::{ActorRef, ComponentId, KarResult, LatencyProfile, Value};

// ---------------------------------------------------------------------
// Contended mixed commands
// ---------------------------------------------------------------------

/// Configuration of the contended mixed-command workload.
#[derive(Debug, Clone, Copy)]
pub struct ContendedStoreConfig {
    /// Concurrent client threads.
    pub threads: usize,
    /// Commands each thread issues.
    pub ops_per_thread: usize,
    /// Commands per pipeline flush in the pipelined row.
    pub batch_size: usize,
    /// Round-trip latency per command (per flush in the pipelined row).
    pub op_latency: Duration,
    /// Size of the string payload written by set/cas commands.
    pub value_bytes: usize,
    /// Distinct keys per thread (commands cycle over them).
    pub keys_per_thread: usize,
}

impl Default for ContendedStoreConfig {
    fn default() -> Self {
        ContendedStoreConfig {
            threads: 8,
            ops_per_thread: 480,
            batch_size: 16,
            op_latency: Duration::from_micros(200),
            value_bytes: 256,
            keys_per_thread: 32,
        }
    }
}

impl ContendedStoreConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ContendedStoreConfig {
            threads: 4,
            ops_per_thread: 64,
            batch_size: 8,
            op_latency: Duration::from_micros(100),
            value_bytes: 64,
            keys_per_thread: 8,
        }
    }
}

/// One row of the contended mixed-command table.
#[derive(Debug, Clone)]
pub struct ContendedStoreReport {
    /// True when commands went through the pipeline API.
    pub pipelined: bool,
    /// Total commands applied.
    pub ops: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Commands per second.
    pub ops_per_sec: f64,
    /// Store round trips charged.
    pub round_trips: u64,
    /// Sum of contended shard-lock acquisitions.
    pub contended_locks: u64,
}

/// Runs the contended mixed workload once.
pub fn measure_contended_store(
    pipelined: bool,
    config: &ContendedStoreConfig,
) -> ContendedStoreReport {
    let store = Store::with_config(StoreConfig::with_op_latency(config.op_latency));
    let payload = "x".repeat(config.value_bytes);
    let started = Instant::now();
    let threads: Vec<_> = (0..config.threads)
        .map(|t| {
            let store = store.clone();
            let payload = payload.clone();
            let config = *config;
            std::thread::spawn(move || {
                let conn = store.connect(ComponentId::from_raw(t as u64 + 1));
                let key = |i: usize| format!("bench/t{t}/k{}", i % config.keys_per_thread);
                if pipelined {
                    let mut issued = 0;
                    while issued < config.ops_per_thread {
                        let mut pipe = conn.pipeline();
                        let end = config.ops_per_thread.min(issued + config.batch_size);
                        for i in issued..end {
                            match i % 3 {
                                0 => pipe.get(&key(i)),
                                1 => pipe.set(&key(i), Value::from(payload.as_str())),
                                _ => pipe.compare_and_swap(
                                    &key(i),
                                    None,
                                    Value::from(payload.as_str()),
                                ),
                            };
                        }
                        issued = end;
                        pipe.flush().expect("pipeline flush");
                    }
                } else {
                    for i in 0..config.ops_per_thread {
                        match i % 3 {
                            0 => {
                                conn.get(&key(i)).expect("get");
                            }
                            1 => {
                                conn.set(&key(i), Value::from(payload.as_str()))
                                    .expect("set");
                            }
                            _ => {
                                let _ = conn
                                    .compare_and_swap(&key(i), None, Value::from(payload.as_str()))
                                    .expect("cas");
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let elapsed = started.elapsed();
    let ops = config.threads * config.ops_per_thread;
    let stats = store.stats();
    ContendedStoreReport {
        pipelined,
        ops,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        round_trips: stats.round_trips,
        contended_locks: store.shard_contention().iter().sum(),
    }
}

/// Runs both rows: per-command, then pipelined.
pub fn contended_store_sweep(config: &ContendedStoreConfig) -> Vec<ContendedStoreReport> {
    vec![
        measure_contended_store(false, config),
        measure_contended_store(true, config),
    ]
}

// ---------------------------------------------------------------------
// Actor state flush
// ---------------------------------------------------------------------

/// Configuration of the actor state-flush workload.
#[derive(Debug, Clone, Copy)]
pub struct StateFlushConfig {
    /// Distinct actors invoked round-robin.
    pub actors: usize,
    /// Measured invocations per actor.
    pub calls_per_actor: usize,
    /// State fields each invocation writes (plus one read).
    pub fields_per_call: usize,
    /// Store round-trip latency.
    pub store_latency: Duration,
}

impl Default for StateFlushConfig {
    fn default() -> Self {
        StateFlushConfig {
            actors: 8,
            calls_per_actor: 25,
            fields_per_call: 4,
            store_latency: Duration::from_micros(200),
        }
    }
}

impl StateFlushConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        StateFlushConfig {
            actors: 3,
            calls_per_actor: 6,
            fields_per_call: 3,
            store_latency: Duration::from_micros(100),
        }
    }
}

/// The actor state-flush result.
#[derive(Debug, Clone)]
pub struct StateFlushReport {
    /// Measured invocations.
    pub invocations: usize,
    /// Store round trips charged during the measured phase.
    pub round_trips: u64,
    /// Round trips per invocation (the paper-facing metric: the real KAR
    /// runtime caches actor state in memory and flushes via Redis
    /// pipelines).
    pub round_trips_per_invocation: f64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Invocations per second.
    pub calls_per_sec: f64,
}

/// The actor: writes `fields_per_call` state fields and reads one back.
struct StateWriter {
    fields: usize,
}

impl Actor for StateWriter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "write" => {
                let round = args[0].as_i64().unwrap_or(0);
                for field in 0..self.fields {
                    ctx.state()
                        .set(&format!("f{field}"), Value::Int(round + field as i64))?;
                }
                let check = ctx.state().get("f0")?;
                Ok(Outcome::value(check.unwrap_or(Value::Null)))
            }
            other => Err(kar_types::KarError::application(format!(
                "no method {other}"
            ))),
        }
    }
}

/// Runs the state-flush workload once.
pub fn measure_state_flush(config: &StateFlushConfig) -> StateFlushReport {
    let mesh = Mesh::new(MeshConfig {
        latency: LatencyProfile {
            store_op: config.store_latency,
            ..LatencyProfile::ZERO
        },
        ..MeshConfig::for_tests()
    });
    let node = mesh.add_node();
    let fields = config.fields_per_call;
    mesh.add_component(node, "state-server", move |c| {
        c.host("StateWriter", move || Box::new(StateWriter { fields }))
    });
    let client = mesh.client();

    // Warm up: place every actor and load its (empty) state image, so the
    // measured phase is steady-state invocation cost.
    for a in 0..config.actors {
        client
            .call(
                &ActorRef::new("StateWriter", format!("w{a}")),
                "write",
                vec![Value::Int(0)],
            )
            .expect("warmup call");
    }

    let store = mesh.store();
    let before = store.stats();
    let started = Instant::now();
    for round in 1..=config.calls_per_actor {
        for a in 0..config.actors {
            client
                .call(
                    &ActorRef::new("StateWriter", format!("w{a}")),
                    "write",
                    vec![Value::Int(round as i64)],
                )
                .expect("measured call");
        }
    }
    let elapsed = started.elapsed();
    let delta = store.stats().since(&before);
    mesh.shutdown();

    let invocations = config.actors * config.calls_per_actor;
    StateFlushReport {
        invocations,
        round_trips: delta.round_trips,
        round_trips_per_invocation: delta.round_trips as f64 / invocations as f64,
        elapsed,
        calls_per_sec: invocations as f64 / elapsed.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// One human-readable contended-store table row.
pub fn contended_store_row(report: &ContendedStoreReport) -> String {
    format!(
        "{:>9} {:>8} {:>12.1} {:>12.0} {:>12} {:>10}",
        if report.pipelined {
            "pipeline"
        } else {
            "command"
        },
        report.ops,
        report.elapsed.as_secs_f64() * 1e3,
        report.ops_per_sec,
        report.round_trips,
        report.contended_locks,
    )
}

/// One human-readable state-flush table row.
pub fn state_flush_row(report: &StateFlushReport) -> String {
    format!(
        "{:>12} {:>12} {:>10.2} {:>12.1} {:>10.0}",
        report.invocations,
        report.round_trips,
        report.round_trips_per_invocation,
        report.elapsed.as_secs_f64() * 1e3,
        report.calls_per_sec,
    )
}

/// Serializes both workloads as the `BENCH_store.json` document
/// (hand-rolled: the offline serde shim has no serializer).
pub fn to_json(
    contended_config: &ContendedStoreConfig,
    contended: &[ContendedStoreReport],
    flush_config: &StateFlushConfig,
    flush: &StateFlushReport,
) -> String {
    let mut contended_rows = String::new();
    for (index, report) in contended.iter().enumerate() {
        if index > 0 {
            contended_rows.push_str(",\n");
        }
        contended_rows.push_str(&format!(
            "      {{\"pipelined\": {}, \"ops\": {}, \
             \"elapsed_ms\": {:.3}, \"ops_per_sec\": {:.1}, \
             \"round_trips\": {}, \"contended_locks\": {}}}",
            report.pipelined,
            report.ops,
            report.elapsed.as_secs_f64() * 1e3,
            report.ops_per_sec,
            report.round_trips,
            report.contended_locks,
        ));
    }
    let flush_row = format!(
        "{{\"invocations\": {}, \"round_trips\": {}, \
         \"round_trips_per_invocation\": {:.3}, \"elapsed_ms\": {:.3}, \
         \"calls_per_sec\": {:.1}}}",
        flush.invocations,
        flush.round_trips,
        flush.round_trips_per_invocation,
        flush.elapsed.as_secs_f64() * 1e3,
        flush.calls_per_sec,
    );
    format!(
        "{{\n  \"benchmark\": \"store\",\n  \"contended_mixed\": {{\n    \
         \"workload\": {{\"threads\": {}, \"ops_per_thread\": {}, \"batch_size\": {}, \
         \"op_latency_us\": {}, \"value_bytes\": {}, \"keys_per_thread\": {}}},\n    \
         \"rows\": [\n{contended_rows}\n    ]\n  }},\n  \
         \"actor_state_flush\": {{\n    \
         \"workload\": {{\"actors\": {}, \"calls_per_actor\": {}, \"fields_per_call\": {}, \
         \"store_latency_us\": {}}},\n    \
         \"rows\": [\n      {flush_row}\n    ]\n  }}\n}}\n",
        contended_config.threads,
        contended_config.ops_per_thread,
        contended_config.batch_size,
        contended_config.op_latency.as_micros(),
        contended_config.value_bytes,
        contended_config.keys_per_thread,
        flush_config.actors,
        flush_config.calls_per_actor,
        flush_config.fields_per_call,
        flush_config.store_latency.as_micros(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_smoke_runs_and_counts_round_trips() {
        let config = ContendedStoreConfig {
            threads: 2,
            ops_per_thread: 24,
            batch_size: 8,
            op_latency: Duration::from_micros(50),
            value_bytes: 16,
            keys_per_thread: 4,
        };
        let per_command = measure_contended_store(false, &config);
        assert_eq!(per_command.ops, 48);
        assert_eq!(per_command.round_trips, 48);
        let pipelined = measure_contended_store(true, &config);
        assert_eq!(pipelined.ops, 48);
        assert_eq!(
            pipelined.round_trips,
            (24_u64).div_ceil(8) * 2,
            "one round trip per flush"
        );
    }

    #[test]
    fn state_flush_cache_cuts_round_trips_per_invocation() {
        let config = StateFlushConfig {
            actors: 2,
            calls_per_actor: 4,
            fields_per_call: 4,
            store_latency: Duration::ZERO,
        };
        let report = measure_state_flush(&config);
        assert_eq!(report.invocations, 8);
        // Steady state: 4 sets and 1 get per invocation, all answered by the
        // cache and flushed as exactly one round trip (`BENCH_store.json`
        // records 1.000; one store command per field access would be 5).
        assert_eq!(report.round_trips, 8);
        assert_eq!(report.round_trips_per_invocation, 1.0);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let contended_config = ContendedStoreConfig::smoke();
        let flush_config = StateFlushConfig::smoke();
        let contended = vec![ContendedStoreReport {
            pipelined: false,
            ops: 10,
            elapsed: Duration::from_millis(10),
            ops_per_sec: 1000.0,
            round_trips: 10,
            contended_locks: 2,
        }];
        let flush = StateFlushReport {
            invocations: 10,
            round_trips: 12,
            round_trips_per_invocation: 1.2,
            elapsed: Duration::from_millis(10),
            calls_per_sec: 1000.0,
        };
        let json = to_json(&contended_config, &contended, &flush_config, &flush);
        assert!(json.contains("\"benchmark\": \"store\""));
        assert!(json.contains("\"contended_mixed\""));
        assert!(json.contains("\"actor_state_flush\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
