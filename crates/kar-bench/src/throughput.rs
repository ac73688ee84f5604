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
//! The tier-1 test `four_workers_at_least_double_single_worker_throughput`
//! gates the worker scaling, and the Criterion bench `parallel_dispatch`
//! tracks it over time. The closed loop itself (`closed_loop` and its
//! [`CallStats`]) and the `Echo` and `Sleeper` actors are shared by the
//! partition, topology, delivery and lock-granularity harnesses.

use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Client, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarResult, Value};

use crate::report::{as_ms, as_us, percentile, Row};

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

/// Call count, wall-clock time, throughput and latency percentiles of one
/// closed-loop run (`closed_loop`).
#[derive(Debug, Clone, Copy)]
pub struct CallStats {
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
}

impl CallStats {
    /// The report cells: `total_calls`, `elapsed_ms`, `calls_per_sec`,
    /// `p50_us`, `p99_us`.
    pub fn cells(&self) -> Row {
        vec![
            ("total_calls", self.total_calls.into()),
            ("elapsed_ms", as_ms(self.elapsed).into()),
            ("calls_per_sec", self.throughput.into()),
            ("p50_us", as_us(self.p50).into()),
            ("p99_us", as_us(self.p99).into()),
        ]
    }
}

/// A closed-loop run of 10 calls at `throughput` calls/s, for report tests.
#[cfg(test)]
pub(crate) fn stats_at(throughput: f64) -> CallStats {
    let elapsed = Duration::from_secs_f64(10.0 / throughput);
    let (p50, p99) = (Duration::from_micros(400), Duration::from_micros(900));
    CallStats {
        total_calls: 10,
        elapsed,
        throughput,
        p50,
        p99,
    }
}

/// Drives `calls` sequential blocking calls of `method(args)` at every
/// actor, each from a client thread of its own, after one unmeasured warmup
/// call per actor that places and instantiates it.
pub(crate) fn closed_loop(
    client: &Client,
    actors: &[ActorRef],
    calls: usize,
    method: &'static str,
    args: &[Value],
) -> CallStats {
    for actor in actors {
        client
            .call(actor, method, args.to_vec())
            .expect("warmup call");
    }
    let started = Instant::now();
    let drivers: Vec<_> = actors
        .iter()
        .map(|actor| {
            let (client, actor, args) = (client.clone(), actor.clone(), args.to_vec());
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(calls);
                for _ in 0..calls {
                    let t0 = Instant::now();
                    client
                        .call(&actor, method, args.clone())
                        .expect("measured call");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(actors.len() * calls);
    for driver in drivers {
        latencies.extend(driver.join().expect("driver thread"));
    }
    let elapsed = started.elapsed();
    latencies.sort();
    CallStats {
        total_calls: latencies.len(),
        elapsed,
        throughput: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
    }
}

/// `count` actors of type `actor_type`, keyed `{prefix}0`, `{prefix}1`, ….
pub(crate) fn actors(actor_type: &str, prefix: &str, count: usize) -> Vec<ActorRef> {
    (0..count)
        .map(|i| ActorRef::new(actor_type, format!("{prefix}{i}")))
        .collect()
}

/// An actor answering every method with `Null`: a workload that is pure
/// message plane.
pub(crate) struct Echo;

impl Actor for Echo {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        Ok(Outcome::value(Value::Null))
    }
}

/// An actor whose `work(us)` holds its actor (and its dispatch worker) for
/// `us` microseconds, emulating the latency-bound work (store round trips,
/// external I/O) that parallel dispatch overlaps across actors.
pub(crate) struct Sleeper;

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

/// The result of one throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Dispatch workers the mesh ran with.
    pub workers: usize,
    /// The closed-loop run.
    pub calls: CallStats,
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
        c.host("Spinner", || Box::new(Sleeper))
    });
    let service = Value::Int(config.service_time_us as i64);
    let targets = actors("Spinner", "s", config.actors);
    let calls = closed_loop(
        &mesh.client(),
        &targets,
        config.calls_per_actor,
        "work",
        &[service],
    );
    mesh.shutdown();
    ThroughputReport { workers, calls }
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
            parallel.calls.throughput >= 2.0 * serial.calls.throughput,
            "expected >= 2x speedup at 4 workers: serial {:.0}/s, parallel {:.0}/s",
            serial.calls.throughput,
            parallel.calls.throughput
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
        assert_eq!(report.calls.total_calls, 10);
        assert!(report.calls.throughput > 0.0);
        assert!(report.calls.p50 <= report.calls.p99);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 50.0), Duration::from_millis(51));
        assert_eq!(percentile(&sorted, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }
}
