//! Stress tests for the lock-granularity overhaul: dispatch-shard work
//! stealing must preserve per-actor FIFO order and exactly-once execution,
//! both in steady state and across kill/recovery fault injection.
//!
//! The actors are deliberately *skewed*: their names are chosen so static
//! actor→shard hashing piles every one of them onto the first dispatch
//! shards, which is exactly the imbalance stealing exists to fix — so these
//! tests exercise real steals, not just the code path being enabled.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

/// A durable event log with ordering verification built into the actor (the
/// same shape as tests/parallel_dispatch.rs), so violations are detected at
/// the point they would occur, whichever worker or replica executes the
/// invocation.
struct Ledger;

impl Actor for Ledger {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            // Sequence-numbered record: dedupes runtime retries, flags any
            // first execution that arrives out of order. An optional second
            // argument is a service time in microseconds, so the workload
            // stays in flight long enough for chaos to overlap it.
            "record" => {
                let i = args[0].as_i64().unwrap_or(-1);
                if let Some(service) = args.get(1).and_then(Value::as_i64) {
                    std::thread::sleep(Duration::from_micros(service as u64));
                }
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                if entries.iter().any(|e| e.as_i64() == Some(i)) {
                    return Ok(Outcome::value("dup"));
                }
                if i != entries.len() as i64 {
                    ctx.state().set(
                        "violation",
                        Value::from(format!(
                            "record {i} arrived with {} entries applied",
                            entries.len()
                        )),
                    )?;
                }
                entries.push(Value::Int(i));
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value("ok"))
            }
            // Blind append, used by the no-failure FIFO phase. An optional
            // second argument is a service time in microseconds (keeps the
            // hot shards busy so queues build and stealing fires).
            "push" => {
                if let Some(service) = args.get(1).and_then(Value::as_i64) {
                    std::thread::sleep(Duration::from_micros(service as u64));
                }
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                entries.push(args[0].clone());
                ctx.state().set("log", Value::List(entries))?;
                Ok(Outcome::value(Value::Null))
            }
            "len" => {
                let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                Ok(Outcome::value(Value::Int(
                    log.as_list().map(<[Value]>::len).unwrap_or(0) as i64,
                )))
            }
            "read" => Ok(Outcome::value(
                ctx.state().get("log")?.unwrap_or(Value::List(Vec::new())),
            )),
            "violation" => Ok(Outcome::value(
                ctx.state().get("violation")?.unwrap_or(Value::Null),
            )),
            other => Err(KarError::application(format!("no method {other}"))),
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

/// Picks `count` Ledger actor names (with the given prefix) that all hash
/// onto the first `hot_shards` of `workers` dispatch shards.
fn skewed_names(prefix: &str, count: usize, workers: usize, hot_shards: usize) -> Vec<String> {
    let mut names = Vec::with_capacity(count);
    let mut candidate = 0u64;
    while names.len() < count {
        let name = format!("{prefix}{candidate}");
        candidate += 1;
        if static_shard(&ActorRef::new("Ledger", &name), workers) < hot_shards {
            names.push(name);
        }
    }
    names
}

#[test]
fn skewed_tells_stay_fifo_and_actually_steal() {
    const WORKERS: usize = 8;
    const ACTORS: usize = 8;
    const MESSAGES: i64 = 40;

    let mesh = Mesh::new(MeshConfig::for_tests().with_dispatch_workers(WORKERS));
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let names = skewed_names("fifo", ACTORS, WORKERS, 1);

    // Firehose: queue everything asynchronously, with enough service time
    // per push that the single hot shard's queue stays deep while idle
    // workers wake up and steal whole actors.
    for i in 0..MESSAGES {
        for name in &names {
            client
                .tell(
                    &ActorRef::new("Ledger", name),
                    "push",
                    vec![Value::Int(i), Value::Int(300)],
                )
                .unwrap();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for name in &names {
        let target = ActorRef::new("Ledger", name);
        loop {
            let len = client
                .call(&target, "len", vec![])
                .unwrap()
                .as_i64()
                .unwrap();
            if len == MESSAGES {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{name}: only {len}/{MESSAGES} tells applied"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Stealing must have fired (8 skewed actors on 1 of 8 shards), and it
    // must not have reordered any actor's mailbox.
    let steals = mesh.snapshot().component(server).unwrap().dispatch.steals;
    assert!(steals > 0, "skewed workload never triggered a steal");
    for name in &names {
        let target = ActorRef::new("Ledger", name);
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap();
        assert_eq!(entries.len() as i64, MESSAGES, "{name}: wrong log length");
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "{name}: mailbox order violated at position {expected} (steals: {steals})"
            );
        }
    }
    let snapshot = mesh.snapshot();
    let loads: Vec<u64> = snapshot
        .component(server)
        .unwrap()
        .dispatch
        .shards
        .iter()
        .map(|shard| shard.load)
        .collect();
    assert_eq!(loads.len(), WORKERS);
    assert!(
        loads.iter().filter(|&&l| l > 0).count() > 1,
        "stealing never moved load off the hot shard: {loads:?}"
    );
    mesh.shutdown();
}

#[test]
fn exactly_once_and_order_survive_kill_recovery_with_stealing() {
    const WORKERS: usize = 8;
    const ACTORS: usize = 5;
    const CALLS: i64 = 25;
    // Enough noise actors that each hosting component's hot shards hold
    // several distinct actors: a shard whose only queued actor is the one
    // its drainer is busy with is (correctly) never stolen from.
    const NOISE_ACTORS: usize = 12;
    const NOISE_MESSAGES: i64 = 100;

    let mesh = Mesh::new(MeshConfig::for_tests().with_dispatch_workers(WORKERS));
    let node = mesh.add_node();
    mesh.add_component(node, "replica-a", |c| c.host("Ledger", || Box::new(Ledger)));
    mesh.add_component(node, "replica-b", |c| c.host("Ledger", || Box::new(Ledger)));
    let client = mesh.client();
    let checked = skewed_names("chk", ACTORS, WORKERS, 2);
    let noise = skewed_names("noise", NOISE_ACTORS, WORKERS, 2);

    // Noise firehose onto the hot shards: deep queues make idle workers
    // steal whole actors while the checked traffic runs. Noise logs are not
    // verified (async tells crossing a failure may be re-homed after newer
    // ones were sent; only their exactly-once dedupe matters to the run).
    for i in 0..NOISE_MESSAGES {
        for name in &noise {
            client
                .tell(
                    &ActorRef::new("Ledger", name),
                    "push",
                    vec![Value::Int(i), Value::Int(300)],
                )
                .unwrap();
        }
    }

    // Chaos: kill and replace live application components while the drivers
    // run, sampling steal counters just before each kill so the run proves
    // steals actually happened before (and between) recoveries.
    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = stop.clone();
    let chaos_mesh = mesh.clone();
    let client_component = client.component_id();
    let chaos = std::thread::spawn(move || {
        // Steal counters die with their component, so they are sampled just
        // before each kill. The sampling is *adaptive*: each kill is held
        // (bounded) until a steal has been observed, so the firehose has
        // demonstrably fired before chaos starts shooting — a fixed grace
        // flaked on machines where the hot shards take longer to skew — and
        // a final sweep while the drivers finish catches steals the
        // pre-kill samples were too early for.
        let mut observed_steals = 0u64;
        let sample = |observed: &mut u64| {
            *observed += chaos_mesh
                .snapshot()
                .components
                .iter()
                .filter(|c| c.alive && c.id != client_component)
                .map(|c| c.dispatch.steals)
                .sum::<u64>();
        };
        for round in 0..3 {
            std::thread::sleep(Duration::from_millis(60));
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                if chaos_stop.load(Ordering::SeqCst) {
                    return observed_steals;
                }
                sample(&mut observed_steals);
                if observed_steals > 0 || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let victim = chaos_mesh
                .live_components()
                .into_iter()
                .rfind(|c| *c != client_component);
            if let Some(victim) = victim {
                chaos_mesh.kill_component(victim);
                let node = chaos_mesh.add_node();
                chaos_mesh.add_component(node, &format!("replacement-{round}"), |c| {
                    c.host("Ledger", || Box::new(Ledger))
                });
            }
        }
        while !chaos_stop.load(Ordering::SeqCst) && observed_steals == 0 {
            sample(&mut observed_steals);
            std::thread::sleep(Duration::from_millis(10));
        }
        observed_steals
    });

    // Checked traffic: per-actor sequential blocking calls, so per-actor
    // order is enforced end to end and every acknowledged call must be
    // applied exactly once, whatever the stealing and recovery do.
    let drivers: Vec<_> = checked
        .iter()
        .map(|name| {
            let client = client.clone();
            let name = name.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Ledger", &name);
                for i in 0..CALLS {
                    client
                        .call(&target, "record", vec![Value::Int(i), Value::Int(2_000)])
                        .unwrap();
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let observed_steals = chaos.join().unwrap();

    for name in &checked {
        let target = ActorRef::new("Ledger", name);
        let violation = client.call(&target, "violation", vec![]).unwrap();
        assert_eq!(
            violation,
            Value::Null,
            "{name} observed out-of-order execution (steals observed: {observed_steals})"
        );
        let log = client.call(&target, "read", vec![]).unwrap();
        let entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
        assert_eq!(
            entries.len() as i64,
            CALLS,
            "{name}: acknowledged records applied {} times, expected exactly {CALLS}",
            entries.len()
        );
        for (expected, entry) in entries.iter().enumerate() {
            assert_eq!(
                entry.as_i64(),
                Some(expected as i64),
                "{name}: log out of order"
            );
        }
    }
    assert!(
        observed_steals > 0,
        "the noise firehose never triggered a steal before a kill"
    );
    mesh.shutdown();
}
