//! Seeded chaos tests for the retry-orchestration policy surface: the
//! persisted schedule must survive re-homing (a kill during backoff resumes
//! the attempt count instead of resetting it), circuit breakers must keep
//! their position across recovery, the mesh retry budget must shed — not
//! melt — under a failing callee, and dead-lettered invocations must be
//! re-injectable exactly once.
//!
//! The kill in the backoff test is seeded (`KAR_CHAOS_SEED` reproduces a
//! run) and *aimed*: the chaos thread polls `Mesh::delayed_retries` and only
//! shoots a component it has just observed holding a parked retry, so every
//! kill lands inside a backoff window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome, RetryPolicy};
use kar_types::{ActorRef, KarError, KarResult, Value};

mod common;
use common::{chaos_seed, SplitMix64};

/// Fails every attempt whose persisted attempt count is below the
/// threshold in `args[0]`, recording each observed attempt number in a
/// shared (process-wide, kill-surviving) log so the test can assert the
/// schedule never went backwards across a re-homing.
struct Flaky {
    attempts_seen: Arc<Mutex<Vec<u32>>>,
}

impl Actor for Flaky {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "work" => {
                let fail_below = args[0].as_i64().unwrap_or(0) as u32;
                let attempt = ctx.retry_attempt();
                self.attempts_seen.lock().unwrap().push(attempt);
                if attempt < fail_below {
                    Err(KarError::application(format!("flaking at {attempt}")))
                } else {
                    Ok(Outcome::value(Value::Int(i64::from(attempt))))
                }
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn kill_during_backoff_resumes_schedule_instead_of_resetting() {
    const FAIL_BELOW: u32 = 3;

    let seed = chaos_seed(0xBAC0FF);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    let attempts_seen = Arc::new(Mutex::new(Vec::new()));
    mesh.add_component(node, "flaky-a", |c| {
        c.host("Flaky", flaky_host(&attempts_seen))
    });
    mesh.add_component(node, "flaky-b", |c| {
        c.host("Flaky", flaky_host(&attempts_seen))
    });
    let client = mesh.client();
    let client_component = client.component_id();

    // A wide fixed backoff (wall-clock: policies are not time-scale
    // compressed) keeps each retry parked long enough for the chaos thread
    // to observe it and land the kill inside the window.
    let policy = RetryPolicy::fixed(FAIL_BELOW + 2, Duration::from_millis(300)).retry_all_errors();

    let done = Arc::new(AtomicBool::new(false));
    let mesh_for_chaos = mesh.clone();
    let done_for_chaos = Arc::clone(&done);
    let attempts_for_chaos = Arc::clone(&attempts_seen);
    let chaos = std::thread::spawn(move || {
        let mut rng = SplitMix64::new(seed);
        // Aim: kill only a component just observed holding a parked retry,
        // so the re-homed request record carries mid-schedule retry state.
        let deadline = Instant::now() + Duration::from_secs(10);
        let victim = loop {
            if done_for_chaos.load(Ordering::Relaxed) || Instant::now() > deadline {
                break None;
            }
            let parked = mesh_for_chaos
                .snapshot()
                .components
                .iter()
                .filter(|c| c.alive && c.id != client_component)
                .find(|c| c.delayed_retries > 0)
                .map(|c| c.id);
            if parked.is_some() {
                break parked;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let Some(victim) = victim else { return 0 };
        // Seeded jitter, kept well under the 300 ms backoff so the retry is
        // still parked when the kill lands.
        std::thread::sleep(Duration::from_millis(rng.below(0, 50)));
        mesh_for_chaos.kill_component(victim);
        let node = mesh_for_chaos.add_node();
        mesh_for_chaos.add_component(node, "flaky-replacement", |c| {
            // The replacement records into the same shared log.
            c.host("Flaky", flaky_host(&attempts_for_chaos))
        });
        1
    });

    let target = ActorRef::new("Flaky", "f");
    let result = client.call_with_policy(
        &target,
        "work",
        vec![Value::Int(i64::from(FAIL_BELOW))],
        policy,
    );
    done.store(true, Ordering::Relaxed);
    let kills = chaos.join().unwrap();

    assert!(
        kills >= 1,
        "the chaos thread never observed a parked retry to kill"
    );
    assert!(
        mesh.wait_for_recoveries(kills, Duration::from_secs(10)),
        "the kill was never recovered"
    );
    // The schedule survived: the call eventually succeeded, at the attempt
    // the policy dictates.
    assert_eq!(
        result.unwrap().as_i64(),
        Some(i64::from(FAIL_BELOW)),
        "the call must succeed once the attempt count clears the threshold"
    );
    // And it survived *forward*: re-homing may replay the in-flight attempt
    // (a duplicate of the same number), but the persisted attempt count must
    // never go backwards — a reset to 0 after the kill would show up here as
    // a decrease.
    let seen = attempts_seen.lock().unwrap().clone();
    assert!(
        seen.windows(2).all(|w| w[1] >= w[0]),
        "attempt schedule went backwards across re-homing: {seen:?}"
    );
    assert_eq!(
        seen.iter().max().copied(),
        Some(FAIL_BELOW),
        "the schedule never reached the succeeding attempt: {seen:?}"
    );
    let metrics = mesh.snapshot().retry;
    assert!(
        metrics.scheduled >= u64::from(FAIL_BELOW),
        "every failed attempt must schedule a retry: {metrics:?}"
    );
    mesh.shutdown();
}

/// A `Flaky` factory recording into the given shared attempt log.
fn flaky_host(
    attempts: &Arc<Mutex<Vec<u32>>>,
) -> impl Fn() -> Box<dyn Actor> + Send + Sync + 'static {
    let attempts = Arc::clone(attempts);
    move || -> Box<dyn Actor> {
        Box::new(Flaky {
            attempts_seen: Arc::clone(&attempts),
        })
    }
}

/// Fails while the shared `healthy` flag is down; counts every execution.
struct Brittle {
    healthy: Arc<AtomicBool>,
    executions: Arc<AtomicU64>,
}

impl Actor for Brittle {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        if self.healthy.load(Ordering::SeqCst) {
            Ok(Outcome::value("ok"))
        } else {
            Err(KarError::application("dependency down"))
        }
    }
}

fn brittle_host(
    healthy: &Arc<AtomicBool>,
    executions: &Arc<AtomicU64>,
) -> impl Fn() -> Box<dyn Actor> + Send + Sync + 'static {
    let healthy = Arc::clone(healthy);
    let executions = Arc::clone(executions);
    move || -> Box<dyn Actor> {
        Box::new(Brittle {
            healthy: Arc::clone(&healthy),
            executions: Arc::clone(&executions),
        })
    }
}

#[test]
fn breaker_stays_open_across_recovery_and_probes_closed() {
    use kar::BreakerPosition;

    let mesh =
        Mesh::new(MeshConfig::for_tests().with_circuit_breaker(0.5, 6, Duration::from_millis(400)));
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "brittle-host", |c| {
        c.host("Brittle", brittle_host(&healthy, &executions))
    });
    let client = mesh.client();
    let target = ActorRef::new("Brittle", "b");

    // Feed the breaker's window until it opens (it never opens before the
    // window is full, so at least `window` failing calls are needed).
    let deadline = Instant::now() + Duration::from_secs(10);
    while mesh.snapshot().breaker("Brittle") != BreakerPosition::Open {
        assert!(
            Instant::now() < deadline,
            "breaker never opened under a 100%-failing actor"
        );
        let _ = client.call(&target, "poke", vec![]);
    }
    // While open, calls fail fast at dispatch — without executing the actor.
    let before = executions.load(Ordering::SeqCst);
    let err = client.call(&target, "poke", vec![]).unwrap_err();
    assert!(
        matches!(err, KarError::CircuitOpen { .. }),
        "an open breaker must fail fast with CircuitOpen, got {err:?}"
    );
    assert_eq!(
        executions.load(Ordering::SeqCst),
        before,
        "a fast-failed invocation must not reach the actor"
    );

    // Kill the hosting component while the breaker is open. The breaker is
    // mesh-level state keyed by actor type, so recovery re-homes the actor
    // but must not quietly reset the breaker to closed.
    let victim = mesh
        .live_components()
        .into_iter()
        .find(|c| *c != client.component_id())
        .expect("the brittle host is live");
    mesh.kill_component(victim);
    let replacement_node = mesh.add_node();
    mesh.add_component(replacement_node, "brittle-replacement", |c| {
        c.host("Brittle", brittle_host(&healthy, &executions))
    });
    assert!(
        mesh.wait_for_recoveries(1, Duration::from_secs(10)),
        "the kill was never recovered"
    );
    assert_eq!(
        mesh.snapshot().breaker("Brittle"),
        BreakerPosition::Open,
        "recovery must not reset an open breaker"
    );

    // Heal the dependency, wait out the cooldown, and let the half-open
    // probe close the breaker again.
    healthy.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(450));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let result = client.call(&target, "poke", vec![]);
        if result.is_ok() && mesh.snapshot().breaker("Brittle") == BreakerPosition::Closed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never closed after the dependency healed: {result:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = mesh.snapshot().retry;
    assert!(metrics.breaker_opened >= 1, "no open recorded: {metrics:?}");
    assert!(
        metrics.breaker_fast_fails >= 1,
        "no fast-fail recorded: {metrics:?}"
    );
    mesh.shutdown();
}

/// Fails the initial attempt whenever `args[0]` says so; retries succeed.
struct HalfBad;

impl Actor for HalfBad {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        _method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let fail_first = args.first().and_then(Value::as_bool).unwrap_or(false);
        if fail_first && ctx.retry_attempt() == 0 {
            Err(KarError::application("first attempt always fails"))
        } else {
            Ok(Outcome::value("ok"))
        }
    }
}

#[test]
fn budget_sheds_under_failing_callee_without_melting() {
    const CALLERS: usize = 20;
    const CALLS_EACH: usize = 2;

    // A tiny budget (5 burst tokens, 10/s refill) against ~20 near-
    // simultaneous retries guarantees sheds; shed retries must re-queue on
    // their backoff timer and eventually run, never drop.
    let mesh = Mesh::new(MeshConfig::for_tests().with_retry_budget(10.0, 5.0));
    let node = mesh.add_node();
    mesh.add_component(node, "halfbad-a", |c| {
        c.host("HalfBad", || Box::new(HalfBad))
    });
    mesh.add_component(node, "halfbad-b", |c| {
        c.host("HalfBad", || Box::new(HalfBad))
    });
    let client = mesh.client();

    let policy = RetryPolicy::fixed(5, Duration::from_millis(50)).retry_all_errors();
    let drivers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let client = client.clone();
            let policy = policy.clone();
            std::thread::spawn(move || {
                for call in 0..CALLS_EACH {
                    // Half the traffic fails its first attempt and needs the
                    // retry lane; the other half is healthy throughput that
                    // must keep flowing while the budget sheds.
                    let fail_first = caller % 2 == 0;
                    let target = ActorRef::new("HalfBad", format!("hb-{caller}-{call}"));
                    let result = client.call_with_policy(
                        &target,
                        "work",
                        vec![Value::Bool(fail_first)],
                        policy.clone(),
                    );
                    assert_eq!(
                        result.unwrap().as_str(),
                        Some("ok"),
                        "caller {caller} call {call} must eventually succeed"
                    );
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }

    let metrics = mesh.snapshot().retry;
    assert!(
        metrics.shed >= 1,
        "a 5-token budget under ~{} retries must shed: {metrics:?}",
        CALLERS / 2 * CALLS_EACH
    );
    assert!(
        metrics.admitted >= 1,
        "shed retries must still be admitted later: {metrics:?}"
    );
    assert_eq!(
        metrics.dead_lettered, 0,
        "sheds re-queue on backoff, they never exhaust the schedule: {metrics:?}"
    );
    // The mesh is still alive and serving after the retry storm.
    assert_eq!(
        client
            .call(
                &ActorRef::new("HalfBad", "post-check"),
                "work",
                vec![Value::Bool(false)],
            )
            .unwrap()
            .as_str(),
        Some("ok")
    );
    mesh.shutdown();
}

#[test]
fn dead_letter_is_exactly_once_and_dlq_retry_reinjects_exactly_once() {
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "doomed-host", |c| {
        c.host("Doomed", brittle_host(&healthy, &executions))
    });
    let client = mesh.client();
    let target = ActorRef::new("Doomed", "d");

    // Exhaust a 3-attempt schedule against a dependency that never heals:
    // the caller gets the terminal error and the invocation moves to the
    // DLQ exactly once, with full provenance.
    let policy = RetryPolicy::fixed(3, Duration::from_millis(10)).retry_all_errors();
    let result = client.call_with_policy(&target, "work", vec![], policy);
    assert!(result.is_err(), "an exhausted schedule fails the caller");
    let stats = mesh.dlq_stats();
    assert_eq!(
        stats.total(),
        1,
        "one exhausted invocation, one DLQ entry: {stats:?}"
    );
    let entry = &stats.entries[0];
    assert_eq!(entry.target.qualified_name(), target.qualified_name());
    assert_eq!(entry.method, "work");
    assert_eq!(entry.attempts, 3, "provenance must carry the attempt count");
    assert!(entry.last_error.is_some());
    assert_eq!(mesh.snapshot().retry.dead_lettered, 1);
    let executed_before_retry = executions.load(Ordering::SeqCst);

    // Heal the dependency and re-inject: the entry is consumed (second
    // re-injection finds nothing) and the invocation runs exactly once.
    healthy.store(true, Ordering::SeqCst);
    assert!(
        mesh.dlq_retry(entry.id).unwrap(),
        "the first re-injection consumes the entry"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while executions.load(Ordering::SeqCst) < executed_before_retry + 1 {
        assert!(
            Instant::now() < deadline,
            "the re-injected invocation never executed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !mesh.dlq_retry(entry.id).unwrap(),
        "a consumed DLQ entry must not re-inject twice"
    );
    // Give a hypothetical duplicate time to surface, then assert exactly
    // one re-execution and an empty DLQ.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        executed_before_retry + 1,
        "dlq_retry must re-execute exactly once"
    );
    assert_eq!(mesh.dlq_stats().total(), 0, "the DLQ entry is consumed");
    mesh.shutdown();
}

#[test]
fn a_dead_claimers_expired_lease_is_reclaimed_exactly_once() {
    let mesh = Mesh::new(MeshConfig::for_tests().with_dlq_claim_lease(Duration::from_millis(150)));
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "doomed-host", |c| {
        c.host("Doomed", brittle_host(&healthy, &executions))
    });
    let client = mesh.client();
    let target = ActorRef::new("Doomed", "d");

    // Produce one DLQ entry.
    let policy = RetryPolicy::fixed(2, Duration::from_millis(10)).retry_all_errors();
    assert!(client
        .call_with_policy(&target, "work", vec![], policy)
        .is_err());
    let stats = mesh.dlq_stats();
    assert_eq!(stats.total(), 1);
    let id = stats.entries[0].id;
    let claim_key = format!("dlq/claim/{}", id.as_u64());
    let executed_before = executions.load(Ordering::SeqCst);
    healthy.store(true, Ordering::SeqCst);

    // A claimer that died mid-protocol: its marker stands, its lease is
    // still live. The entry is claimed — later callers must honor it.
    let live_until = kar_types::epoch_ms() + 60_000;
    mesh.store().admin_set(
        &claim_key,
        Value::from(format!("claimed-by-424242@{live_until}")),
    );
    assert!(
        !mesh.dlq_retry(id).unwrap(),
        "a live foreign lease blocks re-injection"
    );
    assert_eq!(mesh.dlq_stats().total(), 1, "the entry stays in the DLQ");

    // The same dead claimer with an already-expired lease: reclaimable.
    mesh.store().admin_set(
        &claim_key,
        Value::from(format!("claimed-by-424242@{}", kar_types::epoch_ms() - 1)),
    );
    assert!(
        mesh.dlq_retry(id).unwrap(),
        "an expired lease is taken over and the entry re-injected"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while executions.load(Ordering::SeqCst) < executed_before + 1 {
        assert!(
            Instant::now() < deadline,
            "the reclaimed re-injection never executed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !mesh.dlq_retry(id).unwrap(),
        "a consumed entry must not re-inject again"
    );
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        executed_before + 1,
        "takeover re-executes exactly once"
    );
    assert_eq!(mesh.dlq_stats().total(), 0);
    mesh.shutdown();
}

#[test]
fn a_permanent_claim_marker_is_never_reclaimed() {
    // Zero lease = pre-lease semantics: markers never expire, so a standing
    // foreign claim blocks re-injection forever (only its planter may
    // release it). The same holds for markers with no parseable lease.
    let mesh = Mesh::new(MeshConfig::for_tests().with_dlq_claim_lease(Duration::ZERO));
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(true));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "doomed-host", |c| {
        c.host("Doomed", brittle_host(&healthy, &executions))
    });
    let client = mesh.client();
    healthy.store(false, Ordering::SeqCst);
    let policy = RetryPolicy::fixed(2, Duration::from_millis(10)).retry_all_errors();
    assert!(client
        .call_with_policy(&ActorRef::new("Doomed", "d"), "work", vec![], policy)
        .is_err());
    let id = mesh.dlq_stats().entries[0].id;
    let claim_key = format!("dlq/claim/{}", id.as_u64());
    healthy.store(true, Ordering::SeqCst);

    for marker in ["claimed-by-424242@0", "claimed-by-424242"] {
        mesh.store().admin_set(&claim_key, Value::from(marker));
        assert!(
            !mesh.dlq_retry(id).unwrap(),
            "marker {marker:?} must never be reclaimed"
        );
        assert_eq!(mesh.dlq_stats().total(), 1);
    }
    mesh.store().admin_del(&claim_key);
    assert!(
        mesh.dlq_retry(id).unwrap(),
        "a released claim re-opens the entry"
    );
    mesh.shutdown();
}
