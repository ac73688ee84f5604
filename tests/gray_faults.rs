//! Gray-failure chaos: the mesh under seeded transient faults, dropped
//! acks, and brownout windows injected *inside* the store and broker —
//! the failures that report as errors while the operation actually
//! applied, or apply while reporting nothing at all.
//!
//! Every test prints its effective seed and honours `KAR_CHAOS_SEED`
//! (decimal or `0x`-hex), so a failing schedule replays bit-for-bit.
//! The invariants are the paper's: acknowledged work is applied exactly
//! once, per-actor order holds, and dead-lettered invocations re-inject
//! exactly once — gray failures may cost latency, never correctness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{
    Actor, ActorContext, BrownoutSpec, FaultPlan, FaultSite, FaultSpec, Mesh, MeshConfig, Outcome,
    RetryPolicy,
};
use kar_types::{ActorRef, KarError, KarResult, Value};

mod common;
use common::{chaos_seed, SplitMix64};

/// A sequence actor: `next` reads its counter and tail-calls `commit`
/// with counter + 1, which writes the value absolutely and returns it.
/// This is the paper's §2.3 discipline: the non-idempotent
/// read-modify-write splits into a read step and an idempotent write
/// step, so a replayed commit (a flush whose ack was dropped) rewrites
/// the same value while request-id dedup stops the continuation from
/// running twice. A sequential caller that sees every call acknowledged
/// must read back exactly 1, 2, 3, … — any duplicate or lost apply
/// breaks the arithmetic immediately.
struct Seq;

impl Actor for Seq {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "next" => {
                let n = ctx.state().get("n")?.and_then(|v| v.as_i64()).unwrap_or(0);
                Ok(ctx.tail_call_self("commit", vec![Value::Int(n + 1)]))
            }
            "commit" => {
                let value = args[0].clone();
                ctx.state().set("n", value.clone())?;
                // The delete alongside the write makes the pre-response
                // flush take the pipelined path — the `StoreFlush`
                // injection site — not the single-command fast path.
                ctx.state().remove("scratch")?;
                Ok(Outcome::value(value))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn seq_host() -> impl Fn() -> Box<dyn Actor> + Send + Sync + 'static {
    || -> Box<dyn Actor> { Box::new(Seq) }
}

/// Fails while the shared `healthy` flag is down; counts every execution.
struct Doomed {
    healthy: Arc<AtomicBool>,
    executions: Arc<AtomicU64>,
}

impl Actor for Doomed {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "work" => {
                if self.healthy.load(Ordering::SeqCst) {
                    self.executions.fetch_add(1, Ordering::SeqCst);
                    Ok(Outcome::value("ok"))
                } else {
                    Err(KarError::application("dependency down"))
                }
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

fn doomed_host(
    healthy: &Arc<AtomicBool>,
    executions: &Arc<AtomicU64>,
) -> impl Fn() -> Box<dyn Actor> + Send + Sync + 'static {
    let healthy = Arc::clone(healthy);
    let executions = Arc::clone(executions);
    move || -> Box<dyn Actor> {
        Box::new(Doomed {
            healthy: Arc::clone(&healthy),
            executions: Arc::clone(&executions),
        })
    }
}

/// Lost acks on the state-flush path are the sharpest gray failure: the
/// write landed, the caller heard "failed", and the orchestrated retry
/// replays the invocation. The request-id dedup layer must absorb every
/// replay — the counter ends at exactly the number of acknowledged calls.
#[test]
fn lost_flush_acks_stay_exactly_once_through_dedup() {
    const CALLS: i64 = 200;

    let seed = chaos_seed(0x06EA_1AC4);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let plan = FaultPlan::new(seed).with_site(
        FaultSite::StoreFlush,
        FaultSpec::transient(0.05).with_ack_lost(0.15),
    );
    let mesh = Mesh::new(MeshConfig::for_tests().with_fault_plan(plan));
    let node = mesh.add_node();
    mesh.add_component(node, "seq-a", |c| c.host("Seq", seq_host()));
    mesh.add_component(node, "seq-b", |c| c.host("Seq", seq_host()));
    let client = mesh.client();
    let counter = ActorRef::new("Seq", "flush-chaos");

    // Every injected failure is transient from the caller's seat; the
    // policy rides them out while the mesh replays with the *same*
    // request id, so dedup — not luck — is what keeps the count right.
    let policy = RetryPolicy::exponential(8, Duration::from_millis(5)).retry_all_errors();
    for call in 0..CALLS {
        let value = client
            .call_with_policy(&counter, "next", vec![], policy.clone())
            .unwrap_or_else(|error| panic!("call {call} failed past the policy: {error:?}"));
        assert_eq!(
            value.as_i64(),
            Some(call + 1),
            "acknowledged call {call} must be applied exactly once, in order"
        );
    }

    let stats = mesh.snapshot().faults.expect("the fault plan is armed");
    let flush = stats.site(FaultSite::StoreFlush);
    println!(
        "store-flush site: {} draws, {} transient, {} acks dropped",
        flush.draws, flush.transient, flush.ack_lost
    );
    assert!(
        flush.ack_lost >= 1,
        "a 15% ack-lost rate over {CALLS} flushed calls must fire: {stats:?}"
    );
    mesh.shutdown();
}

/// `Mesh::dlq_retry` under lost acks on the checked-admin plane: the
/// claim protocol (unique token + read-back disambiguation) must keep
/// re-injection exactly-once even when the store keeps reporting failure
/// for writes it applied. Callers retry `Err` results — every failure
/// path restores the entry and releases the claim, so a retried claim is
/// safe — and across all attempts exactly one returns `true`.
#[test]
fn dlq_retry_claim_is_exactly_once_under_lost_admin_acks() {
    const ENTRIES: usize = 4;

    let seed = chaos_seed(0xD1_0AC4);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let plan = FaultPlan::new(seed).with_site(FaultSite::StoreAdmin, FaultSpec::ack_lost(0.3));
    let mesh = Mesh::new(MeshConfig::for_tests().with_fault_plan(plan));
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "doomed-host", |c| {
        c.host("Doomed", doomed_host(&healthy, &executions))
    });
    let client = mesh.client();

    // Exhaust a short schedule against ENTRIES distinct targets; each
    // dead-letter index write crosses the faulted admin plane (bounded
    // replay absorbs its dropped acks — still one entry per invocation).
    let policy = RetryPolicy::fixed(2, Duration::from_millis(10)).retry_all_errors();
    for entry in 0..ENTRIES {
        let target = ActorRef::new("Doomed", format!("d{entry}"));
        let result = client.call_with_policy(&target, "work", vec![], policy.clone());
        assert!(result.is_err(), "an exhausted schedule fails the caller");
    }
    let stats = mesh.dlq_stats();
    assert_eq!(
        stats.total(),
        ENTRIES,
        "dropped admin acks must not duplicate or lose DLQ entries: {stats:?}"
    );

    // Heal and re-inject each entry. `Err` leaves the entry claimable
    // again, so an operator loop is the honest caller shape under gray
    // failures; `true` must still happen exactly once per entry.
    healthy.store(true, Ordering::SeqCst);
    for entry in &stats.entries {
        let mut claimed = 0u32;
        for attempt in 0..50 {
            match mesh.dlq_retry(entry.id) {
                Ok(true) => claimed += 1,
                Ok(false) => break,
                Err(error) => {
                    assert!(
                        attempt < 49,
                        "dlq_retry for {} never settled: {error:?}",
                        entry.id.as_u64()
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert_eq!(
            claimed,
            1,
            "entry {} must be claimed exactly once",
            entry.id.as_u64()
        );
        // A consumed entry must never re-inject again. `Err` is an
        // indeterminate admin read, not an answer — retry it like any
        // caller would; only `Ok(true)` is a duplicate.
        let mut confirmed_consumed = false;
        for _ in 0..50 {
            match mesh.dlq_retry(entry.id) {
                Ok(false) => {
                    confirmed_consumed = true;
                    break;
                }
                Ok(true) => panic!("consumed entry {} re-injected twice", entry.id.as_u64()),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(
            confirmed_consumed,
            "the consumed entry {} never settled to Ok(false)",
            entry.id.as_u64()
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while executions.load(Ordering::SeqCst) < ENTRIES as u64 {
        assert!(
            Instant::now() < deadline,
            "a claimed re-injection never executed: {} of {ENTRIES}",
            executions.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Give hypothetical duplicates time to surface.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        ENTRIES as u64,
        "each re-injected invocation must run exactly once"
    );
    assert_eq!(mesh.dlq_stats().total(), 0, "every entry is consumed");

    let admin = mesh
        .snapshot()
        .faults
        .expect("the fault plan is armed")
        .site(FaultSite::StoreAdmin);
    println!(
        "store-admin site: {} draws, {} acks dropped",
        admin.draws, admin.ack_lost
    );
    assert!(
        admin.ack_lost >= 1,
        "a 30% ack-lost rate across the DLQ pipeline must fire"
    );
    mesh.shutdown();
}

/// The full matrix: ~1% transient + ~1% ack-lost at *every* injection
/// site, a whole-plane store brownout, and seeded component kills with
/// replacement — crash failures layered on gray ones. Three sequential
/// callers each own one actor; exactly-once plus per-actor FIFO means
/// every caller must read back exactly 1, 2, 3, …
#[test]
fn kills_layered_on_gray_faults_keep_order_and_exactly_once() {
    const CALLERS: usize = 3;
    const CALLS_EACH: i64 = 30;
    const KILL_ROUNDS: usize = 4;

    let seed = chaos_seed(0x6EA1_F417);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let plan = FaultPlan::new(seed)
        .with_all_sites(FaultSpec::transient(0.01).with_ack_lost(0.01))
        .with_store_brownout(BrownoutSpec {
            lane: None,
            after_ops: 100,
            ops: 300,
            extra_latency: Duration::from_micros(50),
        });
    let mesh = Mesh::new(MeshConfig::for_tests().with_fault_plan(plan));
    let node = mesh.add_node();
    mesh.add_component(node, "grid-a", |c| c.host("Seq", seq_host()));
    mesh.add_component(node, "grid-b", |c| c.host("Seq", seq_host()));
    let client = mesh.client();
    let client_component = client.component_id();

    let done = Arc::new(AtomicBool::new(false));
    let mesh_for_chaos = mesh.clone();
    let done_for_chaos = Arc::clone(&done);
    let chaos = std::thread::spawn(move || {
        let mut rng = SplitMix64::new(seed);
        for round in 0..KILL_ROUNDS {
            std::thread::sleep(Duration::from_millis(60));
            if done_for_chaos.load(Ordering::Relaxed) {
                break;
            }
            let victims: Vec<_> = mesh_for_chaos
                .live_components()
                .into_iter()
                .filter(|c| *c != client_component)
                .collect();
            if victims.is_empty() {
                continue;
            }
            let pick = rng.below(0, victims.len() as u64) as usize;
            let victim = victims[pick];
            println!("chaos round {round}: killing {victim:?}");
            mesh_for_chaos.kill_component(victim);
            let node = mesh_for_chaos.add_node();
            mesh_for_chaos.add_component(node, &format!("grid-replacement-{round}"), |c| {
                c.host("Seq", seq_host())
            });
        }
    });

    let drivers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let client = client.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Seq", format!("matrix-{caller}"));
                let policy =
                    RetryPolicy::exponential(10, Duration::from_millis(10)).retry_all_errors();
                for call in 0..CALLS_EACH {
                    let value = client
                        .call_with_policy(&target, "next", vec![], policy.clone())
                        .unwrap_or_else(|error| {
                            panic!("caller {caller} call {call} failed past the policy: {error:?}")
                        });
                    assert_eq!(
                        value.as_i64(),
                        Some(call + 1),
                        "caller {caller}: duplicate or lost apply at call {call}"
                    );
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    chaos.join().unwrap();

    let stats = mesh.snapshot().faults.expect("the fault plan is armed");
    println!(
        "matrix: {} faults injected over {} draws, {} store ops browned out",
        stats.total_faults(),
        stats.sites.iter().map(|s| s.draws).sum::<u64>(),
        stats.store_brownout_ops
    );
    assert!(
        stats.total_faults() >= 1,
        "a ~2% fault rate across every site must fire somewhere: {stats:?}"
    );
    assert!(
        stats.store_brownout_ops >= 1,
        "a whole-plane brownout window inside the run must tax some ops: {stats:?}"
    );
    mesh.shutdown();
}

/// Faults on the consumer's poll path: a transient poll failure must be
/// absorbed in place (the consumer stays attached and re-polls — only
/// fencing may detach it), and a lost poll ack redelivers the same batch,
/// which request-id dedup must absorb. A sequential caller still reads
/// exactly 1, 2, 3, … — redelivery costs latency, never arithmetic.
#[test]
fn consumer_poll_faults_redeliver_without_duplication() {
    const CALLS: i64 = 60;

    let seed = chaos_seed(0xC0_9011);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let plan = FaultPlan::new(seed).with_site(
        FaultSite::ConsumerPoll,
        FaultSpec::transient(0.05).with_ack_lost(0.05),
    );
    let mesh = Mesh::new(MeshConfig::for_tests().with_fault_plan(plan));
    let node = mesh.add_node();
    let host = mesh.add_component(node, "seq-host", |c| c.host("Seq", seq_host()));
    let client = mesh.client();
    let actor = ActorRef::new("Seq", "s");
    for expected in 1..=CALLS {
        let value = client.call(&actor, "next", vec![]).expect("next");
        assert_eq!(
            value.as_i64(),
            Some(expected),
            "poll redelivery must not duplicate or reorder applies"
        );
    }
    let snapshot = mesh.snapshot();
    let site = snapshot
        .faults
        .as_ref()
        .expect("the fault plan is armed")
        .site(FaultSite::ConsumerPoll);
    println!(
        "consumer-poll site: {} draws, {} transient, {} redelivered",
        site.draws, site.transient, site.ack_lost
    );
    assert!(
        site.transient >= 1 && site.ack_lost >= 1,
        "5% transient + 5% ack-lost over a continuously polling consumer must fire: {site:?}"
    );
    let survived = snapshot
        .component(host)
        .expect("the host exists")
        .poll_faults;
    assert!(
        survived >= 1,
        "transient poll failures are retried in place, not fatal to the consumer"
    );
    mesh.shutdown();
}

/// Skew injected into the retry scheduler's epoch reads: some reads run
/// ahead of others, so backoff deadlines are written and gated against
/// disagreeing clocks. Orchestration must stay exactly-once — skew may
/// stretch or shrink a backoff, never duplicate an attempt — and the
/// injection surfaces in the per-site counters.
#[test]
fn retry_clock_skew_is_counted_and_keeps_orchestration_exactly_once() {
    let seed = chaos_seed(0x5E_C10C);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    let plan = FaultPlan::new(seed).with_clock_skew(0.7, 300);
    let mesh = Mesh::new(MeshConfig::for_tests().with_fault_plan(plan));
    let node = mesh.add_node();
    let healthy = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "doomed-host", |c| {
        c.host("Doomed", doomed_host(&healthy, &executions))
    });
    let client = mesh.client();
    let target = ActorRef::new("Doomed", "skewed");

    // Exhaust a short schedule under skewed clocks: every attempt fails,
    // none executes twice, and the terminal error still reaches the caller.
    let policy = RetryPolicy::fixed(3, Duration::from_millis(20)).retry_all_errors();
    let result = client.call_with_policy(&target, "work", vec![], policy);
    assert!(result.is_err(), "an exhausted schedule fails the caller");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        0,
        "skew must not conjure executions out of failed attempts"
    );

    // Heal and confirm the actor is reachable exactly once afterwards.
    healthy.store(true, Ordering::SeqCst);
    assert_eq!(
        client.call(&target, "work", vec![]).unwrap().as_str(),
        Some("ok")
    );
    assert_eq!(executions.load(Ordering::SeqCst), 1);

    let site = mesh
        .snapshot()
        .faults
        .expect("the fault plan is armed")
        .site(FaultSite::RetryClock);
    println!(
        "retry-clock site: {} draws, {} skewed reads",
        site.draws, site.skews
    );
    assert!(
        site.draws >= 1 && site.skews >= 1,
        "a 70% skew rate across the retry schedule must fire: {site:?}"
    );
    mesh.shutdown();
}
