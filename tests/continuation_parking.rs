//! Chaos test for the continuation-parking tentpole: a component is killed
//! while at least one invocation is *parked* — its handler returned
//! `Outcome::CallThen`, its worker was released, and only the continuation
//! table remembers the nested call. Re-homing must replay the original
//! request from the queue copy exactly like a killed blocked-thread
//! invocation: acknowledged effects apply exactly once and per-actor FIFO
//! order survives, even though the parked continuation itself dies with the
//! process.
//!
//! The kill is seeded (`KAR_CHAOS_SEED` reproduces a run) but *aimed*: the
//! chaos thread polls `Mesh::parked_continuations` and only pulls the
//! trigger on a component it has just observed holding a parked
//! continuation, so every kill in this test exercises the orphaned-
//! continuation replay path rather than landing between invocations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

mod common;
use common::{chaos_seed, SplitMix64};

/// The caller side: `record(i, delay)` parks a continuation on a nested
/// `Back.echo(i, delay)` call and, on resume, appends `i` to a durable log
/// with the same dedupe + order tripwire as the Ledger actor in
/// tests/lock_granularity.rs — duplicates from runtime retries are absorbed,
/// and any out-of-order first execution is recorded as a violation at the
/// point it happens, whichever replica resumes the continuation.
struct Front;

impl Actor for Front {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "record" => {
                let back = ActorRef::new("Back", "b");
                Ok(
                    ctx.call_then(&back, "echo", args.to_vec(), move |ctx, result| {
                        let i = result?.as_i64().unwrap_or(-1);
                        let log = ctx.state().get("log")?.unwrap_or(Value::List(Vec::new()));
                        let mut entries = log.as_list().map(<[Value]>::to_vec).unwrap_or_default();
                        if entries.iter().any(|e| e.as_i64() == Some(i)) {
                            return Ok(Outcome::value("dup"));
                        }
                        if i != entries.len() as i64 {
                            ctx.state().set(
                                "violation",
                                Value::from(format!(
                                    "record {i} resumed with {} entries applied",
                                    entries.len()
                                )),
                            )?;
                        }
                        entries.push(Value::Int(i));
                        ctx.state().set("log", Value::List(entries))?;
                        Ok(Outcome::value("ok"))
                    }),
                )
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

/// The callee side: `echo(i, delay)` holds the invocation for `delay`
/// milliseconds before returning `i`, keeping the caller's continuation
/// parked long enough for the chaos thread to observe and kill it.
struct Back;

impl Actor for Back {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "echo" => {
                let delay = args.get(1).and_then(Value::as_i64).unwrap_or(0);
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay as u64));
                }
                Ok(Outcome::value(args[0].clone()))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn kill_while_parked_preserves_exactly_once_and_fifo() {
    const CALLS: i64 = 16;
    const ECHO_DELAY_MS: i64 = 40;

    let seed = chaos_seed(0x0C_A11_7EE);
    println!("chaos seed: {seed} (re-run with KAR_CHAOS_SEED={seed})");

    // Back.echo occupies a reactor for 40 ms per call, which used to starve
    // the single heartbeat-timer thread past the compressed 50 ms session
    // window on small CI machines (worked around with a 30 s timeout).
    // Reactors now rescue-run overdue ticks, so the default compressed
    // timeout must hold on its own — this test is the regression guard.
    let mesh = Mesh::new(MeshConfig::for_tests().with_reactor_threads(3));
    let node = mesh.add_node();
    // Back lives on a stable component that is never killed: the nested call
    // always completes, so the interesting failure is always on the parked
    // caller side.
    let back_host = mesh.add_component(node, "back-stable", |c| c.host("Back", || Box::new(Back)));
    mesh.add_component(node, "front-a", |c| c.host("Front", || Box::new(Front)));
    mesh.add_component(node, "front-b", |c| c.host("Front", || Box::new(Front)));
    let client = mesh.client();
    let client_component = client.component_id();
    let front = ActorRef::new("Front", "f");

    let done = Arc::new(AtomicBool::new(false));
    let mesh_for_chaos = mesh.clone();
    let done_for_chaos = Arc::clone(&done);
    let chaos = std::thread::spawn(move || {
        let mut rng = SplitMix64::new(seed);
        let mut kills = 0usize;
        for round in 0..3 {
            // Aim: wait until some live Front host is observed holding a
            // parked continuation, then kill *that* component.
            let deadline = Instant::now() + Duration::from_secs(5);
            let victim = loop {
                if done_for_chaos.load(Ordering::Relaxed) || Instant::now() > deadline {
                    break None;
                }
                let parked = mesh_for_chaos
                    .snapshot()
                    .components
                    .iter()
                    .filter(|c| c.alive && c.id != client_component && c.id != back_host)
                    .find(|c| c.parked_continuations > 0)
                    .map(|c| c.id);
                if parked.is_some() {
                    break parked;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            let Some(victim) = victim else { break };
            // Seeded jitter, kept well under the echo delay so the
            // continuation is still parked when the kill lands.
            std::thread::sleep(Duration::from_millis(rng.below(0, 8)));
            mesh_for_chaos.kill_component(victim);
            kills += 1;
            let node = mesh_for_chaos.add_node();
            mesh_for_chaos.add_component(node, &format!("front-replacement-{round}"), |c| {
                c.host("Front", || Box::new(Front))
            });
            std::thread::sleep(Duration::from_millis(rng.below(30, 90)));
        }
        kills
    });

    let mut acknowledged = Vec::new();
    for i in 0..CALLS {
        let args = vec![Value::Int(i), Value::Int(ECHO_DELAY_MS)];
        let t0 = Instant::now();
        let result = client.call(&front, "record", args);
        if result.is_ok() {
            acknowledged.push(i);
        }
        if result.is_err() || t0.elapsed() > Duration::from_secs(2) {
            println!(
                "record {i}: {result:?} after {:?}\n{}",
                t0.elapsed(),
                mesh.snapshot()
            );
        }
    }
    done.store(true, Ordering::Relaxed);
    let kills = chaos.join().unwrap();

    // Every kill was aimed at an observed parked continuation, so the replay
    // path under test actually ran.
    assert!(
        kills >= 1,
        "the chaos thread never observed a parked continuation to kill"
    );
    // The last kill may land just as the call loop drains; give its
    // detection + reconciliation a bounded window to complete.
    let deadline = Instant::now() + Duration::from_secs(5);
    while mesh.recoveries() < kills && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        mesh.recoveries() >= kills,
        "kills were not recovered: {} recoveries for {kills} kills",
        mesh.recoveries()
    );

    // Let retried-but-unacknowledged work settle before reading.
    std::thread::sleep(Duration::from_millis(300));
    let violation = client.call(&front, "violation", vec![]).unwrap();
    assert_eq!(
        violation,
        Value::Null,
        "per-actor FIFO violated across re-homing: {violation:?}"
    );
    let log = client.call(&front, "read", vec![]).unwrap();
    let entries: Vec<i64> = log
        .as_list()
        .map(<[Value]>::to_vec)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_i64)
        .collect();
    for i in &acknowledged {
        assert!(
            entries.contains(i),
            "acknowledged record {i} is missing from the log {entries:?}"
        );
    }
    let expected: Vec<i64> = (0..entries.len() as i64).collect();
    assert_eq!(
        entries, expected,
        "log must hold each record exactly once, in order"
    );
    mesh.shutdown();
}

/// The shared journal of the stale-placement test: one line per execution.
type Journal = Arc<std::sync::Mutex<Vec<String>>>;

fn journal_count(journal: &Journal, line: &str) -> usize {
    journal
        .lock()
        .unwrap()
        .iter()
        .filter(|l| *l == line)
        .count()
}

/// `record(tag)` journals one execution and returns the tag; `get` answers
/// without touching the journal.
struct Target {
    journal: Journal,
}

impl Actor for Target {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "record" => {
                let tag = args[0].as_str().unwrap_or_default().to_owned();
                self.journal.lock().unwrap().push(tag.clone());
                Ok(Outcome::value(tag))
            }
            "get" => Ok(Outcome::value("y")),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// Sends one request of each fresh-send shape to `Target/x`. Each shape
/// runs on its own `Sender` actor: a parked caller keeps its actor locked.
/// `tell` records its first argument, or `"tell"` without one.
struct Sender {
    journal: Journal,
}

impl Actor for Sender {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let x = ActorRef::new("Target", "x");
        match method {
            "tell" => {
                let tag = args.first().cloned().unwrap_or(Value::from("tell"));
                ctx.tell(&x, "record", vec![tag])?;
                Ok(Outcome::value("told"))
            }
            "call" => {
                let journal = Arc::clone(&self.journal);
                Ok(
                    ctx.call_then(&x, "record", vec![Value::from("call")], move |_, r| {
                        journal.lock().unwrap().push("resumed".to_owned());
                        Ok(Outcome::value(r?))
                    }),
                )
            }
            "tail" => Ok(ctx.tail_call(&x, "record", vec![Value::from("tail")])),
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

#[test]
fn stale_placement_sends_wait_in_a_queue_not_on_the_reactor() {
    // One reactor and one dispatch shard: a frame that waited for the stale
    // placement would stall every other actor of the survivor.
    let mesh = Mesh::new(
        MeshConfig::for_tests()
            .with_reactor_threads(1)
            .with_dispatch_workers(1),
    );
    let journal: Journal = Arc::default();
    let hosts = |journal: &Journal| {
        let journal = Arc::clone(journal);
        move || -> Box<dyn Actor> {
            Box::new(Target {
                journal: Arc::clone(&journal),
            })
        }
    };
    let victim = mesh.add_component(mesh.add_node(), "victim", |c| {
        c.host("Target", hosts(&journal))
    });
    let sender_journal = Arc::clone(&journal);
    let survivor = mesh.add_component(mesh.add_node(), "survivor", |c| {
        c.host("Target", hosts(&journal)).host("Sender", move || {
            Box::new(Sender {
                journal: Arc::clone(&sender_journal),
            })
        })
    });
    let client = mesh.client();
    let store = mesh.store();
    let x = ActorRef::new("Target", "x");
    let y = ActorRef::new("Target", "y");
    let place = |actor: &ActorRef, on| {
        store.admin_set(
            &kar::placement::placement_key(actor),
            kar::placement::component_to_value(on),
        );
    };
    place(&x, victim);
    place(&y, survivor);
    assert_eq!(client.call(&y, "get", vec![]).unwrap(), Value::from("y"));

    // Kill X's host and let recovery finish, then plant X's placement back
    // on the dead component: the stale read a sender can take before
    // reconciliation rewrites it.
    mesh.kill_component(victim);
    assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
    place(&x, victim);

    // A tell, a parked nested call and a tail call to X, all issued by a
    // handler on the survivor while X's placement is stale.
    let sender = |method: &str| ActorRef::new("Sender", method);
    assert_eq!(
        client.call(&sender("tell"), "tell", vec![]).unwrap(),
        Value::from("told")
    );
    let waiting: Vec<_> = ["call", "tail"]
        .into_iter()
        .map(|method| {
            let client = client.clone();
            let sender = sender(method);
            std::thread::spawn(move || client.call(&sender, method, vec![]))
        })
        .collect();
    let held = || {
        mesh.snapshot()
            .component(survivor)
            .and_then(|c| c.unresolved_forwards.clone())
            .map_or(0, |ids| ids.len())
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while held() < 3 {
        assert!(
            Instant::now() < deadline,
            "the three sends to X were never held:\n{}",
            mesh.snapshot()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Y shares X's component and shard: its calls keep completing.
    for _ in 0..20 {
        assert_eq!(client.call(&y, "get", vec![]).unwrap(), Value::from("y"));
    }
    assert!(
        journal.lock().unwrap().is_empty(),
        "X ran on a stale placement: {:?}",
        journal.lock().unwrap()
    );

    // Repair the placement: the held requests reach X, and the parked
    // caller resumes.
    place(&x, survivor);
    let results: Vec<KarResult<Value>> = waiting.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(results[0].as_ref().unwrap(), &Value::from("call"));
    assert_eq!(results[1].as_ref().unwrap(), &Value::from("tail"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while journal_count(&journal, "tell") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Give any duplicate a chance to show before counting.
    std::thread::sleep(Duration::from_millis(100));
    for line in ["tell", "call", "tail", "resumed"] {
        assert_eq!(
            journal_count(&journal, line),
            1,
            "{line} must run exactly once: {:?}",
            journal.lock().unwrap()
        );
    }
    assert_eq!(held(), 0);
    mesh.shutdown();
}

#[test]
fn stale_placement_detours_keep_per_caller_order_across_the_repair() {
    // The repair lands X on the sender's own component (the held tell is
    // re-appended to its queue) or on a third one (it is forwarded there).
    for repair_onto_sender in [true, false] {
        let mesh = Mesh::new(
            MeshConfig::for_tests()
                .with_reactor_threads(1)
                .with_dispatch_workers(1),
        );
        let journal: Journal = Arc::default();
        let target = |journal: &Journal| {
            let journal = Arc::clone(journal);
            move || -> Box<dyn Actor> {
                Box::new(Target {
                    journal: Arc::clone(&journal),
                })
            }
        };
        let victim = mesh.add_component(mesh.add_node(), "victim", |c| {
            c.host("Target", target(&journal))
        });
        let sender_journal = Arc::clone(&journal);
        let survivor = mesh.add_component(mesh.add_node(), "survivor", |c| {
            c.host("Target", target(&journal)).host("Sender", move || {
                Box::new(Sender {
                    journal: Arc::clone(&sender_journal),
                })
            })
        });
        let third = mesh.add_component(mesh.add_node(), "third", |c| {
            c.host("Target", target(&journal))
        });
        let client = mesh.client();
        let store = mesh.store();
        let x = ActorRef::new("Target", "x");
        let place = |on| {
            store.admin_set(
                &kar::placement::placement_key(&x),
                kar::placement::component_to_value(on),
            );
        };
        mesh.kill_component(victim);
        assert!(mesh.wait_for_recoveries(1, Duration::from_secs(10)));
        place(victim);

        // The first tell is held on the survivor: X's placement is stale.
        let sender = ActorRef::new("Sender", "s");
        let tell = |tag: &str| {
            assert_eq!(
                client
                    .call(&sender, "tell", vec![Value::from(tag)])
                    .unwrap(),
                Value::from("told")
            );
        };
        tell("first");
        let deadline = Instant::now() + Duration::from_secs(5);
        while mesh
            .snapshot()
            .component(survivor)
            .and_then(|c| c.unresolved_forwards.clone())
            .map_or(0, |ids| ids.len())
            == 0
        {
            assert!(Instant::now() < deadline, "the first tell was never held");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Repair X in the store only (no cache clear: the held tell waits
        // for the next tick), then tell X again from the same actor. The
        // second tell resolves at once, yet must commit after the first.
        place(if repair_onto_sender { survivor } else { third });
        tell("second");
        let deadline = Instant::now() + Duration::from_secs(5);
        while journal.lock().unwrap().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            *journal.lock().unwrap(),
            vec!["first".to_owned(), "second".to_owned()],
            "per-caller order broken (repair onto the sender: {repair_onto_sender})"
        );
        mesh.shutdown();
    }
}
