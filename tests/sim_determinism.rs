//! Deterministic-simulation replay guarantees: the same `(seed, config,
//! workload)` triple runs the same execution twice — byte-identical event
//! traces, identical final mesh snapshots — including under injected
//! component kills driven as scheduler events.

use std::time::Duration;

use kar::{Actor, ActorContext, Mesh, MeshConfig, MeshSnapshot, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

struct Accumulator;

impl Actor for Accumulator {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "get" => Ok(Outcome::value(
                ctx.state().get("key")?.unwrap_or(Value::Int(0)),
            )),
            "set" => {
                ctx.state().set("key", args[0].clone())?;
                Ok(Outcome::value("OK"))
            }
            "incr" => {
                let value = ctx
                    .state()
                    .get("key")?
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0);
                Ok(ctx.tail_call_self("set", vec![Value::Int(value + 1)]))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        }
    }
}

/// One simulated run: a two-component mesh, a handful of increments spread
/// over three actors, final reads. Returns everything observable about the
/// execution.
fn run_quiet(seed: u64) -> (Vec<String>, MeshSnapshot, Vec<i64>) {
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    mesh.add_component(node, "alpha", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    mesh.add_component(node, "beta", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    let client = mesh.client();
    for i in 0..9 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client
            .call(&actor, "incr", vec![])
            .expect("incr cannot fail in a quiet run");
    }
    let mut values = Vec::new();
    for i in 0..3 {
        let actor = ActorRef::new("Counter", format!("c{i}"));
        let value = client.call(&actor, "get", vec![]).expect("get");
        values.push(value.as_i64().expect("counter value is an int"));
    }
    let trace = mesh.sim_take_trace();
    let snapshot = mesh.snapshot();
    mesh.shutdown();
    (trace, snapshot, values)
}

/// One simulated chaos run: kill the first component at a scheduled step
/// mid-workload, wait for recovery, finish the workload.
fn run_chaos(seed: u64, kill_step: u64) -> (Vec<String>, MeshSnapshot, Vec<i64>, usize) {
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    let alpha = mesh.add_component(node, "alpha", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    mesh.add_component(node, "beta", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    let client = mesh.client();
    for i in 0..6 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client.call(&actor, "incr", vec![]).expect("warm-up incr");
    }
    mesh.sim_schedule_kill(mesh.sim_step_count() + kill_step, alpha);
    let recovered = mesh.wait_for_recoveries(1, Duration::from_secs(120));
    assert!(recovered, "recovery must complete in virtual time");
    for i in 0..6 {
        let actor = ActorRef::new("Counter", format!("c{}", i % 3));
        client.call(&actor, "incr", vec![]).expect("post-kill incr");
    }
    let mut values = Vec::new();
    for i in 0..3 {
        let actor = ActorRef::new("Counter", format!("c{i}"));
        let value = client.call(&actor, "get", vec![]).expect("get");
        values.push(value.as_i64().expect("counter value is an int"));
    }
    let trace = mesh.sim_take_trace();
    let snapshot = mesh.snapshot();
    let recoveries = mesh.recoveries();
    mesh.shutdown();
    (trace, snapshot, values, recoveries)
}

#[test]
fn a_quiet_run_is_exact_and_replays_byte_identically() {
    let (trace_a, snapshot_a, values_a) = run_quiet(42);
    assert_eq!(values_a, vec![3, 3, 3], "9 increments over 3 actors");
    assert!(!trace_a.is_empty(), "the trace records the schedule");
    let (trace_b, snapshot_b, values_b) = run_quiet(42);
    assert_eq!(values_a, values_b);
    assert_eq!(
        snapshot_a, snapshot_b,
        "the final mesh state replays exactly"
    );
    assert_eq!(trace_a, trace_b, "the schedule replays byte-identically");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let (trace_a, _, values_a) = run_quiet(7);
    let (trace_c, _, values_c) = run_quiet(8);
    // Different interleavings, same answers: determinism is about replay,
    // correctness must hold on every schedule.
    assert_eq!(values_a, values_c);
    assert_ne!(trace_a, trace_c, "a new seed explores a new interleaving");
}

#[test]
fn a_chaos_run_with_a_scheduled_kill_replays_byte_identically() {
    let (trace_a, snapshot_a, values_a, recoveries_a) = run_chaos(1234, 40);
    assert_eq!(recoveries_a, 1);
    assert_eq!(
        values_a,
        vec![4, 4, 4],
        "12 increments over 3 actors survive the kill exactly-once"
    );
    assert!(
        trace_a.iter().any(|line| line.contains("kill:")),
        "the kill is part of the recorded schedule: {trace_a:?}"
    );
    let (trace_b, snapshot_b, values_b, recoveries_b) = run_chaos(1234, 40);
    assert_eq!(values_a, values_b);
    assert_eq!(recoveries_a, recoveries_b);
    assert_eq!(snapshot_a, snapshot_b);
    assert_eq!(trace_a, trace_b, "chaos replays byte-identically");
}

#[test]
fn perturbing_the_kill_step_changes_the_schedule_but_not_the_answers() {
    let (trace_a, _, values_a, _) = run_chaos(99, 25);
    let (trace_b, _, values_b, _) = run_chaos(99, 26);
    assert_eq!(values_a, values_b, "exactly-once holds at every kill point");
    assert_ne!(
        trace_a, trace_b,
        "moving the kill by one step is a different schedule"
    );
}

#[test]
fn the_simulator_runs_the_production_delivery_plane() {
    let seed = 5;
    assert_eq!(
        MeshConfig::deterministic(seed).response_batching,
        MeshConfig::for_tests().response_batching,
        "the simulator must not switch the delivery plane off"
    );
    let mesh = Mesh::new(MeshConfig::deterministic(seed));
    let node = mesh.add_node();
    let server = mesh.add_component(node, "alpha", |b| {
        b.host("Counter", || Box::new(Accumulator))
    });
    let client = mesh.client();
    let actor = ActorRef::new("Counter", "c0");
    client
        .call(&actor, "set", vec![Value::Int(1)])
        .expect("set");
    let (enqueued, appends) = mesh
        .response_batch_stats(server)
        .expect("the server is registered");
    assert!(
        enqueued > 0 && appends > 0,
        "the response went through the response batcher: ({enqueued}, {appends})"
    );
    assert_eq!(
        mesh.request_batch_stats(client.component_id()),
        Some((1, 1)),
        "the request was one keyed append"
    );
    mesh.shutdown();
}
