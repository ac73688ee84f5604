//! Ablation benches for two of the runtime's design choices:
//!
//! * tail-call increment (one client round trip, exactly-once) versus the
//!   naive get-then-set increment (two client round trips, not fault safe),
//! * actor placement cache enabled versus disabled (the last two columns of
//!   Table 2).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_bench::latency::{measure_kar_actor, LatencyConfig};
use kar_types::{ActorRef, DeploymentProfile, KarResult, Value};

struct Counter;

impl Actor for Counter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        match method {
            "get" => Ok(Outcome::value(
                ctx.state().get("v")?.unwrap_or(Value::Int(0)),
            )),
            "set" => {
                ctx.state().set("v", args[0].clone())?;
                Ok(Outcome::value("OK"))
            }
            "incr" => {
                let v = ctx.state().get("v")?.and_then(|v| v.as_i64()).unwrap_or(0);
                Ok(ctx.tail_call_self("set", vec![Value::Int(v + 1)]))
            }
            other => Err(kar_types::KarError::application(format!(
                "no method {other}"
            ))),
        }
    }
}

fn bench_tail_call_vs_nested(c: &mut Criterion) {
    let mesh = Mesh::new(MeshConfig::for_tests());
    let node = mesh.add_node();
    mesh.add_component(node, "server", |c| c.host("Counter", || Box::new(Counter)));
    let client = mesh.client();
    let actor = ActorRef::new("Counter", "bench");
    client.call(&actor, "set", vec![Value::Int(0)]).unwrap();

    let mut group = c.benchmark_group("ablation_increment");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("tail_call_incr", |b| {
        b.iter(|| client.call(&actor, "incr", vec![]).unwrap())
    });
    group.bench_function("client_get_then_set", |b| {
        b.iter(|| {
            let v = client
                .call(&actor, "get", vec![])
                .unwrap()
                .as_i64()
                .unwrap_or(0);
            client.call(&actor, "set", vec![Value::Int(v + 1)]).unwrap()
        })
    });
    group.finish();
    mesh.shutdown();
}

fn bench_placement_cache(c: &mut Criterion) {
    let config = LatencyConfig {
        iterations: 10,
        payload_bytes: 20,
    };
    let mut group = c.benchmark_group("ablation_placement_cache");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(10));
    group.bench_function("managed_cache_on_10rt", |b| {
        b.iter(|| measure_kar_actor(DeploymentProfile::Managed, &config, true))
    });
    group.bench_function("managed_cache_off_10rt", |b| {
        b.iter(|| measure_kar_actor(DeploymentProfile::Managed, &config, false))
    });
    group.finish();
}

criterion_group!(benches, bench_tail_call_vs_nested, bench_placement_cache);
criterion_main!(benches);
