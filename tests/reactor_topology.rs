//! Steady-state check of the fixed reactor pool: the runtime's resident
//! thread count is set once by `MeshConfig::reactor_threads` and never grows
//! with topology. Pre-reactor, every component spawned its own consumer
//! threads (one per partition lane), dispatch workers, and per-request
//! response waiters — so thread count scaled with components × partitions.
//! Now all of those are pump targets of one mesh-wide pool.
//!
//! This test lives in its own integration-test binary on purpose: it counts
//! threads of the whole process via `/proc/self/task`, so it must not share
//! a process with other tests that spin up meshes.

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarResult, Value};

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

/// Counts live threads of this process whose name starts with `prefix`
/// (thread names are truncated to 15 bytes in `comm`, which is plenty for
/// the `kar-` prefixes asserted here).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

#[test]
fn reactor_pool_is_fixed_as_topology_scales() {
    const REACTORS: usize = 3;
    const GROWTH: usize = 40;

    let mesh = Mesh::new(MeshConfig::for_tests().with_reactor_threads(REACTORS));
    let node = mesh.add_node();
    for i in 0..2 {
        mesh.add_component(node, &format!("seed-{i}"), |c| {
            c.host("Echo", || Box::new(Echo))
        });
    }
    let client = mesh.client();
    for actor in 0..8 {
        client
            .call(
                &ActorRef::new("Echo", format!("warm{actor}")),
                "ping",
                vec![],
            )
            .expect("warmup call");
    }

    assert_eq!(mesh.snapshot().reactor_threads, REACTORS);
    assert_eq!(
        threads_named("kar-reactor-"),
        REACTORS,
        "resident reactor threads must equal the configured pool size"
    );

    // Grow the topology ~20x: every new component brings its own partition
    // set and consumer lanes, but no threads.
    for i in 0..GROWTH {
        mesh.add_component(node, &format!("grow-{i}"), |c| {
            c.host("Echo", || Box::new(Echo))
        });
    }
    let lanes: usize = mesh
        .snapshot()
        .components
        .iter()
        .filter(|c| c.alive)
        .map(|c| c.lanes)
        .sum();
    for actor in 0..2 * GROWTH {
        client
            .call(
                &ActorRef::new("Echo", format!("spread{actor}")),
                "ping",
                vec![],
            )
            .expect("post-growth call");
    }

    assert!(
        lanes > REACTORS,
        "growth should multiply consumer lanes ({lanes}) past the pool size"
    );
    assert_eq!(
        threads_named("kar-reactor-"),
        REACTORS,
        "the reactor pool grew with topology"
    );
    assert_eq!(mesh.snapshot().reactor_threads, REACTORS);
    for legacy in [
        "kar-consumer-",
        "kar-dispatch-",
        "kar-response-",
        "kar-heartbeat-",
    ] {
        assert_eq!(
            threads_named(legacy),
            0,
            "pre-reactor thread family {legacy} is back"
        );
    }
    mesh.shutdown();
}
