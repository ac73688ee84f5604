//! `failover`: the Reefer application under a fixed sequence of node
//! failures, on the time-compressed fault-experiment configuration.
//!
//! Two victim nodes each host an actors server and a singletons server; the
//! order simulators call from never-killed client components. For every
//! failure a background order simulator books continuously, the victim
//! node is hard-stopped, the benchmark waits for the recovery, replaces the
//! node with fresh replicas, and advances the shipping calendar. The run
//! ends with the Reefer `InvariantChecker` over every confirmed order.
//!
//! The victim sequence is fixed (independent of the workload seed), so the
//! growth of re-homed requests from one failure to the next is the same in
//! every run; the seed drives the order simulators.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Mesh, MeshConfig};
use kar_reefer::app::{actors_server, singletons_server};
use kar_reefer::{refs, AnomalySimulator, InvariantChecker, OrderSimulator, ShipSimulator};
use kar_types::{KarResult, NodeId, Value};

use crate::report::Metric;
use crate::stats::{median, Counters, MESH_TOPIC};
use crate::{Outcome, Provenance, RunArgs, SETUPS};

/// Compression of the paper-scale detection and recovery constants.
const TIME_SCALE: f64 = 0.01;

/// Failures injected per run.
pub const FAILURES: usize = 25;

/// The victim slot of each failure: the sequence the `fig7a_phases`
/// harness draws with its default seed, so the two report the same
/// outage pattern.
const VICTIMS: [usize; FAILURES] = [
    1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1,
];

/// Orders each background simulator books at least, per failure.
const ORDERS_PER_FAILURE: usize = 8;

const PORTS: [&str; 4] = ["Oakland", "Shanghai", "Singapore", "Rotterdam"];
const CONTAINERS_PER_DEPOT: i64 = 5_000;

/// A deployed, bootstrapped Reefer world.
struct World {
    mesh: Mesh,
    victims: Vec<NodeId>,
    orders: OrderSimulator,
    ships: ShipSimulator,
}

/// Creates depots and voyages. Two early voyages sail during the run; the
/// booking targets depart after it ends, so bookings stay possible.
fn bootstrap(client: &kar::Client) -> KarResult<Vec<String>> {
    for port in PORTS {
        client.call(
            &refs::depot(port),
            "create",
            vec![Value::from(CONTAINERS_PER_DEPOT)],
        )?;
    }
    let horizon = (VICTIMS.len() as i64 + 10) * 4;
    let create = |id: &str, origin: &str, destination: &str, depart: i64, capacity: i64| {
        client.call(
            &refs::voyage_manager(),
            "create_voyage",
            vec![
                Value::from(id),
                Value::from(origin),
                Value::from(destination),
                Value::from(depart),
                Value::from(2i64),
                Value::from(capacity),
            ],
        )
    };
    create("EARLY-0", PORTS[0], PORTS[1], 1, 200)?;
    create("EARLY-1", PORTS[1], PORTS[2], 1, 200)?;
    let mut bookable = Vec::new();
    for v in 0..6 {
        let id = format!("V{v:03}");
        create(
            &id,
            PORTS[v % PORTS.len()],
            PORTS[(v + 1) % PORTS.len()],
            horizon,
            100_000,
        )?;
        bookable.push(id);
    }
    Ok(bookable)
}

/// Starts the mesh, deploys the application on two victim nodes,
/// bootstraps the world and places the managers with a few orders.
fn setup(seed: u64) -> KarResult<World> {
    let mesh = Mesh::new(MeshConfig::for_fault_experiments(TIME_SCALE));
    let mut victims = Vec::new();
    for n in 0..2 {
        let node = mesh.add_node();
        mesh.add_component(node, &format!("actors-{n}"), actors_server);
        mesh.add_component(node, &format!("singletons-{n}"), singletons_server);
        victims.push(node);
    }
    let voyages = bootstrap(&mesh.client())?;
    let mut orders = OrderSimulator::new(mesh.client(), voyages, seed);
    let mut ships = ShipSimulator::new(mesh.client());
    for _ in 0..4 {
        orders.submit_one()?;
    }
    ships.advance_day()?;
    Ok(World {
        mesh,
        victims,
        orders,
        ships,
    })
}

/// One failure as the benchmark saw it.
#[derive(Debug, Clone, Default)]
struct Failure {
    /// Paper-equivalent seconds.
    detection: f64,
    consensus: f64,
    reconciliation: f64,
    total: f64,
    /// Worst client-timed booking in the failure's window, paper-equivalent
    /// seconds.
    worst_order: f64,
    rehomed: usize,
    retained_at_kill: usize,
}

fn retained_records(mesh: &Mesh) -> usize {
    let broker = mesh.broker();
    (0..broker.partition_count(MESH_TOPIC))
        .map(|p| broker.partition_len(MESH_TOPIC, p))
        .sum()
}

/// Runs the failure sequence on `world`.
fn inject(
    world: &mut World,
    seed: u64,
    anomalies: &mut AnomalySimulator,
) -> Result<Vec<(Failure, OrderSimulator)>, String> {
    let mesh = world.mesh.clone();
    let deadline = Duration::from_secs_f64((120.0 * TIME_SCALE).max(10.0));
    let expand = |d: Duration| d.as_secs_f64() / TIME_SCALE;
    let mut out = Vec::new();
    for (index, &slot) in VICTIMS.iter().enumerate() {
        let before = mesh.recoveries();
        let stop = Arc::new(AtomicBool::new(false));
        let load = {
            let client = mesh.client();
            let voyages = world.orders.voyages().to_vec();
            let stop = Arc::clone(&stop);
            let seed = seed.wrapping_add(index as u64 * 101);
            std::thread::spawn(move || {
                let mut background = OrderSimulator::new(client, voyages, seed);
                let mut submitted = 0;
                while !stop.load(Ordering::SeqCst) || submitted < ORDERS_PER_FAILURE {
                    let _ = background.submit_one();
                    submitted += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                background
            })
        };
        std::thread::sleep(Duration::from_secs_f64(2.0 * TIME_SCALE));
        let retained_at_kill = retained_records(&mesh);
        mesh.kill_node(world.victims[slot]);
        let recovered = mesh.wait_for_recoveries(before + 1, deadline);
        stop.store(true, Ordering::SeqCst);
        let background = load
            .join()
            .map_err(|_| "order load thread panicked".to_owned())?;
        if !recovered {
            return Err(format!(
                "recovery {} did not complete in {deadline:?}",
                index + 1
            ));
        }

        let node = mesh.add_node();
        mesh.add_component(node, &format!("actors-r{index}"), actors_server);
        mesh.add_component(node, &format!("singletons-r{index}"), singletons_server);
        world.victims[slot] = node;
        world.ships.advance_day().map_err(|e| e.to_string())?;
        let _ = anomalies.inject_random(background.containers());

        let outage = mesh
            .recovery_log()
            .get(before)
            .cloned()
            .ok_or_else(|| format!("recovery {} is missing from the log", index + 1))?;
        out.push((
            Failure {
                detection: expand(outage.detection().unwrap_or_default()),
                consensus: expand(outage.consensus()),
                reconciliation: expand(outage.reconciliation()),
                total: expand(outage.total().unwrap_or_default()),
                worst_order: expand(background.stats().max_latency()),
                rehomed: outage.rehomed_requests,
                retained_at_kill,
            },
            background,
        ));
    }
    Ok(out)
}

/// Runs the `failover` workload.
pub fn run(args: &RunArgs, prov: &mut Provenance) -> Outcome {
    prov.text("profile", "MeshConfig::for_fault_experiments");
    prov.num("time_scale", TIME_SCALE);
    prov.num("failures", VICTIMS.len() as f64);

    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        if let Some(old) = world.take() {
            let old: World = old;
            old.mesh.shutdown();
        }
        let started = Instant::now();
        world = Some(setup(args.seed).expect("the Reefer bootstrap must succeed"));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    let mut anomalies = AnomalySimulator::new(world.mesh.client(), args.seed.wrapping_add(1));

    let counters_before = Counters::read(&world.mesh);
    let started = Instant::now();
    let injected = inject(&mut world, args.seed, &mut anomalies);
    let elapsed = started.elapsed().as_secs_f64();
    let counters = Counters::read(&world.mesh).since(&counters_before);

    let (failures, simulators): (Vec<Failure>, Vec<OrderSimulator>) = match injected {
        Ok(done) => done.into_iter().unzip(),
        Err(error) => {
            prov.text("error", &error);
            world.mesh.shutdown();
            return Outcome {
                attempted: 1,
                failed: 1,
                setup_s: setups,
                metrics: Vec::new(),
            };
        }
    };

    std::thread::sleep(Duration::from_millis(300));
    let mut confirmed: Vec<String> = world.orders.confirmed_orders().to_vec();
    let (mut submitted, mut booked, mut infra_failed) = {
        let s = world.orders.stats();
        (s.submitted, s.confirmed, s.failed)
    };
    for sim in &simulators {
        confirmed.extend_from_slice(sim.confirmed_orders());
        submitted += sim.stats().submitted;
        booked += sim.stats().confirmed;
        infra_failed += sim.stats().failed;
    }
    let violations = match InvariantChecker::new(world.mesh.client(), &PORTS, CONTAINERS_PER_DEPOT)
        .check(&confirmed)
    {
        Ok(report) => report.violations,
        Err(error) => vec![format!("invariant check failed: {error}")],
    };
    world.mesh.shutdown();
    for v in &violations {
        prov.text("invariant_violation", v);
    }

    let col = |f: fn(&Failure) -> f64| -> Vec<f64> { failures.iter().map(f).collect() };
    let med = |f: fn(&Failure) -> f64| median(&col(f)).unwrap_or(0.0);
    let outage_p50 = med(|f| f.total);
    let worst_order_p50 = med(|f| f.worst_order);
    let goodput = booked as f64 / elapsed;
    prov.num("window_s", elapsed);
    prov.num("orders_submitted", submitted as f64);
    prov.num("orders_confirmed", booked as f64);
    prov.num("orders_infra_failed", infra_failed as f64);
    prov.num("invariant_violations", violations.len() as f64);
    prov.percentile("outage", failures.len(), 50.0);
    prov.headline("outage_p50_s", outage_p50, "s");
    prov.headline("order_latency_p50_s", worst_order_p50, "s");
    let rehomed: Vec<String> = failures.iter().map(|f| f.rehomed.to_string()).collect();
    prov.raw("rehomed_per_failure", format!("[{}]", rehomed.join(", ")));
    let totals: Vec<String> = failures.iter().map(|f| format!("{:.3}", f.total)).collect();
    prov.raw("outage_s_per_failure", format!("[{}]", totals.join(", ")));

    let mut metrics = vec![
        Metric::new("goodput_per_s", goodput, "1/s"),
        Metric::new("latency_p50_ms", outage_p50 * 1e3, "ms"),
        Metric::new("latency_tail_ms", worst_order_p50 * 1e3, "ms"),
    ];
    if args.trace {
        let orders = booked.max(1) as f64;
        let rehomed: Vec<f64> = col(|f| f.rehomed as f64);
        metrics = vec![
            Metric::new(
                "kar.placement_hit_ratio",
                counters.placement_hit_ratio(),
                "ratio",
            ),
            Metric::new(
                "kar.request_batch_mean",
                counters.request_batch_mean(),
                "count",
            ),
            Metric::new(
                "kar.parks_per_call",
                counters.parks as f64 / orders,
                "count",
            ),
            Metric::new(
                "kar.response_batch_mean",
                counters.response_batch_mean(),
                "count",
            ),
            Metric::new(
                "store.round_trips_per_call",
                counters.store.round_trips as f64 / orders,
                "count",
            ),
            Metric::new(
                "store.pipeline_batch_mean",
                counters.store.mean_pipeline_batch(),
                "count",
            ),
            Metric::new(
                "queue.records_per_call",
                counters.records as f64 / orders,
                "count",
            ),
            Metric::new(
                "queue.retained_records_at_kill.p50",
                med(|f| f.retained_at_kill as f64),
                "count",
            ),
            Metric::new("recovery.detection_s.p50", med(|f| f.detection), "s"),
            Metric::new("recovery.consensus_s.p50", med(|f| f.consensus), "s"),
            Metric::new(
                "recovery.reconciliation_s.p50",
                med(|f| f.reconciliation),
                "s",
            ),
            Metric::new(
                "recovery.rehomed_per_failure.p50",
                median(&rehomed).unwrap_or(0.0),
                "count",
            ),
            Metric::new(
                "recovery.rehomed_per_failure.max",
                rehomed.iter().copied().fold(0.0, f64::max),
                "count",
            ),
        ];
        for (i, f) in failures.iter().enumerate() {
            metrics.push(Metric::new(
                format!("recovery.rehomed_per_failure.f{:02}", i + 1),
                f.rehomed as f64,
                "count",
            ));
        }
    }
    Outcome {
        attempted: submitted,
        failed: infra_failed + violations.len() as u64,
        setup_s: setups,
        metrics,
    }
}
