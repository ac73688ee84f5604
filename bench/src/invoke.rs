//! `invoke_zero` and `invoke_prod`: a closed loop of synchronous callers
//! cycling five invocation shapes over a fixed pool of warm actors.
//!
//! One component hosts two actor types, `Front` and `Back`, each with a
//! pool of [`POOL`] instances. Every caller issues, in fixed order:
//!
//! 1. `Front.echo` — no state;
//! 2. `Front.bump` — one state read and one state write, flushed before
//!    the response;
//! 3. `Front.callthen` — parks on `Back.bump` through `CallThen` and returns
//!    its result from the continuation;
//! 4. `Front.tail` — tail-calls `Back.bump`;
//! 5. `Front.bump` through `Client::call_with_policy`.
//!
//! Actor indices come from a SplitMix64 stream seeded by the workload seed.
//! Every acknowledged bump is tallied per actor; after the window the
//! durable counters, read with `Store::admin_hgetall`, must equal the
//! tallies (an exactly-once audit).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Client, Mesh, MeshConfig, Outcome, RetryPolicy};
use kar_types::{ActorRef, DeploymentProfile, KarError, KarResult, Value};

use crate::report::Metric;
use crate::stats::{peak_rss_mb, Counters, Samples};
use crate::trace::{self, SpanKind, Tracer};
use crate::{Outcome as RunOutcome, Provenance, RunArgs, SETUPS};

/// Instances per actor type.
const POOL: usize = 16;

/// The state field every bump increments.
const FIELD: &str = "n";

/// The five invocation shapes, in the order every caller cycles them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Echo,
    Bump,
    CallThen,
    Tail,
    Policy,
}

const SHAPES: [Shape; 5] = [
    Shape::Echo,
    Shape::Bump,
    Shape::CallThen,
    Shape::Tail,
    Shape::Policy,
];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Echo => "echo",
            Shape::Bump => "bump",
            Shape::CallThen => "callthen",
            Shape::Tail => "tail",
            Shape::Policy => "policy",
        }
    }

    /// Shapes are packed into the low bits of the call id.
    fn of_call(call: u64) -> Shape {
        SHAPES[(call & 7) as usize % SHAPES.len()]
    }
}

/// SplitMix64: the workload's input stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn front(i: usize) -> ActorRef {
    ActorRef::new("Front", format!("f{i}"))
}

fn back(i: usize) -> ActorRef {
    ActorRef::new("Back", format!("b{i}"))
}

type SharedTracer = Option<Arc<Tracer>>;

fn stamp(tracer: &SharedTracer) -> u64 {
    tracer.as_ref().map_or(0, |t| t.now())
}

fn close(tracer: &SharedTracer, call: u64, kind: SpanKind, start: u64) {
    if let Some(t) = tracer {
        t.close(call, kind, start);
    }
}

fn int_arg(args: &[Value], i: usize) -> i64 {
    args.get(i).and_then(Value::as_i64).unwrap_or(0)
}

/// Reads, increments and writes the actor's counter, stamping both state
/// calls.
fn bump(ctx: &ActorContext<'_>, tracer: &SharedTracer, call: u64) -> KarResult<Value> {
    let start = stamp(tracer);
    let current = ctx.state().get(FIELD)?;
    close(tracer, call, SpanKind::StoreGet, start);
    let next = current.and_then(|v| v.as_i64()).unwrap_or(0) + 1;
    let start = stamp(tracer);
    ctx.state().set(FIELD, Value::Int(next))?;
    close(tracer, call, SpanKind::StoreSet, start);
    Ok(Value::Int(next))
}

/// Arguments: `[call id, role code, back index]`.
struct Front {
    tracer: SharedTracer,
}

impl Actor for Front {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let entered = stamp(&self.tracer);
        let call = int_arg(args, 0) as u64;
        let target = back(int_arg(args, 2) as usize % POOL);
        let outcome = match method {
            "echo" => Ok(Outcome::value(args[0].clone())),
            "bump" => bump(ctx, &self.tracer, call).map(Outcome::value),
            "callthen" => {
                let tracer = self.tracer.clone();
                let nested = vec![args[0].clone(), Value::Int(SpanKind::Nested.code())];
                Ok(ctx.call_then(&target, "bump", nested, move |_ctx, result| {
                    let resumed = stamp(&tracer);
                    let value = result?;
                    close(&tracer, call, SpanKind::Continuation, resumed);
                    Ok(Outcome::value(value))
                }))
            }
            "tail" => {
                let next = vec![args[0].clone(), Value::Int(SpanKind::TailTarget.code())];
                Ok(ctx.tail_call(&target, "bump", next))
            }
            other => Err(KarError::application(format!("no method {other}"))),
        };
        close(&self.tracer, call, SpanKind::Entry, entered);
        outcome
    }
}

/// Arguments: `[call id, role code]`.
struct Back {
    tracer: SharedTracer,
}

impl Actor for Back {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        let entered = stamp(&self.tracer);
        let call = int_arg(args, 0) as u64;
        let outcome = match method {
            "bump" => bump(ctx, &self.tracer, call).map(Outcome::value),
            other => Err(KarError::application(format!("no method {other}"))),
        };
        close(
            &self.tracer,
            call,
            SpanKind::from_code(int_arg(args, 1)),
            entered,
        );
        outcome
    }
}

/// What one caller saw.
#[derive(Debug, Default)]
struct Tally {
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
    front_bumps: Vec<u64>,
    back_bumps: Vec<u64>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            front_bumps: vec![0; POOL],
            back_bumps: vec![0; POOL],
            ..Tally::default()
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (a, b) in self.front_bumps.iter_mut().zip(other.front_bumps) {
            *a += b;
        }
        for (a, b) in self.back_bumps.iter_mut().zip(other.back_bumps) {
            *a += b;
        }
    }
}

/// The schedule of the fifth shape.
fn policy() -> RetryPolicy {
    RetryPolicy::exponential(3, Duration::from_millis(10))
}

/// Issues one call of `shape` and checks its reply.
fn issue(client: &Client, shape: Shape, call: u64, a: usize, b: usize, tally: &mut Tally) -> bool {
    let args = vec![
        Value::Int(call as i64),
        Value::Int(SpanKind::Entry.code()),
        Value::Int(b as i64),
    ];
    let target = front(a);
    let result = match shape {
        Shape::Echo => client.call(&target, "echo", args),
        Shape::Bump => client.call(&target, "bump", args),
        Shape::CallThen => client.call(&target, "callthen", args),
        Shape::Tail => client.call(&target, "tail", args),
        Shape::Policy => client.call_with_policy(&target, "bump", args, policy()),
    };
    tally.attempted += 1;
    let ok = match (shape, result) {
        (Shape::Echo, Ok(v)) => v.as_i64() == Some(call as i64),
        (Shape::Bump | Shape::Policy, Ok(v)) => {
            tally.front_bumps[a] += 1;
            v.as_i64().is_some_and(|n| n >= 1)
        }
        (Shape::CallThen | Shape::Tail, Ok(v)) => {
            tally.back_bumps[b] += 1;
            v.as_i64().is_some_and(|n| n >= 1)
        }
        (_, Err(_)) => false,
    };
    if !ok {
        tally.failed += 1;
    }
    ok
}

/// One caller's closed loop: `calls` calls, or fewer if `deadline` passes.
fn drive(
    client: &Client,
    tracer: &SharedTracer,
    caller: usize,
    seed: u64,
    calls: u64,
    deadline: Instant,
) -> (Tally, Instant) {
    let mut rng = SplitMix64::new(seed ^ (caller as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut tally = Tally::new();
    for k in 0..calls {
        if Instant::now() >= deadline {
            break;
        }
        let shape = SHAPES[(k % SHAPES.len() as u64) as usize];
        let call = ((caller as u64 + 1) << 48) | (k << 3) | (shape as u64);
        let (a, b) = (rng.below(POOL), rng.below(POOL));
        let started = Instant::now();
        let span_start = stamp(tracer);
        issue(client, shape, call, a, b, &mut tally);
        close(tracer, call, SpanKind::Client, span_start);
        tally.latencies.push(started.elapsed().as_nanos() as u64);
    }
    (tally, Instant::now())
}

/// A deployed, warmed mesh.
struct Deployment {
    mesh: Mesh,
    clients: Vec<Client>,
    warmup: Tally,
}

fn mesh_config(profile: Option<DeploymentProfile>) -> MeshConfig {
    profile.map_or_else(MeshConfig::default, MeshConfig::for_deployment)
}

/// Starts the mesh, deploys both actor types, and warms every actor:
/// placement and state exist for all of them when this returns.
fn deploy(profile: Option<DeploymentProfile>, tracer: &SharedTracer, callers: usize) -> Deployment {
    let mesh = Mesh::new(mesh_config(profile));
    let node = mesh.add_node();
    let (t1, t2) = (tracer.clone(), tracer.clone());
    mesh.add_component(node, "app", move |c| {
        c.host("Front", move || -> Box<dyn Actor> {
            Box::new(Front { tracer: t1.clone() })
        })
        .host("Back", move || -> Box<dyn Actor> {
            Box::new(Back { tracer: t2.clone() })
        })
    });
    let clients: Vec<Client> = (0..callers).map(|_| mesh.client()).collect();
    let warmup = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut tally = Tally::new();
                    for i in (c..POOL).step_by(callers) {
                        let call = (i as u64) << 3;
                        issue(client, Shape::Bump, call, i, i, &mut tally);
                        issue(client, Shape::Tail, call, i, i, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        let mut total = Tally::new();
        for h in handles {
            total.merge(h.join().expect("warm-up caller panicked"));
        }
        total
    });
    Deployment {
        mesh,
        clients,
        warmup,
    }
}

/// Runs `calls` calls split over the callers (stopping early at `cap`);
/// returns the merged tally and the time from the common start to the
/// last caller's finish.
fn window(
    dep: &Deployment,
    tracer: &SharedTracer,
    seed: u64,
    calls: u64,
    cap: Duration,
) -> (Tally, Duration) {
    let callers = dep.clients.len() as u64;
    let barrier = Barrier::new(dep.clients.len());
    let started = Instant::now();
    let deadline = started + cap;
    std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .clients
            .iter()
            .enumerate()
            .map(|(caller, client)| {
                let barrier = &barrier;
                let share = calls / callers + u64::from((caller as u64) < calls % callers);
                scope.spawn(move || {
                    barrier.wait();
                    drive(client, tracer, caller, seed, share, deadline)
                })
            })
            .collect();
        let mut total = Tally::new();
        let mut last = started;
        for h in handles {
            let (tally, finished) = h.join().expect("caller panicked");
            total.merge(tally);
            last = last.max(finished);
        }
        (total, last - started)
    })
}

/// Number of actors whose durable counter differs from the acknowledged
/// bumps that targeted it, summed over `tallies`.
fn audit(mesh: &Mesh, tallies: &[&Tally]) -> u64 {
    let store = mesh.store();
    let durable = |actor: ActorRef| {
        store
            .admin_hgetall(&format!("state/{}", actor.qualified_name()))
            .get(FIELD)
            .and_then(Value::as_i64)
            .unwrap_or(0)
    };
    let acked = |i: usize, pick: fn(&Tally) -> &[u64]| -> i64 {
        tallies.iter().map(|t| pick(t)[i] as i64).sum()
    };
    (0..POOL)
        .map(|i| {
            u64::from(durable(front(i)) != acked(i, |t| &t.front_bumps))
                + u64::from(durable(back(i)) != acked(i, |t| &t.back_bumps))
        })
        .sum()
}

/// Calls per second of `--seconds`, near this workload's goodput when the
/// benchmark was defined, so a run measures about `--seconds`. The call
/// count is fixed rather than the time: the broker retains every record,
/// so the memory a run ends with, and the sample count behind the p99,
/// depend only on the calls made.
fn budget(profile: Option<DeploymentProfile>, seconds: Duration) -> u64 {
    let per_second = if profile.is_some() { 100.0 } else { 25_000.0 };
    (per_second * seconds.as_secs_f64()) as u64
}

/// A window that takes this long stops early (and reports what it did).
fn cap(seconds: Duration) -> Duration {
    seconds * 4
}

/// Caller threads: two, capped at the host's parallelism.
fn callers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// One fresh deployment measured over one window.
struct Trial {
    setup_s: f64,
    /// The window's calls (warm-up excluded).
    tally: Tally,
    elapsed: Duration,
    counters: Counters,
    /// Actors whose durable counter disagrees with the acknowledged bumps.
    mismatched: u64,
}

impl Trial {
    fn goodput(&self) -> f64 {
        (self.tally.attempted - self.tally.failed.min(self.tally.attempted)) as f64
            / self.elapsed.as_secs_f64()
    }
}

/// Deploys and warms a mesh (timed as set-up), runs `calls` calls with
/// `tracer` recording, audits the durable counters, and shuts down.
fn trial(
    profile: Option<DeploymentProfile>,
    tracer: &SharedTracer,
    seed: u64,
    calls: u64,
    cap: Duration,
) -> Trial {
    let started = Instant::now();
    let dep = deploy(profile, tracer, callers());
    let setup_s = started.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.enable();
    }
    let before = Counters::read(&dep.mesh);
    let (tally, elapsed) = window(&dep, tracer, seed, calls, cap);
    let counters = Counters::read(&dep.mesh).since(&before);
    let mismatched = audit(&dep.mesh, &[&tally, &dep.warmup]);
    dep.mesh.shutdown();
    Trial {
        setup_s,
        tally,
        elapsed,
        counters,
        mismatched,
    }
}

/// Runs `invoke_zero` (`profile` = `None`) or `invoke_prod`: one trial
/// with this process's share of the call budget, then the remaining
/// set-ups, timed and discarded. The peak resident set is read after the
/// trial, before freed meshes make it depend on how the allocator reuses
/// their memory.
pub fn run(
    args: &RunArgs,
    profile: Option<DeploymentProfile>,
    prov: &mut Provenance,
) -> RunOutcome {
    prov.text(
        "profile",
        profile.map_or("LatencyProfile::ZERO", |p| p.name()),
    );
    prov.num("time_scale", 1.0);
    prov.num("callers", callers() as f64);
    prov.num("actors_per_type", POOL as f64);
    let calls = budget(profile, args.seconds) / args.trials;
    let seed = args.seed.wrapping_add(args.parts().start);
    if args.trace {
        return run_traced(profile, seed, calls, cap(args.seconds), prov);
    }

    let t = trial(profile, &None, seed, calls, cap(args.seconds));
    let rss = peak_rss_mb();
    let mut setups = vec![t.setup_s];
    for _ in 1..SETUPS {
        let started = Instant::now();
        let dep = deploy(profile, &None, callers());
        setups.push(started.elapsed().as_secs_f64());
        dep.mesh.shutdown();
    }
    let goodput = t.goodput();
    let latencies = Samples::new(t.tally.latencies);
    prov.num("calls", t.tally.attempted as f64);
    prov.num("window_s", t.elapsed.as_secs_f64());
    prov.num("audit_mismatched_actors", t.mismatched as f64);
    prov.percentile("latency", latencies.len(), 99.0);
    prov.headline("goodput_cps", goodput, "calls/s");
    prov.headline("latency_p50_us", latencies.us(50.0), "us");
    prov.headline("latency_p99_us", latencies.us(99.0), "us");
    RunOutcome {
        attempted: t.tally.attempted,
        failed: t.tally.failed + t.mismatched,
        setup_s: setups,
        metrics: vec![
            Metric::new("goodput_per_s", goodput, "1/s"),
            Metric::new("latency_p50_ms", latencies.us(50.0) / 1e3, "ms"),
            Metric::new("latency_tail_ms", latencies.us(99.0) / 1e3, "ms"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ],
    }
}

/// The traced run: an untraced, a traced and another untraced trial, each
/// the size of a timed one. The tracing overhead is the mean untraced
/// goodput over the traced one; bracketing the traced trial cancels the
/// drift from the process's first trial to its later ones.
fn run_traced(
    profile: Option<DeploymentProfile>,
    seed: u64,
    calls: u64,
    cap: Duration,
    prov: &mut Provenance,
) -> RunOutcome {
    let before = trial(profile, &None, seed, calls, cap);
    let tracer = Arc::new(Tracer::new());
    let shared = Some(Arc::clone(&tracer));
    let traced = trial(profile, &shared, seed, calls, cap);
    let spans = tracer.take();
    let after = trial(profile, &None, seed, calls, cap);
    let plain_goodput = (before.goodput() + after.goodput()) / 2.0;
    let traced_goodput = traced.goodput();
    let counters = traced.counters;
    let calls =
        (traced.tally.attempted - traced.tally.failed.min(traced.tally.attempted)).max(1) as f64;
    let (mut attempted, mut failed) = (0, 0);
    for t in [&before, &traced, &after] {
        attempted += t.tally.attempted;
        failed += t.tally.failed + t.mismatched;
    }
    let mismatched = before.mismatched + traced.mismatched + after.mismatched;
    let setup = traced.setup_s;

    let mut req = Vec::new();
    let mut resp = Vec::new();
    let mut resume = Vec::new();
    let mut tail_hop = Vec::new();
    let mut handler_self = Vec::new();
    let mut get = Vec::new();
    let mut set = Vec::new();
    let mut unattributed = Vec::new();
    let mut per_shape: Vec<(Vec<u64>, Vec<u64>)> = vec![Default::default(); SHAPES.len()];
    let mut malformed = 0u64;
    for (call, spans) in trace::by_call(spans) {
        let Some(b) = trace::breakdown(&spans) else {
            malformed += 1;
            continue;
        };
        let shape = Shape::of_call(call);
        req.push(b.req_path);
        resp.push(b.resp_path);
        resume.extend(b.resume);
        tail_hop.extend(b.tail_hop);
        handler_self.extend(b.handler_self);
        get.extend(b.store_get);
        set.extend(b.store_set);
        unattributed.push(b.unattributed);
        per_shape[shape as usize].0.push(b.client);
        per_shape[shape as usize].1.push(b.unattributed);
    }
    let (req, resp) = (Samples::new(req), Samples::new(resp));
    let (resume, tail_hop) = (Samples::new(resume), Samples::new(tail_hop));
    let handler_self = Samples::new(handler_self);
    let (get, set) = (Samples::new(get), Samples::new(set));
    let unattributed = Samples::new(unattributed);

    prov.num("setup_s", setup);
    prov.num("traced_calls", calls);
    prov.num("calls_without_breakdown", malformed as f64);
    prov.num("audit_mismatched_actors", mismatched as f64);
    for (name, samples, p) in [
        ("kar.req_path_us", &req, 99.0),
        ("kar.resp_path_us", &resp, 99.0),
        ("kar.handler_self_us", &handler_self, 50.0),
        ("kar.callthen_resume_us", &resume, 50.0),
        ("kar.tail_hop_us", &tail_hop, 50.0),
        ("store.get_us", &get, 50.0),
        ("store.set_us", &set, 50.0),
        ("kar.unattributed_us", &unattributed, 50.0),
    ] {
        prov.percentile(name, samples.len(), p);
    }

    let mut metrics = vec![
        Metric::new("kar.req_path_us.p50", req.us(50.0), "us"),
        Metric::new("kar.req_path_us.p99", req.us(99.0), "us"),
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
        Metric::new("kar.handler_self_us.p50", handler_self.us(50.0), "us"),
        Metric::new("kar.callthen_resume_us.p50", resume.us(50.0), "us"),
        Metric::new("kar.tail_hop_us.p50", tail_hop.us(50.0), "us"),
        Metric::new("kar.parks_per_call", counters.parks as f64 / calls, "count"),
        Metric::new("kar.resp_path_us.p50", resp.us(50.0), "us"),
        Metric::new("kar.resp_path_us.p99", resp.us(99.0), "us"),
        Metric::new(
            "kar.response_batch_mean",
            counters.response_batch_mean(),
            "count",
        ),
        Metric::new("store.get_us.p50", get.us(50.0), "us"),
        Metric::new("store.set_us.p50", set.us(50.0), "us"),
        Metric::new(
            "store.round_trips_per_call",
            counters.store.round_trips as f64 / calls,
            "count",
        ),
        Metric::new(
            "store.pipeline_batch_mean",
            counters.store.mean_pipeline_batch(),
            "count",
        ),
        Metric::new(
            "queue.records_per_call",
            counters.records as f64 / calls,
            "count",
        ),
        Metric::new("kar.unattributed_us.p50", unattributed.us(50.0), "us"),
        Metric::new("trace.goodput_untraced_per_s", plain_goodput, "1/s"),
        Metric::new("trace.goodput_traced_per_s", traced_goodput, "1/s"),
        Metric::new(
            "trace.overhead_ratio",
            if traced_goodput > 0.0 {
                plain_goodput / traced_goodput
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    for shape in SHAPES {
        let (client, unattributed) = &per_shape[shape as usize];
        let client = Samples::new(client.clone());
        let unattributed = Samples::new(unattributed.clone());
        prov.percentile(&format!("kar.call_us.{}", shape.name()), client.len(), 50.0);
        metrics.push(Metric::new(
            format!("kar.call_us.{}.p50", shape.name()),
            client.us(50.0),
            "us",
        ));
        metrics.push(Metric::new(
            format!("kar.unattributed_us.{}.p50", shape.name()),
            unattributed.us(50.0),
            "us",
        ));
    }
    RunOutcome {
        attempted,
        failed,
        setup_s: vec![setup],
        metrics,
    }
}
