//! Resident-set harness: hot-head goodput over a Zipf-distributed actor
//! population far larger than memory should hold, with the resident set
//! unbounded vs bounded by the passivation watermarks.
//!
//! The scenario is the tentpole's memory story end to end: a small pool of
//! *hot* callers hammers the hottest actors while a second pool walks a
//! Zipf-shaped tail over a key space many times the resident budget
//! (≥ 1 M distinct keys in the full run). In the "unbounded" arm
//! passivation is off, so every actor ever touched keeps its slot, cached
//! state and placement entry forever — the pre-PR behavior. In the
//! "bounded" arm the resident watermarks cap the set at a fixed budget: the
//! sweep evicts the coldest actors, the cold tail pages in and out through
//! flush/rehydrate, and past the hard watermark new activations are
//! deferred with shaped backoff (shed, never dropped).
//!
//! The gate is on what the *hot* population experiences: bounding the
//! resident set must not starve the hot head — hot goodput with the
//! watermarks must stay within 0.8× of the unbounded arm — while the
//! reported peak resident count stays pinned at the budget instead of
//! growing with every key the tail touches.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome};
use kar_types::{ActorRef, KarResult, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{as_ms, ratio, sized, Bound, Gate, Section};

/// Hot-head goodput with the watermarks must stay within this factor of
/// the unbounded arm.
pub const GATE_MIN_RATIO: f64 = 0.8;

/// Configuration of one resident-set measurement.
#[derive(Debug, Clone)]
pub struct PassivationBenchConfig {
    /// Caller threads driving the hot head (the measured population).
    pub hot_callers: usize,
    /// Sequential calls per hot caller (the measured window).
    pub calls_per_caller: usize,
    /// Distinct actors in the hot head.
    pub hot_keys: usize,
    /// Caller threads walking the Zipf tail for the whole window.
    pub tail_callers: usize,
    /// Total distinct actor keys the tail samples from (≥ 1 M in the full
    /// run; 10× the resident budget in the smoke run).
    pub key_space: usize,
    /// Soft resident watermark of the bounded arm (the budget); the hard
    /// watermark is twice this.
    pub resident_budget: usize,
    /// Wall-clock passivation window of the bounded arm.
    pub window: Duration,
    /// Seed of the tail's Zipf walk.
    pub seed: u64,
}

impl Default for PassivationBenchConfig {
    fn default() -> Self {
        PassivationBenchConfig {
            hot_callers: 4,
            calls_per_caller: 4_000,
            hot_keys: 64,
            tail_callers: 4,
            key_space: 1_000_000,
            resident_budget: 256,
            window: Duration::from_millis(150),
            seed: 0x5EED,
        }
    }
}

impl PassivationBenchConfig {
    /// A seconds-scale configuration for CI smoke runs: the tail's key
    /// space is 10× over the resident budget.
    pub fn smoke() -> Self {
        PassivationBenchConfig {
            hot_callers: 4,
            calls_per_caller: 1_200,
            hot_keys: 16,
            tail_callers: 4,
            key_space: 640,
            resident_budget: 64,
            ..PassivationBenchConfig::default()
        }
    }
}

/// The result of one arm.
#[derive(Debug, Clone)]
pub struct PassivationBenchReport {
    /// `"unbounded"` (passivation off, the pre-PR behavior) or `"bounded"`
    /// (resident watermarks at the budget).
    pub arm: &'static str,
    /// Hot calls completed (the measured window).
    pub hot_calls: usize,
    /// Wall-clock duration of the hot window.
    pub elapsed: Duration,
    /// Hot calls per second — the gated number.
    pub hot_goodput: f64,
    /// Tail calls acknowledged while the window ran (each one paged a cold
    /// actor in, in the bounded arm).
    pub tail_calls: u64,
    /// Distinct tail keys touched.
    pub distinct_tail_keys: usize,
    /// Peak resident actors observed on the serving component.
    pub peak_resident: usize,
    /// Resident actors when the window closed.
    pub final_resident: usize,
    /// Actors passivated (flushed and dropped) during the run.
    pub passivations: u64,
    /// Passivated actors re-activated through the ordinary admission path.
    pub rehydrations: u64,
    /// New-actor activations deferred with shaped backoff at the hard
    /// watermark (shed, never dropped).
    pub admission_deferrals: u64,
}

/// A counter actor with durable state, so paging an actor out and back in
/// exercises the flush and rehydration paths, not just slot bookkeeping.
struct Counter;

impl Actor for Counter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        let value = ctx
            .state()
            .get("count")?
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        ctx.state().set("count", Value::Int(value + 1))?;
        Ok(Outcome::value(Value::Int(value + 1)))
    }
}

/// A Zipf-shaped rank in `[0, key_space)`: inverse-CDF sampling of the
/// `s = 1` distribution via the log-uniform approximation — dense on the
/// head, long on the tail.
fn zipf_rank(rng: &mut StdRng, key_space: usize) -> usize {
    let u = rng.gen_range(0.0..1.0f64);
    let rank = ((key_space as f64 + 1.0).powf(u) - 1.0) as usize;
    rank.min(key_space - 1)
}

/// Measures hot-head goodput while the tail walks the key space — with the
/// resident set bounded by the watermarks (`bounded == true`) or unbounded
/// (`bounded == false`, passivation off).
pub fn measure_arm(bounded: bool, config: &PassivationBenchConfig) -> PassivationBenchReport {
    let mut mesh_config = MeshConfig::for_tests()
        .with_dispatch_workers(4)
        .with_reactor_threads(4);
    if bounded {
        mesh_config = mesh_config
            .with_resident_watermarks(config.resident_budget, config.resident_budget * 2);
        // The passivation clock: `window` of wall clock per compressed
        // retention window, so the sweep cycles many times per run.
        mesh_config.retention = config.window * 200;
    } else {
        mesh_config = mesh_config.with_actor_passivation(false);
    }
    let mesh = Mesh::new(mesh_config);
    let node = mesh.add_node();
    let server = mesh.add_component(node, "server", |c| c.host("Counter", || Box::new(Counter)));
    let client = mesh.client();

    // Warm the hot head so the window measures steady state.
    for key in 0..config.hot_keys {
        let actor = ActorRef::new("Counter", format!("hot-{key}"));
        client.call(&actor, "bump", vec![]).expect("warmup call");
    }

    // The tail population pages cold actors in (and, bounded, out) until
    // the hot window ends.
    let stop = Arc::new(AtomicBool::new(false));
    let tail: Vec<_> = (0..config.tail_callers)
        .map(|caller| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let key_space = config.key_space;
            let seed = config.seed.wrapping_add(caller as u64);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut touched = std::collections::HashSet::new();
                let mut acknowledged = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let rank = zipf_rank(&mut rng, key_space);
                    let actor = ActorRef::new("Counter", format!("tail-{rank}"));
                    if client.call(&actor, "bump", vec![]).is_ok() {
                        acknowledged += 1;
                        touched.insert(rank);
                    }
                }
                (acknowledged, touched)
            })
        })
        .collect();

    // Sample the resident set while the window runs.
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let mesh = mesh.clone();
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(c) = mesh.snapshot().component(server) {
                    peak.fetch_max(c.resident, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let started = Instant::now();
    let hot: Vec<_> = (0..config.hot_callers)
        .map(|caller| {
            let client = client.clone();
            let calls = config.calls_per_caller;
            let hot_keys = config.hot_keys;
            std::thread::spawn(move || {
                for i in 0..calls {
                    let key = (caller + i) % hot_keys;
                    let actor = ActorRef::new("Counter", format!("hot-{key}"));
                    client.call(&actor, "bump", vec![]).expect("hot call");
                }
                calls
            })
        })
        .collect();
    let mut hot_calls = 0usize;
    for driver in hot {
        hot_calls += driver.join().expect("hot driver");
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let mut tail_calls = 0u64;
    let mut distinct = std::collections::HashSet::new();
    for driver in tail {
        let (acknowledged, touched) = driver.join().expect("tail driver");
        tail_calls += acknowledged;
        distinct.extend(touched);
    }
    sampler.join().expect("resident sampler");
    let snapshot = mesh.snapshot();
    let server_snapshot = snapshot.component(server).expect("server snapshot");
    let final_resident = server_snapshot.resident;
    let peak_resident = peak.load(Ordering::Relaxed).max(final_resident);
    let passivations = server_snapshot.passivations;
    let rehydrations = server_snapshot.rehydrations;
    let admission_deferrals = server_snapshot.admission_deferrals;
    mesh.shutdown();

    PassivationBenchReport {
        arm: if bounded { "bounded" } else { "unbounded" },
        hot_calls,
        elapsed,
        hot_goodput: hot_calls as f64 / elapsed.as_secs_f64(),
        tail_calls,
        distinct_tail_keys: distinct.len(),
        peak_resident,
        final_resident,
        passivations,
        rehydrations,
        admission_deferrals,
    }
}

/// The `bench_passivation` report: the sweep at the smoke or full size.
pub fn bench(smoke: bool) -> Vec<Section> {
    let config = sized(smoke, PassivationBenchConfig::smoke);
    let reports = [false, true].map(|bounded| measure_arm(bounded, &config));
    vec![section(&config, &reports)]
}

/// The sweep rows, gated on hot-head goodput of the bounded arm over the
/// unbounded one and on the bounded arm's peak resident set staying at the
/// hard watermark.
fn section(config: &PassivationBenchConfig, reports: &[PassivationBenchReport]) -> Section {
    // Admission races can overshoot the hard watermark by a handful of
    // concurrent activations, never by a multiple of it.
    let ceiling = config.resident_budget * 2 + config.tail_callers + config.hot_callers;
    let bounded_peak = reports
        .iter()
        .find(|r| r.arm == "bounded")
        .map_or(f64::NAN, |r| r.peak_resident as f64);
    Section::new(
        "resident_set",
        vec![
            ("hot_callers", config.hot_callers.into()),
            ("calls_per_caller", config.calls_per_caller.into()),
            ("hot_keys", config.hot_keys.into()),
            ("tail_callers", config.tail_callers.into()),
            ("key_space", config.key_space.into()),
            ("resident_budget", config.resident_budget.into()),
            ("window_ms", as_ms(config.window).into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        vec![
            ("arm", r.arm.into()),
            ("hot_calls", r.hot_calls.into()),
            ("elapsed_ms", as_ms(r.elapsed).into()),
            ("hot_goodput_per_sec", r.hot_goodput.into()),
            ("tail_calls", r.tail_calls.into()),
            ("distinct_tail_keys", r.distinct_tail_keys.into()),
            ("peak_resident", r.peak_resident.into()),
            ("final_resident", r.final_resident.into()),
            ("passivations", r.passivations.into()),
            ("rehydrations", r.rehydrations.into()),
            ("admission_deferrals", r.admission_deferrals.into()),
        ]
    }))
    .gate(Gate::new(
        "hot_goodput_bounded_over_unbounded",
        ratio(
            reports.iter().map(|r| (r.arm, r.hot_goodput)),
            "bounded",
            "unbounded",
        ),
        Bound::AtLeast(GATE_MIN_RATIO),
    ))
    .gate(Gate::new(
        "bounded_peak_resident",
        bounded_peak,
        Bound::AtMost(ceiling as f64),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate_list, BenchReport, Bound};

    #[test]
    fn zipf_rank_is_head_heavy_and_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let key_space = 10_000;
        let mut head = 0usize;
        for _ in 0..2_000 {
            let rank = zipf_rank(&mut rng, key_space);
            assert!(rank < key_space);
            if rank < key_space / 100 {
                head += 1;
            }
        }
        // Zipf(1): the top 1% of ranks draws roughly half the mass.
        assert!(
            head > 600,
            "top-1% ranks drew only {head}/2000 samples — not Zipf-shaped"
        );
    }

    #[test]
    fn sweep_measures_both_arms_and_json_is_balanced() {
        let config = PassivationBenchConfig {
            hot_callers: 2,
            calls_per_caller: 60,
            hot_keys: 4,
            tail_callers: 2,
            key_space: 80,
            resident_budget: 8,
            ..PassivationBenchConfig::default()
        };
        let reports = [false, true].map(|bounded| measure_arm(bounded, &config));
        assert_eq!(reports.len(), 2);
        let unbounded = &reports[0];
        let bounded = &reports[1];
        assert_eq!(unbounded.arm, "unbounded");
        assert_eq!(bounded.arm, "bounded");
        assert_eq!(unbounded.hot_calls, 120);
        assert_eq!(bounded.hot_calls, 120);
        assert_eq!(
            unbounded.passivations, 0,
            "the unbounded arm must never passivate"
        );
        assert!(
            bounded.peak_resident <= config.resident_budget * 2 + 4,
            "bounded arm overshot the hard watermark: peak {} vs budget {}",
            bounded.peak_resident,
            config.resident_budget
        );

        // The smoke run's gates: 64 × 2 hard watermark + 8 racing callers.
        let sections = vec![section(&PassivationBenchConfig::smoke(), &reports)];
        assert_eq!(
            gate_list(&sections),
            vec![
                (
                    "hot_goodput_bounded_over_unbounded".to_owned(),
                    Bound::AtLeast(0.8)
                ),
                ("bounded_peak_resident".to_owned(), Bound::AtMost(136.0)),
            ]
        );
        let json = BenchReport::new("passivation", true, sections).to_json();
        assert!(json.contains("\"arm\": \"bounded\""));
    }
}
