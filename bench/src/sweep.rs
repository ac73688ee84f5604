//! `sim_sweep`: a fixed list of `(scenario, seed, kill_step)` triples over
//! every deterministic-simulation scenario, run one after another on one
//! thread, each history checked by the `HistoryChecker` oracle.
//!
//! One pass is the explorer's smoke grid under one scheduler seed: every
//! scenario at every kill step of [`KILL_STEPS`], except the slowest, whose
//! runs take seconds, at its first [`SLOWEST_KILL_STEPS`]. A timed run
//! makes six passes, each in its own process and under the next seed.
//! The list of triples is fixed (the workload seed only orders each pass),
//! so every run does the same work: the time, not the work, is what a
//! change can move.

use std::time::Instant;

use kar_bench::sim::{run_scenario, SCENARIOS};

use crate::invoke::SplitMix64;
use crate::report::Metric;
use crate::stats::Samples;
use crate::{Outcome, Provenance, RunArgs, SETUPS};

/// Kill offsets of one pass: the explorer's smoke sweep (stride 7).
const KILL_STEPS: [u64; 10] = [0, 7, 14, 21, 28, 35, 42, 49, 56, 63];

/// Kill offsets the slowest scenario runs at (a prefix of [`KILL_STEPS`]).
const SLOWEST_KILL_STEPS: usize = 2;

/// Scheduler seed of the first pass (the explorer's base seed).
const BASE_SEED: u64 = 0x5EED;

/// The scenario whose runs dominate the explorer's step count.
const SLOWEST: &str = "kill-while-parked";

/// Per-scenario totals over the timed passes.
#[derive(Debug, Clone, Default)]
struct ScenarioTotals {
    runs: u64,
    steps: u64,
    events: u64,
    wall_ns: Vec<u64>,
}

/// Runs the `sim_sweep` workload.
pub fn run(args: &RunArgs, prov: &mut Provenance) -> Outcome {
    prov.text("profile", "MeshConfig::deterministic");
    prov.num("time_scale", 0.005);

    // Set-up: one short run of every scenario, as a sweep starts with.
    let mut setups = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for round in 0..SETUPS {
        let started = Instant::now();
        for (name, _) in SCENARIOS {
            let outcome = run_scenario(name, BASE_SEED - 1 - round as u64, 0, false)
                .expect("scenario names come from the registry");
            attempted += 1;
            failed += u64::from(!outcome.violations.is_empty());
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut triples: Vec<(usize, u64, u64)> = Vec::new();
    for pass in args.parts() {
        let mut list: Vec<(usize, u64, u64)> = Vec::new();
        for (i, &kill_step) in KILL_STEPS.iter().enumerate() {
            for (scenario, (name, _)) in SCENARIOS.iter().enumerate() {
                if *name != SLOWEST || i < SLOWEST_KILL_STEPS {
                    list.push((scenario, BASE_SEED + pass, kill_step));
                }
            }
        }
        // The workload seed orders the pass (Fisher-Yates).
        let mut rng = SplitMix64::new(args.seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i + 1));
        }
        triples.extend(list);
    }

    let mut totals: Vec<ScenarioTotals> = vec![ScenarioTotals::default(); SCENARIOS.len()];
    let mut run_ns = Vec::new();
    let mut violating = 0u64;
    let started = Instant::now();
    for &(i, seed, kill_step) in &triples {
        let name = SCENARIOS[i].0;
        let t0 = Instant::now();
        let outcome = run_scenario(name, seed, kill_step, false)
            .expect("scenario names come from the registry");
        let ns = t0.elapsed().as_nanos() as u64;
        attempted += 1;
        if !outcome.violations.is_empty() {
            violating += 1;
            for v in &outcome.violations {
                prov.text(
                    "violation",
                    &format!("{name} seed={seed} kill_step={kill_step}: {v}"),
                );
            }
        }
        let t = &mut totals[i];
        t.runs += 1;
        t.steps += outcome.steps;
        t.events += outcome.events as u64;
        t.wall_ns.push(ns);
        run_ns.push(ns);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let runs = run_ns.len() as u64;
    let all_steps: u64 = totals.iter().map(|t| t.steps).sum();
    let slowest = SCENARIOS
        .iter()
        .position(|(name, _)| *name == SLOWEST)
        .expect("the slowest scenario is registered");
    let slowest_ms: Vec<f64> = totals[slowest]
        .wall_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let runs_samples = Samples::new(run_ns);
    let clean = runs - violating;
    prov.num("passes", args.parts().count() as f64);
    prov.num("runs", runs as f64);
    prov.num("window_s", elapsed);
    prov.percentile("run_time", runs_samples.len(), 50.0);
    prov.num(&format!("runs.{SLOWEST}"), slowest_ms.len() as f64);
    prov.headline("sim_runs_per_s", clean as f64 / elapsed, "1/s");
    for (i, (name, _)) in SCENARIOS.iter().enumerate() {
        prov.num(&format!("steps.{name}"), totals[i].steps as f64);
        let ms = Samples::new(totals[i].wall_ns.clone()).us(50.0) / 1e3;
        prov.num(&format!("run_ms_p50.{name}"), ms);
    }

    let metrics = if args.trace {
        let mut m: Vec<Metric> = SCENARIOS
            .iter()
            .zip(&totals)
            .map(|((name, _), t)| {
                Metric::new(
                    format!("sim.steps_per_run.{name}"),
                    t.steps as f64 / t.runs.max(1) as f64,
                    "count",
                )
            })
            .collect();
        let wall_ns: u64 = totals.iter().flat_map(|t| &t.wall_ns).sum();
        m.push(Metric::new(
            "sim.step_ns",
            wall_ns as f64 / all_steps.max(1) as f64,
            "ns",
        ));
        m.push(Metric::new(
            "sim.history_events_per_run",
            totals.iter().map(|t| t.events).sum::<u64>() as f64 / runs.max(1) as f64,
            "count",
        ));
        m.push(Metric::new(
            "sim.kill_while_parked_step_share",
            totals[slowest].steps as f64 / all_steps.max(1) as f64,
            "ratio",
        ));
        m
    } else {
        vec![
            Metric::new("goodput_per_s", clean as f64 / elapsed, "1/s"),
            Metric::new("latency_p50_ms", runs_samples.us(50.0) / 1e3, "ms"),
            Metric::new(
                "latency_tail_ms",
                slowest_ms.iter().sum::<f64>() / slowest_ms.len().max(1) as f64,
                "ms",
            ),
        ]
    };
    Outcome {
        attempted,
        failed: failed + violating,
        setup_s: setups,
        metrics,
    }
}
