//! Gray-failure harness: goodput of a policy-governed mesh under a seeded
//! ~1% fault plan (transient errors, dropped acks, a store brownout window)
//! against the fault-free baseline and a naive-retry arm.
//!
//! Three arms run the same stateful workload (each call reads, bumps, and
//! persists one counter field, so every invocation crosses the store flush
//! path as well as the broker):
//!
//! * **`clean`** — no fault plan: the goodput baseline.
//! * **`policy`** — the fault plan is armed and every call carries an
//!   exponential-backoff [`RetryPolicy`]; injected infra faults classify as
//!   transient and flow through retry orchestration (or are absorbed by the
//!   runtime's bounded idempotent replays before the caller ever sees them).
//! * **`naive`** — the same fault plan, but failures are re-called
//!   immediately in a tight loop, the way unorchestrated clients do.
//!
//! The gates: `policy` goodput must stay within [`GATE_MIN_RATIO`]× of
//! `clean`, no `policy` caller may see an error, and every arm must persist
//! each acknowledged call exactly once. A mesh whose hardening leaks
//! injected gray failures to callers (or melts down replaying them, or
//! applies a call twice) fails the run.
//!
//! The fault schedule is seeded — `KAR_CHAOS_SEED` (decimal or `0x`-hex)
//! overrides the default, and every run prints the effective seed — so a
//! failing run replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::faults::{BrownoutSpec, FaultPlan, FaultSpec};
use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome, RetryPolicy};
use kar_types::{ActorRef, KarResult, Value};

use crate::report::{as_ms, as_us, ratio, sized, Bound, Gate, Section};

/// Policy-arm goodput must stay within this factor of the fault-free arm.
pub const GATE_MIN_RATIO: f64 = 0.8;

/// Configuration of one gray-failure measurement.
#[derive(Debug, Clone)]
pub struct GrayFaultConfig {
    /// Seed of the fault schedule (override with `KAR_CHAOS_SEED`).
    pub seed: u64,
    /// Caller threads.
    pub callers: usize,
    /// Sequential calls per caller (the measured window).
    pub calls_per_caller: usize,
    /// Per-operation transient-fault probability at every site.
    pub transient_rate: f64,
    /// Per-operation ack-lost probability at every site.
    pub ack_lost_rate: f64,
    /// Store brownout: plane-wide op count at which the window opens.
    pub brownout_after_ops: u64,
    /// Store brownout: window length in plane-wide ops.
    pub brownout_ops: u64,
    /// Store brownout: extra latency per store op inside the window.
    pub brownout_latency: Duration,
    /// Base delay of the policy arm's exponential backoff.
    pub backoff_base: Duration,
}

impl Default for GrayFaultConfig {
    fn default() -> Self {
        GrayFaultConfig {
            seed: 0x6EA1_FA17,
            callers: 8,
            calls_per_caller: 8_000,
            // ~1% of operations fault: half fail before applying, half
            // apply and drop the ack.
            transient_rate: 0.005,
            ack_lost_rate: 0.005,
            // Sized as a survivable degradation, not an outage: the window's
            // total surcharge stays around a tenth of the measured window,
            // so the gate tests whether the mesh *absorbs* the brownout
            // without amplifying it (injected sleep itself is not dodgeable
            // by any policy).
            brownout_after_ops: 5_000,
            brownout_ops: 2_000,
            brownout_latency: Duration::from_micros(50),
            backoff_base: Duration::from_millis(10),
        }
    }
}

impl GrayFaultConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        GrayFaultConfig {
            callers: 4,
            calls_per_caller: 6_000,
            brownout_after_ops: 4_000,
            brownout_ops: 800,
            ..GrayFaultConfig::default()
        }
    }

    /// The fault plan this configuration arms (empty for the clean arm).
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with_all_sites(
                FaultSpec::transient(self.transient_rate).with_ack_lost(self.ack_lost_rate),
            )
            .with_store_brownout(BrownoutSpec {
                lane: None,
                after_ops: self.brownout_after_ops,
                ops: self.brownout_ops,
                extra_latency: self.brownout_latency,
            })
    }
}

/// The result of one arm.
#[derive(Debug, Clone)]
pub struct GrayFaultReport {
    /// `"clean"`, `"policy"`, or `"naive"`.
    pub arm: &'static str,
    /// Calls acknowledged.
    pub calls: usize,
    /// Wall-clock duration of the window.
    pub elapsed: Duration,
    /// Acknowledged calls per second — the gated number.
    pub goodput: f64,
    /// Failures the callers observed (naive re-call loops count each).
    pub caller_errors: u64,
    /// Faults the injector actually fired (transient + ack-lost).
    pub faults_injected: u64,
    /// Acks the injector dropped (operation applied, failure reported).
    pub acks_lost: u64,
    /// Store operations that paid the brownout surcharge.
    pub brownout_ops: u64,
    /// Retries the orchestration scheduled (0 outside the policy arm).
    pub retries_scheduled: u64,
    /// Invocations that exhausted their schedule into the DLQ.
    pub dead_lettered: u64,
    /// Sum of every tally actor's final persisted counter — must equal
    /// `calls` in the clean and policy arms (exactly-once effects).
    pub persisted_total: i64,
}

/// The workload: each call reads, bumps, and persists one counter field, so
/// an invocation exercises the state-read, state-flush, and response-append
/// paths on every call.
struct Tally;

impl Actor for Tally {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        let n = ctx.state().get("n")?.and_then(|v| v.as_i64()).unwrap_or(0);
        ctx.state().set("n", Value::Int(n + 1))?;
        Ok(Outcome::value(Value::Int(n + 1)))
    }
}

/// Measures one arm. `faults` arms the config's plan; `policy` attaches the
/// exponential-backoff retry policy to every call (otherwise failures are
/// naively re-called in a tight loop until acknowledged).
pub fn measure_arm(arm: &'static str, config: &GrayFaultConfig) -> GrayFaultReport {
    let (faults, policy) = match arm {
        "clean" => (false, true),
        "policy" => (true, true),
        "naive" => (true, false),
        other => panic!("unknown arm {other}"),
    };
    let mut mesh_config = MeshConfig::for_tests()
        .with_dispatch_workers(4)
        .with_reactor_threads(4);
    if faults {
        mesh_config = mesh_config.with_fault_plan(config.plan());
    }
    let mesh = Mesh::new(mesh_config);
    let node = mesh.add_node();
    mesh.add_component(node, "tally-host", |c| c.host("Tally", || Box::new(Tally)));
    let client = mesh.client();

    // Warm placements so the window measures steady state, not discovery.
    // Warmup rides the same fault plan as the measured window, so injected
    // failures here are simply re-called (they are not measured).
    for caller in 0..config.callers {
        let actor = ActorRef::new("Tally", format!("warm{caller}"));
        for attempt in 0.. {
            match client.call(&actor, "bump", vec![]) {
                Ok(_) => break,
                Err(_) if attempt < 50 => {}
                Err(error) => panic!("warmup call kept failing: {error:?}"),
            }
        }
    }

    let errors = Arc::new(AtomicU64::new(0));
    let retry_policy = RetryPolicy::exponential(6, config.backoff_base);
    let started = Instant::now();
    let drivers: Vec<_> = (0..config.callers)
        .map(|caller| {
            let client = client.clone();
            let errors = Arc::clone(&errors);
            let retry_policy = retry_policy.clone();
            let calls = config.calls_per_caller;
            std::thread::spawn(move || {
                let target = ActorRef::new("Tally", format!("t{caller}"));
                let mut acknowledged = 0usize;
                for _ in 0..calls {
                    if policy {
                        match client.call_with_policy(&target, "bump", vec![], retry_policy.clone())
                        {
                            Ok(_) => acknowledged += 1,
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        // The naive client: every failure is re-called
                        // immediately, turning the fault rate straight into
                        // extra load (and re-executions).
                        loop {
                            match client.call(&target, "bump", vec![]) {
                                Ok(_) => {
                                    acknowledged += 1;
                                    break;
                                }
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                acknowledged
            })
        })
        .collect();
    let mut calls = 0usize;
    for driver in drivers {
        calls += driver.join().expect("caller driver");
    }
    let elapsed = started.elapsed();

    // Ground truth: the durable counters, read through the unchecked admin
    // accessors (never faulted).
    let mut persisted_total = 0i64;
    for caller in 0..config.callers {
        let key = format!("state/Tally/t{caller}");
        persisted_total += mesh
            .store()
            .admin_hgetall(&key)
            .get("n")
            .and_then(Value::as_i64)
            .unwrap_or(0);
    }

    let snapshot = mesh.snapshot();
    let fault_stats = snapshot.faults.unwrap_or_default();
    let metrics = snapshot.retry;
    mesh.shutdown();

    GrayFaultReport {
        arm,
        calls,
        elapsed,
        goodput: calls as f64 / elapsed.as_secs_f64(),
        caller_errors: errors.load(Ordering::Relaxed),
        faults_injected: fault_stats.total_faults(),
        acks_lost: fault_stats.sites.iter().map(|s| s.ack_lost).sum(),
        brownout_ops: fault_stats.store_brownout_ops + fault_stats.broker_brownout_ops,
        retries_scheduled: metrics.scheduled,
        dead_lettered: metrics.dead_lettered,
        persisted_total,
    }
}

/// The `bench_grayfault` report: the sweep at the smoke or full size, under
/// the fault schedule `KAR_CHAOS_SEED` selects.
pub fn bench(smoke: bool) -> Vec<Section> {
    let mut config = sized(smoke, GrayFaultConfig::smoke);
    config.seed = chaos_seed(config.seed);
    println!(
        "fault schedule seed: {} (replay with KAR_CHAOS_SEED={})",
        config.seed, config.seed
    );
    let reports = ["clean", "policy", "naive"].map(|arm| measure_arm(arm, &config));
    vec![section(&config, &reports)]
}

/// The sweep rows, gated on policy goodput over fault-free, on zero
/// caller-visible errors in the policy arm, and on exactly-once persistence
/// in every arm: `calls <= persisted_total <= calls + caller_errors` (a
/// failed call may have applied before its ack was lost).
fn section(config: &GrayFaultConfig, reports: &[GrayFaultReport]) -> Section {
    let policy_errors = reports
        .iter()
        .find(|r| r.arm == "policy")
        .map_or(f64::NAN, |r| r.caller_errors as f64);
    let mut section = Section::new(
        "gray_faults",
        vec![
            ("seed", config.seed.into()),
            ("callers", config.callers.into()),
            ("calls_per_caller", config.calls_per_caller.into()),
            ("transient_rate", config.transient_rate.into()),
            ("ack_lost_rate", config.ack_lost_rate.into()),
            ("brownout_after_ops", config.brownout_after_ops.into()),
            ("brownout_ops", config.brownout_ops.into()),
            ("brownout_latency_us", as_us(config.brownout_latency).into()),
            ("backoff_base_ms", as_ms(config.backoff_base).into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        vec![
            ("arm", r.arm.into()),
            ("calls", r.calls.into()),
            ("elapsed_ms", as_ms(r.elapsed).into()),
            ("goodput_per_sec", r.goodput.into()),
            ("caller_errors", r.caller_errors.into()),
            ("faults_injected", r.faults_injected.into()),
            ("acks_lost", r.acks_lost.into()),
            ("brownout_ops", r.brownout_ops.into()),
            ("retries_scheduled", r.retries_scheduled.into()),
            ("dead_lettered", r.dead_lettered.into()),
            ("persisted_total", r.persisted_total.into()),
        ]
    }))
    .gate(Gate::new(
        "goodput_policy_over_clean",
        ratio(
            reports.iter().map(|r| (r.arm, r.goodput)),
            "policy",
            "clean",
        ),
        Bound::AtLeast(GATE_MIN_RATIO),
    ))
    .gate(Gate::new(
        "policy_caller_errors",
        policy_errors,
        Bound::AtMost(0.0),
    ));
    for r in reports {
        let name = format!("{}_persisted_total", r.arm);
        let persisted = r.persisted_total as f64;
        section = section
            .gate(Gate::new(&name, persisted, Bound::AtLeast(r.calls as f64)))
            .gate(Gate::new(
                name,
                persisted,
                Bound::AtMost((r.calls as u64 + r.caller_errors) as f64),
            ));
    }
    section
}

/// The chaos seed: `KAR_CHAOS_SEED` (decimal or `0x`-hex) if set and
/// parseable, else `default` — the same contract as the chaos tests'
/// `tests/common` helper, so one environment variable pins every seeded
/// harness in the repo.
pub fn chaos_seed(default: u64) -> u64 {
    match std::env::var("KAR_CHAOS_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse(),
            };
            parsed.unwrap_or(default)
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate_list, BenchReport, Bound};

    #[test]
    fn sweep_measures_all_arms_and_json_is_balanced() {
        let config = GrayFaultConfig {
            callers: 2,
            calls_per_caller: 10,
            ..GrayFaultConfig::default()
        };
        let reports = ["clean", "policy", "naive"].map(|arm| measure_arm(arm, &config));
        assert_eq!(reports.len(), 3);
        let clean = &reports[0];
        let policy = &reports[1];
        assert_eq!(clean.arm, "clean");
        assert_eq!(policy.arm, "policy");
        assert_eq!(reports[2].arm, "naive");
        assert_eq!(clean.faults_injected, 0, "clean arm must inject nothing");
        assert_eq!(clean.calls, 20);
        assert_eq!(
            clean.persisted_total, 20,
            "every acknowledged bump must be durable"
        );
        assert_eq!(
            policy.calls + policy.caller_errors as usize,
            20,
            "every policy-arm call must settle: {policy:?}"
        );
        // Flush-before-respond: every acknowledged call is durably applied;
        // orchestrated retries are deduped by request id, so no logical call
        // ever applies twice.
        assert!(
            policy.persisted_total >= policy.calls as i64 && policy.persisted_total <= 20,
            "exactly-once effects under injection: {policy:?}"
        );

        // Every condition that fails the run, with the bounds this sweep
        // measured them against.
        let bounds = |arm: &str| {
            let r = reports.iter().find(|r| r.arm == arm).expect("arm");
            (r.calls as f64, (r.calls as u64 + r.caller_errors) as f64)
        };
        let mut expected = vec![
            ("goodput_policy_over_clean".to_owned(), Bound::AtLeast(0.8)),
            ("policy_caller_errors".to_owned(), Bound::AtMost(0.0)),
        ];
        for arm in ["clean", "policy", "naive"] {
            let (low, high) = bounds(arm);
            expected.push((format!("{arm}_persisted_total"), Bound::AtLeast(low)));
            expected.push((format!("{arm}_persisted_total"), Bound::AtMost(high)));
        }
        let sections = vec![section(&config, &reports)];
        assert_eq!(gate_list(&sections), expected);
        let json = BenchReport::new("grayfault", true, sections).to_json();
        assert!(json.contains("\"arm\": \"naive\""));
    }

    #[test]
    fn chaos_seed_parses_decimal_and_hex() {
        // No env manipulation (tests run in parallel); exercise the parse
        // paths through the default fallback only.
        assert_eq!(chaos_seed(7), 7);
    }
}
