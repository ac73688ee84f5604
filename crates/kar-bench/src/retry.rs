//! Retry-orchestration harness: healthy-path goodput next to a failing
//! neighbor, with naive immediate re-calls vs an exponential-backoff policy
//! under the mesh retry budget.
//!
//! The scenario is RetryGuard's retry-storm setup scaled to one mesh: a pool
//! of *healthy* callers drives echo actors while a second pool hammers a
//! neighbor actor type that fails ~30 % of first attempts. In the "none" arm
//! the failing callers retry the way naive clients do — immediately, in a
//! tight loop — so every failure turns into instant extra load. In the
//! "policy" arm the same traffic carries an exponential-backoff
//! [`RetryPolicy`] and the mesh retry budget paces the retry lane.
//!
//! The gate is on what the *healthy* population experiences: orchestrated
//! retries space out and budget the recovery traffic, so healthy goodput
//! with the policy must stay within 0.8× of the naive arm (and is expected
//! to beat it as the failing share grows).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kar::{Actor, ActorContext, Mesh, MeshConfig, Outcome, RetryPolicy};
use kar_types::{ActorRef, KarResult, Value};

use crate::report::{as_ms, ratio, sized, Bound, Gate, Section};
use crate::throughput::Echo;

/// Healthy goodput with the policy must stay within this factor of the
/// naive-retry arm.
pub const GATE_MIN_RATIO: f64 = 0.8;

/// Configuration of one retry-orchestration measurement.
#[derive(Debug, Clone)]
pub struct RetryBenchConfig {
    /// Caller threads driving the healthy echo population.
    pub healthy_callers: usize,
    /// Sequential calls per healthy caller (the measured window).
    pub calls_per_caller: usize,
    /// Caller threads hammering the failing neighbor for the whole window.
    pub failing_callers: usize,
    /// Percentage of first attempts the neighbor fails (retries succeed).
    pub failure_percent: u64,
    /// Base delay of the exponential backoff in the policy arm.
    pub backoff_base: Duration,
    /// Mesh retry-budget refill rate (tokens/second).
    pub budget_rate: f64,
    /// Mesh retry-budget burst capacity.
    pub budget_burst: f64,
}

impl Default for RetryBenchConfig {
    fn default() -> Self {
        RetryBenchConfig {
            healthy_callers: 8,
            calls_per_caller: 100,
            failing_callers: 8,
            failure_percent: 30,
            backoff_base: Duration::from_millis(20),
            budget_rate: 200.0,
            budget_burst: 50.0,
        }
    }
}

impl RetryBenchConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        RetryBenchConfig {
            healthy_callers: 4,
            calls_per_caller: 30,
            failing_callers: 4,
            ..RetryBenchConfig::default()
        }
    }
}

/// The result of one arm.
#[derive(Debug, Clone)]
pub struct RetryBenchReport {
    /// `"none"` (naive immediate re-calls) or `"policy"` (exponential
    /// backoff + budget).
    pub arm: &'static str,
    /// Healthy calls completed.
    pub healthy_calls: usize,
    /// Wall-clock duration of the healthy window.
    pub elapsed: Duration,
    /// Healthy calls per second — the gated number.
    pub goodput: f64,
    /// Failing-neighbor calls acknowledged (each eventually succeeded).
    pub failing_calls: u64,
    /// First-attempt failures the failing callers observed or the policy
    /// absorbed.
    pub failures_injected: u64,
    /// Retries the orchestration scheduled (0 in the naive arm).
    pub retries_scheduled: u64,
    /// Retries the budget shed onto their backoff timer.
    pub retries_shed: u64,
    /// Invocations that exhausted their schedule into the DLQ.
    pub dead_lettered: u64,
}

/// The failing neighbor: deterministically fails `failure_percent` of first
/// attempts (a shared counter cycles failures evenly); any retried attempt
/// succeeds.
struct Neighbor {
    ticket: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
    failure_percent: u64,
}

impl Actor for Neighbor {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        _method: &str,
        _args: &[Value],
    ) -> KarResult<Outcome> {
        if ctx.retry_attempt() == 0 {
            let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
            if ticket % 100 < self.failure_percent {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(kar_types::KarError::application(format!(
                    "injected failure {ticket}"
                )));
            }
        }
        Ok(Outcome::value(Value::Null))
    }
}

/// Measures healthy goodput while the failing neighbor is hammered — with
/// the exponential-backoff policy (`policy == true`) or naive immediate
/// re-calls (`policy == false`).
pub fn measure_arm(policy: bool, config: &RetryBenchConfig) -> RetryBenchReport {
    let mesh = Mesh::new(
        MeshConfig::for_tests()
            .with_dispatch_workers(4)
            .with_reactor_threads(4)
            .with_retry_budget(config.budget_rate, config.budget_burst),
    );
    let node = mesh.add_node();
    let ticket = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    mesh.add_component(node, "healthy-host", |c| c.host("Echo", || Box::new(Echo)));
    mesh.add_component(node, "neighbor-host", |c| {
        let ticket = Arc::clone(&ticket);
        let failures = Arc::clone(&failures);
        let failure_percent = config.failure_percent;
        c.host("Neighbor", move || {
            Box::new(Neighbor {
                ticket: Arc::clone(&ticket),
                failures: Arc::clone(&failures),
                failure_percent,
            })
        })
    });
    let client = mesh.client();

    // Warm placements so the window measures steady state, not discovery.
    for caller in 0..config.healthy_callers {
        let actor = ActorRef::new("Echo", format!("h{caller}"));
        client.call(&actor, "ping", vec![]).expect("warmup call");
    }

    // The failing pool hammers its neighbor until the healthy window ends.
    let stop = Arc::new(AtomicBool::new(false));
    let retry_policy = RetryPolicy::exponential(5, config.backoff_base).retry_all_errors();
    let failing: Vec<_> = (0..config.failing_callers)
        .map(|caller| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let retry_policy = retry_policy.clone();
            std::thread::spawn(move || {
                let target = ActorRef::new("Neighbor", format!("n{caller}"));
                let mut acknowledged = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if policy {
                        if client
                            .call_with_policy(&target, "work", vec![], retry_policy.clone())
                            .is_ok()
                        {
                            acknowledged += 1;
                        }
                    } else {
                        // The naive client: every failure is retried
                        // immediately, turning the failure rate straight
                        // into extra load.
                        loop {
                            match client.call(&target, "work", vec![]) {
                                Ok(_) => {
                                    acknowledged += 1;
                                    break;
                                }
                                Err(_) if !stop.load(Ordering::Relaxed) => {}
                                Err(_) => break,
                            }
                        }
                    }
                }
                acknowledged
            })
        })
        .collect();

    let started = Instant::now();
    let healthy: Vec<_> = (0..config.healthy_callers)
        .map(|caller| {
            let client = client.clone();
            let calls = config.calls_per_caller;
            std::thread::spawn(move || {
                let actor = ActorRef::new("Echo", format!("h{caller}"));
                for _ in 0..calls {
                    client.call(&actor, "ping", vec![]).expect("healthy call");
                }
                calls
            })
        })
        .collect();
    let mut healthy_calls = 0usize;
    for driver in healthy {
        healthy_calls += driver.join().expect("healthy driver");
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let mut failing_calls = 0u64;
    for driver in failing {
        failing_calls += driver.join().expect("failing driver");
    }
    let metrics = mesh.snapshot().retry;
    mesh.shutdown();

    RetryBenchReport {
        arm: if policy { "policy" } else { "none" },
        healthy_calls,
        elapsed,
        goodput: healthy_calls as f64 / elapsed.as_secs_f64(),
        failing_calls,
        failures_injected: failures.load(Ordering::Relaxed),
        retries_scheduled: metrics.scheduled,
        retries_shed: metrics.shed,
        dead_lettered: metrics.dead_lettered,
    }
}

/// The `bench_retry` report: the sweep at the smoke or full size.
pub fn bench(smoke: bool) -> Vec<Section> {
    let config = sized(smoke, RetryBenchConfig::smoke);
    let reports = [false, true].map(|policy| measure_arm(policy, &config));
    vec![section(&config, &reports)]
}

/// The sweep rows, gated on healthy goodput of the policy arm over the
/// naive arm.
fn section(config: &RetryBenchConfig, reports: &[RetryBenchReport]) -> Section {
    Section::new(
        "retry_orchestration",
        vec![
            ("healthy_callers", config.healthy_callers.into()),
            ("calls_per_caller", config.calls_per_caller.into()),
            ("failing_callers", config.failing_callers.into()),
            ("failure_percent", config.failure_percent.into()),
            ("backoff_base_ms", as_ms(config.backoff_base).into()),
            ("budget_rate", config.budget_rate.into()),
            ("budget_burst", config.budget_burst.into()),
        ],
    )
    .rows(reports.iter().map(|r| {
        vec![
            ("arm", r.arm.into()),
            ("healthy_calls", r.healthy_calls.into()),
            ("elapsed_ms", as_ms(r.elapsed).into()),
            ("goodput_per_sec", r.goodput.into()),
            ("failing_calls", r.failing_calls.into()),
            ("failures_injected", r.failures_injected.into()),
            ("retries_scheduled", r.retries_scheduled.into()),
            ("retries_shed", r.retries_shed.into()),
            ("dead_lettered", r.dead_lettered.into()),
        ]
    }))
    .gate(Gate::new(
        "goodput_policy_over_none",
        ratio(reports.iter().map(|r| (r.arm, r.goodput)), "policy", "none"),
        Bound::AtLeast(GATE_MIN_RATIO),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate_list, BenchReport, Bound};

    #[test]
    fn sweep_measures_both_arms_and_json_is_balanced() {
        let config = RetryBenchConfig {
            healthy_callers: 2,
            calls_per_caller: 8,
            failing_callers: 2,
            ..RetryBenchConfig::default()
        };
        let reports = [false, true].map(|policy| measure_arm(policy, &config));
        assert_eq!(reports.len(), 2);
        let none = &reports[0];
        let policy = &reports[1];
        assert_eq!(none.arm, "none");
        assert_eq!(policy.arm, "policy");
        assert_eq!(none.healthy_calls, 16);
        assert_eq!(policy.healthy_calls, 16);
        assert_eq!(
            none.retries_scheduled, 0,
            "the naive arm never schedules an orchestrated retry"
        );
        assert!(
            policy.retries_scheduled > 0 || policy.failures_injected == 0,
            "injected failures must flow through the retry lane: {policy:?}"
        );

        let sections = vec![section(&RetryBenchConfig::smoke(), &reports)];
        assert_eq!(
            gate_list(&sections),
            vec![("goodput_policy_over_none".to_owned(), Bound::AtLeast(0.8))]
        );
        let json = BenchReport::new("retry", true, sections).to_json();
        assert!(json.contains("\"arm\": \"policy\""));
    }
}
