//! The repository benchmark.
//!
//! ```text
//! kar-benchmark --workload <invoke_zero|invoke_prod|failover|sim_sweep>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up [`SETUPS`] times (reporting the median set-up
//! time), measures it, checks its outputs, and prints a provenance line, the
//! workload's headline metrics by name and unit, and, last, one
//! JSON result line. With `--trace 0` the result carries the end-to-end
//! metrics, with `--trace 1` the per-layer ones; a layer a workload does not
//! exercise reads 0. The exit code is 0 only when every correctness gate
//! held. See `README.md` next to this file for what each workload and
//! metric is for.

mod failover;
mod invoke;
mod report;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use kar_types::DeploymentProfile;

use report::Metric;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const WORKLOADS: [&str; 4] = ["invoke_zero", "invoke_prod", "failover", "sim_sweep"];

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order; [`per_layer`] appends one
/// re-homed count per failure.
const PER_LAYER: &[(&str, &str)] = &[
    ("kar.req_path_us.p50", "us"),
    ("kar.req_path_us.p99", "us"),
    ("kar.placement_hit_ratio", "ratio"),
    ("kar.request_batch_mean", "count"),
    ("kar.handler_self_us.p50", "us"),
    ("kar.callthen_resume_us.p50", "us"),
    ("kar.tail_hop_us.p50", "us"),
    ("kar.parks_per_call", "count"),
    ("kar.resp_path_us.p50", "us"),
    ("kar.resp_path_us.p99", "us"),
    ("kar.response_batch_mean", "count"),
    ("store.get_us.p50", "us"),
    ("store.set_us.p50", "us"),
    ("store.round_trips_per_call", "count"),
    ("store.pipeline_batch_mean", "count"),
    ("queue.records_per_call", "count"),
    ("queue.retained_records_at_kill.p50", "count"),
    ("recovery.detection_s.p50", "s"),
    ("recovery.consensus_s.p50", "s"),
    ("recovery.reconciliation_s.p50", "s"),
    ("recovery.rehomed_per_failure.p50", "count"),
    ("recovery.rehomed_per_failure.max", "count"),
    ("sim.steps_per_run.kill-while-parked", "count"),
    ("sim.steps_per_run.kill-mid-passivation", "count"),
    ("sim.steps_per_run.kill-during-backoff", "count"),
    ("sim.steps_per_run.dlq-reinjection", "count"),
    ("sim.step_ns", "ns"),
    ("sim.history_events_per_run", "count"),
    ("sim.kill_while_parked_step_share", "ratio"),
    ("kar.unattributed_us.p50", "us"),
    ("trace.goodput_untraced_per_s", "1/s"),
    ("trace.goodput_traced_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("kar.call_us.echo.p50", "us"),
    ("kar.call_us.bump.p50", "us"),
    ("kar.call_us.callthen.p50", "us"),
    ("kar.call_us.tail.p50", "us"),
    ("kar.call_us.policy.p50", "us"),
    ("kar.unattributed_us.echo.p50", "us"),
    ("kar.unattributed_us.bump.p50", "us"),
    ("kar.unattributed_us.callthen.p50", "us"),
    ("kar.unattributed_us.tail.p50", "us"),
    ("kar.unattributed_us.policy.p50", "us"),
];

/// Every per-layer metric name with its unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for i in 1..=failover::FAILURES {
        all.push((format!("recovery.rehomed_per_failure.f{i:02}"), "count"));
    }
    all
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Processes a timed run is split into (see [`trials`]).
    pub trials: u64,
    /// The one part a child process runs; `None` in the process the
    /// benchmark was started as.
    pub trial: Option<u64>,
}

impl RunArgs {
    /// The parts this process runs: its own in a child, all of them
    /// otherwise.
    pub fn parts(&self) -> std::ops::Range<u64> {
        match self.trial {
            Some(k) => k..k + 1,
            None => 0..self.trials,
        }
    }
}

/// Fresh processes a timed run of `workload` is split into. A process's
/// speed and peak resident set depend on its thread placement, allocator
/// layout and hash seeds, so the CPU-bound workloads report the median
/// over several processes (the smallest peak resident set). The others
/// are dominated by modelled latencies and run in one.
fn trials(workload: &str) -> u64 {
    match workload {
        "invoke_zero" => 11,
        "sim_sweep" => 6,
        _ => 1,
    }
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let trials = trials(&workload);
    let trial = match args.iter().position(|a| a == "--trial") {
        None => None,
        Some(_) => {
            let k: u64 = value("--trial")?
                .parse()
                .map_err(|e| format!("--trial: {e}"))?;
            if k >= trials {
                return Err(format!("--trial must be below {trials}"));
            }
            Some(k)
        }
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        trials,
        trial,
    })
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (calls, orders, simulation runs).
    pub attempted: u64,
    /// Operations failed, plus correctness-gate violations.
    pub failed: u64,
    /// Each set-up's duration in seconds.
    pub setup_s: Vec<f64>,
    /// Workload metrics (end-to-end or per-layer by mode).
    pub metrics: Vec<Metric>,
}

/// Run conditions, sample counts and the headline metrics,
/// printed before the result line.
#[derive(Debug, Default)]
pub struct Provenance {
    members: Vec<(String, String)>,
    named: Vec<(String, f64, String)>,
}

impl Provenance {
    /// Records a text field.
    pub fn text(&mut self, key: &str, value: &str) {
        self.raw(key, report::string(value));
    }

    /// Records a number.
    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, report::number(value));
    }

    /// Records an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: String) {
        self.members.push((key.to_owned(), value));
    }

    /// Records the sample count behind percentile `p` of `name`, whether
    /// it leaves ten samples beyond, and the highest percentile that does.
    pub fn percentile(&mut self, name: &str, n: usize, p: f64) {
        let highest = stats::highest_supported(n).map_or("null".to_owned(), report::number);
        self.raw(
            &format!("samples.{name}"),
            report::object(&[
                ("n".to_owned(), n.to_string()),
                ("p".to_owned(), report::number(p)),
                ("supported".to_owned(), stats::supports(n, p).to_string()),
                ("highest_supported".to_owned(), highest),
            ]),
        );
    }

    /// Records a headline metric: a workload's own name for what an
    /// end-to-end metric measures on it (`goodput_cps`, `outage_p50_s`, ...).
    pub fn headline(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_owned(), value, unit.to_owned()));
    }
}

/// Marks the summary line a child process prints for its parent.
const TRIAL_PREFIX: &str = "# trial";

/// One child's summary line: `(correct, attempted, failed, name -> (value,
/// unit))`.
type TrialLine = (bool, u64, u64, Vec<(String, f64, String)>);

fn parse_trial_line(line: &str) -> Option<TrialLine> {
    let rest = line.strip_prefix(TRIAL_PREFIX)?;
    let (mut correct, mut attempted, mut failed) = (None, None, None);
    let mut values = Vec::new();
    for token in rest.split_whitespace() {
        let (key, value) = token.split_once('=')?;
        match key {
            "correct" => correct = Some(value == "true"),
            "attempted" => attempted = value.parse().ok(),
            "failed" => failed = value.parse().ok(),
            _ => {
                let (number, unit) = value.split_once(':')?;
                values.push((key.to_owned(), number.parse().ok()?, unit.to_owned()));
            }
        }
    }
    Some((correct?, attempted?, failed?, values))
}

/// Runs every part of the workload in a fresh child process, one after
/// another, and reports the median of each metric over the children.
fn run_children(argv: &[String], args: &RunArgs, prov: &mut Provenance) -> Outcome {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut outcome = Outcome::default();
    let mut values: Vec<(String, Vec<f64>, String)> = Vec::new();
    for k in args.parts() {
        let child = std::process::Command::new(&exe)
            .args(argv)
            .args(["--trial", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&child.stdout);
        if let Some(first) = stdout.lines().next() {
            prov.raw(&format!("trial.{k}"), first.to_owned());
        }
        let summary = stdout.lines().find_map(parse_trial_line);
        let Some((correct, attempted, failed, metrics)) = summary else {
            prov.text("error", &format!("trial {k} printed no summary"));
            outcome.attempted += 1;
            outcome.failed += 1;
            continue;
        };
        outcome.attempted += attempted;
        outcome.failed += failed + u64::from(!correct && failed == 0);
        for (name, value, unit) in metrics {
            match values.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, vs, _)) => vs.push(value),
                None => values.push((name, vec![value], unit)),
            }
        }
    }
    for (name, vs, unit) in values {
        // A process's peak resident set varies with its allocator layout
        // (the hash seeds differ per process), not with the work: the
        // smallest is the workload's own need. Everything else is a median.
        let value = if name == "peak_rss_mb" {
            vs.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            stats::median(&vs).unwrap_or(0.0)
        };
        if let Some(headline) = name.strip_prefix("headline.") {
            if !matches!(headline, "setup_s" | "failed_ratio" | "peak_rss_mb") {
                prov.headline(headline, value, &unit);
            }
        } else if name == "setup_s" {
            outcome.setup_s.extend(vs);
        } else {
            outcome.metrics.push(Metric::new(name, value, unit));
        }
    }
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("kar-benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prov = Provenance::default();
    prov.text("workload", &args.workload);
    prov.num("seed", args.seed as f64);
    prov.num("seconds", args.seconds.as_secs_f64());
    prov.num("trace", f64::from(u8::from(args.trace)));
    prov.num("nproc", nproc as f64);
    prov.num("setups", SETUPS as f64);

    let cpu_before = stats::cpu_ticks();
    let outcome = if args.trace || args.trial.is_some() || args.trials == 1 {
        match args.workload.as_str() {
            "invoke_zero" => invoke::run(&args, None, &mut prov),
            "invoke_prod" => invoke::run(&args, Some(DeploymentProfile::ClusterProd), &mut prov),
            "failover" => failover::run(&args, &mut prov),
            _ => sweep::run(&args, &mut prov),
        }
    } else {
        run_children(&argv, &args, &mut prov)
    };

    if let (Some(before), Some(after)) = (cpu_before, stats::cpu_ticks()) {
        prov.num("host_steal_share", after.steal_share_since(&before));
    }
    let mut produced = outcome.metrics;
    let setup = stats::median(&outcome.setup_s).unwrap_or(0.0);
    produced.push(Metric::new("setup_s", setup, "s"));
    if !produced.iter().any(|m| m.name == "peak_rss_mb") {
        produced.push(Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    }
    let rss = produced
        .iter()
        .find(|m| m.name == "peak_rss_mb")
        .map_or(0.0, |m| m.value);
    prov.headline("setup_s", setup, "s");
    prov.headline(
        "failed_ratio",
        stats::ratio(outcome.failed, outcome.attempted),
        "ratio",
    );
    prov.headline("peak_rss_mb", rss, "MB");

    let declared: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut missing = Vec::new();
    let metrics: Vec<Metric> = declared
        .into_iter()
        .map(
            |(name, unit)| match produced.iter().find(|m| m.name == name) {
                Some(m) => Metric::new(name, m.value, unit),
                None => {
                    if !args.trace {
                        missing.push(name.clone());
                    }
                    Metric::new(name, 0.0, unit)
                }
            },
        )
        .collect();
    for name in &missing {
        prov.text("missing_metric", name);
    }
    let correct = outcome.failed == 0 && missing.is_empty();

    println!(
        "{}",
        report::object(&[("provenance".to_owned(), report::object(&prov.members))])
    );
    for (name, value, unit) in &prov.named {
        println!("# {:<22} {:>16} {unit}", name, report::number(*value));
    }
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if args.trial.is_some() {
        let mut line = format!(
            "{TRIAL_PREFIX} correct={correct} attempted={} failed={}",
            outcome.attempted, outcome.failed
        );
        for m in &metrics {
            line.push_str(&format!(
                " {}={}:{}",
                m.name,
                report::number(m.value),
                m.unit
            ));
        }
        for (name, value, unit) in &prov.named {
            line.push_str(&format!(
                " headline.{name}={}:{unit}",
                report::number(*value)
            ));
        }
        println!("{line}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse(&argv("--workload failover --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(a.workload, "failover");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(15));
        assert!(a.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_sweep --seed x --seconds 1 --trace 0",
            "--workload sim_sweep --seed 1 --seconds 0 --trace 0",
            "--workload sim_sweep --seed 1 --seconds 1 --trace 2",
            "--workload sim_sweep --seed 1 --seconds 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn child_summaries_round_trip() {
        let line =
            "# trial correct=true attempted=12 failed=0 setup_s=0.5:s headline.goodput_cps=3:calls/s";
        let (correct, attempted, failed, values) = parse_trial_line(line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (12, 0));
        assert_eq!(
            values,
            vec![
                ("setup_s".to_owned(), 0.5, "s".to_owned()),
                ("headline.goodput_cps".to_owned(), 3.0, "calls/s".to_owned()),
            ]
        );
        assert!(parse_trial_line("# trial correct=true failed=0").is_none());
        assert!(parse_trial_line("{\"correct\": true}").is_none());
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
