//! Summary statistics, and the one report every `bench_*` binary emits.
//!
//! A `BenchReport` is the benchmark name, the host's `nproc`, the mode
//! (full or smoke) and named [`Section`]s. A section holds its workload
//! parameters, rows of typed [`Cell`]s, derived values and the [`Gate`]s
//! the run must pass. The report has one JSON renderer
//! (`BenchReport::to_json`) and one table printer (its `Display`), and
//! [`run_bench`] is the whole command line of a bench binary: it parses the
//! arguments, prints the tables, writes the JSON and exits 1 when a gate
//! failed, so every gate that is printed is also enforced.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Summary statistics over a series of durations, reported in seconds like
/// Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub average: Duration,
    /// Population standard deviation.
    pub stddev: Duration,
    /// Median.
    pub median: Duration,
    /// Minimum.
    pub min: Duration,
    /// Maximum.
    pub max: Duration,
}

impl Summary {
    /// Computes summary statistics for `samples`. Returns `None` when the
    /// series is empty.
    pub fn of(samples: &[Duration]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let n = sorted.len();
        let total: Duration = sorted.iter().sum();
        let mean = total / n as u32;
        let mean_secs = mean.as_secs_f64();
        let variance = sorted
            .iter()
            .map(|d| (d.as_secs_f64() - mean_secs).powi(2))
            .sum::<f64>()
            / n as f64;
        Some(Summary {
            average: mean,
            stddev: Duration::from_secs_f64(variance.sqrt()),
            median: median_of(&sorted)?,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// Formats the summary as a Table 1 row: average, stddev, median, min,
    /// max in seconds.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:<16} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            self.average.as_secs_f64(),
            self.stddev.as_secs_f64(),
            self.median.as_secs_f64(),
            self.min.as_secs_f64(),
            self.max.as_secs_f64(),
        )
    }
}

/// Formats a duration in milliseconds with two decimals (Table 2 cells).
pub fn millis(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Computes the median of a series of durations.
pub fn median(samples: &[Duration]) -> Duration {
    median_of(samples).unwrap_or(Duration::ZERO)
}

/// A sample type [`median_of`] can take the middle of.
pub trait Midpoint: Copy + PartialOrd {
    /// The value halfway between `self` and `other`.
    fn midpoint(self, other: Self) -> Self;
}

impl Midpoint for Duration {
    fn midpoint(self, other: Self) -> Self {
        (self + other) / 2
    }
}

impl Midpoint for f64 {
    fn midpoint(self, other: Self) -> Self {
        (self + other) / 2.0
    }
}

/// The median of `samples` (the midpoint of the two middle ones for an even
/// count), or `None` for an empty series.
pub fn median_of<T: Midpoint>(samples: &[T]) -> Option<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    match n {
        0 => None,
        n if n % 2 == 1 => Some(sorted[n / 2]),
        n => Some(sorted[n / 2 - 1].midpoint(sorted[n / 2])),
    }
}

/// Nearest-rank percentile of an **ascending-sorted** series (`Duration::ZERO`
/// for an empty one). Shared by the latency-shaped harnesses: the partition
/// and delivery sweeps gate on p50/p99, not means — a mean hides exactly the
/// rotation-slice and ack-serialization outliers those gates exist to bound.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A duration in microseconds, the unit of the latency columns.
pub(crate) fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds, the unit of the elapsed-time columns.
pub(crate) fn as_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The value at key `over` divided by the value at key `under` among
/// labelled points (0.0 if either is missing or `under`'s is not positive):
/// the shape of every ratio gate.
pub(crate) fn ratio<K: PartialEq>(
    points: impl IntoIterator<Item = (K, f64)>,
    over: K,
    under: K,
) -> f64 {
    let points: Vec<(K, f64)> = points.into_iter().collect();
    let at = |key: &K| points.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    match (at(&over), at(&under)) {
        (Some(top), Some(bottom)) if bottom > 0.0 => top / bottom,
        _ => 0.0,
    }
}

/// The configuration of a bench run: `smoke_config()` for the smoke run,
/// the full-size `Default` otherwise.
pub(crate) fn sized<T: Default>(smoke: bool, smoke_config: fn() -> T) -> T {
    if smoke {
        smoke_config()
    } else {
        T::default()
    }
}

/// One typed value of a report: a workload parameter, a row cell or a
/// derived value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer count or parameter.
    Int(i64),
    /// A measured quantity, rendered to three decimals (`null` when not
    /// finite).
    Num(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
    /// A list, such as per-shard loads.
    List(Vec<Cell>),
}

impl Cell {
    /// The cell as a JSON value.
    pub fn to_json(&self) -> String {
        match self {
            Cell::Int(value) => value.to_string(),
            Cell::Num(value) => number(*value),
            Cell::Bool(value) => value.to_string(),
            Cell::Str(text) => json_string(text),
            Cell::List(items) => {
                format!("[{}]", join(items.iter().map(Cell::to_json), ", "))
            }
        }
    }
}

/// Tables print a cell as its JSON value, strings unquoted.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(text) => f.write_str(text),
            other => f.write_str(&other.to_json()),
        }
    }
}

macro_rules! cell_from {
    ($($source:ty => |$v:ident| $cell:expr),* $(,)?) => {
        $(impl From<$source> for Cell {
            fn from($v: $source) -> Cell {
                $cell
            }
        })*
    };
}

cell_from! {
    i64 => |v| Cell::Int(v),
    u64 => |v| Cell::Int(i64::try_from(v).unwrap_or(i64::MAX)),
    usize => |v| Cell::Int(i64::try_from(v).unwrap_or(i64::MAX)),
    f64 => |v| Cell::Num(v),
    bool => |v| Cell::Bool(v),
    &str => |v| Cell::Str(v.to_owned()),
}

impl<T: Into<Cell>> From<Vec<T>> for Cell {
    fn from(items: Vec<T>) -> Cell {
        Cell::List(items.into_iter().map(Into::into).collect())
    }
}

/// A finite number rounded to three decimals; `null` otherwise.
fn number(value: f64) -> String {
    let rounded = (value * 1e3).round() / 1e3;
    match (value.is_finite(), rounded.is_finite()) {
        (false, _) => "null".to_owned(),
        (true, true) => rounded.to_string(),
        (true, false) => value.to_string(),
    }
}

/// A JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from('"');
    for c in text.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join(items: impl Iterator<Item = String>, separator: &str) -> String {
    items.collect::<Vec<_>>().join(separator)
}

/// A JSON object of key/value pairs on one line.
fn json_object(pairs: &[(&str, Cell)]) -> String {
    let fields = pairs
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), value.to_json()));
    format!("{{{}}}", join(fields, ", "))
}

/// A JSON list of rendered items, one per line, closed at a six-space
/// indent.
fn json_list(items: impl Iterator<Item = String>) -> String {
    let lines = join(items.map(|item| format!("        {item}")), ",\n");
    if lines.is_empty() {
        "[]".to_owned()
    } else {
        format!("[\n{lines}\n      ]")
    }
}

/// The bound a [`Gate`] holds its value to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Passes when `value >= bound`.
    AtLeast(f64),
    /// Passes when `value <= bound`.
    AtMost(f64),
    /// Passes when `value < bound` (strict).
    Below(f64),
}

/// A condition a bench run must meet; a failed gate makes the binary exit 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is gated.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The bound it is held to.
    pub bound: Bound,
}

impl Gate {
    /// A gate holding `value` to `bound`.
    pub fn new(name: impl Into<String>, value: f64, bound: Bound) -> Gate {
        let name = name.into();
        Gate { name, value, bound }
    }

    /// A gate on a condition, recorded as 1 (holds) or 0 against at least 1.
    pub fn holds(name: impl Into<String>, holds: bool) -> Gate {
        Gate::new(name, f64::from(u8::from(holds)), Bound::AtLeast(1.0))
    }

    /// Whether the value meets the bound (a NaN never does).
    pub fn passed(&self) -> bool {
        match self.bound {
            Bound::AtLeast(bound) => self.value >= bound,
            Bound::AtMost(bound) => self.value <= bound,
            Bound::Below(bound) => self.value < bound,
        }
    }

    /// The bound's JSON key, table symbol and value.
    fn bound_parts(&self) -> (&'static str, &'static str, f64) {
        match self.bound {
            Bound::AtLeast(bound) => ("at_least", ">=", bound),
            Bound::AtMost(bound) => ("at_most", "<=", bound),
            Bound::Below(bound) => ("below", "<", bound),
        }
    }
}

/// One row: column names and cells, in column order.
pub type Row = Vec<(&'static str, Cell)>;

/// One measured workload of a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// The section's key in the report.
    pub name: &'static str,
    /// The workload parameters.
    pub workload: Row,
    /// One row per measured point, all with the same columns.
    pub rows: Vec<Row>,
    /// Derived figures that no gate bounds.
    pub values: Row,
    /// The conditions the run must meet.
    pub gates: Vec<Gate>,
}

impl Section {
    /// A section with its workload parameters and nothing measured yet.
    pub fn new(name: &'static str, workload: Row) -> Section {
        Section {
            name,
            workload,
            ..Section::default()
        }
    }

    /// Appends measured rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Row>) -> Section {
        self.rows.extend(rows);
        self
    }

    /// Adds a derived figure that no gate bounds.
    pub fn value(mut self, key: &'static str, value: impl Into<Cell>) -> Section {
        self.values.push((key, value.into()));
        self
    }

    /// Adds a gate.
    pub fn gate(mut self, gate: Gate) -> Section {
        self.gates.push(gate);
        self
    }

    fn to_json(&self) -> String {
        let gates = self.gates.iter().map(|gate| {
            let (key, _, bound) = gate.bound_parts();
            format!(
                "{{\"name\": {}, \"value\": {}, \"{key}\": {}, \"passed\": {}}}",
                json_string(&gate.name),
                number(gate.value),
                number(bound),
                gate.passed()
            )
        });
        format!(
            "    {}: {{\n      \"workload\": {},\n      \"rows\": {},\n      \
             \"values\": {},\n      \"gates\": {}\n    }}",
            json_string(self.name),
            json_object(&self.workload),
            json_list(self.rows.iter().map(|row| json_object(row))),
            json_object(&self.values),
            json_list(gates),
        )
    }
}

/// The section as a table: a workload line, the rows with right-aligned
/// columns, then one line per value and per gate.
impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let workload = self
            .workload
            .iter()
            .map(|(key, value)| format!("{key} {value}"));
        let workload = join(workload, ", ");
        let separator = if workload.is_empty() { "" } else { ": " };
        writeln!(f, "{}{separator}{workload}", self.name)?;
        let header = self.rows.first().map_or_else(Vec::new, |row| {
            row.iter().map(|(key, _)| key.to_string()).collect()
        });
        let cells: Vec<Vec<String>> = std::iter::once(header)
            .chain(
                self.rows
                    .iter()
                    .map(|row| row.iter().map(|(_, cell)| cell.to_string()).collect()),
            )
            .filter(|line| !line.is_empty())
            .collect();
        let width = |column: usize| {
            cells
                .iter()
                .filter_map(|line| line.get(column))
                .map(String::len)
                .max()
        };
        for line in &cells {
            let padded = line.iter().enumerate().map(|(column, text)| {
                format!("{text:>width$}", width = width(column).unwrap_or(0))
            });
            writeln!(f, "{}", join(padded, "  "))?;
        }
        for (key, value) in &self.values {
            writeln!(f, "{key}: {value}")?;
        }
        for gate in &self.gates {
            let (_, symbol, bound) = gate.bound_parts();
            let verdict = if gate.passed() { "ok" } else { "FAILED" };
            let (value, bound) = (number(gate.value), number(bound));
            writeln!(f, "gate {}: {value} {symbol} {bound} {verdict}", gate.name)?;
        }
        Ok(())
    }
}

/// The result of one bench run: what `BENCH_<name>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchReport {
    /// The benchmark name.
    pub benchmark: String,
    /// Logical CPUs of the host that ran it.
    pub nproc: usize,
    /// Whether this was the seconds-scale smoke run.
    pub smoke: bool,
    /// The measured workloads.
    pub sections: Vec<Section>,
}

impl BenchReport {
    /// A report of `sections`, stamped with this host's `nproc`.
    pub fn new(benchmark: &str, smoke: bool, sections: Vec<Section>) -> BenchReport {
        BenchReport {
            benchmark: benchmark.to_owned(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            smoke,
            sections,
        }
    }

    /// Every gate of every section.
    pub fn gates(&self) -> impl Iterator<Item = &Gate> {
        self.sections.iter().flat_map(|section| &section.gates)
    }

    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.gates().all(Gate::passed)
    }

    fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": {},\n  \"nproc\": {},\n  \"mode\": \"{}\",\n  \
             \"passed\": {},\n  \"sections\": {{\n{}\n  }}\n}}\n",
            json_string(&self.benchmark),
            self.nproc,
            self.mode(),
            self.passed(),
            join(self.sections.iter().map(Section::to_json), ",\n"),
        )
    }
}

/// The tables: a title line, then every section.
impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, mode, nproc) = (&self.benchmark, self.mode(), self.nproc);
        writeln!(f, "{name} ({mode} run, nproc {nproc})")?;
        self.sections
            .iter()
            .try_for_each(|section| write!(f, "\n{section}"))
    }
}

/// Parses the arguments of `bench_<name>` (program name excluded) into
/// (smoke, output path). No argument is the full run into
/// `BENCH_<name>.json`, one path the full run into that path, and `--smoke`
/// the smoke run into `target/bench-smoke/BENCH_<name>.json`, so a smoke
/// run never replaces a committed full-run file. Any other option, or a
/// second argument, is an error.
fn parse_args(name: &str, args: &[String]) -> Result<(bool, PathBuf), String> {
    let file = PathBuf::from(format!("BENCH_{name}.json"));
    match args {
        [] => Ok((false, file)),
        [flag] if flag == "--smoke" => Ok((true, Path::new("target/bench-smoke").join(file))),
        [flag] if flag.starts_with('-') => Err(format!("unknown option {flag}")),
        [path] => Ok((false, PathBuf::from(path))),
        _ => Err(format!("expected at most one argument, got {}", args.len())),
    }
}

/// The `main` of a `bench_<name>` binary: parses the command line (exit 2
/// with the usage on a bad one), runs `bench(smoke)`, prints the report's
/// tables, writes its JSON and exits 1 if any gate failed.
pub fn run_bench(name: &str, about: &str, bench: impl FnOnce(bool) -> Vec<Section>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run_bench_with(name, about, &args, bench))
}

fn run_bench_with(
    name: &str,
    about: &str,
    args: &[String],
    bench: impl FnOnce(bool) -> Vec<Section>,
) -> u8 {
    let (smoke, out) = match parse_args(name, args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!(
                "bench_{name}: {error}\n{about}\n\
                 usage: bench_{name} [OUT.json]  full run, report to OUT.json (default BENCH_{name}.json)\n       \
                 bench_{name} --smoke     seconds-scale run, report to target/bench-smoke/BENCH_{name}.json"
            );
            return 2;
        }
    };
    let report = BenchReport::new(name, smoke, bench(smoke));
    print!("{report}");
    let dir = out.parent().unwrap_or(Path::new(""));
    if let Err(error) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&out, report.to_json()))
    {
        eprintln!("bench_{name}: cannot write {}: {error}", out.display());
        return 1;
    }
    println!("\nwrote {}", out.display());
    let failed = join(
        report
            .gates()
            .filter(|gate| !gate.passed())
            .map(|gate| gate.name.clone()),
        ", ",
    );
    if failed.is_empty() {
        return 0;
    }
    eprintln!("GATE FAILED: {failed}");
    1
}

/// The gates of `sections` as (name, bound): what a module's test pins so
/// that no gate can silently drop out of a report.
#[cfg(test)]
pub(crate) fn gate_list(sections: &[Section]) -> Vec<(String, Bound)> {
    let gates = sections.iter().flat_map(|section| &section.gates);
    gates.map(|gate| (gate.name.clone(), gate.bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(values: &[f64]) -> Vec<Duration> {
        values.iter().map(|v| Duration::from_secs_f64(*v)).collect()
    }

    #[test]
    fn summary_of_empty_series_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_statistics_match_hand_computation() {
        let samples = secs(&[1.0, 2.0, 3.0, 4.0]);
        let summary = Summary::of(&samples).unwrap();
        assert_eq!(summary.average, Duration::from_secs_f64(2.5));
        assert_eq!(summary.median, Duration::from_secs_f64(2.5));
        assert_eq!(summary.min, Duration::from_secs(1));
        assert_eq!(summary.max, Duration::from_secs(4));
        assert!((summary.stddev.as_secs_f64() - 1.118).abs() < 1e-3);
        let row = summary.row("Total Outage");
        assert!(row.contains("Total Outage"));
        assert!(row.contains("2.500"));
    }

    #[test]
    fn median_of_odd_series_is_middle_element() {
        assert_eq!(median(&secs(&[3.0, 1.0, 2.0])), Duration::from_secs(2));
        assert_eq!(median(&[]), Duration::ZERO);
    }

    #[test]
    fn millis_formatting() {
        assert_eq!(millis(Duration::from_micros(2600)), "2.60");
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_input() {
        let sorted = secs(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(percentile(&sorted, 0.0), Duration::from_secs(1));
        assert_eq!(percentile(&sorted, 50.0), Duration::from_secs(3));
        assert_eq!(percentile(&sorted, 99.0), Duration::from_secs(5));
        assert_eq!(percentile(&[], 99.0), Duration::ZERO);
        assert_eq!(
            Summary::of(&sorted).unwrap().median,
            percentile(&sorted, 50.0)
        );
    }

    fn demo_report() -> BenchReport {
        let first = Section::new(
            "first",
            vec![("callers", u64::MAX.into()), ("label", "a\"b\\c\t".into())],
        )
        .rows([
            vec![
                ("arm", "x".into()),
                ("ok", true.into()),
                ("p99_us", 12.3456.into()),
            ],
            vec![
                ("arm", "y".into()),
                ("ok", false.into()),
                ("p99_us", f64::NAN.into()),
            ],
        ])
        .value("ratio", 1.5)
        .gate(Gate::new("ratio", 1.5, Bound::AtLeast(0.8)));
        let second = Section::new("second", vec![])
            .rows([vec![("loads", vec![3u64, 4].into())]])
            .gate(Gate::new("skew", f64::INFINITY, Bound::Below(2.0)));
        let (benchmark, sections) = ("demo".to_owned(), vec![first, second]);
        BenchReport {
            benchmark,
            nproc: 2,
            smoke: true,
            sections,
        }
    }

    #[test]
    fn bench_report_renders_the_exact_json_document() {
        let expected = r#"{
  "benchmark": "demo",
  "nproc": 2,
  "mode": "smoke",
  "passed": false,
  "sections": {
    "first": {
      "workload": {"callers": 9223372036854775807, "label": "a\"b\\c\u0009"},
      "rows": [
        {"arm": "x", "ok": true, "p99_us": 12.346},
        {"arm": "y", "ok": false, "p99_us": null}
      ],
      "values": {"ratio": 1.5},
      "gates": [
        {"name": "ratio", "value": 1.5, "at_least": 0.8, "passed": true}
      ]
    },
    "second": {
      "workload": {},
      "rows": [
        {"loads": [3, 4]}
      ],
      "values": {},
      "gates": [
        {"name": "skew", "value": null, "below": 2, "passed": false}
      ]
    }
  }
}
"#;
        assert_eq!(demo_report().to_json(), expected);
    }

    #[test]
    fn bench_report_prints_aligned_tables_and_every_gate() {
        let expected = "demo (smoke run, nproc 2)

first: callers 9223372036854775807, label a\"b\\c\t
arm     ok  p99_us
  x   true  12.346
  y  false    null
ratio: 1.5
gate ratio: 1.5 >= 0.8 ok

second
 loads
[3, 4]
gate skew: null < 2 FAILED
";
        assert_eq!(demo_report().to_string(), expected);
    }

    #[test]
    fn gates_hold_their_bounds_and_never_pass_on_nan() {
        let passes = |value: f64, bound: Bound| Gate::new("g", value, bound).passed();
        assert!(passes(0.8, Bound::AtLeast(0.8)) && !passes(0.79, Bound::AtLeast(0.8)));
        assert!(passes(0.0, Bound::AtMost(0.0)) && !passes(1.0, Bound::AtMost(0.0)));
        assert!(passes(1.99, Bound::Below(2.0)) && !passes(2.0, Bound::Below(2.0)));
        assert!(Gate::holds("g", true).passed() && !Gate::holds("g", false).passed());
        for bound in [Bound::AtLeast(1.0), Bound::AtMost(1.0), Bound::Below(1.0)] {
            assert!(!passes(f64::NAN, bound));
        }
    }

    #[test]
    fn bench_args_accept_smoke_and_paths_and_reject_other_flags() {
        let parse = |list: &[&str]| {
            let args: Vec<String> = list.iter().map(|a| a.to_string()).collect();
            parse_args("demo", &args).map(|(smoke, out)| (smoke, out.display().to_string()))
        };
        assert_eq!(parse(&[]), Ok((false, "BENCH_demo.json".to_owned())));
        let smoke_out = "target/bench-smoke/BENCH_demo.json".to_owned();
        assert_eq!(parse(&["--smoke"]), Ok((true, smoke_out)));
        assert_eq!(parse(&["out.json"]), Ok((false, "out.json".to_owned())));
        for bad in [
            &["--smok"][..],
            &["--help"],
            &["-s"],
            &["a.json", "b.json"],
            &["--smoke", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn one_failing_gate_fails_the_run() {
        let out =
            std::env::temp_dir().join(format!("kar-bench-report-{}.json", std::process::id()));
        let args = vec![out.display().to_string()];
        let bench = |flag: bool| {
            move |smoke: bool| {
                assert!(!smoke);
                let always = Gate::new("always", 1.0, Bound::AtLeast(1.0));
                vec![Section::new("s", vec![])
                    .gate(always)
                    .gate(Gate::holds("flag", flag))]
            }
        };
        for (flag, status, passed) in [(true, 0, "true"), (false, 1, "false")] {
            assert_eq!(run_bench_with("demo", "", &args, bench(flag)), status);
            let written = std::fs::read_to_string(&out).expect("report written");
            assert!(
                written.contains(&format!("\"passed\": {passed}")),
                "{written}"
            );
        }
        std::fs::remove_file(&out).expect("remove report");
        let typo = vec!["--smok".to_owned()];
        let never = |_| -> Vec<Section> { unreachable!("a bad command line runs nothing") };
        assert_eq!(run_bench_with("demo", "", &typo, never), 2);
    }

    #[test]
    fn ratio_divides_labelled_points_and_is_zero_when_one_is_missing() {
        let points = [("a", 3.0), ("b", 2.0), ("zero", 0.0)];
        assert_eq!(ratio(points, "a", "b"), 1.5);
        assert_eq!(ratio(points, "a", "zero"), 0.0);
        assert_eq!(ratio(points, "a", "missing"), 0.0);
    }
}
