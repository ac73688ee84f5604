//! The result line and the provenance line, written as JSON by hand (the
//! benchmark has no serialisation dependency).

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Escapes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number; JSON has no NaN or infinity, so those render as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Renders an object from already-rendered member values.
pub fn object(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let rendered: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(&[
                    ("value".to_owned(), number(m.value)),
                    ("unit".to_owned(), string(&m.unit)),
                ]),
            )
        })
        .collect();
    object(&[
        ("correct".to_owned(), correct.to_string()),
        ("attempted".to_owned(), attempted.max(1).to_string()),
        ("failed".to_owned(), failed.to_string()),
        ("metrics".to_owned(), object(&rendered)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.000123), "0.000123");
    }
}
