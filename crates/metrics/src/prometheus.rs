//! Prometheus text-format 0.0.4 exposition and a validating parser.
//!
//! The renderer works off a frozen [`Snapshot`] through an intermediate
//! [`Exposition`] model (families of flat samples); the parser inverts
//! the text back into the same model, so the round-trip property tested
//! by the suite is literally `parse(render(model)) == model`.
//!
//! Histogram `le` boundaries are of the form `2^k − 1`, which align
//! exactly with the log-linear bucket edges (see [`crate::hist`]): every
//! rendered cumulative count is exact, not an approximation. Boundaries
//! are emitted from 1 up to the first one covering the observed maximum,
//! then `+Inf`.

use crate::hist::HistSnapshot;
use crate::registry::{MetricKind, MetricValue, Snapshot};
use std::fmt::Write as _;

/// A parsed (or to-be-rendered) exposition: families in text order.
#[derive(Clone, Debug, PartialEq)]
pub struct Exposition {
    /// Metric families in order of appearance.
    pub families: Vec<ExpositionFamily>,
}

/// One `# TYPE` block: the family metadata plus its flat samples.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpositionFamily {
    /// Family name (histogram samples append `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Help text (escaped in transit).
    pub help: String,
    /// Samples in text order.
    pub samples: Vec<Sample>,
}

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full sample name, including any histogram suffix.
    pub name: String,
    /// Label pairs in text order.
    pub labels: Vec<(String, String)>,
    /// The sample value (`f64::INFINITY` only ever appears in `le`
    /// labels, never here).
    pub value: f64,
}

/// Format a value the way the renderer does: integers without a decimal
/// point, everything else via `f64` display.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The `le` boundaries rendered for `h`: `2^k − 1` for `k = 1..`, up to
/// the first boundary at or above the observed maximum (at least one).
fn le_boundaries(h: &HistSnapshot) -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut k = 1u32;
    loop {
        let bound = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
        bounds.push(bound);
        if bound >= h.max || bound == u64::MAX {
            return bounds;
        }
        k += 1;
    }
}

/// Build the exposition model for a registry snapshot.
pub fn exposition(snap: &Snapshot) -> Exposition {
    let mut families = Vec::new();
    for fam in &snap.families {
        let mut samples = Vec::new();
        for series in &fam.series {
            let labels: Vec<(String, String)> = series.labels.clone();
            match &series.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => samples.push(Sample {
                    name: fam.name.clone(),
                    labels,
                    value: *v as f64,
                }),
                MetricValue::Histogram(h) => {
                    for bound in le_boundaries(h) {
                        let mut l = labels.clone();
                        l.push(("le".to_string(), bound.to_string()));
                        samples.push(Sample {
                            name: format!("{}_bucket", fam.name),
                            labels: l,
                            value: h.cumulative_le(bound) as f64,
                        });
                    }
                    let mut l = labels.clone();
                    l.push(("le".to_string(), "+Inf".to_string()));
                    samples.push(Sample {
                        name: format!("{}_bucket", fam.name),
                        labels: l,
                        value: h.count as f64,
                    });
                    samples.push(Sample {
                        name: format!("{}_sum", fam.name),
                        labels: labels.clone(),
                        value: h.sum as f64,
                    });
                    samples.push(Sample {
                        name: format!("{}_count", fam.name),
                        labels,
                        value: h.count as f64,
                    });
                }
            }
        }
        families.push(ExpositionFamily {
            name: fam.name.clone(),
            kind: fam.kind,
            help: fam.help.clone(),
            samples,
        });
    }
    Exposition { families }
}

/// Write an exposition model as Prometheus text format 0.0.4.
pub fn write_exposition(exp: &Exposition) -> String {
    let mut out = String::new();
    for fam in &exp.families {
        let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for s in &fam.samples {
            out.push_str(&s.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
                }
                out.push('}');
            }
            let _ = writeln!(out, " {}", format_value(s.value));
        }
    }
    out
}

/// Render a snapshot in Prometheus text format 0.0.4.
pub fn render(snap: &Snapshot) -> String {
    write_exposition(&exposition(snap))
}

// ------------------------------------------------------------- parsing

/// A parse failure: line number (1-based) and message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn unescape(s: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => return err(line, format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Parse `name{labels}` off the front of a sample line, returning the
/// name, labels, and the rest (the value text).
#[allow(clippy::type_complexity)]
fn parse_sample_head(
    text: &str,
    line: usize,
) -> Result<(String, Vec<(String, String)>, String), ParseError> {
    let (head, rest) = match text.find(['{', ' ']) {
        Some(i) if text.as_bytes()[i] == b'{' => {
            let name = &text[..i];
            let body_end = match text[i..].find('}') {
                Some(j) => i + j,
                None => return err(line, "unterminated label set"),
            };
            (
                (name, Some(&text[i + 1..body_end])),
                text[body_end + 1..].trim_start().to_string(),
            )
        }
        Some(i) => ((&text[..i], None), text[i + 1..].trim_start().to_string()),
        None => return err(line, "sample line has no value"),
    };
    let (name, label_body) = head;
    if !valid_name(name) {
        return err(line, format!("invalid metric name `{name}`"));
    }
    let mut labels = Vec::new();
    if let Some(body) = label_body {
        let mut rest = body.trim();
        while !rest.is_empty() {
            let eq = match rest.find('=') {
                Some(e) => e,
                None => return err(line, "label without `=`"),
            };
            let key = rest[..eq].trim();
            if !valid_name(key) {
                return err(line, format!("invalid label name `{key}`"));
            }
            let after = rest[eq + 1..].trim_start();
            if !after.starts_with('"') {
                return err(line, "label value must be quoted");
            }
            // Find the closing quote, honoring backslash escapes.
            let bytes = after.as_bytes();
            let mut i = 1;
            loop {
                match bytes.get(i) {
                    None => return err(line, "unterminated label value"),
                    Some(b'\\') => i += 2,
                    Some(b'"') => break,
                    Some(_) => i += 1,
                }
            }
            let value = unescape(&after[1..i], line)?;
            labels.push((key.to_string(), value));
            rest = after[i + 1..].trim_start();
            if let Some(stripped) = rest.strip_prefix(',') {
                rest = stripped.trim_start();
            } else if !rest.is_empty() {
                return err(line, "expected `,` between labels");
            }
        }
    }
    Ok((name.to_string(), labels, rest))
}

/// Parse Prometheus text format 0.0.4 back into an [`Exposition`],
/// validating structure as it goes: every sample must follow a `# TYPE`
/// line for its family, histogram samples may only use the
/// `_bucket`/`_sum`/`_count` suffixes, label syntax must be well-formed,
/// and values must parse as floats.
pub fn parse(text: &str) -> Result<Exposition, ParseError> {
    let mut families: Vec<ExpositionFamily> = Vec::new();
    let mut pending_help: Option<(String, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = match rest.split_once(' ') {
                Some((n, h)) => (n, h),
                None => (rest, ""),
            };
            if !valid_name(name) {
                return err(lineno, format!("invalid metric name `{name}`"));
            }
            pending_help = Some((name.to_string(), unescape(help, lineno)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = match rest.split_once(' ') {
                Some(pair) => pair,
                None => return err(lineno, "TYPE line needs `name kind`"),
            };
            if !valid_name(name) {
                return err(lineno, format!("invalid metric name `{name}`"));
            }
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return err(lineno, format!("unknown metric kind `{other}`")),
            };
            if families.iter().any(|f| f.name == name) {
                return err(lineno, format!("duplicate TYPE for `{name}`"));
            }
            let help = match pending_help.take() {
                Some((help_name, help)) if help_name == name => help,
                Some((help_name, _)) => {
                    return err(
                        lineno,
                        format!("HELP for `{help_name}` precedes TYPE `{name}`"),
                    )
                }
                None => String::new(),
            };
            families.push(ExpositionFamily {
                name: name.to_string(),
                kind,
                help,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // free comment
        }
        let (name, labels, value_text) = parse_sample_head(line, lineno)?;
        if value_text.is_empty() {
            return err(lineno, "sample line has no value");
        }
        let value: f64 = match value_text.split_whitespace().next().unwrap().parse() {
            Ok(v) => v,
            Err(_) => return err(lineno, format!("bad sample value `{value_text}`")),
        };
        let family = match families.last_mut() {
            Some(f) => f,
            None => return err(lineno, "sample before any # TYPE line"),
        };
        let base_ok = match family.kind {
            MetricKind::Histogram => {
                name == format!("{}_bucket", family.name)
                    || name == format!("{}_sum", family.name)
                    || name == format!("{}_count", family.name)
            }
            _ => name == family.name,
        };
        if !base_ok {
            return err(
                lineno,
                format!(
                    "sample `{name}` does not belong to family `{}`",
                    family.name
                ),
            );
        }
        if family
            .samples
            .iter()
            .any(|s| s.name == name && s.labels == labels)
        {
            return err(lineno, format!("duplicate series `{name}`"));
        }
        family.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(Exposition { families })
}

/// Convenience for tests: the value of the sample `name` with `labels`
/// (order-insensitive), if present.
pub fn sample_value(exp: &Exposition, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut want: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    want.sort();
    for fam in &exp.families {
        for s in &fam.samples {
            if s.name != name {
                continue;
            }
            let mut have = s.labels.clone();
            have.sort();
            if have == want {
                return Some(s.value);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("demo_queries_total", "Total queries.").add(7);
        r.counter_with(
            "demo_aborts_total",
            "Aborts by resource.",
            &[("resource", "pivots")],
        )
        .add(2);
        r.gauge("demo_threads", "Thread budget.").set(4);
        let h = r.histogram("demo_latency_us", "Latency in \"micros\".");
        for v in [3, 18, 500, 70_000] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn render_parse_round_trips() {
        let snap = sample_registry().snapshot();
        let model = exposition(&snap);
        let text = write_exposition(&model);
        let parsed = parse(&text).expect("rendered text parses");
        assert_eq!(parsed, model);
    }

    #[test]
    fn histogram_bucket_counts_are_exact_cumulatives() {
        let snap = sample_registry().snapshot();
        let text = render(&snap);
        let exp = parse(&text).unwrap();
        assert_eq!(
            sample_value(&exp, "demo_latency_us_bucket", &[("le", "3")]),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&exp, "demo_latency_us_bucket", &[("le", "+Inf")]),
            Some(4.0)
        );
        assert_eq!(sample_value(&exp, "demo_latency_us_count", &[]), Some(4.0));
        assert_eq!(
            sample_value(&exp, "demo_latency_us_sum", &[]),
            Some((3 + 18 + 500 + 70_000) as f64)
        );
        assert_eq!(
            sample_value(&exp, "demo_aborts_total", &[("resource", "pivots")]),
            Some(2.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("demo_total 1").is_err(), "sample before TYPE");
        assert!(parse("# TYPE x banana\n").is_err(), "unknown kind");
        assert!(
            parse("# TYPE x counter\nx{a=unquoted} 1\n").is_err(),
            "unquoted label value"
        );
        assert!(
            parse("# TYPE x counter\nx 1\nx 2\n").is_err(),
            "duplicate series"
        );
        assert!(
            parse("# TYPE x counter\ny 1\n").is_err(),
            "sample outside family"
        );
        assert!(
            parse("# TYPE x counter\nx{a=\"v} 1\n").is_err(),
            "unterminated label value"
        );
        assert!(
            parse("# TYPE x counter\nx notanumber\n").is_err(),
            "bad value"
        );
    }

    #[test]
    fn label_escapes_round_trip() {
        let r = Registry::new();
        r.counter_with("esc_total", "e", &[("q", "say \"hi\"\\n")])
            .inc();
        let model = exposition(&r.snapshot());
        let parsed = parse(&write_exposition(&model)).unwrap();
        assert_eq!(parsed, model);
    }
}
