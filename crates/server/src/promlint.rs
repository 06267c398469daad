//! A Prometheus text-exposition parser and linter (`std`-only, in-repo).
//!
//! [`parse`] reads a `/metrics` scrape into a [`Scrape`] whose samples can
//! be looked up by name and labels — the one way tools and tests read the
//! server's metrics. [`lint`] parses through the same code and then checks
//! the document. `scripts/server_smoke.sh` runs the linter against a live
//! scrape via the `promlint` binary, so a malformed exposition — a family
//! without `# HELP`/`# TYPE`, an unescaped label value, a non-monotone `le`
//! ladder, or broken exemplar syntax — fails CI instead of silently
//! confusing the first real Prometheus server pointed at us.
//!
//! Checks, in order of appearance in [`lint`]:
//!
//! 1. **Line shape** — every non-comment line parses as
//!    `name{labels} value [# {exemplar-labels} value]`.
//! 2. **Metadata** — every sample's family has `# TYPE` and `# HELP`
//!    lines, and the `# TYPE` kind is a known one. Histogram suffixes
//!    (`_bucket`, `_sum`, `_count`) resolve to their family name first.
//! 3. **Escaping** — label values contain only the escapes the format
//!    defines (`\\`, `\"`, `\n`); a raw `"` or a stray backslash is an
//!    error at parse time.
//! 4. **Histogram ladders** — per label set, `le` bounds strictly
//!    increase, cumulative counts never decrease, the ladder ends at
//!    `le="+Inf"`, and the `+Inf` count equals the family's `_count`.
//! 5. **Exemplars** — only on `_bucket` lines of histogram families, and
//!    `trace_id` values are exactly 16 lowercase hex digits (what
//!    `GET /trace/{id}` accepts).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    /// Labels in document order (duplicates are a parse error).
    labels: Vec<(String, String)>,
    value: f64,
    /// Exemplar labels + value, when the line carries one.
    exemplar: Option<(Vec<(String, String)>, f64)>,
    /// 1-based line number in the exposition.
    line: usize,
}

impl Sample {
    /// Whether every `(name, value)` pair of `want` is among the labels.
    fn has_labels(&self, want: &[(&str, &str)]) -> bool {
        want.iter()
            .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

/// A parsed exposition: its `# HELP`/`# TYPE` metadata and its samples in
/// document order.
#[derive(Debug, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
    helps: BTreeSet<String>,
    types: BTreeMap<String, String>,
}

impl Scrape {
    /// The value of the sample `name` whose label set is exactly `labels`
    /// (in any order); `None` when the exposition has no such series.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.len() == labels.len() && s.has_labels(labels))
            .map(|s| s.value)
    }

    /// The sum over every sample `name` whose labels include all of
    /// `labels` (e.g. one stage across every degree); 0 when there is none,
    /// as for a counter nobody touched.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.has_labels(labels))
            .map(|s| s.value)
            .sum()
    }
}

/// Parse a full exposition body. Fails on the first line that is not a
/// well-formed comment, metadata line or sample (see [`lint`] for the
/// checks beyond line shape).
pub fn parse(text: &str) -> Result<Scrape, String> {
    let (scrape, errors) = parse_lines(text);
    match errors.into_iter().next() {
        Some(e) => Err(e),
        None => Ok(scrape),
    }
}

/// Parse every line, collecting what fails to parse with its line number
/// instead of stopping at it.
fn parse_lines(text: &str) -> (Scrape, Vec<String>) {
    let mut scrape = Scrape::default();
    let mut errors = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(spec) = rest.strip_prefix("HELP ") {
                match spec.split_once(' ') {
                    Some((name, _)) if is_metric_name(name) => {
                        scrape.helps.insert(name.to_string());
                    }
                    _ => errors.push(format!("line {no}: malformed HELP line: {line}")),
                }
            } else if let Some(spec) = rest.strip_prefix("TYPE ") {
                match spec.split_once(' ') {
                    Some((name, kind)) if is_metric_name(name) => {
                        if !matches!(
                            kind,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        ) {
                            errors
                                .push(format!("line {no}: unknown TYPE kind `{kind}` for {name}"));
                        }
                        if scrape
                            .types
                            .insert(name.to_string(), kind.to_string())
                            .is_some()
                        {
                            errors.push(format!("line {no}: duplicate TYPE for {name}"));
                        }
                    }
                    _ => errors.push(format!("line {no}: malformed TYPE line: {line}")),
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        if line.starts_with('#') {
            errors.push(format!("line {no}: comment without `# ` prefix: {line}"));
            continue;
        }
        match parse_sample(line) {
            Ok(mut sample) => {
                sample.line = no;
                scrape.samples.push(sample);
            }
            Err(e) => errors.push(format!("line {no}: {e}")),
        }
    }
    (scrape, errors)
}

/// What a lint run found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Sample lines parsed.
    pub samples: usize,
    /// Distinct metric families seen (after suffix folding).
    pub families: usize,
    /// Exemplars seen on bucket lines.
    pub exemplars: usize,
    /// Everything wrong, with 1-based line numbers.
    pub errors: Vec<String>,
}

impl LintReport {
    /// Did the exposition pass?
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Lint a full exposition body.
pub fn lint(text: &str) -> LintReport {
    let (scrape, errors) = parse_lines(text);
    let mut report = LintReport {
        samples: scrape.samples.len(),
        errors,
        ..LintReport::default()
    };
    let Scrape {
        samples,
        helps,
        types,
    } = scrape;
    // (family, labels-without-le) → ladder of (le, cumulative, line_no).
    #[allow(clippy::type_complexity)]
    let mut ladders: BTreeMap<(String, String), Vec<(f64, f64, usize)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut families: BTreeSet<String> = BTreeSet::new();

    for sample in &samples {
        let no = sample.line;
        let family = family_of(&sample.name);
        families.insert(family.to_string());

        let is_bucket = sample.name.ends_with("_bucket");
        if is_bucket {
            let le = sample.labels.iter().find(|(k, _)| k == "le");
            match le {
                None => report
                    .errors
                    .push(format!("line {no}: _bucket sample without an le label")),
                Some((_, bound)) => {
                    let bound = if bound == "+Inf" {
                        f64::INFINITY
                    } else {
                        match bound.parse::<f64>() {
                            Ok(b) => b,
                            Err(_) => {
                                report
                                    .errors
                                    .push(format!("line {no}: unparseable le bound `{bound}`"));
                                continue;
                            }
                        }
                    };
                    let key = (family.to_string(), labels_key(&sample.labels, true));
                    ladders
                        .entry(key)
                        .or_default()
                        .push((bound, sample.value, no));
                }
            }
        } else if sample.name.ends_with("_count") {
            counts.insert(
                (family.to_string(), labels_key(&sample.labels, false)),
                sample.value,
            );
        }

        if let Some((ex_labels, _)) = &sample.exemplar {
            report.exemplars += 1;
            if !is_bucket {
                report.errors.push(format!(
                    "line {no}: exemplar on a non-bucket sample {}",
                    sample.name
                ));
            }
            for (k, v) in ex_labels {
                if k == "trace_id"
                    && !(v.len() == 16
                        && v.bytes()
                            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()))
                {
                    report.errors.push(format!(
                        "line {no}: exemplar trace_id `{v}` is not 16 lowercase hex digits"
                    ));
                }
            }
        }
    }

    // Metadata: every sampled family needs TYPE + HELP; suffixed samples
    // must belong to a histogram/summary family.
    for family in &families {
        if !types.contains_key(family) {
            report
                .errors
                .push(format!("family {family}: sampled without a # TYPE line"));
        }
        if !helps.contains(family) {
            report
                .errors
                .push(format!("family {family}: sampled without a # HELP line"));
        }
    }

    // Ladder checks per (family, label set).
    for ((family, labels), ladder) in &ladders {
        if types.get(family).map(String::as_str) != Some("histogram") {
            report.errors.push(format!(
                "family {family}: has _bucket samples but TYPE is not histogram"
            ));
        }
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = -1.0;
        for &(bound, cum, no) in ladder {
            if bound <= prev_bound {
                report.errors.push(format!(
                    "line {no}: le ladder of {family}{{{labels}}} not strictly increasing \
                     ({prev_bound} then {bound})"
                ));
            }
            if cum < prev_cum {
                report.errors.push(format!(
                    "line {no}: cumulative count of {family}{{{labels}}} decreases \
                     ({prev_cum} then {cum})"
                ));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        match ladder.last() {
            Some(&(bound, cum, _)) if bound.is_infinite() => {
                if let Some(&count) = counts.get(&(family.clone(), labels.clone())) {
                    if (cum - count).abs() > f64::EPSILON {
                        report.errors.push(format!(
                            "family {family}{{{labels}}}: +Inf bucket {cum} != _count {count}"
                        ));
                    }
                } else {
                    report.errors.push(format!(
                        "family {family}{{{labels}}}: histogram without a _count sample"
                    ));
                }
            }
            _ => report.errors.push(format!(
                "family {family}{{{labels}}}: le ladder does not end at +Inf"
            )),
        }
    }

    report.families = families.len();
    report
}

/// Fold histogram/summary suffixes back onto the family name `# TYPE`
/// announces.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if !base.is_empty() {
                return base;
            }
        }
    }
    name
}

/// Canonical key for a label set, optionally dropping `le` (so every rung
/// of one ladder groups together).
fn labels_key(labels: &[(String, String)], drop_le: bool) -> String {
    let mut sorted: Vec<&(String, String)> = labels
        .iter()
        .filter(|(k, _)| !(drop_le && k == "le"))
        .collect();
    sorted.sort();
    let mut out = String::new();
    for (k, v) in sorted {
        let _ = write!(out, "{k}={v:?},");
    }
    out
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse `name{labels} value [# {labels} value]`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name, rest) = split_metric_name(line)?;
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        parse_labels(body)?
    } else {
        (Vec::new(), rest)
    };
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("missing space before value in `{line}`"))?;
    // Value runs to the exemplar separator or end of line.
    let (value_text, exemplar_text) = match rest.split_once(" # ") {
        Some((v, e)) => (v, Some(e)),
        None => (rest, None),
    };
    let value = parse_value(value_text.trim_end())?;
    let exemplar = match exemplar_text {
        None => None,
        Some(e) => {
            let body = e
                .strip_prefix('{')
                .ok_or_else(|| format!("exemplar without label braces: `{e}`"))?;
            let (ex_labels, after) = parse_labels(body)?;
            let after = after
                .strip_prefix(' ')
                .ok_or_else(|| format!("exemplar without a value: `{e}`"))?;
            // OpenMetrics allows a trailing timestamp; we emit none, but
            // accept `value [timestamp]`.
            let mut parts = after.split(' ');
            let v = parse_value(parts.next().unwrap_or(""))?;
            if let Some(ts) = parts.next() {
                parse_value(ts).map_err(|_| format!("bad exemplar timestamp `{ts}`"))?;
            }
            if parts.next().is_some() {
                return Err(format!("trailing garbage after exemplar: `{e}`"));
            }
            Some((ex_labels, v))
        }
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
        exemplar,
        line: 0,
    })
}

fn split_metric_name(line: &str) -> Result<(&str, &str), String> {
    let end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(end);
    if !is_metric_name(name) {
        return Err(format!("invalid metric name at `{line}`"));
    }
    Ok((name, rest))
}

/// Parsed `name="value"` pairs, in exposition order.
type Labels = Vec<(String, String)>;

/// Parse a `name="value",...}` body (after the opening `{`), validating
/// escapes; returns the labels and the remainder after the closing brace.
fn parse_labels(mut body: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    loop {
        if let Some(rest) = body.strip_prefix('}') {
            break Ok((labels, rest));
        }
        let eq = body
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{body}`"))?;
        let name = &body[..eq];
        if !is_label_name(name) {
            return Err(format!("invalid label name `{name}`"));
        }
        if labels.iter().any(|(k, _)| k == name) {
            return Err(format!("duplicate label `{name}`"));
        }
        body = body[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted value for label `{name}`"))?;
        let mut value = String::new();
        let mut chars = body.char_indices();
        let after_quote = loop {
            match chars.next() {
                None => return Err(format!("unterminated value for label `{name}`")),
                Some((i, '"')) => break i + 1,
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "invalid escape `\\{}` in label `{name}`",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ))
                    }
                },
                Some((_, c)) => value.push(c),
            }
        };
        labels.push((name.to_string(), value));
        body = &body[after_quote..];
        if let Some(rest) = body.strip_prefix(',') {
            body = rest;
        } else if !body.starts_with('}') {
            return Err(format!("expected `,` or `}}` after label `{name}`"));
        }
    }
}

fn parse_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        t => t
            .parse::<f64>()
            .map_err(|_| format!("unparseable value `{t}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_servers_own_exposition() {
        use crate::metrics::metrics_to_prometheus;
        use crate::server::{HummerServer, ServerConfig};
        // A real service with traffic recorded: the linter must pass what
        // `GET /metrics` actually serves.
        let config = ServerConfig::default();
        let server = HummerServer::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        })
        .expect("bind");
        let service = server.service();
        service.metrics().record_request(
            "POST /query",
            std::time::Duration::from_millis(3),
            false,
            Some(0xa1),
        );
        service.metrics().record_request(
            "rejected",
            std::time::Duration::from_micros(40),
            true,
            Some(0xa2),
        );
        let text = metrics_to_prometheus(service);
        let report = lint(&text);
        assert!(report.ok(), "lint errors: {:#?}", report.errors);
        assert!(report.samples > 20, "{}", report.samples);
        assert!(report.exemplars >= 1, "exemplar missing from exposition");
        server.shutdown_handle().shutdown();
    }

    #[test]
    fn flags_missing_metadata_and_bad_ladders() {
        // No HELP/TYPE at all.
        let r = lint("orphan_total 1\n");
        assert!(
            r.errors.iter().any(|e| e.contains("# TYPE")),
            "{:?}",
            r.errors
        );
        assert!(
            r.errors.iter().any(|e| e.contains("# HELP")),
            "{:?}",
            r.errors
        );

        // Non-monotone cumulative counts and a ladder missing +Inf.
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"0.2\"} 3
h_sum 1
h_count 5
";
        let r = lint(text);
        assert!(
            r.errors.iter().any(|e| e.contains("decreases")),
            "{:?}",
            r.errors
        );
        assert!(
            r.errors.iter().any(|e| e.contains("does not end at +Inf")),
            "{:?}",
            r.errors
        );

        // +Inf disagreeing with _count.
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{le=\"0.1\"} 2
h_bucket{le=\"+Inf\"} 4
h_sum 1
h_count 5
";
        let r = lint(text);
        assert!(
            r.errors.iter().any(|e| e.contains("!= _count")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn flags_broken_escaping_and_exemplars() {
        let r = lint("# HELP m x.\n# TYPE m counter\nm{ep=\"a\\qb\"} 1\n");
        assert!(
            r.errors.iter().any(|e| e.contains("invalid escape")),
            "{:?}",
            r.errors
        );

        // Exemplar on a counter line.
        let r = lint("# HELP m x.\n# TYPE m counter\nm 1 # {trace_id=\"00000000000000a1\"} 0.5\n");
        assert!(
            r.errors.iter().any(|e| e.contains("non-bucket")),
            "{:?}",
            r.errors
        );

        // Bad trace id width.
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{le=\"0.1\"} 1 # {trace_id=\"a1\"} 0.05
h_bucket{le=\"+Inf\"} 1
h_sum 0.05
h_count 1
";
        let r = lint(text);
        assert!(
            r.errors.iter().any(|e| e.contains("16 lowercase hex")),
            "{:?}",
            r.errors
        );

        // A correct exemplar passes.
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{le=\"0.1\"} 1 # {trace_id=\"00000000000000a1\"} 0.05
h_bucket{le=\"+Inf\"} 1
h_sum 0.05
h_count 1
";
        let r = lint(text);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.exemplars, 1);
    }

    #[test]
    fn escaped_label_values_roundtrip() {
        let text = "# HELP m x.\n# TYPE m counter\nm{ep=\"a\\\"b\\\\c\\nd\"} 7\n";
        let r = lint(text);
        assert!(r.ok(), "{:?}", r.errors);
        let s = parse_sample("m{ep=\"a\\\"b\\\\c\\nd\"} 7").unwrap();
        assert_eq!(s.labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn parse_reads_series_by_name_and_labels() {
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{endpoint=\"a\",le=\"+Inf\"} 9 # {trace_id=\"00000000000000a1\"} 0.5
h_sum{endpoint=\"a\"} 1.5
h_count{endpoint=\"a\"} 9
h_sum{endpoint=\"b\"} 2
h_count{endpoint=\"b\"} 2
# HELP up x.
# TYPE up gauge
up 1
";
        let scrape = parse(text).unwrap();
        assert_eq!(scrape.value("up", &[]), Some(1.0));
        assert_eq!(scrape.value("h_count", &[("endpoint", "a")]), Some(9.0));
        // `value` wants the exact label set; `sum` any superset.
        assert_eq!(scrape.value("h_bucket", &[("endpoint", "a")]), None);
        assert_eq!(scrape.sum("h_count", &[]), 11.0);
        assert_eq!(scrape.sum("h_sum", &[("endpoint", "b")]), 2.0);
        assert_eq!(scrape.sum("absent_total", &[]), 0.0);
        let e = parse("up 1\nup{x=\"1} 2\n").unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
    }

    #[test]
    fn histogram_ladders_group_by_label_set() {
        // Two endpoints interleaved: each ladder is checked separately, so
        // the "drop" from endpoint a's +Inf to endpoint b's first rung is
        // not a monotonicity error.
        let text = "\
# HELP h x.
# TYPE h histogram
h_bucket{endpoint=\"a\",le=\"0.1\"} 5
h_bucket{endpoint=\"a\",le=\"+Inf\"} 9
h_sum{endpoint=\"a\"} 1
h_count{endpoint=\"a\"} 9
h_bucket{endpoint=\"b\",le=\"0.1\"} 1
h_bucket{endpoint=\"b\",le=\"+Inf\"} 2
h_sum{endpoint=\"b\"} 1
h_count{endpoint=\"b\"} 2
";
        let r = lint(text);
        assert!(r.ok(), "{:?}", r.errors);
    }
}
