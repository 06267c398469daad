//! Prometheus text exposition format (version 0.0.4) writer.

use crate::hist::HistogramSnapshot;

/// Default `le` bucket ladder for latency histograms, in seconds.
pub const DEFAULT_LATENCY_BOUNDS_S: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Incremental writer for the Prometheus text format.
///
/// ```
/// use hummer_obs::{Histogram, PromText};
///
/// let mut out = PromText::new();
/// out.header("hummer_requests_total", "Requests served.", "counter");
/// out.sample("hummer_requests_total", &[("endpoint", "POST /query")], 42.0);
///
/// let hist = Histogram::new();
/// hist.record(1500); // microseconds
/// out.header("hummer_request_seconds", "Request latency.", "histogram");
/// out.histogram_us("hummer_request_seconds", &[], &hist.snapshot());
/// let text = out.finish();
/// assert!(text.contains("hummer_requests_total{endpoint=\"POST /query\"} 42"));
/// assert!(text.contains("hummer_request_seconds_count 1"));
/// ```
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty exposition document.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Emit `# HELP` and `# TYPE` lines for a metric family. `kind` is one
    /// of `counter`, `gauge`, or `histogram`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        for ch in help.chars() {
            match ch {
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('\n');
        self.buf.push_str("# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    /// Emit one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.buf.push_str(name);
        self.write_labels(labels, None);
        self.buf.push(' ');
        self.write_value(value);
        self.buf.push('\n');
    }

    /// Emit a full histogram family (`_bucket` ladder, `_sum`, `_count`)
    /// from a snapshot of microsecond samples, converting to seconds, on
    /// the `le` ladder `DEFAULT_LATENCY_BOUNDS_S` (100 µs – 10 s).
    /// Buckets whose range holds an exemplar trace id (recorded via
    /// `Histogram::record_with_trace`) get OpenMetrics exemplar syntax
    /// appended: `... # {trace_id="<16-hex>"} <seconds>`.
    pub fn histogram_us(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let exemplars = snap.has_exemplars();
        let bucket = format!("{name}_bucket");
        let mut prev_us = 0u64;
        for &bound in DEFAULT_LATENCY_BOUNDS_S {
            let bound_us = (bound * 1e6).round() as u64;
            let c = snap.cumulative_le(bound_us);
            self.buf.push_str(&bucket);
            self.write_labels(labels, Some(bound));
            self.buf.push(' ');
            self.write_value(c as f64);
            if exemplars {
                self.write_exemplar(snap.exemplar_between(prev_us, bound_us));
            }
            self.buf.push('\n');
            prev_us = bound_us;
        }
        self.buf.push_str(&bucket);
        self.write_labels_inf(labels);
        self.buf.push(' ');
        self.write_value(snap.count() as f64);
        if exemplars {
            self.write_exemplar(snap.exemplar_between(prev_us, u64::MAX));
        }
        self.buf.push('\n');

        self.buf.push_str(name);
        self.buf.push_str("_sum");
        self.write_labels(labels, None);
        self.buf.push(' ');
        self.write_value(snap.sum() as f64 * 1e-6);
        self.buf.push('\n');

        self.buf.push_str(name);
        self.buf.push_str("_count");
        self.write_labels(labels, None);
        self.buf.push(' ');
        self.write_value(snap.count() as f64);
        self.buf.push('\n');
    }

    /// Emit a full histogram family from a snapshot of *raw-unit* samples
    /// (record counts, bytes — no microsecond→second scaling): `_bucket`
    /// ladder over powers of two from 1 to 4096, unscaled `_sum`, `_count`.
    pub fn histogram_raw(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let bucket = format!("{name}_bucket");
        for exp in 0..13u32 {
            let bound = 2f64.powi(exp as i32);
            let c = snap.cumulative_le(bound as u64);
            self.buf.push_str(&bucket);
            self.write_labels(labels, Some(bound));
            self.buf.push(' ');
            self.write_value(c as f64);
            self.buf.push('\n');
        }
        self.buf.push_str(&bucket);
        self.write_labels_inf(labels);
        self.buf.push(' ');
        self.write_value(snap.count() as f64);
        self.buf.push('\n');

        self.buf.push_str(name);
        self.buf.push_str("_sum");
        self.write_labels(labels, None);
        self.buf.push(' ');
        self.write_value(snap.sum() as f64);
        self.buf.push('\n');

        self.buf.push_str(name);
        self.buf.push_str("_count");
        self.write_labels(labels, None);
        self.buf.push(' ');
        self.write_value(snap.count() as f64);
        self.buf.push('\n');
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.buf
    }

    fn write_labels(&mut self, labels: &[(&str, &str)], le: Option<f64>) {
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.buf.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                self.buf.push(',');
            }
            first = false;
            self.buf.push_str(k);
            self.buf.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => self.buf.push_str("\\\\"),
                    '"' => self.buf.push_str("\\\""),
                    '\n' => self.buf.push_str("\\n"),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
        }
        if let Some(bound) = le {
            if !first {
                self.buf.push(',');
            }
            self.buf.push_str("le=\"");
            self.write_value(bound);
            self.buf.push('"');
        }
        self.buf.push('}');
    }

    fn write_labels_inf(&mut self, labels: &[(&str, &str)]) {
        self.buf.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                self.buf.push(',');
            }
            first = false;
            self.buf.push_str(k);
            self.buf.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => self.buf.push_str("\\\\"),
                    '"' => self.buf.push_str("\\\""),
                    '\n' => self.buf.push_str("\\n"),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
        }
        if !first {
            self.buf.push(',');
        }
        self.buf.push_str("le=\"+Inf\"}");
    }

    /// Append exemplar syntax to the current bucket line:
    /// ` # {trace_id="<16-hex>"} <value_seconds>`. Nothing when the
    /// bucket's range holds no exemplar.
    fn write_exemplar(&mut self, exemplar: Option<(u64, u64)>) {
        if let Some((trace, value_us)) = exemplar {
            let _ = std::fmt::Write::write_fmt(
                &mut self.buf,
                format_args!(" # {{trace_id=\"{trace:016x}\"}} "),
            );
            self.write_value(value_us as f64 * 1e-6);
        }
    }

    fn write_value(&mut self, value: f64) {
        // Prometheus floats: plain decimal; integers render without a
        // fractional part, which `{}` on f64 already does.
        if value == value.trunc() && value.abs() < 1e15 {
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("{}", value as i64));
        } else {
            let _ = std::fmt::Write::write_fmt(&mut self.buf, format_args!("{value}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn renders_counter_with_escaped_labels() {
        let mut out = PromText::new();
        out.header("x_total", "Help with \\ and\nnewline.", "counter");
        out.sample("x_total", &[("ep", "a\"b\\c\nd")], 7.0);
        let text = out.finish();
        assert!(text.contains("# HELP x_total Help with \\\\ and\\nnewline.\n"));
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{ep=\"a\\\"b\\\\c\\nd\"} 7\n"));
    }

    #[test]
    fn histogram_ladder_is_cumulative_and_ends_at_count() {
        let h = Histogram::new();
        for us in [50u64, 600, 600, 30_000, 2_000_000] {
            h.record(us);
        }
        let mut out = PromText::new();
        out.histogram_us("lat_seconds", &[("stage", "detect")], &h.snapshot());
        let text = out.finish();
        assert!(text.contains("lat_seconds_bucket{stage=\"detect\",le=\"0.0001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{stage=\"detect\",le=\"+Inf\"} 5\n"));
        assert!(text.contains("lat_seconds_count{stage=\"detect\"} 5\n"));
        // Monotone ladder.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v as u64 >= prev, "non-monotone: {line}");
            prev = v as u64;
        }
    }

    #[test]
    fn exemplars_render_on_bucket_lines_only_when_present() {
        let h = Histogram::new();
        h.record(500); // no trace
        let mut out = PromText::new();
        out.histogram_us("lat_seconds", &[], &h.snapshot());
        assert!(!out.finish().contains(" # {"), "no exemplars expected");

        h.record_with_trace(200_000, Some(0x00ab_cdef_0123_4567));
        let mut out = PromText::new();
        out.histogram_us("lat_seconds", &[], &h.snapshot());
        let text = out.finish();
        // 200ms lands in the (0.1, 0.25] bucket of the default ladder.
        let line = text
            .lines()
            .find(|l| l.contains("le=\"0.25\""))
            .expect("0.25 bucket line");
        assert!(
            line.contains("# {trace_id=\"00abcdef01234567\"}"),
            "exemplar missing: {line}"
        );
        // The exemplar value is the bucket edge in seconds (~0.2).
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((0.19..=0.25).contains(&value), "exemplar value {value}");
        // Untouched ranges stay exemplar-free.
        let early = text.lines().find(|l| l.contains("le=\"0.0001\"")).unwrap();
        assert!(!early.contains(" # {"), "{early}");
    }

    #[test]
    fn bare_sample_has_no_braces() {
        let mut out = PromText::new();
        out.sample("up", &[], 1.0);
        assert_eq!(out.finish(), "up 1\n");
    }
}
