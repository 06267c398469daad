//! # hummer-bench — experiment harness
//!
//! One binary per experiment of the paper's reproduction, `exp1_syntax` …
//! `exp8_outerunion`, plus Criterion micro-benchmarks in `benches/`. Each
//! binary regenerates one table/figure: run
//! `cargo run -p hummer_bench --release --bin exp3_dumas` etc. Timing and
//! the serving path are measured by hbench (`hbench/README.md`); the
//! identity contracts live in the workspace's tier-1 tests (`tests/`).

#![forbid(unsafe_code)]

/// Render a row-major table with a header as aligned plain text.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!("{c:<w$}  "));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a duration in milliseconds with 2 decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render_table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("a  bb"));
        assert!(t.contains("1  2"));
    }
}
