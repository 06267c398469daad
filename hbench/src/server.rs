//! The serving workloads' program under test: a child `hummer-serve`
//! process, built from the checkout, reached only over HTTP.

use crate::layers::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `hummer-serve` next to this executable (both are built into one target
/// directory by `run.sh`).
pub fn serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("own path is readable");
    exe.with_file_name("hummer-serve")
}

pub struct Served {
    child: Child,
    /// Drains the child's stderr so it never blocks on a full pipe.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    /// Milliseconds from spawn to the first `200` on `/healthz`.
    pub ready_ms: f64,
}

impl Served {
    /// Spawn on an ephemeral port with two workers (the host has two cores);
    /// `data_dir` makes the catalog durable with fsync on.
    pub fn spawn(traced: bool, data_dir: Option<&Path>) -> Result<Served, String> {
        let mut cmd = Command::new(serve_binary());
        cmd.args(["--addr", "127.0.0.1:0", "--threads", "2"]);
        if !traced {
            cmd.arg("--no-trace");
        }
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve_binary().display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading hummer-serve stderr: {e}"))?;
            if let Some(rest) = line.strip_prefix("hummer-serve: listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("hummer-serve exited before listening".into());
        };
        let drain = std::thread::spawn(move || for _ in lines {});
        let mut served = Served {
            child,
            drain: Some(drain),
            addr,
            ready_ms: 0.0,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&served.addr) {
                if matches!(
                    c.request("GET", "/healthz", "text/plain", b""),
                    Ok((200, _))
                ) {
                    break;
                }
            }
            if Instant::now() > deadline {
                served.kill();
                return Err("hummer-serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        served.ready_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(served)
    }

    /// `kill -9` and reap: a process crash, not a power loss (the page
    /// cache survives, so unflushed writes are not discarded).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join(); // ends with the child's stderr
        }
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        match c.request("GET", path, "text/plain", b"") {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("GET {path}: {status} {body}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// Processor time the child has consumed so far, all its threads, in
    /// seconds (`/proc/<pid>/task/*/schedstat`, nanoseconds on the CPU; exact
    /// while the threads sleep, which they do whenever the generator asks).
    pub fn cpu_s(&self) -> f64 {
        let tasks = format!("/proc/{}/task", self.child.id());
        let on_cpu_ns = |task: std::fs::DirEntry| -> Option<f64> {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse().ok()
        };
        std::fs::read_dir(tasks)
            .map(|dir| dir.flatten().filter_map(on_cpu_ns).sum::<f64>())
            .unwrap_or(0.0)
            / 1e9
    }

    /// Peak resident set of the child, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file in MiB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the benchmark writes goes here, relative to the checkout root
/// it is run from: the durable server's data and the span file.
pub const OUT_DIR: &str = ".hbench_out";

/// A scratch directory under [`OUT_DIR`], removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ------------------------------------------------------------ /metrics

/// One sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed `/metrics` scrape. (`hummer_server::promlint` has a parser, but
/// keeps it private; this one reads only what the benchmark needs: no
/// escapes inside label values beyond `\"`, exemplars dropped.)
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub Vec<Sample>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        Scrape(text.lines().filter_map(parse_sample).collect())
    }

    /// Sum of the samples with this name whose labels include all of `want`
    /// (e.g. all layouts and degrees of one stage); 0 when absent: a counter
    /// nobody touched.
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name && has_labels(s, want))
            .map(|s| s.value)
            .sum()
    }
}

fn has_labels(sample: &Sample, want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| sample.labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

/// Mean of what a histogram family recorded between two scrapes of it, in
/// its own unit. (The exposition's 1-2.5-5 bucket ladder is too coarse for
/// quantiles, so the benchmark compares means.)
pub fn mean_between(before: &Scrape, after: &Scrape, family: &str, want: &[(&str, &str)]) -> f64 {
    let grown = |suffix: &str| {
        let name = format!("{family}_{suffix}");
        after.sum(&name, want) - before.sum(&name, want)
    };
    let count = grown("count");
    if count <= 0.0 {
        0.0
    } else {
        grown("sum") / count
    }
}

fn parse_sample(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let name_end = line.find(['{', ' '])?;
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(mut body) = rest.strip_prefix('{') {
        loop {
            body = body.trim_start_matches(',');
            if let Some(after) = body.strip_prefix('}') {
                rest = after;
                break;
            }
            let eq = body.find('=')?;
            let mut value = String::new();
            let mut chars = body[eq + 1..].strip_prefix('"')?.char_indices();
            let close = loop {
                match chars.next()? {
                    (i, '"') => break i,
                    (_, '\\') => value.push(match chars.next()?.1 {
                        'n' => '\n',
                        other => other,
                    }),
                    (_, c) => value.push(c),
                }
            };
            labels.push((body[..eq].to_string(), value));
            body = &body[eq + 2 + close + 1..];
        }
    }
    // An exemplar (`# {...} v`) may follow the value.
    let value = rest.split_whitespace().next()?.parse().ok()?;
    Some(Sample {
        name: line[..name_end].to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP hummer_request_seconds End-to-end request latency, by endpoint.
# TYPE hummer_request_seconds histogram
hummer_request_seconds_bucket{endpoint=\"POST /query\",le=\"0.001\"} 10
hummer_request_seconds_bucket{endpoint=\"POST /query\",le=\"0.002\"} 90 # {trace_id=\"00000000000000aa\"} 0.0015
hummer_request_seconds_bucket{endpoint=\"POST /query\",le=\"0.004\"} 100
hummer_request_seconds_bucket{endpoint=\"POST /query\",le=\"+Inf\"} 100
hummer_request_seconds_sum{endpoint=\"POST /query\"} 0.15
hummer_request_seconds_count{endpoint=\"POST /query\"} 100
hummer_request_seconds_sum{endpoint=\"POST /tables/{name}/delta\"} 0.5
hummer_request_seconds_count{endpoint=\"POST /tables/{name}/delta\"} 10
hummer_stage_seconds_sum{stage=\"fuse\",layout=\"columnar\",degree=\"1\"} 0.2
hummer_stage_seconds_count{stage=\"fuse\",layout=\"columnar\",degree=\"1\"} 50
hummer_prepared_cache_hits_total 76
";

    #[test]
    fn scrape_extracts_counters_and_means() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.sum("hummer_prepared_cache_hits_total", &[]), 76.0);
        assert_eq!(s.sum("hummer_absent_total", &[]), 0.0);
        let q = [("endpoint", "POST /query")];
        assert_eq!(s.sum("hummer_request_seconds_bucket", &q), 300.0);
        // Between an empty scrape and this one, the mean is this one's; between
        // two identical scrapes nothing was recorded.
        let empty = Scrape::default();
        let mean = |family: &str, want: &[(&str, &str)]| mean_between(&empty, &s, family, want);
        assert!((mean("hummer_request_seconds", &q) - 0.0015).abs() < 1e-12);
        let d = [("endpoint", "POST /tables/{name}/delta")];
        assert!((mean("hummer_request_seconds", &d) - 0.05).abs() < 1e-12);
        assert!((mean("hummer_stage_seconds", &[("stage", "fuse")]) - 0.004).abs() < 1e-12);
        assert_eq!(mean_between(&s, &s, "hummer_request_seconds", &q), 0.0);
    }

    #[test]
    fn vmhwm_is_read_in_mib() {
        assert!(peak_rss_mb("/proc/self/status") > 0.0);
        assert_eq!(peak_rss_mb("/proc/self/no-such-file"), 0.0);
    }
}
