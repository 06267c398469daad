//! The library workloads: the paper's ad-hoc pipeline, cold, through the
//! most stable library surface (`Hummer::fuse_sources`), on one thread.

use crate::cputime::process_cpu_time;
use crate::layers::{self, PipelineConfig, World};
use crate::probe::{self, reference_of, Target};
use crate::report::{is_served_layer, Outcome, PER_LAYER};
use crate::server::peak_rss_mb;
use crate::spans::Recorder;
use crate::stats::{lowest, median, median_over_classes, percentile, sorted, support, windows};
use std::time::{Duration, Instant};

pub struct LibSpec {
    /// Rows of each of the two `person_scale` sources.
    pub rows_per_source: usize,
    /// Sorted-neighbourhood blocking (exp7's) or all pairs.
    pub blocking: bool,
    /// Worlds drawn from the seed; ops go round them and every number is the
    /// median over the worlds. In one small world in twelve the matcher
    /// aligns the columns differently, the detector's filter then passes
    /// 2.5 times the pairs, and the op takes twice as long with a duplicate
    /// F1 of 0.73 instead of 0.87: with one world per seed, two such seeds
    /// among ten would own the spread. At 10k rows no seed did that.
    pub worlds: usize,
}

/// A timed run never reports fewer cold fuses than this, however short.
const MIN_ITERATIONS: usize = 5;
/// Set-up is repeated and the quickest one reported: like every timing here,
/// it can only be lengthened by the host's other tenants.
const SETUPS: usize = 5;
/// A run's ops are cut into half-overlapping windows of a sixth of the run
/// (about 4 s: seven 10k fuses, or seven all-pairs fuses of each world).
const WINDOW_PARTS: usize = 6;
/// Traced passes over the pipeline (exact counts must agree across them).
const TRACED_ITERATIONS: usize = 5;

/// The worlds, the configuration, and each world's reference fingerprint.
struct Ready {
    worlds: Vec<World>,
    config: PipelineConfig,
    references: Vec<u64>,
}

fn setup(spec: &LibSpec, seed: u64) -> Ready {
    let worlds: Vec<World> = (0..spec.worlds as u64)
        .map(|k| layers::person_world(spec.rows_per_source, seed * spec.worlds as u64 + k))
        .collect();
    let config = layers::library_config(spec.blocking);
    // One untimed cold fuse each: page in the code, size the allocator's arenas.
    let references = worlds
        .iter()
        .map(|w| reference_of(&layers::cold_fuse(w, &config)))
        .collect();
    Ready {
        worlds,
        config,
        references,
    }
}

pub fn run_e2e(spec: &LibSpec, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut last: Option<Ready> = None;
    for _ in 0..SETUPS {
        let started = process_cpu_time();
        let ready = setup(spec, seed);
        setups.push((process_cpu_time() - started).as_secs_f64());
        if let Some(before) = &last {
            out.check(before.references == ready.references, || {
                "the same seed produced a different fused table".to_string()
            });
        }
        last = Some(ready);
    }
    let Ready {
        worlds,
        config,
        references,
    } = last.expect("SETUPS > 0");
    let union_rows = layers::union_rows(&worlds[0]);

    // Each op on two clocks: the processor time it consumed (reported) and
    // the wall time it took (printed beside it; see `cputime`). Op `i` fuses
    // world `i % worlds`.
    let mut op_ms: Vec<(usize, f64)> = Vec::new();
    let mut wall_ms = Vec::new();
    let mut quality = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while started.elapsed() < budget || op_ms.len() < MIN_ITERATIONS.max(worlds.len()) {
        let k = op_ms.len() % worlds.len();
        let (c0, t0) = (process_cpu_time(), Instant::now());
        let fused = layers::cold_fuse(&worlds[k], &config);
        op_ms.push((k, (process_cpu_time() - c0).as_secs_f64() * 1e3));
        wall_ms.push((k, t0.elapsed().as_secs_f64() * 1e3));
        out.check(reference_of(&fused) == references[k], || {
            format!("iteration {} fused a different table", op_ms.len())
        });
        if quality.len() == k {
            let cluster_ids = &fused.detection.cluster_ids;
            quality.push(layers::quality(&worlds[k], cluster_ids, &fused.result));
        }
    }
    let windows = windows(
        op_ms.len(),
        (op_ms.len() / WINDOW_PARTS).max(MIN_ITERATIONS * worlds.len()),
    );
    let quietest = |f: &dyn Fn(&[f64]) -> f64| {
        lowest(&windows, |w| Some(median_over_classes(&op_ms[w], f))).expect("ops ran")
    };
    let over_worlds =
        |f: &dyn Fn(&layers::Quality) -> f64| median(&quality.iter().map(f).collect::<Vec<f64>>());
    out.set("setup_s", sorted(setups)[0]);
    out.set("op_p50_ms", quietest(&median));
    out.set(
        "op_tail_ms",
        quietest(&|v| percentile(&sorted(v.to_vec()), 75.0)),
    );
    out.set(
        "ops_per_s",
        1e3 / quietest(&|v| v.iter().sum::<f64>() / v.len() as f64),
    );
    out.set("dup_f1", over_worlds(&|q| q.dup_f1));
    out.set("fused_cell_accuracy", over_worlds(&|q| q.cell_accuracy));
    out.notes.push(format!(
        "op = one cold fuse_sources over {union_rows} union rows, timed in processor time, \
         going round {} world(s), every number the median over the worlds; {} ops in {} \
         half-overlapping windows (per world: {}), each metric from its quietest window (p50, \
         tail = p75, ops_per_s = 1 / mean); over the whole run: processor-time median {:.1} \
         ms, wall median {:.1} ms; setup_s = quickest of {SETUPS}; {} fused cells compared; \
         peak RSS {:.1} MiB",
        worlds.len(),
        op_ms.len(),
        windows.len(),
        support(windows[0].len() / worlds.len()),
        median_over_classes(&op_ms, &median),
        median_over_classes(&wall_ms, &median),
        quality.iter().map(|q| q.cells_compared).sum::<usize>(),
        peak_rss_mb("/proc/self/status"),
    ));
}

/// The traced run: the same worlds, stepped through layer by layer (times
/// and counts add up over the worlds). Layers only a server has report 0.
pub fn run_traced(spec: &LibSpec, seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    let ready = setup(spec, seed);
    let targets: Vec<Target<'_>> = ready
        .worlds
        .iter()
        .zip(&ready.references)
        .map(|(world, &reference)| Target {
            world,
            config: &ready.config,
            reference,
        })
        .collect();
    probe::run(&targets, TRACED_ITERATIONS, rec, out);
    for (name, _) in PER_LAYER {
        if is_served_layer(name) {
            out.set(name, 0.0);
        }
    }
    out.set("process.peak_rss_mb", peak_rss_mb("/proc/self/status"));
    let total = out.values["pipeline.step_total_ms"];
    out.notes.push(format!(
        "shares of the step-by-step total ({total:.1} ms): match {:.1} %, score {:.1} %, fuse {:.1} %",
        100.0 * out.values["matching.match_ms"] / total,
        100.0 * out.values["dupdetect.score_ms"] / total,
        100.0 * out.values["fusion.fuse_ms"] / total,
    ));
}
