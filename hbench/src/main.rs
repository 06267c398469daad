//! hbench: one benchmark for HumMer. See README.md beside this package.
//!
//! ```text
//! hbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, result line last
//! hbench [--seed N] [--quick] [--aa]                              the whole suite, for people
//! ```

mod alloc;
mod cputime;
mod layers;
mod library;
mod probe;
mod report;
mod server;
mod serving;
mod spans;
mod statements;
mod stats;

use library::LibSpec;
use report::{Outcome, END_TO_END, PER_LAYER};
use serving::Mode;
use spans::Recorder;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub enum Kind {
    Library(LibSpec),
    Serving(Mode),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The workloads, in `BENCHMARK.json` order (where each one's reason is).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fuse_cold_10k",
        kind: Kind::Library(LibSpec {
            rows_per_source: 5000,
            blocking: true,
            worlds: 1,
        }),
    },
    Workload {
        name: "detect_allpairs_1k",
        kind: Kind::Library(LibSpec {
            rows_per_source: 700,
            blocking: false,
            worlds: 3,
        }),
    },
    Workload {
        name: "serve_query_warm",
        kind: Kind::Serving(Mode::QueryWarm),
    },
    Workload {
        name: "serve_mixed_durable",
        kind: Kind::Serving(Mode::MixedDurable),
    },
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
         hbench [--seed N] [--quick] [--aa]\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 2005,
        seconds: report::default_run_seconds(),
        trace: false,
        aa: false,
    };
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut it)),
            "--seed" => args.seed = value(&mut it),
            "--seconds" => args.seconds = value(&mut it),
            "--trace" => args.trace = value::<u8>(&mut it) != 0,
            "--aa" => args.aa = true,
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        usage();
    }
    if quick {
        args.seconds /= 10.0;
    }
    args
}

fn run(workload: &Workload, args: &Args, trace: bool, recorders: &mut Vec<Recorder>) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.seed);
    let result = match (&workload.kind, trace) {
        (Kind::Library(spec), false) => {
            library::run_e2e(spec, args.seed, args.seconds, &mut out);
            Ok(())
        }
        (Kind::Library(spec), true) => {
            library::run_traced(spec, args.seed, &mut rec, &mut out);
            Ok(())
        }
        (Kind::Serving(mode), false) => serving::run_e2e(*mode, args.seed, args.seconds, &mut out),
        (Kind::Serving(mode), true) => {
            serving::run_traced(*mode, args.seed, args.seconds, &mut rec, &mut out)
        }
    };
    if let Err(e) = result {
        out.check(false, || e);
    }
    recorders.push(rec);
    out
}

fn print_outcome(workload: &Workload, trace: bool, out: &Outcome) {
    let (title, table) = if trace {
        ("per-layer metrics (traced run)", PER_LAYER)
    } else {
        ("end-to-end metrics (tracing off)", END_TO_END)
    };
    println!("== {} — {title}", workload.name);
    for note in &out.notes {
        println!("  note: {note}");
    }
    print!("{}", out.table(table));
    println!(
        "  attempted {}  failed {}  failed_share {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
}

fn write_trace(recorders: &[Recorder]) {
    if recorders.iter().all(|r| r.spans.is_empty()) {
        return;
    }
    let path = Path::new(server::OUT_DIR).join("hbench-trace.json");
    let written = std::fs::create_dir_all(server::OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans::to_json(recorders)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("hbench: cannot write {}: {e}", path.display()),
    }
}

/// `--aa`: every workload twice on the same code, order alternating per
/// workload (A1 B1, B2 A2, ...), each end-to-end metric's relative
/// difference printed next to its bound.
fn run_aa(args: &Args) -> bool {
    let bounds = report::bounds();
    let mut ok = true;
    let mut recorders = Vec::new();
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let first = run(workload, args, false, &mut recorders);
        let second = run(workload, args, false, &mut recorders);
        let (a, b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        println!("== {} — A/A", workload.name);
        ok &= a.correct() && b.correct();
        for (name, unit) in END_TO_END {
            let (va, vb) = (a.values.get(name), b.values.get(name));
            let (Some(&va), Some(&vb)) = (va, vb) else {
                println!("  {name:<24} missing");
                ok = false;
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, b)| *b);
            let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "within" } else { "EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "  {name:<24} A {va:>14.4}  B {vb:>14.4} {unit:<6} diff {:>7.3} %  bound {:>5.1} %  {verdict}",
                100.0 * diff,
                100.0 * bound
            );
        }
        for failure in a.failures.iter().chain(&b.failures) {
            println!("  FAILED: {failure}");
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    println!("{}", report::host_fingerprint(args.seed));
    let mut recorders = Vec::new();

    if let Some(name) = &args.workload {
        let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
            usage();
        };
        let mut out = run(workload, &args, args.trace, &mut recorders);
        print_outcome(workload, args.trace, &out);
        write_trace(&recorders);
        // The driver reads the last line of standard output.
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        println!("{}", out.result_line(table));
        return if out.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.aa {
        return if run_aa(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, &args, trace, &mut recorders);
            print_outcome(workload, trace, &out);
            ok &= out.correct();
        }
    }
    write_trace(&recorders);
    println!("claim: null (this benchmark defines the measurement; it claims no gain)");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
