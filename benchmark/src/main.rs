//! The SPEAR simulator's benchmark: four workloads, host-time end-to-end
//! metrics, and a traced per-layer split. See `README.md` beside this
//! package for what each workload and metric is for.
//!
//! ```text
//! spear-benchmark --workload NAME --seed S --seconds T --trace 0|1
//! spear-benchmark --self-test
//! spear-benchmark --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints every metric with its unit, appends a results document
//! to `.bench_out/results.jsonl`, and ends its standard output with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans go to `.bench_out/trace-*.json`.

mod campaign;
mod compare;
mod core_full;
mod harness;
mod layers;
mod rusage;
mod serve;
mod spans;
mod stats;

use harness::{Bench, Ctx};
use serde::Value;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["fig6-simpoint", "core-full", "replay-sampled", "serve-jobs"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Layers whose share of the traced replica's time is reported.
const LAYERS: [&str; 8] = [
    "workloads",
    "compiler",
    "exec",
    "simpoint",
    "campaign",
    "cpu",
    "trace",
    "serve",
];

/// Where runs write results, traces and scratch data.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: spear-benchmark --workload NAME --seed S --seconds T --trace 0|1\n\
                     \x20      spear-benchmark --self-test\n\
                     \x20      spear-benchmark --compare PARENT.jsonl CHANGE.jsonl\n\
                     workloads: fig6-simpoint, core-full, replay-sampled, serve-jobs";

fn make(name: &str, seed: u64, small: bool) -> Option<Box<dyn Bench>> {
    Some(match name {
        "fig6-simpoint" => Box::new(campaign::fig6(seed, small)),
        "core-full" => Box::new(core_full::core_full(seed, small)),
        "replay-sampled" => Box::new(campaign::replay(seed, small)),
        "serve-jobs" => Box::new(serve::serve_jobs(seed, small)),
        _ => return None,
    })
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some("--compare") => compare::main(&args[1..]),
        _ => match parse(&args) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("spear-benchmark: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code)
}

/// A run's measurements.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// (name, value, unit), in report order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Raw samples behind the medians, for the results document.
    samples: Vec<(&'static str, Vec<f64>)>,
}

fn context(tag: &str) -> Result<Ctx, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let spear_sim = exe.with_file_name("spear-sim");
    if !spear_sim.is_file() {
        return Err(format!(
            "{} is missing; build it first",
            spear_sim.display()
        ));
    }
    let work = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    harness::remove_dir(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok(Ctx {
        spear_sim,
        work,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn run(opts: &Opts) -> i32 {
    let ctx = match context("work") {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("spear-benchmark: {e}");
            return 1;
        }
    };
    let mut bench = make(&opts.workload, opts.seed, false).expect("workload name was checked");
    let outcome = if opts.trace {
        traced(bench.as_mut(), &ctx, opts)
    } else {
        untraced(bench.as_mut(), &ctx, opts.seconds)
    };
    if outcome.is_err() {
        // Stop whatever set-up started.
        let _ = bench.finish(&ctx);
    }
    harness::remove_dir(&ctx.work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("spear-benchmark: {}: {e}", opts.workload);
            return 1;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{:<28} {value:>14.6} {unit}", name);
    }
    if let Err(e) = append_results(opts, &ctx, &outcome) {
        eprintln!("spear-benchmark: {e}");
    }
    let last = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), metrics_value(&outcome.metrics)),
    ]);
    println!("{}", serde::json::to_string(&last));
    0
}

/// Set up `SETUP_REPS` times, then run operations in a closed loop for
/// `seconds`, with tracing off. `wall_s` is the fastest operation: the
/// host's neighbours slow whole stretches of a run, and the fastest
/// repetition is the estimate they inflate least.
fn untraced(bench: &mut dyn Bench, ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            // Undo the previous set-up, untimed.
            bench.finish(ctx)?;
        }
        let t0 = Instant::now();
        bench.setup(ctx)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (mut walls, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let t0 = Instant::now();
    while attempted == 0 || t0.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        match bench.op(ctx) {
            Ok(secs) => {
                eprintln!("op {attempted}: {secs:.4} s");
                walls.push(secs);
            }
            Err(e) => {
                failed += 1;
                eprintln!("op {attempted} FAILED: {e}");
            }
        }
    }
    let peak = bench.finish(ctx)?;
    let fastest = walls.iter().copied().reduce(f64::min).unwrap_or(0.0);
    let slowest = walls.iter().copied().reduce(f64::max).unwrap_or(0.0);
    println!(
        "wall_s over n={} operations: min {fastest:.4}, median {:.4}, max {slowest:.4}; \
         setup_s: median of n={SETUP_REPS}",
        walls.len(),
        stats::median(&walls)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("wall_s".into(), fastest, "s"),
            ("setup_s".into(), stats::median(&setups), "s"),
            ("peak_rss_mb".into(), peak, "MB"),
        ],
        samples: vec![("wall_s", walls), ("setup_s", setups)],
    })
}

/// Alternate untraced operations with traced replicas for `seconds`,
/// then probe every layer; reports the per-layer metrics.
fn traced(bench: &mut dyn Bench, ctx: &Ctx, opts: &Opts) -> Result<Outcome, String> {
    bench.setup(ctx)?;
    let tracer = Tracer::on();
    let (mut ratios, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let t0 = Instant::now();
    while attempted == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        let plain = match bench.op(ctx) {
            Ok(secs) => secs,
            Err(e) => {
                failed += 1;
                eprintln!("op FAILED: {e}");
                continue;
            }
        };
        attempted += 1;
        tracer.next_run();
        match bench.replica(ctx, &tracer) {
            Ok(traced) => {
                eprintln!("pair: {plain:.4} s untraced, {traced:.4} s traced");
                ratios.push(traced / plain);
            }
            Err(e) => {
                failed += 1;
                eprintln!("replica FAILED: {e}");
            }
        }
    }
    bench.finish(ctx)?;
    let mut metrics = layers::probe(ctx, &bench.kernels())?;
    let spans = tracer.spans();
    let selfs = spans::self_times(&spans);
    metrics.push((
        "bench.trace_overhead".into(),
        stats::median(&ratios),
        "ratio",
    ));
    metrics.push((
        "bench.span_coverage".into(),
        spans::min_coverage(&spans),
        "ratio",
    ));
    for layer in LAYERS {
        let share = spans::layer_share(&spans, &selfs, layer);
        metrics.push((format!("share.{layer}"), share, "ratio"));
    }
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    std::fs::write(&path, spans::chrome_trace(&spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} spans written to {} (open in ui.perfetto.dev)",
        spans.len(),
        path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        samples: vec![("bench.trace_overhead", ratios)],
    })
}

/// `{"<name>": {"value": v, "unit": u}, ...}`
fn metrics_value(metrics: &[(String, f64, &'static str)]) -> Value {
    let entry = |value: f64, unit: &str| {
        Value::Object(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(unit.to_string())),
        ])
    };
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| (name.clone(), entry(*value, unit)))
            .collect(),
    )
}

/// The first line of a command's output, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Append this run's results document to `.bench_out/results.jsonl`.
fn append_results(opts: &Opts, ctx: &Ctx, o: &Outcome) -> Result<(), String> {
    use std::io::Write;
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(opts.workload.clone())),
        ("seed".into(), Value::U64(opts.seed)),
        ("seconds".into(), Value::F64(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("correct".into(), Value::Bool(o.failed == 0)),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        ("metrics".into(), metrics_value(&o.metrics)),
        (
            "samples".into(),
            Value::Object(
                o.samples
                    .iter()
                    .map(|(n, xs)| {
                        let xs = xs.iter().map(|&x| Value::F64(x)).collect();
                        (n.to_string(), Value::Array(xs))
                    })
                    .collect(),
            ),
        ),
        (
            "provenance".into(),
            Value::Object(vec![
                (
                    "commit".into(),
                    Value::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                (
                    "rustc".into(),
                    Value::Str(command_line("rustc", &["--version"])),
                ),
                ("nproc".into(), Value::U64(ctx.threads as u64)),
            ]),
        ),
    ]);
    let path = Path::new(OUT_DIR).join("results.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{}", serde::json::to_string(&doc))
        .and_then(|()| f.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Unit checks of the statistics and span rules, then one shrunken
/// operation and traced replica of every workload through the same code
/// paths and gates, with the layer probe on one kernel.
fn self_test() -> i32 {
    let t0 = Instant::now();
    let mut ok = true;
    let mut report = |what: &str, r: Result<(), String>| match r {
        Ok(()) => println!("PASS {what}"),
        Err(e) => {
            ok = false;
            println!("FAIL {what}: {e}");
        }
    };
    report("statistics and comparison rule", stats::self_test());
    report("span self time and coverage", spans::self_test());
    report("seed permutation", serve::self_test());
    let ctx = match context("self-test") {
        Ok(ctx) => ctx,
        Err(e) => {
            println!("FAIL set-up: {e}");
            return 1;
        }
    };
    for name in WORKLOADS {
        let mut bench = make(name, 0, true).expect("known workload");
        let tracer = Tracer::on();
        let r = (|| {
            bench.setup(&ctx)?;
            bench.op(&ctx)?;
            bench.replica(&ctx, &tracer)?;
            let cov = spans::min_coverage(&tracer.spans());
            if name != "serve-jobs" && cov < 0.95 {
                return Err(format!("span coverage {cov:.3} < 0.95"));
            }
            Ok(())
        })();
        let r = r.and(bench.finish(&ctx).map(drop));
        report(&format!("shrunken {name}"), r);
    }
    report(
        "layer probe",
        layers::probe(&ctx, &["field"]).map(|m| {
            for (name, value, unit) in m {
                println!("     {name:<24} {value:>12.4} {unit}");
            }
        }),
    );
    harness::remove_dir(&ctx.work);
    println!(
        "self-test {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    i32::from(!ok)
}
