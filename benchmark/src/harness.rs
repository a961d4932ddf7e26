//! What every workload shares: the run context, the workload interface,
//! a worker pool for the traced replicas, and spear-sim invocation.

use crate::spans::Tracer;
use spear_cpu::Machine;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Instruction ceiling for functional passes (the campaign engine's).
pub const MAX_FUNCTIONAL_INSTS: u64 = 1_000_000_000;

/// Cycle ceiling per simulation (the campaign engine's and runner's).
pub const MAX_CELL_CYCLES: u64 = 200_000_000;

/// Everything a workload needs from the run.
pub struct Ctx {
    /// The spear-sim binary built beside the harness.
    pub spear_sim: PathBuf,
    /// Scratch directory for this run (removed at the end).
    pub work: PathBuf,
    /// Worker threads for parallel phases: the host's core count.
    pub threads: usize,
}

impl Ctx {
    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(tag);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One benchmark workload. The harness calls `setup` (several times, with
/// `finish` between), then `op` in a closed loop (untraced runs) or `op`
/// and `replica` in alternation (traced runs), then `finish`.
pub trait Bench {
    /// Build the inputs and reference values.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// One measured operation with every output checked; returns its
    /// wall time in seconds.
    fn op(&mut self, ctx: &Ctx) -> Result<f64, String>;
    /// The same work as `op`, made through the library's public
    /// functions inside spans; returns its wall time in seconds.
    fn replica(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<f64, String>;
    /// Stop what set-up started; returns the measured processes' peak
    /// resident memory in MiB.
    fn finish(&mut self, ctx: &Ctx) -> Result<f64, String>;
    /// The base kernels this workload runs, for the layer probe.
    fn kernels(&self) -> Vec<&'static str>;
}

/// Run `f` over `items` on `threads` workers, keeping order. Each
/// worker's time is one `bench.worker` span under the caller's open span.
pub fn pool<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    tracer: &Tracer,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let parent = tracer.current();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| {
                tracer.span_under(parent, "bench.worker", || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    slots.lock().expect("a worker panicked")[i] = Some(r);
                })
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// The spear-sim spelling of a Figure 6 machine.
pub fn cli_name(m: Machine) -> &'static str {
    match m {
        Machine::Baseline => "baseline",
        Machine::Spear128 => "spear-128",
        Machine::Spear256 => "spear-256",
        Machine::SpearSf128 => "spear-sf-128",
        Machine::SpearSf256 => "spear-sf-256",
    }
}

/// Run spear-sim to completion; any exit code but 0 is an error carrying
/// the end of its standard error.
pub fn spear_sim(ctx: &Ctx, args: &[String]) -> Result<(), String> {
    let out = Command::new(&ctx.spear_sim)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ctx.spear_sim.display()))?;
    if out.status.success() {
        return Ok(());
    }
    let err = String::from_utf8_lossy(&out.stderr);
    let tail: Vec<&str> = err.lines().rev().take(3).collect();
    Err(format!(
        "spear-sim {} exited with {}: {}",
        args.first().map_or("", String::as_str),
        out.status,
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    ))
}

/// Every file in `dir`, sorted by name, with its bytes.
pub fn read_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for e in entries {
        let e = e.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let bytes = std::fs::read(e.path())
            .map_err(|err| format!("cannot read {}: {err}", e.path().display()))?;
        files.push((e.file_name().to_string_lossy().into_owned(), bytes));
    }
    files.sort();
    Ok(files)
}

/// Remove a directory tree, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Dynamic instruction count of `program` under the golden interpreter,
/// which must halt.
pub fn golden_insts(name: &str, program: &spear_isa::Program) -> Result<u64, String> {
    let mut interp = spear_exec::Interp::new(program);
    interp
        .run(MAX_FUNCTIONAL_INSTS)
        .map_err(|e| format!("{name}: interpreter failed: {e}"))?;
    if !interp.halted {
        return Err(format!(
            "{name}: did not halt in {MAX_FUNCTIONAL_INSTS} instructions"
        ));
    }
    Ok(interp.icount)
}

/// Golden dynamic instruction count of each `name@xN` workload spec.
pub fn golden_counts(specs: &[String]) -> Result<Vec<u64>, String> {
    specs
        .iter()
        .map(|spec| {
            let (w, scale) = spear_workloads::by_spec(spec)
                .ok_or_else(|| format!("unknown workload `{spec}`"))?;
            golden_insts(spec, &w.eval_program_scaled(scale))
        })
        .collect()
}

/// The digest recorded for `workload` at seed 0 (see `digests.txt`).
pub fn recorded_digest(workload: &str) -> Option<&'static str> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim())
}

/// Check `digest` against the recorded one, when one applies.
pub fn check_digest(workload: &str, expected: Option<&str>, digest: &str) -> Result<(), String> {
    match expected {
        Some(want) if want != digest => Err(format!(
            "{workload}: output digest {digest} differs from the {want} recorded for seed 0"
        )),
        _ => Ok(()),
    }
}
