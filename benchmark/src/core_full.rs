//! `core-full`: full-program cycle simulation with no sampling and no
//! functional warming — five kernels on the three Figure 6 machines, one
//! thread, through `Core::new` + `Core::run`. The cycle core does almost
//! all the work; the exec and warming layers do none of it.

use crate::harness::{self, Bench, Ctx, MAX_CELL_CYCLES};
use crate::rusage::{peak_rss_mb, Who};
use crate::spans::Tracer;
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, Machine, RunExit};
use spear_isa::SpearBinary;
use spear_workloads::Input;
use std::time::Instant;

/// A compiled kernel with its golden reference.
struct Kernel {
    name: &'static str,
    binary: SpearBinary,
    insts: u64,
    checksum: u64,
}

/// The workload.
pub struct CoreFull {
    names: Vec<&'static str>,
    seed: u64,
    kernels: Vec<Kernel>,
}

/// Memory-bound (mcf, art, equake) and compute-bound (matrix, field)
/// kernels at their evaluation size, with the evaluation input's data
/// seed offset by S. `small` is the self-test's shrunken form.
pub fn core_full(seed: u64, small: bool) -> CoreFull {
    let names = if small {
        vec!["field", "update"]
    } else {
        vec!["mcf", "art", "equake", "matrix", "field"]
    };
    CoreFull {
        names,
        seed,
        kernels: Vec::new(),
    }
}

impl CoreFull {
    /// Every kernel on every machine to halt, each checked against the
    /// golden interpreter.
    fn run_all(&self, tracer: &Tracer) -> Result<(), String> {
        for k in &self.kernels {
            for m in Machine::FIG6 {
                let (res, checksum) = tracer.span("cpu.run", || {
                    let mut core = Core::new(&k.binary, m.config(None));
                    let res = core.run(MAX_CELL_CYCLES, u64::MAX);
                    (res, core.state_checksum())
                });
                let res = res.map_err(|e| format!("{} on {m}: {e}", k.name))?;
                if res.exit != RunExit::Halted
                    || res.stats.committed != k.insts
                    || checksum != k.checksum
                {
                    return Err(format!(
                        "{} on {m}: {:?} after {} instructions (checksum {checksum:x}); \
                         the interpreter halts after {} (checksum {:x})",
                        k.name, res.exit, res.stats.committed, k.insts, k.checksum
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Bench for CoreFull {
    fn setup(&mut self, _ctx: &Ctx) -> Result<(), String> {
        self.kernels = self
            .names
            .iter()
            .map(|&name| {
                let w = spear_workloads::by_name(name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                let input = Input {
                    seed: w.eval_input.seed.wrapping_add(self.seed),
                    ..w.eval_input
                };
                let eval = (w.build)(input);
                let (compiled, _) = SpearCompiler::new(CompilerConfig::default())
                    .compile(&w.profile_program())
                    .map_err(|e| format!("{name}: compile failed: {e}"))?;
                let binary = SpearCompiler::attach(eval, compiled.table);
                let mut interp = spear_exec::Interp::new(&binary.program);
                interp
                    .run(harness::MAX_FUNCTIONAL_INSTS)
                    .map_err(|e| format!("{name}: interpreter failed: {e}"))?;
                if !interp.halted {
                    return Err(format!("{name}: the interpreter did not halt"));
                }
                Ok(Kernel {
                    name,
                    insts: interp.icount,
                    checksum: interp.state_checksum(),
                    binary,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn op(&mut self, _ctx: &Ctx) -> Result<f64, String> {
        let t0 = Instant::now();
        self.run_all(&Tracer::off())?;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn replica(&mut self, _ctx: &Ctx, tracer: &Tracer) -> Result<f64, String> {
        let t0 = Instant::now();
        tracer.span("bench.replica", || self.run_all(tracer))?;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn finish(&mut self, _ctx: &Ctx) -> Result<f64, String> {
        Ok(peak_rss_mb(Who::SelfProcess))
    }

    fn kernels(&self) -> Vec<&'static str> {
        self.names.clone()
    }
}
