//! The per-layer probe: each layer's public functions timed directly on
//! the workload's kernels at their base evaluation size, so a layer's
//! speed reads the same way on every workload.

use crate::harness::{self, Ctx, MAX_CELL_CYCLES, MAX_FUNCTIONAL_INSTS};
use crate::serve::Server;
use crate::stats;
use spear_bpred::{Predictor, PredictorConfig};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, Machine, TraceSource};
use spear_exec::Interp;
use spear_isa::Inst;
use spear_mem::{AccessKind, HierConfig, Hierarchy};
use spear_serve::client::request;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Instructions each core probe simulates per (kernel, machine).
const CORE_PROBE_INSTS: u64 = 100_000;

/// Requests the HTTP probe makes: enough for a p90 with ten samples
/// beyond it.
const HTTP_PROBE_REQUESTS: usize = 100;

/// Server starts the HTTP probe times: whether the first request meets
/// the server's accept loop awake or asleep decides a start's time.
const HTTP_PROBE_STARTS: usize = 5;

/// One data access of the committed stream.
struct MemOp {
    addr: u64,
    pc: u32,
    write: bool,
    now: u64,
}

/// One control instruction of the committed stream.
struct CtrlOp {
    pc: u32,
    inst: Inst,
    taken: bool,
    target: u32,
}

/// Accumulated time and work per probe.
#[derive(Default)]
struct Tally {
    build: Duration,
    compile: Duration,
    interp: (Duration, u64),
    bbv: (Duration, u64),
    cluster: Duration,
    mem: (Duration, u64),
    bpred: (Duration, u64),
    warm: (Duration, u64),
    record: (Duration, u64),
    kips: [(Duration, u64); 3],
    replay: (Duration, u64),
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed();
    r
}

fn rate(work: (Duration, u64), per_sec: f64) -> f64 {
    work.1 as f64 / work.0.as_secs_f64().max(1e-12) / per_sec
}

/// Probe every layer over `kernels`; returns (metric, value, unit).
pub fn probe(ctx: &Ctx, kernels: &[&str]) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut t = Tally::default();
    for &name in kernels {
        probe_kernel(name, &mut t)?;
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ns = |w: (Duration, u64)| w.0.as_secs_f64() * 1e9 / w.1.max(1) as f64;
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("workloads.build_ms".into(), ms(t.build), "ms"),
        ("compiler.compile_ms".into(), ms(t.compile), "ms"),
        ("exec.interp_mips".into(), rate(t.interp, 1e6), "MIPS"),
        ("exec.bbv_mips".into(), rate(t.bbv, 1e6), "MIPS"),
        ("simpoint.cluster_ms".into(), ms(t.cluster), "ms"),
        ("mem.access_ns".into(), ns(t.mem), "ns"),
        ("bpred.branch_ns".into(), ns(t.bpred), "ns"),
        ("campaign.warm_mips".into(), rate(t.warm, 1e6), "MIPS"),
        ("trace.record_mips".into(), rate(t.record, 1e6), "MIPS"),
    ];
    for (m, work) in Machine::FIG6.iter().zip(t.kips) {
        out.push((
            format!("cpu.kips.{}", harness::cli_name(*m)),
            rate(work, 1e3),
            "KIPS",
        ));
    }
    out.push(("cpu.replay_kips".into(), rate(t.replay, 1e3), "KIPS"));
    out.extend(probe_http(ctx)?);
    Ok(out)
}

fn probe_kernel(name: &str, t: &mut Tally) -> Result<(), String> {
    let w = spear_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (profile, eval) = timed(&mut t.build, || (w.profile_program(), w.eval_program()));
    let (compiled, _) = timed(&mut t.compile, || {
        SpearCompiler::new(CompilerConfig::default()).compile(&profile)
    })
    .map_err(|e| format!("{name}: compile failed: {e}"))?;
    let binary = SpearCompiler::attach(eval, compiled.table);
    let program = &binary.program;

    let insts = timed(&mut t.interp.0, || harness::golden_insts(name, program))?;
    t.interp.1 += insts;

    let (bbvs, n) = timed(&mut t.bbv.0, || {
        spear_exec::collect_bbvs(program, 20_000, MAX_FUNCTIONAL_INSTS)
    })?;
    t.bbv.1 += n;
    let matrix: Vec<Vec<(u64, u64)>> = bbvs.into_iter().map(|b| b.counts).collect();
    let cfg = spear_simpoint::SimpointConfig {
        k: 5,
        ..Default::default()
    };
    black_box(timed(&mut t.cluster, || {
        spear_simpoint::cluster(&matrix, &cfg)
    }));

    // The committed stream's data accesses and control instructions,
    // replayed below through the hierarchy and the predictor alone.
    // Time advances one unit per instruction, as in functional warming.
    let mut mem_ops = Vec::new();
    let mut ctrl_ops = Vec::new();
    let mut now = 0u64;
    let mut interp = Interp::new(program);
    interp
        .run_with(MAX_FUNCTIONAL_INSTS, |si, _| {
            now += 1;
            if let Some(addr) = si.outcome.eff_addr {
                mem_ops.push(MemOp {
                    addr,
                    pc: si.pc,
                    write: si.inst.op.is_store(),
                    now,
                });
            }
            if si.inst.op.is_ctrl() {
                ctrl_ops.push(CtrlOp {
                    pc: si.pc,
                    inst: si.inst,
                    taken: si.outcome.taken.unwrap_or(true),
                    target: si.outcome.next_pc,
                });
            }
        })
        .map_err(|e| format!("{name}: interpreter failed: {e}"))?;
    let mut hier = Hierarchy::new(HierConfig::paper());
    timed(&mut t.mem.0, || {
        for op in &mem_ops {
            let kind = if op.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            black_box(hier.access_data(op.addr, kind, op.pc, false, op.now));
        }
    });
    t.mem.1 += mem_ops.len() as u64;
    let mut pred = Predictor::new(PredictorConfig::paper());
    timed(&mut t.bpred.0, || {
        for op in &ctrl_ops {
            let p = pred.predict(op.pc, &op.inst);
            pred.update(op.pc, &op.inst, op.taken, op.target, Some(p));
        }
    });
    black_box(pred.stats);
    t.bpred.1 += ctrl_ops.len() as u64;

    let set = timed(&mut t.warm.0, || {
        spear_campaign::capture_checkpoints_at(
            program,
            name,
            HierConfig::paper(),
            PredictorConfig::paper(),
            &[0],
            MAX_FUNCTIONAL_INSTS,
        )
    })?;
    t.warm.1 += set.total_insts;

    let tf = timed(&mut t.record.0, || {
        spear_campaign::record_trace(name, &binary, MAX_FUNCTIONAL_INSTS)
    })?;
    t.record.1 += tf.recs.len() as u64;

    for (m, work) in Machine::FIG6.iter().zip(t.kips.iter_mut()) {
        let res = timed(&mut work.0, || {
            Core::new(&binary, m.config(None)).run(MAX_CELL_CYCLES, CORE_PROBE_INSTS)
        })
        .map_err(|e| format!("{name} on {m}: {e}"))?;
        work.1 += res.stats.committed;
    }
    let res = timed(&mut t.replay.0, || {
        let src = TraceSource::new(&tf);
        Core::with_source(&tf.binary, Machine::Baseline.config(None), Box::new(src))
            .run(MAX_CELL_CYCLES, CORE_PROBE_INSTS)
    })
    .map_err(|e| format!("{name} replay: {e}"))?;
    t.replay.1 += res.stats.committed;
    Ok(())
}

/// Server start-up until `/healthz` answers (median of several), then
/// sequential `GET /metrics` round trips.
fn probe_http(ctx: &Ctx) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut ready = Vec::with_capacity(HTTP_PROBE_STARTS);
    let mut last = None;
    for i in 0..HTTP_PROBE_STARTS {
        let dir = ctx.fresh_dir(&format!("probe-serve-{i}"))?;
        let t0 = Instant::now();
        let server = Server::start(ctx, &dir)?;
        ready.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(old) = last.replace(server) {
            Server::stop(old)?;
        }
    }
    let server = last.expect("at least one start");
    let ready_ms = stats::median(&ready);
    let mut lat = Vec::with_capacity(HTTP_PROBE_REQUESTS);
    for _ in 0..HTTP_PROBE_REQUESTS {
        let t0 = Instant::now();
        let (status, _) = request(&server.addr, "GET", "/metrics", None)?;
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
    }
    server.stop()?;
    let tail = stats::tail_percentile(lat.len()).ok_or("too few requests for a tail")?;
    Ok(vec![
        ("serve.ready_ms".into(), ready_ms, "ms"),
        ("serve.request_ms_p50".into(), stats::median(&lat), "ms"),
        (
            format!("serve.request_ms_p{}", (tail * 100.0).round()),
            stats::percentile(&lat, tail),
            "ms",
        ),
    ])
}
