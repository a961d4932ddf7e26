//! `spear-sim` — the cycle-level simulator driver.
//!
//! Runs a `.spear` executable (produced by `spearc`) on any of the five
//! evaluated machine models, printing the full statistics block, and
//! optionally an episode trace.
//!
//! ```text
//! spear-sim mcf.spear                          # baseline superscalar
//! spear-sim mcf.spear -m spear-128             # the SPEAR machine
//! spear-sim workload:mcf -m spear-128          # compile+run a built-in workload
//! spear-sim mcf.spear -m spear-256 --mem-latency 200
//! spear-sim mcf.spear -m spear-128 --trace 40  # print the last 40 episode events
//! spear-sim workload:mcf -m spear-128 --stats-json out.json --trace-file t.jsonl
//! ```

use spear::export::{SimPerf, StatsExport};
use spear::{report, Machine};
use spear_campaign::{Campaign, JobSpec};
use spear_cpu::{Core, TraceSource};
use spear_isa::binfile;
use spear_mem::LatencyConfig;
use spear_trace::TraceFile;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

/// The exit-code contract, applied uniformly across subcommands:
///
/// * `0` — success.
/// * `1` — the run itself succeeded but found what it was looking for
///   (fuzz divergences / replay regressions), so scripts can separate
///   "harness broke" from "harness found a bug".
/// * `2` — usage error: bad flags, unknown names, malformed values.
/// * `3` — runtime error: IO failures, simulation errors, server faults.
/// * `4` — campaign interrupted (`--max-cells` budget); rerun to resume.
mod exitcode {
    pub const OK: i32 = 0;
    pub const FINDINGS: i32 = 1;
    pub const USAGE: i32 = 2;
    pub const RUNTIME: i32 = 3;
    pub const INTERRUPTED: i32 = 4;
}

/// Create an output file before any simulation time is spent, so a bad
/// path fails fast with the runtime exit code instead of after the run.
fn create_output(path: &str) -> File {
    File::create(path).unwrap_or_else(|e| {
        eprintln!("spear-sim: cannot create `{path}`: {e}");
        exit(exitcode::RUNTIME)
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: spear-sim FILE.spear [-m MACHINE] [--bpred SPEC] [--mem-latency N]\n\
         \x20      [--max-cycles N] [--max-insts N] [--trace N] [--quiet]\n\
         \x20      [--stats-json PATH] [--trace-file PATH] [--perf]\n\
         \x20      [--pipeview PATH] [--perfetto PATH] [--window N]\n\
         \x20      [--frontend program|trace:FILE.spt]\n\
         \x20  or: spear-sim record FILE.spear|workload:NAME --trace-out FILE.spt\n\
         \x20      [--max-insts N]\n\
         \x20  or: spear-sim campaign --dir DIR [--workloads a,b@x100,c|all]\n\
         \x20      [--machines M1,M2,...] [--bpreds S1,S2,...] [--mem-latency N]\n\
         \x20      [--frontends program,trace] [--interval N] [--stride N]\n\
         \x20      [--threads N] [--max-cells N]\n\
         \x20      [--window N] [--simpoint] [--simpoint-k N] [--simpoint-seed N]\n\
         \x20      [--quiet]\n\
         \x20  or: spear-sim serve --dir DIR [--addr HOST:PORT] [--workers N]\n\
         \x20      [--queue-cap N] [--cache-mb N]\n\
         \x20  or: spear-sim client ACTION [--addr HOST:PORT | --dir DIR] ...\n\
         \x20      actions: submit (--spec JSON | --spec-file PATH), list,\n\
         \x20      status ID, aggregates ID, cancel ID, wait ID [--timeout-s N],\n\
         \x20      shutdown\n\
         \x20  or: spear-sim obs-summary TRACE.jsonl\n\
         \x20  or: spear-sim fuzz [--seconds N] [--seed S] [--corpus DIR]\n\
         \x20  or: spear-sim fuzz --replay DIR\n\
         \x20  or: spear-sim dump-config [-m MACHINE] [--bpred SPEC] [--mem-latency N]\n\n\
         machines: baseline, spear-128, spear-256, spear-sf-128, spear-sf-256\n\
         predictors: bimodal (paper default), gshare,\n\
         \x20        tage[:tables=N,bits=N,tag=N,hmin=N,hmax=N,decay=N]\n\
         exit codes: 0 ok, 1 fuzz findings, 2 usage, 3 runtime error,\n\
         \x20        4 campaign interrupted"
    );
    exit(exitcode::USAGE)
}

fn parse_machine(s: &str) -> Machine {
    Machine::from_cli_name(s).unwrap_or_else(|| {
        eprintln!("spear-sim: unknown machine `{s}`");
        usage()
    })
}

/// Parse a `--bpred` spec onto the paper's default predictor sizing.
fn parse_bpred(s: &str) -> spear_bpred::PredictorConfig {
    spear_bpred::PredictorConfig::paper()
        .with_spec(s)
        .unwrap_or_else(|e| {
            eprintln!("spear-sim: bad predictor spec `{s}`: {e}");
            usage()
        })
}

/// Split a `--bpreds` list on the commas *between* specs. A comma only
/// starts a new spec when what follows names a predictor kind, so the
/// commas inside `tage:tables=6,bits=10,...` stay part of that spec.
fn split_bpred_list(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for piece in s.split(',') {
        let starts_new =
            matches!(piece, "bimodal" | "gshare" | "tage") || piece.starts_with("tage:");
        match out.last_mut() {
            Some(last) if !starts_new => {
                last.push(',');
                last.push_str(piece);
            }
            _ => out.push(piece.to_string()),
        }
    }
    out
}

/// The value following `flag`, or a usage error.
fn next_val(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("spear-sim: {flag} needs a value");
        exit(exitcode::USAGE)
    })
}

/// The numeric value following `flag`, reporting the offending text on
/// failure.
fn next_num<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let val = next_val(it, flag);
    val.parse().unwrap_or_else(|_| {
        eprintln!("spear-sim: {flag} expects a number, got `{val}`");
        exit(exitcode::USAGE)
    })
}

/// Resolve a positional program argument: `workload:NAME` compiles the
/// built-in workload in-process (profiling input drives the compiler;
/// evaluation input runs); anything else loads a `.spear` binfile.
fn load_input(file: &str) -> spear_isa::SpearBinary {
    if let Some(name) = file.strip_prefix("workload:") {
        let Some(w) = spear_workloads::by_name(name) else {
            eprintln!("spear-sim: unknown workload `{name}`");
            exit(exitcode::USAGE)
        };
        let (table, _) = spear::runner::compile_workload(&w);
        spear_compiler::SpearCompiler::attach(w.eval_program(), table)
    } else {
        let bytes = std::fs::read(file).unwrap_or_else(|e| {
            eprintln!("spear-sim: cannot read `{file}`: {e}");
            exit(exitcode::RUNTIME)
        });
        binfile::load(&bytes).unwrap_or_else(|e| {
            eprintln!("spear-sim: `{file}`: {e}");
            exit(exitcode::RUNTIME)
        })
    }
}

/// The `record` subcommand: run the golden interpreter over a program
/// and capture the committed path as a compressed self-describing `.spt`
/// trace (program image + delta/varint/RLE-packed per-instruction
/// records) that `--frontend trace:FILE` and campaign `frontends: trace`
/// cells replay.
fn record_main(args: Vec<String>) -> ! {
    let mut file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut max_insts = u64::MAX;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => out = Some(next_val(&mut it, "--trace-out")),
            "--max-insts" => max_insts = next_num(&mut it, "--max-insts"),
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg),
            _ => {
                eprintln!("spear-sim: unrecognized record argument `{arg}`");
                usage()
            }
        }
    }
    let Some(file) = file else {
        eprintln!("spear-sim: record needs a program (FILE.spear or workload:NAME)");
        usage()
    };
    let Some(out) = out else {
        eprintln!("spear-sim: record needs --trace-out");
        usage()
    };
    let binary = load_input(&file);
    let mut out_file = create_output(&out);
    let (bytes, stats) = spear_trace::record(&binary, max_insts).unwrap_or_else(|e| {
        eprintln!("spear-sim: record `{file}`: {e}");
        exit(exitcode::RUNTIME)
    });
    out_file.write_all(&bytes).unwrap_or_else(|e| {
        eprintln!("spear-sim: cannot write `{out}`: {e}");
        exit(exitcode::RUNTIME)
    });
    if !stats.halted {
        eprintln!("spear-sim: record hit the --max-insts budget before the program halted");
    }
    println!(
        "recorded {file}: {} insts -> {out} ({} bytes: {} image + {} payload, raw {}); \
         {:.2} payload bits/inst, {:.2} file bits/inst",
        stats.insts,
        stats.file_bytes,
        stats.image_bytes,
        stats.payload_bytes,
        stats.raw_payload_bytes,
        stats.payload_bits_per_inst(),
        stats.file_bits_per_inst()
    );
    exit(exitcode::OK)
}

/// The `campaign` subcommand: run (or resume) a checkpointed sampled
/// campaign and write one `--stats-json`-shaped envelope per aggregate.
/// The flags fill a [`JobSpec`] field for flag — the same wire form
/// `POST /jobs` takes — so the CLI and the server share one resolver and
/// one validator.
fn campaign_main(args: Vec<String>) -> ! {
    let mut dir: Option<String> = None;
    let mut job = JobSpec {
        workloads: vec!["all".to_string()],
        machines: Machine::FIG6.iter().map(|m| m.name().to_string()).collect(),
        ..JobSpec::default()
    };
    let mut threads: usize = 0;
    let mut quiet = false;

    let list = |v: String| -> Vec<String> { v.split(',').map(str::to_string).collect() };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(next_val(&mut it, "--dir")),
            "--workloads" => job.workloads = list(next_val(&mut it, "--workloads")),
            "--machines" => job.machines = list(next_val(&mut it, "--machines")),
            "--bpreds" => job.bpreds = split_bpred_list(&next_val(&mut it, "--bpreds")),
            "--frontends" => job.frontends = list(next_val(&mut it, "--frontends")),
            "--mem-latency" => job.mem_latency = Some(next_num(&mut it, "--mem-latency")),
            "--interval" => job.interval = next_num(&mut it, "--interval"),
            "--stride" => job.stride = next_num(&mut it, "--stride"),
            "--threads" => threads = next_num(&mut it, "--threads"),
            "--max-cells" => job.max_cells = Some(next_num(&mut it, "--max-cells")),
            "--window" => job.window = Some(next_num(&mut it, "--window")),
            "--simpoint" => job.simpoint = true,
            "--simpoint-k" => job.simpoint_k = Some(next_num(&mut it, "--simpoint-k")),
            "--simpoint-seed" => job.simpoint_seed = Some(next_num(&mut it, "--simpoint-seed")),
            "--quiet" => quiet = true,
            _ => {
                eprintln!("spear-sim: unrecognized campaign argument `{arg}`");
                usage()
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("spear-sim: campaign needs --dir");
        usage()
    };
    let spec = job.resolve(threads).unwrap_or_else(|e| {
        eprintln!("spear-sim: {e}");
        exit(exitcode::USAGE)
    });
    let campaign = Campaign::new(&dir, spec.clone());
    let progress = |p: &spear_campaign::ProgressSnapshot| {
        eprintln!("{}", report::campaign_progress(p));
    };
    let summary = campaign
        .run(if quiet { None } else { Some(&progress) })
        .unwrap_or_else(|e| {
            eprintln!("spear-sim: campaign failed: {e}");
            exit(exitcode::RUNTIME)
        });

    if summary.interrupted {
        println!(
            "campaign interrupted after {} cells ({}/{} done); rerun to resume",
            summary.executed,
            summary.executed + summary.skipped,
            summary.total_cells
        );
        exit(exitcode::INTERRUPTED)
    }

    // One versioned stats envelope per aggregate, same schema as
    // `--stats-json`, under <dir>/aggregates/ — via the same writer the
    // campaign server uses, so CLI and served output stay byte-identical.
    // Like the server, only a complete campaign writes them: an
    // envelope summed over part of the cells would look like a whole one.
    let aggs = summary.aggregates();
    let agg_dir = std::path::Path::new(&dir).join("aggregates");
    spear_campaign::write_aggregate_envelopes(
        std::path::Path::new(&dir),
        &summary.results,
        spec.simpoint.map(|sp| (sp, spec.sample.interval_len)),
    )
    .unwrap_or_else(|e| {
        eprintln!("spear-sim: {e}");
        exit(exitcode::RUNTIME)
    });
    println!(
        "campaign complete: {} cells ({} executed now, {} resumed) in {}",
        summary.total_cells,
        summary.executed,
        summary.skipped,
        report_ms(summary.elapsed_ms)
    );
    if !quiet {
        println!("\nper-workload simulation time:");
        print!("{}", report::campaign_timings(&summary.timings));
        println!(
            "\naggregates ({} written to {}):",
            aggs.len(),
            agg_dir.display()
        );
        for a in &aggs {
            println!(
                "  {:<12} {:<14} {:<10} lat {:>3}  cells {:>4}  IPC {:.4}  {:.0} KIPS",
                a.key.workload,
                a.key.machine,
                a.key.bpred,
                a.key.mem_latency,
                a.cells,
                a.ipc(),
                a.kips()
            );
        }
    }
    exit(exitcode::OK)
}

/// The `serve` subcommand: run the resident campaign server (see
/// `spear-serve`) until SIGTERM or `POST /shutdown`, then drain.
fn serve_main(args: Vec<String>) -> ! {
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut workers: usize = 0;
    let mut queue_cap: usize = 16;
    let mut cache_mb: u64 = 256;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(next_val(&mut it, "--dir")),
            "--addr" => addr = next_val(&mut it, "--addr"),
            "--workers" => workers = next_num(&mut it, "--workers"),
            "--queue-cap" => queue_cap = next_num(&mut it, "--queue-cap"),
            "--cache-mb" => cache_mb = next_num(&mut it, "--cache-mb"),
            _ => {
                eprintln!("spear-sim: unrecognized serve argument `{arg}`");
                usage()
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("spear-sim: serve needs --dir");
        usage()
    };
    let cfg = spear_serve::ServeConfig {
        root: dir.into(),
        addr,
        workers,
        queue_cap,
        cache_bytes: cache_mb * 1024 * 1024,
    };
    spear_serve::install_signal_handlers();
    let server = spear_serve::Server::bind(&cfg).unwrap_or_else(|e| {
        eprintln!("spear-sim: serve: {e}");
        exit(exitcode::RUNTIME)
    });
    eprintln!(
        "spear-serve listening on {} (root {}, queue cap {})",
        server.local_addr(),
        cfg.root.display(),
        cfg.queue_cap,
    );
    server.run().unwrap_or_else(|e| {
        eprintln!("spear-sim: serve: {e}");
        exit(exitcode::RUNTIME)
    });
    eprintln!("spear-serve drained cleanly");
    exit(exitcode::OK)
}

/// The `client` subcommand: a thin curl-substitute for the control
/// plane, so scripts and CI need no external HTTP tooling.
fn client_main(args: Vec<String>) -> ! {
    let mut action: Option<String> = None;
    let mut job_id: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut timeout_s: u64 = 600;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(next_val(&mut it, "--addr")),
            "--dir" => dir = Some(next_val(&mut it, "--dir")),
            "--spec" => spec = Some(next_val(&mut it, "--spec")),
            "--spec-file" => {
                let path = next_val(&mut it, "--spec-file");
                spec = Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("spear-sim: cannot read `{path}`: {e}");
                    exit(exitcode::RUNTIME)
                }));
            }
            "--timeout-s" => timeout_s = next_num(&mut it, "--timeout-s"),
            _ if action.is_none() && !arg.starts_with('-') => action = Some(arg),
            _ if job_id.is_none() && !arg.starts_with('-') => job_id = Some(arg),
            _ => {
                eprintln!("spear-sim: unrecognized client argument `{arg}`");
                usage()
            }
        }
    }
    let Some(action) = action else {
        eprintln!("spear-sim: client needs an action");
        usage()
    };
    let addr = addr.unwrap_or_else(|| match &dir {
        Some(d) => {
            spear_serve::client::read_server_addr(std::path::Path::new(d)).unwrap_or_else(|e| {
                eprintln!("spear-sim: {e}");
                exit(exitcode::RUNTIME)
            })
        }
        None => {
            eprintln!("spear-sim: client needs --addr or --dir");
            usage()
        }
    });
    let need_id = || {
        job_id.clone().unwrap_or_else(|| {
            eprintln!("spear-sim: client {action} needs a job id");
            usage()
        })
    };

    let (method, path, body) = match action.as_str() {
        "submit" => {
            let Some(spec) = spec.as_deref() else {
                eprintln!("spear-sim: client submit needs --spec or --spec-file");
                usage()
            };
            ("POST", "/jobs".to_string(), Some(spec))
        }
        "list" => ("GET", "/jobs".to_string(), None),
        "status" => ("GET", format!("/jobs/{}", need_id()), None),
        "aggregates" => ("GET", format!("/jobs/{}/aggregates", need_id()), None),
        "cancel" => ("POST", format!("/jobs/{}/cancel", need_id()), None),
        "shutdown" => ("POST", "/shutdown".to_string(), None),
        "wait" => {
            let id = need_id();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(timeout_s);
            loop {
                let (status, text) =
                    spear_serve::client::request(&addr, "GET", &format!("/jobs/{id}"), None)
                        .unwrap_or_else(|e| {
                            eprintln!("spear-sim: {e}");
                            exit(exitcode::RUNTIME)
                        });
                if status != 200 {
                    eprintln!("spear-sim: wait: {text}");
                    exit(exitcode::RUNTIME)
                }
                let state = serde::json::from_str::<serde::Value>(&text)
                    .ok()
                    .and_then(|v| match v.field("state") {
                        Ok(serde::Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| {
                        eprintln!("spear-sim: wait: malformed status `{text}`");
                        exit(exitcode::RUNTIME)
                    });
                match state.as_str() {
                    "done" => {
                        println!("{text}");
                        exit(exitcode::OK)
                    }
                    "failed" | "cancelled" => {
                        eprintln!("spear-sim: job {id} ended {state}: {text}");
                        exit(exitcode::RUNTIME)
                    }
                    _ => {}
                }
                if std::time::Instant::now() >= deadline {
                    eprintln!("spear-sim: timed out after {timeout_s}s waiting for {id}");
                    exit(exitcode::RUNTIME)
                }
                std::thread::sleep(std::time::Duration::from_millis(300));
            }
        }
        other => {
            eprintln!("spear-sim: unknown client action `{other}`");
            usage()
        }
    };

    let (status, text) =
        spear_serve::client::request(&addr, method, &path, body).unwrap_or_else(|e| {
            eprintln!("spear-sim: {e}");
            exit(exitcode::RUNTIME)
        });
    if (200..300).contains(&status) {
        println!("{text}");
        exit(exitcode::OK)
    }
    eprintln!("spear-sim: server returned {status}: {text}");
    exit(if status == 400 {
        exitcode::USAGE
    } else {
        exitcode::RUNTIME
    })
}

/// The `obs-summary` subcommand: fold the `window` rows of a JSONL
/// trace (written with `--trace-file` plus `--window`) into a
/// per-window table.
fn obs_summary_main(args: Vec<String>) -> ! {
    let [file] = args.as_slice() else {
        eprintln!("spear-sim: obs-summary takes exactly one trace file");
        usage()
    };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("spear-sim: cannot read `{file}`: {e}");
        exit(exitcode::RUNTIME)
    });
    let windows = spear::obs::parse_window_rows(&text).unwrap_or_else(|e| {
        eprintln!("spear-sim: `{file}`: {e}");
        exit(exitcode::RUNTIME)
    });
    print!("{}", spear::obs::summarize_windows(&windows));
    exit(exitcode::OK)
}

/// The `fuzz` subcommand: run the differential fuzzing harness (random
/// programs judged by the architectural-equivalence oracle) for a wall-
/// clock budget, or replay the minimized-reproducer corpus. Exits 0 on a
/// clean run, 1 on any divergence or regression.
fn fuzz_main(args: Vec<String>) -> ! {
    let mut seconds: u64 = 30;
    let mut seed: u64 = 42;
    let mut corpus: Option<String> = None;
    let mut replay: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seconds" => seconds = next_num(&mut it, "--seconds"),
            "--seed" => seed = next_num(&mut it, "--seed"),
            "--corpus" => corpus = Some(next_val(&mut it, "--corpus")),
            "--replay" => replay = Some(next_val(&mut it, "--replay")),
            _ => {
                eprintln!("spear-sim: unrecognized fuzz argument `{arg}`");
                usage()
            }
        }
    }

    if let Some(dir) = replay {
        let report = spear_fuzz::replay(std::path::Path::new(&dir), |line| println!("{line}"))
            .unwrap_or_else(|e| {
                eprintln!("spear-sim: corpus replay failed: {e}");
                exit(exitcode::RUNTIME)
            });
        println!(
            "corpus replay: {} reproducer(s), {} regression(s)",
            report.replayed,
            report.regressions.len()
        );
        exit(if report.regressions.is_empty() {
            exitcode::OK
        } else {
            exitcode::FINDINGS
        })
    }

    let corpus_dir = corpus.as_ref().map(std::path::Path::new);
    let summary = spear_fuzz::fuzz(seconds, seed, corpus_dir, |line| println!("{line}"));
    println!(
        "fuzz: {} programs ({} golden insts) in {:.1}s, {} divergence(s); \
         {} episodes completed, {} inclusion diagnostics",
        summary.programs,
        summary.golden_insts,
        summary.elapsed_secs,
        summary.divergences,
        summary.episodes_completed,
        summary.inclusion_violations
    );
    for f in &summary.findings {
        println!(
            "  reproducer: [{}] {} ({} static / {} dynamic insts){}",
            f.repro.found_config,
            f.repro.found_kind,
            f.repro.static_insts,
            f.repro.golden_icount,
            match &f.saved_to {
                Some(p) if p.as_os_str().is_empty() => " [write failed]".to_string(),
                Some(p) => format!(" -> {}", p.display()),
                None => String::new(),
            }
        );
    }
    exit(if summary.divergences == 0 {
        exitcode::OK
    } else {
        exitcode::FINDINGS
    })
}

/// The `dump-config` subcommand: print the fully resolved [`CoreConfig`]
/// a machine model would run with, as pretty-printed JSON. Useful for
/// diffing machine models and for documenting exactly what a paper figure
/// was produced with.
fn dump_config_main(args: Vec<String>) -> ! {
    let mut machine = Machine::Baseline;
    let mut bpred: Option<spear_bpred::PredictorConfig> = None;
    let mut latency: Option<LatencyConfig> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-m" | "--machine" => machine = parse_machine(&next_val(&mut it, "-m")),
            "--bpred" => bpred = Some(parse_bpred(&next_val(&mut it, "--bpred"))),
            "--mem-latency" => {
                let mem: u32 = next_num(&mut it, "--mem-latency");
                latency = Some(LatencyConfig::sweep_point(mem));
            }
            _ => {
                eprintln!("spear-sim: unrecognized dump-config argument `{arg}`");
                usage()
            }
        }
    }
    let mut cfg = machine.config(latency);
    if let Some(bp) = bpred {
        cfg.bpred = bp;
    }
    // The resolved config JSON carries the predictor kind and sizing; the
    // derived direction-table geometry is summarized on stderr so the
    // stdout document stays pure config.
    let pred = spear_bpred::Predictor::new(cfg.bpred);
    let geom: Vec<String> = pred
        .geometry()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!(
        "# bpred {} ({}): {}",
        cfg.bpred.spec_label(),
        pred.kind().name(),
        geom.join(" ")
    );
    println!("{}", serde::json::to_string_pretty(&cfg));
    exit(exitcode::OK)
}

/// Compact duration for the completion line.
fn report_ms(ms: u64) -> String {
    if ms >= 1000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{ms}ms")
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "record" {
        record_main(args.split_off(1));
    }
    if args[0] == "campaign" {
        campaign_main(args.split_off(1));
    }
    if args[0] == "serve" {
        serve_main(args.split_off(1));
    }
    if args[0] == "client" {
        client_main(args.split_off(1));
    }
    if args[0] == "fuzz" {
        fuzz_main(args.split_off(1));
    }
    if args[0] == "dump-config" {
        dump_config_main(args.split_off(1));
    }
    if args[0] == "obs-summary" {
        obs_summary_main(args.split_off(1));
    }
    let mut file: Option<String> = None;
    let mut machine = Machine::Baseline;
    let mut bpred: Option<spear_bpred::PredictorConfig> = None;
    let mut latency: Option<LatencyConfig> = None;
    let mut max_cycles = u64::MAX;
    let mut max_insts = u64::MAX;
    let mut trace: Option<usize> = None;
    let mut quiet = false;
    let mut perf = false;
    let mut stats_json: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut pipeview: Option<String> = None;
    let mut perfetto: Option<String> = None;
    let mut window: Option<u64> = None;
    let mut frontend: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-m" | "--machine" => machine = parse_machine(&next_val(&mut it, "-m")),
            "--bpred" => bpred = Some(parse_bpred(&next_val(&mut it, "--bpred"))),
            "--mem-latency" => {
                let mem: u32 = next_num(&mut it, "--mem-latency");
                latency = Some(LatencyConfig::sweep_point(mem));
            }
            "--max-cycles" => max_cycles = next_num(&mut it, "--max-cycles"),
            "--max-insts" => max_insts = next_num(&mut it, "--max-insts"),
            "--trace" => trace = Some(next_num(&mut it, "--trace")),
            "--frontend" => frontend = Some(next_val(&mut it, "--frontend")),
            "--stats-json" => stats_json = Some(next_val(&mut it, "--stats-json")),
            "--trace-file" => trace_file = Some(next_val(&mut it, "--trace-file")),
            "--pipeview" => pipeview = Some(next_val(&mut it, "--pipeview")),
            "--perfetto" => perfetto = Some(next_val(&mut it, "--perfetto")),
            "--window" => {
                let n: u64 = next_num(&mut it, "--window");
                // 0 selects the default window length.
                window = Some(if n == 0 {
                    spear_cpu::DEFAULT_WINDOW_CYCLES
                } else {
                    n
                });
            }
            "--quiet" => quiet = true,
            "--perf" => perf = true,
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg),
            _ => {
                eprintln!("spear-sim: unrecognized argument `{arg}`");
                usage()
            }
        }
    }
    let Some(file) = file else { usage() };
    let mut cfg = machine.config(latency);
    if let Some(bp) = bpred {
        cfg.bpred = bp;
    }
    if let Err(e) = cfg.check_latency() {
        eprintln!("spear-sim: {e}");
        exit(exitcode::USAGE)
    }
    // Resolve the instruction supply. The default `program` front end
    // compiles/loads the positional argument and executes semantics at
    // dispatch; `--frontend trace:FILE` replays a recorded committed
    // path instead, fetching from the image embedded in the trace (the
    // positional argument then only names the stats envelope).
    let replay: Option<TraceFile> = match frontend.as_deref() {
        None | Some("program") => None,
        Some(spec) => {
            let Some(path) = spec.strip_prefix("trace:") else {
                eprintln!("spear-sim: --frontend expects `program` or `trace:FILE`, got `{spec}`");
                usage()
            };
            if let Err(e) = spear_campaign::check_trace_machine(machine.name(), &cfg) {
                eprintln!("spear-sim: {e}");
                exit(exitcode::USAGE)
            }
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("spear-sim: cannot read trace `{path}`: {e}");
                exit(exitcode::RUNTIME)
            });
            Some(TraceFile::decode(&bytes).unwrap_or_else(|e| {
                eprintln!("spear-sim: trace `{path}`: {e}");
                exit(exitcode::RUNTIME)
            }))
        }
    };
    let binary = match &replay {
        Some(_) => None,
        None => Some(load_input(&file)),
    };

    let bpred_label = cfg.bpred.spec_label();
    let commit_width = cfg.commit_width;
    let mem_latency = cfg.hier.latency.memory;
    // Every output file is opened before the run.
    let open = |path: Option<&str>| path.map(|p| (p.to_string(), create_output(p)));
    let trace_out = open(trace_file.as_deref());
    let pipeview_out = open(pipeview.as_deref());
    let perfetto_out = open(perfetto.as_deref());
    let stats_out = open(stats_json.as_deref());
    let mut core = match &replay {
        Some(tf) => Core::with_source(&tf.binary, cfg, Box::new(TraceSource::new(tf))),
        None => Core::new(binary.as_ref().expect("program front end"), cfg),
    };
    if let Some(cap) = trace {
        core.probe_mut().enable_ring(cap);
    }
    if let Some((_, f)) = trace_out {
        core.probe_mut().set_sink(Box::new(f));
    }
    let lifecycle = pipeview_out.is_some() || perfetto_out.is_some();
    if lifecycle {
        core.probe_mut()
            .enable_lifecycle(spear_cpu::DEFAULT_LIFECYCLE_CAP);
    }
    if let Some(len) = window {
        core.probe_mut().enable_windows(len);
    }
    let wall_start = std::time::Instant::now();
    let res = core.run(max_cycles, max_insts).unwrap_or_else(|e| {
        eprintln!("spear-sim: {e}");
        exit(exitcode::RUNTIME)
    });
    let wall = wall_start.elapsed();
    let s = &res.stats;
    let sim_perf = SimPerf::from_run(s.committed, s.cycles, wall);

    // Pipeline-timeline exports from the retained lifecycle records.
    if lifecycle {
        let log = core
            .probe()
            .and_then(|p| p.lifecycle.as_ref())
            .expect("lifecycle was enabled");
        if log.dropped > 0 {
            eprintln!(
                "spear-sim: lifecycle cap reached; {} record(s) dropped \
                 (shorten the run with --max-cycles/--max-insts)",
                log.dropped
            );
        }
        let export =
            |(path, file): (String, File),
             f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
                let mut w = BufWriter::new(file);
                f(&mut w)
                    .and_then(|()| w.into_inner().map_err(|e| e.into_error()).map(drop))
                    .unwrap_or_else(|e| {
                        eprintln!("spear-sim: cannot write `{path}`: {e}");
                        exit(exitcode::RUNTIME)
                    });
            };
        if let Some(out) = pipeview_out {
            export(out, &|w| spear::obs::write_konata(w, &log.records));
        }
        if let Some(out) = perfetto_out {
            export(out, &|w| {
                spear::obs::write_perfetto(w, &log.records, &log.samples)
            });
        }
    }

    if let Some((path, mut f)) = stats_out {
        let doc = StatsExport::new(
            file.clone(),
            machine.name(),
            mem_latency,
            res.exit,
            s.clone(),
        )
        .with_sim_perf(sim_perf)
        .with_bpred(&bpred_label)
        .with_frontend(if replay.is_some() { "trace" } else { "program" });
        f.write_all(doc.to_json().as_bytes()).unwrap_or_else(|e| {
            eprintln!("spear-sim: cannot write `{path}`: {e}");
            exit(exitcode::RUNTIME)
        });
    }

    println!("machine       {}", machine.name());
    println!("bpred         {bpred_label}");
    println!("exit          {:?}", res.exit);
    println!("cycles        {}", s.cycles);
    println!("committed     {}", s.committed);
    println!("IPC           {:.4}", s.ipc());
    if perf {
        println!("{}", sim_perf.summary());
    }
    if !quiet {
        println!(
            "loads/stores  {} / {}",
            s.committed_loads, s.committed_stores
        );
        println!(
            "branches      {} (IPB {:.2})",
            s.committed_branches,
            s.ipb()
        );
        println!("bpred hit     {:.4}", s.branch_hit_ratio());
        println!("recoveries    {} ({} squashed)", s.recoveries, s.squashed);
        println!(
            "L1D misses    {} main / {} p-thread",
            s.l1d_main_misses, s.l1d_pthread_misses
        );
        if machine.is_spear() {
            println!(
                "triggers      {} accepted / {} busy / {} below-occupancy",
                s.triggers_accepted, s.triggers_ignored_busy, s.triggers_rejected_occupancy
            );
            println!(
                "episodes      {} completed / {} flush-aborted / {} missed / {} re-armed",
                s.preexec_completed,
                s.preexec_aborted_flush,
                s.preexec_aborted_missed,
                s.preexec_retargets
            );
            println!(
                "p-thread      {} insts, {} loads, {} faults, {} live-in copy cycles",
                s.pthread_insts, s.pthread_loads, s.pthread_faults, s.livein_copy_cycles
            );
            println!(
                "prefetches    {} timely / {} late of {} issued",
                s.useful_prefetches, s.late_prefetches, s.pthread_loads
            );
            println!("episode len   {}", s.episode_cycles);
            println!("extractions   {}", s.episode_extractions);
        }
        println!("\nCPI stack:");
        print!("{}", report::cpi_stack(s, commit_width));
        if machine.is_spear() && !s.dload_profiles.is_empty() {
            println!("\nd-load prefetch profiles:");
            print!("{}", report::dload_profiles(s));
        }
    }
    // The in-memory episode trace prints after (never interleaved with)
    // the statistics block, and only when it retained something.
    if let Some(ring) = core.probe().and_then(|p| p.ring.as_ref()) {
        if !ring.is_empty() {
            println!(
                "\nepisode trace (last {} of {} events):",
                ring.len(),
                ring.total
            );
            for e in ring.events() {
                println!("  {e}");
            }
        }
    }
}
