//! `serve-jobs`: one client drives `spear-sim serve --workers 1` in a
//! closed loop. One operation is a pair of identical SimPoint jobs on a
//! fresh server: the first prepares every kernel's checkpoints, the
//! second must be answered from the server's shard cache with
//! byte-identical aggregates. This is the only workload that exercises
//! HTTP, the job queue and cross-job shard reuse. The server starts and
//! stops outside the timed part, so every pair finds the cache cold and
//! the server's peak memory does not depend on how many pairs a run
//! fits.

use crate::harness::{self, Bench, Ctx};
use crate::rusage::wait_with_peak;
use crate::spans::Tracer;
use crate::stats;
use serde::Value;
use spear_cpu::{Machine, StatsExport};
use spear_serve::client::{read_server_addr, request};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often the client polls a job's status.
const POLL: Duration = Duration::from_millis(10);

/// Longest a job may take before the client gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Shard-cache budget, far above what one job keeps warm.
const CACHE_MB: u64 = 1024;

/// A running `spear-sim serve` child.
pub struct Server {
    child: Option<Child>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Start a server over a fresh job store in `dir` and wait until
    /// `/healthz` answers 200.
    pub fn start(ctx: &Ctx, dir: &Path) -> Result<Server, String> {
        let mut server = Server::spawn(ctx, dir)?;
        server.wait_healthy(dir)?;
        Ok(server)
    }

    /// Start a server over a fresh job store in `dir` without waiting
    /// for it.
    fn spawn(ctx: &Ctx, dir: &Path) -> Result<Server, String> {
        let child = Command::new(&ctx.spear_sim)
            .args(["serve", "--dir"])
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--cache-mb"])
            .arg(CACHE_MB.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start spear-sim serve: {e}"))?;
        Ok(Server {
            child: Some(child),
            addr: String::new(),
        })
    }

    /// Wait until the server started over `dir` answers `/healthz`.
    fn wait_healthy(&mut self, dir: &Path) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(addr) = read_server_addr(dir) {
                if let Ok((200, _)) = request(&addr, "GET", "/healthz", None) {
                    self.addr = addr;
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("spear-sim serve did not become healthy in 30 s".into())
    }

    /// Ask the server to drain and exit, which it must do with 0;
    /// returns its peak resident memory in MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        let Some(mut child) = self.child.take() else {
            return Ok(0.0);
        };
        let asked = request(&self.addr, "POST", "/shutdown", None);
        if asked.is_err() {
            let _ = child.kill();
        }
        let (status, peak) = wait_with_peak(&child)?;
        asked?;
        if !status.success() {
            return Err(format!("spear-sim serve exited with {status}"));
        }
        Ok(peak)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The workload.
pub struct ServeJobs {
    kernels: Vec<&'static str>,
    scale: u32,
    seed: u64,
    interval: u64,
    digest: Option<&'static str>,
    server: Option<Server>,
    servers: u64,
    /// Golden dynamic instruction count per workload spec (set-up).
    totals: Vec<u64>,
    /// The first pair's checked answer; every later answer must equal
    /// it.
    reference: Option<String>,
    /// Peak resident memory of each operation's server, MiB.
    peaks: Vec<f64>,
}

/// Five memory-bound kernels at 2× in one job on the three Figure 6
/// machines; the seed picks the kernel order (the S-th permutation) and
/// offsets the clustering seed. `small` is the self-test's shrunken form.
pub fn serve_jobs(seed: u64, small: bool) -> ServeJobs {
    let base: Vec<&'static str> = if small {
        vec!["field", "pointer", "update"]
    } else {
        vec!["mcf", "art", "tr", "vpr", "equake"]
    };
    ServeJobs {
        kernels: nth_permutation(&base, seed),
        scale: if small { 1 } else { 2 },
        seed,
        interval: 5_000,
        digest: (seed == 0 && !small)
            .then(|| harness::recorded_digest("serve-jobs"))
            .flatten(),
        server: None,
        servers: 0,
        totals: Vec::new(),
        reference: None,
        peaks: Vec::new(),
    }
}

/// The `n`-th permutation of `items` in lexicographic order of
/// positions (`n` taken modulo the number of permutations); 0 is the
/// identity.
fn nth_permutation<T: Clone>(items: &[T], n: u64) -> Vec<T> {
    let mut rest: Vec<T> = items.to_vec();
    let count: u64 = (1..=items.len() as u64).product();
    let mut n = n % count.max(1);
    let mut out = Vec::with_capacity(items.len());
    while !rest.is_empty() {
        let f: u64 = (1..rest.len() as u64).product();
        out.push(rest.remove((n / f) as usize));
        n %= f;
    }
    out
}

impl ServeJobs {
    fn specs(&self) -> Vec<String> {
        self.kernels
            .iter()
            .map(|k| format!("{k}@x{}", self.scale))
            .collect()
    }

    /// The job spec: every kernel on the three Figure 6 machines, k = 5.
    fn job_spec(&self) -> String {
        let workloads = self.specs().into_iter().map(Value::Str).collect();
        let machines = Machine::FIG6
            .iter()
            .map(|&m| Value::Str(harness::cli_name(m).to_string()))
            .collect();
        serde::json::to_string(&Value::Object(vec![
            ("workloads".into(), Value::Array(workloads)),
            ("machines".into(), Value::Array(machines)),
            ("interval".into(), Value::U64(self.interval)),
            ("simpoint_k".into(), Value::U64(5)),
            ("simpoint_seed".into(), Value::U64(42 + self.seed)),
        ]))
    }

    /// Submit one job, poll it to completion, and return the envelope
    /// part of its aggregates response.
    fn run_job(&self, addr: &str, spec: &str, tracer: &Tracer) -> Result<String, String> {
        let (status, text) = tracer.span("serve.submit", || {
            request(addr, "POST", "/jobs", Some(spec))
        })?;
        if status != 201 {
            return Err(format!("POST /jobs answered {status}: {text}"));
        }
        let id = json_str(&text, "id")?;
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let path = format!("/jobs/{id}");
            let (status, text) =
                tracer.span("serve.status", || request(addr, "GET", &path, None))?;
            if status != 200 {
                return Err(format!("GET {path} answered {status}: {text}"));
            }
            match json_str(&text, "state")?.as_str() {
                "done" => break,
                "failed" | "cancelled" => return Err(format!("job {id} ended: {text}")),
                _ if Instant::now() > deadline => {
                    return Err(format!("job {id} unfinished after {JOB_TIMEOUT:?}"))
                }
                _ => tracer.span("bench.poll_wait", || std::thread::sleep(POLL)),
            }
        }
        let path = format!("/jobs/{id}/aggregates");
        let (status, body) =
            tracer.span("serve.aggregates", || request(addr, "GET", &path, None))?;
        if status != 200 {
            return Err(format!("GET {path} answered {status}: {body}"));
        }
        // The body is {"job":"<id>","files":{...}}; only the files part
        // is comparable across jobs.
        body.split_once("\"files\":")
            .and_then(|(_, files)| files.strip_suffix('}'))
            .map(str::to_string)
            .ok_or_else(|| format!("malformed aggregates response for {id}"))
    }

    /// Check one job's envelopes against the golden instruction counts.
    fn check_job(&self, files: &str) -> Result<(), String> {
        let Value::Object(envelopes) = serde::json::parse(files).map_err(|e| e.to_string())? else {
            return Err("aggregates `files` is not an object".into());
        };
        let want = self.kernels.len() * Machine::FIG6.len();
        if envelopes.len() != want {
            return Err(format!(
                "{} envelopes in a job, want {want}",
                envelopes.len()
            ));
        }
        for (name, v) in &envelopes {
            let doc: StatsExport =
                serde::Deserialize::from_value(v).map_err(|e| format!("{name}: {e}"))?;
            let total = self
                .specs()
                .iter()
                .position(|s| *s == doc.workload)
                .map(|k| self.totals[k])
                .ok_or_else(|| format!("{name}: unexpected workload `{}`", doc.workload))?;
            let intervals = total.div_ceil(self.interval);
            match doc.simpoint {
                Some(b) if b.intervals == intervals && b.phases <= 5 => {}
                other => {
                    return Err(format!(
                        "{name}: simpoint block {other:?} does not cover {intervals} intervals"
                    ))
                }
            }
        }
        Ok(())
    }

    fn server_dir(&mut self, ctx: &Ctx) -> Result<std::path::PathBuf, String> {
        self.servers += 1;
        ctx.fresh_dir(&format!("serve-{}", self.servers))
    }

    fn start_server(&mut self, ctx: &Ctx) -> Result<(), String> {
        let dir = self.server_dir(ctx)?;
        self.server = Some(Server::start(ctx, &dir)?);
        Ok(())
    }

    /// One pair of jobs on the server set-up started, or on a fresh one;
    /// the server is stopped afterwards, and only the jobs are timed.
    fn pair(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<f64, String> {
        if self.server.is_none() {
            tracer.span("bench.server_start", || self.start_server(ctx))?;
        }
        let server = self.server.take().expect("started above");
        let spec = self.job_spec();
        let t0 = Instant::now();
        let answers = self
            .run_job(&server.addr, &spec, tracer)
            .and_then(|cold| Ok((cold, self.run_job(&server.addr, &spec, tracer)?)));
        let secs = t0.elapsed().as_secs_f64();
        let peak = tracer.span("bench.server_stop", || server.stop())?;
        self.peaks.push(peak);
        let (cold, warm) = answers?;
        if cold != warm {
            return Err("the repeated job returned different aggregates".into());
        }
        match &self.reference {
            Some(first) if *first != cold => {
                return Err("aggregates differ from this run's first pair".into())
            }
            Some(_) => {}
            None => {
                self.check_job(&cold)?;
                let named = [(spec, cold.clone().into_bytes())];
                harness::check_digest("serve-jobs", self.digest, &stats::digest_files(&named))?;
                self.reference = Some(cold);
            }
        }
        Ok(secs)
    }
}

/// A string field of a JSON object.
fn json_str(text: &str, field: &str) -> Result<String, String> {
    match serde::json::parse(text).map(|v| v.field(field).cloned()) {
        Ok(Ok(Value::Str(s))) => Ok(s),
        _ => Err(format!("no string `{field}` in {text}")),
    }
}

impl Bench for ServeJobs {
    /// Start the server, build the references while it boots, then wait
    /// until it answers.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let dir = self.server_dir(ctx)?;
        let mut server = Server::spawn(ctx, &dir)?;
        self.totals = harness::golden_counts(&self.specs())?;
        server.wait_healthy(&dir)?;
        self.server = Some(server);
        Ok(())
    }

    fn op(&mut self, ctx: &Ctx) -> Result<f64, String> {
        self.pair(ctx, &Tracer::off())
    }

    fn replica(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<f64, String> {
        tracer.span("bench.replica", || self.pair(ctx, tracer))
    }

    /// The median of the operations' server peaks: a server's own peak
    /// varies by a few MiB with thread timing, which one server in a run
    /// would otherwise decide.
    fn finish(&mut self, _ctx: &Ctx) -> Result<f64, String> {
        if let Some(server) = self.server.take() {
            server.stop()?;
        }
        Ok(stats::median(&self.peaks))
    }

    fn kernels(&self) -> Vec<&'static str> {
        self.kernels.clone()
    }
}

/// Checks of the seed-to-permutation rule, run by `--self-test`.
pub fn self_test() -> Result<(), String> {
    let items = [1, 2, 3];
    let all: Vec<Vec<i32>> = (0..6).map(|n| nth_permutation(&items, n)).collect();
    let want = vec![
        vec![1, 2, 3],
        vec![1, 3, 2],
        vec![2, 1, 3],
        vec![2, 3, 1],
        vec![3, 1, 2],
        vec![3, 2, 1],
    ];
    if all != want || nth_permutation(&items, 6) != items {
        return Err(format!("permutations {all:?}"));
    }
    Ok(())
}
