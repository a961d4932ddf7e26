//! The resident campaign server: a TCP accept loop, a bounded job
//! queue, and a single runner thread that executes jobs FIFO through
//! the ordinary [`spear_campaign::Campaign`] machinery.
//!
//! Design invariants:
//!
//! * **One writer per campaign directory.** Jobs execute strictly one
//!   at a time (each using all `workers` threads internally), so no two
//!   jobs ever race on the filesystem, and a job's aggregates are
//!   written by [`spear_campaign::write_aggregate_envelopes`] — the
//!   same function the CLI uses, which makes server and CLI output
//!   byte-identical by construction.
//! * **One queue, under the registry lock.** The job list and the FIFO
//!   of queued ids share one `Mutex`, and the runner waits on the
//!   `Condvar` beside it. `POST /jobs` answers 429 when the queue holds
//!   `queue_cap` ids, before anything is written to disk, so a full
//!   queue is backpressure, not unbounded memory growth.
//! * **Nothing polls on the request or job paths.** The accept loop
//!   blocks in `accept` and the runner in `Condvar::wait`; shutdown
//!   wakes both. Only the signal watcher ticks, because a signal
//!   handler may do no more than set a flag.
//! * **Crash safety is the store's job.** The server never needs a
//!   clean shutdown to be correct: job state lives in marker files
//!   (see [`crate::jobs`]) and cell results in the campaign's
//!   append-only `cells.jsonl`. On start the server rescans `jobs/`
//!   and re-enqueues everything unfinished, so a `kill -9` costs at
//!   most the cells that were in flight.
//! * **Shutdown drains, it does not abort.** SIGTERM or
//!   `POST /shutdown` stops accepting connections, cancels the running
//!   campaign cooperatively (in-flight cells finish and are flushed),
//!   and leaves interrupted jobs unmarked so the next start resumes
//!   them.

use crate::http::{self, Request, Response};
use crate::jobs::{self, Job, JobState};
use serde::{Serialize, Value};
use spear_campaign::{
    Campaign, HeartbeatDoc, JobSpec, ProgressSnapshot, RunOptions, ShardCache, TraceCache,
};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often the signal watcher looks at [`SIGNALLED`].
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// Server configuration (the `spear-sim serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Server root: holds `jobs/` and `server.addr`.
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads per campaign (0 = all available cores).
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it get HTTP 429.
    pub queue_cap: usize,
    /// Checkpoint-shard cache budget in bytes.
    pub cache_bytes: u64,
}

impl ServeConfig {
    /// Defaults for everything but the root.
    pub fn new(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            root: root.into(),
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 16,
            cache_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Set by the SIGTERM/SIGINT handler; polled by every server's signal
/// watcher.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Install process-wide SIGTERM/SIGINT handlers that request a
/// graceful drain (idempotent; no-op off Unix). Kept separate from
/// [`Server::run`] so embedding tests can opt out.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(15, handler as usize); // SIGTERM
            signal(2, handler as usize); // SIGINT
        }
    }
}

/// Everything the registry lock guards.
struct Registry {
    /// Every known job, in submission order.
    jobs: Vec<Job>,
    /// Ids of the `Queued` jobs, in the order the runner takes them.
    /// Its length is the queue depth that `queue_cap` bounds.
    queue: VecDeque<String>,
}

struct State {
    root: PathBuf,
    local_addr: SocketAddr,
    workers: usize,
    queue_cap: usize,
    shutdown: AtomicBool,
    registry: Mutex<Registry>,
    /// Signalled when `registry.queue` gains an id or shutdown begins.
    wake: Condvar,
    cache: ShardCache,
    traces: TraceCache,
    started: Instant,
    http_requests: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_rejected: AtomicU64,
}

impl State {
    fn find<'a>(jobs: &'a mut [Job], id: &str) -> Option<&'a mut Job> {
        jobs.iter_mut().find(|j| j.id == id)
    }

    /// The job registry. A panic elsewhere while holding the lock leaves
    /// the registry usable: job state is re-derived from disk anyway.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Request a graceful drain (idempotent): cancel the running
    /// campaign, wake the runner so it exits once that campaign
    /// returns, and wake the accept loop with a connection to itself.
    /// Queued jobs simply stay queued on disk.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for job in self.registry().jobs.iter() {
            job.cancel.store(true, Ordering::SeqCst);
        }
        self.wake.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A bound, not-yet-running campaign server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind the listener, rescan the job store, queue its unfinished
    /// jobs oldest first, and advertise the actual address in
    /// `<root>/server.addr`. The restart backlog may exceed the queue
    /// capacity; new submissions then get 429 until it drains.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(cfg.root.join("jobs"))
            .map_err(|e| format!("cannot create {}: {e}", cfg.root.join("jobs").display()))?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;
        let addr_file = cfg.root.join("server.addr");
        std::fs::write(&addr_file, format!("{local_addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;

        let jobs = jobs::scan_jobs(&cfg.root)?;
        let queue = jobs
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id.clone())
            .collect();
        Ok(Server {
            listener,
            state: Arc::new(State {
                root: cfg.root.clone(),
                local_addr,
                workers: cfg.workers,
                queue_cap: cfg.queue_cap.max(1),
                shutdown: AtomicBool::new(false),
                registry: Mutex::new(Registry { jobs, queue }),
                wake: Condvar::new(),
                cache: ShardCache::new(cfg.cache_bytes),
                traces: TraceCache::new(cfg.cache_bytes),
                started: Instant::now(),
                http_requests: AtomicU64::new(0),
                jobs_submitted: AtomicU64::new(0),
                jobs_rejected: AtomicU64::new(0),
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serve until SIGTERM/`POST /shutdown`, then drain and return.
    /// Consumes the server; the runner thread is joined before this
    /// returns, so the job store is quiescent afterwards.
    pub fn run(self) -> Result<(), String> {
        let state = self.state;
        let runner = {
            let state = state.clone();
            std::thread::spawn(move || runner_loop(&state))
        };
        let watcher = {
            let state = state.clone();
            std::thread::spawn(move || {
                while !state.shutdown.load(Ordering::SeqCst) {
                    if SIGNALLED.load(Ordering::SeqCst) {
                        state.begin_shutdown();
                    }
                    std::thread::sleep(SIGNAL_POLL);
                }
            })
        };

        let mut accepted = Ok(());
        for stream in self.listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let state = state.clone();
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) => {
                    accepted = Err(format!("accept failed: {e}"));
                    break;
                }
            }
        }
        state.begin_shutdown();
        runner
            .join()
            .map_err(|_| "runner thread panicked".to_string())?;
        watcher
            .join()
            .map_err(|_| "signal watcher thread panicked".to_string())?;
        let _ = std::fs::remove_file(state.root.join("server.addr"));
        accepted
    }
}

/// The single job runner: FIFO over the queue, one campaign at a time,
/// each campaign using the server's full worker count. It checks for
/// shutdown under the registry lock it waits on, so a wake-up cannot
/// slip in between the check and the wait.
fn runner_loop(state: &State) {
    loop {
        let id = {
            let mut reg = state.registry();
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = reg.queue.pop_front() {
                    break id;
                }
                reg = state.wake.wait(reg).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_one(state, &id);
    }
}

/// Execute one job end to end and persist its terminal marker (or lack
/// of one, which is what makes an interrupted job resumable).
fn run_one(state: &State, id: &str) {
    let (spec, cancel) = {
        let mut reg = state.registry();
        let Some(job) = State::find(&mut reg.jobs, id) else {
            return;
        };
        if job.state != JobState::Queued {
            // Cancelled between the runner's pop and this lock.
            return;
        }
        job.state = JobState::Running;
        (job.spec.clone(), job.cancel.clone())
    };

    let finish = |st: JobState, error: Option<String>| {
        let mut reg = state.registry();
        if let Some(job) = State::find(&mut reg.jobs, id) {
            job.state = st;
            job.error = error;
        }
    };

    let fail = |e: String| {
        let _ = jobs::write_marker(
            &state.root,
            id,
            "error.json",
            &serde::json::to_string(&ErrorDoc { error: e.clone() }),
        );
        finish(JobState::Failed, Some(e));
    };

    let resolved = match spec.resolve(state.workers) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let cdir = jobs::campaign_dir(&state.root, id);
    // Captured now because the spec moves into the campaign: simpoint
    // envelopes carry a provenance block stamped at aggregation time.
    let envelope_simpoint = resolved
        .simpoint
        .map(|sp| (sp, resolved.sample.interval_len));
    let campaign = Campaign::new(&cdir, resolved);
    let on_progress = |p: &ProgressSnapshot| {
        let mut reg = state.registry();
        if let Some(job) = State::find(&mut reg.jobs, id) {
            job.progress = Some(*p);
        }
    };
    let summary = match campaign.run_with(&RunOptions {
        on_progress: Some(&on_progress),
        cancel: Some(&cancel),
        cache: Some(&state.cache),
        traces: Some(&state.traces),
    }) {
        Ok(summary) => summary,
        Err(e) => return fail(e),
    };

    if !summary.interrupted {
        return match spear_campaign::write_aggregate_envelopes(
            &cdir,
            &summary.results,
            envelope_simpoint,
        ) {
            Ok(files) => {
                let names: Vec<String> = files
                    .iter()
                    .filter_map(|p| p.file_name())
                    .map(|n| n.to_string_lossy().into_owned())
                    .collect();
                let _ = jobs::write_marker(
                    &state.root,
                    id,
                    "done.json",
                    &serde::json::to_string(&DoneDoc {
                        total_cells: summary.total_cells,
                        aggregates: names,
                    }),
                );
                finish(JobState::Done, None);
            }
            Err(e) => fail(e),
        };
    }
    let mut reg = state.registry();
    let Some(job) = State::find(&mut reg.jobs, id) else {
        return;
    };
    if job.cancel_requested {
        let _ = jobs::write_marker(&state.root, id, "cancelled.json", "{}\n");
        job.state = JobState::Cancelled;
        return;
    }
    // Interrupted by shutdown or a max_cells budget: no marker, so the
    // job resumes on the next server start. A max_cells pause goes to
    // the back of the queue, so the job keeps making progress in bounded
    // bursts.
    job.state = JobState::Queued;
    reg.queue.push_back(id.to_string());
}

#[derive(Serialize)]
struct ErrorDoc {
    error: String,
}

#[derive(Serialize)]
struct DoneDoc {
    total_cells: u64,
    aggregates: Vec<String>,
}

/// Serve one connection: keep-alive loop, pipelining via the shared
/// `BufReader`, bounded parsing with HTTP error mapping.
fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                state.http_requests.fetch_add(1, Ordering::Relaxed);
                let keep_alive = !req.wants_close() && !state.shutdown.load(Ordering::SeqCst);
                let resp = route(state, &req);
                if resp.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(e) => {
                if let Some(resp) = e.response() {
                    let _ = resp.write_to(&mut writer, false);
                }
                return;
            }
        }
    }
}

/// Dispatch one request.
fn route(state: &Arc<State>, req: &Request) -> Response {
    if req.method != "GET" && req.method != "POST" {
        return Response::error(405, &format!("method {} not allowed", req.method));
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"ok\":true}".into()),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/jobs") => list_jobs(state),
        ("POST", "/jobs") => submit(state, req),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            Response::json(200, "{\"shutting_down\":true}".into())
        }
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(id) = rest.strip_suffix("/aggregates") {
                    return if method == "GET" {
                        aggregates(state, id)
                    } else {
                        Response::error(405, "aggregates is GET-only")
                    };
                }
                if let Some(id) = rest.strip_suffix("/cancel") {
                    return if method == "POST" {
                        cancel(state, id)
                    } else {
                        Response::error(405, "cancel is POST-only")
                    };
                }
                if !rest.contains('/') {
                    return if method == "GET" {
                        job_status(state, rest)
                    } else {
                        Response::error(405, "job status is GET-only")
                    };
                }
            }
            if matches!(path, "/healthz" | "/metrics" | "/jobs" | "/shutdown") {
                return Response::error(405, &format!("{path} does not allow {method}"));
            }
            Response::error(404, &format!("no such endpoint `{path}`"))
        }
    }
}

/// `POST /jobs`: validate, persist, enqueue — 429 when the queue holds
/// `queue_cap` jobs, which is the server's backpressure contract.
fn submit(state: &Arc<State>, req: &Request) -> Response {
    if state.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, "server is shutting down");
    }
    let spec: JobSpec = match serde::json::from_str(&req.body_str()) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("invalid job spec: {e:?}")),
    };
    if let Err(e) = spec.resolve(state.workers) {
        return Response::error(400, &format!("invalid job spec: {e}"));
    }

    let id = {
        let mut reg = state.registry();
        if reg.queue.len() >= state.queue_cap {
            state.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::error(429, "job queue full; retry after a job finishes");
        }
        let id = jobs::next_id(&reg.jobs);
        let cdir = jobs::campaign_dir(&state.root, &id);
        if let Err(e) = std::fs::create_dir_all(&cdir) {
            return Response::error(503, &format!("cannot create job dir: {e}"));
        }
        let spec_path = jobs::job_dir(&state.root, &id).join("spec.json");
        if let Err(e) = std::fs::write(&spec_path, serde::json::to_string_pretty(&spec)) {
            return Response::error(503, &format!("cannot persist spec: {e}"));
        }
        reg.jobs.push(Job::new(id.clone(), spec, JobState::Queued));
        reg.queue.push_back(id.clone());
        id
    };
    state.wake.notify_all();
    state.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    Response::json(201, format!("{{\"id\":\"{id}\",\"state\":\"queued\"}}"))
}

/// `GET /jobs`: id + state for every known job, submission order.
fn list_jobs(state: &Arc<State>) -> Response {
    let reg = state.registry();
    let jobs: Vec<Value> = reg
        .jobs
        .iter()
        .map(|j| {
            Value::Object(vec![
                ("id".into(), Value::Str(j.id.clone())),
                ("state".into(), Value::Str(j.state.as_str().into())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("jobs".into(), Value::Array(jobs)),
        ("queue_depth".into(), Value::U64(reg.queue.len() as u64)),
        ("queue_cap".into(), Value::U64(state.queue_cap as u64)),
    ]);
    Response::json(200, serde::json::to_string(&doc))
}

/// `GET /jobs/<id>`: state, spec, live progress (falling back to the
/// campaign's persisted heartbeat for jobs not currently running).
fn job_status(state: &Arc<State>, id: &str) -> Response {
    let (job_state, spec, error, live) = {
        let reg = state.registry();
        let Some(job) = reg.jobs.iter().find(|j| j.id == id) else {
            return Response::error(404, &format!("no such job `{id}`"));
        };
        (job.state, job.spec.clone(), job.error.clone(), job.progress)
    };
    let progress = live.or_else(|| {
        let hb_path = jobs::campaign_dir(&state.root, id).join("progress.json");
        let text = std::fs::read_to_string(hb_path).ok()?;
        let hb: HeartbeatDoc = serde::json::from_str(&text).ok()?;
        Some(ProgressSnapshot {
            done: hb.done,
            total: hb.total,
            executed: hb.executed,
            elapsed_ms: hb.elapsed_ms,
            eta_ms: hb.eta_ms,
        })
    });
    let doc = Value::Object(vec![
        ("id".into(), Value::Str(id.to_string())),
        ("state".into(), Value::Str(job_state.as_str().into())),
        ("spec".into(), spec.to_value()),
        ("progress".into(), progress.to_value()),
        (
            "error".into(),
            match error {
                Some(e) => Value::Str(e),
                None => Value::Null,
            },
        ),
    ]);
    Response::json(200, serde::json::to_string(&doc))
}

/// `GET /jobs/<id>/aggregates`: the job's aggregate envelopes, spliced
/// into the response as raw bytes so each envelope stays byte-identical
/// to what the CLI writes.
fn aggregates(state: &Arc<State>, id: &str) -> Response {
    let job_state = {
        let reg = state.registry();
        let Some(job) = reg.jobs.iter().find(|j| j.id == id) else {
            return Response::error(404, &format!("no such job `{id}`"));
        };
        job.state
    };
    if job_state != JobState::Done {
        return Response::error(
            409,
            &format!("job `{id}` is {}, not done", job_state.as_str()),
        );
    }
    let agg_dir = jobs::campaign_dir(&state.root, id).join("aggregates");
    let mut names: Vec<String> = match std::fs::read_dir(&agg_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json"))
            .collect(),
        Err(e) => return Response::error(503, &format!("cannot read aggregates: {e}")),
    };
    names.sort();
    let mut body = format!("{{\"job\":\"{id}\",\"files\":{{");
    for (i, name) in names.iter().enumerate() {
        let raw = match std::fs::read_to_string(agg_dir.join(name)) {
            Ok(raw) => raw,
            Err(e) => return Response::error(503, &format!("cannot read {name}: {e}")),
        };
        if i > 0 {
            body.push(',');
        }
        body.push_str(&serde::json::to_string(&Value::Str(name.clone())));
        body.push(':');
        body.push_str(raw.trim_end());
    }
    body.push_str("}}");
    Response::json(200, body)
}

/// `POST /jobs/<id>/cancel`: cooperative — a queued job flips straight
/// to cancelled and leaves the queue; a running one drains its in-flight
/// cells first.
fn cancel(state: &Arc<State>, id: &str) -> Response {
    let mut guard = state.registry();
    let reg = &mut *guard;
    let Some(job) = State::find(&mut reg.jobs, id) else {
        return Response::error(404, &format!("no such job `{id}`"));
    };
    if job.state.is_terminal() {
        return Response::error(
            409,
            &format!("job `{id}` is already {}", job.state.as_str()),
        );
    }
    job.cancel_requested = true;
    job.cancel.store(true, Ordering::SeqCst);
    if job.state == JobState::Queued {
        job.state = JobState::Cancelled;
        let _ = jobs::write_marker(&state.root, id, "cancelled.json", "{}\n");
        reg.queue.retain(|q| q != id);
    }
    let current = job.state.as_str();
    Response::json(
        200,
        format!("{{\"id\":\"{id}\",\"state\":\"{current}\",\"cancel_requested\":true}}"),
    )
}

/// `GET /metrics`: Prometheus text exposition of server, queue, cache,
/// and running-job gauges.
fn metrics(state: &Arc<State>) -> Response {
    let mut out = String::new();
    let mut gauge = |name: &str, help: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "spear_serve_uptime_ms",
        "Milliseconds since the server started.",
        (state.started.elapsed().as_millis() as u64).to_string(),
    );
    gauge(
        "spear_serve_http_requests_total",
        "HTTP requests handled.",
        state.http_requests.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        "spear_serve_jobs_submitted_total",
        "Jobs accepted via POST /jobs.",
        state.jobs_submitted.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        "spear_serve_jobs_rejected_total",
        "Jobs rejected with 429 (queue full).",
        state.jobs_rejected.load(Ordering::Relaxed).to_string(),
    );
    gauge(
        "spear_serve_queue_depth",
        "Jobs waiting in the bounded queue.",
        state.registry().queue.len().to_string(),
    );
    gauge(
        "spear_serve_queue_cap",
        "Bounded queue capacity.",
        state.queue_cap.to_string(),
    );

    let (counts, running, running_bpreds) = {
        let reg = state.registry();
        let mut counts = [0u64; 5];
        let mut running: Option<ProgressSnapshot> = None;
        let mut running_bpreds: Vec<String> = Vec::new();
        for j in reg.jobs.iter() {
            let i = match j.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[i] += 1;
            if j.state == JobState::Running {
                running = j.progress;
                running_bpreds = if j.spec.bpreds.is_empty() {
                    vec!["bimodal".to_string()]
                } else {
                    j.spec.bpreds.clone()
                };
            }
        }
        (counts, running, running_bpreds)
    };
    for (i, name) in ["queued", "running", "done", "failed", "cancelled"]
        .iter()
        .enumerate()
    {
        gauge(
            &format!("spear_serve_jobs_{name}"),
            &format!("Jobs currently in state `{name}`."),
            counts[i].to_string(),
        );
    }
    if let Some(p) = running {
        gauge(
            "spear_serve_running_cells_done",
            "Cells finished in the running job.",
            p.done.to_string(),
        );
        gauge(
            "spear_serve_running_cells_total",
            "Total cells in the running job.",
            p.total.to_string(),
        );
        gauge(
            "spear_serve_running_eta_ms",
            "Estimated remaining ms for the running job.",
            match p.eta_ms {
                Some(v) => v.to_string(),
                None => "NaN".to_string(),
            },
        );
    }
    let cs = state.cache.stats();
    gauge(
        "spear_serve_shard_cache_hits",
        "Shard-cache lookups served from memory.",
        cs.hits.to_string(),
    );
    gauge(
        "spear_serve_shard_cache_misses",
        "Shard-cache lookups that built the shard.",
        cs.misses.to_string(),
    );
    gauge(
        "spear_serve_shard_cache_evictions",
        "Shards evicted under the byte budget.",
        cs.evictions.to_string(),
    );
    gauge(
        "spear_serve_shard_cache_resident_bytes",
        "Estimated bytes of resident shard state.",
        cs.resident_bytes.to_string(),
    );
    gauge(
        "spear_serve_shard_cache_entries",
        "Shards currently resident.",
        cs.entries.to_string(),
    );
    gauge(
        "spear_serve_shard_cache_budget_bytes",
        "Configured shard-cache byte budget.",
        state.cache.budget_bytes().to_string(),
    );
    let ts = state.traces.stats();
    gauge(
        "spear_serve_trace_cache_hits",
        "Trace-cache lookups served from memory.",
        ts.hits.to_string(),
    );
    gauge(
        "spear_serve_trace_cache_misses",
        "Trace-cache lookups that recorded the trace.",
        ts.misses.to_string(),
    );
    gauge(
        "spear_serve_trace_cache_evictions",
        "Traces evicted under the byte budget.",
        ts.evictions.to_string(),
    );
    gauge(
        "spear_serve_trace_cache_resident_bytes",
        "Estimated bytes of resident recorded traces.",
        ts.resident_bytes.to_string(),
    );
    gauge(
        "spear_serve_trace_cache_entries",
        "Recorded traces currently resident.",
        ts.entries.to_string(),
    );

    if !running_bpreds.is_empty() {
        // Active predictor kinds and their table geometry, one labeled
        // series per (spec, dimension) of the running job's grid.
        out.push_str(concat!(
            "# HELP spear_serve_running_bpred_geometry ",
            "Direction-table geometry of the running job's predictors.\n",
            "# TYPE spear_serve_running_bpred_geometry gauge\n"
        ));
        for spec in &running_bpreds {
            // Specs were validated at submission; skip defensively anyway.
            let Ok(cfg) = spear_bpred::PredictorConfig::paper().with_spec(spec) else {
                continue;
            };
            let label = cfg.spec_label();
            for (dim, value) in cfg.geometry() {
                out.push_str(&format!(
                    "spear_serve_running_bpred_geometry{{spec=\"{label}\",kind=\"{}\",dim=\"{dim}\"}} {value}\n",
                    cfg.kind.name(),
                ));
            }
        }
    }
    Response::text(200, out)
}
