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
//! * **The queue is bounded.** `POST /jobs` uses `try_send`; a full
//!   queue is an HTTP 429, not unbounded memory growth.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the accept loop polls for shutdown while the listener is
/// nonblocking.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// How often the runner re-checks for shutdown while the queue is idle.
const RUNNER_POLL: Duration = Duration::from_millis(100);

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

/// Set by the SIGTERM/SIGINT handler; polled by every accept loop.
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

struct State {
    root: PathBuf,
    workers: usize,
    queue_cap: usize,
    shutdown: AtomicBool,
    registry: Mutex<Vec<Job>>,
    tx: SyncSender<String>,
    /// Jobs offered to the queue and not yet taken by the runner.
    queued: AtomicUsize,
    cache: ShardCache,
    traces: TraceCache,
    started: Instant,
    http_requests: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_rejected: AtomicU64,
}

impl State {
    fn find<'a>(reg: &'a mut [Job], id: &str) -> Option<&'a mut Job> {
        reg.iter_mut().find(|j| j.id == id)
    }

    /// The job registry. A panic elsewhere while holding the lock leaves
    /// the registry usable: job state is re-derived from disk anyway.
    fn registry(&self) -> MutexGuard<'_, Vec<Job>> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offer a job to the bounded queue without blocking.
    fn try_enqueue(&self, id: String) -> Result<(), TrySendError<String>> {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.tx.try_send(id).inspect_err(|_| {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        })
    }

    /// Request a graceful drain: stop accepting, cancel the running
    /// campaign (queued jobs simply stay queued on disk).
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for job in self.registry().iter() {
            job.cancel.store(true, Ordering::SeqCst);
        }
    }
}

/// A bound, not-yet-running campaign server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<State>,
    rx: Receiver<String>,
}

impl Server {
    /// Bind the listener, rescan the job store, and advertise the
    /// actual address in `<root>/server.addr`.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(cfg.root.join("jobs"))
            .map_err(|e| format!("cannot create {}: {e}", cfg.root.join("jobs").display()))?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let addr_file = cfg.root.join("server.addr");
        std::fs::write(&addr_file, format!("{local_addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;

        let registry = jobs::scan_jobs(&cfg.root)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_cap.max(1));
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(State {
                root: cfg.root.clone(),
                workers: cfg.workers,
                queue_cap: cfg.queue_cap.max(1),
                shutdown: AtomicBool::new(false),
                registry: Mutex::new(registry),
                tx,
                queued: AtomicUsize::new(0),
                cache: ShardCache::new(cfg.cache_bytes),
                traces: TraceCache::new(cfg.cache_bytes),
                started: Instant::now(),
                http_requests: AtomicU64::new(0),
                jobs_submitted: AtomicU64::new(0),
                jobs_rejected: AtomicU64::new(0),
            }),
            rx,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until SIGTERM/`POST /shutdown`, then drain and return.
    /// Consumes the server; the runner thread is joined before this
    /// returns, so the job store is quiescent afterwards.
    pub fn run(self) -> Result<(), String> {
        let state = self.state;
        let runner = {
            let state = state.clone();
            let rx = self.rx;
            std::thread::spawn(move || runner_loop(&state, &rx))
        };

        // Re-enqueue unfinished jobs from before a restart, oldest
        // first. A blocking send from a side thread keeps startup
        // responsive even when there are more unfinished jobs than
        // queue slots — the runner drains as we feed.
        let backlog: Vec<String> = state
            .registry()
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id.clone())
            .collect();
        let refeed = {
            let state = state.clone();
            std::thread::spawn(move || {
                for id in backlog {
                    state.queued.fetch_add(1, Ordering::SeqCst);
                    if state.tx.send(id).is_err() {
                        state.queued.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                }
            })
        };

        while !state.shutdown.load(Ordering::SeqCst) && !SIGNALLED.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = state.clone();
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        state.begin_shutdown();
        let _ = refeed.join();
        runner
            .join()
            .map_err(|_| "runner thread panicked".to_string())?;
        let _ = std::fs::remove_file(state.root.join("server.addr"));
        Ok(())
    }
}

/// The single job runner: FIFO over the bounded queue, one campaign at
/// a time, each campaign using the server's full worker count.
///
/// A job paused by its `max_cells` budget goes around again behind the
/// jobs queued when it paused. It waits in a runner-local list, never in
/// the channel: the runner is the channel's only consumer, so a blocking
/// send from here would deadlock on a full queue, and a failed `try_send`
/// would strand the job.
fn runner_loop(state: &State, rx: &Receiver<String>) {
    // Paused jobs, oldest first, each with the number of channel jobs
    // still ahead of it.
    let mut paused: VecDeque<(String, usize)> = VecDeque::new();
    while !state.shutdown.load(Ordering::SeqCst) {
        let received = match paused.front() {
            None => match rx.recv_timeout(RUNNER_POLL) {
                Ok(id) => Some(id),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            // An empty channel means nothing is ahead after all (the
            // count may include a submission that was then refused).
            Some(&(_, ahead)) if ahead > 0 => rx.try_recv().ok(),
            Some(_) => None,
        };
        let id = match received {
            Some(id) => {
                for (_, ahead) in paused.iter_mut() {
                    *ahead = ahead.saturating_sub(1);
                }
                id
            }
            None => paused.pop_front().expect("a paused job is due").0,
        };
        state.queued.fetch_sub(1, Ordering::SeqCst);
        if run_one(state, &id) {
            let ahead = state
                .queued
                .load(Ordering::SeqCst)
                .saturating_sub(paused.len());
            state.queued.fetch_add(1, Ordering::SeqCst);
            paused.push_back((id, ahead));
        }
    }
}

/// Execute one job end to end and persist its terminal marker (or lack
/// of one, which is what makes an interrupted job resumable). Returns
/// true when the job paused on its `max_cells` budget mid-session and
/// should run again.
fn run_one(state: &State, id: &str) -> bool {
    let (spec, cancel) = {
        let mut reg = state.registry();
        let Some(job) = State::find(&mut reg, id) else {
            return false;
        };
        if job.state != JobState::Queued {
            // Cancelled while queued (or a stale re-enqueue).
            return false;
        }
        job.state = JobState::Running;
        (job.spec.clone(), job.cancel.clone())
    };

    let finish = |st: JobState, error: Option<String>| {
        let mut reg = state.registry();
        if let Some(job) = State::find(&mut reg, id) {
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
        false
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
        if let Some(job) = State::find(&mut reg, id) {
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
                false
            }
            Err(e) => fail(e),
        };
    }
    let user_cancelled = {
        let mut reg = state.registry();
        State::find(&mut reg, id).is_some_and(|j| j.cancel_requested)
    };
    if user_cancelled {
        let _ = jobs::write_marker(&state.root, id, "cancelled.json", "{}\n");
        finish(JobState::Cancelled, None);
        return false;
    }
    // Interrupted by shutdown or a max_cells budget: no marker, so the
    // job resumes on the next server start. A max_cells pause mid-session
    // goes around again, so the job keeps making progress in bounded
    // bursts.
    finish(JobState::Queued, None);
    !state.shutdown.load(Ordering::SeqCst)
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
    let _ = stream.set_nonblocking(false);
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

/// `POST /jobs`: validate, persist, enqueue — 429 when the queue is
/// full, which is the server's backpressure contract.
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
        let id = jobs::next_id(&reg);
        let cdir = jobs::campaign_dir(&state.root, &id);
        if let Err(e) = std::fs::create_dir_all(&cdir) {
            return Response::error(503, &format!("cannot create job dir: {e}"));
        }
        let spec_path = jobs::job_dir(&state.root, &id).join("spec.json");
        if let Err(e) = std::fs::write(&spec_path, serde::json::to_string_pretty(&spec)) {
            return Response::error(503, &format!("cannot persist spec: {e}"));
        }
        reg.push(Job::new(id.clone(), spec, JobState::Queued));
        id
    };

    match state.try_enqueue(id.clone()) {
        Ok(()) => {
            state.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            Response::json(201, format!("{{\"id\":\"{id}\",\"state\":\"queued\"}}"))
        }
        Err(TrySendError::Full(_)) => {
            state.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            let mut reg = state.registry();
            reg.retain(|j| j.id != id);
            let _ = std::fs::remove_dir_all(jobs::job_dir(&state.root, &id));
            Response::error(429, "job queue full; retry after a job finishes")
        }
        Err(TrySendError::Disconnected(_)) => Response::error(503, "server is shutting down"),
    }
}

/// `GET /jobs`: id + state for every known job, submission order.
fn list_jobs(state: &Arc<State>) -> Response {
    let reg = state.registry();
    let jobs: Vec<Value> = reg
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
        (
            "queue_depth".into(),
            Value::U64(state.queued.load(Ordering::SeqCst) as u64),
        ),
        ("queue_cap".into(), Value::U64(state.queue_cap as u64)),
    ]);
    Response::json(200, serde::json::to_string(&doc))
}

/// `GET /jobs/<id>`: state, spec, live progress (falling back to the
/// campaign's persisted heartbeat for jobs not currently running).
fn job_status(state: &Arc<State>, id: &str) -> Response {
    let (job_state, spec, error, live) = {
        let reg = state.registry();
        let Some(job) = reg.iter().find(|j| j.id == id) else {
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
        let Some(job) = reg.iter().find(|j| j.id == id) else {
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
/// to cancelled; a running one drains its in-flight cells first.
fn cancel(state: &Arc<State>, id: &str) -> Response {
    let mut reg = state.registry();
    let Some(job) = State::find(&mut reg, id) else {
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
        state.queued.load(Ordering::SeqCst).to_string(),
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
        for j in reg.iter() {
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
            let pred = spear_bpred::Predictor::new(cfg);
            let label = cfg.spec_label();
            for (dim, value) in pred.geometry() {
                out.push_str(&format!(
                    "spear_serve_running_bpred_geometry{{spec=\"{label}\",kind=\"{}\",dim=\"{dim}\"}} {value}\n",
                    pred.kind().name(),
                ));
            }
        }
    }
    Response::text(200, out)
}
