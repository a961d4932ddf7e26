//! In-memory span recording around calls into the simulator's layers,
//! self-time attribution, and Chrome-trace export (opens in Perfetto).
//!
//! A span is named `<layer>.<function>`; `bench.*` spans belong to the
//! harness itself (thread roots, poll sleeps). Spans started on a thread
//! nest under that thread's open span; a worker thread's root span names
//! its parent explicitly, so a parallel phase's workers all hang off the
//! phase span that spawned them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Names of the spans that root one thread's work.
pub const THREAD_ROOTS: [&str; 2] = ["bench.replica", "bench.worker"];

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `<layer>.<function>`.
    pub name: String,
    /// Which traced replica run the span belongs to.
    pub run: u64,
    /// Small per-thread number.
    pub tid: u64,
    /// Start time, µs.
    pub start: f64,
    /// End time, µs.
    pub end: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn tid() -> u64 {
    TID.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed))
    })
}

/// Records spans when enabled; a disabled tracer only calls through.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    run: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            run: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start the next replica run: later spans carry its id.
    pub fn next_run(&self) {
        self.run.fetch_add(1, Ordering::Relaxed);
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Run `f` inside a span named `name`, nested under this thread's
    /// open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Run `f` inside a span with an explicit parent (a worker thread's
    /// root, whose cause is a span on the spawning thread).
    pub fn span_under<R>(&self, parent: Option<u64>, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = self.t0.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let end = self.t0.elapsed().as_secs_f64() * 1e6;
        OPEN.with(|o| o.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            run: self.run.load(Ordering::Relaxed),
            tid: tid(),
            start,
            end,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// For every span, in `spans` order, the time its children cover.
fn children_cover(spans: &[Span]) -> Vec<f64> {
    let mut kids: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| covered(kids.remove(&s.id).unwrap_or_default(), s.start, s.end))
        .collect()
}

/// Self time of every span, µs, in `spans` order: its duration minus
/// the part of it that its children cover. Children on other threads may
/// overlap one another; their union is what counts.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .zip(children_cover(spans))
        .map(|(s, c)| (s.end - s.start) - c)
        .collect()
}

/// The smallest share of any thread root's time that its child spans
/// cover: how much of each worker's busy time the spans account for.
pub fn min_coverage(spans: &[Span]) -> f64 {
    spans
        .iter()
        .zip(children_cover(spans))
        .filter(|(s, _)| THREAD_ROOTS.contains(&s.name.as_str()) && s.end > s.start)
        .map(|(s, c)| c / (s.end - s.start))
        .fold(1.0, f64::min)
}

/// Share of all recorded self time spent in spans of `layer`.
pub fn layer_share(spans: &[Span], selfs: &[f64], layer: &str) -> f64 {
    let total = selfs.iter().fold(0.0, |a, b| a + b);
    if total <= 0.0 {
        return 0.0;
    }
    let prefix = format!("{layer}.");
    let mine = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name.starts_with(&prefix))
        .fold(0.0, |a, (_, t)| a + t);
    mine / total
}

/// Chrome trace-event JSON: one complete event per span, one process per
/// replica run, one track per thread. Perfetto (ui.perfetto.dev) and
/// chrome://tracing open it directly.
pub fn chrome_trace(spans: &[Span]) -> String {
    use serde::Value;
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::U64(s.run)),
                ("tid".into(), Value::U64(s.tid)),
                ("ts".into(), Value::F64(s.start)),
                ("dur".into(), Value::F64(s.end - s.start)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::U64(s.id)),
                        ("parent".into(), s.parent.map_or(Value::Null, Value::U64)),
                    ]),
                ),
            ])
        })
        .collect();
    serde::json::to_string(&Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]))
}

/// Checks of the self-time and coverage rules, run by `--self-test`.
pub fn self_test() -> Result<(), String> {
    let span = |id, parent, name: &str, tid, start, end| Span {
        id,
        parent,
        name: name.to_string(),
        run: 0,
        tid,
        start,
        end,
    };
    // A phase span [0, 100] whose two worker roots overlap each other
    // ([10, 60] and [40, 90]); the first worker holds one child [10, 50].
    let spans = vec![
        span(0, None, "campaign.prepare", 0, 0.0, 100.0),
        span(1, Some(0), "bench.worker", 1, 10.0, 60.0),
        span(2, Some(0), "bench.worker", 2, 40.0, 90.0),
        span(3, Some(1), "exec.collect_bbvs", 1, 10.0, 50.0),
    ];
    let selfs = self_times(&spans);
    let want = [20.0, 10.0, 50.0, 40.0];
    for (i, (&got, &want)) in selfs.iter().zip(&want).enumerate() {
        if (got - want).abs() > 1e-9 {
            return Err(format!("span {i}: self time {got}, want {want}"));
        }
    }
    let cov = min_coverage(&spans);
    if cov != 0.0 {
        return Err(format!(
            "an uncovered worker must give coverage 0, got {cov}"
        ));
    }
    let share = layer_share(&spans, &selfs, "exec");
    if (share - 40.0 / 120.0).abs() > 1e-9 {
        return Err(format!("exec share {share}, want 1/3"));
    }
    // A recording tracer nests spans on one thread and times them.
    let t = Tracer::on();
    t.span("bench.replica", || t.span("cpu.run", || ()));
    let rec = t.spans();
    let (outer, inner) = match (
        rec.iter().find(|s| s.name == "bench.replica"),
        rec.iter().find(|s| s.name == "cpu.run"),
    ) {
        (Some(o), Some(i)) => (o, i),
        _ => return Err(format!("tracer recorded {rec:?}")),
    };
    if inner.parent != Some(outer.id) || inner.start < outer.start || inner.end > outer.end {
        return Err(format!("nesting broken: {outer:?} / {inner:?}"));
    }
    let off = Tracer::off();
    off.span("cpu.run", || ());
    if !off.spans().is_empty() {
        return Err("a disabled tracer recorded a span".into());
    }
    Ok(())
}
