//! The simulated-time probe: one recorder for every pipeline event the
//! observability outputs are built from.
//!
//! [`Pipeline::probe`] is `None` by default, so a run without
//! observability pays one branch per recording site. When present, the
//! [`Probe`] carries four independent optional parts:
//!
//! * the **episode ring** (`spear-sim --trace N`): the most recent SPEAR
//!   front-end events (trigger, live-in copy, extraction, episode end,
//!   flush) in a bounded in-memory log;
//! * the **JSONL sink** (`--trace-file`): every event — the episode events
//!   plus the high-volume ones (commits, cache-line fills, closed
//!   windows) — as one JSON object per line;
//! * the **lifecycle log** (`--pipeview` / `--perfetto`): one
//!   [`LifeRecord`] per instruction that leaves the RUU — committed,
//!   spec-retired or squashed — with its fetch/dispatch/issue/complete/end
//!   stamps, plus change-compressed [`CounterSample`]s of the IFQ
//!   occupancy and outstanding misses. The exporters in `spear-core` fold
//!   these into Konata and Perfetto views;
//! * the **window accumulator** (`--window`): closes a [`WindowStat`]
//!   every `len` cycles by differencing the cumulative counters. Closed
//!   windows land in `CoreStats::windows` (so they ride through merge,
//!   checkpointed sampling and the stats-json envelope) and stream to the
//!   sink.
//!
//! The pipeline reaches the probe through three funnels:
//! [`Pipeline::emit`] for events, [`Pipeline::retire`] once per RUU exit,
//! and the end-of-cycle / end-of-run hooks `on_cycle_end` and
//! `on_run_end`.

use crate::ctx::{MAIN_CTX, PTHREAD_CTX};
use crate::pipeline::{EState, Pipeline, RuuEntry};
use crate::stats::{CoreStats, CycleAccount, WindowStat};
use serde::{Serialize, Value};
use spear_isa::Inst;
use spear_mem::Hierarchy;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufWriter, Write};

/// Default telemetry window length in cycles (`--window <n>` overrides).
pub const DEFAULT_WINDOW_CYCLES: u64 = 10_000;

/// Default cap on retained lifecycle records and counter samples.
pub const DEFAULT_LIFECYCLE_CAP: usize = 1_000_000;

/// Eagerly preallocated ring slots. The `VecDeque` grows lazily past
/// this, so a huge `--trace` capacity does not allocate gigabytes up
/// front; retention always honours the full requested capacity.
const PREALLOC_CAP: usize = 4096;

/// Flush the sink every this many JSONL lines, so a killed or crashed
/// run leaves at most this many lines (plus the `BufWriter` tail) behind
/// in memory instead of an unbounded buffered suffix.
const SINK_FLUSH_EVERY: usize = 256;

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A d-load detection was accepted as a trigger.
    Trigger {
        /// Cycle of acceptance.
        cycle: u64,
        /// Static d-load PC.
        dload_pc: u32,
        /// IFQ occupancy at detection.
        occupancy: usize,
    },
    /// Live-in copying finished; the PE was armed.
    LiveInsCopied {
        /// Cycle the PE went active.
        cycle: u64,
        /// Registers copied.
        count: usize,
    },
    /// The PE extracted an instruction into a speculative context.
    Extract {
        /// Cycle of extraction.
        cycle: u64,
        /// Instruction PC.
        pc: u32,
        /// True for the episode-terminating d-load.
        is_trigger: bool,
        /// Hardware context the instruction was extracted into.
        ctx: usize,
    },
    /// The episode finished (its d-load retired from the p-thread RUU).
    EpisodeComplete {
        /// Completion cycle.
        cycle: u64,
    },
    /// The episode was abandoned.
    EpisodeAborted {
        /// Abort cycle.
        cycle: u64,
        /// Why.
        reason: AbortReason,
    },
    /// A branch misprediction flushed the IFQ.
    Flush {
        /// Recovery cycle.
        cycle: u64,
        /// PC fetch restarted from.
        redirect_pc: u32,
    },
    /// An L1D cache-line fill was requested (demand miss or prefetch).
    /// Streamed to the sink only — too frequent for the bounded ring.
    Fill {
        /// Cycle the fill was requested.
        cycle: u64,
        /// Byte address of the filled block.
        block_addr: u64,
        /// Cycles until the line arrives.
        latency: u32,
        /// True if a speculative context (a prefetch) requested it.
        pthread: bool,
        /// Hardware context that requested the fill.
        ctx: usize,
    },
    /// A main-thread instruction committed. Streamed to the sink only.
    Commit {
        /// Commit cycle.
        cycle: u64,
        /// Instruction PC.
        pc: u32,
        /// Hardware context that committed it (always the main context).
        ctx: usize,
    },
    /// A telemetry window closed. Streamed to the sink only; the window
    /// counters are flattened into the JSON object alongside `event`.
    Window {
        /// The closed window's counters.
        stat: WindowStat,
    },
}

/// Why an episode was abandoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// An IFQ flush emptied the queue (paper behaviour).
    Flush,
    /// Main decode consumed the triggering d-load first.
    MissedTrigger,
    /// The triggering d-load's speculative address faulted.
    Fault,
}

impl AbortReason {
    fn name(&self) -> &'static str {
        match self {
            AbortReason::Flush => "flush",
            AbortReason::MissedTrigger => "missed_trigger",
            AbortReason::Fault => "fault",
        }
    }
}

impl Event {
    /// Short machine-readable event name (the JSONL `event` field).
    pub fn name(&self) -> &'static str {
        match self {
            Event::Trigger { .. } => "trigger",
            Event::LiveInsCopied { .. } => "livein_copied",
            Event::Extract { .. } => "extract",
            Event::EpisodeComplete { .. } => "episode_complete",
            Event::EpisodeAborted { .. } => "episode_aborted",
            Event::Flush { .. } => "flush",
            Event::Fill { .. } => "fill",
            Event::Commit { .. } => "commit",
            Event::Window { .. } => "window",
        }
    }

    /// True for the episode and flush events the bounded ring keeps; the
    /// per-instruction, per-fill and per-window events go to the sink only.
    pub fn in_ring(&self) -> bool {
        !matches!(
            self,
            Event::Fill { .. } | Event::Commit { .. } | Event::Window { .. }
        )
    }
}

// Enum variants carry data, which the derive does not cover — build the
// tagged object by hand so every event serializes as
// `{"event": "...", "cycle": N, ...}`.
impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut f: Vec<(String, Value)> = vec![("event".into(), Value::Str(self.name().into()))];
        let mut put = |k: &str, v: Value| f.push((k.into(), v));
        match *self {
            Event::Trigger {
                cycle,
                dload_pc,
                occupancy,
            } => {
                put("cycle", Value::U64(cycle));
                put("dload_pc", Value::U64(dload_pc as u64));
                put("occupancy", Value::U64(occupancy as u64));
            }
            Event::LiveInsCopied { cycle, count } => {
                put("cycle", Value::U64(cycle));
                put("count", Value::U64(count as u64));
            }
            Event::Extract {
                cycle,
                pc,
                is_trigger,
                ctx,
            } => {
                put("cycle", Value::U64(cycle));
                put("pc", Value::U64(pc as u64));
                put("is_trigger", Value::Bool(is_trigger));
                put("ctx", Value::U64(ctx as u64));
            }
            Event::EpisodeComplete { cycle } => put("cycle", Value::U64(cycle)),
            Event::EpisodeAborted { cycle, reason } => {
                put("cycle", Value::U64(cycle));
                put("reason", Value::Str(reason.name().into()));
            }
            Event::Flush { cycle, redirect_pc } => {
                put("cycle", Value::U64(cycle));
                put("redirect_pc", Value::U64(redirect_pc as u64));
            }
            Event::Fill {
                cycle,
                block_addr,
                latency,
                pthread,
                ctx,
            } => {
                put("cycle", Value::U64(cycle));
                put("block_addr", Value::U64(block_addr));
                put("latency", Value::U64(latency as u64));
                put("pthread", Value::Bool(pthread));
                put("ctx", Value::U64(ctx as u64));
            }
            Event::Commit { cycle, pc, ctx } => {
                put("cycle", Value::U64(cycle));
                put("pc", Value::U64(pc as u64));
                put("ctx", Value::U64(ctx as u64));
            }
            Event::Window { ref stat } => {
                // Flatten the window's own fields into the tagged object.
                if let Value::Object(fields) = stat.to_value() {
                    f.extend(fields);
                }
            }
        }
        Value::Object(f)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Trigger {
                cycle,
                dload_pc,
                occupancy,
            } => write!(
                f,
                "[{cycle:>9}] trigger      d-load @{dload_pc} (IFQ occupancy {occupancy})"
            ),
            Event::LiveInsCopied { cycle, count } => {
                write!(
                    f,
                    "[{cycle:>9}] live-ins     {count} register(s) copied; PE armed"
                )
            }
            Event::Extract {
                cycle,
                pc,
                is_trigger,
                ctx,
            } => write!(
                f,
                "[{cycle:>9}] extract      @{pc} -> ctx{ctx}{}",
                if *is_trigger {
                    "  <-- triggering d-load"
                } else {
                    ""
                }
            ),
            Event::EpisodeComplete { cycle } => {
                write!(
                    f,
                    "[{cycle:>9}] episode done (d-load retired from p-thread RUU)"
                )
            }
            Event::EpisodeAborted { cycle, reason } => {
                write!(f, "[{cycle:>9}] episode aborted: {reason:?}")
            }
            Event::Flush { cycle, redirect_pc } => {
                write!(
                    f,
                    "[{cycle:>9}] flush        IFQ emptied, refetch from @{redirect_pc}"
                )
            }
            Event::Fill {
                cycle,
                block_addr,
                latency,
                pthread,
                ..
            } => write!(
                f,
                "[{cycle:>9}] fill         block {block_addr:#x} in {latency} cycle(s){}",
                if *pthread { " (p-thread)" } else { "" }
            ),
            Event::Commit { cycle, pc, .. } => {
                write!(f, "[{cycle:>9}] commit       @{pc}")
            }
            Event::Window { stat } => {
                write!(
                    f,
                    "[{:>9}] window #{}   {} cycle(s), IPC {:.3}, top stall: {}",
                    stat.start_cycle + stat.cycles,
                    stat.index,
                    stat.cycles,
                    stat.ipc(),
                    stat.top_stall_cause().0
                )
            }
        }
    }
}

/// The bounded in-memory log of episode events.
#[derive(Debug)]
pub struct EventRing {
    events: VecDeque<Event>,
    capacity: usize,
    /// Total events recorded (including evicted ones).
    pub total: u64,
}

impl EventRing {
    /// A ring retaining the most recent `capacity` events (all of them —
    /// only the eager preallocation is capped, at [`PREALLOC_CAP`]).
    pub(crate) fn new(capacity: usize) -> EventRing {
        EventRing {
            events: VecDeque::with_capacity(capacity.min(PREALLOC_CAP)),
            capacity,
            total: 0,
        }
    }

    /// Record an event, evicting the oldest once full.
    pub(crate) fn push(&mut self, event: Event) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The streaming JSONL writer: one JSON object per line, buffered, and
/// flushed every `SINK_FLUSH_EVERY` lines, at the end of the run and on
/// drop — so a killed or crashed run keeps a usable prefix.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
    lines_since_flush: usize,
}

impl JsonlSink {
    fn write(&mut self, event: &Event) -> std::io::Result<()> {
        let mut line = serde::json::to_string(event);
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.lines_since_flush += 1;
        if self.lines_since_flush >= SINK_FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.lines_since_flush = 0;
        self.out.flush()
    }
}

impl Drop for JsonlSink {
    /// Last-resort flush so buffered lines are not lost if the run never
    /// reached `on_run_end` (an early return or a panic unwinding).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One instruction's pipeline lifecycle, recorded when it leaves the RUU.
#[derive(Clone, Debug)]
pub struct LifeRecord {
    /// RUU sequence number (unique, monotonic in dispatch order).
    pub seq: u64,
    /// Hardware context index (0 = main program).
    pub ctx: usize,
    /// Instruction PC.
    pub pc: u32,
    /// The instruction word (for display labels).
    pub inst: Inst,
    /// SPEAR episode ordinal (1-based; 0 = not part of an episode).
    pub episode: u32,
    /// Cycle the instruction entered the IFQ.
    pub fetch_cycle: u64,
    /// Cycle it was dispatched into the RUU.
    pub dispatch_cycle: u64,
    /// Cycle it issued to a functional unit (0 if never issued).
    pub issue_cycle: u64,
    /// Cycle its execution completed (0 if never completed).
    pub complete_cycle: u64,
    /// Cycle it left the RUU (commit, spec-retire, or squash).
    pub end_cycle: u64,
    /// True if it was squashed on a misprediction recovery instead of
    /// retiring.
    pub squashed: bool,
}

/// A point sample of the tracked occupancy counters, recorded at end of
/// cycle whenever a value changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample cycle.
    pub cycle: u64,
    /// IFQ occupancy.
    pub ifq_occupancy: usize,
    /// Cache-line fills in flight below the L1s.
    pub outstanding_misses: usize,
}

/// Per-instruction lifecycle records and counter samples.
#[derive(Debug, Default)]
pub struct LifecycleLog {
    /// Retained records, in retirement order.
    pub records: Vec<LifeRecord>,
    /// Counter samples, in cycle order (change-compressed).
    pub samples: Vec<CounterSample>,
    /// Records (and samples) dropped once `cap` was reached.
    pub dropped: u64,
    cap: usize,
    last_sample: Option<(usize, usize)>,
}

impl LifecycleLog {
    fn push(&mut self, r: LifeRecord) {
        if self.records.len() < self.cap {
            self.records.push(r);
        } else {
            self.dropped += 1;
        }
    }

    fn sample(&mut self, cycle: u64, ifq: usize, misses: usize) {
        if self.last_sample == Some((ifq, misses)) {
            return;
        }
        self.last_sample = Some((ifq, misses));
        if self.samples.len() < self.cap {
            self.samples.push(CounterSample {
                cycle,
                ifq_occupancy: ifq,
                outstanding_misses: misses,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Snapshot of the cumulative counters a window differences against.
#[derive(Clone, Debug, Default)]
struct Snap {
    committed: u64,
    l1d_misses: u64,
    l2_misses: u64,
    triggers_accepted: u64,
    episodes_completed: u64,
    episodes_aborted: u64,
    cycle_account: CycleAccount,
}

impl Snap {
    fn capture(stats: &CoreStats, hier: &Hierarchy) -> Snap {
        let l1d = hier.l1d.stats;
        let l2 = hier.l2.stats;
        Snap {
            committed: stats.committed,
            l1d_misses: l1d.read_misses + l1d.write_misses,
            l2_misses: l2.read_misses + l2.write_misses,
            triggers_accepted: stats.triggers_accepted,
            episodes_completed: stats.preexec_completed,
            episodes_aborted: stats.preexec_aborted_flush + stats.preexec_aborted_missed,
            cycle_account: stats.cycle_account.clone(),
        }
    }
}

/// Field-wise `cur - prev` over the CPI-stack slots.
fn account_delta(cur: &CycleAccount, prev: &CycleAccount) -> CycleAccount {
    CycleAccount {
        useful_slots: cur.useful_slots - prev.useful_slots,
        icache_stall: cur.icache_stall - prev.icache_stall,
        ifq_empty_after_flush: cur.ifq_empty_after_flush - prev.ifq_empty_after_flush,
        branch_recovery: cur.branch_recovery - prev.branch_recovery,
        dload_miss: cur.dload_miss - prev.dload_miss,
        fu_busy: cur.fu_busy - prev.fu_busy,
        mem_port_contention: cur.mem_port_contention - prev.mem_port_contention,
        pthread_contention: cur.pthread_contention - prev.pthread_contention,
        frontend_other: cur.frontend_other - prev.frontend_other,
        ruu_full_cycles: cur.ruu_full_cycles - prev.ruu_full_cycles,
    }
}

/// The windowed-telemetry accumulator.
#[derive(Debug, Default)]
pub struct WindowAcc {
    /// Window length in cycles.
    pub len: u64,
    index: u64,
    start_cycle: u64,
    ifq_occupancy_sum: u64,
    last: Snap,
}

impl WindowAcc {
    /// Close the window ending at `cycle` and reset for the next one.
    fn close(&mut self, cycle: u64, stats: &CoreStats, hier: &Hierarchy) -> WindowStat {
        let cur = Snap::capture(stats, hier);
        let stat = WindowStat {
            index: self.index,
            start_cycle: self.start_cycle,
            cycles: cycle - self.start_cycle,
            committed: cur.committed - self.last.committed,
            l1d_misses: cur.l1d_misses - self.last.l1d_misses,
            l2_misses: cur.l2_misses - self.last.l2_misses,
            ifq_occupancy_sum: self.ifq_occupancy_sum,
            triggers_accepted: cur.triggers_accepted - self.last.triggers_accepted,
            episodes_completed: cur.episodes_completed - self.last.episodes_completed,
            episodes_aborted: cur.episodes_aborted - self.last.episodes_aborted,
            cycle_account: account_delta(&cur.cycle_account, &self.last.cycle_account),
        };
        self.index += 1;
        self.start_cycle = cycle;
        self.ifq_occupancy_sum = 0;
        self.last = cur;
        stat
    }
}

/// All simulated-time observability state hanging off
/// [`Pipeline::probe`]. Each part is enabled independently.
#[derive(Default)]
pub struct Probe {
    /// Bounded log of episode events (`--trace N`).
    pub ring: Option<EventRing>,
    /// Streaming JSONL writer (`--trace-file`).
    pub sink: Option<JsonlSink>,
    /// Per-instruction lifecycle records (`--pipeview` / `--perfetto`).
    pub lifecycle: Option<LifecycleLog>,
    /// Windowed interval telemetry (`--window`).
    pub window: Option<WindowAcc>,
}

impl Probe {
    /// Keep the most recent `capacity` episode events in memory.
    pub fn enable_ring(&mut self, capacity: usize) {
        self.ring = Some(EventRing::new(capacity));
    }

    /// Stream every event as one JSON object per line to `out`. The
    /// writer is buffered here, so pass an unbuffered one.
    pub fn set_sink(&mut self, out: Box<dyn Write + Send>) {
        self.sink = Some(JsonlSink {
            out: BufWriter::new(out),
            lines_since_flush: 0,
        });
    }

    /// Collect lifecycle records and counter samples, retaining at most
    /// `cap` of each.
    pub fn enable_lifecycle(&mut self, cap: usize) {
        self.lifecycle = Some(LifecycleLog {
            cap: cap.max(1),
            ..Default::default()
        });
    }

    /// Close a telemetry window every `len` cycles into
    /// [`CoreStats::windows`].
    pub fn enable_windows(&mut self, len: u64) {
        self.window = Some(WindowAcc {
            len: len.max(1),
            ..Default::default()
        });
    }

    /// Record an event: to the sink, and to the ring if the event is one
    /// the ring keeps.
    pub fn emit(&mut self, event: Event) {
        self.stream(&event);
        if event.in_ring() {
            if let Some(ring) = &mut self.ring {
                ring.push(event);
            }
        }
    }

    /// Record an instruction leaving the RUU at `cycle`: its lifecycle
    /// record and, for a main-context commit, the JSONL `commit` line.
    pub fn retire(&mut self, e: &RuuEntry, cycle: u64, squashed: bool) {
        if !squashed && e.ctx == MAIN_CTX {
            self.stream(&Event::Commit {
                cycle,
                pc: e.pc,
                ctx: MAIN_CTX.0,
            });
        }
        if let Some(log) = &mut self.lifecycle {
            log.push(LifeRecord {
                seq: e.seq,
                ctx: e.ctx.0,
                pc: e.pc,
                inst: e.inst,
                episode: e.episode,
                fetch_cycle: e.fetch_cycle,
                dispatch_cycle: e.dispatch_cycle,
                issue_cycle: e.issue_cycle,
                complete_cycle: if e.state == EState::Done {
                    e.complete_at
                } else {
                    0
                },
                end_cycle: cycle,
                squashed,
            });
        }
    }

    /// Write one line to the sink. A broken sink (e.g. a full disk) is
    /// dropped rather than aborting the simulation.
    fn stream(&mut self, event: &Event) {
        if let Some(s) = &mut self.sink {
            if s.write(event).is_err() {
                self.sink = None;
            }
        }
    }

    /// Close the current window at `cycle`, stream it, and append it to
    /// `stats.windows`.
    fn close_window(&mut self, cycle: u64, stats: &mut CoreStats, hier: &Hierarchy) {
        let Some(w) = &mut self.window else {
            return;
        };
        let stat = w.close(cycle, stats, hier);
        if self.sink.is_some() {
            self.stream(&Event::Window { stat: stat.clone() });
        }
        stats.windows.push(stat);
    }
}

/// End-of-cycle hook: stream the cycle's cache-line fills, sample the
/// occupancy counters, and close the window at its boundary. Called from
/// `Core::step_cycle` only when a probe is attached.
pub(crate) fn on_cycle_end(pipe: &mut Pipeline) {
    let Some(probe) = pipe.probe.as_deref_mut() else {
        return;
    };
    let cycle = pipe.cycle;
    for f in pipe.hier.drain_fills() {
        probe.stream(&Event::Fill {
            cycle,
            block_addr: f.block_addr,
            latency: f.latency,
            pthread: f.pthread,
            ctx: if f.pthread { PTHREAD_CTX.0 } else { MAIN_CTX.0 },
        });
    }
    let ifq_occ = pipe.ifq.len();
    if let Some(log) = &mut probe.lifecycle {
        log.sample(cycle, ifq_occ, pipe.hier.in_flight_fills());
    }
    if let Some(w) = &mut probe.window {
        w.ifq_occupancy_sum += ifq_occ as u64;
        if cycle - w.start_cycle >= w.len {
            probe.close_window(cycle, &mut pipe.stats, &pipe.hier);
        }
    }
}

/// End-of-run hook: close the in-progress partial window, if any, and
/// flush the sink. Called from `Core::finish` before the stats are
/// harvested.
pub(crate) fn on_run_end(pipe: &mut Pipeline) {
    let Some(probe) = pipe.probe.as_deref_mut() else {
        return;
    };
    if probe
        .window
        .as_ref()
        .is_some_and(|w| pipe.cycle > w.start_cycle)
    {
        probe.close_window(pipe.cycle, &mut pipe.stats, &pipe.hier);
    }
    if let Some(s) = &mut probe.sink {
        let _ = s.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// An in-memory writer the test can read back after the probe wrote.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn lines(&self) -> Vec<String> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    fn sink_probe(out: impl Write + Send + 'static) -> Probe {
        let mut p = Probe::default();
        p.set_sink(Box::new(out));
        p
    }

    fn commit(cycle: u64) -> Event {
        Event::Commit {
            cycle,
            pc: 3,
            ctx: 0,
        }
    }

    fn flush(cycle: u64) -> Event {
        Event::Flush {
            cycle,
            redirect_pc: 0,
        }
    }

    #[test]
    fn bounded_retention() {
        let mut r = EventRing::new(3);
        for c in 0..10 {
            r.push(flush(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total, 10);
        assert_eq!(r.events().next(), Some(&flush(7)));
    }

    #[test]
    fn retention_honours_capacities_beyond_the_prealloc_cap() {
        // The eager allocation is capped at PREALLOC_CAP, but the ring
        // must still retain the full requested capacity.
        let cap = PREALLOC_CAP + 1000;
        let mut r = EventRing::new(cap);
        for c in 0..(cap as u64 + 500) {
            r.push(flush(c));
        }
        assert_eq!(r.len(), cap, "retention must honour the full capacity");
        assert_eq!(
            r.events().next(),
            Some(&flush(500)),
            "oldest retained event must be total - capacity"
        );
    }

    #[test]
    fn zero_capacity_ring_retains_nothing_but_counts() {
        let mut r = EventRing::new(0);
        r.push(Event::EpisodeComplete { cycle: 1 });
        assert!(r.is_empty());
        assert_eq!(r.total, 1);
    }

    #[test]
    fn only_episode_and_flush_events_enter_the_ring() {
        let mut p = Probe::default();
        p.enable_ring(16);
        p.emit(Event::EpisodeComplete { cycle: 1 });
        p.emit(flush(2));
        p.emit(commit(3));
        p.emit(Event::Fill {
            cycle: 4,
            block_addr: 0,
            latency: 1,
            pthread: false,
            ctx: 0,
        });
        p.emit(Event::Window {
            stat: WindowStat::default(),
        });
        let ring = p.ring.as_ref().unwrap();
        let names: Vec<&str> = ring.events().map(Event::name).collect();
        assert_eq!(names, ["episode_complete", "flush"]);
        assert_eq!(ring.total, 2, "sink-only events are not counted");
    }

    #[test]
    fn display_forms() {
        let e = Event::Trigger {
            cycle: 42,
            dload_pc: 7,
            occupancy: 99,
        };
        let s = e.to_string();
        assert!(
            s.contains("42") && s.contains("@7") && s.contains("99"),
            "{s}"
        );
        let e = Event::Fill {
            cycle: 1,
            block_addr: 0x1000,
            latency: 133,
            pthread: true,
            ctx: 1,
        };
        let s = e.to_string();
        assert!(
            s.contains("0x1000") && s.contains("133") && s.contains("p-thread"),
            "{s}"
        );
    }

    #[test]
    fn events_serialize_as_tagged_json_objects() {
        let e = Event::Fill {
            cycle: 9,
            block_addr: 4096,
            latency: 133,
            pthread: true,
            ctx: 1,
        };
        let json = serde::json::to_string(&e);
        let v = serde::json::parse(&json).unwrap();
        assert_eq!(v.field("event").unwrap(), &Value::Str("fill".into()));
        assert_eq!(v.field("cycle").unwrap(), &Value::U64(9));
        assert_eq!(v.field("pthread").unwrap(), &Value::Bool(true));
        assert_eq!(v.field("ctx").unwrap(), &Value::U64(1));
    }

    #[test]
    fn sink_receives_ring_and_sink_only_events() {
        let buf = Shared::default();
        let mut p = sink_probe(buf.clone());
        p.enable_ring(2);
        p.emit(Event::EpisodeComplete { cycle: 5 });
        p.emit(commit(6));
        p.sink.as_mut().unwrap().flush().unwrap();
        assert_eq!(p.ring.as_ref().unwrap().len(), 1);
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        let v = serde::json::parse(&lines[1]).unwrap();
        assert_eq!(v.field("event").unwrap(), &Value::Str("commit".into()));
    }

    #[test]
    fn sink_flushes_periodically_without_an_explicit_flush() {
        let buf = Shared::default();
        let mut p = sink_probe(buf.clone());
        for c in 0..SINK_FLUSH_EVERY as u64 {
            p.emit(commit(c));
        }
        // No explicit flush, no drop: the periodic flush alone must have
        // pushed every line through to the underlying writer.
        assert_eq!(
            buf.lines().len(),
            SINK_FLUSH_EVERY,
            "a killed run keeps the flushed prefix"
        );
        std::mem::forget(p); // the leak keeps Drop's flush out of the test
    }

    #[test]
    fn failing_writer_disables_the_sink_without_aborting() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }

        let mut p = sink_probe(Failing);
        p.enable_ring(2);
        // Stream enough that both the BufWriter's internal spill and the
        // periodic flush hit the failing writer.
        for c in 0..(2 * SINK_FLUSH_EVERY as u64 + 10) {
            p.emit(commit(c));
            p.emit(Event::EpisodeComplete { cycle: c });
        }
        assert!(p.sink.is_none(), "a broken sink is dropped, not retried");
        assert_eq!(p.ring.as_ref().unwrap().len(), 2, "the ring is unaffected");
    }

    #[test]
    fn short_writes_still_deliver_complete_lines() {
        /// Accepts at most 7 bytes per call, forcing every line through
        /// multiple partial writes.
        #[derive(Clone)]
        struct Dribble(Shared);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.write(&buf[..buf.len().min(7)])
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared::default();
        let mut p = sink_probe(Dribble(buf.clone()));
        let n = SINK_FLUSH_EVERY as u64 + 50;
        for c in 0..n {
            p.emit(commit(c));
        }
        drop(p);
        let lines = buf.lines();
        assert_eq!(lines.len() as u64, n, "no line lost or torn");
        for line in lines {
            serde::json::parse(&line).expect("every delivered line is complete JSON");
        }
    }

    #[test]
    fn window_event_serializes_flattened() {
        let e = Event::Window {
            stat: WindowStat {
                index: 2,
                start_cycle: 20_000,
                cycles: 10_000,
                committed: 12_345,
                ..Default::default()
            },
        };
        let json = serde::json::to_string(&e);
        let v = serde::json::parse(&json).unwrap();
        assert_eq!(v.field("event").unwrap(), &Value::Str("window".into()));
        assert_eq!(v.field("index").unwrap(), &Value::U64(2));
        assert_eq!(v.field("start_cycle").unwrap(), &Value::U64(20_000));
        assert_eq!(v.field("committed").unwrap(), &Value::U64(12_345));
        assert!(v.field("cycle_account").is_ok(), "CPI deltas ride along");
        assert!(e.to_string().contains("window #2"), "{e}");
    }

    #[test]
    fn buffered_sink_flushes_on_drop() {
        let buf = Shared::default();
        {
            let mut p = sink_probe(buf.clone());
            p.emit(commit(1));
            // No explicit flush: one short line sits in the BufWriter.
            assert!(buf.lines().is_empty(), "line is still buffered");
        }
        assert_eq!(buf.lines().len(), 1, "drop flushed the buffered line");
    }
}
