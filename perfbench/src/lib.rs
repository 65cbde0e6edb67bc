//! End-to-end benchmark of the resource-manager server.
//!
//! A run feeds a seeded, pre-generated JSONL event stream into the
//! system one event at a time on one thread (closed loop, one event in
//! flight, virtual stream time). Each event is timed from its hand-off
//! until the last of these returns: `parse_event`, the system's apply,
//! the journal-line encode (kept in memory), and, when a checkpoint is
//! due, snapshot capture plus JSON encode. After the loop the system is
//! dropped and recovered: decode the last checkpoint, restore, replay the
//! journal suffix. The recovered state must serialize byte-for-byte to
//! the uninterrupted final state.
//!
//! A pass is one set-up, loop and recovery; a run repeats passes until
//! its time is up and reports medians. The plain run times whole events;
//! the traced run (`Mode::Traced`) also times each call from this side,
//! counts allocations, and reads the manager's own phase timers.

pub mod cli;
mod system;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use arm_alloc_counter::allocation_count;
use arm_obs::report::PhaseSummary;
use arm_obs::{MetricsSummary, Obs};
use arm_server::ingest::parse_event;
use arm_server::{Server, ServerEvent};

use crate::system::{Adaptive, System};
use crate::workload::{Input, Target};

/// Passes a run makes even when its time is up earlier.
const MIN_PASSES: usize = 3;
/// Set-up and recovery repeat within a pass until they took this long...
const REPEAT_S: f64 = 0.2;
/// ...or ran this many times; each repetition is one sample.
const MAX_REPEATS: usize = 8;
/// Events the observer's ring keeps in the traced run.
const OBS_RING: usize = 1024;

/// Which measurements a run makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Whole-event timings only.
    Plain,
    /// Per-call spans, allocation counts and the manager's phase timers.
    Traced,
}

/// A call the traced run times from the benchmark's side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Span {
    Parse,
    Appear,
    Move,
    Depart,
    Request,
    Fault,
    SlotRoll,
    Journal,
    Capture,
    Encode,
    Decode,
    Restore,
    Replay,
}

impl Span {
    const ALL: [Span; 13] = [
        Span::Parse,
        Span::Appear,
        Span::Move,
        Span::Depart,
        Span::Request,
        Span::Fault,
        Span::SlotRoll,
        Span::Journal,
        Span::Capture,
        Span::Encode,
        Span::Decode,
        Span::Restore,
        Span::Replay,
    ];

    /// Metric name stem and the unit its median is reported in.
    fn name(self) -> (&'static str, Unit) {
        match self {
            Span::Parse => ("ingest.parse", Unit::Us),
            Span::Appear => ("manager.appear", Unit::Us),
            Span::Move => ("manager.move", Unit::Us),
            Span::Depart => ("manager.depart", Unit::Us),
            Span::Request => ("manager.request", Unit::Us),
            Span::Fault => ("manager.fault", Unit::Us),
            Span::SlotRoll => ("manager.slot_roll", Unit::Us),
            Span::Journal => ("journal.encode", Unit::Us),
            Span::Capture => ("snapshot.capture", Unit::Ms),
            Span::Encode => ("snapshot.encode", Unit::Ms),
            Span::Decode => ("snapshot.decode", Unit::Ms),
            Span::Restore => ("snapshot.restore", Unit::Ms),
            Span::Replay => ("recover.replay", Unit::Ms),
        }
    }

    /// Does this call run inside the timed event loop?
    fn in_loop(self) -> bool {
        !matches!(self, Span::Decode | Span::Restore | Span::Replay)
    }

    /// The manager span an applied event is charged to.
    fn of_event(ev: &ServerEvent) -> Span {
        match ev {
            ServerEvent::Appear { .. } => Span::Appear,
            ServerEvent::Move { .. } => Span::Move,
            ServerEvent::Depart { .. } => Span::Depart,
            ServerEvent::Request { .. } => Span::Request,
            _ => Span::Fault,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Unit {
    Us,
    Ms,
}

/// What a pass measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PassKind {
    /// Whole events only, observer off.
    Plain,
    /// Allocations per span, observer off.
    Allocs,
    /// Span durations, observer recording.
    Spans,
}

/// Measures one pass's calls according to its [`PassKind`].
struct Recorder {
    kind: PassKind,
    spans: Vec<Vec<Duration>>,
    allocs: [u64; Span::ALL.len()],
    alloc_mark: u64,
    alloc_recoveries: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            kind: PassKind::Plain,
            spans: vec![Vec::new(); Span::ALL.len()],
            allocs: [0; Span::ALL.len()],
            alloc_mark: 0,
            alloc_recoveries: 0,
        }
    }

    /// Start a timed call chain.
    fn begin(&mut self) -> Instant {
        if self.kind == PassKind::Allocs {
            self.alloc_mark = allocation_count();
        }
        Instant::now()
    }

    /// Close `span`, which ran from `since`. Returns where the next span
    /// starts; a plain pass reads no clock here.
    fn lap(&mut self, span: Span, since: Instant) -> Instant {
        match self.kind {
            PassKind::Plain => since,
            PassKind::Spans => {
                let now = Instant::now();
                self.spans[span as usize].push(now - since);
                now
            }
            PassKind::Allocs => {
                let a = allocation_count();
                self.allocs[span as usize] += a - self.alloc_mark;
                self.alloc_mark = a;
                since
            }
        }
    }
}

/// Everything a run accumulates over its passes.
#[derive(Default)]
struct Acc {
    passes: usize,
    offered: u64,
    rejected: u64,
    events_per_s: Vec<f64>,
    traced_events_per_s: Vec<f64>,
    span_passes: usize,
    event_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    recover_s: Vec<f64>,
    setup_s: Vec<f64>,
    rss_base_kb: Option<u64>,
    rss_mb: Vec<f64>,
    snapshot_kb: Vec<f64>,
    alloc_events: usize,
    checkpoints: u64,
    slot_rolls: u64,
    summary: Option<MetricsSummary>,
    adaptation_rounds: u64,
    loop_s_traced: f64,
    phases: BTreeMap<&'static str, (u64, f64)>,
    failure: Option<String>,
}

/// The outcome of one run, ready to print.
pub(crate) struct Report {
    /// Did every pass pass the correctness gate with no rejected line?
    pub correct: bool,
    /// Lines offered.
    pub attempted: u64,
    /// Lines rejected.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why the gate failed, if it did.
    pub failure: Option<String>,
    /// Events timed whole, behind the latency percentiles.
    pub samples: usize,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run passes over `inputs`, one stream after another, for about
/// `seconds`.
///
/// A plain run makes only plain passes (at least [`MIN_PASSES`]). A
/// traced run makes one allocation-counting pass, then alternates span
/// passes with plain ones (at least [`MIN_PASSES`] of each), so that the
/// tracing overhead compares passes made close together in time.
pub(crate) fn run(inputs: &[Input], mode: Mode, seconds: f64) -> Report {
    let mut acc = Acc::default();
    let mut rec = Recorder::new();
    let started = Instant::now();
    loop {
        let plain = acc.events_per_s.len();
        let enough = match mode {
            Mode::Plain => plain >= MIN_PASSES,
            Mode::Traced => acc.span_passes >= MIN_PASSES && plain == acc.span_passes,
        };
        if acc.failure.is_some() || (enough && started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        rec.kind = match (mode, acc.passes) {
            (Mode::Traced, 0) => PassKind::Allocs,
            (Mode::Traced, n) if n % 2 == 1 => PassKind::Spans,
            _ => PassKind::Plain,
        };
        let recording = rec.kind == PassKind::Spans;
        let obs = || {
            if recording {
                Obs::recording(OBS_RING)
            } else {
                Obs::off()
            }
        };
        let input = &inputs[acc.passes % inputs.len()];
        let res = match &input.target {
            Target::Server(cfg) => pass(
                &input.lines,
                || Server::new(cfg.clone(), obs()).map_err(|e| e.to_string()),
                &mut rec,
                &mut acc,
            ),
            Target::Manager {
                offices,
                checkpoint_every,
            } => pass(
                &input.lines,
                || Ok(Adaptive::new(*offices, *checkpoint_every, obs())),
                &mut rec,
                &mut acc,
            ),
        };
        if let Err(e) = res {
            acc.failure = Some(e);
        }
        acc.passes += 1;
    }
    report(&acc, (mode == Mode::Traced).then_some(&rec), inputs)
}

/// Repeat `f` while the repetitions so far took under [`REPEAT_S`], at
/// most [`MAX_REPEATS`] times; return the last result.
fn repeat<T>(
    samples: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut spent = 0.0;
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let out = f()?;
        let took = t.elapsed().as_secs_f64();
        samples.push(took);
        spent += took;
        reps += 1;
        if spent >= REPEAT_S || reps == MAX_REPEATS {
            return Ok(out);
        }
    }
}

/// Set-up, one loop over the stream, then crash and recovery.
fn pass<S: System>(
    lines: &[String],
    mut build: impl FnMut() -> Result<S, String>,
    rec: &mut Recorder,
    acc: &mut Acc,
) -> Result<(), String> {
    if acc.passes == 0 {
        acc.rss_base_kb = rss_kb();
    }
    let mut sys = repeat(&mut acc.setup_s, &mut build)?;

    let slot = sys.slot().ticks().max(1);
    let mut slot_at = sys.last_time().ticks() / slot;
    let mut journal: Vec<String> = Vec::with_capacity(lines.len());
    let mut last: Option<(String, S::Side, usize)> = None;
    let mut accepted = 0u64;

    let loop_start = Instant::now();
    for line in lines {
        acc.offered += 1;
        let t0 = rec.begin();
        let Ok(ev) = parse_event(line) else {
            acc.rejected += 1;
            continue;
        };
        let t1 = rec.lap(Span::Parse, t0);
        let slot_now = ev.time().ticks() / slot;
        let span = if slot_now > slot_at {
            Span::SlotRoll
        } else {
            Span::of_event(&ev)
        };
        if sys.apply(&ev).is_err() {
            acc.rejected += 1;
            continue;
        }
        let t2 = rec.lap(span, t1);
        journal.push(ev.to_jsonl().map_err(|e| format!("journal encode: {e}"))?);
        let t3 = rec.lap(Span::Journal, t2);
        if sys.checkpoint_due() {
            let c0 = Instant::now();
            let (snap, side) = sys.capture();
            let t4 = rec.lap(Span::Capture, t3);
            let json = S::encode(&snap).map_err(|e| format!("checkpoint: {e}"))?;
            rec.lap(Span::Encode, t4);
            acc.checkpoint_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            acc.checkpoints += 1;
            last = Some((json, side, journal.len()));
        }
        if rec.kind == PassKind::Plain {
            acc.event_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        acc.slot_rolls += slot_now - slot_at;
        slot_at = slot_now;
        accepted += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    if let (Some(base), Some(now)) = (acc.rss_base_kb, rss_kb()) {
        acc.rss_mb.push((now as f64 - base as f64) / 1024.0);
    }
    match rec.kind {
        PassKind::Plain => acc.events_per_s.push(accepted as f64 / loop_s),
        PassKind::Spans => {
            acc.traced_events_per_s.push(accepted as f64 / loop_s);
            acc.loop_s_traced += loop_s;
            acc.span_passes += 1;
        }
        PassKind::Allocs => {}
    }

    // The uninterrupted final state, then the crash.
    let (snap, final_side) = sys.capture();
    let final_json = S::encode(&snap).map_err(|e| format!("final snapshot: {e}"))?;
    acc.snapshot_kb
        .push(last.as_ref().map_or(0, |(j, _, _)| j.len()) as f64 / 1024.0);
    if rec.kind == PassKind::Allocs {
        acc.alloc_events = lines.len();
    }
    acc.summary = Some(sys.manager().metrics.summary());
    acc.adaptation_rounds = sys.manager().adaptation_rounds;
    if rec.kind == PassKind::Spans {
        add_phases(&mut acc.phases, &sys.manager().take_obs().phase_summaries());
    }
    drop(sys);

    let (json, side, cursor) = last.ok_or("the stream is shorter than one checkpoint interval")?;
    let mut recoveries = Vec::new();
    let recovered = repeat(&mut recoveries, || {
        let r0 = rec.begin();
        let snap = S::decode(&json).map_err(|e| format!("decode: {e}"))?;
        let r1 = rec.lap(Span::Decode, r0);
        let mut sys =
            S::restore(snap, side.clone(), Obs::off()).map_err(|e| format!("restore: {e}"))?;
        let r2 = rec.lap(Span::Restore, r1);
        for line in &journal[cursor..] {
            let ev = parse_event(line).map_err(|e| format!("replay: {e}"))?;
            sys.apply(&ev).map_err(|e| format!("replay: {e}"))?;
        }
        rec.lap(Span::Replay, r2);
        Ok(sys)
    })?;
    if rec.kind == PassKind::Allocs {
        rec.alloc_recoveries += recoveries.len() as u64;
    }
    acc.recover_s.extend(recoveries);

    let (snap, side) = recovered.capture();
    let recovered_json = S::encode(&snap).map_err(|e| format!("recovered snapshot: {e}"))?;
    if recovered_json != final_json || side != final_side {
        return Err("recovered state differs from the uninterrupted final state".into());
    }
    if acc.rejected > 0 {
        return Err(format!("{} lines rejected", acc.rejected));
    }
    Ok(())
}

/// Fold one pass's phase timers into the run totals: `(spans, total µs)`.
/// The three maxmin engines report as one phase.
fn add_phases(into: &mut BTreeMap<&'static str, (u64, f64)>, phases: &[PhaseSummary]) {
    for p in phases {
        let name = match p.phase.as_str() {
            "admission" => "admission",
            "handoff" => "handoff",
            "claim-refresh" => "claim_refresh",
            "prediction-update" => "prediction_update",
            n if n.starts_with("maxmin") => "maxmin",
            _ => continue,
        };
        let e = into.entry(name).or_insert((0, 0.0));
        e.0 += p.spans;
        e.1 += p.wall_us.mean * p.spans as f64;
    }
}

/// Every `ServerEvent::label`, reported as `stream.<snake_case>` counts.
const EVENT_KINDS: [&str; 11] = [
    "Appear",
    "Move",
    "Depart",
    "Request",
    "LinkDown",
    "LinkUp",
    "ProfileServerDown",
    "ProfileServerUp",
    "FailNextHandoff",
    "ChannelChange",
    "QueuePressure",
];

fn snake_case(label: &str) -> String {
    let mut out = String::new();
    for (i, c) in label.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Resident set size of this process, kB.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

fn report(acc: &Acc, traced: Option<&Recorder>, inputs: &[Input]) -> Report {
    // Stream counts are means over the run's streams.
    let streams = inputs.len().max(1) as f64;
    let per_stream = |n: usize| n as f64 / streams;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    };
    let summary = acc.summary.clone().unwrap_or_default();
    match traced {
        None => {
            put("events_per_s", median(&acc.events_per_s), "1/s");
            put("event_p50_us", percentile(&acc.event_us, 0.5), "us");
            put("event_p99_us", percentile(&acc.event_us, 0.99), "us");
            put("checkpoint_p50_ms", median(&acc.checkpoint_ms), "ms");
            put("recover_s", median(&acc.recover_s), "s");
            put("setup_s", median(&acc.setup_s), "s");
            put("snapshot_kb", median(&acc.snapshot_kb), "kB");
            put("server_rss_mb", median(&acc.rss_mb), "MB");
        }
        Some(tr) => {
            // Counts and totals are per span pass.
            let timed = acc.span_passes.max(1) as f64;
            let mut loop_self = 0.0;
            for span in Span::ALL {
                let (stem, unit) = span.name();
                let d: Vec<f64> = tr.spans[span as usize]
                    .iter()
                    .map(Duration::as_secs_f64)
                    .collect();
                let total: f64 = d.iter().sum();
                if span.in_loop() {
                    loop_self += total;
                }
                let (scale, u) = match unit {
                    Unit::Us => (1e6, "us"),
                    Unit::Ms => (1e3, "ms"),
                };
                put(&format!("{stem}_{u}"), median(&d) * scale, u);
                put(&format!("{stem}.n"), d.len() as f64 / timed, "count");
                put(&format!("{stem}.self_ms"), total * 1e3 / timed, "ms");
            }
            put(
                "trace.untimed_frac",
                (acc.loop_s_traced - loop_self) / acc.loop_s_traced,
                "1",
            );
            put("trace.loop_ms", acc.loop_s_traced * 1e3 / timed, "ms");
            for phase in [
                "admission",
                "handoff",
                "claim_refresh",
                "maxmin",
                "prediction_update",
            ] {
                let (spans, total_us) = acc.phases.get(phase).copied().unwrap_or((0, 0.0));
                put(
                    &format!("obs.{phase}_us"),
                    total_us / spans.max(1) as f64,
                    "us",
                );
                put(&format!("obs.{phase}_spans"), spans as f64 / timed, "count");
            }
            let traced_eps = median(&acc.traced_events_per_s);
            put("trace.events_per_s", traced_eps, "1/s");
            put(
                "trace.overhead_frac",
                median(&acc.events_per_s) / traced_eps - 1.0,
                "1",
            );
            put(
                "manager.adaptation_rounds",
                acc.adaptation_rounds as f64,
                "count",
            );
            let events: usize = inputs.iter().map(|i| i.lines.len()).sum();
            put("stream.events", per_stream(events), "count");
            for label in EVENT_KINDS {
                let n = inputs.iter().filter_map(|i| i.kinds.get(label)).sum();
                put(
                    &format!("stream.{}", snake_case(label)),
                    per_stream(n),
                    "count",
                );
            }
            let passes = acc.passes.max(1) as f64;
            put("stream.slot_rolls", acc.slot_rolls as f64 / passes, "count");
            put(
                "stream.checkpoints",
                acc.checkpoints as f64 / passes,
                "count",
            );
            put("snapshot.bytes", median(&acc.snapshot_kb) * 1024.0, "B");
            let per_event = acc.alloc_events.max(1) as f64;
            let a = |s: Span| tr.allocs[s as usize] as f64;
            put(
                "alloc.ingest_per_event",
                a(Span::Parse) / per_event,
                "count",
            );
            let manager: f64 = [
                Span::Appear,
                Span::Move,
                Span::Depart,
                Span::Request,
                Span::Fault,
                Span::SlotRoll,
            ]
            .into_iter()
            .map(a)
            .sum();
            put("alloc.manager_per_event", manager / per_event, "count");
            put(
                "alloc.journal_per_event",
                a(Span::Journal) / per_event,
                "count",
            );
            let ckpts = (acc.checkpoints as f64 / passes).max(1.0);
            put(
                "alloc.snapshot_per_checkpoint",
                (a(Span::Capture) + a(Span::Encode)) / ckpts,
                "count",
            );
            put(
                "alloc.recover_per_recovery",
                (a(Span::Decode) + a(Span::Restore) + a(Span::Replay))
                    / tr.alloc_recoveries.max(1) as f64,
                "count",
            );
            put("outcome.p_block", summary.p_b, "1");
            put("outcome.p_drop", summary.p_d, "1");
            put(
                "ingest.rejected_frac",
                acc.rejected as f64 / acc.offered.max(1) as f64,
                "1",
            );
        }
    }
    Report {
        correct: acc.failure.is_none() && acc.rejected == 0,
        attempted: acc.offered,
        failed: acc.rejected,
        metrics: m,
        failure: acc.failure.clone(),
        samples: acc.event_us.len(),
    }
}
