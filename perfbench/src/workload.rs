//! The three workloads: seeded, pre-generated JSONL event streams plus
//! the configuration of the system each one drives.

use std::collections::BTreeMap;

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_server::drill::events_from_scenario;
use arm_server::{ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng};

/// Accepted events between checkpoints on the server workloads.
const CHECKPOINT_EVERY: u64 = 256;
/// Accepted events between checkpoints on `adapt_fade`, sparse enough
/// that event time, not snapshot encoding, dominates its loop.
const FADE_CHECKPOINT_EVERY: u64 = 2048;
/// Journal events every recovery replays past its checkpoint.
const REPLAY_SUFFIX: u64 = 128;

/// Offices in the `wing_walk` floor plan (`2n + 3` cells).
const WING_OFFICES: usize = 100;
/// Offices in the dense `adapt_fade` floor plan (9 cells).
const FADE_OFFICES: usize = 3;
/// Stream events between two channel fades in `adapt_fade`.
const FADE_EVERY: usize = 16;
/// The adaptive connection range of `adapt_fade` users (kbps).
pub const FADE_RANGE_KBPS: (f64, f64) = (16.0, 256.0);

/// Which traffic mix a run feeds the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §7.1 workweek on Figure 4 with a fault schedule.
    OfficeWeek,
    /// Random-walk users on a 203-cell office wing.
    WingWalk,
    /// Dense adaptive connections under rotating channel fades.
    AdaptFade,
}

impl Workload {
    /// Look a workload up by its benchmark name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "office_week" => Some(Workload::OfficeWeek),
            "wing_walk" => Some(Workload::WingWalk),
            "adapt_fade" => Some(Workload::AdaptFade),
            _ => None,
        }
    }
}

/// A generated input stream and what it is fed into.
pub struct Input {
    /// One JSONL line per event, in stream order.
    pub lines: Vec<String>,
    /// Events of each kind (`ServerEvent::label`) in the stream.
    pub kinds: BTreeMap<&'static str, usize>,
    /// How the stream's events are applied.
    pub target: Target,
}

/// The system under test for one workload.
pub enum Target {
    /// An `arm_server::Server` built from this configuration.
    Server(ServerConfig),
    /// A `ResourceManager` with adaptation on, on `office_wing(offices)`.
    Manager {
        /// Offices in the wing.
        offices: usize,
        /// Accepted events between checkpoints.
        checkpoint_every: u64,
    },
}

/// Independently seeded streams a run cycles through, so that one run
/// averages over several draws of the workload rather than one.
pub const STREAMS: u64 = 3;

/// Generate the run's [`STREAMS`] streams from `seed`. Equal seeds give
/// byte-equal streams.
pub fn generate_all(workload: Workload, seed: u64) -> Result<Vec<Input>, String> {
    (0..STREAMS)
        .map(|i| generate(workload, seed.wrapping_mul(STREAMS).wrapping_add(i)))
        .collect()
}

/// Generate one stream of the workload from `seed`.
fn generate(workload: Workload, seed: u64) -> Result<Input, String> {
    let (target, events) = match workload {
        Workload::OfficeWeek => {
            let cfg = ServerConfig {
                checkpoint_every: CHECKPOINT_EVERY,
                ..ServerConfig::office(seed)
            };
            // `expt_soak`'s fault schedule over the 40-hour workweek.
            let params = FaultScheduleParams {
                span: SimDuration::from_mins(40 * 60),
                links: 20,
                zones: 1,
                portables: 30,
                ..FaultScheduleParams::default()
            };
            let faults = FaultSchedule::generate(&params, &SimRng::new(seed ^ 0x5eed));
            let events = events_from_scenario(&cfg.scenario, &faults).map_err(|e| e.to_string())?;
            (Target::Server(cfg), events)
        }
        Workload::WingWalk => {
            let cfg = ServerConfig {
                scenario: walk_scenario(
                    "bench-wing-walk",
                    WING_OFFICES,
                    (2 * WING_OFFICES, 120, 30),
                    WorkloadSpec::Paper71,
                    Strategy::Paper,
                    seed,
                ),
                checkpoint_every: CHECKPOINT_EVERY,
                ..ServerConfig::office(seed)
            };
            let events = events_from_scenario(&cfg.scenario, &FaultSchedule::empty())
                .map_err(|e| e.to_string())?;
            (Target::Server(cfg), events)
        }
        Workload::AdaptFade => {
            let sc = walk_scenario(
                "bench-adapt-fade",
                FADE_OFFICES,
                (520, 180, 60),
                WorkloadSpec::None,
                Strategy::None,
                seed,
            );
            let walk =
                events_from_scenario(&sc, &FaultSchedule::empty()).map_err(|e| e.to_string())?;
            (
                Target::Manager {
                    offices: FADE_OFFICES,
                    checkpoint_every: FADE_CHECKPOINT_EVERY,
                },
                with_requests_and_fades(&walk, 2 * FADE_OFFICES + 3, seed),
            )
        }
    };
    // End the stream REPLAY_SUFFIX events past its last checkpoint, so
    // every seed's recovery replays a journal suffix of the same length.
    let every = match &target {
        Target::Server(cfg) => cfg.checkpoint_every,
        Target::Manager {
            checkpoint_every, ..
        } => *checkpoint_every,
    } as usize;
    let suffix = REPLAY_SUFFIX as usize;
    let keep = events.len().saturating_sub(suffix) / every * every + suffix;
    let events = &events[..keep.min(events.len())];
    let mut kinds = BTreeMap::new();
    for ev in events {
        *kinds.entry(ev.label()).or_insert(0) += 1;
    }
    let lines = events
        .iter()
        .map(ServerEvent::to_jsonl)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Input {
        lines,
        kinds,
        target,
    })
}

/// A random walk on `office_wing(offices)`: `(population, mean dwell
/// seconds, span minutes)`.
fn walk_scenario(
    name: &str,
    offices: usize,
    (population, mean_dwell_secs, span_mins): (usize, u64, u64),
    workload: WorkloadSpec,
    strategy: Strategy,
    seed: u64,
) -> Scenario {
    Scenario {
        name: name.into(),
        environment: EnvSpec::OfficeWing { offices },
        mobility: MobilitySpec::RandomWalk {
            population,
            mean_dwell_secs,
            span_mins,
        },
        workload,
        strategy,
        cell_throughput_kbps: 1600.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed,
    }
}

/// Give every appearing user an adaptive connection request, and fade
/// the channel of the next cell in turn every [`FADE_EVERY`] events.
fn with_requests_and_fades(walk: &[ServerEvent], cells: usize, seed: u64) -> Vec<ServerEvent> {
    let mut rng = SimRng::new(seed).split("bench-fades");
    let mut out = Vec::with_capacity(walk.len() * 9 / 8 + walk.len() / FADE_EVERY);
    for (i, ev) in walk.iter().enumerate() {
        out.push(ev.clone());
        if let ServerEvent::Appear { t, portable, .. } = *ev {
            out.push(ServerEvent::Request {
                t,
                portable,
                b_min_kbps: FADE_RANGE_KBPS.0,
                b_max_kbps: FADE_RANGE_KBPS.1,
            });
        }
        if (i + 1) % FADE_EVERY == 0 {
            out.push(ServerEvent::ChannelChange {
                t: ev.time(),
                cell: arm_net::ids::CellId(((i / FADE_EVERY) % cells) as u32),
                fraction: 0.4 + 0.6 * rng.unit(),
            });
        }
    }
    out
}

/// FNV-1a over the streams' lines, newline-terminated: equal digests
/// mean both sides of a comparison received the same input.
pub fn digest(inputs: &[Input]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in inputs.iter().flat_map(|i| &i.lines) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
