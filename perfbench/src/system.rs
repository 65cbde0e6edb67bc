//! The two systems a workload can drive, behind one interface: the
//! `arm_server::Server`, and a bare `ResourceManager` with maxmin
//! adaptation on (which `Server` never enables).

use std::collections::BTreeMap;

use arm_core::{ManagerConfig, ManagerSnapshot, ResourceManager, SnapshotError, Strategy};
use arm_mobility::environment::office_wing;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{ConnId, PortableId};
use arm_obs::Obs;
use arm_server::{IngestError, Server, ServerEvent, ServerSnapshot};
use arm_sim::{SimDuration, SimTime};

/// What the benchmark needs from a system under test.
pub trait System: Sized {
    /// The in-memory checkpoint image.
    type Snap;
    /// State the benchmark keeps beside the snapshot.
    type Side: Clone + PartialEq;

    /// Validate and apply one decoded event.
    fn apply(&mut self, ev: &ServerEvent) -> Result<(), IngestError>;
    /// Is a periodic checkpoint due after the last applied event?
    fn checkpoint_due(&self) -> bool;
    /// Capture the complete state.
    fn capture(&self) -> (Self::Snap, Self::Side);
    /// Serialize a captured image (with its round-trip validation).
    fn encode(snap: &Self::Snap) -> Result<String, SnapshotError>;
    /// Parse a serialized image.
    fn decode(json: &str) -> Result<Self::Snap, SnapshotError>;
    /// Rebuild a live system from an image.
    fn restore(snap: Self::Snap, side: Self::Side, obs: Obs) -> Result<Self, SnapshotError>;
    /// Time of the last applied event.
    fn last_time(&self) -> SimTime;
    /// The maintenance slot width.
    fn slot(&self) -> SimDuration;
    /// The control plane inside.
    fn manager(&mut self) -> &mut ResourceManager;
}

impl System for Server {
    type Snap = ServerSnapshot;
    type Side = ();

    fn apply(&mut self, ev: &ServerEvent) -> Result<(), IngestError> {
        self.apply_event(ev)
    }

    fn checkpoint_due(&self) -> bool {
        Server::checkpoint_due(self)
    }

    fn capture(&self) -> (ServerSnapshot, ()) {
        (self.snapshot(), ())
    }

    fn encode(snap: &ServerSnapshot) -> Result<String, SnapshotError> {
        snap.to_json()
    }

    fn decode(json: &str) -> Result<ServerSnapshot, SnapshotError> {
        ServerSnapshot::from_json(json)
    }

    fn restore(snap: ServerSnapshot, (): (), obs: Obs) -> Result<Self, SnapshotError> {
        Server::restore(snap, obs)
    }

    fn last_time(&self) -> SimTime {
        Server::last_time(self)
    }

    fn slot(&self) -> SimDuration {
        self.cfg.slot
    }

    fn manager(&mut self) -> &mut ResourceManager {
        &mut self.mgr
    }
}

/// The maintenance slot of [`Adaptive`], as in `ServerConfig::office`.
const SLOT: SimDuration = SimDuration::from_mins(1);

/// A `ResourceManager` fed server events directly, with the same slot
/// maintenance and connection bookkeeping `Server::apply_event` does.
pub struct Adaptive {
    mgr: ResourceManager,
    side: AdaptiveSide,
}

/// The benchmark-side state of [`Adaptive`], checkpointed beside the
/// `ManagerSnapshot`.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveSide {
    checkpoint_every: u64,
    open: BTreeMap<PortableId, ConnId>,
    next_slot: SimTime,
    last_time: SimTime,
    accepted: u64,
}

impl Adaptive {
    /// Build the manager with maxmin adaptation on and no advance
    /// reservation (the timed set-up of `adapt_fade`).
    pub fn new(offices: usize, checkpoint_every: u64, obs: Obs) -> Self {
        let env = office_wing(offices);
        let net = env.build_network(1600.0, 0.0, 100_000.0);
        let cfg = ManagerConfig {
            slot: SLOT,
            resolve_excess: true,
            strategy: Strategy::None,
            ..ManagerConfig::default()
        };
        let mut mgr = ResourceManager::new(env, net, cfg);
        mgr.set_obs(obs);
        let next_slot = SimTime::ZERO + SLOT;
        Adaptive {
            mgr,
            side: AdaptiveSide {
                checkpoint_every,
                open: BTreeMap::new(),
                next_slot,
                last_time: SimTime::ZERO,
                accepted: 0,
            },
        }
    }
}

impl System for Adaptive {
    type Snap = ManagerSnapshot;
    type Side = AdaptiveSide;

    fn apply(&mut self, ev: &ServerEvent) -> Result<(), IngestError> {
        let t = ev.time();
        if t < self.side.last_time {
            return Err(IngestError::OutOfOrder {
                event_ticks: t.ticks(),
                last_ticks: self.side.last_time.ticks(),
            });
        }
        while t >= self.side.next_slot {
            self.mgr.slot_tick(self.side.next_slot);
            self.side.next_slot += SLOT;
        }
        let open = &mut self.side.open;
        match ev {
            ServerEvent::Appear { t, portable, cell } => {
                self.mgr.portable_appears(*portable, *cell, *t);
            }
            ServerEvent::Request {
                t,
                portable,
                b_min_kbps,
                b_max_kbps,
            } => {
                let q = QosRequest::bandwidth(*b_min_kbps, *b_max_kbps)
                    .with_delay(30.0)
                    .with_jitter(30.0)
                    .with_loss(1.0);
                if let Ok(id) = self.mgr.request_connection(*portable, q, *t) {
                    open.insert(*portable, id);
                }
            }
            ServerEvent::Move { t, portable, to } => {
                let dropped = self.mgr.portable_moved(*portable, *to, *t);
                open.retain(|_, c| !dropped.contains(c));
            }
            ServerEvent::Depart { t, portable } => {
                if let Some(id) = open.remove(portable) {
                    self.mgr.terminate(id, *t);
                }
            }
            ServerEvent::ChannelChange { t, cell, fraction } => {
                let dropped = self.mgr.channel_change(*cell, *fraction, *t).map_err(|e| {
                    IngestError::InvalidParameter {
                        detail: e.to_string(),
                    }
                })?;
                open.retain(|_, c| !dropped.contains(c));
            }
            other => {
                return Err(IngestError::InvalidParameter {
                    detail: format!("{} is not part of this workload", other.label()),
                })
            }
        }
        self.side.last_time = t;
        self.side.accepted += 1;
        Ok(())
    }

    fn checkpoint_due(&self) -> bool {
        self.side.accepted > 0
            && self
                .side
                .accepted
                .is_multiple_of(self.side.checkpoint_every)
    }

    fn capture(&self) -> (ManagerSnapshot, AdaptiveSide) {
        (self.mgr.snapshot(), self.side.clone())
    }

    fn encode(snap: &ManagerSnapshot) -> Result<String, SnapshotError> {
        snap.to_json()
    }

    fn decode(json: &str) -> Result<ManagerSnapshot, SnapshotError> {
        ManagerSnapshot::from_json(json)
    }

    fn restore(snap: ManagerSnapshot, side: AdaptiveSide, obs: Obs) -> Result<Self, SnapshotError> {
        Ok(Adaptive {
            mgr: ResourceManager::restore(snap, obs)?,
            side,
        })
    }

    fn last_time(&self) -> SimTime {
        self.side.last_time
    }

    fn slot(&self) -> SimDuration {
        SLOT
    }

    fn manager(&mut self) -> &mut ResourceManager {
        &mut self.mgr
    }
}
