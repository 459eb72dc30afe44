//! Transport-level fault injection: the connection-shaped counterpart
//! of the sensor [`FaultPlan`](crate::FaultPlan).
//!
//! At fleet scale the dominant failure mode is no longer a bad sensor
//! but a bad *connection*: clients stall mid-request, writes land
//! partially, batches arrive duplicated or out of order, connections
//! die mid-batch and come back in reconnect storms. A [`NetFaultPlan`]
//! makes those artifacts reproducible the same way the sensor plan
//! does — every decision is a pure hash of
//! `(seed, fault, connection, batch)`, so a chaos run replays exactly
//! and two streams driven by the same plan never share randomness.
//!
//! The plan does not touch sockets itself: a load generator (the
//! fleet's TCP chaos test) asks for the [`NetActions`] of
//! each `(connection, batch)` pair and acts them out against a real
//! server — sleeping through a stall, splitting a write, swapping or
//! re-sending batches, or dropping the connection and reconnecting.
//!
//! # Example
//!
//! ```
//! use prefall_faults::net::{NetFault, NetFaultPlan};
//!
//! let plan = NetFaultPlan::new(7)
//!     .with(NetFault::Duplicate { rate: 0.5 })
//!     .with(NetFault::Disconnect { rate: 0.1 });
//! let a = plan.actions(3, 40);
//! // Same plan, same (connection, batch) → the exact same actions.
//! assert_eq!(a, plan.actions(3, 40));
//! // A different connection draws independently.
//! let hits = (0..1000).filter(|&b| plan.actions(4, b).duplicate).count();
//! assert!(hits > 400 && hits < 600);
//! ```

use crate::plan::unit;

/// Per-fault salts so one `(connection, batch)` key draws
/// independently for every fault kind.
const SALT_NET: u64 = 0x6e65_745f_6661_756c; // "net_faul"
const TAG_STALL: u64 = 1;
const TAG_PARTIAL: u64 = 2;
const TAG_REORDER: u64 = 3;
const TAG_DUPLICATE: u64 = 4;
const TAG_DISCONNECT: u64 = 5;
const TAG_STORM: u64 = 6;

/// One kind of transport misbehaviour, with its intensity knobs. All
/// rates are per *batch send*, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// The client freezes mid-request for `ms` milliseconds before
    /// finishing the send — the slowloris pattern a per-connection
    /// deadline must bound.
    Stall {
        /// Probability a batch send stalls.
        rate: f64,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// The request body is written in two flushes with a pause between
    /// them, exercising short-read handling on the server.
    PartialWrite {
        /// Probability a batch is split.
        rate: f64,
    },
    /// The batch is held back and sent *after* its successor — the
    /// sequenced ingest must drop or bridge, never corrupt.
    Reorder {
        /// Probability a batch swaps with the next one.
        rate: f64,
    },
    /// The batch is sent twice; the second copy must be recognised as
    /// already-consumed (idempotent delivery).
    Duplicate {
        /// Probability a batch is re-sent.
        rate: f64,
    },
    /// The connection is torn down mid-batch; the client reconnects
    /// and re-sends, so the server sees a broken request followed by a
    /// duplicate.
    Disconnect {
        /// Probability the connection drops on a batch.
        rate: f64,
    },
    /// A reconnect storm: the client drops and immediately redials
    /// `burst` times in a tight loop before resuming, hammering the
    /// accept path.
    ReconnectStorm {
        /// Probability a storm starts at a batch.
        rate: f64,
        /// Reconnect attempts per storm.
        burst: u32,
    },
}

/// What the load generator should do to one `(connection, batch)`
/// send. Multiple faults can fire on the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetActions {
    /// Freeze this long mid-request before completing the send.
    pub stall_ms: u64,
    /// Split the request body into two flushes with a pause.
    pub partial_write: bool,
    /// Hold this batch and send it after its successor.
    pub reorder_with_next: bool,
    /// Send the batch a second time after it succeeds.
    pub duplicate: bool,
    /// Tear the connection down mid-batch, reconnect, re-send.
    pub disconnect_mid_batch: bool,
    /// Drop and redial this many times before resuming (0 = no storm).
    pub reconnect_burst: u32,
}

impl NetActions {
    /// `true` when no fault fired for this batch.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// A seeded composition of transport faults.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    faults: Vec<NetFault>,
}

impl NetFaultPlan {
    /// An empty plan: every batch is clean.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the composition.
    #[must_use]
    pub fn with(mut self, fault: NetFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The storm of the fleet's TCP chaos test: every transport fault
    /// at rates high enough to hit most streams within a few hundred
    /// batches, low enough that streams still make progress.
    pub fn storm(seed: u64) -> Self {
        Self::new(seed)
            .with(NetFault::Stall { rate: 0.01, ms: 30 })
            .with(NetFault::PartialWrite { rate: 0.05 })
            .with(NetFault::Reorder { rate: 0.04 })
            .with(NetFault::Duplicate { rate: 0.05 })
            .with(NetFault::Disconnect { rate: 0.02 })
            .with(NetFault::ReconnectStorm {
                rate: 0.005,
                burst: 4,
            })
    }

    /// The deterministic actions for one `(connection, batch)` send.
    /// A pure function of the plan — no state, no draw order.
    pub fn actions(&self, conn: u64, batch: u64) -> NetActions {
        let mut a = NetActions::default();
        let hit = |tag: u64, rate: f64| unit(self.seed, SALT_NET, tag, conn, batch) < rate;
        for f in &self.faults {
            match *f {
                NetFault::Stall { rate, ms } => {
                    if hit(TAG_STALL, rate) {
                        a.stall_ms = a.stall_ms.max(ms);
                    }
                }
                NetFault::PartialWrite { rate } => {
                    if hit(TAG_PARTIAL, rate) {
                        a.partial_write = true;
                    }
                }
                NetFault::Reorder { rate } => {
                    if hit(TAG_REORDER, rate) {
                        a.reorder_with_next = true;
                    }
                }
                NetFault::Duplicate { rate } => {
                    if hit(TAG_DUPLICATE, rate) {
                        a.duplicate = true;
                    }
                }
                NetFault::Disconnect { rate } => {
                    if hit(TAG_DISCONNECT, rate) {
                        a.disconnect_mid_batch = true;
                    }
                }
                NetFault::ReconnectStorm { rate, burst } => {
                    if hit(TAG_STORM, rate) {
                        a.reconnect_burst = a.reconnect_burst.max(burst);
                    }
                }
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_always_clean() {
        let plan = NetFaultPlan::new(7);
        assert!(plan.is_empty());
        for conn in 0..10 {
            for batch in 0..100 {
                assert!(plan.actions(conn, batch).is_clean());
            }
        }
    }

    #[test]
    fn actions_are_deterministic() {
        let plan = NetFaultPlan::storm(42);
        for conn in 0..5 {
            for batch in 0..200 {
                assert_eq!(plan.actions(conn, batch), plan.actions(conn, batch));
            }
        }
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let always = NetFaultPlan::new(1).with(NetFault::Duplicate { rate: 1.0 });
        let never = NetFaultPlan::new(1).with(NetFault::Duplicate { rate: 0.0 });
        for batch in 0..100 {
            assert!(always.actions(0, batch).duplicate);
            assert!(!never.actions(0, batch).duplicate);
        }
    }

    #[test]
    fn connections_draw_independently() {
        let plan = NetFaultPlan::new(9).with(NetFault::Disconnect { rate: 0.5 });
        let a: Vec<bool> = (0..64)
            .map(|b| plan.actions(1, b).disconnect_mid_batch)
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|b| plan.actions(2, b).disconnect_mid_batch)
            .collect();
        assert_ne!(a, b, "two connections should not share a fault mask");
    }

    #[test]
    fn rates_land_near_nominal() {
        let plan = NetFaultPlan::new(3).with(NetFault::Reorder { rate: 0.2 });
        let hits = (0..5000)
            .filter(|&b| plan.actions(0, b).reorder_with_next)
            .count();
        let rate = hits as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn faults_compose_on_one_batch() {
        let plan = NetFaultPlan::new(5)
            .with(NetFault::Stall { rate: 1.0, ms: 10 })
            .with(NetFault::Duplicate { rate: 1.0 });
        let a = plan.actions(0, 0);
        assert_eq!(a.stall_ms, 10);
        assert!(a.duplicate);
        assert!(!a.is_clean());
    }

    #[test]
    fn storm_touches_every_fault_kind_eventually() {
        let plan = NetFaultPlan::storm(11);
        let mut seen = NetActions::default();
        for conn in 0..32 {
            for batch in 0..512 {
                let a = plan.actions(conn, batch);
                seen.stall_ms = seen.stall_ms.max(a.stall_ms);
                seen.partial_write |= a.partial_write;
                seen.reorder_with_next |= a.reorder_with_next;
                seen.duplicate |= a.duplicate;
                seen.disconnect_mid_batch |= a.disconnect_mid_batch;
                seen.reconnect_burst = seen.reconnect_burst.max(a.reconnect_burst);
            }
        }
        assert!(seen.stall_ms > 0);
        assert!(seen.partial_write);
        assert!(seen.reorder_with_next);
        assert!(seen.duplicate);
        assert!(seen.disconnect_mid_batch);
        assert!(seen.reconnect_burst > 0);
    }
}
