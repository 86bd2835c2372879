//! The typed-message protocol runtime.
//!
//! Where [`ProtocolEngine`](crate::protocol::ProtocolEngine) runs §3.2
//! as direct method calls on shared state, this module runs it the way
//! the paper describes it: peers exchanging serialized
//! Propose/Grant/Commit frames over a network. Three layers:
//!
//! - [`message`] — the wire grammar: six frame types with a
//!   fixed-width little-endian codec that round-trips bit-for-bit.
//! - [`machine`] — per-peer automata: members report and commit,
//!   representatives run the two collect-then-fire phases with the sync
//!   engine's exact selection and lock arithmetic, over one shared
//!   [`Roster`] of the round's representatives.
//! - [`simnet`] — the deterministic fabric: seeded per-link delay and
//!   drop draws, deliveries totally ordered on `(deliver_tick, send
//!   order)` so every run replays byte-identically.
//!
//! [`RuntimeEngine`] composes the three against a live
//! [`System`](crate::system::System). Under [`NetConfig::ideal`] (zero
//! extra delay, zero loss) it is **bit-identical** to the sync engine —
//! `crates/core/tests/prop_runtime.rs` proves it over the shared
//! mutation-script universe — which makes the sync engine one driver of
//! this API and the runtime the reference semantics. Under delay, loss
//! or lying peers it answers the questions the paper never could:
//! representatives decide on partial request lists (stale grants), and
//! an [`EvidenceLog`] audits committed claims against
//! [`ObservedStats`](crate::tracker::ObservedStats).

pub mod machine;
pub mod message;
pub mod simnet;

mod engine;

pub use engine::{
    CommitRecord, EvidenceLog, FaultReport, LiarConfig, LiarMode, RuntimeChurn, RuntimeEngine,
};
pub use machine::{MachineEvent, Outbox, PeerStateMachine, ReportPlan, Roster};
pub use message::{gain_commitment, DecodeError, DenyReason, Message};
pub use simnet::{
    CrashWindow, DelayDist, FaultSchedule, NetConfig, NetStats, Partition, PartitionKind, SimNet,
};
