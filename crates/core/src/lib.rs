//! Recall-based cluster reformulation by selfish peers — the paper's
//! primary contribution (Koloniari & Pitoura, ICDE 2008).
//!
//! Peers in a clustered overlay are modeled as players of a game: each
//! peer chooses the cluster whose membership minimizes its individual
//! cost, a combination of a cluster-membership cost and the recall its
//! local query workload *loses* by not being co-clustered with the peers
//! holding its results. This crate implements:
//!
//! * [`system`] — the game state: overlay + content + per-peer workloads
//!   + game parameters (`α`, `θ`).
//! * [`recall`] — the recall model `r(q, p)` (§2) as a precomputed
//!   index with per-cluster recall mass.
//! * [`cost`] — the individual cost `pcost` (Eq. 1), with the
//!   join-inclusive membership semantics of §2.3.
//! * [`global`] — the global quality criteria `SCost` (Eq. 2) and
//!   `WCost` (Eq. 3) plus their normalized forms, and Property 1.
//! * [`costcache`] — per-peer cached cost terms, delta-maintained by the
//!   same mutator hooks as the index, so the global criteria and the
//!   per-round cost reports are O(changed peers) between reads.
//! * [`view`] — the read/write split: [`SystemView`], the `Sync`
//!   snapshot parallel phase-1 rounds evaluate against, the
//!   [`SystemRead`] trait the cost functions are generic over, and the
//!   [`Epochs`] change journal behind cross-round proposal memoization.
//! * [`equilibrium`] — best responses and exact Nash-equilibrium
//!   checking (§2.3), including the two-peer no-equilibrium example.
//! * [`strategy`] — the relocation strategies of §3.1: selfish
//!   (`pgain`), altruistic (`contribution` / `clgain`), the hybrid
//!   variant sketched as future work in §6, and the observed-statistics
//!   adapter that re-evaluates all three over tracker estimates.
//! * [`tracker`] — the *observed* statistics path: peers learn
//!   per-cluster recall and contribution from cid-annotated query
//!   results over a period `T`, exactly as §3.1 prescribes (equals the
//!   oracle under flood routing), with a cluster-directed mode that
//!   forwards each query only to summary-matching clusters.
//! * [`protocol`] — the two-phase, representative-coordinated
//!   reformulation protocol of §3.2 with its anti-cycle lock rule,
//!   `ε`-threshold stop condition, and empty/new-cluster handling.
//! * [`shard`] — contiguous-range fan-out of bulk per-slot walks over
//!   the rayon shim with index-order merge, byte-identical to the
//!   sequential walk (the flush/tracker sharding of the million-peer
//!   churn path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod costcache;
pub mod equilibrium;
pub mod global;
pub mod protocol;
pub mod recall;
pub mod shard;
pub mod strategy;
pub mod system;
pub mod tracker;
pub mod view;

pub use cost::{pcost, pcost_current, pcost_set};
pub use costcache::CostCache;
pub use equilibrium::{
    best_response, best_response_set, best_response_set_over, best_response_with_chain,
    is_nash_equilibrium, BestResponse,
};
pub use global::{scost, scost_normalized, wcost, wcost_normalized};
pub use protocol::runtime::{
    gain_commitment, CommitRecord, CrashWindow, DecodeError, DelayDist, DenyReason, EvidenceLog,
    FaultReport, FaultSchedule, LiarConfig, LiarMode, Message, NetConfig, NetStats, Partition,
    PartitionKind, PeerStateMachine, ReportPlan, Roster, RuntimeChurn, RuntimeEngine, SimNet,
};
pub use protocol::{
    EmptyTargetPolicy, ProposalMemo, ProtocolConfig, ProtocolConfigBuilder, ProtocolEngine,
    RelocationRequest, RoundOutcome, RunOutcome,
};
pub use recall::RecallIndex;
pub use strategy::{
    AltruisticStrategy, ChainInfo, DecisionSource, HybridStrategy, ObservedObjective,
    ObservedStrategy, Proposal, RelocationStrategy, SelfishStrategy,
};
pub use system::{GameConfig, System};
pub use tracker::{
    simulate_period, simulate_period_routed, simulate_period_traffic, ForwardHistogram,
    ObservedStats, PeriodObservations, RoutingReport,
};
pub use view::{Epochs, SystemRead, SystemView};
