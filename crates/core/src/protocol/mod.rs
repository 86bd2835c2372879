//! The cluster reformulation protocol (§3.2).
//!
//! The protocol runs in rounds of two phases. Phase 1: every peer
//! evaluates its gain (per its relocation strategy) and reports it to its
//! cluster representative; each representative forwards the single
//! highest-gain request — `(cid_src, cid_dst, gain)` — to all other
//! representatives, or a bare heartbeat when nobody in the cluster wants
//! to move. Phase 2: every representative sorts all requests by
//! descending gain and serves them under the anti-cycle **lock rule**:
//! granting `ci → cj` locks `ci` against joins and `cj` against leaves
//! for the rest of the round. Because every representative processes the
//! identical, deterministically ordered list, they reach the same grant
//! decisions without extra coordination. The protocol stops when no
//! relocation request clears the gain threshold `ε`.
//!
//! Two drivers execute this protocol:
//!
//! * [`ProtocolEngine`] — the optimized shared-state driver: one
//!   [`crate::view::SystemView`] snapshot per round, sharded
//!   phase 1, cross-round proposal memoization. Exactly equivalent to
//!   running the message runtime below over a zero-delay, zero-loss
//!   schedule (the `prop_runtime` suite holds that bit for bit), which
//!   is why every large-scale experiment uses it.
//! * [`runtime`] — the typed-message runtime: per-peer
//!   [`PeerStateMachine`]s exchanging serialized [`Message`]s through a
//!   deterministic simulated network ([`SimNet`]), the API that admits
//!   delayed, reordered, dropped and dishonest messages.

mod engine;
mod locks;
mod memo;
pub mod runtime;

pub use engine::{ProtocolEngine, RoundOutcome, RunOutcome};
pub use locks::{LockSet, Verdict};
pub use memo::{MemoHit, ProposalMemo};
pub use runtime::{
    DelayDist, DenyReason, EvidenceLog, FaultReport, LiarConfig, Message, NetConfig, NetStats,
    PeerStateMachine, RuntimeEngine, SimNet,
};

use recluster_types::{ClusterId, PeerId};

use crate::cost::pcost_current;
use crate::strategy::Proposal;
use crate::view::SystemView;

/// One relocation request as exchanged between representatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationRequest {
    /// The cluster the peer wants to leave.
    pub src: ClusterId,
    /// The cluster the peer wants to join.
    pub dst: ClusterId,
    /// The relocating peer.
    pub peer: PeerId,
    /// The strategy's gain value.
    pub gain: f64,
}

impl RelocationRequest {
    /// Whether a representative prefers this request over `best`, its
    /// pick so far among its members' requests: a higher gain beyond an
    /// `f64::EPSILON` window, or a gain within the window from a lower
    /// peer id. Walking members in ascending peer order with this rule
    /// is phase 1's pick in both protocol drivers.
    pub(crate) fn outranks(&self, best: &RelocationRequest) -> bool {
        self.gain > best.gain + f64::EPSILON
            || ((self.gain - best.gain).abs() <= f64::EPSILON && self.peer < best.peer)
    }

    /// Deterministic phase-2 ordering: gain descending, ties broken by
    /// `(src, dst, peer)` so all representatives sort identically.
    pub fn sort_requests(requests: &mut [RelocationRequest]) {
        requests.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
                .then(a.peer.cmp(&b.peer))
        });
    }
}

/// Whether (and when) empty clusters are admissible relocation targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmptyTargetPolicy {
    /// Never — §4.2: "We maintain the number of clusters fixed and the
    /// only change we allow is the relocation of peers to different
    /// non-empty clusters."
    Never,
    /// Always — the cost-minimizing view of §2.1 where all `Cmax`
    /// clusters are candidate strategies.
    Always,
    /// §3.2's new-cluster rule: a peer that (a) has no improving move to
    /// any existing non-empty cluster and (b) has seen its cost rise by
    /// at least the given amount above the best cost it ever held during
    /// this protocol run "decides to leave its cluster and move to one of
    /// the empty clusters in the system, automatically becoming the
    /// representative of this cluster" — note the move is *not* required
    /// to be cost-improving: it is a pioneering escape whose payoff comes
    /// from like-minded peers joining in later rounds. The reported gain
    /// is the frustration magnitude (current − best-seen cost).
    OnCostIncrease(f64),
}

/// Protocol parameters. Construct via [`ProtocolConfig::builder`] (or
/// start from [`Default`] and assign fields); the struct is
/// `#[non_exhaustive]` so future knobs extend it without breaking
/// callers.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Gain threshold `ε`: a peer issues a request only if its gain
    /// exceeds this (the paper's §4.2 uses `ε = 0.001`).
    pub epsilon: f64,
    /// Round budget; a run that exhausts it without a quiet round — one
    /// in which no live peer proposes a move — is reported as
    /// non-converged (the paper's third scenario).
    pub max_rounds: usize,
    /// Empty-cluster target policy.
    pub empty_targets: EmptyTargetPolicy,
    /// Whether phase 2 enforces the anti-cycle lock rule. Disabling it
    /// (ablation) grants every request, which admits the move cycles the
    /// rule exists to prevent.
    pub use_locks: bool,
    /// Minimum live-peer count at which phase 1 shards proposal
    /// computation across the rayon shim's workers (peers split by
    /// index range, results merged in peer order — byte-identical to
    /// sequential). Below the threshold the spawn overhead outweighs the
    /// work; `usize::MAX` forces sequential, `1` forces sharding.
    /// Strategies with stateful `propose` implementations
    /// ([`sharded_phase1`](crate::strategy::RelocationStrategy::sharded_phase1)
    /// = false) always run sequentially.
    pub min_parallel_peers: usize,
    /// Whether to memoize proposals across rounds for strategies that
    /// declare a [`memo_gate`](crate::strategy::RelocationStrategy::memo_gate)
    /// (it governs every gate). Bit-identical either way. Only the sync
    /// [`ProtocolEngine`] reads it; the message runtime computes every
    /// proposal fresh.
    pub memoize_proposals: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            epsilon: 1e-3,
            max_rounds: 300,
            empty_targets: EmptyTargetPolicy::Always,
            use_locks: true,
            min_parallel_peers: 4096,
            memoize_proposals: true,
        }
    }
}

impl ProtocolConfig {
    /// Starts a builder over the paper defaults.
    pub fn builder() -> ProtocolConfigBuilder {
        ProtocolConfigBuilder {
            config: ProtocolConfig::default(),
        }
    }
}

/// Fluent constructor for [`ProtocolConfig`] — the supported way to
/// customize the `#[non_exhaustive]` config outside this crate:
///
/// ```
/// use recluster_core::ProtocolConfig;
/// let cfg = ProtocolConfig::builder()
///     .max_rounds(60)
///     .min_parallel_peers(1)
///     .memoize(false)
///     .build();
/// assert_eq!(cfg.max_rounds, 60);
/// assert!(!cfg.memoize_proposals);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    config: ProtocolConfig,
}

impl ProtocolConfigBuilder {
    /// Sets the gain threshold `ε` (default `1e-3`).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the round budget (default 300).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Sets the empty-cluster target policy (default
    /// [`EmptyTargetPolicy::Always`]).
    pub fn empty_targets(mut self, policy: EmptyTargetPolicy) -> Self {
        self.config.empty_targets = policy;
        self
    }

    /// Enables or disables the phase-2 anti-cycle lock rule (default on).
    pub fn use_locks(mut self, on: bool) -> Self {
        self.config.use_locks = on;
        self
    }

    /// Sets the phase-1 sharding threshold (default 4096).
    pub fn min_parallel_peers(mut self, threshold: usize) -> Self {
        self.config.min_parallel_peers = threshold;
        self
    }

    /// Enables or disables cross-round proposal memoization (default on).
    pub fn memoize(mut self, on: bool) -> Self {
        self.config.memoize_proposals = on;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ProtocolConfig {
        self.config
    }
}

/// The `allow_empty` flag the configured policy hands to the strategy's
/// `propose` (the `OnCostIncrease` escape reaches empty clusters through
/// its own rule, not through the strategy).
pub(crate) fn base_allow_empty(config: &ProtocolConfig) -> bool {
    matches!(config.empty_targets, EmptyTargetPolicy::Always)
}

/// Applies the empty-target policy and the `ε` threshold to a raw
/// strategy proposal — the cheap, per-round part of a peer's phase-1
/// request, deliberately *outside* the proposal memo (the §3.2 escape
/// depends on `min_costs`, which moves every round). Shared verbatim by
/// [`ProtocolEngine`] and the message [`runtime`], so the two drivers
/// cannot drift on policy arithmetic.
pub(crate) fn apply_policy(
    config: &ProtocolConfig,
    min_costs: &[f64],
    view: &SystemView<'_>,
    peer: PeerId,
    raw: Option<Proposal>,
) -> Option<Proposal> {
    let proposal = match config.empty_targets {
        EmptyTargetPolicy::Never | EmptyTargetPolicy::Always => raw,
        EmptyTargetPolicy::OnCostIncrease(threshold) => match raw {
            Some(p) => Some(p),
            None => {
                // §3.2's pioneering escape: no existing cluster helps,
                // and the peer's cost has risen significantly above the
                // best it held this run. The escape need not improve
                // its cost — the payoff comes from like-minded peers
                // following.
                let best = min_costs
                    .get(peer.index())
                    .copied()
                    .unwrap_or(f64::INFINITY);
                let now = pcost_current(view, peer);
                if now - best >= threshold {
                    view.overlay().first_empty_cluster().map(|to| Proposal {
                        to,
                        gain: now - best,
                    })
                } else {
                    None
                }
            }
        },
    }?;
    (proposal.gain > config.epsilon).then_some(proposal)
}

/// Folds the current individual costs into `min_costs`; peers listed in
/// `reset` take the current cost outright (fresh start after a move).
/// Departed peers get `INFINITY`. Shared by both protocol drivers.
/// O(slots + reset): the fold covers every slot, then each reset slot
/// is overwritten with its current cost.
pub(crate) fn fold_min_costs(view: &SystemView<'_>, min_costs: &mut Vec<f64>, reset: &[PeerId]) {
    let now = |p: PeerId| {
        if view.overlay().cluster_of(p).is_some() {
            pcost_current(view, p)
        } else {
            f64::INFINITY
        }
    };
    min_costs.resize(view.overlay().n_slots(), f64::INFINITY);
    for (i, slot) in min_costs.iter_mut().enumerate() {
        *slot = slot.min(now(PeerId::from_index(i)));
    }
    for &p in reset {
        min_costs[p.index()] = now(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_orders_by_gain_then_ids() {
        let mut reqs = vec![
            RelocationRequest {
                src: ClusterId(2),
                dst: ClusterId(0),
                peer: PeerId(5),
                gain: 0.5,
            },
            RelocationRequest {
                src: ClusterId(1),
                dst: ClusterId(0),
                peer: PeerId(4),
                gain: 0.9,
            },
            RelocationRequest {
                src: ClusterId(0),
                dst: ClusterId(2),
                peer: PeerId(1),
                gain: 0.5,
            },
        ];
        RelocationRequest::sort_requests(&mut reqs);
        assert_eq!(reqs[0].gain, 0.9);
        assert_eq!(reqs[1].src, ClusterId(0), "ties broken by src ascending");
        assert_eq!(reqs[2].src, ClusterId(2));
    }

    #[test]
    fn sort_is_deterministic_under_permutation() {
        let base = vec![
            RelocationRequest {
                src: ClusterId(0),
                dst: ClusterId(1),
                peer: PeerId(0),
                gain: 0.3,
            },
            RelocationRequest {
                src: ClusterId(1),
                dst: ClusterId(2),
                peer: PeerId(1),
                gain: 0.3,
            },
            RelocationRequest {
                src: ClusterId(2),
                dst: ClusterId(0),
                peer: PeerId(2),
                gain: 0.7,
            },
        ];
        let mut a = base.clone();
        let mut b = vec![base[2], base[0], base[1]];
        RelocationRequest::sort_requests(&mut a);
        RelocationRequest::sort_requests(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.epsilon, 1e-3);
        assert_eq!(cfg.empty_targets, EmptyTargetPolicy::Always);
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = ProtocolConfig::builder()
            .epsilon(0.05)
            .max_rounds(17)
            .empty_targets(EmptyTargetPolicy::Never)
            .use_locks(false)
            .min_parallel_peers(1)
            .memoize(false)
            .build();
        assert_eq!(cfg.epsilon, 0.05);
        assert_eq!(cfg.max_rounds, 17);
        assert_eq!(cfg.empty_targets, EmptyTargetPolicy::Never);
        assert!(!cfg.use_locks);
        assert_eq!(cfg.min_parallel_peers, 1);
        assert!(!cfg.memoize_proposals);
    }

    #[test]
    fn builder_defaults_equal_default() {
        assert_eq!(ProtocolConfig::builder().build(), ProtocolConfig::default());
    }
}
