//! The round-based protocol engine.
//!
//! Drives a [`RelocationStrategy`] through the two-phase protocol of
//! §3.2, charging every logical message to a [`SimNetwork`] ledger and
//! recording per-round quality measures (the series plotted in the
//! paper's Figure 1).
//!
//! Phase 1 is a pure read of global state: the engine builds one
//! [`SystemView`] per round (flushing the cost cache exactly once), then
//! computes every peer's proposal against it — sharded across the rayon
//! shim's workers when the system is large and the strategy's `propose`
//! is pure, merged back in peer order so the parallel round is
//! **byte-identical** to the sequential one (asserted in
//! `crates/sim/tests/determinism.rs`). Proposals of strategies that
//! declare a [`memo_gate`](RelocationStrategy::memo_gate) are
//! additionally memoized across rounds through a [`ProposalMemo`]:
//! a peer whose proposal provably cannot have changed re-emits it
//! without rerunning the strategy, and a stay certificate's lowered
//! bound is written back in the index-order merge.

use rayon::prelude::*;
use recluster_overlay::{MsgKind, SimNetwork};
use recluster_types::{ClusterId, PeerId};

use crate::global::{scost_normalized, wcost_normalized};
use crate::protocol::locks::{LockSet, Verdict};
use crate::protocol::memo::{MemoHit, ProposalMemo};
use crate::protocol::{ProtocolConfig, RelocationRequest};
use crate::strategy::{ChainInfo, MemoGate, Proposal, RelocationStrategy};
use crate::system::System;
use crate::view::SystemView;

/// What happened in one protocol round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round number (0-based).
    pub round: usize,
    /// All requests forwarded by representatives (one per cluster max).
    pub requests: Vec<RelocationRequest>,
    /// The subset granted under the lock rule, in grant order.
    pub granted: Vec<RelocationRequest>,
    /// Normalized social cost after the round's moves.
    pub scost: f64,
    /// Normalized workload cost after the round's moves.
    pub wcost: f64,
    /// Non-empty clusters after the round's moves.
    pub non_empty_clusters: usize,
    /// Phase-1 proposals computed from scratch this round (the peers
    /// the memo could not serve — every peer when memoization is off
    /// or the strategy declares no memo gate).
    pub proposals_recomputed: usize,
    /// Phase-1 proposals re-emitted from the memo without recomputation.
    pub proposals_memoized: usize,
    /// Live peers whose phase-1 proposal, after the protocol's policy
    /// filter, named a move in the round's snapshot. A round with none
    /// is *quiet* and ends the run as converged. In the sync engine,
    /// and in the message runtime over a lossless fabric, a round is
    /// quiet exactly when it forwards no request; over a lossy fabric a
    /// round whose every proposal was lost in transit forwards none
    /// without being quiet.
    pub proposed: usize,
}

/// What phase 1 of a sync round produced.
struct Phase1 {
    /// The forwarded requests, one per cluster at most.
    requests: Vec<RelocationRequest>,
    /// Proposals computed from scratch.
    recomputed: usize,
    /// Proposals re-emitted from the memo.
    memoized: usize,
    /// Peers whose policy-filtered proposal named a move.
    proposed: usize,
}

/// One peer's phase-1 proposal and where it came from.
enum Slot {
    /// Computed with the memo off.
    Untraced(Option<Proposal>),
    /// Computed with its trace, to be stored in the memo.
    Fresh(Option<Proposal>, ChainInfo),
    /// Served by the memo, to be renewed there.
    Memo(MemoHit),
}

impl Slot {
    fn proposal(&self) -> Option<Proposal> {
        match self {
            Slot::Untraced(proposal) | Slot::Fresh(proposal, _) => *proposal,
            Slot::Memo(hit) => hit.proposal(),
        }
    }
}

/// The result of a full protocol run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-round records, in order. The final entry is the quiet round
    /// — no live peer proposed a move — that terminated the protocol
    /// (when converged).
    pub rounds: Vec<RoundOutcome>,
    /// Whether a quiet round came before `max_rounds` expired.
    pub converged: bool,
}

impl RunOutcome {
    /// Runs `round(0)`, `round(1)`, … until a round in which no live
    /// peer proposed a move ([`RoundOutcome::proposed`] is 0: converged)
    /// or `max_rounds` are spent — the run loop of both protocol
    /// drivers.
    pub(crate) fn drive(
        max_rounds: usize,
        mut round: impl FnMut(usize) -> RoundOutcome,
    ) -> RunOutcome {
        let mut rounds: Vec<RoundOutcome> = Vec::new();
        let mut converged = false;
        while !converged && rounds.len() < max_rounds {
            rounds.push(round(rounds.len()));
            converged = rounds.last().is_some_and(|r| r.proposed == 0);
        }
        RunOutcome { rounds, converged }
    }

    /// Rounds executed until convergence (excluding the terminal quiet
    /// round, matching how the paper counts "# Rounds"), or the full
    /// budget when not converged.
    pub fn rounds_to_converge(&self) -> usize {
        if self.converged {
            self.rounds.len().saturating_sub(1)
        } else {
            self.rounds.len()
        }
    }

    /// Final normalized social cost.
    pub fn final_scost(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.scost)
    }

    /// Final normalized workload cost.
    pub fn final_wcost(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.wcost)
    }

    /// Final number of non-empty clusters.
    pub fn final_clusters(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.non_empty_clusters)
    }

    /// Total peers moved across all rounds.
    pub fn total_moves(&self) -> usize {
        self.rounds.iter().map(|r| r.granted.len()).sum()
    }

    /// Total phase-1 proposals computed from scratch across all rounds.
    pub fn total_recomputed(&self) -> usize {
        self.rounds.iter().map(|r| r.proposals_recomputed).sum()
    }

    /// Total phase-1 proposals served from the memo across all rounds.
    pub fn total_memoized(&self) -> usize {
        self.rounds.iter().map(|r| r.proposals_memoized).sum()
    }
}

/// Drives the reformulation protocol for one strategy.
#[derive(Debug)]
pub struct ProtocolEngine<S: RelocationStrategy> {
    strategy: S,
    config: ProtocolConfig,
    /// The best (lowest) individual cost each peer has held during the
    /// current protocol run — the reference point of the `OnCostIncrease`
    /// new-cluster rule ("its cost has significantly been increased
    /// since the last time period").
    min_costs: Vec<f64>,
    /// Cross-round proposal memo (engine-lifetime, like `min_costs`:
    /// the stamps make stale entries self-invalidating within a system
    /// lineage, and entries from a *different* system never validate —
    /// the memo is keyed on the journal's system id — so it safely
    /// persists across runs of the same engine).
    memo: ProposalMemo,
}

impl<S: RelocationStrategy> ProtocolEngine<S> {
    /// Creates an engine.
    pub fn new(strategy: S, config: ProtocolConfig) -> Self {
        assert!(config.epsilon >= 0.0, "epsilon must be non-negative");
        ProtocolEngine {
            memo: ProposalMemo::new(strategy.memo_gate()),
            strategy,
            config,
            min_costs: Vec::new(),
        }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// The `allow_empty` flag the configured policy hands to the
    /// strategy's `propose` — shared with the message runtime via
    /// [`crate::protocol::base_allow_empty`].
    fn base_allow_empty(&self) -> bool {
        crate::protocol::base_allow_empty(&self.config)
    }

    /// Applies the empty-target policy and the `ε` threshold to a raw
    /// strategy proposal — delegated to the policy helper both protocol
    /// drivers share ([`crate::protocol::apply_policy`]), so the two
    /// cannot drift on policy arithmetic.
    fn apply_policy(
        &self,
        view: &SystemView<'_>,
        peer: PeerId,
        raw: Option<Proposal>,
    ) -> Option<Proposal> {
        crate::protocol::apply_policy(&self.config, &self.min_costs, view, peer, raw)
    }

    /// Phase 1 against a snapshot: every live peer's raw proposal —
    /// memo hits re-emitted, misses recomputed (sharded by peer range
    /// across the rayon shim when the system is large enough and the
    /// strategy's `propose` is pure; the index-order merge makes the
    /// sharded result byte-identical to the sequential one) — then the
    /// per-cluster representative selection and message charging in
    /// exactly the sequential order.
    fn phase1(&mut self, view: &SystemView<'_>, net: &mut SimNetwork) -> Phase1 {
        let allow_empty = self.base_allow_empty();
        let non_empty: Vec<ClusterId> = view.overlay().non_empty_ids().to_vec();
        // The flattened gain-report order: clusters ascending, members
        // ascending within each — identical to the nested loops below.
        let peers: Vec<PeerId> = non_empty
            .iter()
            .flat_map(|&cid| view.overlay().cluster(cid).members().iter().copied())
            .collect();

        let memo_on = self.config.memoize_proposals && self.strategy.memo_gate() != MemoGate::None;
        if memo_on {
            // Opens the round's validity gate (candidate-sequence
            // version + changed-cluster set) before the immutable
            // parallel section borrows the memo.
            self.memo.begin_round(view, allow_empty);
        }
        let memo = &self.memo;
        let strategy = &self.strategy;
        let compute = |&peer: &PeerId| -> Slot {
            if !memo_on {
                return Slot::Untraced(strategy.propose(view, peer, allow_empty));
            }
            if let Some(hit) = memo.lookup(view, peer) {
                return Slot::Memo(hit);
            }
            let (proposal, trace) = strategy.propose_traced(view, peer, allow_empty);
            Slot::Fresh(proposal, trace)
        };
        let sharded =
            self.strategy.sharded_phase1() && peers.len() >= self.config.min_parallel_peers;
        let mut raw: Vec<Slot> = if sharded {
            peers.par_iter().map(compute).collect()
        } else {
            peers.iter().map(compute).collect()
        };

        // Store recomputed proposals, renew hits (in peer order), and
        // tally.
        let mut recomputed = 0;
        let mut memoized = 0;
        for (&peer, slot) in peers.iter().zip(raw.iter_mut()) {
            match slot {
                Slot::Untraced(_) => recomputed += 1,
                Slot::Fresh(proposal, trace) => {
                    recomputed += 1;
                    let trace = std::mem::replace(trace, ChainInfo::Unknown);
                    self.memo.store(view, peer, allow_empty, *proposal, trace);
                }
                Slot::Memo(hit) => {
                    memoized += 1;
                    self.memo.renew(peer, *hit);
                }
            }
        }

        // Per-cluster representative selection, in the exact order (and
        // with the exact message charges) of the sequential protocol.
        let mut requests: Vec<RelocationRequest> = Vec::new();
        let mut proposed = 0;
        let mut next = 0;
        for &cid in &non_empty {
            // Every member reports its gain to the representative.
            let members = view.overlay().cluster(cid).members();
            net.send_many(MsgKind::GainReport, 16, members.len() as u64);

            // The representative selects the highest-gain peer
            // (deterministic tie-break by peer id).
            let mut best: Option<RelocationRequest> = None;
            for &peer in members {
                let proposal = raw[next].proposal();
                next += 1;
                if let Some(p) = self.apply_policy(view, peer, proposal) {
                    proposed += 1;
                    let candidate = RelocationRequest {
                        src: cid,
                        dst: p.to,
                        peer,
                        gain: p.gain,
                    };
                    if best.is_none_or(|b| candidate.outranks(&b)) {
                        best = Some(candidate);
                    }
                }
            }
            // Request or heartbeat to every other representative.
            let fanout = (non_empty.len() as u64).saturating_sub(1);
            match best {
                Some(req) => {
                    net.send_many(MsgKind::RelocationRequest, 24, fanout);
                    requests.push(req);
                }
                None => net.send_many(MsgKind::Heartbeat, 8, fanout),
            }
        }
        Phase1 {
            requests,
            recomputed,
            memoized,
            proposed,
        }
    }

    /// Executes one round. Returns the outcome; a round in which no peer
    /// proposed a move (and so none forwarded a request) means the
    /// protocol has terminated.
    pub fn run_round(
        &mut self,
        system: &mut System,
        net: &mut SimNetwork,
        round: usize,
    ) -> RoundOutcome {
        self.strategy.prepare(system);

        // ---- Phase 1: pure reads against one snapshot. --------------
        // `view()` flushes the cost cache exactly once; everything after
        // is `&self` with no interior mutability, safe to shard.
        let Phase1 {
            mut requests,
            recomputed,
            memoized,
            proposed,
        } = {
            let view = system.view();
            self.fold_min_costs(&view, &[]);
            self.phase1(&view, net)
        };

        // ---- Phase 2: identical sorted list at every representative. --
        RelocationRequest::sort_requests(&mut requests);
        let mut locks = LockSet::new();
        let mut granted = Vec::new();
        for req in &requests {
            if locks.admit(req, self.config.use_locks) == Verdict::Granted {
                net.send_many(MsgKind::GrantCoordination, 16, 2);
                granted.push(*req);
            }
        }
        let moves: Vec<(PeerId, ClusterId)> = granted.iter().map(|r| (r.peer, r.dst)).collect();
        system.move_peers(&moves);

        // Update the frustration reference points: track the minimum cost
        // per peer, but *reset* movers to their fresh post-move cost so a
        // pioneering escape consumes the accumulated frustration instead
        // of re-firing every round.
        let movers: Vec<PeerId> = moves.iter().map(|&(p, _)| p).collect();
        let view = system.view();
        self.fold_min_costs(&view, &movers);

        RoundOutcome {
            round,
            requests,
            granted,
            scost: scost_normalized(&view),
            wcost: wcost_normalized(&view),
            non_empty_clusters: view.overlay().non_empty_clusters(),
            proposals_recomputed: recomputed,
            proposals_memoized: memoized,
            proposed,
        }
    }

    /// Folds the current individual costs into `min_costs`; peers listed
    /// in `reset` take the current cost outright (fresh start after a
    /// move). Departed peers get `INFINITY`. Shared with the message
    /// runtime via [`crate::protocol::fold_min_costs`].
    fn fold_min_costs(&mut self, view: &SystemView<'_>, reset: &[PeerId]) {
        crate::protocol::fold_min_costs(view, &mut self.min_costs, reset);
    }

    /// Runs rounds until a round in which no live peer proposes a move
    /// (converged) or the round budget is exhausted. Frustration
    /// reference points persist across runs of the same engine:
    /// "increased since the last time period" compares against the best
    /// cost held in earlier periods, so a workload/content shock between
    /// two runs is visible to the second.
    pub fn run(&mut self, system: &mut System, net: &mut SimNetwork) -> RunOutcome {
        RunOutcome::drive(self.config.max_rounds, |round| {
            self.run_round(system, net, round)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::equilibrium::is_nash_equilibrium;
    use crate::protocol::EmptyTargetPolicy;
    use crate::strategy::SelfishStrategy;
    use crate::system::GameConfig;

    /// Four peers in two "categories": peers 0,1 hold & query Sym(1);
    /// peers 2,3 hold & query Sym(2). Start from singletons; the selfish
    /// protocol should pair them up.
    fn two_category_system() -> System {
        let ov = Overlay::singletons(4);
        let mut store = ContentStore::new(4);
        for (i, sym) in [(0, 1u32), (1, 1), (2, 2), (3, 2)] {
            store.add(PeerId(i), Document::new(vec![Sym(sym)]));
        }
        let mut workloads = Vec::new();
        for sym in [1u32, 1, 2, 2] {
            let mut w = Workload::new();
            w.add(Query::keyword(Sym(sym)), 2);
            workloads.push(w);
        }
        System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 0.5,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn selfish_run_converges_to_category_pairs() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        let outcome = engine.run(&mut sys, &mut net);
        assert!(outcome.converged, "small system must converge");
        assert_eq!(outcome.final_clusters(), 2);
        // Pairs share their category: cluster of p0 == cluster of p1.
        assert_eq!(
            sys.overlay().cluster_of(PeerId(0)),
            sys.overlay().cluster_of(PeerId(1))
        );
        assert_eq!(
            sys.overlay().cluster_of(PeerId(2)),
            sys.overlay().cluster_of(PeerId(3))
        );
        assert!(is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn converged_state_has_membership_only_cost() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        let outcome = engine.run(&mut sys, &mut net);
        // 2 clusters of 2 among 4 peers, α=0.5, linear θ → 0.5·2/4 = 0.25.
        assert!((outcome.final_scost() - 0.25).abs() < 1e-9);
        assert!((outcome.final_wcost() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn at_most_one_request_per_cluster_per_round() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        let outcome = engine.run_round(&mut sys, &mut net, 0);
        let mut srcs: Vec<_> = outcome.requests.iter().map(|r| r.src).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), outcome.requests.len());
    }

    #[test]
    fn granted_moves_respect_the_lock_rule() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        for round in 0..10 {
            let outcome = engine.run_round(&mut sys, &mut net, round);
            let mut locks = LockSet::new();
            for g in &outcome.granted {
                assert_eq!(
                    locks.admit(g, true),
                    Verdict::Granted,
                    "grant order violated the lock rule"
                );
            }
            if outcome.requests.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn epsilon_blocks_tiny_gains() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        // With ε larger than any possible gain, nothing moves.
        let cfg = ProtocolConfig {
            epsilon: 10.0,
            ..Default::default()
        };
        let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
        let outcome = engine.run(&mut sys, &mut net);
        assert!(outcome.converged);
        assert_eq!(outcome.total_moves(), 0);
        assert_eq!(outcome.rounds_to_converge(), 0);
    }

    #[test]
    fn never_policy_keeps_cluster_count_fixed_or_lower() {
        let mut sys = two_category_system();
        // Pre-merge into 2 clusters, then forbid empty targets.
        sys.move_peers(&[(PeerId(1), ClusterId(0)), (PeerId(3), ClusterId(2))]);
        let before = sys.overlay().non_empty_clusters();
        let cfg = ProtocolConfig {
            empty_targets: EmptyTargetPolicy::Never,
            ..Default::default()
        };
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
        let outcome = engine.run(&mut sys, &mut net);
        assert!(outcome.final_clusters() <= before);
    }

    #[test]
    fn network_traffic_is_charged() {
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        engine.run(&mut sys, &mut net);
        assert!(net.messages(MsgKind::GainReport) > 0);
        assert!(net.total_messages() > 0);
    }

    #[test]
    fn scost_history_is_monotone_nonincreasing_for_selfish_runs() {
        // Not guaranteed in general games, but holds on this separable
        // fixture and guards against sign errors in the gain.
        let mut sys = two_category_system();
        let mut net = SimNetwork::new();
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        let outcome = engine.run(&mut sys, &mut net);
        for w in outcome.rounds.windows(2) {
            assert!(
                w[1].scost <= w[0].scost + 1e-9,
                "scost rose: {} -> {}",
                w[0].scost,
                w[1].scost
            );
        }
    }

    #[test]
    fn on_cost_increase_policy_allows_escape_after_shock() {
        // 6 peers, α = 3: p0,p1 in c0 (hold & query Sym(1)); p2..p5 in
        // c1 (hold & query Sym(2)). After p0's workload shifts to Sym(2),
        // joining the big cluster is too expensive (membership 2.5 vs
        // current 2.0) but seeding a singleton pays (1.5) — exactly the
        // §3.2 new-cluster case.
        let mut ov = Overlay::singletons(6);
        ov.move_peer(PeerId(1), ClusterId(0));
        for i in 3..6 {
            ov.move_peer(PeerId(i), ClusterId(2));
        }
        let mut store = ContentStore::new(6);
        for i in 0..2 {
            store.add(PeerId(i), Document::new(vec![Sym(1)]));
        }
        for i in 2..6 {
            store.add(PeerId(i as u32), Document::new(vec![Sym(2)]));
        }
        let mut workloads = Vec::new();
        for sym in [1u32, 1, 2, 2, 2, 2] {
            let mut w = Workload::new();
            w.add(Query::keyword(Sym(sym)), 2);
            workloads.push(w);
        }
        let mut sys = System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 3.0,
                theta: Theta::Linear,
            },
        );
        let mut net = SimNetwork::new();
        let cfg = ProtocolConfig {
            empty_targets: EmptyTargetPolicy::OnCostIncrease(0.05),
            ..Default::default()
        };
        let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
        let outcome = engine.run(&mut sys, &mut net);
        assert!(outcome.converged);
        assert_eq!(
            sys.overlay()
                .size(sys.overlay().cluster_of(PeerId(0)).unwrap()),
            2,
            "p0 starts in its pair"
        );
        // Shock: p0's interest shifts to the other category.
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(2)), 2);
        sys.set_workload(PeerId(0), w);
        let shocked_scost = crate::global::scost_normalized(&sys);
        let outcome2 = engine.run(&mut sys, &mut net);
        assert!(outcome2.converged);
        // p0's first move must be the §3.2 escape into a previously
        // empty cluster (c1 — freed when p1 merged into c0 at setup).
        let p0_move = outcome2
            .rounds
            .iter()
            .flat_map(|r| r.granted.iter())
            .find(|g| g.peer == PeerId(0))
            .expect("p0 must escape after the shock");
        assert_eq!(p0_move.src, ClusterId(0));
        assert_eq!(p0_move.dst, ClusterId(1), "escape goes to the empty slot");
        // The maintenance run must repair (some of) the shock's damage.
        assert!(outcome2.final_scost() < shocked_scost);
    }

    #[test]
    #[should_panic(expected = "epsilon must be non-negative")]
    fn negative_epsilon_panics() {
        let _ = ProtocolEngine::new(
            SelfishStrategy,
            ProtocolConfig {
                epsilon: -0.1,
                ..Default::default()
            },
        );
    }
}
