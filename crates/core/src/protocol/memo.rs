//! Cross-round proposal memoization with a per-(peer, cluster) gate.
//!
//! Phase 1 of every protocol round asks each peer for its proposal — a
//! pure function of the peer's workload rows, the candidate clusters'
//! sizes and recall masses, `|P|` and the game parameters. Between two
//! rounds most of those inputs do not change: a round that granted `k`
//! relocations touched `2k` clusters and dirtied the cost-cache entries
//! of the movers' query co-holders, and a churn-free, update-free round
//! touched nothing at all. [`ProposalMemo`] exploits this with a
//! round-level **changed-cluster set** `D` plus per-entry stamps, and
//! re-emits a stored proposal — without rerunning the candidate scan —
//! exactly when a fresh scan would read the same bits.
//!
//! # The gate
//!
//! [`ProposalMemo::begin_round`] runs once per round (O(candidates)):
//! it derives the current candidate sequence (non-empty clusters plus
//! the first empty slot when admissible, in scan order), versions it,
//! computes `D` = the candidates whose cluster epoch moved since the
//! previous round's snapshot, and declares the whole round stale when
//! the *global* epoch moved (`|P|`, result totals, parameters,
//! escape-hatch mutations — anything a cluster stamp does not locate).
//!
//! [`ProposalMemo::lookup`] then validates one entry in
//! O(|workload| · |D|), with `|D| = 2k` after a round that granted `k`
//! moves and `|D| = 0` after a quiet round. A hit requires **all** of:
//!
//! 1. same system lineage, round not wholesale-stale;
//! 2. the entry's candidate-sequence version is current and its
//!    `allow_empty` matches (a different sequence shifts scan
//!    positions, so position-based reasoning below would not carry);
//! 3. the peer's cost-cache mark counters are unchanged (its workload
//!    rows and its current cluster's cached recall terms are
//!    untouched), and its current cluster is not in `D` — together
//!    these pin the peer's own cost `γ = pcost(p, current)` bitwise;
//! 4. no cluster of the stored scan's **take chain** (the successive
//!    running-best improvements recorded by
//!    [`best_response_with_chain`](crate::equilibrium::best_response_with_chain))
//!    is in `D` — so every cluster the old scan *took* still reads the
//!    same bits ([`ChainInfo::Unknown`] degrades this to requiring
//!    `D = ∅`, the coarse pre-trace gate);
//! 5. every cluster in `D` *fails* a fresh take test against `γ`:
//!    `pcost(p, c) ≥ γ − COST_EPS`.
//!
//! # Why a hit is bit-identical to recomputing
//!
//! Under (2) a fresh scan visits the same candidates at the same
//! positions. A cluster outside `D` reads the same size and the same
//! recall masses as when the entry was validated (relocations stamp
//! both endpoint clusters; every non-local change stamps the global
//! epoch, which empties the memo), so its cost is bit-identical; with
//! (3) so is `γ`. By induction over scan positions the running best at
//! every position is what it was, except possibly at clusters in `D` —
//! and those cannot flip: the scan takes `c` only when
//! `pcost(p, c) < best − COST_EPS` with `best ≤ γ` at every position,
//! which (5) rules out, and the old scan took no cluster of `D` by (4),
//! so it rejected them against the same running best then, too. Both
//! scans therefore take exactly the chain clusters at the same
//! positions and produce the same [`BestResponse`] bits. Condition (5)
//! uses a cheap fast path: when the peer's workload shares no result
//! mass with `c`, the recall term equals the cached *away* column
//! ([`CostCache::away_of`](crate::costcache::CostCache::away_of)) —
//! adding a cluster mass of exactly `0.0` is a bitwise no-op — so only
//! genuine overlaps pay a full [`pcost`].
//!
//! The induction's base is the store/validate discipline of phase 1:
//! every live peer is either freshly stored or hit-validated *every
//! round*, so entry validity only ever needs to carry across one
//! round boundary. Peers absent from a round (departed) always imply a
//! global bump (churn), which wholesale-invalidates on return.
//!
//! All of this is property-tested against arbitrary interleavings of
//! moves, churn, content and workload updates in
//! `crates/core/tests/prop_view_memo.rs`, and the memo-on/off protocol
//! byte-equality is asserted in `crates/sim/tests/determinism.rs`. The
//! net effect at scale: a quiet repair round at 10⁶ peers costs O(1)
//! per peer instead of O(candidates × workload), and after a round
//! with `k` grants only the ~`2k` affected clusters are re-examined
//! per peer rather than every candidate.
//!
//! Only strategies that declare
//! [`memoizable`](crate::strategy::RelocationStrategy::memoizable) opt
//! in — the gate conditions cover the selfish best response completely,
//! but not round-level state like the altruistic contribution matrix.
//!
//! [`BestResponse`]: crate::equilibrium::BestResponse

use recluster_types::{ClusterId, PeerId};

use crate::cost::{membership_cost, pcost, pcost_current};
use crate::equilibrium::{candidate_order, COST_EPS};
use crate::strategy::{ChainInfo, Proposal};
use crate::view::SystemView;

/// Above this many changed candidate clusters the per-entry `D` checks
/// cost more than wholesale recomputation would save — declare the
/// round stale instead. Post-repair rounds change `2k ≤ 2·candidates`
/// clusters, and converging runs grant ever fewer moves, so the cap
/// only fires in genuinely turbulent rounds where hit rates would be
/// poor anyway.
const MAX_CHANGED: usize = 16;

/// One peer's memoized proposal plus the stamps it is valid under.
#[derive(Debug, Clone)]
struct MemoEntry {
    /// The peer's cost-cache mark counter at computation time.
    slot_marks: u64,
    /// The cache's wholesale mark counter at computation time.
    all_marks: u64,
    /// The candidate-sequence version the scan ran against.
    cand_version: u64,
    /// Whether empty clusters were admissible when computed.
    allow_empty: bool,
    /// Whether this entry holds a proposal at all.
    occupied: bool,
    /// The memoized proposal.
    proposal: Option<Proposal>,
    /// The scan's take chain (see [`ChainInfo`]).
    chain: ChainInfo,
}

impl Default for MemoEntry {
    fn default() -> Self {
        MemoEntry {
            slot_marks: 0,
            all_marks: 0,
            cand_version: 0,
            allow_empty: false,
            occupied: false,
            proposal: None,
            chain: ChainInfo::Unknown,
        }
    }
}

/// Memoized per-peer proposals with epoch-stamped validity and a
/// per-round changed-cluster gate. Drive it with one
/// [`begin_round`](ProposalMemo::begin_round) per round, then any
/// number of concurrent [`lookup`](ProposalMemo::lookup)s (`&self` —
/// safe inside the sharded phase 1), then
/// [`store`](ProposalMemo::store) for every miss.
#[derive(Debug, Clone)]
pub struct ProposalMemo {
    /// The system lineage the entries were computed against
    /// ([`Epochs::system_id`](crate::view::Epochs::system_id); 0 =
    /// empty memo). Stamps of different systems are not comparable —
    /// two fresh systems both start their clocks at zero — so a store
    /// against a new lineage drops every old entry, and lookups against
    /// a different lineage always miss.
    system_id: u64,
    entries: Vec<MemoEntry>,
    /// The journal clock value of the previous `begin_round` — the
    /// snapshot every surviving entry was validated against.
    stamp: u64,
    /// Version counter of the candidate sequence; bumped whenever the
    /// sequence (or `allow_empty`) differs from the previous round's.
    cand_version: u64,
    /// The candidate sequence of the current round, in scan order.
    last_candidates: Vec<ClusterId>,
    /// `allow_empty` of the current round.
    last_allow_empty: bool,
    /// `D`: candidates whose cluster epoch moved since `stamp`, sorted
    /// ascending. Meaningless when `all_stale`.
    changed: Vec<ClusterId>,
    /// Whether every entry is stale this round (global epoch moved,
    /// lineage switch, or `|D|` blew the [`MAX_CHANGED`] cap).
    all_stale: bool,
}

impl Default for ProposalMemo {
    fn default() -> Self {
        ProposalMemo {
            system_id: 0,
            entries: Vec::new(),
            stamp: 0,
            cand_version: 0,
            last_candidates: Vec::new(),
            last_allow_empty: false,
            changed: Vec::new(),
            all_stale: true,
        }
    }
}

impl ProposalMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a round: adopts the view's lineage, versions the candidate
    /// sequence, computes the changed-cluster set `D` since the
    /// previous round's snapshot and advances the snapshot stamp.
    /// O(candidates). Must run before any [`lookup`](Self::lookup) of
    /// the round — the engine calls it right after building the round's
    /// view.
    pub fn begin_round(&mut self, view: &SystemView<'_>, allow_empty: bool) {
        let epochs = view.epochs();
        if self.system_id != epochs.system_id() {
            self.entries.clear();
            self.system_id = epochs.system_id();
            self.all_stale = true;
        } else {
            self.all_stale = epochs.global() > self.stamp;
        }

        // The scan-order candidate sequence: `best_response`'s own.
        let candidates: Vec<ClusterId> = candidate_order(view.overlay(), allow_empty).collect();

        if candidates != self.last_candidates || allow_empty != self.last_allow_empty {
            self.cand_version += 1;
            self.last_candidates = candidates;
            self.last_allow_empty = allow_empty;
        }

        self.changed.clear();
        if !self.all_stale {
            for &cid in &self.last_candidates {
                if epochs.cluster(cid) > self.stamp {
                    self.changed.push(cid);
                }
            }
            if self.changed.len() > MAX_CHANGED {
                self.all_stale = true;
                self.changed.clear();
            }
        }
        self.stamp = epochs.now();
    }

    /// Looks up `peer`'s memoized proposal under the gate opened by the
    /// round's [`begin_round`](Self::begin_round). `Some(proposal)`
    /// means re-emitting it is bit-identical to recomputing; `None`
    /// means the caller must recompute (and [`store`](Self::store) the
    /// result). Takes `&self` — safe to call concurrently from the
    /// sharded phase 1.
    pub fn lookup(&self, view: &SystemView<'_>, peer: PeerId) -> Option<Option<Proposal>> {
        if self.all_stale || self.system_id != view.epochs().system_id() {
            return None;
        }
        let e = self.entries.get(peer.index())?;
        if !e.occupied
            || e.allow_empty != self.last_allow_empty
            || e.cand_version != self.cand_version
        {
            return None;
        }
        let cache = view.cost_cache();
        if e.slot_marks != cache.slot_marks(peer.index()) || e.all_marks != cache.all_marks() {
            return None;
        }
        // Gate conditions over the changed set D (empty after a quiet
        // round — every check below short-circuits to a hit).
        let current = view.overlay().cluster_of(peer)?;
        if sorted_contains(&self.changed, current) {
            return None;
        }
        match &e.chain {
            ChainInfo::Unknown => {
                // No trace: only a fully unchanged candidate set is safe.
                if !self.changed.is_empty() {
                    return None;
                }
            }
            ChainInfo::Known(chain) => {
                if chain.iter().any(|&c| sorted_contains(&self.changed, c)) {
                    return None;
                }
                if !self.changed.is_empty() {
                    // Re-test every changed cluster against the peer's
                    // (unchanged) current cost: none may newly clear the
                    // take threshold. `γ ≥ running best` at every scan
                    // position, so failing against γ fails everywhere.
                    let gamma = pcost_current(view, peer);
                    let index = view.index();
                    for &c in &self.changed {
                        let overlaps = index
                            .workload_of(peer)
                            .iter()
                            .any(|&(qid, _)| index.cluster_mass_num(qid, c) > 0);
                        let cost = if overlaps {
                            pcost(view, peer, c)
                        } else {
                            // Zero shared mass: the recall term equals
                            // the cached away column bit-for-bit.
                            membership_cost(view, peer, c) + view.cost_cache().away_of(peer)
                        };
                        if cost < gamma - COST_EPS {
                            return None;
                        }
                    }
                }
            }
        }
        Some(e.proposal)
    }

    /// Stores a freshly computed proposal (and its scan chain) with the
    /// current stamps.
    pub fn store(
        &mut self,
        view: &SystemView<'_>,
        peer: PeerId,
        allow_empty: bool,
        proposal: Option<Proposal>,
        chain: ChainInfo,
    ) {
        let system_id = view.epochs().system_id();
        if self.system_id != system_id {
            // A different system lineage: none of the old stamps mean
            // anything here — start over (the next `begin_round`
            // re-derives the round state against the new lineage).
            self.entries.clear();
            self.system_id = system_id;
        }
        if self.entries.len() <= peer.index() {
            self.entries.resize(peer.index() + 1, MemoEntry::default());
        }
        let cache = view.cost_cache();
        self.entries[peer.index()] = MemoEntry {
            slot_marks: cache.slot_marks(peer.index()),
            all_marks: cache.all_marks(),
            cand_version: self.cand_version,
            allow_empty,
            occupied: true,
            proposal,
            chain,
        };
    }

    /// Drops every entry (e.g. when the engine switches system).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.all_stale = true;
    }
}

/// Binary search membership in the ascending changed set.
fn sorted_contains(sorted: &[ClusterId], cid: ClusterId) -> bool {
    sorted.binary_search(&cid).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{best_response_with_chain, COST_EPS};
    use crate::system::{GameConfig, System};
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    fn fixture() -> System {
        let ov = Overlay::singletons(3);
        let mut store = ContentStore::new(3);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(2), Document::new(vec![Sym(2)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            vec![w0, Workload::new(), w2],
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        )
    }

    fn traced_proposal(sys: &mut System, peer: PeerId) -> (Option<Proposal>, ChainInfo) {
        let view = sys.view();
        let mut chain = Vec::new();
        let br = best_response_with_chain(&view, peer, true, &mut chain);
        let proposal = (br.gain > COST_EPS).then_some(Proposal {
            to: br.cluster,
            gain: br.gain,
        });
        (proposal, ChainInfo::Known(chain.into_boxed_slice()))
    }

    /// Runs the phase-1 discipline for one peer: begin the round, then
    /// store a freshly computed entry.
    fn prime(memo: &mut ProposalMemo, sys: &mut System, peer: PeerId) -> Option<Proposal> {
        memo.begin_round(&sys.view(), true);
        let (fresh, chain) = traced_proposal(sys, peer);
        memo.store(&sys.view(), peer, true, fresh, chain);
        fresh
    }

    #[test]
    fn memo_hits_when_nothing_changed() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        let fresh = prime(&mut memo, &mut sys, PeerId(0));
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), Some(fresh));
    }

    #[test]
    fn memo_rechecks_changed_clusters_through_the_fine_gate() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        // p0 wants c1 (the Sym(1) holder); its chain is [c1].
        let fresh = prime(&mut memo, &mut sys, PeerId(0)).expect("p0 wants to move");
        assert_eq!(fresh.to, ClusterId(1));
        // p2's move c2 → c1 changes two candidate clusters, one of them
        // *on* p0's chain — the fine gate must miss.
        sys.move_peer(PeerId(2), ClusterId(1));
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), None);
    }

    #[test]
    fn memo_survives_changes_off_the_chain() {
        // Four singletons; p0's scan takes c1 (the Sym(1) holder) and
        // rejects everything else. A move between c2 and c3 — off p0's
        // chain, not its own cluster, sharing no result mass with its
        // workload — keeps the entry alive through the fine gate.
        let ov = Overlay::singletons(4);
        let mut store = ContentStore::new(4);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(3), Document::new(vec![Sym(2)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(2)), 1);
        let mut sys = System::new(
            ov,
            store,
            vec![w0, Workload::new(), w2, Workload::new()],
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        );
        let mut memo = ProposalMemo::new();
        let fresh = prime(&mut memo, &mut sys, PeerId(0)).expect("p0 wants c1");
        assert_eq!(fresh.to, ClusterId(1));
        // p2 joins p3: candidates c2, c3 change; p0's chain is [c1].
        sys.move_peer(PeerId(2), ClusterId(3));
        memo.begin_round(&sys.view(), true);
        assert_eq!(
            memo.lookup(&sys.view(), PeerId(0)),
            Some(Some(fresh)),
            "changes off the chain that do not undercut γ must not evict"
        );
        // And the hit is honest: recomputing agrees.
        let (recomputed, _) = traced_proposal(&mut sys, PeerId(0));
        assert_eq!(recomputed, Some(fresh));
    }

    #[test]
    fn memo_misses_when_a_changed_cluster_newly_undercuts() {
        // p0 queries Sym(1), held only inside c1 — but c1 has three
        // members, and at α = 2 the membership jump 1/5 → 4/5 outweighs
        // the full recall recovery (1.6 > 1.4), so p0 stays put with an
        // *empty* chain. Then a member leaves c1: joining the now
        // smaller cluster costs 6/5 < 1.4 — a changed cluster *off* the
        // (empty) chain newly undercuts the unchanged current cost, and
        // only the fine gate's cost re-check can catch it.
        let mut ov = Overlay::singletons(5);
        ov.move_peer(PeerId(2), ClusterId(1));
        ov.move_peer(PeerId(3), ClusterId(1));
        let mut store = ContentStore::new(5);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 1);
        let mut sys = System::new(
            ov,
            store,
            vec![
                w0,
                Workload::new(),
                Workload::new(),
                Workload::new(),
                Workload::new(),
            ],
            GameConfig {
                alpha: 2.0,
                theta: Theta::Linear,
            },
        );
        let mut memo = ProposalMemo::new();
        let fresh = prime(&mut memo, &mut sys, PeerId(0));
        assert_eq!(fresh, None, "fixture: p0 must start with no move");
        // p3 leaves c1 for p4's cluster: D = {c1, c4}, both off p0's
        // empty chain, p0's own cluster and marks untouched.
        sys.move_peer(PeerId(3), ClusterId(4));
        memo.begin_round(&sys.view(), true);
        assert_eq!(
            memo.lookup(&sys.view(), PeerId(0)),
            None,
            "the cost re-check must evict: c1 newly undercuts"
        );
        let (recomputed, _) = traced_proposal(&mut sys, PeerId(0));
        assert_eq!(
            recomputed
                .expect("p0 now wants the smaller holder cluster")
                .to,
            ClusterId(1)
        );
    }

    #[test]
    fn memo_misses_after_own_workload_changed() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        prime(&mut memo, &mut sys, PeerId(0));
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(2)), 1);
        sys.set_workload(PeerId(0), w);
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), None);
        // …and the fresh proposal differs (the peer now wants p2's
        // cluster), which is exactly why the gate had to fire.
        let (after, _) = traced_proposal(&mut sys, PeerId(0));
        assert_eq!(after.expect("still wants to move").to, ClusterId(2));
    }

    #[test]
    fn memo_distinguishes_allow_empty() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        memo.begin_round(&sys.view(), true);
        memo.store(&sys.view(), PeerId(0), true, None, ChainInfo::Unknown);
        memo.begin_round(&sys.view(), false);
        assert_eq!(
            memo.lookup(&sys.view(), PeerId(0)),
            None,
            "a proposal computed with empty targets must not serve a round without them"
        );
    }

    #[test]
    fn memo_never_crosses_system_lineages() {
        // A fresh system's clocks and mark counters are all zero — the
        // same values another fresh system's stamps carry. Entries are
        // keyed on the lineage id precisely so one engine reused on a
        // second system recomputes instead of replaying the first
        // system's proposals.
        let mut sys_a = fixture();
        let mut memo = ProposalMemo::new();
        let fresh = prime(&mut memo, &mut sys_a, PeerId(0));
        let mut sys_b = fixture();
        memo.begin_round(&sys_b.view(), true);
        assert_eq!(memo.lookup(&sys_b.view(), PeerId(0)), None);
        // Storing against the new lineage adopts it and works normally.
        memo.store(&sys_b.view(), PeerId(0), true, None, ChainInfo::Unknown);
        memo.begin_round(&sys_b.view(), true);
        assert_eq!(memo.lookup(&sys_b.view(), PeerId(0)), Some(None));
        // ...and a clone forks a *fresh* lineage too: after the fork the
        // two histories diverge with independently advancing clocks, so
        // stamps taken on one must never validate against the other.
        let mut clone = sys_a.clone();
        let mut memo2 = ProposalMemo::new();
        memo2.begin_round(&sys_a.view(), true);
        let (_, chain) = traced_proposal(&mut sys_a, PeerId(0));
        memo2.store(&sys_a.view(), PeerId(0), true, fresh, chain);
        memo2.begin_round(&clone.view(), true);
        assert_eq!(memo2.lookup(&clone.view(), PeerId(0)), None);
    }

    #[test]
    fn memo_misses_for_unknown_peers() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), None);
    }

    #[test]
    fn unknown_chain_requires_an_unchanged_candidate_set() {
        let mut sys = fixture();
        let mut memo = ProposalMemo::new();
        memo.begin_round(&sys.view(), true);
        memo.store(&sys.view(), PeerId(0), true, None, ChainInfo::Unknown);
        // Quiet round: Unknown-chain entries still hit.
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), Some(None));
        // Any candidate change: Unknown-chain entries miss wholesale,
        // even when the change is provably irrelevant to the peer.
        sys.move_peer(PeerId(2), ClusterId(1));
        memo.begin_round(&sys.view(), true);
        assert_eq!(memo.lookup(&sys.view(), PeerId(0)), None);
    }
}
