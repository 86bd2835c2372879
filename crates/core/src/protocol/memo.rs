//! Cross-round proposal memoization.
//!
//! Phase 1 of every protocol round asks each peer for its proposal, and
//! near equilibrium almost every answer is "stay". Between two rounds
//! most of a proposal's inputs do not change: a round that granted `k`
//! relocations touched `2k` clusters, and a quiet round touched
//! nothing. [`ProposalMemo`] re-emits a stored proposal, without
//! rerunning the strategy, exactly when a fresh computation would
//! produce the same bits. Which inputs it tracks is the strategy's
//! [`MemoGate`]; there is one memo type with one gate per kind.
//!
//! # The round
//!
//! [`ProposalMemo::begin_round`] runs once per round (O(candidates)).
//! It derives the candidate sequence (non-empty clusters plus the first
//! empty slot when admissible, in scan order) and versions it. It
//! declares the round **stale** when the lineage switched or the
//! *global* epoch moved: `|P|`, result totals, any peer's own workload
//! rows, parameters and escape-hatch mutations all stamp it, so the
//! memo reads nothing but the change journal and fresh costs. Otherwise
//! it computes `D`: the candidates whose cluster epoch moved since the
//! previous round, plus candidates that were not in the previous
//! sequence. It prices each cluster of `D` once at its join-inclusive
//! membership cost `α·θ(size + 1)/|P|`, the same for every peer outside
//! it, and sorts `D` by that price.
//!
//! [`ProposalMemo::lookup`] then validates one entry. Every gate needs
//! the same lineage, a round that is not stale, the entry's
//! `allow_empty`, and the peer still in the cluster it was in when the
//! entry was stored (its *home*).
//!
//! # The journal gate: stay certificates
//!
//! A stay of [`SelfishStrategy`](crate::strategy::SelfishStrategy) is
//! stored with `lb`, the lowest cost over the candidates other than
//! home ([`ChainInfo::Stay`]). The scan takes a cluster `c` only when
//! `pcost(p, c) < best − COST_EPS` with `best ≤ γ = pcost(p, home)` at
//! every position, so it stays iff every `c ≠ home` costs at least
//! `γ − COST_EPS`. At lookup the memo reads `γ` fresh from the flushed
//! cost cache, lowers `lb` to the fresh cost of every cluster of `D`
//! other than home, and hits iff `lb ≥ γ − COST_EPS`. Then a fresh scan
//! would take nothing, and re-emitting "no proposal" is bit-identical.
//!
//! `lb` stays a lower bound because a candidate outside `D` was a
//! candidate last round and reads the same size and recall masses now
//! (moves stamp both endpoint clusters; anything else stamps the global
//! epoch), so it costs the same bits it cost when `lb` last covered it.
//! Home may be in `D`: `γ` is re-read, not pinned. The lowered bound
//! must be written back ([`ProposalMemo::renew`]): a cluster that
//! lowered `lb` in round `t` and did not change in round `t + 1` drops
//! out of `D`, and from then on only the stored `lb` remembers its
//! cost. The induction's base is the phase-1 discipline: every live
//! peer is either stored fresh or validated and renewed every round, so
//! validity only ever needs to carry across one round boundary. A peer
//! absent from a round (departed) implies a churn event, which stamps
//! the global epoch.
//!
//! The check is cheap. One walk over the mass cells of the peer's own
//! queries finds the clusters of `D` its workload reaches (a cell
//! exists iff the cluster holds results). Those are costed with
//! [`pcost`]. Every unreached cluster costs its membership price plus
//! the cached *away* term ([`CostCache::away_of`]): adding a mass of
//! `0.0` is a bitwise no-op. Rounded addition is monotone, so the
//! cheapest unreached cluster is the first unreached one in the sorted
//! list, and the minimum over `D` is exact.
//!
//! # The journal gate: take chains
//!
//! An entry that holds a move (its scan took a cluster) keeps the
//! scan's take chain ([`ChainInfo::Known`]). It hits iff the candidate
//! sequence is the one it was computed against (so a fresh scan visits
//! the same candidates at the same positions), home is not in `D` (so
//! `γ` is unchanged), no cluster of the chain is in `D`, and every
//! cluster of `D` costs at least `γ − COST_EPS`, priced as above. By
//! induction over scan positions both scans then take exactly the chain
//! clusters at the same positions. [`ChainInfo::Unknown`] degrades to
//! requiring `D = ∅`. When `|D|` exceeds [`MAX_CHANGED`] the journal
//! gate misses the whole round.
//!
//! # The frozen-snapshot gate
//!
//! [`ObservedStrategy::selfish`](crate::strategy::ObservedStrategy::selfish)
//! reads a folded observation snapshot that is borrowed for the
//! engine's lifetime (sizes, `|P|` and counts as observed), the game
//! parameters, the peer's current cluster and the candidate sequence.
//! Its entries hit iff the round is not stale, the candidate-sequence
//! version is current and the peer is still in its home: nothing else
//! it reads can change.
//!
//! All of this is property-tested against arbitrary interleavings of
//! moves, churn, content and workload updates in
//! `crates/core/tests/prop_view_memo.rs` (with the engine's write-back)
//! and `crates/core/tests/prop_observed.rs`, and the memo-on/off
//! protocol byte-equality is asserted in `crates/sim/tests/determinism.rs`
//! for both gates.
//!
//! [`CostCache::away_of`]: crate::costcache::CostCache::away_of

use recluster_types::{ClusterId, PeerId};

use crate::cost::{pcost, pcost_current};
use crate::equilibrium::{candidate_order, COST_EPS};
use crate::strategy::{ChainInfo, MemoGate, Proposal};
use crate::view::SystemView;

/// Above this many changed candidate clusters the journal gate's
/// per-entry `D` checks cost more than wholesale recomputation would
/// save — it misses the round instead. Post-repair rounds change
/// `2k ≤ 2·candidates` clusters, and converging runs grant ever fewer
/// moves, so the cap only fires in genuinely turbulent rounds where hit
/// rates would be poor anyway. It also bounds `D` positions to the bits
/// of the `u32` a certificate check marks reached clusters in.
const MAX_CHANGED: usize = 16;

/// One peer's memoized proposal and what it is valid under.
#[derive(Debug, Clone)]
struct MemoEntry {
    /// The candidate-sequence version the proposal was computed
    /// against.
    cand_version: u64,
    /// The memoized proposal.
    proposal: Option<Proposal>,
    /// The scan's trace: a take chain or a stay's bound.
    trace: ChainInfo,
    /// The peer's cluster when the entry was stored.
    home: ClusterId,
    /// Whether empty clusters were admissible when computed.
    allow_empty: bool,
    /// Whether this entry holds a proposal at all.
    occupied: bool,
}

// One entry per peer slot, so the entry's size is the memo's heap per
// peer: the home cluster and the stay's bound must not grow it.
const _: () = assert!(std::mem::size_of::<MemoEntry>() <= 64);

impl Default for MemoEntry {
    fn default() -> Self {
        MemoEntry {
            cand_version: 0,
            proposal: None,
            trace: ChainInfo::Unknown,
            home: ClusterId(0),
            allow_empty: false,
            occupied: false,
        }
    }
}

/// A proposal [`ProposalMemo::lookup`] served, to be handed back to
/// [`ProposalMemo::renew`] once the parallel section is over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoHit(Hit);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Hit {
    /// The stored proposal, re-emitted as it is.
    Replay(Option<Proposal>),
    /// A certified stay, with the bound its lookup lowered.
    Certified(f64),
}

impl MemoHit {
    /// The proposal to re-emit, bit-identical to a fresh one.
    pub fn proposal(&self) -> Option<Proposal> {
        match self.0 {
            Hit::Replay(proposal) => proposal,
            Hit::Certified(_) => None,
        }
    }
}

/// Memoized per-peer proposals under one [`MemoGate`]. Drive it with one
/// [`begin_round`](ProposalMemo::begin_round) per round, then any
/// number of concurrent [`lookup`](ProposalMemo::lookup)s (`&self` —
/// safe inside the sharded phase 1), then
/// [`store`](ProposalMemo::store) for every miss and
/// [`renew`](ProposalMemo::renew) for every hit.
#[derive(Debug, Clone)]
pub struct ProposalMemo {
    /// Which inputs the entries are validated against.
    gate: MemoGate,
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
    /// The candidate sequence of the current round, in scan order
    /// (ascending ids).
    last_candidates: Vec<ClusterId>,
    /// `allow_empty` of the current round.
    last_allow_empty: bool,
    /// `D`: candidates whose cluster epoch moved since `stamp` or that
    /// are new to the sequence, sorted ascending. Meaningless when
    /// `stale` or `overflow`.
    changed: Vec<ClusterId>,
    /// `D`'s join-inclusive membership prices `α·θ(size + 1)/|P|` with
    /// each cluster's position in `changed`, ascending by price.
    by_price: Vec<(f64, u8)>,
    /// Bit `c mod 64` set for every `c` in `D`: one load rules most mass
    /// cells out before a search of `changed`.
    changed_bits: u64,
    /// Whether every entry is stale this round (global epoch moved or
    /// lineage switch).
    stale: bool,
    /// Whether `|D|` exceeded [`MAX_CHANGED`] (the journal gate misses).
    overflow: bool,
}

impl ProposalMemo {
    /// An empty memo validating entries under `gate`.
    pub fn new(gate: MemoGate) -> Self {
        ProposalMemo {
            gate,
            system_id: 0,
            entries: Vec::new(),
            stamp: 0,
            cand_version: 0,
            last_candidates: Vec::new(),
            last_allow_empty: false,
            changed: Vec::new(),
            by_price: Vec::new(),
            changed_bits: 0,
            stale: true,
            overflow: false,
        }
    }

    /// Opens a round: adopts the view's lineage, versions the candidate
    /// sequence, computes and prices the changed-cluster set `D` since
    /// the previous round's snapshot and advances the snapshot stamp.
    /// O(candidates). Must run before any [`lookup`](Self::lookup) of
    /// the round — the engine calls it right after building the round's
    /// view.
    pub fn begin_round(&mut self, view: &SystemView<'_>, allow_empty: bool) {
        let epochs = view.epochs();
        if self.system_id != epochs.system_id() {
            self.entries.clear();
            self.system_id = epochs.system_id();
            self.stale = true;
        } else {
            self.stale = epochs.global() > self.stamp;
        }

        // The scan-order candidate sequence: `best_response`'s own.
        let candidates: Vec<ClusterId> = candidate_order(view.overlay(), allow_empty).collect();
        let same = candidates == self.last_candidates;

        // Only the journal gate reads `D`.
        self.changed.clear();
        if !self.stale && self.gate == MemoGate::Journal {
            for &cid in &candidates {
                if epochs.cluster(cid) > self.stamp
                    || (!same && !sorted_contains(&self.last_candidates, cid))
                {
                    self.changed.push(cid);
                }
            }
        }
        self.overflow = self.changed.len() > MAX_CHANGED;
        if self.overflow {
            self.changed.clear();
        }
        self.by_price.clear();
        self.changed_bits = 0;
        if !self.changed.is_empty() {
            // Moves keep `|P|` and only a move changes a cluster without
            // stamping the global epoch, so `D ≠ ∅` implies live peers.
            let cfg = view.config();
            for (i, &cid) in self.changed.iter().enumerate() {
                let size = view.overlay().size(cid) + 1;
                let price = cfg.alpha * cfg.theta.membership(size, view.n_peers());
                self.by_price.push((price, i as u8));
                self.changed_bits |= 1 << (cid.0 % 64);
            }
            self.by_price.sort_by(|a, b| a.0.total_cmp(&b.0));
        }

        if !same || allow_empty != self.last_allow_empty {
            self.cand_version += 1;
            self.last_candidates = candidates;
            self.last_allow_empty = allow_empty;
        }
        self.stamp = epochs.now();
    }

    /// Looks up `peer`'s memoized proposal under the gate opened by the
    /// round's [`begin_round`](Self::begin_round). A hit re-emits a
    /// proposal bit-identical to recomputing it, and must be handed to
    /// [`renew`](Self::renew) afterwards; `None` means the caller must
    /// recompute (and [`store`](Self::store) the result). Takes `&self`
    /// — safe to call concurrently from the sharded phase 1.
    pub fn lookup(&self, view: &SystemView<'_>, peer: PeerId) -> Option<MemoHit> {
        if self.stale || self.system_id != view.epochs().system_id() {
            return None;
        }
        let e = self.entries.get(peer.index())?;
        let home = view.overlay().cluster_of(peer)?;
        if !e.occupied || e.allow_empty != self.last_allow_empty || e.home != home {
            return None;
        }
        let current = e.cand_version == self.cand_version;
        let hit = MemoHit(Hit::Replay(e.proposal));
        match self.gate {
            MemoGate::None => None,
            MemoGate::FrozenSnapshot => current.then_some(hit),
            MemoGate::Journal if self.overflow => None,
            MemoGate::Journal => match &e.trace {
                // Nothing changed since the stay was last certified:
                // neither γ nor any candidate's cost moved.
                ChainInfo::Stay { .. } if self.changed.is_empty() => Some(hit),
                ChainInfo::Stay { bound } => {
                    let lb = bound.min(self.cheapest_changed(view, peer, home));
                    (lb >= pcost_current(view, peer) - COST_EPS)
                        .then_some(MemoHit(Hit::Certified(lb)))
                }
                _ if !current || sorted_contains(&self.changed, home) => None,
                ChainInfo::Unknown => self.changed.is_empty().then_some(hit),
                ChainInfo::Known(chain) => {
                    if chain.iter().any(|&c| sorted_contains(&self.changed, c)) {
                        return None;
                    }
                    // Home is not in D, so γ is what the scan compared
                    // against; no changed cluster may newly clear the
                    // take threshold (γ ≥ the running best everywhere).
                    let undercut = !self.changed.is_empty()
                        && self.cheapest_changed(view, peer, home)
                            < pcost_current(view, peer) - COST_EPS;
                    (!undercut).then_some(hit)
                }
            },
        }
    }

    /// The fresh cost to `peer` of the cheapest cluster of `D` other than
    /// its home (`+∞` when there is none): clusters its queries reach
    /// are costed with [`pcost`], the rest at their membership price
    /// plus the cached *away* term.
    fn cheapest_changed(&self, view: &SystemView<'_>, peer: PeerId, home: ClusterId) -> f64 {
        if self.changed.is_empty() {
            return f64::INFINITY;
        }
        let index = view.index();
        let mut reached = 0u32;
        for &(qid, _) in index.workload_of(peer) {
            for cell in index.mass_cells(qid) {
                if (self.changed_bits >> (cell.cluster.0 % 64)) & 1 != 0 {
                    if let Ok(i) = self.changed.binary_search(&cell.cluster) {
                        reached |= 1 << i;
                    }
                }
            }
        }
        let mut cheapest = f64::INFINITY;
        let mut rest = reached;
        while rest != 0 {
            let cid = self.changed[rest.trailing_zeros() as usize];
            rest &= rest - 1;
            if cid != home {
                cheapest = cheapest.min(pcost(view, peer, cid));
            }
        }
        let unreached = self
            .by_price
            .iter()
            .find(|&&(_, i)| (reached >> i) & 1 == 0 && self.changed[usize::from(i)] != home);
        if let Some(&(price, _)) = unreached {
            cheapest = cheapest.min(price + view.cost_cache().away_of(peer));
        }
        cheapest
    }

    /// Stores a freshly computed proposal and its trace against the
    /// current round. Peers without a cluster are not stored.
    pub fn store(
        &mut self,
        view: &SystemView<'_>,
        peer: PeerId,
        allow_empty: bool,
        proposal: Option<Proposal>,
        trace: ChainInfo,
    ) {
        let Some(home) = view.overlay().cluster_of(peer) else {
            return;
        };
        let system_id = view.epochs().system_id();
        if self.system_id != system_id {
            // A different system lineage: none of the old stamps mean
            // anything here — start over (the next `begin_round`
            // re-derives the round state against the new lineage).
            self.entries.clear();
            self.system_id = system_id;
        }
        if self.entries.len() <= peer.index() {
            // Every slot at once: growing peer by peer would double the
            // capacity past the slot count.
            let slots = view.overlay().n_slots().max(peer.index() + 1);
            self.entries.resize(slots, MemoEntry::default());
        }
        self.entries[peer.index()] = MemoEntry {
            cand_version: self.cand_version,
            proposal,
            trace,
            home,
            allow_empty,
            occupied: true,
        };
    }

    /// Carries a hit into the next round: a stay certificate keeps the
    /// bound its lookup lowered (see the module docs for why it must).
    pub fn renew(&mut self, peer: PeerId, hit: MemoHit) {
        if let (Hit::Certified(lowered), Some(e)) = (hit.0, self.entries.get_mut(peer.index())) {
            if let ChainInfo::Stay { bound } = &mut e.trace {
                *bound = lowered;
            }
        }
    }

    /// Drops every entry (e.g. when the engine switches system).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stale = true;
    }
}

/// Binary search membership in an ascending cluster list.
fn sorted_contains(sorted: &[ClusterId], cid: ClusterId) -> bool {
    sorted.binary_search(&cid).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::COST_EPS;
    use crate::protocol::{ProtocolConfig, ProtocolEngine};
    use crate::strategy::{ObservedStrategy, RelocationStrategy, SelfishStrategy};
    use crate::system::{GameConfig, System};
    use crate::tracker::{simulate_period, ObservedStats};
    use recluster_overlay::{ContentStore, Overlay, SimNetwork, Theta};
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

    fn journal() -> ProposalMemo {
        ProposalMemo::new(MemoGate::Journal)
    }

    fn traced_proposal(sys: &mut System, peer: PeerId) -> (Option<Proposal>, ChainInfo) {
        SelfishStrategy.propose_traced(&sys.view(), peer, true)
    }

    /// The proposal a lookup serves, if it hits.
    fn served(memo: &ProposalMemo, sys: &mut System, peer: PeerId) -> Option<Option<Proposal>> {
        memo.lookup(&sys.view(), peer).map(|hit| hit.proposal())
    }

    /// Runs the phase-1 discipline for one peer: begin the round, then
    /// store a freshly computed entry.
    fn prime(memo: &mut ProposalMemo, sys: &mut System, peer: PeerId) -> Option<Proposal> {
        memo.begin_round(&sys.view(), true);
        let (fresh, trace) = traced_proposal(sys, peer);
        memo.store(&sys.view(), peer, true, fresh, trace);
        fresh
    }

    #[test]
    fn memo_hits_when_nothing_changed() {
        let mut sys = fixture();
        let mut memo = journal();
        let fresh = prime(&mut memo, &mut sys, PeerId(0));
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), Some(fresh));
    }

    #[test]
    fn memo_rechecks_changed_clusters_through_the_fine_gate() {
        let mut sys = fixture();
        let mut memo = journal();
        // p0 wants c1 (the Sym(1) holder); its chain is [c1].
        let fresh = prime(&mut memo, &mut sys, PeerId(0)).expect("p0 wants to move");
        assert_eq!(fresh.to, ClusterId(1));
        // p2's move c2 → c1 changes two candidate clusters, one of them
        // *on* p0's chain — the fine gate must miss.
        sys.move_peer(PeerId(2), ClusterId(1));
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), None);
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
        let mut memo = journal();
        let fresh = prime(&mut memo, &mut sys, PeerId(0)).expect("p0 wants c1");
        assert_eq!(fresh.to, ClusterId(1));
        // p2 joins p3: candidates c2, c3 change; p0's chain is [c1].
        sys.move_peer(PeerId(2), ClusterId(3));
        memo.begin_round(&sys.view(), true);
        assert_eq!(
            served(&memo, &mut sys, PeerId(0)),
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
        // the full recall recovery (1.6 > 1.4), so p0 stays put. Then a
        // member leaves c1: joining the now smaller cluster costs
        // 6/5 < 1.4 — a changed cluster newly undercuts the unchanged
        // current cost, and the certificate's bound must catch it.
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
        let mut memo = journal();
        let fresh = prime(&mut memo, &mut sys, PeerId(0));
        assert_eq!(fresh, None, "fixture: p0 must start with no move");
        // p3 leaves c1 for p4's cluster: D = {c1, c4}, p0's own cluster
        // untouched.
        sys.move_peer(PeerId(3), ClusterId(4));
        memo.begin_round(&sys.view(), true);
        assert_eq!(
            served(&memo, &mut sys, PeerId(0)),
            None,
            "the certificate must evict: c1 newly undercuts"
        );
        let (recomputed, _) = traced_proposal(&mut sys, PeerId(0));
        assert_eq!(
            recomputed
                .expect("p0 now wants the smaller holder cluster")
                .to,
            ClusterId(1)
        );
    }

    /// Eight peers, α = 1, linear θ (every membership price is a
    /// multiple of 1/8, exact in binary). p0 queries Sym(1), which p1
    /// (p0's co-member in c0) and p2 (in c2, with p3–p5) hold; p6 and
    /// p7 share c6. p0 stays: γ = 2/8 + 1/2 = 0.75, while c2 costs
    /// 5/8 + 1/2 = 1.125, c6 1.375 and an empty slot 1.125.
    fn certificate_fixture() -> System {
        let mut ov = Overlay::singletons(8);
        for (peer, to) in [(1, 0), (3, 2), (4, 2), (5, 2), (7, 6)] {
            ov.move_peer(PeerId(peer), ClusterId(to));
        }
        let mut store = ContentStore::new(8);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(2), Document::new(vec![Sym(1)]));
        let mut workloads = vec![Workload::new(); 8];
        workloads[0].add(Query::keyword(Sym(1)), 1);
        System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        )
    }

    /// One round of the engine's discipline for `peer`: a hit is renewed,
    /// a miss stored fresh. Returns whether it hit and what it proposed.
    fn engine_round(
        memo: &mut ProposalMemo,
        sys: &mut System,
        peer: PeerId,
    ) -> (bool, Option<Proposal>) {
        let view = sys.view();
        memo.begin_round(&view, true);
        match memo.lookup(&view, peer) {
            Some(hit) => {
                memo.renew(peer, hit);
                (true, hit.proposal())
            }
            None => {
                let (fresh, trace) = SelfishStrategy.propose_traced(&view, peer, true);
                memo.store(&view, peer, true, fresh, trace);
                (false, fresh)
            }
        }
    }

    #[test]
    fn a_lowered_bound_outlives_the_round_that_lowered_it() {
        let mut sys = certificate_fixture();
        let mut memo = journal();
        assert_eq!(engine_round(&mut memo, &mut sys, PeerId(0)), (false, None));

        // Round 1: p3 leaves c2 for c6. c2 now costs 4/8 + 1/2 = 1.0,
        // still above γ = 0.75: the stay is certified again, and its
        // bound falls from 1.125 to c2's 1.0.
        sys.move_peer(PeerId(3), ClusterId(6));
        assert_eq!(engine_round(&mut memo, &mut sys, PeerId(0)), (true, None));

        // Round 2: p1 leaves p0's cluster for c6, taking its Sym(1)
        // result along. γ rises to 1/8 + 1 = 1.125 and c6 costs
        // 5/8 + 1/2 = 1.125, but c2 (1.0) did not change, so only the
        // written-back bound still knows it is cheaper than γ.
        sys.move_peer(PeerId(1), ClusterId(6));
        let (hit, proposal) = engine_round(&mut memo, &mut sys, PeerId(0));
        assert!(!hit, "a stale certificate served a stay");
        let to = proposal.expect("p0 now wants c2").to;
        assert_eq!(to, ClusterId(2));
        let view = sys.view();
        assert!(
            crate::cost::pcost(&view, PeerId(0), to) < pcost_current(&view, PeerId(0)) - COST_EPS
        );
    }

    #[test]
    fn memo_misses_after_own_workload_changed() {
        let mut sys = fixture();
        let mut memo = journal();
        prime(&mut memo, &mut sys, PeerId(0));
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(2)), 1);
        sys.set_workload(PeerId(0), w);
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), None);
        // …and the fresh proposal differs (the peer now wants p2's
        // cluster), which is exactly why the gate had to fire.
        let (after, _) = traced_proposal(&mut sys, PeerId(0));
        assert_eq!(after.expect("still wants to move").to, ClusterId(2));
    }

    #[test]
    fn memo_distinguishes_allow_empty() {
        let mut sys = fixture();
        let mut memo = journal();
        memo.begin_round(&sys.view(), true);
        memo.store(&sys.view(), PeerId(0), true, None, ChainInfo::Unknown);
        memo.begin_round(&sys.view(), false);
        assert_eq!(
            served(&memo, &mut sys, PeerId(0)),
            None,
            "a proposal computed with empty targets must not serve a round without them"
        );
    }

    #[test]
    fn memo_never_crosses_system_lineages() {
        // A fresh system's clocks are all zero — the same values another
        // fresh system's stamps carry. Entries are keyed on the lineage
        // id precisely so one engine reused on a second system
        // recomputes instead of replaying the first system's proposals.
        let mut sys_a = fixture();
        let mut memo = journal();
        let fresh = prime(&mut memo, &mut sys_a, PeerId(0));
        let mut sys_b = fixture();
        memo.begin_round(&sys_b.view(), true);
        assert_eq!(served(&memo, &mut sys_b, PeerId(0)), None);
        // Storing against the new lineage adopts it and works normally.
        memo.store(&sys_b.view(), PeerId(0), true, None, ChainInfo::Unknown);
        memo.begin_round(&sys_b.view(), true);
        assert_eq!(served(&memo, &mut sys_b, PeerId(0)), Some(None));
        // ...and a clone forks a *fresh* lineage too: after the fork the
        // two histories diverge with independently advancing clocks, so
        // stamps taken on one must never validate against the other.
        let mut clone = sys_a.clone();
        let mut memo2 = journal();
        memo2.begin_round(&sys_a.view(), true);
        let (_, trace) = traced_proposal(&mut sys_a, PeerId(0));
        memo2.store(&sys_a.view(), PeerId(0), true, fresh, trace);
        memo2.begin_round(&clone.view(), true);
        assert_eq!(served(&memo2, &mut clone, PeerId(0)), None);
    }

    #[test]
    fn memo_misses_for_unknown_peers() {
        let mut sys = fixture();
        let mut memo = journal();
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), None);
    }

    #[test]
    fn unknown_chain_requires_an_unchanged_candidate_set() {
        let mut sys = fixture();
        let mut memo = journal();
        memo.begin_round(&sys.view(), true);
        memo.store(&sys.view(), PeerId(0), true, None, ChainInfo::Unknown);
        // Quiet round: Unknown-chain entries still hit.
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), Some(None));
        // Any candidate change: Unknown-chain entries miss wholesale,
        // even when the change is provably irrelevant to the peer.
        sys.move_peer(PeerId(2), ClusterId(1));
        memo.begin_round(&sys.view(), true);
        assert_eq!(served(&memo, &mut sys, PeerId(0)), None);
    }

    /// Six peers, α = 1: p0 (sharing c0 with p4) queries Sym(1), which
    /// p1 holds; p2 queries Sym(2), which p3 holds; p5 is alone in c4,
    /// and c5 is empty. Observed selfish: p0 wants c1, p2 wants c3, and
    /// p4 wants the first empty slot.
    fn observed_fixture() -> System {
        let mut ov = Overlay::singletons(6);
        ov.move_peer(PeerId(4), ClusterId(0));
        ov.move_peer(PeerId(5), ClusterId(4));
        let mut store = ContentStore::new(6);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(3), Document::new(vec![Sym(2)]));
        let mut workloads = vec![Workload::new(); 6];
        workloads[0].add(Query::keyword(Sym(1)), 1);
        workloads[2].add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        )
    }

    fn observe(sys: &System) -> ObservedStats {
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&simulate_period(sys, &mut SimNetwork::new()));
        stats
    }

    #[test]
    fn frozen_snapshot_hits_equal_fresh_observed_proposals() {
        let mut sys = observed_fixture();
        let stats = observe(&sys);
        let strategy = ObservedStrategy::selfish(&stats);
        let mut memo = ProposalMemo::new(strategy.memo_gate());
        // Round 0 stores every peer; each op then moves one peer. p0
        // joins c2: the candidate sequence stays, but p0's own cost,
        // and so its gain, moved with it. p5 joins c3: c4 empties and
        // becomes the first empty slot in place of c5, and p4 finds no
        // cheaper cluster (the snapshot still sizes c4 at one).
        let mut hits = 0;
        for op in [None, Some((0, 2)), Some((5, 3))] {
            if let Some((peer, to)) = op {
                sys.move_peer(PeerId(peer), ClusterId(to));
            }
            let view = sys.view();
            memo.begin_round(&view, true);
            for p in view.overlay().peers() {
                let fresh = strategy.propose(&view, p, true);
                match memo.lookup(&view, p) {
                    Some(hit) => {
                        hits += 1;
                        assert_eq!(hit.proposal(), fresh, "{p} after {op:?}");
                        memo.renew(p, hit);
                    }
                    None => memo.store(&view, p, true, fresh, ChainInfo::Unknown),
                }
            }
        }
        assert!(hits > 0, "untouched peers must be served");
    }

    /// Every round's requests and grants, to the bit.
    fn trace(outcome: &crate::protocol::RunOutcome) -> String {
        let mut out = String::new();
        for r in &outcome.rounds {
            for q in &r.requests {
                out += &format!("{}>{}:{:x} ", q.peer, q.dst, q.gain.to_bits());
            }
            out += &format!("granted {}\n", r.granted.len());
        }
        out
    }

    #[test]
    fn observed_memo_spans_runs_and_config_changes() {
        let base = observed_fixture();
        let stats = observe(&base);
        let run = |memoize: bool| {
            let mut sys = base.clone();
            let cfg = ProtocolConfig::builder().memoize(memoize).build();
            let mut engine = ProtocolEngine::new(ObservedStrategy::selfish(&stats), cfg);
            let mut net = SimNetwork::new();
            let first = engine.run(&mut sys, &mut net);
            let quiet = engine.run(&mut sys, &mut net);
            sys.set_config(GameConfig {
                alpha: 0.25,
                theta: Theta::Linear,
            });
            let after = engine.run(&mut sys, &mut net);
            (trace(&first), trace(&quiet), trace(&after), quiet, after)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!((&on.0, &on.1, &on.2), (&off.0, &off.1, &off.2));
        assert!(on.3.total_memoized() > 0 && on.3.total_recomputed() == 0);
        assert!(
            on.4.rounds[0].proposals_memoized == 0,
            "set_config must make every entry stale"
        );
        // The objectives that read live sizes are never memoized.
        for strategy in [
            ObservedStrategy::altruistic(&stats),
            ObservedStrategy::hybrid(&stats, 0.5),
        ] {
            let mut sys = base.clone();
            let mut engine = ProtocolEngine::new(strategy, ProtocolConfig::default());
            let mut net = SimNetwork::new();
            engine.run(&mut sys, &mut net);
            let rerun = engine.run(&mut sys, &mut net);
            assert_eq!(rerun.total_memoized(), 0, "{}", strategy.name());
        }
    }
}
