//! The individual peer cost `pcost` (Eq. 1).
//!
//! ```text
//! pcost(p, c) = α · θ(|c|) / |P|
//!             + Σ_{q ∈ Q(p)} num(q,Q(p))/num(Q(p)) · Σ_{pj ∉ c} r(q, pj)
//! ```
//!
//! restricted, as in the paper from §2.3 onwards, to single-cluster
//! strategies. When evaluating a cluster the peer does *not* currently
//! belong to, the membership term uses the size **after** joining
//! (`|c| + 1`) and the peer's own results count toward the in-cluster
//! recall — this is the arithmetic of the §2.3 two-peer example
//! (`pcost(p1, c2) = α·θ(2)/2 + 0 = α`).

use recluster_types::{ClusterId, PeerId};

use crate::view::SystemRead;

/// Membership term of Eq. 1 for `peer` evaluated at cluster `cid`:
/// `α · θ(size') / |P|` with the join-inclusive size.
#[inline]
pub fn membership_cost<S: SystemRead + ?Sized>(system: &S, peer: PeerId, cid: ClusterId) -> f64 {
    let in_cluster = system.overlay().cluster_of(peer) == Some(cid);
    let size = system.overlay().size(cid) + usize::from(!in_cluster);
    let cfg = system.config();
    cfg.alpha * cfg.theta.membership(size, system.n_peers())
}

/// Recall-loss term of Eq. 1 for `peer` evaluated at cluster `cid`: the
/// workload-weighted recall obtainable only from peers *outside* the
/// cluster (with the peer itself counted inside).
#[inline]
pub fn recall_loss<S: SystemRead + ?Sized>(system: &S, peer: PeerId, cid: ClusterId) -> f64 {
    let index = system.index();
    if system.overlay().cluster_of(peer) == Some(cid) {
        // The in-cluster arithmetic is shared with the cost cache so the
        // cached value is bit-identical to this direct computation.
        return crate::costcache::recall_loss_in(index, peer, cid);
    }
    let mut loss = 0.0;
    for &(qid, weight) in index.workload_of(peer) {
        if index.total(qid) == 0 {
            continue; // unanswerable query: no recall to lose
        }
        let inside = index.cluster_mass(qid, cid) + index.r(qid, peer);
        // Clamp for float safety: mass + own share can exceed 1 by ulps.
        loss += weight * (1.0 - inside.min(1.0));
    }
    loss
}

/// The individual cost `pcost(p, c)` of Eq. 1 (single-cluster strategy).
///
/// # Examples
/// The §2.3 two-peer example: `Q(p1) = {q1}` answered by `p2`,
/// `Q(p2) = {q2}` answered by `p2`, linear `θ`, both peers in singleton
/// clusters.
/// ```
/// use recluster_core::{pcost, GameConfig, System};
/// use recluster_overlay::{ContentStore, Overlay, Theta};
/// use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};
///
/// let ov = Overlay::singletons(2);
/// let mut store = ContentStore::new(2);
/// store.add(PeerId(1), Document::new(vec![Sym(1), Sym(2)]));
/// let mut w1 = Workload::new();
/// w1.add(Query::keyword(Sym(1)), 1);
/// let mut w2 = Workload::new();
/// w2.add(Query::keyword(Sym(2)), 1);
/// let sys = System::new(ov, store, vec![w1, w2], GameConfig { alpha: 1.0, theta: Theta::Linear });
///
/// // pcost(p1, c1) = α/2 + 1; moving to c2 gives pcost(p1, c2) = α.
/// assert!((pcost(&sys, PeerId(0), ClusterId(0)) - 1.5).abs() < 1e-12);
/// assert!((pcost(&sys, PeerId(0), ClusterId(1)) - 1.0).abs() < 1e-12);
/// ```
pub fn pcost<S: SystemRead + ?Sized>(system: &S, peer: PeerId, cid: ClusterId) -> f64 {
    membership_cost(system, peer, cid) + recall_loss(system, peer, cid)
}

/// The general multi-cluster individual cost of §2.1: `pcost(p, s)` for
/// a strategy *set* `s ⊆ C`. The membership term sums `θ` over every
/// selected cluster (join-inclusive for clusters `p` is not currently
/// in); the recall term counts only results outside the union `P(s)`.
///
/// With a single-cluster set this equals [`pcost`]; joining every
/// cluster drives the recall loss to zero at maximal membership cost —
/// the trade-off the paper's game is about.
///
/// # Panics
/// Panics in debug builds if `clusters` contains duplicates.
pub fn pcost_set<S: SystemRead + ?Sized>(system: &S, peer: PeerId, clusters: &[ClusterId]) -> f64 {
    debug_assert!(
        {
            let mut seen = clusters.to_vec();
            seen.sort();
            seen.windows(2).all(|w| w[0] != w[1])
        },
        "strategy sets must not repeat clusters"
    );
    let cfg = system.config();
    let index = system.index();
    let current = system.overlay().cluster_of(peer);

    let mut membership = 0.0;
    let mut member_somewhere = false;
    for &cid in clusters {
        let in_cluster = current == Some(cid);
        member_somewhere |= in_cluster;
        let size = system.overlay().size(cid) + usize::from(!in_cluster);
        membership += cfg.alpha * cfg.theta.membership(size, system.n_peers());
    }

    // Single-membership overlays make distinct clusters' recall masses
    // disjoint, so the union mass is the sum of per-cluster masses; the
    // peer's own results count once wherever it goes.
    let mut loss = 0.0;
    for &(qid, weight) in index.workload_of(peer) {
        if index.total(qid) == 0 {
            continue;
        }
        let mut inside: f64 = clusters
            .iter()
            .map(|&cid| index.cluster_mass(qid, cid))
            .sum();
        if !member_somewhere {
            inside += index.r(qid, peer);
        }
        loss += weight * (1.0 - inside.min(1.0));
    }
    membership + loss
}

/// `pcost` of the peer's current cluster. Reads the recall term from
/// the [`CostCache`](crate::costcache::CostCache) — O(1) per call after
/// the flush, instead of O(|Q(p)|) — and is bit-identical to
/// [`pcost`]`(system, peer, current)` because the cache recomputes dirty
/// entries with the same arithmetic.
///
/// # Panics
/// Panics if the peer is unassigned.
#[inline]
pub fn pcost_current<S: SystemRead + ?Sized>(system: &S, peer: PeerId) -> f64 {
    let cid = system
        .overlay()
        .cluster_of(peer)
        .unwrap_or_else(|| panic!("{peer} is unassigned"));
    membership_cost(system, peer, cid) + system.cached_recall_loss(peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::system::{GameConfig, System};

    /// The §2.3 example system: two peers in singleton clusters, all
    /// results held by p2 (our PeerId(1)).
    fn paper_example(alpha: f64) -> System {
        let ov = Overlay::singletons(2);
        let mut store = ContentStore::new(2);
        store.add(PeerId(1), Document::new(vec![Sym(1), Sym(2)]));
        let mut w1 = Workload::new();
        w1.add(Query::keyword(Sym(1)), 1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            vec![w1, w2],
            GameConfig {
                alpha,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn paper_example_costs_match_section_2_3() {
        let sys = paper_example(1.0);
        // pcost(p1,c1) = α·1/2 + 1
        assert!((pcost(&sys, PeerId(0), ClusterId(0)) - 1.5).abs() < 1e-12);
        // pcost(p2,c2) = α·1/2 + 0
        assert!((pcost(&sys, PeerId(1), ClusterId(1)) - 0.5).abs() < 1e-12);
        // pcost(p1,c2) = α·θ(2)/2 = α (p1 joins p2's cluster)
        assert!((pcost(&sys, PeerId(0), ClusterId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example_shared_cluster_costs() {
        let mut sys = paper_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        // Both in c2: pcost = α·θ(2)/2 = α for each.
        assert!((pcost_current(&sys, PeerId(0)) - 1.0).abs() < 1e-12);
        assert!((pcost_current(&sys, PeerId(1)) - 1.0).abs() < 1e-12);
        // p2 evaluated at the empty cluster c1: membership α·1/2, loss 0
        // (p2 holds all its own results).
        assert!((pcost(&sys, PeerId(1), ClusterId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_scales_membership_only() {
        for &alpha in &[0.0, 1.0, 2.0] {
            let sys = paper_example(alpha);
            let expected = alpha * 0.5 + 1.0;
            assert!((pcost(&sys, PeerId(0), ClusterId(0)) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn membership_uses_join_inclusive_size() {
        let sys = paper_example(1.0);
        // c2 currently has 1 member; p1 evaluating it sees θ(2)/2 = 1.
        assert!((membership_cost(&sys, PeerId(0), ClusterId(1)) - 1.0).abs() < 1e-12);
        // p2 evaluating its own cluster sees θ(1)/2 = 0.5.
        assert!((membership_cost(&sys, PeerId(1), ClusterId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recall_loss_counts_own_results_on_join() {
        let sys = paper_example(1.0);
        // p2 owns all results of its query: loss is zero anywhere.
        assert_eq!(recall_loss(&sys, PeerId(1), ClusterId(0)), 0.0);
        assert_eq!(recall_loss(&sys, PeerId(1), ClusterId(1)), 0.0);
        // p1 loses everything staying alone, nothing joining p2.
        assert!((recall_loss(&sys, PeerId(0), ClusterId(0)) - 1.0).abs() < 1e-12);
        assert_eq!(recall_loss(&sys, PeerId(0), ClusterId(1)), 0.0);
    }

    #[test]
    fn empty_workload_peer_pays_membership_only() {
        let ov = Overlay::singletons(2);
        let mut store = ContentStore::new(2);
        store.add(PeerId(0), Document::new(vec![Sym(1)]));
        let sys = System::new(
            ov,
            store,
            vec![Workload::new(), Workload::new()],
            GameConfig::default(),
        );
        assert!((pcost_current(&sys, PeerId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unanswerable_queries_cost_nothing() {
        let ov = Overlay::singletons(2);
        let store = ContentStore::new(2);
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(42)), 5);
        let sys = System::new(ov, store, vec![w, Workload::new()], GameConfig::default());
        assert!((pcost_current(&sys, PeerId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_loss_uses_workload_frequencies() {
        // p0 queries kw(1) ×3 (all results at p1) and kw(2) ×1 (all at p0).
        let ov = Overlay::singletons(2);
        let mut store = ContentStore::new(2);
        store.add(PeerId(0), Document::new(vec![Sym(2)]));
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(1)), 3);
        w.add(Query::keyword(Sym(2)), 1);
        let sys = System::new(
            ov,
            store,
            vec![w, Workload::new()],
            GameConfig {
                alpha: 0.0,
                theta: Theta::Linear,
            },
        );
        // Staying alone: loses kw(1) entirely (weight 3/4).
        assert!((pcost_current(&sys, PeerId(0)) - 0.75).abs() < 1e-12);
        // Joining p1: loses kw(2)? No — own results travel with the peer.
        assert!((pcost(&sys, PeerId(0), ClusterId(1)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn pcost_set_singleton_matches_pcost() {
        let sys = paper_example(1.0);
        for p in [PeerId(0), PeerId(1)] {
            for c in [ClusterId(0), ClusterId(1)] {
                assert!(
                    (pcost_set(&sys, p, &[c]) - pcost(&sys, p, c)).abs() < 1e-12,
                    "{p} at {c}"
                );
            }
        }
    }

    #[test]
    fn joining_every_cluster_eliminates_recall_loss() {
        let sys = paper_example(1.0);
        let all = [ClusterId(0), ClusterId(1)];
        // p1 in both clusters: loses nothing, pays for both memberships:
        // α·θ(1)/2 (its own c1) + α·θ(2)/2 (joining c2) = 0.5 + 1.0.
        let c = pcost_set(&sys, PeerId(0), &all);
        assert!((c - 1.5).abs() < 1e-12);
        // The recall part is zero: compare against membership alone.
        let membership = 0.5 + 1.0;
        assert!((c - membership).abs() < 1e-12);
    }

    #[test]
    fn adding_clusters_never_increases_recall_loss() {
        // Larger sets lose less recall (membership aside): verify via
        // α = 0 so only the recall term remains.
        let sys = paper_example(0.0);
        let single = pcost_set(&sys, PeerId(0), &[ClusterId(0)]);
        let both = pcost_set(&sys, PeerId(0), &[ClusterId(0), ClusterId(1)]);
        assert!(both <= single + 1e-12);
        assert_eq!(both, 0.0);
    }

    #[test]
    fn empty_strategy_set_loses_everything() {
        let sys = paper_example(1.0);
        // No clusters at all: the peer keeps only its own results.
        let c = pcost_set(&sys, PeerId(0), &[]);
        assert!((c - 1.0).abs() < 1e-12, "p1 owns nothing: full loss");
        let c2 = pcost_set(&sys, PeerId(1), &[]);
        assert_eq!(c2, 0.0, "p2 owns all its results");
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn pcost_current_of_unassigned_panics() {
        let ov = Overlay::unassigned(1);
        let store = ContentStore::new(1);
        let sys = System::new(ov, store, vec![Workload::new()], GameConfig::default());
        let _ = pcost_current(&sys, PeerId(0));
    }
}
