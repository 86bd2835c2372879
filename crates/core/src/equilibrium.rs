//! Best responses and Nash equilibria (§2.3).
//!
//! "A (pure) Nash equilibrium is a set of strategies S such that […] no
//! peer has an incentive to change the set of clusters it currently
//! belongs to." The paper proves by a two-peer example that an
//! equilibrium does not always exist; that example is reproduced in this
//! module's tests.

use recluster_overlay::Overlay;
use recluster_types::{ClusterId, PeerId};

use crate::cost::{membership_cost, pcost_current};
use crate::recall::{MassCell, RecallIndex};
use crate::view::SystemRead;

/// Float slack used when comparing costs, so ulp-level noise never counts
/// as an "improvement".
pub const COST_EPS: f64 = 1e-9;

/// The widest candidate list [`best_response_set_over`] enumerates: its
/// subsets are the bits of a `u32` mask, and 2²⁰ of them is already
/// far past analysis scale.
const MAX_SET_CANDIDATES: usize = 20;

/// A peer's best response: the cheapest cluster and the gain over its
/// current cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The cost-minimizing cluster (the peer's current one if no strict
    /// improvement exists).
    pub cluster: ClusterId,
    /// `pcost(p, current) − pcost(p, best)`; zero when staying is
    /// optimal.
    pub gain: f64,
}

/// Computes the best response of `peer` over all `Cmax` clusters
/// (including empty ones unless `allow_empty` is false — §4.2 fixes the
/// cluster count and forbids moves to empty clusters).
///
/// Ties are broken toward the current cluster first, then the lowest
/// cluster id, so the result is deterministic.
///
/// Cost: one gather of the peer's answerable queries, then
/// O(answerable queries) per candidate over O(non-empty clusters)
/// candidates, not O(`Cmax`). The gather reads each query's weight,
/// result total, the peer's own share `r(q, p)` and its sparse mass row
/// once; each mass row is then walked alongside the ascending
/// candidates, so no candidate re-derives `r(q, p)` or searches a row.
/// A candidate's cost is the same operations, in the same order, as
/// [`pcost`](crate::cost::pcost), so every cost, gain and take is
/// bit-identical to a scan that calls `pcost` per candidate.
///
/// Every empty cluster has the same cost for a given peer (size 0, no
/// recall mass), so only the *first* empty slot can ever win a
/// strict-improvement scan over ascending ids — it is evaluated at
/// exactly its id position and the rest are skipped, which selects the
/// same cluster a full scan would.
pub fn best_response<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    allow_empty: bool,
) -> BestResponse {
    let mut chain = Vec::new();
    best_response_with_chain(system, peer, allow_empty, &mut chain)
}

/// [`best_response`] that additionally records the scan's **take
/// chain** into `chain` (cleared first): the successive clusters that
/// strictly improved the running best, in scan order, ending with the
/// returned cluster (empty when staying is optimal). The chain is what
/// cross-round proposal memoization needs — a memoized scan replays
/// identically as long as no cluster *in the chain* changed and no
/// changed cluster newly undercuts the final best, because a cluster
/// outside the chain was rejected against a running best that is at
/// most the current cost at every scan position.
pub fn best_response_with_chain<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    allow_empty: bool,
    chain: &mut Vec<ClusterId>,
) -> BestResponse {
    chain.clear();
    let current = system
        .overlay()
        .cluster_of(peer)
        .unwrap_or_else(|| panic!("{peer} is unassigned"));
    let current_cost = pcost_current(system, peer);
    let mut inline = [GatheredQuery::NONE; INLINE_QUERIES];
    let mut spilled = Vec::new();
    let queries = gather_queries(system.index(), peer, &mut inline, &mut spilled);
    let mut best = BestResponse {
        cluster: current,
        gain: 0.0,
    };
    let mut best_cost = current_cost;
    for cid in candidate_order(system.overlay(), allow_empty) {
        if cid == current {
            continue;
        }
        let cost = membership_cost(system, peer, cid) + recall_loss_away(queries, cid);
        if cost < best_cost - COST_EPS {
            best_cost = cost;
            best = BestResponse {
                cluster: cid,
                gain: current_cost - cost,
            };
            chain.push(cid);
        }
    }
    best
}

/// The clusters a single-cluster best response visits, in visit order:
/// the non-empty clusters ascending, with the first empty slot at its id
/// position when `allow_empty` (see [`best_response`] for why one empty
/// slot stands for all). The observed selfish choice and the proposal
/// memo's candidate sequence iterate the same order.
pub(crate) fn candidate_order(
    overlay: &Overlay,
    allow_empty: bool,
) -> impl Iterator<Item = ClusterId> + '_ {
    let non_empty = overlay.non_empty_ids();
    let empty = if allow_empty {
        overlay.first_empty_cluster()
    } else {
        None
    };
    // Every id below the first empty slot is non-empty, so exactly
    // `empty.index()` non-empty ids precede it.
    let (below, above) = non_empty.split_at(empty.map_or(non_empty.len(), ClusterId::index));
    below
        .iter()
        .copied()
        .chain(empty)
        .chain(above.iter().copied())
}

/// Workload length up to which a best-response scan gathers the peer's
/// queries without touching the heap; longer workloads spill to a
/// vector. Most workloads are short and phase 1 recomputes proposals by
/// the million, so one allocation per scan shows: gathering into a
/// fresh `Vec` every time read about 9 % slower on the churn_100k
/// benchmark (2 vCPUs) and no different on the 1 000-candidate scans
/// of runtime_1k.
const INLINE_QUERIES: usize = 16;

/// One answerable query of the scanning peer, as the candidate costs
/// read it: the workload weight, the result total, the peer's own share
/// `r(q, p)` and the part of the query's mass row the ascending scan
/// has not yet passed.
#[derive(Debug, Clone, Copy)]
struct GatheredQuery<'a> {
    weight: f64,
    total: f64,
    own: f64,
    cells: &'a [MassCell],
}

impl GatheredQuery<'_> {
    /// Filler for unused inline slots.
    const NONE: Self = GatheredQuery {
        weight: 0.0,
        total: 0.0,
        own: 0.0,
        cells: &[],
    };
}

/// Gathers `peer`'s answerable queries (total > 0) in workload order,
/// into `inline` when they fit and into `spilled` otherwise, and
/// returns the filled part.
fn gather_queries<'a, 'b>(
    index: &'a RecallIndex,
    peer: PeerId,
    inline: &'b mut [GatheredQuery<'a>; INLINE_QUERIES],
    spilled: &'b mut Vec<GatheredQuery<'a>>,
) -> &'b mut [GatheredQuery<'a>] {
    let workload = index.workload_of(peer);
    let slots: &mut [GatheredQuery<'a>] = if workload.len() <= INLINE_QUERIES {
        inline
    } else {
        spilled.resize(workload.len(), GatheredQuery::NONE);
        spilled
    };
    let mut len = 0;
    for &(qid, weight) in workload {
        let total = index.total(qid);
        if total == 0 {
            continue; // unanswerable query: no recall to lose
        }
        slots[len] = GatheredQuery {
            weight,
            total: total as f64,
            own: index.r(qid, peer),
            cells: index.mass_cells(qid),
        };
        len += 1;
    }
    &mut slots[..len]
}

/// The recall-loss term of `pcost(p, cid)` for a cluster `cid` the peer
/// is not in, from its gathered queries: the out-of-cluster arithmetic
/// of [`recall_loss`](crate::cost::recall_loss), term by term in
/// workload order, with a result count of 0 where a mass row has no
/// cell for `cid`. Each row is advanced past every cluster below `cid`,
/// so successive calls must pass ascending clusters.
fn recall_loss_away(queries: &mut [GatheredQuery<'_>], cid: ClusterId) -> f64 {
    let mut loss = 0.0;
    for q in queries {
        while let [cell, rest @ ..] = q.cells {
            if cell.cluster >= cid {
                break;
            }
            q.cells = rest;
        }
        let num = match q.cells.first() {
            Some(cell) if cell.cluster == cid => cell.results,
            _ => 0,
        };
        let inside = num as f64 / q.total + q.own;
        // Clamp for float safety: mass + own share can exceed 1 by ulps.
        loss += q.weight * (1.0 - inside.min(1.0));
    }
    loss
}

/// Whether the current configuration is a (pure) Nash equilibrium: no
/// peer can strictly lower its cost by relocating.
pub fn is_nash_equilibrium<S: SystemRead + ?Sized>(system: &S, allow_empty: bool) -> bool {
    system
        .overlay()
        .peers()
        .all(|p| best_response(system, p, allow_empty).gain <= COST_EPS)
}

/// Best response in the *general* §2.1 game where strategies are cluster
/// sets: enumerates all subsets of the non-empty clusters (plus one
/// empty slot) up to `max_set_size` and returns the cheapest, with its
/// cost. Exponential in `max_set_size` — intended for analysis on small
/// systems, not for the protocol hot path.
///
/// # Panics
/// Panics if there are more than 20 candidates, that is 20 non-empty
/// clusters plus an empty slot (see [`best_response_set_over`]).
pub fn best_response_set<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    max_set_size: usize,
) -> (Vec<ClusterId>, f64) {
    let mut candidates: Vec<ClusterId> = system.overlay().non_empty_ids().to_vec();
    if let Some(empty) = system.overlay().first_empty_cluster() {
        candidates.push(empty);
    }
    best_response_set_over(system, peer, &candidates, max_set_size)
}

/// [`best_response_set`] over an explicit candidate list. The candidate
/// clusters of the §2.1 game (non-empty ids plus the first empty slot)
/// are identical for every peer, so callers sweeping *many* peers
/// against one fixed configuration — the ablation drivers — compute the
/// list once (a plain borrow of the overlay's maintained non-empty ids)
/// instead of re-deriving it per peer.
///
/// # Panics
/// Panics if there are more than 20 candidates: subsets are enumerated
/// as a 20-bit mask, and dropping the candidates past it could return a
/// set that is not the optimum.
pub fn best_response_set_over<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    candidates: &[ClusterId],
    max_set_size: usize,
) -> (Vec<ClusterId>, f64) {
    assert!(
        candidates.len() <= MAX_SET_CANDIDATES,
        "best_response_set_over enumerates subsets with a {MAX_SET_CANDIDATES}-wide mask, \
         but got {} candidates",
        candidates.len()
    );
    let mut best_set = Vec::new();
    let mut best_cost = crate::cost::pcost_set(system, peer, &[]);
    // Subset enumeration by bitmask over the candidate list.
    let n = candidates.len();
    for mask in 1u32..(1 << n) {
        if (mask.count_ones() as usize) > max_set_size {
            continue;
        }
        let set: Vec<ClusterId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| candidates[i])
            .collect();
        let cost = crate::cost::pcost_set(system, peer, &set);
        if cost < best_cost - COST_EPS {
            best_cost = cost;
            best_set = set;
        }
    }
    (best_set, best_cost)
}

/// The largest best-response gain over all peers (zero at equilibrium) —
/// a convergence diagnostic.
pub fn max_gain<S: SystemRead + ?Sized>(system: &S, allow_empty: bool) -> f64 {
    system
        .overlay()
        .peers()
        .map(|p| best_response(system, p, allow_empty).gain)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::cost::pcost;
    use crate::system::{GameConfig, System};

    /// The §2.3 counter-example: Q(p1) = {q1} answered only by p2,
    /// Q(p2) = {q2} answered only by p2, linear θ, α > 0.
    fn paper_counter_example(alpha: f64) -> System {
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
    fn no_configuration_of_the_paper_example_is_an_equilibrium() {
        // Configuration A: p1 ∈ c1, p2 ∈ c2 (as built): p1 wants to move.
        let sys = paper_counter_example(1.0);
        assert!(!is_nash_equilibrium(&sys, true));
        let br = best_response(&sys, PeerId(0), true);
        assert_eq!(br.cluster, ClusterId(1));
        assert!((br.gain - 0.5).abs() < 1e-12);

        // Configuration B: both in the same cluster: p2 wants to flee to
        // an empty cluster.
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(!is_nash_equilibrium(&sys, true));
        let br = best_response(&sys, PeerId(1), true);
        assert!(sys.overlay().cluster(br.cluster).is_empty());
        assert!((br.gain - 0.5).abs() < 1e-12);

        // Configuration C: swapped singletons (symmetric to A).
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        sys.move_peer(PeerId(1), ClusterId(0));
        assert!(!is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn counter_example_cycles_for_small_positive_alpha() {
        // The paper states the example has no equilibrium "for any value
        // of α > 0", but its own arithmetic (pcost(p1,c2) = α ≤ α/2 + 1)
        // requires α < 2 for a *strict* improvement; at α ≥ 2 the
        // split configuration is stable. We reproduce the claim on its
        // actual domain.
        for &alpha in &[0.1, 0.5, 1.0, 1.9] {
            let sys = paper_counter_example(alpha);
            assert!(
                !is_nash_equilibrium(&sys, true),
                "alpha={alpha} should not be an equilibrium"
            );
        }
    }

    #[test]
    fn counter_example_stabilizes_for_large_alpha() {
        // α ≥ 2: membership dominates; the singleton split is stable.
        let sys = paper_counter_example(3.0);
        assert!(is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn alpha_zero_makes_joint_cluster_an_equilibrium() {
        // With α = 0 membership is free: both peers together is stable.
        let mut sys = paper_counter_example(0.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn forbidding_empty_targets_can_stabilize() {
        // In configuration B, p2's only improving move is to an empty
        // cluster; with empty targets forbidden the state is stable.
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(!is_nash_equilibrium(&sys, true));
        assert!(is_nash_equilibrium(&sys, false));
    }

    #[test]
    fn best_response_prefers_staying_on_ties() {
        // Symmetric system: two peers, no data, no queries.
        let ov = Overlay::singletons(2);
        let store = ContentStore::new(2);
        let sys = System::new(
            ov,
            store,
            vec![Workload::new(), Workload::new()],
            GameConfig::default(),
        );
        let br = best_response(&sys, PeerId(0), true);
        assert_eq!(br.cluster, ClusterId(0));
        assert_eq!(br.gain, 0.0);
    }

    /// `n` singletons after `moves`, and its candidate order under both
    /// empty-target policies as raw ids.
    fn orders_after(n: usize, moves: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
        let mut ov = Overlay::singletons(n);
        for &(peer, to) in moves {
            ov.move_peer(PeerId(peer), ClusterId(to));
        }
        let order = |allow_empty| candidate_order(&ov, allow_empty).map(|c| c.0).collect();
        (order(true), order(false))
    }

    #[test]
    fn candidate_order_places_the_first_empty_slot_at_its_id() {
        // Empty slots 0 and 2: slot 0 leads, slot 2 is skipped.
        assert_eq!(
            orders_after(4, &[(0, 1), (2, 3)]),
            (vec![0, 1, 3], vec![1, 3])
        );
        // Empty slot 2 between non-empty clusters.
        assert_eq!(
            orders_after(4, &[(2, 3)]),
            (vec![0, 1, 2, 3], vec![0, 1, 3])
        );
        // Empty slots 2 and 3 past every non-empty cluster.
        assert_eq!(
            orders_after(4, &[(2, 0), (3, 1)]),
            (vec![0, 1, 2], vec![0, 1])
        );
        // No empty slot: the policy changes nothing.
        assert_eq!(orders_after(3, &[]), (vec![0, 1, 2], vec![0, 1, 2]));
    }

    #[test]
    fn max_gain_is_zero_at_equilibrium() {
        let mut sys = paper_counter_example(0.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert_eq!(max_gain(&sys, true), 0.0);
    }

    #[test]
    fn set_best_response_dominates_single_cluster() {
        // The §2.1 general game can only do better than single
        // membership: its optimum is ≤ the single-cluster optimum.
        let sys = paper_counter_example(0.2);
        for p in [PeerId(0), PeerId(1)] {
            let single = best_response(&sys, p, true);
            let single_cost = pcost(&sys, p, single.cluster);
            let (_, set_cost) = best_response_set(&sys, p, 2);
            assert!(set_cost <= single_cost + 1e-12);
        }
    }

    #[test]
    fn set_best_response_joins_everything_when_membership_is_cheap() {
        // α = 0: membership is free, so the optimal set reaches every
        // result; for p1 that means including p2's cluster.
        let sys = paper_counter_example(0.0);
        let (set, cost) = best_response_set(&sys, PeerId(0), 2);
        assert!(set.contains(&ClusterId(1)), "must cover p2's data: {set:?}");
        assert!(cost.abs() < 1e-12);
    }

    #[test]
    fn set_best_response_stays_single_when_membership_dominates() {
        // Large α: every extra cluster costs more than the recall it
        // recovers, so the best set has at most one cluster.
        let sys = paper_counter_example(3.0);
        let (set, _) = best_response_set(&sys, PeerId(1), 2);
        assert!(
            set.len() <= 1,
            "α=3 should not buy extra memberships: {set:?}"
        );
    }

    /// `n_peers` singletons where peer 0's one query is answered only by
    /// the last peer, so its best set must reach the last cluster.
    fn seeker_and_far_holder(n_peers: usize) -> System {
        let ov = Overlay::singletons(n_peers);
        let mut store = ContentStore::new(n_peers);
        store.add(PeerId::from_index(n_peers - 1), Document::new(vec![Sym(1)]));
        let mut workloads = vec![Workload::new(); n_peers];
        workloads[0].add(Query::keyword(Sym(1)), 1);
        System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 0.1,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn set_best_response_reaches_the_twentieth_candidate() {
        let sys = seeker_and_far_holder(21);
        let candidates: Vec<ClusterId> = (1..21).map(ClusterId::from_index).collect();
        assert_eq!(candidates.len(), 20);
        let (set, cost) = best_response_set_over(&sys, PeerId(0), &candidates, 1);
        assert_eq!(set, vec![ClusterId(20)]);
        assert!((cost - pcost(&sys, PeerId(0), ClusterId(20))).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "20-wide mask, but got 21 candidates")]
    fn set_best_response_refuses_more_than_twenty_candidates() {
        let sys = seeker_and_far_holder(22);
        let candidates: Vec<ClusterId> = (1..22).map(ClusterId::from_index).collect();
        let _ = best_response_set_over(&sys, PeerId(0), &candidates, 1);
    }

    #[test]
    fn max_gain_matches_best_peer() {
        let sys = paper_counter_example(1.0);
        let g0 = best_response(&sys, PeerId(0), true).gain;
        let g1 = best_response(&sys, PeerId(1), true).gain;
        assert!((max_gain(&sys, true) - g0.max(g1)).abs() < 1e-12);
    }
}
