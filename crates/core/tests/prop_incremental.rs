//! Equivalence suite for the delta-maintained cost engine: after *any*
//! random interleaving of membership changes (moves, joins, leaves),
//! churn events, content updates and workload updates, the incrementally
//! updated state must equal its from-scratch oracle **bit-identically**:
//!
//! * the [`RecallIndex`] (result rows, totals, workload weights, mass
//!   cells — numerator and answering-member count — and derived float
//!   masses) against [`RecallIndex::rebuild_from`], and every mass cell
//!   against a walk of the live cluster's members, and
//! * the per-peer [`CostCache`](recluster_core::CostCache) (recall and
//!   `WCost` terms, live demand) against a wholesale
//!   [`System::rebuild_cost_cache`], and
//! * the routing [`ClusterSummaries`] against [`ClusterSummaries::build`].
//!
//! This is the contract that lets the protocol and the churn driver
//! skip every O(queries × peers) rebuild: content updates and churn are
//! O(changed peers) too, not just relocations.
//!
//! A `System` clone shares its store, workloads and index rows with the
//! origin until one side writes them; the clone property below holds
//! both sides of a fork to these oracles and to twins that never forked.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture, N_PEERS};
use proptest::prelude::*;
use recluster_core::{pcost, RecallIndex, System};
use recluster_overlay::{ClusterSummaries, SimNetwork};
use recluster_types::{ClusterId, PeerId};

/// Asserts the delta-maintained index state equals the content-aware
/// oracle exactly: result rows, totals, workload weights, mass cells
/// (numerator and holder count), and the derived float masses.
fn assert_index_equals_rebuild(sys: &System) -> Result<(), TestCaseError> {
    let mut oracle: RecallIndex = sys.index().clone();
    oracle.rebuild_from(sys.overlay(), sys.store(), sys.workloads());
    let cmax = sys.overlay().cmax();
    for slot in 0..sys.overlay().n_slots() {
        let peer = PeerId::from_index(slot);
        prop_assert_eq!(
            sys.index().results_of(peer),
            oracle.results_of(peer),
            "result row of peer {}",
            slot
        );
        let delta_w = sys.index().workload_of(peer);
        let oracle_w = oracle.workload_of(peer);
        prop_assert_eq!(delta_w.len(), oracle_w.len(), "weight row of peer {}", slot);
        for (d, o) in delta_w.iter().zip(oracle_w) {
            prop_assert_eq!(d.0, o.0);
            prop_assert_eq!(d.1.to_bits(), o.1.to_bits(), "weight bits of peer {}", slot);
        }
    }
    for qid in 0..sys.index().n_queries() as u32 {
        prop_assert_eq!(
            sys.index().total(qid),
            oracle.total(qid),
            "total qid {}",
            qid
        );
        for c in 0..cmax {
            let cid = ClusterId::from_index(c);
            prop_assert_eq!(
                sys.index().cluster_answer(qid, cid),
                oracle.cluster_answer(qid, cid),
                "mass cell (results, holders) qid {} cluster {}",
                qid,
                c
            );
            prop_assert_eq!(
                sys.index().cluster_mass(qid, cid).to_bits(),
                oracle.cluster_mass(qid, cid).to_bits(),
                "float mass qid {} cluster {}",
                qid,
                c
            );
        }
    }
    Ok(())
}

/// Asserts every mass cell equals a direct walk of the live cluster:
/// the summed `result_count` of its members against the store, and the
/// number of members with a nonzero count — what `route_to_clusters`
/// returns and charges for the cluster.
fn assert_cells_equal_member_walk(sys: &System) -> Result<(), TestCaseError> {
    for (qid, query) in sys.index().queries().iter().enumerate() {
        for cid in sys.overlay().cluster_ids() {
            let counts: Vec<u64> = sys
                .overlay()
                .cluster(cid)
                .members()
                .iter()
                .map(|&peer| sys.store().result_count(query, peer))
                .collect();
            let walked = (
                counts.iter().sum::<u64>(),
                counts.iter().filter(|&&n| n > 0).count() as u32,
            );
            prop_assert_eq!(
                sys.index().cluster_answer(qid as u32, cid),
                walked,
                "mass cell vs member walk, qid {} cluster {:?}",
                qid,
                cid
            );
        }
    }
    Ok(())
}

/// Asserts the delta-maintained cost cache equals a wholesale rebuild
/// bit for bit: all three recall columns of every slot (in-cluster
/// loss, wcost contribution, zero-overlap away loss), and the live
/// demand.
fn assert_cache_equals_rebuild(sys: &System) -> Result<(), TestCaseError> {
    let mut oracle = sys.clone();
    oracle.rebuild_cost_cache();
    let delta = sys.cost_cache();
    let fresh = oracle.cost_cache();
    prop_assert_eq!(delta.live_demand(), fresh.live_demand(), "live demand");
    for slot in 0..sys.overlay().n_slots() {
        let p = PeerId::from_index(slot);
        prop_assert_eq!(
            delta.recall_loss_of(p).to_bits(),
            fresh.recall_loss_of(p).to_bits(),
            "recall term of peer {}",
            slot
        );
        prop_assert_eq!(
            delta.wrecall_of(p).to_bits(),
            fresh.wrecall_of(p).to_bits(),
            "wcost term of peer {}",
            slot
        );
        prop_assert_eq!(
            delta.away_of(p).to_bits(),
            fresh.away_of(p).to_bits(),
            "away term of peer {}",
            slot
        );
    }
    Ok(())
}

/// Asserts `sys` is indistinguishable from `twin`, which replayed the
/// same ops without ever being cloned: overlay, store documents,
/// workloads, index rows (weights bit for bit), totals, mass cells,
/// summaries, and the bits of `scost` and every `pcost`.
fn assert_equals_twin(sys: &System, twin: &System) -> Result<(), TestCaseError> {
    prop_assert_eq!(sys.overlay(), twin.overlay());
    prop_assert_eq!(sys.workloads(), twin.workloads());
    let (index, twin_index) = (sys.index(), twin.index());
    prop_assert_eq!(index.queries(), twin_index.queries());
    for slot in 0..sys.overlay().n_slots() {
        let p = PeerId::from_index(slot);
        prop_assert_eq!(
            sys.store().docs(p),
            twin.store().docs(p),
            "docs of {}",
            slot
        );
        prop_assert_eq!(index.results_of(p), twin_index.results_of(p));
        let bits = |row: &[(u32, f64)]| -> Vec<(u32, u64)> {
            row.iter().map(|&(q, w)| (q, w.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(index.workload_of(p)),
            bits(twin_index.workload_of(p)),
            "weight row of {}",
            slot
        );
    }
    for qid in 0..index.n_queries() as u32 {
        prop_assert_eq!(index.total(qid), twin_index.total(qid));
        for cid in sys.overlay().cluster_ids() {
            prop_assert_eq!(
                index.cluster_answer(qid, cid),
                twin_index.cluster_answer(qid, cid)
            );
        }
    }
    prop_assert_eq!(sys.summaries(), twin.summaries());
    prop_assert_eq!(
        recluster_core::scost(sys).to_bits(),
        recluster_core::scost(twin).to_bits()
    );
    for peer in sys.overlay().peers() {
        for cid in sys.overlay().cluster_ids() {
            prop_assert_eq!(
                pcost(sys, peer, cid).to_bits(),
                pcost(twin, peer, cid).to_bits(),
                "pcost({:?}, {:?})",
                peer,
                cid
            );
        }
    }
    Ok(())
}

/// Holds one side of a fork to its oracles and to its unforked twin.
fn assert_side(sys: &System, twin: &System) -> Result<(), TestCaseError> {
    assert_index_equals_rebuild(sys)?;
    assert_cache_equals_rebuild(sys)?;
    prop_assert_eq!(
        sys.summaries(),
        &ClusterSummaries::build(sys.overlay(), sys.store()),
        "summaries drifted from rebuild"
    );
    assert_equals_twin(sys, twin)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline equivalence: any interleaving of membership, churn,
    /// content and workload ops, checked op by op against all oracles.
    #[test]
    fn delta_state_equals_rebuild_under_random_ops(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(40),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut net, op);
            sys.overlay().check_invariants().map_err(TestCaseError::fail)?;
            assert_index_equals_rebuild(&sys)?;
            assert_cells_equal_member_walk(&sys)?;
            assert_cache_equals_rebuild(&sys)?;
            prop_assert_eq!(
                sys.summaries(),
                &ClusterSummaries::build(sys.overlay(), sys.store()),
                "summaries drifted from rebuild"
            );
        }
        // Cluster sizes agree with a scan of the assignment (the O(1)
        // live-count and the per-cluster member lists never drift).
        let sizes = sys.overlay().sizes();
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(total, sys.overlay().n_peers());
    }

    /// Batch moves (the protocol's phase-2 path) are equivalent to the
    /// same moves applied one by one, and to a rebuild.
    #[test]
    fn batch_moves_equal_singles_and_rebuild(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        moves in proptest::collection::vec(
            (0u32..N_PEERS as u32, 0u32..N_PEERS as u32),
            0..12,
        ),
    ) {
        let mut batched = fixture(&docs, &queries);
        let mut single = fixture(&docs, &queries);
        let moves: Vec<(PeerId, ClusterId)> = moves
            .into_iter()
            .map(|(p, c)| (PeerId(p), ClusterId(c)))
            .collect();
        batched.move_peers(&moves);
        for &(p, c) in &moves {
            single.move_peer(p, c);
        }
        prop_assert_eq!(batched.overlay(), single.overlay());
        assert_index_equals_rebuild(&batched)?;
        assert_index_equals_rebuild(&single)?;
        assert_cells_equal_member_walk(&batched)?;
        assert_cache_equals_rebuild(&batched)?;
    }

    /// `pcost` computed on the delta-maintained index equals `pcost` on
    /// a freshly rebuilt system, bit for bit, for every peer × cluster —
    /// even across content and workload changes, where a fresh
    /// [`System::rebuild_index`] renumbers query ids.
    #[test]
    fn pcost_on_delta_index_equals_rebuilt(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(40),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut net, op);
        }
        let mut rebuilt = sys.clone();
        rebuilt.rebuild_index();
        rebuilt.rebuild_cost_cache();
        for peer in sys.overlay().peers() {
            for cid in sys.overlay().cluster_ids() {
                prop_assert_eq!(
                    pcost(&sys, peer, cid).to_bits(),
                    pcost(&rebuilt, peer, cid).to_bits(),
                    "pcost({:?}, {:?})",
                    peer,
                    cid
                );
            }
        }
        // The global criteria agree too — they read the cost cache.
        prop_assert_eq!(
            recluster_core::scost(&sys).to_bits(),
            recluster_core::scost(&rebuilt).to_bits()
        );
        prop_assert_eq!(
            recluster_core::wcost(&sys).to_bits(),
            recluster_core::wcost(&rebuilt).to_bits()
        );
    }

    /// A clone and its origin evolve independently: after a shared op
    /// prefix, each side takes its own op suffix (interleaved op by op),
    /// and after every op both sides equal their oracles and a twin
    /// that replayed the same ops without cloning. A write that leaked
    /// through shared state into the other side, or a row the writer
    /// failed to replace, shows up as a twin mismatch.
    #[test]
    fn clone_and_origin_evolve_independently(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        prefix in arb_ops(16),
        origin_ops in arb_ops(16),
        clone_ops in arb_ops(16),
    ) {
        // The twins replay the same ops as the side they shadow and are
        // never cloned.
        let mut origin = fixture(&docs, &queries);
        let mut origin_twin = fixture(&docs, &queries);
        let mut clone_twin = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in prefix {
            apply(&mut origin, &mut net, op.clone());
            apply(&mut origin_twin, &mut net, op.clone());
            apply(&mut clone_twin, &mut net, op);
        }
        let mut clone = origin.clone();
        assert_side(&clone, &clone_twin)?;
        let (mut origin_ops, mut clone_ops) = (origin_ops.into_iter(), clone_ops.into_iter());
        loop {
            let (o, c) = (origin_ops.next(), clone_ops.next());
            if o.is_none() && c.is_none() {
                break;
            }
            if let Some(op) = o {
                apply(&mut origin, &mut net, op.clone());
                apply(&mut origin_twin, &mut net, op);
                assert_side(&origin, &origin_twin)?;
                assert_side(&clone, &clone_twin)?;
            }
            if let Some(op) = c {
                apply(&mut clone, &mut net, op.clone());
                apply(&mut clone_twin, &mut net, op);
                assert_side(&origin, &origin_twin)?;
                assert_side(&clone, &clone_twin)?;
            }
        }
    }
}
