//! Property-based tests of the overlay substrate: structural invariants
//! under arbitrary operation sequences, and routing/accounting
//! consistency.

use proptest::prelude::*;
use recluster_overlay::{flood_query, ContentStore, Overlay, SimNetwork};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym};

/// An operation on the overlay.
#[derive(Debug, Clone)]
enum Op {
    Move { peer: u32, to: u32 },
    Unassign { peer: u32 },
    Reassign { peer: u32, to: u32 },
    Grow,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..8, 0u32..8).prop_map(|(peer, to)| Op::Move { peer, to }),
            (0u32..8).prop_map(|peer| Op::Unassign { peer }),
            (0u32..8, 0u32..8).prop_map(|(peer, to)| Op::Reassign { peer, to }),
            Just(Op::Grow),
        ],
        0..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of valid membership operations preserves all
    /// structural invariants, and peer/cluster counts stay consistent.
    #[test]
    fn overlay_invariants_under_random_ops(ops in arb_ops()) {
        let mut ov = Overlay::singletons(8);
        for op in ops {
            match op {
                Op::Move { peer, to } => {
                    let peer = PeerId(peer);
                    let to = ClusterId(to % ov.cmax() as u32);
                    if ov.cluster_of(peer).is_some() {
                        ov.move_peer(peer, to);
                    }
                }
                Op::Unassign { peer } => {
                    let _ = ov.unassign(PeerId(peer));
                }
                Op::Reassign { peer, to } => {
                    let peer = PeerId(peer);
                    let to = ClusterId(to % ov.cmax() as u32);
                    if ov.cluster_of(peer).is_none() {
                        ov.assign(peer, to);
                    }
                }
                Op::Grow => {
                    let _ = ov.grow();
                }
            }
            ov.check_invariants().map_err(TestCaseError::fail)?;
            // Cmax = slots always.
            prop_assert_eq!(ov.cmax(), ov.n_slots());
            // Size bookkeeping is consistent.
            let total: usize = ov.sizes().iter().sum();
            prop_assert_eq!(total, ov.n_peers());
            // Every live peer is found in exactly the cluster it claims.
            for p in ov.peers() {
                let c = ov.cluster_of(p).unwrap();
                prop_assert!(ov.cluster(c).contains(p));
            }
        }
    }

    /// Representative selection: always the lowest member id.
    #[test]
    fn representatives_are_members(ops in arb_ops()) {
        let mut ov = Overlay::singletons(8);
        for op in ops {
            if let Op::Move { peer, to } = op {
                let peer = PeerId(peer);
                let to = ClusterId(to % ov.cmax() as u32);
                if ov.cluster_of(peer).is_some() {
                    ov.move_peer(peer, to);
                }
            }
        }
        for c in ov.cluster_ids() {
            let members = ov.cluster(c).members();
            match ov.cluster(c).representative() {
                None => prop_assert!(members.is_empty()),
                Some(rep) => prop_assert_eq!(Some(&rep), members.first()),
            }
        }
    }

    /// Flood routing finds exactly the documents matching the query,
    /// no matter how peers are clustered.
    #[test]
    fn flood_results_equal_ground_truth(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 0..4),
            4,
        ),
        assignment in proptest::collection::vec(0u32..4, 4),
        query_sym in 0u32..8,
    ) {
        let mut ov = Overlay::unassigned(4);
        for (i, &c) in assignment.iter().enumerate() {
            ov.assign(PeerId::from_index(i), ClusterId(c));
        }
        let mut store = ContentStore::new(4);
        for (i, attrs) in docs.iter().enumerate() {
            store.add(
                PeerId::from_index(i),
                Document::new(attrs.iter().map(|&a| Sym(a)).collect()),
            );
        }
        let query = Query::keyword(Sym(query_sym));
        let mut net = SimNetwork::new();
        let results = flood_query(&ov, &store, &query, &mut net);
        let found: u64 = results.iter().map(|r| r.count).sum();
        let truth: u64 = (0..4)
            .map(|i| store.result_count(&query, PeerId::from_index(i)))
            .sum();
        prop_assert_eq!(found, truth);
        // Annotations are truthful: the answering peer is in the cluster
        // it reported.
        for r in &results {
            prop_assert_eq!(ov.cluster_of(r.peer), Some(r.cluster));
            prop_assert!(r.count > 0);
        }
    }
}
