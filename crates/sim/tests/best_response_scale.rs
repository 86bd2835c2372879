//! The best-response scan at real scale. `best_response_with_chain`
//! costs every candidate cluster from one gather of the peer's
//! answerable queries; here, on the churn_100k testbed after one churn
//! batch, it must equal a reference scan that calls the public `pcost`
//! per candidate, for every live peer: same cluster, same gain bits and
//! same take chain, with and without empty targets. The equivalence
//! proptest in `crates/core/tests/prop_view_memo.rs` covers the same
//! contract on ten-peer systems.
//!
//! Release-only (`#[ignore]`; about a second of build and well under a
//! second of checks):
//! `cargo test --release -p recluster-sim --test best_response_scale -- --include-ignored`

use recluster_core::equilibrium::COST_EPS;
use recluster_core::{
    best_response_with_chain, pcost, pcost_current, BestResponse, DecisionSource, SystemRead,
};
use recluster_overlay::SimNetwork;
use recluster_sim::churn::churn_100k_config;
use recluster_sim::maintenance::Maintenance;
use recluster_sim::scenario::ideal_scenario1_system;
use recluster_types::{derive_seed, seeded_rng, ClusterId, PeerId};

/// The per-candidate reference scan: `best_response`'s visit order
/// (non-empty ids ascending, the first empty slot at its id position
/// when admissible) and take rule, costing every candidate with `pcost`.
fn reference_scan<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    allow_empty: bool,
    chain: &mut Vec<ClusterId>,
) -> BestResponse {
    chain.clear();
    let current = system.overlay().cluster_of(peer).expect("live peer");
    let current_cost = pcost_current(system, peer);
    let mut candidates = system.overlay().non_empty_ids().to_vec();
    if let Some(empty) = system
        .overlay()
        .first_empty_cluster()
        .filter(|_| allow_empty)
    {
        let at = candidates.partition_point(|&c| c < empty);
        candidates.insert(at, empty);
    }
    let mut best = BestResponse {
        cluster: current,
        gain: 0.0,
    };
    let mut best_cost = current_cost;
    for cid in candidates.into_iter().filter(|&c| c != current) {
        let cost = pcost(system, peer, cid);
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

#[test]
#[ignore = "release-only: builds the 100k-peer churn testbed"]
fn best_response_equals_the_per_candidate_scan_at_churn_100k_scale() {
    let (cfg, churn) = churn_100k_config(2008);
    let mut testbed = ideal_scenario1_system(&cfg);
    let mut maintenance = Maintenance::new(&cfg, &testbed, DecisionSource::Oracle);
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC4A9));
    let touched = maintenance.churn_batch(
        &mut testbed,
        churn.leaves_per_period,
        churn.joins_per_period,
        &mut rng,
        &mut SimNetwork::new(),
    );
    assert_eq!(touched.len(), 100, "50 leaves and 50 joins apply");

    let view = testbed.system.view();
    let peers: Vec<PeerId> = view.overlay().peers().collect();
    assert!(peers.len() >= 99_000, "{} live peers", peers.len());
    let (mut chain, mut expected_chain) = (Vec::new(), Vec::new());
    for allow_empty in [true, false] {
        let mut takes = 0usize;
        for &p in &peers {
            let (got, _) = best_response_with_chain(&view, p, allow_empty, &mut chain);
            let expected = reference_scan(&view, p, allow_empty, &mut expected_chain);
            assert_eq!(
                got.cluster, expected.cluster,
                "cluster of {p}, allow_empty={allow_empty}"
            );
            assert_eq!(
                got.gain.to_bits(),
                expected.gain.to_bits(),
                "gain of {p}, allow_empty={allow_empty}"
            );
            assert_eq!(
                chain, expected_chain,
                "chain of {p}, allow_empty={allow_empty}"
            );
            takes += chain.len();
        }
        // Not vacuous: the churned state leaves some peers a better
        // cluster than their own.
        assert!(
            takes > 0,
            "no scan took a cluster (allow_empty={allow_empty})"
        );
    }
}
