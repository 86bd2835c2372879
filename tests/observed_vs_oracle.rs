//! The observed-statistics path (§3.1) equals the oracle under flood
//! routing, across scenarios and seeds — the property that makes the
//! paper's distributed strategies implementable from purely local
//! information.

use recluster_core::{
    best_response, pcost, simulate_period, AltruisticStrategy, ObservedStats, RelocationStrategy,
};
use recluster_overlay::SimNetwork;
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

fn check_scenario(scenario: Scenario, seed: u64) {
    let cfg = ExperimentConfig::small(seed);
    let tb = build_system(scenario, InitialConfig::RandomM, &cfg);
    let sys = &tb.system;

    // One observation period, as a peer's estimator holds it: decay 0
    // keeps exactly the latest period.
    let mut net = SimNetwork::new();
    let mut obs = ObservedStats::new(0.0);
    obs.absorb(&simulate_period(sys, &mut net));

    let mut altruism = AltruisticStrategy::new();
    altruism.prepare(sys);

    for peer in sys.overlay().peers() {
        let current = sys.overlay().cluster_of(peer);
        // Selfish: observed pcost equals the oracle for every cluster.
        for cid in sys.overlay().cluster_ids() {
            let estimated = obs.estimated_pcost(sys, peer, cid, current).unwrap();
            let oracle = pcost(sys, peer, cid);
            assert!(
                (estimated - oracle).abs() < 1e-9,
                "{scenario:?} seed {seed}: pcost({peer},{cid}) observed {estimated} vs {oracle}"
            );
            // Altruistic: observed contribution equals Eq. 6.
            let est_c = obs.estimated_contribution(peer, cid);
            let oracle_c = altruism.contribution(peer, cid);
            assert!(
                (est_c - oracle_c).abs() < 1e-9,
                "{scenario:?} seed {seed}: contribution({peer},{cid}) {est_c} vs {oracle_c}"
            );
        }
        // The Eq. 5 selection made from observations equals the oracle
        // best response.
        let (choice, est_cost) = obs.selfish_choice(sys, peer, current, true).unwrap();
        let br = best_response(sys, peer, true);
        assert_eq!(
            choice, br.cluster,
            "{scenario:?} seed {seed}: {peer} selected {choice}, oracle {}",
            br.cluster
        );
        let oracle_cost = pcost(sys, peer, br.cluster);
        assert!(
            (est_cost - oracle_cost).abs() < 1e-9,
            "{scenario:?} seed {seed}: {peer} selected {choice} at {est_cost}, oracle {oracle_cost}"
        );
    }
}

#[test]
fn observed_equals_oracle_same_category() {
    check_scenario(Scenario::SameCategory, 201);
}

#[test]
fn observed_equals_oracle_different_category() {
    check_scenario(Scenario::DifferentCategory, 202);
}

#[test]
fn observed_equals_oracle_uniform() {
    check_scenario(Scenario::Uniform, 203);
}

#[test]
fn observed_equals_oracle_across_seeds() {
    for seed in [211, 212, 213] {
        check_scenario(Scenario::SameCategory, seed);
    }
}

#[test]
fn observation_traffic_scales_with_demand() {
    let cfg_small_demand = {
        let mut c = ExperimentConfig::small(220);
        c.total_queries = 200;
        c
    };
    let cfg_big_demand = {
        let mut c = ExperimentConfig::small(220);
        c.total_queries = 2000;
        c
    };
    let measure = |cfg: &ExperimentConfig| {
        let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut net = SimNetwork::new();
        let _ = simulate_period(&tb.system, &mut net);
        net.total_messages()
    };
    assert!(measure(&cfg_big_demand) > measure(&cfg_small_demand));
}
