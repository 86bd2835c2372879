//! The distributed statistics path of §3.1: peers do not see the global
//! system — they learn per-cluster recall from the `cid` annotations on
//! their query results and their contribution from the queries they
//! serve. This example routes one observation period through the overlay
//! and shows that the observed estimates match the omniscient (oracle)
//! cost values exactly under flood routing.
//!
//! Run with: `cargo run --release --example observed_statistics`

use recluster::core::{
    pcost, simulate_period, AltruisticStrategy, ObservedStats, RelocationStrategy,
};
use recluster::overlay::SimNetwork;
use recluster::sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster::types::PeerId;

fn main() {
    let cfg = ExperimentConfig::small(5);
    let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
    let system = &tb.system;

    // One observation period T: every peer's workload is routed
    // (flooded) through the overlay; results carry cid annotations.
    // Each peer folds the period into its estimator; decay 0 keeps
    // exactly this period.
    let mut net = SimNetwork::new();
    let mut observations = ObservedStats::new(0.0);
    observations.absorb(&simulate_period(system, &mut net));
    println!(
        "period T routed {} messages ({} bytes)",
        net.total_messages(),
        net.total_bytes()
    );

    // Selfish view: observed pcost(p, c) vs. the oracle.
    let probe = PeerId(0);
    let current = system.overlay().cluster_of(probe);
    println!("\npeer {probe}: observed vs oracle pcost for the 6 fullest clusters");
    let mut clusters: Vec<_> = system
        .overlay()
        .cluster_ids()
        .filter(|&c| !system.overlay().cluster(c).is_empty())
        .collect();
    clusters.sort_by_key(|&c| std::cmp::Reverse(system.overlay().size(c)));
    let mut worst: f64 = 0.0;
    for &cid in clusters.iter().take(6) {
        let observed = observations
            .estimated_pcost(system, probe, cid, current)
            .expect("every live peer observed the period");
        let oracle = pcost(system, probe, cid);
        worst = worst.max((observed - oracle).abs());
        println!("  {cid}: observed {observed:.6}  oracle {oracle:.6}");
    }
    println!("max |observed − oracle| = {worst:.2e}");
    assert!(worst < 1e-9);

    // Altruistic view: observed contribution vs. Eq. 6 computed from the
    // recall index.
    let mut strategy = AltruisticStrategy::new();
    strategy.prepare(system);
    let mut worst: f64 = 0.0;
    for &cid in clusters.iter().take(6) {
        let observed = observations.estimated_contribution(probe, cid);
        let oracle = strategy.contribution(probe, cid);
        worst = worst.max((observed - oracle).abs());
    }
    println!("max |observed − oracle| contribution = {worst:.2e}");
    assert!(worst < 1e-9);

    println!("\nthe strategies are implementable from purely local observations ✓");
}
