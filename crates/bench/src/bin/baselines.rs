//! Baseline comparison (our extension): the paper's local maintenance
//! protocol vs. global k-means re-clustering from scratch, random
//! relocation, and no maintenance — quality *and* communication cost,
//! quantifying the §1 motivation ("re-apply the clustering procedure …
//! from scratch … incurs large communication costs and requires global
//! knowledge").

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::baseline_cmp::run_baseline_comparison;
use recluster_sim::knobs::Knobs;
use recluster_sim::report::{f3, render_table};
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner(
        "Baselines",
        "the §1 motivation (our extension)",
        seed,
        &knobs,
    );
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };

    let rows = run_baseline_comparison(&cfg, 300);
    let headers = ["scheme", "SCost", "WCost", "#clusters", "messages", "bytes"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f3(r.scost),
                f3(r.wcost),
                r.clusters.to_string(),
                r.messages.to_string(),
                r.bytes.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &table));
    println!("Expected shape: selfish approaches the k-means quality without its");
    println!("global profile collection; random relocation and no-maintenance trail far");
    println!("behind on quality.");
}
