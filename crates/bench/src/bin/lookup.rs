//! Lookup-cost sweep (the paper's §6 open issue): expected query cost
//! as a function of the number of clusters and their sizes.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::knobs::Knobs;
use recluster_sim::lookup::sweep_cluster_counts;
use recluster_sim::report::{f3, render_table};
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner(
        "Lookup cost",
        "the §6 open issue (our extension)",
        seed,
        &knobs,
    );
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };

    let counts: Vec<usize> = (1..=cfg.n_categories).collect();
    let sweep = sweep_cluster_counts(&cfg, &counts);

    let headers = [
        "#clusters",
        "mean size",
        "flood msgs/query",
        "routed fwd/query",
        "E[probes to 1st hit]",
        "in-cluster hit rate",
    ];
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|c| {
            vec![
                c.clusters.to_string(),
                f3(c.mean_cluster_size),
                f3(c.flood_messages),
                f3(c.routed_forwards),
                f3(c.expected_first_hit_probes),
                f3(c.in_cluster_hit_rate),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("Trade-off: fewer clusters mean cheaper lookups (fewer forwards, local");
    println!("answers) but a larger membership cost per peer — the tension the game's");
    println!("α parameter arbitrates. The routed column shows what exact per-cluster");
    println!("summaries save: queries are forwarded only to clusters whose summary");
    println!("matches, not to every cluster in the system.");
}
