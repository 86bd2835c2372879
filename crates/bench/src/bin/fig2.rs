//! Reproduces **Figure 2**: "Social Cost for different percentages of
//! updated (left) peers and (right) query workload" (§4.2) — workload
//! updates against the converged scenario-1 overlay, cluster count held
//! fixed, ε = 0.001.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::fig23::{run_figure, standard_fractions, UpdateMode};
use recluster_sim::knobs::Knobs;
use recluster_sim::report::render_table;
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner("Figure 2", "Koloniari & Pitoura 2008, Fig. 2", seed, &knobs);
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };
    let fractions = standard_fractions();

    for (mode, label) in [
        (UpdateMode::WorkloadPeers, "left: % of updated peers"),
        (UpdateMode::WorkloadBlend, "right: % of updated workload"),
    ] {
        println!("--- Fig. 2 ({label}) ---");
        let series = run_figure(&cfg, mode, &fractions, 300);
        let headers = [
            "fraction",
            "scost-after-update",
            "selfish(after)",
            "selfish moves",
            "altruistic(after)",
            "altruistic moves",
        ];
        let rows: Vec<Vec<String>> = fractions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                vec![
                    format!("{f:.1}"),
                    format!("{:.3}", series[0].points[i].scost_before),
                    format!("{:.3}", series[0].points[i].scost_after),
                    series[0].points[i].moves.to_string(),
                    format!("{:.3}", series[1].points[i].scost_after),
                    series[1].points[i].moves.to_string(),
                ]
            })
            .collect();
        println!("{}", render_table(&headers, &rows));
    }

    println!("Paper reference: selfish repairs the cost once more than ~50% of the");
    println!("workload has changed; altruistic providers move only when the demand from");
    println!("c_cur overtakes what they already serve at home (large fractions). Neither");
    println!("recovers the original cost exactly — joined clusters grew.");
}
