//! Reproduces **Figure 3**: "Social Cost for different percentages of
//! updated (left) peers and (right) data" (§4.2) — content updates
//! against the converged scenario-1 overlay.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::fig23::{run_figure, standard_fractions, UpdateMode};
use recluster_sim::knobs::Knobs;
use recluster_sim::report::render_table;
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner("Figure 3", "Koloniari & Pitoura 2008, Fig. 3", seed, &knobs);
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };
    let fractions = standard_fractions();

    for (mode, label) in [
        (UpdateMode::DataPeers, "left: % of updated peers"),
        (UpdateMode::DataBlend, "right: % of updated data"),
    ] {
        println!("--- Fig. 3 ({label}) ---");
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

    println!("Paper reference: the roles swap relative to Fig. 2 — altruistic providers");
    println!("whose content changed no longer serve their own cluster and relocate to the");
    println!("cluster demanding the new category, while selfish peers have no motive to");
    println!("move (their own workload did not change).");
}
