//! Reproduces **Figure 4**: "Influence of α" (§4.2) — the individual
//! cost of one selfish peer whose workload gradually shifts to another
//! cluster's data, for α ∈ {0, 1, 2}.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::fig4::run_fig4_with;
use recluster_sim::knobs::Knobs;
use recluster_sim::report::render_table;
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner("Figure 4", "Koloniari & Pitoura 2008, Fig. 4", seed, &knobs);
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };

    let alphas = [0.0, 1.0, 2.0];
    let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let curves = run_fig4_with(&cfg, &alphas, &fractions, knobs.parallelism());

    let headers = ["fraction", "cost(α=0)", "cost(α=1)", "cost(α=2)"];
    let rows: Vec<Vec<String>> = fractions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut row = vec![format!("{f:.1}")];
            for c in &curves {
                row.push(format!("{:.3}", c.points[i].1));
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    for c in &curves {
        match c.relocation_threshold {
            Some(t) => println!(
                "α = {}: peer relocates once ≥ {:.0}% of its workload changed",
                c.alpha,
                t * 100.0
            ),
            None => println!("α = {}: peer never relocates on this grid", c.alpha),
        }
    }
    println!();
    println!("Paper reference: the peer's cost rises with the changed fraction until");
    println!("relocation pays; larger α makes joining a bigger cluster more expensive, so");
    println!("the relocation threshold moves right as α grows (Fig. 4).");
}
