//! Reproduces **Figure 1**: "(left) Social Cost and (right) Workload
//! Cost through progressing rounds" (§4.1) — scenario 1 from singleton
//! clusters, selfish vs. altruistic.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::fig1::run_fig1_with;
use recluster_sim::knobs::Knobs;
use recluster_sim::report::{render_series, render_table};
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner("Figure 1", "Koloniari & Pitoura 2008, Fig. 1", seed, &knobs);
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };

    let series = run_fig1_with(&cfg, 300, knobs.parallelism());
    let max_len = series.iter().map(|s| s.scost.len()).max().unwrap_or(0);

    let headers = [
        "round",
        "scost(selfish)",
        "scost(altruistic)",
        "wcost(selfish)",
        "wcost(altruistic)",
    ];
    let rows: Vec<Vec<String>> = (0..max_len)
        .map(|r| {
            let cell = |v: &Vec<f64>| {
                v.get(r)
                    .or(v.last())
                    .map_or("-".into(), |x| format!("{x:.3}"))
            };
            vec![
                r.to_string(),
                cell(&series[0].scost),
                cell(&series[1].scost),
                cell(&series[0].wcost),
                cell(&series[1].wcost),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    for s in &series {
        println!(
            "{}",
            render_series(&format!("scost[{}]", s.strategy), &s.scost)
        );
        println!(
            "{}",
            render_series(&format!("wcost[{}]", s.strategy), &s.wcost)
        );
        println!("converged[{}] = {}", s.strategy, s.converged);
    }
    println!();
    println!("Paper reference: both costs fall from ≈0.9 toward ≈0.1 within ~10 rounds;");
    println!("the workload cost drops fastest in the early rounds (demanding peers are");
    println!("granted first) while the social cost decreases roughly linearly.");
}
