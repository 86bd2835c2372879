//! Ablations over the design choices that the paper motivates but
//! evaluates at one setting only, or not at all (see
//! `recluster_sim::ablation`): the `θ` cost-model shape, the `ε` stop
//! threshold, the hybrid strategy's `λ`, and the §3.2 anti-cycle lock
//! rule.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::ablation::{
    run_epsilon_sweep, run_hybrid_sweep, run_lock_ablation, run_theta_ablation, AblationRow,
};
use recluster_sim::knobs::Knobs;
use recluster_sim::report::{f3, render_table, rounds_cell};
use recluster_sim::scenario::ExperimentConfig;

fn print_rows(title: &str, rows: &[AblationRow]) {
    println!("--- {title} ---");
    let headers = [
        "setting",
        "rounds",
        "#clusters",
        "SCost",
        "moves",
        "messages",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                rounds_cell(r.rounds),
                r.clusters.to_string(),
                f3(r.scost),
                r.moves.to_string(),
                r.messages.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &table));
}

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner(
        "Ablations",
        "design-choice sensitivity (our extension)",
        seed,
        &knobs,
    );
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };
    let rounds = 300;

    print_rows(
        "θ shape (intra-cluster topology)",
        &run_theta_ablation(&cfg, rounds),
    );
    print_rows("ε stop threshold", &run_epsilon_sweep(&cfg, rounds));
    print_rows(
        "hybrid λ (0 = altruistic-like, 1 = selfish)",
        &run_hybrid_sweep(&cfg, rounds),
    );
    print_rows("anti-cycle lock rule", &run_lock_ablation(&cfg, rounds));
}
