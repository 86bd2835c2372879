//! Reproduces **Table 1**: "Results for fixed query workload and
//! content" (§4.1) — rounds to convergence, cluster counts, and
//! normalized social/workload costs for 3 scenarios × 4 initial
//! configurations × 2 strategies.

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::knobs::Knobs;
use recluster_sim::report::{f3, render_table, rounds_cell};
use recluster_sim::table1::{run_table1_with, Table1Config};

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    banner("Table 1", "Koloniari & Pitoura 2008, Table 1", seed, &knobs);
    let cfg = if knobs.small {
        Table1Config::small(seed)
    } else {
        Table1Config::paper(seed)
    };

    let rows = run_table1_with(&cfg, knobs.parallelism());
    let headers = [
        "scenario",
        "init",
        "strategy",
        "rounds",
        "#clusters",
        "SCost",
        "WCost",
        "nash",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.label().into(),
                r.init.label().into(),
                r.strategy.clone(),
                rounds_cell(r.rounds),
                r.clusters.to_string(),
                f3(r.scost),
                f3(r.wcost),
                r.nash.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &table));

    println!("Paper reference (200 peers, 10 categories):");
    println!("  scenario 1: converges in 9–21 rounds to 10 clusters, SCost = WCost = 0.1");
    println!("  scenario 2: converges in 65–132 rounds to 90 clusters, costs ≈ 0.28–0.36");
    println!("  scenario 3: no convergence, 46–90 clusters, the highest costs");
}
