//! Churn experiment (our extension of the §1 motivation): peers join and
//! leave every period; the maintenance protocol repairs the overlay
//! incrementally. Compares maintained vs. unmaintained social cost, and
//! charges each period's query workload under the routing mode selected
//! by `RECLUSTER_ROUTING` (`flood` | `routed` | `lossy:<k>`).

use recluster_bench::{banner, DEFAULT_SEED};
use recluster_sim::churn::{run_churn, ChurnConfig};
use recluster_sim::knobs::Knobs;
use recluster_sim::report::{f3, render_table};
use recluster_sim::runner::StrategyKind;
use recluster_sim::scenario::ExperimentConfig;
use recluster_sim::RoutingMode;

fn main() {
    let knobs = Knobs::from_env();
    let seed = knobs.seed.unwrap_or(DEFAULT_SEED);
    let routing = knobs.routing.unwrap_or(RoutingMode::Flood);
    banner(
        "Churn",
        "overlay maintenance under churn (our extension)",
        seed,
        &knobs,
    );
    println!("routing={routing} (set RECLUSTER_ROUTING=flood|routed|lossy:<k> to vary)");
    println!();
    let cfg = if knobs.small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };

    let base = ChurnConfig {
        periods: 12,
        leaves_per_period: if knobs.small { 1 } else { 4 },
        joins_per_period: if knobs.small { 1 } else { 4 },
        maintenance: Some(StrategyKind::Selfish),
        max_rounds: 100,
        routing,
        ..ChurnConfig::default()
    };
    let maintained = run_churn(&cfg, &base);
    let unmaintained = run_churn(
        &cfg,
        &ChurnConfig {
            maintenance: None,
            ..base.clone()
        },
    );

    let headers = [
        "period",
        "peers",
        "scost(no maintenance)",
        "scost(after churn)",
        "scost(maintained)",
        "moves",
        "query msgs",
        "fwd/query",
        "FN rate",
    ];
    let rows: Vec<Vec<String>> = maintained
        .iter()
        .zip(unmaintained.iter())
        .map(|(m, u)| {
            vec![
                m.period.to_string(),
                m.peers.to_string(),
                f3(u.scost_after_repair),
                f3(m.scost_after_churn),
                f3(m.scost_after_repair),
                m.moves.to_string(),
                m.query_messages.to_string(),
                f3(m.forwards_per_query),
                f3(m.false_negative_rate),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    let total_msgs: u64 = maintained.iter().map(|r| r.query_messages).sum();
    println!(
        "Total query messages over {} periods: {total_msgs}",
        base.periods
    );
    println!("Expected shape: without maintenance the cost drifts upward as newcomers");
    println!("land in arbitrary clusters; with the selfish protocol each period's damage");
    println!("is repaired and the cost stays near the ideal. Under routed mode the");
    println!("query columns shrink by the forward-reduction factor at identical costs.");
}
