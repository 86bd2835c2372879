//! The benchmark's churn driver rebuilds `sim::churn`'s period loop
//! (including its private churn batch) from public calls. These tests
//! hold it to the library bit for bit, traced and untraced, so the
//! benchmark never times a stale copy.

use recluster_core::DecisionSource;
use recluster_perfbench::churn::drive;
use recluster_perfbench::Tracer;
use recluster_sim::churn::{run_churn_with_fidelity, ChurnConfig, ChurnPeriod, FidelityPeriod};
use recluster_sim::scenario::{ideal_scenario1_system, ExperimentConfig};
use recluster_sim::{RoutingMode, StrategyKind, SummaryMode};

/// Every field of a row, floats by their bits.
fn row_bits(r: &ChurnPeriod) -> [u64; 8] {
    [
        r.period as u64,
        r.scost_after_churn.to_bits(),
        r.scost_after_repair.to_bits(),
        r.peers as u64,
        r.moves as u64,
        r.query_messages,
        r.forwards_per_query.to_bits(),
        r.false_negative_rate.to_bits(),
    ]
}

fn fidelity_bits(f: &FidelityPeriod) -> [u64; 4] {
    [
        f.period as u64,
        f.agreement_rate.to_bits(),
        f.scost_observed_repair.to_bits(),
        f.scost_oracle_repair.to_bits(),
    ]
}

fn assert_driver_matches(cfg: &ExperimentConfig, churn: &ChurnConfig) {
    let (rows, fidelity) = run_churn_with_fidelity(cfg, churn);
    let expected: Vec<_> = rows.iter().map(row_bits).collect();
    let expected_fidelity: Option<Vec<_>> =
        fidelity.map(|f| f.periods.iter().map(fidelity_bits).collect());
    for traced in [false, true] {
        let mut testbed = ideal_scenario1_system(cfg);
        let run = drive(&mut testbed, cfg, churn, &mut Tracer::new(traced));
        let actual: Vec<_> = run.rows.iter().map(row_bits).collect();
        assert_eq!(actual, expected, "rows differ (traced: {traced})");
        let actual_fidelity: Option<Vec<_>> = run
            .fidelity
            .as_ref()
            .map(|f| f.iter().map(fidelity_bits).collect());
        assert_eq!(
            actual_fidelity, expected_fidelity,
            "fidelity rows differ (traced: {traced})"
        );
        assert_eq!(run.counts.events as usize, churn.periods * 4);
        assert!(run.counts.rounds > 0 && run.counts.queries > 0);
    }
}

/// The 100k configs' shape at the 40-peer scale.
fn small_churn(decisions: DecisionSource) -> ChurnConfig {
    ChurnConfig {
        periods: 4,
        leaves_per_period: 2,
        joins_per_period: 2,
        maintenance: Some(StrategyKind::Selfish),
        max_rounds: 6,
        routing: RoutingMode::Routed(SummaryMode::Exact),
        decisions,
    }
}

#[test]
fn oracle_driver_reproduces_run_churn() {
    for seed in [7, 2008] {
        assert_driver_matches(
            &ExperimentConfig::small(seed),
            &small_churn(DecisionSource::Oracle),
        );
    }
}

#[test]
fn observed_driver_reproduces_run_churn_with_fidelity() {
    for decay in [0.0, 0.5] {
        assert_driver_matches(
            &ExperimentConfig::small(2008),
            &small_churn(DecisionSource::Observed { decay }),
        );
    }
}

#[test]
fn flood_routing_driver_reproduces_run_churn() {
    let churn = ChurnConfig {
        routing: RoutingMode::Flood,
        ..small_churn(DecisionSource::Oracle)
    };
    assert_driver_matches(&ExperimentConfig::small(11), &churn);
}
