//! Ablations over four design choices that the paper motivates but
//! evaluates at one setting only, or not at all:
//!
//! * `θ` shape — the paper motivates linear vs. logarithmic `θ`
//!   (fully-connected vs. structured intra-cluster topology, §2.1) but
//!   only evaluates the linear case; we sweep all four shapes.
//! * `ε` — the stop-condition threshold (§3.2): lower values chase
//!   smaller gains (more rounds, marginally better cost).
//! * hybrid `λ` — the §6 future-work strategy between altruistic (0)
//!   and selfish (1).
//! * lock rule on/off — the §3.2 anti-cycle rule; without it, requests
//!   can form move cycles and burn rounds.

use recluster_core::{EmptyTargetPolicy, ProtocolConfig};
use recluster_overlay::{SimNetwork, Theta};

use crate::runner::{run_protocol, StrategyKind};
use crate::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The varied setting, rendered.
    pub setting: String,
    /// Rounds to convergence (`None` = budget exhausted).
    pub rounds: Option<usize>,
    /// Final non-empty clusters.
    pub clusters: usize,
    /// Final normalized social cost.
    pub scost: f64,
    /// Total peers moved.
    pub moves: usize,
    /// Protocol messages.
    pub messages: u64,
}

fn run_one(
    cfg: &ExperimentConfig,
    kind: StrategyKind,
    protocol: ProtocolConfig,
    setting: String,
) -> AblationRow {
    let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
    let mut net = SimNetwork::new();
    let outcome = run_protocol(&mut tb.system, kind, protocol, &mut net);
    AblationRow {
        setting,
        rounds: outcome.converged.then(|| outcome.rounds_to_converge()),
        clusters: tb.system.overlay().non_empty_clusters(),
        scost: recluster_core::scost_normalized(&tb.system),
        moves: outcome.total_moves(),
        messages: net.total_messages(),
    }
}

/// Sweeps the `θ` cost model (selfish strategy, scenario 1, random-M
/// start).
pub fn run_theta_ablation(cfg: &ExperimentConfig, max_rounds: usize) -> Vec<AblationRow> {
    [
        Theta::Linear,
        Theta::Logarithmic,
        Theta::Sqrt,
        Theta::Constant(1.0),
    ]
    .into_iter()
    .map(|theta| {
        let mut cfg = cfg.clone();
        cfg.theta = theta;
        run_one(
            &cfg,
            StrategyKind::Selfish,
            ProtocolConfig::builder().max_rounds(max_rounds).build(),
            format!("theta={theta}"),
        )
    })
    .collect()
}

/// Sweeps the `ε` stop threshold.
pub fn run_epsilon_sweep(cfg: &ExperimentConfig, max_rounds: usize) -> Vec<AblationRow> {
    [0.0, 1e-4, 1e-3, 1e-2, 5e-2]
        .into_iter()
        .map(|epsilon| {
            run_one(
                cfg,
                StrategyKind::Selfish,
                ProtocolConfig::builder()
                    .epsilon(epsilon)
                    .max_rounds(max_rounds)
                    .build(),
                format!("epsilon={epsilon}"),
            )
        })
        .collect()
}

/// Sweeps the hybrid strategy's `λ`.
pub fn run_hybrid_sweep(cfg: &ExperimentConfig, max_rounds: usize) -> Vec<AblationRow> {
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|lambda| {
            run_one(
                cfg,
                StrategyKind::Hybrid(lambda),
                ProtocolConfig::builder().max_rounds(max_rounds).build(),
                format!("lambda={lambda}"),
            )
        })
        .collect()
}

/// Compares the protocol with and without the §3.2 anti-cycle lock rule.
pub fn run_lock_ablation(cfg: &ExperimentConfig, max_rounds: usize) -> Vec<AblationRow> {
    [true, false]
        .into_iter()
        .map(|use_locks| {
            run_one(
                cfg,
                StrategyKind::Selfish,
                ProtocolConfig::builder()
                    .max_rounds(max_rounds)
                    .use_locks(use_locks)
                    .empty_targets(EmptyTargetPolicy::Always)
                    .build(),
                format!("locks={use_locks}"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::small(71)
    }

    #[test]
    fn theta_ablation_covers_all_shapes() {
        let rows = run_theta_ablation(&cfg(), 40);
        assert_eq!(rows.len(), 4);
        // Cheaper membership (log/const) permits larger clusters, so the
        // final count can only go down relative to linear.
        let linear = rows.iter().find(|r| r.setting == "theta=linear").unwrap();
        let log = rows.iter().find(|r| r.setting == "theta=log").unwrap();
        assert!(log.clusters <= linear.clusters + 1);
    }

    #[test]
    fn epsilon_zero_is_most_thorough() {
        let rows = run_epsilon_sweep(&cfg(), 60);
        // Select by label, not position — reordering or extending the
        // sweep must not silently turn this into a different comparison.
        let tight = rows.iter().find(|r| r.setting == "epsilon=0").unwrap();
        let loose = rows.iter().find(|r| r.setting == "epsilon=0.05").unwrap();
        assert!(
            tight.scost <= loose.scost + 1e-9,
            "tighter ε must not end worse: {} vs {}",
            tight.scost,
            loose.scost
        );
        assert!(tight.moves >= loose.moves);
    }

    #[test]
    fn hybrid_sweep_spans_strategies() {
        let rows = run_hybrid_sweep(&cfg(), 40);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.scost > 0.0 && row.scost < 1.2);
        }
    }

    #[test]
    fn disabling_locks_does_not_change_request_admission_semantics() {
        let rows = run_lock_ablation(&cfg(), 60);
        assert_eq!(rows.len(), 2);
        // Without locks at least as many moves are granted per round.
        let with = &rows[0];
        let without = &rows[1];
        assert!(without.moves + 5 >= with.moves);
    }
}
