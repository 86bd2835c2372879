//! Strategy dispatch and the deterministic sweep runner.
//!
//! Experiments select strategies by value ([`StrategyKind`]); this module
//! maps each kind onto a concrete [`ProtocolEngine`] run, and provides
//! [`sweep_map`] — the fan-out primitive every figure/table driver uses
//! to evaluate independent scenario cells (strategy × α × seed × …)
//! across cores.
//!
//! # Determinism contract
//!
//! Each cell builds its own [`System`] from its own seed and shares no
//! mutable state with its siblings, and [`sweep_map`] merges results in
//! **index order** (the in-tree rayon shim's `collect` guarantees this),
//! so a parallel sweep is byte-identical to the sequential one — the
//! equivalence is asserted in `tests/determinism.rs`, not just claimed.

use rayon::prelude::*;
use recluster_baselines::{NoMaintenance, RandomStrategy};
use recluster_core::{
    simulate_period_traffic, AltruisticStrategy, HybridStrategy, ObservedStats, ObservedStrategy,
    ProtocolConfig, ProtocolEngine, RelocationStrategy, RoutingReport, RunOutcome, SelfishStrategy,
    System,
};
use recluster_overlay::{RoutingMode, SimNetwork};
use recluster_types::PeerId;

/// The strategy roster available to experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// §3.1.1 — individual-cost minimization.
    Selfish,
    /// §3.1.2 — contribution maximization.
    Altruistic,
    /// §6 future work — convex combination with weight `λ`.
    Hybrid(f64),
    /// Null baseline: random moves with the given probability and seed.
    Random(f64, u64),
    /// Null baseline: never move.
    NoMaintenance,
}

impl StrategyKind {
    /// Label used in reports.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Selfish => "selfish".into(),
            StrategyKind::Altruistic => "altruistic".into(),
            StrategyKind::Hybrid(l) => format!("hybrid(λ={l})"),
            StrategyKind::Random(p, _) => format!("random(p={p})"),
            StrategyKind::NoMaintenance => "none".into(),
        }
    }

    /// The two strategies the paper evaluates.
    pub fn paper_pair() -> [StrategyKind; 2] {
        [StrategyKind::Selfish, StrategyKind::Altruistic]
    }
}

/// How a sweep distributes its independent cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run cells one after another on the calling thread.
    Sequential,
    /// Fan cells across all available cores (the shim honours
    /// `RAYON_NUM_THREADS`).
    #[default]
    Auto,
    /// Fan cells across exactly this many worker threads.
    Threads(usize),
}

impl Parallelism {
    /// The worker count this mode resolves to (1 = sequential).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => rayon::current_num_threads(),
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Evaluates `f` over every cell, fanning across threads per
/// `parallelism`, and returns the results **in cell order** — the
/// parallel output is byte-identical to the sequential one as long as
/// `f` is a pure function of its cell (which every figure/table cell
/// is: it builds its own seeded testbed).
pub fn sweep_map<T, R, F>(parallelism: Parallelism, cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match parallelism {
        Parallelism::Sequential => cells.iter().map(f).collect(),
        Parallelism::Auto => cells.par_iter().map(f).collect(),
        // An explicit pool installed for this sweep only: the pinned
        // count is scoped to the closure, so concurrent sweeps and any
        // process-wide `build_global` pin are unaffected.
        Parallelism::Threads(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n.max(1))
            .build()
            .expect("shim pool build never fails")
            .install(|| cells.par_iter().map(f).collect()),
    }
}

/// Runs one query-observation period under `mode` on a fresh ledger and
/// returns the ledger together with the routing report — the
/// query-traffic probe the churn experiment and the experiment binaries
/// use to compare flood against cluster-directed routing. Uses the
/// traffic-only period walk: the ledger and report are bit-identical to
/// the full observation run, but no per-peer observation records are
/// materialized (the oracle churn path never reads them, and at a
/// million peers they dominate peak RSS), and each routed cluster's
/// results and answering-member count are read from the recall index
/// instead of walking its members.
pub fn measure_query_traffic(system: &System, mode: RoutingMode) -> (SimNetwork, RoutingReport) {
    let mut net = SimNetwork::new();
    let report = simulate_period_traffic(system, &mut net, mode);
    (net, report)
}

/// Runs the reformulation protocol with the chosen strategy.
pub fn run_protocol(
    system: &mut System,
    kind: StrategyKind,
    config: ProtocolConfig,
    net: &mut SimNetwork,
) -> RunOutcome {
    match kind {
        StrategyKind::Selfish => ProtocolEngine::new(SelfishStrategy, config).run(system, net),
        StrategyKind::Altruistic => {
            ProtocolEngine::new(AltruisticStrategy::new(), config).run(system, net)
        }
        StrategyKind::Hybrid(lambda) => {
            ProtocolEngine::new(HybridStrategy::new(lambda), config).run(system, net)
        }
        StrategyKind::Random(p, seed) => {
            ProtocolEngine::new(RandomStrategy::new(p, seed), config).run(system, net)
        }
        StrategyKind::NoMaintenance => ProtocolEngine::new(NoMaintenance, config).run(system, net),
    }
}

/// Runs the reformulation protocol with the chosen strategy's *observed*
/// counterpart: the same objective, evaluated over the decayed tracker
/// estimates in `stats` instead of oracle view state. The null baselines
/// (`Random`, `NoMaintenance`) consult no statistics at all and fall
/// back to [`run_protocol`] unchanged.
pub fn run_protocol_observed(
    system: &mut System,
    kind: StrategyKind,
    stats: &ObservedStats,
    config: ProtocolConfig,
    net: &mut SimNetwork,
) -> RunOutcome {
    match kind {
        StrategyKind::Selfish => {
            ProtocolEngine::new(ObservedStrategy::selfish(stats), config).run(system, net)
        }
        StrategyKind::Altruistic => {
            ProtocolEngine::new(ObservedStrategy::altruistic(stats), config).run(system, net)
        }
        StrategyKind::Hybrid(lambda) => {
            ProtocolEngine::new(ObservedStrategy::hybrid(stats, lambda), config).run(system, net)
        }
        other => run_protocol(system, other, config, net),
    }
}

/// Fraction of live peers whose observed proposal names the same
/// destination as the oracle strategy's proposal on the current state
/// (both proposing nothing also counts as agreement) — the per-round
/// decision-fidelity measure of the observed-mode reports. `1.0` for the
/// null baselines, whose decisions ignore statistics entirely.
pub fn decision_agreement(
    system: &mut System,
    kind: StrategyKind,
    stats: &ObservedStats,
    allow_empty: bool,
) -> f64 {
    match kind {
        StrategyKind::Selfish => agreement_with(
            system,
            SelfishStrategy,
            ObservedStrategy::selfish(stats),
            allow_empty,
        ),
        StrategyKind::Altruistic => agreement_with(
            system,
            AltruisticStrategy::new(),
            ObservedStrategy::altruistic(stats),
            allow_empty,
        ),
        StrategyKind::Hybrid(lambda) => agreement_with(
            system,
            HybridStrategy::new(lambda),
            ObservedStrategy::hybrid(stats, lambda),
            allow_empty,
        ),
        StrategyKind::Random(..) | StrategyKind::NoMaintenance => 1.0,
    }
}

fn agreement_with<O: RelocationStrategy>(
    system: &mut System,
    mut oracle: O,
    observed: ObservedStrategy<'_>,
    allow_empty: bool,
) -> f64 {
    oracle.prepare(system);
    let view = system.view();
    let peers: Vec<PeerId> = view.overlay().peers().collect();
    if peers.is_empty() {
        return 1.0;
    }
    let agree = peers
        .iter()
        .filter(|&&p| {
            let want = oracle.propose(&view, p, allow_empty).map(|pr| pr.to);
            let got = observed.propose(&view, p, allow_empty).map(|pr| pr.to);
            want == got
        })
        .count();
    agree as f64 / peers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

    #[test]
    fn all_kinds_run_to_completion() {
        for kind in [
            StrategyKind::Selfish,
            StrategyKind::Altruistic,
            StrategyKind::Hybrid(0.5),
            StrategyKind::Random(0.2, 3),
            StrategyKind::NoMaintenance,
        ] {
            let mut tb = build_system(
                Scenario::SameCategory,
                InitialConfig::RandomM,
                &ExperimentConfig::small(13),
            );
            let mut net = SimNetwork::new();
            let cfg = ProtocolConfig::builder().max_rounds(30).build();
            let outcome = run_protocol(&mut tb.system, kind, cfg, &mut net);
            assert!(!outcome.rounds.is_empty() || outcome.converged);
            tb.system.overlay().check_invariants().unwrap();
        }
    }

    #[test]
    fn sweep_map_parallel_equals_sequential() {
        let cells: Vec<u64> = (0..37).collect();
        let f = |&seed: &u64| {
            // A cheap but seed-sensitive computation standing in for a
            // scenario cell.
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03;
            for _ in 0..10 {
                x ^= x >> 27;
                x = x.wrapping_mul(0x3C79AC492BA7B653);
            }
            format!("{x:016x}")
        };
        let seq = sweep_map(Parallelism::Sequential, &cells, f);
        let auto = sweep_map(Parallelism::Auto, &cells, f);
        let two = sweep_map(Parallelism::Threads(2), &cells, f);
        assert_eq!(seq, auto);
        assert_eq!(seq, two);
    }

    #[test]
    fn query_traffic_probe_shows_routed_savings() {
        use recluster_overlay::SummaryMode;
        let tb = build_system(
            Scenario::SameCategory,
            InitialConfig::Singletons,
            &ExperimentConfig::small(17),
        );
        let (flood_net, flood) = measure_query_traffic(&tb.system, RoutingMode::Flood);
        let (routed_net, routed) =
            measure_query_traffic(&tb.system, RoutingMode::Routed(SummaryMode::Exact));
        assert_eq!(flood.returned_results, routed.returned_results);
        assert_eq!(routed.missed_results, 0);
        assert!(routed.forwards < flood.forwards);
        assert!(routed_net.total_messages() < flood_net.total_messages());
    }

    #[test]
    fn parallelism_workers_resolve() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            StrategyKind::Selfish,
            StrategyKind::Altruistic,
            StrategyKind::Hybrid(0.5),
            StrategyKind::Random(0.2, 3),
            StrategyKind::NoMaintenance,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
