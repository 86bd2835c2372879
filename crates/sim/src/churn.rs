//! Churn experiment (the §1 motivation the paper defers: "peers that
//! join or leave the system constantly … may render the original
//! clustered overlay inappropriate").
//!
//! Starting from the converged scenario-1 overlay, each *period* applies
//! a batch of churn events — departures of random peers and arrivals of
//! fresh peers carrying hold-out articles of a random category, assigned
//! to a random cluster (a newcomer does not know where it belongs) —
//! then optionally runs the maintenance protocol. The social cost with
//! and without maintenance quantifies how well the strategies "cope with
//! the changes in the overlay configuration".
//!
//! Every churn event flows through the `System` hooks, which
//! delta-maintain the recall index (masses *and* content totals), the
//! routing summaries and the cost cache — a period costs O(events +
//! affected peers), never a full `rebuild_index()`, which is what makes
//! the [`churn_10k_config`] scale (10 000+ peers under routed queries)
//! tractable.
//!
//! # Examples
//!
//! One maintained period on the miniature testbed:
//!
//! ```
//! use recluster_sim::churn::{run_churn, ChurnConfig};
//! use recluster_sim::scenario::ExperimentConfig;
//!
//! let churn = ChurnConfig {
//!     periods: 1,
//!     leaves_per_period: 1,
//!     joins_per_period: 1,
//!     maintenance: None,
//!     ..ChurnConfig::default()
//! };
//! let records = run_churn(&ExperimentConfig::small(7), &churn);
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].peers, 40, "one leave + one join is net zero");
//! assert!(records[0].query_messages > 0);
//! ```

use recluster_core::{scost_normalized, DecisionSource, EmptyTargetPolicy, ProtocolConfig};
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_types::{derive_seed, seeded_rng};

use crate::maintenance::Maintenance;
pub use crate::maintenance::{FidelityPeriod, FidelityReport};
use crate::runner::{measure_query_traffic, StrategyKind};
use crate::scenario::{ideal_scenario1_system, ExperimentConfig};

/// One period's record.
#[derive(Debug, Clone)]
pub struct ChurnPeriod {
    /// Period index.
    pub period: usize,
    /// Normalized social cost right after the churn batch.
    pub scost_after_churn: f64,
    /// Normalized social cost after maintenance (equals
    /// `scost_after_churn` when maintenance is off).
    pub scost_after_repair: f64,
    /// Live peers at the end of the period.
    pub peers: usize,
    /// Relocations performed by maintenance.
    pub moves: usize,
    /// Messages the period's query workload cost under the configured
    /// routing mode (forwards + result returns).
    pub query_messages: u64,
    /// Forward messages per query occurrence under the configured mode.
    pub forwards_per_query: f64,
    /// Fraction of flood results the routing missed (nonzero only for
    /// lossy summaries).
    pub false_negative_rate: f64,
}

/// Configuration of the churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Periods to simulate.
    pub periods: usize,
    /// Departures per period.
    pub leaves_per_period: usize,
    /// Arrivals per period.
    pub joins_per_period: usize,
    /// Maintenance strategy (`None` = no maintenance).
    pub maintenance: Option<StrategyKind>,
    /// Round budget per maintenance run.
    pub max_rounds: usize,
    /// How each period's query workload is forwarded.
    pub routing: RoutingMode,
    /// Where maintenance decisions read their statistics from. Under
    /// [`DecisionSource::Observed`] each period's query workload runs
    /// *before* repair (that is what the peers observe) and the
    /// maintenance strategy consumes the folded tracker estimates
    /// instead of oracle state.
    pub decisions: DecisionSource,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            periods: 10,
            leaves_per_period: 2,
            joins_per_period: 2,
            maintenance: Some(StrategyKind::Selfish),
            max_rounds: 60,
            routing: RoutingMode::Flood,
            decisions: DecisionSource::Oracle,
        }
    }
}

/// The `churn_10k` scenario: 10 000+ peers from the ideal scenario-1
/// clustering, 25 leaves + 25 joins per period, selfish maintenance,
/// queries forwarded under **exact cluster-directed routing**. Feasible
/// only because every structure is delta-maintained: a period never
/// pays a full `rebuild_index()` (O(queries × peers), ~10⁷ result
/// evaluations at this scale) and the routed tracker never floods.
/// Deterministic in `seed` — the golden suite pins its digest and the
/// `churn_scale` bench records its per-period cost metric.
pub fn churn_10k_config(seed: u64) -> (ExperimentConfig, ChurnConfig) {
    (
        ExperimentConfig::large(seed),
        ChurnConfig {
            periods: 4,
            leaves_per_period: 25,
            joins_per_period: 25,
            maintenance: Some(StrategyKind::Selfish),
            max_rounds: 6,
            routing: RoutingMode::Routed(SummaryMode::Exact),
            decisions: DecisionSource::Oracle,
        },
    )
}

/// [`churn_10k_config`] with relocation driven by *observed* statistics
/// (decay 0: each repair acts on exactly the latest period's
/// observations). Under exact routing the observations are lossless, so
/// the repaired cost converges to within a few percent of the oracle
/// run — the `churn_10k_observed` golden pins both numbers, and the
/// fidelity metrics feed `bench-trend`.
pub fn churn_10k_observed_config(seed: u64) -> (ExperimentConfig, ChurnConfig) {
    let (cfg, mut churn) = churn_10k_config(seed);
    churn.decisions = DecisionSource::Observed { decay: 0.0 };
    (cfg, churn)
}

/// The `churn_100k` scenario: 100 000 peers from the ideal scenario-1
/// clustering, 50 leaves + 50 joins per period, selfish maintenance
/// under exact cluster-directed routing. One order of magnitude past
/// [`churn_10k_config`] — the scale the read/write split exists for:
///
/// * the tracker's period walk evaluates each *distinct* query once
///   (vocabulary-bounded) via the query → holder lists instead of
///   walking 100 000 workloads;
/// * phase 1 of every maintenance round runs against a [`SystemView`]
///   snapshot (one cache flush, then pure reads, sharded across cores)
///   and re-emits memoized proposals for peers whose epoch stamps did
///   not move.
///
/// Deterministic in `seed`; the golden suite pins its digest (repaired
/// scost sits at the paper-ideal ≈ 0.1) and `round_scale` gates the
/// protocol metrics.
///
/// [`SystemView`]: recluster_core::SystemView
pub fn churn_100k_config(seed: u64) -> (ExperimentConfig, ChurnConfig) {
    (
        ExperimentConfig::huge(seed),
        ChurnConfig {
            periods: 3,
            leaves_per_period: 50,
            joins_per_period: 50,
            maintenance: Some(StrategyKind::Selfish),
            max_rounds: 6,
            routing: RoutingMode::Routed(SummaryMode::Exact),
            decisions: DecisionSource::Oracle,
        },
    )
}

/// The `churn_1M` scenario: 1 000 000 peers from the ideal scenario-1
/// clustering, 100 leaves + 100 joins per period, selfish maintenance
/// under exact cluster-directed routing. Another order of magnitude
/// past [`churn_100k_config`] — the scale the sharded flush/fan-out and
/// the per-(peer, cluster) proposal memo exist for:
///
/// * after the first converged repair, a quiet round recomputes only
///   the O(churned) peers whose epoch stamps moved — every other
///   proposal is re-emitted from the memo through the fine-grained
///   changed-cluster gate;
/// * the cost-cache flush after a churn batch and the tracker's
///   per-period query walk shard across cores via
///   [`map_ranges`](recluster_core::shard::map_ranges), byte-identical
///   to sequential;
/// * the oracle traffic probe runs the observation-free period walk, so
///   no per-peer observation records are ever materialized and no
///   cluster's members are walked (each routed cluster's answer is one
///   recall-index lookup).
///
/// Deterministic in `seed`; the golden suite pins its digest (release
/// builds only — see `goldens/churn_1M.txt`) and the `churn_scale`
/// bench gates its repair time and peak RSS.
pub fn churn_1m_config(seed: u64) -> (ExperimentConfig, ChurnConfig) {
    (
        ExperimentConfig::million(seed),
        ChurnConfig {
            periods: 2,
            leaves_per_period: 100,
            joins_per_period: 100,
            maintenance: Some(StrategyKind::Selfish),
            max_rounds: 6,
            routing: RoutingMode::Routed(SummaryMode::Exact),
            decisions: DecisionSource::Oracle,
        },
    )
}

/// Runs the churn experiment. Deterministic in `cfg.seed`.
pub fn run_churn(cfg: &ExperimentConfig, churn: &ChurnConfig) -> Vec<ChurnPeriod> {
    run_churn_with_fidelity(cfg, churn).0
}

/// [`run_churn`] that also returns the decision-fidelity report —
/// `Some` exactly when `churn.decisions` is observed. Each period runs
/// one [`Maintenance`] tick: the churn batch, then (observed decisions
/// only) the observation pass, then the repair. Oracle runs, which
/// observe nothing, measure the period's query traffic after the
/// repair.
pub fn run_churn_with_fidelity(
    cfg: &ExperimentConfig,
    churn: &ChurnConfig,
) -> (Vec<ChurnPeriod>, Option<FidelityReport>) {
    let mut testbed = ideal_scenario1_system(cfg);
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC4A9));
    let mut net = SimNetwork::new();
    let mut maintenance = Maintenance::new(cfg, &testbed, churn.decisions);
    let protocol = ProtocolConfig::builder()
        .epsilon(1e-3)
        .max_rounds(churn.max_rounds)
        .empty_targets(EmptyTargetPolicy::Always)
        .use_locks(true)
        .build();
    let mut records = Vec::with_capacity(churn.periods);

    for period in 0..churn.periods {
        maintenance.churn_batch(
            &mut testbed,
            churn.leaves_per_period,
            churn.joins_per_period,
            &mut rng,
            &mut net,
        );
        let scost_after_churn = scost_normalized(&testbed.system);
        // Observed mode: the period's queries run *first* — they are
        // both the traffic being measured and the only statistics the
        // strategies get to see.
        let observed = maintenance.observe(&testbed.system, churn.routing);
        let moves = churn.maintenance.map_or(0, |kind| {
            maintenance
                .repair(&mut testbed.system, kind, protocol, &mut net, period)
                .total_moves()
        });
        // Oracle mode: the period's query workload over the repaired
        // overlay, on its own ledger so the record isolates query
        // traffic from maintenance traffic.
        let (query_net, routing) =
            observed.unwrap_or_else(|| measure_query_traffic(&testbed.system, churn.routing));

        records.push(ChurnPeriod {
            period,
            scost_after_churn,
            scost_after_repair: scost_normalized(&testbed.system),
            peers: testbed.system.overlay().n_peers(),
            moves,
            query_messages: query_net.total_messages(),
            forwards_per_query: routing.forwards_per_query(),
            false_negative_rate: routing.false_negative_rate(),
        });
    }
    (records, maintenance.into_fidelity())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::small(81)
    }

    #[test]
    fn churn_degrades_and_maintenance_repairs() {
        let churn = ChurnConfig {
            periods: 6,
            leaves_per_period: 1,
            joins_per_period: 1,
            maintenance: Some(StrategyKind::Selfish),
            max_rounds: 40,
            routing: RoutingMode::Flood,
            ..ChurnConfig::default()
        };
        let with = run_churn(&cfg(), &churn);
        let without = run_churn(
            &cfg(),
            &ChurnConfig {
                maintenance: None,
                ..churn
            },
        );
        let avg = |rows: &[ChurnPeriod]| {
            rows.iter().map(|r| r.scost_after_repair).sum::<f64>() / rows.len() as f64
        };
        assert!(
            avg(&with) < avg(&without),
            "maintenance must help under churn: {} vs {}",
            avg(&with),
            avg(&without)
        );
    }

    #[test]
    fn repair_never_exceeds_post_churn_cost_much() {
        let rows = run_churn(&cfg(), &ChurnConfig::default());
        for r in &rows {
            assert!(
                r.scost_after_repair <= r.scost_after_churn + 0.05,
                "period {}: {} -> {}",
                r.period,
                r.scost_after_churn,
                r.scost_after_repair
            );
        }
    }

    #[test]
    fn peer_count_tracks_joins_and_leaves() {
        let churn = ChurnConfig {
            periods: 3,
            leaves_per_period: 2,
            joins_per_period: 3,
            maintenance: None,
            max_rounds: 10,
            routing: RoutingMode::Flood,
            ..ChurnConfig::default()
        };
        let rows = run_churn(&cfg(), &churn);
        // Net +1 peer per period from 40.
        assert_eq!(rows.last().unwrap().peers, 40 + 3);
    }

    #[test]
    fn overlay_invariants_survive_churn() {
        let rows = run_churn(&cfg(), &ChurnConfig::default());
        assert_eq!(rows.len(), 10);
        // Determinism.
        let again = run_churn(&cfg(), &ChurnConfig::default());
        for (a, b) in rows.iter().zip(again.iter()) {
            assert_eq!(a.peers, b.peers);
            assert!((a.scost_after_repair - b.scost_after_repair).abs() < 1e-12);
            assert_eq!(a.query_messages, b.query_messages);
        }
    }

    #[test]
    fn oracle_runs_report_no_fidelity() {
        let (rows, fidelity) = run_churn_with_fidelity(&cfg(), &ChurnConfig::default());
        assert_eq!(rows.len(), 10);
        assert!(fidelity.is_none());
    }

    #[test]
    fn observed_churn_tracks_the_oracle_under_flood() {
        let churn = ChurnConfig {
            periods: 4,
            leaves_per_period: 1,
            joins_per_period: 1,
            decisions: DecisionSource::Observed { decay: 0.0 },
            ..ChurnConfig::default()
        };
        let (rows, fidelity) = run_churn_with_fidelity(&cfg(), &churn);
        let fidelity = fidelity.expect("observed runs report fidelity");
        assert_eq!(fidelity.periods.len(), rows.len());
        // Flood observations are lossless and decay 0 folds nothing old
        // in, so the observed selfish choice names the oracle's cluster
        // for (nearly) every peer and the repaired costs stay close.
        assert!(
            fidelity.mean_agreement() > 0.95,
            "agreement {}",
            fidelity.mean_agreement()
        );
        assert!(
            fidelity.final_scost_gap().abs() < 0.05,
            "gap {}",
            fidelity.final_scost_gap()
        );
        // Determinism over the observed path.
        let (again, fid2) = run_churn_with_fidelity(&cfg(), &churn);
        for (a, b) in rows.iter().zip(again.iter()) {
            assert_eq!(
                a.scost_after_repair.to_bits(),
                b.scost_after_repair.to_bits()
            );
            assert_eq!(a.query_messages, b.query_messages);
            assert_eq!(a.moves, b.moves);
        }
        for (a, b) in fidelity.periods.iter().zip(fid2.unwrap().periods.iter()) {
            assert_eq!(a.agreement_rate.to_bits(), b.agreement_rate.to_bits());
        }
    }

    #[test]
    fn lossy_routing_degrades_observed_fidelity() {
        let churn = ChurnConfig {
            periods: 3,
            leaves_per_period: 1,
            joins_per_period: 1,
            decisions: DecisionSource::Observed { decay: 0.5 },
            ..ChurnConfig::default()
        };
        let exact = ChurnConfig {
            routing: RoutingMode::Routed(SummaryMode::Exact),
            ..churn.clone()
        };
        let lossy = ChurnConfig {
            routing: RoutingMode::Routed(SummaryMode::TopK(1)),
            ..churn
        };
        let (_, exact_fid) = run_churn_with_fidelity(&cfg(), &exact);
        let (lossy_rows, lossy_fid) = run_churn_with_fidelity(&cfg(), &lossy);
        let exact_fid = exact_fid.unwrap();
        let lossy_fid = lossy_fid.unwrap();
        // Top-1 summaries drop results, so the observed estimates — and
        // with them relocation quality — degrade relative to lossless
        // exact routing. The run must still be deterministic.
        assert!(
            lossy_fid.mean_agreement() <= exact_fid.mean_agreement() + 1e-12,
            "lossy {} vs exact {}",
            lossy_fid.mean_agreement(),
            exact_fid.mean_agreement()
        );
        let (again, _) = run_churn_with_fidelity(&cfg(), &lossy);
        for (a, b) in lossy_rows.iter().zip(again.iter()) {
            assert_eq!(
                a.scost_after_repair.to_bits(),
                b.scost_after_repair.to_bits()
            );
            assert_eq!(a.query_messages, b.query_messages);
        }
    }

    #[test]
    fn routed_churn_repairs_identically_with_less_traffic() {
        use recluster_overlay::SummaryMode;
        let flood = run_churn(&cfg(), &ChurnConfig::default());
        let routed = run_churn(
            &cfg(),
            &ChurnConfig {
                routing: RoutingMode::Routed(SummaryMode::Exact),
                ..ChurnConfig::default()
            },
        );
        for (f, r) in flood.iter().zip(routed.iter()) {
            // Routing changes what queries *cost*, never what the
            // protocol decides: costs and moves are identical.
            assert_eq!(
                f.scost_after_repair.to_bits(),
                r.scost_after_repair.to_bits()
            );
            assert_eq!(f.moves, r.moves);
            assert_eq!(f.peers, r.peers);
            assert!(
                r.query_messages < f.query_messages,
                "period {}: routed {} >= flood {}",
                f.period,
                r.query_messages,
                f.query_messages
            );
            assert_eq!(r.false_negative_rate, 0.0);
            assert!(r.forwards_per_query < f.forwards_per_query);
        }
    }
}
