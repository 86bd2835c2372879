//! The maintenance loop both long-running drivers share: one churn
//! batch, one observation pass, one repair.
//!
//! The paper's maintenance is one pipeline: peers learn per-cluster
//! recall from cid-annotated results over a period (§3.1), then
//! representatives relocate them under the lock rule (§3.2). Two
//! drivers run it on different clocks — [`crate::churn`] once per
//! period, [`crate::traffic`] at the churn and repair ticks between its
//! streamed query slices. [`Maintenance`] owns the state that outlives
//! one tick (the newcomers' query samplers, the folded observations,
//! the fidelity rows) and fixes which steps a tick runs, in what order:
//!
//! 1. [`Maintenance::churn_batch`] — departures of random live peers,
//!    then arrivals carrying hold-out articles of a random category into
//!    a random non-empty cluster (a newcomer does not know where it
//!    belongs), every event through the `System` churn hooks;
//! 2. [`Maintenance::observe`] — under observed decisions, every live
//!    workload routed once and folded into the [`ObservedStats`];
//! 3. [`Maintenance::repair`] — the protocol run. Under observed
//!    decisions it is preceded by the decision-agreement audit and a
//!    reference oracle repair on a clone, which together yield one
//!    [`FidelityPeriod`].
//!
//! # Examples
//!
//! One churn batch on the miniature testbed:
//!
//! ```
//! use recluster_core::DecisionSource;
//! use recluster_overlay::SimNetwork;
//! use recluster_sim::maintenance::Maintenance;
//! use recluster_sim::scenario::{ideal_scenario1_system, ExperimentConfig};
//! use recluster_types::seeded_rng;
//!
//! let cfg = ExperimentConfig::small(7);
//! let mut testbed = ideal_scenario1_system(&cfg);
//! let mut maintenance = Maintenance::new(&cfg, &testbed, DecisionSource::Oracle);
//! let mut net = SimNetwork::new();
//! let touched = maintenance.churn_batch(&mut testbed, 1, 2, &mut seeded_rng(1), &mut net);
//! assert_eq!(touched.len(), 3, "one leave, then two joins");
//! assert_eq!(testbed.system.overlay().n_peers(), 41);
//! // Oracle decisions audit nothing.
//! assert!(maintenance.into_fidelity().is_none());
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use recluster_core::{
    scost_normalized, simulate_period_routed, DecisionSource, ObservedStats, ProtocolConfig,
    RoutingReport, RunOutcome, System,
};
use recluster_corpus::{QueryBias, QuerySampler, WorkloadBuilder};
use recluster_overlay::churn::{random_leave, ChurnDelta, ChurnEvent};
use recluster_overlay::{RoutingMode, SimNetwork};
use recluster_types::{derive_seed, seeded_rng, ClusterId, Workload};

use crate::runner::{decision_agreement, run_protocol, run_protocol_observed, StrategyKind};
use crate::scenario::{ExperimentConfig, TestBed};

/// One maintained period's decision-fidelity measurements (observed
/// decisions only).
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityPeriod {
    /// The churn driver's period index, or the traffic engine's slice
    /// at the repair tick.
    pub period: usize,
    /// Fraction of live peers whose observed proposal named the same
    /// destination as the oracle strategy's proposal on the pre-repair
    /// state (both proposing nothing counts as agreement).
    pub agreement_rate: f64,
    /// Normalized social cost after the *observed* repair.
    pub scost_observed_repair: f64,
    /// Normalized social cost a reference *oracle* repair reaches from
    /// the same pre-repair state.
    pub scost_oracle_repair: f64,
}

impl FidelityPeriod {
    /// Relative cost excess of the observed repair over the oracle one
    /// (`0` = identical quality; positive = observed repairs worse).
    pub fn scost_gap(&self) -> f64 {
        if self.scost_oracle_repair == 0.0 {
            0.0
        } else {
            self.scost_observed_repair / self.scost_oracle_repair - 1.0
        }
    }
}

/// Decision-fidelity report of an observed-mode run: how closely the
/// observed relocation pipeline tracks the oracle it replaces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FidelityReport {
    /// One entry per maintained period.
    pub periods: Vec<FidelityPeriod>,
}

impl FidelityReport {
    /// Mean per-period agreement rate (`1.0` without periods).
    pub fn mean_agreement(&self) -> f64 {
        if self.periods.is_empty() {
            return 1.0;
        }
        self.periods.iter().map(|p| p.agreement_rate).sum::<f64>() / self.periods.len() as f64
    }

    /// The scost gap at convergence — the last period's relative excess
    /// (`0` without periods).
    pub fn final_scost_gap(&self) -> f64 {
        self.periods.last().map_or(0.0, FidelityPeriod::scost_gap)
    }
}

/// The shared maintenance driver; see the [module docs](self).
pub struct Maintenance {
    /// Query occurrences a newcomer's workload draws.
    demand_per_peer: u64,
    /// Per-category newcomer samplers, built on first use: construction
    /// walks the category's visible docs, far too much to repeat per
    /// join at scale. A sampler holds no RNG state, so a cached one
    /// draws exactly what a fresh one would.
    samplers: Vec<Option<QuerySampler>>,
    /// Folded observation estimates (observed decisions only).
    stats: Option<ObservedStats>,
    fidelity: Vec<FidelityPeriod>,
}

impl Maintenance {
    /// A driver for `testbed` (built from `cfg`) whose repairs read
    /// their statistics from `decisions`.
    pub fn new(cfg: &ExperimentConfig, testbed: &TestBed, decisions: DecisionSource) -> Self {
        Maintenance {
            demand_per_peer: (cfg.total_queries / cfg.n_peers as u64).max(1),
            samplers: vec![None; testbed.holdout.len()],
            stats: match decisions {
                DecisionSource::Observed { decay } => Some(ObservedStats::new(decay)),
                DecisionSource::Oracle => None,
            },
            fidelity: Vec::new(),
        }
    }

    /// Applies `leaves` departures of random live peers, then `joins`
    /// arrivals: a fresh peer with five hold-out articles of a random
    /// category, querying that category, dropped into a random
    /// non-empty cluster. Every event flows through the `System` churn
    /// hooks, which delta-maintain the recall index, the summaries and
    /// the cost cache — no rebuild, and mid-batch state is always
    /// exact. Returns, in order, the cluster each applied event left or
    /// joined.
    pub fn churn_batch(
        &mut self,
        testbed: &mut TestBed,
        leaves: usize,
        joins: usize,
        rng: &mut StdRng,
        net: &mut SimNetwork,
    ) -> Vec<ClusterId> {
        let mut touched = Vec::with_capacity(leaves + joins);
        for _ in 0..leaves {
            let Some(ChurnEvent::Leave { peer }) = random_leave(testbed.system.overlay(), rng)
            else {
                continue;
            };
            if let Some(ChurnDelta::Left { peer, cluster }) = testbed
                .system
                .apply_churn_event(net, ChurnEvent::Leave { peer })
            {
                testbed.system.set_workload(peer, Workload::new());
                touched.push(cluster);
            }
        }

        let n_categories = testbed.holdout.len();
        let builder = WorkloadBuilder::new(QueryBias::Uniform)
            .with_doc_limit(testbed.distributable_per_category);
        for _ in 0..joins {
            let cat = rng.gen_range(0..n_categories);
            let pool = &testbed.holdout[cat];
            let docs: Vec<_> = (0..5)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect();
            let cluster = {
                let non_empty = testbed.system.overlay().non_empty_ids();
                non_empty[rng.gen_range(0..non_empty.len())]
            };
            // The join hook grows overlay/store/workloads in lockstep,
            // delta-updates membership, and indexes the newcomer's
            // content immediately; `set_workload` registers any
            // genuinely new queries with fresh result columns.
            let peer = testbed
                .system
                .apply_churn_event(net, ChurnEvent::Join { cluster, docs })
                .expect("join events always apply")
                .peer();
            let mut wrng = seeded_rng(derive_seed(rng.gen(), 0x10));
            let sampler =
                self.samplers[cat].get_or_insert_with(|| builder.sampler(&testbed.corpus, cat));
            let workload = builder.build_with(sampler, self.demand_per_peer, &mut wrng);
            testbed.system.set_workload(peer, workload);
            testbed.peer_category.push(cat);
            testbed.query_category.push(Some(cat));
            touched.push(cluster);
        }
        touched
    }

    /// The observation pass: every live workload routed once under
    /// `mode` on a fresh ledger — so lossy summaries degrade what the
    /// peers learn — and folded into the estimates. Returns the ledger
    /// and routing report; `None`, without walking, under oracle
    /// decisions.
    pub fn observe(
        &mut self,
        system: &System,
        mode: RoutingMode,
    ) -> Option<(SimNetwork, RoutingReport)> {
        let stats = self.stats.as_mut()?;
        let mut net = SimNetwork::new();
        let (observations, routing) = simulate_period_routed(system, &mut net, mode);
        stats.absorb(&observations);
        Some((net, routing))
    }

    /// Runs the maintenance protocol with strategy `kind` over `system`,
    /// charging `net`. Under observed decisions the strategy reads the
    /// folded estimates, and before it runs the driver measures the
    /// decision agreement on the pre-repair state and repairs a clone
    /// with the oracle strategy (on a scratch ledger); the fidelity row
    /// is recorded under `period`. The clone shares the store, the
    /// workloads and the index rows with `system`, since neither repair
    /// writes them, so it costs only what a move writes (about 14 MiB at
    /// 100 000 peers; see [`System`]'s cloning notes).
    pub fn repair(
        &mut self,
        system: &mut System,
        kind: StrategyKind,
        protocol: ProtocolConfig,
        net: &mut SimNetwork,
        period: usize,
    ) -> RunOutcome {
        let Some(stats) = &self.stats else {
            return run_protocol(system, kind, protocol, net);
        };
        let agreement_rate = decision_agreement(system, kind, stats, true);
        let mut reference = system.clone();
        run_protocol(&mut reference, kind, protocol, &mut SimNetwork::new());
        let outcome = run_protocol_observed(system, kind, stats, protocol, net);
        self.fidelity.push(FidelityPeriod {
            period,
            agreement_rate,
            scost_observed_repair: scost_normalized(system),
            scost_oracle_repair: scost_normalized(&reference),
        });
        outcome
    }

    /// The fidelity report — `Some` exactly under observed decisions.
    pub fn into_fidelity(self) -> Option<FidelityReport> {
        self.stats.map(|_| FidelityReport {
            periods: self.fidelity,
        })
    }
}
