//! Experiment harness reproducing the paper's evaluation (§4).
//!
//! * [`scenario`] — builds the testbed: 200 peers sharing synthetic
//!   Newsgroup-like articles from 10 categories, the three data/query
//!   distributions of §4.1 (same category, different categories,
//!   uniform) and the four initial cluster configurations (i)–(iv).
//! * [`updates`] — the §4.2 update generators: workload retargeting and
//!   blending, data replacement and blending.
//! * [`table1`] — Experiment E1 (Table 1): convergence, cluster counts
//!   and costs for every scenario × initial configuration × strategy.
//! * [`fig1`] — Experiment E2 (Figure 1): per-round social and workload
//!   cost.
//! * [`fig23`] — Experiments E3/E4 (Figures 2 and 3): social cost after
//!   maintenance vs. the fraction of updated peers / workload / data.
//! * [`fig4`] — Experiment E5 (Figure 4): individual cost of a selfish
//!   peer under gradual workload change for α ∈ {0, 1, 2}.
//! * [`baseline_cmp`] — our extension: message-cost and quality
//!   comparison against global k-means re-clustering, random relocation
//!   and no maintenance.
//! * [`traffic`] — our extension: the streamed query-serving engine —
//!   routed queries under live churn with batched summary publication
//!   and throughput/p99 fan-out observability.
//! * [`maintenance`] — the one churn-and-repair driver [`churn`] and
//!   [`traffic`] share: the churn batch, the observation pass, and the
//!   repair with its observed-vs-oracle fidelity audit.
//! * [`netsim`] — our extension: the typed-message runtime under
//!   degraded schedules — the delay/reorder sweep (does equilibrium
//!   scost survive stale grants?) and the liar audit (inflated claims
//!   attributed against observed statistics).
//! * [`knobs`] — shared `RECLUSTER_*` environment-knob parsing for the
//!   experiment binaries; malformed values warn on stderr, never
//!   silently fall back.
//! * [`report`] — plain-text table/series rendering and CSV export.
//!
//! The churn and traffic scenarios both honour
//! [`DecisionSource`](recluster_core::DecisionSource): under
//! `Observed` peers relocate on traffic-folded estimates and the run
//! reports per-repair observed-vs-oracle fidelity as one
//! [`FidelityReport`] of [`FidelityPeriod`] rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod baseline_cmp;
pub mod churn;
pub mod fig1;
pub mod fig23;
pub mod fig4;
pub mod knobs;
pub mod lookup;
pub mod maintenance;
pub mod netsim;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table1;
pub mod traffic;
pub mod updates;

pub use churn::{
    run_churn, run_churn_with_fidelity, ChurnConfig, ChurnPeriod, FidelityPeriod, FidelityReport,
};
pub use recluster_overlay::{RoutingMode, SummaryMode};
pub use runner::{
    decision_agreement, measure_query_traffic, run_protocol, run_protocol_observed, sweep_map,
    Parallelism, StrategyKind,
};
pub use scenario::{
    build_system, ideal_scenario1_system, ExperimentConfig, InitialConfig, Scenario, TestBed,
};
pub use traffic::{
    run_traffic, traffic_demo_config, traffic_small_config, traffic_small_observed_config,
    TrafficConfig, TrafficEngine, TrafficReport, TrafficWindow, WorkloadDynamics,
};
