//! Clustered peer-to-peer overlay substrate.
//!
//! The paper's system model: autonomous peers form *clusters* (sets of
//! peers); inside a cluster query evaluation is cost-efficient, and the
//! per-cluster maintenance cost is a monotone function `θ` of the cluster
//! size whose shape depends on the intra-cluster topology. This crate
//! provides that substrate:
//!
//! * [`theta`] — the `θ` cost models (linear for fully connected
//!   clusters — the paper's experimental choice — logarithmic for
//!   structured overlays, plus square-root and constant variants for
//!   ablations).
//! * [`overlay`] — the cluster registry: peer→cluster assignment with
//!   `Cmax = |P|` cluster slots (clusters may be empty), deterministic
//!   membership order, representatives, and structural invariants.
//! * [`content`] — per-peer document stores ("peers share content").
//! * [`network`] — a message-counting simulated network so protocols and
//!   baselines can be compared on communication cost.
//! * [`routing`] — query evaluation over the overlay with results
//!   annotated by the answering cluster's `cid` (§3.1: "the results of
//!   each query are annotated with the corresponding cids"), flooding
//!   and cluster-directed variants, the *cluster recall* measure, and
//!   the cluster-directed layer: delta-maintained per-cluster content
//!   summaries and the route plans built from them.
//! * [`churn`] — peer join/leave events that keep the `Cmax = |P|`
//!   invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod content;
pub mod network;
pub mod overlay;
pub mod routing;
pub mod theta;

pub use churn::{apply_event, ChurnDelta, ChurnEvent};
pub use content::ContentStore;
pub use network::{MsgKind, SimNetwork};
pub use overlay::{Cluster, Overlay};
pub use routing::{
    charge_cluster_answer, cluster_recall, flood_query, route_to_clusters, AnnotatedResult,
    ClusterSummaries, RoutePlan, RoutingMode, SummaryMode,
};
pub use theta::Theta;
