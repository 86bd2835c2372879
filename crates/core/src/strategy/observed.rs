//! Relocation driven by *observed* statistics (§3.1 as deployed).
//!
//! Every other strategy in this module reads oracle state — the exact
//! recall masses of the [`SystemView`] it proposes against. A deployed
//! peer never sees that; it only has the cid-annotated query results it
//! gathered over the last period(s), folded into an
//! [`ObservedStats`](crate::tracker::ObservedStats) accumulator. The
//! [`ObservedStrategy`] adapter evaluates the same three objectives
//! (selfish / altruistic / hybrid) over those estimates instead. The
//! loops are shared, not mirrored: the selfish choice iterates the
//! oracle `best_response`'s own candidate order, and the altruistic and
//! hybrid decisions are the oracle strategies' functions fed observed
//! contributions and costs. So under flood (or exact-summary) routing
//! with decay disabled the selfish variant reproduces the oracle
//! `best_response` decision exactly (the `prop_observed` keystone), and
//! under `lossy:<k>` routing its decisions degrade with the observation
//! precision.

use std::fmt;

use recluster_types::PeerId;

use super::altruistic::altruistic_choice;
use super::hybrid::hybrid_choice;
use crate::equilibrium::COST_EPS;
use crate::strategy::{Proposal, RelocationStrategy};
use crate::tracker::ObservedStats;
use crate::view::SystemView;

/// Where relocation decisions read their statistics from — the sim
/// layer's `RECLUSTER_DECISIONS` knob parses into this.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecisionSource {
    /// Oracle state: strategies read exact costs from the `SystemView`
    /// (the repo's historical behavior, and the default).
    #[default]
    Oracle,
    /// Tracker observations, folded with the given EMA retention.
    Observed {
        /// Retention of past periods in `[0, 1)`; `0` keeps only the
        /// latest period (the oracle-equivalent setting under lossless
        /// routing).
        decay: f64,
    },
}

impl DecisionSource {
    /// Parses `oracle`, `observed`, or `observed:<decay>` (decay in
    /// `[0, 1)`); `None` on anything else.
    pub fn parse(raw: &str) -> Option<DecisionSource> {
        match raw {
            "oracle" => Some(DecisionSource::Oracle),
            "observed" => Some(DecisionSource::Observed { decay: 0.0 }),
            _ => {
                let decay: f64 = raw.strip_prefix("observed:")?.parse().ok()?;
                (0.0..1.0)
                    .contains(&decay)
                    .then_some(DecisionSource::Observed { decay })
            }
        }
    }

    /// Whether this source reads observed (non-oracle) statistics.
    pub fn is_observed(&self) -> bool {
        matches!(self, DecisionSource::Observed { .. })
    }
}

impl fmt::Display for DecisionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionSource::Oracle => write!(f, "oracle"),
            DecisionSource::Observed { decay } if *decay == 0.0 => write!(f, "observed"),
            DecisionSource::Observed { decay } => write!(f, "observed:{decay}"),
        }
    }
}

/// Which oracle objective the observed adapter mirrors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservedObjective {
    /// Minimize the estimated individual cost (Eq. 5 on observations).
    Selfish,
    /// Maximize the observed contribution (Eq. 6 on served counts).
    Altruistic,
    /// Convex mix `λ·pgain + (1−λ)·clgain` over the estimates.
    Hybrid(f64),
}

/// A [`RelocationStrategy`] whose proposals are computed from an
/// [`ObservedStats`] accumulator instead of oracle view state. The
/// accumulator is owned by the simulation driver (it outlives any one
/// repair) and borrowed here for the duration of one protocol run.
///
/// `propose` is a pure function of `(stats, view, peer, allow_empty)`,
/// so phase-1 sharding stays enabled; proposals are *not* memoizable —
/// the epoch journal knows nothing about the external statistics.
#[derive(Debug, Clone, Copy)]
pub struct ObservedStrategy<'a> {
    stats: &'a ObservedStats,
    objective: ObservedObjective,
}

impl<'a> ObservedStrategy<'a> {
    /// Observed counterpart of [`SelfishStrategy`](crate::strategy::SelfishStrategy).
    pub fn selfish(stats: &'a ObservedStats) -> Self {
        ObservedStrategy {
            stats,
            objective: ObservedObjective::Selfish,
        }
    }

    /// Observed counterpart of [`AltruisticStrategy`](crate::strategy::AltruisticStrategy).
    pub fn altruistic(stats: &'a ObservedStats) -> Self {
        ObservedStrategy {
            stats,
            objective: ObservedObjective::Altruistic,
        }
    }

    /// Observed counterpart of [`HybridStrategy`](crate::strategy::HybridStrategy).
    ///
    /// # Panics
    /// Panics if `lambda` is outside `[0, 1]`.
    pub fn hybrid(stats: &'a ObservedStats, lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda must be in [0, 1], got {lambda}"
        );
        ObservedStrategy {
            stats,
            objective: ObservedObjective::Hybrid(lambda),
        }
    }

    /// The mirrored objective.
    pub fn objective(&self) -> ObservedObjective {
        self.objective
    }
}

impl RelocationStrategy for ObservedStrategy<'_> {
    fn name(&self) -> &'static str {
        match self.objective {
            ObservedObjective::Selfish => "observed-selfish",
            ObservedObjective::Altruistic => "observed-altruistic",
            ObservedObjective::Hybrid(_) => "observed-hybrid",
        }
    }

    fn propose(&self, view: &SystemView<'_>, peer: PeerId, allow_empty: bool) -> Option<Proposal> {
        let current = view.overlay().cluster_of(peer)?;
        // A peer without observations (nothing absorbed yet, or it
        // joined after the last period) has no estimates, serves
        // nothing, and so stays put under every objective.
        match self.objective {
            ObservedObjective::Selfish => {
                let current_cost =
                    self.stats
                        .estimated_pcost(view, peer, current, Some(current))?;
                let (to, cost) =
                    self.stats
                        .selfish_choice(view, peer, Some(current), allow_empty)?;
                if to == current {
                    return None;
                }
                let gain = current_cost - cost;
                (gain > COST_EPS).then_some(Proposal { to, gain })
            }
            ObservedObjective::Altruistic => {
                if self.stats.served_total(peer) == 0.0 {
                    return None; // the peer serves nobody; altruism is moot
                }
                altruistic_choice(view, peer, current, allow_empty, |cid| {
                    self.stats.estimated_contribution(peer, cid)
                })
            }
            ObservedObjective::Hybrid(lambda) => hybrid_choice(
                view,
                peer,
                current,
                allow_empty,
                lambda,
                |cid| self.stats.estimated_contribution(peer, cid),
                |cid| self.stats.estimated_pcost(view, peer, cid, Some(current)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, SimNetwork, Theta};
    use recluster_types::{ClusterId, Document, Query, Sym, Workload};

    use crate::strategy::SelfishStrategy;
    use crate::system::{GameConfig, System};
    use crate::tracker::simulate_period;

    /// Two peers; p0's single query is answered only by p1 (the selfish
    /// seeker fixture).
    fn seeker_system(alpha: f64) -> System {
        let ov = Overlay::singletons(2);
        let mut store = ContentStore::new(2);
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(1)), 1);
        System::new(
            ov,
            store,
            vec![w, Workload::new()],
            GameConfig {
                alpha,
                theta: Theta::Linear,
            },
        )
    }

    fn observe(sys: &System, decay: f64) -> ObservedStats {
        let mut stats = ObservedStats::new(decay);
        let mut net = SimNetwork::new();
        stats.absorb(&simulate_period(sys, &mut net));
        stats
    }

    #[test]
    fn observed_selfish_matches_oracle_proposal_under_flood() {
        let mut sys = seeker_system(1.0);
        let stats = observe(&sys, 0.0);
        let observed = ObservedStrategy::selfish(&stats);
        for (peer, allow_empty) in [(PeerId(0), true), (PeerId(0), false), (PeerId(1), true)] {
            let view = sys.view();
            let oracle = SelfishStrategy.propose(&view, peer, allow_empty);
            let ours = observed.propose(&view, peer, allow_empty);
            match (oracle, ours) {
                (Some(o), Some(p)) => {
                    assert_eq!(o.to, p.to);
                    assert!((o.gain - p.gain).abs() < 1e-9);
                }
                (o, p) => assert_eq!(o.is_some(), p.is_some(), "{peer}"),
            }
        }
    }

    #[test]
    fn no_proposal_without_observations() {
        let mut sys = seeker_system(1.0);
        let stats = ObservedStats::new(0.0);
        let observed = ObservedStrategy::selfish(&stats);
        assert!(observed.propose(&sys.view(), PeerId(0), true).is_none());
    }

    #[test]
    fn observed_altruistic_moves_provider_to_consumer() {
        // p0 holds data demanded from c1 (p1, heavy) and c2 (p2, light):
        // the observed contribution pull matches the oracle altruistic
        // decision.
        let ov = Overlay::singletons(3);
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(1)]));
        let mut w1 = Workload::new();
        w1.add(Query::keyword(Sym(1)), 3);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(1)), 1);
        let mut sys = System::new(
            ov,
            store,
            vec![Workload::new(), w1, w2],
            GameConfig {
                alpha: 0.0,
                theta: Theta::Linear,
            },
        );
        let stats = observe(&sys, 0.0);
        let observed = ObservedStrategy::altruistic(&stats);
        let p = observed.propose(&sys.view(), PeerId(0), true).unwrap();
        assert_eq!(p.to, ClusterId(1));
        assert!(p.gain > 0.0);
        // Consumers serve nothing: no altruistic move.
        assert!(observed.propose(&sys.view(), PeerId(1), true).is_none());
    }

    #[test]
    fn observed_hybrid_extremes_follow_their_parents() {
        let mut sys = seeker_system(0.5);
        let stats = observe(&sys, 0.0);
        let selfish = ObservedStrategy::selfish(&stats);
        let hybrid1 = ObservedStrategy::hybrid(&stats, 1.0);
        let view = sys.view();
        let a = selfish.propose(&view, PeerId(0), true).unwrap();
        let b = hybrid1.propose(&view, PeerId(0), true).unwrap();
        assert_eq!(a.to, b.to);
        assert!((a.gain - b.gain).abs() < 1e-12);
    }

    #[test]
    fn decision_source_parses_and_displays() {
        assert_eq!(
            DecisionSource::parse("oracle"),
            Some(DecisionSource::Oracle)
        );
        assert_eq!(
            DecisionSource::parse("observed"),
            Some(DecisionSource::Observed { decay: 0.0 })
        );
        assert_eq!(
            DecisionSource::parse("observed:0.5"),
            Some(DecisionSource::Observed { decay: 0.5 })
        );
        assert_eq!(DecisionSource::parse("observed:1.0"), None);
        assert_eq!(DecisionSource::parse("observed:-0.1"), None);
        assert_eq!(DecisionSource::parse("psychic"), None);
        assert_eq!(DecisionSource::Oracle.to_string(), "oracle");
        assert_eq!(
            DecisionSource::Observed { decay: 0.0 }.to_string(),
            "observed"
        );
        assert_eq!(
            DecisionSource::Observed { decay: 0.25 }.to_string(),
            "observed:0.25"
        );
        assert!(DecisionSource::default() == DecisionSource::Oracle);
        assert!(DecisionSource::Observed { decay: 0.0 }.is_observed());
    }
}
