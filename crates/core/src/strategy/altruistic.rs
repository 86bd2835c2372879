//! The altruistic relocation strategy (§3.1.2).
//!
//! "The peers decide to move to the cluster whose recall could improve
//! the most by this movement." Each peer tracks its contribution to every
//! cluster (Eq. 6):
//!
//! ```text
//! contribution(p, ci) = Σ_{pi∈ci} Σ_{qm∈Q(pi)} result(qm, p)
//!                     / Σ_{pj∈P}  Σ_{qm∈Q(pj)} result(qm, p)
//! ```
//!
//! and selects the cluster with the maximum contribution. The paper's
//! cluster gain (`clgain`) combines that contribution with "the increase
//! in the membership cost of c_new p will cause if it joins it"; the
//! wording is ambiguous about sign. We settle it as
//!
//! ```text
//! clgain = contribution(p, c_new) − contribution(p, c_cur)
//!        − membership_increase(c_new)
//! ```
//!
//! i.e. the *net benefit to the destination* of the move: larger is
//! better, comparable against the protocol's `ε`, and it reproduces the
//! observed dynamics of §4.2 (a provider moves only when the demand it
//! serves elsewhere overtakes the demand it already serves at home, by
//! enough to offset the destination's growth).

use recluster_types::{ClusterId, PeerId};

use crate::equilibrium::COST_EPS;
use crate::strategy::{membership_increase, Proposal, RelocationStrategy};
use crate::system::System;
use crate::view::SystemView;

/// The altruistic strategy.
///
/// Call [`RelocationStrategy::prepare`] once per round to (re)compute the
/// contribution matrix before proposing.
#[derive(Debug, Clone, Default)]
pub struct AltruisticStrategy {
    /// `contribution_num[p][c]`: demand-weighted results peer `p` serves
    /// to members of cluster `c`.
    contribution_num: Vec<Vec<f64>>,
    /// `totals[p]`: demand-weighted results peer `p` serves system-wide.
    totals: Vec<f64>,
}

impl AltruisticStrategy {
    /// Creates an (unprepared) altruistic strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// `contribution(p, c)` per Eq. 6 under the statistics of the last
    /// [`RelocationStrategy::prepare`] call; zero if `p` serves nothing.
    pub fn contribution(&self, peer: PeerId, cid: ClusterId) -> f64 {
        let total = self.totals[peer.index()];
        if total == 0.0 {
            0.0
        } else {
            self.contribution_num[peer.index()][cid.index()] / total
        }
    }

    /// Panics, naming `strategy`, unless [`RelocationStrategy::prepare`]
    /// has filled the contribution matrix.
    pub(super) fn assert_prepared(&self, strategy: &str) {
        assert!(
            !self.totals.is_empty(),
            "{strategy}::prepare must run before propose"
        );
    }
}

/// The altruistic decision (§3.1.2) of `peer`, now in `current`, over a
/// contribution source; [`AltruisticStrategy`] and the observed adapter
/// share it. The first admissible cluster of maximal contribution is
/// proposed when it is not `current` and its `clgain` clears
/// [`COST_EPS`].
///
/// Scans every cluster id rather than the best-response candidate
/// order: an observed estimate for a cluster that emptied after the
/// snapshot can differ from another empty cluster's, so no empty slot
/// stands for the rest.
pub(super) fn altruistic_choice(
    view: &SystemView<'_>,
    peer: PeerId,
    current: ClusterId,
    allow_empty: bool,
    contribution: impl Fn(ClusterId) -> f64,
) -> Option<Proposal> {
    let overlay = view.overlay();
    let mut best: Option<(ClusterId, f64)> = None;
    for cid in overlay.cluster_ids() {
        if overlay.cluster(cid).is_empty() && !allow_empty {
            continue;
        }
        let c = contribution(cid);
        let better = match best {
            None => true,
            Some((_, b)) => c > b + f64::EPSILON,
        };
        if better {
            best = Some((cid, c));
        }
    }
    let (cnew, contribution_new) = best?;
    if cnew == current {
        return None;
    }
    let clgain = contribution_new - contribution(current) - membership_increase(view, peer, cnew);
    (clgain > COST_EPS).then_some(Proposal {
        to: cnew,
        gain: clgain,
    })
}

impl RelocationStrategy for AltruisticStrategy {
    fn name(&self) -> &'static str {
        "altruistic"
    }

    fn prepare(&mut self, system: &System) {
        let n_slots = system.overlay().n_slots();
        let cmax = system.overlay().cmax();
        let index = system.index();
        self.contribution_num = vec![vec![0.0; cmax]; n_slots];
        self.totals = vec![0.0; n_slots];
        // For every requester pi and every query occurrence in Q(pi),
        // credit each answering peer p with result(qm, p). A peer's own
        // results for its own queries are excluded: Eq. 6 counts "the
        // number of results it *sends* to queries coming from a
        // particular cluster", and nothing is sent to oneself — without
        // this exclusion a self-sufficient peer would appear maximally
        // useful to whatever cluster it already sits in.
        for requester in system.overlay().peers() {
            let cid = system.overlay().cluster_of(requester).expect("live peer");
            let wl = &system.workloads()[requester.index()];
            let peer_total = wl.total();
            if peer_total == 0 {
                continue;
            }
            for &(qid, rel_freq) in index.workload_of(requester) {
                let occurrences = rel_freq * peer_total as f64; // num(qm, Q(pi))
                for slot in 0..n_slots {
                    if slot == requester.index() {
                        continue;
                    }
                    let served = index.result(qid, PeerId::from_index(slot));
                    if served > 0 {
                        let credit = occurrences * served as f64;
                        self.contribution_num[slot][cid.index()] += credit;
                        self.totals[slot] += credit;
                    }
                }
            }
        }
    }

    fn propose(&self, view: &SystemView<'_>, peer: PeerId, allow_empty: bool) -> Option<Proposal> {
        self.assert_prepared("AltruisticStrategy");
        let current = view.overlay().cluster_of(peer)?;
        if self.totals[peer.index()] == 0.0 {
            return None; // the peer serves nobody; altruism is moot
        }
        altruistic_choice(view, peer, current, allow_empty, |cid| {
            self.contribution(peer, cid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::system::GameConfig;

    /// p0 holds the data wanted (heavily) by p1 and (lightly) by p2;
    /// p1 ∈ c1, p2 ∈ c2, p0 ∈ c0. α tiny so membership hardly matters.
    fn provider_system(demand1: u64, demand2: u64, alpha: f64) -> System {
        let ov = Overlay::singletons(3);
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(1)]));
        let mut w1 = Workload::new();
        w1.add(Query::keyword(Sym(1)), demand1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(1)), demand2);
        System::new(
            ov,
            store,
            vec![Workload::new(), w1, w2],
            GameConfig {
                alpha,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn contribution_fractions_follow_demand() {
        let sys = provider_system(3, 1, 0.0);
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        assert!((s.contribution(PeerId(0), ClusterId(1)) - 0.75).abs() < 1e-12);
        assert!((s.contribution(PeerId(0), ClusterId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(s.contribution(PeerId(0), ClusterId(0)), 0.0);
    }

    #[test]
    fn provider_moves_to_its_biggest_consumer() {
        let mut sys = provider_system(3, 1, 0.0);
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        let p = s.propose(&sys.view(), PeerId(0), true).unwrap();
        assert_eq!(p.to, ClusterId(1));
        assert!(p.gain > 0.0);
    }

    #[test]
    fn non_serving_peer_does_not_move() {
        let mut sys = provider_system(3, 1, 0.0);
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        assert!(s.propose(&sys.view(), PeerId(1), true).is_none());
    }

    #[test]
    fn membership_increase_gates_the_move() {
        // With a huge α the destination's membership growth outweighs the
        // contribution benefit.
        let mut sys = provider_system(3, 1, 10.0);
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        assert!(s.propose(&sys.view(), PeerId(0), true).is_none());
    }

    #[test]
    fn provider_already_serving_home_stays_until_demand_shifts() {
        // p0 co-clustered with its heavy consumer p1; light external
        // demand from p2 must not dislodge it.
        let mut sys = provider_system(3, 1, 0.0);
        sys.move_peer(PeerId(1), ClusterId(0));
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        assert!(s.propose(&sys.view(), PeerId(0), true).is_none());

        // Demand flips: p2 now dominates → p0 relocates to c2.
        let mut sys = provider_system(1, 5, 0.0);
        sys.move_peer(PeerId(1), ClusterId(0));
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        let p = s.propose(&sys.view(), PeerId(0), true).unwrap();
        assert_eq!(p.to, ClusterId(2));
    }

    #[test]
    fn equal_demand_does_not_justify_moving() {
        // Same demand at home and away: clgain ≤ 0 (and membership
        // increase strictly penalizes the move).
        let mut sys = provider_system(2, 2, 1.0);
        sys.move_peer(PeerId(1), ClusterId(0));
        let mut s = AltruisticStrategy::new();
        s.prepare(&sys);
        assert!(s.propose(&sys.view(), PeerId(0), true).is_none());
    }

    #[test]
    #[should_panic(expected = "prepare must run")]
    fn propose_without_prepare_panics() {
        let mut sys = provider_system(1, 1, 1.0);
        let s = AltruisticStrategy::new();
        let _ = s.propose(&sys.view(), PeerId(0), true);
    }

    #[test]
    #[should_panic(expected = "prepare must run")]
    fn hybrid_propose_without_prepare_panics() {
        let mut sys = provider_system(1, 1, 1.0);
        let s = crate::strategy::HybridStrategy::new(0.5);
        let _ = s.propose(&sys.view(), PeerId(0), true);
    }
}
