//! The selfish relocation strategy (§3.1.1).
//!
//! "Each peer selects the ci for which pcost(p, ci) = min_cj pcost(p,cj)
//! […] the peer computes a measure called individual peer gain:
//! pgain(p, c_new) = pcost(p, c_cur) − pcost(p, c_new)."

use recluster_types::PeerId;

use crate::equilibrium::{best_response, best_response_with_chain, COST_EPS};
use crate::strategy::{ChainInfo, MemoGate, Proposal, RelocationStrategy};
use crate::view::SystemView;

/// The selfish strategy: pure individual-cost minimization.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfishStrategy;

impl RelocationStrategy for SelfishStrategy {
    fn name(&self) -> &'static str {
        "selfish"
    }

    fn propose(&self, view: &SystemView<'_>, peer: PeerId, allow_empty: bool) -> Option<Proposal> {
        let br = best_response(view, peer, allow_empty);
        if br.gain > COST_EPS {
            Some(Proposal {
                to: br.cluster,
                gain: br.gain,
            })
        } else {
            None
        }
    }

    /// The same scan with its take chain recorded, so the memo can keep
    /// an entry alive across rounds that only touched clusters the scan
    /// rejected (or never reached). A stay reports the scan's bound
    /// instead, which the memo keeps as the stay's certificate.
    fn propose_traced(
        &self,
        view: &SystemView<'_>,
        peer: PeerId,
        allow_empty: bool,
    ) -> (Option<Proposal>, ChainInfo) {
        let mut chain = Vec::new();
        let (br, bound) = best_response_with_chain(view, peer, allow_empty, &mut chain);
        if chain.is_empty() {
            return (None, ChainInfo::Stay { bound });
        }
        let proposal = (br.gain > COST_EPS).then_some(Proposal {
            to: br.cluster,
            gain: br.gain,
        });
        (proposal, ChainInfo::Known(chain.into_boxed_slice()))
    }

    /// `best_response` reads exactly the quantities the change journal
    /// stamps — the peer's workload rows, the candidate clusters' sizes
    /// and masses, `|P|` and the game parameters — so the journal gate
    /// covers it completely.
    fn memo_gate(&self) -> MemoGate {
        MemoGate::Journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{ClusterId, Document, Query, Sym, Workload};

    use crate::system::{GameConfig, System};

    /// Two peers; p0's single query is answered only by p1.
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

    #[test]
    fn proposes_move_toward_results() {
        let mut sys = seeker_system(1.0);
        let p = SelfishStrategy
            .propose(&sys.view(), PeerId(0), true)
            .unwrap();
        assert_eq!(p.to, ClusterId(1));
        // pgain = (0.5 + 1) − (1 + 0) = 0.5.
        assert!((p.gain - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_proposal_when_satisfied() {
        let mut sys = seeker_system(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(SelfishStrategy
            .propose(&sys.view(), PeerId(0), true)
            .is_none());
    }

    #[test]
    fn high_alpha_suppresses_the_move() {
        // With α = 3, joining (membership 2·3/2 = 3) beats staying
        // (0.5·3 + 1 = 2.5)? No: 3 > 2.5, so the peer stays.
        let mut sys = seeker_system(3.0);
        assert!(SelfishStrategy
            .propose(&sys.view(), PeerId(0), true)
            .is_none());
    }

    #[test]
    fn respects_allow_empty_flag() {
        // p1 (the data holder) would flee to an empty cluster after p0
        // joins it (membership drops 1.0 → 0.5 with no recall loss).
        let mut sys = seeker_system(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        let with_empty = SelfishStrategy.propose(&sys.view(), PeerId(1), true);
        assert!(with_empty.is_some());
        let without_empty = SelfishStrategy.propose(&sys.view(), PeerId(1), false);
        assert!(without_empty.is_none());
    }

    #[test]
    fn name_is_selfish() {
        assert_eq!(SelfishStrategy.name(), "selfish");
    }
}
