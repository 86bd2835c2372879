//! Keystone equivalence for the observed relocation pipeline: under
//! flood routing (lossless observations) with decay disabled, after
//! *any* random mutation script,
//!
//! 1. [`ObservedStats`] forgets a stale period at decay 0: after
//!    absorbing it and then the latest period, every estimated `pcost`,
//!    contribution and selfish choice is **bitwise** that of a fresh
//!    accumulator that absorbed only the latest period (the decay-0
//!    fold replaces, it never rounds), and
//! 2. the observed selfish choice selects **exactly** the oracle
//!    [`best_response`] cluster for every live peer, under both
//!    empty-target policies — same candidate set, same tie-break, and
//! 3. [`ObservedStrategy`]'s proposals name the same destination as the
//!    oracle [`SelfishStrategy`] on the same view, and
//! 4. at decay 0.25 and 0.5, over 2–3 periods with any ops in between
//!    and under flood, exact and lossy routing, every estimate equals
//!    that of the nested per-peer fold in `fold_reference`, bit for bit.
//!
//! Properties 2 and 3 hold only while every result holder is assigned
//! to a cluster: a *soft*-left peer keeps its documents in the store —
//! the oracle's recall totals still count them, but no cluster serves
//! them, so the observed picture is legitimately smaller. The
//! equivalence tests therefore strip plain `Leave`/`Join` — and content
//! updates aimed at unassigned slots — from the script (churn leaves
//! drop the leaver's documents and are kept), mirroring
//! `prop_routing`'s universe rationale.

mod common;
mod fold_reference;

use common::{apply, arb_ops, arb_seed_syms, fixture, Op};
use fold_reference::{check_estimates, ReferenceStats};
use proptest::prelude::*;
use recluster_core::System;
use recluster_core::{
    best_response, pcost, simulate_period, simulate_period_routed, ObservedStats, ObservedStrategy,
    RelocationStrategy, SelfishStrategy,
};
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_types::{ClusterId, PeerId};

/// Applies `ops` while keeping the oracle premise intact: every
/// document holder stays assigned to a cluster (see module doc).
fn apply_assigned_only(sys: &mut System, net: &mut SimNetwork, ops: Vec<Op>) {
    for op in ops {
        match &op {
            Op::Leave { .. } | Op::Join { .. } => continue,
            Op::SetContent { peer, .. } => {
                let p = PeerId(peer % sys.overlay().n_slots() as u32);
                if sys.overlay().cluster_of(p).is_none() {
                    continue;
                }
            }
            _ => {}
        }
        apply(sys, net, op);
    }
}

/// Absorbs one period of `sys` under `mode` into both estimators and
/// holds every slot's estimates to the reference, over every cluster id.
fn observe_and_check(
    sys: &System,
    net: &mut SimNetwork,
    mode: RoutingMode,
    stats: &mut ObservedStats,
    reference: &mut ReferenceStats,
) -> Result<(), TestCaseError> {
    let (period, _) = simulate_period_routed(sys, net, mode);
    stats.absorb(&period);
    reference.absorb(&period, sys.overlay());
    check_all(stats, reference, sys)
}

/// [`check_estimates`] over every slot and every cluster id of `sys`.
fn check_all(
    stats: &ObservedStats,
    reference: &ReferenceStats,
    sys: &System,
) -> Result<(), TestCaseError> {
    let clusters: Vec<ClusterId> = sys.overlay().cluster_ids().collect();
    let slots = (0..sys.overlay().n_slots()).map(PeerId::from_index);
    check_estimates(stats, reference, sys, slots, &clusters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The decayed fold is the nested per-peer fold, bit for bit: after
    /// each absorb, and again after the ops that follow it (estimates
    /// from a stale snapshot against a changed overlay, with late
    /// joiners and grown `Cmax`).
    #[test]
    fn decayed_fold_equals_the_nested_reference(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        gaps in proptest::collection::vec(arb_ops(12), 1..3),
        decay in prop_oneof![Just(0.25), Just(0.5)],
    ) {
        let base = fixture(&seed_docs, &seed_queries);
        for mode in [
            RoutingMode::Flood,
            RoutingMode::Routed(SummaryMode::Exact),
            RoutingMode::Routed(SummaryMode::TopK(1)),
        ] {
            let mut sys = base.clone();
            let mut net = SimNetwork::new();
            let mut stats = ObservedStats::new(decay);
            let mut reference = ReferenceStats::new(decay);
            observe_and_check(&sys, &mut net, mode, &mut stats, &mut reference)?;
            for ops in &gaps {
                for op in ops.iter().cloned() {
                    apply(&mut sys, &mut net, op);
                }
                check_all(&stats, &reference, &sys)?;
                observe_and_check(&sys, &mut net, mode, &mut stats, &mut reference)?;
            }
        }
    }

    /// Decay 0 is a literal snapshot: the folded estimates carry the
    /// latest period's bits — those of an accumulator that never saw
    /// the stale period — even after the system mutated in between.
    #[test]
    fn decay_zero_fold_is_bitwise_the_latest_period(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(16),
    ) {
        let mut sys = fixture(&seed_docs, &seed_queries);
        let mut net = SimNetwork::new();
        let mut stats = ObservedStats::new(0.0);

        // A stale period absorbed *before* the mutations: decay 0 must
        // forget it entirely at the next absorb.
        stats.absorb(&simulate_period(&sys, &mut net));

        for op in ops {
            apply(&mut sys, &mut net, op);
        }
        let period = simulate_period(&sys, &mut net);
        stats.absorb(&period);
        prop_assert_eq!(stats.periods_absorbed(), 2);
        let mut latest = ObservedStats::new(0.0);
        latest.absorb(&period);

        for peer in sys.overlay().peers() {
            let current = sys.overlay().cluster_of(peer);
            for cid in sys.overlay().cluster_ids() {
                let folded = stats.estimated_pcost(&sys, peer, cid, current);
                let raw = latest.estimated_pcost(&sys, peer, cid, current);
                prop_assert!(folded.is_some(), "{:?} is live, so it is covered", peer);
                prop_assert_eq!(
                    folded.map(f64::to_bits), raw.map(f64::to_bits),
                    "pcost({:?},{:?}) folded {:?} vs latest {:?}", peer, cid, folded, raw
                );
                let folded_c = stats.estimated_contribution(peer, cid);
                let raw_c = latest.estimated_contribution(peer, cid);
                prop_assert_eq!(
                    folded_c.to_bits(), raw_c.to_bits(),
                    "contribution({:?},{:?}) folded {} vs latest {}", peer, cid, folded_c, raw_c
                );
            }
            for allow_empty in [true, false] {
                let folded = stats.selfish_choice(&sys, peer, current, allow_empty);
                let raw = latest.selfish_choice(&sys, peer, current, allow_empty);
                prop_assert_eq!(
                    folded.map(|(c, cost)| (c, cost.to_bits())),
                    raw.map(|(c, cost)| (c, cost.to_bits())),
                    "selfish choice of {:?} allow_empty={}", peer, allow_empty
                );
            }
        }
    }

    /// The observed selfish choice is the oracle best response: same
    /// candidate set (non-empty clusters plus the first empty when
    /// admissible), same `COST_EPS` tie-break, so the chosen cluster is
    /// *equal*, not merely close.
    #[test]
    fn observed_selfish_choice_is_the_oracle_best_response(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(16),
    ) {
        let mut sys = fixture(&seed_docs, &seed_queries);
        let mut net = SimNetwork::new();
        apply_assigned_only(&mut sys, &mut net, ops);
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&simulate_period(&sys, &mut net));

        let peers: Vec<_> = sys.overlay().peers().collect();
        for peer in peers {
            let current = sys.overlay().cluster_of(peer);
            for allow_empty in [true, false] {
                let (choice, est) = stats
                    .selfish_choice(&sys, peer, current, allow_empty)
                    .expect("an assigned peer always has a choice");
                let br = best_response(&sys, peer, allow_empty);
                prop_assert_eq!(
                    choice, br.cluster,
                    "{:?} allow_empty={}: observed {:?} vs oracle {:?}",
                    peer, allow_empty, choice, br.cluster
                );
                let oracle_cost = pcost(&sys, peer, br.cluster);
                prop_assert!(
                    (est - oracle_cost).abs() < 1e-9,
                    "{:?}: estimated {} vs oracle {}", peer, est, oracle_cost
                );
            }
        }
    }

    /// The strategy adapter end-to-end: observed selfish proposals name
    /// the oracle destination (or both abstain) on the same view.
    #[test]
    fn observed_strategy_proposals_match_the_oracle(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(16),
    ) {
        let mut sys = fixture(&seed_docs, &seed_queries);
        let mut net = SimNetwork::new();
        apply_assigned_only(&mut sys, &mut net, ops);
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&simulate_period(&sys, &mut net));

        let observed = ObservedStrategy::selfish(&stats);
        let oracle = SelfishStrategy;
        let view = sys.view();
        for peer in view.overlay().peers() {
            for allow_empty in [true, false] {
                let want = oracle.propose(&view, peer, allow_empty);
                let got = observed.propose(&view, peer, allow_empty);
                prop_assert_eq!(
                    want.map(|p| p.to), got.map(|p| p.to),
                    "{:?} allow_empty={}: oracle {:?} vs observed {:?}",
                    peer, allow_empty, want, got
                );
                if let (Some(w), Some(g)) = (want, got) {
                    prop_assert!(
                        (w.gain - g.gain).abs() < 1e-9,
                        "{:?}: gains {} vs {}", peer, w.gain, g.gain
                    );
                }
            }
        }
    }
}
