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
//!    that of the nested per-peer fold in `fold_reference`, bit for bit,
//!    and
//! 5. at decay 0 and 0.5, under flood, exact and lossy routing, on a
//!    fresh or stale snapshot, the observed and oracle altruistic and
//!    hybrid decisions are, bit for bit, a plain scan over every cluster
//!    id of the estimates they read.
//!
//! Properties 2 and 3 hold only while every result holder is assigned
//! to a cluster. A churn leave drops the leaver's documents, but a
//! content update aimed at a departed slot still leaves a *soft* state:
//! documents in the store that the oracle's recall totals count and no
//! cluster serves, so the observed picture is legitimately smaller. The
//! equivalence tests therefore strip such updates from the script.

mod common;
mod fold_reference;

use common::{apply, arb_ops, arb_seed_syms, fixture, Op};
use fold_reference::{check_estimates, ReferenceStats};
use proptest::prelude::*;
use recluster_core::equilibrium::COST_EPS;
use recluster_core::strategy::membership_increase;
use recluster_core::{
    best_response, pcost, simulate_period, simulate_period_routed, AltruisticStrategy,
    HybridStrategy, ObservedStats, ObservedStrategy, Proposal, RelocationStrategy, SelfishStrategy,
    System, SystemView,
};
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_types::{ClusterId, PeerId};

/// Applies `ops` while keeping the oracle premise intact: every
/// document holder stays assigned to a cluster (see module doc).
fn apply_assigned_only(sys: &mut System, net: &mut SimNetwork, ops: Vec<Op>) {
    for op in ops {
        if let Op::SetContent { peer, .. } = &op {
            let p = PeerId(peer % sys.overlay().n_slots() as u32);
            if sys.overlay().cluster_of(p).is_none() {
                continue;
            }
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

/// A relocation decision: the destination and the gain's bits.
type Decision = Option<(ClusterId, u64)>;

fn decision(proposal: Option<Proposal>) -> Decision {
    proposal.map(|p| (p.to, p.gain.to_bits()))
}

/// The hybrid mixing weights the decision property sweeps.
const LAMBDAS: [f64; 3] = [0.0, 0.5, 1.0];

/// The altruistic decision (§3.1.2) as a plain scan over every cluster
/// id: the first admissible cluster of maximal contribution, proposed
/// when it is not home and its `clgain` clears `COST_EPS`. A peer that
/// serves nobody stays.
fn altruistic_scan(
    view: &SystemView<'_>,
    peer: PeerId,
    allow_empty: bool,
    serves: bool,
    contribution: impl Fn(ClusterId) -> f64,
) -> Decision {
    let overlay = view.overlay();
    let current = overlay.cluster_of(peer)?;
    if !serves {
        return None;
    }
    let mut best: Option<(ClusterId, f64)> = None;
    for cid in overlay.cluster_ids() {
        if !allow_empty && overlay.cluster(cid).is_empty() {
            continue;
        }
        let c = contribution(cid);
        if best.is_none_or(|(_, b)| c > b + f64::EPSILON) {
            best = Some((cid, c));
        }
    }
    let (to, c) = best?;
    let gain = c - contribution(current) - membership_increase(view, peer, to);
    (to != current && gain > COST_EPS).then_some((to, gain.to_bits()))
}

/// The hybrid decision as a plain scan over every cluster id but home:
/// the first admissible cluster of maximal `λ·pgain + (1−λ)·clgain`,
/// proposed when that score clears `COST_EPS`. No cost estimate, no
/// decision.
fn hybrid_scan(
    view: &SystemView<'_>,
    peer: PeerId,
    allow_empty: bool,
    lambda: f64,
    contribution: impl Fn(ClusterId) -> f64,
    cost: impl Fn(ClusterId) -> Option<f64>,
) -> Decision {
    let overlay = view.overlay();
    let current = overlay.cluster_of(peer)?;
    let current_cost = cost(current)?;
    let mut best: Option<(ClusterId, f64)> = None;
    for cid in overlay.cluster_ids() {
        if cid == current || (!allow_empty && overlay.cluster(cid).is_empty()) {
            continue;
        }
        let pgain = current_cost - cost(cid)?;
        let clgain =
            contribution(cid) - contribution(current) - membership_increase(view, peer, cid);
        let score = lambda * pgain + (1.0 - lambda) * clgain;
        let threshold = match best {
            None => COST_EPS,
            Some((_, b)) => b + f64::EPSILON,
        };
        if score > threshold {
            best = Some((cid, score));
        }
    }
    best.map(|(to, score)| (to, score.to_bits()))
}

/// Holds every live peer's observed (from `stats`) and oracle altruistic
/// and hybrid decisions to the scans, under both empty-target policies.
fn check_decisions(sys: &mut System, stats: &ObservedStats) -> Result<(), TestCaseError> {
    let mut oracle = AltruisticStrategy::new();
    oracle.prepare(sys);
    let hybrids: Vec<HybridStrategy> = LAMBDAS
        .iter()
        .map(|&lambda| {
            let mut h = HybridStrategy::new(lambda);
            h.prepare(sys);
            h
        })
        .collect();
    let view = sys.view();
    for peer in view.overlay().peers() {
        let current = view.overlay().cluster_of(peer);
        let observed_serves = stats.served_total(peer) != 0.0;
        let observed_contribution = |cid| stats.estimated_contribution(peer, cid);
        let observed_cost = |cid| stats.estimated_pcost(&view, peer, cid, current);
        let oracle_contribution = |cid| oracle.contribution(peer, cid);
        let oracle_cost = |cid| Some(pcost(&view, peer, cid));
        let oracle_serves = view
            .overlay()
            .cluster_ids()
            .any(|cid| oracle_contribution(cid) != 0.0);
        for allow_empty in [true, false] {
            let at = format!("{peer:?} allow_empty={allow_empty}");
            let got = ObservedStrategy::altruistic(stats).propose(&view, peer, allow_empty);
            let want = altruistic_scan(
                &view,
                peer,
                allow_empty,
                observed_serves,
                observed_contribution,
            );
            prop_assert_eq!(decision(got), want, "observed altruistic, {}", at);
            let got = oracle.propose(&view, peer, allow_empty);
            let want =
                altruistic_scan(&view, peer, allow_empty, oracle_serves, oracle_contribution);
            prop_assert_eq!(decision(got), want, "oracle altruistic, {}", at);
            for (hybrid, lambda) in hybrids.iter().zip(LAMBDAS) {
                let got = ObservedStrategy::hybrid(stats, lambda).propose(&view, peer, allow_empty);
                let want = hybrid_scan(
                    &view,
                    peer,
                    allow_empty,
                    lambda,
                    observed_contribution,
                    observed_cost,
                );
                prop_assert_eq!(decision(got), want, "observed hybrid({}), {}", lambda, at);
                let got = hybrid.propose(&view, peer, allow_empty);
                let want = hybrid_scan(
                    &view,
                    peer,
                    allow_empty,
                    lambda,
                    oracle_contribution,
                    oracle_cost,
                );
                prop_assert_eq!(decision(got), want, "oracle hybrid({}), {}", lambda, at);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The altruistic and hybrid decisions are per-cluster scans of the
    /// estimates they read: observed ones after one or two absorbed
    /// periods (each after a script) and a trailing script that leaves
    /// the snapshot stale, under every routing mode at decay 0 and 0.5;
    /// oracle ones on the same system.
    #[test]
    fn altruistic_and_hybrid_decisions_are_per_cluster_scans(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        gaps in proptest::collection::vec(arb_ops(12), 1..3),
        after in arb_ops(6),
    ) {
        let base = fixture(&seed_docs, &seed_queries);
        for mode in [
            RoutingMode::Flood,
            RoutingMode::Routed(SummaryMode::Exact),
            RoutingMode::Routed(SummaryMode::TopK(1)),
        ] {
            for decay in [0.0, 0.5] {
                let mut sys = base.clone();
                let mut net = SimNetwork::new();
                let mut stats = ObservedStats::new(decay);
                for ops in &gaps {
                    for op in ops.iter().cloned() {
                        apply(&mut sys, &mut net, op);
                    }
                    stats.absorb(&simulate_period_routed(&sys, &mut net, mode).0);
                }
                for op in after.iter().cloned() {
                    apply(&mut sys, &mut net, op);
                }
                check_decisions(&mut sys, &stats)?;
            }
        }
    }

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
