//! Equivalence suite for the read/write split and the proposal memo:
//! after *any* random interleaving of membership changes, churn events,
//! content updates and workload updates,
//!
//! 1. every cost read through a [`SystemView`] — `pcost`, `pcost_current`,
//!    `best_response`, `scost`, `wcost` — is **bit-identical** to the
//!    same read through `&System` (the `RefCell`-backed lazy route), and
//!    `best_response_with_chain`, which costs every candidate from one
//!    gather of the peer's answerable queries, equals a scan over those
//!    `pcost` reads on both routes: same cluster, gain bits and take
//!    chain, with and without empty targets, for long workloads and with
//!    unanswerable queries, and
//! 2. a [`ProposalMemo`] lookup that reports *valid* re-emits a proposal
//!    bit-identical to a fresh `best_response` — the soundness of the
//!    journal gate (stay certificates and take chains) under every
//!    mutation class.
//!
//! Together these are the contract that lets the protocol engine flush
//! the cache once per round, shard phase 1 across threads, and skip
//! recomputation for epoch-clean peers without ever changing a byte of
//! protocol output.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture, Op, LONG_WORKLOAD_MIN};
use proptest::prelude::*;
use recluster_core::equilibrium::COST_EPS;
use recluster_core::{
    best_response, best_response_with_chain, pcost, pcost_current, scost, wcost, MemoGate,
    Proposal, ProposalMemo, RelocationStrategy, SelfishStrategy, System, SystemRead,
};
use recluster_overlay::SimNetwork;
use recluster_types::{ClusterId, PeerId};

/// Bit-comparable form of a proposal.
fn bits(p: Option<Proposal>) -> Option<(u32, u64)> {
    p.map(|p| (p.to.0, p.gain.to_bits()))
}

/// One expected scan result: cluster, gain bits, take chain and the bits
/// of the lowest cost over the candidates other than the current cluster.
type Scan = (ClusterId, u64, Vec<ClusterId>, u64);

/// Every cost read through the view equals the `&System` route, bitwise,
/// and on both routes every peer's `best_response_with_chain` equals a
/// per-candidate scan over the `pcost`s read here.
fn assert_view_equals_system(sys: &mut System) -> Result<(), TestCaseError> {
    let peers: Vec<PeerId> = sys.overlay().peers().collect();
    let cids: Vec<ClusterId> = sys.overlay().cluster_ids().collect();

    // System-side reads first (they flush the RefCell-backed cache).
    let sys_scost = scost(&*sys).to_bits();
    let sys_wcost = wcost(&*sys).to_bits();
    let mut sys_pcosts = Vec::new();
    let mut sys_current = Vec::new();
    let mut sys_br = Vec::new();
    for &p in &peers {
        sys_current.push(pcost_current(&*sys, p).to_bits());
        let br = best_response(&*sys, p, true);
        sys_br.push((br.cluster, br.gain.to_bits()));
        for &c in &cids {
            sys_pcosts.push(pcost(&*sys, p, c).to_bits());
        }
    }
    let scans = reference_scans(sys, &peers, &sys_current, &sys_pcosts);
    assert_scans_equal(&*sys, &peers, &scans, "system")?;

    // The same reads through one snapshot.
    let view = sys.view();
    prop_assert!(view.cost_cache().is_fresh());
    prop_assert_eq!(sys_scost, scost(&view).to_bits(), "scost");
    prop_assert_eq!(sys_wcost, wcost(&view).to_bits(), "wcost");
    let mut k = 0;
    for (i, &p) in peers.iter().enumerate() {
        prop_assert_eq!(
            sys_current[i],
            pcost_current(&view, p).to_bits(),
            "pcost_current({})",
            p
        );
        let br = best_response(&view, p, true);
        prop_assert_eq!(sys_br[i].0, br.cluster, "best cluster of {}", p);
        prop_assert_eq!(sys_br[i].1, br.gain.to_bits(), "best gain of {}", p);
        for &c in &cids {
            prop_assert_eq!(
                sys_pcosts[k],
                pcost(&view, p, c).to_bits(),
                "pcost({p},{c})"
            );
            k += 1;
        }
    }
    assert_scans_equal(&view, &peers, &scans, "view")
}

/// The per-candidate scan over the `pcost`s read through `&System`
/// (`pcosts` is peer-major over every cluster id), for every peer with
/// `allow_empty` true, then false: `best_response`'s visit order
/// (non-empty ids ascending, plus the first empty slot at its id
/// position when admissible), its take rule and the minimum over the
/// candidates other than the current cluster (a stay's certificate).
fn reference_scans(sys: &System, peers: &[PeerId], current: &[u64], pcosts: &[u64]) -> Vec<Scan> {
    let overlay = sys.overlay();
    let n_clusters = overlay.cluster_ids().count();
    let mut scans = Vec::new();
    for allow_empty in [true, false] {
        let mut candidates = overlay.non_empty_ids().to_vec();
        if let Some(empty) = overlay.first_empty_cluster().filter(|_| allow_empty) {
            let at = candidates.partition_point(|&c| c < empty);
            candidates.insert(at, empty);
        }
        for (i, &p) in peers.iter().enumerate() {
            let at = overlay.cluster_of(p).expect("live peer");
            let current_cost = f64::from_bits(current[i]);
            let (mut best, mut best_cost, mut gain) = (at, current_cost, 0.0);
            let mut chain = Vec::new();
            let mut bound = f64::INFINITY;
            for &c in candidates.iter().filter(|&&c| c != at) {
                let cost = f64::from_bits(pcosts[i * n_clusters + c.index()]);
                bound = bound.min(cost);
                if cost < best_cost - COST_EPS {
                    (best, best_cost, gain) = (c, cost, current_cost - cost);
                    chain.push(c);
                }
            }
            scans.push((best, gain.to_bits(), chain, bound.to_bits()));
        }
    }
    scans
}

/// `best_response_with_chain` through `read` equals `expected`
/// ([`reference_scans`]' order) for every peer, and `best_response`,
/// which skips the bound, its result.
fn assert_scans_equal<S: SystemRead + ?Sized>(
    read: &S,
    peers: &[PeerId],
    expected: &[Scan],
    route: &str,
) -> Result<(), TestCaseError> {
    let runs = [true, false]
        .into_iter()
        .flat_map(|allow_empty| peers.iter().map(move |&p| (allow_empty, p)));
    let mut chain = Vec::new();
    for ((allow_empty, p), (cluster, gain, expected_chain, bound)) in runs.zip(expected) {
        let (got, got_bound) = best_response_with_chain(read, p, allow_empty, &mut chain);
        let at = format!("{route}: {p}, allow_empty={allow_empty}");
        prop_assert_eq!(got.cluster, *cluster, "scan cluster, {}", at);
        prop_assert_eq!(got.gain.to_bits(), *gain, "scan gain, {}", at);
        prop_assert_eq!(&chain, expected_chain, "scan chain, {}", at);
        prop_assert_eq!(got_bound.to_bits(), *bound, "scan bound, {}", at);
        let plain = best_response(read, p, allow_empty);
        prop_assert_eq!(plain.cluster, got.cluster, "plain scan cluster, {}", at);
        prop_assert_eq!(
            plain.gain.to_bits(),
            got.gain.to_bits(),
            "plain scan gain, {}",
            at
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Property 1: `SystemView` cost reads are bit-equal to `System`'s,
    /// and the scan equals the per-candidate scan, after every op of a
    /// random mutation script. Peer 0 first takes a long workload, part
    /// of it unanswerable, so every case covers both.
    #[test]
    fn view_reads_equal_system_reads_under_random_ops(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        skip in 0u32..32,
        ops in arb_ops(30),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        assert_view_equals_system(&mut sys)?;
        apply(&mut sys, &mut net, Op::SetLongWorkload { peer: 0, skip });
        prop_assert!(sys.index().workload_of(PeerId(0)).len() >= LONG_WORKLOAD_MIN);
        assert_view_equals_system(&mut sys)?;
        for op in ops {
            apply(&mut sys, &mut net, op);
            assert_view_equals_system(&mut sys)?;
        }
    }

    /// Property 2 (memo soundness): whenever the journal gate accepts a
    /// memoized proposal, that proposal is bit-identical to a fresh
    /// `best_response` — under arbitrary interleavings of every
    /// mutation class, driven with exactly the protocol engine's round
    /// discipline: one `begin_round` per op, every live peer looked up,
    /// every miss recomputed and stored, every hit renewed (a stay
    /// certificate writes back the bound its lookup lowered; the gate's
    /// induction carries everything else across rounds on its own).
    #[test]
    fn valid_memo_hits_equal_fresh_best_response(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        let mut memo = ProposalMemo::new(MemoGate::Journal);
        let mut hits = 0usize;
        let mut checks = 0usize;

        // Round 0: seed the memo with every live peer's proposal.
        {
            let view = sys.view();
            memo.begin_round(&view, true);
            let peers: Vec<PeerId> = view.overlay().peers().collect();
            for p in peers {
                let (fresh, chain) = SelfishStrategy.propose_traced(&view, p, true);
                memo.store(&view, p, true, fresh, chain);
            }
        }

        for op in ops {
            apply(&mut sys, &mut net, op);
            let view = sys.view();
            memo.begin_round(&view, true);
            let peers: Vec<PeerId> = view.overlay().peers().collect();
            for &p in &peers {
                let (fresh, chain) = SelfishStrategy.propose_traced(&view, p, true);
                match memo.lookup(&view, p) {
                    Some(hit) => {
                        hits += 1;
                        prop_assert_eq!(
                            bits(hit.proposal()),
                            bits(fresh),
                            "stale memo accepted for {} after gate said valid",
                            p
                        );
                        memo.renew(p, hit);
                    }
                    None => memo.store(&view, p, true, fresh, chain),
                }
                checks += 1;
            }
        }
        // Not a correctness requirement, but keep the test honest: the
        // sum over many cases must exercise both branches. (A single
        // case may legitimately see zero hits.)
        let _ = (hits, checks);
    }
}
