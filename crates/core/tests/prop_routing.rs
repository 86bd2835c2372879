//! Equivalence suite for cluster-directed routing: after *any* random
//! sequence of moves, churn joins/leaves, and content updates,
//!
//! 1. the delta-maintained [`ClusterSummaries`] must equal a
//!    from-scratch `build()` — every term count and document count
//!    identical, and
//! 2. routed `simulate_period` with **exact** summaries must be
//!    **bit-identical** to flooding: the same observations (per-cluster
//!    recall annotations, totals, served/contribution credits) — equal
//!    inputs, so every estimate derived from them agrees to the last
//!    float bit — and the same `ResultReturn` traffic, while never
//!    forwarding to more clusters than flood does.
//!
//! Lossy summaries are allowed to miss results, but every missed result
//! must be accounted: `returned + missed == flood-returned`.

use proptest::prelude::*;
use recluster_core::{simulate_period, simulate_period_routed, GameConfig, System};
use recluster_overlay::{
    ChurnEvent, ClusterSummaries, ContentStore, MsgKind, Overlay, RoutingMode, SimNetwork,
    SummaryMode, Theta,
};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};

const N_PEERS: usize = 8;
const N_SYMS: u32 = 6;

/// A membership/content operation; values are folded into the valid
/// range by the interpreter so any random vector is a valid script.
#[derive(Debug, Clone)]
enum Op {
    Move { peer: u32, to: u32 },
    ChurnLeave { peer: u32 },
    ChurnJoin { to: u32, doc_syms: Vec<u32> },
    ContentUpdate { peer: u32, doc_syms: Vec<u32> },
    WorkloadUpdate { peer: u32, q_syms: Vec<u32> },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let syms = || proptest::collection::vec(0u32..N_SYMS, 0..5);
    proptest::collection::vec(
        prop_oneof![
            (0u32..N_PEERS as u32, 0u32..N_PEERS as u32)
                .prop_map(|(peer, to)| Op::Move { peer, to }),
            (0u32..N_PEERS as u32).prop_map(|peer| Op::ChurnLeave { peer }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(to, doc_syms)| Op::ChurnJoin { to, doc_syms }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(peer, doc_syms)| Op::ContentUpdate { peer, doc_syms }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(peer, q_syms)| Op::WorkloadUpdate { peer, q_syms }),
        ],
        0..24,
    )
}

/// Deterministic fixture: peer `i` holds documents over adjacent syms
/// and queries a couple of syms offset from its own, so every peer both
/// provides and consumes and results live in several clusters.
fn fixture(seed_docs: &[Vec<u32>], seed_queries: &[Vec<u32>]) -> System {
    let mut overlay = Overlay::singletons(N_PEERS);
    for i in 0..N_PEERS {
        overlay.move_peer(
            PeerId::from_index(i),
            ClusterId::from_index(i % (N_PEERS / 2)),
        );
    }
    let mut store = ContentStore::new(N_PEERS);
    for (i, syms) in seed_docs.iter().enumerate() {
        for &s in syms {
            store.add(
                PeerId::from_index(i),
                Document::new(vec![Sym(s % N_SYMS), Sym((s + 1) % N_SYMS)]),
            );
        }
    }
    let mut workloads = Vec::with_capacity(N_PEERS);
    for syms in seed_queries {
        let mut w = Workload::new();
        for (k, &s) in syms.iter().enumerate() {
            w.add(Query::keyword(Sym(s % N_SYMS)), 1 + (k as u64 % 3));
            if k % 2 == 0 {
                // Conjunctive queries exercise the summary's only
                // false-positive source (attrs that never co-occur).
                w.add(Query::new(vec![Sym(s % N_SYMS), Sym((s + 2) % N_SYMS)]), 1);
            }
        }
        workloads.push(w);
    }
    workloads.resize(N_PEERS, Workload::new());
    System::new(
        overlay,
        store,
        workloads,
        GameConfig {
            alpha: 1.0,
            theta: Theta::Linear,
        },
    )
}

/// Interprets an op against the system through the public hooks.
fn apply(sys: &mut System, net: &mut SimNetwork, op: Op) {
    match op {
        Op::Move { peer, to } => {
            let peer = PeerId(peer);
            let to = ClusterId(to % sys.overlay().cmax() as u32);
            if sys.overlay().cluster_of(peer).is_some() {
                sys.move_peer(peer, to);
            }
        }
        Op::ChurnLeave { peer } => {
            let _ = sys.apply_churn_event(net, ChurnEvent::Leave { peer: PeerId(peer) });
        }
        Op::ChurnJoin { to, doc_syms } => {
            let cluster = ClusterId(to % sys.overlay().cmax() as u32);
            let docs = doc_syms
                .into_iter()
                .map(|s| Document::new(vec![Sym(s % N_SYMS), Sym((s + 1) % N_SYMS)]))
                .collect();
            let _ = sys.apply_churn_event(net, ChurnEvent::Join { cluster, docs });
        }
        Op::ContentUpdate { peer, doc_syms } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            let docs = doc_syms
                .into_iter()
                .map(|s| Document::new(vec![Sym(s % N_SYMS), Sym((s + 2) % N_SYMS)]))
                .collect();
            sys.set_content(peer, docs);
        }
        Op::WorkloadUpdate { peer, q_syms } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            let mut w = Workload::new();
            for (k, &s) in q_syms.iter().enumerate() {
                w.add(Query::keyword(Sym(s % N_SYMS)), 1 + (k as u64 % 3));
                if k % 2 == 0 {
                    w.add(Query::new(vec![Sym(s % N_SYMS), Sym((s + 2) % N_SYMS)]), 1);
                }
            }
            sys.set_workload(peer, w);
        }
    }
}

/// Asserts the delta-maintained summaries equal the rebuild oracle.
fn assert_summaries_equal_rebuild(sys: &System) -> Result<(), TestCaseError> {
    let oracle = ClusterSummaries::build(sys.overlay(), sys.store());
    prop_assert_eq!(sys.summaries(), &oracle, "summaries drifted from rebuild");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The summary deltas match the oracle after every single op.
    #[test]
    fn summary_deltas_equal_rebuild_under_random_ops(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        queries in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        ops in arb_ops(),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        assert_summaries_equal_rebuild(&sys)?;
        for op in ops {
            apply(&mut sys, &mut net, op);
            sys.overlay().check_invariants().map_err(TestCaseError::fail)?;
            assert_summaries_equal_rebuild(&sys)?;
        }
    }

    /// Routed evaluation with exact summaries is bit-identical to flood:
    /// observations (and with them every estimate derived from them)
    /// and `ResultReturn` traffic — with no more forwards than flood.
    #[test]
    fn routed_exact_is_bit_identical_to_flood(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        queries in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        ops in arb_ops(),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut churn_net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut churn_net, op);
        }

        let mut flood_net = SimNetwork::new();
        let flood = simulate_period(&sys, &mut flood_net);
        let mut routed_net = SimNetwork::new();
        let (routed, report) = simulate_period_routed(
            &sys,
            &mut routed_net,
            RoutingMode::Routed(SummaryMode::Exact),
        );

        prop_assert_eq!(&flood, &routed, "observations diverged");
        prop_assert_eq!(report.missed_results, 0, "exact summaries missed results");
        prop_assert_eq!(
            flood_net.messages(MsgKind::ResultReturn),
            routed_net.messages(MsgKind::ResultReturn)
        );
        prop_assert_eq!(
            flood_net.bytes(MsgKind::ResultReturn),
            routed_net.bytes(MsgKind::ResultReturn)
        );
        prop_assert!(
            routed_net.messages(MsgKind::QueryForward)
                <= flood_net.messages(MsgKind::QueryForward)
        );
        prop_assert!(report.forwards <= report.flood_forwards);

        // Two routed runs are themselves byte-identical (determinism).
        let mut again_net = SimNetwork::new();
        let (again, again_report) = simulate_period_routed(
            &sys,
            &mut again_net,
            RoutingMode::Routed(SummaryMode::Exact),
        );
        prop_assert_eq!(&routed, &again);
        prop_assert_eq!(report, again_report);
        prop_assert_eq!(routed_net.total_messages(), again_net.total_messages());
        prop_assert_eq!(routed_net.total_bytes(), again_net.total_bytes());
    }

    /// Lossy summaries may miss results, but never invent them, and
    /// every miss is accounted for.
    #[test]
    fn lossy_routing_accounts_for_every_missed_result(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        queries in proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS),
        ops in arb_ops(),
        k in 1usize..4,
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut churn_net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut churn_net, op);
        }

        let mut flood_net = SimNetwork::new();
        let (flood, flood_report) =
            simulate_period_routed(&sys, &mut flood_net, RoutingMode::Flood);
        let mut lossy_net = SimNetwork::new();
        let (lossy, report) = simulate_period_routed(
            &sys,
            &mut lossy_net,
            RoutingMode::Routed(SummaryMode::TopK(k)),
        );

        prop_assert_eq!(
            report.returned_results + report.missed_results,
            flood_report.returned_results,
            "unaccounted results"
        );
        let rate = report.false_negative_rate();
        prop_assert!((0.0..=1.0).contains(&rate));

        // Per-observation: lossy results are a subset of flood's.
        for peer in sys.overlay().peers() {
            for (l, f) in lossy.of(peer).iter().zip(flood.of(peer)) {
                prop_assert_eq!(&l.query, &f.query);
                prop_assert!(l.total <= f.total);
                for &(cid, n) in &l.per_cluster {
                    prop_assert!(n <= f.cluster_count(cid), "lossy invented results");
                }
            }
        }
    }
}
