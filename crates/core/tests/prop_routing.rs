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
//!
//! Both period walks read per-cluster answers from the recall index and
//! credit served results peer by peer. [`reference_period`] recomputes
//! a period the way §3.1 states it, walking cluster members one
//! requester at a time, and the observation walk must equal it bit for
//! bit, records and served rows alike: under every routing mode,
//! sequential and sharded, and at 10 000 peers after each of two churn
//! batches. There the two periods are also absorbed at decay 0.5, and
//! every slot's estimates must equal the nested fold of
//! `fold_reference`.

mod fold_reference;

use std::collections::{BTreeMap, HashMap};

use fold_reference::{check_estimates, records, Record, ReferenceStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;
use recluster_core::shard::{set_shard_min_override, should_shard};
use recluster_core::{
    simulate_period, simulate_period_routed, GameConfig, ObservedStats, PeriodObservations,
    RoutingReport, System,
};
use recluster_overlay::{
    route_to_clusters, AnnotatedResult, ChurnEvent, ClusterSummaries, ContentStore, MsgKind,
    Overlay, RoutePlan, RoutingMode, SimNetwork, SummaryMode, Theta,
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

/// One observation period as [`reference_period`] computes it.
struct Reference {
    /// Per slot: one record per distinct query of a live requester.
    records: Vec<Vec<Record>>,
    /// Per slot: demand-weighted results served, by requesting cluster.
    served: Vec<BTreeMap<ClusterId, f64>>,
    served_total: Vec<f64>,
    report: RoutingReport,
    net: SimNetwork,
}

/// One query's answer: the annotated results of its routed clusters,
/// the ledger that evaluation charged, and the result total flooding
/// would have returned.
type Answer = (Vec<AnnotatedResult>, SimNetwork, u64);

/// The observation period as §3.1 states it, one requester at a time:
/// every live requester, in ascending order, issues every query of its
/// workload. The query goes to the flood's non-empty clusters, or to
/// the clusters a [`RoutePlan`] over the system's summaries picks, and
/// is answered by walking those clusters' members
/// ([`route_to_clusters`]) on a scratch ledger, which is merged once
/// per occurrence. Every answering peer other than the requester
/// credits the requester's cluster with `occurrences × results`.
///
/// With `per_query`, each distinct query is evaluated once and its
/// answer reused for all its requesters. The answer depends only on
/// the overlay, the store and the query, which the period holds fixed,
/// so this saves time at scale and changes nothing else.
///
/// The credits fold requester by requester, which is not the walk's
/// order. Bitwise comparison is still sound: every credit and every
/// partial sum is an integer below 2⁵³, so each f64 addition is exact
/// in any order.
fn reference_period(sys: &System, mode: RoutingMode, per_query: bool) -> Reference {
    let overlay = sys.overlay();
    let store = sys.store();
    let non_empty: Vec<ClusterId> = overlay
        .cluster_ids()
        .filter(|&c| !overlay.cluster(c).is_empty())
        .collect();
    let plan = match mode {
        RoutingMode::Flood => None,
        RoutingMode::Routed(precision) => Some(RoutePlan::build(sys.summaries(), precision)),
    };
    let answer = |query: &Query| -> Answer {
        let targets = plan
            .as_ref()
            .map_or_else(|| non_empty.clone(), |plan| plan.route(query));
        let mut ledger = SimNetwork::new();
        let results = route_to_clusters(overlay, store, query, &targets, &mut ledger);
        let flooded = route_to_clusters(overlay, store, query, &non_empty, &mut SimNetwork::new());
        (results, ledger, flooded.iter().map(|r| r.count).sum())
    };
    let mut memo: HashMap<Query, Answer> = HashMap::new();
    let n_slots = overlay.n_slots();
    let mut out = Reference {
        records: vec![Vec::new(); n_slots],
        served: vec![BTreeMap::new(); n_slots],
        served_total: vec![0.0; n_slots],
        report: RoutingReport {
            mode,
            query_events: 0,
            forwards: 0,
            flood_forwards: 0,
            returned_results: 0,
            missed_results: 0,
        },
        net: SimNetwork::new(),
    };
    for requester in overlay.peers() {
        let home = overlay.cluster_of(requester).expect("peers() are live");
        let workload = &sys.workloads()[requester.index()];
        for (query, count) in workload.iter() {
            let fresh;
            let (results, ledger, flood_total) = if per_query {
                &*memo.entry(query.clone()).or_insert_with(|| answer(query))
            } else {
                fresh = answer(query);
                &fresh
            };
            out.net.merge_scaled(ledger, count);
            let total: u64 = results.iter().map(|r| r.count).sum();
            let report = &mut out.report;
            report.query_events += count;
            report.forwards += ledger.messages(MsgKind::QueryForward) * count;
            report.flood_forwards += non_empty.len() as u64 * count;
            report.returned_results += total * count;
            report.missed_results += (flood_total - total) * count;
            let mut per_cluster: BTreeMap<ClusterId, u64> = BTreeMap::new();
            for r in results {
                *per_cluster.entry(r.cluster).or_insert(0) += r.count;
                if r.peer != requester {
                    let credit = (count * r.count) as f64;
                    *out.served[r.peer.index()].entry(home).or_insert(0.0) += credit;
                    out.served_total[r.peer.index()] += credit;
                }
            }
            out.records[requester.index()].push(Record {
                query: query.clone(),
                weight: workload.frequency(query),
                per_cluster: per_cluster.into_iter().collect(),
                total,
                own: store.result_count(query, requester),
            });
        }
    }
    out
}

/// Runs the observation walk on a fresh ledger, holds it to `reference`
/// bit for bit — the report, the per-kind ledger, and every slot's
/// records, served row and served total — and returns its observations.
fn check_walk(
    sys: &System,
    mode: RoutingMode,
    reference: &Reference,
) -> Result<PeriodObservations, TestCaseError> {
    let mut net = SimNetwork::new();
    let (obs, report) = simulate_period_routed(sys, &mut net, mode);
    prop_assert_eq!(report, reference.report, "report, {:?}", mode);
    prop_assert_eq!(&net, &reference.net, "ledger, {:?}", mode);
    for (slot, records_of) in reference.records.iter().enumerate() {
        let peer = PeerId::from_index(slot);
        prop_assert_eq!(
            &records(&obs, peer),
            records_of,
            "records of {:?}, {:?}",
            peer,
            mode
        );
        let served: Vec<(ClusterId, u64)> = obs
            .served(peer)
            .iter()
            .map(|&(c, v)| (c, v.to_bits()))
            .collect();
        let want: Vec<(ClusterId, u64)> = reference.served[slot]
            .iter()
            .map(|(&c, &v)| (c, v.to_bits()))
            .collect();
        prop_assert_eq!(served, want, "served row of {:?}, {:?}", peer, mode);
        prop_assert_eq!(
            obs.served_total(peer).to_bits(),
            reference.served_total[slot].to_bits(),
            "served total of {:?}, {:?}",
            peer,
            mode
        );
    }
    Ok(obs)
}

/// A 2-thread pool: enough for either sharded pass to split its walk.
fn two_threads() -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("shim pool build never fails")
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
            for (l, f) in lossy.of(peer).zip(flood.of(peer)) {
                prop_assert_eq!(l.query, f.query);
                prop_assert!(l.total <= f.total);
                for &(cid, n) in l.per_cluster {
                    prop_assert!(n <= f.cluster_count(cid), "lossy invented results");
                }
            }
        }
    }

    /// The observation walk is the §3.1 member walk, bit for bit, under
    /// flooding, exact and lossy summaries: sequential, and with both
    /// sharded passes (by qid and by slot) forced on in a 2-thread pool.
    #[test]
    fn observation_walk_equals_the_member_walk_reference(
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
        let pool = two_threads();
        for mode in [
            RoutingMode::Flood,
            RoutingMode::Routed(SummaryMode::Exact),
            RoutingMode::Routed(SummaryMode::TopK(k)),
        ] {
            let reference = reference_period(&sys, mode, false);
            set_shard_min_override(Some(usize::MAX));
            let sequential = check_walk(&sys, mode, &reference);
            set_shard_min_override(Some(1));
            let sharded = pool.install(|| check_walk(&sys, mode, &reference));
            set_shard_min_override(None);
            sequential?;
            sharded?;
        }
    }
}

/// Interest categories of the at-scale testbed (one cluster each).
const SCALE_CATEGORIES: usize = 10;
/// Words per category vocabulary.
const SCALE_VOCAB: usize = 40;

/// A word of `category`, skewed towards low ranks (the lower of two
/// uniform draws), so a category's first words are its popular ones.
fn scale_word(rng: &mut StdRng, category: usize) -> Sym {
    let rank = rng
        .gen_range(0..SCALE_VOCAB)
        .min(rng.gen_range(0..SCALE_VOCAB));
    Sym((category * SCALE_VOCAB + rank) as u32)
}

/// 2–3 two-word documents on `category`, a fifth of them borrowing a
/// word from the next category.
fn scale_docs(rng: &mut StdRng, category: usize) -> Vec<Document> {
    (0..rng.gen_range(2..=3))
        .map(|_| {
            let other = if rng.gen_bool(0.2) {
                (category + 1) % SCALE_CATEGORIES
            } else {
                category
            };
            Document::new(vec![scale_word(rng, category), scale_word(rng, other)])
        })
        .collect()
}

/// 1–3 keyword queries (about 2), half on the focus category two
/// along, so answers and served credit cross clusters.
fn scale_workload(rng: &mut StdRng, category: usize) -> Workload {
    let mut w = Workload::new();
    for _ in 0..rng.gen_range(1..=3) {
        let topic = if rng.gen_bool(0.5) {
            (category + 2) % SCALE_CATEGORIES
        } else {
            category
        };
        w.add(Query::keyword(scale_word(rng, topic)), rng.gen_range(1..=2));
    }
    w
}

/// A synthetic testbed shaped like the simulator's 10 000-peer `large`
/// configuration: `n_peers` peers in 10 category clusters, each with
/// 2–3 documents and about 2 keyword queries over a 40-word vocabulary
/// per category.
fn scale_system(n_peers: usize, rng: &mut StdRng) -> System {
    let mut overlay = Overlay::unassigned(n_peers);
    let mut store = ContentStore::new(n_peers);
    let mut workloads = Vec::with_capacity(n_peers);
    for i in 0..n_peers {
        let category = i % SCALE_CATEGORIES;
        let peer = PeerId::from_index(i);
        overlay.assign(peer, ClusterId::from_index(category));
        for doc in scale_docs(rng, category) {
            store.add(peer, doc);
        }
        workloads.push(scale_workload(rng, category));
    }
    System::new(overlay, store, workloads, GameConfig::default())
}

/// One churn batch, as the simulator's `maintenance` module applies it:
/// leavers drop their workload, joiners arrive with content and a
/// workload of their own.
fn churn_batch(sys: &mut System, rng: &mut StdRng) {
    let mut net = SimNetwork::new();
    for _ in 0..200 {
        let peer = PeerId::from_index(rng.gen_range(0..sys.overlay().n_slots()));
        if sys
            .apply_churn_event(&mut net, ChurnEvent::Leave { peer })
            .is_some()
        {
            sys.set_workload(peer, Workload::new());
        }
        let category = rng.gen_range(0..SCALE_CATEGORIES);
        let docs = scale_docs(rng, category);
        let cluster = ClusterId::from_index(category);
        let joined = sys
            .apply_churn_event(&mut net, ChurnEvent::Join { cluster, docs })
            .expect("a join into a live cluster applies");
        sys.set_workload(joined.peer(), scale_workload(rng, category));
    }
}

/// Workload drift: `n` random draws of a slot, each live one drawing a
/// fresh workload on its cluster's category, so surviving peers' records
/// change between periods.
fn redraw_workloads(sys: &mut System, rng: &mut StdRng, n: usize) {
    for _ in 0..n {
        let peer = PeerId::from_index(rng.gen_range(0..sys.overlay().n_slots()));
        if let Some(home) = sys.overlay().cluster_of(peer) {
            sys.set_workload(peer, scale_workload(rng, home.index()));
        }
    }
}

/// The reference holds at scale on the production path. At 10 000 peers
/// the default shard threshold engages both sharded passes with no
/// override; each churn batch leaves departed slots and joiners with
/// fresh content behind, and some surviving peers then change their
/// workload. After each batch the walk is held to the member walk, and
/// its exact-summary period is absorbed at decay 0.5 into both
/// estimators, whose estimates for every slot (live or departed) must
/// agree over every non-empty cluster plus the first empty one.
/// Release only (CI runs it there): the reference walks every
/// requester's results.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 10 000-peer oracle")]
fn observation_walk_equals_the_reference_at_scale() {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let mut sys = scale_system(10_000, &mut rng);
    let mut stats = ObservedStats::new(0.5);
    let mut nested = ReferenceStats::new(0.5);
    let pool = two_threads();
    for _ in 0..2 {
        churn_batch(&mut sys, &mut rng);
        redraw_workloads(&mut sys, &mut rng, 200);
        let period = pool.install(|| {
            assert!(
                should_shard(sys.overlay().n_slots()),
                "default threshold must shard"
            );
            let lossy = RoutingMode::Routed(SummaryMode::TopK(20));
            check_walk(&sys, lossy, &reference_period(&sys, lossy, true)).unwrap();
            let exact = RoutingMode::Routed(SummaryMode::Exact);
            check_walk(&sys, exact, &reference_period(&sys, exact, true)).unwrap()
        });
        stats.absorb(&period);
        nested.absorb(&period, sys.overlay());
        let mut clusters = sys.overlay().non_empty_ids().to_vec();
        clusters.extend(sys.overlay().first_empty_cluster());
        let slots = (0..sys.overlay().n_slots()).map(PeerId::from_index);
        check_estimates(&stats, &nested, &sys, slots, &clusters).unwrap();
    }
}
