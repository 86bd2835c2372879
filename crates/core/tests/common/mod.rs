//! Shared mutation-script interpreter for the core equivalence suites.
//!
//! `prop_incremental.rs` (delta-maintained index/cache vs. rebuild
//! oracles) and `prop_view_memo.rs` (view reads vs. `System` reads, and
//! the proposal-memo validity gate) exercise the *same* op universe —
//! every mutation class [`System`] supports, interleaved arbitrarily —
//! so the universe is defined once here: adding a new mutator to
//! `System` means extending one interpreter and every suite faces it.
//! (`prop_routing.rs` keeps its own, deliberately different universe:
//! fewer peers, no plain leave/join, routing-shaped workloads.)

use proptest::prelude::*;
use recluster_core::{GameConfig, System};
use recluster_overlay::{ChurnEvent, ContentStore, Overlay, SimNetwork, Theta};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};

pub const N_PEERS: usize = 10;
pub const N_SYMS: u32 = 6;

/// A membership/content/workload operation; values are folded into the
/// valid range by the interpreter so any random vector is a valid
/// script.
#[derive(Debug, Clone)]
pub enum Op {
    Move { peer: u32, to: u32 },
    Leave { peer: u32 },
    Join { peer: u32, to: u32 },
    ChurnLeave { peer: u32 },
    ChurnJoin { to: u32, doc_syms: Vec<u32> },
    SetContent { peer: u32, doc_syms: Vec<u32> },
    SetWorkload { peer: u32, q_syms: Vec<u32> },
    SetLongWorkload { peer: u32, skip: u32 },
}

/// Distinct queries in a long workload: more than the 16 a best-response
/// scan gathers without a heap allocation.
pub const LONG_WORKLOAD_MIN: usize = 17;

/// The queries long workloads draw from, in a fixed order: every keyword
/// and every pair of symbols over the documents' alphabet.
fn symbol_queries() -> Vec<Query> {
    let mut pool: Vec<Query> = (0..N_SYMS).map(|s| Query::keyword(Sym(s))).collect();
    for a in 0..N_SYMS {
        for b in a + 1..N_SYMS {
            pool.push(Query::new(vec![Sym(a), Sym(b)]));
        }
    }
    pool
}

/// A random script of up to `max_ops` operations over every mutation
/// class.
pub fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    let syms = || proptest::collection::vec(0u32..N_SYMS, 0..4);
    proptest::collection::vec(
        prop_oneof![
            (0u32..N_PEERS as u32, 0u32..N_PEERS as u32)
                .prop_map(|(peer, to)| Op::Move { peer, to }),
            (0u32..N_PEERS as u32).prop_map(|peer| Op::Leave { peer }),
            (0u32..N_PEERS as u32, 0u32..N_PEERS as u32)
                .prop_map(|(peer, to)| Op::Join { peer, to }),
            (0u32..N_PEERS as u32).prop_map(|peer| Op::ChurnLeave { peer }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(to, doc_syms)| Op::ChurnJoin { to, doc_syms }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(peer, doc_syms)| Op::SetContent { peer, doc_syms }),
            (0u32..N_PEERS as u32, syms())
                .prop_map(|(peer, q_syms)| Op::SetWorkload { peer, q_syms }),
            (0u32..N_PEERS as u32, 0u32..32)
                .prop_map(|(peer, skip)| Op::SetLongWorkload { peer, skip }),
        ],
        0..max_ops,
    )
}

/// The per-test generator of seed content/workload shapes.
pub fn arb_seed_syms() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..N_SYMS, 0..4), N_PEERS)
}

/// Deterministic content/workload fixture: peer `i` holds documents
/// over syms `i % N_SYMS` and `(i + 1) % N_SYMS`, and queries two syms
/// offset from its own — every peer both provides and consumes.
pub fn fixture(seed_docs: &[Vec<u32>], seed_queries: &[Vec<u32>]) -> System {
    let mut overlay = Overlay::singletons(N_PEERS);
    // Start from a non-trivial clustering.
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
pub fn apply(sys: &mut System, net: &mut SimNetwork, op: Op) {
    match op {
        Op::Move { peer, to } => {
            let peer = PeerId(peer);
            let to = ClusterId(to % sys.overlay().cmax() as u32);
            if sys.overlay().cluster_of(peer).is_some() {
                sys.move_peer(peer, to);
            }
        }
        Op::Leave { peer } => {
            let _ = sys.leave_peer(PeerId(peer));
        }
        Op::Join { peer, to } => {
            let peer = PeerId(peer);
            let to = ClusterId(to % sys.overlay().cmax() as u32);
            if sys.overlay().cluster_of(peer).is_none() {
                sys.join_peer(peer, to);
            }
        }
        Op::ChurnLeave { peer } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            if sys
                .apply_churn_event(net, ChurnEvent::Leave { peer })
                .is_some()
            {
                // Churn drivers clear the leaver's workload as well.
                sys.set_workload(peer, Workload::new());
            }
        }
        Op::ChurnJoin { to, doc_syms } => {
            let cluster = ClusterId(to % sys.overlay().cmax() as u32);
            let docs: Vec<Document> = doc_syms
                .iter()
                .map(|&s| Document::new(vec![Sym(s % N_SYMS), Sym((s + 1) % N_SYMS)]))
                .collect();
            if let Some(delta) = sys.apply_churn_event(net, ChurnEvent::Join { cluster, docs }) {
                // Newcomers get a workload querying their own syms — some
                // of these queries may be new to the index.
                let mut w = Workload::new();
                for &s in &doc_syms {
                    w.add(Query::keyword(Sym((s + 2) % N_SYMS)), 1 + u64::from(s % 2));
                }
                sys.set_workload(delta.peer(), w);
            }
        }
        Op::SetContent { peer, doc_syms } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            let docs = doc_syms
                .into_iter()
                .map(|s| Document::new(vec![Sym(s % N_SYMS), Sym((s + 2) % N_SYMS)]))
                .collect();
            sys.set_content(peer, docs);
        }
        Op::SetWorkload { peer, q_syms } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            let mut w = Workload::new();
            for (k, &s) in q_syms.iter().enumerate() {
                w.add(Query::keyword(Sym(s % N_SYMS)), 1 + (k as u64 % 2));
                if k % 2 == 1 {
                    // Conjunctions can be genuinely new queries.
                    w.add(Query::new(vec![Sym(s % N_SYMS), Sym((s + 1) % N_SYMS)]), 1);
                }
            }
            sys.set_workload(peer, w);
        }
        Op::SetLongWorkload { peer, skip } => {
            let peer = PeerId(peer % sys.overlay().n_slots() as u32);
            let mut w = Workload::new();
            // One conjunction per symbol that no document matches (none
            // carries `N_SYMS`), so its result total is 0; in workload
            // order each sits among the answerable queries of its symbol.
            for a in 0..N_SYMS {
                w.add(Query::new(vec![Sym(a), Sym(N_SYMS)]), 1);
            }
            let pool = symbol_queries();
            let rest = LONG_WORKLOAD_MIN - N_SYMS as usize + skip as usize % 8;
            for k in 0..rest {
                let q = &pool[(skip as usize + k) % pool.len()];
                w.add(q.clone(), 1 + (k as u64 % 3));
            }
            sys.set_workload(peer, w);
        }
    }
}
