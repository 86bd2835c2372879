//! Equivalence suite for peer-range sharding: after *any* random
//! interleaving of membership changes, churn events, content updates
//! and workload updates,
//!
//! 1. a sharded [`CostCache`](recluster_core::CostCache) flush (and the
//!    sharded wholesale rebuild) produces the same recall / wcost /
//!    away columns as the sequential flush, **bit for bit**, under
//!    pinned 1-, 2- and 8-thread pools, and
//! 2. the sharded per-period tracker walk produces the same
//!    observations, routing report and per-kind network ledger as the
//!    sequential walk, bit for bit, under the same pools — and the
//!    traffic-only walk, which skips the slot pass that builds the
//!    observation and served-credit rows, produces the observation
//!    walk's report and ledger — under flooding, exact summaries and a
//!    lossy summary.
//!
//! This is the contract that lets the million-peer churn path fan its
//! two remaining single-threaded hot loops across cores without the
//! worker count ever reaching the output bytes — the same guarantee
//! the CI determinism matrix pins end-to-end.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use recluster_core::shard::set_shard_min_override;
use recluster_core::{
    simulate_period_routed, simulate_period_traffic, PeriodObservations, RoutingReport, System,
};
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_types::PeerId;

/// Every routing mode the walks are compared under; `TopK(1)` drops
/// most of each summary, so it exercises the lossy `missed` accounting.
const MODES: [RoutingMode; 3] = [
    RoutingMode::Flood,
    RoutingMode::Routed(SummaryMode::Exact),
    RoutingMode::Routed(SummaryMode::TopK(1)),
];

/// One period of both walks under one mode, each on a fresh ledger.
#[derive(Debug, PartialEq)]
struct Walks {
    observations: PeriodObservations,
    report: RoutingReport,
    net: SimNetwork,
    traffic_report: RoutingReport,
    traffic_net: SimNetwork,
}

/// Runs the observation walk and the traffic-only walk on `sys` under
/// every mode in [`MODES`].
fn walks(sys: &System) -> Vec<Walks> {
    MODES
        .iter()
        .map(|&mode| {
            let mut net = SimNetwork::new();
            let (observations, report) = simulate_period_routed(sys, &mut net, mode);
            let mut traffic_net = SimNetwork::new();
            let traffic_report = simulate_period_traffic(sys, &mut traffic_net, mode);
            Walks {
                observations,
                report,
                net,
                traffic_report,
                traffic_net,
            }
        })
        .collect()
}

/// Flushes the cost cache (whatever sharding the current overrides
/// select) and snapshots all three recall columns as bits.
fn flush_columns(sys: &System) -> Vec<(u64, u64, u64)> {
    let cache = sys.cost_cache();
    (0..sys.overlay().n_slots())
        .map(|slot| {
            let p = PeerId::from_index(slot);
            (
                cache.recall_loss_of(p).to_bits(),
                cache.wrecall_of(p).to_bits(),
                cache.away_of(p).to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded flush, sharded rebuild and the sharded period walks are
    /// byte-identical to their sequential forms under every pinned
    /// worker count, and the traffic-only walk charges exactly what the
    /// observation walk charges, message kind by message kind.
    #[test]
    fn sharded_flush_and_period_equal_sequential(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        // Accumulate a dirty cost cache, then clone it so every
        // configuration flushes the *same* pending state.
        let mut dirty = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut dirty, &mut net, op);
        }

        // Reference: forced-sequential flush + period walks.
        set_shard_min_override(Some(usize::MAX));
        let seq = dirty.clone();
        let seq_cols = flush_columns(&seq);
        let seq_walks = walks(&seq);
        for (mode, w) in MODES.iter().zip(&seq_walks) {
            prop_assert_eq!(w.report, w.traffic_report, "traffic-only report, {:?}", mode);
            prop_assert_eq!(&w.net, &w.traffic_net, "traffic-only ledger, {:?}", mode);
        }

        // The sharded wholesale rebuild agrees with the sequential
        // flush too (rebuild is the flush's oracle).
        let mut rebuilt = seq.clone();
        set_shard_min_override(Some(1));
        rebuilt.rebuild_cost_cache();
        let rebuilt_cols = flush_columns(&rebuilt);
        prop_assert_eq!(&seq_cols, &rebuilt_cols, "sharded rebuild vs sequential flush");

        // Sharding forced on, under pinned 1/2/8-thread pools.
        for threads in [1usize, 2, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build never fails");
            let sys = dirty.clone();
            let (par_cols, par_walks) = pool.install(|| (flush_columns(&sys), walks(&sys)));
            prop_assert_eq!(&seq_cols, &par_cols, "flush columns, {} threads", threads);
            prop_assert_eq!(&seq_walks, &par_walks, "period walks, {} threads", threads);
        }
        set_shard_min_override(None);
    }
}
