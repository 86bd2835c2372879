//! Equivalence suite for peer-range sharding: after *any* random
//! interleaving of membership changes, churn events, content updates
//! and workload updates,
//!
//! 1. a sharded [`CostCache`](recluster_core::CostCache) flush (and the
//!    sharded wholesale rebuild) produces the same recall / wcost /
//!    away columns as the sequential flush, **bit for bit**, under
//!    pinned 1-, 2- and 8-thread pools, and
//! 2. the sharded per-period tracker walk produces the same
//!    observations, routing report and network ledger as the sequential
//!    walk, bit for bit, under the same pools — and so does the
//!    traffic-only walk.
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
use recluster_core::{simulate_period_routed, simulate_period_traffic, System};
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_types::PeerId;

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

    /// Sharded flush, sharded rebuild and the sharded period walk are
    /// byte-identical to their sequential forms under every pinned
    /// worker count.
    #[test]
    fn sharded_flush_and_period_equal_sequential(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mode = RoutingMode::Routed(SummaryMode::Exact);

        // Accumulate a dirty cost cache, then clone it so every
        // configuration flushes the *same* pending state.
        let mut dirty = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut dirty, &mut net, op);
        }

        // Reference: forced-sequential flush + period walk.
        set_shard_min_override(Some(usize::MAX));
        let seq = dirty.clone();
        let seq_cols = flush_columns(&seq);
        let mut seq_net = SimNetwork::new();
        let (seq_obs, seq_rep) = simulate_period_routed(&seq, &mut seq_net, mode);

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
            let mut par_net = SimNetwork::new();
            let mut traffic_net = SimNetwork::new();
            let (par_cols, par_obs, par_rep, traffic_rep) = pool.install(|| {
                let cols = flush_columns(&sys);
                let (obs, rep) = simulate_period_routed(&sys, &mut par_net, mode);
                let traffic = simulate_period_traffic(&sys, &mut traffic_net, mode);
                (cols, obs, rep, traffic)
            });
            prop_assert_eq!(&seq_cols, &par_cols, "flush columns, {} threads", threads);
            prop_assert_eq!(&seq_obs, &par_obs, "observations, {} threads", threads);
            prop_assert_eq!(seq_rep, par_rep, "report, {} threads", threads);
            prop_assert_eq!(seq_rep, traffic_rep, "traffic-only report, {} threads", threads);
            for net in [&par_net, &traffic_net] {
                prop_assert_eq!(seq_net.total_messages(), net.total_messages());
                prop_assert_eq!(seq_net.total_bytes(), net.total_bytes());
            }
        }
        set_shard_min_override(None);
    }
}
