//! Keystone equivalence suite for the typed-message runtime: after
//! *any* random interleaving of membership changes, churn events,
//! content updates and workload updates (the shared mutation-script
//! universe of `common/mod.rs`), a [`RuntimeEngine`] over the
//! degenerate schedule — [`NetConfig::ideal`]: zero extra delay, zero
//! loss — produces **bit-identical** output to the legacy
//! [`ProtocolEngine`]:
//!
//! * every [`RoundOutcome`] field — forwarded requests, granted moves,
//!   `scost`/`wcost` bits, cluster count, proposal counters, the count
//!   of peers that proposed — round for round,
//! * the final cluster membership of every peer, and
//! * the message counts the two drivers account identically
//!   (gain reports, relocation requests, representative heartbeats).
//!
//! This is what makes the sync engine "one driver" of the runtime API
//! rather than a second implementation of the protocol: the two share
//! the policy arithmetic (`crate::protocol::apply_policy`), the phase-1
//! pick (`RelocationRequest::outranks`) and the phase-2 admission step
//! (`LockSet::admit`), so this suite proves the transport — report
//! collection, forwarding, grant delivery and commit application —
//! across strategies and configs.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture};
use proptest::prelude::*;
use recluster_core::{
    AltruisticStrategy, EmptyTargetPolicy, NetConfig, ProtocolConfig, ProtocolEngine,
    RelocationRequest, RelocationStrategy, RoundOutcome, RuntimeEngine, SelfishStrategy, System,
};
use recluster_overlay::{MsgKind, SimNetwork};
use recluster_types::PeerId;

/// Bit-comparable form of a request.
fn req_bits(r: &RelocationRequest) -> (u32, u32, u32, u64) {
    (r.src.0, r.dst.0, r.peer.0, r.gain.to_bits())
}

/// Bit-comparable form of a round.
#[allow(clippy::type_complexity)]
fn round_bits(
    r: &RoundOutcome,
) -> (
    usize,
    Vec<(u32, u32, u32, u64)>,
    Vec<(u32, u32, u32, u64)>,
    u64,
    u64,
    usize,
    usize,
    usize,
    usize,
) {
    (
        r.round,
        r.requests.iter().map(req_bits).collect(),
        r.granted.iter().map(req_bits).collect(),
        r.scost.to_bits(),
        r.wcost.to_bits(),
        r.non_empty_clusters,
        r.proposals_recomputed,
        r.proposals_memoized,
        r.proposed,
    )
}

fn arb_config() -> impl Strategy<Value = ProtocolConfig> {
    let policy = prop_oneof![
        Just(EmptyTargetPolicy::Always),
        Just(EmptyTargetPolicy::Never),
        Just(EmptyTargetPolicy::OnCostIncrease(0.05)),
    ];
    let epsilon = prop_oneof![Just(1e-3), Just(0.05)];
    let locks = prop_oneof![Just(true), Just(false)];
    (policy, epsilon, locks).prop_map(|(policy, epsilon, use_locks)| {
        ProtocolConfig::builder()
            .empty_targets(policy)
            .epsilon(epsilon)
            .use_locks(use_locks)
            // The runtime computes every proposal fresh each round; the
            // sync engine's memo is bit-identical either way, but the
            // *counters* it reports are not — pin them off.
            .memoize(false)
            .max_rounds(40)
            .build()
    })
}

/// Builds the mutated system twice (the interpreter is deterministic),
/// runs the sync engine on one copy and the ideal-schedule runtime on
/// the other, and compares everything bitwise.
fn assert_equivalent<S, F>(
    seed_docs: &[Vec<u32>],
    seed_queries: &[Vec<u32>],
    ops: &[common::Op],
    config: ProtocolConfig,
    make: F,
) -> Result<(), TestCaseError>
where
    S: RelocationStrategy,
    F: Fn() -> S,
{
    let build = |ops: &[common::Op]| -> System {
        let mut sys = fixture(seed_docs, seed_queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut net, op.clone());
        }
        sys
    };
    let mut sys_sync = build(ops);
    let mut sys_rt = build(ops);
    let mut net_sync = SimNetwork::new();
    let mut net_rt = SimNetwork::new();

    let mut sync = ProtocolEngine::new(make(), config);
    let mut runtime = RuntimeEngine::new(make(), config, NetConfig::ideal());
    let a = sync.run(&mut sys_sync, &mut net_sync);
    let b = runtime.run(&mut sys_rt, &mut net_rt);

    prop_assert_eq!(a.converged, b.converged);
    prop_assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        prop_assert_eq!(round_bits(ra), round_bits(rb));
    }
    for i in 0..sys_sync.overlay().n_slots() {
        let p = PeerId::from_index(i);
        prop_assert_eq!(
            sys_sync.overlay().cluster_of(p),
            sys_rt.overlay().cluster_of(p),
            "final membership diverged for {:?}",
            p
        );
    }
    // The charges both drivers define identically: one gain report per
    // member per round, one request to each other representative per
    // forwarding cluster, one heartbeat to each other representative
    // per requestless cluster. (Grant-side accounting intentionally
    // differs: the runtime charges real Grant/Deny/Commit frames.)
    for kind in [
        MsgKind::GainReport,
        MsgKind::RelocationRequest,
        MsgKind::Heartbeat,
    ] {
        prop_assert_eq!(
            net_sync.messages(kind),
            net_rt.messages(kind),
            "message count diverged for {:?}",
            kind
        );
    }
    // No fabric pathology under the degenerate schedule.
    let stats = runtime.net_stats();
    prop_assert_eq!(stats.dropped, 0);
    prop_assert_eq!(stats.stale, 0);
    prop_assert_eq!(stats.sent, stats.delivered);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Selfish strategy, every config corner of the shared universe.
    #[test]
    fn runtime_ideal_schedule_is_bit_identical_to_sync_selfish(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(40),
        config in arb_config(),
    ) {
        assert_equivalent(&seed_docs, &seed_queries, &ops, config, || SelfishStrategy)?;
    }

    /// Altruistic strategy: exercises `prepare`-computed round state
    /// (the contribution matrix) flowing through both drivers.
    #[test]
    fn runtime_ideal_schedule_is_bit_identical_to_sync_altruistic(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(30),
        config in arb_config(),
    ) {
        assert_equivalent(&seed_docs, &seed_queries, &ops, config, AltruisticStrategy::new)?;
    }
}
