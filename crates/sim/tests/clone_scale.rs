//! A `System` clone at real scale. The audited observed repair clones
//! the system and repairs the clone with the oracle protocol; the clone
//! shares the content store, the workload table and every recall-index
//! row with its origin, and copies only what a move writes. Here, on
//! the churn_100k testbed after one churn batch, the clone is repaired
//! as `Maintenance::repair` repairs its reference, and then:
//!
//! * the origin still equals its oracles (`RecallIndex::rebuild_from`,
//!   `ClusterSummaries::build`, a rebuilt cost cache) and the `scost`
//!   bits it had before the clone, so nothing the repair wrote reached
//!   it; and
//! * the repaired clone still shares the store, the workloads and every
//!   row with the origin, so the repair copied nothing shared.
//!
//! The proptests in `crates/core/tests/prop_incremental.rs` and the
//! unit tests of `System` cover the same contract on small systems.
//!
//! Release-only (`#[ignore]`; a few seconds of build and checks):
//! `cargo test --release -p recluster-sim --test clone_scale -- --include-ignored`

use recluster_core::{scost, DecisionSource, EmptyTargetPolicy, ProtocolConfig, System};
use recluster_overlay::{ClusterSummaries, SimNetwork};
use recluster_sim::churn::churn_100k_config;
use recluster_sim::maintenance::Maintenance;
use recluster_sim::runner::{run_protocol, StrategyKind};
use recluster_sim::scenario::ideal_scenario1_system;
use recluster_types::{derive_seed, seeded_rng, ClusterId, PeerId};

/// Asserts `sys`'s recall index equals `rebuild_from` over its own
/// overlay, store and workloads: every row, total and mass cell.
fn assert_index_equals_rebuild(sys: &System) {
    let index = sys.index();
    let mut oracle = index.clone();
    oracle.rebuild_from(sys.overlay(), sys.store(), sys.workloads());
    for slot in 0..sys.overlay().n_slots() {
        let p = PeerId::from_index(slot);
        assert_eq!(index.results_of(p), oracle.results_of(p), "results of {p}");
        let bits = |row: &[(u32, f64)]| -> Vec<(u32, u64)> {
            row.iter().map(|&(q, w)| (q, w.to_bits())).collect()
        };
        assert_eq!(
            bits(index.workload_of(p)),
            bits(oracle.workload_of(p)),
            "weights of {p}"
        );
    }
    for qid in 0..index.n_queries() as u32 {
        assert_eq!(index.total(qid), oracle.total(qid), "total of qid {qid}");
        for c in 0..sys.overlay().cmax() {
            let cid = ClusterId::from_index(c);
            assert_eq!(
                index.cluster_answer(qid, cid),
                oracle.cluster_answer(qid, cid),
                "mass cell of qid {qid} in {cid}"
            );
        }
    }
}

/// Asserts `sys`'s delta-maintained cost cache equals a rebuilt one bit
/// for bit.
fn assert_cache_equals_rebuild(sys: &System) {
    let mut oracle = sys.clone();
    oracle.rebuild_cost_cache();
    let (delta, fresh) = (sys.cost_cache(), oracle.cost_cache());
    assert_eq!(delta.live_demand(), fresh.live_demand(), "live demand");
    for slot in 0..sys.overlay().n_slots() {
        let p = PeerId::from_index(slot);
        assert_eq!(
            (
                delta.recall_loss_of(p).to_bits(),
                delta.wrecall_of(p).to_bits(),
                delta.away_of(p).to_bits()
            ),
            (
                fresh.recall_loss_of(p).to_bits(),
                fresh.wrecall_of(p).to_bits(),
                fresh.away_of(p).to_bits()
            ),
            "cached terms of {p}"
        );
    }
}

#[test]
#[ignore = "release-only: builds the 100k-peer churn testbed"]
fn a_repaired_clone_shares_everything_and_leaves_the_origin_intact() {
    let (cfg, churn) = churn_100k_config(2008);
    let mut testbed = ideal_scenario1_system(&cfg);
    let mut maintenance = Maintenance::new(&cfg, &testbed, DecisionSource::Oracle);
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC4A9));
    maintenance.churn_batch(
        &mut testbed,
        churn.leaves_per_period,
        churn.joins_per_period,
        &mut rng,
        &mut SimNetwork::new(),
    );
    let origin = &testbed.system;
    let scost_bits = scost(origin).to_bits();

    // The reference repair of an audited observed period.
    let mut clone = origin.clone();
    let protocol = ProtocolConfig::builder()
        .epsilon(1e-3)
        .max_rounds(churn.max_rounds)
        .empty_targets(EmptyTargetPolicy::Always)
        .use_locks(true)
        .build();
    let run = run_protocol(
        &mut clone,
        StrategyKind::Selfish,
        protocol,
        &mut SimNetwork::new(),
    );
    // Not vacuous: the churned newcomers relocate.
    assert!(run.total_moves() > 0, "the reference repair moved no peer");
    assert_ne!(clone.overlay(), origin.overlay());

    assert_eq!(scost(origin).to_bits(), scost_bits, "origin scost moved");
    assert_index_equals_rebuild(origin);
    assert_eq!(
        origin.summaries(),
        &ClusterSummaries::build(origin.overlay(), origin.store()),
        "origin summaries drifted from rebuild"
    );
    assert_cache_equals_rebuild(origin);

    assert!(
        std::ptr::eq(clone.store(), origin.store()),
        "store unshared"
    );
    assert_eq!(
        clone.workloads().as_ptr(),
        origin.workloads().as_ptr(),
        "workloads unshared"
    );
    for slot in 0..origin.overlay().n_slots() {
        let p = PeerId::from_index(slot);
        assert_eq!(
            clone.index().workload_of(p).as_ptr(),
            origin.index().workload_of(p).as_ptr(),
            "weight row of {p} unshared"
        );
        assert_eq!(
            clone.index().results_of(p).as_ptr(),
            origin.index().results_of(p).as_ptr(),
            "result row of {p} unshared"
        );
    }
}
