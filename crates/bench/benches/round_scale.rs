//! Phase-1 scale bench: deterministic proposal-memo metrics.
//!
//! Two seeded, RNG-free scenarios drive the protocol engine and record
//! *wall-clock-free* metrics into the bench-trend gate — proposals
//! recomputed (the per-round dirty-peer count) vs. proposals served
//! from the [`ProposalMemo`], plus rounds and moves. The counts are
//! machine-independent: any drift means the memo's validity gate or the
//! protocol itself changed behaviour, gated hard at 2×. Wall-clock
//! seconds are recorded for the artifact's timing history only (never
//! added to the committed baseline).
//!
//! * `converge_200p` — the paper testbed from singletons to
//!   equilibrium: the worst case for the memo (every round moves many
//!   peers), so its hit count doubles as a regression canary for
//!   over-eager caching.
//! * `repair_2k` — a 2 000-peer ideal clustering shocked by 20
//!   deterministic mis-placements, repaired by the *same* engine twice:
//!   the second, quiet run must be served almost entirely from the
//!   memo (cross-run memoization is what makes churn-period maintenance
//!   O(dirty peers)). Stay certificates serve the repair's later rounds
//!   too: only the first round and the peers a grant can move recompute.
//! * `repair_2k_observed` — the same shock after one absorbed
//!   observation period, repaired by observed selfish decisions, whose
//!   memo is the frozen-snapshot gate.

use recluster_core::{
    simulate_period, ObservedStats, ObservedStrategy, ProtocolConfig, ProtocolEngine,
    SelfishStrategy, System,
};
use recluster_overlay::SimNetwork;
use recluster_sim::scenario::{
    build_system, ideal_scenario1_system, ExperimentConfig, InitialConfig, Scenario,
};
use recluster_types::{ClusterId, PeerId};

fn record_run(label: &str, outcome: &recluster_core::RunOutcome) {
    criterion::record_value(
        &format!("round/{label}/proposals_recomputed"),
        "proposals",
        outcome.total_recomputed() as f64,
    );
    criterion::record_value(
        &format!("round/{label}/proposals_memoized"),
        "proposals",
        outcome.total_memoized() as f64,
    );
    criterion::record_value(
        &format!("round/{label}/rounds"),
        "rounds",
        outcome.rounds.len() as f64,
    );
    criterion::record_value(
        &format!("round/{label}/moves"),
        "moves",
        outcome.total_moves() as f64,
    );
}

/// The deterministic shock of the repair cells: two peers of *every*
/// category land one category over (spread across source clusters so
/// the lock rule can grant several repairs per round instead of
/// serializing them).
fn shock(system: &mut System, cfg: &ExperimentConfig) {
    let m = cfg.n_categories;
    let ppc = cfg.n_peers / m;
    for k in 0..m {
        for j in 0..2 {
            let peer = PeerId::from_index(k * ppc + j);
            system.move_peer(peer, ClusterId::from_index((k + 1) % m));
        }
    }
}

fn main() {
    let start = std::time::Instant::now();

    // ---- converge_200p: paper scale, singletons → equilibrium. ------
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::Singletons,
        &ExperimentConfig::paper(77),
    );
    let mut net = SimNetwork::new();
    let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
    let outcome = engine.run(&mut tb.system, &mut net);
    println!(
        "converge_200p: {} rounds, {} moves, {} recomputed / {} memoized",
        outcome.rounds.len(),
        outcome.total_moves(),
        outcome.total_recomputed(),
        outcome.total_memoized(),
    );
    record_run("converge_200p", &outcome);

    // ---- repair_2k: ideal 2k-peer clustering, shock, repair, re-run. --
    let cfg = ExperimentConfig {
        n_peers: 2_000,
        total_queries: 4_000,
        ..ExperimentConfig::large(77)
    };
    let mut tb = ideal_scenario1_system(&cfg);
    // One observation period of the ideal clustering, for the observed
    // cell below, taken before the shock.
    let mut stats = ObservedStats::new(0.0);
    stats.absorb(&simulate_period(&tb.system, &mut SimNetwork::new()));
    let mut observed_system = tb.system.clone();
    let mut net = SimNetwork::new();
    let mut engine = ProtocolEngine::new(
        SelfishStrategy,
        ProtocolConfig::builder().max_rounds(8).build(),
    );
    shock(&mut tb.system, &cfg);
    let repair = engine.run(&mut tb.system, &mut net);
    println!(
        "repair_2k: {} rounds, {} moves, {} recomputed / {} memoized",
        repair.rounds.len(),
        repair.total_moves(),
        repair.total_recomputed(),
        repair.total_memoized(),
    );
    record_run("repair_2k", &repair);

    // The quiet re-run: same engine, nothing changed since its last
    // round — the memo must carry virtually the whole phase 1.
    let quiet = engine.run(&mut tb.system, &mut net);
    println!(
        "repair_2k quiet re-run: {} recomputed / {} memoized",
        quiet.total_recomputed(),
        quiet.total_memoized(),
    );
    record_run("repair_2k_quiet", &quiet);

    // ---- repair_2k_observed: the same shock, observed decisions. ----
    shock(&mut observed_system, &cfg);
    let mut engine = ProtocolEngine::new(
        ObservedStrategy::selfish(&stats),
        ProtocolConfig::builder().max_rounds(8).build(),
    );
    let observed = engine.run(&mut observed_system, &mut SimNetwork::new());
    println!(
        "repair_2k_observed: {} rounds, {} moves, {} recomputed / {} memoized",
        observed.rounds.len(),
        observed.total_moves(),
        observed.total_recomputed(),
        observed.total_memoized(),
    );
    record_run("repair_2k_observed", &observed);

    // ---- repair_1M: the million-peer shock/repair/quiet cycle. -------
    // Same deterministic shock pattern at the tentpole scale: the
    // repair round is O(dirty peers) thanks to the proposal memo, and
    // the quiet re-run is the hard canary — at 1M peers *any*
    // recomputation would cost seconds, so the cycle asserts the round
    // is 100% memo-served before recording it.
    let cfg = ExperimentConfig::million(77);
    let mut tb = ideal_scenario1_system(&cfg);
    let mut net = SimNetwork::new();
    let mut engine = ProtocolEngine::new(
        SelfishStrategy,
        ProtocolConfig::builder().max_rounds(8).build(),
    );
    shock(&mut tb.system, &cfg);
    let repair = engine.run(&mut tb.system, &mut net);
    println!(
        "repair_1M: {} rounds, {} moves, {} recomputed / {} memoized",
        repair.rounds.len(),
        repair.total_moves(),
        repair.total_recomputed(),
        repair.total_memoized(),
    );
    record_run("repair_1M", &repair);

    let quiet_start = std::time::Instant::now();
    let quiet = engine.run(&mut tb.system, &mut net);
    let quiet_elapsed = quiet_start.elapsed().as_secs_f64();
    assert_eq!(
        quiet.total_recomputed(),
        0,
        "quiet 1M round must be 100% memo-served"
    );
    assert!(
        quiet.total_memoized() > 0,
        "quiet 1M round must consult the memo"
    );
    println!(
        "repair_1M quiet re-run: {} recomputed / {} memoized, {quiet_elapsed:.3}s",
        quiet.total_recomputed(),
        quiet.total_memoized(),
    );
    record_run("repair_1M_quiet", &quiet);
    // The headline number of the tentpole: one maintenance round over a
    // quiet million-peer system. Artifact-only (like every wall-clock
    // cell), target < 1 s in release.
    criterion::record_value(
        "round/repair_1M_quiet/round_seconds",
        "seconds",
        quiet_elapsed,
    );

    criterion::record_value(
        "round/run_seconds",
        "seconds",
        start.elapsed().as_secs_f64(),
    );
}
