//! Criterion: cost-function evaluation — a single `pcost`, a full
//! best-response sweep over all `Cmax` clusters (what one peer does per
//! period), the global `SCost` / `WCost` measures, and the headline
//! incremental-vs-naive comparison: repeated move-then-evaluate cycles
//! through the delta-maintained recall index against the old
//! full-refresh path.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use recluster_core::{best_response, pcost, scost_normalized, wcost_normalized};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster_types::{ClusterId, PeerId};

fn testbeds() -> Vec<(&'static str, recluster_sim::TestBed)> {
    vec![
        (
            "small-40p",
            build_system(
                Scenario::SameCategory,
                InitialConfig::RandomM,
                &ExperimentConfig::small(3),
            ),
        ),
        (
            "paper-200p",
            build_system(
                Scenario::SameCategory,
                InitialConfig::RandomM,
                &ExperimentConfig::paper(3),
            ),
        ),
    ]
}

fn bench_pcost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost/pcost_single");
    for (label, tb) in testbeds() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &tb, |b, tb| {
            b.iter(|| pcost(&tb.system, PeerId(0), ClusterId(0)))
        });
    }
    group.finish();
}

fn bench_best_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost/best_response_sweep");
    for (label, tb) in testbeds() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &tb, |b, tb| {
            b.iter(|| best_response(&tb.system, PeerId(0), true))
        });
    }
    group.finish();
}

fn bench_global_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost/global");
    for (label, tb) in testbeds() {
        group.bench_with_input(BenchmarkId::new("scost", label), &tb, |b, tb| {
            b.iter(|| scost_normalized(&tb.system))
        });
        group.bench_with_input(BenchmarkId::new("wcost", label), &tb, |b, tb| {
            b.iter(|| wcost_normalized(&tb.system))
        });
    }
    group.finish();
}

/// The protocol hot path in isolation: relocate a peer, then evaluate
/// its cost at the destination — 32 times per iteration. The two
/// variants do different work per move:
///
/// * `incremental` routes the move through `System::move_peer`, which
///   delta-maintains everything a move writes: the recall index's mass
///   cells (O(results-of-peer)), the routing summaries, the cost cache's
///   dirty marks and the epochs. The summaries dominate: timing the same
///   32 moves outside the bench (2-vCPU VM, median of 300 iterations),
///   `ClusterSummaries::apply_move` took 166 of 188 µs per iteration at
///   small-40p and 323 of 368 µs at paper-200p.
/// * `naive-rebuild` replays the pre-incremental behaviour: it moves the
///   peer through `overlay_mut` and runs a full `refresh_mass` after
///   every real move. It never maintains the summaries.
///
/// So `incremental` alone pays the summary upkeep, and at 40 peers that
/// upkeep outweighs the mass rebuild it saves; at 200 peers the rebuild
/// dominates. Both variants run on a clone from `iter_batched_ref`,
/// which drops the clone after the clock stops. In quick mode on the
/// same VM, small-40p read 280 µs (`incremental`) against 294 µs
/// (`naive-rebuild`) while the drop was timed, and 223 µs against
/// 168 µs after; paper-200p read 709 µs against 3.20 ms, then 480 µs
/// against 3.33 ms.
fn bench_move_then_eval(c: &mut Criterion) {
    const MOVES_PER_ITER: u32 = 32;
    let mut group = c.benchmark_group("cost/move_then_pcost");
    group.sample_size(12);
    for (label, tb) in testbeds() {
        let n = tb.system.n_peers() as u32;
        group.bench_with_input(BenchmarkId::new("incremental", label), &tb, |b, tb| {
            b.iter_batched_ref(
                || tb.system.clone(),
                |sys| {
                    let mut acc = 0.0;
                    for i in 0..MOVES_PER_ITER {
                        let peer = PeerId(i % n);
                        let to = ClusterId(i % 4);
                        sys.move_peer(peer, to);
                        acc += pcost(&*sys, peer, to);
                    }
                    acc
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("naive-rebuild", label), &tb, |b, tb| {
            b.iter_batched_ref(
                || tb.system.clone(),
                |sys| {
                    let mut acc = 0.0;
                    for i in 0..MOVES_PER_ITER {
                        let peer = PeerId(i % n);
                        let to = ClusterId(i % 4);
                        // Faithful replay of the pre-incremental
                        // System::move_peer: refresh only on real moves.
                        let from = sys.overlay_mut().move_peer(peer, to);
                        if from != to {
                            sys.refresh_mass();
                        }
                        acc += pcost(&*sys, peer, to);
                    }
                    acc
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pcost,
    bench_best_response,
    bench_global_costs,
    bench_move_then_eval
);
criterion_main!(benches);
