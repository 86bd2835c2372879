//! Criterion: cost of building and refreshing the recall index — the
//! precomputation behind every `pcost` evaluation (§2's `r(q, p)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recluster_core::RecallIndex;
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("recall_index/build");
    for (label, cfg) in [
        ("small-40p", ExperimentConfig::small(1)),
        ("paper-200p", ExperimentConfig::paper(1)),
    ] {
        let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
        group.bench_with_input(BenchmarkId::from_parameter(label), &tb, |b, tb| {
            b.iter(|| {
                RecallIndex::build(
                    tb.system.overlay(),
                    tb.system.store(),
                    tb.system.workloads(),
                )
            })
        });
    }
    group.finish();
}

fn bench_refresh_mass(c: &mut Criterion) {
    let mut group = c.benchmark_group("recall_index/refresh_mass");
    for (label, cfg) in [
        ("small-40p", ExperimentConfig::small(2)),
        ("paper-200p", ExperimentConfig::paper(2)),
    ] {
        let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
        let mut index = RecallIndex::build(
            tb.system.overlay(),
            tb.system.store(),
            tb.system.workloads(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(label), &tb, |b, tb| {
            b.iter(|| index.rebuild(tb.system.overlay()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_refresh_mass);
criterion_main!(benches);
