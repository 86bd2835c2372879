//! End-to-end and per-layer benchmark of the recluster workspace.
//!
//! Each workload is a closed-loop caller of the public entry points of
//! `sim::scenario`, `core::system`, `core::protocol`, `core::tracker`,
//! `sim::traffic` and `core::protocol::runtime`: it builds a testbed
//! (timed as set-up), drives it to an output (timed as the run), checks
//! the output, and only then drops the testbed. With tracing on, the
//! same driver wraps a [`trace::Span`] around each call into a layer
//! and adds a few probes of public layer functions on the same inputs;
//! see `README.md` in this directory for the workloads and metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use recluster_core::{RecallIndex, System};
use recluster_overlay::ClusterSummaries;
use recluster_types::derive_seed;

pub mod churn;
pub mod heap;
pub mod rss;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod traffic;

pub use trace::Tracer;

/// Named metric values of one repetition.
pub type Values = BTreeMap<&'static str, f64>;

/// The seed the golden snapshots were recorded at; only this seed is
/// compared against them.
pub const GOLDEN_SEED: u64 = 2008;

/// What a workload's run produced, after the clock stopped.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Deterministic outputs and per-layer counts by metric name. They
    /// are pure functions of the seed, so every repetition — traced or
    /// not — must produce the same map.
    pub values: Values,
    /// Bit-level fingerprint of the full output (every row, every
    /// float's bits).
    pub digest: u64,
    /// The output check's verdict.
    pub check: Result<(), String>,
}

/// One set-up + run of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Seconds the testbed build took.
    pub setup_s: f64,
    /// Seconds from the end of set-up to the output, probes excluded.
    pub run_s: f64,
    /// Peak live heap from the start of set-up to the teardown, in MiB.
    pub peak_heap_mb: f64,
    /// The run's deterministic output.
    pub outcome: Outcome,
    /// Span and probe timings by metric name (traced repetitions only).
    pub timings: Values,
    /// Seconds of the run covered by top-level workload spans.
    pub covered_s: f64,
    /// Seconds spent in probes (set-up and run).
    pub probe_s: f64,
}

/// A benchmark workload: a testbed built from a seed and a driver that
/// takes it to a checked output.
pub trait Workload {
    /// Everything the set-up builds and the run consumes.
    type Bed;
    /// The driver's raw output.
    type Out;

    /// The workload's own user-facing results, printed on the summary
    /// line: (label, key in [`Outcome::values`], unit).
    const REPORTED: &'static [(&'static str, &'static str, &'static str)];

    /// Inputs an untraced run averages its end-to-end metrics over (see
    /// [`input_seed`]). Run time moves with the input by more than the
    /// machine's noise, so one input per run would gate on the seed;
    /// each workload takes as many as it can run once in about the
    /// default budget.
    fn inputs(&self) -> usize;

    /// Builds the testbed (timed as `setup_s`).
    fn setup(&self, seed: u64) -> Self::Bed;

    /// Probes of the build layers on the built parts; traced runs call
    /// it between set-up and the run clock.
    fn probe_setup(&self, _seed: u64, _bed: &Self::Bed, _tr: &mut Tracer, _timings: &mut Values) {}

    /// Drives the workload to its output (timed as `run_s`). Probes the
    /// driver makes through `tr` are subtracted from the clock.
    fn run(&self, seed: u64, bed: &mut Self::Bed, tr: &mut Tracer) -> Self::Out;

    /// Checks the output and reduces it to an [`Outcome`]. Runs after
    /// the clock stopped and before the testbed is dropped.
    fn finish(&self, seed: u64, bed: &mut Self::Bed, out: Self::Out) -> Outcome;
}

/// The seed of a run's `j`-th input: the run's own seed first, so that
/// the golden seed's run includes the golden input, then seeds derived
/// from it.
pub fn input_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        derive_seed(seed, j as u64)
    }
}

/// Runs one repetition: set-up, optional build probes, run, check,
/// and teardown after both clocks have stopped.
pub fn run_rep<W: Workload>(workload: &W, seed: u64, traced: bool) -> Rep {
    let mut tr = Tracer::new(traced);
    let mut timings = Values::new();
    heap::reset_peak();
    let start = Instant::now();
    let mut bed = workload.setup(seed);
    let setup_s = start.elapsed().as_secs_f64();
    workload.probe_setup(seed, &bed, &mut tr, &mut timings);

    let probes_before = tr.probe_seconds();
    let start = Instant::now();
    let out = workload.run(seed, &mut bed, &mut tr);
    let run_s = start.elapsed().as_secs_f64() - (tr.probe_seconds() - probes_before);

    let outcome = workload.finish(seed, &mut bed, out);
    let peak_heap_mb = heap::peak_mb();
    drop(bed);
    for (name, seconds) in tr.by_name() {
        if let Some(metric) = span_metric(name, "_s") {
            timings.insert(metric, seconds.iter().sum());
        }
        // Per-call distribution of the span kinds that repeat per round.
        if let Some(metric) = span_metric(name, "_p50_s") {
            timings.insert(metric, stats::median(&seconds));
        }
        if let Some(metric) = span_metric(name, "_max_s") {
            timings.insert(metric, seconds.iter().copied().fold(0.0, f64::max));
        }
        if let Some(metric) = span_metric(name, "0_share") {
            timings.insert(metric, ratio(seconds[0], seconds.iter().sum()));
        }
    }
    Rep {
        setup_s,
        run_s,
        peak_heap_mb,
        outcome,
        timings,
        covered_s: tr.covered_seconds(),
        probe_s: tr.probe_seconds(),
    }
}

/// The per-layer metric named `<span><suffix>`, if there is one.
fn span_metric(span: &str, suffix: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix(suffix) == Some(span))
}

/// Times `RecallIndex::build`, `ClusterSummaries::build` and
/// `System::new` on copies of a built system's parts — the three
/// steps of the testbed build that `System::new` owns.
pub fn probe_build(system: &System, tr: &mut Tracer) {
    if !tr.is_on() {
        return;
    }
    let overlay = system.overlay().clone();
    let store = system.store().clone();
    let workloads = system.workloads().to_vec();
    let config = system.config();
    // Each probe returns what it built, so the drop happens after its
    // span closed.
    let _ = tr.probe("build.recall_index", || {
        RecallIndex::build(&overlay, &store, &workloads)
    });
    let _ = tr.probe("build.summaries", || {
        ClusterSummaries::build(&overlay, &store)
    });
    let _ = tr.probe("build.system_new", move || {
        System::new(overlay, store, workloads, config)
    });
}

/// Every per-layer metric with its unit, in the order the traced run
/// prints them. Metrics of layers a workload does not use read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim::scenario + corpus build
    ("build.generate_s", "s"),
    ("build.system_new_s", "s"),
    ("build.recall_index_s", "s"),
    ("build.summaries_s", "s"),
    // core::system churn hooks
    ("churn.apply_s", "s"),
    ("churn.events", "count"),
    // core::costcache / core::view
    ("view.flush_s", "s"),
    ("costcache.marks", "count"),
    // core::protocol
    ("protocol.repair_s", "s"),
    ("protocol.round_s", "s"),
    ("protocol.round_p50_s", "s"),
    ("protocol.round_max_s", "s"),
    ("protocol.rounds", "count"),
    ("protocol.recomputed", "count"),
    ("protocol.memoized", "count"),
    ("protocol.memo_hit_ratio", "ratio"),
    ("protocol.requests", "count"),
    ("protocol.granted", "count"),
    ("protocol.grant_ratio", "ratio"),
    ("strategy.propose_s", "s"),
    // core::tracker period walks + overlay::routing
    ("tracker.walk_traffic_s", "s"),
    ("tracker.walk_full_s", "s"),
    ("tracker.queries", "count"),
    ("tracker.forwards", "count"),
    ("tracker.flood_forwards", "count"),
    ("tracker.forward_reduction", "ratio"),
    ("tracker.fwd_per_query", "msgs"),
    // core::tracker::ObservedStats + core::strategy::observed
    ("observed.absorb_s", "s"),
    ("observed.agreement_s", "s"),
    ("observed.repair_s", "s"),
    ("observed.reference_clone_s", "s"),
    ("observed.reference_repair_s", "s"),
    ("observed.drop_s", "s"),
    ("observed.decision_agreement", "ratio"),
    ("observed.scost_gap", "ratio"),
    // sim::traffic + RoutePlan, SummaryBatch, overlay::content
    ("traffic.serve_s", "s"),
    ("traffic.queries", "count"),
    ("traffic.queries_per_s", "1/s"),
    ("traffic.fwd_per_query", "msgs"),
    ("traffic.fn_rate", "ratio"),
    ("traffic.distinct_evals", "count"),
    ("traffic.eval_miss_ratio", "ratio"),
    ("traffic.repairs", "count"),
    ("traffic.moves", "count"),
    ("summary.events", "count"),
    ("summary.updates_batched", "count"),
    ("summary.updates_per_event", "count"),
    ("traffic.fanout_p50", "clusters"),
    ("traffic.fanout_p99", "clusters"),
    ("traffic.fanout_max", "clusters"),
    ("workload.sample_s", "s"),
    ("routeplan.build_s", "s"),
    ("routeplan.route_ns", "ns"),
    ("content.eval_us", "us"),
    // core::protocol::runtime (engine, machine, simnet, message)
    ("runtime.round_s", "s"),
    ("runtime.round_p50_s", "s"),
    ("runtime.round_max_s", "s"),
    ("runtime.round0_share", "ratio"),
    ("runtime.rounds", "count"),
    ("runtime.frames_per_round", "frames"),
    ("runtime.driver_s", "s"),
    ("runtime.granted", "count"),
    ("runtime.denied", "count"),
    ("runtime.deny_rate", "ratio"),
    ("simnet.sent", "count"),
    ("simnet.delivered", "count"),
    ("simnet.dropped", "count"),
    ("simnet.stale", "count"),
    ("simnet.useful_ratio", "ratio"),
    ("simnet.frame_ns", "ns"),
    ("codec.frame_ns", "ns"),
    // the benchmark itself
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.probe_s", "s"),
    ("pool.width", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "churn_100k",
    "churn_100k_observed",
    "traffic_1m",
    "runtime_1k",
];

/// Every end-to-end metric with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("scost", "cost"),
];

/// FNV-1a over integers and the raw bits of floats: the bit-level
/// fingerprint every repetition of one seed must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds an integer.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Reads a golden snapshot of the `recluster-sim` test suite.
pub fn golden(name: &str) -> Result<String, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/sim/tests/golden")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `Err` with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
