//! `traffic_1m`: the streamed query-serving scenario (`traffic_demo`),
//! run through `TrafficEngine::new` and `TrafficEngine::run`.

use std::hint::black_box;

use recluster_overlay::{RoutePlan, SummaryMode};
use recluster_sim::scenario::ideal_scenario1_system;
use recluster_sim::traffic::{
    traffic_demo_config, TrafficConfig, TrafficEngine, TrafficReport, WorkloadDynamics,
};
use recluster_types::{derive_seed, seeded_rng, ClusterId};

use crate::{ensure, golden, probe_build, ratio, Outcome, Tracer, Values, GOLDEN_SEED};

/// (Cluster, query) member walks the content probe times.
const EVAL_PROBES: usize = 1_000;

/// The paper-ideal social cost of the scenario-1 testbeds.
const IDEAL_SCOST: f64 = 0.101;

/// The `traffic_1m` workload.
#[derive(Debug, Clone, Copy)]
pub struct Traffic;

impl crate::Workload for Traffic {
    /// `TrafficEngine::run` consumes the engine, so the bed hands it
    /// over once.
    type Bed = Option<TrafficEngine>;
    type Out = TrafficReport;
    const REPORTED: &'static [(&'static str, &'static str, &'static str)] = &[
        ("queries_per_s", "traffic.queries_per_s", "1/s"),
        ("fwd_per_query", "traffic.fwd_per_query", "msgs"),
        ("fn_rate", "traffic.fn_rate", "ratio"),
    ];

    fn inputs(&self) -> usize {
        3
    }

    fn setup(&self, seed: u64) -> Option<TrafficEngine> {
        let (cfg, traffic) = traffic_demo_config(seed);
        Some(TrafficEngine::new(&cfg, traffic))
    }

    fn probe_setup(&self, seed: u64, _: &Self::Bed, tr: &mut Tracer, timings: &mut Values) {
        if !tr.is_on() {
            return;
        }
        // The engine keeps its testbed private; the probes run on an
        // identical one.
        let (cfg, traffic) = traffic_demo_config(seed);
        let testbed = ideal_scenario1_system(&cfg);
        probe_build(&testbed.system, tr);

        let slices = tr
            .probe("workload.sample", || {
                let dynamics = WorkloadDynamics::new(&testbed, traffic.zipf_s);
                let mut rng = seeded_rng(derive_seed(seed, 0x7AF1C));
                (0..traffic.slices)
                    .map(|t| dynamics.sample_slice(&traffic, t, &mut rng))
                    .collect::<Vec<_>>()
            })
            .expect("tracing is on")
            .0;
        let (plan, _) = tr
            .probe("routeplan.build", || {
                RoutePlan::build(testbed.system.summaries(), SummaryMode::Exact)
            })
            .expect("tracing is on");

        let mut targets: Vec<ClusterId> = Vec::new();
        let (_, route_s) = tr
            .probe("routeplan.route", || {
                for query in slices.iter().flat_map(|slice| slice.keys()) {
                    plan.route_into(query, &mut targets);
                    black_box(&targets);
                }
            })
            .expect("tracing is on");
        let queries: usize = slices.iter().map(|slice| slice.len()).sum();
        timings.insert("routeplan.route_ns", route_s * 1e9 / queries as f64);

        // The serving loop's cache-miss path: every member of a target
        // cluster evaluates the query against its store.
        let system = &testbed.system;
        let pairs: Vec<_> = slices
            .iter()
            .flat_map(|slice| slice.keys())
            .flat_map(|query| plan.route(query).into_iter().map(move |cid| (cid, query)))
            .take(EVAL_PROBES)
            .collect();
        let (_, eval_s) = tr
            .probe("content.eval", || {
                for &(cid, query) in &pairs {
                    let members = system.overlay().cluster(cid).members();
                    let results: u64 = members
                        .iter()
                        .map(|&peer| system.store().result_count(query, peer))
                        .sum();
                    black_box(results);
                }
            })
            .expect("tracing is on");
        timings.insert("content.eval_us", eval_s * 1e6 / pairs.len().max(1) as f64);
    }

    fn run(&self, _: u64, bed: &mut Self::Bed, tr: &mut Tracer) -> TrafficReport {
        let engine = bed.take().expect("each bed serves one run");
        tr.span("traffic.serve", |_| engine.run())
    }

    fn finish(&self, seed: u64, _: &mut Self::Bed, r: TrafficReport) -> Outcome {
        let values: Values = [
            ("scost", r.final_scost),
            ("churn.events", r.churn_events as f64),
            ("traffic.queries", r.queries as f64),
            ("traffic.fwd_per_query", r.forwards_per_query()),
            ("traffic.fn_rate", r.false_negative_rate()),
            ("traffic.distinct_evals", r.distinct_evaluations as f64),
            (
                "traffic.eval_miss_ratio",
                ratio(r.distinct_evaluations as f64, r.flood_forwards as f64),
            ),
            ("traffic.repairs", r.repairs as f64),
            ("traffic.moves", r.moves as f64),
            ("summary.events", r.summary_events as f64),
            ("summary.updates_batched", r.summary_updates_batched as f64),
            (
                "summary.updates_per_event",
                r.summary_updates_per_event as f64,
            ),
            ("traffic.fanout_p50", r.histogram.p50() as f64),
            ("traffic.fanout_p99", r.histogram.p99() as f64),
            ("traffic.fanout_max", r.histogram.max() as f64),
        ]
        .into_iter()
        .collect();
        let (cfg, traffic) = traffic_demo_config(seed);
        let check = check_report(cfg.n_peers, &traffic, &r).and_then(|()| {
            if seed != GOLDEN_SEED {
                return Ok(());
            }
            let expected = golden("traffic_1m.txt")?;
            let actual = r.render("traffic_1m", seed);
            ensure(actual == expected, || {
                format!("traffic_1m drifted from its golden:\n{actual}")
            })
        });
        Outcome {
            values,
            digest: r.digest(),
            check,
        }
    }
}

/// Invariants every seed's report must hold: the schedule's churn and
/// repair ticks all fired, peer count is conserved, routing never fans
/// wider than flooding, batching never publishes more than eager
/// broadcast, staleness misses stay under 1 %, and repairs hold the
/// cost within 5 % of the ideal.
fn check_report(n_peers: usize, traffic: &TrafficConfig, r: &TrafficReport) -> Result<(), String> {
    let ticks = |every: usize| (1..traffic.slices).filter(|t| t % every == 0).count();
    let events =
        (ticks(traffic.churn_every) * (traffic.leaves_per_tick + traffic.joins_per_tick)) as u64;
    ensure(r.churn_events == events && r.peers == n_peers, || {
        format!(
            "{} churn events over {} peers, expected {events} over {n_peers}",
            r.churn_events, r.peers
        )
    })?;
    ensure(r.repairs == ticks(traffic.repair_every), || {
        format!("{} repairs", r.repairs)
    })?;
    ensure(
        r.queries > 0 && r.returned_results > 0 && r.forwards <= r.flood_forwards,
        || {
            format!(
                "{} queries returned {} results over {} forwards (flood {})",
                r.queries, r.returned_results, r.forwards, r.flood_forwards
            )
        },
    )?;
    ensure(
        r.summary_updates_batched <= r.summary_updates_per_event,
        || {
            format!(
                "batching published {} updates, eager {}",
                r.summary_updates_batched, r.summary_updates_per_event
            )
        },
    )?;
    ensure(r.false_negative_rate() < 0.01, || {
        format!("false-negative rate {}", r.false_negative_rate())
    })?;
    ensure((r.final_scost / IDEAL_SCOST - 1.0).abs() < 0.05, || {
        format!(
            "final scost {} is not within 5% of {IDEAL_SCOST}",
            r.final_scost
        )
    })
}
