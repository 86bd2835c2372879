//! `churn_100k` and `churn_100k_observed`: the churn experiment's
//! period loop at 100 000 peers, rebuilt from public calls so each call
//! into a layer can carry a span.
//!
//! [`drive`] reproduces `recluster_sim::churn::run_churn_with_fidelity`
//! step for step — the churn batch through the `System` hooks, the
//! cost-cache flush, the repair as a loop of `ProtocolEngine::run_round`
//! calls (what `ProtocolEngine::run` does), and the period's query
//! traffic — and `tests/driver_fidelity.rs` holds its rows bit-identical
//! to the library's in both decision modes.

use rand::Rng;
use rayon::prelude::*;
use recluster_core::{
    scost_normalized, simulate_period_routed, DecisionSource, EmptyTargetPolicy, ObservedStats,
    ObservedStrategy, ProtocolConfig, ProtocolEngine, RelocationStrategy, RunOutcome,
    SelfishStrategy, System,
};
use recluster_corpus::{QueryBias, QuerySampler, WorkloadBuilder};
use recluster_overlay::churn::{random_leave, ChurnDelta, ChurnEvent};
use recluster_overlay::SimNetwork;
use recluster_sim::churn::{churn_100k_config, ChurnConfig, ChurnPeriod, FidelityPeriod};
use recluster_sim::report::f3;
use recluster_sim::runner::{decision_agreement, measure_query_traffic};
use recluster_sim::scenario::{ideal_scenario1_system, ExperimentConfig, TestBed};
use recluster_sim::StrategyKind;
use recluster_types::{derive_seed, seeded_rng, PeerId, Workload};

use crate::{ensure, golden, probe_build, ratio, Fnv, Outcome, Tracer, Values, GOLDEN_SEED};

/// Per-layer counts of one churn run, all read from public return
/// values (`RoundOutcome`, `RoutingReport`) or the system's own state.
#[derive(Debug, Clone, Default)]
pub struct ChurnCounts {
    /// Leave and join events the churn hooks applied.
    pub events: u64,
    /// Protocol rounds over every repair (observed, reference and oracle).
    pub rounds: u64,
    /// Phase-1 proposals computed from scratch.
    pub recomputed: u64,
    /// Phase-1 proposals re-emitted from the memo.
    pub memoized: u64,
    /// Relocation requests forwarded by representatives.
    pub requests: u64,
    /// Requests granted under the lock rule.
    pub granted: u64,
    /// Query occurrences the period walks routed.
    pub queries: u64,
    /// `QueryForward` messages the period walks charged.
    pub forwards: u64,
    /// `QueryForward` messages flooding would have charged.
    pub flood_forwards: u64,
}

/// What [`drive`] returns.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// One row per period, as `run_churn_with_fidelity` reports them.
    pub rows: Vec<ChurnPeriod>,
    /// Per-period fidelity rows (observed decisions only).
    pub fidelity: Option<Vec<FidelityPeriod>>,
    /// Per-layer counts.
    pub counts: ChurnCounts,
}

/// Drives the churn schedule `churn` over `testbed` (built by
/// `ideal_scenario1_system(cfg)`), exactly as `run_churn_with_fidelity`
/// does, with a span around each call into a layer. Only selfish
/// maintenance (the scale configs' choice) is supported.
pub fn drive(
    testbed: &mut TestBed,
    cfg: &ExperimentConfig,
    churn: &ChurnConfig,
    tr: &mut Tracer,
) -> ChurnRun {
    let repair = match churn.maintenance {
        Some(StrategyKind::Selfish) => true,
        None => false,
        Some(other) => panic!("the churn driver runs selfish maintenance, not {other:?}"),
    };
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC4A9));
    let mut net = SimNetwork::new();
    let demand_per_peer = (cfg.total_queries / cfg.n_peers as u64).max(1);
    let mut samplers: Vec<Option<QuerySampler>> = vec![None; testbed.holdout.len()];
    let mut stats = match churn.decisions {
        DecisionSource::Observed { decay } => Some(ObservedStats::new(decay)),
        DecisionSource::Oracle => None,
    };
    let protocol = ProtocolConfig::builder()
        .epsilon(1e-3)
        .max_rounds(churn.max_rounds)
        .empty_targets(EmptyTargetPolicy::Always)
        .use_locks(true)
        .build();
    let mut counts = ChurnCounts::default();
    let mut rows = Vec::with_capacity(churn.periods);
    let mut fidelity = Vec::new();

    for period in 0..churn.periods {
        counts.events += tr.span("churn.apply", |_| {
            apply_churn_batch(
                testbed,
                churn,
                demand_per_peer,
                &mut samplers,
                &mut rng,
                &mut net,
            )
        });
        tr.span("view.flush", |_| {
            testbed.system.view();
        });
        let scost_after_churn = scost_normalized(&testbed.system);

        let mut moves = 0;
        let (query_net, routing) = if let Some(stats) = stats.as_mut() {
            let mut query_net = SimNetwork::new();
            let (observations, routing) = tr.span("tracker.walk_full", |_| {
                simulate_period_routed(&testbed.system, &mut query_net, churn.routing)
            });
            tr.span("observed.absorb", |_| stats.absorb(&observations));
            let mut reference = None;
            if repair {
                let system = &mut testbed.system;
                let agreement_rate = tr.span("observed.agreement", |_| {
                    decision_agreement(system, StrategyKind::Selfish, stats, true)
                });
                let oracle =
                    reference.insert(tr.span("observed.reference_clone", |_| system.clone()));
                let mut scratch = SimNetwork::new();
                let reference_run = tr.span("observed.reference_repair", |tr| {
                    repair_rounds(SelfishStrategy, protocol, oracle, &mut scratch, tr)
                });
                counts.add_run(&reference_run);
                let observed_run = tr.span("observed.repair", |tr| {
                    let strategy = ObservedStrategy::selfish(stats);
                    repair_rounds(strategy, protocol, system, &mut net, tr)
                });
                counts.add_run(&observed_run);
                moves = observed_run.total_moves();
                fidelity.push(FidelityPeriod {
                    period,
                    agreement_rate,
                    scost_observed_repair: scost_normalized(system),
                    scost_oracle_repair: scost_normalized(oracle),
                });
            }
            // The library drops the reference system, then the
            // observations, when their blocks end.
            tr.span("observed.drop", |_| drop((reference, observations)));
            (query_net, routing)
        } else {
            if repair {
                let run = tr.span("protocol.repair", |tr| {
                    repair_rounds(SelfishStrategy, protocol, &mut testbed.system, &mut net, tr)
                });
                counts.add_run(&run);
                moves = run.total_moves();
            }
            tr.span("tracker.walk_traffic", |_| {
                measure_query_traffic(&testbed.system, churn.routing)
            })
        };
        counts.queries += routing.query_events;
        counts.forwards += routing.forwards;
        counts.flood_forwards += routing.flood_forwards;

        rows.push(ChurnPeriod {
            period,
            scost_after_churn,
            scost_after_repair: scost_normalized(&testbed.system),
            peers: testbed.system.overlay().n_peers(),
            moves,
            query_messages: query_net.total_messages(),
            forwards_per_query: routing.forwards_per_query(),
            false_negative_rate: routing.false_negative_rate(),
        });
    }
    ChurnRun {
        rows,
        fidelity: stats.map(|_| fidelity),
        counts,
    }
}

impl ChurnCounts {
    fn add_run(&mut self, run: &RunOutcome) {
        for r in &run.rounds {
            self.rounds += 1;
            self.recomputed += r.proposals_recomputed as u64;
            self.memoized += r.proposals_memoized as u64;
            self.requests += r.requests.len() as u64;
            self.granted += r.granted.len() as u64;
        }
    }
}

/// `ProtocolEngine::run` as a loop of `run_round` calls, one span per
/// round. Traced runs first probe the strategy's phase-1 `propose` over
/// every live peer on the round's view.
fn repair_rounds<S: RelocationStrategy>(
    strategy: S,
    protocol: ProtocolConfig,
    system: &mut System,
    net: &mut SimNetwork,
    tr: &mut Tracer,
) -> RunOutcome {
    let mut engine = ProtocolEngine::new(strategy, protocol);
    let mut rounds = Vec::new();
    let mut converged = false;
    for round in 0..protocol.max_rounds {
        if tr.is_on() {
            probe_propose(engine.strategy(), &protocol, system, tr);
        }
        let outcome = tr.span("protocol.round", |_| engine.run_round(system, net, round));
        let done = outcome.requests.is_empty();
        rounds.push(outcome);
        if done {
            converged = true;
            break;
        }
    }
    RunOutcome { rounds, converged }
}

/// Times `strategy.propose` for every live peer against a fresh view,
/// sharded across the pool when the engine's phase 1 would be. The
/// view's flush is the one `run_round` would make first, so the probe
/// leaves the round's inputs untouched; it stays workload time, under
/// a `view.flush` span.
pub fn probe_propose<S: RelocationStrategy>(
    strategy: &S,
    protocol: &ProtocolConfig,
    system: &mut System,
    tr: &mut Tracer,
) {
    let view = tr.span("view.flush", move |_| system.view());
    let allow_empty = matches!(protocol.empty_targets, EmptyTargetPolicy::Always);
    let peers: Vec<PeerId> = view.overlay().peers().collect();
    let sharded = strategy.sharded_phase1() && peers.len() >= protocol.min_parallel_peers;
    let _ = tr.probe("strategy.propose", || {
        let propose = |&p: &PeerId| strategy.propose(&view, p, allow_empty);
        if sharded {
            peers.par_iter().map(propose).collect::<Vec<_>>()
        } else {
            peers.iter().map(propose).collect::<Vec<_>>()
        }
    });
}

/// The churn experiment's batch (departures of random peers, arrivals
/// carrying hold-out articles into a random non-empty cluster), made of
/// the same public calls in the same order as the library's. Returns
/// the number of events applied.
fn apply_churn_batch(
    testbed: &mut TestBed,
    churn: &ChurnConfig,
    demand_per_peer: u64,
    samplers: &mut [Option<QuerySampler>],
    rng: &mut rand::rngs::StdRng,
    net: &mut SimNetwork,
) -> u64 {
    let mut events = 0;
    for _ in 0..churn.leaves_per_period {
        if let Some(event) = random_leave(testbed.system.overlay(), rng) {
            if let Some(ChurnDelta::Left { peer, .. }) =
                testbed.system.apply_churn_event(net, event)
            {
                testbed.system.set_workload(peer, Workload::new());
                events += 1;
            }
        }
    }
    let n_categories = testbed.holdout.len();
    for _ in 0..churn.joins_per_period {
        let cat = rng.gen_range(0..n_categories);
        let pool = &testbed.holdout[cat];
        let docs: Vec<_> = (0..5)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        let target = {
            let non_empty = testbed.system.overlay().non_empty_ids();
            non_empty[rng.gen_range(0..non_empty.len())]
        };
        let delta = testbed
            .system
            .apply_churn_event(
                net,
                ChurnEvent::Join {
                    cluster: target,
                    docs,
                },
            )
            .expect("join events always apply");
        let mut wrng = seeded_rng(derive_seed(rng.gen(), 0x10));
        let builder = WorkloadBuilder::new(QueryBias::Uniform)
            .with_doc_limit(testbed.distributable_per_category);
        let sampler = samplers[cat].get_or_insert_with(|| builder.sampler(&testbed.corpus, cat));
        let workload = builder.build_with(sampler, demand_per_peer, &mut wrng);
        testbed.system.set_workload(delta.peer(), workload);
        testbed.peer_category.push(cat);
        testbed.query_category.push(Some(cat));
        events += 1;
    }
    events
}

/// The `churn_100k` workloads.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Relocate on observed statistics (`churn_100k_observed`) instead
    /// of oracle state (`churn_100k`).
    pub observed: bool,
}

impl Churn {
    /// The experiment and churn configuration at `seed`.
    pub fn config(&self, seed: u64) -> (ExperimentConfig, ChurnConfig) {
        let (cfg, mut churn) = churn_100k_config(seed);
        if self.observed {
            churn.decisions = DecisionSource::Observed { decay: 0.0 };
        }
        (cfg, churn)
    }
}

impl crate::Workload for Churn {
    type Bed = TestBed;
    type Out = ChurnRun;
    const REPORTED: &'static [(&'static str, &'static str, &'static str)] = &[
        ("fwd_per_query", "tracker.fwd_per_query", "msgs"),
        ("decision_agreement", "observed.decision_agreement", "ratio"),
    ];

    fn inputs(&self) -> usize {
        if self.observed {
            3
        } else {
            5
        }
    }

    fn setup(&self, seed: u64) -> TestBed {
        ideal_scenario1_system(&self.config(seed).0)
    }

    fn probe_setup(&self, _: u64, bed: &TestBed, tr: &mut Tracer, _: &mut Values) {
        probe_build(&bed.system, tr);
    }

    fn run(&self, seed: u64, bed: &mut TestBed, tr: &mut Tracer) -> ChurnRun {
        let (cfg, churn) = self.config(seed);
        drive(bed, &cfg, &churn, tr)
    }

    fn finish(&self, seed: u64, bed: &mut TestBed, out: ChurnRun) -> Outcome {
        let (cfg, churn) = self.config(seed);
        let c = &out.counts;
        let n = out.rows.len() as f64;
        let cache = bed.system.cost_cache();
        let marks: u64 = (0..bed.system.overlay().n_slots())
            .map(|slot| cache.slot_marks(slot))
            .sum::<u64>()
            + cache.all_marks();
        drop(cache);
        let mut values: Values = [
            (
                "scost",
                out.rows.iter().map(|r| r.scost_after_repair).sum::<f64>() / n,
            ),
            ("churn.events", c.events as f64),
            ("costcache.marks", marks as f64),
            ("protocol.rounds", c.rounds as f64),
            ("protocol.recomputed", c.recomputed as f64),
            ("protocol.memoized", c.memoized as f64),
            (
                "protocol.memo_hit_ratio",
                ratio(c.memoized as f64, (c.recomputed + c.memoized) as f64),
            ),
            ("protocol.requests", c.requests as f64),
            ("protocol.granted", c.granted as f64),
            (
                "protocol.grant_ratio",
                ratio(c.granted as f64, c.requests as f64),
            ),
            ("tracker.queries", c.queries as f64),
            ("tracker.forwards", c.forwards as f64),
            ("tracker.flood_forwards", c.flood_forwards as f64),
            (
                "tracker.forward_reduction",
                ratio(c.flood_forwards as f64, c.forwards as f64),
            ),
            (
                "tracker.fwd_per_query",
                out.rows.iter().map(|r| r.forwards_per_query).sum::<f64>() / n,
            ),
        ]
        .into_iter()
        .collect();

        let mut h = Fnv::default();
        for r in &out.rows {
            h.u64(r.peers as u64);
            h.u64(r.moves as u64);
            h.u64(r.query_messages);
            h.f64(r.scost_after_churn);
            h.f64(r.scost_after_repair);
            h.f64(r.forwards_per_query);
            h.f64(r.false_negative_rate);
        }
        let mut check = check_rows(&cfg, &churn, &out.rows);
        if let Some(fidelity) = &out.fidelity {
            for f in fidelity {
                h.f64(f.agreement_rate);
                h.f64(f.scost_observed_repair);
                h.f64(f.scost_oracle_repair);
            }
            let agreement = fidelity.iter().map(|f| f.agreement_rate).sum::<f64>() / n;
            let gap = fidelity.last().map_or(0.0, FidelityPeriod::scost_gap);
            values.insert("observed.decision_agreement", agreement);
            values.insert("observed.scost_gap", gap);
            check = check.and_then(|()| check_fidelity(fidelity));
        } else if seed == GOLDEN_SEED {
            check = check.and_then(|()| {
                let expected = golden("churn_100k.txt")?;
                let actual = render_rows("churn_100k", &cfg, &churn, &out.rows, seed);
                ensure(actual == expected, || {
                    format!("churn_100k drifted from its golden:\n{actual}")
                })
            });
        }
        Outcome {
            values,
            digest: h.finish(),
            check,
        }
    }
}

/// The paper-ideal repaired social cost of the scenario-1 testbeds.
const IDEAL_SCOST: f64 = 0.101;

/// Invariants every seed's rows must hold: one row per period, peer
/// count conserved by equal leaves and joins, no false negatives under
/// exact routing, and repairs that land within 5 % of the ideal cost.
fn check_rows(
    cfg: &ExperimentConfig,
    churn: &ChurnConfig,
    rows: &[ChurnPeriod],
) -> Result<(), String> {
    ensure(rows.len() == churn.periods, || {
        format!("{} rows for {} periods", rows.len(), churn.periods)
    })?;
    for r in rows {
        let peers = cfg.n_peers + (r.period + 1) * churn.joins_per_period
            - (r.period + 1) * churn.leaves_per_period;
        ensure(r.peers == peers, || {
            format!("period {}: {} peers, expected {peers}", r.period, r.peers)
        })?;
        ensure(
            r.false_negative_rate == 0.0 && r.forwards_per_query > 0.0,
            || {
                format!(
                    "period {}: exact routing gave fn {} at {} fwd/q",
                    r.period, r.false_negative_rate, r.forwards_per_query
                )
            },
        )?;
        ensure(
            (r.scost_after_repair / IDEAL_SCOST - 1.0).abs() < 0.05,
            || {
                format!(
                    "period {}: repaired scost {} is not within 5% of {IDEAL_SCOST}",
                    r.period, r.scost_after_repair
                )
            },
        )?;
    }
    Ok(())
}

/// The `churn_10k_observed` golden's rule: observed decisions agree
/// with the oracle for every peer, and the last observed repair lands
/// within 5 % of the reference oracle repair.
fn check_fidelity(fidelity: &[FidelityPeriod]) -> Result<(), String> {
    for f in fidelity {
        ensure(f.agreement_rate == 1.0, || {
            format!("period {}: agreement {}", f.period, f.agreement_rate)
        })?;
    }
    let gap = fidelity.last().map_or(0.0, FidelityPeriod::scost_gap);
    ensure(gap.abs() < 0.05, || {
        format!("observed repair is {gap:+.4} off the oracle repair")
    })
}

/// The rows in the churn goldens' text format, digest line included.
pub fn render_rows(
    name: &str,
    cfg: &ExperimentConfig,
    churn: &ChurnConfig,
    rows: &[ChurnPeriod],
    seed: u64,
) -> String {
    let mut out = format!(
        "{name} peers={} periods={} leaves={} joins={} routing={} seed={seed}\n",
        cfg.n_peers, churn.periods, churn.leaves_per_period, churn.joins_per_period, churn.routing
    );
    let mut digest = Fnv::default();
    for r in rows {
        for x in [
            r.scost_after_churn,
            r.scost_after_repair,
            r.forwards_per_query,
            r.false_negative_rate,
        ] {
            digest.f64(x);
        }
        out.push_str(&format!(
            "period={}|peers={}|churned={}|repaired={}|moves={}|msgs={}|fwd/q={}|fn={}\n",
            r.period,
            r.peers,
            f3(r.scost_after_churn),
            f3(r.scost_after_repair),
            r.moves,
            r.query_messages,
            f3(r.forwards_per_query),
            f3(r.false_negative_rate),
        ));
    }
    out.push_str(&format!(
        "f64-digest: {:016x} over {} values\n",
        digest.finish(),
        4 * rows.len()
    ));
    out
}
