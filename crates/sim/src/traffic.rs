//! Query-serving traffic engine: a streamed, routed query workload
//! interleaved with live churn and repair rounds on one deterministic
//! timeline.
//!
//! The paper evaluates the overlay with a periodic *batch* workload
//! ([`simulate_period_routed`](recluster_core::simulate_period_routed)
//! walks every live workload once per period). A serving system sees
//! something else entirely: queries arrive continuously while peers
//! join, leave and relocate underneath them, and the routing state the
//! queries use is necessarily *stale* — summaries propagate at the
//! maintenance cadence, not per event. This module models that regime:
//!
//! * [`WorkloadDynamics`] generates the stream from the corpus's
//!   zipf/query machinery: Zipf-distributed topic popularity whose
//!   rank→category mapping *drifts* over time, flash-crowd windows that
//!   multiply demand on a small topic set, and a diurnal rate swing
//!   modeled as an integer triangle wave (never a platform-dependent
//!   `sin`).
//! * [`TrafficEngine`] advances a slice clock. Each slice routes its
//!   queries through a [`RoutePlan`] built from the **published**
//!   summaries; churn ticks apply the shared [`Maintenance`] churn
//!   batch, whose `System` hooks keep the live summaries exact, without
//!   broadcasting anything; repair ticks publish what changed since the
//!   last publication (one broadcast per cluster whose summary differs,
//!   [`ClusterSummaries::changed_since`]), rebuild the plan and run the
//!   shared repair, whose relocations wait for the next publication.
//! * [`TrafficReport`] aggregates throughput (queries, forwards,
//!   results), the per-query fan-out tail
//!   ([`ForwardHistogram`] p50/p99/max), false negatives (lossy
//!   summaries *and* staleness), the publication ledger (per-event vs
//!   per-repair `SummaryUpdate` messages), and per-repair-window rows —
//!   everything integer-derived, pinned by a golden digest.
//!
//! Determinism: one seeded RNG stream drives sampling and churn; the
//! query loop is sequential; the only parallel section is protocol
//! phase 1, which is byte-identical to sequential under any worker
//! count (CI runs this engine under a 1/2/8-thread matrix). Two runs of
//! the same config produce identical reports, including
//! [`TrafficReport::digest`].
//!
//! # Examples
//!
//! The miniature configuration streams a few thousand queries over 40
//! peers with churn and repairs in a debug-build-friendly instant:
//!
//! ```
//! use recluster_sim::traffic::{run_traffic, traffic_small_config};
//!
//! let (cfg, traffic) = traffic_small_config(7);
//! let report = run_traffic(&cfg, &traffic);
//! assert!(report.queries > 1_000);
//! assert!(report.repairs > 0 && report.churn_events > 0);
//! // Routing never fans wider than flooding would.
//! assert!(report.forwards <= report.flood_forwards);
//! // Publishing once per repair costs (far) fewer summary messages
//! // than eager per-event broadcast.
//! assert!(report.summary_updates_batched <= report.summary_updates_per_event);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::Rng;
use recluster_core::recall::QueryId;
use recluster_core::{scost_normalized, DecisionSource, ForwardHistogram, ProtocolConfig, System};
use recluster_corpus::{QueryBias, QuerySampler, WorkloadBuilder, Zipf};
use recluster_overlay::{
    ClusterSummaries, MsgKind, RoutePlan, RoutingMode, SimNetwork, SummaryMode,
};
use recluster_types::{derive_seed, seeded_rng, ClusterId, PeerId, Query, Sym};

use crate::maintenance::{FidelityReport, Maintenance};
use crate::report::Fnv;
use crate::runner::StrategyKind;
use crate::scenario::{ideal_scenario1_system, ExperimentConfig, TestBed};

/// Shape of the streamed workload and the churn/repair schedule, all in
/// units of *slices* (the engine's time step).
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Slices to simulate.
    pub slices: usize,
    /// Base query occurrences per slice (before diurnal/flash shaping).
    pub queries_per_slice: u64,
    /// Slices per full diurnal cycle (`0` disables the swing).
    pub diurnal_period: usize,
    /// Peak amplitude of the diurnal swing, in percent of the base rate
    /// (an integer triangle wave: rate goes `base − a% … base + a%`).
    pub diurnal_amplitude_pct: u64,
    /// Zipf exponent over topic (category) popularity ranks.
    pub zipf_s: f64,
    /// Slices between one-step rotations of the rank→topic mapping
    /// (`0` disables drift).
    pub drift_every: usize,
    /// Slices between flash-crowd windows (`0` disables them).
    pub flash_every: usize,
    /// Length of each flash window, in slices.
    pub flash_len: usize,
    /// Topics a flash crowd concentrates on.
    pub flash_topics: usize,
    /// Extra demand during a flash window, in percent of the base rate.
    pub flash_boost_pct: u64,
    /// Slices between churn ticks (`0` disables churn).
    pub churn_every: usize,
    /// Departures per churn tick.
    pub leaves_per_tick: usize,
    /// Arrivals per churn tick.
    pub joins_per_tick: usize,
    /// Slices between repair ticks — also the summary *publication*
    /// cadence (`0` disables both; the initial plan then serves the
    /// whole run).
    pub repair_every: usize,
    /// Maintenance strategy run at each repair tick.
    pub maintenance: StrategyKind,
    /// Protocol parameters for each repair run.
    pub protocol: ProtocolConfig,
    /// How queries are forwarded.
    pub mode: RoutingMode,
    /// Where repair decisions read their statistics from. Under
    /// [`DecisionSource::Observed`] each repair tick first runs an
    /// observation pass — every peer's workload routed under `mode`, so
    /// lossy summaries degrade what the peers learn — and the
    /// maintenance strategy consumes the folded estimates instead of
    /// oracle state; the report then carries per-repair fidelity rows.
    pub decisions: DecisionSource,
}

/// The deterministic workload generator: Zipf topic popularity with
/// rank drift, flash-crowd windows, and a triangle-wave diurnal rate.
///
/// All shaping arithmetic is integer (the triangle wave replaces the
/// obvious `sin`, whose libm implementation varies across platforms),
/// so a seeded run is reproducible to the bit anywhere.
pub struct WorkloadDynamics {
    zipf: Zipf,
    samplers: Vec<QuerySampler>,
    n_categories: usize,
    /// Every word any sampler draws, ascending and without repeats.
    alphabet: Vec<Sym>,
    /// Per sampler: the position in `alphabet` of each of its words.
    positions: Vec<Vec<u32>>,
}

impl WorkloadDynamics {
    /// Builds the generator over the testbed's categories: one
    /// occurrence-biased sampler per category, restricted to the
    /// distributed (queryable) articles, and a Zipf distribution over
    /// popularity ranks.
    pub fn new(testbed: &TestBed, zipf_s: f64) -> Self {
        let n_categories = testbed.holdout.len();
        let builder = WorkloadBuilder::new(QueryBias::Occurrence)
            .with_doc_limit(testbed.distributable_per_category);
        let samplers: Vec<QuerySampler> = (0..n_categories)
            .map(|cat| builder.sampler(&testbed.corpus, cat))
            .collect();
        let mut alphabet: Vec<Sym> = samplers
            .iter()
            .flat_map(|s| s.symbols().iter().copied())
            .collect();
        alphabet.sort_unstable();
        alphabet.dedup();
        let positions = samplers
            .iter()
            .map(|s| {
                let at = |sym| {
                    alphabet
                        .binary_search(sym)
                        .expect("every word is in the alphabet")
                };
                s.symbols().iter().map(|sym| at(sym) as u32).collect()
            })
            .collect();
        WorkloadDynamics {
            zipf: Zipf::new(n_categories, zipf_s),
            samplers,
            n_categories,
            alphabet,
            positions,
        }
    }

    /// The base rate shaped by the diurnal triangle wave at slice `t`
    /// (flash demand not included). Pure integer arithmetic.
    pub fn slice_rate(&self, cfg: &TrafficConfig, t: usize) -> u64 {
        let base = cfg.queries_per_slice;
        let period = cfg.diurnal_period;
        if period < 2 || cfg.diurnal_amplitude_pct == 0 {
            return base;
        }
        let half = (period / 2) as i64;
        let phase = (t % period) as i64;
        // 0 → half → 0 over one period, recentred to −half…+half.
        let tri = if phase <= half {
            phase
        } else {
            period as i64 - phase
        };
        let offset = 2 * tri - half;
        let swing = base as i64 * cfg.diurnal_amplitude_pct as i64 * offset / (100 * half.max(1));
        (base as i64 + swing).max(0) as u64
    }

    /// Extra flash-crowd occurrences at slice `t`, with the flash
    /// window's index (`None` outside every window).
    pub fn flash_at(&self, cfg: &TrafficConfig, t: usize) -> Option<(usize, u64)> {
        if cfg.flash_every == 0 || cfg.flash_len == 0 || cfg.flash_topics == 0 {
            return None;
        }
        if t % cfg.flash_every < cfg.flash_len {
            let window = t / cfg.flash_every;
            Some((window, cfg.queries_per_slice * cfg.flash_boost_pct / 100))
        } else {
            None
        }
    }

    /// The topic (category) behind popularity rank `rank` at slice `t`:
    /// the mapping rotates one step every `drift_every` slices, so the
    /// head of the Zipf distribution wanders across the catalogue.
    pub fn topic_at(&self, cfg: &TrafficConfig, t: usize, rank: usize) -> usize {
        let shift = t.checked_div(cfg.drift_every).unwrap_or(0);
        (rank + shift) % self.n_categories
    }

    /// Samples one slice's query stream, coalesced to distinct keyword
    /// queries with occurrence counts (sorted — `BTreeMap` — so
    /// downstream iteration order is deterministic). Each base
    /// occurrence draws two values from `rng` (a popularity rank, then
    /// a word); each flash occurrence draws one `gen_range` (a flash
    /// topic) and one value (a word).
    pub fn sample_slice(
        &self,
        cfg: &TrafficConfig,
        t: usize,
        rng: &mut StdRng,
    ) -> BTreeMap<Query, u64> {
        let mut runs = Vec::new();
        self.draw_slice(cfg, t, rng, &mut runs);
        runs.into_iter()
            .map(|(sym, occ)| (Query::keyword(sym), occ))
            .collect()
    }

    /// The draws of [`WorkloadDynamics::sample_slice`], in the same
    /// order, counted per word into `out` (cleared first): each distinct
    /// keyword once, ascending, with its occurrence count. A keyword
    /// query's order is its symbol's, so this is the order of
    /// `sample_slice`'s map. Counting over the samplers' alphabet leaves
    /// only the distinct words to sort, not every occurrence.
    fn draw_slice(
        &self,
        cfg: &TrafficConfig,
        t: usize,
        rng: &mut StdRng,
        out: &mut Vec<(Sym, u64)>,
    ) {
        let mut counts = vec![0u64; self.alphabet.len()];
        let mut drawn: Vec<u32> = Vec::new();
        let mut draw = |cat: usize, rng: &mut StdRng| {
            let at = self.positions[cat][self.samplers[cat].sample_index(rng)];
            if counts[at as usize] == 0 {
                drawn.push(at);
            }
            counts[at as usize] += 1;
        };
        for _ in 0..self.slice_rate(cfg, t) {
            let rank = self.zipf.sample(rng);
            draw(self.topic_at(cfg, t, rank), rng);
        }
        if let Some((window, extra)) = self.flash_at(cfg, t) {
            // The window's topic set is a deterministic function of its
            // index, spread over the catalogue by a co-prime-ish stride.
            for _ in 0..extra {
                let pick = rng.gen_range(0..cfg.flash_topics);
                draw((window * 7 + pick) % self.n_categories, rng);
            }
        }
        drawn.sort_unstable();
        out.clear();
        out.extend(
            drawn
                .iter()
                .map(|&at| (self.alphabet[at as usize], counts[at as usize])),
        );
    }
}

/// One repair window's aggregates (the stretch of slices since the
/// previous repair tick, plus the tail window at the end of the run).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficWindow {
    /// Slice index at which the window closed.
    pub slice: usize,
    /// Query occurrences routed in the window.
    pub queries: u64,
    /// `QueryForward` messages charged.
    pub forwards: u64,
    /// Results returned to requesters.
    pub returned: u64,
    /// Results flooding would have returned but routing missed.
    pub missed: u64,
    /// Relocations the window's repair performed (0 for the tail).
    pub moves: usize,
    /// Normalized social cost at window close.
    pub scost: f64,
}

/// What a [`TrafficEngine`] run did, in exact integers plus
/// integer-derived floats — reproducible to the bit for a fixed config.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Routing mode the stream ran under.
    pub mode: RoutingMode,
    /// Slices simulated.
    pub slices: usize,
    /// Live peers at the end of the run.
    pub peers: usize,
    /// Query occurrences streamed.
    pub queries: u64,
    /// Distinct (cluster, query) evaluations actually computed — cache
    /// misses; the amortization the eval cache buys is visible as
    /// `queries × clusters` minus this.
    pub distinct_evaluations: u64,
    /// `QueryForward` messages charged.
    pub forwards: u64,
    /// `QueryForward` messages flooding every live non-empty cluster
    /// would have charged.
    pub flood_forwards: u64,
    /// Results returned to requesters (occurrence-weighted).
    pub returned_results: u64,
    /// Results flooding would have returned but routing missed —
    /// lossy-summary drops *plus* staleness (a cluster whose content
    /// arrived after the last publication), occurrence-weighted.
    pub missed_results: u64,
    /// Churn events applied (joins + leaves).
    pub churn_events: u64,
    /// Repair runs executed.
    pub repairs: usize,
    /// Total relocations across all repairs.
    pub moves: usize,
    /// Membership events (churn, plus peers a repair relocated) covered
    /// by the publications.
    pub summary_events: u64,
    /// `SummaryUpdate` messages the per-repair publications sent.
    pub summary_updates_batched: u64,
    /// `SummaryUpdate` messages eager per-event publication would have
    /// cost (charged by the `System` churn hooks; the baseline the
    /// per-repair publication is saving against).
    pub summary_updates_per_event: u64,
    /// Occurrence-weighted per-query fan-out distribution.
    pub histogram: ForwardHistogram,
    /// Per-repair-window rows (repairs plus the tail window).
    pub windows: Vec<TrafficWindow>,
    /// Per-repair fidelity rows, keyed by the repair tick's slice —
    /// non-empty exactly when the run used [`DecisionSource::Observed`]
    /// and at least one repair tick fired.
    pub fidelity: FidelityReport,
    /// Normalized social cost at the end of the run.
    pub final_scost: f64,
}

impl TrafficReport {
    /// Fraction of flood results the routed stream failed to return
    /// (lossy drops + staleness).
    pub fn false_negative_rate(&self) -> f64 {
        let total = self.returned_results + self.missed_results;
        if total == 0 {
            0.0
        } else {
            self.missed_results as f64 / total as f64
        }
    }

    /// Forward messages per query occurrence.
    pub fn forwards_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.forwards as f64 / self.queries as f64
        }
    }

    /// Throughput for a measured wall-clock duration. The only
    /// machine-dependent number in the report, which is why the elapsed
    /// time is an argument instead of a field: everything stored is
    /// deterministic.
    pub fn queries_per_sec(&self, elapsed_seconds: f64) -> f64 {
        if elapsed_seconds <= 0.0 {
            0.0
        } else {
            self.queries as f64 / elapsed_seconds
        }
    }

    /// FNV-1a digest over every deterministic field (counters as
    /// integers, floats by raw bits) — one number that moves if
    /// anything in the run moved.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.slices as u64);
        h.u64(self.peers as u64);
        h.u64(self.queries);
        h.u64(self.distinct_evaluations);
        h.u64(self.forwards);
        h.u64(self.flood_forwards);
        h.u64(self.returned_results);
        h.u64(self.missed_results);
        h.u64(self.churn_events);
        h.u64(self.repairs as u64);
        h.u64(self.moves as u64);
        h.u64(self.summary_events);
        h.u64(self.summary_updates_batched);
        h.u64(self.summary_updates_per_event);
        h.u64(self.histogram.total_occurrences());
        h.u64(self.histogram.p50());
        h.u64(self.histogram.p99());
        h.u64(self.histogram.max());
        for w in &self.windows {
            h.u64(w.slice as u64);
            h.u64(w.queries);
            h.u64(w.forwards);
            h.u64(w.returned);
            h.u64(w.missed);
            h.u64(w.moves as u64);
            h.f64(w.scost);
        }
        // Folded only when present so oracle-mode digests are
        // byte-identical to releases that predate observed decisions.
        for f in &self.fidelity.periods {
            h.u64(f.period as u64);
            h.f64(f.agreement_rate);
            h.f64(f.scost_observed_repair);
            h.f64(f.scost_oracle_repair);
        }
        h.f64(self.final_scost);
        h.finish()
    }

    /// Renders the report as the golden-snapshot text: a header, one
    /// row per window, a summary block, and the digest line. No
    /// wall-clock anything — byte-stable across machines.
    pub fn render(&self, name: &str, seed: u64) -> String {
        let mut out = format!(
            "{name} mode={} slices={} peers={} seed={seed}\n",
            self.mode, self.slices, self.peers
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "window@{}|queries={}|forwards={}|returned={}|missed={}|moves={}|scost={:.3}",
                w.slice, w.queries, w.forwards, w.returned, w.missed, w.moves, w.scost
            );
        }
        let _ = writeln!(
            out,
            "queries={} forwards={} flood={} fwd/q={:.3} fn={:.6}",
            self.queries,
            self.forwards,
            self.flood_forwards,
            self.forwards_per_query(),
            self.false_negative_rate()
        );
        let _ = writeln!(
            out,
            "fanout p50={} p99={} max={} evals={}",
            self.histogram.p50(),
            self.histogram.p99(),
            self.histogram.max(),
            self.distinct_evaluations
        );
        let _ = writeln!(
            out,
            "churn={} repairs={} moves={} summary_events={} summary_msgs batched={} per_event={}",
            self.churn_events,
            self.repairs,
            self.moves,
            self.summary_events,
            self.summary_updates_batched,
            self.summary_updates_per_event
        );
        for f in &self.fidelity.periods {
            let _ = writeln!(
                out,
                "fidelity@{}|agree={:.6}|scost_obs={:.6}|scost_oracle={:.6}",
                f.period, f.agreement_rate, f.scost_observed_repair, f.scost_oracle_repair
            );
        }
        if !self.fidelity.periods.is_empty() {
            let _ = writeln!(
                out,
                "fidelity mean_agree={:.6} final_gap={:.6}",
                self.fidelity.mean_agreement(),
                self.fidelity.final_scost_gap()
            );
        }
        let _ = writeln!(out, "final_scost={:.6}", self.final_scost);
        let _ = writeln!(out, "traffic-digest: {:016x}", self.digest());
        out
    }
}

/// Per-cluster result cache behind the streamed evaluation: for each
/// `(cluster, query)` pair the total result count, invalidated per
/// cluster whenever membership or content changes. A miss on a query
/// some peer's workload holds reads the [`RecallIndex`] mass cell (one
/// lookup); a query outside the index's universe has no cell, so its
/// miss walks the cluster's members once. Both count as one distinct
/// evaluation.
///
/// A cluster's entries live in a [`ClusterCache`], allocated on the
/// cluster's first evaluation (only the live clusters of a `Cmax`-slot
/// overlay ever get one). Queries in the index universe sit in a row
/// indexed by [`QueryId`], so a hit is one array read; the rest sit in
/// a map keyed by the query.
///
/// [`RecallIndex`]: recluster_core::RecallIndex
struct EvalCache {
    per_cluster: Vec<Option<Box<ClusterCache>>>,
    misses: u64,
    /// The map-per-cluster cache this one replaced, run in lockstep by
    /// the tests: every evaluation and miss count must agree with it.
    #[cfg(test)]
    reference: Option<tests::ReferenceCache>,
}

/// One cluster's cached results.
struct ClusterCache {
    /// Bumped by every invalidation: a row cell holds a live value only
    /// while it carries the current generation, so invalidating never
    /// touches the row.
    generation: u64,
    /// Per [`QueryId`]: `(generation, results)`. Grows with the index
    /// universe; cells start at generation 0, which is never current.
    by_qid: Vec<(u64, u64)>,
    /// Results of queries outside the index universe, cleared by every
    /// invalidation.
    outside: BTreeMap<Query, u64>,
}

impl EvalCache {
    fn new(cmax: usize) -> Self {
        let mut cache = EvalCache {
            per_cluster: Vec::new(),
            misses: 0,
            #[cfg(test)]
            reference: None,
        };
        cache.ensure_cmax(cmax);
        cache
    }

    fn ensure_cmax(&mut self, cmax: usize) {
        if self.per_cluster.len() < cmax {
            self.per_cluster.resize_with(cmax, || None);
        }
        #[cfg(test)]
        if let Some(reference) = &mut self.reference {
            reference.ensure_cmax(cmax);
        }
    }

    fn invalidate(&mut self, cid: ClusterId) {
        if let Some(cluster) = &mut self.per_cluster[cid.index()] {
            cluster.generation += 1;
            cluster.outside.clear();
        }
        #[cfg(test)]
        if let Some(reference) = &mut self.reference {
            reference.invalidate(cid);
        }
    }

    /// The results `query` (with index id `qid`, if it has one) finds in
    /// `cid`, from cache, the recall index, or (for a query no workload
    /// holds) one walk of the members.
    fn eval(
        &mut self,
        system: &System,
        cid: ClusterId,
        query: &Query,
        qid: Option<QueryId>,
    ) -> u64 {
        let cluster = self.per_cluster[cid.index()].get_or_insert_with(|| {
            Box::new(ClusterCache {
                generation: 1,
                by_qid: Vec::new(),
                outside: BTreeMap::new(),
            })
        });
        let results = match qid {
            Some(qid) => {
                let i = qid as usize;
                if i >= cluster.by_qid.len() {
                    cluster.by_qid.resize(system.index().n_queries(), (0, 0));
                }
                let (generation, cached) = cluster.by_qid[i];
                if generation == cluster.generation {
                    cached
                } else {
                    // A query that entered the universe (a joiner's
                    // workload holds it) after it was cached here keeps
                    // its cached value: it moves over, no new miss.
                    let results = cluster.outside.remove(query).unwrap_or_else(|| {
                        self.misses += 1;
                        system.index().cluster_mass_num(qid, cid)
                    });
                    cluster.by_qid[i] = (cluster.generation, results);
                    results
                }
            }
            None => match cluster.outside.get(query) {
                Some(&hit) => hit,
                None => {
                    self.misses += 1;
                    let results = system
                        .overlay()
                        .cluster(cid)
                        .members()
                        .iter()
                        .map(|&peer| system.store().result_count(query, peer))
                        .sum();
                    cluster.outside.insert(query.clone(), results);
                    results
                }
            },
        };
        #[cfg(test)]
        if let Some(reference) = &mut self.reference {
            assert_eq!(
                reference.eval(system, cid, query),
                results,
                "{query:?} in {cid}"
            );
        }
        results
    }
}

/// The streamed-traffic engine. Build with [`TrafficEngine::new`], run
/// to completion with [`TrafficEngine::run`] (or use the [`run_traffic`]
/// convenience).
pub struct TrafficEngine {
    testbed: TestBed,
    cfg: TrafficConfig,
    dynamics: WorkloadDynamics,
    rng: StdRng,
    /// The summaries queries route against — stale between
    /// publications.
    published: ClusterSummaries,
    /// Membership events since the last publication.
    unpublished_events: u64,
    plan: Option<RoutePlan>,
    cache: EvalCache,
    /// The current slice's distinct words and counts, reused across
    /// slices.
    slice: Vec<(Sym, u64)>,
    /// Maintenance-side ledger (churn, protocol, eager summary hooks).
    net: SimNetwork,
    /// The churn batches, observation passes and repairs.
    maintenance: Maintenance,
    // Running aggregates.
    histogram: ForwardHistogram,
    windows: Vec<TrafficWindow>,
    queries: u64,
    forwards: u64,
    flood_forwards: u64,
    returned: u64,
    missed: u64,
    churn_events: u64,
    repairs: usize,
    moves: usize,
    summary_events: u64,
    summary_updates_batched: u64,
    // Window-relative marks.
    win_queries: u64,
    win_forwards: u64,
    win_returned: u64,
    win_missed: u64,
}

impl TrafficEngine {
    /// Builds the engine over the ideal scenario-1 overlay for `cfg`
    /// (cluster k = category k — the converged state a serving system
    /// operates from), with the initial summaries published and an
    /// initial route plan in place.
    pub fn new(cfg: &ExperimentConfig, traffic: TrafficConfig) -> Self {
        let testbed = ideal_scenario1_system(cfg);
        let dynamics = WorkloadDynamics::new(&testbed, traffic.zipf_s);
        let published = testbed.system.summaries().clone();
        let plan = match traffic.mode {
            RoutingMode::Flood => None,
            RoutingMode::Routed(precision) => Some(RoutePlan::build(&published, precision)),
        };
        let cmax = testbed.system.overlay().cmax();
        TrafficEngine {
            rng: seeded_rng(derive_seed(cfg.seed, 0x7AF1C)),
            dynamics,
            published,
            unpublished_events: 0,
            plan,
            cache: EvalCache::new(cmax),
            slice: Vec::new(),
            net: SimNetwork::new(),
            maintenance: Maintenance::new(cfg, &testbed, traffic.decisions),
            testbed,
            cfg: traffic,
            histogram: ForwardHistogram::new(),
            windows: Vec::new(),
            queries: 0,
            forwards: 0,
            flood_forwards: 0,
            returned: 0,
            missed: 0,
            churn_events: 0,
            repairs: 0,
            moves: 0,
            summary_events: 0,
            summary_updates_batched: 0,
            win_queries: 0,
            win_forwards: 0,
            win_returned: 0,
            win_missed: 0,
        }
    }

    /// Runs the full schedule and returns the report.
    pub fn run(mut self) -> TrafficReport {
        for t in 0..self.cfg.slices {
            self.maintain(t);
            self.query_slice(t);
        }
        self.finish()
    }

    /// The churn and repair ticks due before slice `t` is served.
    fn maintain(&mut self, t: usize) {
        if self.cfg.churn_every > 0 && t > 0 && t.is_multiple_of(self.cfg.churn_every) {
            self.churn_tick();
        }
        if self.cfg.repair_every > 0 && t > 0 && t.is_multiple_of(self.cfg.repair_every) {
            self.repair_tick(t);
        }
    }

    /// Closes the tail window and assembles the report.
    fn finish(mut self) -> TrafficReport {
        self.close_window(self.cfg.slices, 0);
        let final_scost = scost_normalized(&self.testbed.system);
        TrafficReport {
            mode: self.cfg.mode,
            slices: self.cfg.slices,
            peers: self.testbed.system.overlay().n_peers(),
            queries: self.queries,
            distinct_evaluations: self.cache.misses,
            forwards: self.forwards,
            flood_forwards: self.flood_forwards,
            returned_results: self.returned,
            missed_results: self.missed,
            churn_events: self.churn_events,
            repairs: self.repairs,
            moves: self.moves,
            summary_events: self.summary_events,
            summary_updates_batched: self.summary_updates_batched,
            summary_updates_per_event: self.net.messages(MsgKind::SummaryUpdate),
            histogram: self.histogram,
            windows: self.windows,
            fidelity: self.maintenance.into_fidelity().unwrap_or_default(),
            final_scost,
        }
    }

    /// One churn tick: the shared churn batch. The `System` hooks keep
    /// the live summaries exact; the published copy waits for the next
    /// repair tick.
    fn churn_tick(&mut self) {
        let touched = self.maintenance.churn_batch(
            &mut self.testbed,
            self.cfg.leaves_per_tick,
            self.cfg.joins_per_tick,
            &mut self.rng,
            &mut self.net,
        );
        self.cache.ensure_cmax(self.testbed.system.overlay().cmax());
        for &cid in &touched {
            self.cache.invalidate(cid);
        }
        self.churn_events += touched.len() as u64;
        self.unpublished_events += touched.len() as u64;
    }

    /// One repair tick: publish → rebuild the plan → repair. The
    /// repair's moves are published at the *next* tick, so queries
    /// between the two see the pre-repair content map — exactly the
    /// staleness a real publication cadence implies.
    fn repair_tick(&mut self, t: usize) {
        // Publish: one broadcast per cluster whose summary changed since
        // the last publication (events that cancelled out cost nothing).
        let system = &self.testbed.system;
        let theta = system.config().theta;
        for cid in system.summaries().changed_since(&self.published) {
            self.summary_updates_batched += theta.broadcast_messages(system.overlay().size(cid));
        }
        self.summary_events += std::mem::take(&mut self.unpublished_events);
        self.published.clone_from(system.summaries());
        self.plan = match self.cfg.mode {
            RoutingMode::Flood => None,
            RoutingMode::Routed(precision) => Some(RoutePlan::build(&self.published, precision)),
        };

        // Repair, then diff membership: every relocated peer invalidates
        // its old and new cluster's cache and counts toward the next
        // publication.
        let n_slots = self.testbed.system.overlay().n_slots();
        let before: Vec<Option<ClusterId>> = (0..n_slots)
            .map(|s| {
                self.testbed
                    .system
                    .overlay()
                    .cluster_of(PeerId::from_index(s))
            })
            .collect();
        // Observed decisions first observe every peer's workload under
        // the configured mode — with lossy summaries the peers learn a
        // degraded picture, and the repair quality follows it. The pass
        // runs on a scratch ledger: observation traffic is the query
        // stream already measured above, not extra messages.
        let _ = self
            .maintenance
            .observe(&self.testbed.system, self.cfg.mode);
        let outcome = self.maintenance.repair(
            &mut self.testbed.system,
            self.cfg.maintenance,
            self.cfg.protocol,
            &mut self.net,
            t,
        );
        let window_moves = outcome.total_moves();
        self.moves += window_moves;
        self.repairs += 1;
        for (slot, &was) in before.iter().enumerate() {
            let now = self
                .testbed
                .system
                .overlay()
                .cluster_of(PeerId::from_index(slot));
            if was != now {
                self.unpublished_events += 1;
                for cid in [was, now].into_iter().flatten() {
                    self.cache.invalidate(cid);
                }
            }
        }
        self.close_window(t, window_moves);
    }

    /// Routes one slice's sampled stream through the (possibly stale)
    /// plan. Each distinct query is evaluated through the cache in every
    /// live cluster, once per slice: the targets give the returned
    /// results, the clusters the plan skipped the missed ones, and both
    /// are weighted by the query's occurrence count.
    fn query_slice(&mut self, t: usize) {
        let mut runs = std::mem::take(&mut self.slice);
        self.dynamics
            .draw_slice(&self.cfg, t, &mut self.rng, &mut runs);
        let system = &self.testbed.system;
        let live: &[ClusterId] = system.overlay().non_empty_ids();
        let mut targets: Vec<ClusterId> = Vec::new();
        for &(sym, occ) in &runs {
            let query = Query::keyword(sym);
            let qid = system.index().qid(&query);
            match &self.plan {
                None => {
                    targets.clear();
                    targets.extend_from_slice(live);
                }
                Some(plan) => plan.route_into(&query, &mut targets),
            }
            let mut fanned = 0u64;
            let mut returned = 0u64;
            for &cid in &targets {
                // A stale plan may point at a cluster that emptied since
                // the last publication; like `route_to_clusters`, an
                // empty cluster is skipped without traffic.
                if system.overlay().cluster(cid).is_empty() {
                    continue;
                }
                fanned += 1;
                returned += self.cache.eval(system, cid, &query, qid);
            }
            // What flooding the *live* overlay would have found in the
            // clusters the plan skipped: lossy drops plus staleness.
            let mut missed = 0u64;
            for &cid in live {
                if targets.binary_search(&cid).is_ok() {
                    continue;
                }
                missed += self.cache.eval(system, cid, &query, qid);
            }
            self.histogram.record(fanned as usize, occ);
            self.queries += occ;
            self.forwards += fanned * occ;
            self.flood_forwards += live.len() as u64 * occ;
            self.returned += returned * occ;
            self.missed += missed * occ;
            self.win_queries += occ;
            self.win_forwards += fanned * occ;
            self.win_returned += returned * occ;
            self.win_missed += missed * occ;
        }
        self.slice = runs;
    }

    fn close_window(&mut self, slice: usize, moves: usize) {
        self.windows.push(TrafficWindow {
            slice,
            queries: self.win_queries,
            forwards: self.win_forwards,
            returned: self.win_returned,
            missed: self.win_missed,
            moves,
            scost: scost_normalized(&self.testbed.system),
        });
        self.win_queries = 0;
        self.win_forwards = 0;
        self.win_returned = 0;
        self.win_missed = 0;
    }
}

/// Builds and runs a [`TrafficEngine`] in one call.
pub fn run_traffic(cfg: &ExperimentConfig, traffic: &TrafficConfig) -> TrafficReport {
    TrafficEngine::new(cfg, traffic.clone()).run()
}

/// The `traffic_demo` scenario: 10 000 peers serving ≈1.3 M routed
/// query occurrences over 250 slices, with a 40 %-amplitude diurnal
/// swing, topic drift every 40 slices, five flash-crowd windows, churn
/// every 10 slices and repair (with summary publication) every 25.
/// Deterministic in `seed` — the golden suite pins the full report
/// digest and `traffic_scale` gates its metrics.
pub fn traffic_demo_config(seed: u64) -> (ExperimentConfig, TrafficConfig) {
    (
        ExperimentConfig::large(seed),
        TrafficConfig {
            slices: 250,
            queries_per_slice: 4_500,
            diurnal_period: 50,
            diurnal_amplitude_pct: 40,
            zipf_s: 0.9,
            drift_every: 40,
            flash_every: 60,
            flash_len: 5,
            flash_topics: 2,
            flash_boost_pct: 150,
            churn_every: 10,
            leaves_per_tick: 2,
            joins_per_tick: 2,
            repair_every: 25,
            maintenance: StrategyKind::Selfish,
            protocol: ProtocolConfig::builder()
                .epsilon(1e-3)
                .max_rounds(3)
                .build(),
            mode: RoutingMode::Routed(SummaryMode::Exact),
            decisions: DecisionSource::Oracle,
        },
    )
}

/// Miniature traffic scenario over the 40-peer testbed — the
/// debug-build tier: a few thousand occurrences, every dynamic
/// (diurnal, drift, flash, churn, repair) exercised.
pub fn traffic_small_config(seed: u64) -> (ExperimentConfig, TrafficConfig) {
    (
        ExperimentConfig::small(seed),
        TrafficConfig {
            slices: 24,
            queries_per_slice: 120,
            diurnal_period: 12,
            diurnal_amplitude_pct: 50,
            zipf_s: 1.0,
            drift_every: 6,
            flash_every: 10,
            flash_len: 2,
            flash_topics: 1,
            flash_boost_pct: 100,
            churn_every: 4,
            leaves_per_tick: 1,
            joins_per_tick: 1,
            repair_every: 8,
            maintenance: StrategyKind::Selfish,
            protocol: ProtocolConfig::builder()
                .epsilon(1e-3)
                .max_rounds(10)
                .build(),
            mode: RoutingMode::Routed(SummaryMode::Exact),
            decisions: DecisionSource::Oracle,
        },
    )
}

/// [`traffic_small_config`] with repair decisions driven by *observed*
/// statistics (decay 0.25 — the EMA path, folding a quarter of the
/// previous window's estimates into each new one). Debug-tier golden:
/// the report carries per-repair fidelity rows pinning observed-vs-
/// oracle agreement and repair quality.
pub fn traffic_small_observed_config(seed: u64) -> (ExperimentConfig, TrafficConfig) {
    let (cfg, mut traffic) = traffic_small_config(seed);
    traffic.decisions = DecisionSource::Observed { decay: 0.25 };
    (cfg, traffic)
}

#[cfg(test)]
mod tests {
    use rand::RngCore;

    use super::*;

    #[test]
    fn small_run_is_deterministic_and_consistent() {
        let (cfg, traffic) = traffic_small_config(11);
        let a = run_traffic(&cfg, &traffic);
        let b = run_traffic(&cfg, &traffic);
        assert_eq!(a, b, "two identical runs must agree field for field");
        assert_eq!(a.digest(), b.digest());
        assert!(a.queries > 1_000);
        assert_eq!(
            a.histogram.total_occurrences(),
            a.queries,
            "every occurrence lands in the fan-out histogram"
        );
        assert!(a.forwards <= a.flood_forwards);
        assert_eq!(a.windows.len(), a.repairs + 1, "repair windows + tail");
        let win_q: u64 = a.windows.iter().map(|w| w.queries).sum();
        assert_eq!(win_q, a.queries, "windows partition the stream");
    }

    #[test]
    fn flood_mode_misses_nothing_and_fans_maximally() {
        let (cfg, mut traffic) = traffic_small_config(13);
        traffic.mode = RoutingMode::Flood;
        let report = run_traffic(&cfg, &traffic);
        assert_eq!(report.missed_results, 0);
        assert_eq!(report.forwards, report.flood_forwards);
        assert_eq!(report.false_negative_rate(), 0.0);
    }

    #[test]
    fn routed_beats_flood_on_forwards_with_identical_repairs() {
        let (cfg, traffic) = traffic_small_config(17);
        let routed = run_traffic(&cfg, &traffic);
        let flood = run_traffic(
            &cfg,
            &TrafficConfig {
                mode: RoutingMode::Flood,
                ..traffic
            },
        );
        // Routing changes what queries cost, never what repair does.
        assert_eq!(routed.moves, flood.moves);
        assert_eq!(routed.final_scost.to_bits(), flood.final_scost.to_bits());
        assert_eq!(routed.queries, flood.queries);
        assert!(routed.forwards < flood.forwards);
    }

    #[test]
    fn lossy_summaries_induce_false_negatives() {
        let (cfg, mut traffic) = traffic_small_config(19);
        traffic.mode = RoutingMode::Routed(SummaryMode::TopK(2));
        let report = run_traffic(&cfg, &traffic);
        assert!(
            report.missed_results > 0,
            "a 2-term summary must drop something"
        );
        assert!(report.false_negative_rate() > 0.0);
        assert!(report.false_negative_rate() < 1.0);
    }

    #[test]
    fn batching_coalesces_summary_traffic() {
        let (cfg, traffic) = traffic_small_config(23);
        let report = run_traffic(&cfg, &traffic);
        assert!(report.summary_events > 0, "churn + moves are published");
        assert!(
            report.summary_updates_batched <= report.summary_updates_per_event,
            "batched {} > per-event {}",
            report.summary_updates_batched,
            report.summary_updates_per_event
        );
    }

    #[test]
    fn oracle_runs_carry_no_fidelity_rows() {
        let (cfg, traffic) = traffic_small_config(11);
        let report = run_traffic(&cfg, &traffic);
        assert!(report.fidelity.periods.is_empty());
        assert_eq!(report.fidelity.mean_agreement(), 1.0);
        assert_eq!(report.fidelity.final_scost_gap(), 0.0);
    }

    #[test]
    fn observed_runs_report_fidelity_and_stay_deterministic() {
        let (cfg, traffic) = traffic_small_observed_config(11);
        let a = run_traffic(&cfg, &traffic);
        let b = run_traffic(&cfg, &traffic);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let fidelity = &a.fidelity;
        assert_eq!(
            fidelity.periods.len(),
            a.repairs,
            "one fidelity row per repair"
        );
        // Exact routing gives lossless observations: the observed
        // decisions track the oracle closely and repairs stay effective.
        assert!(
            fidelity.mean_agreement() > 0.9,
            "agreement {}",
            fidelity.mean_agreement()
        );
        assert!(
            fidelity.final_scost_gap().abs() < 0.1,
            "gap {}",
            fidelity.final_scost_gap()
        );
    }

    #[test]
    fn lossy_observations_degrade_fidelity() {
        let (cfg, traffic) = traffic_small_observed_config(13);
        let exact = run_traffic(&cfg, &traffic);
        let lossy = run_traffic(
            &cfg,
            &TrafficConfig {
                mode: RoutingMode::Routed(SummaryMode::TopK(1)),
                ..traffic
            },
        );
        let (lossy, exact) = (&lossy.fidelity, &exact.fidelity);
        assert!(
            lossy.mean_agreement() <= exact.mean_agreement() + 1e-12,
            "lossy {} vs exact {}",
            lossy.mean_agreement(),
            exact.mean_agreement()
        );
    }

    #[test]
    fn eval_cache_equals_the_member_walk_on_both_paths() {
        // After a served slice (a warm cache), one churn batch and one
        // repair, every cache read equals walking the live cluster's
        // members: workload queries read the recall index, the rest
        // fall back to the walk itself.
        let (cfg, traffic) = traffic_small_config(2008);
        let mut engine = TrafficEngine::new(&cfg, traffic);
        engine.query_slice(0);
        engine.churn_tick();
        engine.repair_tick(1);
        assert!(engine.churn_events > 0);

        let system = &engine.testbed.system;
        let index = system.index();
        let outside: Vec<Query> = engine
            .dynamics
            .sample_slice(&engine.cfg, 1, &mut seeded_rng(5))
            .into_keys()
            .filter(|q| index.qid(q).is_none())
            .collect();
        assert!(!outside.is_empty(), "the stream reaches past the workloads");
        let mut answered = [0usize; 2]; // [index path, walk path]
        for query in index.queries().iter().chain(&outside) {
            let qid = index.qid(query);
            for &cid in system.overlay().non_empty_ids() {
                let walked: u64 = system
                    .overlay()
                    .cluster(cid)
                    .members()
                    .iter()
                    .map(|&peer| system.store().result_count(query, peer))
                    .sum();
                assert_eq!(
                    engine.cache.eval(system, cid, query, qid),
                    walked,
                    "{query:?} in {cid}"
                );
                answered[usize::from(qid.is_none())] += usize::from(walked > 0);
            }
        }
        assert!(
            answered.iter().all(|&n| n > 0),
            "both paths see results: {answered:?}"
        );
    }

    /// The cache [`EvalCache`] replaced: one map per cluster slot,
    /// cleared on invalidation, probed once per evaluation.
    pub(super) struct ReferenceCache {
        per_cluster: Vec<BTreeMap<Query, u64>>,
        pub(super) misses: u64,
    }

    impl ReferenceCache {
        fn new(cmax: usize) -> Self {
            ReferenceCache {
                per_cluster: vec![BTreeMap::new(); cmax],
                misses: 0,
            }
        }

        pub(super) fn ensure_cmax(&mut self, cmax: usize) {
            if self.per_cluster.len() < cmax {
                self.per_cluster.resize(cmax, BTreeMap::new());
            }
        }

        pub(super) fn invalidate(&mut self, cid: ClusterId) {
            self.per_cluster[cid.index()].clear();
        }

        pub(super) fn eval(&mut self, system: &System, cid: ClusterId, query: &Query) -> u64 {
            if let Some(&hit) = self.per_cluster[cid.index()].get(query) {
                return hit;
            }
            self.misses += 1;
            let results = match system.index().qid(query) {
                Some(qid) => system.index().cluster_mass_num(qid, cid),
                None => system
                    .overlay()
                    .cluster(cid)
                    .members()
                    .iter()
                    .map(|&peer| system.store().result_count(query, peer))
                    .sum(),
            };
            self.per_cluster[cid.index()].insert(query.clone(), results);
            results
        }
    }

    /// Runs `engine`'s schedule with the reference cache in lockstep:
    /// every evaluation must return the reference's value (checked in
    /// [`EvalCache::eval`]), and the miss counts must agree after every
    /// slice. Returns the report and how many cached values of queries
    /// that joined the index universe after they were cached moved
    /// over to the id row.
    fn run_in_lockstep(cfg: &ExperimentConfig, traffic: TrafficConfig) -> (TrafficReport, usize) {
        let mut engine = TrafficEngine::new(cfg, traffic);
        let cmax = engine.testbed.system.overlay().cmax();
        engine.cache.reference = Some(ReferenceCache::new(cmax));
        let mut moved_over = 0;
        for t in 0..engine.cfg.slices {
            engine.maintain(t);
            let index = engine.testbed.system.index();
            let entered: Vec<(usize, Query)> = engine
                .cache
                .per_cluster
                .iter()
                .enumerate()
                .filter_map(|(c, cluster)| Some((c, cluster.as_ref()?)))
                .flat_map(|(c, cluster)| cluster.outside.keys().map(move |q| (c, q)))
                .filter(|(_, q)| index.qid(q).is_some())
                .map(|(c, q)| (c, q.clone()))
                .collect();
            engine.query_slice(t);
            moved_over += entered
                .iter()
                .filter(|(c, q)| {
                    let cluster = engine.cache.per_cluster[*c].as_ref().unwrap();
                    !cluster.outside.contains_key(q)
                })
                .count();
            let reference = engine.cache.reference.as_ref().unwrap();
            assert_eq!(engine.cache.misses, reference.misses, "slice {t}");
        }
        (engine.finish(), moved_over)
    }

    #[test]
    fn eval_cache_agrees_with_the_map_cache_through_churn_and_repair() {
        for (cfg, traffic) in [
            traffic_small_config(2008),
            traffic_small_observed_config(2008),
        ] {
            let plain = run_traffic(&cfg, &traffic);
            let (report, moved_over) = run_in_lockstep(&cfg, traffic);
            assert_eq!(report, plain, "the lockstep run is the engine's run");
            assert!(report.churn_events > 0 && report.repairs > 0);
            assert!(
                moved_over > 0,
                "a query joined the index universe after it was cached"
            );
        }
    }

    #[test]
    #[ignore = "10 000-peer schedule: release-only, run with --include-ignored"]
    fn eval_cache_agrees_with_the_map_cache_on_the_traffic_demo_schedule() {
        let (cfg, traffic) = traffic_demo_config(2008);
        let (report, _) = run_in_lockstep(&cfg, traffic);
        assert!(report.churn_events > 0 && report.repairs > 0);
    }

    #[test]
    fn a_query_entering_the_universe_keeps_its_cached_value() {
        let (cfg, traffic) = traffic_small_config(2008);
        let mut engine = TrafficEngine::new(&cfg, traffic);
        engine.query_slice(0);
        let (cid, query, cached) = engine
            .cache
            .per_cluster
            .iter()
            .enumerate()
            .filter_map(|(c, cluster)| Some((c, cluster.as_ref()?)))
            .flat_map(|(c, cluster)| {
                cluster
                    .outside
                    .iter()
                    .map(move |(q, &n)| (ClusterId::from_index(c), q.clone(), n))
            })
            .max_by_key(|&(_, _, n)| n)
            .expect("the first slice reaches past the workloads");
        assert!(cached > 0, "a cached query with results");

        // A peer starts asking for it: the query joins the universe.
        let system = &mut engine.testbed.system;
        let peer = system.overlay().cluster(cid).members()[0];
        let mut workload = system.workloads()[peer.index()].clone();
        workload.add(query.clone(), 1);
        system.set_workload(peer, workload);
        let qid = system.index().qid(&query);
        assert!(qid.is_some());

        let misses = engine.cache.misses;
        assert_eq!(engine.cache.eval(system, cid, &query, qid), cached);
        assert_eq!(engine.cache.misses, misses, "the cached value moved over");
        assert_eq!(engine.cache.eval(system, cid, &query, qid), cached);
        assert_eq!(engine.cache.misses, misses);
        // …and an invalidation drops it like any other entry.
        engine.cache.invalidate(cid);
        assert_eq!(engine.cache.eval(system, cid, &query, qid), cached);
        assert_eq!(engine.cache.misses, misses + 1);
    }

    /// [`WorkloadDynamics::sample_slice`] as it was first written: one
    /// map insert per occurrence.
    fn per_occurrence_slice(
        dynamics: &WorkloadDynamics,
        cfg: &TrafficConfig,
        t: usize,
        rng: &mut StdRng,
    ) -> BTreeMap<Query, u64> {
        let mut out: BTreeMap<Query, u64> = BTreeMap::new();
        for _ in 0..dynamics.slice_rate(cfg, t) {
            let rank = dynamics.zipf.sample(rng);
            let cat = dynamics.topic_at(cfg, t, rank);
            *out.entry(dynamics.samplers[cat].sample(rng)).or_insert(0) += 1;
        }
        if let Some((window, extra)) = dynamics.flash_at(cfg, t) {
            for _ in 0..extra {
                let pick = rng.gen_range(0..cfg.flash_topics);
                let cat = (window * 7 + pick) % dynamics.n_categories;
                *out.entry(dynamics.samplers[cat].sample(rng)).or_insert(0) += 1;
            }
        }
        out
    }

    /// Holds slices `ts` of `traffic` to the per-occurrence oracle:
    /// `sample_slice` returns its map, the engine's runs are that map's
    /// entries in order, and both leave the RNG where the oracle does.
    fn assert_sampling_matches_the_oracle(
        dynamics: &WorkloadDynamics,
        traffic: &TrafficConfig,
        ts: impl IntoIterator<Item = usize>,
    ) {
        let mut runs = Vec::new();
        for t in ts {
            let seed = derive_seed(0x5A3, t as u64);
            let (mut a, mut b, mut c) = (seeded_rng(seed), seeded_rng(seed), seeded_rng(seed));
            let oracle = per_occurrence_slice(dynamics, traffic, t, &mut a);
            assert_eq!(
                dynamics.sample_slice(traffic, t, &mut b),
                oracle,
                "slice {t}"
            );
            dynamics.draw_slice(traffic, t, &mut c, &mut runs);
            let queries: Vec<(Query, u64)> = runs
                .iter()
                .map(|&(sym, occ)| (Query::keyword(sym), occ))
                .collect();
            let entries: Vec<(Query, u64)> = oracle.into_iter().collect();
            assert_eq!(queries, entries, "slice {t}: the engine's runs");
            let next = a.next_u64();
            assert_eq!(b.next_u64(), next, "slice {t}: sample_slice's RNG");
            assert_eq!(c.next_u64(), next, "slice {t}: the engine's RNG");
        }
    }

    /// Slices of `traffic` that open a flash window, take a drift step,
    /// and sit at both diurnal extremes.
    fn shaped_slices(dynamics: &WorkloadDynamics, traffic: &TrafficConfig) -> Vec<usize> {
        let period = traffic.diurnal_period;
        let rates: Vec<u64> = (0..period)
            .map(|t| dynamics.slice_rate(traffic, t))
            .collect();
        let peak = (0..period).max_by_key(|&t| rates[t]).unwrap();
        let trough = (0..period).min_by_key(|&t| rates[t]).unwrap();
        let flash = traffic.flash_every;
        let drift = traffic.drift_every;
        assert!(dynamics.flash_at(traffic, flash).is_some());
        assert_ne!(
            dynamics.topic_at(traffic, drift, 0),
            dynamics.topic_at(traffic, drift - 1, 0)
        );
        assert!(
            rates[peak] > traffic.queries_per_slice && rates[trough] < traffic.queries_per_slice
        );
        vec![trough, peak, flash, flash + 1, drift - 1, drift]
    }

    #[test]
    fn slice_sampling_equals_the_per_occurrence_oracle() {
        for (cfg, traffic) in [traffic_small_config(2008), traffic_demo_config(2008)] {
            let testbed = ideal_scenario1_system(&cfg);
            let dynamics = WorkloadDynamics::new(&testbed, traffic.zipf_s);
            let ts = shaped_slices(&dynamics, &traffic);
            assert_sampling_matches_the_oracle(&dynamics, &traffic, ts);
        }
    }

    #[test]
    #[ignore = "10 000-peer testbed, 250 slices: release-only, run with --include-ignored"]
    fn slice_sampling_equals_the_oracle_on_every_traffic_demo_slice() {
        let (cfg, traffic) = traffic_demo_config(2008);
        let testbed = ideal_scenario1_system(&cfg);
        let dynamics = WorkloadDynamics::new(&testbed, traffic.zipf_s);
        assert_sampling_matches_the_oracle(&dynamics, &traffic, 0..traffic.slices);
    }

    #[test]
    fn dynamics_shapes_are_integer_exact() {
        let (cfg, traffic) = traffic_small_config(29);
        let tb = ideal_scenario1_system(&cfg);
        let dyn_ = WorkloadDynamics::new(&tb, traffic.zipf_s);
        // Triangle wave: extremes at ±amplitude, exact integers.
        let rates: Vec<u64> = (0..traffic.diurnal_period)
            .map(|t| dyn_.slice_rate(&traffic, t))
            .collect();
        let base = traffic.queries_per_slice;
        let amp = base * traffic.diurnal_amplitude_pct / 100;
        assert_eq!(rates.iter().copied().max(), Some(base + amp));
        assert_eq!(rates.iter().copied().min(), Some(base - amp));
        // Drift rotates the rank→topic mapping one step per interval.
        assert_eq!(dyn_.topic_at(&traffic, 0, 0), 0);
        assert_eq!(
            dyn_.topic_at(&traffic, traffic.drift_every, 0),
            1 % tb.holdout.len()
        );
        // Flash windows open exactly on schedule.
        assert!(dyn_.flash_at(&traffic, 0).is_some());
        assert!(dyn_.flash_at(&traffic, traffic.flash_len).is_none());
        let (w, extra) = dyn_.flash_at(&traffic, traffic.flash_every).unwrap();
        assert_eq!(w, 1);
        assert_eq!(extra, base * traffic.flash_boost_pct / 100);
    }

    #[test]
    fn slice_sampling_is_coalesced_and_totals_match_rate() {
        let (cfg, traffic) = traffic_small_config(31);
        let tb = ideal_scenario1_system(&cfg);
        let dyn_ = WorkloadDynamics::new(&tb, traffic.zipf_s);
        let mut rng = seeded_rng(1);
        let t = 1; // no flash at t=1 (flash_len=2 ⇒ t=0,1 are in window)
        let slice = dyn_.sample_slice(&traffic, 3, &mut rng);
        let _ = t;
        let drawn: u64 = slice.values().sum();
        assert_eq!(drawn, dyn_.slice_rate(&traffic, 3));
        assert!(slice.len() as u64 <= drawn, "coalescing never expands");
    }
}
