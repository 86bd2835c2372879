//! The *observed* statistics path (§3.1).
//!
//! The paper's strategies are defined over statistics a peer can gather
//! locally during a period `T`: every query result is annotated with the
//! answering cluster's `cid`, so "each peer can keep track of its recall
//! with respect to all clusters in the system", and a peer also "keeps
//! track of the number of results it sends to queries coming from a
//! particular cluster" (the contribution measure). [`simulate_period`]
//! routes every peer's workload through the overlay and accumulates
//! exactly those observations as plain data; [`ObservedStats`] folds
//! them and is the one estimator. Under flood routing its estimates
//! coincide with the oracle values computed from the [`RecallIndex`]
//! (property-tested in `tests/`).
//!
//! Every peer that issues a query observes the same cid annotations for
//! it (content is fixed within the period), so [`PeriodObservations`]
//! stores each distinct query's evaluation once. A peer's observations
//! are a row of `(query, weight, own results)` entries pointing at those
//! shared evaluations, and its served credit is a row of
//! `(requesting cluster, credit)` pairs; all peers' rows sit back to
//! back in flat arrays. [`PeriodObservations::of`] reads a peer's row as
//! [`QueryObservation`] views.
//!
//! # Examples
//!
//! A peer whose query is answered by another cluster observes exactly
//! that cluster in its cid annotations:
//!
//! ```
//! use recluster_core::{simulate_period, GameConfig, System};
//! use recluster_overlay::{ContentStore, Overlay, SimNetwork};
//! use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};
//!
//! let ov = Overlay::singletons(2);
//! let mut store = ContentStore::new(2);
//! store.add(PeerId(1), Document::new(vec![Sym(7)]));
//! let mut w = Workload::new();
//! w.add(Query::keyword(Sym(7)), 2);
//! let sys = System::new(ov, store, vec![w, Workload::new()], GameConfig::default());
//!
//! let mut net = SimNetwork::new();
//! let obs = simulate_period(&sys, &mut net);
//! let record = obs.of(PeerId(0)).next().expect("p0 issues one query");
//! assert_eq!(record.cluster_count(ClusterId(1)), 1);
//! assert_eq!(record.total, 1);
//! assert!(net.total_messages() > 0);
//! ```

use std::collections::HashMap;
use std::ops::Range;

use recluster_overlay::{
    charge_cluster_answer, MsgKind, Overlay, RoutePlan, RoutingMode, SimNetwork, SummaryMode,
};
use recluster_types::{ClusterId, PeerId, Query, Workload};

use crate::recall::{QueryId, RecallIndex};

use crate::costcache::CostCache;
use crate::equilibrium::{candidate_order, COST_EPS};
use crate::system::System;
use crate::view::SystemRead;

/// One peer's observations about one of its distinct queries: a view
/// into a [`PeriodObservations`], which stores the query and its cid
/// annotations once for every peer that issued it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryObservation<'a> {
    /// The query.
    pub query: &'a Query,
    /// Relative frequency of the query in the peer's workload.
    pub weight: f64,
    /// Results received per answering cluster (cid annotations), sorted
    /// by cluster id with no duplicates, read from the query's mass
    /// cells.
    pub per_cluster: &'a [(ClusterId, u64)],
    /// Total results received across all clusters.
    pub total: u64,
    /// Results the peer itself holds for the query (known locally).
    pub own: u64,
}

impl QueryObservation<'_> {
    /// Results received from cluster `cid` (zero when none).
    pub fn cluster_count(&self, cid: ClusterId) -> u64 {
        cluster_count(self.per_cluster, cid).unwrap_or(0)
    }
}

/// The value of `cid` in an ascending `(cluster, value)` row.
fn cluster_count<T: Copy>(row: &[(ClusterId, T)], cid: ClusterId) -> Option<T> {
    row.binary_search_by_key(&cid, |&(c, _)| c)
        .ok()
        .map(|i| row[i].1)
}

/// Observations accumulated by all peers over one period `T`.
///
/// Each distinct query the period evaluated is stored once, with its
/// cid annotations in one flat cell array; per peer there is one row of
/// query records and one row of served credit. Departed slots have
/// empty rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodObservations {
    /// The distinct queries the period evaluated, ascending by qid.
    queries: Vec<EvaluatedQuery>,
    /// Every evaluated query's `(cluster, results)` annotations, each
    /// query's run ascending by cluster id.
    cells: Vec<(ClusterId, u64)>,
    /// Per slot: one record per distinct query in its workload, in
    /// workload order.
    observations: Rows<ObservationRow>,
    /// Per slot: demand-weighted results served to each requesting
    /// cluster's members (contribution numerators), ascending by
    /// cluster. Sparse: a peer serves few distinct clusters, and a dense
    /// peers × `Cmax` matrix would be quadratic in system size.
    served: Rows<(ClusterId, f64)>,
    /// Per slot: total demand-weighted results served.
    served_total: Vec<f64>,
    /// Snapshot of cluster sizes (peers learn them from representatives).
    sizes: Vec<usize>,
    n_peers: usize,
}

/// One distinct query's evaluation in a period, shared by every peer
/// that issued it.
#[derive(Debug, Clone, PartialEq)]
struct EvaluatedQuery {
    query: Query,
    /// Total results of the evaluation.
    total: u64,
    /// Its run of `PeriodObservations::cells`.
    cells: Range<usize>,
}

/// One peer's record of one of its distinct queries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ObservationRow {
    /// Position of the query in `PeriodObservations::queries`.
    query: u32,
    /// Relative frequency of the query in the peer's workload.
    weight: f64,
    /// Results the peer itself holds for the query.
    own: u64,
}

/// Per-slot rows stored back to back in one array: slot `s` owns
/// `items[offsets[s]..offsets[s + 1]]`. A million peers' rows are two
/// allocations, not a million.
#[derive(Debug, Clone, PartialEq)]
struct Rows<T> {
    items: Vec<T>,
    /// One more offset than there are slots, ascending from 0.
    offsets: Vec<usize>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    fn n_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The row of `slot`; `None` past the last slot.
    fn get(&self, slot: usize) -> Option<&[T]> {
        let end = *self.offsets.get(slot + 1)?;
        Some(&self.items[self.offsets[slot]..end])
    }

    /// The row of `slot`.
    ///
    /// # Panics
    /// Panics past the last slot.
    fn row(&self, slot: usize) -> &[T] {
        &self.items[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// Ends the current slot's row: it holds the items pushed since the
    /// previous call.
    fn end_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    /// Appends `other`'s rows after this one's.
    fn append(&mut self, other: Rows<T>) {
        let base = self.items.len();
        self.items.extend(other.items);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&end| base + end));
    }

    /// The same rows with every item mapped through `f`.
    fn map<U>(&self, f: impl FnMut(&T) -> U) -> Rows<U> {
        Rows {
            items: self.items.iter().map(f).collect(),
            offsets: self.offsets.clone(),
        }
    }
}

/// What routed query evaluation did over one period: the forwards it
/// spent against what flooding would have spent, and (for lossy
/// summaries) the results it missed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingReport {
    /// The routing mode the period ran under.
    pub mode: RoutingMode,
    /// Query occurrences routed (workload counts, not distinct queries).
    pub query_events: u64,
    /// `QueryForward` messages charged (occurrence-weighted).
    pub forwards: u64,
    /// `QueryForward` messages flooding would have charged.
    pub flood_forwards: u64,
    /// Results returned to requesters (occurrence-weighted).
    pub returned_results: u64,
    /// Results flooding would have returned but routing missed —
    /// nonzero only under lossy summaries (occurrence-weighted).
    pub missed_results: u64,
}

impl RoutingReport {
    /// Fraction of flood results the routed run failed to return. Zero
    /// under flood and exact-summary routing (the no-false-negatives
    /// guarantee, property-tested in `tests/prop_routing.rs`).
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
        if self.query_events == 0 {
            0.0
        } else {
            self.forwards as f64 / self.query_events as f64
        }
    }

    /// How many times fewer forwards than flooding (≥ 1.0; 1.0 under
    /// flood; infinite when routing spent nothing where flood would
    /// have spent something).
    pub fn forward_reduction(&self) -> f64 {
        if self.flood_forwards == 0 {
            1.0
        } else if self.forwards == 0 {
            f64::INFINITY
        } else {
            self.flood_forwards as f64 / self.forwards as f64
        }
    }
}

/// Occurrence-weighted distribution of per-query forward counts: how
/// many clusters each query occurrence was forwarded to. The tail of
/// this distribution (p99, max) is the per-query latency proxy the
/// traffic engine reports — a mean hides the conjunctive queries that
/// still fan out widely.
///
/// Counts are exact integers, so two runs of the same seeded scenario
/// produce identical histograms; quantiles are defined as the smallest
/// forward count covering the requested fraction of occurrences
/// (nearest-rank), which keeps them integers too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardHistogram {
    /// `counts[f]` = query occurrences forwarded to exactly `f` clusters.
    counts: Vec<u64>,
    /// Total occurrences recorded.
    total: u64,
}

impl ForwardHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `occurrences` query occurrences that were each forwarded
    /// to `forwards` clusters.
    pub fn record(&mut self, forwards: usize, occurrences: u64) {
        if occurrences == 0 {
            return;
        }
        if self.counts.len() <= forwards {
            self.counts.resize(forwards + 1, 0);
        }
        self.counts[forwards] += occurrences;
        self.total += occurrences;
    }

    /// Total query occurrences recorded.
    pub fn total_occurrences(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile: the smallest forward count `f` such that
    /// at least `⌈q · total⌉` occurrences were forwarded to `f` or fewer
    /// clusters. Zero for an empty histogram. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (f, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= need {
                return f as u64;
            }
        }
        self.max()
    }

    /// Median forward count.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile forward count — the tail-latency proxy.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The widest fan-out any occurrence paid.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |f| f as u64)
    }
}

/// Routes every live peer's workload through the overlay (flooding all
/// clusters, as the paper's evaluation does) and collects the per-peer
/// observations. Network traffic is charged per query *occurrence*.
pub fn simulate_period(system: &System, net: &mut SimNetwork) -> PeriodObservations {
    simulate_period_routed(system, net, RoutingMode::Flood).0
}

/// [`simulate_period`] under an explicit [`RoutingMode`].
///
/// Under [`RoutingMode::Flood`] every query visits every non-empty
/// cluster. Under [`RoutingMode::Routed`] a [`RoutePlan`] built from the
/// system's cluster summaries forwards each query only to clusters whose
/// summary matches; with exact summaries the observations (and therefore
/// every recall/contribution estimate derived from them) are
/// **bit-identical** to flooding while the `QueryForward` traffic
/// shrinks by the forward-reduction factor. With lossy summaries the
/// returned [`RoutingReport`] quantifies the missed results.
pub fn simulate_period_routed(
    system: &System,
    net: &mut SimNetwork,
    mode: RoutingMode,
) -> (PeriodObservations, RoutingReport) {
    let core = run_period_core(system, net, mode, true);
    (
        core.observations
            .expect("the observation walk collects observations"),
        core.report,
    )
}

/// Traffic-only period: charges `net` and returns the [`RoutingReport`]
/// **bit-identical** to [`simulate_period_routed`] under the same state,
/// while skipping the per-peer observation rows and the served-credit
/// pass entirely. This is what the churn driver's query-traffic
/// measurement wants: the oracle repair path never reads observations,
/// so building their per-peer rows would be wasted work.
///
/// Both walks share one per-query target loop: the traffic a target
/// cluster costs (one forward, one return per answering member) and the
/// results it returns are in the query's [`RecallIndex`] mass cell
/// ([`RecallIndex::cluster_answer`]), so each target is one lookup and
/// neither walk visits a cluster's members.
pub fn simulate_period_traffic(
    system: &System,
    net: &mut SimNetwork,
    mode: RoutingMode,
) -> RoutingReport {
    run_period_core(system, net, mode, false).report
}

/// One distinct query's shared evaluation — identical for every holder
/// (content is fixed within the period). Its counts become the query's
/// run of `PeriodObservations::cells`, and the served pass reads its
/// routed clusters and demand buckets.
struct QueryEval {
    /// Per-answering-cluster result counts, ascending by cluster id
    /// (empty on the traffic-only walk).
    per_cluster: Vec<(ClusterId, u64)>,
    /// Total results of the single evaluation.
    total: u64,
    /// Live demand bucketed by requesting cluster index, ascending.
    demand_buckets: Vec<(usize, u64)>,
}

/// Everything one distinct query's evaluation produces before any
/// shared state is touched: the unscaled message ledger, the shared
/// evaluation, and the raw (per-single-occurrence) report counters.
/// Packets are pure per-query values, so they can be produced on any
/// thread; folding them into the network and report happens in one
/// sequential qid-order merge, which makes the sharded walk
/// byte-identical to the sequential one by construction.
struct QueryPacket {
    /// Total live demand (occurrences summed over live holders).
    total_demand: u64,
    /// The single-evaluation message ledger (unscaled).
    ledger: SimNetwork,
    eval: QueryEval,
    /// `QueryForward` messages of the single evaluation.
    forwards: u64,
    /// Results a lossy summary skipped (raw; demand-scaled at merge).
    missed: u64,
}

/// Reusable per-worker evaluation buffers: a scratch ledger, the routed
/// target list, and a dense per-cluster demand accumulator plus its
/// touched-slot list (reset in O(touched), not O(cmax)). The sharded
/// path builds one per range; the sequential path reuses one for the
/// whole period.
struct EvalBufs {
    scratch: SimNetwork,
    routed_targets: Vec<ClusterId>,
    demand_acc: Vec<u64>,
    demand_touched: Vec<usize>,
}

impl EvalBufs {
    fn new(cmax: usize) -> Self {
        EvalBufs {
            scratch: SimNetwork::new(),
            routed_targets: Vec::new(),
            demand_acc: vec![0; cmax],
            demand_touched: Vec::new(),
        }
    }
}

/// The period-constant state every distinct query's evaluation reads:
/// membership and content change only *between* periods, so the
/// non-empty cluster list and the route plan are built once.
struct PeriodCtx<'a> {
    overlay: &'a Overlay,
    workloads: &'a [Workload],
    index: &'a RecallIndex,
    cache: &'a CostCache,
    non_empty: &'a [ClusterId],
    plan: Option<&'a RoutePlan>,
    lossy: bool,
    /// Whether the walk collects observations (per-cluster counts and
    /// served credit) or only charges traffic.
    collect: bool,
}

/// One contiguous slot range's share of a period's per-peer rows: what
/// the slot pass produces on one worker, concatenated in range order.
struct SlotRows {
    observations: Rows<ObservationRow>,
    served: Rows<(ClusterId, f64)>,
    served_total: Vec<f64>,
}

impl SlotRows {
    fn new() -> Self {
        SlotRows {
            observations: Rows::new(),
            served: Rows::new(),
            served_total: Vec::new(),
        }
    }

    /// Appends `other`'s rows, the next slot range, after this one's.
    fn append(&mut self, other: SlotRows) {
        self.observations.append(other.observations);
        self.served.append(other.served);
        self.served_total.extend(other.served_total);
    }
}

impl PeriodCtx<'_> {
    /// Evaluates one distinct query. Pure in `qid` given the shared
    /// read-only captures — the sharding contract of
    /// [`crate::shard::map_ranges`]. Returns `None` when the query has
    /// no live demand (the period never routes it). Buffers in `bufs`
    /// are returned to their all-zeros/empty state before returning, so
    /// a fresh `EvalBufs` and a reused one are indistinguishable.
    fn eval_query(&self, qid: usize, bufs: &mut EvalBufs) -> Option<QueryPacket> {
        let query = &self.index.queries()[qid];
        // Live demand for this query, bucketed by requesting cluster.
        // Workload entries always carry ≥ 1 occurrence, so "has a live
        // holder" and "has live demand" coincide; holder order does not
        // matter — the buckets are exact integer sums.
        let mut total_demand: u64 = 0;
        for &slot in self.cache.holders_of(qid) {
            let holder = PeerId::from_index(slot as usize);
            let Some(rcid) = self.overlay.cluster_of(holder) else {
                continue; // departed peers issue no queries
            };
            let count = self.workloads[slot as usize].count(query);
            total_demand += count;
            if bufs.demand_acc[rcid.index()] == 0 {
                bufs.demand_touched.push(rcid.index());
            }
            bufs.demand_acc[rcid.index()] += count;
        }
        if total_demand == 0 {
            for &ci in &bufs.demand_touched {
                bufs.demand_acc[ci] = 0;
            }
            bufs.demand_touched.clear();
            return None;
        }
        bufs.demand_touched.sort_unstable();

        // Evaluate once; the caller charges the network for every
        // occurrence of every live holder (the ledger totals are linear,
        // so one `merge_scaled` by the demand sum equals the per-holder
        // walk). Each target's mass cell holds its result total and
        // answering-member count — the ledger and counts a walk of its
        // members would produce, in one lookup. Targets ascend, so
        // `per_cluster` does too.
        bufs.scratch.reset();
        let targets: &[ClusterId] = match self.plan {
            None => self.non_empty,
            Some(plan) => {
                plan.route_into(query, &mut bufs.routed_targets);
                &bufs.routed_targets
            }
        };
        let qid_key = qid as QueryId;
        let mut per_cluster = Vec::new();
        let mut total = 0u64;
        for &cid in targets {
            if self.overlay.cluster(cid).is_empty() {
                continue; // like `route_to_clusters`: no traffic
            }
            let (answered, holders) = self.index.cluster_answer(qid_key, cid);
            charge_cluster_answer(&mut bufs.scratch, query, u64::from(holders));
            total += answered;
            if self.collect && answered > 0 {
                per_cluster.push((cid, answered));
            }
        }
        let forwards = bufs.scratch.messages(MsgKind::QueryForward);
        let mut missed = 0u64;
        if self.lossy {
            // Accounting only (uncharged): what flooding would have found
            // in the clusters the lossy summary skipped.
            for &cid in self.non_empty {
                if targets.binary_search(&cid).is_err() {
                    missed += self.index.cluster_mass_num(qid_key, cid);
                }
            }
        }

        let demand_buckets: Vec<(usize, u64)> = bufs
            .demand_touched
            .iter()
            .map(|&ci| (ci, bufs.demand_acc[ci]))
            .collect();
        for &ci in &bufs.demand_touched {
            bufs.demand_acc[ci] = 0;
        }
        bufs.demand_touched.clear();

        Some(QueryPacket {
            total_demand,
            ledger: std::mem::replace(&mut bufs.scratch, SimNetwork::new()),
            eval: QueryEval {
                per_cluster,
                total,
                demand_buckets,
            },
            forwards,
            missed,
        })
    }

    /// The observations of a whole period from its per-query `evals`
    /// (indexed by qid): one slot pass builds every peer's rows (sharded
    /// into slot ranges when `shard`), then each evaluation moves into
    /// the shared query records.
    fn observe(&self, evals: Vec<Option<QueryEval>>, shard: bool) -> PeriodObservations {
        // Each evaluated query's position among the period's records.
        let mut n_evaluated = 0u32;
        let position: Vec<Option<u32>> = evals
            .iter()
            .map(|eval| {
                eval.as_ref().map(|_| {
                    n_evaluated += 1;
                    n_evaluated - 1
                })
            })
            .collect();
        let mut parts = walk(self.overlay.n_slots(), shard, |range| {
            self.slot_rows(range, &evals, &position)
        })
        .into_iter();
        let mut rows = parts.next().unwrap_or_else(SlotRows::new);
        for part in parts {
            rows.append(part);
        }

        let mut queries = Vec::with_capacity(n_evaluated as usize);
        let mut cells = Vec::new();
        for (qid, eval) in evals.into_iter().enumerate() {
            let Some(eval) = eval else { continue };
            let start = cells.len();
            cells.extend(eval.per_cluster);
            queries.push(EvaluatedQuery {
                query: self.index.queries()[qid].clone(),
                total: eval.total,
                cells: start..cells.len(),
            });
        }
        PeriodObservations {
            queries,
            cells,
            observations: rows.observations,
            served: rows.served,
            served_total: rows.served_total,
            sizes: self.overlay.sizes(),
            n_peers: self.overlay.n_peers(),
        }
    }

    /// The rows of every slot in `range`: a live peer's observation row
    /// (its workload's `(qid, weight)` pairs in workload order, pointed
    /// at the query's `position`, with its own result count) and its
    /// served credit. Pure in `range`, like [`PeriodCtx::eval_query`].
    /// Credit accumulates in a dense per-cluster buffer with a touched
    /// list, both reset after each peer.
    fn slot_rows(
        &self,
        range: Range<usize>,
        evals: &[Option<QueryEval>],
        position: &[Option<u32>],
    ) -> SlotRows {
        let mut out = SlotRows::new();
        let mut credit = vec![0.0; self.overlay.cmax()];
        let mut touched = Vec::new();
        for slot in range {
            let peer = PeerId::from_index(slot);
            let mut total = 0.0;
            // Departed peers issue and answer nothing: empty rows.
            if let Some(home) = self.overlay.cluster_of(peer) {
                for &(qid, weight) in self.index.workload_of(peer) {
                    out.observations.items.push(ObservationRow {
                        query: position[qid as usize]
                            .expect("a live holder implies the query was evaluated"),
                        weight,
                        own: self.index.result(qid, peer),
                    });
                }
                total = self.served_by(slot, home, evals, &mut credit, &mut touched);
                touched.sort_unstable();
                for &ci in &touched {
                    out.served
                        .items
                        .push((ClusterId::from_index(ci), credit[ci]));
                    credit[ci] = 0.0;
                }
                touched.clear();
            }
            out.observations.end_row();
            out.served.end_row();
            out.served_total.push(total);
        }
        out
    }

    /// Credits the live peer at `slot` in `home` for what it served —
    /// the Eq. 6 numerators per requesting cluster, weighted by query
    /// occurrences — into `credit` (indexed by cluster, with each newly
    /// credited cluster added to `touched`), and returns its total.
    ///
    /// The peer answers every routed query it holds results for: its
    /// [`RecallIndex::results_of`] row, minus the queries with no live
    /// demand and those the route never sent to `home` (a lossy
    /// summary). Results a peer finds in its own store are not "sent"
    /// and carry no contribution credit, so its own occurrences leave
    /// its home-cluster bucket. The row ascends by qid and the buckets
    /// by cluster, which is the order a qid-order merge over answering
    /// peers credits this peer in: each cluster's sum is bit-identical
    /// to it by construction, not only by integer exactness.
    fn served_by(
        &self,
        slot: usize,
        home: ClusterId,
        evals: &[Option<QueryEval>],
        credit: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> f64 {
        let mut total = 0.0;
        for &(qid, count) in self.index.results_of(PeerId::from_index(slot)) {
            let Some(eval) = &evals[qid as usize] else {
                continue; // no live demand: the period never routes it
            };
            if cluster_count(&eval.per_cluster, home).is_none() {
                continue; // not routed to `home`
            }
            for &(ci, bucket) in &eval.demand_buckets {
                let mut demand = bucket;
                if ci == home.index() {
                    demand -= self.workloads[slot].count(&self.index.queries()[qid as usize]);
                }
                if demand > 0 {
                    // Result counts are ≥ 1, so every credit is positive
                    // and a zero cell is one this peer has not credited.
                    let amount = demand as f64 * count as f64;
                    if credit[ci] == 0.0 {
                        touched.push(ci);
                    }
                    credit[ci] += amount;
                    total += amount;
                }
            }
        }
        total
    }
}

/// The shared period walk behind both public variants: evaluate every
/// distinct query (sharded across the rayon shim when the system is
/// large) and fold the packets into the network and report in one
/// sequential qid-order merge; when `collect`, turn the per-query evals
/// into the period's observations and credit every live peer for what
/// it served.
struct PeriodCore {
    observations: Option<PeriodObservations>,
    report: RoutingReport,
}

fn run_period_core(
    system: &System,
    net: &mut SimNetwork,
    mode: RoutingMode,
    collect: bool,
) -> PeriodCore {
    let overlay = system.overlay();
    let index = system.index();
    let n_slots = overlay.n_slots();
    let cmax = overlay.cmax();
    // The flushed cost cache supplies the query → holder lists: the
    // period walks each *distinct* query once instead of once per
    // holder, which removes the O(peers × workload) evaluation factor —
    // at scale most peers share their queries with thousands of others.
    let cache_ref = system.cost_cache();
    let non_empty: Vec<ClusterId> = overlay.non_empty_ids().to_vec();
    let plan = match mode {
        RoutingMode::Flood => None,
        RoutingMode::Routed(precision) => Some(RoutePlan::build(system.summaries(), precision)),
    };
    let ctx = PeriodCtx {
        overlay,
        workloads: system.workloads(),
        index,
        cache: &cache_ref,
        non_empty: &non_empty,
        plan: plan.as_ref(),
        lossy: matches!(mode, RoutingMode::Routed(SummaryMode::TopK(_))),
        collect,
    };
    let n_queries = index.n_queries();

    // Each distinct query's evaluation reads only period-constant state,
    // so the walk shards into contiguous qid ranges with per-range
    // buffers; the slot pass shards into slot ranges. The threshold
    // keys on the *slot* count for both: the demand bucketing visits
    // every holder of a query, so a small distinct-query set over a huge
    // overlay is exactly the case worth sharding.
    let shard = crate::shard::should_shard(n_slots);
    let packets = walk(n_queries, shard, |range| {
        let mut bufs = EvalBufs::new(cmax);
        range
            .map(|qid| ctx.eval_query(qid, &mut bufs))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten();

    let mut report = RoutingReport {
        mode,
        query_events: 0,
        forwards: 0,
        flood_forwards: 0,
        returned_results: 0,
        missed_results: 0,
    };
    let mut evals: Vec<Option<QueryEval>> = Vec::with_capacity(if collect { n_queries } else { 0 });
    for packet in packets {
        if let Some(p) = &packet {
            net.merge_scaled(&p.ledger, p.total_demand);
            report.query_events += p.total_demand;
            report.flood_forwards += non_empty.len() as u64 * p.total_demand;
            report.forwards += p.forwards * p.total_demand;
            report.missed_results += p.missed * p.total_demand;
            report.returned_results += p.eval.total * p.total_demand;
        }
        if collect {
            evals.push(packet.map(|p| p.eval));
        }
    }

    PeriodCore {
        observations: collect.then(|| ctx.observe(evals, shard)),
        report,
    }
}

/// Runs `f` over `0..len` — over contiguous ranges of the rayon shim's
/// pool when `shard`, else as one range — and returns the per-range
/// results in index order, so both forms concatenate to the same bytes
/// (see [`crate::shard`]).
fn walk<R: Send>(len: usize, shard: bool, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    if shard {
        crate::shard::map_ranges(len, f)
    } else {
        vec![f(0..len)]
    }
}

impl PeriodObservations {
    /// The query observations of a peer, one per distinct query of its
    /// workload in workload order (none for a departed peer).
    ///
    /// # Panics
    /// Panics if `peer` has no slot in the observed overlay.
    pub fn of(&self, peer: PeerId) -> impl ExactSizeIterator<Item = QueryObservation<'_>> + '_ {
        self.observations.row(peer.index()).iter().map(|row| {
            let evaluated = &self.queries[row.query as usize];
            QueryObservation {
                query: &evaluated.query,
                weight: row.weight,
                per_cluster: &self.cells[evaluated.cells.clone()],
                total: evaluated.total,
                own: row.own,
            }
        })
    }

    /// The demand-weighted results `peer` served to each requesting
    /// cluster's members (the contribution numerators of Eq. 6),
    /// ascending by cluster, with only the clusters it credited.
    ///
    /// # Panics
    /// Panics if `peer` has no slot in the observed overlay.
    pub fn served(&self, peer: PeerId) -> &[(ClusterId, f64)] {
        self.served.row(peer.index())
    }

    /// The total demand-weighted results `peer` served.
    ///
    /// # Panics
    /// Panics if `peer` has no slot in the observed overlay.
    pub fn served_total(&self, peer: PeerId) -> f64 {
        self.served_total[peer.index()]
    }
}

/// The observed-cost estimator: a multi-period accumulator over
/// [`PeriodObservations`] with exponential decay — the statistics state
/// a long-lived peer actually maintains (§3.1: observations are
/// refreshed every period `T`). Every observed estimate in the system
/// (`pcost`, contribution, the selfish choice) is computed here; a
/// single period is estimated by absorbing it with decay 0.
///
/// Folding is an exponential moving average with retention
/// `decay ∈ [0, 1)`: after absorbing a period, every observed count is
/// `decay · previous + (1 − decay) · new`. With `decay = 0` the
/// accumulator holds *exactly* the latest period — its estimates are
/// bit-identical to those of an accumulator that absorbed only that
/// period (the `prop_observed` keystone equivalence; the replace is
/// literal, not arithmetic, so no ulp can creep in).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedStats {
    decay: f64,
    periods: usize,
    folded: Option<FoldedObservations>,
}

/// The decayed counterpart of [`PeriodObservations`]: per-slot rows in
/// the same order, over one flat array of `f64` cells so fractional
/// decayed counts are representable. Integer counts below 2⁵³ convert
/// exactly, so the `decay = 0` snapshot loses nothing; there every row
/// of a query shares the query's cells.
#[derive(Debug, Clone, PartialEq)]
struct FoldedObservations {
    /// The newest period's evaluated queries, which rows point at; the
    /// next decayed fold matches previous rows by these.
    queries: Vec<Query>,
    /// Per slot: one decayed record per distinct query of the newest
    /// period's workload.
    observations: Rows<FoldedRow>,
    /// Every row's decayed `(cluster, results)` counts, each row's run
    /// ascending by cluster id.
    cells: Vec<(ClusterId, f64)>,
    served: Rows<(ClusterId, f64)>,
    served_total: Vec<f64>,
    sizes: Vec<usize>,
    n_peers: usize,
}

/// One peer's decayed observation record for one distinct query.
#[derive(Debug, Clone, PartialEq)]
struct FoldedRow {
    /// Position of the query in `FoldedObservations::queries`.
    query: u32,
    /// Relative frequency in the peer's *current* workload (frequencies
    /// describe the present workload; only result counts are decayed).
    weight: f64,
    total: f64,
    own: f64,
    /// Its run of `FoldedObservations::cells`.
    cells: Range<usize>,
}

impl ObservedStats {
    /// Creates an empty accumulator with retention `decay`.
    ///
    /// # Panics
    /// Panics unless `decay ∈ [0, 1)`.
    pub fn new(decay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must be in [0, 1), got {decay}"
        );
        ObservedStats {
            decay,
            periods: 0,
            folded: None,
        }
    }

    /// Number of periods folded in so far.
    pub fn periods_absorbed(&self) -> usize {
        self.periods
    }

    /// Folds one period of observations into the accumulator.
    ///
    /// With `decay = 0` (or on the first period) the state becomes a
    /// literal snapshot of `period`. Otherwise every count is updated as
    /// `decay · old + (1 − decay) · new`, over the *current* workload's
    /// distinct queries, each matched to the peer's previous record of
    /// the same [`Query`]: a query the peer no longer issues is dropped
    /// (its weight is zero anyway), a brand-new query starts from an
    /// implicit zero history, and a cluster that stopped answering keeps
    /// a decaying memory. Cluster sizes and `|P|` are not decayed: they
    /// are the newest period's snapshot, taken when it was observed, and
    /// moves made since do not change them.
    pub fn absorb(&mut self, period: &PeriodObservations) {
        self.periods += 1;
        self.folded = Some(match &self.folded {
            Some(old) if self.decay != 0.0 => old.fold(period, self.decay),
            _ => FoldedObservations::snapshot(period),
        });
    }

    /// The folded state and `peer`'s observation records, or `None`
    /// before any absorbed period and for a peer that joined after the
    /// last one — a peer without observations has nothing to estimate
    /// from.
    fn records(&self, peer: PeerId) -> Option<(&FoldedObservations, &[FoldedRow])> {
        let folded = self.folded.as_ref()?;
        let records = folded.observations.get(peer.index())?;
        Some((folded, records))
    }

    /// The peer's estimate of `pcost(p, cid)` from its observations: the
    /// join-inclusive membership cost plus, per query, the fraction of
    /// observed results *not* obtainable from `cid` (counting the peer's
    /// own documents as in-cluster wherever it goes). `None` when the
    /// accumulator holds no observations of `peer` (nothing absorbed
    /// yet, or the peer joined after the last period).
    ///
    /// Generic over [`SystemRead`] so it works against both `&System`
    /// and a phase-1 [`SystemView`](crate::view::SystemView) — only the
    /// game configuration is read from the system; everything else comes
    /// from the observations. Clusters created after the observation
    /// snapshot (a grown `Cmax`) are treated as empty.
    pub fn estimated_pcost<S: SystemRead + ?Sized>(
        &self,
        system: &S,
        peer: PeerId,
        cid: ClusterId,
        currently_in: Option<ClusterId>,
    ) -> Option<f64> {
        let (folded, records) = self.records(peer)?;
        Some(folded.pcost(records, system, cid, currently_in))
    }

    /// Total decayed demand-weighted results `peer` served — the
    /// denominator of the observed contribution. Zero when the
    /// accumulator holds no observations of `peer`.
    pub fn served_total(&self, peer: PeerId) -> f64 {
        self.folded
            .as_ref()
            .and_then(|f| f.served_total.get(peer.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// The decayed observed `contribution(p, cid)` (Eq. 6); zero when
    /// the accumulator holds no observations of `peer` or the peer
    /// served nothing.
    pub fn estimated_contribution(&self, peer: PeerId, cid: ClusterId) -> f64 {
        let total = self.served_total(peer);
        match &self.folded {
            Some(folded) if total != 0.0 => {
                cluster_count(folded.served.row(peer.index()), cid).unwrap_or(0.0) / total
            }
            _ => 0.0,
        }
    }

    /// The cluster minimizing the estimated `pcost` for `peer` — the
    /// selfish selection rule (Eq. 5) evaluated on observations. `None`
    /// when the accumulator holds no observations of `peer`, or when
    /// there are no candidate clusters at all.
    ///
    /// Iterates the candidate order of the oracle
    /// [`best_response`](crate::equilibrium::best_response), through the
    /// same function — non-empty clusters in ascending id order, with
    /// the *first* empty slot at its id position when `allow_empty` —
    /// and applies
    /// the same [`COST_EPS`] stay-on-tie rule (the incumbent seeds the
    /// scan), so observed and oracle selection can only diverge when
    /// the cost *estimates* diverge, never on candidate enumeration or
    /// tie handling.
    pub fn selfish_choice<S: SystemRead + ?Sized>(
        &self,
        system: &S,
        peer: PeerId,
        currently_in: Option<ClusterId>,
        allow_empty: bool,
    ) -> Option<(ClusterId, f64)> {
        let (folded, records) = self.records(peer)?;
        let cost_of = |cid| folded.pcost(records, system, cid, currently_in);
        let mut best: Option<(ClusterId, f64)> = currently_in.map(|cur| (cur, cost_of(cur)));
        for cid in candidate_order(system.overlay(), allow_empty) {
            if currently_in == Some(cid) {
                continue; // already seeded as the incumbent
            }
            let cost = cost_of(cid);
            if best.is_none_or(|(_, b)| cost < b - COST_EPS) {
                best = Some((cid, cost));
            }
        }
        best
    }
}

impl FoldedObservations {
    /// `pcost` of moving to (or staying in) `cid`, estimated from one
    /// peer's `records` — see [`ObservedStats::estimated_pcost`].
    fn pcost<S: SystemRead + ?Sized>(
        &self,
        records: &[FoldedRow],
        system: &S,
        cid: ClusterId,
        currently_in: Option<ClusterId>,
    ) -> f64 {
        let cfg = system.config();
        let in_cluster = currently_in == Some(cid);
        let size = self.sizes.get(cid.index()).copied().unwrap_or(0) + usize::from(!in_cluster);
        let membership = cfg.alpha * cfg.theta.membership(size, self.n_peers);
        let mut loss = 0.0;
        for obs in records {
            if obs.total == 0.0 {
                continue;
            }
            let mut inside = cluster_count(&self.cells[obs.cells.clone()], cid).unwrap_or(0.0);
            if !in_cluster {
                inside += obs.own;
            }
            let frac = (inside / obs.total).min(1.0);
            loss += obs.weight * (1.0 - frac);
        }
        membership + loss
    }

    /// A literal (lossless) copy of one period: `u64` counts convert to
    /// `f64` exactly for any realistic result volume (< 2⁵³). The cells
    /// convert once per distinct query, and every row keeps pointing at
    /// its query's run.
    fn snapshot(period: &PeriodObservations) -> Self {
        FoldedObservations {
            queries: period.queries.iter().map(|q| q.query.clone()).collect(),
            observations: period.observations.map(|row| {
                let evaluated = &period.queries[row.query as usize];
                FoldedRow {
                    query: row.query,
                    weight: row.weight,
                    total: evaluated.total as f64,
                    own: row.own as f64,
                    cells: evaluated.cells.clone(),
                }
            }),
            cells: period.cells.iter().map(|&(c, v)| (c, v as f64)).collect(),
            served: period.served.clone(),
            served_total: period.served_total.clone(),
            sizes: period.sizes.clone(),
            n_peers: period.n_peers,
        }
    }

    /// EMA-folds `period` into this decayed history with retention
    /// `lambda`: see [`ObservedStats::absorb`]. Every count becomes
    /// `lambda · old + (1 − lambda) · new`, where a missing side is an
    /// implicit zero; the weight snaps to the current workload frequency.
    fn fold(&self, period: &PeriodObservations, lambda: f64) -> Self {
        let keep = 1.0 - lambda;
        // Each new query's position among the previous period's, by
        // `Query`: the match a peer makes between its records.
        let old_position: HashMap<&Query, u32> = self.queries.iter().zip(0..).collect();
        let previous: Vec<Option<u32>> = period
            .queries
            .iter()
            .map(|q| old_position.get(&q.query).copied())
            .collect();
        // Per previous query: its row in the current slot's history.
        let mut row_of: Vec<Option<usize>> = vec![None; self.queries.len()];
        let mut observations = Rows::new();
        let mut cells = Vec::new();
        for slot in 0..period.observations.n_slots() {
            let history = self.observations.get(slot).unwrap_or(&[]);
            for (i, row) in history.iter().enumerate() {
                row_of[row.query as usize] = Some(i);
            }
            for row in period.observations.row(slot) {
                let evaluated = &period.queries[row.query as usize];
                let prev = previous[row.query as usize]
                    .and_then(|q| row_of[q as usize])
                    .map(|i| &history[i]);
                let start = cells.len();
                fold_row(
                    prev.map_or(&[][..], |p| &self.cells[p.cells.clone()]),
                    &period.cells[evaluated.cells.clone()],
                    |v| v as f64,
                    lambda,
                    &mut cells,
                );
                let (total, own) = prev.map_or((0.0, 0.0), |p| (p.total, p.own));
                observations.items.push(FoldedRow {
                    query: row.query,
                    weight: row.weight,
                    total: lambda * total + keep * evaluated.total as f64,
                    own: lambda * own + keep * row.own as f64,
                    cells: start..cells.len(),
                });
            }
            for row in history {
                row_of[row.query as usize] = None;
            }
            observations.end_row();
        }
        // Served credit is kept per *slot*, departed ones included, so
        // every slot the observations cover has a contribution row.
        let mut served = Rows::new();
        let mut served_total = Vec::with_capacity(period.served.n_slots());
        for slot in 0..period.served.n_slots() {
            fold_row(
                self.served.get(slot).unwrap_or(&[]),
                period.served.row(slot),
                |v| v,
                lambda,
                &mut served.items,
            );
            served.end_row();
            let prev_total = self.served_total.get(slot).copied().unwrap_or(0.0);
            served_total.push(lambda * prev_total + keep * period.served_total[slot]);
        }
        FoldedObservations {
            queries: period.queries.iter().map(|q| q.query.clone()).collect(),
            observations,
            cells,
            served,
            served_total,
            sizes: period.sizes.clone(),
            n_peers: period.n_peers,
        }
    }
}

/// EMA-merges one ascending `(cluster, count)` row into its decayed
/// history `old` (also ascending) and appends the union to `out`,
/// ascending: a cluster in both rows gets `lambda · old + keep · new`
/// (`keep = 1 − lambda`), a cluster in one row only gets that row's
/// term. Leaving out the missing side's zero term is exact, since every
/// term is non-negative.
fn fold_row<N: Copy>(
    old: &[(ClusterId, f64)],
    new: &[(ClusterId, N)],
    value: impl Fn(N) -> f64,
    lambda: f64,
    out: &mut Vec<(ClusterId, f64)>,
) {
    let keep = 1.0 - lambda;
    let (mut i, mut j) = (0, 0);
    loop {
        let cell = match (old.get(i), new.get(j)) {
            (None, None) => break,
            (Some(&(c, o)), Some(&(n_c, _))) if c < n_c => {
                i += 1;
                (c, lambda * o)
            }
            (Some(&(c, o)), None) => {
                i += 1;
                (c, lambda * o)
            }
            (Some(&(c, o)), Some(&(n_c, n))) if c == n_c => {
                i += 1;
                j += 1;
                (c, lambda * o + keep * value(n))
            }
            (_, Some(&(c, n))) => {
                j += 1;
                (c, keep * value(n))
            }
        };
        out.push(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::churn::ChurnEvent;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Sym, Workload};

    use crate::cost::pcost;
    use crate::system::GameConfig;

    /// 3 peers: p0 queries Sym(1) (held by p1 ×2, p2 ×1) and Sym(2)
    /// (held by itself). p1 ∈ c0 with p0; p2 alone in c2.
    fn fixture() -> System {
        let mut ov = Overlay::singletons(3);
        ov.move_peer(PeerId(1), ClusterId(0));
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(2)]));
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(1), Document::new(vec![Sym(1), Sym(3)]));
        store.add(PeerId(2), Document::new(vec![Sym(1)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 2);
        w0.add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            vec![w0, Workload::new(), Workload::new()],
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        )
    }

    /// One flood period of `sys`, absorbed into a decay-0 accumulator —
    /// the single-period estimator.
    fn observe(sys: &System) -> ObservedStats {
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&simulate_period(sys, &mut SimNetwork::new()));
        stats
    }

    /// Bit patterns of every estimate `stats` makes for the fixture's
    /// three peers against `sys`.
    fn estimate_bits(stats: &ObservedStats, sys: &System) -> Vec<Option<u64>> {
        let mut bits = Vec::new();
        for peer in [PeerId(0), PeerId(1), PeerId(2)] {
            let current = sys.overlay().cluster_of(peer);
            for cid in sys.overlay().cluster_ids() {
                let est = stats.estimated_pcost(sys, peer, cid, current);
                bits.push(est.map(f64::to_bits));
                bits.push(Some(stats.estimated_contribution(peer, cid).to_bits()));
            }
            for allow_empty in [true, false] {
                let choice = stats.selfish_choice(sys, peer, current, allow_empty);
                bits.push(choice.map(|(c, _)| u64::from(c.0)));
                bits.push(choice.map(|(_, cost)| cost.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn observed_pcost_matches_oracle_under_flood() {
        let sys = fixture();
        let stats = observe(&sys);
        let current = sys.overlay().cluster_of(PeerId(0));
        for cid in sys.overlay().cluster_ids() {
            let est = stats
                .estimated_pcost(&sys, PeerId(0), cid, current)
                .unwrap();
            let oracle = pcost(&sys, PeerId(0), cid);
            assert!(
                (est - oracle).abs() < 1e-9,
                "cluster {cid}: est {est} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn observed_contribution_matches_oracle() {
        let sys = fixture();
        let stats = observe(&sys);
        let mut strategy = crate::strategy::AltruisticStrategy::new();
        use crate::strategy::RelocationStrategy;
        strategy.prepare(&sys);
        for peer in [PeerId(0), PeerId(1), PeerId(2)] {
            for cid in sys.overlay().cluster_ids() {
                let est = stats.estimated_contribution(peer, cid);
                let oracle = strategy.contribution(peer, cid);
                assert!(
                    (est - oracle).abs() < 1e-9,
                    "{peer}@{cid}: est {est} vs oracle {oracle}"
                );
            }
        }
    }

    #[test]
    fn selfish_choice_agrees_with_best_response() {
        let sys = fixture();
        let stats = observe(&sys);
        for peer in [PeerId(0), PeerId(1), PeerId(2)] {
            let current = sys.overlay().cluster_of(peer);
            for allow_empty in [true, false] {
                let (choice, cost) = stats
                    .selfish_choice(&sys, peer, current, allow_empty)
                    .unwrap();
                let br = crate::equilibrium::best_response(&sys, peer, allow_empty);
                assert_eq!(choice, br.cluster, "{peer} allow_empty={allow_empty}");
                let oracle = pcost(&sys, peer, br.cluster);
                assert!((cost - oracle).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn selfish_choice_scans_only_the_oracle_candidate_set() {
        // The fixture leaves c1 empty and Cmax = 3, so a full
        // `cluster_ids()` scan would evaluate c1 even with empty targets
        // forbidden. With the oracle candidate walk, `allow_empty=false`
        // must never return an empty cluster, and `allow_empty=true`
        // only ever considers the *first* empty slot.
        let sys = fixture();
        let stats = observe(&sys);
        let current = sys.overlay().cluster_of(PeerId(2));
        let (choice, _) = stats
            .selfish_choice(&sys, PeerId(2), current, false)
            .unwrap();
        assert!(!sys.overlay().cluster(choice).is_empty());
        // Seeding at the incumbent means a tie always resolves to stay.
        let (stay, cost) = stats
            .selfish_choice(&sys, PeerId(2), current, true)
            .unwrap();
        let cur_cost = stats
            .estimated_pcost(&sys, PeerId(2), current.unwrap(), current)
            .unwrap();
        if (cost - cur_cost).abs() <= COST_EPS {
            assert_eq!(Some(stay), current);
        }
    }

    #[test]
    fn observed_stats_zero_decay_is_bitwise_snapshot() {
        // Two absorbed periods with different overlays: the accumulator
        // must equal one that absorbed only the *latest* period, bit for
        // bit — the stale period is forgotten.
        let sys = fixture();
        let mut stats = ObservedStats::new(0.0);
        let mut net = SimNetwork::new();
        stats.absorb(&simulate_period(&sys, &mut net));
        let mut sys2 = fixture();
        sys2.move_peer(PeerId(2), ClusterId(1));
        stats.absorb(&simulate_period(&sys2, &mut net));
        assert_eq!(stats.periods_absorbed(), 2);
        assert_eq!(
            estimate_bits(&stats, &sys2),
            estimate_bits(&observe(&sys2), &sys2)
        );
    }

    #[test]
    fn observed_stats_decay_folds_counts_as_ema() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let period = simulate_period(&sys, &mut net);
        let mut stats = ObservedStats::new(0.5);
        stats.absorb(&period); // first period: literal snapshot
        stats.absorb(&period); // identical second period
                               // 0.5·v + 0.5·v = v: absorbing the same period twice is a no-op
                               // on every count, so the estimates match the single-period ones.
        let direct = observe(&sys);
        let current = sys.overlay().cluster_of(PeerId(0));
        for cid in sys.overlay().cluster_ids() {
            let direct = direct
                .estimated_pcost(&sys, PeerId(0), cid, current)
                .unwrap();
            let folded = stats
                .estimated_pcost(&sys, PeerId(0), cid, current)
                .unwrap();
            assert!(
                (direct - folded).abs() < 1e-12,
                "{cid}: {direct} vs {folded}"
            );
        }
        // A genuinely changed period: p2's doc disappears from c2 by
        // moving p2 next to p0 — the decayed estimate for kw(1) sits
        // strictly between the two per-period observations.
        let mut sys2 = fixture();
        sys2.move_peer(PeerId(2), ClusterId(0));
        let shifted = simulate_period(&sys2, &mut net);
        stats.absorb(&shifted);
        let folded = stats.folded.as_ref().unwrap();
        let q1 = folded
            .observations
            .row(0)
            .iter()
            .find(|r| folded.queries[r.query as usize] == Query::keyword(Sym(1)))
            .unwrap();
        let count = |cid| cluster_count(&folded.cells[q1.cells.clone()], cid).unwrap_or(0.0);
        // Old: c2 answered 1 result; new: 0 (p2 moved to c0). EMA keeps
        // half of the decayed memory: 0.5·1 + 0.5·0 = 0.5.
        assert!((count(ClusterId(2)) - 0.5).abs() < 1e-12);
        // c0 answered 2 before (p1) and 3 now (p1 + p2): 0.5·2 + 0.5·3.
        assert!((count(ClusterId(0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn observed_stats_empty_accumulator_is_inert() {
        let sys = fixture();
        let stats = ObservedStats::new(0.3);
        let current = sys.overlay().cluster_of(PeerId(0));
        for cid in sys.overlay().cluster_ids() {
            assert_eq!(stats.estimated_pcost(&sys, PeerId(0), cid, current), None);
        }
        assert!(stats
            .selfish_choice(&sys, PeerId(0), current, true)
            .is_none());
        assert_eq!(stats.estimated_contribution(PeerId(0), ClusterId(0)), 0.0);
        assert_eq!(stats.served_total(PeerId(0)), 0.0);
    }

    #[test]
    fn late_joiner_has_no_estimates() {
        // A peer that joined after the last absorbed period has no
        // observation slot: every estimate is absent, never a panic.
        let mut sys = fixture();
        let stats = observe(&sys);
        let delta = sys
            .apply_churn_event(
                &mut SimNetwork::new(),
                ChurnEvent::Join {
                    cluster: ClusterId(0),
                    docs: vec![Document::new(vec![Sym(1)])],
                },
            )
            .unwrap();
        let late = delta.peer();
        let current = sys.overlay().cluster_of(late);
        for cid in sys.overlay().cluster_ids() {
            assert_eq!(stats.estimated_pcost(&sys, late, cid, current), None);
            assert_eq!(stats.estimated_contribution(late, cid), 0.0);
        }
        assert!(stats.selfish_choice(&sys, late, current, true).is_none());
        assert_eq!(stats.served_total(late), 0.0);
    }

    #[test]
    fn decayed_fold_keeps_served_credit_past_departed_slots() {
        // After p1 leaves, |P| = 2 but p2 still sits at slot 2. The EMA
        // fold must carry p2's served credit like the snapshot does.
        let mut sys = fixture();
        sys.apply_churn_event(
            &mut SimNetwork::new(),
            ChurnEvent::Leave { peer: PeerId(1) },
        )
        .unwrap();
        let period = simulate_period(&sys, &mut SimNetwork::new());
        let mut stats = ObservedStats::new(0.5);
        stats.absorb(&period);
        stats.absorb(&period);
        let direct = observe(&sys).estimated_contribution(PeerId(2), ClusterId(0));
        assert!(direct > 0.0, "p2 serves p0's kw(1)");
        assert_eq!(
            stats.estimated_contribution(PeerId(2), ClusterId(0)),
            direct
        );
    }

    #[test]
    #[should_panic(expected = "decay must be in [0, 1)")]
    fn observed_stats_rejects_decay_of_one() {
        let _ = ObservedStats::new(1.0);
    }

    #[test]
    fn observations_record_cid_annotations() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let obs = simulate_period(&sys, &mut net);
        let q1 = obs
            .of(PeerId(0))
            .find(|o| *o.query == Query::keyword(Sym(1)))
            .unwrap();
        // Sym(1): 2 results from c0 (p1), 1 from c2 (p2).
        assert_eq!(q1.cluster_count(ClusterId(0)), 2);
        assert_eq!(q1.cluster_count(ClusterId(2)), 1);
        assert_eq!(q1.cluster_count(ClusterId(1)), 0);
        assert_eq!(q1.total, 3);
        assert_eq!(q1.own, 0);
    }

    #[test]
    fn observation_counts_match_distinct_workload_queries() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let obs = simulate_period(&sys, &mut net);
        // One observation per *distinct* query in each peer's workload,
        // regardless of occurrence counts — the buffer-reuse refactor
        // must not drop, duplicate, or reorder records.
        for p in [PeerId(0), PeerId(1), PeerId(2)] {
            assert_eq!(obs.of(p).len(), sys.workloads()[p.index()].distinct());
        }
        // p0's records carry sorted, duplicate-free cluster annotations.
        for record in obs.of(PeerId(0)) {
            assert!(record.per_cluster.windows(2).all(|w| w[0].0 < w[1].0));
            let sum: u64 = record.per_cluster.iter().map(|&(_, n)| n).sum();
            assert_eq!(sum, record.total);
        }
    }

    #[test]
    fn period_traffic_scales_with_occurrence_counts() {
        // p0 issues kw(1) twice: the ledger must charge both occurrences
        // (merge_scaled path), matching the old merge-per-occurrence
        // accounting.
        let sys = fixture();
        let mut net = SimNetwork::new();
        let _ = simulate_period(&sys, &mut net);
        let mut single = SimNetwork::new();
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(1)), 1);
        w.add(Query::keyword(Sym(2)), 1);
        let mut sys1 = fixture();
        sys1.set_workload(PeerId(0), w);
        let _ = simulate_period(&sys1, &mut single);
        assert!(net.total_messages() > single.total_messages());
    }

    #[test]
    fn period_charges_query_traffic() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let _ = simulate_period(&sys, &mut net);
        assert!(net.total_messages() > 0);
    }

    #[test]
    fn routed_exact_equals_flood_bit_for_bit() {
        let sys = fixture();
        let mut flood_net = SimNetwork::new();
        let flood = simulate_period(&sys, &mut flood_net);
        let mut routed_net = SimNetwork::new();
        let (routed, report) = simulate_period_routed(
            &sys,
            &mut routed_net,
            RoutingMode::Routed(SummaryMode::Exact),
        );
        assert_eq!(flood, routed);
        assert_eq!(report.missed_results, 0);
        assert_eq!(report.false_negative_rate(), 0.0);
        // Identical results → identical return traffic; fewer forwards.
        use recluster_overlay::MsgKind;
        assert_eq!(
            flood_net.messages(MsgKind::ResultReturn),
            routed_net.messages(MsgKind::ResultReturn)
        );
        assert!(
            routed_net.messages(MsgKind::QueryForward) <= flood_net.messages(MsgKind::QueryForward)
        );
        assert!(report.forwards <= report.flood_forwards);
        assert!(report.forward_reduction() >= 1.0);
    }

    #[test]
    fn routed_forwards_skip_resultless_clusters() {
        // p0's kw(1) has results in c0 and c2 only; kw(2) only at p0
        // itself (c0). Flood forwards both queries to both non-empty
        // clusters every occurrence: (2+1)×2 = 6. Routed: kw(1)×2
        // occurrences × 2 clusters + kw(2)×1 × 1 cluster = 5... compute
        // from the report instead of re-deriving here.
        let sys = fixture();
        let mut net = SimNetwork::new();
        let (_, report) =
            simulate_period_routed(&sys, &mut net, RoutingMode::Routed(SummaryMode::Exact));
        // kw(1): clusters c0 (p1's docs) and c2 (p2's doc) hold Sym(1);
        // ×2 occurrences → 4. kw(2): only c0 (p0's own doc) → 1.
        assert_eq!(report.forwards, 5);
        // Flood: 2 non-empty clusters × 3 occurrences.
        assert_eq!(report.flood_forwards, 6);
        assert_eq!(report.query_events, 3);
    }

    #[test]
    fn lossy_summaries_report_missed_results() {
        // Keep only each cluster's single most frequent term: c0 retains
        // Sym(1) (2 docs) over Sym(2)/Sym(3) (1 each) — p0's kw(2) then
        // misses its own cluster's doc... kw(2) is answered by p0's own
        // store entry in c0; dropping it from the summary loses 1 result
        // per occurrence.
        let sys = fixture();
        let mut net = SimNetwork::new();
        let (obs, report) =
            simulate_period_routed(&sys, &mut net, RoutingMode::Routed(SummaryMode::TopK(1)));
        assert!(report.missed_results > 0, "TopK(1) must lose something");
        assert!(report.false_negative_rate() > 0.0);
        assert!(report.false_negative_rate() < 1.0);
        // Observed + missed = what flood returns.
        let mut flood_net = SimNetwork::new();
        let (_, flood_report) = simulate_period_routed(&sys, &mut flood_net, RoutingMode::Flood);
        assert_eq!(
            report.returned_results + report.missed_results,
            flood_report.returned_results
        );
        // Routed observations never contain results flood lacks.
        for p in [PeerId(0), PeerId(1), PeerId(2)] {
            let flood_obs = simulate_period(&sys, &mut SimNetwork::new());
            for (r, f) in obs.of(p).zip(flood_obs.of(p)) {
                assert!(r.total <= f.total);
            }
        }
    }

    #[test]
    fn flood_report_is_self_consistent() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let (_, report) = simulate_period_routed(&sys, &mut net, RoutingMode::Flood);
        assert_eq!(report.mode, RoutingMode::Flood);
        assert_eq!(report.forwards, report.flood_forwards);
        assert_eq!(report.missed_results, 0);
        assert!((report.forward_reduction() - 1.0).abs() < 1e-12);
        assert!(report.forwards_per_query() > 0.0);
    }

    #[test]
    fn forward_reduction_handles_zero_forward_edges() {
        let zeroed = |forwards, flood_forwards| RoutingReport {
            mode: RoutingMode::Routed(SummaryMode::Exact),
            query_events: 1,
            forwards,
            flood_forwards,
            returned_results: 0,
            missed_results: 0,
        };
        // No forwards where flood would have spent 6: maximal reduction,
        // not "no reduction".
        assert_eq!(zeroed(0, 6).forward_reduction(), f64::INFINITY);
        // Nothing to route at all (empty workload): neutral 1.0.
        assert_eq!(zeroed(0, 0).forward_reduction(), 1.0);
    }

    #[test]
    fn idle_peers_have_no_observations() {
        let sys = fixture();
        let mut net = SimNetwork::new();
        let obs = simulate_period(&sys, &mut net);
        assert_eq!(obs.of(PeerId(2)).len(), 0);
        // …but p2 still *served* p0's queries.
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&obs);
        assert!(stats.estimated_contribution(PeerId(2), ClusterId(0)) > 0.0);
    }

    #[test]
    fn forward_histogram_quantiles_are_nearest_rank() {
        let mut h = ForwardHistogram::new();
        h.record(1, 90); // 90 occurrences fanned to 1 cluster
        h.record(3, 9); // 9 to 3 clusters
        h.record(10, 1); // one unlucky conjunction to 10
        assert_eq!(h.total_occurrences(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 3, "99 of 100 occurrences fan to ≤ 3");
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn forward_histogram_empty_and_zero_occurrences() {
        let mut h = ForwardHistogram::new();
        h.record(0, 0); // zero occurrences: ignored entirely
        assert_eq!(h.total_occurrences(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn traffic_variant_matches_routed_bit_for_bit() {
        // The traffic-only walk must charge the exact same ledger and
        // produce the exact same report as the observation walk — it
        // only skips the observation/served state nobody reads.
        let sys = fixture();
        for mode in [
            RoutingMode::Flood,
            RoutingMode::Routed(SummaryMode::Exact),
            RoutingMode::Routed(SummaryMode::TopK(1)),
        ] {
            let mut net_full = SimNetwork::new();
            let (_, rep_full) = simulate_period_routed(&sys, &mut net_full, mode);
            let mut net_traffic = SimNetwork::new();
            let rep_traffic = simulate_period_traffic(&sys, &mut net_traffic, mode);
            assert_eq!(rep_full, rep_traffic, "{mode:?}");
            assert_eq!(net_full, net_traffic, "per-kind ledger, {mode:?}");
        }
    }

    #[test]
    fn sharded_period_is_bit_identical_to_sequential() {
        // Force the threshold both ways on pinned pools: the sharded
        // qid fan-out must reproduce the sequential walk exactly —
        // observations, served credit, report, and ledger.
        let sys = fixture();
        let mode = RoutingMode::Routed(SummaryMode::TopK(1)); // exercises `missed` too
        crate::shard::set_shard_min_override(Some(usize::MAX));
        let mut net_seq = SimNetwork::new();
        let (obs_seq, rep_seq) = simulate_period_routed(&sys, &mut net_seq, mode);
        crate::shard::set_shard_min_override(Some(1));
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut net_par = SimNetwork::new();
            let (obs_par, rep_par) =
                pool.install(|| simulate_period_routed(&sys, &mut net_par, mode));
            assert_eq!(obs_seq, obs_par, "{threads} threads");
            assert_eq!(rep_seq, rep_par, "{threads} threads");
            assert_eq!(net_seq, net_par, "{threads} threads");
        }
        crate::shard::set_shard_min_override(None);
    }
}
