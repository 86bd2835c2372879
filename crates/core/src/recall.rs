//! The recall model `r(q, p)` as a precomputed index.
//!
//! §2 defines the importance of a peer for a query as
//! `r(q,p) = result(q,p) / Σ_{pk∈P} result(q,pk)` — the recall achieved
//! when `q` is evaluated solely on `p`. Cost evaluation needs `r(q, p)`
//! for every (distinct query, peer) pair and, per candidate cluster, the
//! *recall mass* `Σ_{pj∈c} r(q, pj)`. [`RecallIndex`] precomputes all of
//! it from the content store and the union of workloads, and maintains
//! **all** of its state incrementally:
//!
//! * membership changes via [`RecallIndex::apply_move`] /
//!   [`RecallIndex::apply_join`] / [`RecallIndex::apply_leave`]
//!   (O(results-of-peer) each), with [`RecallIndex::rebuild`] as the
//!   mass oracle;
//! * content changes via [`RecallIndex::apply_content_update`]
//!   (O(candidate queries × docs-of-peer) — candidates come from an
//!   attribute → query inverted index, so only queries that could match
//!   the changed documents are re-evaluated);
//! * workload changes via [`RecallIndex::set_workload`], which registers
//!   genuinely new queries with [`RecallIndex::ensure_query`]
//!   (O(peers) per *new* distinct query — the unavoidable cost of a
//!   fresh result column) and rewrites one peer's weight row.
//!
//! [`RecallIndex::rebuild_from`] is the full content-aware oracle: it
//! recomputes every result count, total, weight row and mass numerator
//! for the **current query universe** from the store and workloads.
//!
//! # Incremental-index invariants
//!
//! The per-cluster mass is stored as an **integer numerator**
//! `Σ_{pj ∈ c} result(q, pj)` — the paper's `result(q, c)` — next to the
//! number of members with a nonzero count; the float mass is derived on
//! lookup as `numerator / total(q)`. Result counts and totals are
//! integers too, so every delta is exact and order-independent, and a
//! delta-maintained index is bit-for-bit equal to
//! [`RecallIndex::rebuild_from`] after *any* interleaving of membership,
//! content, and workload changes — property-tested in
//! `tests/prop_incremental.rs`, which also checks every cell against a
//! walk of the live cluster's members. (A from-scratch
//! [`RecallIndex::build`] may number queries differently and drop
//! stale ones, but derived quantities — `r`, masses, `pcost` — are
//! bit-identical under either numbering.)

use std::collections::HashMap;

use recluster_overlay::{ContentStore, Overlay};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};

/// Identifier of a distinct query inside a [`RecallIndex`].
pub type QueryId = u32;

/// Precomputed `result(q, p)` counts, totals, per-peer workload weights,
/// and per-cluster recall masses with their answering-member counts.
#[derive(Debug, Clone)]
pub struct RecallIndex {
    /// All distinct queries appearing in any workload.
    queries: Vec<Query>,
    qid_of: HashMap<Query, QueryId>,
    /// Per peer: sorted `(qid, result count)` for queries the peer can
    /// answer (nonzero results only).
    peer_results: Vec<Vec<(QueryId, u64)>>,
    /// Per query: `Σ_p result(q, p)`.
    totals: Vec<u64>,
    /// Per peer: `(qid, relative frequency in the peer's workload)`.
    peer_workload: Vec<Vec<(QueryId, f64)>>,
    /// Per query: numerator of the cluster recall mass as a **sparse**
    /// row of [`MassCell`]s, ascending by cluster id, with the invariant
    /// *present ⟺ nonzero*. A query's results concentrate in a handful
    /// of clusters while `Cmax` can equal the peer count, so dense rows
    /// are O(queries × Cmax) memory (≈ 4.8 GB at a million peers)
    /// against O(Σ non-zero cells) here. Maintained by the `apply_*`
    /// deltas; [`RecallIndex::rebuild`] recomputes it.
    mass_num: Vec<Vec<MassCell>>,
    /// Cluster slots each `mass_num` row covers (the overlay's `Cmax` at
    /// the last rebuild/growth).
    cmax: usize,
    /// Attribute → ids of queries containing it (ascending). A non-empty
    /// query can only match a document that carries *all* its attributes,
    /// so the union of these buckets over a document set covers every
    /// query with a nonzero result there — the candidate set content
    /// deltas re-evaluate.
    by_attr: HashMap<Sym, Vec<QueryId>>,
    /// Ids of attribute-less queries, which match every document and so
    /// are always candidates.
    universal: Vec<QueryId>,
}

impl RecallIndex {
    /// Builds the index for the given content and workloads and computes
    /// cluster masses for the overlay's current assignment.
    ///
    /// # Panics
    /// Panics if `workloads.len()` differs from the overlay's peer-slot
    /// count or the store's.
    pub fn build(overlay: &Overlay, store: &ContentStore, workloads: &[Workload]) -> Self {
        assert_eq!(
            workloads.len(),
            overlay.n_slots(),
            "one workload per peer slot"
        );
        assert_eq!(store.n_peers(), overlay.n_slots(), "store/overlay mismatch");

        let n_slots = overlay.n_slots();
        let mut index = RecallIndex {
            queries: Vec::new(),
            qid_of: HashMap::new(),
            peer_results: vec![Vec::new(); n_slots],
            totals: Vec::new(),
            peer_workload: Vec::new(),
            mass_num: Vec::new(),
            cmax: 0,
            by_attr: HashMap::new(),
            universal: Vec::new(),
        };

        // Collect distinct queries across all workloads (ids in first-seen
        // order), populating the attribute → query inverted index.
        for w in workloads {
            for (q, _) in w.iter() {
                index.register_query(q);
            }
        }

        // result(q, p) for every distinct query and peer, restricted to
        // the candidate queries sharing an attribute with the peer's
        // documents (exact: any other query has zero results there).
        for slot in 0..n_slots {
            let row = index.row_for(store.docs(PeerId::from_index(slot)));
            for &(qid, count) in &row {
                index.totals[qid as usize] += count;
            }
            index.peer_results[slot] = row;
        }

        // Per-peer workload weights.
        index.peer_workload = workloads
            .iter()
            .map(|w| {
                w.iter()
                    .map(|(q, n)| (index.qid_of[q], n as f64 / w.total() as f64))
                    .collect()
            })
            .collect();

        index.rebuild(overlay);
        index
    }

    /// Registers `query` in the universe (no result column yet): id maps,
    /// a zeroed total, a zeroed mass row, and the inverted-index buckets.
    /// Returns the id (existing or fresh).
    fn register_query(&mut self, query: &Query) -> QueryId {
        if let Some(&id) = self.qid_of.get(query) {
            return id;
        }
        let qid = self.queries.len() as QueryId;
        self.qid_of.insert(query.clone(), qid);
        if query.is_empty() {
            self.universal.push(qid);
        } else {
            for &a in query.attrs() {
                self.by_attr.entry(a).or_default().push(qid);
            }
        }
        self.queries.push(query.clone());
        self.totals.push(0);
        self.mass_num.push(Vec::new());
        qid
    }

    /// The `(qid, result count)` row of a document set: candidate queries
    /// come from the inverted index (plus the attribute-less ones), so
    /// only queries that can possibly match are evaluated. Ascending qids,
    /// nonzero counts only — exactly what a full scan would produce.
    fn row_for(&self, docs: &[Document]) -> Vec<(QueryId, u64)> {
        if docs.is_empty() {
            return Vec::new();
        }
        let mut candidates: Vec<QueryId> = self.universal.clone();
        for doc in docs {
            for a in doc.attrs() {
                if let Some(bucket) = self.by_attr.get(a) {
                    candidates.extend_from_slice(bucket);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut row = Vec::with_capacity(candidates.len());
        for qid in candidates {
            let count = self.queries[qid as usize].result_count(docs);
            if count > 0 {
                row.push((qid, count));
            }
        }
        row
    }

    /// Registers `query` and, when it is genuinely new, computes its full
    /// result column (counts, total, mass contributions of assigned
    /// holders) — O(peers × docs-of-peer) for a new query, O(1) for a
    /// known one. New ids are appended, so existing rows stay sorted.
    pub fn ensure_query(
        &mut self,
        query: &Query,
        overlay: &Overlay,
        store: &ContentStore,
    ) -> QueryId {
        if let Some(&id) = self.qid_of.get(query) {
            return id;
        }
        let qid = self.register_query(query);
        debug_assert_eq!(store.n_peers(), self.peer_results.len());
        for slot in 0..self.peer_results.len() {
            let peer = PeerId::from_index(slot);
            let count = query.result_count(store.docs(peer));
            if count > 0 {
                self.peer_results[slot].push((qid, count));
                self.totals[qid as usize] += count;
                if let Some(cid) = overlay.cluster_of(peer) {
                    mass_add(&mut self.mass_num[qid as usize], cid, count);
                }
            }
        }
        qid
    }

    /// Delta-update for a peer's content being replaced by `new_docs`:
    /// the old result row (still stored here) leaves the totals — and the
    /// mass of `cid` when the peer is assigned — and a freshly evaluated
    /// row enters both. O(candidate queries × docs); bit-identical to
    /// [`RecallIndex::rebuild_from`] because every quantity is an
    /// integer. Pass `cid = None` for an unassigned peer (e.g. retiring a
    /// churn leaver's documents after [`RecallIndex::apply_leave`]).
    pub fn apply_content_update(
        &mut self,
        peer: PeerId,
        cid: Option<ClusterId>,
        new_docs: &[Document],
    ) {
        let old = std::mem::take(&mut self.peer_results[peer.index()]);
        for &(qid, count) in &old {
            self.totals[qid as usize] -= count;
            if let Some(c) = cid {
                mass_sub(&mut self.mass_num[qid as usize], c, count);
            }
        }
        let row = self.row_for(new_docs);
        for &(qid, count) in &row {
            self.totals[qid as usize] += count;
            if let Some(c) = cid {
                mass_add(&mut self.mass_num[qid as usize], c, count);
            }
        }
        self.peer_results[peer.index()] = row;
    }

    /// Delta-update for a peer's workload being replaced: registers any
    /// genuinely new queries (via [`RecallIndex::ensure_query`]) and
    /// rewrites the peer's weight row. Totals and masses of existing
    /// queries are untouched — workload changes never alter
    /// `result(q, p)`.
    pub fn set_workload(
        &mut self,
        peer: PeerId,
        workload: &Workload,
        overlay: &Overlay,
        store: &ContentStore,
    ) {
        let total = workload.total();
        let mut row = Vec::with_capacity(workload.distinct());
        for (q, n) in workload.iter() {
            let qid = self.ensure_query(q, overlay, store);
            row.push((qid, n as f64 / total as f64));
        }
        self.peer_workload[peer.index()] = row;
    }

    /// Recomputes every result count, total, workload weight and mass
    /// numerator from the store, workloads and assignment, for the
    /// **current query universe** (ids preserved, stale queries kept) —
    /// the content-aware oracle the `apply_content_update` /
    /// `set_workload` deltas are property-tested against. Deliberately
    /// brute-force: every query is evaluated against every peer.
    ///
    /// # Panics
    /// Panics if the slot counts disagree, or if a workload contains a
    /// query that was never registered.
    pub fn rebuild_from(
        &mut self,
        overlay: &Overlay,
        store: &ContentStore,
        workloads: &[Workload],
    ) {
        assert_eq!(
            workloads.len(),
            overlay.n_slots(),
            "one workload per peer slot"
        );
        assert_eq!(store.n_peers(), overlay.n_slots(), "store/overlay mismatch");
        let n_slots = overlay.n_slots();
        self.totals = vec![0; self.queries.len()];
        self.peer_results = vec![Vec::new(); n_slots];
        for slot in 0..n_slots {
            let docs = store.docs(PeerId::from_index(slot));
            if docs.is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for (qid, q) in self.queries.iter().enumerate() {
                let count = q.result_count(docs);
                if count > 0 {
                    row.push((qid as QueryId, count));
                    self.totals[qid] += count;
                }
            }
            self.peer_results[slot] = row;
        }
        let qid_of = &self.qid_of;
        self.peer_workload = workloads
            .iter()
            .map(|w| {
                w.iter()
                    .map(|(q, n)| (qid_of[q], n as f64 / w.total() as f64))
                    .collect()
            })
            .collect();
        self.rebuild(overlay);
    }

    /// Recomputes the per-cluster recall masses (and answering-member
    /// counts) from scratch for the overlay's current assignment — the
    /// oracle the incremental `apply_*` path is checked against, and the
    /// escape hatch when the caller has lost track of individual
    /// membership changes.
    pub fn rebuild(&mut self, overlay: &Overlay) {
        self.cmax = overlay.cmax();
        self.mass_num = vec![Vec::new(); self.queries.len()];
        for slot in 0..overlay.n_slots() {
            let peer = PeerId::from_index(slot);
            let Some(cid) = overlay.cluster_of(peer) else {
                continue;
            };
            for &(qid, count) in &self.peer_results[slot] {
                mass_add(&mut self.mass_num[qid as usize], cid, count);
            }
        }
    }

    /// Recomputes the per-cluster recall masses from the overlay's
    /// current assignment (alias of [`RecallIndex::rebuild`], kept for
    /// callers that predate the incremental API).
    pub fn refresh_mass(&mut self, overlay: &Overlay) {
        self.rebuild(overlay);
    }

    /// Notes that the overlay now has `cmax` cluster slots (after
    /// [`Overlay::grow`]); existing masses are untouched. The sparse
    /// rows need no resizing — a cluster with no mass simply has no
    /// entry — so this only tracks the width for [`RecallIndex::mass_cmax`].
    pub fn ensure_cmax(&mut self, cmax: usize) {
        if cmax > self.cmax {
            self.cmax = cmax;
        }
    }

    /// Grows the per-peer tables to cover `n_slots` peer slots (after
    /// [`Overlay::grow`]). New slots start with no indexed results or
    /// workload — a newcomer's *content* enters the index through
    /// [`RecallIndex::apply_content_update`], its workload through
    /// [`RecallIndex::set_workload`]; until then its membership deltas
    /// are exact no-ops.
    pub fn ensure_peer_slots(&mut self, n_slots: usize) {
        if n_slots > self.peer_results.len() {
            self.peer_results.resize(n_slots, Vec::new());
            self.peer_workload.resize(n_slots, Vec::new());
        }
    }

    /// Delta-update for a peer moving `from → to`: its result counts
    /// leave one cluster's mass numerator and enter the other's.
    /// O(|results of peer|), and bit-identical to a full
    /// [`RecallIndex::rebuild`] because the numerators are integers.
    pub fn apply_move(&mut self, peer: PeerId, from: ClusterId, to: ClusterId) {
        if from == to {
            return;
        }
        for &(qid, count) in &self.peer_results[peer.index()] {
            let row = &mut self.mass_num[qid as usize];
            mass_sub(row, from, count);
            mass_add(row, to, count);
        }
    }

    /// Delta-update for an already-indexed peer joining cluster `to`
    /// (assignment of an unassigned peer slot). The peer's content must
    /// already be part of the index's totals — churn joins that *add*
    /// content follow up with [`RecallIndex::apply_content_update`].
    pub fn apply_join(&mut self, peer: PeerId, to: ClusterId) {
        for &(qid, count) in &self.peer_results[peer.index()] {
            mass_add(&mut self.mass_num[qid as usize], to, count);
        }
    }

    /// Delta-update for a peer leaving cluster `from` (churn departure).
    /// Totals still count the departed peer's data, matching
    /// [`RecallIndex::rebuild`] semantics — when its documents are
    /// actually dropped from the store, follow up with
    /// [`RecallIndex::apply_content_update`]`(peer, None, &[])`.
    pub fn apply_leave(&mut self, peer: PeerId, from: ClusterId) {
        for &(qid, count) in &self.peer_results[peer.index()] {
            mass_sub(&mut self.mass_num[qid as usize], from, count);
        }
    }

    /// Number of distinct queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// The distinct queries, in id order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The id of a query, if it appears in some workload.
    pub fn qid(&self, q: &Query) -> Option<QueryId> {
        self.qid_of.get(q).copied()
    }

    /// `result(q, p)`.
    pub fn result(&self, qid: QueryId, peer: PeerId) -> u64 {
        self.peer_results[peer.index()]
            .binary_search_by_key(&qid, |&(q, _)| q)
            .map(|i| self.peer_results[peer.index()][i].1)
            .unwrap_or(0)
    }

    /// `Σ_p result(q, p)`.
    pub fn total(&self, qid: QueryId) -> u64 {
        self.totals[qid as usize]
    }

    /// `r(q, p)`; zero when the query has no results anywhere (the 0/0
    /// case is defined as 0 — an unanswerable query costs nothing).
    pub fn r(&self, qid: QueryId, peer: PeerId) -> f64 {
        let total = self.totals[qid as usize];
        if total == 0 {
            0.0
        } else {
            self.result(qid, peer) as f64 / total as f64
        }
    }

    /// Recall mass of cluster `cid` for query `qid`:
    /// `Σ_{pj ∈ c} r(q, pj)` under the maintained assignment, derived as
    /// `cluster_mass_num / total` (zero for unanswerable queries).
    pub fn cluster_mass(&self, qid: QueryId, cid: ClusterId) -> f64 {
        let total = self.totals[qid as usize];
        if total == 0 {
            0.0
        } else {
            self.cluster_mass_num(qid, cid) as f64 / total as f64
        }
    }

    /// The integer numerator behind [`RecallIndex::cluster_mass`]:
    /// `Σ_{pj ∈ c} result(q, pj)`, i.e. the results cluster `cid`
    /// returns for the query. Exact, so equivalence tests can assert
    /// delta-maintained state equals a rebuild bit for bit.
    pub fn cluster_mass_num(&self, qid: QueryId, cid: ClusterId) -> u64 {
        self.cluster_answer(qid, cid).0
    }

    /// What cluster `cid` answers to query `qid` under the maintained
    /// assignment: `(results, holders)` — the result count summed over
    /// its members and the number of members holding at least one
    /// result. Equal to walking the cluster's members against the store
    /// (property-tested), in O(log cells) instead of O(members × docs).
    /// `(0, 0)` for a cluster that holds nothing for the query.
    pub fn cluster_answer(&self, qid: QueryId, cid: ClusterId) -> (u64, u32) {
        let row = &self.mass_num[qid as usize];
        row.binary_search_by_key(&cid, |cell| cell.cluster)
            .map(|i| (row[i].results, row[i].holders))
            .unwrap_or((0, 0))
    }

    /// Cluster slots the mass rows cover.
    pub fn mass_cmax(&self) -> usize {
        self.cmax
    }

    /// The `(qid, relative frequency)` pairs of a peer's workload.
    pub fn workload_of(&self, peer: PeerId) -> &[(QueryId, f64)] {
        &self.peer_workload[peer.index()]
    }

    /// The `(qid, result count)` pairs a peer can answer.
    pub fn results_of(&self, peer: PeerId) -> &[(QueryId, u64)] {
        &self.peer_results[peer.index()]
    }

    /// The sparse mass row of query `qid`: one [`MassCell`] per cluster
    /// holding results for it, ascending by cluster id. The scan of
    /// [`best_response`](crate::equilibrium::best_response) walks it
    /// alongside its ascending candidates instead of searching it once
    /// per candidate.
    pub(crate) fn mass_cells(&self, qid: QueryId) -> &[MassCell] {
        &self.mass_num[qid as usize]
    }
}

/// One cell of a sparse mass row: cluster `cluster` holds `results =
/// Σ_{pj ∈ c} result(q, pj)` results for the row's query, spread over
/// `holders` members with a nonzero count. `holders` sits in what would
/// otherwise be padding after the `u32` cluster id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MassCell {
    pub(crate) cluster: ClusterId,
    holders: u32,
    pub(crate) results: u64,
}

// The holder count fills the former `(ClusterId, u64)` pair's padding;
// it must not grow the cells the sparse rows are sized by.
const _: () = assert!(std::mem::size_of::<MassCell>() == 16);

/// Adds one holder's `count` results to a sparse mass row, inserting the
/// cluster's cell at its sorted position if absent. `count` must be
/// nonzero (callers only pass stored result counts, which are nonzero by
/// construction), so every call adds exactly one answering member.
fn mass_add(row: &mut Vec<MassCell>, cid: ClusterId, count: u64) {
    match row.binary_search_by_key(&cid, |cell| cell.cluster) {
        Ok(i) => {
            row[i].results += count;
            row[i].holders += 1;
        }
        Err(i) => row.insert(
            i,
            MassCell {
                cluster: cid,
                holders: 1,
                results: count,
            },
        ),
    }
}

/// Removes one holder's `count` results from a sparse mass row, dropping
/// the cell when it reaches zero (the *present ⟺ nonzero* invariant).
///
/// # Panics
/// Panics if the cluster has no cell, less mass than `count` or no
/// holder left, or if the last result leaves while holders remain — the
/// same accounting bug a dense row would surface as integer underflow.
fn mass_sub(row: &mut Vec<MassCell>, cid: ClusterId, count: u64) {
    let i = row
        .binary_search_by_key(&cid, |cell| cell.cluster)
        .unwrap_or_else(|_| panic!("mass underflow: no cell for {cid}"));
    let cell = &mut row[i];
    cell.results = cell.results.checked_sub(count).expect("mass underflow");
    cell.holders = cell.holders.checked_sub(1).expect("holder underflow");
    if cell.results == 0 {
        assert_eq!(
            cell.holders, 0,
            "mass cell of {cid} dropped with holders left"
        );
        row.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_types::{ClusterId, Document, Sym};

    /// 3 peers: p0 holds {1,2}, p1 holds {1},{1,3}, p2 holds {2}.
    /// p0 queries kw(1) twice and kw(2) once; p1 queries kw(2); p2 none.
    fn fixture() -> (Overlay, ContentStore, Vec<Workload>) {
        let mut ov = Overlay::singletons(3);
        ov.move_peer(PeerId(1), ClusterId(0));
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(1), Sym(2)]));
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(1), Document::new(vec![Sym(1), Sym(3)]));
        store.add(PeerId(2), Document::new(vec![Sym(2)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(1)), 2);
        w0.add(Query::keyword(Sym(2)), 1);
        let mut w1 = Workload::new();
        w1.add(Query::keyword(Sym(2)), 1);
        let workloads = vec![w0, w1, Workload::new()];
        (ov, store, workloads)
    }

    #[test]
    fn result_counts_match_manual_evaluation() {
        let (ov, store, w) = fixture();
        let idx = RecallIndex::build(&ov, &store, &w);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        let q2 = idx.qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(idx.result(q1, PeerId(0)), 1);
        assert_eq!(idx.result(q1, PeerId(1)), 2);
        assert_eq!(idx.result(q1, PeerId(2)), 0);
        assert_eq!(idx.total(q1), 3);
        assert_eq!(idx.result(q2, PeerId(0)), 1);
        assert_eq!(idx.result(q2, PeerId(2)), 1);
        assert_eq!(idx.total(q2), 2);
    }

    #[test]
    fn r_fractions_sum_to_one_over_peers() {
        let (ov, store, w) = fixture();
        let idx = RecallIndex::build(&ov, &store, &w);
        for qid in 0..idx.n_queries() as QueryId {
            let sum: f64 = (0..3).map(|p| idx.r(qid, PeerId(p))).sum();
            assert!((sum - 1.0).abs() < 1e-12, "qid {qid}: {sum}");
        }
    }

    #[test]
    fn cluster_mass_reflects_assignment() {
        let (ov, store, w) = fixture();
        let idx = RecallIndex::build(&ov, &store, &w);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        // c0 = {p0, p1}: mass = 1/3 + 2/3 = 1.
        assert!((idx.cluster_mass(q1, ClusterId(0)) - 1.0).abs() < 1e-12);
        assert_eq!(idx.cluster_mass(q1, ClusterId(2)), 0.0);
        let q2 = idx.qid(&Query::keyword(Sym(2))).unwrap();
        assert!((idx.cluster_mass(q2, ClusterId(0)) - 0.5).abs() < 1e-12);
        assert!((idx.cluster_mass(q2, ClusterId(2)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn refresh_mass_tracks_moves() {
        let (mut ov, store, w) = fixture();
        let mut idx = RecallIndex::build(&ov, &store, &w);
        ov.move_peer(PeerId(2), ClusterId(0));
        idx.refresh_mass(&ov);
        let q2 = idx.qid(&Query::keyword(Sym(2))).unwrap();
        assert!((idx.cluster_mass(q2, ClusterId(0)) - 1.0).abs() < 1e-12);
        assert_eq!(idx.cluster_mass(q2, ClusterId(2)), 0.0);
    }

    #[test]
    fn workload_weights_are_relative_frequencies() {
        let (ov, store, w) = fixture();
        let idx = RecallIndex::build(&ov, &store, &w);
        let wl = idx.workload_of(PeerId(0));
        assert_eq!(wl.len(), 2);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        let freq1 = wl.iter().find(|&&(q, _)| q == q1).unwrap().1;
        assert!((freq1 - 2.0 / 3.0).abs() < 1e-12);
        assert!(idx.workload_of(PeerId(2)).is_empty());
    }

    #[test]
    fn unanswerable_query_has_zero_r() {
        let mut ov = Overlay::singletons(2);
        ov.move_peer(PeerId(1), ClusterId(0));
        let store = ContentStore::new(2);
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(9)), 1);
        let idx = RecallIndex::build(&ov, &store, &[w0, Workload::new()]);
        let q = idx.qid(&Query::keyword(Sym(9))).unwrap();
        assert_eq!(idx.total(q), 0);
        assert_eq!(idx.r(q, PeerId(0)), 0.0);
        assert_eq!(idx.cluster_mass(q, ClusterId(0)), 0.0);
    }

    #[test]
    fn departed_peers_do_not_contribute_mass() {
        let (mut ov, store, w) = fixture();
        let mut idx = RecallIndex::build(&ov, &store, &w);
        ov.unassign(PeerId(1));
        idx.refresh_mass(&ov);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        // Only p0's share remains in c0. (Totals still count p1's data —
        // callers rebuild the index when content actually changes.)
        assert!((idx.cluster_mass(q1, ClusterId(0)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one workload per peer slot")]
    fn mismatched_workloads_panic() {
        let (ov, store, _) = fixture();
        let _ = RecallIndex::build(&ov, &store, &[]);
    }

    /// Exact (bit-level) equality of all mass cells — numerators and
    /// holder counts — between a delta-maintained index and a rebuilt
    /// one.
    fn assert_masses_identical(delta: &RecallIndex, oracle: &RecallIndex, cmax: usize) {
        for qid in 0..delta.n_queries() as QueryId {
            for c in 0..cmax {
                let cid = ClusterId::from_index(c);
                assert_eq!(
                    delta.cluster_answer(qid, cid),
                    oracle.cluster_answer(qid, cid),
                    "qid {qid} cluster {c}"
                );
                assert!(
                    delta.cluster_mass(qid, cid).to_bits()
                        == oracle.cluster_mass(qid, cid).to_bits(),
                    "float mass differs at qid {qid} cluster {c}"
                );
            }
        }
    }

    #[test]
    fn apply_move_is_bit_identical_to_rebuild() {
        let (mut ov, store, w) = fixture();
        let mut idx = RecallIndex::build(&ov, &store, &w);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        // c0 = {p0, p1}: both hold kw(1) results (1 + 2).
        assert_eq!(idx.cluster_answer(q1, ClusterId(0)), (3, 2));
        for (peer, to) in [(1u32, 2u32), (2, 0), (0, 2), (1, 1), (2, 1)] {
            let from = ov.move_peer(PeerId(peer), ClusterId(to));
            idx.apply_move(PeerId(peer), from, ClusterId(to));
            let mut oracle = idx.clone();
            oracle.rebuild(&ov);
            assert_masses_identical(&idx, &oracle, ov.cmax());
        }
        // Final assignment: c1 = {p1, p2}, c2 = {p0}. p2 holds no kw(1)
        // result, so it adds no holder.
        assert_eq!(idx.cluster_answer(q1, ClusterId(1)), (2, 1));
        assert_eq!(idx.cluster_answer(q1, ClusterId(2)), (1, 1));
        assert_eq!(idx.cluster_answer(q1, ClusterId(0)), (0, 0));
    }

    #[test]
    fn apply_leave_and_join_match_rebuild() {
        let (mut ov, store, w) = fixture();
        let mut idx = RecallIndex::build(&ov, &store, &w);
        let q1 = idx.qid(&Query::keyword(Sym(1))).unwrap();
        let from = ov.unassign(PeerId(1)).unwrap();
        idx.apply_leave(PeerId(1), from);
        let mut oracle = idx.clone();
        oracle.rebuild(&ov);
        assert_masses_identical(&idx, &oracle, ov.cmax());
        assert_eq!(idx.cluster_answer(q1, ClusterId(0)), (1, 1), "p0 remains");

        ov.assign(PeerId(1), ClusterId(2));
        idx.apply_join(PeerId(1), ClusterId(2));
        oracle.rebuild(&ov);
        assert_masses_identical(&idx, &oracle, ov.cmax());
        assert_eq!(idx.cluster_answer(q1, ClusterId(2)), (2, 1), "p1 joins c2");
    }

    #[test]
    #[should_panic(expected = "dropped with holders left")]
    fn mass_sub_refuses_to_drop_a_cell_with_holders() {
        let mut row = Vec::new();
        mass_add(&mut row, ClusterId(0), 2);
        mass_add(&mut row, ClusterId(0), 3);
        // Removing all five results as if from one holder leaves the
        // other holder unaccounted for.
        mass_sub(&mut row, ClusterId(0), 5);
    }

    #[test]
    fn grown_slots_are_inert_until_rebuild() {
        let (mut ov, store, w) = fixture();
        let mut idx = RecallIndex::build(&ov, &store, &w);
        let newcomer = ov.grow();
        idx.ensure_cmax(ov.cmax());
        idx.ensure_peer_slots(ov.n_slots());
        ov.assign(newcomer, ClusterId(0));
        idx.apply_join(newcomer, ClusterId(0));
        // No content indexed for the newcomer: masses unchanged, and the
        // new cluster slot reads zero.
        let mut oracle = idx.clone();
        oracle.rebuild(&ov);
        assert_masses_identical(&idx, &oracle, ov.cmax());
        assert_eq!(idx.mass_cmax(), 4);
        assert!(idx.results_of(newcomer).is_empty());
    }
}
