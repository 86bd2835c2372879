//! Per-peer cached cost vectors.
//!
//! `scost` (Eq. 2) and the recall term of `WCost` (Eq. 3) both sum a
//! per-peer quantity over every live peer, and each peer's term costs
//! O(|Q(p)|) to recompute — so the naive implementations are
//! O(peers × workload) *per call*, on paths the protocol hits every
//! round. [`CostCache`] stores each peer's two terms:
//!
//! * `recall[p]` — the recall-loss part of `pcost(p, c_p)` at the peer's
//!   current cluster (the membership part is O(1) and computed on the
//!   fly),
//! * `wrecall[p]` — the peer's unnormalized contribution to the `WCost`
//!   recall term, `Σ_q num(q, Q(p)) · (1 − mass(q, c_p))`, and
//! * `away[p]` — the recall loss of evaluating any cluster that shares
//!   **no** result mass with the peer's workload,
//!   `Σ_q w(q) · (1 − r(q, p).min(1))` over answerable queries: the
//!   out-of-cluster `recall_loss` arithmetic with `mass = 0`, which is
//!   bit-identical to it because a zero mass numerator reads as exactly
//!   `0.0` and `0.0 + r == r` bitwise. The memo gate's O(1) fast path
//!   for costing a changed cluster a peer's workload cannot reach,
//!
//! plus the live demand `num(Q)` (the `WCost` denominator). Every
//! [`System`](crate::system::System) mutator marks exactly the peers
//! whose terms its change can affect — via per-query *holder* lists
//! (query → peers with that query in their workload), the inverse of the
//! index's weight rows — and the cache lazily recomputes the dirty
//! subset on the next read. A full rebuild (via
//! [`System::rebuild_cost_cache`](crate::system::System::rebuild_cost_cache))
//! is the oracle: because a dirty peer is recomputed by the *same*
//! function over the *same* index state, the delta-maintained cache is
//! bit-for-bit identical to a rebuilt one (property-tested in
//! `tests/prop_incremental.rs`).
//!
//! Net effect: after a protocol round that moved `k` peers, refreshing
//! every global cost report costs O(affected peers) — the holders of
//! queries the movers hold results for, inside the two clusters each
//! move touched — instead of O(all peers × workload).

use recluster_types::{ClusterId, PeerId, Workload};

use crate::recall::RecallIndex;

/// Cached per-peer cost terms with lazy dirty-set recomputation. Owned
/// by [`System`](crate::system::System); read through
/// [`System::cost_cache`](crate::system::System::cost_cache), which
/// flushes pending recomputations first.
#[derive(Debug, Clone)]
pub struct CostCache {
    /// Per peer slot: the recall-loss term of `pcost(p, c_p)` (0 for
    /// unassigned peers).
    recall: Vec<f64>,
    /// Per peer slot: `Σ_q num(q, Q(p)) · (1 − mass(q, c_p).min(1))`
    /// over answerable queries (0 for unassigned peers).
    wrecall: Vec<f64>,
    /// Per peer slot: the recall loss against a zero-overlap cluster,
    /// `Σ_q w(q) · (1 − r(q, p).min(1))` over answerable queries (0 for
    /// unassigned peers). The struct-of-arrays columns (`recall` /
    /// `wrecall` / `away` as three flat `f64` vectors rather than one
    /// array of structs) keep the flush write-back and the global-cost
    /// sweeps, which each touch one column, on dense cache lines.
    away: Vec<f64>,
    /// `Σ` workload totals over *assigned* peers — `num(Q)` of Eq. 3.
    live_demand: u64,
    /// Per query id: peer slots whose workload row contains it (the
    /// inverse of `RecallIndex::workload_of`; unordered).
    holders: Vec<Vec<u32>>,
    /// Per peer slot: whether the cached terms are stale.
    dirty: Vec<bool>,
    /// Slots with `dirty` set (no duplicates).
    dirty_list: Vec<u32>,
    /// Everything is stale (fresh system, or an escape-hatch mutation):
    /// the next flush rebuilds values, holders and live demand wholesale.
    all_dirty: bool,
    /// Per peer slot: monotone count of invalidations (how often the
    /// slot was first-marked since construction). Never reset by a
    /// flush; it measures how much recomputation the marks caused.
    marks: Vec<u64>,
    /// Monotone count of wholesale invalidations ([`CostCache::mark_all`]
    /// calls) — the per-slot counters' global companion.
    all_marks: u64,
}

impl CostCache {
    /// A cache over `n_slots` peer slots with everything marked stale.
    ///
    /// # Panics
    /// Panics if `n_slots` exceeds `u32::MAX`: slot ids are stored as
    /// compact `u32` throughout (`dirty_list`, `holders`), so a >4B-slot
    /// configuration must fail loudly here instead of truncating ids
    /// silently later.
    pub(crate) fn new_all_dirty(n_slots: usize) -> Self {
        assert!(
            n_slots <= u32::MAX as usize,
            "CostCache stores slot ids as u32: {n_slots} slots exceed u32::MAX"
        );
        CostCache {
            recall: vec![0.0; n_slots],
            wrecall: vec![0.0; n_slots],
            away: vec![0.0; n_slots],
            live_demand: 0,
            holders: Vec::new(),
            dirty: vec![false; n_slots],
            dirty_list: Vec::new(),
            all_dirty: true,
            marks: vec![0; n_slots],
            all_marks: 0,
        }
    }

    /// The cached recall-loss term of `pcost(peer, current cluster)`.
    /// Zero for unassigned peers.
    pub fn recall_loss_of(&self, peer: PeerId) -> f64 {
        self.recall[peer.index()]
    }

    /// The cached unnormalized `WCost` recall contribution of `peer`.
    /// Zero for unassigned peers.
    pub fn wrecall_of(&self, peer: PeerId) -> f64 {
        self.wrecall[peer.index()]
    }

    /// The cached recall loss of `peer` against any cluster sharing no
    /// result mass with its workload — bit-identical to
    /// [`recall_loss`](crate::cost::recall_loss) at such a cluster.
    /// Zero for unassigned peers.
    pub fn away_of(&self, peer: PeerId) -> f64 {
        self.away[peer.index()]
    }

    /// `num(Q)`: total query demand of the assigned peers.
    pub fn live_demand(&self) -> u64 {
        self.live_demand
    }

    /// Whether any slot still awaits recomputation (false after a flush).
    pub fn is_fresh(&self) -> bool {
        !self.all_dirty && self.dirty_list.is_empty()
    }

    pub(crate) fn mark_all(&mut self) {
        self.all_dirty = true;
        self.all_marks += 1;
        self.dirty_list.clear();
        self.dirty.iter_mut().for_each(|d| *d = false);
    }

    pub(crate) fn mark(&mut self, slot: usize) {
        if self.all_dirty || self.dirty[slot] {
            return;
        }
        debug_assert!(u32::try_from(slot).is_ok(), "slot id {slot} overflows u32");
        self.dirty[slot] = true;
        self.marks[slot] += 1;
        self.dirty_list.push(slot as u32);
    }

    /// Monotone invalidation count of a peer slot — unchanged means the
    /// slot was never (first-)marked since the caller last read it. The
    /// proposal memo does not need it: every change that marks a slot
    /// also stamps the peer's cluster or the global epoch of the
    /// [`Epochs`](crate::view::Epochs) journal.
    pub fn slot_marks(&self, slot: usize) -> u64 {
        self.marks.get(slot).copied().unwrap_or(0)
    }

    /// Monotone count of wholesale invalidations (escape-hatch
    /// mutations, rebuilds), each of which also stamps the global epoch.
    pub fn all_marks(&self) -> u64 {
        self.all_marks
    }

    /// The live peer slots holding query `qid` in their workloads (the
    /// query → holders inverse of `RecallIndex::workload_of`), unordered;
    /// empty for unknown ids. Only meaningful on a *flushed* cache —
    /// read it through [`System::cost_cache`](crate::system::System::cost_cache)
    /// or a [`SystemView`](crate::view::SystemView). Includes unassigned
    /// holders (their workloads persist across churn); callers that need
    /// live demand must filter by assignment.
    pub fn holders_of(&self, qid: usize) -> &[u32] {
        self.holders.get(qid).map_or(&[], Vec::as_slice)
    }

    /// Grows the per-slot tables (churn joins grow the overlay); fresh
    /// slots start dirty.
    ///
    /// # Panics
    /// Panics if `n_slots` exceeds `u32::MAX` (compact slot ids — see
    /// [`CostCache::new_all_dirty`]).
    pub(crate) fn ensure_slots(&mut self, n_slots: usize) {
        assert!(
            n_slots <= u32::MAX as usize,
            "CostCache stores slot ids as u32: {n_slots} slots exceed u32::MAX"
        );
        while self.recall.len() < n_slots {
            self.recall.push(0.0);
            self.wrecall.push(0.0);
            self.away.push(0.0);
            self.dirty.push(false);
            self.marks.push(0);
            let slot = self.dirty.len() - 1;
            self.mark(slot);
        }
    }

    pub(crate) fn add_live_demand(&mut self, demand: u64) {
        if !self.all_dirty {
            self.live_demand += demand;
        }
    }

    pub(crate) fn sub_live_demand(&mut self, demand: u64) {
        if !self.all_dirty {
            self.live_demand -= demand;
        }
    }

    pub(crate) fn add_holder(&mut self, qid: usize, slot: usize) {
        if self.all_dirty {
            return;
        }
        debug_assert!(u32::try_from(slot).is_ok(), "slot id {slot} overflows u32");
        if self.holders.len() <= qid {
            self.holders.resize_with(qid + 1, Vec::new);
        }
        self.holders[qid].push(slot as u32);
    }

    pub(crate) fn remove_holder(&mut self, qid: usize, slot: usize) {
        if self.all_dirty || qid >= self.holders.len() {
            return;
        }
        if let Some(pos) = self.holders[qid].iter().position(|&h| h == slot as u32) {
            self.holders[qid].swap_remove(pos);
        }
    }

    /// Marks every holder of `qid` accepted by `pred` — the peers whose
    /// cached terms depend on a mass or total of `qid` that just changed.
    pub(crate) fn mark_holders(&mut self, qid: usize, pred: impl Fn(u32) -> bool) {
        if self.all_dirty || qid >= self.holders.len() {
            return;
        }
        for i in 0..self.holders[qid].len() {
            let h = self.holders[qid][i];
            if pred(h) {
                self.mark(h as usize);
            }
        }
    }

    /// Recomputes the dirty slots (or, after [`CostCache::mark_all`],
    /// everything including holders and live demand). Called by
    /// `System::cost_cache` before any read.
    ///
    /// Large dirty sets — a churn batch marks every holder of every
    /// touched query — shard over contiguous ranges of the dirty list:
    /// each slot's terms are a pure function of the (read-only) index,
    /// assignment and workloads, so the range results, written back in
    /// list order, are byte-identical to the sequential walk
    /// (`prop_sharded_flush`).
    pub(crate) fn flush(
        &mut self,
        index: &RecallIndex,
        overlay: &recluster_overlay::Overlay,
        workloads: &[Workload],
    ) {
        if self.all_dirty {
            self.rebuild(index, overlay, workloads);
            return;
        }
        if self.dirty_list.is_empty() {
            return;
        }
        let list = std::mem::take(&mut self.dirty_list);
        if crate::shard::should_shard(list.len()) {
            let parts = crate::shard::map_ranges(list.len(), |range| {
                list[range]
                    .iter()
                    .map(|&slot| slot_terms(index, overlay, workloads, slot as usize))
                    .collect::<Vec<_>>()
            });
            let mut slots = list.iter();
            for part in parts {
                for (recall, wrecall, away) in part {
                    let slot = *slots.next().expect("one term triple per dirty slot") as usize;
                    self.dirty[slot] = false;
                    self.recall[slot] = recall;
                    self.wrecall[slot] = wrecall;
                    self.away[slot] = away;
                }
            }
            debug_assert!(slots.next().is_none());
        } else {
            for &slot in &list {
                let (recall, wrecall, away) = slot_terms(index, overlay, workloads, slot as usize);
                self.dirty[slot as usize] = false;
                self.recall[slot as usize] = recall;
                self.wrecall[slot as usize] = wrecall;
                self.away[slot as usize] = away;
            }
        }
    }

    /// The from-scratch oracle: recomputes every peer's terms, the
    /// holder lists and the live demand from the index, assignment and
    /// workloads. The delta path (marks + [`CostCache::flush`]) must be
    /// bit-identical to this. The per-slot term computation shards like
    /// the flush; the holder scatter and demand sum stay sequential
    /// (they fold into shared rows).
    pub(crate) fn rebuild(
        &mut self,
        index: &RecallIndex,
        overlay: &recluster_overlay::Overlay,
        workloads: &[Workload],
    ) {
        let n_slots = overlay.n_slots();
        assert!(
            n_slots <= u32::MAX as usize,
            "CostCache stores slot ids as u32: {n_slots} slots exceed u32::MAX"
        );
        self.recall = vec![0.0; n_slots];
        self.wrecall = vec![0.0; n_slots];
        self.away = vec![0.0; n_slots];
        self.dirty = vec![false; n_slots];
        self.marks.resize(n_slots, 0);
        self.dirty_list.clear();
        self.live_demand = 0;
        self.holders = vec![Vec::new(); index.n_queries()];
        for (slot, workload) in workloads.iter().enumerate().take(n_slots) {
            let peer = PeerId::from_index(slot);
            for &(qid, _) in index.workload_of(peer) {
                self.holders[qid as usize].push(slot as u32);
            }
            if overlay.cluster_of(peer).is_some() {
                self.live_demand += workload.total();
            }
        }
        if crate::shard::should_shard(n_slots) {
            let parts = crate::shard::map_ranges(n_slots, |range| {
                range
                    .map(|slot| slot_terms(index, overlay, workloads, slot))
                    .collect::<Vec<_>>()
            });
            let mut slot = 0;
            for part in parts {
                for (recall, wrecall, away) in part {
                    self.recall[slot] = recall;
                    self.wrecall[slot] = wrecall;
                    self.away[slot] = away;
                    slot += 1;
                }
            }
            debug_assert_eq!(slot, n_slots);
        } else {
            for slot in 0..n_slots {
                let (recall, wrecall, away) = slot_terms(index, overlay, workloads, slot);
                self.recall[slot] = recall;
                self.wrecall[slot] = wrecall;
                self.away[slot] = away;
            }
        }
        self.all_dirty = false;
    }
}

/// One slot's cached terms `(recall, wrecall, away)` — the single
/// recomputation function both the sequential and the sharded
/// flush/rebuild paths call, so parallel results are bit-identical by
/// construction.
fn slot_terms(
    index: &RecallIndex,
    overlay: &recluster_overlay::Overlay,
    workloads: &[Workload],
    slot: usize,
) -> (f64, f64, f64) {
    let peer = PeerId::from_index(slot);
    match overlay.cluster_of(peer) {
        Some(cid) => (
            recall_loss_in(index, peer, cid),
            wrecall_term(index, workloads, peer, cid),
            away_term(index, peer),
        ),
        None => (0.0, 0.0, 0.0),
    }
}

/// The recall-loss term of Eq. 1 for a peer evaluated **at its own
/// cluster** — the arithmetic [`cost::recall_loss`](crate::cost::recall_loss)
/// uses for the in-cluster case, shared so the cached value is
/// bit-identical to the direct computation.
pub(crate) fn recall_loss_in(index: &RecallIndex, peer: PeerId, cid: ClusterId) -> f64 {
    let mut loss = 0.0;
    for &(qid, weight) in index.workload_of(peer) {
        if index.total(qid) == 0 {
            continue; // unanswerable query: no recall to lose
        }
        let inside = index.cluster_mass(qid, cid);
        loss += weight * (1.0 - inside.min(1.0));
    }
    loss
}

/// The recall-loss term of Eq. 1 for a peer evaluated at a cluster
/// sharing **no** result mass with its workload: the out-of-cluster
/// arithmetic of [`cost::recall_loss`](crate::cost::recall_loss) with
/// every `cluster_mass` equal to `0.0` — bit-identical to it there
/// because `0.0 + r(q, p)` reproduces `r(q, p)` exactly and the
/// accumulation order (workload order) and operations are the same.
pub(crate) fn away_term(index: &RecallIndex, peer: PeerId) -> f64 {
    let mut loss = 0.0;
    for &(qid, weight) in index.workload_of(peer) {
        if index.total(qid) == 0 {
            continue; // unanswerable query: no recall to lose
        }
        let inside = index.r(qid, peer);
        loss += weight * (1.0 - inside.min(1.0));
    }
    loss
}

/// One peer's unnormalized contribution to the `WCost` recall term
/// (Eq. 3): `Σ_q num(q, Q(p)) · (1 − mass(q, c_p).min(1))` over
/// answerable queries.
pub(crate) fn wrecall_term(
    index: &RecallIndex,
    workloads: &[Workload],
    peer: PeerId,
    cid: ClusterId,
) -> f64 {
    let peer_total = workloads[peer.index()].total();
    if peer_total == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for &(qid, rel_freq) in index.workload_of(peer) {
        if index.total(qid) == 0 {
            continue;
        }
        let num_q_pi = rel_freq * peer_total as f64; // num(q, Q(pi))
        let loss = 1.0 - index.cluster_mass(qid, cid).min(1.0);
        acc += num_q_pi * loss;
    }
    acc
}
