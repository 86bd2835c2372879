//! The read/write split of [`System`](crate::system::System): a
//! `Sync` snapshot for parallel
//! phase-1 rounds.
//!
//! [`System`](crate::system::System) hides a `RefCell<CostCache>` so
//! cost reads can lazily
//! recompute dirty entries — convenient, but interior mutability makes
//! `&System` useless across threads, which forced the protocol's
//! phase 1 (per-peer proposal computation, an embarrassingly parallel
//! pure read of global state) to run sequentially. [`SystemView`] is the
//! fix: an immutable borrow of every read-side component — overlay,
//! content store, workloads, recall index, routing summaries and a
//! **pre-flushed** [`CostCache`] — with no cells, no locks and no
//! mutation. It is `Sync` by construction (asserted in this module's
//! tests), so the `crates/compat/rayon` shim can shard peers across
//! worker threads while every shard reads the same state.
//!
//! [`SystemRead`] is the trait the cost functions are generic over:
//! [`pcost`](crate::cost::pcost), [`scost`](crate::global::scost),
//! [`best_response`](crate::equilibrium::best_response) and friends
//! accept either a `&System` (lazy flush through the `RefCell`, exactly
//! as before) or a `&SystemView` (plain loads). Both routes execute the
//! same arithmetic over the same values, so their results are
//! **bit-identical** — property-tested in
//! `crates/core/tests/prop_view_memo.rs`.
//!
//! [`Epochs`] is the change journal that makes cross-round proposal
//! memoization sound: a monotone logical clock stamps every cluster
//! whose size or recall mass changed and a global stamp covers
//! system-wide shifts (`|P|` changes, content/total updates, a peer's
//! own workload rows, parameter changes, escape-hatch mutations). The
//! proposal memo reads nothing but this journal and fresh costs — see
//! [`ProposalMemo`](crate::protocol::ProposalMemo).

use recluster_overlay::{ClusterSummaries, ContentStore, Overlay};
use recluster_types::{ClusterId, PeerId, Workload};

use crate::costcache::CostCache;
use crate::recall::RecallIndex;
use crate::system::GameConfig;

/// Monotone change stamps for the quantities a peer's best response
/// depends on. Owned by [`System`](crate::system::System); every mutator
/// advances the clock and stamps exactly the clusters its change
/// touched (or the global stamp when the change is system-wide).
#[derive(Debug)]
pub struct Epochs {
    /// Process-unique id of the owning `System` lineage, assigned at
    /// construction **and on every clone**. Stamps of different
    /// lineages are not comparable — two fresh systems both start at
    /// clock 0, and a forked clone's clock advances independently of
    /// its origin's — so consumers like the proposal memo key their
    /// state on this id and treat any id change as a full miss.
    system_id: u64,
    /// The logical clock: strictly increases with every stamped change.
    now: u64,
    /// Per cluster slot: clock value of the last size or mass change.
    cluster: Vec<u64>,
    /// Clock value of the last system-wide change: `|P|` (membership
    /// term denominators), result totals (every `r(q, p)` and mass
    /// denominator), a peer's workload rows, game parameters, or an
    /// escape-hatch mutation (`overlay_mut`, `refresh_mass`,
    /// `rebuild_index`, `rebuild_cost_cache`).
    global: u64,
}

fn next_system_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_SYSTEM_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_SYSTEM_ID.fetch_add(1, Ordering::Relaxed)
}

impl Clone for Epochs {
    /// A clone starts a **fresh lineage**: after the fork, origin and
    /// clone mutate independently, so stamps taken on one say nothing
    /// about the other even though both clocks keep increasing (e.g.
    /// the origin could reach clock 15 while the mutated clone sits at
    /// 13 — an entry stamped 15 on the origin would wrongly dominate
    /// the clone's gate). A new id makes every cross-fork memo lookup
    /// a miss instead.
    fn clone(&self) -> Self {
        Epochs {
            system_id: next_system_id(),
            now: self.now,
            cluster: self.cluster.clone(),
            global: self.global,
        }
    }
}

impl Epochs {
    /// An all-zero journal covering `cmax` cluster slots, under a fresh
    /// lineage id.
    pub(crate) fn new(cmax: usize) -> Self {
        Epochs {
            system_id: next_system_id(),
            now: 0,
            cluster: vec![0; cmax],
            global: 0,
        }
    }

    /// The owning system lineage's process-unique id.
    pub fn system_id(&self) -> u64 {
        self.system_id
    }

    /// The current clock value.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Clock value of the last change to cluster `cid`'s size or masses
    /// (zero if it never changed; clusters beyond the journal's width
    /// report zero too, which is exact — they were empty and untouched).
    pub fn cluster(&self, cid: ClusterId) -> u64 {
        self.cluster.get(cid.index()).copied().unwrap_or(0)
    }

    /// Clock value of the last system-wide change.
    pub fn global(&self) -> u64 {
        self.global
    }

    pub(crate) fn bump_cluster(&mut self, cid: ClusterId) {
        self.now += 1;
        if self.cluster.len() <= cid.index() {
            self.cluster.resize(cid.index() + 1, 0);
        }
        self.cluster[cid.index()] = self.now;
    }

    pub(crate) fn bump_global(&mut self) {
        self.now += 1;
        self.global = self.now;
    }

    pub(crate) fn ensure_cmax(&mut self, cmax: usize) {
        if self.cluster.len() < cmax {
            self.cluster.resize(cmax, 0);
        }
    }
}

/// Read access to the game state, satisfied by both
/// [`System`](crate::system::System) (lazy cache flush behind a
/// `RefCell`) and [`SystemView`] (plain pre-flushed borrows). The cost
/// functions are generic over this trait, so one implementation serves
/// the sequential mutation path and the parallel read path with
/// bit-identical results.
pub trait SystemRead {
    /// The clustered overlay.
    fn overlay(&self) -> &Overlay;

    /// The recall index.
    fn index(&self) -> &RecallIndex;

    /// The game parameters.
    fn config(&self) -> GameConfig;

    /// Per-peer workloads, indexed by peer slot.
    fn workloads(&self) -> &[Workload];

    /// Live peer count `|P|`.
    fn n_peers(&self) -> usize {
        self.overlay().n_peers()
    }

    /// The cached recall-loss term of `pcost(peer, current cluster)`.
    fn cached_recall_loss(&self, peer: PeerId) -> f64;

    /// The cached unnormalized `WCost` recall contribution of `peer`.
    fn cached_wrecall(&self, peer: PeerId) -> f64;

    /// The cached recall loss of `peer` against any cluster sharing no
    /// result mass with its workload (the memo gate's fast path — see
    /// [`CostCache::away_of`]).
    fn cached_away(&self, peer: PeerId) -> f64;

    /// `num(Q)`: total query demand of the assigned peers.
    fn cached_live_demand(&self) -> u64;
}

/// A `Sync`, immutable snapshot of a [`System`](crate::system::System):
/// shared borrows of every read-side structure plus a pre-flushed
/// [`CostCache`]. Build one with
/// [`System::view`](crate::system::System::view) (which flushes the
/// cache first); evaluate [`pcost`](crate::cost::pcost) /
/// [`best_response`](crate::equilibrium::best_response) /
/// [`scost`](crate::global::scost) against it with `&self` and no
/// interior mutability — from as many threads as you like.
#[derive(Debug, Clone, Copy)]
pub struct SystemView<'a> {
    pub(crate) overlay: &'a Overlay,
    pub(crate) store: &'a ContentStore,
    pub(crate) workloads: &'a [Workload],
    pub(crate) config: GameConfig,
    pub(crate) index: &'a RecallIndex,
    pub(crate) summaries: &'a ClusterSummaries,
    pub(crate) cache: &'a CostCache,
    pub(crate) epochs: &'a Epochs,
}

impl<'a> SystemView<'a> {
    /// The clustered overlay.
    pub fn overlay(&self) -> &'a Overlay {
        self.overlay
    }

    /// The content store.
    pub fn store(&self) -> &'a ContentStore {
        self.store
    }

    /// Per-peer workloads, indexed by peer slot.
    pub fn workloads(&self) -> &'a [Workload] {
        self.workloads
    }

    /// The game parameters.
    pub fn config(&self) -> GameConfig {
        self.config
    }

    /// The recall index.
    pub fn index(&self) -> &'a RecallIndex {
        self.index
    }

    /// The per-cluster content summaries.
    pub fn summaries(&self) -> &'a ClusterSummaries {
        self.summaries
    }

    /// The pre-flushed cost cache (plain borrow — no `RefCell` guard).
    pub fn cost_cache(&self) -> &'a CostCache {
        self.cache
    }

    /// The change journal (cluster / global stamps).
    pub fn epochs(&self) -> &'a Epochs {
        self.epochs
    }

    /// Live peer count `|P|`.
    pub fn n_peers(&self) -> usize {
        self.overlay.n_peers()
    }
}

impl SystemRead for SystemView<'_> {
    fn overlay(&self) -> &Overlay {
        self.overlay
    }

    fn index(&self) -> &RecallIndex {
        self.index
    }

    fn config(&self) -> GameConfig {
        self.config
    }

    fn workloads(&self) -> &[Workload] {
        self.workloads
    }

    fn cached_recall_loss(&self, peer: PeerId) -> f64 {
        debug_assert!(self.cache.is_fresh(), "SystemView cache must be flushed");
        self.cache.recall_loss_of(peer)
    }

    fn cached_wrecall(&self, peer: PeerId) -> f64 {
        self.cache.wrecall_of(peer)
    }

    fn cached_away(&self, peer: PeerId) -> f64 {
        self.cache.away_of(peer)
    }

    fn cached_live_demand(&self) -> u64 {
        self.cache.live_demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use recluster_types::{Document, Query, Sym};

    fn assert_sync<T: Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn view_is_sync_and_send() {
        // The whole point of the layer: a view can be shared across the
        // rayon shim's scoped workers.
        assert_sync::<SystemView<'_>>();
        assert_send::<SystemView<'_>>();
    }

    fn tiny() -> System {
        let mut ov = Overlay::singletons(2);
        ov.move_peer(PeerId(1), ClusterId(0));
        let mut store = ContentStore::new(2);
        store.add(PeerId(0), Document::new(vec![Sym(1)]));
        store.add(PeerId(1), Document::new(vec![Sym(2)]));
        let mut w0 = Workload::new();
        w0.add(Query::keyword(Sym(2)), 1);
        System::new(ov, store, vec![w0, Workload::new()], GameConfig::default())
    }

    #[test]
    fn view_cost_reads_match_system() {
        let mut sys = tiny();
        sys.move_peer(PeerId(1), ClusterId(1)); // dirty the cache
        let direct = crate::cost::pcost_current(&sys, PeerId(0));
        let view = sys.view();
        assert!(view.cost_cache().is_fresh(), "view() must flush");
        let viewed = crate::cost::pcost_current(&view, PeerId(0));
        assert_eq!(direct.to_bits(), viewed.to_bits());
        assert_eq!(
            crate::global::scost(&sys).to_bits(),
            crate::global::scost(&sys.view()).to_bits()
        );
    }

    #[test]
    fn epochs_track_moves_and_global_shifts() {
        let mut sys = tiny();
        let before = sys.view().epochs().cluster(ClusterId(1));
        sys.move_peer(PeerId(1), ClusterId(1));
        let view = sys.view();
        assert!(view.epochs().cluster(ClusterId(1)) > before, "dst stamped");
        assert!(
            view.epochs().cluster(ClusterId(0)) > before,
            "src stamped too"
        );
        let g = view.epochs().global();
        sys.set_content(PeerId(0), vec![Document::new(vec![Sym(2)])]);
        assert!(
            sys.view().epochs().global() > g,
            "totals changes stamp the global epoch"
        );
    }

    #[test]
    fn epochs_report_zero_for_unjournaled_clusters() {
        let mut sys = tiny();
        let view = sys.view();
        assert_eq!(view.epochs().cluster(ClusterId(999)), 0);
    }
}
