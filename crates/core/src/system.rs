//! The game state.
//!
//! [`System`] bundles everything the cost functions and strategies need:
//! the clustered overlay, the per-peer content, the per-peer workloads,
//! the game parameters (`α`, `θ`) and the precomputed [`RecallIndex`].
//! It is the single mutation point for membership, content *and*
//! workload changes, so the index, the routing summaries and the
//! [`CostCache`] never go stale: every mutator applies a symmetric
//! delta to all three, and the from-scratch rebuilds are kept only as
//! oracles (and as repair steps after [`System::overlay_mut`]).

use std::cell::{Ref, RefCell};
use std::sync::Arc;

use recluster_overlay::{
    ChurnDelta, ChurnEvent, ClusterSummaries, ContentStore, MsgKind, Overlay, SimNetwork, Theta,
};
use recluster_types::{ClusterId, Document, PeerId, Workload};

use crate::costcache::CostCache;
use crate::recall::RecallIndex;
use crate::view::{Epochs, SystemRead, SystemView};

/// Game parameters of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameConfig {
    /// `α ≥ 0`: weight of the cluster-membership cost ("determines the
    /// extent of influence of the cluster participation cost"). The
    /// paper's experiments use `α = 1`.
    pub alpha: f64,
    /// The cluster-maintenance cost model `θ` (linear in the paper's
    /// experiments).
    pub theta: Theta,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            alpha: 1.0,
            theta: Theta::Linear,
        }
    }
}

/// The complete state of the reformulation game.
///
/// # Cloning
///
/// `Clone` copies only what a move writes: the overlay, the recall
/// index's mass cells and per-query tables, the routing summaries, the
/// cost cache and the change journal (under a fresh lineage, see
/// [`Epochs`]). The content store, the workload table and every
/// per-peer row of the [`RecallIndex`] are shared with the origin. At
/// 100 000 peers that is about 14 MiB in a few thousand allocations,
/// against 91 MiB in 753 000 for a deep copy.
///
/// Sharing is invisible to readers: a mutator that writes a shared part
/// first takes its own copy of that part (`Arc::make_mut`, which copies
/// nothing when no other clone holds it). The store is written by
/// [`System::apply_churn_event`] (except a no-op leave) and
/// [`System::set_content`] / [`System::set_contents`]; the workload
/// table by [`System::set_workload`] / [`System::set_workloads`] and a
/// churn join that grows the slot table. An index row that changes is
/// replaced whole, so the other side keeps reading the old one. Moves
/// write none of them, so a clone that only relocates peers (such as
/// the reference repair of an audited observed period) keeps sharing
/// all of it with its origin.
#[derive(Debug, Clone)]
pub struct System {
    overlay: Overlay,
    /// Shared between clones; see [Cloning](#cloning).
    store: Arc<ContentStore>,
    /// Shared between clones; see [Cloning](#cloning).
    workloads: Arc<Vec<Workload>>,
    config: GameConfig,
    index: RecallIndex,
    /// Per-cluster content summaries for cluster-directed routing,
    /// delta-maintained by the same membership/content hooks as the
    /// recall index.
    summaries: ClusterSummaries,
    /// Per-peer cached cost terms (recall loss + `WCost` contribution),
    /// dirty-tracked by every mutator and flushed lazily on read. Owned
    /// by each clone: reads flush it in place, so it is never shared.
    cache: RefCell<CostCache>,
    /// Change journal for proposal memoization: per-cluster stamps for
    /// size/mass changes, a global stamp for system-wide shifts.
    epochs: Epochs,
}

impl System {
    /// Builds a system and its recall index.
    ///
    /// # Panics
    /// Panics if the store or workload count disagrees with the overlay's
    /// peer-slot count, or if `alpha` is negative.
    pub fn new(
        overlay: Overlay,
        store: ContentStore,
        workloads: Vec<Workload>,
        config: GameConfig,
    ) -> Self {
        assert!(
            config.alpha >= 0.0 && config.alpha.is_finite(),
            "alpha must be finite and non-negative"
        );
        let index = RecallIndex::build(&overlay, &store, &workloads);
        let summaries = ClusterSummaries::build(&overlay, &store);
        let cache = RefCell::new(CostCache::new_all_dirty(overlay.n_slots()));
        let epochs = Epochs::new(overlay.cmax());
        System {
            overlay,
            store: Arc::new(store),
            workloads: Arc::new(workloads),
            config,
            index,
            summaries,
            cache,
            epochs,
        }
    }

    /// The overlay (read-only; mutate through [`System::move_peer`] and
    /// friends so the index stays fresh).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The content store.
    pub fn store(&self) -> &ContentStore {
        &self.store
    }

    /// Per-peer workloads, indexed by peer id.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The game parameters.
    pub fn config(&self) -> GameConfig {
        self.config
    }

    /// Overrides the game parameters (used by the `α`-sweep experiment).
    /// Costs change but the recall index and the cached recall terms are
    /// unaffected (`α`/`θ` only enter the membership terms, which are
    /// computed on the fly).
    pub fn set_config(&mut self, config: GameConfig) {
        assert!(config.alpha >= 0.0 && config.alpha.is_finite());
        self.config = config;
        // α/θ enter every pcost: all memoized proposals are stale.
        self.epochs.bump_global();
    }

    /// The recall index.
    pub fn index(&self) -> &RecallIndex {
        &self.index
    }

    /// The per-cluster content summaries (cluster-directed routing).
    pub fn summaries(&self) -> &ClusterSummaries {
        &self.summaries
    }

    /// The per-peer cost cache, flushed: any peers dirtied by earlier
    /// mutations are recomputed before the reference is handed out.
    /// Don't hold the returned [`Ref`] across calls that mutate the
    /// system or re-enter the cache (e.g.
    /// [`pcost_current`](crate::cost::pcost_current)).
    pub fn cost_cache(&self) -> Ref<'_, CostCache> {
        {
            let mut cache = self.cache.borrow_mut();
            cache.flush(&self.index, &self.overlay, &self.workloads);
        }
        self.cache.borrow()
    }

    /// Builds a [`SystemView`]: flushes the cost cache once, then hands
    /// out a `Sync` snapshot of shared borrows — overlay, store,
    /// workloads, index, summaries, the flushed cache and the change
    /// journal. Phase 1 of a protocol round (and any other parallel
    /// read) evaluates costs against the view with `&self` and no
    /// interior mutability; results are bit-identical to reading the
    /// `System` directly. Requires `&mut self` only to flush without a
    /// `RefCell` guard — nothing observable is modified.
    pub fn view(&mut self) -> SystemView<'_> {
        let cache = self.cache.get_mut();
        cache.flush(&self.index, &self.overlay, &self.workloads);
        SystemView {
            overlay: &self.overlay,
            store: &self.store,
            workloads: &self.workloads,
            config: self.config,
            index: &self.index,
            summaries: &self.summaries,
            cache,
            epochs: &self.epochs,
        }
    }

    /// The change journal (per-cluster and global stamps) — the inputs
    /// of the proposal-memo validity gate.
    pub fn epochs(&self) -> &Epochs {
        &self.epochs
    }

    /// Marks the whole cost cache stale; the next read recomputes every
    /// peer's terms, the holder lists and the live demand from scratch —
    /// the oracle the delta-maintained path is property-tested against.
    pub fn rebuild_cost_cache(&mut self) {
        self.cache.get_mut().mark_all();
    }

    /// Live peer count `|P|`.
    pub fn n_peers(&self) -> usize {
        self.overlay.n_peers()
    }

    /// Marks the cache entries whose terms depend on the mass of `a` (or
    /// `b`) for any query `peer` currently holds results for — the exact
    /// dependency set of a membership change.
    fn mark_mass_dependents(&mut self, peer: PeerId, a: ClusterId, b: Option<ClusterId>) {
        let index = &self.index;
        let overlay = &self.overlay;
        let cache = self.cache.get_mut();
        for &(qid, _) in index.results_of(peer) {
            cache.mark_holders(qid as usize, |slot| {
                let c = overlay.cluster_of(PeerId::from_index(slot as usize));
                c == Some(a) || (b.is_some() && c == b)
            });
        }
    }

    /// Marks every holder of every query in `peer`'s current result row —
    /// the dependency set of a *totals* change (content updates), which
    /// moves the mass ratio of those queries in every cluster.
    fn mark_total_dependents(&mut self, peer: PeerId) {
        let index = &self.index;
        let cache = self.cache.get_mut();
        for &(qid, _) in index.results_of(peer) {
            cache.mark_holders(qid as usize, |_| true);
        }
    }

    /// Moves a peer to another cluster, delta-updating the cluster
    /// masses (O(results of peer), not O(workload × peers)). Returns the
    /// previous cluster.
    pub fn move_peer(&mut self, peer: PeerId, to: ClusterId) -> ClusterId {
        let from = self.overlay.move_peer(peer, to);
        if from != to {
            self.index.apply_move(peer, from, to);
            self.summaries.apply_move(self.store.docs(peer), from, to);
            self.mark_mass_dependents(peer, from, Some(to));
            self.cache.get_mut().mark(peer.index());
            // Sizes and recall masses changed in exactly these two
            // clusters; every other cluster's pcost column is untouched.
            self.epochs.bump_cluster(from);
            self.epochs.bump_cluster(to);
        }
        from
    }

    /// Applies a batch of moves, delta-updating masses per move — the
    /// protocol's phase 2 applies all granted relocations together.
    pub fn move_peers(&mut self, moves: &[(PeerId, ClusterId)]) {
        for &(peer, to) in moves {
            self.move_peer(peer, to);
        }
    }

    /// Applies a churn event through the overlay hook and folds the
    /// emitted [`ChurnDelta`] into every derived structure — recall
    /// index (masses *and* content totals), routing summaries and cost
    /// cache — so the system stays exactly consistent event by event; no
    /// follow-up rebuild is needed. A `Join` grows the workload table in
    /// lockstep (empty workload; set the real one via
    /// [`System::set_workload`]). Returns the delta (`None` for a no-op
    /// leave).
    pub fn apply_churn_event(
        &mut self,
        net: &mut SimNetwork,
        event: ChurnEvent,
    ) -> Option<ChurnDelta> {
        // The leave hook drops the departing peer's documents from the
        // store, so snapshot them first: the summary delta needs to know
        // what to un-count. A departed peer's leave is a no-op, and
        // returns before the store is unshared.
        let leaver_docs = match &event {
            ChurnEvent::Leave { peer } => {
                self.overlay.cluster_of(*peer)?;
                self.store.docs(*peer).to_vec()
            }
            ChurnEvent::Join { .. } => Vec::new(),
        };
        let store = Arc::make_mut(&mut self.store);
        let delta = recluster_overlay::churn::apply_event(&mut self.overlay, store, net, event)?;
        match delta {
            ChurnDelta::Left { peer, cluster } => {
                // Totals for the leaver's result queries are about to
                // shrink: every holder's ratios move, whatever its
                // cluster — mark them while the old row is still stored.
                self.mark_total_dependents(peer);
                self.index.apply_leave(peer, cluster);
                self.index.apply_content_update(peer, None, &[]);
                self.summaries.apply_leave(&leaver_docs, cluster);
                self.charge_summary_update(net, cluster, &leaver_docs);
                let demand = self.workloads[peer.index()].total();
                let cache = self.cache.get_mut();
                cache.mark(peer.index());
                cache.sub_live_demand(demand);
            }
            ChurnDelta::Joined { peer, cluster } => {
                self.grow_workloads();
                self.index.ensure_cmax(self.overlay.cmax());
                self.index.ensure_peer_slots(self.overlay.n_slots());
                self.index.apply_join(peer, cluster);
                self.index
                    .apply_content_update(peer, Some(cluster), self.store.docs(peer));
                self.summaries.ensure_cmax(self.overlay.cmax());
                self.summaries.apply_join(self.store.docs(peer), cluster);
                self.charge_summary_update(net, cluster, self.store.docs(peer));
                self.cache.get_mut().ensure_slots(self.overlay.n_slots());
                // The fresh row is stored now: its holders see new totals.
                self.mark_total_dependents(peer);
                let demand = self.workloads[peer.index()].total();
                let cache = self.cache.get_mut();
                cache.mark(peer.index());
                cache.add_live_demand(demand);
            }
        }
        // Churn changes |P| *and* result totals (the leaver's/joiner's
        // documents leave/enter every `r(q, p)` denominator): global
        // invalidation either way.
        self.epochs.ensure_cmax(self.overlay.cmax());
        self.epochs.bump_global();
        Some(delta)
    }

    /// Grows the workload table to the overlay's slot count with empty
    /// workloads, unsharing it only when it actually grows.
    fn grow_workloads(&mut self) {
        let n_slots = self.overlay.n_slots();
        if self.workloads.len() < n_slots {
            Arc::make_mut(&mut self.workloads).resize(n_slots, Workload::new());
        }
    }

    /// Charges the traffic of propagating one cluster's summary delta to
    /// its members: the fan-out follows the intra-cluster topology the
    /// `θ` model encodes, the payload the size of the changed term set.
    ///
    /// Accounting convention: only *churn* events pay explicit
    /// `SummaryUpdate` messages. Protocol relocations piggyback their
    /// summary delta on the `GrantCoordination` message the move already
    /// charges, and the upkeep is charged identically whatever the
    /// routing mode — summaries are standing overlay infrastructure
    /// (the lookup analysis reads them too), so flood-vs-routed ledgers
    /// stay directly comparable.
    fn charge_summary_update(&self, net: &mut SimNetwork, cluster: ClusterId, docs: &[Document]) {
        let fanout = self
            .config
            .theta
            .broadcast_messages(self.overlay.size(cluster));
        if fanout > 0 {
            let terms: usize = docs.iter().map(Document::len).sum();
            net.send_many(MsgKind::SummaryUpdate, 16 + 4 * terms as u64, fanout);
        }
    }

    /// Replaces a peer's workload (workload-update experiments, §4.2),
    /// delta-maintaining the index: genuinely new queries get fresh
    /// result columns (O(peers) each), known ones just a new weight —
    /// no rebuild. Only this peer's cached terms are invalidated.
    pub fn set_workload(&mut self, peer: PeerId, workload: Workload) {
        {
            let index = &self.index;
            let cache = self.cache.get_mut();
            for &(qid, _) in index.workload_of(peer) {
                cache.remove_holder(qid as usize, peer.index());
            }
        }
        let assigned = self.overlay.cluster_of(peer).is_some();
        let old_demand = self.workloads[peer.index()].total();
        self.index
            .set_workload(peer, &workload, &self.overlay, &self.store);
        Arc::make_mut(&mut self.workloads)[peer.index()] = workload;
        let new_demand = self.workloads[peer.index()].total();
        let index = &self.index;
        let cache = self.cache.get_mut();
        for &(qid, _) in index.workload_of(peer) {
            cache.add_holder(qid as usize, peer.index());
        }
        if assigned {
            cache.sub_live_demand(old_demand);
            cache.add_live_demand(new_demand);
        }
        cache.mark(peer.index());
    }

    /// Replaces the workloads of many peers, one delta each.
    pub fn set_workloads(&mut self, updates: Vec<(PeerId, Workload)>) {
        for (peer, w) in updates {
            self.set_workload(peer, w);
        }
    }

    /// Replaces a peer's documents (content-update experiments, §4.2),
    /// delta-maintaining the recall index and the cluster summaries —
    /// no rebuild. Peers holding the affected queries in their workloads
    /// are re-cached lazily.
    pub fn set_content(&mut self, peer: PeerId, docs: Vec<Document>) {
        self.apply_content_delta(peer, docs);
    }

    /// Replaces the content of many peers, one delta each.
    pub fn set_contents(&mut self, updates: Vec<(PeerId, Vec<Document>)>) {
        for (peer, docs) in updates {
            self.apply_content_delta(peer, docs);
        }
    }

    fn apply_content_delta(&mut self, peer: PeerId, docs: Vec<Document>) {
        // Result totals shift: masses move in every cluster holding the
        // affected queries' results — global invalidation.
        self.epochs.bump_global();
        let cid = self.overlay.cluster_of(peer);
        // Holders of the *old* result row see their totals change…
        self.mark_total_dependents(peer);
        let old = Arc::make_mut(&mut self.store).replace(peer, docs);
        if let Some(cid) = cid {
            self.summaries
                .apply_content_update(cid, &old, self.store.docs(peer));
        }
        self.index
            .apply_content_update(peer, cid, self.store.docs(peer));
        // …and so do holders of the *new* row.
        self.mark_total_dependents(peer);
    }

    /// Rebuilds the recall index from scratch. With every mutator
    /// delta-maintaining the index this is no longer needed on any hot
    /// path; it remains a repair step after mutating the overlay through
    /// [`System::overlay_mut`], and the from-scratch reference the
    /// equivalence suites compare the deltas against.
    pub fn rebuild_index(&mut self) {
        self.index = RecallIndex::build(&self.overlay, &self.store, &self.workloads);
        // A fresh build renumbers query ids: the cache's holder lists
        // are keyed by qid, so everything must be re-derived.
        self.cache.get_mut().mark_all();
    }

    /// Mutable access to the overlay for substrate-level operations;
    /// the caller must call [`System::rebuild_index`] or
    /// [`System::refresh_mass`] afterwards as appropriate. Neither
    /// repairs the routing summaries, so cluster-directed routing must
    /// not follow. The cost cache is conservatively invalidated
    /// wholesale.
    pub fn overlay_mut(&mut self) -> &mut Overlay {
        self.cache.get_mut().mark_all();
        &mut self.overlay
    }

    /// Refreshes cluster masses after external membership changes
    /// through [`System::overlay_mut`]. Recall masses only: the routing
    /// summaries stay as they were.
    pub fn refresh_mass(&mut self) {
        self.index.rebuild(&self.overlay);
        self.cache.get_mut().mark_all();
    }
}

impl SystemRead for System {
    fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    fn index(&self) -> &RecallIndex {
        &self.index
    }

    fn config(&self) -> GameConfig {
        self.config
    }

    fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    // The cached reads go through `cost_cache()`, which flushes pending
    // recomputations behind the `RefCell` — the lazy single-threaded
    // route. `SystemView` serves the same values as plain loads.
    fn cached_recall_loss(&self, peer: PeerId) -> f64 {
        self.cost_cache().recall_loss_of(peer)
    }

    fn cached_wrecall(&self, peer: PeerId) -> f64 {
        self.cost_cache().wrecall_of(peer)
    }

    fn cached_away(&self, peer: PeerId) -> f64 {
        self.cost_cache().away_of(peer)
    }

    fn cached_live_demand(&self) -> u64 {
        self.cost_cache().live_demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_types::{Query, Sym};

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
    fn new_builds_consistent_index() {
        let sys = tiny();
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(sys.index().total(q), 1);
        assert!((sys.index().cluster_mass(q, ClusterId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn move_peer_refreshes_mass() {
        let mut sys = tiny();
        sys.move_peer(PeerId(1), ClusterId(1));
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(sys.index().cluster_mass(q, ClusterId(0)), 0.0);
        assert!((sys.index().cluster_mass(q, ClusterId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_workload_delta_maintains_index() {
        let mut sys = tiny();
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(1)), 3);
        sys.set_workload(PeerId(1), w);
        let q = sys.index().qid(&Query::keyword(Sym(1))).unwrap();
        assert_eq!(sys.index().total(q), 1);
        let wl = sys.index().workload_of(PeerId(1));
        assert_eq!(wl.len(), 1);
        assert!((wl[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_content_delta_maintains_index() {
        let mut sys = tiny();
        sys.set_content(PeerId(0), vec![Document::new(vec![Sym(2)])]);
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(sys.index().total(q), 2);
    }

    #[test]
    fn batch_moves_refresh_once_and_apply_all() {
        let mut sys = tiny();
        sys.move_peers(&[(PeerId(0), ClusterId(1)), (PeerId(1), ClusterId(1))]);
        assert_eq!(sys.overlay().size(ClusterId(1)), 2);
        assert_eq!(sys.overlay().size(ClusterId(0)), 0);
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert!((sys.index().cluster_mass(q, ClusterId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn move_peer_matches_rebuild_exactly() {
        let mut sys = tiny();
        sys.move_peer(PeerId(1), ClusterId(1));
        sys.move_peer(PeerId(0), ClusterId(1));
        let delta_index = sys.index().clone();
        sys.rebuild_index();
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        for c in [ClusterId(0), ClusterId(1)] {
            assert_eq!(
                delta_index.cluster_mass_num(q, c),
                sys.index().cluster_mass_num(q, c)
            );
        }
    }

    #[test]
    fn churn_leave_retires_content_from_totals() {
        let mut sys = tiny();
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(sys.index().total(q), 1);
        let mut net = SimNetwork::new();
        let delta = sys.apply_churn_event(&mut net, ChurnEvent::Leave { peer: PeerId(1) });
        assert_eq!(
            delta,
            Some(ChurnDelta::Left {
                peer: PeerId(1),
                cluster: ClusterId(0)
            })
        );
        // The leaver's document left the store *and* the totals — no
        // rebuild required.
        assert_eq!(sys.index().total(q), 0);
        assert_eq!(sys.index().cluster_mass(q, ClusterId(0)), 0.0);
    }

    #[test]
    fn churn_join_indexes_fresh_content_immediately() {
        let mut sys = tiny();
        let mut net = SimNetwork::new();
        let delta = sys
            .apply_churn_event(
                &mut net,
                ChurnEvent::Join {
                    cluster: ClusterId(0),
                    docs: vec![Document::new(vec![Sym(2)])],
                },
            )
            .unwrap();
        let q = sys.index().qid(&Query::keyword(Sym(2))).unwrap();
        assert_eq!(sys.index().total(q), 2, "newcomer's doc counted");
        assert_eq!(sys.index().cluster_mass_num(q, ClusterId(0)), 2);
        assert_eq!(sys.index().result(q, delta.peer()), 1);
        // The joiner grew every slot table, the workload table included:
        // the observed-statistics path walks every live peer's workload
        // slot, so a fresh joiner must not leave it short.
        assert_eq!(sys.workloads().len(), sys.overlay().n_slots());
        let obs = crate::tracker::simulate_period(&sys, &mut net);
        assert_eq!(obs.of(delta.peer()).len(), 0);
    }

    #[test]
    fn cost_cache_flushes_after_moves() {
        let mut sys = tiny();
        let (_, recall_before) = crate::global::scost_terms(&sys);
        assert_eq!(recall_before, 0.0, "co-clustered pair loses nothing");
        // p1 takes its Sym(2) doc to another cluster: p0 now loses its
        // whole workload's recall, and the cache must notice.
        sys.move_peer(PeerId(1), ClusterId(1));
        let (_, recall_after) = crate::global::scost_terms(&sys);
        assert!((recall_after - 1.0).abs() < 1e-12);
        assert!(sys.cost_cache().is_fresh());
    }

    /// Three peers that all hold and query something: p0 holds kw(1), p1
    /// kw(2), p2 both; p0 queries kw(2), p1 kw(1), p2 both.
    fn trio() -> System {
        let mut ov = Overlay::singletons(3);
        ov.move_peer(PeerId(1), ClusterId(0));
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(1)]));
        store.add(PeerId(1), Document::new(vec![Sym(2)]));
        store.add(PeerId(2), Document::new(vec![Sym(1), Sym(2)]));
        let kw = |s| Query::keyword(Sym(s));
        let workloads = vec![
            Workload::from_iter([kw(2)]),
            Workload::from_iter([kw(1), kw(1)]),
            Workload::from_iter([kw(1), kw(2)]),
        ];
        System::new(ov, store, workloads, GameConfig::default())
    }

    /// Per slot: whether `a` and `b` share the peer's (workload row,
    /// result row) in the recall index.
    fn shared_rows(a: &System, b: &System) -> Vec<(bool, bool)> {
        (0..a.overlay().n_slots())
            .map(|slot| {
                let p = PeerId::from_index(slot);
                let (ai, bi) = (a.index(), b.index());
                (
                    ai.workload_of(p).as_ptr() == bi.workload_of(p).as_ptr(),
                    ai.results_of(p).as_ptr() == bi.results_of(p).as_ptr(),
                )
            })
            .collect()
    }

    #[test]
    fn clone_shares_what_a_move_does_not_write() {
        let mut a = trio();
        let mut b = a.clone();
        // Moves on either side write only owned state.
        a.move_peer(PeerId(1), ClusterId(1));
        b.move_peer(PeerId(0), ClusterId(2));
        b.move_peers(&[(PeerId(2), ClusterId(0)), (PeerId(1), ClusterId(2))]);
        assert_ne!(a.overlay(), b.overlay());
        assert!(std::ptr::eq(a.store(), b.store()), "store unshared");
        assert_eq!(
            a.workloads().as_ptr(),
            b.workloads().as_ptr(),
            "workloads unshared"
        );
        assert_eq!(shared_rows(&a, &b), vec![(true, true); 3]);
        // Both sides still cost their own overlays.
        assert!(a.cost_cache().is_fresh() && b.cost_cache().is_fresh());
    }

    #[test]
    fn writes_unshare_only_the_writer_and_its_rows() {
        let mut a = trio();
        let mut b = a.clone();
        let store = a.store() as *const ContentStore;
        let workloads = a.workloads().as_ptr();

        b.set_content(PeerId(0), vec![Document::new(vec![Sym(2)])]);
        assert!(std::ptr::eq(a.store(), store), "the reader kept its store");
        assert!(!std::ptr::eq(b.store(), store), "the writer copied it");
        assert_eq!(a.store().docs(PeerId(0)), &[Document::new(vec![Sym(1)])]);
        assert_eq!(b.store().docs(PeerId(0)), &[Document::new(vec![Sym(2)])]);
        assert_eq!(a.workloads().as_ptr(), b.workloads().as_ptr());
        assert_eq!(
            shared_rows(&a, &b),
            vec![(true, false), (true, true), (true, true)],
            "only the written peer's result row is replaced"
        );
        let q1 = a.index().qid(&Query::keyword(Sym(1))).unwrap();
        assert_eq!(a.index().result(q1, PeerId(0)), 1);
        assert_eq!(b.index().result(q1, PeerId(0)), 0);

        // A workload of known queries rewrites one weight row.
        a.set_workload(PeerId(1), Workload::from_iter([Query::keyword(Sym(2))]));
        assert!(!std::ptr::eq(a.workloads().as_ptr(), workloads));
        assert!(std::ptr::eq(b.workloads().as_ptr(), workloads));
        assert_eq!(a.workloads()[1].count(&Query::keyword(Sym(2))), 1);
        assert_eq!(b.workloads()[1].count(&Query::keyword(Sym(1))), 2);
        assert_eq!(
            shared_rows(&a, &b),
            vec![(true, false), (false, true), (true, true)]
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and non-negative")]
    fn negative_alpha_panics() {
        let ov = Overlay::singletons(1);
        let store = ContentStore::new(1);
        let _ = System::new(
            ov,
            store,
            vec![Workload::new()],
            GameConfig {
                alpha: -1.0,
                theta: Theta::Linear,
            },
        );
    }
}
