//! Query routing with cluster-annotated results.
//!
//! "We also assume that the results of each query are annotated with the
//! corresponding cids of the clusters that provided them" (§3.1). Peers
//! use those annotations to track per-cluster recall. The number of
//! results a peer sees "depends on the routing algorithm used, and if a
//! query is evaluated against all clusters in the system, it is equal to
//! the total number of results" — this module provides the all-clusters
//! flood, a directed variant, and the *cluster-directed* layer on top:
//! per-cluster content summaries ([`ClusterSummaries`]) maintained by
//! membership/content hooks, and the [`RoutePlan`] built from them that
//! forwards a query only to clusters whose summary matches.
//!
//! With **exact** summaries the match test has no false negatives (a
//! query matches a document only if every query attribute appears in it,
//! so a cluster holding any result carries every query attribute in its
//! summary); routed evaluation therefore returns exactly the flood
//! result set while forwarding to far fewer clusters. **Lossy**
//! summaries ([`SummaryMode::TopK`]) keep only each cluster's most
//! frequent attributes, trading false negatives (missed results) for
//! smaller summaries — the precision-vs-traffic axis.
//!
//! # Publishing what changed
//!
//! The per-event hooks keep a *local* [`ClusterSummaries`] exact, but a
//! live system does not re-broadcast its summaries after every single
//! membership event. It publishes once per maintenance round, and only
//! the clusters whose summary differs from the last published copy
//! ([`ClusterSummaries::changed_since`]). Every summarized quantity is
//! an integer count, so opposing events between two publications — a
//! peer that joins and leaves, a document that moves out and back —
//! leave no difference and cost no message.
//!
//! # Examples
//!
//! A route plan built from exact summaries forwards a query only to the
//! clusters that can answer it:
//!
//! ```
//! use recluster_overlay::{ClusterSummaries, ContentStore, Overlay, RoutePlan, SummaryMode};
//! use recluster_types::{ClusterId, Document, PeerId, Query, Sym};
//!
//! let ov = Overlay::singletons(3);
//! let mut store = ContentStore::new(3);
//! store.add(PeerId(0), Document::new(vec![Sym(1)]));
//! store.add(PeerId(2), Document::new(vec![Sym(1), Sym(2)]));
//! let summaries = ClusterSummaries::build(&ov, &store);
//! let plan = RoutePlan::build(&summaries, SummaryMode::Exact);
//!
//! // Sym(1) lives in clusters 0 and 2; the Sym(1)∧Sym(2) conjunction
//! // only in cluster 2. Flooding would visit both plus any other
//! // non-empty cluster.
//! assert_eq!(plan.route(&Query::keyword(Sym(1))), vec![ClusterId(0), ClusterId(2)]);
//! assert_eq!(plan.route(&Query::new(vec![Sym(1), Sym(2)])), vec![ClusterId(2)]);
//! assert!(plan.route(&Query::keyword(Sym(9))).is_empty());
//! ```

use std::collections::BTreeMap;

use recluster_types::{ClusterId, Document, PeerId, Query, Sym};

use crate::content::ContentStore;
use crate::network::{MsgKind, SimNetwork};
use crate::overlay::Overlay;

/// One result record: `count` matching documents found at `peer`, which
/// answered from `cluster` (the cid annotation of §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotatedResult {
    /// The cluster that provided the results.
    pub cluster: ClusterId,
    /// The answering peer.
    pub peer: PeerId,
    /// Number of matching documents at that peer.
    pub count: u64,
}

/// Evaluates `query` against *all* clusters (flooding). Returns one
/// record per answering peer with a nonzero count; network traffic is
/// charged to `net` (one forward per non-empty cluster, one return per
/// answering peer).
pub fn flood_query(
    overlay: &Overlay,
    store: &ContentStore,
    query: &Query,
    net: &mut SimNetwork,
) -> Vec<AnnotatedResult> {
    let clusters: Vec<ClusterId> = overlay
        .cluster_ids()
        .filter(|&c| !overlay.cluster(c).is_empty())
        .collect();
    route_to_clusters(overlay, store, query, &clusters, net)
}

/// Evaluates `query` against the given clusters only.
pub fn route_to_clusters(
    overlay: &Overlay,
    store: &ContentStore,
    query: &Query,
    clusters: &[ClusterId],
    net: &mut SimNetwork,
) -> Vec<AnnotatedResult> {
    let mut results = Vec::new();
    for &cid in clusters {
        let cluster = overlay.cluster(cid);
        if cluster.is_empty() {
            continue;
        }
        let before = results.len();
        for &peer in cluster.members() {
            let count = store.result_count(query, peer);
            if count > 0 {
                results.push(AnnotatedResult {
                    cluster: cid,
                    peer,
                    count,
                });
            }
        }
        charge_cluster_answer(net, query, (results.len() - before) as u64);
    }
    results
}

/// Charges `net` for one non-empty cluster answering `query`: one
/// `QueryForward` into the cluster and one cid-annotated `ResultReturn`
/// per member holding results (`holders`). [`route_to_clusters`] charges
/// exactly this per target; a caller that knows a cluster's holder count
/// without walking its members charges it directly, on the same ledger.
pub fn charge_cluster_answer(net: &mut SimNetwork, query: &Query, holders: u64) {
    net.send(MsgKind::QueryForward, 16 + 4 * query.len() as u64);
    net.send_many(MsgKind::ResultReturn, 12, holders);
}

/// How much of a cluster's content its summary retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryMode {
    /// Every attribute held by any member document is summarized; the
    /// routed result set equals flood's, bit for bit.
    Exact,
    /// Only each cluster's `k` most frequent attributes (ties broken by
    /// symbol order) are summarized. Queries on dropped attributes miss
    /// the cluster — false negatives, reported as a rate by the tracker.
    TopK(usize),
}

impl std::fmt::Display for SummaryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryMode::Exact => write!(f, "exact"),
            SummaryMode::TopK(k) => write!(f, "lossy:{k}"),
        }
    }
}

/// How `simulate_period` forwards queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Forward every query to every non-empty cluster (the paper's
    /// evaluation assumption) — the oracle the routed modes are checked
    /// against.
    #[default]
    Flood,
    /// Forward only to clusters whose summary matches the query.
    Routed(SummaryMode),
}

impl RoutingMode {
    /// Parses the `RECLUSTER_ROUTING` knob: `flood`, `routed` (or
    /// `exact`), or `lossy:<k>` with `k ≥ 1`. A summary that keeps no
    /// term would route no query anywhere, so `lossy:0` is rejected.
    pub fn parse(s: &str) -> Option<RoutingMode> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "flood" => Some(RoutingMode::Flood),
            "routed" | "exact" => Some(RoutingMode::Routed(SummaryMode::Exact)),
            _ => {
                let k = s.strip_prefix("lossy:")?.parse().ok().filter(|&k| k >= 1)?;
                Some(RoutingMode::Routed(SummaryMode::TopK(k)))
            }
        }
    }
}

impl std::fmt::Display for RoutingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingMode::Flood => write!(f, "flood"),
            RoutingMode::Routed(m) => write!(f, "routed({m})"),
        }
    }
}

/// Per-cluster content summaries: for every cluster, how many member
/// documents carry each attribute, plus the member-document total.
///
/// The summaries cover **assigned** peers only (a departed peer's
/// documents are unreachable by routing, exactly as they are by flood),
/// and are delta-maintained by the membership/content hooks
/// ([`ClusterSummaries::apply_move`] and friends); [`ClusterSummaries::build`]
/// is the from-scratch oracle the deltas are property-tested against.
///
/// # Examples
/// ```
/// use recluster_overlay::{ClusterSummaries, ContentStore, Overlay};
/// use recluster_types::{ClusterId, Document, PeerId, Query, Sym};
///
/// let ov = Overlay::singletons(2);
/// let mut store = ContentStore::new(2);
/// store.add(PeerId(0), Document::new(vec![Sym(1), Sym(2)]));
/// let summaries = ClusterSummaries::build(&ov, &store);
/// assert!(summaries.matches(ClusterId(0), &Query::keyword(Sym(1))));
/// assert!(!summaries.matches(ClusterId(1), &Query::keyword(Sym(1))));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSummaries {
    /// Per cluster: attribute → number of member documents carrying it.
    terms: Vec<BTreeMap<Sym, u64>>,
    /// Per cluster: total documents held by its members.
    docs: Vec<u64>,
}

impl ClusterSummaries {
    /// Empty summaries over `cmax` cluster slots.
    pub fn new(cmax: usize) -> Self {
        ClusterSummaries {
            terms: vec![BTreeMap::new(); cmax],
            docs: vec![0; cmax],
        }
    }

    /// Builds the summaries from scratch — the oracle for the delta
    /// hooks.
    pub fn build(overlay: &Overlay, store: &ContentStore) -> Self {
        let mut s = Self::new(overlay.cmax());
        for peer in overlay.peers() {
            let cid = overlay.cluster_of(peer).expect("live peer");
            s.add_docs(cid, store.docs(peer));
        }
        s
    }

    /// Grows the summary table to `cmax` cluster slots (churn joins grow
    /// the overlay).
    pub fn ensure_cmax(&mut self, cmax: usize) {
        if self.terms.len() < cmax {
            self.terms.resize(cmax, BTreeMap::new());
            self.docs.resize(cmax, 0);
        }
    }

    /// Number of cluster slots summarized.
    pub fn n_clusters(&self) -> usize {
        self.terms.len()
    }

    /// Member documents carrying `sym` in cluster `cid`.
    pub fn term_count(&self, cid: ClusterId, sym: Sym) -> u64 {
        self.terms[cid.index()].get(&sym).copied().unwrap_or(0)
    }

    /// Distinct attributes summarized for cluster `cid`.
    pub fn n_terms(&self, cid: ClusterId) -> usize {
        self.terms[cid.index()].len()
    }

    /// Total member documents of cluster `cid`.
    pub fn doc_count(&self, cid: ClusterId) -> u64 {
        self.docs[cid.index()]
    }

    fn add_docs(&mut self, cid: ClusterId, docs: &[Document]) {
        let slot = &mut self.terms[cid.index()];
        for doc in docs {
            for &a in doc.attrs() {
                *slot.entry(a).or_insert(0) += 1;
            }
        }
        self.docs[cid.index()] += docs.len() as u64;
    }

    fn remove_docs(&mut self, cid: ClusterId, docs: &[Document]) {
        let slot = &mut self.terms[cid.index()];
        for doc in docs {
            for &a in doc.attrs() {
                match slot.get_mut(&a) {
                    Some(n) if *n > 1 => *n -= 1,
                    Some(_) => {
                        slot.remove(&a);
                    }
                    None => debug_assert!(false, "summary underflow: {cid} lacks {a:?}"),
                }
            }
        }
        debug_assert!(self.docs[cid.index()] >= docs.len() as u64);
        self.docs[cid.index()] -= docs.len() as u64;
    }

    /// A peer carrying `docs` moved `from` → `to`.
    pub fn apply_move(&mut self, docs: &[Document], from: ClusterId, to: ClusterId) {
        if from == to {
            return;
        }
        self.remove_docs(from, docs);
        self.add_docs(to, docs);
    }

    /// A peer carrying `docs` joined cluster `to`.
    pub fn apply_join(&mut self, docs: &[Document], to: ClusterId) {
        self.add_docs(to, docs);
    }

    /// A peer carrying `docs` left cluster `from`.
    pub fn apply_leave(&mut self, docs: &[Document], from: ClusterId) {
        self.remove_docs(from, docs);
    }

    /// A member of cluster `cid` replaced `old` documents with `new`.
    pub fn apply_content_update(&mut self, cid: ClusterId, old: &[Document], new: &[Document]) {
        self.remove_docs(cid, old);
        self.add_docs(cid, new);
    }

    /// The clusters whose term counts or document total differ from
    /// `earlier`'s, ascending — what a publication of `self` over
    /// `earlier` has to re-send. A slot past either side's width
    /// compares as empty.
    pub fn changed_since(&self, earlier: &ClusterSummaries) -> Vec<ClusterId> {
        let width = self.n_clusters().max(earlier.n_clusters());
        (0..width)
            .filter(|&c| self.slot(c) != earlier.slot(c))
            .map(ClusterId::from_index)
            .collect()
    }

    /// Slot `c`'s terms (`None` when empty) and document total, empty
    /// past the width.
    fn slot(&self, c: usize) -> (Option<&BTreeMap<Sym, u64>>, u64) {
        (
            self.terms.get(c).filter(|t| !t.is_empty()),
            self.docs.get(c).copied().unwrap_or(0),
        )
    }

    /// Exact membership test: could cluster `cid` hold results for
    /// `query`? `true` iff the cluster has documents and every query
    /// attribute appears in its summary. No false negatives; false
    /// positives only for multi-attribute queries whose attributes never
    /// co-occur in one document.
    pub fn matches(&self, cid: ClusterId, query: &Query) -> bool {
        self.docs[cid.index()] > 0
            && query
                .attrs()
                .iter()
                .all(|a| self.terms[cid.index()].contains_key(a))
    }

    /// The `k` most frequent attributes of cluster `cid` (ties broken by
    /// symbol order) — the lossy summary's retained set, sorted by
    /// symbol.
    pub fn top_k_terms(&self, cid: ClusterId, k: usize) -> Vec<Sym> {
        let mut ranked: Vec<(Sym, u64)> = self.terms[cid.index()]
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let mut kept: Vec<Sym> = ranked.into_iter().map(|(s, _)| s).collect();
        kept.sort_unstable();
        kept
    }
}

/// A routing snapshot built from the summaries: an inverted
/// attribute → clusters index over the (possibly truncated) summary
/// terms, used to plan which clusters a query is forwarded to.
///
/// Build once per period (summaries change only between periods) and
/// call [`RoutePlan::route`] per query.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    mode: SummaryMode,
    /// attribute → clusters whose summary retains it (ascending ids).
    by_term: BTreeMap<Sym, Vec<ClusterId>>,
    /// Clusters with at least one summarized document (ascending ids).
    with_docs: Vec<ClusterId>,
}

impl RoutePlan {
    /// Builds the plan from the current summaries under `mode`.
    pub fn build(summaries: &ClusterSummaries, mode: SummaryMode) -> Self {
        let mut by_term: BTreeMap<Sym, Vec<ClusterId>> = BTreeMap::new();
        let mut with_docs = Vec::new();
        for c in 0..summaries.n_clusters() {
            let cid = ClusterId::from_index(c);
            if summaries.doc_count(cid) == 0 {
                continue;
            }
            with_docs.push(cid);
            match mode {
                SummaryMode::Exact => {
                    for &sym in summaries.terms[c].keys() {
                        by_term.entry(sym).or_default().push(cid);
                    }
                }
                SummaryMode::TopK(k) => {
                    for sym in summaries.top_k_terms(cid, k) {
                        by_term.entry(sym).or_default().push(cid);
                    }
                }
            }
        }
        RoutePlan {
            mode,
            by_term,
            with_docs,
        }
    }

    /// The summary precision this plan was built with.
    pub fn mode(&self) -> SummaryMode {
        self.mode
    }

    /// Clusters holding at least one summarized document.
    pub fn with_docs(&self) -> &[ClusterId] {
        &self.with_docs
    }

    /// The clusters `query` is forwarded to: those retaining every query
    /// attribute (an empty query matches every cluster with documents).
    /// Ascending cluster ids, so routed evaluation visits clusters in
    /// the same order flood does.
    pub fn route(&self, query: &Query) -> Vec<ClusterId> {
        let mut out = Vec::new();
        self.route_into(query, &mut out);
        out
    }

    /// [`RoutePlan::route`] into a reused buffer (cleared first) — the
    /// per-query hot path of the routed tracker.
    pub fn route_into(&self, query: &Query, out: &mut Vec<ClusterId>) {
        out.clear();
        let mut attrs = query.attrs().iter();
        let Some(first) = attrs.next() else {
            out.extend_from_slice(&self.with_docs);
            return;
        };
        let Some(base) = self.by_term.get(first) else {
            return;
        };
        out.extend_from_slice(base);
        for a in attrs {
            let Some(list) = self.by_term.get(a) else {
                out.clear();
                return;
            };
            out.retain(|c| list.binary_search(c).is_ok());
            if out.is_empty() {
                return;
            }
        }
    }
}

/// The *cluster recall* measure of §3.1: "the fraction of results
/// returned to peer p for query q by a cluster ci to the total number of
/// results returned for the query". Returns `(cluster, fraction)` pairs
/// for clusters with nonzero contribution; empty when the query had no
/// results at all.
pub fn cluster_recall(results: &[AnnotatedResult]) -> Vec<(ClusterId, f64)> {
    let total: u64 = results.iter().map(|r| r.count).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut by_cluster: std::collections::BTreeMap<ClusterId, u64> = Default::default();
    for r in results {
        *by_cluster.entry(r.cluster).or_insert(0) += r.count;
    }
    by_cluster
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_types::{Document, Sym};

    /// Three peers in two clusters; peer 0 and 1 hold matching docs.
    fn fixture() -> (Overlay, ContentStore) {
        let mut ov = Overlay::singletons(3);
        ov.move_peer(PeerId(1), ClusterId(0)); // c0 = {p0, p1}, c2 = {p2}
        let mut store = ContentStore::new(3);
        store.add(PeerId(0), Document::new(vec![Sym(1), Sym(2)]));
        store.add(PeerId(1), Document::new(vec![Sym(1)]));
        store.add(PeerId(1), Document::new(vec![Sym(1), Sym(3)]));
        store.add(PeerId(2), Document::new(vec![Sym(2)]));
        (ov, store)
    }

    #[test]
    fn flood_finds_all_results_with_cid_annotations() {
        let (ov, store) = fixture();
        let mut net = SimNetwork::new();
        let results = flood_query(&ov, &store, &Query::keyword(Sym(1)), &mut net);
        assert_eq!(
            results,
            vec![
                AnnotatedResult {
                    cluster: ClusterId(0),
                    peer: PeerId(0),
                    count: 1
                },
                AnnotatedResult {
                    cluster: ClusterId(0),
                    peer: PeerId(1),
                    count: 2
                },
            ]
        );
        // Two non-empty clusters → two forwards; two answering peers.
        assert_eq!(net.messages(MsgKind::QueryForward), 2);
        assert_eq!(net.messages(MsgKind::ResultReturn), 2);
    }

    #[test]
    fn directed_routing_restricts_scope() {
        let (ov, store) = fixture();
        let mut net = SimNetwork::new();
        let results = route_to_clusters(
            &ov,
            &store,
            &Query::keyword(Sym(2)),
            &[ClusterId(2)],
            &mut net,
        );
        assert_eq!(
            results,
            vec![AnnotatedResult {
                cluster: ClusterId(2),
                peer: PeerId(2),
                count: 1
            }]
        );
        assert_eq!(net.messages(MsgKind::QueryForward), 1);
    }

    #[test]
    fn empty_clusters_are_skipped_without_traffic() {
        let (ov, store) = fixture();
        let mut net = SimNetwork::new();
        let results = route_to_clusters(
            &ov,
            &store,
            &Query::keyword(Sym(1)),
            &[ClusterId(1)],
            &mut net,
        );
        assert!(results.is_empty());
        assert_eq!(net.total_messages(), 0);
    }

    #[test]
    fn cluster_recall_fractions_sum_to_one() {
        let (ov, store) = fixture();
        let mut net = SimNetwork::new();
        let results = flood_query(&ov, &store, &Query::keyword(Sym(2)), &mut net);
        let recall = cluster_recall(&results);
        let sum: f64 = recall.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Sym(2): one doc at p0 (c0), one at p2 (c2) → 0.5 each.
        assert_eq!(recall.len(), 2);
        assert!((recall[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_recall_of_unanswerable_query_is_empty() {
        let (ov, store) = fixture();
        let mut net = SimNetwork::new();
        let results = flood_query(&ov, &store, &Query::keyword(Sym(99)), &mut net);
        assert!(results.is_empty());
        assert!(cluster_recall(&results).is_empty());
    }

    #[test]
    fn flood_equals_union_of_directed_routes() {
        let (ov, store) = fixture();
        let q = Query::keyword(Sym(1));
        let mut net = SimNetwork::new();
        let flooded = flood_query(&ov, &store, &q, &mut net);
        let mut directed = Vec::new();
        for cid in ov.cluster_ids() {
            directed.extend(route_to_clusters(&ov, &store, &q, &[cid], &mut net));
        }
        assert_eq!(flooded, directed);
    }

    #[test]
    fn summaries_build_counts_member_documents() {
        let (ov, store) = fixture();
        let s = ClusterSummaries::build(&ov, &store);
        // c0 = {p0, p1}: Sym(1) in 3 docs, Sym(2) in 1, Sym(3) in 1.
        assert_eq!(s.term_count(ClusterId(0), Sym(1)), 3);
        assert_eq!(s.term_count(ClusterId(0), Sym(2)), 1);
        assert_eq!(s.term_count(ClusterId(0), Sym(3)), 1);
        assert_eq!(s.doc_count(ClusterId(0)), 3);
        // c1 is empty, c2 = {p2} with one Sym(2) doc.
        assert_eq!(s.doc_count(ClusterId(1)), 0);
        assert_eq!(s.term_count(ClusterId(2), Sym(2)), 1);
        assert_eq!(s.n_terms(ClusterId(2)), 1);
    }

    #[test]
    fn summary_hooks_match_rebuild() {
        let (mut ov, mut store) = fixture();
        let mut s = ClusterSummaries::build(&ov, &store);

        // Move p1 to c2.
        let docs: Vec<Document> = store.docs(PeerId(1)).to_vec();
        let from = ov.move_peer(PeerId(1), ClusterId(2));
        s.apply_move(&docs, from, ClusterId(2));
        assert_eq!(s, ClusterSummaries::build(&ov, &store));

        // p0 leaves.
        let docs: Vec<Document> = store.docs(PeerId(0)).to_vec();
        let from = ov.unassign(PeerId(0)).unwrap();
        s.apply_leave(&docs, from);
        assert_eq!(s, ClusterSummaries::build(&ov, &store));

        // p0 rejoins c1 with its old content.
        ov.assign(PeerId(0), ClusterId(1));
        s.apply_join(&docs, ClusterId(1));
        assert_eq!(s, ClusterSummaries::build(&ov, &store));

        // p2 replaces its content.
        let old: Vec<Document> = store.docs(PeerId(2)).to_vec();
        let new = vec![Document::new(vec![Sym(7)])];
        store.replace(PeerId(2), new.clone());
        s.apply_content_update(ClusterId(2), &old, &new);
        assert_eq!(s, ClusterSummaries::build(&ov, &store));
    }

    #[test]
    fn exact_match_has_no_false_negatives() {
        let (ov, store) = fixture();
        let s = ClusterSummaries::build(&ov, &store);
        for sym in 1..4 {
            let q = Query::keyword(Sym(sym));
            for cid in ov.cluster_ids() {
                let mut net = SimNetwork::new();
                let results = route_to_clusters(&ov, &store, &q, &[cid], &mut net);
                if !results.is_empty() {
                    assert!(s.matches(cid, &q), "summary missed {cid} for Sym({sym})");
                }
            }
        }
    }

    #[test]
    fn route_plan_targets_only_summarized_clusters() {
        let (ov, store) = fixture();
        let s = ClusterSummaries::build(&ov, &store);
        let plan = RoutePlan::build(&s, SummaryMode::Exact);
        assert_eq!(plan.with_docs(), &[ClusterId(0), ClusterId(2)]);
        // Sym(2) lives in c0 (p0) and c2 (p2); Sym(1) only in c0.
        assert_eq!(
            plan.route(&Query::keyword(Sym(2))),
            vec![ClusterId(0), ClusterId(2)]
        );
        assert_eq!(plan.route(&Query::keyword(Sym(1))), vec![ClusterId(0)]);
        assert!(plan.route(&Query::keyword(Sym(99))).is_empty());
        // Conjunction: both attrs must be retained by the cluster.
        assert_eq!(
            plan.route(&Query::new(vec![Sym(1), Sym(2)])),
            vec![ClusterId(0)]
        );
        // The empty query goes everywhere documents are.
        assert_eq!(
            plan.route(&Query::new(Vec::new())),
            vec![ClusterId(0), ClusterId(2)]
        );
    }

    #[test]
    fn top_k_summaries_drop_rare_terms() {
        let (ov, store) = fixture();
        let s = ClusterSummaries::build(&ov, &store);
        // c0 terms by frequency: Sym(1)×3, Sym(2)×1, Sym(3)×1.
        assert_eq!(s.top_k_terms(ClusterId(0), 1), vec![Sym(1)]);
        // Tie between Sym(2) and Sym(3) broken by symbol order.
        assert_eq!(s.top_k_terms(ClusterId(0), 2), vec![Sym(1), Sym(2)]);
        let plan = RoutePlan::build(&s, SummaryMode::TopK(1));
        // Sym(2) was dropped from c0's summary but kept in c2's.
        assert_eq!(plan.route(&Query::keyword(Sym(2))), vec![ClusterId(2)]);
    }

    #[test]
    fn routing_mode_parses_and_displays() {
        assert_eq!(RoutingMode::parse("flood"), Some(RoutingMode::Flood));
        assert_eq!(
            RoutingMode::parse("routed"),
            Some(RoutingMode::Routed(SummaryMode::Exact))
        );
        assert_eq!(
            RoutingMode::parse("EXACT"),
            Some(RoutingMode::Routed(SummaryMode::Exact))
        );
        assert_eq!(
            RoutingMode::parse("lossy:16"),
            Some(RoutingMode::Routed(SummaryMode::TopK(16)))
        );
        assert_eq!(RoutingMode::parse("nonsense"), None);
        assert_eq!(RoutingMode::parse("lossy:x"), None);
        assert_eq!(RoutingMode::parse("lossy:0"), None);
        assert_eq!(
            RoutingMode::parse("lossy:1"),
            Some(RoutingMode::Routed(SummaryMode::TopK(1)))
        );
        assert_eq!(RoutingMode::Flood.to_string(), "flood");
        assert_eq!(
            RoutingMode::Routed(SummaryMode::TopK(8)).to_string(),
            "routed(lossy:8)"
        );
    }

    #[test]
    fn changed_since_reports_exactly_the_clusters_that_differ() {
        let (ov, store) = fixture();
        let published = ClusterSummaries::build(&ov, &store);
        let mut live = published.clone();

        // p0 moves out of c0 and back; p1 swaps its documents for two
        // carrying the same terms. Nothing to publish.
        let docs: Vec<Document> = store.docs(PeerId(0)).to_vec();
        live.apply_move(&docs, ClusterId(0), ClusterId(2));
        live.apply_move(&docs, ClusterId(2), ClusterId(0));
        let swapped = vec![
            Document::new(vec![Sym(1), Sym(3)]),
            Document::new(vec![Sym(1)]),
        ];
        live.apply_content_update(ClusterId(0), store.docs(PeerId(1)), &swapped);
        assert!(live.changed_since(&published).is_empty());

        // p2 leaves c2, a document without terms changes only c1's
        // total, and a newcomer joins slot 4, past the published width:
        // exactly those three, whichever side is wider.
        live.apply_leave(store.docs(PeerId(2)), ClusterId(2));
        live.apply_join(&[Document::new(Vec::new())], ClusterId(1));
        live.ensure_cmax(5);
        live.apply_join(&[Document::new(vec![Sym(4)])], ClusterId(4));
        let changed = vec![ClusterId(1), ClusterId(2), ClusterId(4)];
        assert_eq!(live.changed_since(&published), changed);
        assert_eq!(published.changed_since(&live), changed);

        // Growing the width alone adds only empty slots.
        let mut wider = published.clone();
        wider.ensure_cmax(8);
        assert!(wider.changed_since(&published).is_empty());
    }

    #[test]
    fn ensure_cmax_grows_empty_slots() {
        let mut s = ClusterSummaries::new(2);
        s.ensure_cmax(4);
        assert_eq!(s.n_clusters(), 4);
        assert_eq!(s.doc_count(ClusterId(3)), 0);
        s.ensure_cmax(1); // never shrinks
        assert_eq!(s.n_clusters(), 4);
    }
}
