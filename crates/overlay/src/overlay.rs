//! The cluster registry.
//!
//! "Each peer p chooses which clusters to join from the set of Cmax
//! clusters in the system […] we let Cmax be equal to |P| […] and assume
//! that some clusters may be empty if needed." (§2.1). The experiments
//! (and the rest of the paper from §2.3 on) restrict each peer to exactly
//! one cluster, which is what [`Overlay`] models.

use recluster_types::{ClusterId, PeerId};

/// One cluster: a sorted set of member peers.
///
/// Members are kept sorted by peer id so every node of the (simulated)
/// distributed system observes the same deterministic order — in
/// particular the cluster *representative* is well defined without extra
/// coordination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cluster {
    members: Vec<PeerId>,
}

impl Cluster {
    /// The members in ascending peer-id order.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Number of members (`|c|` in the paper).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `peer` belongs to this cluster.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.members.binary_search(&peer).is_ok()
    }

    /// The cluster representative (§3.2): deterministically the
    /// lowest-id member.
    pub fn representative(&self) -> Option<PeerId> {
        self.members.first().copied()
    }

    fn insert(&mut self, peer: PeerId) {
        if let Err(pos) = self.members.binary_search(&peer) {
            self.members.insert(pos, peer);
        }
    }

    fn remove(&mut self, peer: PeerId) -> bool {
        match self.members.binary_search(&peer) {
            Ok(pos) => {
                self.members.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// The clustered overlay: `|P|` peers, `Cmax = |P|` cluster slots, each
/// live peer in exactly one cluster.
///
/// # Examples
/// ```
/// use recluster_overlay::Overlay;
/// use recluster_types::{ClusterId, PeerId};
///
/// let mut ov = Overlay::singletons(3);
/// assert_eq!(ov.cluster_of(PeerId(0)), Some(ClusterId(0)));
/// ov.move_peer(PeerId(1), ClusterId(0));
/// assert_eq!(ov.cluster(ClusterId(0)).len(), 2);
/// assert_eq!(ov.non_empty_clusters(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overlay {
    /// `assignment[p]` = the cluster of peer `p`; `None` for departed
    /// peers (churn).
    assignment: Vec<Option<ClusterId>>,
    clusters: Vec<Cluster>,
    /// Count of assigned peers, maintained incrementally so the cost
    /// hot path reads `|P|` in O(1) instead of scanning `assignment`.
    live: usize,
    /// Ids of non-empty clusters, ascending — maintained across
    /// assign/unassign/move so best-response scans and per-round
    /// representative gathering are O(non-empty), not O(Cmax).
    non_empty: Vec<ClusterId>,
}

impl Overlay {
    /// Creates an overlay of `n_peers` peers, all unassigned, with
    /// `Cmax = n_peers` empty clusters.
    pub fn unassigned(n_peers: usize) -> Self {
        Overlay {
            assignment: vec![None; n_peers],
            clusters: vec![Cluster::default(); n_peers],
            live: 0,
            non_empty: Vec::new(),
        }
    }

    /// Creates the paper's initial configuration (i): "each peer forms
    /// its own cluster" — peer `i` in cluster `i`.
    pub fn singletons(n_peers: usize) -> Self {
        let mut ov = Self::unassigned(n_peers);
        for i in 0..n_peers {
            ov.assign(PeerId::from_index(i), ClusterId::from_index(i));
        }
        ov
    }

    /// Number of peer slots (`|P|`, counting departed peers' slots).
    pub fn n_slots(&self) -> usize {
        self.assignment.len()
    }

    /// Number of live (assigned) peers — `|P|` in the paper's cost
    /// formulas. O(1): maintained across assign/unassign.
    pub fn n_peers(&self) -> usize {
        self.live
    }

    /// `Cmax`: total cluster slots (including empty clusters).
    pub fn cmax(&self) -> usize {
        self.clusters.len()
    }

    /// Iterator over live peers.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|_| PeerId::from_index(i)))
    }

    /// Iterator over all cluster ids (empty ones included).
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters.len()).map(ClusterId::from_index)
    }

    /// The cluster a peer belongs to (`None` if departed/unassigned).
    pub fn cluster_of(&self, peer: PeerId) -> Option<ClusterId> {
        self.assignment.get(peer.index()).copied().flatten()
    }

    /// A cluster by id.
    pub fn cluster(&self, cid: ClusterId) -> &Cluster {
        &self.clusters[cid.index()]
    }

    /// Size of a cluster.
    pub fn size(&self, cid: ClusterId) -> usize {
        self.clusters[cid.index()].len()
    }

    /// Number of non-empty clusters (what Table 1's "#Clusters" reports).
    /// O(1): read off the maintained non-empty list.
    pub fn non_empty_clusters(&self) -> usize {
        self.non_empty.len()
    }

    /// Ids of all non-empty clusters in ascending order, maintained
    /// incrementally — the O(non-empty) alternative to filtering
    /// [`Overlay::cluster_ids`] by size.
    pub fn non_empty_ids(&self) -> &[ClusterId] {
        &self.non_empty
    }

    /// The first empty cluster slot, if any (used when a peer seeds a new
    /// cluster, §3.2). O(non-empty): the answer is the smallest id absent
    /// from the sorted non-empty list.
    pub fn first_empty_cluster(&self) -> Option<ClusterId> {
        for (i, &cid) in self.non_empty.iter().enumerate() {
            if cid.index() != i {
                return Some(ClusterId::from_index(i));
            }
        }
        (self.non_empty.len() < self.clusters.len())
            .then(|| ClusterId::from_index(self.non_empty.len()))
    }

    /// Records that `cid` went from empty to non-empty.
    fn note_filled(&mut self, cid: ClusterId) {
        if let Err(pos) = self.non_empty.binary_search(&cid) {
            self.non_empty.insert(pos, cid);
        }
    }

    /// Records that `cid` became empty.
    fn note_emptied(&mut self, cid: ClusterId) {
        if let Ok(pos) = self.non_empty.binary_search(&cid) {
            self.non_empty.remove(pos);
        }
    }

    /// Assigns an unassigned peer to a cluster.
    ///
    /// # Panics
    /// Panics if the peer is already assigned.
    pub fn assign(&mut self, peer: PeerId, cid: ClusterId) {
        assert!(
            self.assignment[peer.index()].is_none(),
            "{peer} is already assigned; use move_peer"
        );
        if self.clusters[cid.index()].is_empty() {
            self.note_filled(cid);
        }
        self.clusters[cid.index()].insert(peer);
        self.assignment[peer.index()] = Some(cid);
        self.live += 1;
    }

    /// Moves a peer to another cluster; returns its previous cluster.
    ///
    /// # Panics
    /// Panics if the peer is unassigned.
    pub fn move_peer(&mut self, peer: PeerId, to: ClusterId) -> ClusterId {
        let from = self.assignment[peer.index()]
            .unwrap_or_else(|| panic!("{peer} is not assigned to any cluster"));
        if from == to {
            return from;
        }
        let removed = self.clusters[from.index()].remove(peer);
        debug_assert!(removed, "assignment and membership diverged");
        if self.clusters[from.index()].is_empty() {
            self.note_emptied(from);
        }
        if self.clusters[to.index()].is_empty() {
            self.note_filled(to);
        }
        self.clusters[to.index()].insert(peer);
        self.assignment[peer.index()] = Some(to);
        from
    }

    /// Removes a peer from the overlay (churn leave); returns its former
    /// cluster if it was assigned.
    pub fn unassign(&mut self, peer: PeerId) -> Option<ClusterId> {
        let cid = self.assignment[peer.index()].take()?;
        let removed = self.clusters[cid.index()].remove(peer);
        debug_assert!(removed, "assignment and membership diverged");
        if self.clusters[cid.index()].is_empty() {
            self.note_emptied(cid);
        }
        self.live -= 1;
        Some(cid)
    }

    /// Grows the overlay by one peer slot *and* one cluster slot
    /// (preserving `Cmax = |P|`), returning the new peer's id. The peer
    /// starts unassigned.
    pub fn grow(&mut self) -> PeerId {
        let peer = PeerId::from_index(self.assignment.len());
        self.assignment.push(None);
        self.clusters.push(Cluster::default());
        peer
    }

    /// Cluster sizes indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Cluster::len).collect()
    }

    /// Checks structural invariants; returns a description of the first
    /// violation. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.clusters.len() < self.n_peers() {
            return Err(format!(
                "Cmax {} < live peers {}",
                self.clusters.len(),
                self.n_peers()
            ));
        }
        let mut seen = vec![false; self.assignment.len()];
        for (ci, cluster) in self.clusters.iter().enumerate() {
            let mut prev: Option<PeerId> = None;
            for &m in cluster.members() {
                if let Some(p) = prev {
                    if p >= m {
                        return Err(format!("cluster c{ci} members not strictly sorted"));
                    }
                }
                prev = Some(m);
                if self.assignment.get(m.index()).copied().flatten()
                    != Some(ClusterId::from_index(ci))
                {
                    return Err(format!("{m} in c{ci} but assignment disagrees"));
                }
                if seen[m.index()] {
                    return Err(format!("{m} appears in two clusters"));
                }
                seen[m.index()] = true;
            }
        }
        for (pi, a) in self.assignment.iter().enumerate() {
            if a.is_some() && !seen[pi] {
                return Err(format!("p{pi} assigned but missing from its cluster"));
            }
        }
        let scanned = self.assignment.iter().filter(|a| a.is_some()).count();
        if scanned != self.live {
            return Err(format!(
                "live-count cache {} != scanned {}",
                self.live, scanned
            ));
        }
        let scanned_non_empty: Vec<ClusterId> = (0..self.clusters.len())
            .filter(|&c| !self.clusters[c].is_empty())
            .map(ClusterId::from_index)
            .collect();
        if scanned_non_empty != self.non_empty {
            return Err(format!(
                "non-empty cache {:?} != scanned {:?}",
                self.non_empty, scanned_non_empty
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_assign_peer_i_to_cluster_i() {
        let ov = Overlay::singletons(5);
        for i in 0..5 {
            assert_eq!(
                ov.cluster_of(PeerId::from_index(i)),
                Some(ClusterId::from_index(i))
            );
            assert_eq!(ov.size(ClusterId::from_index(i)), 1);
        }
        assert_eq!(ov.non_empty_clusters(), 5);
        ov.check_invariants().unwrap();
    }

    #[test]
    fn move_peer_updates_both_sides() {
        let mut ov = Overlay::singletons(4);
        let from = ov.move_peer(PeerId(3), ClusterId(0));
        assert_eq!(from, ClusterId(3));
        assert_eq!(ov.cluster(ClusterId(0)).members(), &[PeerId(0), PeerId(3)]);
        assert!(ov.cluster(ClusterId(3)).is_empty());
        assert_eq!(ov.cluster_of(PeerId(3)), Some(ClusterId(0)));
        ov.check_invariants().unwrap();
    }

    #[test]
    fn move_to_same_cluster_is_noop() {
        let mut ov = Overlay::singletons(2);
        let before = ov.clone();
        ov.move_peer(PeerId(0), ClusterId(0));
        assert_eq!(ov, before);
    }

    #[test]
    fn representative_is_lowest_id() {
        let mut ov = Overlay::singletons(4);
        ov.move_peer(PeerId(2), ClusterId(1));
        ov.move_peer(PeerId(0), ClusterId(1));
        assert_eq!(ov.cluster(ClusterId(1)).representative(), Some(PeerId(0)));
    }

    #[test]
    fn unassign_empties_and_first_empty_finds_it() {
        let mut ov = Overlay::singletons(3);
        assert_eq!(ov.first_empty_cluster(), None);
        assert_eq!(ov.unassign(PeerId(1)), Some(ClusterId(1)));
        assert_eq!(ov.n_peers(), 2);
        assert_eq!(ov.first_empty_cluster(), Some(ClusterId(1)));
        assert_eq!(ov.unassign(PeerId(1)), None, "double unassign is None");
        ov.check_invariants().unwrap();
    }

    #[test]
    fn grow_preserves_cmax_equals_slots() {
        let mut ov = Overlay::singletons(2);
        let p = ov.grow();
        assert_eq!(p, PeerId(2));
        assert_eq!(ov.n_slots(), 3);
        assert_eq!(ov.cmax(), 3);
        assert_eq!(ov.n_peers(), 2);
        ov.assign(p, ClusterId(2));
        assert_eq!(ov.n_peers(), 3);
        ov.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assign_panics() {
        let mut ov = Overlay::singletons(2);
        ov.assign(PeerId(0), ClusterId(1));
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn move_unassigned_panics() {
        let mut ov = Overlay::unassigned(2);
        ov.move_peer(PeerId(0), ClusterId(1));
    }

    #[test]
    fn sizes_reports_all_slots() {
        let mut ov = Overlay::singletons(3);
        ov.move_peer(PeerId(2), ClusterId(0));
        assert_eq!(ov.sizes(), vec![2, 1, 0]);
    }

    #[test]
    fn peers_iterates_live_peers_only() {
        let mut ov = Overlay::singletons(4);
        ov.unassign(PeerId(2));
        let live: Vec<_> = ov.peers().collect();
        assert_eq!(live, vec![PeerId(0), PeerId(1), PeerId(3)]);
    }
}
