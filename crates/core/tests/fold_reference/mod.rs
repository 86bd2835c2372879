//! The observed estimator as nested per-peer records: the reference the
//! flat [`ObservedStats`] layout is held to, bit for bit.
//!
//! [`ReferenceStats`] keeps, per slot, one owned [`FoldedQuery`] per
//! distinct query and a `BTreeMap` of served credit, and folds a period
//! into them record by record: each new record is matched to the
//! previous record of the same `Query`, its cluster counts are merged
//! through a map, and the served maps are merged the same way. It reads
//! a [`PeriodObservations`] only through its public accessors, and the
//! cluster sizes and `|P|` from the overlay the period was observed on.
//! `prop_observed.rs` and `prop_routing.rs` both compare against it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use recluster_core::equilibrium::COST_EPS;
use recluster_core::tracker::QueryObservation;
use recluster_core::{ObservedStats, PeriodObservations, SystemRead};
use recluster_overlay::Overlay;
use recluster_types::{ClusterId, PeerId, Query};

/// One peer's observation of one distinct query, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub query: Query,
    pub weight: f64,
    pub per_cluster: Vec<(ClusterId, u64)>,
    pub total: u64,
    pub own: u64,
}

impl Record {
    fn of(view: QueryObservation<'_>) -> Self {
        Record {
            query: view.query.clone(),
            weight: view.weight,
            per_cluster: view.per_cluster.to_vec(),
            total: view.total,
            own: view.own,
        }
    }
}

/// `peer`'s observations in `period`, owned.
pub fn records(period: &PeriodObservations, peer: PeerId) -> Vec<Record> {
    period.of(peer).map(Record::of).collect()
}

/// One peer's decayed record for one distinct query.
#[derive(Debug, Clone)]
struct FoldedQuery {
    query: Query,
    weight: f64,
    per_cluster: Vec<(ClusterId, f64)>,
    total: f64,
    own: f64,
}

impl FoldedQuery {
    fn cluster_count(&self, cid: ClusterId) -> f64 {
        self.per_cluster
            .binary_search_by_key(&cid, |&(c, _)| c)
            .map(|i| self.per_cluster[i].1)
            .unwrap_or(0.0)
    }
}

#[derive(Debug, Clone)]
struct Folded {
    observations: Vec<Vec<FoldedQuery>>,
    served: Vec<BTreeMap<ClusterId, f64>>,
    served_total: Vec<f64>,
    sizes: Vec<usize>,
    n_peers: usize,
}

/// The nested counterpart of [`ObservedStats`].
#[derive(Debug, Clone)]
pub struct ReferenceStats {
    decay: f64,
    folded: Option<Folded>,
}

/// EMA-folds one query's new observation into its decayed history
/// (`None`: a brand-new query, an implicit zero history): every count
/// becomes `lambda · old + keep · new` over the union of answering
/// clusters; the weight snaps to the current workload frequency.
fn fold_query(prev: Option<&FoldedQuery>, obs: &Record, lambda: f64, keep: f64) -> FoldedQuery {
    let mut per_cluster: BTreeMap<ClusterId, f64> = prev
        .map_or(&[][..], |p| &p.per_cluster)
        .iter()
        .map(|&(c, v)| (c, lambda * v))
        .collect();
    for &(c, v) in &obs.per_cluster {
        *per_cluster.entry(c).or_insert(0.0) += keep * v as f64;
    }
    let (total, own) = prev.map_or((0.0, 0.0), |p| (p.total, p.own));
    FoldedQuery {
        query: obs.query.clone(),
        weight: obs.weight,
        per_cluster: per_cluster.into_iter().collect(),
        total: lambda * total + keep * obs.total as f64,
        own: lambda * own + keep * obs.own as f64,
    }
}

impl ReferenceStats {
    pub fn new(decay: f64) -> Self {
        ReferenceStats {
            decay,
            folded: None,
        }
    }

    /// Folds `period`, observed on `overlay`, into the records.
    pub fn absorb(&mut self, period: &PeriodObservations, overlay: &Overlay) {
        let n_slots = overlay.n_slots();
        let peers = || (0..n_slots).map(PeerId::from_index);
        let served_rows: Vec<BTreeMap<ClusterId, f64>> = peers()
            .map(|p| period.served(p).iter().copied().collect())
            .collect();
        let served_totals: Vec<f64> = peers().map(|p| period.served_total(p)).collect();
        let lambda = self.decay;
        let keep = 1.0 - lambda;
        let old = match &self.folded {
            Some(old) if lambda != 0.0 => old,
            _ => {
                let observations = peers()
                    .map(|p| {
                        records(period, p)
                            .into_iter()
                            .map(|r| FoldedQuery {
                                query: r.query,
                                weight: r.weight,
                                per_cluster: r
                                    .per_cluster
                                    .iter()
                                    .map(|&(c, v)| (c, v as f64))
                                    .collect(),
                                total: r.total as f64,
                                own: r.own as f64,
                            })
                            .collect()
                    })
                    .collect();
                self.folded = Some(Folded {
                    observations,
                    served: served_rows,
                    served_total: served_totals,
                    sizes: overlay.sizes(),
                    n_peers: overlay.n_peers(),
                });
                return;
            }
        };
        let mut observations = Vec::with_capacity(n_slots);
        for peer in peers() {
            let previous = old
                .observations
                .get(peer.index())
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let by_query: BTreeMap<&Query, &FoldedQuery> =
                previous.iter().map(|f| (&f.query, f)).collect();
            let folded = records(period, peer)
                .iter()
                .map(|obs| fold_query(by_query.get(&obs.query).copied(), obs, lambda, keep))
                .collect();
            observations.push(folded);
        }
        let mut served = Vec::with_capacity(n_slots);
        let mut served_total = Vec::with_capacity(n_slots);
        for slot in 0..n_slots {
            let mut map: BTreeMap<ClusterId, f64> = served_rows[slot]
                .iter()
                .map(|(&c, &v)| (c, keep * v))
                .collect();
            if let Some(prev) = old.served.get(slot) {
                for (&c, &v) in prev {
                    *map.entry(c).or_insert(0.0) += lambda * v;
                }
            }
            served.push(map);
            let prev_total = old.served_total.get(slot).copied().unwrap_or(0.0);
            served_total.push(lambda * prev_total + keep * served_totals[slot]);
        }
        self.folded = Some(Folded {
            observations,
            served,
            served_total,
            sizes: overlay.sizes(),
            n_peers: overlay.n_peers(),
        });
    }

    fn records_of(&self, peer: PeerId) -> Option<(&Folded, &[FoldedQuery])> {
        let folded = self.folded.as_ref()?;
        Some((folded, folded.observations.get(peer.index())?))
    }

    fn pcost<S: SystemRead>(
        &self,
        system: &S,
        peer: PeerId,
        cid: ClusterId,
        currently_in: Option<ClusterId>,
    ) -> Option<f64> {
        let (folded, records) = self.records_of(peer)?;
        let cfg = system.config();
        let in_cluster = currently_in == Some(cid);
        let size = folded.sizes.get(cid.index()).copied().unwrap_or(0) + usize::from(!in_cluster);
        let membership = cfg.alpha * cfg.theta.membership(size, folded.n_peers);
        let mut loss = 0.0;
        for obs in records {
            if obs.total == 0.0 {
                continue;
            }
            let mut inside = obs.cluster_count(cid);
            if !in_cluster {
                inside += obs.own;
            }
            let frac = (inside / obs.total).min(1.0);
            loss += obs.weight * (1.0 - frac);
        }
        Some(membership + loss)
    }

    fn served_total(&self, peer: PeerId) -> f64 {
        self.folded
            .as_ref()
            .and_then(|f| f.served_total.get(peer.index()))
            .copied()
            .unwrap_or(0.0)
    }

    fn contribution(&self, peer: PeerId, cid: ClusterId) -> f64 {
        let total = self.served_total(peer);
        match &self.folded {
            Some(folded) if total != 0.0 => {
                folded.served[peer.index()]
                    .get(&cid)
                    .copied()
                    .unwrap_or(0.0)
                    / total
            }
            _ => 0.0,
        }
    }

    /// The oracle candidate walk over reference costs: non-empty clusters
    /// ascending, the first empty one interleaved when `allow_empty`,
    /// the incumbent seeding the scan, and `COST_EPS` to move.
    fn selfish_choice<S: SystemRead>(
        &self,
        system: &S,
        peer: PeerId,
        currently_in: Option<ClusterId>,
        allow_empty: bool,
    ) -> Option<(ClusterId, f64)> {
        self.records_of(peer)?;
        let cost_of = |cid| {
            self.pcost(system, peer, cid, currently_in)
                .expect("records checked above")
        };
        let mut candidates: Vec<ClusterId> = system.overlay().non_empty_ids().to_vec();
        if allow_empty {
            candidates.extend(system.overlay().first_empty_cluster());
            candidates.sort_unstable();
        }
        let mut best = currently_in.map(|cur| (cur, cost_of(cur)));
        for cid in candidates {
            if currently_in == Some(cid) {
                continue;
            }
            let cost = cost_of(cid);
            if best.is_none_or(|(_, b)| cost < b - COST_EPS) {
                best = Some((cid, cost));
            }
        }
        best
    }
}

/// Holds every estimate `stats` makes for the slots of `peers` against
/// `system` to `reference`, bit for bit: `pcost` for every cluster of
/// `clusters` from the peer's home cluster and from outside, the
/// contribution to each of them, the served total, and the selfish
/// choice under both empty-target policies from both positions.
pub fn check_estimates<S: SystemRead>(
    stats: &ObservedStats,
    reference: &ReferenceStats,
    system: &S,
    peers: impl IntoIterator<Item = PeerId>,
    clusters: &[ClusterId],
) -> Result<(), TestCaseError> {
    for peer in peers {
        let home = system.overlay().cluster_of(peer);
        for currently_in in [home, None] {
            for &cid in clusters {
                let got = stats.estimated_pcost(system, peer, cid, currently_in);
                let want = reference.pcost(system, peer, cid, currently_in);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "pcost({:?}, {:?}) from {:?}: {:?} vs reference {:?}",
                    peer,
                    cid,
                    currently_in,
                    got,
                    want
                );
            }
            for allow_empty in [true, false] {
                let got = stats.selfish_choice(system, peer, currently_in, allow_empty);
                let want = reference.selfish_choice(system, peer, currently_in, allow_empty);
                prop_assert_eq!(
                    got.map(|(c, cost)| (c, cost.to_bits())),
                    want.map(|(c, cost)| (c, cost.to_bits())),
                    "selfish choice of {:?} from {:?}, allow_empty={}",
                    peer,
                    currently_in,
                    allow_empty
                );
            }
        }
        for &cid in clusters {
            let got = stats.estimated_contribution(peer, cid);
            let want = reference.contribution(peer, cid);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "contribution({:?}, {:?}): {} vs reference {}",
                peer,
                cid,
                got,
                want
            );
        }
        prop_assert_eq!(
            stats.served_total(peer).to_bits(),
            reference.served_total(peer).to_bits(),
            "served total of {:?}",
            peer
        );
    }
    Ok(())
}
