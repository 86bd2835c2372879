//! Message-accounting simulated network.
//!
//! The paper motivates local maintenance by communication cost ("each
//! round imposes considerable overheads"; re-clustering from scratch
//! "incurs large communication costs"). This module gives every protocol
//! a common ledger so those claims can be measured: each logical message
//! is recorded with a kind and a payload size.

/// Kinds of messages exchanged in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Peer → representative: gain value (protocol phase 1).
    GainReport,
    /// Representative → all representatives: relocation request
    /// `(cid_src, cid_dst, gain)`.
    RelocationRequest,
    /// Representative → all representatives: "no peer needs to relocate".
    Heartbeat,
    /// Representative ↔ representative: coordinate one granted move.
    GrantCoordination,
    /// A query forwarded to a cluster.
    QueryForward,
    /// Results (annotated with the answering cluster's cid) returned to
    /// the query initiator.
    ResultReturn,
    /// A peer joining a cluster (topology maintenance traffic).
    ClusterJoin,
    /// A peer leaving a cluster.
    ClusterLeave,
    /// A cluster propagating a content-summary refresh to its members
    /// (cluster-directed routing upkeep).
    SummaryUpdate,
    /// Global state collection / broadcast used by centralized baselines.
    GlobalBroadcast,
}

/// All message kinds, for iteration in reports.
pub const ALL_KINDS: &[MsgKind] = &[
    MsgKind::GainReport,
    MsgKind::RelocationRequest,
    MsgKind::Heartbeat,
    MsgKind::GrantCoordination,
    MsgKind::QueryForward,
    MsgKind::ResultReturn,
    MsgKind::ClusterJoin,
    MsgKind::ClusterLeave,
    MsgKind::SummaryUpdate,
    MsgKind::GlobalBroadcast,
];

fn kind_index(kind: MsgKind) -> usize {
    ALL_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("kind listed in ALL_KINDS")
}

/// A message/byte ledger.
///
/// # Examples
/// ```
/// use recluster_overlay::{MsgKind, SimNetwork};
///
/// let mut net = SimNetwork::new();
/// net.send(MsgKind::GainReport, 16);
/// net.send(MsgKind::GainReport, 16);
/// assert_eq!(net.messages(MsgKind::GainReport), 2);
/// assert_eq!(net.total_messages(), 2);
/// assert_eq!(net.total_bytes(), 32);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimNetwork {
    counts: [u64; 10],
    bytes: [u64; 10],
}

impl SimNetwork {
    /// A fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind` carrying `bytes` payload bytes.
    pub fn send(&mut self, kind: MsgKind, bytes: u64) {
        let i = kind_index(kind);
        self.counts[i] += 1;
        self.bytes[i] += bytes;
    }

    /// Records `n` identical messages.
    pub fn send_many(&mut self, kind: MsgKind, bytes_each: u64, n: u64) {
        let i = kind_index(kind);
        self.counts[i] += n;
        self.bytes[i] += bytes_each * n;
    }

    /// Messages of one kind.
    pub fn messages(&self, kind: MsgKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// Bytes of one kind.
    pub fn bytes(&self, kind: MsgKind) -> u64 {
        self.bytes[kind_index(kind)]
    }

    /// All messages.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// All bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Resets the ledger.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &SimNetwork) {
        self.merge_scaled(other, 1);
    }

    /// Merges `other` as if it had been merged `n` times — one multiply
    /// instead of `n` passes (used when identical traffic repeats, e.g.
    /// every occurrence of a query within a period).
    pub fn merge_scaled(&mut self, other: &SimNetwork, n: u64) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i] * n;
            self.bytes[i] += other.bytes[i] * n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accumulates_per_kind() {
        let mut net = SimNetwork::new();
        net.send(MsgKind::QueryForward, 100);
        net.send(MsgKind::QueryForward, 50);
        net.send(MsgKind::ResultReturn, 10);
        assert_eq!(net.messages(MsgKind::QueryForward), 2);
        assert_eq!(net.bytes(MsgKind::QueryForward), 150);
        assert_eq!(net.messages(MsgKind::ResultReturn), 1);
        assert_eq!(net.total_messages(), 3);
        assert_eq!(net.total_bytes(), 160);
    }

    #[test]
    fn send_many_is_equivalent_to_loop() {
        let mut a = SimNetwork::new();
        a.send_many(MsgKind::Heartbeat, 8, 5);
        let mut b = SimNetwork::new();
        for _ in 0..5 {
            b.send(MsgKind::Heartbeat, 8);
        }
        assert_eq!(
            a.messages(MsgKind::Heartbeat),
            b.messages(MsgKind::Heartbeat)
        );
        assert_eq!(a.bytes(MsgKind::Heartbeat), b.bytes(MsgKind::Heartbeat));
    }

    #[test]
    fn reset_clears_everything() {
        let mut net = SimNetwork::new();
        net.send(MsgKind::GlobalBroadcast, 1000);
        net.reset();
        assert_eq!(net.total_messages(), 0);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn merge_scaled_equals_repeated_merge() {
        let mut unit = SimNetwork::new();
        unit.send(MsgKind::QueryForward, 12);
        unit.send(MsgKind::ResultReturn, 7);
        let mut looped = SimNetwork::new();
        for _ in 0..5 {
            looped.merge(&unit);
        }
        let mut scaled = SimNetwork::new();
        scaled.merge_scaled(&unit, 5);
        assert_eq!(looped.total_messages(), scaled.total_messages());
        assert_eq!(looped.total_bytes(), scaled.total_bytes());
    }

    #[test]
    fn merge_adds_ledgers() {
        let mut a = SimNetwork::new();
        a.send(MsgKind::ClusterJoin, 4);
        let mut b = SimNetwork::new();
        b.send(MsgKind::ClusterJoin, 6);
        b.send(MsgKind::ClusterLeave, 1);
        a.merge(&b);
        assert_eq!(a.messages(MsgKind::ClusterJoin), 2);
        assert_eq!(a.bytes(MsgKind::ClusterJoin), 10);
        assert_eq!(a.messages(MsgKind::ClusterLeave), 1);
    }

    #[test]
    fn all_kinds_have_distinct_slots() {
        let mut net = SimNetwork::new();
        for (i, &k) in ALL_KINDS.iter().enumerate() {
            net.send(k, i as u64);
        }
        for &k in ALL_KINDS {
            assert_eq!(net.messages(k), 1);
        }
        assert_eq!(net.total_messages(), ALL_KINDS.len() as u64);
    }
}
