//! Per-peer protocol state machines.
//!
//! One [`PeerStateMachine`] per live peer per round. Machines never
//! touch shared state: everything they know arrives either at
//! construction (the peer's `SystemView`-derived local knowledge — its
//! own proposal, who its representative is) or through received
//! [`Message`]s. They communicate exclusively by queueing frames on an
//! [`Outbox`]; the [`RuntimeEngine`](super::RuntimeEngine) moves those
//! frames onto the [`SimNet`](super::SimNet) fabric.
//!
//! Representatives run two collect-then-fire phases mirroring §3.2:
//! phase 1 collects member gain reports and forwards the cluster's best
//! as a single request; phase 2 collects every other representative's
//! forward, sorts the union exactly like the sync engine
//! ([`RelocationRequest::sort_requests`]) and runs the engine's own
//! phase-2 step ([`LockSet::admit`]) to decide its own cluster's grant.
//! The phase-1 pick (`RelocationRequest::outranks`) and the phase-2
//! step are the sync engine's code, not a copy, so what the runtime adds
//! is only the transport. Each phase fires when its collection is
//! complete *or* its deadline passes — under an ideal schedule
//! collections always complete, which is what makes the runtime
//! bit-identical to [`ProtocolEngine`]; under delay or loss the
//! deadline path produces exactly the stale-view decisions the sweep
//! scenarios measure.
//!
//! Collectors are **identity-based**: a phase tracks *which* members
//! and clusters it has heard, not how many. Under the fully drained,
//! churn-free schedules the two are indistinguishable — every frame
//! arrives at most once and only from snapshot peers — but under
//! mid-round churn a frame from a peer outside the round snapshot (a
//! joiner announcing itself via heartbeat) or a duplicate is consumed
//! without advancing any phase, so a collector can never fire early on
//! traffic the snapshot never promised it.
//!
//! Every representative of a round shares one [`Roster`]: the
//! snapshot's `(cluster, representative)` pairs in ascending cluster
//! order plus a table from cluster id to position. Broadcasts walk it,
//! skipping the sender's own position, and the phase-2 collector is
//! indexed by roster position (member reports by position in the
//! member list), so admitting a frame is one lookup whatever the number
//! of clusters.
//!
//! [`ProtocolEngine`]: crate::protocol::ProtocolEngine

use std::sync::Arc;

use recluster_overlay::MsgKind;
use recluster_types::{ClusterId, PeerId};

use super::message::{gain_commitment, DenyReason, Message};
use crate::protocol::locks::{LockSet, Verdict};
use crate::protocol::RelocationRequest;

/// A decision event a machine reports up to its driver — the runtime's
/// window into what representatives concluded, used to assemble
/// [`RoundOutcome`](crate::protocol::RoundOutcome)s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineEvent {
    /// A representative forwarded its cluster's best request (phase 1).
    Forwarded(RelocationRequest),
    /// A representative granted its own cluster's request (phase 2).
    Granted(RelocationRequest),
    /// A representative denied its own cluster's request (phase 2).
    Denied(RelocationRequest, DenyReason),
}

/// The outgoing-frame queue machines write to. The driver drains it
/// after every delivery/poll step and feeds the frames to the fabric.
#[derive(Debug, Default)]
pub struct Outbox {
    frames: Vec<(PeerId, PeerId, Message, MsgKind)>,
    events: Vec<MachineEvent>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues `msg` from `src` to `dst`, to be charged to the ledger
    /// under `kind`. The kind is context the sender picks, not a
    /// property of the frame: a member's `Heartbeat` stand-in for its
    /// gain report is charged as a [`MsgKind::GainReport`] (matching the
    /// sync engine's accounting), while a representative's phase-1
    /// heartbeat is a [`MsgKind::Heartbeat`].
    pub fn send(&mut self, src: PeerId, dst: PeerId, msg: Message, kind: MsgKind) {
        self.frames.push((src, dst, msg, kind));
    }

    /// Reports a decision event to the driver.
    pub fn event(&mut self, event: MachineEvent) {
        self.events.push(event);
    }

    /// Drains the queued frames in send order.
    pub fn drain_frames(&mut self) -> Vec<(PeerId, PeerId, Message, MsgKind)> {
        std::mem::take(&mut self.frames)
    }

    /// Drains the reported events in emit order.
    pub fn drain_events(&mut self) -> Vec<MachineEvent> {
        std::mem::take(&mut self.events)
    }
}

/// What a peer reports this round and how it backs the claim: the
/// proposal (already policy-filtered, already inflated for configured
/// liars), the [`gain_commitment`] the `Propose` carries, and the gain
/// bits + nonce the peer will reveal at `Commit`. [`ReportPlan::honest`]
/// builds the self-consistent plan; a liar mode builds a plan whose
/// pieces disagree, which is exactly what the audit detects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportPlan {
    /// The proposal to report: `(destination, claimed gain)`. `None`
    /// reports a heartbeat.
    pub report: Option<(ClusterId, f64)>,
    /// Representative of the proposal's destination cluster in the
    /// round snapshot (`None` when the destination is empty) — where
    /// the second [`Message::Commit`] copy goes.
    pub dst_rep: Option<PeerId>,
    /// The commitment the `Propose` carries.
    pub commitment: u64,
    /// The nonce revealed at `Commit`.
    pub nonce: u64,
    /// The gain restated at `Commit` (the reveal).
    pub commit_gain: f64,
}

impl ReportPlan {
    /// The "nothing to report" plan: a heartbeat, no commitment.
    pub fn heartbeat() -> Self {
        ReportPlan {
            report: None,
            dst_rep: None,
            commitment: 0,
            nonce: 0,
            commit_gain: 0.0,
        }
    }

    /// A self-consistent plan: the commitment covers exactly the gain
    /// bits the peer claims now and will reveal at `Commit`.
    pub fn honest(
        peer: PeerId,
        from: ClusterId,
        to: ClusterId,
        gain: f64,
        nonce: u64,
        dst_rep: Option<PeerId>,
    ) -> Self {
        ReportPlan {
            report: Some((to, gain)),
            dst_rep,
            commitment: gain_commitment(peer, from, to, gain.to_bits(), nonce),
            nonce,
            commit_gain: gain,
        }
    }
}

/// A roster position-table entry for a cluster not on the roster.
const ABSENT: u32 = u32::MAX;

/// The representatives of one round, shared by all of them through an
/// [`Arc`]: every non-empty cluster of the round snapshot with its
/// representative, ascending by cluster, plus a table from cluster id
/// to position on the roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    reps: Vec<(ClusterId, PeerId)>,
    /// `position[c]` is cluster `c`'s index in `reps`, or [`ABSENT`].
    position: Vec<u32>,
}

impl Roster {
    /// Builds the roster from `(cluster, representative)` pairs.
    ///
    /// # Panics
    /// Panics unless `reps` is strictly ascending by cluster id (the
    /// snapshot's non-empty cluster list is): broadcasts go out in
    /// roster order, which must be the sync engine's ascending order.
    pub fn new(reps: Vec<(ClusterId, PeerId)>) -> Self {
        assert!(
            reps.windows(2).all(|w| w[0].0 < w[1].0),
            "roster pairs must be strictly ascending by cluster id"
        );
        let mut position = vec![ABSENT; reps.last().map_or(0, |&(c, _)| c.index() + 1)];
        for (i, &(c, _)) in reps.iter().enumerate() {
            position[c.index()] = i as u32;
        }
        Roster { reps, position }
    }

    /// The `(cluster, representative)` pairs, ascending by cluster.
    pub fn reps(&self) -> &[(ClusterId, PeerId)] {
        &self.reps
    }

    /// Number of clusters on the roster.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether the roster lists no cluster.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// `cluster`'s position on the roster, or `None` when the snapshot
    /// did not list it (also for ids past the table).
    pub fn position(&self, cluster: ClusterId) -> Option<usize> {
        match self.position.get(cluster.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// `cluster`'s representative, when the cluster is on the roster.
    pub fn representative(&self, cluster: ClusterId) -> Option<PeerId> {
        self.position(cluster).map(|i| self.reps[i].1)
    }
}

/// Which of a fixed list of senders a collector has heard, by position
/// in that list.
#[derive(Debug)]
struct Heard {
    seen: Vec<bool>,
    count: usize,
}

impl Heard {
    fn new(senders: usize) -> Self {
        Heard {
            seen: vec![false; senders],
            count: 0,
        }
    }

    /// Marks position `i` heard; returns whether it was unheard before.
    fn insert(&mut self, i: usize) -> bool {
        let new = !std::mem::replace(&mut self.seen[i], true);
        self.count += usize::from(new);
        new
    }

    /// Number of positions heard.
    fn len(&self) -> usize {
        self.count
    }
}

/// Representative-only state: the two collect-then-fire phases.
#[derive(Debug)]
struct RepState {
    /// Members of the cluster (ascending), `self` included.
    members: Vec<PeerId>,
    /// The round's representatives, this cluster's included.
    roster: Arc<Roster>,
    /// This cluster's position on `roster`.
    own: usize,
    /// The sync engine's lock switch ([`ProtocolConfig::use_locks`]).
    ///
    /// [`ProtocolConfig::use_locks`]: crate::protocol::ProtocolConfig
    use_locks: bool,
    /// Gain reports collected so far with their commitments (Propose
    /// frames only; heartbeats mark `reports_heard` but carry no
    /// candidate).
    reports: Vec<(RelocationRequest, u64)>,
    /// Which members have reported, by position in `members` (identity,
    /// not count: duplicates and non-members never advance the phase).
    reports_heard: Heard,
    phase1_deadline: u64,
    phase1_fired: bool,
    /// The cluster's own forwarded request with its commitment, if any.
    own_request: Option<(RelocationRequest, u64)>,
    /// Forwarded requests received from other representatives.
    peer_requests: Vec<RelocationRequest>,
    /// Which other clusters have spoken in phase 2 (request or
    /// heartbeat), by roster position.
    clusters_heard: Heard,
    phase2_deadline: u64,
    phase2_fired: bool,
    /// Own-cluster size, maintained from delivered commits — the value
    /// broadcast in [`Message::SummaryUpdate`].
    own_size: u32,
}

#[derive(Debug)]
enum Role {
    Member,
    Representative(Box<RepState>),
}

/// One peer's protocol automaton for one round.
#[derive(Debug)]
pub struct PeerStateMachine {
    peer: PeerId,
    cluster: ClusterId,
    /// This peer's cluster representative (itself, when representative).
    rep: PeerId,
    /// What this peer reports and reveals ([`ReportPlan`]).
    plan: ReportPlan,
    sent_report: bool,
    role: Role,
}

impl PeerStateMachine {
    /// A plain member: reports to `rep`, waits for grant or deny.
    pub fn member(peer: PeerId, cluster: ClusterId, rep: PeerId, plan: ReportPlan) -> Self {
        PeerStateMachine {
            peer,
            cluster,
            rep,
            plan,
            sent_report: false,
            role: Role::Member,
        }
    }

    /// A representative: a member plus the two collector phases.
    /// `members` must be the cluster's member list ascending (`peer`
    /// included); `roster` the round's representatives, `cluster`
    /// included, shared by every representative of the round.
    /// `round_start` and `phase_ticks` position the phase-1 deadline at
    /// `round_start + 1 + phase_ticks` (reports leave at `round_start`
    /// and arrive no earlier than one tick later); the phase-2 deadline
    /// is set the same way when phase 1 fires.
    ///
    /// # Panics
    /// Panics if `cluster` is not on `roster`.
    #[allow(clippy::too_many_arguments)]
    pub fn representative(
        peer: PeerId,
        cluster: ClusterId,
        members: Vec<PeerId>,
        roster: Arc<Roster>,
        plan: ReportPlan,
        use_locks: bool,
        round_start: u64,
        phase_ticks: u64,
    ) -> Self {
        let own = roster
            .position(cluster)
            .expect("a representative's cluster is on its roster");
        let own_size = members.len() as u32;
        PeerStateMachine {
            peer,
            cluster,
            rep: peer,
            plan,
            sent_report: false,
            role: Role::Representative(Box::new(RepState {
                reports_heard: Heard::new(members.len()),
                clusters_heard: Heard::new(roster.len()),
                members,
                roster,
                own,
                use_locks,
                reports: Vec::new(),
                phase1_deadline: round_start + 1 + phase_ticks,
                phase1_fired: false,
                own_request: None,
                peer_requests: Vec::new(),
                phase2_deadline: u64::MAX,
                phase2_fired: false,
                own_size,
            })),
        }
    }

    /// The peer this machine runs for.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// Whether this machine has completed every phase it owns — plain
    /// members are always "done" (they only react), representatives once
    /// phase 2 has fired.
    pub fn done(&self) -> bool {
        match &self.role {
            Role::Member => true,
            Role::Representative(rep) => rep.phase2_fired,
        }
    }

    /// The earliest unfired phase deadline, if any — the driver uses it
    /// to advance the clock when the fabric is idle.
    pub fn next_deadline(&self) -> Option<u64> {
        match &self.role {
            Role::Member => None,
            Role::Representative(rep) => {
                if !rep.phase1_fired {
                    Some(rep.phase1_deadline)
                } else if !rep.phase2_fired {
                    Some(rep.phase2_deadline)
                } else {
                    None
                }
            }
        }
    }

    /// Advances time-driven behavior: sends the initial report on the
    /// first poll; fires a representative's phases when complete or past
    /// deadline. Called once per tick after deliveries, machines in
    /// ascending peer order.
    pub fn poll(&mut self, now: u64, phase_ticks: u64, out: &mut Outbox) {
        if !self.sent_report {
            self.sent_report = true;
            let msg = match self.plan.report {
                Some((to, claimed_gain)) => Message::Propose {
                    peer: self.peer,
                    from: self.cluster,
                    to,
                    claimed_gain,
                    commitment: self.plan.commitment,
                },
                None => Message::Heartbeat {
                    peer: self.peer,
                    from: self.cluster,
                },
            };
            // Members report to the representative — the representative
            // to itself, through the same fabric, so every member's
            // report is charged identically (as in the sync engine).
            out.send(self.peer, self.rep, msg, MsgKind::GainReport);
        }
        let (peer, cluster) = (self.peer, self.cluster);
        if let Role::Representative(rep) = &mut self.role {
            if !rep.phase1_fired
                && (rep.reports_heard.len() == rep.members.len() || now >= rep.phase1_deadline)
            {
                rep.fire_phase1(peer, cluster, now, phase_ticks, out);
            }
            if rep.phase1_fired
                && !rep.phase2_fired
                && (rep.clusters_heard.len() + 1 == rep.roster.len() || now >= rep.phase2_deadline)
            {
                rep.fire_phase2(peer, cluster, out);
            }
        }
    }

    /// Handles one delivered frame. Returns whether the frame was
    /// consumed — `false` means it arrived after the phase that wanted
    /// it had already fired (the driver counts it stale).
    pub fn receive(&mut self, msg: &Message, out: &mut Outbox) -> bool {
        match *msg {
            Message::Propose {
                peer,
                from,
                to,
                claimed_gain,
                commitment,
            } => {
                let report = from == self.cluster;
                let Role::Representative(rep) = &mut self.role else {
                    return false;
                };
                let req = RelocationRequest {
                    src: from,
                    dst: to,
                    peer,
                    gain: claimed_gain,
                };
                if report {
                    // A frame from outside the snapshot's member list
                    // (a mid-round joiner) is consumed regardless of
                    // phase state — it is not late, just early.
                    let Ok(slot) = rep.members.binary_search(&peer) else {
                        return true;
                    };
                    if rep.phase1_fired {
                        return false;
                    }
                    // A duplicate is consumed without advancing.
                    if !rep.reports_heard.insert(slot) {
                        return true;
                    }
                    rep.reports.push((req, commitment));
                } else {
                    // Same for a forward from a cluster the snapshot
                    // doesn't know, or one already heard.
                    let Some(slot) = rep.roster.position(from) else {
                        return true;
                    };
                    if rep.phase2_fired {
                        return false;
                    }
                    if !rep.clusters_heard.insert(slot) {
                        return true;
                    }
                    rep.peer_requests.push(req);
                }
                true
            }
            Message::Heartbeat { peer, from } => {
                let report = from == self.cluster;
                let Role::Representative(rep) = &mut self.role else {
                    return false;
                };
                if report {
                    let Ok(slot) = rep.members.binary_search(&peer) else {
                        return true;
                    };
                    if rep.phase1_fired {
                        return false;
                    }
                    rep.reports_heard.insert(slot);
                } else {
                    let Some(slot) = rep.roster.position(from) else {
                        return true;
                    };
                    if rep.phase2_fired {
                        return false;
                    }
                    rep.clusters_heard.insert(slot);
                }
                true
            }
            Message::Grant { src, dst, peer, .. } => {
                if peer != self.peer {
                    return false;
                }
                // Execute the move: commit to the home representative
                // and, when the destination has one, to it too. The
                // commit reveals the plan's gain bits and nonce — the
                // auditor checks them against the Propose commitment.
                let commit = Message::Commit {
                    peer: self.peer,
                    from: src,
                    to: dst,
                    claimed_gain: self.plan.commit_gain,
                    nonce: self.plan.nonce,
                };
                out.send(self.peer, self.rep, commit, MsgKind::ClusterJoin);
                if let Some(dst_rep) = self.plan.dst_rep {
                    out.send(self.peer, dst_rep, commit, MsgKind::ClusterJoin);
                }
                true
            }
            Message::Deny { peer, .. } => peer == self.peer,
            Message::Commit { from, to, .. } => {
                let (peer, cluster) = (self.peer, self.cluster);
                let Role::Representative(rep) = &mut self.role else {
                    return false;
                };
                if from == cluster {
                    rep.own_size = rep.own_size.saturating_sub(1);
                } else if to == cluster {
                    rep.own_size += 1;
                }
                let update = Message::SummaryUpdate {
                    cluster,
                    size: rep.own_size,
                };
                rep.broadcast(peer, update, MsgKind::SummaryUpdate, out);
                true
            }
            // No decision reads another cluster's size yet.
            Message::SummaryUpdate { .. } => true,
        }
    }
}

impl RepState {
    /// Phase 1: pick the cluster's best collected report with the sync
    /// engine's exact walk (ascending peer order, gain window
    /// `f64::EPSILON`, ties to the lower peer id) and forward it — or a
    /// heartbeat — to every other representative.
    fn fire_phase1(
        &mut self,
        peer: PeerId,
        cluster: ClusterId,
        now: u64,
        phase_ticks: u64,
        out: &mut Outbox,
    ) {
        self.phase1_fired = true;
        self.phase2_deadline = now + 1 + phase_ticks;
        self.reports.sort_by_key(|(r, _)| r.peer);
        let mut best: Option<(RelocationRequest, u64)> = None;
        for &candidate in &self.reports {
            if best.is_none_or(|(b, _)| candidate.0.outranks(&b)) {
                best = Some(candidate);
            }
        }
        self.own_request = best;
        match best {
            Some((req, commitment)) => {
                // The forward relays the member's commitment verbatim —
                // a representative cannot launder a member's claim.
                let forward = Message::Propose {
                    peer: req.peer,
                    from: req.src,
                    to: req.dst,
                    claimed_gain: req.gain,
                    commitment,
                };
                self.broadcast(peer, forward, MsgKind::RelocationRequest, out);
                out.event(MachineEvent::Forwarded(req));
            }
            None => {
                let hb = Message::Heartbeat {
                    peer,
                    from: cluster,
                };
                self.broadcast(peer, hb, MsgKind::Heartbeat, out);
            }
        }
    }

    /// Sends `msg` from `peer` to every other representative, walking
    /// the roster in ascending cluster order past this cluster's own
    /// position.
    fn broadcast(&self, peer: PeerId, msg: Message, kind: MsgKind, out: &mut Outbox) {
        for (slot, &(_, other)) in self.roster.reps().iter().enumerate() {
            if slot != self.own {
                out.send(peer, other, msg, kind);
            }
        }
    }

    /// Phase 2: sort everything heard exactly like the sync engine and
    /// run its admission step over the list; grant or deny the *own*
    /// cluster's request (every representative decides only for its own
    /// cluster, from what its view of the request list locks first).
    fn fire_phase2(&mut self, peer: PeerId, cluster: ClusterId, out: &mut Outbox) {
        self.phase2_fired = true;
        let Some((own, _)) = self.own_request else {
            // Nothing of ours in the scan — no decision to make.
            return;
        };
        let mut all = std::mem::take(&mut self.peer_requests);
        all.push(own);
        RelocationRequest::sort_requests(&mut all);
        // Only requests ranked ahead of ours can lock its clusters, so
        // the scan stops at ours: the one request whose source is this
        // cluster (forwards from other clusters never are).
        let mut locks = LockSet::new();
        let verdict = all
            .iter()
            .map(|req| (req.src, locks.admit(req, self.use_locks)))
            .find_map(|(src, verdict)| (src == cluster).then_some(verdict))
            .expect("the own request is in the scan");
        match verdict {
            Verdict::Granted => {
                out.send(
                    peer,
                    own.peer,
                    Message::Grant {
                        src: own.src,
                        dst: own.dst,
                        peer: own.peer,
                        gain: own.gain,
                    },
                    MsgKind::GrantCoordination,
                );
                out.event(MachineEvent::Granted(own));
            }
            Verdict::SelfMove => self.deny(peer, own, DenyReason::SelfMove, out),
            Verdict::JoinLocked | Verdict::LeaveLocked => {
                self.deny(peer, own, DenyReason::Locked, out)
            }
        }
    }

    fn deny(&self, peer: PeerId, req: RelocationRequest, reason: DenyReason, out: &mut Outbox) {
        out.send(
            peer,
            req.peer,
            Message::Deny {
                src: req.src,
                dst: req.dst,
                peer: req.peer,
                reason,
            },
            MsgKind::GrantCoordination,
        );
        out.event(MachineEvent::Denied(req, reason));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The roster of `(cluster, representative)` id pairs.
    fn roster(reps: &[(u32, u32)]) -> Arc<Roster> {
        Arc::new(Roster::new(
            reps.iter()
                .map(|&(c, p)| (ClusterId(c), PeerId(p)))
                .collect(),
        ))
    }

    fn drain_to(out: &mut Outbox, dst: PeerId) -> Vec<Message> {
        out.drain_frames()
            .into_iter()
            .filter(|&(_, d, _, _)| d == dst)
            .map(|(_, _, m, _)| m)
            .collect()
    }

    /// Two clusters of two; cluster 0's rep collects both reports, picks
    /// the higher gain, forwards it, and grants it after hearing the
    /// other representative's heartbeat.
    #[test]
    fn representative_runs_both_phases_to_a_grant() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0), PeerId(1)],
            roster(&[(0, 0), (1, 2)]),
            ReportPlan::heartbeat(),
            true,
            0,
            8,
        );
        rep.poll(0, 8, &mut out);
        // Self-report (heartbeat) went to itself as a gain report.
        let frames = out.drain_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, PeerId(0));
        assert_eq!(frames[0].3, MsgKind::GainReport);

        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(0),
                from: ClusterId(0)
            },
            &mut out
        ));
        assert!(rep.receive(
            &Message::Propose {
                peer: PeerId(1),
                from: ClusterId(0),
                to: ClusterId(1),
                claimed_gain: 0.5,
                commitment: 0xfeed,
            },
            &mut out,
        ));
        rep.poll(1, 8, &mut out);
        let fwd = drain_to(&mut out, PeerId(2));
        // The forward relays the member's commitment verbatim.
        assert_eq!(
            fwd,
            vec![Message::Propose {
                peer: PeerId(1),
                from: ClusterId(0),
                to: ClusterId(1),
                claimed_gain: 0.5,
                commitment: 0xfeed,
            }]
        );
        assert_eq!(
            out.drain_events(),
            vec![MachineEvent::Forwarded(RelocationRequest {
                src: ClusterId(0),
                dst: ClusterId(1),
                peer: PeerId(1),
                gain: 0.5,
            })]
        );
        assert!(!rep.done());

        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(2),
                from: ClusterId(1)
            },
            &mut out
        ));
        rep.poll(2, 8, &mut out);
        assert!(rep.done());
        let grants = drain_to(&mut out, PeerId(1));
        assert_eq!(
            grants,
            vec![Message::Grant {
                src: ClusterId(0),
                dst: ClusterId(1),
                peer: PeerId(1),
                gain: 0.5,
            }]
        );
        assert!(matches!(out.drain_events()[..], [MachineEvent::Granted(_)]));
    }

    #[test]
    fn late_report_is_stale_after_deadline_fire() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0), PeerId(1)],
            roster(&[(0, 0)]),
            ReportPlan::heartbeat(),
            true,
            0,
            2,
        );
        rep.poll(0, 2, &mut out);
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(0),
                from: ClusterId(0)
            },
            &mut out
        ));
        // Deadline (0 + 1 + 2 = 3) passes with p1's report still in
        // flight: phase 1 fires on partial information...
        rep.poll(3, 2, &mut out);
        // ...phase 2 fires immediately (no other reps)...
        assert!(rep.done());
        // ...and the straggler is rejected as stale.
        assert!(!rep.receive(
            &Message::Propose {
                peer: PeerId(1),
                from: ClusterId(0),
                to: ClusterId(1),
                claimed_gain: 9.0,
                commitment: 0,
            },
            &mut out,
        ));
    }

    /// Identity-based collection: a report from outside the snapshot's
    /// member list (a mid-round joiner) and a duplicate are consumed
    /// without advancing the phase, so the collector still waits for
    /// the member it has not heard.
    #[test]
    fn joiner_and_duplicate_reports_do_not_advance_the_phase() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0), PeerId(1)],
            roster(&[(0, 0)]),
            ReportPlan::heartbeat(),
            true,
            0,
            8,
        );
        rep.poll(0, 8, &mut out);
        out.drain_frames();
        // A joiner's heartbeat: consumed (not stale), phase unmoved.
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(42),
                from: ClusterId(0)
            },
            &mut out
        ));
        // The rep's own report, twice — the duplicate is absorbed.
        for _ in 0..2 {
            assert!(rep.receive(
                &Message::Heartbeat {
                    peer: PeerId(0),
                    from: ClusterId(0)
                },
                &mut out
            ));
        }
        rep.poll(1, 8, &mut out);
        // Phase 1 must not have fired: PeerId(1) is still unheard and
        // neither the joiner nor the duplicate may stand in for it.
        assert!(rep.next_deadline() == Some(9));
        assert!(rep.receive(
            &Message::Propose {
                peer: PeerId(1),
                from: ClusterId(0),
                to: ClusterId(1),
                claimed_gain: 0.5,
                commitment: 1,
            },
            &mut out,
        ));
        rep.poll(2, 8, &mut out);
        assert!(rep.done());
    }

    /// The phase-2 counterpart: a forward or heartbeat from a cluster
    /// off the roster (inside the position table or past it) and a
    /// duplicate forward are consumed without advancing phase 2, and
    /// summary updates are consumed after it fired.
    #[test]
    fn unknown_and_duplicate_forwards_do_not_advance_phase_two() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0)],
            roster(&[(0, 0), (2, 5), (4, 7)]),
            ReportPlan::heartbeat(),
            true,
            0,
            8,
        );
        rep.poll(0, 8, &mut out);
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(0),
                from: ClusterId(0)
            },
            &mut out
        ));
        rep.poll(1, 8, &mut out);
        // Phase 1 fired: a heartbeat to each other representative, in
        // roster order; phase 2 now waits for clusters 2 and 4.
        let dsts: Vec<PeerId> = out.drain_frames().iter().map(|f| f.1).collect();
        assert_eq!(dsts, vec![PeerId(0), PeerId(5), PeerId(7)]);
        assert_eq!(rep.next_deadline(), Some(10));
        let forward = |from: u32| Message::Propose {
            peer: PeerId(9),
            from: ClusterId(from),
            to: ClusterId(0),
            claimed_gain: 0.5,
            commitment: 3,
        };
        // Cluster 3 is inside the table but off the roster; 9 is past
        // the table. Both are consumed, neither counts.
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(6),
                from: ClusterId(3)
            },
            &mut out
        ));
        assert!(rep.receive(&forward(9), &mut out));
        // Cluster 2's forward, twice: the duplicate is absorbed.
        assert!(rep.receive(&forward(2), &mut out));
        assert!(rep.receive(&forward(2), &mut out));
        rep.poll(2, 8, &mut out);
        assert!(!rep.done(), "cluster 4 is still unheard");
        assert_eq!(rep.next_deadline(), Some(10));
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(7),
                from: ClusterId(4)
            },
            &mut out
        ));
        rep.poll(3, 8, &mut out);
        assert!(rep.done());

        for (cluster, size) in [(4, 3), (2, 6), (9, 1), (3, 2), (2, 7)] {
            assert!(rep.receive(
                &Message::SummaryUpdate {
                    cluster: ClusterId(cluster),
                    size
                },
                &mut out
            ));
        }
    }

    #[test]
    fn roster_looks_clusters_up_by_position() {
        let roster = roster(&[(1, 4), (3, 8)]);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.position(ClusterId(3)), Some(1));
        assert_eq!(roster.representative(ClusterId(1)), Some(PeerId(4)));
        assert_eq!(roster.position(ClusterId(0)), None);
        assert_eq!(roster.position(ClusterId(2)), None);
        assert_eq!(roster.position(ClusterId(4)), None);
        assert_eq!(roster.representative(ClusterId(u32::MAX)), None);
        assert!(Roster::new(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending by cluster id")]
    fn roster_rejects_unsorted_pairs() {
        Roster::new(vec![(ClusterId(3), PeerId(1)), (ClusterId(1), PeerId(0))]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending by cluster id")]
    fn roster_rejects_a_repeated_cluster() {
        Roster::new(vec![(ClusterId(1), PeerId(1)), (ClusterId(1), PeerId(0))]);
    }

    #[test]
    fn epsilon_window_tie_breaks_to_lower_peer_id() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0), PeerId(1), PeerId(2)],
            roster(&[(0, 0), (1, 9)]),
            ReportPlan::heartbeat(),
            true,
            0,
            8,
        );
        rep.poll(0, 8, &mut out);
        out.drain_frames();
        assert!(rep.receive(
            &Message::Heartbeat {
                peer: PeerId(0),
                from: ClusterId(0)
            },
            &mut out
        ));
        // Delivered out of order: p2 first, then p1 with a gain inside
        // the epsilon window — the walk must still pick p1.
        for (p, g) in [(2u32, 0.5), (1, 0.5)] {
            assert!(rep.receive(
                &Message::Propose {
                    peer: PeerId(p),
                    from: ClusterId(0),
                    to: ClusterId(1),
                    claimed_gain: g,
                    commitment: u64::from(p),
                },
                &mut out,
            ));
        }
        rep.poll(1, 8, &mut out);
        match out.drain_events()[..] {
            [MachineEvent::Forwarded(req)] => assert_eq!(req.peer, PeerId(1)),
            ref other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn granted_member_commits_to_both_representatives() {
        let mut out = Outbox::new();
        let plan = ReportPlan::honest(
            PeerId(3),
            ClusterId(1),
            ClusterId(0),
            0.25,
            77,
            Some(PeerId(0)),
        );
        let mut member = PeerStateMachine::member(PeerId(3), ClusterId(1), PeerId(2), plan);
        member.poll(0, 8, &mut out);
        let report = out.drain_frames();
        assert_eq!(report[0].1, PeerId(2));
        match report[0].2 {
            Message::Propose { commitment, .. } => assert_eq!(commitment, plan.commitment),
            ref other => panic!("wrong frame: {other:?}"),
        }

        assert!(member.receive(
            &Message::Grant {
                src: ClusterId(1),
                dst: ClusterId(0),
                peer: PeerId(3),
                gain: 0.25,
            },
            &mut out,
        ));
        let commits = out.drain_frames();
        let dsts: Vec<PeerId> = commits.iter().map(|&(_, d, _, _)| d).collect();
        assert_eq!(dsts, vec![PeerId(2), PeerId(0)]);
        for (_, _, msg, kind) in commits {
            assert_eq!(kind, MsgKind::ClusterJoin);
            assert_eq!(
                msg,
                Message::Commit {
                    peer: PeerId(3),
                    from: ClusterId(1),
                    to: ClusterId(0),
                    claimed_gain: 0.25,
                    nonce: 77,
                }
            );
            // The honest reveal reproduces the commitment.
            if let Message::Commit {
                peer,
                from,
                to,
                claimed_gain,
                nonce,
            } = msg
            {
                assert_eq!(
                    gain_commitment(peer, from, to, claimed_gain.to_bits(), nonce),
                    plan.commitment
                );
            }
        }
    }

    #[test]
    fn commit_receipt_updates_size_and_broadcasts_summary() {
        let mut out = Outbox::new();
        let mut rep = PeerStateMachine::representative(
            PeerId(0),
            ClusterId(0),
            vec![PeerId(0), PeerId(1)],
            roster(&[(0, 0), (3, 5), (4, 7)]),
            ReportPlan::heartbeat(),
            true,
            0,
            8,
        );
        assert!(rep.receive(
            &Message::Commit {
                peer: PeerId(1),
                from: ClusterId(0),
                to: ClusterId(3),
                claimed_gain: 0.1,
                nonce: 0,
            },
            &mut out,
        ));
        let frames = out.drain_frames();
        assert_eq!(frames.len(), 2);
        for (_, _, msg, kind) in frames {
            assert_eq!(kind, MsgKind::SummaryUpdate);
            assert_eq!(
                msg,
                Message::SummaryUpdate {
                    cluster: ClusterId(0),
                    size: 1
                }
            );
        }
        // And the mirror update is consumed when heard.
        assert!(rep.receive(
            &Message::SummaryUpdate {
                cluster: ClusterId(3),
                size: 4
            },
            &mut out,
        ));
    }
}
