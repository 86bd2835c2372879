//! The runtime driver: machines + fabric + the host system.
//!
//! [`RuntimeEngine`] is the message-passing counterpart of
//! [`ProtocolEngine`](crate::protocol::ProtocolEngine). Each round it
//! snapshots the system once, hands every live peer a
//! [`PeerStateMachine`] seeded with that peer's local knowledge, and
//! then advances a discrete clock: deliver due frames, poll machines in
//! peer order, push their outboxes onto the [`SimNet`] fabric, repeat
//! until the fabric drains and every representative has fired both
//! phases. Relocations happen when `Commit` frames *arrive* — a commit
//! lost to the network is a relocation that never happened.
//!
//! Every commit is recorded in an [`EvidenceLog`] together with the
//! gain the mover claimed on the wire, the gain its strategy actually
//! computed, the oracle value of the move at snapshot time, and the
//! commitment/reveal pair from its frames. [`EvidenceLog::audit`]
//! replays the log against [`ObservedStats`] — the recall statistics
//! peers actually measured — to attribute faults in distinct
//! categories: a *reveal mismatch* (the `Commit` gain bits do not
//! reproduce the `Propose` commitment) is fraud provable from frames
//! alone; an *inflated* claim exceeds the observation-backed estimate;
//! an honest claim that merely drifted from the oracle (stale observed
//! statistics) is *estimation error* and is never flagged as fraud.
//!
//! The engine also drives **mid-round churn** from a tick-stamped
//! schedule ([`RuntimeChurn`]): a departing peer's machine is abandoned
//! where it stands (its pending grant becomes a deny at round end, its
//! in-flight frames count as `departed` losses), while a joiner enters
//! the system immediately, announces itself with a heartbeat, and is
//! admitted at the next round's collect phase. A commit is applied only
//! if it is still a *valid move* — the peer has not departed and still
//! sits in the cluster the commit claims to leave — so no degraded
//! execution can double-apply a relocation or move a ghost.

use std::collections::BTreeSet;
use std::sync::Arc;

use recluster_overlay::{ChurnEvent, MsgKind, SimNetwork};
use recluster_types::{derive_seed, ClusterId, Document, PeerId, Workload};

use super::machine::{MachineEvent, Outbox, PeerStateMachine, ReportPlan, Roster};
use super::message::{gain_commitment, Message};
use super::simnet::{NetConfig, NetStats, SimNet};
use crate::global::{scost_normalized, wcost_normalized};
use crate::protocol::{ProtocolConfig, RelocationRequest, RoundOutcome, RunOutcome};
use crate::strategy::RelocationStrategy;
use crate::system::System;
use crate::tracker::ObservedStats;

/// How a configured liar lies — which frames carry the inflation
/// decides which audit category catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiarMode {
    /// The liar inflates consistently: `Propose`, commitment and
    /// `Commit` all carry the boosted gain. The reveal checks out, so
    /// only the observation-backed estimate can catch it (`inflated`).
    Consistent,
    /// The liar proposes (and commits to) its honest gain but reveals a
    /// boosted one at `Commit`: the reveal no longer reproduces the
    /// commitment, which is fraud provable from the frames alone
    /// (`reveal_mismatch`).
    LateInflate,
}

/// Ground truth for the liar scenario: which peers inflate the gain
/// they claim on the wire, and by how much. Liar selection is a pure
/// hash of `(seed, peer)` — stable across rounds and independent of
/// iteration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiarConfig {
    /// Fraction of peers that lie, in `[0, 1]`.
    pub fraction: f64,
    /// Multiplier a liar applies to its true gain (`> 1` inflates).
    pub boost: f64,
    /// Seed of the liar-selection hash.
    pub seed: u64,
    /// Which frames carry the lie.
    pub mode: LiarMode,
}

impl LiarConfig {
    /// Nobody lies.
    pub fn none() -> Self {
        LiarConfig {
            fraction: 0.0,
            boost: 1.0,
            seed: 0,
            mode: LiarMode::Consistent,
        }
    }

    /// Whether `peer` is a configured liar.
    pub fn is_liar(&self, peer: PeerId) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        // Top 53 bits of the derived hash as a uniform draw in [0, 1).
        let draw = (derive_seed(self.seed, u64::from(peer.0)) >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.fraction
    }
}

impl Default for LiarConfig {
    fn default() -> Self {
        LiarConfig::none()
    }
}

/// One committed relocation, as witnessed on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitRecord {
    /// Round the commit landed in.
    pub round: usize,
    /// The relocating peer.
    pub peer: PeerId,
    /// The cluster it left.
    pub from: ClusterId,
    /// The cluster it joined.
    pub to: ClusterId,
    /// The gain it claimed in its `Commit` frame (the reveal).
    pub claimed_gain: f64,
    /// The gain its strategy actually computed that round.
    pub true_gain: f64,
    /// The commitment its `Propose` carried, as harvested from the
    /// delivered frames — `None` if no `Propose` for this peer was ever
    /// delivered (the commit then cannot be reveal-checked).
    pub commitment: Option<u64>,
    /// The nonce its `Commit` revealed.
    pub reveal_nonce: u64,
    /// What the move was actually worth at snapshot time
    /// (`pcost_current − pcost(to)` over the round's view) — the
    /// yardstick that tells estimation error from fraud.
    pub oracle_gain: f64,
}

/// Outcome of auditing an [`EvidenceLog`] against observed statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Commits checked against an observation-backed estimate.
    pub audited: usize,
    /// Commits skipped for lack of observation coverage (the frame-only
    /// reveal check still ran on them).
    pub skipped: usize,
    /// Fraud, provable from frames alone: the `Commit` reveal does not
    /// reproduce the `Propose` commitment (ascending, deduplicated).
    pub reveal_mismatch: Vec<PeerId>,
    /// Fraud by the estimate: the claim exceeded the observation-backed
    /// estimate by more than the tolerance (ascending, deduplicated).
    pub inflated: Vec<PeerId>,
    /// Honest drift, *not* fraud: the reveal checks out and the claim
    /// matches the peer's estimate, but it sits more than the tolerance
    /// from the oracle gain — stale observed statistics (ascending,
    /// deduplicated, disjoint from `flagged`).
    pub estimation_error: Vec<PeerId>,
    /// All peers accused of fraud: `reveal_mismatch ∪ inflated`
    /// (ascending, deduplicated).
    pub flagged: Vec<PeerId>,
    /// Ground truth: peers that actually over-claimed (ascending,
    /// deduplicated).
    pub liars: Vec<PeerId>,
    /// `|flagged ∩ liars| / |flagged|`; `1.0` when nothing was flagged.
    pub precision: f64,
    /// `|flagged ∩ liars| / |liars|`; `1.0` when nobody lied.
    pub recall: f64,
}

/// The runtime's commit audit trail.
#[derive(Debug, Clone, Default)]
pub struct EvidenceLog {
    records: Vec<CommitRecord>,
}

impl EvidenceLog {
    /// All committed relocations, in commit order.
    pub fn records(&self) -> &[CommitRecord] {
        &self.records
    }

    pub(crate) fn push(&mut self, record: CommitRecord) {
        self.records.push(record);
    }

    /// Checks every commit's claimed gain against the gain the
    /// *observed* statistics support: the estimated individual cost of
    /// staying minus that of the committed destination. A claim more
    /// than `tolerance` above the estimate flags the peer. Commits by
    /// peers the statistics don't cover are skipped, not guessed at.
    pub fn audit(&self, system: &System, stats: &ObservedStats, tolerance: f64) -> FaultReport {
        self.audit_records(&self.records, system, stats, tolerance)
    }

    /// [`audit`](Self::audit) restricted to the commits of one round.
    /// This is the contemporaneous form: statistics observed just
    /// before round `round` judge exactly the claims made during it,
    /// so estimate-vs-truth drift from *later* membership changes
    /// cannot flag an honest peer.
    pub fn audit_round(
        &self,
        system: &System,
        stats: &ObservedStats,
        tolerance: f64,
        round: usize,
    ) -> FaultReport {
        let records: Vec<CommitRecord> = self
            .records
            .iter()
            .filter(|r| r.round == round)
            .cloned()
            .collect();
        self.audit_records(&records, system, stats, tolerance)
    }

    fn audit_records(
        &self,
        records: &[CommitRecord],
        system: &System,
        stats: &ObservedStats,
        tolerance: f64,
    ) -> FaultReport {
        let mut audited = 0;
        let mut skipped = 0;
        let mut reveal_mismatch = Vec::new();
        let mut inflated = Vec::new();
        let mut estimation_error = Vec::new();
        let mut liars = Vec::new();
        for rec in records {
            if rec.claimed_gain > rec.true_gain + 1e-12 {
                liars.push(rec.peer);
            }
            // The frame-only check needs no observations: the reveal
            // must reproduce the commitment the Propose carried.
            let fraud_reveal = match rec.commitment {
                Some(c) => {
                    gain_commitment(
                        rec.peer,
                        rec.from,
                        rec.to,
                        rec.claimed_gain.to_bits(),
                        rec.reveal_nonce,
                    ) != c
                }
                None => false,
            };
            if fraud_reveal {
                reveal_mismatch.push(rec.peer);
            }
            // Evaluate in the claim's own frame of reference — the
            // peer claimed `gain` for leaving `from` — so statistics
            // observed before the move reproduce the decision-time
            // arithmetic (stay-cost minus join-cost) exactly. A peer the
            // statistics do not cover cannot be audited.
            let estimate = |cid| stats.estimated_pcost(system, rec.peer, cid, Some(rec.from));
            let (Some(stay), Some(join)) = (estimate(rec.from), estimate(rec.to)) else {
                skipped += 1;
                continue;
            };
            audited += 1;
            let est_gain = stay - join;
            if rec.claimed_gain > est_gain + tolerance {
                inflated.push(rec.peer);
            } else if !fraud_reveal && (rec.claimed_gain - rec.oracle_gain).abs() > tolerance {
                // Commitment and estimate both check out, yet the claim
                // is off the oracle: the peer believed stale statistics.
                estimation_error.push(rec.peer);
            }
        }
        let dedup = |mut v: Vec<PeerId>| {
            v.sort();
            v.dedup();
            v
        };
        let reveal_mismatch = dedup(reveal_mismatch);
        let inflated = dedup(inflated);
        let flagged = dedup(
            reveal_mismatch
                .iter()
                .chain(inflated.iter())
                .copied()
                .collect(),
        );
        let mut estimation_error = dedup(estimation_error);
        estimation_error.retain(|p| flagged.binary_search(p).is_err());
        let liars = dedup(liars);
        let hits = flagged
            .iter()
            .filter(|&&p| liars.binary_search(&p).is_ok())
            .count();
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        FaultReport {
            audited,
            skipped,
            precision: ratio(hits, flagged.len()),
            recall: ratio(hits, liars.len()),
            reveal_mismatch,
            inflated,
            estimation_error,
            flagged,
            liars,
        }
    }
}

/// One scheduled mid-round membership change, applied when the fabric
/// clock reaches its tick — possibly in the middle of a phase.
#[derive(Debug, Clone)]
pub enum RuntimeChurn {
    /// `peer` leaves: its machine is abandoned where it stands, its
    /// workload cleared, and every frame still addressed to it counts
    /// as a `departed` loss.
    Depart {
        /// The departing peer.
        peer: PeerId,
    },
    /// A new peer joins `cluster` carrying `docs` and `workload`. It
    /// announces itself with a heartbeat to the cluster's snapshot
    /// representative and participates from the next round's collect
    /// phase.
    Arrive {
        /// The cluster joined.
        cluster: ClusterId,
        /// Documents the newcomer shares.
        docs: Vec<Document>,
        /// The newcomer's query workload.
        workload: Workload,
    },
}

/// Domain constant of the per-round, per-peer commit nonce derivation.
const NONCE_DOMAIN: u64 = 0x006e_6f6e_6365; // "nonce"

/// The message-passing protocol driver.
pub struct RuntimeEngine<S: RelocationStrategy> {
    strategy: S,
    config: ProtocolConfig,
    net: SimNet,
    liars: LiarConfig,
    /// Tick-stamped churn schedule, stable-sorted by tick.
    churn: Vec<(u64, RuntimeChurn)>,
    /// Next unapplied entry in `churn`.
    churn_idx: usize,
    /// Frustration reference points, engine-lifetime like the sync
    /// engine's (see [`crate::protocol::fold_min_costs`]).
    min_costs: Vec<f64>,
    /// The fabric clock, continuous across rounds and runs.
    now: u64,
    evidence: EvidenceLog,
    granted_total: u64,
    denied_total: u64,
    commits_voided: u64,
    grants_voided: u64,
}

impl<S: RelocationStrategy> RuntimeEngine<S> {
    /// Creates a runtime over the given protocol and network
    /// parameters. `NetConfig::ideal()` reproduces the sync engine
    /// bit-for-bit; anything else explores what the paper never tests.
    pub fn new(strategy: S, config: ProtocolConfig, net_config: NetConfig) -> Self {
        assert!(config.epsilon >= 0.0, "epsilon must be non-negative");
        RuntimeEngine {
            strategy,
            config,
            net: SimNet::new(net_config),
            liars: LiarConfig::none(),
            churn: Vec::new(),
            churn_idx: 0,
            min_costs: Vec::new(),
            now: 0,
            evidence: EvidenceLog::default(),
            granted_total: 0,
            denied_total: 0,
            commits_voided: 0,
            grants_voided: 0,
        }
    }

    /// Attaches a fault timetable to the fabric (partitions and crash
    /// windows; see [`FaultSchedule`](super::FaultSchedule)).
    pub fn with_faults(mut self, faults: super::simnet::FaultSchedule) -> Self {
        self.net = self.net.with_faults(faults);
        self
    }

    /// Schedules mid-round churn. Entries are applied when the fabric
    /// clock reaches their tick, in schedule order for equal ticks.
    pub fn with_churn(mut self, mut schedule: Vec<(u64, RuntimeChurn)>) -> Self {
        schedule.sort_by_key(|&(tick, _)| tick);
        self.churn = schedule;
        self.churn_idx = 0;
        self
    }

    /// Configures a fraction of peers to inflate their claimed gains.
    pub fn with_liars(mut self, liars: LiarConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&liars.fraction),
            "liar fraction must be in [0, 1]"
        );
        self.liars = liars;
        self
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// Cumulative fabric counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// The fabric clock (ticks elapsed since engine creation).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Grants issued by representatives across all rounds.
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }

    /// Denies issued by representatives across all rounds.
    pub fn denied_total(&self) -> u64 {
        self.denied_total
    }

    /// Commits voided across all rounds: delivered `Commit` frames that
    /// were not valid moves (the peer had departed, or no longer sat in
    /// the cluster the frame claimed to leave), counted once per peer
    /// per round.
    pub fn commits_voided_total(&self) -> u64 {
        self.commits_voided
    }

    /// Grants converted to denies at round end because the granted peer
    /// departed before committing.
    pub fn grants_voided_total(&self) -> u64 {
        self.grants_voided
    }

    /// The commit audit trail.
    pub fn evidence(&self) -> &EvidenceLog {
        &self.evidence
    }

    /// Drains queued outbox frames onto the fabric and folds decision
    /// events into the round's request/grant tallies.
    fn flush(
        &mut self,
        out: &mut Outbox,
        ledger: &mut SimNetwork,
        requests: &mut Vec<RelocationRequest>,
        granted: &mut Vec<RelocationRequest>,
    ) {
        for (src, dst, msg, kind) in out.drain_frames() {
            self.net.send(self.now, src, dst, &msg, kind, ledger);
        }
        for event in out.drain_events() {
            match event {
                MachineEvent::Forwarded(req) => requests.push(req),
                MachineEvent::Granted(req) => {
                    self.granted_total += 1;
                    granted.push(req);
                }
                MachineEvent::Denied(..) => self.denied_total += 1,
            }
        }
    }

    /// Applies every churn entry due at or before the current tick:
    /// departures tear down the peer (system, workload, machine) and
    /// joiners enter the system and announce themselves to the round
    /// snapshot's representative of their cluster (`roster`), when it
    /// is live.
    fn apply_due_churn(
        &mut self,
        system: &mut System,
        ledger: &mut SimNetwork,
        machines: &mut [Option<PeerStateMachine>],
        departed: &mut BTreeSet<PeerId>,
        roster: Option<&Roster>,
    ) {
        while self
            .churn
            .get(self.churn_idx)
            .is_some_and(|&(tick, _)| tick <= self.now)
        {
            let (_, event) = self.churn[self.churn_idx].clone();
            self.churn_idx += 1;
            match event {
                RuntimeChurn::Depart { peer } => {
                    if system
                        .apply_churn_event(ledger, ChurnEvent::Leave { peer })
                        .is_none()
                    {
                        continue; // already gone — a no-op departure
                    }
                    system.set_workload(peer, Workload::new());
                    if let Some(machine) = machines.get_mut(peer.index()) {
                        *machine = None;
                    }
                    departed.insert(peer);
                }
                RuntimeChurn::Arrive {
                    cluster,
                    docs,
                    workload,
                } => {
                    let Some(delta) =
                        system.apply_churn_event(ledger, ChurnEvent::Join { cluster, docs })
                    else {
                        continue;
                    };
                    let joiner = delta.peer();
                    system.set_workload(joiner, workload);
                    // The joiner announces itself mid-round. The
                    // collectors consume the heartbeat without counting
                    // it (the joiner is outside the round snapshot);
                    // admission happens at the next round's collect
                    // phase, whose snapshot includes the peer.
                    if let Some(rep) = roster.and_then(|r| r.representative(delta.cluster())) {
                        if machines.get(rep.index()).is_some_and(Option::is_some) {
                            let hb = Message::Heartbeat {
                                peer: joiner,
                                from: delta.cluster(),
                            };
                            self.net
                                .send(self.now, joiner, rep, &hb, MsgKind::Heartbeat, ledger);
                        }
                    }
                }
            }
        }
    }

    /// Executes one round end to end: snapshot, machine construction,
    /// tick loop until the fabric drains, commit application, outcome.
    pub fn run_round(
        &mut self,
        system: &mut System,
        ledger: &mut SimNetwork,
        round: usize,
    ) -> RoundOutcome {
        // Churn due before the round starts is applied pre-snapshot, so
        // the snapshot never sees a peer that already left.
        let mut departed: BTreeSet<PeerId> = BTreeSet::new();
        self.apply_due_churn(system, ledger, &mut [], &mut departed, None);
        departed.clear();

        self.strategy.prepare(system);
        let phase_ticks = self.net.config().phase_ticks;
        let allow_empty = crate::protocol::base_allow_empty(&self.config);

        // ---- Snapshot: derive every peer's local knowledge. ---------
        // Machines, gains and the per-frame lookups below are indexed by
        // peer slot. A mid-round joiner's slot may lie past them, but a
        // joiner only heartbeats: every Propose and Commit frame names a
        // snapshot peer.
        let n_slots = system.overlay().n_slots();
        let mut machines: Vec<Option<PeerStateMachine>> = Vec::new();
        machines.resize_with(n_slots, || None);
        // `(true gain, oracle gain)` of every peer that proposed.
        let mut gains: Vec<Option<(f64, f64)>> = vec![None; n_slots];
        let roster: Arc<Roster>;
        let mut n_live = 0;
        let mut proposed = 0;
        {
            let view = system.view();
            crate::protocol::fold_min_costs(&view, &mut self.min_costs, &[]);
            roster = Arc::new(Roster::new(
                view.overlay()
                    .non_empty_ids()
                    .iter()
                    .map(|&cid| {
                        let rep = view
                            .overlay()
                            .cluster(cid)
                            .representative()
                            .expect("non-empty cluster has a representative");
                        (cid, rep)
                    })
                    .collect(),
            ));
            for &(cid, rep) in roster.reps() {
                let members = view.overlay().cluster(cid).members();
                for &peer in members {
                    n_live += 1;
                    let raw = self.strategy.propose(&view, peer, allow_empty);
                    let filtered = crate::protocol::apply_policy(
                        &self.config,
                        &self.min_costs,
                        &view,
                        peer,
                        raw,
                    );
                    let plan = match filtered {
                        Some(p) => {
                            proposed += 1;
                            gains[peer.index()] = Some((
                                p.gain,
                                crate::cost::pcost_current(&view, peer)
                                    - crate::cost::pcost(&view, peer, p.to),
                            ));
                            let nonce = derive_seed(
                                derive_seed(NONCE_DOMAIN, round as u64),
                                u64::from(peer.0),
                            );
                            // What the peer claims now, what it commits
                            // to, and what its commitment covers — the
                            // liar mode decides which pieces disagree.
                            let (claimed, commit_gain, committed_gain) = if self.liars.is_liar(peer)
                            {
                                let boosted = p.gain * self.liars.boost;
                                match self.liars.mode {
                                    LiarMode::Consistent => (boosted, boosted, boosted),
                                    LiarMode::LateInflate => (p.gain, boosted, p.gain),
                                }
                            } else {
                                (p.gain, p.gain, p.gain)
                            };
                            ReportPlan {
                                report: Some((p.to, claimed)),
                                dst_rep: roster.representative(p.to),
                                commitment: gain_commitment(
                                    peer,
                                    cid,
                                    p.to,
                                    committed_gain.to_bits(),
                                    nonce,
                                ),
                                nonce,
                                commit_gain,
                            }
                        }
                        None => ReportPlan::heartbeat(),
                    };
                    let machine = if peer == rep {
                        PeerStateMachine::representative(
                            peer,
                            cid,
                            members.to_vec(),
                            Arc::clone(&roster),
                            plan,
                            self.config.use_locks,
                            self.now,
                            phase_ticks,
                        )
                    } else {
                        PeerStateMachine::member(peer, cid, rep, plan)
                    };
                    machines[peer.index()] = Some(machine);
                }
            }
        }

        // ---- Tick loop: deliver, poll, flush — until quiescent. -----
        // The outbox is flushed after every delivery and every poll, so
        // frames reach the fabric in the order machines queued them.
        let mut out = Outbox::new();
        let mut requests: Vec<RelocationRequest> = Vec::new();
        let mut granted: Vec<RelocationRequest> = Vec::new();
        // Movers in commit order, and the same set by slot.
        let mut movers: Vec<PeerId> = Vec::new();
        let mut committed: Vec<bool> = vec![false; n_slots];
        let mut voided: BTreeSet<PeerId> = BTreeSet::new();
        // Commitments harvested from delivered Propose frames — the
        // auditor's only source, exactly as a real observer would have.
        let mut commitments: Vec<Option<u64>> = vec![None; n_slots];
        for machine in machines.iter_mut().flatten() {
            machine.poll(self.now, phase_ticks, &mut out);
            self.flush(&mut out, ledger, &mut requests, &mut granted);
        }
        loop {
            let deadline = machines
                .iter()
                .flatten()
                .filter_map(PeerStateMachine::next_deadline)
                .min();
            let Some(next) = self.net.next_tick().into_iter().chain(deadline).min() else {
                break;
            };
            self.now = next.max(self.now + 1);
            self.apply_due_churn(system, ledger, &mut machines, &mut departed, Some(&roster));
            while let Some((_, dst, msg)) = self.net.pop_due(self.now) {
                if let Message::Propose {
                    peer, commitment, ..
                } = msg
                {
                    commitments[peer.index()].get_or_insert(commitment);
                }
                if let Message::Commit {
                    peer,
                    from,
                    to,
                    claimed_gain,
                    nonce,
                } = msg
                {
                    // Apply on the first delivered copy only, and only
                    // if it is still a valid move: the peer has not
                    // departed and still sits in the cluster it claims
                    // to leave. (The departed check comes first — a
                    // freed slot can be reassigned to a joiner.)
                    if !committed[peer.index()] {
                        if departed.contains(&peer)
                            || system.overlay().cluster_of(peer) != Some(from)
                        {
                            if voided.insert(peer) {
                                self.commits_voided += 1;
                            }
                        } else {
                            committed[peer.index()] = true;
                            movers.push(peer);
                            system.move_peer(peer, to);
                            let (true_gain, oracle_gain) =
                                gains[peer.index()].unwrap_or((claimed_gain, claimed_gain));
                            self.evidence.push(CommitRecord {
                                round,
                                peer,
                                from,
                                to,
                                claimed_gain,
                                true_gain,
                                commitment: commitments[peer.index()],
                                reveal_nonce: nonce,
                                oracle_gain,
                            });
                        }
                    }
                }
                match machines.get_mut(dst.index()).and_then(Option::as_mut) {
                    Some(machine) => {
                        if !machine.receive(&msg, &mut out) {
                            self.net.note_stale();
                        }
                        self.flush(&mut out, ledger, &mut requests, &mut granted);
                    }
                    // The driver owns the machine set, so it can tell a
                    // mid-round departure from mere lateness.
                    None if departed.contains(&dst) => self.net.note_departed(),
                    None => self.net.note_stale(),
                }
            }
            for machine in machines.iter_mut().flatten() {
                machine.poll(self.now, phase_ticks, &mut out);
                self.flush(&mut out, ledger, &mut requests, &mut granted);
            }
        }
        debug_assert!(
            machines.iter().flatten().all(PeerStateMachine::done),
            "round left work behind"
        );

        // A grant whose winner departed before committing is a deny at
        // the deadline: the representative's lock was spent on a move
        // that can no longer happen.
        granted.retain(|req| {
            let void = departed.contains(&req.peer) && !committed[req.peer.index()];
            if void {
                self.granted_total -= 1;
                self.denied_total += 1;
                self.grants_voided += 1;
            }
            !void
        });

        // ---- Outcome: identical shape (and, under the ideal schedule,
        // identical bytes) to the sync engine's. --------------------
        let view = system.view();
        crate::protocol::fold_min_costs(&view, &mut self.min_costs, &movers);
        RelocationRequest::sort_requests(&mut requests);
        RelocationRequest::sort_requests(&mut granted);
        RoundOutcome {
            round,
            requests,
            granted,
            scost: scost_normalized(&view),
            wcost: wcost_normalized(&view),
            non_empty_clusters: view.overlay().non_empty_clusters(),
            proposals_recomputed: n_live,
            proposals_memoized: 0,
            proposed,
        }
    }

    /// Runs rounds until a round in which no live peer proposes a move
    /// (converged) or the round budget is exhausted — the sync engine's
    /// run loop itself. The test is on proposals, not requests: over a
    /// lossy fabric a round whose every proposal was lost in transit
    /// forwards no request while peers still want to move, and the run
    /// goes on.
    pub fn run(&mut self, system: &mut System, ledger: &mut SimNetwork) -> RunOutcome {
        RunOutcome::drive(self.config.max_rounds, |round| {
            self.run_round(system, ledger, round)
        })
    }
}

impl<S: RelocationStrategy + std::fmt::Debug> std::fmt::Debug for RuntimeEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeEngine")
            .field("strategy", &self.strategy)
            .field("config", &self.config)
            .field("net", &self.net.config())
            .field("liars", &self.liars)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, MsgKind, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::protocol::runtime::{CrashWindow, FaultSchedule};
    use crate::protocol::ProtocolEngine;
    use crate::strategy::SelfishStrategy;
    use crate::system::GameConfig;
    use crate::tracker::simulate_period;

    /// The sync engine's two-category fixture: peers 0,1 on Sym(1),
    /// peers 2,3 on Sym(2), starting from singletons.
    fn two_category_system() -> System {
        let ov = Overlay::singletons(4);
        let mut store = ContentStore::new(4);
        for (i, sym) in [(0, 1u32), (1, 1), (2, 2), (3, 2)] {
            store.add(PeerId(i), Document::new(vec![Sym(sym)]));
        }
        let mut workloads = Vec::new();
        for sym in [1u32, 1, 2, 2] {
            let mut w = Workload::new();
            w.add(Query::keyword(Sym(sym)), 2);
            workloads.push(w);
        }
        System::new(
            ov,
            store,
            workloads,
            GameConfig {
                alpha: 0.5,
                theta: Theta::Linear,
            },
        )
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig::builder().memoize(false).build()
    }

    #[test]
    fn ideal_schedule_matches_sync_engine_round_for_round() {
        let mut sys_a = two_category_system();
        let mut sys_b = two_category_system();
        let mut net_a = SimNetwork::new();
        let mut net_b = SimNetwork::new();
        let mut sync = ProtocolEngine::new(SelfishStrategy, config());
        let mut runtime = RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal());
        let a = sync.run(&mut sys_a, &mut net_a);
        let b = runtime.run(&mut sys_b, &mut net_b);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.requests, rb.requests);
            assert_eq!(ra.granted, rb.granted);
            assert_eq!(ra.scost.to_bits(), rb.scost.to_bits());
            assert_eq!(ra.wcost.to_bits(), rb.wcost.to_bits());
            assert_eq!(ra.non_empty_clusters, rb.non_empty_clusters);
        }
        for p in 0..4 {
            assert_eq!(
                sys_a.overlay().cluster_of(PeerId(p)),
                sys_b.overlay().cluster_of(PeerId(p))
            );
        }
        // Member gain reports are charged like the sync engine's.
        assert_eq!(
            net_a.messages(MsgKind::GainReport),
            net_b.messages(MsgKind::GainReport)
        );
    }

    #[test]
    fn clock_advances_and_commits_are_logged() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let mut runtime = RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal());
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.converged);
        assert!(runtime.now() > 0);
        assert_eq!(
            runtime.evidence().records().len(),
            outcome
                .rounds
                .iter()
                .map(|r| r.granted.len())
                .sum::<usize>(),
            "ideal schedule: every grant commits"
        );
        for rec in runtime.evidence().records() {
            assert_eq!(rec.claimed_gain.to_bits(), rec.true_gain.to_bits());
        }
        assert_eq!(runtime.net_stats().dropped, 0);
        assert_eq!(runtime.net_stats().stale, 0);
    }

    #[test]
    fn liar_audit_flags_the_inflated_claims() {
        // Ground truth: every peer lies with a huge boost; observation
        // periods estimate honest costs, so all movers get flagged.
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let mut stats = ObservedStats::new(0.5);
        for _ in 0..4 {
            stats.absorb(&simulate_period(&sys, &mut ledger));
        }
        let liars = LiarConfig {
            fraction: 1.0,
            boost: 50.0,
            seed: 9,
            mode: LiarMode::Consistent,
        };
        let mut runtime =
            RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal()).with_liars(liars);
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.converged);
        assert!(!runtime.evidence().records().is_empty());
        let report = runtime.evidence().audit(&sys, &stats, 0.05);
        assert_eq!(report.skipped, 0);
        assert_eq!(
            report.flagged, report.liars,
            "all liars caught, no one else"
        );
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.recall, 1.0);
    }

    /// A late-inflating liar is proven from the frames alone: the audit
    /// needs no observation coverage (everything is `skipped`) yet
    /// catches every liar through the commitment/reveal mismatch.
    #[test]
    fn late_inflate_liars_are_proven_from_frames_alone() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let liars = LiarConfig {
            fraction: 1.0,
            boost: 50.0,
            seed: 9,
            mode: LiarMode::LateInflate,
        };
        let mut runtime =
            RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal()).with_liars(liars);
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.converged);
        assert!(!runtime.evidence().records().is_empty());
        // No observations at all: the estimate-backed check cannot run.
        let report = runtime
            .evidence()
            .audit(&sys, &ObservedStats::new(0.5), 0.05);
        assert_eq!(report.audited, 0);
        assert!(report.skipped > 0);
        assert!(!report.liars.is_empty());
        assert_eq!(report.reveal_mismatch, report.liars);
        assert_eq!(report.flagged, report.liars);
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.recall, 1.0);
    }

    /// A mid-round departure abandons the peer's machine, attributes
    /// its in-flight frames to the `departed` ledger, and never applies
    /// a commit for it.
    #[test]
    fn midround_departure_abandons_the_peer() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let mut runtime = RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal())
            .with_churn(vec![(1, RuntimeChurn::Depart { peer: PeerId(1) })]);
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.converged);
        assert_eq!(sys.overlay().cluster_of(PeerId(1)), None);
        // Its self-addressed report (sent at tick 0, due at tick 1)
        // found no machine: a departed loss, not a stale one.
        assert!(runtime.net_stats().departed > 0);
        assert_eq!(runtime.net_stats().stale, 0);
        for rec in runtime.evidence().records() {
            assert_ne!(rec.peer, PeerId(1), "no commit for a departed peer");
        }
    }

    /// A mid-round joiner enters the system immediately and is admitted
    /// at the next round's collect phase.
    #[test]
    fn midround_joiner_is_admitted_next_round() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let mut w = Workload::new();
        w.add(Query::keyword(Sym(1)), 2);
        let mut runtime = RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal())
            .with_churn(vec![(
                1,
                RuntimeChurn::Arrive {
                    cluster: ClusterId(0),
                    docs: vec![Document::new(vec![Sym(1)])],
                    workload: w,
                },
            )]);
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.converged);
        // The joiner (the grown slot, PeerId(4)) is live and clustered.
        assert!(sys.overlay().cluster_of(PeerId(4)).is_some());
        // Its announcement heartbeat was consumed, not counted stale.
        assert_eq!(runtime.net_stats().stale, 0);
    }

    /// A round whose proposals are all lost in transit forwards no
    /// request, but peers still want to move: the run goes on, and the
    /// next round, on a healed fabric, pairs the categories up.
    #[test]
    fn lost_proposals_do_not_end_the_run() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        // Every peer is down at tick 0, when round 0's reports leave.
        let faults = FaultSchedule {
            partitions: vec![],
            crashes: (0..4)
                .map(|p| CrashWindow {
                    peer: PeerId(p),
                    down: 0,
                    up: 1,
                })
                .collect(),
        };
        let mut runtime =
            RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal()).with_faults(faults);
        let outcome = runtime.run(&mut sys, &mut ledger);
        assert!(outcome.rounds[0].requests.is_empty());
        assert!(outcome.rounds[0].proposed > 0);
        assert!(outcome.converged);
        assert_eq!(outcome.final_clusters(), 2);
    }

    #[test]
    fn honest_run_audits_clean() {
        let mut sys = two_category_system();
        let mut ledger = SimNetwork::new();
        let mut stats = ObservedStats::new(0.5);
        for _ in 0..4 {
            stats.absorb(&simulate_period(&sys, &mut ledger));
        }
        let mut runtime = RuntimeEngine::new(SelfishStrategy, config(), NetConfig::ideal());
        runtime.run(&mut sys, &mut ledger);
        // Generous tolerance: the observation estimate is noisy, but an
        // honest claim is nowhere near a 50x inflation.
        let report = runtime.evidence().audit(&sys, &stats, 1.0);
        assert!(report.liars.is_empty());
        assert_eq!(report.recall, 1.0);
    }
}
