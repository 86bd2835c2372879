//! Fault-tolerance property suite for the typed-message runtime: under
//! *arbitrary* timed partitions, crash/restart windows and mid-round
//! churn — layered on the shared mutation-script universe of
//! `common/mod.rs` — the runtime keeps three promises:
//!
//! * **Determinism**: the same seeds, schedule and script replay
//!   bit-identically, round for round, counter for counter — faults
//!   included.
//! * **RNG transparency**: attaching an *empty* fault schedule changes
//!   nothing. Fault checks run before any RNG draw, so the fabric's
//!   delay/drop stream is byte-identical with and without the feature.
//! * **Commit integrity**: without churn, the evidence log *is* the
//!   membership story — replaying its records from the initial overlay
//!   reproduces the final assignment exactly (every commit applied
//!   once, from the cluster the frame names, never out of order); with
//!   churn, a departed peer stays gone (no late commit resurrects it).
//!
//! Under all three sits the fabric's own contract, checked against a
//! reference model: whatever the interleaving of sends (into the past
//! included) and pops, [`SimNet`] delivers in `(delivery tick, send
//! order)` exactly what was sent.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture, N_PEERS, N_SYMS};
use proptest::prelude::*;
use recluster_core::{
    CrashWindow, DelayDist, FaultSchedule, Message, NetConfig, Partition, PartitionKind,
    ProtocolConfig, RoundOutcome, RuntimeChurn, RuntimeEngine, SelfishStrategy, SimNet, System,
};
use recluster_overlay::{MsgKind, SimNetwork};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};

fn config() -> ProtocolConfig {
    ProtocolConfig::builder()
        .max_rounds(12)
        .memoize(false)
        .build()
}

/// One relocation request as raw bits: (src, dst, peer, gain bits).
type RequestBits = (u32, u32, u32, u64);

/// Bit-comparable form of a round (the runtime has no memo counters
/// worth pinning here; requests and grants carry the gain bits).
fn round_bits(r: &RoundOutcome) -> (usize, Vec<RequestBits>, Vec<RequestBits>, u64) {
    let req = |rs: &[recluster_core::RelocationRequest]| {
        rs.iter()
            .map(|r| (r.src.0, r.dst.0, r.peer.0, r.gain.to_bits()))
            .collect()
    };
    (
        r.round,
        req(&r.requests),
        req(&r.granted),
        r.scost.to_bits(),
    )
}

/// An arbitrary fault schedule: up to two timed partitions (bisections
/// at any pivot, isolations of any peer) and up to two crash windows,
/// anywhere in the first ~100 ticks.
fn arb_faults() -> impl Strategy<Value = FaultSchedule> {
    let kind = prop_oneof![
        (0u32..N_PEERS as u32 + 2).prop_map(|pivot| PartitionKind::Bisect { pivot }),
        (0u32..N_PEERS as u32).prop_map(|p| PartitionKind::Isolate { peer: PeerId(p) }),
    ];
    let partition = (kind, 0u64..80, 1u64..60).prop_map(|(kind, start, len)| Partition {
        kind,
        start,
        heal: start + len,
    });
    let crash = (0u32..N_PEERS as u32, 0u64..80, 1u64..60).prop_map(|(p, down, len)| CrashWindow {
        peer: PeerId(p),
        down,
        up: down + len,
    });
    (
        proptest::collection::vec(partition, 0..3),
        proptest::collection::vec(crash, 0..3),
    )
        .prop_map(|(partitions, crashes)| FaultSchedule {
            partitions,
            crashes,
        })
}

/// An arbitrary mid-round churn schedule: departures and arrivals at
/// arbitrary ticks. Arrivals target the fixture's initial clusters.
fn arb_churn() -> impl Strategy<Value = Vec<(u64, RuntimeChurn)>> {
    let depart = (0u64..60, 0u32..N_PEERS as u32)
        .prop_map(|(tick, p)| (tick, RuntimeChurn::Depart { peer: PeerId(p) }));
    let arrive = (0u64..60, 0u32..(N_PEERS / 2) as u32, 0u32..N_SYMS).prop_map(|(tick, c, s)| {
        let mut workload = Workload::new();
        workload.add(Query::keyword(Sym((s + 1) % N_SYMS)), 2);
        (
            tick,
            RuntimeChurn::Arrive {
                cluster: ClusterId(c),
                docs: vec![Document::new(vec![Sym(s)])],
                workload,
            },
        )
    });
    proptest::collection::vec(prop_oneof![depart, arrive], 0..4)
}

/// Degraded-but-bounded schedules: enough delay and loss to scramble
/// rounds, phase deadlines still long enough to terminate.
fn arb_net() -> impl Strategy<Value = NetConfig> {
    (
        0u64..1000,
        0u64..4,
        prop_oneof![Just(0.0), Just(0.1), Just(0.3)],
    )
        .prop_map(|(seed, max_delay, drop_rate)| NetConfig {
            seed,
            delay: if max_delay == 0 {
                DelayDist::Fixed(0)
            } else {
                DelayDist::Uniform {
                    min: 0,
                    max: max_delay,
                }
            },
            drop_rate,
            phase_ticks: max_delay + 2,
        })
}

/// One step of a fabric script.
#[derive(Debug, Clone)]
enum FabricOp {
    /// `send(now, src, dst, msg)`; `now` is arbitrary, so a send can
    /// land behind ticks already popped.
    Send {
        now: u64,
        src: u32,
        dst: u32,
        msg: Message,
    },
    /// `pop_due(tick)`.
    Pop { tick: u64 },
}

/// Scripts of sends at arbitrary ticks interleaved with pops; three
/// send arms to one pop arm keep frames in flight.
fn arb_fabric_script() -> impl Strategy<Value = Vec<FabricOp>> {
    let send = || {
        (
            0u64..40,
            0u32..N_PEERS as u32,
            0u32..N_PEERS as u32,
            0u32..N_PEERS as u32,
            0u64..=u64::MAX,
            proptest::bool::ANY,
        )
            .prop_map(|(now, src, dst, cluster, bits, propose)| {
                let msg = if propose {
                    Message::Propose {
                        peer: PeerId(src),
                        from: ClusterId(cluster),
                        to: ClusterId(dst),
                        claimed_gain: f64::from_bits(bits),
                        commitment: bits.rotate_left(17),
                    }
                } else {
                    Message::Heartbeat {
                        peer: PeerId(src),
                        from: ClusterId(cluster),
                    }
                };
                FabricOp::Send { now, src, dst, msg }
            })
    };
    let pop = (0u64..48).prop_map(|tick| FabricOp::Pop { tick });
    proptest::collection::vec(prop_oneof![send(), send(), send(), pop], 0..120)
}

/// An accepted send as the reference model records it: delivery tick,
/// send index, source, destination and frame bytes.
type Sent = (u64, usize, PeerId, PeerId, Vec<u8>);

/// Pops `net` at `tick` and holds the result to the model's least entry
/// due by `tick` (removing it); returns whether a frame came out.
fn pop_checked(net: &mut SimNet, model: &mut Vec<Sent>, tick: u64) -> Result<bool, TestCaseError> {
    let due = model
        .iter()
        .enumerate()
        .filter(|(_, e)| e.0 <= tick)
        .min_by_key(|(_, e)| (e.0, e.1))
        .map(|(i, _)| i);
    match (due, net.pop_due(tick)) {
        (None, None) => Ok(false),
        (Some(i), Some((src, dst, msg))) => {
            let (_, _, want_src, want_dst, bytes) = model.remove(i);
            prop_assert_eq!((src, dst), (want_src, want_dst));
            prop_assert_eq!(msg.encode(), bytes);
            Ok(true)
        }
        (due, got) => Err(TestCaseError::fail(format!(
            "pop_due({tick}): model has {:?}, fabric returned {got:?}",
            due.map(|i| &model[i]),
        ))),
    }
}

fn build(seed_docs: &[Vec<u32>], seed_queries: &[Vec<u32>], ops: &[common::Op]) -> System {
    let mut sys = fixture(seed_docs, seed_queries);
    let mut net = SimNetwork::new();
    for op in ops {
        apply(&mut sys, &mut net, op.clone());
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same seeds, fault schedule and churn replay bit-identically:
    /// every round's requests/grants/scost bits, the final membership
    /// of every slot, and the full loss-attribution ledger.
    #[test]
    fn runtime_replays_bit_identically_under_faults(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(25),
        faults in arb_faults(),
        churn in arb_churn(),
        net in arb_net(),
    ) {
        let run = || {
            let mut sys = build(&seed_docs, &seed_queries, &ops);
            let mut ledger = SimNetwork::new();
            let mut engine = RuntimeEngine::new(SelfishStrategy, config(), net)
                .with_faults(faults.clone())
                .with_churn(churn.clone());
            let outcome = engine.run(&mut sys, &mut ledger);
            let membership: Vec<_> = (0..sys.overlay().n_slots())
                .map(|i| sys.overlay().cluster_of(PeerId::from_index(i)))
                .collect();
            (outcome, engine.net_stats(), membership)
        };
        let (a, stats_a, members_a) = run();
        let (b, stats_b, members_b) = run();
        prop_assert_eq!(a.converged, b.converged);
        prop_assert_eq!(a.rounds.len(), b.rounds.len());
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            prop_assert_eq!(round_bits(ra), round_bits(rb));
        }
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(members_a, members_b);
    }

    /// An explicitly empty fault schedule is invisible: the fault
    /// checks run before any RNG draw, so the delay/drop stream — and
    /// with it every round and every counter — stays byte-identical.
    #[test]
    fn empty_fault_schedule_is_rng_transparent(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(25),
        net in arb_net(),
    ) {
        let run = |attach_empty_schedule: bool| {
            let mut sys = build(&seed_docs, &seed_queries, &ops);
            let mut ledger = SimNetwork::new();
            let mut engine = RuntimeEngine::new(SelfishStrategy, config(), net);
            if attach_empty_schedule {
                engine = engine.with_faults(FaultSchedule::none());
            }
            let outcome = engine.run(&mut sys, &mut ledger);
            (outcome.rounds.iter().map(round_bits).collect::<Vec<_>>(), engine.net_stats())
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// Without churn, commits are the *only* membership mutations: the
    /// evidence log replayed from the initial overlay reproduces the
    /// final assignment exactly. Every record leaves the cluster it
    /// names (so no commit is applied twice, out of order, or from
    /// evicted state), and no `(round, peer)` repeats.
    #[test]
    fn evidence_log_replays_to_the_final_membership(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(25),
        faults in arb_faults(),
        net in arb_net(),
    ) {
        let mut sys = build(&seed_docs, &seed_queries, &ops);
        let mut current: Vec<Option<ClusterId>> = (0..sys.overlay().n_slots())
            .map(|i| sys.overlay().cluster_of(PeerId::from_index(i)))
            .collect();
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, config(), net)
            .with_faults(faults);
        engine.run(&mut sys, &mut ledger);
        let mut seen = std::collections::BTreeSet::new();
        for rec in engine.evidence().records() {
            prop_assert!(
                seen.insert((rec.round, rec.peer)),
                "peer {:?} committed twice in round {}", rec.peer, rec.round
            );
            prop_assert_eq!(
                current[rec.peer.index()], Some(rec.from),
                "commit for {:?} does not leave the cluster it names", rec.peer
            );
            current[rec.peer.index()] = Some(rec.to);
        }
        for (i, &cid) in current.iter().enumerate() {
            prop_assert_eq!(
                cid,
                sys.overlay().cluster_of(PeerId::from_index(i)),
                "evidence replay diverged from the overlay at slot {}", i
            );
        }
    }

    /// A departed peer stays gone: no grant issued before the departure
    /// and no commit frame in flight may resurrect its membership.
    #[test]
    fn departed_peers_stay_departed(
        seed_docs in arb_seed_syms(),
        seed_queries in arb_seed_syms(),
        ops in arb_ops(25),
        faults in arb_faults(),
        churn in arb_churn(),
        net in arb_net(),
    ) {
        let mut sys = build(&seed_docs, &seed_queries, &ops);
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, config(), net)
            .with_faults(faults)
            .with_churn(churn.clone());
        engine.run(&mut sys, &mut ledger);
        for (tick, event) in &churn {
            if let RuntimeChurn::Depart { peer } = event {
                if *tick <= engine.now() {
                    prop_assert_eq!(
                        sys.overlay().cluster_of(*peer),
                        None,
                        "departed peer {:?} is back in the overlay", peer
                    );
                }
            }
        }
    }
}

proptest! {
    // Fabric scripts are cheap: run many more of them.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fabric against a reference model: every accepted send is
    /// recorded as `(delivery tick, send index, frame)`, and each
    /// `pop_due(t)` must return the model's least entry due by `t`, bit
    /// for bit, or nothing when none is due. `next_tick` is the model's
    /// least tick throughout, the sent and delivered counters match, and
    /// a final drain empties both.
    #[test]
    fn fabric_delivers_in_tick_then_send_order(
        script in arb_fabric_script(),
        seed in 0u64..1000,
        max_delay in 0u64..=6,
        drop_pct in 0u32..=50,
        faults in arb_faults(),
        faulted in proptest::bool::ANY,
    ) {
        let config = NetConfig {
            seed,
            delay: DelayDist::Uniform { min: 0, max: max_delay },
            drop_rate: f64::from(drop_pct) / 100.0,
            phase_ticks: max_delay + 2,
        };
        let mut net = SimNet::new(config);
        if faulted {
            net = net.with_faults(faults);
        }
        let mut ledger = SimNetwork::new();
        let mut model: Vec<Sent> = Vec::new();
        let (mut sent, mut delivered) = (0u64, 0u64);
        for (index, op) in script.into_iter().enumerate() {
            match op {
                FabricOp::Send { now, src, dst, msg } => {
                    let (src, dst) = (PeerId(src), PeerId(dst));
                    sent += 1;
                    if let Some(tick) =
                        net.send(now, src, dst, &msg, MsgKind::Heartbeat, &mut ledger)
                    {
                        prop_assert!(tick > now && tick <= now + 1 + max_delay);
                        model.push((tick, index, src, dst, msg.encode()));
                    }
                }
                FabricOp::Pop { tick } => {
                    if pop_checked(&mut net, &mut model, tick)? {
                        delivered += 1;
                    }
                }
            }
            prop_assert_eq!(net.next_tick(), model.iter().map(|e| e.0).min());
            prop_assert_eq!(net.stats().sent, sent);
            prop_assert_eq!(net.stats().delivered, delivered);
        }
        while pop_checked(&mut net, &mut model, u64::MAX)? {
            delivered += 1;
        }
        prop_assert!(model.is_empty());
        prop_assert!(net.is_empty());
        prop_assert_eq!(net.stats().delivered, delivered);
    }
}
