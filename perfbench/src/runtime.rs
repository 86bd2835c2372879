//! `runtime_1k`: scenario 1 from singletons to equilibrium through the
//! typed-message runtime — per-peer state machines exchanging encoded
//! frames over a delayed, lossy `SimNet` — one `RuntimeEngine::run_round`
//! call per round.

use std::hint::black_box;

use recluster_core::protocol::runtime::Message;
use recluster_core::{
    EmptyTargetPolicy, NetConfig, NetStats, ProtocolConfig, RelocationStrategy, RunOutcome,
    RuntimeEngine, SelfishStrategy, SimNet, System,
};
use recluster_overlay::{MsgKind, SimNetwork};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario, TestBed};
use recluster_types::{ClusterId, PeerId};

use crate::churn::probe_propose;
use crate::{ensure, probe_build, ratio, Fnv, Outcome, Tracer, Values};

/// Frames each fabric and codec probe pushes through.
const PROBE_FRAMES: u32 = 200_000;

/// Clusters scenario 1 converges to (one per category).
const CATEGORIES: usize = 10;

/// Normalized social cost of the converged scenario-1 clustering.
const EQUILIBRIUM_SCOST: f64 = 0.1;

/// The `runtime_1k` workload.
#[derive(Debug, Clone, Copy)]
pub struct Runtime;

/// The testbed plus the runtime that drives it.
pub struct RuntimeBed {
    /// Scenario 1 over 1 000 singleton clusters.
    pub testbed: TestBed,
    /// Selfish runtime over a delayed, lossy fabric.
    pub engine: RuntimeEngine<SelfishStrategy>,
}

/// What the runtime run produced.
#[derive(Debug, Clone)]
pub struct RuntimeRun {
    /// Every round's outcome.
    pub outcome: RunOutcome,
    /// Fabric counters at the end of the run.
    pub net: NetStats,
    /// Grants issued by representatives.
    pub granted: u64,
    /// Denies issued by representatives.
    pub denied: u64,
}

impl Runtime {
    /// The paper testbed at 1 000 peers with 20 queries per peer.
    pub fn config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            n_peers: 1_000,
            total_queries: 20_000,
            ..ExperimentConfig::paper(seed)
        }
    }

    /// The fabric: 0–3 ticks of delay and 5 % loss, as `runtime_scale`.
    pub fn net(seed: u64) -> NetConfig {
        NetConfig::degraded(seed, 0, 3, 0.05)
    }

    /// Memoization off, as `runtime_scale` runs it.
    pub fn protocol() -> ProtocolConfig {
        ProtocolConfig::builder().memoize(false).build()
    }
}

/// Whether some live peer would propose a relocation on the current
/// state: its strategy's proposal, kept when the gain clears the
/// protocol's threshold (the protocol's whole filter under
/// `EmptyTargetPolicy::Always`).
fn move_wanted<S: RelocationStrategy>(
    strategy: &S,
    protocol: &ProtocolConfig,
    system: &mut System,
) -> bool {
    let view = system.view();
    let allow_empty = matches!(protocol.empty_targets, EmptyTargetPolicy::Always);
    view.overlay().peers().any(|peer| {
        strategy
            .propose(&view, peer, allow_empty)
            .is_some_and(|p| p.gain > protocol.epsilon)
    })
}

/// Probe frames: the member→representative gain reports and
/// heartbeats that dominate a round's traffic.
fn probe_frame(i: u32) -> (Message, MsgKind) {
    let peer = PeerId(i % 1_000);
    let from = ClusterId(i % 97);
    if i.is_multiple_of(2) {
        let msg = Message::Propose {
            peer,
            from,
            to: ClusterId((i + 1) % 97),
            claimed_gain: f64::from(i % 1_000) * 1e-4,
            commitment: u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        (msg, MsgKind::GainReport)
    } else {
        (Message::Heartbeat { peer, from }, MsgKind::Heartbeat)
    }
}

impl crate::Workload for Runtime {
    type Bed = RuntimeBed;
    type Out = RuntimeRun;
    const REPORTED: &'static [(&'static str, &'static str, &'static str)] = &[
        ("rounds", "runtime.rounds", "rounds"),
        ("frames_per_round", "runtime.frames_per_round", "frames"),
    ];

    fn inputs(&self) -> usize {
        5
    }

    fn setup(&self, seed: u64) -> RuntimeBed {
        let testbed = build_system(
            Scenario::SameCategory,
            InitialConfig::Singletons,
            &Self::config(seed),
        );
        let engine = RuntimeEngine::new(SelfishStrategy, Self::protocol(), Self::net(seed));
        RuntimeBed { testbed, engine }
    }

    fn probe_setup(&self, seed: u64, bed: &RuntimeBed, tr: &mut Tracer, timings: &mut Values) {
        probe_build(&bed.testbed.system, tr);
        // `SimNet::send` (encode, loss and delay draws, enqueue) plus
        // `pop_due` (dequeue, decode) per frame, on the run's fabric
        // parameters: one peer-count batch of frames per tick, drained
        // as they fall due, so the queue stays as shallow as a round's.
        let fabric = tr.probe("simnet.frames", || {
            let mut net = SimNet::new(Self::net(seed));
            let mut ledger = SimNetwork::new();
            let batch = Self::config(seed).n_peers as u32;
            let mut tick = 0;
            let mut sent = 0;
            while sent < PROBE_FRAMES || !net.is_empty() {
                for i in sent..(sent + batch).min(PROBE_FRAMES) {
                    let (msg, kind) = probe_frame(i);
                    net.send(tick, PeerId(i % batch), PeerId(0), &msg, kind, &mut ledger);
                }
                sent = (sent + batch).min(PROBE_FRAMES);
                while let Some(frame) = net.pop_due(tick) {
                    black_box(frame);
                }
                tick += 1;
            }
        });
        // `Message::encode` + `Message::decode` per frame.
        let codec = tr.probe("codec.frames", || {
            for i in 0..PROBE_FRAMES {
                let bytes = probe_frame(i).0.encode();
                black_box(Message::decode(black_box(&bytes)).expect("probe frames decode"));
            }
        });
        for (metric, probe) in [("simnet.frame_ns", fabric), ("codec.frame_ns", codec)] {
            if let Some(((), seconds)) = probe {
                timings.insert(metric, seconds * 1e9 / f64::from(PROBE_FRAMES));
            }
        }
    }

    fn run(&self, _: u64, bed: &mut RuntimeBed, tr: &mut Tracer) -> RuntimeRun {
        let protocol = Self::protocol();
        let RuntimeBed { testbed, engine } = bed;
        let system = &mut testbed.system;
        let mut ledger = SimNetwork::new();
        let mut rounds = Vec::new();
        let mut converged = false;
        for round in 0..protocol.max_rounds {
            if tr.is_on() {
                probe_propose(engine.strategy(), &protocol, system, tr);
            }
            let outcome = tr.span("runtime.round", |_| {
                engine.run_round(system, &mut ledger, round)
            });
            // A request-free round is the protocol's own convergence
            // test, but over a lossy fabric a round can also end without
            // requests because the only one was dropped in transit (one
            // input was left with a peer outside its category's cluster
            // that way); stop only once no live peer wants to move.
            let done =
                outcome.requests.is_empty() && !move_wanted(engine.strategy(), &protocol, system);
            rounds.push(outcome);
            if done {
                converged = true;
                break;
            }
        }
        RuntimeRun {
            outcome: RunOutcome { rounds, converged },
            net: engine.net_stats(),
            granted: engine.granted_total(),
            denied: engine.denied_total(),
        }
    }

    fn finish(&self, _: u64, _: &mut RuntimeBed, out: RuntimeRun) -> Outcome {
        let rounds = out.outcome.rounds.len() as f64;
        let net = &out.net;
        let values: Values = [
            ("scost", out.outcome.final_scost()),
            ("runtime.rounds", rounds),
            ("runtime.frames_per_round", ratio(net.sent as f64, rounds)),
            ("runtime.granted", out.granted as f64),
            ("runtime.denied", out.denied as f64),
            (
                "runtime.deny_rate",
                ratio(out.denied as f64, (out.granted + out.denied) as f64),
            ),
            ("simnet.sent", net.sent as f64),
            ("simnet.delivered", net.delivered as f64),
            ("simnet.dropped", net.dropped as f64),
            ("simnet.stale", net.stale as f64),
            (
                "simnet.useful_ratio",
                ratio((net.delivered - net.stale) as f64, net.sent as f64),
            ),
        ]
        .into_iter()
        .collect();

        let mut h = Fnv::default();
        for r in &out.outcome.rounds {
            h.u64(r.requests.len() as u64);
            h.u64(r.granted.len() as u64);
            h.u64(r.non_empty_clusters as u64);
            h.f64(r.scost);
            h.f64(r.wcost);
        }
        for x in [
            net.sent,
            net.delivered,
            net.dropped,
            net.stale,
            out.granted,
            out.denied,
        ] {
            h.u64(x);
        }

        let scost = out.outcome.final_scost();
        let clusters = out.outcome.final_clusters();
        let check = ensure(out.outcome.converged, || {
            format!("no request-free round within {rounds} rounds")
        })
        .and_then(|()| {
            ensure(clusters == CATEGORIES, || {
                format!("converged to {clusters} clusters, expected {CATEGORIES}")
            })
        })
        .and_then(|()| {
            ensure((scost / EQUILIBRIUM_SCOST - 1.0).abs() < 0.01, || {
                format!("final scost {scost} is not within 1% of {EQUILIBRIUM_SCOST}")
            })
        });
        Outcome {
            values,
            digest: h.finish(),
            check,
        }
    }
}
