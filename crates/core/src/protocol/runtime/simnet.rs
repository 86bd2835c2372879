//! The deterministic simulated network.
//!
//! [`SimNet`] is a discrete-time message fabric: a send at tick `t`
//! either drops (per-link Bernoulli draw) or is scheduled for delivery
//! at `t + 1 + delay`, with the delay drawn from the configured
//! [`DelayDist`]. Deliveries pop in total order on `(deliver_tick,
//! send order)`, so two runs over the same seed replay
//! **byte-identically**, no matter how messages interleave. In-flight
//! frames sit in one queue per delivery tick, each in send order, and
//! are popped tick by tick, front to back: a frame costs the same to
//! send and to deliver however many others are in flight, and it is
//! carried as its encoded bytes held inline, never a heap buffer. All
//! randomness comes from one [`StdRng`] seeded from [`NetConfig::seed`]
//! and consumed in send order; nothing reads wall-clock or thread
//! identity.
//!
//! On top of the random per-link schedule sits a *deterministic*
//! [`FaultSchedule`]: timed network partitions (peer-set bisections and
//! single-peer isolation) with heal ticks, plus per-peer crash/restart
//! windows. Faults are evaluated at the send tick **before** any RNG
//! draw, so attaching an empty schedule leaves the random stream — and
//! therefore every existing replay — byte-identical. [`NetStats`]
//! attributes each loss to its cause (`dropped` vs `cut` vs `crashed`
//! vs `departed`), so a partition can never masquerade as fabric loss.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::Rng;
use recluster_overlay::{MsgKind, SimNetwork};
use recluster_types::{seeded_rng, PeerId};

use super::message::{Frame, Message};

/// Per-link delivery-delay distribution, in ticks on top of the
/// baseline 1-tick hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayDist {
    /// Every message takes exactly this many extra ticks.
    Fixed(u64),
    /// Uniformly distributed extra ticks in `[min, max]` — the
    /// reordering regime: a later send can overtake an earlier one.
    Uniform {
        /// Minimum extra delay.
        min: u64,
        /// Maximum extra delay (inclusive).
        max: u64,
    },
}

impl DelayDist {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d,
            DelayDist::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
        }
    }

    /// The largest delay this distribution can produce.
    pub fn max_delay(&self) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d,
            DelayDist::Uniform { min, max } => max.max(min),
        }
    }
}

/// Network parameters for a runtime run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Seed of the fabric's RNG (drop and delay draws).
    pub seed: u64,
    /// Extra per-message delay.
    pub delay: DelayDist,
    /// Probability a message is silently lost, in `[0, 1)`.
    pub drop_rate: f64,
    /// Ticks a collector waits for stragglers before acting on partial
    /// information: a representative fires phase 1 (respectively
    /// phase 2) when every expected message has arrived *or* this many
    /// ticks have passed since the round (respectively its forward)
    /// started. Messages landing after the collector fired are counted
    /// stale and discarded.
    pub phase_ticks: u64,
}

impl NetConfig {
    /// The degenerate schedule: zero extra delay, zero loss. Under it
    /// the runtime is bit-identical to [`ProtocolEngine`] (proven by
    /// the `prop_runtime` suite).
    ///
    /// [`ProtocolEngine`]: crate::protocol::ProtocolEngine
    pub fn ideal() -> Self {
        NetConfig {
            seed: 0,
            delay: DelayDist::Fixed(0),
            drop_rate: 0.0,
            phase_ticks: 8,
        }
    }

    /// A degraded schedule: uniform extra delay in `[min, max]` ticks
    /// and the given drop rate, with the phase timeout sized so an
    /// undropped straggler *can* still make its deadline.
    pub fn degraded(seed: u64, min_delay: u64, max_delay: u64, drop_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_rate),
            "drop_rate must be in [0, 1)"
        );
        NetConfig {
            seed,
            delay: DelayDist::Uniform {
                min: min_delay,
                max: max_delay,
            },
            drop_rate,
            phase_ticks: max_delay.max(min_delay) + 2,
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::ideal()
    }
}

/// Which links an active partition severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Splits the peer set in two: peers with id `< pivot` cannot
    /// exchange frames with peers whose id is `>= pivot` (in either
    /// direction). Intra-side traffic is unaffected.
    Bisect {
        /// First peer id of the far side.
        pivot: u32,
    },
    /// Cuts one peer off from everyone — the "representative behind a
    /// broken link" case: its collectors run on silence alone.
    Isolate {
        /// The isolated peer.
        peer: PeerId,
    },
}

/// One timed partition: active during `[start, heal)` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// What the partition severs while active.
    pub kind: PartitionKind,
    /// First tick the partition is active.
    pub start: u64,
    /// First tick the partition is healed (exclusive end).
    pub heal: u64,
}

impl Partition {
    fn severs(&self, src: PeerId, dst: PeerId, tick: u64) -> bool {
        if tick < self.start || tick >= self.heal {
            return false;
        }
        match self.kind {
            PartitionKind::Bisect { pivot } => (src.0 < pivot) != (dst.0 < pivot),
            PartitionKind::Isolate { peer } => src == peer || dst == peer,
        }
    }
}

/// One per-peer crash window: the peer is down during `[down, up)`
/// ticks — frames it would send vanish at the source, frames addressed
/// to it vanish at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing peer.
    pub peer: PeerId,
    /// First tick the peer is down.
    pub down: u64,
    /// First tick the peer is back up (exclusive end).
    pub up: u64,
}

/// A deterministic fault timetable the fabric consults on every send:
/// timed partitions with heal ticks plus per-peer crash/restart
/// windows. The empty schedule (the default) faults nothing and leaves
/// the fabric byte-identical to a schedule-less one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Timed partitions, each active during its own `[start, heal)`.
    pub partitions: Vec<Partition>,
    /// Per-peer crash windows.
    pub crashes: Vec<CrashWindow>,
}

impl FaultSchedule {
    /// The empty schedule: no partitions, no crashes.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Whether the schedule faults nothing at any tick.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Whether `peer` is inside a crash window at `tick`.
    pub fn is_down(&self, peer: PeerId, tick: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.peer == peer && tick >= c.down && tick < c.up)
    }

    /// Whether an active partition severs the `src → dst` link at
    /// `tick`.
    pub fn severed(&self, src: PeerId, dst: PeerId, tick: u64) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, tick))
    }
}

/// Fabric counters, all cumulative over the engine's lifetime. The four
/// loss ledgers are disjoint by construction — `dropped` is the random
/// drop draw, `cut` an active partition, `crashed` a crash window,
/// `departed` a receiver that left the overlay mid-round — so loss
/// attribution is exact, never inferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the fabric.
    pub sent: u64,
    /// Frames delivered to their destination machine.
    pub delivered: u64,
    /// Frames lost to the drop draw.
    pub dropped: u64,
    /// Frames severed by an active network partition.
    pub cut: u64,
    /// Frames lost because the sender or receiver was inside a crash
    /// window at the send tick.
    pub crashed: u64,
    /// Frames delivered to a peer that had departed the overlay
    /// mid-round (noted by the driver, which owns the machine set).
    pub departed: u64,
    /// Frames delivered after their collector had already fired — the
    /// receiver discarded them.
    pub stale: u64,
}

/// One in-flight frame; its delivery tick is the key of the queue it
/// waits in.
#[derive(Debug)]
struct Envelope {
    src: PeerId,
    dst: PeerId,
    frame: Frame,
}

/// The deterministic scheduler: seeded drops and delays on send, and
/// in-flight frames queued per delivery tick in send order.
#[derive(Debug)]
pub struct SimNet {
    config: NetConfig,
    faults: FaultSchedule,
    rng: StdRng,
    /// In-flight frames by delivery tick. Every queue is non-empty and
    /// holds its frames in send order, so popping the queues in tick
    /// order, each front to back, is the `(deliver_tick, send order)`
    /// total order — also for a send into the past, which joins its
    /// tick's queue behind every earlier send.
    in_flight: BTreeMap<u64, VecDeque<Envelope>>,
    stats: NetStats,
}

impl SimNet {
    /// Creates a fabric over the given parameters (no faults).
    pub fn new(config: NetConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.drop_rate),
            "drop_rate must be in [0, 1)"
        );
        SimNet {
            rng: seeded_rng(config.seed),
            config,
            faults: FaultSchedule::none(),
            in_flight: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Attaches a fault timetable. An empty schedule is a no-op: fault
    /// checks run before any RNG draw, so the random stream — and every
    /// replay — is byte-identical with or without this call.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The parameters this fabric runs under.
    pub fn config(&self) -> NetConfig {
        self.config
    }

    /// The attached fault timetable (empty unless [`with_faults`] set
    /// one).
    ///
    /// [`with_faults`]: SimNet::with_faults
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Sends `msg` from `src` to `dst` at tick `now`, charging its wire
    /// frame to `ledger` under `kind`. Returns the delivery tick, or
    /// `None` if the drop draw lost the frame. The ledger is charged
    /// either way — a dropped message still cost its bandwidth.
    pub fn send(
        &mut self,
        now: u64,
        src: PeerId,
        dst: PeerId,
        msg: &Message,
        kind: MsgKind,
        ledger: &mut SimNetwork,
    ) -> Option<u64> {
        let frame = msg.frame();
        ledger.send(kind, frame.as_bytes().len() as u64);
        self.stats.sent += 1;
        // Faults are deterministic and consulted before the drop/delay
        // draws: a faulted frame consumes no randomness, so the RNG
        // stream of the surviving frames matches a fault-free run's
        // prefix for the same send order.
        if self.faults.is_down(src, now) || self.faults.is_down(dst, now) {
            self.stats.crashed += 1;
            return None;
        }
        if self.faults.severed(src, dst, now) {
            self.stats.cut += 1;
            return None;
        }
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            self.stats.dropped += 1;
            return None;
        }
        let deliver_tick = now + 1 + self.config.delay.sample(&mut self.rng);
        self.in_flight
            .entry(deliver_tick)
            .or_default()
            .push_back(Envelope { src, dst, frame });
        Some(deliver_tick)
    }

    /// The tick of the earliest in-flight frame.
    pub fn next_tick(&self) -> Option<u64> {
        self.in_flight.first_key_value().map(|(&tick, _)| tick)
    }

    /// Pops the next frame due at or before `tick`, in
    /// `(deliver_tick, send order)`.
    ///
    /// # Panics
    /// Panics if an in-flight frame fails to decode — the fabric only
    /// carries frames it encoded itself, so that is a codec bug, not a
    /// runtime condition.
    pub fn pop_due(&mut self, tick: u64) -> Option<(PeerId, PeerId, Message)> {
        let mut due = self.in_flight.first_entry().filter(|e| *e.key() <= tick)?;
        let env = due
            .get_mut()
            .pop_front()
            .expect("in-flight queues are non-empty");
        if due.get().is_empty() {
            due.remove();
        }
        let msg = Message::decode(env.frame.as_bytes()).expect("in-flight frame must decode");
        self.stats.delivered += 1;
        Some((env.src, env.dst, msg))
    }

    /// Whether any frame is still in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Counts a frame the receiver discarded as late.
    pub fn note_stale(&mut self) {
        self.stats.stale += 1;
    }

    /// Counts a frame delivered to a peer that departed the overlay
    /// mid-round — the driver owns the machine set, so it (not the
    /// fabric) tells departure apart from mere lateness.
    pub fn note_departed(&mut self) {
        self.stats.departed += 1;
    }

    /// Cumulative fabric counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_types::ClusterId;

    fn hb(peer: u32) -> Message {
        Message::Heartbeat {
            peer: PeerId(peer),
            from: ClusterId(0),
        }
    }

    #[test]
    fn ideal_fabric_delivers_in_send_order_next_tick() {
        let mut net = SimNet::new(NetConfig::ideal());
        let mut ledger = SimNetwork::new();
        for i in 0..5 {
            net.send(
                3,
                PeerId(i),
                PeerId(9),
                &hb(i),
                MsgKind::Heartbeat,
                &mut ledger,
            );
        }
        assert_eq!(net.next_tick(), Some(4));
        let mut order = Vec::new();
        while let Some((src, dst, _)) = net.pop_due(4) {
            assert_eq!(dst, PeerId(9));
            order.push(src.0);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(net.stats().delivered, 5);
        assert_eq!(ledger.messages(MsgKind::Heartbeat), 5);
    }

    #[test]
    fn uniform_delay_reorders_but_replays_identically() {
        let run = |seed: u64| {
            let mut net = SimNet::new(NetConfig::degraded(seed, 0, 5, 0.0));
            let mut ledger = SimNetwork::new();
            for i in 0..32 {
                net.send(
                    0,
                    PeerId(i),
                    PeerId(99),
                    &hb(i),
                    MsgKind::Heartbeat,
                    &mut ledger,
                );
            }
            let mut order = Vec::new();
            for t in 0..16 {
                while let Some((src, _, _)) = net.pop_due(t) {
                    order.push(src.0);
                }
            }
            order
        };
        let a = run(7);
        assert_eq!(a.len(), 32);
        assert_eq!(a, run(7), "same seed must replay identically");
        assert_ne!(a, run(8), "a different seed must shuffle differently");
        assert_ne!(a, (0..32).collect::<Vec<_>>(), "delays must reorder");
    }

    #[test]
    fn drops_are_seeded_and_charged() {
        let mut net = SimNet::new(NetConfig::degraded(11, 0, 0, 0.5));
        let mut ledger = SimNetwork::new();
        let mut delivered = 0;
        for i in 0..64 {
            if net
                .send(
                    0,
                    PeerId(i),
                    PeerId(9),
                    &hb(i),
                    MsgKind::Heartbeat,
                    &mut ledger,
                )
                .is_some()
            {
                delivered += 1;
            }
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 64);
        assert_eq!(stats.dropped + delivered, 64);
        assert!(stats.dropped > 8, "half-rate drops must actually drop");
        // Bandwidth is spent whether or not the frame arrives.
        assert_eq!(ledger.messages(MsgKind::Heartbeat), 64);
    }

    #[test]
    #[should_panic(expected = "drop_rate")]
    fn full_drop_rate_is_rejected() {
        let _ = SimNet::new(NetConfig {
            drop_rate: 1.0,
            ..NetConfig::ideal()
        });
    }

    /// A bisection severs exactly the cross-pivot links while active
    /// and heals on schedule; losses land in `cut`, not `dropped`.
    #[test]
    fn bisection_severs_cross_links_until_heal() {
        let faults = FaultSchedule {
            partitions: vec![Partition {
                kind: PartitionKind::Bisect { pivot: 4 },
                start: 10,
                heal: 20,
            }],
            crashes: vec![],
        };
        let mut net = SimNet::new(NetConfig::ideal()).with_faults(faults);
        let mut ledger = SimNetwork::new();
        // Before the partition: cross-pivot traffic flows.
        assert!(net
            .send(
                5,
                PeerId(0),
                PeerId(7),
                &hb(0),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        // Active: cross-pivot severed both ways, same-side unaffected.
        assert!(net
            .send(
                10,
                PeerId(0),
                PeerId(7),
                &hb(0),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        assert!(net
            .send(
                15,
                PeerId(7),
                PeerId(0),
                &hb(7),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        assert!(net
            .send(
                15,
                PeerId(1),
                PeerId(2),
                &hb(1),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        assert!(net
            .send(
                15,
                PeerId(6),
                PeerId(7),
                &hb(6),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        // Healed: the link is back.
        assert!(net
            .send(
                20,
                PeerId(0),
                PeerId(7),
                &hb(0),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        let stats = net.stats();
        assert_eq!(stats.cut, 2);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.crashed, 0);
        // Bandwidth is charged for severed frames too: the sender spent
        // it before the fabric lost the frame.
        assert_eq!(ledger.messages(MsgKind::Heartbeat), 6);
    }

    /// Isolation and crash windows blackhole the affected peer's
    /// traffic in both directions, each in its own ledger.
    #[test]
    fn isolation_and_crash_windows_attribute_losses() {
        let faults = FaultSchedule {
            partitions: vec![Partition {
                kind: PartitionKind::Isolate { peer: PeerId(3) },
                start: 0,
                heal: 5,
            }],
            crashes: vec![CrashWindow {
                peer: PeerId(1),
                down: 5,
                up: 8,
            }],
        };
        let mut net = SimNet::new(NetConfig::ideal()).with_faults(faults);
        let mut ledger = SimNetwork::new();
        assert!(net
            .send(
                0,
                PeerId(3),
                PeerId(0),
                &hb(3),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        assert!(net
            .send(
                2,
                PeerId(0),
                PeerId(3),
                &hb(0),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        assert!(net
            .send(
                5,
                PeerId(1),
                PeerId(0),
                &hb(1),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        assert!(net
            .send(
                7,
                PeerId(0),
                PeerId(1),
                &hb(0),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_none());
        // After the heal/restart ticks both peers are reachable again.
        assert!(net
            .send(
                5,
                PeerId(3),
                PeerId(0),
                &hb(3),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        assert!(net
            .send(
                8,
                PeerId(1),
                PeerId(0),
                &hb(1),
                MsgKind::Heartbeat,
                &mut ledger
            )
            .is_some());
        let stats = net.stats();
        assert_eq!(stats.cut, 2);
        assert_eq!(stats.crashed, 2);
        assert_eq!(stats.dropped, 0);
    }

    /// An empty fault schedule must not perturb the RNG stream: the
    /// delivery order under a lossy, reordering schedule is
    /// byte-identical with and without `with_faults(none)`.
    #[test]
    fn empty_schedule_preserves_the_random_stream() {
        let run = |faulted: bool| {
            let config = NetConfig::degraded(13, 0, 5, 0.2);
            let mut net = if faulted {
                SimNet::new(config).with_faults(FaultSchedule::none())
            } else {
                SimNet::new(config)
            };
            let mut ledger = SimNetwork::new();
            for i in 0..64 {
                net.send(
                    0,
                    PeerId(i),
                    PeerId(99),
                    &hb(i),
                    MsgKind::Heartbeat,
                    &mut ledger,
                );
            }
            let mut order = Vec::new();
            for t in 0..16 {
                while let Some((src, _, _)) = net.pop_due(t) {
                    order.push(src.0);
                }
            }
            (order, net.stats())
        };
        assert_eq!(run(false), run(true));
    }

    /// Seeded-expectation guard on the fabric itself: across three
    /// seeds, the realized drop rate and the delivery-delay histogram
    /// must match the configured distribution within tolerance — this
    /// holds the drop draw and the uniform delay sampler honest
    /// independently of any downstream digest.
    #[test]
    fn realized_drop_rate_and_delay_histogram_match_the_config() {
        const N: u64 = 4000;
        const DROP: f64 = 0.2;
        const MAX_DELAY: u64 = 6;
        for seed in [101u64, 202, 303] {
            let mut net = SimNet::new(NetConfig {
                seed,
                delay: DelayDist::Uniform {
                    min: 0,
                    max: MAX_DELAY,
                },
                drop_rate: DROP,
                phase_ticks: 8,
            });
            let mut ledger = SimNetwork::new();
            let mut hist = [0u64; (MAX_DELAY + 1) as usize];
            let mut delivered = 0u64;
            for i in 0..N {
                if let Some(tick) = net.send(
                    0,
                    PeerId((i % 50) as u32),
                    PeerId(99),
                    &hb(i as u32),
                    MsgKind::Heartbeat,
                    &mut ledger,
                ) {
                    delivered += 1;
                    hist[(tick - 1) as usize] += 1;
                }
            }
            let stats = net.stats();
            assert_eq!(stats.sent, N);
            assert_eq!(stats.dropped + delivered, N);
            // Drop rate within ±0.03 of the configured 0.2 (≈ 4.7 σ for
            // a Bernoulli(0.2) over 4000 draws).
            let realized = stats.dropped as f64 / N as f64;
            assert!(
                (realized - DROP).abs() < 0.03,
                "seed {seed}: realized drop rate {realized} vs configured {DROP}"
            );
            // Each uniform delay bucket within 20% of its expectation
            // (≈ 4.5 σ per bucket).
            let expected = delivered as f64 / (MAX_DELAY + 1) as f64;
            for (d, &n) in hist.iter().enumerate() {
                assert!(
                    (n as f64 - expected).abs() < 0.2 * expected,
                    "seed {seed}: delay {d} saw {n} frames, expected ≈{expected:.0}"
                );
            }
        }
    }
}
