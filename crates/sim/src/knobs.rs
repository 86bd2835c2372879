//! Environment-knob parsing shared by the sim and experiment binaries.
//!
//! Each knob is read by [`env_parsed`] through a pure `&str -> Option`
//! parser. It distinguishes *unset* (silent default) from *set but
//! malformed*: a malformed value gets a stderr warning naming the knob
//! and the rejected value before the default applies, so a typo'd
//! override can never masquerade as a deliberate choice.
//!
//! [`Knobs::from_env`] is the single entry point the binaries use: it
//! reads every `RECLUSTER_*` runtime knob once into a typed struct, so
//! a new knob lands in exactly one place (here) instead of scattered
//! `std::env::var` calls.

use recluster_core::{
    CrashWindow, DecisionSource, DelayDist, FaultSchedule, LiarConfig, LiarMode, NetConfig,
    Partition, PartitionKind,
};
use recluster_overlay::RoutingMode;
use recluster_types::PeerId;

/// A partition spec parsed from `RECLUSTER_NET_PARTITION`, before the
/// peer count is known. [`Knobs::fault_schedule`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// `start..heal` — bisect the peer set at half its size.
    BisectHalf,
    /// `bisect:<pivot>@start..heal` — bisect at an explicit pivot.
    Bisect(u32),
    /// `isolate:<peer>@start..heal` — cut one peer off.
    Isolate(u32),
}

/// Reads `name` through `parse`. Unset → `None` silently; set but
/// rejected by `parse` → a stderr warning naming the knob and the
/// value, then `None` (the caller's default applies).
pub fn env_parsed<T>(name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let parsed = parse(&raw);
    if parsed.is_none() {
        eprintln!("unknown {name}={raw:?}, ignoring");
    }
    parsed
}

/// Parses a `u64`.
pub fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Parses a flag: `1`/`true` or `0`/`false` (either case).
pub fn parse_flag(s: &str) -> Option<bool> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => None,
    }
}

/// Parses an `f64` in `[0, max]`.
pub fn parse_fraction(s: &str, max: f64) -> Option<f64> {
    s.parse().ok().filter(|v| (0.0..=max).contains(v))
}

/// Parses `lo..hi` with `lo < hi`.
fn parse_window(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once("..")?;
    match (lo.trim().parse(), hi.trim().parse()) {
        (Ok(lo), Ok(hi)) if lo < hi => Some((lo, hi)),
        _ => None,
    }
}

/// Parses a tick range: either a single `u64` (`"3"` → `(3, 3)`) or
/// `min..max` with `min ≤ max` (`"0..5"` → `(0, 5)`).
pub fn parse_tick_range(s: &str) -> Option<(u64, u64)> {
    match s.split_once("..") {
        Some((lo, hi)) => match (lo.trim().parse(), hi.trim().parse()) {
            (Ok(lo), Ok(hi)) if lo <= hi => Some((lo, hi)),
            _ => None,
        },
        None => s.trim().parse().ok().map(|v: u64| (v, v)),
    }
}

/// Parses a timed partition: `start..heal` (bisect at half the peer
/// set), `bisect:<pivot>@start..heal`, or `isolate:<peer>@start..heal`,
/// with `start < heal`.
pub fn parse_partition(s: &str) -> Option<(PartitionSpec, u64, u64)> {
    let (spec, window) = match s.split_once('@') {
        None => (PartitionSpec::BisectHalf, s),
        Some((kind, window)) => {
            let spec = match kind.trim().split_once(':')? {
                ("bisect", pivot) => PartitionSpec::Bisect(pivot.trim().parse().ok()?),
                ("isolate", peer) => PartitionSpec::Isolate(peer.trim().parse().ok()?),
                _ => return None,
            };
            (spec, window)
        }
    };
    let (start, heal) = parse_window(window)?;
    Some((spec, start, heal))
}

/// Parses a comma-separated crash list: each entry is `peer@down..up`
/// (the peer is down for ticks `[down, up)`, `down < up`). One
/// malformed entry rejects the whole list.
pub fn parse_crashes(s: &str) -> Option<Vec<CrashWindow>> {
    s.split(',')
        .map(|entry| {
            let (peer, window) = entry.split_once('@')?;
            let (down, up) = parse_window(window)?;
            Some(CrashWindow {
                peer: PeerId(peer.trim().parse().ok()?),
                down,
                up,
            })
        })
        .collect()
}

/// Every `RECLUSTER_*` runtime knob, read once. `None`/`false` means
/// "unset, use the binary's default" — the per-knob parse warnings have
/// already been printed by the time `from_env` returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Knobs {
    /// `RECLUSTER_SEED` — experiment seed.
    pub seed: Option<u64>,
    /// `RECLUSTER_SMALL` — `1`/`true`: miniature config.
    pub small: bool,
    /// `RECLUSTER_ROUTING` — `flood`, `exact` or `lossy:<k>`.
    pub routing: Option<RoutingMode>,
    /// `RECLUSTER_DECISIONS` — `oracle`, `observed`, `observed:<decay>`.
    pub decisions: Option<DecisionSource>,
    /// `RECLUSTER_TRAFFIC_QUERIES` — base query occurrences per slice.
    pub traffic_queries: Option<u64>,
    /// `RECLUSTER_TRAFFIC_SLICES` — number of traffic slices.
    pub traffic_slices: Option<u64>,
    /// `RECLUSTER_NET_DELAY` — extra per-message delay in ticks:
    /// `"3"` fixed, `"0..5"` uniform.
    pub net_delay: Option<(u64, u64)>,
    /// `RECLUSTER_NET_DROP` — per-message drop probability in `[0, 1)`.
    pub net_drop: Option<f64>,
    /// `RECLUSTER_NET_SEED` — seed of the simulated fabric's RNG.
    pub net_seed: Option<u64>,
    /// `RECLUSTER_NET_LIARS` — fraction of peers inflating claimed
    /// gains, in `[0, 1]`.
    pub net_liars: Option<f64>,
    /// `RECLUSTER_NET_PARTITION` — a timed partition: `start..heal`,
    /// `bisect:<pivot>@start..heal`, or `isolate:<peer>@start..heal`.
    pub net_partition: Option<(PartitionSpec, u64, u64)>,
    /// `RECLUSTER_NET_CRASH` — crash/restart windows, comma-separated
    /// `peer@down..up` entries.
    pub net_crash: Vec<CrashWindow>,
    /// `RECLUSTER_THREADS` — sweep worker count (`1` sequential,
    /// unset/`0` all cores).
    pub threads: Option<u64>,
}

impl Knobs {
    /// Reads every knob from the environment, warning on stderr about
    /// each malformed value as it goes.
    pub fn from_env() -> Self {
        Knobs {
            seed: env_parsed("RECLUSTER_SEED", parse_u64),
            small: env_parsed("RECLUSTER_SMALL", parse_flag).unwrap_or(false),
            routing: env_parsed("RECLUSTER_ROUTING", RoutingMode::parse),
            decisions: env_parsed("RECLUSTER_DECISIONS", DecisionSource::parse),
            traffic_queries: env_parsed("RECLUSTER_TRAFFIC_QUERIES", parse_u64),
            traffic_slices: env_parsed("RECLUSTER_TRAFFIC_SLICES", parse_u64),
            net_delay: env_parsed("RECLUSTER_NET_DELAY", parse_tick_range),
            // drop_rate 1.0 would sever every link; the fabric rejects it.
            net_drop: env_parsed("RECLUSTER_NET_DROP", |s| parse_fraction(s, 0.999)),
            net_seed: env_parsed("RECLUSTER_NET_SEED", parse_u64),
            net_liars: env_parsed("RECLUSTER_NET_LIARS", |s| parse_fraction(s, 1.0)),
            net_partition: env_parsed("RECLUSTER_NET_PARTITION", parse_partition),
            net_crash: env_parsed("RECLUSTER_NET_CRASH", parse_crashes).unwrap_or_default(),
            threads: env_parsed("RECLUSTER_THREADS", parse_u64),
        }
    }

    /// The sweep parallelism the `RECLUSTER_THREADS` knob describes:
    /// `1` forces the sequential runner, any larger value pins that
    /// worker count, unset or `0` uses every core. Sweeps are
    /// byte-identical under all three, so this only trades wall clock.
    pub fn parallelism(&self) -> crate::runner::Parallelism {
        match self.threads {
            Some(1) => crate::runner::Parallelism::Sequential,
            Some(0) | None => crate::runner::Parallelism::Auto,
            Some(n) => crate::runner::Parallelism::Threads(n as usize),
        }
    }

    /// The network schedule the `RECLUSTER_NET_*` knobs describe —
    /// [`NetConfig::ideal`] when none of them is set.
    pub fn net_config(&self) -> NetConfig {
        let mut cfg = NetConfig::ideal();
        if let Some(seed) = self.net_seed {
            cfg.seed = seed;
        }
        if let Some((min, max)) = self.net_delay {
            cfg.delay = if min == max {
                DelayDist::Fixed(min)
            } else {
                DelayDist::Uniform { min, max }
            };
            cfg.phase_ticks = max + 2;
        }
        if let Some(drop_rate) = self.net_drop {
            cfg.drop_rate = drop_rate;
        }
        cfg
    }

    /// The fault schedule the `RECLUSTER_NET_PARTITION` and
    /// `RECLUSTER_NET_CRASH` knobs describe — empty when neither is
    /// set. `n_peers` resolves the bare `start..heal` form's "bisect at
    /// half" pivot; the explicit forms ignore it. An entry that can
    /// reach no peer of the run gets a stderr warning but stays in the
    /// schedule as parsed.
    pub fn fault_schedule(&self, n_peers: usize) -> FaultSchedule {
        for warning in self.fault_warnings(n_peers) {
            eprintln!("{warning}");
        }
        let mut faults = FaultSchedule::none();
        if let Some((spec, start, heal)) = self.net_partition {
            let kind = match spec {
                PartitionSpec::BisectHalf => PartitionKind::Bisect {
                    pivot: (n_peers / 2) as u32,
                },
                PartitionSpec::Bisect(pivot) => PartitionKind::Bisect { pivot },
                PartitionSpec::Isolate(peer) => PartitionKind::Isolate { peer: PeerId(peer) },
            };
            faults.partitions.push(Partition { kind, start, heal });
        }
        faults.crashes = self.net_crash.clone();
        faults
    }

    /// One warning per fault-knob entry that can never fire in a run of
    /// `n_peers` peers: a crash or `isolate:` peer at or past `n_peers`,
    /// or a `bisect:` pivot of 0 or at least `n_peers`, which leaves
    /// every peer on one side.
    fn fault_warnings(&self, n_peers: usize) -> Vec<String> {
        let outside = |peer: u32| peer as usize >= n_peers;
        let mut warnings = Vec::new();
        match self.net_partition {
            Some((PartitionSpec::Isolate(peer), start, heal)) if outside(peer) => {
                warnings.push(format!(
                    "RECLUSTER_NET_PARTITION=\"isolate:{peer}@{start}..{heal}\" names peer \
                     {peer}, but the run has {n_peers} peers: it never fires"
                ));
            }
            Some((PartitionSpec::Bisect(pivot), start, heal)) if pivot == 0 || outside(pivot) => {
                warnings.push(format!(
                    "RECLUSTER_NET_PARTITION=\"bisect:{pivot}@{start}..{heal}\" leaves all \
                     {n_peers} peers on one side: it never fires"
                ));
            }
            _ => {}
        }
        for CrashWindow { peer, down, up } in self.net_crash.iter().filter(|c| outside(c.peer.0)) {
            let peer = peer.0;
            warnings.push(format!(
                "RECLUSTER_NET_CRASH entry \"{peer}@{down}..{up}\" names peer {peer}, but the \
                 run has {n_peers} peers: it never fires"
            ));
        }
        warnings
    }

    /// The liar population the `RECLUSTER_NET_LIARS` knob describes
    /// (inflation ×10, selection hashed from the fabric seed) — honest
    /// when unset.
    pub fn liar_config(&self) -> LiarConfig {
        match self.net_liars {
            Some(fraction) => LiarConfig {
                fraction,
                boost: 10.0,
                seed: self.net_seed.unwrap_or(0),
                mode: LiarMode::Consistent,
            },
            None => LiarConfig::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_read_as_none() {
        assert_eq!(env_parsed("RECLUSTER_KNOBTEST_UNSET", parse_u64), None);
        assert_eq!(Knobs::default().net_crash, Vec::new());
    }

    #[test]
    fn u64_and_flag_parse_and_reject() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("not-a-number"), None);
        assert_eq!(parse_u64("-1"), None);
        for (raw, want) in [("1", true), ("TRUE", true), ("0", false), ("false", false)] {
            assert_eq!(parse_flag(raw), Some(want), "{raw}");
        }
        assert_eq!(parse_flag("yes"), None);
        assert_eq!(parse_flag(""), None);
    }

    #[test]
    fn fraction_enforces_range() {
        assert_eq!(parse_fraction("0.25", 1.0), Some(0.25));
        assert_eq!(parse_fraction("1.5", 1.0), None);
        assert_eq!(parse_fraction("-0.1", 1.0), None);
        assert_eq!(parse_fraction("1.0", 0.999), None);
        assert_eq!(parse_fraction("NaN", 1.0), None);
    }

    #[test]
    fn tick_range_accepts_fixed_and_span() {
        assert_eq!(parse_tick_range("3"), Some((3, 3)));
        assert_eq!(parse_tick_range("0..5"), Some((0, 5)));
        assert_eq!(parse_tick_range("5..0"), None);
        assert_eq!(parse_tick_range("fast"), None);
    }

    #[test]
    fn decisions_knob_round_trips() {
        for (raw, want) in [
            ("oracle", DecisionSource::Oracle),
            ("observed", DecisionSource::Observed { decay: 0.0 }),
            ("observed:0.5", DecisionSource::Observed { decay: 0.5 }),
        ] {
            assert_eq!(DecisionSource::parse(raw), Some(want));
        }
        assert_eq!(DecisionSource::parse("observed:1.5"), None);
        assert_eq!(DecisionSource::parse("psychic"), None);
    }

    #[test]
    fn default_knobs_describe_the_ideal_network() {
        let knobs = Knobs::default();
        assert_eq!(knobs.net_config(), NetConfig::ideal());
        assert_eq!(knobs.liar_config(), LiarConfig::none());
        assert!(knobs.fault_schedule(40).is_empty());
    }

    #[test]
    fn partition_accepts_all_three_forms() {
        assert_eq!(
            parse_partition("5..40"),
            Some((PartitionSpec::BisectHalf, 5, 40))
        );
        assert_eq!(
            parse_partition("bisect:7@5..40"),
            Some((PartitionSpec::Bisect(7), 5, 40))
        );
        assert_eq!(
            parse_partition("isolate:3@5..40"),
            Some((PartitionSpec::Isolate(3), 5, 40))
        );
        // Empty and inverted windows, and unknown kinds, are rejected.
        assert_eq!(parse_partition("5..5"), None);
        assert_eq!(parse_partition("40..5"), None);
        assert_eq!(parse_partition("split:7@5..40"), None);
        assert_eq!(parse_partition("bisect@5..40"), None);
    }

    #[test]
    fn crashes_parse_a_list_and_reject_whole_on_one_bad_entry() {
        assert_eq!(
            parse_crashes("3@5..40, 9@10..20"),
            Some(vec![
                CrashWindow {
                    peer: PeerId(3),
                    down: 5,
                    up: 40
                },
                CrashWindow {
                    peer: PeerId(9),
                    down: 10,
                    up: 20
                },
            ])
        );
        assert_eq!(parse_crashes("3@5..40,oops"), None);
        assert_eq!(parse_crashes("3@5..5"), None);
    }

    #[test]
    fn fault_knobs_shape_the_schedule() {
        let knobs = Knobs {
            net_partition: Some((PartitionSpec::BisectHalf, 5, 40)),
            net_crash: vec![CrashWindow {
                peer: PeerId(3),
                down: 10,
                up: 20,
            }],
            ..Knobs::default()
        };
        let faults = knobs.fault_schedule(40);
        assert_eq!(
            faults.partitions,
            vec![Partition {
                kind: PartitionKind::Bisect { pivot: 20 },
                start: 5,
                heal: 40
            }]
        );
        assert_eq!(faults.crashes, knobs.net_crash);
        let isolate = Knobs {
            net_partition: Some((PartitionSpec::Isolate(3), 5, 40)),
            ..Knobs::default()
        };
        assert_eq!(
            isolate.fault_schedule(40).partitions[0].kind,
            PartitionKind::Isolate { peer: PeerId(3) }
        );
    }

    #[test]
    fn fault_entries_past_the_peer_set_warn() {
        let crash = |peer| Knobs {
            net_crash: vec![CrashWindow {
                peer: PeerId(peer),
                down: 1,
                up: 5,
            }],
            ..Knobs::default()
        };
        let partition = |spec| Knobs {
            net_partition: Some((spec, 5, 40)),
            ..Knobs::default()
        };
        let quiet = [
            crash(39),
            partition(PartitionSpec::Isolate(39)),
            partition(PartitionSpec::Bisect(20)),
            partition(PartitionSpec::BisectHalf),
        ];
        for knobs in &quiet {
            assert_eq!(knobs.fault_warnings(40), Vec::<String>::new(), "{knobs:?}");
        }
        let loud = [
            (crash(40), "RECLUSTER_NET_CRASH entry \"40@1..5\""),
            (crash(99_999), "RECLUSTER_NET_CRASH entry \"99999@1..5\""),
            (
                partition(PartitionSpec::Isolate(40)),
                "RECLUSTER_NET_PARTITION=\"isolate:40@5..40\"",
            ),
            (
                partition(PartitionSpec::Bisect(0)),
                "RECLUSTER_NET_PARTITION=\"bisect:0@5..40\"",
            ),
            (
                partition(PartitionSpec::Bisect(40)),
                "RECLUSTER_NET_PARTITION=\"bisect:40@5..40\"",
            ),
        ];
        for (knobs, prefix) in &loud {
            let warnings = knobs.fault_warnings(40);
            assert_eq!(warnings.len(), 1, "{knobs:?}");
            assert!(warnings[0].starts_with(prefix), "{}", warnings[0]);
            assert!(warnings[0].contains("40 peers"), "{}", warnings[0]);
        }
        // The schedule keeps what was parsed.
        let (knobs, _) = &loud[1];
        assert_eq!(knobs.fault_schedule(40).crashes, knobs.net_crash);
    }

    #[test]
    fn net_knobs_shape_the_config() {
        let knobs = Knobs {
            net_delay: Some((0, 5)),
            net_drop: Some(0.1),
            net_seed: Some(7),
            net_liars: Some(0.25),
            ..Knobs::default()
        };
        let cfg = knobs.net_config();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.delay, DelayDist::Uniform { min: 0, max: 5 });
        assert_eq!(cfg.drop_rate, 0.1);
        assert_eq!(cfg.phase_ticks, 7);
        let liars = knobs.liar_config();
        assert_eq!(liars.fraction, 0.25);
        assert_eq!(liars.seed, 7);
        let fixed = Knobs {
            net_delay: Some((4, 4)),
            ..Knobs::default()
        };
        assert_eq!(fixed.net_config().delay, DelayDist::Fixed(4));
    }
}
