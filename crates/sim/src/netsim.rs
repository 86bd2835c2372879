//! Network-degradation scenarios over the typed-message runtime — the
//! experiment family the paper never runs.
//!
//! Five questions, five sweeps:
//!
//! * [`run_net_sweep`] — does the equilibrium survive stale grants?
//!   The protocol's phase-2 correctness argument assumes every
//!   representative sorts the *same* request list; delay, reordering
//!   and loss break that assumption, so representatives grant against
//!   partial lists and the lock rule loses its global guarantee. The
//!   sweep measures the damage: final social cost, rounds, denies and
//!   stale frames as the schedule degrades.
//! * [`run_liar_audit`] — can misreported gains be attributed? A
//!   configured fraction of peers inflate their claimed gain
//!   ([`LiarConfig`]); after the run, the commit log is audited against
//!   *observed* statistics ([`ObservedStats`], PR 7's traffic-learned
//!   estimates) and the attribution is scored (precision/recall
//!   against the ground-truth liar set).
//! * [`run_partition_heal`] — does the equilibrium survive a torn
//!   fabric? A timed [`FaultSchedule`] bisects the peer set, isolates a
//!   representative, or crashes it outright for the first few rounds,
//!   then heals; the row reports the post-heal social cost against the
//!   equilibrium an ideal schedule reaches on the same start.
//! * [`run_midround_churn`] — does mid-round churn tear cleanly? Peers
//!   depart (including a representative) and arrive *inside* rounds;
//!   the row reports the voided-commit/voided-grant ledger alongside
//!   the surviving population's cost.
//! * [`run_observed_liar_audit`] — can fraud be separated from honest
//!   staleness? Under [`ObservedStrategy`] every honest claim is the
//!   observation-backed estimate itself, so the commitment-reveal audit
//!   can prove the late-inflating liars from frames alone while
//!   charging honest-but-stale peers to `estimation_error`, not fraud.
//!
//! All sweeps are deterministic: the fabric RNG is seeded per cell
//! (`derive_seed(seed, cell-index)`), the runtime is sequential inside
//! a cell, and cells merge in index order under any [`Parallelism`].

use recluster_core::{
    scost_normalized, simulate_period, CrashWindow, DelayDist, FaultSchedule, LiarConfig, LiarMode,
    NetConfig, ObservedStats, ObservedStrategy, Partition, PartitionKind, ProtocolConfig,
    RuntimeChurn, RuntimeEngine, SelfishStrategy,
};
use recluster_overlay::SimNetwork;
use recluster_types::{derive_seed, Document, PeerId, Query, Sym, Workload};

use crate::report::Fnv;
use crate::runner::{sweep_map, Parallelism};
use crate::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

/// Extra-delay shapes the sweep crosses with drop rates.
const DELAYS: [(u64, u64); 3] = [(0, 0), (0, 2), (0, 6)];
/// Drop rates (percent) the sweep crosses with delays.
const DROP_PCTS: [u64; 3] = [0, 5, 15];

fn protocol(max_rounds: usize) -> ProtocolConfig {
    ProtocolConfig::builder()
        .max_rounds(max_rounds)
        .memoize(false)
        .build()
}

/// One cell of the delay/reorder sweep.
#[derive(Debug, Clone)]
pub struct NetSweepRow {
    /// The schedule, rendered (`delay=0..2 drop=5%`).
    pub setting: String,
    /// Rounds to convergence (`None` = budget exhausted).
    pub rounds: Option<usize>,
    /// Final normalized social cost.
    pub scost: f64,
    /// Relocations actually committed (a grant whose commit frames all
    /// dropped does not count).
    pub moves: usize,
    /// Grants issued by representatives.
    pub granted: u64,
    /// Denies issued by representatives.
    pub denied: u64,
    /// Frames lost to the drop draw.
    pub dropped: u64,
    /// Frames that arrived after their collector had fired.
    pub stale: u64,
}

/// Sweeps the runtime across delay distributions × drop rates
/// (selfish strategy, scenario 1, random-M start). Cell 0 is the ideal
/// schedule — bit-identical to the sync engine — so the row series
/// reads as "cost of degradation relative to the paper's assumption".
pub fn run_net_sweep(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<NetSweepRow> {
    let cells: Vec<(usize, (u64, u64), u64)> = DELAYS
        .iter()
        .flat_map(|&delay| DROP_PCTS.iter().map(move |&pct| (delay, pct)))
        .enumerate()
        .map(|(i, (delay, pct))| (i, delay, pct))
        .collect();
    sweep_map(parallelism, &cells, |&(i, (min, max), pct)| {
        let net_config = NetConfig {
            seed: derive_seed(seed, i as u64),
            delay: if min == max {
                DelayDist::Fixed(min)
            } else {
                DelayDist::Uniform { min, max }
            },
            drop_rate: pct as f64 / 100.0,
            phase_ticks: max + 2,
        };
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, protocol(max_rounds), net_config);
        let outcome = engine.run(&mut tb.system, &mut ledger);
        let stats = engine.net_stats();
        NetSweepRow {
            setting: format!("delay={min}..{max} drop={pct}%"),
            rounds: outcome.converged.then(|| outcome.rounds_to_converge()),
            scost: scost_normalized(&tb.system),
            moves: engine.evidence().records().len(),
            granted: engine.granted_total(),
            denied: engine.denied_total(),
            dropped: stats.dropped,
            stale: stats.stale,
        }
    })
}

/// Liar fractions the audit sweeps.
const LIAR_FRACTIONS: [(u64, f64); 4] = [(0, 0.0), (1, 0.10), (2, 0.25), (3, 0.50)];
/// Claimed-gain multiplier for configured liars.
const LIAR_BOOST: f64 = 10.0;
/// Slack between a claimed gain and the observation-backed estimate
/// before the auditor flags the claimant.
const AUDIT_TOLERANCE: f64 = 0.05;

/// One cell of the liar audit.
#[derive(Debug, Clone)]
pub struct LiarAuditRow {
    /// Configured liar fraction.
    pub fraction: f64,
    /// Relocations committed (the audited population).
    pub moves: usize,
    /// Commits the audit skipped for lack of observation coverage.
    pub skipped: usize,
    /// Distinct peers that actually over-claimed.
    pub liars: usize,
    /// Distinct peers the audit flagged.
    pub flagged: usize,
    /// Fault-attribution precision (1.0 when nothing was flagged).
    pub precision: f64,
    /// Fault-attribution recall (1.0 when nobody lied).
    pub recall: f64,
    /// Final normalized social cost — what the lying *costs* the system
    /// (inflated claims win grants over genuinely better moves).
    pub scost: f64,
}

/// Sweeps the liar fraction under an ideal schedule. Each round
/// follows §3.1's rhythm: peers first observe a query period (flood
/// routing — PR 7's oracle-faithful path) on the *current*
/// configuration, then run one protocol round in which the configured
/// fraction inflate their claims, and the round's commits are audited
/// against the contemporaneous observations
/// ([`recluster_core::EvidenceLog::audit_round`]). Flagged/liar sets
/// accumulate across
/// rounds and the row scores the whole run.
pub fn run_liar_audit(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<LiarAuditRow> {
    sweep_map(parallelism, &LIAR_FRACTIONS, |&(i, fraction)| {
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut ledger = SimNetwork::new();
        let liars = LiarConfig {
            fraction,
            boost: LIAR_BOOST,
            seed: derive_seed(seed, 100 + i),
            mode: LiarMode::Consistent,
        };
        let mut engine =
            RuntimeEngine::new(SelfishStrategy, protocol(max_rounds), NetConfig::ideal())
                .with_liars(liars);
        let mut skipped = 0;
        let mut flagged = Vec::new();
        let mut liar_set = Vec::new();
        for round in 0..max_rounds {
            // Honest traffic observed on the pre-round configuration
            // judges the claims made during the round itself.
            let mut stats = ObservedStats::new(0.5);
            stats.absorb(&simulate_period(&tb.system, &mut ledger));
            let outcome = engine.run_round(&mut tb.system, &mut ledger, round);
            let report = engine
                .evidence()
                .audit_round(&tb.system, &stats, AUDIT_TOLERANCE, round);
            skipped += report.skipped;
            flagged.extend(report.flagged);
            liar_set.extend(report.liars);
            if outcome.proposed == 0 {
                break;
            }
        }
        flagged.sort();
        flagged.dedup();
        liar_set.sort();
        liar_set.dedup();
        let hits = flagged
            .iter()
            .filter(|p| liar_set.binary_search(p).is_ok())
            .count();
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        LiarAuditRow {
            fraction,
            moves: engine.evidence().records().len(),
            skipped,
            liars: liar_set.len(),
            flagged: flagged.len(),
            precision: ratio(hits, flagged.len()),
            recall: ratio(hits, liar_set.len()),
            scost: scost_normalized(&tb.system),
        }
    })
}

/// Tick at which the partition/crash cells' fault window opens —
/// mid-collect of round 0, so phase state is torn, not just absent.
const FAULT_START: u64 = 4;
/// Tick at which the fault window heals (exclusive). With `delay=0..2`
/// and `phase_ticks=4` a round spans roughly twelve ticks, so the
/// window disrupts the first three-or-so rounds and leaves the rest of
/// the budget for repair.
const FAULT_HEAL: u64 = 40;

/// One cell of the partition/heal scenario.
#[derive(Debug, Clone)]
pub struct PartitionHealRow {
    /// The fault injected (`no-fault`, `bisect`, `isolate-rep`,
    /// `crash-rep`), window included.
    pub setting: String,
    /// Rounds to convergence (`None` = budget exhausted).
    pub rounds: Option<usize>,
    /// Final normalized social cost, *after* the heal.
    pub scost: f64,
    /// The equilibrium an ideal schedule reaches on the same start.
    pub ideal: f64,
    /// `(scost − ideal) / ideal` — the repair criterion is `|gap| < 5%`.
    pub gap: f64,
    /// Relocations committed across the run.
    pub moves: usize,
    /// Frames severed by an active partition.
    pub cut: u64,
    /// Frames eaten by a crashed endpoint.
    pub crashed: u64,
    /// Frames that arrived after their collector had fired.
    pub stale: u64,
}

/// Runs the same testbed under four fault schedules — none, a timed
/// bisection, a timed representative isolation, a representative
/// crash/restart window — and scores each cell's *post-heal* social
/// cost against the ideal-schedule equilibrium. The paper's protocol
/// has no partition story at all; this sweep shows the runtime's
/// deadline discipline turns a torn fabric into denied rounds that
/// repair once the fault heals.
pub fn run_partition_heal(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<PartitionHealRow> {
    // The reference every fault cell must repair back to, and the
    // representative the targeted cells tear out. Both come from the
    // deterministic initial build, so every cell agrees on them.
    let (ideal, rep) = {
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let rep = {
            let ov = tb.system.overlay();
            ov.cluster(ov.non_empty_ids()[0])
                .representative()
                .expect("non-empty cluster has a representative")
        };
        let mut ledger = SimNetwork::new();
        RuntimeEngine::new(SelfishStrategy, protocol(max_rounds), NetConfig::ideal())
            .run(&mut tb.system, &mut ledger);
        (scost_normalized(&tb.system), rep)
    };
    let pivot = (cfg.n_peers / 2) as u32;
    let window = |kind| Partition {
        kind,
        start: FAULT_START,
        heal: FAULT_HEAL,
    };
    let cells: Vec<(usize, &str, FaultSchedule)> = vec![
        (0, "no-fault", FaultSchedule::none()),
        (
            1,
            "bisect",
            FaultSchedule {
                partitions: vec![window(PartitionKind::Bisect { pivot })],
                crashes: vec![],
            },
        ),
        (
            2,
            "isolate-rep",
            FaultSchedule {
                partitions: vec![window(PartitionKind::Isolate { peer: rep })],
                crashes: vec![],
            },
        ),
        (
            3,
            "crash-rep",
            FaultSchedule {
                partitions: vec![],
                crashes: vec![CrashWindow {
                    peer: rep,
                    down: FAULT_START,
                    up: FAULT_HEAL,
                }],
            },
        ),
    ];
    sweep_map(parallelism, &cells, |(i, name, faults)| {
        let net_config = NetConfig {
            seed: derive_seed(seed, 300 + *i as u64),
            delay: DelayDist::Uniform { min: 0, max: 2 },
            drop_rate: 0.0,
            phase_ticks: 4,
        };
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, protocol(max_rounds), net_config)
            .with_faults(faults.clone());
        let outcome = engine.run(&mut tb.system, &mut ledger);
        let stats = engine.net_stats();
        let scost = scost_normalized(&tb.system);
        PartitionHealRow {
            setting: if faults.is_empty() {
                (*name).to_string()
            } else {
                format!("{name}@t{FAULT_START}..t{FAULT_HEAL}")
            },
            rounds: outcome.converged.then(|| outcome.rounds_to_converge()),
            scost,
            ideal,
            gap: (scost - ideal) / ideal,
            moves: engine.evidence().records().len(),
            cut: stats.cut,
            crashed: stats.crashed,
            stale: stats.stale,
        }
    })
}

/// One cell of the mid-round churn scenario.
#[derive(Debug, Clone)]
pub struct MidroundChurnRow {
    /// The churn injected (`no-churn`, `departs`, `arrivals`, `mixed`).
    pub setting: String,
    /// Rounds to convergence (`None` = budget exhausted).
    pub rounds: Option<usize>,
    /// Final normalized social cost of the surviving population.
    pub scost: f64,
    /// Peers live at the end of the run.
    pub peers: usize,
    /// Relocations committed across the run.
    pub moves: usize,
    /// Frames addressed to peers that had already departed.
    pub departed: u64,
    /// Delivered `Commit` frames voided as no longer valid moves.
    pub commits_voided: u64,
    /// Grants converted to denies because the grantee departed first.
    pub grants_voided: u64,
    /// Frames that arrived after their collector had fired.
    pub stale: u64,
}

/// Runs the same testbed under four mid-round churn schedules: none,
/// departures (the first cluster's *representative* among them, ticks
/// chosen to land inside round 0's grant/commit window), arrivals, and
/// a mixed schedule. The rows read as the teardown ledger: frames to
/// the departed are attributed (not confused with drops), grants to
/// departed peers void at the deadline, commits from evicted state are
/// rejected — and the survivors still converge.
pub fn run_midround_churn(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<MidroundChurnRow> {
    // Churn targets from the deterministic initial build: the first
    // non-empty cluster's representative, a member beside it, and a
    // member of the next cluster.
    let (c0, c1, rep, member_a, member_b) = {
        let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let ov = tb.system.overlay();
        let ids = ov.non_empty_ids();
        let (c0, c1) = (ids[0], ids[1 % ids.len()]);
        let cl0 = ov.cluster(c0);
        let rep = cl0.representative().expect("non-empty cluster");
        let member_a = cl0
            .members()
            .iter()
            .copied()
            .find(|&p| p != rep)
            .unwrap_or(rep);
        let member_b = ov
            .cluster(c1)
            .members()
            .last()
            .copied()
            .expect("non-empty cluster");
        (c0, c1, rep, member_a, member_b)
    };
    let depart = |tick, peer| (tick, RuntimeChurn::Depart { peer });
    let arrive = |tick, cluster, sym: u32| {
        let mut workload = Workload::new();
        workload.add(Query::keyword(Sym(sym)), 2);
        (
            tick,
            RuntimeChurn::Arrive {
                cluster,
                docs: vec![Document::new(vec![Sym(sym)])],
                workload,
            },
        )
    };
    // Ticks 2..5 straddle the ideal schedule's forward → grant →
    // commit window for round 0, so the departures land mid-phase.
    type ChurnCell<'a> = (usize, &'a str, Vec<(u64, RuntimeChurn)>);
    let cells: Vec<ChurnCell<'_>> = vec![
        (0, "no-churn", vec![]),
        (
            1,
            "departs",
            vec![depart(2, rep), depart(3, member_a), depart(4, member_b)],
        ),
        (2, "arrivals", vec![arrive(2, c0, 0), arrive(10, c1, 1)]),
        (3, "mixed", vec![depart(3, member_a), arrive(4, c1, 2)]),
    ];
    sweep_map(parallelism, &cells, |(i, name, churn)| {
        // The schedule is ideal (no drop draws), but each cell still
        // gets its own fabric seed for uniformity with the other sweeps.
        let net_config = NetConfig {
            seed: derive_seed(seed, 400 + *i as u64),
            ..NetConfig::ideal()
        };
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, protocol(max_rounds), net_config)
            .with_churn(churn.clone());
        let outcome = engine.run(&mut tb.system, &mut ledger);
        let stats = engine.net_stats();
        let ov = tb.system.overlay();
        let peers = (0..ov.n_slots())
            .filter(|&s| ov.cluster_of(PeerId(s as u32)).is_some())
            .count();
        MidroundChurnRow {
            setting: (*name).to_string(),
            rounds: outcome.converged.then(|| outcome.rounds_to_converge()),
            scost: scost_normalized(&tb.system),
            peers,
            moves: engine.evidence().records().len(),
            departed: stats.departed,
            commits_voided: engine.commits_voided_total(),
            grants_voided: engine.grants_voided_total(),
            stale: stats.stale,
        }
    })
}

/// One cell of the observed-mode commitment-reveal audit.
#[derive(Debug, Clone)]
pub struct ObservedAuditRow {
    /// Configured liar fraction.
    pub fraction: f64,
    /// Relocations committed (the audited population).
    pub moves: usize,
    /// Distinct peers that actually over-claimed.
    pub liars: usize,
    /// Fraud proven from frames alone (reveal ≠ commitment).
    pub reveal_mismatch: usize,
    /// Fraud by the estimate (claim above the observation-backed gain).
    pub inflated: usize,
    /// Honest drift: estimate-backed claims that sit off the oracle —
    /// stale statistics, charged as error, never as fraud.
    pub est_error: usize,
    /// Distinct peers accused of fraud.
    pub flagged: usize,
    /// Fault-attribution precision (1.0 when nothing was flagged).
    pub precision: f64,
    /// Fault-attribution recall (1.0 when nobody lied).
    pub recall: f64,
    /// Final normalized social cost.
    pub scost: f64,
}

/// Sweeps the liar fraction under [`ObservedStrategy`] with
/// *late-inflating* liars ([`LiarMode::LateInflate`]): every peer
/// proposes the gain its observed statistics support, but liars reveal
/// a boosted gain at `Commit`. One observation period is absorbed up
/// front (decay 0) and the **same** statistics drive both the strategy
/// and the audit, so an honest claim reproduces the auditor's estimate
/// bit-for-bit: fraud lands in `reveal_mismatch`/`inflated`, honest
/// staleness lands in `est_error`, and precision/recall are exact.
pub fn run_observed_liar_audit(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<ObservedAuditRow> {
    sweep_map(parallelism, &LIAR_FRACTIONS, |&(i, fraction)| {
        let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg);
        let mut ledger = SimNetwork::new();
        // One honest flood-routed period on the starting configuration;
        // decay 0 makes the fold a pure snapshot. Frozen statistics are
        // the worst case for staleness — exactly what the audit must
        // refuse to call fraud.
        let mut stats = ObservedStats::new(0.0);
        stats.absorb(&simulate_period(&tb.system, &mut ledger));
        let liars = LiarConfig {
            fraction,
            boost: LIAR_BOOST,
            seed: derive_seed(seed, 200 + i),
            mode: LiarMode::LateInflate,
        };
        let mut engine = RuntimeEngine::new(
            ObservedStrategy::selfish(&stats),
            protocol(max_rounds),
            NetConfig::ideal(),
        )
        .with_liars(liars);
        engine.run(&mut tb.system, &mut ledger);
        let report = engine.evidence().audit(&tb.system, &stats, AUDIT_TOLERANCE);
        ObservedAuditRow {
            fraction,
            moves: engine.evidence().records().len(),
            liars: report.liars.len(),
            reveal_mismatch: report.reveal_mismatch.len(),
            inflated: report.inflated.len(),
            est_error: report.estimation_error.len(),
            flagged: report.flagged.len(),
            precision: report.precision,
            recall: report.recall,
            scost: scost_normalized(&tb.system),
        }
    })
}

/// Renders the delay/reorder sweep as digest-pinned text (scost vs
/// delay/drop, plus the grant/deny/drop/stale ledger per cell).
pub fn render_net_sweep(rows: &[NetSweepRow], seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("net-sweep scenario=same-category init=random-m seed={seed}\n");
    let mut h = Fnv::new();
    for r in rows {
        h.f64(r.scost);
        h.u64(r.rounds.map_or(u64::MAX, |n| n as u64));
        h.u64(r.moves as u64);
        h.u64(r.granted);
        h.u64(r.denied);
        h.u64(r.dropped);
        h.u64(r.stale);
        let _ = writeln!(
            out,
            "{:<20} rounds={:<4} scost={} moves={:<3} granted={:<3} denied={:<3} dropped={:<3} stale={}",
            r.setting,
            crate::report::rounds_cell(r.rounds),
            crate::report::f3(r.scost),
            r.moves,
            r.granted,
            r.denied,
            r.dropped,
            r.stale,
        );
    }
    let _ = writeln!(out, "netsim-digest: {:016x}", h.finish());
    out
}

/// Renders the liar audit as digest-pinned text (fault-attribution
/// precision/recall per liar fraction, plus what the lying costs).
pub fn render_liar_audit(rows: &[LiarAuditRow], seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("liar-audit scenario=same-category init=random-m seed={seed}\n");
    let mut h = Fnv::new();
    for r in rows {
        h.f64(r.fraction);
        h.u64(r.moves as u64);
        h.u64(r.skipped as u64);
        h.u64(r.liars as u64);
        h.u64(r.flagged as u64);
        h.f64(r.precision);
        h.f64(r.recall);
        h.f64(r.scost);
        let _ = writeln!(
            out,
            "fraction={:<5} moves={:<3} skipped={:<2} liars={:<2} flagged={:<2} precision={} recall={} scost={}",
            crate::report::f3(r.fraction),
            r.moves,
            r.skipped,
            r.liars,
            r.flagged,
            crate::report::f3(r.precision),
            crate::report::f3(r.recall),
            crate::report::f3(r.scost),
        );
    }
    let _ = writeln!(out, "netsim-digest: {:016x}", h.finish());
    out
}

/// Renders the partition/heal scenario as digest-pinned text (the
/// post-heal gap against the ideal equilibrium, plus the cut/crash
/// loss ledger per cell).
pub fn render_partition_heal(rows: &[PartitionHealRow], seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("partition-heal scenario=same-category init=random-m seed={seed}\n");
    let mut h = Fnv::new();
    for r in rows {
        h.f64(r.scost);
        h.f64(r.ideal);
        h.f64(r.gap);
        h.u64(r.rounds.map_or(u64::MAX, |n| n as u64));
        h.u64(r.moves as u64);
        h.u64(r.cut);
        h.u64(r.crashed);
        h.u64(r.stale);
        let _ = writeln!(
            out,
            "{:<22} rounds={:<4} scost={} ideal={} gap={} moves={:<3} cut={:<4} crashed={:<3} stale={}",
            r.setting,
            crate::report::rounds_cell(r.rounds),
            crate::report::f3(r.scost),
            crate::report::f3(r.ideal),
            crate::report::f3(r.gap),
            r.moves,
            r.cut,
            r.crashed,
            r.stale,
        );
    }
    let _ = writeln!(out, "netsim-digest: {:016x}", h.finish());
    out
}

/// Renders the mid-round churn scenario as digest-pinned text (the
/// voided-commit/voided-grant teardown ledger per cell).
pub fn render_midround_churn(rows: &[MidroundChurnRow], seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("midround-churn scenario=same-category init=random-m seed={seed}\n");
    let mut h = Fnv::new();
    for r in rows {
        h.f64(r.scost);
        h.u64(r.rounds.map_or(u64::MAX, |n| n as u64));
        h.u64(r.peers as u64);
        h.u64(r.moves as u64);
        h.u64(r.departed);
        h.u64(r.commits_voided);
        h.u64(r.grants_voided);
        h.u64(r.stale);
        let _ = writeln!(
            out,
            "{:<10} rounds={:<4} scost={} peers={:<3} moves={:<3} departed={:<3} commits_voided={} grants_voided={} stale={}",
            r.setting,
            crate::report::rounds_cell(r.rounds),
            crate::report::f3(r.scost),
            r.peers,
            r.moves,
            r.departed,
            r.commits_voided,
            r.grants_voided,
            r.stale,
        );
    }
    let _ = writeln!(out, "netsim-digest: {:016x}", h.finish());
    out
}

/// Renders the observed-mode audit as digest-pinned text (fraud
/// category counts and attribution scores per liar fraction).
pub fn render_observed_audit(rows: &[ObservedAuditRow], seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("observed-audit scenario=same-category init=random-m seed={seed}\n");
    let mut h = Fnv::new();
    for r in rows {
        h.f64(r.fraction);
        h.u64(r.moves as u64);
        h.u64(r.liars as u64);
        h.u64(r.reveal_mismatch as u64);
        h.u64(r.inflated as u64);
        h.u64(r.est_error as u64);
        h.u64(r.flagged as u64);
        h.f64(r.precision);
        h.f64(r.recall);
        h.f64(r.scost);
        let _ = writeln!(
            out,
            "fraction={:<5} moves={:<3} liars={:<2} reveal_mismatch={:<2} inflated={:<2} est_error={:<2} flagged={:<2} precision={} recall={} scost={}",
            crate::report::f3(r.fraction),
            r.moves,
            r.liars,
            r.reveal_mismatch,
            r.inflated,
            r.est_error,
            r.flagged,
            crate::report::f3(r.precision),
            crate::report::f3(r.recall),
            crate::report::f3(r.scost),
        );
    }
    let _ = writeln!(out, "netsim-digest: {:016x}", h.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::small(17)
    }

    #[test]
    fn ideal_cell_is_clean_and_degraded_cells_see_loss() {
        let rows = run_net_sweep(&cfg(), 12, 5, Parallelism::Sequential);
        assert_eq!(rows.len(), DELAYS.len() * DROP_PCTS.len());
        let ideal = &rows[0];
        assert_eq!(ideal.setting, "delay=0..0 drop=0%");
        assert_eq!(ideal.dropped, 0);
        assert_eq!(ideal.stale, 0);
        assert_eq!(
            ideal.moves as u64, ideal.granted,
            "ideal: every grant lands"
        );
        // The lossiest cell must actually lose frames.
        let lossy = rows.last().unwrap();
        assert!(lossy.dropped > 0);
    }

    #[test]
    fn sweep_is_parallelism_invariant_and_seeded() {
        let a = render_net_sweep(&run_net_sweep(&cfg(), 8, 5, Parallelism::Sequential), 5);
        let b = render_net_sweep(&run_net_sweep(&cfg(), 8, 5, Parallelism::Threads(4)), 5);
        assert_eq!(a, b, "thread pool must not change a byte");
        let c = render_net_sweep(&run_net_sweep(&cfg(), 8, 6, Parallelism::Sequential), 5);
        assert_ne!(a, c, "the fabric seed must matter in degraded cells");
    }

    #[test]
    fn liar_audit_scores_the_planted_liars() {
        let rows = run_liar_audit(&cfg(), 12, 5, Parallelism::Sequential);
        assert_eq!(rows.len(), LIAR_FRACTIONS.len());
        let honest = &rows[0];
        assert_eq!(honest.liars, 0);
        assert_eq!(
            honest.flagged, 0,
            "contemporaneous audit must not flag honest claims"
        );
        assert_eq!(honest.recall, 1.0);
        // At least one lying cell must plant and catch real liars.
        assert!(
            rows.iter().any(|r| r.liars > 0 && r.flagged > 0),
            "no cell planted a catchable liar: {rows:?}"
        );
    }

    #[test]
    fn partition_heal_repairs_to_the_ideal_equilibrium() {
        let rows = run_partition_heal(&cfg(), 40, 5, Parallelism::Sequential);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.cut, 0, "no-fault cell severed frames: {base:?}");
        assert_eq!(base.crashed, 0, "no-fault cell crashed frames: {base:?}");
        assert!(rows[1].cut > 0, "bisect cell must sever frames: {rows:?}");
        assert!(rows[2].cut > 0, "isolate cell must sever frames: {rows:?}");
        assert!(rows[3].crashed > 0, "crash cell must eat frames: {rows:?}");
        for r in &rows {
            assert!(
                r.gap.abs() < 0.05,
                "post-heal scost must sit within 5% of the ideal-schedule \
                 equilibrium: {r:?}"
            );
        }
    }

    #[test]
    fn midround_churn_tears_down_cleanly_and_admits_joiners() {
        let rows = run_midround_churn(&cfg(), 60, 5, Parallelism::Sequential);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.departed, 0);
        assert_eq!(base.commits_voided + base.grants_voided, 0);
        let departs = &rows[1];
        assert_eq!(departs.peers, base.peers - 3, "three peers departed");
        assert!(
            departs.departed > 0,
            "frames to the departed must be attributed: {departs:?}"
        );
        let arrivals = &rows[2];
        assert_eq!(arrivals.peers, base.peers + 2, "two peers arrived");
        let mixed = &rows[3];
        assert_eq!(mixed.peers, base.peers, "one out, one in");
        // Every cell's survivors still settle.
        for r in &rows {
            assert!(r.rounds.is_some(), "cell failed to converge: {r:?}");
        }
    }

    #[test]
    fn observed_audit_proves_liars_and_spares_stale_honesty() {
        let rows = run_observed_liar_audit(&cfg(), 12, 5, Parallelism::Sequential);
        assert_eq!(rows.len(), LIAR_FRACTIONS.len());
        let honest = &rows[0];
        assert_eq!(honest.liars, 0);
        assert_eq!(
            honest.flagged, 0,
            "the shared-statistics audit must never accuse an honest claim"
        );
        // Late inflation is fraud provable from the frames alone.
        assert!(
            rows.iter().any(|r| r.liars > 0 && r.reveal_mismatch > 0),
            "no cell caught a late-inflating liar by its reveal: {rows:?}"
        );
        for r in &rows {
            assert_eq!(r.precision, 1.0, "audit accused an honest peer: {r:?}");
            assert_eq!(r.recall, 1.0, "audit missed a liar: {r:?}");
        }
    }
}
