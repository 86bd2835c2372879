//! Golden regression tests for the paper-figure scenario outputs.
//!
//! Small fixed configurations of `fig1`, `fig4`, and `table1` are
//! rendered to text and compared against committed snapshots under
//! `tests/golden/`, so future performance work (index refactors,
//! parallelism changes) cannot silently shift the reproduced paper
//! numbers. Each snapshot ends with a bit-level FNV-1a digest of every
//! `f64` in the output, making even ulp-sized drift visible while the
//! human-readable rows stay at the paper's 3-decimal precision.
//!
//! Regenerate after an *intentional* change with:
//! `RECLUSTER_UPDATE_GOLDEN=1 cargo test -p recluster-sim --test golden`

use std::fmt::Write as _;
use std::path::PathBuf;

use recluster_sim::churn::{
    churn_100k_config, churn_10k_config, churn_10k_observed_config, churn_1m_config, run_churn,
    run_churn_with_fidelity, ChurnPeriod,
};
use recluster_sim::fig1::run_fig1_with;
use recluster_sim::fig4::run_fig4_with;
use recluster_sim::knobs::{env_parsed, parse_flag};
use recluster_sim::netsim::{
    render_liar_audit, render_midround_churn, render_net_sweep, render_observed_audit,
    render_partition_heal, run_liar_audit, run_midround_churn, run_net_sweep,
    run_observed_liar_audit, run_partition_heal,
};
use recluster_sim::report::{f3, rounds_cell};
use recluster_sim::scenario::ExperimentConfig;
use recluster_sim::table1::{run_table1_with, Table1Config};
use recluster_sim::traffic::{
    run_traffic, traffic_demo_config, traffic_small_config, traffic_small_observed_config,
};
use recluster_sim::Parallelism;

/// FNV-1a over the raw bits of every recorded float, so the digest is
/// exactly reproducible wherever IEEE-754 doubles are.
#[derive(Default)]
struct BitDigest {
    hash: u64,
    count: usize,
}

impl BitDigest {
    fn new() -> Self {
        BitDigest {
            hash: 0xcbf29ce484222325,
            count: 0,
        }
    }

    fn push(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100000001b3);
        }
        self.count += 1;
    }

    fn line(&self) -> String {
        format!(
            "f64-digest: {:016x} over {} values\n",
            self.hash, self.count
        )
    }
}

fn render_fig1() -> String {
    let series = run_fig1_with(&ExperimentConfig::small(31), 60, Parallelism::Sequential);
    let mut out = String::from("fig1 scenario=same-category init=singletons seed=31\n");
    let mut digest = BitDigest::new();
    for s in &series {
        let fmt_series = |values: &[f64], digest: &mut BitDigest| -> String {
            values
                .iter()
                .map(|&v| {
                    digest.push(v);
                    f3(v)
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        let scost = fmt_series(&s.scost, &mut digest);
        let wcost = fmt_series(&s.wcost, &mut digest);
        let _ = writeln!(out, "{} converged={}", s.strategy, s.converged);
        let _ = writeln!(out, "  scost: {scost}");
        let _ = writeln!(out, "  wcost: {wcost}");
    }
    out.push_str(&digest.line());
    out
}

fn render_fig4() -> String {
    let alphas = [0.0, 1.0, 2.0];
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    let curves = run_fig4_with(
        &ExperimentConfig::small(51),
        &alphas,
        &fractions,
        Parallelism::Sequential,
    );
    let mut out = String::from("fig4 ideal-scenario1 seed=51\n");
    let mut digest = BitDigest::new();
    for c in &curves {
        let pts = c
            .points
            .iter()
            .map(|&(f, cost)| {
                digest.push(cost);
                format!("{f:.2}:{}", f3(cost))
            })
            .collect::<Vec<_>>()
            .join(" ");
        let threshold = c
            .relocation_threshold
            .map_or_else(|| "-".into(), |t| format!("{t:.2}"));
        let _ = writeln!(out, "alpha={} threshold={threshold} {pts}", c.alpha);
    }
    out.push_str(&digest.line());
    out
}

fn render_table1() -> String {
    let mut cfg = Table1Config::small(21);
    cfg.max_rounds = 40;
    let rows = run_table1_with(&cfg, Parallelism::Sequential);
    let mut out = String::from("table1 small seed=21 max_rounds=40\n");
    let mut digest = BitDigest::new();
    for r in &rows {
        digest.push(r.scost);
        digest.push(r.wcost);
        let _ = writeln!(
            out,
            "{}|{}|{}|rounds={}|clusters={}|scost={}|wcost={}|nash={}|msgs={}",
            r.scenario.label(),
            r.init.label(),
            r.strategy,
            rounds_cell(r.rounds),
            r.clusters,
            f3(r.scost),
            f3(r.wcost),
            r.nash,
            r.messages
        );
    }
    out.push_str(&digest.line());
    out
}

fn render_churn_scale(
    name: &str,
    cfg: &ExperimentConfig,
    churn: &recluster_sim::churn::ChurnConfig,
    rows: &[ChurnPeriod],
    seed: u64,
) -> String {
    let mut out = format!(
        "{name} peers={} periods={} leaves={} joins={} routing={} seed={seed}\n",
        cfg.n_peers, churn.periods, churn.leaves_per_period, churn.joins_per_period, churn.routing
    );
    let mut digest = BitDigest::new();
    for r in rows {
        digest.push(r.scost_after_churn);
        digest.push(r.scost_after_repair);
        digest.push(r.forwards_per_query);
        digest.push(r.false_negative_rate);
        let _ = writeln!(
            out,
            "period={}|peers={}|churned={}|repaired={}|moves={}|msgs={}|fwd/q={}|fn={}",
            r.period,
            r.peers,
            f3(r.scost_after_churn),
            f3(r.scost_after_repair),
            r.moves,
            r.query_messages,
            f3(r.forwards_per_query),
            f3(r.false_negative_rate),
        );
    }
    out.push_str(&digest.line());
    out
}

fn render_churn_10k() -> String {
    let (cfg, churn) = churn_10k_config(2008);
    let rows = run_churn(&cfg, &churn);
    render_churn_scale("churn_10k", &cfg, &churn, &rows, 2008)
}

fn render_churn_100k() -> String {
    let (cfg, churn) = churn_100k_config(2008);
    let rows = run_churn(&cfg, &churn);
    render_churn_scale("churn_100k", &cfg, &churn, &rows, 2008)
}

/// Renders the observed-mode 10k churn run: the per-period rows plus
/// the decision-fidelity block — observed-vs-oracle agreement and both
/// repaired costs, bit-digested. Pinning both costs is what holds the
/// "observed converges within 5 % of the oracle" claim over time.
fn render_churn_10k_observed() -> (String, f64) {
    let (cfg, churn) = churn_10k_observed_config(2008);
    let (rows, fidelity) = run_churn_with_fidelity(&cfg, &churn);
    let mut out = render_churn_scale("churn_10k_observed", &cfg, &churn, &rows, 2008);
    let report = fidelity.expect("observed runs report fidelity");
    let mut digest = BitDigest::new();
    for f in &report.periods {
        digest.push(f.agreement_rate);
        digest.push(f.scost_observed_repair);
        digest.push(f.scost_oracle_repair);
        let _ = writeln!(
            out,
            "fidelity period={}|agree={:.6}|scost_obs={:.6}|scost_oracle={:.6}|gap={:+.4}",
            f.period,
            f.agreement_rate,
            f.scost_observed_repair,
            f.scost_oracle_repair,
            f.scost_gap()
        );
    }
    let _ = writeln!(
        out,
        "fidelity mean_agree={:.6} final_gap={:+.6}",
        report.mean_agreement(),
        report.final_scost_gap()
    );
    out.push_str(&digest.line());
    (out, report.final_scost_gap())
}

/// Renders the million-peer churn run and returns the last period's
/// repaired scost, so the test can pin the paper-ideal acceptance bound
/// (≈ 0.101: membership 10 clusters / 1M peers plus residual recall
/// loss) alongside the bit-level snapshot.
fn render_churn_1m() -> (String, f64) {
    let (cfg, churn) = churn_1m_config(2008);
    let rows = run_churn(&cfg, &churn);
    let final_scost = rows.last().map_or(0.0, |r| r.scost_after_repair);
    (
        render_churn_scale("churn_1M", &cfg, &churn, &rows, 2008),
        final_scost,
    )
}

fn render_traffic_small() -> String {
    let (cfg, traffic) = traffic_small_config(2008);
    run_traffic(&cfg, &traffic).render("traffic_small", 2008)
}

fn render_traffic_small_observed() -> String {
    let (cfg, traffic) = traffic_small_observed_config(2008);
    run_traffic(&cfg, &traffic).render("traffic_small_observed", 2008)
}

fn render_traffic_1m() -> String {
    let (cfg, traffic) = traffic_demo_config(2008);
    run_traffic(&cfg, &traffic).render("traffic_1m", 2008)
}

fn render_net_sweep_snapshot() -> String {
    let rows = run_net_sweep(&ExperimentConfig::small(17), 40, 5, Parallelism::Sequential);
    render_net_sweep(&rows, 5)
}

fn render_liar_audit_snapshot() -> String {
    let rows = run_liar_audit(&ExperimentConfig::small(17), 40, 5, Parallelism::Sequential);
    render_liar_audit(&rows, 5)
}

/// Renders the partition/heal scenario and returns the worst post-heal
/// gap to the ideal equilibrium, so the test can pin the acceptance
/// bound (every faulted cell repairs to within 5 %) alongside the
/// snapshot itself.
fn render_partition_heal_snapshot() -> (String, f64) {
    let rows = run_partition_heal(&ExperimentConfig::small(17), 40, 5, Parallelism::Sequential);
    let worst_gap = rows.iter().map(|r| r.gap.abs()).fold(0.0, f64::max);
    (render_partition_heal(&rows, 5), worst_gap)
}

fn render_midround_churn_snapshot() -> String {
    let rows = run_midround_churn(&ExperimentConfig::small(17), 60, 5, Parallelism::Sequential);
    render_midround_churn(&rows, 5)
}

/// Renders the observed-mode commitment-reveal audit and returns the
/// per-row (precision, recall, flagged-at-zero-liars) triple needed to
/// pin the frame-provable acceptance bound next to the snapshot.
fn render_observed_audit_snapshot() -> (String, Vec<(f64, f64, usize)>) {
    let rows =
        run_observed_liar_audit(&ExperimentConfig::small(17), 12, 5, Parallelism::Sequential);
    let scores = rows
        .iter()
        .map(|r| {
            (
                r.precision,
                r.recall,
                if r.liars == 0 { r.flagged } else { 0 },
            )
        })
        .collect();
    (render_observed_audit(&rows, 5), scores)
}

/// The trailing digest line of a snapshot (`f64-digest:` for the
/// figure/churn renders, `traffic-digest:` for the traffic engine,
/// `netsim-digest:` for the runtime scenarios — all feed every float's
/// raw bits, so they pinpoint sub-rounding drift).
fn digest_line(text: &str) -> &str {
    text.lines()
        .rev()
        .find(|l| {
            l.starts_with("f64-digest:")
                || l.starts_with("traffic-digest:")
                || l.starts_with("netsim-digest:")
        })
        .unwrap_or("<no digest line>")
}

fn check(name: &str, actual: String) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if env_parsed("RECLUSTER_UPDATE_GOLDEN", parse_flag).unwrap_or(false) {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    if actual == expected {
        return;
    }
    // Point straight at the damage: the first diverging line (1-based)
    // and the two bit-level digests, instead of a bare inequality.
    let diverged = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .map(|i| {
            format!(
                "first diverging line {}:\n  actual:   {}\n  expected: {}",
                i + 1,
                actual.lines().nth(i).unwrap_or(""),
                expected.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| {
            format!(
                "line counts differ: actual {} vs expected {} (common prefix identical)",
                actual.lines().count(),
                expected.lines().count()
            )
        });
    panic!(
        "{name} drifted from its committed snapshot.\n{diverged}\n\
         actual   {}\nexpected {}\n\
         If the change is intentional, regenerate with RECLUSTER_UPDATE_GOLDEN=1",
        digest_line(&actual),
        digest_line(&expected),
    );
}

#[test]
fn fig1_matches_golden_snapshot() {
    check("fig1.txt", render_fig1());
}

#[test]
fn fig4_matches_golden_snapshot() {
    check("fig4.txt", render_fig4());
}

#[test]
fn table1_matches_golden_snapshot() {
    check("table1.txt", render_table1());
}

/// The typed-message runtime under degraded schedules: scost vs
/// delay/drop with the grant/deny/drop/stale ledger per cell.
#[test]
fn net_sweep_matches_golden_snapshot() {
    check("net_sweep.txt", render_net_sweep_snapshot());
}

/// Fault attribution of inflated claimed gains against observed
/// statistics, scored per liar fraction.
#[test]
fn liar_audit_matches_golden_snapshot() {
    check("liar_audit.txt", render_liar_audit_snapshot());
}

/// The runtime under timed partitions and a crash/restart window: after
/// the fault heals, every cell must repair to within 5 % of the
/// ideal-schedule equilibrium — the partition-tolerance acceptance
/// bound — and the snapshot pins the loss-attribution ledger per cell.
#[test]
fn partition_heal_matches_golden_snapshot() {
    let (rendered, worst_gap) = render_partition_heal_snapshot();
    assert!(
        worst_gap < 0.05,
        "post-heal equilibrium must sit within 5% of ideal, worst gap {worst_gap}"
    );
    check("partition_heal.txt", rendered);
}

/// Mid-round churn: departures tear down cleanly (voided commits and
/// grants ledgered, membership shrinks by exactly the departed count)
/// and arrivals are admitted and converge.
#[test]
fn midround_churn_matches_golden_snapshot() {
    check("midround_churn.txt", render_midround_churn_snapshot());
}

/// Observed-mode commitment-reveal audit: every flagged peer is provable
/// from frames alone (precision 1), every liar is caught (recall 1), and
/// the honest cell flags nobody — estimation error is never fraud.
#[test]
fn observed_liar_audit_matches_golden_snapshot() {
    let (rendered, scores) = render_observed_audit_snapshot();
    for (precision, recall, honest_flagged) in scores {
        assert_eq!(
            honest_flagged, 0,
            "an honest run must flag nobody: staleness is not fraud"
        );
        assert!(
            precision == 1.0 && recall == 1.0,
            "audit must be exact: precision {precision} recall {recall}"
        );
    }
    check("observed_liar_audit.txt", rendered);
}

/// The 10k-peer churn scenario under routed queries — no per-period
/// `rebuild_index()` anywhere on its path, pinned to the bit. ~15 s in
/// release and far too slow unoptimized, so it is ignored by the debug
/// tier-1 run; CI executes it via `--include-ignored` in the release
/// golden step (and regeneration needs the same flag).
#[test]
#[ignore = "10k peers: release-only, run with --include-ignored"]
fn churn_10k_matches_golden_snapshot() {
    check("churn_10k.txt", render_churn_10k());
}

/// The 100 000-peer churn scenario — the read/write split's proof at
/// scale: sparse tracker walk, snapshot-backed parallel phase 1 and
/// proposal memoization keep a period sub-O(peers) where it matters,
/// and the repaired scost pins at the paper-ideal ≈ 0.1. Release-only
/// via `--include-ignored`, like `churn_10k`.
#[test]
#[ignore = "100k peers: release-only, run with --include-ignored"]
fn churn_100k_matches_golden_snapshot() {
    check("churn_100k.txt", render_churn_100k());
}

/// The 1 000 000-peer churn scenario — the sharded flush/fan-out and
/// the per-(peer, cluster) proposal memo's proof at scale: a repair
/// round after convergence recomputes only the churn-dirtied proposals
/// (everything else is memo-served), the cost-cache flush and the
/// tracker's period walk shard across cores byte-identically, and the
/// traffic probe never materializes observations or walks members. The
/// repaired scost must land within 1 % of the paper-ideal ≈ 0.101.
/// Release-only via `--include-ignored`, like the other scale goldens.
#[test]
#[ignore = "1M peers: release-only, run with --include-ignored"]
fn churn_1m_matches_golden_snapshot() {
    let (rendered, final_scost) = render_churn_1m();
    assert!(
        (final_scost / 0.101 - 1.0).abs() < 0.01,
        "million-peer repair must reach the paper-ideal scost, got {final_scost}"
    );
    check("churn_1M.txt", rendered);
}

/// Observed-mode counterpart of `churn_10k`: relocation driven by the
/// folded tracker estimates (decay 0) under exact routing. Pins the
/// acceptance bound end-to-end — the observed run's repaired scost must
/// converge within 5 % of the oracle reference — alongside the full
/// fidelity block. Release-only via `--include-ignored`.
#[test]
#[ignore = "10k peers: release-only, run with --include-ignored"]
fn churn_10k_observed_matches_golden_snapshot() {
    let (rendered, final_gap) = render_churn_10k_observed();
    assert!(
        final_gap.abs() < 0.05,
        "observed repair must converge within 5% of the oracle, gap {final_gap}"
    );
    check("churn_10k_observed.txt", rendered);
}

/// The miniature traffic-engine run — streamed routed queries with
/// churn, batched summary publication and repair over the 40-peer
/// testbed. Fast enough for the debug tier-1 suite, so engine drift
/// is caught long before the release golden step.
#[test]
fn traffic_small_matches_golden_snapshot() {
    check("traffic_small.txt", render_traffic_small());
}

/// Observed-mode counterpart of `traffic_small` (decay 0.25 — the EMA
/// fold): the report's fidelity rows ride the same digest, so observed
/// decision drift is caught in the debug tier on every run.
#[test]
fn traffic_small_observed_matches_golden_snapshot() {
    check(
        "traffic_small_observed.txt",
        render_traffic_small_observed(),
    );
}

/// The `traffic_demo` scenario: ≈1.29 M routed query occurrences over
/// 10 000 peers with diurnal/flash/drift workload shaping, churn every
/// 10 slices and batched summary publication at each repair. Pins the
/// full report — per-window rows, fan-out tail, batching ledger and the
/// engine digest. About a second in release; release-only via
/// `--include-ignored`, like the churn goldens.
#[test]
#[ignore = "1M+ query stream: release-only, run with --include-ignored"]
fn traffic_1m_matches_golden_snapshot() {
    check("traffic_1m.txt", render_traffic_1m());
}
