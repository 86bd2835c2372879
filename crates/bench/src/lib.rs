//! Shared helpers for the experiment binaries and Criterion benches of
//! the `recluster` reproduction.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (§4):
//!
//! | binary      | artifact  | content |
//! |-------------|-----------|---------|
//! | `table1`    | Table 1   | rounds / #clusters / SCost / WCost per scenario × init × strategy |
//! | `fig1`      | Figure 1  | per-round social & workload cost, scenario 1 |
//! | `fig2`      | Figure 2  | social cost vs. fraction of updated peers / workload |
//! | `fig3`      | Figure 3  | social cost vs. fraction of updated peers / data |
//! | `fig4`      | Figure 4  | individual cost vs. workload change for α ∈ {0,1,2} |
//! | `baselines` | (ours)    | local protocol vs. k-means / random / none |
//!
//! The Criterion benches under `benches/` measure the protocol's compute
//! costs and ablate design choices (θ shape, ε, hybrid λ, lock rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;

use recluster_sim::knobs::env_u64;
use recluster_sim::{Parallelism, RoutingMode};

/// Seed used by all experiment binaries unless overridden by the
/// `RECLUSTER_SEED` environment variable.
pub const DEFAULT_SEED: u64 = 2008;

/// Reads the sweep parallelism (`RECLUSTER_THREADS`): `1` forces the
/// sequential runner, any larger value pins that worker count, unset
/// (or `0`) uses every available core; a malformed value warns on
/// stderr and counts as unset. Parallel and sequential sweeps produce
/// byte-identical reports (asserted in
/// `recluster-sim/tests/determinism.rs`), so this only trades wall
/// clock, never results.
pub fn parallelism_from_env() -> Parallelism {
    match env_u64("RECLUSTER_THREADS") {
        Some(1) => Parallelism::Sequential,
        Some(0) | None => Parallelism::Auto,
        Some(n) => usize::try_from(n).map_or(Parallelism::Auto, Parallelism::Threads),
    }
}

/// Reads the query-routing mode (`RECLUSTER_ROUTING`): `flood`
/// (default), `routed`/`exact` for cluster-directed routing with exact
/// summaries, or `lossy:<k>` for top-`k` lossy summaries. Exact routing
/// returns bit-identical results to flooding (property-tested in
/// `recluster-core/tests/prop_routing.rs`) with far fewer messages;
/// lossy routing additionally reports its false-negative rate.
pub fn routing_from_env() -> RoutingMode {
    match env::var("RECLUSTER_ROUTING") {
        Ok(s) => RoutingMode::parse(&s).unwrap_or_else(|| {
            eprintln!(
                "RECLUSTER_ROUTING={s} not understood (flood | routed | lossy:<k>); flooding"
            );
            RoutingMode::Flood
        }),
        Err(_) => RoutingMode::Flood,
    }
}

/// Reads the experiment seed (`RECLUSTER_SEED`, default
/// [`DEFAULT_SEED`]); a malformed value warns on stderr and falls back
/// to the default.
pub fn seed_from_env() -> u64 {
    env_u64("RECLUSTER_SEED").unwrap_or(DEFAULT_SEED)
}

/// Whether to run the miniature testbed instead of the paper-scale one
/// (`RECLUSTER_SMALL=1`); keeps CI and demo runs fast.
pub fn small_from_env() -> bool {
    env::var("RECLUSTER_SMALL").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Prints the standard experiment banner.
pub fn banner(name: &str, paper_ref: &str, seed: u64, small: bool) {
    println!("=== {name} — reproduces {paper_ref} ===");
    println!(
        "seed={seed} scale={} workers={} (set RECLUSTER_SEED / RECLUSTER_SMALL=1 / \
         RECLUSTER_THREADS=n to vary)",
        if small {
            "small (40 peers, 4 categories)"
        } else {
            "paper (200 peers, 10 categories)"
        },
        parallelism_from_env().workers(),
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_stable() {
        assert_eq!(DEFAULT_SEED, 2008);
    }

    #[test]
    fn env_seed_parsing_has_a_fallback() {
        let seed = seed_from_env();
        assert!(seed > 0);
    }

    #[test]
    fn routing_defaults_to_flood() {
        // The suite never sets RECLUSTER_ROUTING; the default must keep
        // the paper's evaluation assumption.
        if env::var("RECLUSTER_ROUTING").is_err() {
            assert_eq!(routing_from_env(), RoutingMode::Flood);
        }
    }
}
