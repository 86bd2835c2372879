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

use recluster_sim::knobs::Knobs;

/// Seed used by all experiment binaries unless overridden by the
/// `RECLUSTER_SEED` environment variable.
pub const DEFAULT_SEED: u64 = 2008;

/// Prints the standard experiment banner for a run at `seed` under
/// `knobs` (read once, through [`Knobs::from_env`], by each binary).
pub fn banner(name: &str, paper_ref: &str, seed: u64, knobs: &Knobs) {
    println!("=== {name} — reproduces {paper_ref} ===");
    println!(
        "seed={seed} scale={} workers={} (set RECLUSTER_SEED / RECLUSTER_SMALL=1 / \
         RECLUSTER_THREADS=n to vary)",
        if knobs.small {
            "small (40 peers, 4 categories)"
        } else {
            "paper (200 peers, 10 categories)"
        },
        knobs.parallelism().workers(),
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
}
