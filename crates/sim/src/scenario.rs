//! Testbed construction (§4).
//!
//! "The peers share Newsgroup articles belonging to 10 different
//! categories. […] The texts are distributed among 200 peers. Queries are
//! generated by choosing a random word from the texts. We set the α
//! parameter equal to 1 and use a linear function […] for the θ
//! function." Three data/query distributions (§4.1) and four initial
//! cluster configurations (i)–(iv) complete the grid.

use rand::Rng;
use recluster_core::{GameConfig, System};
use recluster_corpus::{Corpus, CorpusConfig, QueryBias, QuerySampler, WorkloadBuilder};
use recluster_overlay::{ContentStore, Overlay, Theta};
use recluster_types::{derive_seed, seeded_rng, ClusterId, Document, PeerId, Workload};

/// How the total query demand is split across peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandSplit {
    /// Zipf with the given exponent — §4.1: "queries are distributed
    /// among the peers using a zipf distribution, thus, some peers are
    /// more demanding than others".
    Zipf(f64),
    /// Equal shares — §4.2: "the total query workload is assigned
    /// uniformly to peers".
    Uniform,
}

/// The three data/query distributions of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// "Both queries and data of a peer fall into the same category."
    SameCategory,
    /// "Each peer has data of a single category and queries about data of
    /// a single but different category from its own."
    DifferentCategory,
    /// "Both data and queries for each peer are selected uniformly at
    /// random from all categories."
    Uniform,
}

impl Scenario {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::SameCategory => "same-category",
            Scenario::DifferentCategory => "different-category",
            Scenario::Uniform => "uniform",
        }
    }
}

/// The four initial cluster configurations of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialConfig {
    /// (i) every peer forms its own cluster.
    Singletons,
    /// (ii) peers randomly distributed over `m = M` clusters.
    RandomM,
    /// (iii) peers randomly distributed over `m < M` clusters.
    Fewer,
    /// (iv) peers randomly distributed over `m > M` clusters.
    More,
}

impl InitialConfig {
    /// Label used in reports (the paper's roman numerals).
    pub fn label(&self) -> &'static str {
        match self {
            InitialConfig::Singletons => "i",
            InitialConfig::RandomM => "ii",
            InitialConfig::Fewer => "iii",
            InitialConfig::More => "iv",
        }
    }

    /// The cluster count `m` this configuration uses, given the
    /// scenario's optimal `M` and the peer count (`Cmax`).
    pub fn cluster_count(&self, m_optimal: usize, n_peers: usize) -> usize {
        match self {
            InitialConfig::Singletons => n_peers,
            InitialConfig::RandomM => m_optimal.min(n_peers),
            InitialConfig::Fewer => (m_optimal / 2).max(1),
            InitialConfig::More => (m_optimal * 3 / 2).clamp(1, n_peers),
        }
    }
}

/// All knobs of the testbed.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of peers (`|P|`; the paper uses 200). Must be divisible by
    /// `n_categories`.
    pub n_peers: usize,
    /// Number of article categories (the paper uses 10).
    pub n_categories: usize,
    /// Articles held by each peer.
    pub docs_per_peer: usize,
    /// Extra articles generated per category and *not* distributed —
    /// the replacement pool for the §4.2 data-update experiments.
    pub holdout_per_category: usize,
    /// `α` (the paper uses 1).
    pub alpha: f64,
    /// `θ` (the paper uses linear).
    pub theta: Theta,
    /// Total queries split across peers.
    pub total_queries: u64,
    /// Demand split across peers.
    pub demand: DemandSplit,
    /// How query words are drawn from the texts.
    pub query_bias: QueryBias,
    /// Distinct interest words per peer (`None` = unrestricted draws).
    pub focus: Option<usize>,
    /// Distinct content words per category vocabulary. A hapax-heavy
    /// vocabulary (large relative to the number of word draws, steep
    /// Zipf) mirrors real newsgroup text: roughly half the words that
    /// occur at all occur in one or two articles only. The scenario-2
    /// dynamics depend on this — a peer interested in another peer's
    /// articles must find most matching results *there*, not spread
    /// across the whole category.
    pub vocab_per_category: usize,
    /// Zipf exponent of the word rank-frequency law.
    pub vocab_zipf: f64,
}

impl ExperimentConfig {
    /// The paper-scale testbed: 200 peers, 10 categories, α = 1, linear θ.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            n_peers: 200,
            n_categories: 10,
            docs_per_peer: 10,
            holdout_per_category: 200,
            alpha: 1.0,
            theta: Theta::Linear,
            total_queries: 4000,
            demand: DemandSplit::Zipf(0.8),
            query_bias: QueryBias::Uniform,
            focus: Some(8),
            vocab_per_category: 400,
            vocab_zipf: 1.1,
        }
    }

    /// The production-scale churn testbed: 10 000 peers, 10 categories.
    /// Documents and per-peer demand are kept lean (3 docs, ~2 queries
    /// per peer over a 60-word category vocabulary) so the index stays
    /// in tens of megabytes while the *peer* axis — the one the
    /// delta-maintained engine is built for — is 50× the paper's.
    pub fn large(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            n_peers: 10_000,
            n_categories: 10,
            docs_per_peer: 3,
            holdout_per_category: 300,
            alpha: 1.0,
            theta: Theta::Linear,
            total_queries: 20_000,
            demand: DemandSplit::Uniform,
            query_bias: QueryBias::Uniform,
            focus: Some(2),
            vocab_per_category: 60,
            vocab_zipf: 1.1,
        }
    }

    /// The 100 000-peer churn testbed — `churn_10k`'s peer axis ×10,
    /// everything else as lean as [`ExperimentConfig::large`] (2 docs
    /// and ~2 queries per peer over a 60-word category vocabulary).
    /// Feasible because every per-period factor is sub-O(peers): churn
    /// events and cost reports are delta-maintained, the tracker walks
    /// *distinct* queries (vocabulary-bounded, peer-count-independent)
    /// through the query → holder lists, and phase 1 recomputes only
    /// epoch-dirty proposals, sharded across cores.
    pub fn huge(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            n_peers: 100_000,
            n_categories: 10,
            docs_per_peer: 2,
            holdout_per_category: 300,
            alpha: 1.0,
            theta: Theta::Linear,
            total_queries: 200_000,
            demand: DemandSplit::Uniform,
            query_bias: QueryBias::Uniform,
            focus: Some(2),
            vocab_per_category: 60,
            vocab_zipf: 1.1,
        }
    }

    /// The million-peer churn testbed — `churn_100k`'s peer axis ×10
    /// once more, with the same lean per-peer load (2 docs, ~2 queries
    /// per peer over a 60-word category vocabulary). The distinct-query
    /// set stays vocabulary-bounded (~600), and the traffic-only period
    /// walk reads each routed cluster's answer from the recall index,
    /// so the tracker's per-period cost is bucketing each query's
    /// demand over its holders — sharded across cores — and the compact
    /// u32 columns keep the whole system in a few GB of RSS (the
    /// `churn_1M` bench cell pins the peak).
    pub fn million(seed: u64) -> Self {
        ExperimentConfig {
            n_peers: 1_000_000,
            total_queries: 2_000_000,
            ..ExperimentConfig::huge(seed)
        }
    }

    /// A miniature testbed for fast tests: 40 peers, 4 categories.
    pub fn small(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            n_peers: 40,
            n_categories: 4,
            docs_per_peer: 6,
            holdout_per_category: 60,
            alpha: 1.0,
            theta: Theta::Linear,
            total_queries: 800,
            demand: DemandSplit::Zipf(0.8),
            query_bias: QueryBias::Uniform,
            focus: Some(6),
            vocab_per_category: 160,
            vocab_zipf: 1.0,
        }
    }

    /// Peers per category.
    pub fn peers_per_category(&self) -> usize {
        self.n_peers / self.n_categories
    }

    /// The scenario's "optimal" cluster count `M` (§4.1: the number of
    /// data categories for scenarios 1 and 3; the number of distinct
    /// (data, query) category pairs for scenario 2).
    pub fn m_optimal(&self, scenario: Scenario) -> usize {
        match scenario {
            Scenario::SameCategory | Scenario::Uniform => self.n_categories,
            Scenario::DifferentCategory => self.n_categories * (self.n_categories - 1),
        }
    }

    fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            n_categories: self.n_categories,
            vocab_per_category: self.vocab_per_category,
            shared_vocab: 30,
            docs_per_category: self.peers_per_category() * self.docs_per_peer
                + self.holdout_per_category,
            content_words_per_doc: 18,
            shared_words_per_doc: 2,
            zipf_exponent: self.vocab_zipf,
            seed: derive_seed(self.seed, 0xC0),
        }
    }
}

/// A fully built testbed.
#[derive(Debug, Clone)]
pub struct TestBed {
    /// The game state (overlay + content + workloads + parameters).
    pub system: System,
    /// The generated corpus (kept for update generation and query
    /// sampling).
    pub corpus: Corpus,
    /// Data category of each peer (for Uniform, the category of its
    /// first document).
    pub peer_category: Vec<usize>,
    /// Query-target category of each peer (`None` in the Uniform
    /// scenario).
    pub query_category: Vec<Option<usize>>,
    /// Undistributed articles per category — the §4.2 replacement pool.
    pub holdout: Vec<Vec<Document>>,
    /// The scenario's optimal cluster count `M`.
    pub m_optimal: usize,
    /// Per-peer query demand (counts summing to `total_queries`).
    pub demand: Vec<u64>,
    /// Articles per category that are actually distributed to peers (the
    /// rest is the hold-out pool); query sampling is limited to these.
    pub distributable_per_category: usize,
}

/// Builds the testbed for a scenario and initial configuration.
///
/// # Panics
/// Panics if `n_peers` is not divisible by `n_categories`.
pub fn build_system(scenario: Scenario, init: InitialConfig, cfg: &ExperimentConfig) -> TestBed {
    assert_eq!(
        cfg.n_peers % cfg.n_categories,
        0,
        "peers must divide evenly over categories"
    );
    let corpus = Corpus::generate(cfg.corpus_config());
    let (store, peer_category, holdout) = distribute_content(scenario, cfg, &corpus);
    let (workloads, query_category, demand) =
        build_workloads(scenario, cfg, &corpus, &peer_category);
    let overlay = build_initial_overlay(scenario, init, cfg);
    let system = System::new(
        overlay,
        store,
        workloads,
        GameConfig {
            alpha: cfg.alpha,
            theta: cfg.theta,
        },
    );
    TestBed {
        system,
        corpus,
        peer_category,
        query_category,
        holdout,
        m_optimal: cfg.m_optimal(scenario),
        demand,
        distributable_per_category: cfg.peers_per_category() * cfg.docs_per_peer,
    }
}

/// Builds the "good" configuration the §4.2 experiments start from: the
/// scenario-1 testbed with the ideal clustering (cluster `k` = all peers
/// of category `k`) and uniform demand, per the paper's setup.
pub fn ideal_scenario1_system(cfg: &ExperimentConfig) -> TestBed {
    let mut cfg = cfg.clone();
    cfg.demand = DemandSplit::Uniform;
    let corpus = Corpus::generate(cfg.corpus_config());
    let (store, peer_category, holdout) = distribute_content(Scenario::SameCategory, &cfg, &corpus);
    let (workloads, query_category, demand) =
        build_workloads(Scenario::SameCategory, &cfg, &corpus, &peer_category);
    let mut overlay = Overlay::unassigned(cfg.n_peers);
    for (i, &cat) in peer_category.iter().enumerate() {
        overlay.assign(PeerId::from_index(i), ClusterId::from_index(cat));
    }
    let system = System::new(
        overlay,
        store,
        workloads,
        GameConfig {
            alpha: cfg.alpha,
            theta: cfg.theta,
        },
    );
    TestBed {
        system,
        corpus,
        peer_category,
        query_category,
        holdout,
        m_optimal: cfg.m_optimal(Scenario::SameCategory),
        demand,
        distributable_per_category: cfg.peers_per_category() * cfg.docs_per_peer,
    }
}

fn distribute_content(
    scenario: Scenario,
    cfg: &ExperimentConfig,
    corpus: &Corpus,
) -> (ContentStore, Vec<usize>, Vec<Vec<Document>>) {
    let mut store = ContentStore::new(cfg.n_peers);
    let mut peer_category = vec![0usize; cfg.n_peers];
    let ppc = cfg.peers_per_category();
    let distributable = ppc * cfg.docs_per_peer;
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xD1));

    match scenario {
        Scenario::SameCategory | Scenario::DifferentCategory => {
            for cat in 0..cfg.n_categories {
                let docs = corpus.docs(cat);
                for j in 0..ppc {
                    let peer = PeerId::from_index(cat * ppc + j);
                    peer_category[peer.index()] = cat;
                    for d in 0..cfg.docs_per_peer {
                        store.add(peer, docs[j * cfg.docs_per_peer + d].clone());
                    }
                }
            }
        }
        Scenario::Uniform => {
            for (i, slot) in peer_category.iter_mut().enumerate() {
                let peer = PeerId::from_index(i);
                for d in 0..cfg.docs_per_peer {
                    let cat = rng.gen_range(0..cfg.n_categories);
                    let idx = rng.gen_range(0..distributable);
                    if d == 0 {
                        *slot = cat;
                    }
                    store.add(peer, corpus.docs(cat)[idx].clone());
                }
            }
        }
    }

    let holdout = (0..cfg.n_categories)
        .map(|cat| corpus.docs(cat)[distributable..].to_vec())
        .collect();
    (store, peer_category, holdout)
}

fn build_workloads(
    scenario: Scenario,
    cfg: &ExperimentConfig,
    corpus: &Corpus,
    peer_category: &[usize],
) -> (Vec<Workload>, Vec<Option<usize>>, Vec<u64>) {
    let demand = match cfg.demand {
        DemandSplit::Zipf(s) => WorkloadBuilder::zipf_demand(cfg.n_peers, cfg.total_queries, s),
        DemandSplit::Uniform => WorkloadBuilder::uniform_demand(cfg.n_peers, cfg.total_queries),
    };
    let distributable = cfg.peers_per_category() * cfg.docs_per_peer;
    let mut builder = WorkloadBuilder::new(cfg.query_bias).with_doc_limit(distributable);
    if let Some(k) = cfg.focus {
        builder = builder.with_focus(k);
    }
    let ppc = cfg.peers_per_category();
    let dpp = cfg.docs_per_peer;
    // The documents assigned to peer slot `j` of `category` (matching
    // `distribute_content`'s layout).
    let slice = |category: usize, j: usize| &corpus.docs(category)[j * dpp..(j + 1) * dpp];
    // One query sampler per category, built lazily and shared by every
    // peer of the category: construction walks the category's visible
    // docs, which at the 100k-peer scale is far more work than the
    // draws themselves. The draws are identical either way (the sampler
    // holds no RNG state).
    let mut samplers: Vec<Option<QuerySampler>> = vec![None; cfg.n_categories];
    // A Uniform peer mixes every category, so that scenario builds them
    // all up front.
    let mix: Vec<QuerySampler> = match scenario {
        Scenario::Uniform => (0..cfg.n_categories)
            .map(|c| builder.sampler(corpus, c))
            .collect(),
        _ => Vec::new(),
    };
    let mut workloads = Vec::with_capacity(cfg.n_peers);
    let mut query_category = Vec::with_capacity(cfg.n_peers);
    for i in 0..cfg.n_peers {
        let mut rng = seeded_rng(derive_seed(cfg.seed, 0xE000 + i as u64));
        let j = i % ppc;
        let (workload, qcat) = match scenario {
            Scenario::SameCategory => {
                // The peer queries random words from its category's
                // texts: demand spread across the category's providers,
                // so the whole category coalesces into one cluster.
                let cat = peer_category[i];
                let sampler = samplers[cat].get_or_insert_with(|| builder.sampler(corpus, cat));
                (builder.build_with(sampler, demand[i], &mut rng), Some(cat))
            }
            Scenario::DifferentCategory => {
                // Peer j targets another category chosen by a round-robin
                // tournament schedule, which makes interests *mutual*:
                // peer (c, j) is interested in the articles of peer
                // (qcat, j), and that peer is interested in (c, j)'s. The
                // paper engineered this scenario so that "ideally [it]
                // would result to equal sized clusters" — mutual
                // provider/consumer pairs, covering all (data, query)
                // category pairs across j.
                let cat = peer_category[i];
                let qcat = tournament_opponent(cat, j % (cfg.n_categories - 1), cfg.n_categories);
                let focused = WorkloadBuilder::new(QueryBias::Rare).with_doc_limit(distributable);
                let focused = match cfg.focus {
                    Some(k) => focused.with_focus(k),
                    None => focused,
                };
                (
                    focused.build_from_docs(corpus, qcat, slice(qcat, j), demand[i], &mut rng),
                    Some(qcat),
                )
            }
            Scenario::Uniform => (builder.build_uniform_mix(&mix, demand[i], &mut rng), None),
        };
        workloads.push(workload);
        query_category.push(qcat);
    }
    (workloads, query_category, demand)
}

/// Round-robin tournament (circle method) opponent of `team` in round
/// `round`, over `k` teams (`k` even, `round < k − 1`). The relation is
/// symmetric: `opponent(opponent(c, r), r) == c`, which is what makes the
/// scenario-2 interests mutual.
pub fn tournament_opponent(team: usize, round: usize, k: usize) -> usize {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "tournament pairing needs an even category count"
    );
    assert!(round < k - 1, "round out of range");
    let m = k - 1;
    if team == m {
        return round;
    }
    if team == round {
        return m;
    }
    (2 * round + m - team) % m
}

fn build_initial_overlay(
    scenario: Scenario,
    init: InitialConfig,
    cfg: &ExperimentConfig,
) -> Overlay {
    match init {
        InitialConfig::Singletons => Overlay::singletons(cfg.n_peers),
        _ => {
            let m = init.cluster_count(cfg.m_optimal(scenario), cfg.n_peers);
            let mut overlay = Overlay::unassigned(cfg.n_peers);
            let mut rng = seeded_rng(derive_seed(cfg.seed, 0xA5));
            for i in 0..cfg.n_peers {
                let c = rng.gen_range(0..m);
                overlay.assign(PeerId::from_index(i), ClusterId::from_index(c));
            }
            overlay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_category_gives_each_peer_own_category_docs() {
        let tb = build_system(
            Scenario::SameCategory,
            InitialConfig::Singletons,
            &ExperimentConfig::small(1),
        );
        for i in 0..40 {
            let cat = tb.peer_category[i];
            assert_eq!(cat, i / 10);
            assert_eq!(tb.query_category[i], Some(cat));
            let docs = tb.system.store().docs(PeerId::from_index(i));
            assert_eq!(docs.len(), 6);
            for d in docs {
                let owned = d
                    .attrs()
                    .iter()
                    .filter_map(|&s| tb.corpus.category_of(s))
                    .next();
                assert_eq!(owned, Some(cat));
            }
        }
    }

    #[test]
    fn different_category_queries_avoid_own_category() {
        let tb = build_system(
            Scenario::DifferentCategory,
            InitialConfig::Singletons,
            &ExperimentConfig::small(2),
        );
        for i in 0..40 {
            let qc = tb.query_category[i].unwrap();
            assert_ne!(qc, tb.peer_category[i]);
        }
        // All 4·3 = 12 pairs must occur.
        let pairs: std::collections::HashSet<_> = (0..40)
            .map(|i| (tb.peer_category[i], tb.query_category[i].unwrap()))
            .collect();
        assert_eq!(pairs.len(), 12);
        assert_eq!(tb.m_optimal, 12);
    }

    #[test]
    fn uniform_scenario_mixes_categories() {
        let tb = build_system(
            Scenario::Uniform,
            InitialConfig::Singletons,
            &ExperimentConfig::small(3),
        );
        let cats: std::collections::HashSet<_> = tb.peer_category.iter().copied().collect();
        assert!(cats.len() > 1, "uniform content must span categories");
        assert!(tb.query_category.iter().all(Option::is_none));
    }

    #[test]
    fn demand_sums_to_total_queries() {
        let cfg = ExperimentConfig::small(4);
        let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
        assert_eq!(tb.demand.iter().sum::<u64>(), cfg.total_queries);
        let workload_total: u64 = tb.system.workloads().iter().map(|w| w.total()).sum();
        assert_eq!(workload_total, cfg.total_queries);
    }

    #[test]
    fn zipf_demand_is_skewed_uniform_is_not() {
        let mut cfg = ExperimentConfig::small(5);
        let zipf = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
        assert!(zipf.demand.iter().max() > zipf.demand.iter().min());
        cfg.demand = DemandSplit::Uniform;
        let uni = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
        let max = uni.demand.iter().max().unwrap();
        let min = uni.demand.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn initial_configs_produce_expected_cluster_counts() {
        let cfg = ExperimentConfig::small(6);
        let m = cfg.m_optimal(Scenario::SameCategory);
        assert_eq!(m, 4);
        let counts = [
            (InitialConfig::Singletons, 40),
            (InitialConfig::RandomM, 4),
            (InitialConfig::Fewer, 2),
            (InitialConfig::More, 6),
        ];
        for (init, expected_slots) in counts {
            let tb = build_system(Scenario::SameCategory, init, &cfg);
            let used = tb.system.overlay().non_empty_clusters();
            assert!(
                used <= expected_slots,
                "{init:?}: used {used} > slots {expected_slots}"
            );
            if init == InitialConfig::Singletons {
                assert_eq!(used, 40);
            }
            tb.system.overlay().check_invariants().unwrap();
        }
    }

    #[test]
    fn holdout_pool_has_requested_size() {
        let cfg = ExperimentConfig::small(7);
        let tb = build_system(Scenario::SameCategory, InitialConfig::Singletons, &cfg);
        assert_eq!(tb.holdout.len(), 4);
        for pool in &tb.holdout {
            assert_eq!(pool.len(), cfg.holdout_per_category);
        }
    }

    #[test]
    fn ideal_scenario1_is_one_cluster_per_category() {
        let cfg = ExperimentConfig::small(8);
        let tb = ideal_scenario1_system(&cfg);
        assert_eq!(tb.system.overlay().non_empty_clusters(), 4);
        for i in 0..40 {
            assert_eq!(
                tb.system.overlay().cluster_of(PeerId::from_index(i)),
                Some(ClusterId::from_index(tb.peer_category[i]))
            );
        }
        // Demand forced uniform per §4.2.
        let max = tb.demand.iter().max().unwrap();
        let min = tb.demand.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn ideal_scenario1_has_low_cost() {
        let cfg = ExperimentConfig::small(9);
        let tb = ideal_scenario1_system(&cfg);
        let scost = recluster_core::scost_normalized(&tb.system);
        // 4 clusters of 10 among 40 peers, α=1, linear θ → membership
        // 10/40 = 0.25; recall loss ~0 (all category data in-cluster).
        assert!(
            (scost - 0.25).abs() < 0.02,
            "ideal clustering should cost ≈0.25, got {scost}"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let cfg = ExperimentConfig::small(10);
        let a = build_system(Scenario::DifferentCategory, InitialConfig::RandomM, &cfg);
        let b = build_system(Scenario::DifferentCategory, InitialConfig::RandomM, &cfg);
        assert_eq!(a.system.overlay(), b.system.overlay());
        assert_eq!(a.system.workloads(), b.system.workloads());
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_peers_panic() {
        let mut cfg = ExperimentConfig::small(11);
        cfg.n_peers = 41;
        let _ = build_system(Scenario::SameCategory, InitialConfig::Singletons, &cfg);
    }
}
