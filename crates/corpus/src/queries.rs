//! Query and workload generation.
//!
//! "Queries are generated by choosing a random word from the texts" (§4).
//! [`QuerySampler`] draws single-keyword queries from a category's texts
//! under a configurable bias, and [`WorkloadBuilder`] assembles per-peer
//! workloads, including the Zipf split of demand across peers used in
//! §4.1 ("some peers are more demanding than others") and the uniform
//! split used in §4.2.

use rand::Rng;
use recluster_types::{Query, Sym, Workload};

use crate::generator::{count_doc_freq, Corpus};
use crate::zipf::Zipf;

/// How query words are drawn "from the texts".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryBias {
    /// Proportional to token occurrences — literally "a random word from
    /// the texts".
    Occurrence,
    /// Uniform over the words that appear in at least one article.
    Uniform,
    /// Proportional to *inverse* document frequency: favours rare,
    /// discriminative words (results concentrated on few peers).
    Rare,
}

/// Samples single-keyword queries from one category of a [`Corpus`].
#[derive(Debug, Clone)]
pub struct QuerySampler {
    syms: Vec<Sym>,
    /// Cumulative weights over `syms`.
    cdf: Vec<f64>,
}

impl QuerySampler {
    /// Builds a sampler over `category`'s words present in the texts.
    ///
    /// # Panics
    /// Panics if the category has no word with nonzero occurrences.
    pub fn new(corpus: &Corpus, category: usize, bias: QueryBias) -> Self {
        Self::within_docs(corpus, category, bias, None)
    }

    /// Like [`QuerySampler::new`], but restricted to words appearing in
    /// the first `doc_limit` articles of the category. Experiments use
    /// this to sample queries only from the *distributed* articles — the
    /// held-out replacement pool of the §4.2 data updates does not exist
    /// in the system yet, so nobody can have read (and be querying) it.
    ///
    /// # Panics
    /// Panics if no word remains sampleable under the limit.
    pub fn within_docs(
        corpus: &Corpus,
        category: usize,
        bias: QueryBias,
        doc_limit: Option<usize>,
    ) -> Self {
        let syms = corpus.category_syms(category);
        let occ = corpus.occurrences(category);
        let df: Vec<u32> = match doc_limit {
            None => corpus.doc_freq(category).to_vec(),
            Some(limit) => {
                let docs = corpus.docs(category);
                count_doc_freq(
                    syms,
                    &docs[..limit.min(docs.len())],
                    corpus.interner().len(),
                )
            }
        };
        let mut kept = Vec::new();
        let mut weights = Vec::new();
        for (i, &s) in syms.iter().enumerate() {
            if occ[i] == 0 || df[i] == 0 {
                continue; // never appeared in the (visible) texts
            }
            let w = match bias {
                QueryBias::Occurrence => occ[i] as f64,
                QueryBias::Uniform => 1.0,
                QueryBias::Rare => 1.0 / df[i] as f64,
            };
            kept.push(s);
            weights.push(w);
        }
        assert!(
            !kept.is_empty(),
            "category {category} has no sampleable words"
        );
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cdf.push(acc);
        }
        QuerySampler { syms: kept, cdf }
    }

    /// Number of sampleable words.
    pub fn support(&self) -> usize {
        self.syms.len()
    }

    /// Draws one keyword query.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Query {
        Query::keyword(self.sample_sym(rng))
    }

    /// Draws one keyword symbol.
    pub fn sample_sym<R: Rng + ?Sized>(&self, rng: &mut R) -> Sym {
        self.syms[self.sample_index(rng)]
    }

    /// Draws one keyword symbol as its position in
    /// [`symbols`](Self::symbols), with the draws of
    /// [`sample_sym`](Self::sample_sym).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cdf.last().expect("non-empty");
        let u = rng.gen::<f64>() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.syms.len() - 1)
    }

    /// The sampleable words, in the order [`sample_index`](Self::sample_index)
    /// indexes them.
    pub fn symbols(&self) -> &[Sym] {
        &self.syms
    }
}

/// Builds per-peer query workloads over a corpus.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    bias: QueryBias,
    /// Distinct words a peer focuses on (its "interest"); queries are
    /// drawn from this pool. `None` means the whole category vocabulary.
    focus: Option<usize>,
    /// Restrict sampling to words of the first `n` articles per category
    /// (see [`QuerySampler::within_docs`]).
    doc_limit: Option<usize>,
}

impl WorkloadBuilder {
    /// A builder drawing occurrence-weighted queries over the full
    /// category vocabulary.
    pub fn new(bias: QueryBias) -> Self {
        WorkloadBuilder {
            bias,
            focus: None,
            doc_limit: None,
        }
    }

    /// Restricts each peer to a pool of `k` distinct interest words.
    pub fn with_focus(mut self, k: usize) -> Self {
        self.focus = Some(k.max(1));
        self
    }

    /// Restricts query words to the first `n` articles of each category
    /// (the distributed portion; held-out articles are invisible).
    pub fn with_doc_limit(mut self, n: usize) -> Self {
        self.doc_limit = Some(n);
        self
    }

    /// The sampler [`WorkloadBuilder::build`] uses for `category` —
    /// construction walks the category's visible docs, so callers
    /// building many workloads of the *same* category (testbed setup,
    /// churn joins) should build it once and use
    /// [`WorkloadBuilder::build_with`] per peer.
    pub fn sampler(&self, corpus: &Corpus, category: usize) -> QuerySampler {
        QuerySampler::within_docs(corpus, category, self.bias, self.doc_limit)
    }

    /// Builds one peer's workload of `n_queries` draws targeting
    /// `category`.
    pub fn build<R: Rng + ?Sized>(
        &self,
        corpus: &Corpus,
        category: usize,
        n_queries: u64,
        rng: &mut R,
    ) -> Workload {
        self.build_with(&self.sampler(corpus, category), n_queries, rng)
    }

    /// [`WorkloadBuilder::build`] over a prebuilt [`QuerySampler`] —
    /// identical draws (the sampler holds no RNG state), without paying
    /// the sampler construction per peer.
    pub fn build_with<R: Rng + ?Sized>(
        &self,
        sampler: &QuerySampler,
        n_queries: u64,
        rng: &mut R,
    ) -> Workload {
        let mut workload = Workload::new();
        match self.focus {
            None => {
                for _ in 0..n_queries {
                    workload.add(sampler.sample(rng), 1);
                }
            }
            Some(k) => {
                let mut pool = Vec::with_capacity(k);
                // Rejection-sample distinct interest words (pool is small
                // relative to the vocabulary, so this terminates fast).
                let mut guard = 0;
                while pool.len() < k.min(sampler.support()) && guard < 10_000 {
                    let s = sampler.sample_sym(rng);
                    if !pool.contains(&s) {
                        pool.push(s);
                    }
                    guard += 1;
                }
                for _ in 0..n_queries {
                    let s = pool[rng.gen_range(0..pool.len())];
                    workload.add(Query::keyword(s), 1);
                }
            }
        }
        workload
    }

    /// Builds one peer's workload whose query words are drawn from a
    /// specific *document set* (e.g. the peer's own articles, or the
    /// articles of the peer it is interested in), restricted to
    /// `category`'s vocabulary. This is the reading of "choosing a
    /// random word from the texts" that concentrates a peer's demand on
    /// few providers — the regime in which the paper's cluster dynamics
    /// (pairing in scenario 2, splits from stacked clusters) arise.
    ///
    /// Falls back to category-wide sampling when `docs` contains no
    /// category word.
    pub fn build_from_docs<R: Rng + ?Sized>(
        &self,
        corpus: &Corpus,
        category: usize,
        docs: &[recluster_types::Document],
        n_queries: u64,
        rng: &mut R,
    ) -> Workload {
        // Candidate words: category-owned attributes present in `docs`.
        // (The docs themselves are in-system, so no doc_limit filtering
        // is needed; df is only a rarity weight here.)
        let syms_in_cat = corpus.category_syms(category);
        let df = corpus.doc_freq(category);
        let occ = corpus.occurrences(category);
        let mut candidates: Vec<(Sym, f64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for doc in docs {
            for &attr in doc.attrs() {
                if corpus.category_of(attr) == Some(category) && seen.insert(attr) {
                    let idx = syms_in_cat
                        .iter()
                        .position(|&s| s == attr)
                        .expect("category word is in the category vocabulary");
                    if df[idx] == 0 || occ[idx] == 0 {
                        continue;
                    }
                    let w = match self.bias {
                        QueryBias::Occurrence => occ[idx] as f64,
                        QueryBias::Uniform => 1.0,
                        QueryBias::Rare => 1.0 / df[idx] as f64,
                    };
                    candidates.push((attr, w));
                }
            }
        }
        if candidates.is_empty() {
            return self.build(corpus, category, n_queries, rng);
        }
        // Optional focus: keep the k heaviest-weight interest words,
        // breaking ties by symbol id for determinism.
        if let Some(k) = self.focus {
            candidates.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            candidates.truncate(k.max(1));
        }
        let mut cdf = Vec::with_capacity(candidates.len());
        let mut acc = 0.0;
        for &(_, w) in &candidates {
            acc += w;
            cdf.push(acc);
        }
        let mut workload = Workload::new();
        for _ in 0..n_queries {
            let u = rng.gen::<f64>() * acc;
            let i = cdf.partition_point(|&c| c <= u).min(candidates.len() - 1);
            workload.add(Query::keyword(candidates[i].0), 1);
        }
        workload
    }

    /// Builds one peer's workload mixing all categories uniformly at
    /// random (the paper's third scenario), over one prebuilt sampler per
    /// category ([`WorkloadBuilder::sampler`]): the samplers hold no RNG
    /// state, so every peer of a testbed can share them.
    pub fn build_uniform_mix<R: Rng + ?Sized>(
        &self,
        samplers: &[QuerySampler],
        n_queries: u64,
        rng: &mut R,
    ) -> Workload {
        let mut workload = Workload::new();
        for _ in 0..n_queries {
            let c = rng.gen_range(0..samplers.len());
            workload.add(samplers[c].sample(rng), 1);
        }
        workload
    }

    /// Splits a total demand of `total_queries` across `n_peers` with a
    /// Zipf law (exponent `s`), as in §4.1. Returns per-peer query counts
    /// summing exactly to `total_queries`.
    pub fn zipf_demand(n_peers: usize, total_queries: u64, s: f64) -> Vec<u64> {
        Zipf::new(n_peers, s).integer_shares(total_queries)
    }

    /// Splits demand equally ("the total query workload is assigned
    /// uniformly to peers", §4.2); remainder goes to the lowest peer ids.
    pub fn uniform_demand(n_peers: usize, total_queries: u64) -> Vec<u64> {
        assert!(n_peers > 0);
        let base = total_queries / n_peers as u64;
        let extra = (total_queries % n_peers as u64) as usize;
        (0..n_peers).map(|i| base + u64::from(i < extra)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusConfig;
    use recluster_types::seeded_rng;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            n_categories: 3,
            vocab_per_category: 40,
            shared_vocab: 8,
            docs_per_category: 40,
            content_words_per_doc: 12,
            shared_words_per_doc: 1,
            zipf_exponent: 1.0,
            seed: 77,
        })
    }

    #[test]
    fn sampled_queries_come_from_target_category() {
        let c = corpus();
        let s = QuerySampler::new(&c, 1, QueryBias::Occurrence);
        let mut rng = seeded_rng(1);
        for _ in 0..200 {
            let q = s.sample(&mut rng);
            assert_eq!(c.category_of(q.attrs()[0]), Some(1));
        }
    }

    #[test]
    fn sampled_words_appear_in_the_texts() {
        let c = corpus();
        for bias in [QueryBias::Occurrence, QueryBias::Uniform, QueryBias::Rare] {
            let s = QuerySampler::new(&c, 0, bias);
            let mut rng = seeded_rng(2);
            for _ in 0..100 {
                let sym = s.sample_sym(&mut rng);
                let hits = c.docs(0).iter().filter(|d| d.contains(sym)).count();
                assert!(hits > 0, "query word must appear in some article");
            }
        }
    }

    /// Under a document limit, the sampler equals one built from a scan
    /// of the visible documents per vocabulary word, to the bit.
    #[test]
    fn doc_limit_matches_a_per_word_scan() {
        let c = corpus();
        let cat = 1;
        let n_docs = c.docs(cat).len();
        for bias in [QueryBias::Occurrence, QueryBias::Uniform, QueryBias::Rare] {
            let mut supports = Vec::new();
            for limit in [1, n_docs / 2, n_docs, n_docs + 5] {
                let visible = &c.docs(cat)[..limit.min(n_docs)];
                let mut syms = Vec::new();
                let mut cdf = Vec::new();
                let mut acc = 0.0;
                for (&s, &occ) in c.category_syms(cat).iter().zip(c.occurrences(cat)) {
                    let df = visible.iter().filter(|d| d.contains(s)).count();
                    if occ == 0 || df == 0 {
                        continue;
                    }
                    acc += match bias {
                        QueryBias::Occurrence => occ as f64,
                        QueryBias::Uniform => 1.0,
                        QueryBias::Rare => 1.0 / df as f64,
                    };
                    syms.push(s);
                    cdf.push(acc.to_bits());
                }
                let sampler = QuerySampler::within_docs(&c, cat, bias, Some(limit));
                assert_eq!(sampler.syms, syms, "{bias:?}, limit {limit}");
                let bits: Vec<u64> = sampler.cdf.iter().map(|w| w.to_bits()).collect();
                assert_eq!(bits, cdf, "{bias:?}, limit {limit}");
                supports.push(sampler.support());
            }
            assert!(supports[0] < supports[2], "the limit must hide words");
        }
    }

    #[test]
    fn occurrence_bias_prefers_head_words() {
        let c = corpus();
        let s_occ = QuerySampler::new(&c, 0, QueryBias::Occurrence);
        let s_rare = QuerySampler::new(&c, 0, QueryBias::Rare);
        let mut rng = seeded_rng(3);
        let df = |sym| {
            let idx = c.category_syms(0).iter().position(|&x| x == sym).unwrap();
            c.doc_freq(0)[idx] as f64
        };
        let avg = |s: &QuerySampler, rng: &mut rand::rngs::StdRng| {
            (0..500).map(|_| df(s.sample_sym(rng))).sum::<f64>() / 500.0
        };
        let occ_df = avg(&s_occ, &mut rng);
        let rare_df = avg(&s_rare, &mut rng);
        assert!(
            occ_df > rare_df,
            "occurrence bias must pick more common words ({occ_df} vs {rare_df})"
        );
    }

    #[test]
    fn workload_has_requested_size() {
        let c = corpus();
        let mut rng = seeded_rng(4);
        let w = WorkloadBuilder::new(QueryBias::Uniform).build(&c, 2, 50, &mut rng);
        assert_eq!(w.total(), 50);
    }

    #[test]
    fn focused_workload_limits_distinct_queries() {
        let c = corpus();
        let mut rng = seeded_rng(5);
        let w = WorkloadBuilder::new(QueryBias::Uniform)
            .with_focus(4)
            .build(&c, 0, 100, &mut rng);
        assert_eq!(w.total(), 100);
        assert!(w.distinct() <= 4);
    }

    #[test]
    fn uniform_mix_spans_categories() {
        let c = corpus();
        let mut rng = seeded_rng(6);
        let builder = WorkloadBuilder::new(QueryBias::Uniform);
        let samplers: Vec<QuerySampler> = (0..c.n_categories())
            .map(|cat| builder.sampler(&c, cat))
            .collect();
        let w = builder.build_uniform_mix(&samplers, 300, &mut rng);
        let mut cats_seen = std::collections::HashSet::new();
        for (q, _) in w.iter() {
            cats_seen.insert(c.category_of(q.attrs()[0]).unwrap());
        }
        assert!(cats_seen.len() >= 2, "mix must span multiple categories");
    }

    #[test]
    fn zipf_demand_sums_and_skews() {
        let shares = WorkloadBuilder::zipf_demand(10, 1000, 1.0);
        assert_eq!(shares.iter().sum::<u64>(), 1000);
        assert!(shares[0] > shares[9]);
    }

    #[test]
    fn uniform_demand_is_balanced() {
        let shares = WorkloadBuilder::uniform_demand(7, 23);
        assert_eq!(shares.iter().sum::<u64>(), 23);
        let min = shares.iter().min().unwrap();
        let max = shares.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let c = corpus();
        let b = WorkloadBuilder::new(QueryBias::Occurrence);
        let w1 = b.build(&c, 0, 30, &mut seeded_rng(9));
        let w2 = b.build(&c, 0, 30, &mut seeded_rng(9));
        assert_eq!(w1, w2);
    }
}
