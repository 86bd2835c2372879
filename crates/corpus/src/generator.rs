//! Synthetic article generation.
//!
//! An article is drawn straight as a sequence of symbols: Zipf-sampled
//! content words from the category's vocabulary, then a few shared
//! background words, each preceded one time in three by an English
//! stop-word that is drawn and dropped. Each drawn word becomes the
//! symbol of its stem. That is exactly what the paper's preprocessing
//! (stop-word removal and lemmatization, here [`TextPipeline`]) makes of
//! the same article rendered as raw text, because [`VocabularyBuilder`]
//! guarantees three things about every vocabulary word: it is a single
//! lowercase alphabetic token, it is not a stop-word, and its stem is
//! distinct and at least 3 letters long. The tests keep the rendering
//! plus the pipeline as the oracle and hold the draw to it bit for bit.
//!
//! The output is a set-of-attributes [`Document`] per article, grouped by
//! category, plus the occurrence and document-frequency statistics the
//! query samplers need.
//!
//! [`TextPipeline`]: crate::TextPipeline

use rand::Rng;
use recluster_types::{derive_seed, seeded_rng, Document, Interner, Sym};

use crate::pipeline::{stem, STOPWORDS};
use crate::vocabulary::VocabularyBuilder;
use crate::zipf::Zipf;

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of article categories (the paper uses 10).
    pub n_categories: usize,
    /// Distinct content words per category vocabulary.
    pub vocab_per_category: usize,
    /// Distinct background words shared by all categories.
    pub shared_vocab: usize,
    /// Articles generated per category.
    pub docs_per_category: usize,
    /// Content-word draws per article (with replacement; the article's
    /// attribute set is typically slightly smaller).
    pub content_words_per_doc: usize,
    /// Shared-background-word draws per article.
    pub shared_words_per_doc: usize,
    /// Zipf exponent for the rank-frequency law of content words.
    pub zipf_exponent: f64,
    /// Master seed; the whole corpus is a pure function of the config.
    pub seed: u64,
}

impl Default for CorpusConfig {
    /// Defaults sized like the paper's testbed: 10 categories, enough
    /// articles for 200 peers to hold a handful each.
    fn default() -> Self {
        CorpusConfig {
            n_categories: 10,
            vocab_per_category: 120,
            shared_vocab: 30,
            docs_per_category: 200,
            content_words_per_doc: 18,
            shared_words_per_doc: 2,
            zipf_exponent: 0.8,
            seed: 0xC0FFEE,
        }
    }
}

/// A generated corpus: documents grouped by category plus vocabulary
/// statistics.
#[derive(Debug, Clone)]
pub struct Corpus {
    config: CorpusConfig,
    interner: Interner,
    /// Rank-ordered stemmed symbols per category.
    category_syms: Vec<Vec<Sym>>,
    /// Stemmed symbols of the shared background vocabulary.
    shared_syms: Vec<Sym>,
    /// Documents per category.
    docs_by_category: Vec<Vec<Document>>,
    /// Occurrence counts aligned with `category_syms`: how many times
    /// each word was drawn into the category's articles, which is the
    /// token count preprocessing the rendered texts would record.
    occurrences: Vec<Vec<u64>>,
    /// Document frequencies aligned with `category_syms`.
    doc_freq: Vec<Vec<u32>>,
    /// Reverse map: symbol index → owning category (`None` for shared).
    sym_category: Vec<Option<u32>>,
}

impl Corpus {
    /// Generates a corpus from `config`. Deterministic.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(config.n_categories > 0, "need at least one category");
        assert!(config.vocab_per_category > 0, "need a non-empty vocabulary");
        let vocab = VocabularyBuilder::new(
            config.n_categories,
            config.vocab_per_category,
            config.shared_vocab,
            config.seed,
        )
        .build();
        let mut categories: Vec<Lexicon> = vocab
            .categories
            .iter()
            .map(|c| Lexicon::new(&c.words))
            .collect();
        let mut shared = Lexicon::new(&vocab.shared);

        let mut interner = Interner::new();
        // Every symbol is a vocabulary stem, so the vocabulary bounds
        // the symbol space.
        let mut token_counts =
            vec![0u64; config.n_categories * config.vocab_per_category + config.shared_vocab];
        let mut rng = seeded_rng(derive_seed(config.seed, 1));
        let zipf = Zipf::new(config.vocab_per_category, config.zipf_exponent);

        let docs_by_category: Vec<Vec<Document>> = categories
            .iter_mut()
            .map(|own| {
                (0..config.docs_per_category)
                    .map(|_| {
                        let tokens =
                            draw_article(own, &mut shared, &zipf, &config, &mut interner, &mut rng);
                        for s in &tokens {
                            token_counts[s.index()] += 1;
                        }
                        Document::new(tokens)
                    })
                    .collect()
            })
            .collect();

        // Intern the words no article drew, in rank order after every
        // drawn one, with zero counts.
        let category_syms: Vec<Vec<Sym>> = categories
            .iter_mut()
            .map(|lexicon| lexicon.all_syms(&mut interner))
            .collect();
        let shared_syms = shared.all_syms(&mut interner);

        let occurrences: Vec<Vec<u64>> = category_syms
            .iter()
            .map(|syms| syms.iter().map(|s| token_counts[s.index()]).collect())
            .collect();

        let mut sym_category = vec![None; interner.len()];
        for (cat, syms) in category_syms.iter().enumerate() {
            for &s in syms {
                sym_category[s.index()] = Some(cat as u32);
            }
        }

        let doc_freq = category_syms
            .iter()
            .zip(&docs_by_category)
            .map(|(syms, docs)| count_doc_freq(syms, docs, interner.len()))
            .collect();

        Corpus {
            config,
            interner,
            category_syms,
            shared_syms,
            docs_by_category,
            occurrences,
            doc_freq,
            sym_category,
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Number of categories.
    pub fn n_categories(&self) -> usize {
        self.config.n_categories
    }

    /// The interner mapping stemmed words to symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Documents of one category.
    pub fn docs(&self, category: usize) -> &[Document] {
        &self.docs_by_category[category]
    }

    /// Rank-ordered stemmed symbols of one category's vocabulary.
    pub fn category_syms(&self, category: usize) -> &[Sym] {
        &self.category_syms[category]
    }

    /// Stemmed symbols of the shared background vocabulary.
    pub fn shared_syms(&self) -> &[Sym] {
        &self.shared_syms
    }

    /// Token occurrences of each category word (aligned with
    /// [`Corpus::category_syms`]).
    pub fn occurrences(&self, category: usize) -> &[u64] {
        &self.occurrences[category]
    }

    /// Document frequency (how many of the category's articles contain
    /// the word) aligned with [`Corpus::category_syms`].
    pub fn doc_freq(&self, category: usize) -> &[u32] {
        &self.doc_freq[category]
    }

    /// The category owning `sym`, or `None` for shared/unknown symbols.
    pub fn category_of(&self, sym: Sym) -> Option<usize> {
        self.sym_category
            .get(sym.index())
            .copied()
            .flatten()
            .map(|c| c as usize)
    }

    /// Total number of documents across all categories.
    pub fn total_docs(&self) -> usize {
        self.docs_by_category.iter().map(Vec::len).sum()
    }
}

/// One vocabulary as preprocessing would intern it: each word's stem,
/// and its symbol once the word has been drawn.
struct Lexicon {
    stems: Vec<String>,
    syms: Vec<Option<Sym>>,
}

impl Lexicon {
    fn new(words: &[String]) -> Self {
        Lexicon {
            stems: words.iter().map(|w| stem(w)).collect(),
            syms: vec![None; words.len()],
        }
    }

    fn len(&self) -> usize {
        self.stems.len()
    }

    fn is_empty(&self) -> bool {
        self.stems.is_empty()
    }

    /// The symbol of word `i`, interned the first time it is asked for.
    fn sym(&mut self, i: usize, interner: &mut Interner) -> Sym {
        let stems = &self.stems;
        *self.syms[i].get_or_insert_with(|| interner.intern(&stems[i]))
    }

    /// Every word's symbol in rank order, interning the undrawn ones.
    fn all_syms(&mut self, interner: &mut Interner) -> Vec<Sym> {
        (0..self.len()).map(|i| self.sym(i, interner)).collect()
    }
}

/// Draws one article as its token stream of symbols: Zipf-ranked words
/// of `own`, then words of `shared` (none at all when it is empty).
/// Consumes exactly the RNG draws of rendering the article as text, in
/// the same order: per word its index, then `gen_ratio(1, 3)` and, when
/// that hits, the index of a stop-word, which preprocessing drops.
fn draw_article<R: Rng + ?Sized>(
    own: &mut Lexicon,
    shared: &mut Lexicon,
    zipf: &Zipf,
    config: &CorpusConfig,
    interner: &mut Interner,
    rng: &mut R,
) -> Vec<Sym> {
    let skip_stopword = |rng: &mut R| {
        if rng.gen_ratio(1, 3) {
            let _ = rng.gen_range(0..STOPWORDS.len());
        }
    };
    let mut tokens = Vec::with_capacity(config.content_words_per_doc + config.shared_words_per_doc);
    for _ in 0..config.content_words_per_doc {
        let rank = zipf.sample(rng);
        skip_stopword(rng);
        tokens.push(own.sym(rank, interner));
    }
    if !shared.is_empty() {
        for _ in 0..config.shared_words_per_doc {
            let i = rng.gen_range(0..shared.len());
            skip_stopword(rng);
            tokens.push(shared.sym(i, interner));
        }
    }
    tokens
}

/// Document frequency of each of `syms` over `docs`: how many of the
/// documents contain it. One pass over each document's deduplicated
/// attributes into a count indexed by [`Sym`]; every symbol of `docs`
/// and `syms` must be below `n_syms`.
pub(crate) fn count_doc_freq(syms: &[Sym], docs: &[Document], n_syms: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_syms];
    for doc in docs {
        for &a in doc.attrs() {
            counts[a.index()] += 1;
        }
    }
    syms.iter().map(|s| counts[s.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TextPipeline;
    use proptest::prelude::*;

    fn small_config(seed: u64) -> CorpusConfig {
        CorpusConfig {
            n_categories: 3,
            vocab_per_category: 40,
            shared_vocab: 10,
            docs_per_category: 30,
            content_words_per_doc: 12,
            shared_words_per_doc: 2,
            zipf_exponent: 0.9,
            seed,
        }
    }

    /// Renders one article as raw text: content words (Zipf-ranked) and a
    /// few shared words, interleaved with stop-words roughly every third
    /// token.
    fn render_article<R: Rng + ?Sized>(
        category_words: &[String],
        shared_words: &[String],
        zipf: &Zipf,
        content_draws: usize,
        shared_draws: usize,
        rng: &mut R,
    ) -> String {
        let mut text = String::with_capacity(16 * (content_draws + shared_draws));
        let emit = |text: &mut String, word: &str, rng: &mut R| {
            if !text.is_empty() {
                text.push(' ');
            }
            if rng.gen_ratio(1, 3) {
                text.push_str(STOPWORDS[rng.gen_range(0..STOPWORDS.len())]);
                text.push(' ');
            }
            text.push_str(word);
        };
        for _ in 0..content_draws {
            let rank = zipf.sample(rng);
            emit(&mut text, &category_words[rank], rng);
        }
        for _ in 0..shared_draws {
            if shared_words.is_empty() {
                break;
            }
            let i = rng.gen_range(0..shared_words.len());
            emit(&mut text, &shared_words[i], rng);
        }
        text.push('.');
        text
    }

    /// The text path, the oracle of [`Corpus::generate`]: renders every
    /// article as raw text, preprocesses it with [`TextPipeline`] as the
    /// paper does its Newsgroup articles, and counts each word's document
    /// frequency with a scan of every document.
    fn generate_from_text(config: CorpusConfig) -> Corpus {
        let vocab = VocabularyBuilder::new(
            config.n_categories,
            config.vocab_per_category,
            config.shared_vocab,
            config.seed,
        )
        .build();
        let mut interner = Interner::new();
        let mut pipeline = TextPipeline::new();
        let mut rng = seeded_rng(derive_seed(config.seed, 1));
        let zipf = Zipf::new(config.vocab_per_category, config.zipf_exponent);
        let docs_by_category: Vec<Vec<Document>> = (0..config.n_categories)
            .map(|cat| {
                (0..config.docs_per_category)
                    .map(|_| {
                        let text = render_article(
                            &vocab.categories[cat].words,
                            &vocab.shared,
                            &zipf,
                            config.content_words_per_doc,
                            config.shared_words_per_doc,
                            &mut rng,
                        );
                        pipeline.process_article(&text, &mut interner)
                    })
                    .collect()
            })
            .collect();
        let category_syms: Vec<Vec<Sym>> = vocab
            .categories
            .iter()
            .map(|c| c.words.iter().map(|w| interner.intern(&stem(w))).collect())
            .collect();
        let shared_syms: Vec<Sym> = vocab
            .shared
            .iter()
            .map(|w| interner.intern(&stem(w)))
            .collect();
        let occurrences = category_syms
            .iter()
            .map(|syms| {
                syms.iter()
                    .map(|&s| pipeline.frequencies().count(s))
                    .collect()
            })
            .collect();
        let mut sym_category = vec![None; interner.len()];
        for (cat, syms) in category_syms.iter().enumerate() {
            for &s in syms {
                sym_category[s.index()] = Some(cat as u32);
            }
        }
        let doc_freq = category_syms
            .iter()
            .zip(&docs_by_category)
            .map(|(syms, docs)| {
                syms.iter()
                    .map(|&s| docs.iter().filter(|d| d.contains(s)).count() as u32)
                    .collect()
            })
            .collect();
        Corpus {
            config,
            interner,
            category_syms,
            shared_syms,
            docs_by_category,
            occurrences,
            doc_freq,
            sym_category,
        }
    }

    /// The first part in which two corpora differ, or `None`.
    fn first_difference(a: &Corpus, b: &Corpus) -> Option<&'static str> {
        [
            ("interner", a.interner.iter().eq(b.interner.iter())),
            ("docs", a.docs_by_category == b.docs_by_category),
            ("category symbols", a.category_syms == b.category_syms),
            ("shared symbols", a.shared_syms == b.shared_syms),
            ("occurrences", a.occurrences == b.occurrences),
            ("document frequencies", a.doc_freq == b.doc_freq),
            ("symbol categories", a.sym_category == b.sym_category),
        ]
        .into_iter()
        .find(|&(_, same)| !same)
        .map(|(part, _)| part)
    }

    fn assert_matches_text_oracle(config: CorpusConfig) {
        let direct = Corpus::generate(config.clone());
        let text = generate_from_text(config.clone());
        assert_eq!(first_difference(&direct, &text), None, "{config:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The direct draw equals the text path on arbitrary small
        /// shapes, empty shared vocabularies, draw-free articles and
        /// document-free categories included.
        #[test]
        fn direct_draw_equals_the_text_path(
            n_categories in 1usize..4,
            vocab_per_category in 1usize..30,
            shared_vocab in 0usize..6,
            docs_per_category in 0usize..12,
            content_words_per_doc in 0usize..10,
            shared_words_per_doc in 0usize..4,
            zipf_exponent in 0.0f64..2.0,
            seed in 0u64..1_000_000,
        ) {
            let config = CorpusConfig {
                n_categories,
                vocab_per_category,
                shared_vocab,
                docs_per_category,
                content_words_per_doc,
                shared_words_per_doc,
                zipf_exponent,
                seed,
            };
            let direct = Corpus::generate(config.clone());
            let text = generate_from_text(config);
            prop_assert_eq!(first_difference(&direct, &text), None);
        }
    }

    #[test]
    fn edge_shapes_equal_the_text_path() {
        let base = small_config(21);
        for config in [
            CorpusConfig {
                shared_vocab: 0,
                ..base.clone()
            },
            CorpusConfig {
                content_words_per_doc: 0,
                shared_words_per_doc: 0,
                ..base.clone()
            },
            CorpusConfig {
                docs_per_category: 0,
                ..base.clone()
            },
            base,
        ] {
            assert_matches_text_oracle(config);
        }
    }

    /// The corpus shape of the 100 000-peer churn testbed (10 categories
    /// of 20 300 articles over 60-word vocabularies), at three seeds.
    #[test]
    #[ignore = "200k-article corpora: release-only, run with --include-ignored"]
    fn direct_draw_equals_the_text_path_at_100k_peer_scale() {
        for seed in [2008, 5150, 4242] {
            assert_matches_text_oracle(CorpusConfig {
                n_categories: 10,
                vocab_per_category: 60,
                shared_vocab: 30,
                docs_per_category: 20_300,
                content_words_per_doc: 18,
                shared_words_per_doc: 2,
                zipf_exponent: 1.1,
                seed: derive_seed(seed, 0xC0),
            });
        }
    }

    #[test]
    fn generates_requested_document_counts() {
        let c = Corpus::generate(small_config(1));
        assert_eq!(c.n_categories(), 3);
        for cat in 0..3 {
            assert_eq!(c.docs(cat).len(), 30);
        }
        assert_eq!(c.total_docs(), 90);
    }

    #[test]
    fn documents_are_nonempty_and_use_category_vocabulary() {
        let c = Corpus::generate(small_config(2));
        for cat in 0..3 {
            for doc in c.docs(cat) {
                assert!(!doc.is_empty());
                let own = doc
                    .attrs()
                    .iter()
                    .filter(|&&s| c.category_of(s) == Some(cat))
                    .count();
                assert!(own > 0, "article must contain own-category words");
            }
        }
    }

    #[test]
    fn category_vocabularies_are_disjoint_across_categories() {
        let c = Corpus::generate(small_config(3));
        for cat in 0..3 {
            for &s in c.category_syms(cat) {
                assert_eq!(c.category_of(s), Some(cat));
            }
        }
        for &s in c.shared_syms() {
            assert_eq!(c.category_of(s), None);
        }
    }

    #[test]
    fn zipf_rank_ordering_shows_in_occurrences() {
        let c = Corpus::generate(small_config(4));
        for cat in 0..3 {
            let occ = c.occurrences(cat);
            let head: u64 = occ[..5].iter().sum();
            let tail: u64 = occ[occ.len() - 5..].iter().sum();
            assert!(head > tail, "rank-0 words must dominate the tail");
        }
    }

    #[test]
    fn doc_freq_is_consistent_with_documents() {
        let c = Corpus::generate(small_config(5));
        let cat = 1;
        let syms = c.category_syms(cat);
        let df = c.doc_freq(cat);
        for (i, &s) in syms.iter().enumerate().take(10) {
            let manual = c.docs(cat).iter().filter(|d| d.contains(s)).count() as u32;
            assert_eq!(df[i], manual);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(small_config(9));
        let b = Corpus::generate(small_config(9));
        assert_eq!(a.docs(0), b.docs(0));
        assert_eq!(a.occurrences(2), b.occurrences(2));
    }

    #[test]
    fn different_seeds_produce_different_corpora() {
        let a = Corpus::generate(small_config(10));
        let b = Corpus::generate(small_config(11));
        assert_ne!(a.docs(0), b.docs(0));
    }

    #[test]
    fn cross_category_words_only_from_shared_vocab() {
        let c = Corpus::generate(small_config(12));
        for cat in 0..3 {
            for doc in c.docs(cat) {
                for &s in doc.attrs() {
                    if let Some(owner) = c.category_of(s) {
                        assert_eq!(owner, cat); // else: shared background word
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_categories_panics() {
        let mut cfg = small_config(1);
        cfg.n_categories = 0;
        let _ = Corpus::generate(cfg);
    }
}
