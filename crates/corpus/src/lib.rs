//! Synthetic Newsgroup-like corpus substrate.
//!
//! The paper's evaluation shares "Newsgroup articles belonging to 10
//! different categories", preprocessed by stop-word removal and
//! lemmatization, with queries "generated by choosing a random word from
//! the texts". The original dataset is not available to us, so this crate
//! builds the closest synthetic equivalent: one disjoint pseudo-word
//! vocabulary per category plus a shared background vocabulary, Zipfian
//! word frequencies within a category, and articles that mix their own
//! category's words with a few background words. Query words come from
//! a category's own vocabulary, so only that category's articles can
//! answer them.
//!
//! * [`zipf`] — a seeded Zipf sampler (word frequencies in natural text
//!   are Zipfian; the paper also assigns query demand across peers with a
//!   Zipf distribution).
//! * [`pipeline`] — a real text-preprocessing pipeline: tokenizer,
//!   stop-word filter, suffix-stripping stemmer and frequency table,
//!   mirroring the preprocessing the paper applies to its articles.
//! * [`vocabulary`] — pseudo-word vocabularies, one per category plus a
//!   shared background vocabulary, built so that stemming never collides
//!   two distinct vocabulary entries.
//! * [`generator`] — draws synthetic articles straight as symbol
//!   sequences (Zipf-ranked content words and a few shared background
//!   words, with the interleaved stop-words drawn and dropped) and
//!   exposes the resulting attribute-set documents grouped by category,
//!   together with word-occurrence statistics. Its tests render the same
//!   articles as raw text and run them through the pipeline, the
//!   paper's preprocessing, to show that the draw equals it bit for bit.
//! * [`queries`] — samples query words "from the texts" under several
//!   bias models and builds per-peer workloads, including the Zipf demand
//!   split used in §4.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod pipeline;
pub mod queries;
pub mod vocabulary;
pub mod zipf;

pub use generator::{Corpus, CorpusConfig};
pub use pipeline::{FrequencyTable, TextPipeline};
pub use queries::{QueryBias, QuerySampler, WorkloadBuilder};
pub use vocabulary::{CategoryVocabulary, VocabularyBuilder};
pub use zipf::Zipf;
