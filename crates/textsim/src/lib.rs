//! # hummer-textsim — string and numeric similarity for data fusion
//!
//! A from-scratch implementation of the similarity toolkit HumMer's
//! instance-based components rely on:
//!
//! * [`edit`] — Levenshtein distance and the derived
//!   `[0,1]` similarity (field comparison in duplicate detection),
//! * [`mod@jaro`] — Jaro and Jaro-Winkler (SoftTFIDF's secondary measure),
//! * [`tokenize`] — the word tokenizer,
//! * [`tfidf`] — corpus statistics, TF-IDF weight vectors, cosine
//!   similarity (DUMAS's tuple-as-string ranking) and the *soft IDF* that
//!   weighs a data item's identifying power,
//! * [`interned`] — the same statistics and vectors over dense token ids,
//!   for callers that tokenize once and weigh the text several times,
//! * [`softtfidf`] — SoftTFIDF (Cohen, Ravikumar & Fienberg 2003), the
//!   hybrid measure DUMAS uses for field-wise comparison of duplicates,
//! * [`numeric`] — relative numeric similarity.
//!
//! ## Example
//!
//! ```
//! use hummer_textsim::{tokenize::word_tokens, tfidf::Corpus, softtfidf::SoftTfIdf};
//!
//! let corpus = Corpus::from_documents(vec![
//!     word_tokens("Beatles, The - Abbey Road"),
//!     word_tokens("The Beatles: Abbey Rd."),
//!     word_tokens("Pink Floyd - The Wall"),
//! ]);
//! let soft = SoftTfIdf::new(&corpus);
//! let a = word_tokens("Beatles, The - Abbey Road");
//! let b = word_tokens("The Beatles: Abbey Rd.");
//! let sim = soft.similarity(&a, &b);
//! assert!(sim > 0.6); // near-duplicates score high despite format noise
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod edit;
pub mod interned;
pub mod jaro;
pub mod numeric;
pub mod softtfidf;
pub mod tfidf;
pub mod tokenize;

pub use edit::{
    levenshtein, levenshtein_chars, levenshtein_similarity, levenshtein_similarity_chars,
    levenshtein_similarity_chars_many, EditScratch,
};
pub use interned::{IdVector, IdVectors, InternedCorpus, Interner, Strings, Vocabulary};
pub use jaro::{jaro, jaro_winkler};
pub use numeric::relative_similarity;
pub use softtfidf::SoftTfIdf;
pub use tfidf::{Corpus, TfIdfVector};
pub use tokenize::word_tokens;
