//! # ferret-eval
//!
//! The performance evaluation tool of the Ferret toolkit (paper §4.3 and
//! §6.2): benchmark files describing gold-standard similarity sets, the
//! first-tier / second-tier / average-precision quality metrics, a batch
//! query runner with timing statistics, and plain-text table rendering for
//! the experiment harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod estimator;
pub mod metrics;
pub mod report;
pub mod runner;

pub use benchmark::{BenchmarkParseError, BenchmarkSuite, SimilaritySet};
pub use estimator::{
    clustered_objects, evaluate_builder, evaluate_reference, folded_differ_probability,
    raw_differ_probability, reference_parity, seeded_corpus, EstimatorReport, PairCheck,
    ParityReport,
};
pub use metrics::{score_query, QualityAccumulator, QualityScores};
pub use report::{format_duration, format_ratio, format_score, TextTable};
pub use runner::{run_suite, time_queries, QueryOutcome, SuiteResult, TimingStats};
