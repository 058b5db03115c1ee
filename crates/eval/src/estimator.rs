//! Statistical estimator-quality harness for sketch construction.
//!
//! The sketch construction of paper §4.1.1 promises that the Hamming
//! distance between two `N`-bit sketches estimates a thresholded transform
//! of the weighted ℓ₁ distance between the original vectors. This module
//! checks that promise directly, for the builder's one-pass plan and for
//! the reference Algorithm 2 loop
//! ([`SketchBuilder::sketch_components_reference`]): it computes
//! the *exact* per-bit collision probability implied by the construction's
//! sampling distribution, sketches a seeded corpus, and asserts that every
//! observed pairwise Hamming fraction falls inside a Chernoff/Hoeffding
//! tolerance band around its expectation.
//!
//! Because each of the `N` folded sketch bits is generated from
//! independent `(dimension, threshold)` draws, the Hamming distance of a
//! fixed vector pair is Binomial(`N`, `P_K`) over the builder's seed.
//! Hoeffding's inequality then bounds the deviation of the observed
//! fraction `h/N` from `P_K` by
//! `ε = sqrt(ln(2·pairs/δ) / (2N))` with overall failure probability at
//! most `δ` (union bound over all checked pairs). A sketcher whose
//! construction is wrong — biased thresholds, skipped flips, broken
//! XOR-folding — lands outside the band with overwhelming probability,
//! while any faithful implementation passes for all but a `δ` fraction of
//! seeds.
//!
//! The module also provides a reference-parity check: an engine's stored
//! sketches must equal the reference loop's, object by object (the plan
//! is bit-identical by design, so the divergence count must be zero),
//! and the engine must recall a clustered benchmark suite.

use ferret_core::engine::{EngineBuilder, EngineConfig, QueryOptions};
use ferret_core::error::Result;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::sketch::{BitVec, SketchBuilder, SketchParams};
use ferret_core::vector::FeatureVector;

use crate::benchmark::BenchmarkSuite;
use crate::metrics::{score_query, QualityAccumulator, QualityScores};

/// SplitMix64: the dependency-free seeded generator used for corpus
/// synthesis (the same construction the bench harnesses use).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A tiny deterministic uniform stream over [0, 1).
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            state: mix64(seed ^ 0xFE44_E700),
        }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = mix64(self.state);
        // 53 high bits → uniform double in [0, 1).
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates a deterministic corpus of `count` vectors matching the
/// dimensionality of `params`.
///
/// Components are drawn uniformly from each dimension's range widened by
/// 25% on both sides, so the corpus exercises the construction's clipping
/// behaviour (values at or beyond `min`/`max` saturate) as well as its
/// interior thresholds.
pub fn seeded_corpus(params: &SketchParams, count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut stream = Stream::new(seed);
    let d = params.dim();
    (0..count)
        .map(|_| {
            (0..d)
                .map(|i| {
                    let range = f64::from(params.maxs[i] - params.mins[i]);
                    let lo = f64::from(params.mins[i]) - 0.25 * range;
                    let span = 1.5 * range;
                    (lo + stream.next_unit() * span.max(1.0)) as f32
                })
                .collect()
        })
        .collect()
}

/// The probability that one *raw* (unfolded) sketch bit differs between
/// `a` and `b` under the construction's sampling distribution:
/// `p₁ = Σᵢ pᵢ · |clip(aᵢ) − clip(bᵢ)| / rangeᵢ`, where `pᵢ` is the
/// dimension sampling probability of Algorithm 1 and `clip` saturates to
/// `[minᵢ, maxᵢ]`.
///
/// A raw bit drawn as `(i, t)` differs exactly when the threshold `t`
/// falls strictly between the two clipped components, which happens with
/// probability `|clip(aᵢ) − clip(bᵢ)| / rangeᵢ` for a uniform threshold.
pub fn raw_differ_probability(params: &SketchParams, a: &[f32], b: &[f32]) -> f64 {
    let probs = params.dimension_probabilities();
    let mut p1 = 0.0f64;
    for i in 0..params.dim() {
        let lo = params.mins[i];
        let hi = params.maxs[i];
        let range = f64::from(hi - lo);
        if range <= 0.0 {
            continue;
        }
        let ca = f64::from(a[i].clamp(lo, hi));
        let cb = f64::from(b[i].clamp(lo, hi));
        p1 += probs[i] * (ca - cb).abs() / range;
    }
    p1
}

/// The probability that one *folded* sketch bit (the XOR of `k` raw bits)
/// differs: `P_K = (1 − (1 − 2p₁)^K) / 2`.
///
/// Folded bits differ exactly when an odd number of their `k` raw-bit
/// pairs differ; the closed form follows from the parity generating
/// function of independent Bernoulli draws.
pub fn folded_differ_probability(p1: f64, k: usize) -> f64 {
    (1.0 - (1.0 - 2.0 * p1).powi(k as i32)) / 2.0
}

/// One pairwise estimator check: expected vs observed Hamming fraction
/// and the tolerance band the deviation must stay inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCheck {
    /// Corpus index of the first vector.
    pub left: usize,
    /// Corpus index of the second vector.
    pub right: usize,
    /// Expected Hamming fraction `P_K`.
    pub expected: f64,
    /// Observed Hamming fraction `h/N`.
    pub observed: f64,
    /// Hoeffding half-width `ε` of the tolerance band.
    pub tolerance: f64,
}

impl PairCheck {
    /// The absolute deviation between observation and expectation.
    pub fn deviation(&self) -> f64 {
        (self.observed - self.expected).abs()
    }

    /// Whether the observation falls inside the tolerance band.
    pub fn within_band(&self) -> bool {
        self.deviation() <= self.tolerance
    }
}

/// The outcome of an estimator-quality evaluation over a corpus.
#[derive(Debug, Clone)]
pub struct EstimatorReport {
    /// Every pairwise check performed.
    pub checks: Vec<PairCheck>,
    /// The overall failure probability `δ` the bands were sized for.
    pub delta: f64,
}

impl EstimatorReport {
    /// The checks whose observation fell outside its band.
    pub fn violations(&self) -> Vec<&PairCheck> {
        self.checks.iter().filter(|c| !c.within_band()).collect()
    }

    /// The largest absolute deviation seen.
    pub fn max_deviation(&self) -> f64 {
        self.checks
            .iter()
            .map(PairCheck::deviation)
            .fold(0.0, f64::max)
    }

    /// The mean absolute deviation over all checks.
    pub fn mean_abs_deviation(&self) -> f64 {
        if self.checks.is_empty() {
            return 0.0;
        }
        self.checks.iter().map(PairCheck::deviation).sum::<f64>() / self.checks.len() as f64
    }

    /// Whether every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(PairCheck::within_band)
    }
}

/// Evaluates an already-constructed builder against every pair of corpus
/// vectors, sizing the tolerance bands for an overall failure probability
/// `delta` (union bound over the pair count).
pub fn evaluate_builder(
    builder: &SketchBuilder,
    corpus: &[Vec<f32>],
    delta: f64,
) -> EstimatorReport {
    evaluate_sketcher(builder, corpus, delta, |v| builder.sketch_components(v))
}

/// [`evaluate_builder`] for the builder's reference Algorithm 2 loop
/// ([`SketchBuilder::sketch_components_reference`]) instead of its plan.
pub fn evaluate_reference(
    builder: &SketchBuilder,
    corpus: &[Vec<f32>],
    delta: f64,
) -> EstimatorReport {
    evaluate_sketcher(builder, corpus, delta, |v| {
        builder.sketch_components_reference(v)
    })
}

fn evaluate_sketcher(
    builder: &SketchBuilder,
    corpus: &[Vec<f32>],
    delta: f64,
    sketch: impl Fn(&[f32]) -> BitVec,
) -> EstimatorReport {
    let params = builder.params().clone();
    let n = builder.nbits() as f64;
    let sketches: Vec<_> = corpus.iter().map(|v| sketch(v)).collect();
    let pairs = corpus.len() * corpus.len().saturating_sub(1) / 2;
    let tolerance = ((2.0 * pairs.max(1) as f64 / delta).ln() / (2.0 * n)).sqrt();
    let mut checks = Vec::with_capacity(pairs);
    for i in 0..corpus.len() {
        for j in (i + 1)..corpus.len() {
            let p1 = raw_differ_probability(&params, &corpus[i], &corpus[j]);
            let expected = folded_differ_probability(p1, params.xor_folds);
            let observed = f64::from(sketches[i].hamming_unchecked(&sketches[j])) / n;
            checks.push(PairCheck {
                left: i,
                right: j,
                expected,
                observed,
                tolerance,
            });
        }
    }
    EstimatorReport { checks, delta }
}

/// A deterministic clustered workload for recall checks: `clusters`
/// groups of `per_cluster` near-identical vectors inside the parameter
/// range, plus the returned similarity sets naming each cluster.
pub fn clustered_objects(
    params: &SketchParams,
    clusters: usize,
    per_cluster: usize,
    spread: f32,
    seed: u64,
) -> (Vec<(ObjectId, DataObject)>, Vec<Vec<ObjectId>>) {
    let mut stream = Stream::new(seed ^ 0xC1A5);
    let d = params.dim();
    let mut objects = Vec::with_capacity(clusters * per_cluster);
    let mut sets = Vec::with_capacity(clusters);
    let mut id = 0u64;
    for _ in 0..clusters {
        let center: Vec<f64> = (0..d)
            .map(|i| {
                let lo = f64::from(params.mins[i]);
                let hi = f64::from(params.maxs[i]);
                lo + stream.next_unit() * (hi - lo)
            })
            .collect();
        let mut members = Vec::with_capacity(per_cluster);
        for _ in 0..per_cluster {
            let v: Vec<f32> = (0..d)
                .map(|i| {
                    let lo = params.mins[i];
                    let hi = params.maxs[i];
                    let range = f64::from(hi - lo);
                    let jitter = (stream.next_unit() - 0.5) * 2.0 * f64::from(spread) * range;
                    ((center[i] + jitter) as f32).clamp(lo, hi)
                })
                .collect();
            let object = DataObject::single(FeatureVector::new(v).expect("finite components"));
            objects.push((ObjectId(id), object));
            members.push(ObjectId(id));
            id += 1;
        }
        sets.push(members);
    }
    (objects, sets)
}

/// The outcome of a reference-parity run.
#[derive(Debug, Clone)]
pub struct ParityReport {
    /// Retrieval quality of the engine on the suite.
    pub quality: QualityScores,
    /// Queries executed.
    pub queries: usize,
    /// Objects whose stored sketches were compared with the reference.
    pub objects: usize,
    /// Objects whose stored sketches differed from the reference loop's.
    pub divergent_objects: usize,
}

impl ParityReport {
    /// Whether every stored sketch equals the reference sketch.
    pub fn identical(&self) -> bool {
        self.divergent_objects == 0
    }
}

/// Builds an engine over `objects`, checks every stored sketch against
/// the reference Algorithm 2 loop segment by segment, and scores the
/// engine's rankings on `suite`.
///
/// Query results are a function of the stored sketches (and originals),
/// so sketch parity means the engine ranks exactly as a reference-built
/// one would. Any divergence (a nonzero
/// [`ParityReport::divergent_objects`]) means the one-pass plan is broken
/// — there is no tolerance here.
pub fn reference_parity(
    params: &SketchParams,
    seed: u64,
    objects: &[(ObjectId, DataObject)],
    suite: &BenchmarkSuite,
    options: &QueryOptions,
) -> Result<ParityReport> {
    let mut engine =
        EngineBuilder::from_config(EngineConfig::basic(params.clone(), seed)).build()?;
    for (id, object) in objects {
        engine.insert(*id, object.clone())?;
    }
    let builder = engine.sketch_builder();
    let divergent = objects
        .iter()
        .filter(|(id, object)| {
            let reference: Vec<BitVec> = object
                .segments()
                .iter()
                .map(|seg| builder.sketch_components_reference(seg.vector.components()))
                .collect();
            engine.sketched(*id).map(|so| &so.sketches) != Some(&reference)
        })
        .count();

    let mut acc = QualityAccumulator::new();
    let mut queries = 0usize;
    for set in &suite.sets {
        let query = set.members[0];
        let mut opts = options.clone();
        opts.k = opts.k.max(2 * (set.members.len() - 1) + 1);
        let resp = engine.query_by_id(query, &opts)?;
        let ranked: Vec<ObjectId> = resp.results.iter().map(|r| r.id).collect();
        queries += 1;
        if let Some(s) = score_query(query, &set.members, &ranked, engine.len()) {
            acc.add(s);
        }
    }
    let zero = QualityScores {
        first_tier: 0.0,
        second_tier: 0.0,
        average_precision: 0.0,
    };
    Ok(ParityReport {
        quality: acc.mean().unwrap_or(zero),
        queries,
        objects: objects.len(),
        divergent_objects: divergent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_probability_closed_form() {
        // K = 1 is the identity; p1 = 0.5 saturates for every K.
        assert!((folded_differ_probability(0.2, 1) - 0.2).abs() < 1e-12);
        assert!((folded_differ_probability(0.5, 4) - 0.5).abs() < 1e-12);
        // K = 2: P = 2p(1-p).
        let p = 0.3f64;
        let expect = 2.0 * p * (1.0 - p);
        assert!((folded_differ_probability(p, 2) - expect).abs() < 1e-12);
    }

    #[test]
    fn raw_probability_clips_out_of_range() {
        let params = SketchParams::new(8, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        // Both components beyond the range on the same side → identical
        // after clipping → zero probability.
        let p = raw_differ_probability(&params, &[2.0, -3.0], &[5.0, -1.0]);
        assert_eq!(p, 0.0);
        // Opposite extremes differ on every threshold of dimension 0.
        let p = raw_differ_probability(&params, &[-1.0, 0.5], &[2.0, 0.5]);
        assert!((p - 0.5).abs() < 1e-12, "{p}");
    }

    #[test]
    fn seeded_corpus_is_deterministic() {
        let params = SketchParams::new(16, vec![0.0; 3], vec![1.0; 3]).unwrap();
        let a = seeded_corpus(&params, 5, 42);
        let b = seeded_corpus(&params, 5, 42);
        let c = seeded_corpus(&params, 5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|v| v.len() == 3));
    }

    #[test]
    fn clustered_objects_stay_in_range() {
        let params = SketchParams::new(16, vec![-1.0; 4], vec![1.0; 4]).unwrap();
        let (objects, sets) = clustered_objects(&params, 3, 4, 0.01, 7);
        assert_eq!(objects.len(), 12);
        assert_eq!(sets.len(), 3);
        for (_, obj) in &objects {
            for seg in obj.segments() {
                for &x in seg.vector.components() {
                    assert!((-1.0..=1.0).contains(&x));
                }
            }
        }
    }
}
