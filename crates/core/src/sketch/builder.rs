//! Sketch construction (Algorithms 1 and 2 of the paper).
//!
//! Algorithm 1 generates `N × K` random `(i, t)` pairs: a dimension index
//! `i` sampled with probability `p_i ∝ w_i · (max_i − min_i)` and a
//! threshold `t` uniform in `[min_i, max_i]`. Algorithm 2 converts a feature
//! vector `v` into `N` bits: each of the `N × K` raw bits is
//! `v_i < t ? 0 : 1`, and every group of `K` raw bits is XOR-folded into one
//! output bit. The Hamming distance between two such sketches is
//! proportional to (a thresholded version of) the weighted ℓ₁ distance
//! between the original vectors; the dampening of large distances grows
//! with `K`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::bitvec::BitVec;
use super::onepass::OnePassPlan;
use super::params::SketchParams;
use crate::error::{CoreError, Result};
use crate::object::DataObject;
use crate::vector::FeatureVector;

/// A data object in sketch form: the segment weights plus one sketch per
/// segment. This is what the sketch database stores.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchedObject {
    /// Normalized segment weights, in the same order as the sketches.
    pub weights: Vec<f32>,
    /// One sketch per segment.
    pub sketches: Vec<BitVec>,
}

impl SketchedObject {
    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.sketches.len()
    }

    /// Indices of segments ordered by decreasing weight (ties by index).
    ///
    /// Uses the IEEE 754 total order ([`f32::total_cmp`]), so the result
    /// is deterministic even for weights that should never occur here:
    /// [`DataObject`] rejects non-finite weights at construction, but
    /// `SketchedObject` has public fields, and the previous
    /// `partial_cmp(..).unwrap_or(Equal)` fallback made the order depend
    /// on the sort's comparison sequence under NaN weights.
    pub fn segments_by_weight(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| self.weights[b].total_cmp(&self.weights[a]).then(a.cmp(&b)));
        idx
    }
}

/// The sketch construction unit.
///
/// Holds the `N × K` random `(i, t)` pairs generated by Algorithm 1. Two
/// builders constructed with the same parameters and seed produce identical
/// sketches, so a sketch database can be rebuilt deterministically after a
/// crash and query sketches are always comparable with stored ones.
#[derive(Debug, Clone)]
pub struct SketchBuilder {
    params: SketchParams,
    /// `rnd_i[n * K + k]`: sampled dimension indices.
    rnd_i: Vec<u32>,
    /// `rnd_t[n * K + k]`: sampled thresholds.
    rnd_t: Vec<f32>,
    /// The pairs compiled into per-dimension runs; Algorithm 2 runs on
    /// this plan (see [`OnePassPlan`]).
    plan: OnePassPlan,
}

impl SketchBuilder {
    /// Runs Algorithm 1: generates the `N × K` random `(i, t)` pairs and
    /// compiles them into per-dimension threshold runs.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = params.dimension_probabilities();
        // Cumulative distribution for inverse-transform sampling of i.
        let mut cdf = Vec::with_capacity(p.len());
        let mut acc = 0.0f64;
        for &pi in &p {
            acc += pi;
            cdf.push(acc);
        }
        // Guard against rounding: the last entry must cover r -> 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let count = params.nbits * params.xor_folds;
        let mut rnd_i = Vec::with_capacity(count);
        let mut rnd_t = Vec::with_capacity(count);
        for _ in 0..count {
            let r: f64 = rng.random_range(0.0..1.0);
            // Find the first i with cdf[i] > r (i.e. Σ p_{<i} <= r < Σ p_{<=i}).
            let i = cdf.partition_point(|&c| c <= r).min(p.len() - 1);
            let (lo, hi) = (params.mins[i], params.maxs[i]);
            let t = if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            };
            rnd_i.push(i as u32);
            rnd_t.push(t);
        }
        let plan = OnePassPlan::build(&params, &rnd_i, &rnd_t);
        Self {
            params,
            rnd_i,
            rnd_t,
            plan,
        }
    }

    /// The parameters this builder was constructed with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The compiled one-pass plan.
    pub fn one_pass_plan(&self) -> &OnePassPlan {
        &self.plan
    }

    /// Sketch length in bits (`N`).
    pub fn nbits(&self) -> usize {
        self.params.nbits
    }

    /// Runs Algorithm 2: converts a feature vector into an `N`-bit sketch.
    pub fn sketch(&self, v: &FeatureVector) -> Result<BitVec> {
        if v.dim() != self.params.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.params.dim(),
                actual: v.dim(),
            });
        }
        Ok(self.sketch_components(v.components()))
    }

    /// Sketches raw components (dimensionality must match the parameters).
    pub fn sketch_components(&self, v: &[f32]) -> BitVec {
        debug_assert_eq!(v.len(), self.params.dim());
        self.plan.sketch_components(v)
    }

    /// The paper's Algorithm 2 loop, every raw `(i, t)` pair evaluated
    /// independently in `O(N·K)`: the reference oracle the one-pass plan
    /// must match bit for bit. Tests and fixtures compare against it; the
    /// engine never sketches with it.
    pub fn sketch_components_reference(&self, v: &[f32]) -> BitVec {
        debug_assert_eq!(v.len(), self.params.dim());
        let n = self.params.nbits;
        let k = self.params.xor_folds;
        let mut out = BitVec::zeros(n);
        for bit in 0..n {
            let mut x = false;
            let base = bit * k;
            for fold in 0..k {
                let i = self.rnd_i[base + fold] as usize;
                let t = self.rnd_t[base + fold];
                // y = (v_i < t) ? 0 : 1; x ^= y.
                x ^= v[i] >= t;
            }
            if x {
                out.set(bit, true);
            }
        }
        out
    }

    /// Sketches every segment of an object.
    pub fn sketch_object(&self, obj: &DataObject) -> Result<SketchedObject> {
        let mut sketches = Vec::with_capacity(obj.num_segments());
        let mut weights = Vec::with_capacity(obj.num_segments());
        for seg in obj.segments() {
            sketches.push(self.sketch(&seg.vector)?);
            weights.push(seg.weight);
        }
        Ok(SketchedObject { weights, sketches })
    }

    /// Sketches a batch of objects on `threads` worker threads.
    ///
    /// Sketch construction is pure per object (the random `(i, t)` pairs
    /// are fixed at build time), so the batch parallelises perfectly;
    /// outputs are returned in input order and are identical to calling
    /// [`SketchBuilder::sketch_object`] on each object serially. Used by
    /// batch insertion, engine rebuilds and the acquisition import path.
    pub fn sketch_objects(
        &self,
        objects: &[DataObject],
        threads: usize,
    ) -> Result<Vec<SketchedObject>> {
        crate::parallel::try_map_chunked(
            threads,
            crate::parallel::DEFAULT_CHUNK,
            objects,
            |_, obj| self.sketch_object(obj),
        )
    }

    /// The expected Hamming distance per unit of weighted ℓ₁ distance, for
    /// `K = 1` and small distances: `N / Σ_i w_i (max_i − min_i)`.
    ///
    /// Useful to convert sketch Hamming distances back into the ℓ₁ scale
    /// when ranking with sketches only.
    pub fn hamming_per_l1(&self) -> f64 {
        let mut z = 0.0f64;
        for i in 0..self.params.dim() {
            let w = self
                .params
                .dim_weights
                .as_ref()
                .map_or(1.0, |w| f64::from(w[i]));
            z += w * f64::from(self.params.maxs[i] - self.params.mins[i]);
        }
        self.params.nbits as f64 / z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(nbits: usize, k: usize, d: usize) -> SketchParams {
        SketchParams::with_options(nbits, k, vec![0.0; d], vec![1.0; d], None).unwrap()
    }

    fn fv(c: &[f32]) -> FeatureVector {
        FeatureVector::new(c.to_vec()).unwrap()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let b1 = SketchBuilder::new(params(64, 2, 4), 7);
        let b2 = SketchBuilder::new(params(64, 2, 4), 7);
        let v = fv(&[0.1, 0.9, 0.5, 0.3]);
        assert_eq!(b1.sketch(&v).unwrap(), b2.sketch(&v).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let b1 = SketchBuilder::new(params(128, 1, 4), 1);
        let b2 = SketchBuilder::new(params(128, 1, 4), 2);
        let v = fv(&[0.1, 0.9, 0.5, 0.3]);
        assert_ne!(b1.sketch(&v).unwrap(), b2.sketch(&v).unwrap());
    }

    #[test]
    fn sketch_has_n_bits() {
        let b = SketchBuilder::new(params(96, 3, 14), 0);
        let v = fv(&[0.5; 14]);
        assert_eq!(b.sketch(&v).unwrap().len(), 96);
        assert_eq!(b.nbits(), 96);
    }

    #[test]
    fn identical_vectors_have_zero_hamming() {
        let b = SketchBuilder::new(params(256, 2, 8), 3);
        let v = fv(&[0.3, 0.1, 0.9, 0.7, 0.2, 0.8, 0.4, 0.6]);
        let s1 = b.sketch(&v).unwrap();
        let s2 = b.sketch(&v).unwrap();
        assert_eq!(s1.hamming(&s2).unwrap(), 0);
    }

    #[test]
    fn rejects_dim_mismatch() {
        let b = SketchBuilder::new(params(64, 1, 4), 0);
        assert!(b.sketch(&fv(&[0.5, 0.5])).is_err());
    }

    /// For K = 1 the expected Hamming distance is proportional to the ℓ₁
    /// distance; check the estimate is within sampling noise of theory.
    #[test]
    fn expected_hamming_tracks_l1() {
        let d = 8;
        let n = 4096; // Large N keeps the relative sampling error ~1.5%.
        let b = SketchBuilder::new(params(n, 1, d), 42);
        let a = fv(&[0.5; 8]);
        // l1 distance 0.8 spread over dimensions.
        let c = fv(&[0.6, 0.4, 0.6, 0.4, 0.6, 0.4, 0.6, 0.4]);
        let expected = 0.8 * b.hamming_per_l1();
        let got = f64::from(
            b.sketch(&a)
                .unwrap()
                .hamming(&b.sketch(&c).unwrap())
                .unwrap(),
        );
        let rel = (got - expected).abs() / expected;
        assert!(rel < 0.15, "expected {expected}, got {got} (rel {rel})");
    }

    /// Hamming distance must be monotone (statistically) in the ℓ₁
    /// distance: closer vectors get closer sketches.
    #[test]
    fn monotone_in_l1() {
        let d = 8;
        let b = SketchBuilder::new(params(2048, 1, d), 11);
        let origin = fv(&[0.5; 8]);
        let mut last = 0u32;
        for (i, delta) in [0.02f32, 0.05, 0.1, 0.2, 0.4].iter().enumerate() {
            let v = fv(&[
                0.5 + delta,
                0.5 - delta,
                0.5 + delta,
                0.5 - delta,
                0.5,
                0.5,
                0.5,
                0.5,
            ]);
            let h = b
                .sketch(&origin)
                .unwrap()
                .hamming(&b.sketch(&v).unwrap())
                .unwrap();
            assert!(h > last, "step {i}: {h} not > {last}");
            last = h;
        }
    }

    /// Larger K dampens large distances: the ratio far/near Hamming distance
    /// must shrink as K grows.
    #[test]
    fn xor_folding_dampens_large_distances() {
        let d = 8;
        let origin = fv(&[0.5; 8]);
        let near = fv(&[0.55, 0.45, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
        let far = fv(&[0.95, 0.05, 0.95, 0.05, 0.95, 0.05, 0.95, 0.05]);
        let mut ratios = Vec::new();
        for k in [1usize, 4] {
            let b = SketchBuilder::new(params(4096, k, d), 5);
            let h_near = f64::from(
                b.sketch(&origin)
                    .unwrap()
                    .hamming(&b.sketch(&near).unwrap())
                    .unwrap(),
            )
            .max(1.0);
            let h_far = f64::from(
                b.sketch(&origin)
                    .unwrap()
                    .hamming(&b.sketch(&far).unwrap())
                    .unwrap(),
            );
            ratios.push(h_far / h_near);
        }
        assert!(
            ratios[1] < ratios[0],
            "K=4 ratio {} should be below K=1 ratio {}",
            ratios[1],
            ratios[0]
        );
    }

    #[test]
    fn batch_sketching_matches_serial() {
        let b = SketchBuilder::new(params(128, 2, 3), 21);
        let objects: Vec<DataObject> = (0..25)
            .map(|i| {
                let x = i as f32 / 25.0;
                DataObject::new(vec![(fv(&[x, 1.0 - x, 0.5]), 1.0), (fv(&[0.5, x, x]), 2.0)])
                    .unwrap()
            })
            .collect();
        let serial: Vec<_> = objects
            .iter()
            .map(|o| b.sketch_object(o).unwrap())
            .collect();
        for threads in [1usize, 2, 4] {
            let batch = b.sketch_objects(&objects, threads).unwrap();
            assert_eq!(serial, batch, "threads {threads}");
        }
        // Dimension mismatches surface as errors, lowest index first.
        let bad = vec![
            DataObject::single(fv(&[0.1, 0.2, 0.3])),
            DataObject::single(fv(&[0.1])),
        ];
        assert!(b.sketch_objects(&bad, 2).is_err());
    }

    #[test]
    fn sketch_object_preserves_weights() {
        let obj = DataObject::new(vec![(fv(&[0.2, 0.4]), 1.0), (fv(&[0.8, 0.6]), 3.0)]).unwrap();
        let b = SketchBuilder::new(params(64, 1, 2), 0);
        let so = b.sketch_object(&obj).unwrap();
        assert_eq!(so.num_segments(), 2);
        assert!((so.weights[0] - 0.25).abs() < 1e-6);
        assert!((so.weights[1] - 0.75).abs() < 1e-6);
        assert_eq!(so.segments_by_weight(), vec![1, 0]);
    }

    /// The one-pass plan must be bit-identical to the reference loop on
    /// every input, including components outside the [min, max] ranges
    /// (early-termination paths) and exactly on run boundaries.
    #[test]
    fn one_pass_matches_reference_bit_for_bit() {
        for (n, k, d, seed) in [
            (64, 1, 4, 7u64),
            (128, 2, 8, 21),
            (256, 4, 6, 3),
            (96, 3, 1, 0),
        ] {
            let b = SketchBuilder::new(params(n, k, d), seed);
            for probe in 0..40u64 {
                let comps: Vec<f32> = (0..d)
                    .map(|i| {
                        // Mix of in-range, below-range, and above-range values.
                        let x = ((probe.wrapping_mul(31) + i as u64 * 17) % 29) as f32 / 20.0;
                        x - 0.2
                    })
                    .collect();
                assert_eq!(
                    b.sketch(&fv(&comps)).unwrap(),
                    b.sketch_components_reference(&comps),
                    "n={n} k={k} d={d} seed={seed} probe={probe}"
                );
            }
        }
    }

    /// Weighted dimensions (including zero-range, zero-probability ones)
    /// compile into plans that still match the reference loop.
    #[test]
    fn one_pass_matches_reference_with_dim_weights() {
        let p = SketchParams::with_options(
            128,
            2,
            vec![0.0, 2.0, -1.0],
            vec![1.0, 2.0, 4.0], // dimension 1 has zero range
            Some(vec![5.0, 1.0, 0.5]),
        )
        .unwrap();
        let b = SketchBuilder::new(p, 99);
        for probe in 0..20 {
            let x = probe as f32 * 0.3 - 1.5;
            let v = [x, 2.0, x * 2.0];
            assert_eq!(b.sketch_components(&v), b.sketch_components_reference(&v));
        }
    }

    /// NaN components produce all-false raw bits in the reference loop;
    /// the plan's early termination must agree.
    #[test]
    fn one_pass_matches_reference_under_nan_components() {
        let b = SketchBuilder::new(params(128, 2, 4), 5);
        let v = [f32::NAN, 0.5, f32::NAN, 0.9];
        assert_eq!(b.sketch_components(&v), b.sketch_components_reference(&v));
    }

    /// Regression: NaN segment weights must not make the segment order
    /// depend on the sort's comparison sequence. `DataObject` rejects
    /// them, but `SketchedObject` has public fields.
    #[test]
    fn segments_by_weight_is_deterministic_under_nan() {
        let so = SketchedObject {
            weights: vec![0.25, f32::NAN, 0.5, f32::NAN, 0.25],
            sketches: vec![BitVec::zeros(8); 5],
        };
        let order = so.segments_by_weight();
        // total_cmp puts (positive) NaN above every number; ties by index.
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
        // And the order is stable across repeated calls.
        assert_eq!(so.segments_by_weight(), order);
        // DataObject still rejects NaN weights outright.
        assert!(DataObject::new(vec![(fv(&[0.1]), f32::NAN)]).is_err());
    }

    #[test]
    fn dimension_weights_bias_sampling() {
        // Weight dimension 0 at 100x: differences in dim 1 barely matter.
        let p = SketchParams::with_options(
            2048,
            1,
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            Some(vec![100.0, 1.0]),
        )
        .unwrap();
        let b = SketchBuilder::new(p, 9);
        let base = fv(&[0.5, 0.5]);
        let move_dim0 = fv(&[0.9, 0.5]);
        let move_dim1 = fv(&[0.5, 0.9]);
        let h0 = b
            .sketch(&base)
            .unwrap()
            .hamming(&b.sketch(&move_dim0).unwrap())
            .unwrap();
        let h1 = b
            .sketch(&base)
            .unwrap()
            .hamming(&b.sketch(&move_dim1).unwrap())
            .unwrap();
        assert!(h0 > h1 * 10, "h0={h0} h1={h1}");
    }
}
