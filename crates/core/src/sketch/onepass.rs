//! One-pass weighted sketch construction.
//!
//! The classic construction (Algorithm 2) evaluates all `N × K` random
//! `(i, t)` pairs independently per vector: `O(N·K)` comparisons each of
//! which XORs one raw bit into an output bit. Following the shape of
//! *DartMinHash* (Christiani) and *Fast Similarity Sketching*
//! (Dahlgaard–Knudsen–Thorup), the one-pass plan reorganizes the same
//! random pairs into per-dimension **plans** so a vector is sketched in a
//! single sweep over its components:
//!
//! * all `(i, t)` pairs with the same dimension `i` form one contiguous
//!   *run*, sorted by threshold `t` ascending;
//! * for component `v_i`, one binary search finds how many thresholds
//!   satisfy `t <= v_i` — exactly the pairs whose raw bit is 1;
//! * because XOR is commutative and associative, those raw 1-bits can be
//!   applied in any order, so each run carries **checkpoint masks**: the
//!   XOR-fold of the first `c·S` flip targets, precomputed as packed
//!   `u64` words. A prefix of length `idx` is applied as one mask XOR
//!   plus at most `S − 1` individual bit flips;
//! * components at or below a run's smallest threshold terminate early
//!   (no raw 1-bits), which on weight-skewed data skips most runs
//!   outright — the DartMinHash observation that low-weight coordinates
//!   rarely produce sketch updates.
//!
//! The result is *bit-identical* to the classic construction for the same
//! parameters and seed, while the per-vector work drops from `O(N·K)`
//! comparisons to `O(D·(log(N·K/D) + N/64 + S))` word operations,
//! independent of `K`. The classic loop survives only as the test oracle
//! [`SketchBuilder::sketch_components_reference`](super::SketchBuilder::sketch_components_reference).

use super::bitvec::BitVec;
use super::params::SketchParams;

/// Checkpoint stride `S`: a prefix mask is precomputed every `S` entries
/// of a run, so applying a prefix costs one mask XOR plus at most `S − 1`
/// individual flips. Smaller strides trade plan memory for fewer flips.
const CHECKPOINT_STRIDE: usize = 8;

/// One per-dimension threshold run inside the plan.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// First entry in `thresholds` / `flip_bits`.
    start: u32,
    /// Number of entries.
    len: u32,
    /// First checkpoint mask (in units of masks) in `masks`.
    mask_start: u32,
}

/// The pre-sorted execution plan every [`SketchBuilder`](super::SketchBuilder)
/// sketches with.
///
/// Built once per [`SketchBuilder`](super::SketchBuilder) from the same
/// `N × K` random `(i, t)` pairs the classic loop walks; sketching then
/// only reads the plan.
#[derive(Debug, Clone)]
pub struct OnePassPlan {
    /// One run per dimension (empty runs for never-sampled dimensions).
    runs: Vec<Run>,
    /// Thresholds, sorted ascending within each run.
    thresholds: Vec<f32>,
    /// Output bit index of each threshold's XOR-fold accumulator.
    flip_bits: Vec<u32>,
    /// Concatenated checkpoint masks, `words_per_mask` words each: the
    /// `c`-th mask of a run is the XOR of the first `c·S` flip targets.
    masks: Vec<u64>,
    /// `ceil(nbits / 64)`.
    words_per_mask: usize,
    /// `N`: sketch length in bits.
    nbits: usize,
}

impl OnePassPlan {
    /// Compiles the `N × K` `(i, t)` pairs of Algorithm 1 into
    /// per-dimension runs with checkpoint masks. `rnd_i[p]` / `rnd_t[p]`
    /// are the sampled dimension and threshold of raw pair `p`, which
    /// XOR-folds into output bit `p / K`.
    pub fn build(params: &SketchParams, rnd_i: &[u32], rnd_t: &[f32]) -> Self {
        debug_assert_eq!(rnd_i.len(), params.nbits * params.xor_folds);
        debug_assert_eq!(rnd_t.len(), rnd_i.len());
        let dims = params.dim();
        let k = params.xor_folds;
        let words_per_mask = params.nbits.div_ceil(64);

        // Bucket pair indices by dimension (counting sort keeps this O(N·K)).
        let mut counts = vec![0u32; dims];
        for &i in rnd_i {
            counts[i as usize] += 1;
        }
        let mut per_dim: Vec<Vec<(f32, u32)>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for (p, (&i, &t)) in rnd_i.iter().zip(rnd_t.iter()).enumerate() {
            per_dim[i as usize].push((t, (p / k) as u32));
        }

        let total = rnd_i.len();
        let mut runs = Vec::with_capacity(dims);
        let mut thresholds = Vec::with_capacity(total);
        let mut flip_bits = Vec::with_capacity(total);
        let mut masks: Vec<u64> = Vec::new();
        for mut entries in per_dim {
            // Sort by threshold; ties keep any order (XOR commutes, and
            // equal thresholds are counted together by the binary search).
            entries.sort_by(f32_pair_order);
            let start = thresholds.len() as u32;
            let mask_start = (masks.len() / words_per_mask.max(1)) as u32;
            let mut acc = vec![0u64; words_per_mask];
            for (n, (t, bit)) in entries.iter().enumerate() {
                thresholds.push(*t);
                flip_bits.push(*bit);
                acc[*bit as usize / 64] ^= 1u64 << (*bit as usize % 64);
                if (n + 1) % CHECKPOINT_STRIDE == 0 {
                    masks.extend_from_slice(&acc);
                }
            }
            runs.push(Run {
                start,
                len: (thresholds.len() as u32) - start,
                mask_start,
            });
        }
        Self {
            runs,
            thresholds,
            flip_bits,
            masks,
            words_per_mask,
            nbits: params.nbits,
        }
    }

    /// Sketch length in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Approximate resident size of the plan, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
            + self.thresholds.len() * 4
            + self.flip_bits.len() * 4
            + self.masks.len() * 8
    }

    /// Sketches raw components in one sweep. The caller guarantees
    /// `v.len()` equals the plan's dimensionality.
    pub fn sketch_components(&self, v: &[f32]) -> BitVec {
        debug_assert_eq!(v.len(), self.runs.len());
        let words = self.words_per_mask;
        let mut acc = vec![0u64; words];
        for (run, &x) in self.runs.iter().zip(v.iter()) {
            let len = run.len as usize;
            if len == 0 {
                continue;
            }
            let start = run.start as usize;
            let ts = &self.thresholds[start..start + len];
            // Early termination: a component at or above the run's
            // largest threshold takes the whole run; one below the
            // smallest (or NaN, for which every comparison is false —
            // matching the classic `v_i >= t` evaluation) contributes no
            // raw 1-bits at all.
            let idx = if x >= ts[len - 1] {
                len
            } else if x >= ts[0] {
                ts.partition_point(|&t| t <= x)
            } else {
                continue;
            };
            // Nearest checkpoint mask covers the bulk of the prefix...
            let cp = idx / CHECKPOINT_STRIDE;
            if cp > 0 {
                let m = (run.mask_start as usize + cp - 1) * words;
                for (a, &b) in acc.iter_mut().zip(&self.masks[m..m + words]) {
                    *a ^= b;
                }
            }
            // ...and at most S − 1 flips finish it.
            for &bit in &self.flip_bits[start + cp * CHECKPOINT_STRIDE..start + idx] {
                acc[bit as usize / 64] ^= 1u64 << (bit as usize % 64);
            }
        }
        BitVec::from_words(acc.into_boxed_slice(), self.nbits)
    }
}

/// Total order on `(threshold, bit)` pairs: thresholds are finite by
/// [`SketchParams`] validation, so `partial_cmp` cannot fail; ties break
/// by flip bit for a deterministic plan layout.
fn f32_pair_order(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_reports_memory() {
        let params = SketchParams::with_options(64, 2, vec![0.0; 4], vec![1.0; 4], None).unwrap();
        let b = super::super::SketchBuilder::new(params, 3);
        let plan = b.one_pass_plan();
        assert!(plan.memory_bytes() > 0);
        assert_eq!(plan.nbits(), 64);
    }
}
