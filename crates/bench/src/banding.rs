//! A banded sketch index: sub-linear candidate generation.
//!
//! The paper's filtering step scans every sketch (linear in the dataset)
//! and its future work asks for "improved indexing data structures for
//! similarity search" (§8). This module provides the classic
//! locality-sensitive *banding* construction on the sketch bits: each
//! `N`-bit sketch is cut into `bands` groups of `rows` bits; two sketches
//! collide in a band iff those bits match exactly, which happens with
//! probability `(1 − d/N)^rows` for Hamming distance `d`. Objects sharing
//! at least one band with a query segment become candidates — no full scan
//! required.
//!
//! Compared to the filter scan this trades recall (a near sketch can miss
//! all bands) for query time that depends on the number of colliding
//! entries rather than the dataset size. The `indexing` experiment binary
//! and the recall tests quantify the trade.

use std::collections::HashMap;
use std::collections::HashSet;

use ferret_core::error::{CoreError, Result};
use ferret_core::object::ObjectId;
use ferret_core::sketch::{BitVec, SketchedObject};

/// Parameters of the banded index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandingParams {
    /// Number of bands.
    pub bands: usize,
    /// Bits per band (band values are packed into `u64`, so at most 64).
    pub rows: usize,
}

impl BandingParams {
    /// Validates against a sketch length: `bands × rows <= nbits`.
    pub fn validate(&self, nbits: usize) -> Result<()> {
        if self.bands == 0 || self.rows == 0 {
            return Err(CoreError::InvalidQuery(
                "banding needs at least one band and one row".into(),
            ));
        }
        if self.rows > 64 {
            return Err(CoreError::InvalidQuery(
                "band values are packed into u64; rows must be <= 64".into(),
            ));
        }
        if self.bands * self.rows > nbits {
            return Err(CoreError::InvalidQuery(format!(
                "banding uses {} bits but sketches have {nbits}",
                self.bands * self.rows
            )));
        }
        Ok(())
    }

    /// The probability that two sketches at Hamming distance `d` (out of
    /// `nbits`) collide in at least one band.
    pub fn collision_probability(&self, d: u32, nbits: usize) -> f64 {
        let p_bit = 1.0 - f64::from(d) / nbits as f64;
        let p_band = p_bit.powi(self.rows as i32);
        1.0 - (1.0 - p_band).powi(self.bands as i32)
    }
}

fn band_value(sketch: &BitVec, band: usize, rows: usize) -> u64 {
    let mut v = 0u64;
    let base = band * rows;
    for r in 0..rows {
        if sketch.get(base + r) {
            v |= 1u64 << r;
        }
    }
    v
}

/// An in-memory banded index over segment sketches.
#[derive(Debug)]
pub struct BandedSketchIndex {
    params: BandingParams,
    nbits: usize,
    /// One hash table per band: band value -> owning objects.
    tables: Vec<HashMap<u64, Vec<ObjectId>>>,
    objects: usize,
}

impl BandedSketchIndex {
    /// Creates an empty index for `nbits`-bit sketches.
    pub fn new(nbits: usize, params: BandingParams) -> Result<Self> {
        params.validate(nbits)?;
        Ok(Self {
            params,
            nbits,
            tables: (0..params.bands).map(|_| HashMap::new()).collect(),
            objects: 0,
        })
    }

    /// The banding parameters.
    pub fn params(&self) -> BandingParams {
        self.params
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.objects == 0
    }

    /// Indexes every segment sketch of an object.
    pub fn insert(&mut self, id: ObjectId, so: &SketchedObject) -> Result<()> {
        for sketch in &so.sketches {
            if sketch.len() != self.nbits {
                return Err(CoreError::SketchLengthMismatch {
                    left: sketch.len(),
                    right: self.nbits,
                });
            }
        }
        for sketch in &so.sketches {
            for band in 0..self.params.bands {
                let v = band_value(sketch, band, self.params.rows);
                let bucket = self.tables[band].entry(v).or_default();
                // An object may own several colliding segments; store once.
                if bucket.last() != Some(&id) {
                    bucket.push(id);
                }
            }
        }
        self.objects += 1;
        Ok(())
    }

    /// Candidate objects for a query: owners of any segment colliding with
    /// any query segment in any band.
    pub fn candidates(&self, query: &SketchedObject) -> Result<HashSet<ObjectId>> {
        let mut out = HashSet::new();
        for sketch in &query.sketches {
            if sketch.len() != self.nbits {
                return Err(CoreError::SketchLengthMismatch {
                    left: sketch.len(),
                    right: self.nbits,
                });
            }
            for band in 0..self.params.bands {
                let v = band_value(sketch, band, self.params.rows);
                if let Some(bucket) = self.tables[band].get(&v) {
                    out.extend(bucket.iter().copied());
                }
            }
        }
        Ok(out)
    }

    /// Total bucket entries (an index size measure).
    pub fn entries(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::object::DataObject;
    use ferret_core::sketch::{SketchBuilder, SketchParams};
    use ferret_core::vector::FeatureVector;

    fn builder(nbits: usize) -> SketchBuilder {
        SketchBuilder::new(
            SketchParams::new(nbits, vec![0.0; 4], vec![1.0; 4]).unwrap(),
            3,
        )
    }

    fn sketch_of(b: &SketchBuilder, components: [f32; 4]) -> SketchedObject {
        b.sketch_object(&DataObject::single(FeatureVector::from_components(
            components.to_vec(),
        )))
        .unwrap()
    }

    #[test]
    fn params_validation() {
        assert!(BandingParams { bands: 0, rows: 4 }.validate(64).is_err());
        assert!(BandingParams { bands: 4, rows: 0 }.validate(64).is_err());
        assert!(BandingParams { bands: 2, rows: 65 }.validate(256).is_err());
        assert!(BandingParams { bands: 9, rows: 8 }.validate(64).is_err());
        assert!(BandingParams { bands: 8, rows: 8 }.validate(64).is_ok());
    }

    #[test]
    fn collision_probability_shape() {
        let p = BandingParams { bands: 8, rows: 8 };
        // Identical sketches always collide.
        assert!((p.collision_probability(0, 64) - 1.0).abs() < 1e-12);
        // Probability decreases with distance.
        let near = p.collision_probability(4, 64);
        let far = p.collision_probability(32, 64);
        assert!(near > far);
        assert!(near > 0.9, "near collision prob {near}");
        assert!(far < 0.5, "far collision prob {far}");
    }

    #[test]
    fn identical_sketches_always_collide() {
        let b = builder(128);
        let mut index = BandedSketchIndex::new(128, BandingParams { bands: 8, rows: 16 }).unwrap();
        let so = sketch_of(&b, [0.3, 0.7, 0.5, 0.2]);
        index.insert(ObjectId(1), &so).unwrap();
        assert_eq!(index.len(), 1);
        let cands = index.candidates(&so).unwrap();
        assert!(cands.contains(&ObjectId(1)));
    }

    #[test]
    fn near_found_far_usually_not() {
        let b = builder(256);
        let params = BandingParams {
            bands: 16,
            rows: 16,
        };
        let mut index = BandedSketchIndex::new(256, params).unwrap();
        let base = [0.3f32, 0.7, 0.5, 0.2];
        index.insert(ObjectId(0), &sketch_of(&b, base)).unwrap();
        // Insert far objects.
        for i in 1..40u64 {
            let x = 0.5 + (i as f32) * 0.01;
            index
                .insert(ObjectId(i), &sketch_of(&b, [x, 1.0 - x, x, 1.0 - x]))
                .unwrap();
        }
        // A slightly perturbed query finds the base object.
        let query = sketch_of(&b, [0.305, 0.695, 0.505, 0.195]);
        let cands = index.candidates(&query).unwrap();
        assert!(cands.contains(&ObjectId(0)), "near neighbor missed");
        // And does not return everything.
        assert!(
            cands.len() < 20,
            "index returned {} of 40 objects",
            cands.len()
        );
    }

    /// Empirical recall matches the analytic collision probability within
    /// sampling noise.
    #[test]
    fn recall_tracks_collision_probability() {
        let nbits = 256;
        let b = builder(nbits);
        let params = BandingParams { bands: 8, rows: 16 };
        let base = [0.5f32, 0.5, 0.5, 0.5];
        let base_sketch = sketch_of(&b, base);
        // Perturbations at a fixed l1 distance.
        let delta = 0.06f32;
        let mut found = 0u32;
        let mut total_d = 0u32;
        let trials: u32 = 60;
        for t in 0..trials as usize {
            let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
            let mut v = base;
            v[t % 4] += sign * delta * (1.0 + (t / 4) as f32 * 0.01);
            let so = sketch_of(&b, v);
            total_d += base_sketch.sketches[0].hamming(&so.sketches[0]).unwrap();
            let mut index = BandedSketchIndex::new(nbits, params).unwrap();
            index.insert(ObjectId(9), &so).unwrap();
            if index
                .candidates(&base_sketch)
                .unwrap()
                .contains(&ObjectId(9))
            {
                found += 1;
            }
        }
        let avg_d = total_d / trials;
        let expected = params.collision_probability(avg_d, nbits);
        let got = f64::from(found) / f64::from(trials);
        assert!(
            (got - expected).abs() < 0.25,
            "recall {got:.2} vs analytic {expected:.2} at avg distance {avg_d}"
        );
    }

    #[test]
    fn rejects_wrong_sketch_length() {
        let b64 = builder(64);
        let b128 = builder(128);
        let mut index = BandedSketchIndex::new(128, BandingParams { bands: 8, rows: 16 }).unwrap();
        let wrong = sketch_of(&b64, [0.1, 0.2, 0.3, 0.4]);
        assert!(index.insert(ObjectId(1), &wrong).is_err());
        let ok = sketch_of(&b128, [0.1, 0.2, 0.3, 0.4]);
        index.insert(ObjectId(1), &ok).unwrap();
        assert!(index.candidates(&wrong).is_err());
    }

    #[test]
    fn multi_segment_objects_are_indexed_once_per_bucket() {
        let b = builder(64);
        let obj = DataObject::new(vec![
            (
                FeatureVector::from_components(vec![0.2, 0.2, 0.2, 0.2]),
                0.5,
            ),
            (
                FeatureVector::from_components(vec![0.2, 0.2, 0.2, 0.2]),
                0.5,
            ),
        ])
        .unwrap();
        let so = b.sketch_object(&obj).unwrap();
        let mut index = BandedSketchIndex::new(64, BandingParams { bands: 4, rows: 16 }).unwrap();
        index.insert(ObjectId(5), &so).unwrap();
        // Identical segments share buckets; each bucket stores the id once.
        assert_eq!(index.entries(), 4);
        assert!(index.candidates(&so).unwrap().contains(&ObjectId(5)));
        assert!(!index.is_empty());
        assert_eq!(index.params(), BandingParams { bands: 4, rows: 16 });
    }
}
