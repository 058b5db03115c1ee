//! The filtering unit: fast candidate-set generation from sketches.
//!
//! Filtering implements the first of the two query steps (paper §4.1.1):
//! given a query object `Q`, select its `r` highest-weight segments; stream
//! through all segment sketches in the dataset and, for each selected query
//! segment `Q_i`, find the `k` nearest dataset segments by Hamming distance,
//! keeping only those within a distance threshold that *decreases* with
//! `w(Q_i)` (heavier query segments demand closer matches). Every object
//! owning at least one such close segment enters the candidate set.

use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::error::{CoreError, Result};
use crate::object::ObjectId;
use crate::sketch::SketchedObject;

/// Parameters of the filtering step.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterParams {
    /// `r`: how many of the highest-weight query segments to use.
    pub query_segments: usize,
    /// `k`: how many nearest dataset segments to keep per query segment.
    pub candidates_per_segment: usize,
    /// Base Hamming threshold in bits; `None` disables the threshold and
    /// keeps the pure k-NN behaviour.
    pub base_threshold: Option<u32>,
    /// How strongly the threshold shrinks with query segment weight, in
    /// `[0, 1]`: the effective threshold is
    /// `base_threshold · (1 − weight_attenuation · w(Q_i))`.
    pub weight_attenuation: f64,
}

impl Default for FilterParams {
    fn default() -> Self {
        Self {
            query_segments: 2,
            candidates_per_segment: 40,
            base_threshold: None,
            weight_attenuation: 0.5,
        }
    }
}

impl FilterParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if self.query_segments == 0 {
            return Err(CoreError::InvalidQuery(
                "filter needs at least one query segment".into(),
            ));
        }
        if self.candidates_per_segment == 0 {
            return Err(CoreError::InvalidQuery(
                "filter needs at least one candidate per segment".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.weight_attenuation) {
            return Err(CoreError::InvalidQuery(format!(
                "weight attenuation {} outside [0, 1]",
                self.weight_attenuation
            )));
        }
        Ok(())
    }

    /// The effective Hamming threshold for a query segment of weight `w`
    /// (a decreasing function of the weight, per the paper).
    pub fn threshold_for_weight(&self, w: f32) -> Option<u32> {
        self.base_threshold.map(|base| {
            let factor = 1.0 - self.weight_attenuation * f64::from(w.clamp(0.0, 1.0));
            (f64::from(base) * factor).floor().max(0.0) as u32
        })
    }
}

/// Statistics from one filtering pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Dataset segments whose sketches were compared against the query.
    pub segments_scanned: usize,
    /// Objects streamed.
    pub objects_scanned: usize,
    /// Size of the resulting candidate set.
    pub candidates: usize,
}

/// Max-heap entry so the [`BinaryHeap`] keeps the `k` *smallest* distances.
#[derive(PartialEq, Eq)]
struct HeapEntry {
    hamming: u32,
    object: ObjectId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hamming
            .cmp(&other.hamming)
            .then(self.object.cmp(&other.object))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Admits `entry` into a bounded k-NN max-heap.
///
/// Admission compares full `(hamming, object id)` entries, a *total*
/// order, so the kept set is the `k` smallest entries of everything
/// offered — independent of the order entries arrive in. This is what
/// makes sharded scans merge bit-identically with serial ones.
fn admit(heap: &mut BinaryHeap<HeapEntry>, capacity: usize, entry: HeapEntry) {
    if heap.len() < capacity {
        heap.push(entry);
    } else if let Some(top) = heap.peek() {
        if entry < *top {
            heap.pop();
            heap.push(entry);
        }
    }
}

/// An incremental filtering pass.
///
/// Feed every `(id, sketched_object)` of the dataset through
/// [`FilterScan::observe`] (in any storage order) and call
/// [`FilterScan::finish`] for the candidate set. The convenience wrapper
/// [`filter_candidates`] drives it from an iterator, and
/// [`filter_candidates_sharded`] runs one scan per shard and merges them.
pub struct FilterScan {
    /// Sketches of the selected (highest-weight) query segments.
    query_sketches: Vec<crate::sketch::BitVec>,
    thresholds: Vec<Option<u32>>,
    candidates_per_segment: usize,
    heaps: Vec<BinaryHeap<HeapEntry>>,
    stats: FilterStats,
}

impl FilterScan {
    /// Starts a scan for `query` with the given parameters.
    pub fn new(query: &SketchedObject, params: &FilterParams) -> Result<Self> {
        params.validate()?;
        if query.num_segments() == 0 {
            return Err(CoreError::EmptyObject);
        }
        // Select the r highest-weight query segments.
        let selected: Vec<usize> = query
            .segments_by_weight()
            .into_iter()
            .take(params.query_segments)
            .collect();
        let thresholds: Vec<Option<u32>> = selected
            .iter()
            .map(|&qi| params.threshold_for_weight(query.weights[qi]))
            .collect();
        let heaps = selected
            .iter()
            .map(|_| BinaryHeap::with_capacity(params.candidates_per_segment + 1))
            .collect();
        Ok(Self {
            query_sketches: selected
                .into_iter()
                .map(|qi| query.sketches[qi].clone())
                .collect(),
            thresholds,
            candidates_per_segment: params.candidates_per_segment,
            heaps,
            stats: FilterStats::default(),
        })
    }

    /// Feeds one dataset object through the scan.
    pub fn observe(&mut self, id: ObjectId, so: &SketchedObject) -> Result<()> {
        self.stats.objects_scanned += 1;
        self.stats.segments_scanned += so.sketches.len();
        let cap = self.candidates_per_segment;
        for (slot, qs) in self.query_sketches.iter().enumerate() {
            let heap = &mut self.heaps[slot];
            // Tightest admission bound: the weight threshold caps entry
            // outright, and a full heap only admits distances at or below
            // its current worst (an equal distance can still win on object
            // id). The heap-top read is hoisted out of the segment loop:
            // while the heap is not yet full the bound is the threshold
            // alone, and once full it only changes after an admission.
            let threshold = self.thresholds[slot].unwrap_or(u32::MAX);
            let mut limit = threshold;
            let mut full = heap.len() >= cap;
            if full {
                if let Some(top) = heap.peek() {
                    limit = limit.min(top.hamming);
                }
            }
            for sketch in &so.sketches {
                let Some(h) = qs.hamming_within(sketch, limit)? else {
                    continue;
                };
                admit(
                    heap,
                    cap,
                    HeapEntry {
                        hamming: h,
                        object: id,
                    },
                );
                full = full || heap.len() >= cap;
                if full {
                    if let Some(top) = heap.peek() {
                        limit = threshold.min(top.hamming);
                    }
                }
            }
        }
        Ok(())
    }

    /// Merges another scan of the *same query and parameters* into this
    /// one, as if its observations had been fed to this scan directly.
    ///
    /// Sharded scans split the dataset into contiguous chunks, run one
    /// scan per shard, then fold the shards together with this. Because
    /// heap admission is a total order on `(hamming, object id)`, the
    /// merged heaps (and hence the candidate set and every statistic)
    /// are bit-identical to a serial scan of the whole dataset.
    pub fn merge(&mut self, other: FilterScan) {
        debug_assert_eq!(self.query_sketches.len(), other.query_sketches.len());
        self.stats.objects_scanned += other.stats.objects_scanned;
        self.stats.segments_scanned += other.stats.segments_scanned;
        for (heap, other_heap) in self.heaps.iter_mut().zip(other.heaps) {
            for entry in other_heap {
                admit(heap, self.candidates_per_segment, entry);
            }
        }
    }

    /// Ends the scan, returning the candidate set and statistics.
    pub fn finish(mut self) -> (HashSet<ObjectId>, FilterStats) {
        let mut candidates = HashSet::new();
        for heap in self.heaps {
            for entry in heap {
                candidates.insert(entry.object);
            }
        }
        self.stats.candidates = candidates.len();
        (candidates, self.stats)
    }
}

/// Streams the sketch database and produces the candidate object set.
///
/// `dataset` yields `(id, sketched_object)` pairs; iteration order does
/// not affect the result (ties are broken by object id, not arrival
/// order). Returns the candidate ids and scan statistics.
pub fn filter_candidates<'a, I>(
    query: &SketchedObject,
    dataset: I,
    params: &FilterParams,
) -> Result<(HashSet<ObjectId>, FilterStats)>
where
    I: IntoIterator<Item = (ObjectId, &'a SketchedObject)>,
{
    let mut scan = FilterScan::new(query, params)?;
    for (id, so) in dataset {
        scan.observe(id, so)?;
    }
    Ok(scan.finish())
}

/// Sharded filtering scan: partitions `dataset` into contiguous chunks,
/// runs an independent [`FilterScan`] per shard on scoped threads, and
/// merges the per-shard heaps and statistics.
///
/// Results are bit-identical to [`filter_candidates`] over the same
/// slice for every thread count (see [`FilterScan::merge`]). If several
/// records fail, the error of the earliest record in slice order is
/// returned, matching the serial scan.
pub fn filter_candidates_sharded(
    query: &SketchedObject,
    dataset: &[(ObjectId, &SketchedObject)],
    params: &FilterParams,
    threads: usize,
) -> Result<(HashSet<ObjectId>, FilterStats)> {
    let (candidates, stats, _) = filter_candidates_sharded_traced(query, dataset, params, threads)?;
    Ok((candidates, stats))
}

/// [`filter_candidates_sharded`] plus the per-shard scan statistics that
/// went into the merge, for query tracing. The shard list is empty when
/// the scan ran unsharded (one thread or a tiny dataset).
pub fn filter_candidates_sharded_traced(
    query: &SketchedObject,
    dataset: &[(ObjectId, &SketchedObject)],
    params: &FilterParams,
    threads: usize,
) -> Result<(HashSet<ObjectId>, FilterStats, Vec<FilterStats>)> {
    if threads <= 1 || dataset.len() < 2 {
        let (candidates, stats) =
            filter_candidates(query, dataset.iter().map(|&(id, so)| (id, so)), params)?;
        return Ok((candidates, stats, Vec::new()));
    }
    let shard_scans = crate::parallel::map_shards(threads, dataset.len(), |_, range| {
        let mut scan = FilterScan::new(query, params)?;
        for &(id, so) in &dataset[range] {
            scan.observe(id, so)?;
        }
        Ok(scan)
    });
    let mut merged: Option<FilterScan> = None;
    let mut shard_stats = Vec::with_capacity(shard_scans.len());
    for scan in shard_scans {
        let scan = scan?;
        shard_stats.push(scan.stats);
        match &mut merged {
            None => merged = Some(scan),
            Some(m) => m.merge(scan),
        }
    }
    let scan = merged.expect("non-empty dataset implies at least one shard");
    let (candidates, stats) = scan.finish();
    Ok((candidates, stats, shard_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{BitVec, SketchedObject};

    fn sketched(bits: &[&[bool]], weights: &[f32]) -> SketchedObject {
        SketchedObject {
            weights: weights.to_vec(),
            sketches: bits.iter().map(|b| BitVec::from_bits(b)).collect(),
        }
    }

    /// 4-bit sketch helper.
    fn s4(a: bool, b: bool, c: bool, d: bool) -> Vec<bool> {
        vec![a, b, c, d]
    }

    #[test]
    fn default_params_are_valid() {
        FilterParams::default().validate().unwrap();
    }

    #[test]
    fn params_validation() {
        let p = FilterParams {
            query_segments: 0,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
        let p = FilterParams {
            candidates_per_segment: 0,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
        let p = FilterParams {
            weight_attenuation: 1.5,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn threshold_decreases_with_weight() {
        let p = FilterParams {
            base_threshold: Some(100),
            weight_attenuation: 0.5,
            ..FilterParams::default()
        };
        let t_light = p.threshold_for_weight(0.1).unwrap();
        let t_heavy = p.threshold_for_weight(0.9).unwrap();
        assert!(t_heavy < t_light, "{t_heavy} !< {t_light}");
        assert_eq!(p.threshold_for_weight(0.0).unwrap(), 100);
        // No threshold configured -> None.
        assert!(FilterParams::default().threshold_for_weight(0.5).is_none());
    }

    #[test]
    fn finds_objects_with_close_segments() {
        let query = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let near = sketched(&[&s4(true, true, false, true)], &[1.0]); // hamming 1
        let far = sketched(&[&s4(false, false, true, true)], &[1.0]); // hamming 4
        let data = vec![(ObjectId(1), &near), (ObjectId(2), &far)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.contains(&ObjectId(1)));
        assert!(!cands.contains(&ObjectId(2)));
        assert_eq!(stats.objects_scanned, 2);
        assert_eq!(stats.segments_scanned, 2);
        assert_eq!(stats.candidates, 1);
    }

    #[test]
    fn threshold_excludes_distant_matches() {
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let far = sketched(&[&s4(false, false, false, false)], &[1.0]); // hamming 4
        let data = vec![(ObjectId(1), &far)];
        // Without a threshold the k-NN keeps it even though it is far.
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 5,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data.clone(), &p).unwrap();
        assert_eq!(cands.len(), 1);
        // With a threshold of 2 bits it is dropped.
        let p = FilterParams {
            base_threshold: Some(2),
            weight_attenuation: 0.0,
            ..p
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn keeps_k_nearest_only() {
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        // Objects at increasing Hamming distance 0, 1, 2, 3.
        let d0 = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let d1 = sketched(&[&s4(true, true, true, false)], &[1.0]);
        let d2 = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let d3 = sketched(&[&s4(true, false, false, false)], &[1.0]);
        let data = vec![
            (ObjectId(3), &d3),
            (ObjectId(0), &d0),
            (ObjectId(2), &d2),
            (ObjectId(1), &d1),
        ];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 2,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data, &p).unwrap();
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&ObjectId(0)) && cands.contains(&ObjectId(1)));
    }

    #[test]
    fn uses_highest_weight_query_segments() {
        // Query has a heavy segment (all ones) and a light one (all zeros);
        // with r = 1 only the heavy segment drives filtering.
        let query = sketched(
            &[&s4(false, false, false, false), &s4(true, true, true, true)],
            &[0.1, 0.9],
        );
        let matches_heavy = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let matches_light = sketched(&[&s4(false, false, false, false)], &[1.0]);
        let data = vec![(ObjectId(1), &matches_heavy), (ObjectId(2), &matches_light)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.contains(&ObjectId(1)));
        assert!(!cands.contains(&ObjectId(2)));
    }

    #[test]
    fn multi_segment_objects_counted_once() {
        let query = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let multi = sketched(
            &[&s4(true, true, false, false), &s4(true, true, false, true)],
            &[0.5, 0.5],
        );
        let data = vec![(ObjectId(7), &multi)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 10,
            ..FilterParams::default()
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(stats.segments_scanned, 2);
    }

    #[test]
    fn empty_dataset_gives_empty_candidates() {
        let query = sketched(&[&s4(true, false, true, false)], &[1.0]);
        let (cands, stats) =
            filter_candidates(&query, Vec::new(), &FilterParams::default()).unwrap();
        assert!(cands.is_empty());
        assert_eq!(stats.objects_scanned, 0);
    }

    #[test]
    fn sharded_scan_matches_serial_for_any_thread_count() {
        // A dataset with deliberate distance ties so tie-breaking matters.
        let query = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let objects: Vec<SketchedObject> = (0..40)
            .map(|i| {
                let bits = s4(i % 2 == 0, true, i % 3 == 0, false);
                sketched(&[&bits], &[1.0])
            })
            .collect();
        let dataset: Vec<(ObjectId, &SketchedObject)> = objects
            .iter()
            .enumerate()
            .map(|(i, so)| (ObjectId(i as u64), so))
            .collect();
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 7,
            ..FilterParams::default()
        };
        let (serial, serial_stats) =
            filter_candidates(&query, dataset.iter().copied(), &p).unwrap();
        for threads in [1usize, 2, 3, 7, 64] {
            let (sharded, stats) =
                filter_candidates_sharded(&query, &dataset, &p, threads).unwrap();
            assert_eq!(serial, sharded, "threads {threads}");
            assert_eq!(serial_stats, stats, "threads {threads}");
        }
    }

    #[test]
    fn kept_set_is_scan_order_independent() {
        // Ties at the same Hamming distance resolve by object id, so a
        // reversed scan keeps the same candidates.
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let tied: Vec<SketchedObject> = (0..10)
            .map(|_| sketched(&[&s4(true, true, true, false)], &[1.0]))
            .collect();
        let forward: Vec<(ObjectId, &SketchedObject)> = tied
            .iter()
            .enumerate()
            .map(|(i, so)| (ObjectId(i as u64), so))
            .collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 3,
            ..FilterParams::default()
        };
        let (a, _) = filter_candidates(&query, forward, &p).unwrap();
        let (b, _) = filter_candidates(&query, reversed, &p).unwrap();
        assert_eq!(a, b);
        // Lowest ids win ties.
        assert_eq!(a, HashSet::from([ObjectId(0), ObjectId(1), ObjectId(2)]));
    }

    #[test]
    fn rejects_empty_query() {
        let query = SketchedObject {
            weights: vec![],
            sketches: vec![],
        };
        assert!(matches!(
            filter_candidates(&query, Vec::new(), &FilterParams::default()),
            Err(CoreError::EmptyObject)
        ));
    }
}
