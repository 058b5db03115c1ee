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
use std::ops::Range;

use crate::error::{CoreError, Result};
use crate::object::ObjectId;
use crate::sketch::{BitVec, SketchedObject};

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
#[derive(Clone, PartialEq, Eq)]
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

/// The sketches of a record set in one contiguous row-major block.
///
/// Every row is one dataset segment's sketch, `stride =
/// nbits.div_ceil(64)` words wide, and the rows of one object are
/// adjacent. Object slot `s` owns rows `ends[s-1]..ends[s]` and has id
/// `ids[s]`, so the owner of a row is found by binary search of the
/// offsets and the block stores no per-row id. A block costs `8 · stride` bytes per
/// segment plus 12 bytes per object.
///
/// The engine's storage keeps one block next to its per-object
/// [`SketchedObject`]s, and [`filter_block`] streams the words with no
/// pointer chasing. The width is fixed by the first row pushed; an
/// empty block has none yet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchBlock {
    nbits: Option<usize>,
    words: Vec<u64>,
    ends: Vec<u32>,
    ids: Vec<ObjectId>,
}

impl SketchBlock {
    /// Sketch width in bits, once the first row has fixed it.
    pub fn nbits(&self) -> Option<usize> {
        self.nbits
    }

    fn stride(&self) -> usize {
        self.nbits.map_or(0, |n| n.div_ceil(64))
    }

    /// Number of objects (slots).
    pub fn objects(&self) -> usize {
        self.ids.len()
    }

    /// Number of rows (segment sketches).
    pub fn rows(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// Object ids by slot.
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Rows owned by object slot `slot`.
    pub fn slot_rows(&self, slot: usize) -> Range<usize> {
        let start = if slot == 0 {
            0
        } else {
            self.ends[slot - 1] as usize
        };
        start..self.ends[slot] as usize
    }

    /// Appends one object's segment sketches as a new slot. Every sketch
    /// must have the block's width (the first push fixes it, and it must
    /// not be zero); on error the block is unchanged.
    pub fn push(&mut self, id: ObjectId, sketches: &[BitVec]) -> Result<()> {
        let nbits = self.nbits.or(sketches.first().map(BitVec::len));
        if let Some(nbits) = nbits {
            if nbits == 0 {
                return Err(CoreError::InvalidSketchParams(
                    "zero-width sketches cannot form a block".into(),
                ));
            }
            if let Some(bad) = sketches.iter().find(|s| s.len() != nbits) {
                return Err(CoreError::SketchLengthMismatch {
                    left: bad.len(),
                    right: nbits,
                });
            }
        }
        let end = u32::try_from(self.rows() + sketches.len())
            .map_err(|_| CoreError::InvalidSketchParams("sketch block exceeds 2^32 rows".into()))?;
        self.nbits = nbits;
        for sketch in sketches {
            self.words.extend_from_slice(sketch.words());
        }
        self.ends.push(end);
        self.ids.push(id);
        Ok(())
    }

    /// Appends slot `slot` of `from`, a block of the same width, as a new
    /// slot, copying its already validated rows.
    ///
    /// Infallible because every block built this way (a compacted block
    /// or a packed restrict set) holds a subset of the rows of the
    /// storage, and storage admits fewer than 2^32 rows in total.
    pub(crate) fn push_slot(&mut self, from: &SketchBlock, slot: usize) {
        debug_assert!(self.nbits.is_none() || self.nbits == from.nbits);
        self.nbits = from.nbits;
        let rows = from.slot_rows(slot);
        let stride = from.stride();
        self.words
            .extend_from_slice(&from.words[rows.start * stride..rows.end * stride]);
        debug_assert!(self.rows() + rows.len() <= u32::MAX as usize);
        self.ends.push((self.rows() + rows.len()) as u32);
        self.ids.push(from.ids[slot]);
    }

    /// Reserves room for `objects` more slots holding `rows` more rows
    /// (exact on an empty block). `nbits` gives the width until the
    /// first row has fixed it.
    pub fn reserve(&mut self, objects: usize, rows: usize, nbits: usize) {
        let stride = self.nbits.unwrap_or(nbits).div_ceil(64);
        self.words.reserve(rows * stride);
        self.ends.reserve(objects);
        self.ids.reserve(objects);
    }

    /// Bytes the block has allocated (capacity, not length).
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<ObjectId>()
    }
}

/// Hamming distance of `query` (one row) to each row of `rows`, written
/// to `out`.
fn row_distances(query: &[u64], rows: &[u64], out: &mut [u32]) {
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(query.len())) {
        *o = query
            .iter()
            .zip(row)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
    }
}

/// A block as [`filter_block`] sees it, plus the slots of removed
/// objects whose rows it still holds (removals the storage has not
/// compacted away yet).
#[derive(Debug, Clone, Copy)]
pub struct BlockPart<'a> {
    /// The sketch rows.
    pub block: &'a SketchBlock,
    /// Slots of removed objects still in `block`. Their rows are skipped
    /// at heap admission, the only point where they could change the
    /// result.
    pub dead: Option<&'a HashSet<u32>>,
    /// Rows owned by the `dead` slots.
    pub dead_rows: usize,
}

impl<'a> BlockPart<'a> {
    /// A block with no removed objects.
    pub fn live(block: &'a SketchBlock) -> Self {
        Self {
            block,
            dead: None,
            dead_rows: 0,
        }
    }

    /// Live objects in the block.
    pub fn live_objects(&self) -> usize {
        self.block.objects() - self.dead.map_or(0, HashSet::len)
    }

    /// Live rows (segment sketches) in the block.
    pub fn live_rows(&self) -> usize {
        self.block.rows() - self.dead_rows
    }

    /// True if object slot `slot` was removed.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.dead.is_some_and(|dead| dead.contains(&(slot as u32)))
    }
}

/// An incremental filtering pass.
///
/// Two ways feed it. [`FilterScan::observe`] takes one
/// `(id, sketched_object)` at a time in any storage order; this is the
/// **reference row scan** that [`filter_candidates`] and
/// [`filter_candidates_sharded`] drive and that tests and the benchmark
/// replay compare the engine against. The engine itself never calls it:
/// it streams its whole [`SketchBlock`] through [`filter_block`]. Both
/// admit through the same `(hamming, object id)` total order, so they
/// keep the same heaps.
#[derive(Clone)]
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

    /// Tightest admission bound of query slot `slot`: the weight
    /// threshold caps entry outright, and a full heap only admits
    /// distances at or below its current worst (an equal distance can
    /// still win on object id).
    fn limit(&self, slot: usize) -> u32 {
        let threshold = self.thresholds[slot].unwrap_or(u32::MAX);
        let heap = &self.heaps[slot];
        match heap.peek() {
            Some(top) if heap.len() >= self.candidates_per_segment => threshold.min(top.hamming),
            _ => threshold,
        }
    }

    /// Feeds one dataset object through the scan.
    pub fn observe(&mut self, id: ObjectId, so: &SketchedObject) -> Result<()> {
        self.stats.objects_scanned += 1;
        self.stats.segments_scanned += so.sketches.len();
        let cap = self.candidates_per_segment;
        for slot in 0..self.query_sketches.len() {
            // The bound only changes after an admission, so it is read
            // once per object and refreshed on admission.
            let mut limit = self.limit(slot);
            for sketch in &so.sketches {
                let Some(h) = self.query_sketches[slot].hamming_within(sketch, limit)? else {
                    continue;
                };
                admit(
                    &mut self.heaps[slot],
                    cap,
                    HeapEntry {
                        hamming: h,
                        object: id,
                    },
                );
                limit = self.limit(slot);
            }
        }
        Ok(())
    }

    /// The block kernel: streams rows `rows` of `part` in chunks. For
    /// each query slot, a chunk's distances are computed first in a
    /// tight loop over contiguous words, then offered for admission in
    /// row order against the slot's current limit. Only a row within the
    /// limit looks up its owner (a binary search of the slot ends).
    fn scan_rows(&mut self, part: &BlockPart<'_>, rows: Range<usize>) {
        const CHUNK: usize = 256;
        let block = part.block;
        let stride = block.stride();
        let cap = self.candidates_per_segment;
        let query: Vec<u64> = self
            .query_sketches
            .iter()
            .flat_map(|q| q.words().iter().copied())
            .collect();
        let mut dist = [0u32; CHUNK];
        let words = &block.words[rows.start * stride..rows.end * stride];
        for (c, chunk) in words.chunks(CHUNK * stride).enumerate() {
            let dist = &mut dist[..chunk.len() / stride];
            let base = rows.start + c * CHUNK;
            for (s, q) in query.chunks_exact(stride).enumerate() {
                row_distances(q, chunk, dist);
                let mut limit = self.limit(s);
                for (i, &h) in dist.iter().enumerate() {
                    if h > limit {
                        continue;
                    }
                    let owner = block.ends.partition_point(|&e| e as usize <= base + i);
                    if part.is_dead(owner) {
                        continue;
                    }
                    admit(
                        &mut self.heaps[s],
                        cap,
                        HeapEntry {
                            hamming: h,
                            object: block.ids[owner],
                        },
                    );
                    limit = self.limit(s);
                }
            }
        }
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

/// Streams the sketch database and produces the candidate object set
/// (the reference row scan).
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

/// Sharded reference row scan: partitions `dataset` into contiguous
/// chunks, runs an independent [`FilterScan`] per shard on scoped
/// threads, and merges the per-shard heaps and statistics.
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
    if threads <= 1 || dataset.len() < 2 {
        return filter_candidates(query, dataset.iter().map(|&(id, so)| (id, so)), params);
    }
    let shard_scans = crate::parallel::map_shards(threads, dataset.len(), |_, range| {
        let mut scan = FilterScan::new(query, params)?;
        for &(id, so) in &dataset[range] {
            scan.observe(id, so)?;
        }
        Ok(scan)
    });
    let mut merged: Option<FilterScan> = None;
    for scan in shard_scans {
        let scan = scan?;
        match &mut merged {
            None => merged = Some(scan),
            Some(m) => m.merge(scan),
        }
    }
    let scan = merged.expect("non-empty dataset implies at least one shard");
    Ok(scan.finish())
}

/// The engine's filter stage: streams every row of `part` through the
/// block kernel, sharding contiguous row ranges over `threads` scoped
/// workers and merging their heaps.
///
/// Candidates and statistics equal [`filter_candidates`] over the live
/// objects of `part` (dead rows are never admitted and never counted),
/// for every thread count. Also returns the rows each shard streamed,
/// dead ones included (empty when the scan ran unsharded).
///
/// A query whose sketch width differs from a non-empty block's fails
/// with [`CoreError::SketchLengthMismatch`]; with no rows at all the
/// answer is empty.
pub fn filter_block(
    query: &SketchedObject,
    part: BlockPart<'_>,
    params: &FilterParams,
    threads: usize,
) -> Result<(HashSet<ObjectId>, FilterStats, Vec<usize>)> {
    let mut scan = FilterScan::new(query, params)?;
    let rows = part.block.rows();
    if rows > 0 {
        let nbits = part.block.nbits().unwrap_or(0);
        if let Some(q) = scan.query_sketches.iter().find(|q| q.len() != nbits) {
            return Err(CoreError::SketchLengthMismatch {
                left: q.len(),
                right: nbits,
            });
        }
    }
    // Each shard streams one contiguous row range, starting from a copy
    // of the scan (which has seen no rows).
    let shard_scans = crate::parallel::map_shards(threads, rows, |_, range| {
        let mut shard = scan.clone();
        let n = range.len();
        shard.scan_rows(&part, range);
        (n, shard)
    });
    let mut shard_rows = Vec::new();
    if shard_scans.len() > 1 {
        shard_rows = shard_scans.iter().map(|(n, _)| *n).collect();
    }
    for (_, shard) in shard_scans {
        scan.merge(shard);
    }
    scan.stats = FilterStats {
        objects_scanned: part.live_objects(),
        segments_scanned: part.live_rows(),
        candidates: 0,
    };
    let (candidates, stats) = scan.finish();
    Ok((candidates, stats, shard_rows))
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

    fn block_of(objects: &[(ObjectId, &SketchedObject)]) -> SketchBlock {
        let mut block = SketchBlock::default();
        for (id, so) in objects {
            block.push(*id, &so.sketches).unwrap();
        }
        block
    }

    #[test]
    fn block_scan_rejects_query_of_another_width() {
        let stored = sketched(&[&s4(true, false, true, false)], &[1.0]);
        let block = block_of(&[(ObjectId(1), &stored)]);
        let wide = SketchedObject {
            weights: vec![1.0],
            sketches: vec![BitVec::zeros(128)],
        };
        let err =
            filter_block(&wide, BlockPart::live(&block), &FilterParams::default(), 1).unwrap_err();
        assert_eq!(
            err,
            CoreError::SketchLengthMismatch {
                left: 128,
                right: 4
            }
        );
        // Pushing a row of another width is refused too, leaving the
        // block unchanged.
        let mut block = block;
        assert!(block.push(ObjectId(2), &wide.sketches).is_err());
        assert_eq!((block.objects(), block.rows()), (1, 1));
    }

    #[test]
    fn empty_block_answers_with_no_candidates() {
        let query = sketched(&[&s4(true, false, true, false)], &[1.0]);
        let empty = SketchBlock::default();
        assert_eq!(empty.nbits(), None);
        for threads in [1, 3] {
            let (cands, stats, _) = filter_block(
                &query,
                BlockPart::live(&empty),
                &FilterParams::default(),
                threads,
            )
            .unwrap();
            assert!(cands.is_empty());
            assert_eq!(stats, FilterStats::default());
        }
    }

    #[test]
    fn block_scan_matches_reference_across_shards_and_dead_rows() {
        // Multi-segment objects with tied distances; three are dead.
        let objects: Vec<SketchedObject> = (0..30)
            .map(|i| {
                let segs: Vec<Vec<bool>> = (0..1 + i % 4)
                    .map(|j| s4(i % 2 == 0, j % 2 == 0, i % 3 == 0, (i + j) % 5 == 0))
                    .collect();
                let refs: Vec<&[bool]> = segs.iter().map(Vec::as_slice).collect();
                let weights = vec![1.0 / refs.len() as f32; refs.len()];
                sketched(&refs, &weights)
            })
            .collect();
        let all: Vec<(ObjectId, &SketchedObject)> = objects
            .iter()
            .enumerate()
            .map(|(i, so)| (ObjectId(i as u64), so))
            .collect();
        let block = block_of(&all);
        // Slot s holds object s.
        let dead = HashSet::from([3u32, 8, 20]);
        let dead_rows = dead
            .iter()
            .map(|&s| objects[s as usize].num_segments())
            .sum();
        let part = BlockPart {
            block: &block,
            dead: Some(&dead),
            dead_rows,
        };
        let live: Vec<(ObjectId, &SketchedObject)> = all
            .iter()
            .copied()
            .filter(|(id, _)| !dead.contains(&(id.0 as u32)))
            .collect();
        let query = sketched(
            &[&s4(true, true, false, false), &s4(false, true, true, false)],
            &[0.6, 0.4],
        );
        for (cand, threshold) in [(1, None), (3, None), (5, Some(2)), (40, Some(3))] {
            let p = FilterParams {
                query_segments: 2,
                candidates_per_segment: cand,
                base_threshold: threshold,
                weight_attenuation: 0.0,
            };
            let reference = filter_candidates(&query, live.iter().copied(), &p).unwrap();
            for threads in 1..=7 {
                let (cands, stats, shards) = filter_block(&query, part, &p, threads).unwrap();
                assert_eq!((cands, stats), reference, "cand {cand} threads {threads}");
                if threads > 1 {
                    // Shards count every row streamed, dead ones included.
                    let rows: usize = shards.iter().sum();
                    assert_eq!(rows, block.rows());
                }
            }
        }
    }

    #[test]
    fn push_slot_copies_rows_and_offsets() {
        let a = sketched(&[&s4(true, false, false, false)], &[1.0]);
        let b = sketched(
            &[
                &s4(false, true, false, false),
                &s4(false, false, true, false),
            ],
            &[0.5, 0.5],
        );
        let c = sketched(&[&s4(false, false, false, true)], &[1.0]);
        let full = block_of(&[(ObjectId(1), &a), (ObjectId(2), &b), (ObjectId(3), &c)]);
        let mut packed = SketchBlock::default();
        for slot in [0, 2, 1] {
            packed.push_slot(&full, slot);
        }
        assert_eq!(
            packed,
            block_of(&[(ObjectId(1), &a), (ObjectId(3), &c), (ObjectId(2), &b)])
        );
        assert_eq!(packed.slot_rows(2), 2..4);
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
