//! LSM-style segmented storage: a mutable memtable, immutable sealed
//! segments, per-segment dead sets for removals, and a background
//! compaction worker.
//!
//! Concurrency model: all mutation happens through `&mut self` (the
//! service serializes writers), so the only cross-thread state is the
//! compaction mailbox. Writers enqueue a merge job carrying `Arc` clones
//! of the input segments plus a snapshot of their dead sets (slots of
//! removed objects); the worker
//! merges off-thread and posts a [`MergeOutcome`] to an outbox. The next
//! `&mut` operation applies it: if the input run is still present and
//! the generation matches, the run is spliced out for the merged segment,
//! carrying forward any removals that landed after the snapshot
//! (`dead_now − dead_claimed`). Stale
//! outcomes are discarded — the inputs are immutable, so a discarded
//! merge wastes work but can never corrupt state.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::CoreError;
use crate::error::Result;
use crate::filter::BlockPart;
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::{Gauge, MetricsRegistry, Unit, LATENCY_BUCKETS_NS};
use ferret_store::{SegmentRecord, SegmentStore};

use super::records::Records;
use super::{block_bytes_gauge, store_err, IndexLayout, IndexStorage, Record, StorageStats};

const COMPACTIONS_HELP: &str = "Segment compaction merges completed.";
const COMPACTION_SECONDS_HELP: &str = "Latency of segment compaction merges.";
const SEGMENTS_HELP: &str = "Immutable sealed segments in the engine.";
const MEMTABLE_HELP: &str = "Objects in the mutable memtable awaiting seal.";

/// An immutable sealed segment: a slice of the corpus in insertion order,
/// with its frozen sketch block. Its records hold no dead slots of their
/// own (a seal compacts them away), so record slot `s` is the `s`-th
/// record; later removals live in the [`SegmentSlot`]'s dead set.
struct Segment {
    /// Storage-local segment id (also used to match compaction outcomes
    /// back to their input run).
    id: u64,
    records: Records,
}

impl Segment {
    fn live_count(&self, dead: &HashSet<u32>) -> usize {
        self.records.len() - dead.len()
    }
}

/// A sealed segment plus its mutable side-state: the slots of objects
/// removed since sealing (and the block rows they own), and the durable
/// file id once checkpointed.
struct SegmentSlot {
    segment: Arc<Segment>,
    dead: HashSet<u32>,
    dead_rows: usize,
    persist_id: Option<u64>,
}

impl SegmentSlot {
    fn new(segment: Segment, dead: HashSet<u32>) -> Self {
        let block = segment.records.block();
        let dead_rows = dead
            .iter()
            .map(|&s| block.slot_rows(s as usize).len())
            .sum();
        Self {
            segment: Arc::new(segment),
            dead,
            dead_rows,
            persist_id: None,
        }
    }

    fn block_part(&self) -> BlockPart<'_> {
        BlockPart {
            block: self.segment.records.block(),
            dead: (!self.dead.is_empty()).then_some(&self.dead),
            dead_rows: self.dead_rows,
        }
    }

    fn block_bytes(&self) -> usize {
        self.segment.records.block().capacity_bytes()
    }
}

/// Work order for the compaction worker.
struct MergeJob {
    generation: u64,
    out_id: u64,
    inputs: Vec<Arc<Segment>>,
    dead_claimed: Vec<HashSet<u32>>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

enum Job {
    Merge(Box<MergeJob>),
    Shutdown,
}

/// Result posted back by the worker; applied by the next writer.
struct MergeOutcome {
    generation: u64,
    input_ids: Vec<u64>,
    dead_claimed: Vec<HashSet<u32>>,
    merged: Segment,
}

#[derive(Default)]
struct CompactorShared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    outbox: Mutex<Vec<MergeOutcome>>,
}

struct CompactorHandle {
    shared: Arc<CompactorShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        lock_inner(&self.shared.queue).push_back(Job::Shutdown);
        self.shared.cv.notify_one();
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock — the worker
/// holds these locks only around queue push/pop, so the protected state
/// cannot be torn by a panic.
fn lock_inner<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: Arc<CompactorShared>) {
    loop {
        let job = {
            let mut queue = lock_inner(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .cv
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let job = match job {
            Job::Shutdown => return,
            Job::Merge(job) => job,
        };
        let start = std::time::Instant::now();
        let input_ids = job.inputs.iter().map(|s| s.id).collect();
        let merged = merge_segments(job.out_id, &job.inputs, &job.dead_claimed);
        if let Some(registry) = &job.telemetry {
            registry.inc_counter("ferret_compactions_total", COMPACTIONS_HELP, &[], 1);
            registry.observe_latency(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                start.elapsed(),
            );
        }
        lock_inner(&shared.outbox).push(MergeOutcome {
            generation: job.generation,
            input_ids,
            dead_claimed: job.dead_claimed,
            merged,
        });
    }
}

/// Merges a contiguous run of segments into one, dropping records that
/// were dead at snapshot time, and builds the merged sketch block from
/// the inputs' live rows. Record order is preserved (inputs are in
/// segment order, records in insertion order), so the merged segment
/// occupies exactly its inputs' place in the global insertion order.
fn merge_segments(out_id: u64, inputs: &[Arc<Segment>], dead_claimed: &[HashSet<u32>]) -> Segment {
    let live = || {
        inputs.iter().zip(dead_claimed).flat_map(|(seg, dead)| {
            (0..seg.records.block().objects() as u32)
                .filter(move |slot| !dead.contains(slot))
                .map(move |slot| (seg, slot as usize))
        })
    };
    let (objects, rows) = live().fold((0, 0), |(o, r), (seg, slot)| {
        (o + 1, r + seg.records.block().slot_rows(slot).len())
    });
    let nbits = inputs
        .iter()
        .find_map(|seg| seg.records.block().nbits())
        .unwrap_or(0);
    let mut records = Records::default();
    records.reserve(objects, rows, nbits);
    for (seg, slot) in live() {
        records.push_from(&seg.records, slot);
    }
    Segment {
        id: out_id,
        records,
    }
}

/// LSM-style [`IndexStorage`]: inserts land in a small mutable memtable,
/// sealed segments are immutable, and a background worker merges small or
/// removal-heavy runs off the write path.
pub struct SegmentedStorage {
    memtable_size: usize,
    compaction: bool,
    memtable: Records,
    slots: Vec<SegmentSlot>,
    /// Block bytes of all sealed segments, kept up to date on seal and
    /// splice so the block gauge never walks the slots.
    sealed_block_bytes: usize,
    next_segment_id: u64,
    epoch: u64,
    /// Bumped whenever the slot list is invalidated wholesale (inline
    /// merge); outcomes from older generations are discarded on apply.
    generation: u64,
    /// At most one background merge outstanding.
    inflight: bool,
    compactor: Option<CompactorHandle>,
    persist: Option<SegmentStore>,
    telemetry: Option<Arc<MetricsRegistry>>,
    block_bytes: Option<Arc<Gauge>>,
}

impl std::fmt::Debug for SegmentedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedStorage")
            .field("live", &self.len())
            .field("memtable", &self.memtable.len())
            .field("segments", &self.slots.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl SegmentedStorage {
    /// Creates an empty segmented storage. `memtable_size` is the seal
    /// threshold (clamped to at least 1); `compaction` controls the
    /// background worker — with it off, segments only merge through
    /// explicit [`IndexStorage::merge`] calls (deterministic, for tests).
    pub fn new(memtable_size: usize, compaction: bool) -> Self {
        Self {
            memtable_size: memtable_size.max(1),
            compaction,
            memtable: Records::default(),
            slots: Vec::new(),
            sealed_block_bytes: 0,
            next_segment_id: 0,
            epoch: 0,
            generation: 0,
            inflight: false,
            compactor: None,
            persist: None,
            telemetry: None,
            block_bytes: None,
        }
    }

    /// Index of the segment slot where `id` is live, with its record
    /// slot there, if any.
    fn live_slot(&self, id: ObjectId) -> Option<(usize, usize)> {
        self.slots.iter().enumerate().find_map(|(i, s)| {
            let slot = s.segment.records.slot(id)?;
            (!s.dead.contains(&(slot as u32))).then_some((i, slot))
        })
    }

    fn publish_gauges(&self) {
        if let Some(registry) = &self.telemetry {
            registry
                .gauge("ferret_segments", SEGMENTS_HELP, &[])
                .set(self.slots.len() as i64);
            registry
                .gauge("ferret_memtable_objects", MEMTABLE_HELP, &[])
                .set(self.memtable.len() as i64);
        }
        if let Some(gauge) = &self.block_bytes {
            let bytes = self.sealed_block_bytes + self.memtable.block().capacity_bytes();
            gauge.set(bytes as i64);
        }
    }

    /// Drains the compaction outbox and applies every outcome that still
    /// matches the current slot list.
    fn apply_pending(&mut self) -> Result<()> {
        let outcomes = match &self.compactor {
            Some(handle) => {
                let mut outbox = lock_inner(&handle.shared.outbox);
                std::mem::take(&mut *outbox)
            }
            None => return Ok(()),
        };
        for outcome in outcomes {
            // One job outstanding at a time, so any outcome settles it.
            self.inflight = false;
            if outcome.generation != self.generation {
                continue;
            }
            let Some(start) = self.find_run(&outcome.input_ids) else {
                continue;
            };
            self.splice_run(
                start,
                outcome.input_ids.len(),
                outcome.merged,
                &outcome.dead_claimed,
            )?;
        }
        Ok(())
    }

    /// Position of `input_ids` as a contiguous run of current slots.
    fn find_run(&self, input_ids: &[u64]) -> Option<usize> {
        if input_ids.is_empty() || input_ids.len() > self.slots.len() {
            return None;
        }
        (0..=self.slots.len() - input_ids.len()).find(|&start| {
            input_ids
                .iter()
                .enumerate()
                .all(|(i, id)| self.slots[start + i].segment.id == *id)
        })
    }

    /// Replaces `slots[start..start+len]` with the merged segment,
    /// carrying forward removals that landed after the job's dead-set
    /// snapshot (`dead_now − dead_claimed` per input — those records were
    /// live at snapshot time, so they exist in the merged segment).
    fn splice_run(
        &mut self,
        start: usize,
        len: usize,
        merged: Segment,
        dead_claimed: &[HashSet<u32>],
    ) -> Result<()> {
        let mut dead = HashSet::new();
        for (slot, claimed) in self.slots[start..start + len].iter().zip(dead_claimed) {
            let ids = slot.segment.records.block().ids();
            dead.extend(
                slot.dead
                    .difference(claimed)
                    .filter_map(|&s| merged.records.slot(ids[s as usize]))
                    .map(|s| s as u32),
            );
        }
        let slot = SegmentSlot::new(merged, dead);
        self.sealed_block_bytes += slot.block_bytes();
        for old in self.slots.splice(start..start + len, [slot]) {
            self.sealed_block_bytes -= old.block_bytes();
        }
        self.epoch += 1;
        self.persist_checkpoint()?;
        self.publish_gauges();
        Ok(())
    }

    /// Freezes the memtable, sketch block included, into a new sealed
    /// segment.
    fn seal_memtable(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let mut records = std::mem::take(&mut self.memtable);
        records.shrink_to_fit();
        let slot = SegmentSlot::new(Segment { id, records }, HashSet::new());
        self.sealed_block_bytes += slot.block_bytes();
        self.slots.push(slot);
        self.epoch += 1;
        self.persist_checkpoint()?;
        self.publish_gauges();
        Ok(())
    }

    /// Picks the next contiguous run to compact: the first maximal run of
    /// two or more candidate slots (small or removal-heavy), else a lone
    /// removal-heavy slot that needs a sweep. Returns `(start, len)`.
    fn plan_merge(&self) -> Option<(usize, usize)> {
        let small_limit = self.memtable_size.saturating_mul(4).max(8);
        let removal_heavy =
            |slot: &SegmentSlot| slot.dead.len() * 2 >= slot.segment.records.len().max(1);
        let candidate = |slot: &SegmentSlot| {
            removal_heavy(slot) || slot.segment.live_count(&slot.dead) < small_limit
        };
        let mut start = 0;
        while start < self.slots.len() {
            if !candidate(&self.slots[start]) {
                start += 1;
                continue;
            }
            let mut end = start + 1;
            while end < self.slots.len() && candidate(&self.slots[end]) {
                end += 1;
            }
            if end - start >= 2 {
                return Some((start, end - start));
            }
            // A lone candidate is only worth rewriting if it needs a
            // removal sweep; re-merging a small but healthy segment by
            // itself would loop forever.
            if removal_heavy(&self.slots[start]) {
                return Some((start, 1));
            }
            start = end;
        }
        None
    }

    /// Snapshot of the run for a merge: `Arc` clones of the segments plus
    /// the dead sets as of now.
    fn snapshot_run(&self, start: usize, len: usize) -> (Vec<Arc<Segment>>, Vec<HashSet<u32>>) {
        let inputs = self.slots[start..start + len]
            .iter()
            .map(|s| Arc::clone(&s.segment))
            .collect();
        let dead = self.slots[start..start + len]
            .iter()
            .map(|s| s.dead.clone())
            .collect();
        (inputs, dead)
    }

    /// Spawns the compaction worker on first use. Returns `false` (and
    /// disables background compaction) if the thread cannot be spawned.
    fn ensure_worker(&mut self) -> bool {
        if self.compactor.is_some() {
            return true;
        }
        if !self.compaction {
            return false;
        }
        let shared = Arc::new(CompactorShared::default());
        let worker_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("ferret-compaction".into())
            .spawn(move || worker_loop(worker_shared))
        {
            Ok(join) => {
                self.compactor = Some(CompactorHandle {
                    shared,
                    join: Some(join),
                });
                true
            }
            Err(_) => {
                self.compaction = false;
                false
            }
        }
    }

    /// Enqueues the next due merge for the background worker, if any.
    fn schedule_compaction(&mut self) {
        if !self.compaction || self.inflight {
            return;
        }
        let Some((start, len)) = self.plan_merge() else {
            return;
        };
        if !self.ensure_worker() {
            return;
        }
        let (inputs, dead_claimed) = self.snapshot_run(start, len);
        let out_id = self.next_segment_id;
        self.next_segment_id += 1;
        let job = MergeJob {
            generation: self.generation,
            out_id,
            inputs,
            dead_claimed,
            telemetry: self.telemetry.clone(),
        };
        if let Some(handle) = &self.compactor {
            lock_inner(&handle.shared.queue).push_back(Job::Merge(Box::new(job)));
            handle.shared.cv.notify_one();
            self.inflight = true;
        }
    }

    /// Writes any not-yet-persisted sealed segments through the attached
    /// [`SegmentStore`] and commits a manifest naming the live set. The
    /// manifest swap is the durability point; superseded segment files are
    /// garbage-collected only after the swap.
    fn persist_checkpoint(&mut self) -> Result<()> {
        let Some(store) = self.persist.as_mut() else {
            return Ok(());
        };
        for slot in &mut self.slots {
            if slot.persist_id.is_some() {
                continue;
            }
            let records: Vec<SegmentRecord> = slot
                .segment
                .records
                .iter()
                .map(|(id, so, _)| SegmentRecord {
                    id: id.0,
                    payload: crate::codec::encode_sketched(so),
                })
                .collect();
            slot.persist_id = Some(store.write_segment(&records).map_err(store_err)?);
        }
        let live: Vec<u64> = self.slots.iter().filter_map(|s| s.persist_id).collect();
        store.commit_manifest(&live).map_err(store_err)?;
        Ok(())
    }

    /// Runs one inline (synchronous) merge step; returns `true` if a run
    /// was merged.
    fn merge_step(&mut self) -> Result<bool> {
        let Some((start, len)) = self.plan_merge() else {
            return Ok(false);
        };
        let (inputs, dead_claimed) = self.snapshot_run(start, len);
        let out_id = self.next_segment_id;
        self.next_segment_id += 1;
        let begin = std::time::Instant::now();
        let merged = merge_segments(out_id, &inputs, &dead_claimed);
        if let Some(registry) = &self.telemetry {
            registry.inc_counter("ferret_compactions_total", COMPACTIONS_HELP, &[], 1);
            registry.observe_latency(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                begin.elapsed(),
            );
        }
        self.splice_run(start, len, merged, &dead_claimed)?;
        Ok(true)
    }
}

impl IndexStorage for SegmentedStorage {
    fn layout(&self) -> IndexLayout {
        IndexLayout::Segmented
    }

    fn len(&self) -> usize {
        let sealed: usize = self
            .slots
            .iter()
            .map(|s| s.segment.live_count(&s.dead))
            .sum();
        sealed + self.memtable.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.memtable.contains(id) || self.live_slot(id).is_some()
    }

    fn object(&self, id: ObjectId) -> Option<&DataObject> {
        if self.memtable.contains(id) {
            return self.memtable.object(id);
        }
        self.live_slot(id)
            .and_then(|(i, _)| self.slots[i].segment.records.object(id))
    }

    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        if let Some(so) = self.memtable.sketch(id) {
            return Some(so);
        }
        self.live_slot(id)
            .and_then(|(i, _)| self.slots[i].segment.records.sketch(id))
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        self.live_refs().into_iter().map(|(id, _, _)| id).collect()
    }

    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)> {
        let mut out = Vec::with_capacity(self.len());
        for slot in &self.slots {
            out.extend(
                slot.segment
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| !slot.dead.contains(&(*s as u32)))
                    .map(|(_, record)| record),
            );
        }
        out.extend(self.memtable.iter());
        out
    }

    fn block_parts(&self) -> Vec<BlockPart<'_>> {
        let mut parts: Vec<BlockPart<'_>> =
            self.slots.iter().map(SegmentSlot::block_part).collect();
        parts.push(self.memtable.block_part());
        parts
    }

    fn insert_batch(&mut self, batch: Vec<Record>) -> Result<()> {
        self.apply_pending()?;
        // Blocks built from this storage's rows (a merged segment, a
        // packed restrict set) index them with u32 offsets.
        let mut rows = self.memtable.block().rows()
            + self
                .slots
                .iter()
                .map(|s| s.segment.records.block().rows())
                .sum::<usize>();
        for (id, sketched, original) in batch {
            if self.contains(id) {
                return Err(CoreError::DuplicateObject(id.0));
            }
            rows += sketched.num_segments();
            if rows > u32::MAX as usize {
                return Err(CoreError::InvalidSketchParams(
                    "storage exceeds 2^32 segment sketches".into(),
                ));
            }
            self.memtable.push(id, sketched, original)?;
            self.epoch += 1;
            if self.memtable.len() >= self.memtable_size {
                self.seal_memtable()?;
                self.schedule_compaction();
            }
        }
        self.publish_gauges();
        Ok(())
    }

    fn tombstone(&mut self, id: ObjectId) -> Result<bool> {
        self.apply_pending()?;
        if self.memtable.remove(id) {
            self.epoch += 1;
            self.publish_gauges();
            return Ok(true);
        }
        if let Some((i, record)) = self.live_slot(id) {
            let slot = &mut self.slots[i];
            slot.dead.insert(record as u32);
            slot.dead_rows += slot.segment.records.block().slot_rows(record).len();
            self.epoch += 1;
            self.schedule_compaction();
            self.publish_gauges();
            return Ok(true);
        }
        Ok(false)
    }

    fn seal(&mut self) -> Result<()> {
        self.apply_pending()?;
        self.seal_memtable()?;
        self.schedule_compaction();
        Ok(())
    }

    fn merge(&mut self) -> Result<()> {
        self.apply_pending()?;
        // Invalidate any in-flight background job: its inputs may be
        // spliced away by the inline merges below.
        self.generation += 1;
        while self.merge_step()? {}
        Ok(())
    }

    fn maintain(&mut self) -> Result<()> {
        self.apply_pending()?;
        self.schedule_compaction();
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.len(),
            memtable_objects: self.memtable.len(),
            sealed_segments: self.slots.len(),
            tombstones: self.slots.iter().map(|s| s.dead.len()).sum(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.block_bytes = registry.as_deref().map(block_bytes_gauge);
        self.telemetry = registry;
        // Register the compaction series eagerly so `/metrics` shows them
        // (at zero) before the first background merge completes.
        if let Some(registry) = &self.telemetry {
            registry.counter("ferret_compactions_total", COMPACTIONS_HELP, &[]);
            registry.histogram(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                &LATENCY_BUCKETS_NS,
                Unit::Nanoseconds,
            );
        }
        self.publish_gauges();
    }

    fn attach_persistence(&mut self, store: SegmentStore) -> Result<()> {
        self.persist = Some(store);
        self.persist_checkpoint()
    }

    fn persistence_handle(&self) -> Option<&SegmentStore> {
        self.persist.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    fn test_builder() -> SketchBuilder {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        SketchBuilder::new(params, 7)
    }

    fn sketched(builder: &SketchBuilder, v: &[f32]) -> (DataObject, SketchedObject) {
        let obj = DataObject::single(FeatureVector::new(v.to_vec()).unwrap());
        let so = builder.sketch_object(&obj).unwrap();
        (obj, so)
    }

    fn fill(storage: &mut SegmentedStorage, builder: &SketchBuilder, ids: std::ops::Range<u64>) {
        for i in ids {
            let (obj, so) = sketched(builder, &[(i % 10) as f32 / 10.0, 0.5]);
            storage
                .insert_batch(vec![(ObjectId(i), so, Some(obj))])
                .unwrap();
        }
    }

    #[test]
    fn seal_and_inline_merge_preserve_order() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(4, false);
        fill(&mut storage, &builder, 0..10);
        let stats = storage.stats();
        assert_eq!(stats.live_objects, 10);
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.memtable_objects, 2);
        let expect: Vec<ObjectId> = (0..10).map(ObjectId).collect();
        assert_eq!(storage.live_ids(), expect);
        storage.merge().unwrap();
        assert_eq!(storage.live_ids(), expect);
        let stats = storage.stats();
        assert_eq!(stats.sealed_segments, 1);
        assert_eq!(stats.tombstones, 0);
    }

    #[test]
    fn tombstone_then_reinsert_moves_to_memtable() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(2, false);
        fill(&mut storage, &builder, 0..4);
        assert!(storage.tombstone(ObjectId(1)).unwrap());
        assert!(!storage.contains(ObjectId(1)));
        assert_eq!(storage.stats().tombstones, 1);
        let (obj, so) = sketched(&builder, &[0.9, 0.9]);
        storage
            .insert_batch(vec![(ObjectId(1), so, Some(obj))])
            .unwrap();
        assert!(storage.contains(ObjectId(1)));
        // Reinsertion lands at the end of the global order.
        let ids = storage.live_ids();
        assert_eq!(ids.last(), Some(&ObjectId(1)));
        storage.merge().unwrap();
        assert_eq!(storage.stats().tombstones, 0);
        assert_eq!(storage.live_ids().last(), Some(&ObjectId(1)));
        assert_eq!(storage.len(), 4);
    }

    #[test]
    fn background_compaction_applies_on_next_write() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(2, true);
        fill(&mut storage, &builder, 0..8);
        // Four small sealed segments; the worker needs a moment to merge
        // them, so poll through maintain().
        for _ in 0..200 {
            storage.maintain().unwrap();
            if storage.stats().sealed_segments < 4 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(storage.stats().sealed_segments < 4, "{:?}", storage.stats());
        assert_eq!(storage.len(), 8);
        let expect: Vec<ObjectId> = (0..8).map(ObjectId).collect();
        assert_eq!(storage.live_ids(), expect);
    }

    #[test]
    fn live_refs_cover_segments_and_memtable_minus_tombstones() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(3, false);
        fill(&mut storage, &builder, 0..8);
        storage.merge().unwrap();
        fill(&mut storage, &builder, 8..10);
        storage.tombstone(ObjectId(0)).unwrap();
        let ids: Vec<ObjectId> = storage.live_refs().iter().map(|(id, _, _)| *id).collect();
        let expect: Vec<ObjectId> = (1..10).map(ObjectId).collect();
        assert_eq!(ids, expect);
        assert_eq!(ids.len(), storage.len());
    }
}
