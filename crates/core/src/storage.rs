//! The engine's record storage: one insertion-ordered, slot-indexed
//! record set (sketches plus optional originals) with one contiguous
//! [`SketchBlock`] that the filter stage streams.
//!
//! Slot `s` holds object `block.ids()[s]`: its sketched form, its original
//! (if stored) and its rows in the block. One id → slot map serves every
//! lookup of a live object.
//!
//! A removal only marks the slot dead (the filter skips its rows at
//! admission) and drops it from the map, so the id may be inserted again
//! into a fresh slot. Once at least half the slots are dead, one pass
//! compacts them away: a removal costs O(1) amortised. Query results
//! never depend on slot order, because the filter scan's heap admission
//! is a total order that ignores it (see [`crate::filter`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::filter::{BlockPart, SketchBlock};
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::{Gauge, MetricsRegistry};

/// One record to insert: id, sketched form, and the original object
/// (`None` for sketch-only engines).
pub(crate) type Record = (ObjectId, SketchedObject, Option<DataObject>);

/// Point-in-time shape of the engine's storage, for `stat` reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Objects visible to queries.
    pub live_objects: usize,
    /// Always 0. Kept only because the benchmark harness still reads it.
    pub memtable_objects: usize,
    /// Always 0. Kept only because the benchmark harness still reads it.
    pub sealed_segments: usize,
    /// Removed objects whose slots have not been compacted away yet.
    pub tombstones: usize,
}

/// The engine's records. All mutation goes through `&mut self` (the
/// service serializes writers behind its lock), so a reader borrowing
/// `&self` can never observe a torn mutation.
#[derive(Default)]
pub(crate) struct Storage {
    block: SketchBlock,
    sketched: Vec<SketchedObject>,
    originals: Vec<Option<DataObject>>,
    slots: HashMap<ObjectId, u32>,
    dead: HashSet<u32>,
    dead_rows: usize,
    /// Advances on every visible mutation.
    epoch: u64,
    /// `ferret_sketch_block_bytes`, set from the block's capacity.
    block_bytes: Option<Arc<Gauge>>,
}

impl Storage {
    /// Live objects.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.slots.contains_key(&id)
    }

    fn slot(&self, id: ObjectId) -> Option<usize> {
        self.slots.get(&id).map(|&s| s as usize)
    }

    pub(crate) fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.slot(id).map(|s| &self.sketched[s])
    }

    pub(crate) fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.slot(id).and_then(|s| self.originals[s].as_ref())
    }

    /// The block with the slots removed since the last compaction, for
    /// the filter stage. O(1): nothing is walked.
    pub(crate) fn block_part(&self) -> BlockPart<'_> {
        BlockPart {
            block: &self.block,
            dead: (!self.dead.is_empty()).then_some(&self.dead),
            dead_rows: self.dead_rows,
        }
    }

    /// Every live record in insertion order.
    pub(crate) fn iter(
        &self,
    ) -> impl Iterator<Item = (ObjectId, &SketchedObject, Option<&DataObject>)> {
        self.block
            .ids()
            .iter()
            .zip(&self.sketched)
            .zip(&self.originals)
            .enumerate()
            .filter(|(slot, _)| !self.dead.contains(&(*slot as u32)))
            .map(|(_, ((&id, so), obj))| (id, so, obj.as_ref()))
    }

    /// Inserts new objects in batch order, reserving room for the whole
    /// batch up front. An id already live fails with
    /// [`CoreError::DuplicateObject`]; records before it stay inserted.
    pub(crate) fn insert_batch(&mut self, batch: Vec<Record>) -> Result<()> {
        let rows = batch.iter().map(|(_, so, _)| so.num_segments()).sum();
        let nbits = batch
            .iter()
            .find_map(|(_, so, _)| so.sketches.first())
            .map_or(0, |s| s.len());
        self.block.reserve(batch.len(), rows, nbits);
        self.sketched.reserve(batch.len());
        self.originals.reserve(batch.len());
        self.slots.reserve(batch.len());
        self.publish_gauge();
        for (id, sketched, original) in batch {
            if self.contains(id) {
                return Err(CoreError::DuplicateObject(id.0));
            }
            let slot = u32::try_from(self.block.objects())
                .map_err(|_| CoreError::InvalidQuery("storage exceeds 2^32 objects".into()))?;
            self.block.push(id, &sketched.sketches)?;
            self.sketched.push(sketched);
            self.originals.push(original);
            self.slots.insert(id, slot);
            self.epoch += 1;
        }
        Ok(())
    }

    /// Removes `id` from the live set; returns `false` if it was absent.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        let Some(slot) = self.slots.remove(&id) else {
            return false;
        };
        self.dead.insert(slot);
        self.dead_rows += self.block.slot_rows(slot as usize).len();
        if self.dead.len() * 2 >= self.block.objects() {
            self.compact();
        }
        self.epoch += 1;
        true
    }

    /// Drops the dead slots in one pass, keeping insertion order.
    pub(crate) fn compact(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.dead);
        let keep: Vec<bool> = (0..self.block.objects() as u32)
            .map(|slot| !dead.contains(&slot))
            .collect();
        let mut block = SketchBlock::default();
        block.reserve(
            self.slots.len(),
            self.block.rows() - self.dead_rows,
            self.block.nbits().unwrap_or(0),
        );
        for slot in (0..keep.len()).filter(|&s| keep[s]) {
            block.push_slot(&self.block, slot);
        }
        self.block = block;
        let mut slot = 0;
        self.sketched.retain(|_| {
            slot += 1;
            keep[slot - 1]
        });
        let mut slot = 0;
        self.originals.retain(|_| {
            slot += 1;
            keep[slot - 1]
        });
        for (slot, id) in self.block.ids().iter().enumerate() {
            self.slots.insert(*id, slot as u32);
        }
        self.dead_rows = 0;
        self.publish_gauge();
    }

    pub(crate) fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.len(),
            tombstones: self.dead.len(),
            ..StorageStats::default()
        }
    }

    /// Monotone version counter; advances on every visible mutation.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wires (or unwires) the registry `ferret_sketch_block_bytes` is
    /// published into.
    pub(crate) fn set_telemetry(&mut self, registry: Option<&MetricsRegistry>) {
        self.block_bytes = registry.map(|r| {
            r.gauge(
                "ferret_sketch_block_bytes",
                "Bytes allocated by the filter's contiguous sketch blocks.",
                &[],
            )
        });
        self.publish_gauge();
    }

    fn publish_gauge(&self) {
        if let Some(gauge) = &self.block_bytes {
            gauge.set(self.block.capacity_bytes() as i64);
        }
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage")
            .field("live", &self.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{filter_block, filter_candidates, FilterParams};
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    fn record_fn(builder: &SketchBuilder) -> impl Fn(u64, f32) -> Record + '_ {
        move |id, x| {
            let obj = DataObject::single(FeatureVector::new(vec![x, 1.0 - x]).unwrap());
            let so = builder.sketch_object(&obj).unwrap();
            (ObjectId(id), so, Some(obj))
        }
    }

    fn live_ids(storage: &Storage) -> Vec<ObjectId> {
        storage.iter().map(|(id, _, _)| id).collect()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let builder = SketchBuilder::new(params, 7);
        let record = record_fn(&builder);
        let mut storage = Storage::default();
        storage.insert_batch(vec![record(1, 0.1)]).unwrap();
        assert!(storage.contains(ObjectId(1)));
        assert_eq!(storage.len(), 1);
        assert_eq!(live_ids(&storage), vec![ObjectId(1)]);
        assert!(matches!(
            storage.insert_batch(vec![record(1, 0.2)]),
            Err(CoreError::DuplicateObject(1))
        ));
        let e0 = storage.epoch();
        assert!(storage.remove(ObjectId(1)));
        assert!(!storage.remove(ObjectId(1)));
        assert!(storage.epoch() > e0);
        assert!(storage.is_empty());
        assert_eq!(storage.stats(), StorageStats::default());
    }

    #[test]
    fn removals_mark_slots_dead_until_half_are() {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let builder = SketchBuilder::new(params, 7);
        let record = record_fn(&builder);
        let mut storage = Storage::default();
        storage
            .insert_batch((0..4).map(|i| record(i, 0.1 * i as f32)).collect())
            .unwrap();
        // Remove and re-insert id 1: its old slot stays, dead, beside the
        // new one.
        assert!(storage.remove(ObjectId(1)));
        storage.insert_batch(vec![record(1, 0.9)]).unwrap();
        assert_eq!(storage.len(), 4);
        assert_eq!(storage.stats().tombstones, 1);
        let part = storage.block_part();
        assert_eq!((part.block.objects(), part.live_objects()), (5, 4));
        assert_eq!(live_ids(&storage), [0, 2, 3, 1].map(ObjectId).to_vec());
        let (_, query, _) = record(9, 0.85);
        let filter = FilterParams {
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let live = storage.iter().map(|(id, so, _)| (id, so));
        let reference = filter_candidates(&query, live, &filter).unwrap();
        let (cands, stats, _) = filter_block(&query, part, &filter, 1).unwrap();
        assert_eq!((cands, stats), reference);
        assert_eq!(storage.sketch(ObjectId(1)), Some(&record(1, 0.9).1));
        // A third dead slot of five compacts the record set.
        assert!(storage.remove(ObjectId(0)));
        assert_eq!(storage.block_part().block.objects(), 5);
        assert!(storage.remove(ObjectId(2)));
        let part = storage.block_part();
        assert_eq!((part.block.objects(), part.dead_rows), (2, 0));
        assert_eq!(live_ids(&storage), vec![ObjectId(3), ObjectId(1)]);
        assert_eq!(storage.stats().tombstones, 0);
    }
}
