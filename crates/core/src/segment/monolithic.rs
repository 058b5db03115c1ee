//! The original storage layout: one insertion-ordered record set.

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::filter::BlockPart;
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::{Gauge, MetricsRegistry};
use ferret_store::SegmentStore;

use super::records::Records;
use super::{block_bytes_gauge, IndexLayout, IndexStorage, Record, StorageStats};

/// One mutable record set with a single sketch block. A removal marks
/// its slot dead, and the record set compacts itself once half its slots
/// are dead, so there is nothing to seal or merge.
#[derive(Default)]
pub struct MonolithicStorage {
    records: Records,
    epoch: u64,
    block_bytes: Option<Arc<Gauge>>,
}

impl std::fmt::Debug for MonolithicStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonolithicStorage")
            .field("live", &self.records.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl MonolithicStorage {
    /// Creates an empty monolithic storage.
    pub fn new() -> Self {
        Self::default()
    }

    fn publish_gauges(&self) {
        if let Some(gauge) = &self.block_bytes {
            gauge.set(self.records.block().capacity_bytes() as i64);
        }
    }
}

impl IndexStorage for MonolithicStorage {
    fn layout(&self) -> IndexLayout {
        IndexLayout::Monolithic
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.records.contains(id)
    }

    fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.records.object(id)
    }

    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.records.sketch(id)
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        self.records.iter().map(|(id, _, _)| id).collect()
    }

    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)> {
        self.records.iter().collect()
    }

    fn block_parts(&self) -> Vec<BlockPart<'_>> {
        vec![self.records.block_part()]
    }

    fn insert_batch(&mut self, batch: Vec<Record>) -> Result<()> {
        let rows = batch.iter().map(|(_, so, _)| so.num_segments()).sum();
        let nbits = batch
            .iter()
            .find_map(|(_, so, _)| so.sketches.first())
            .map_or(0, |s| s.len());
        self.records.reserve(batch.len(), rows, nbits);
        self.publish_gauges();
        for (id, sketched, original) in batch {
            if self.records.contains(id) {
                return Err(CoreError::DuplicateObject(id.0));
            }
            self.records.push(id, sketched, original)?;
            self.epoch += 1;
        }
        Ok(())
    }

    fn tombstone(&mut self, id: ObjectId) -> Result<bool> {
        let present = self.records.remove(id);
        if present {
            self.epoch += 1;
            self.publish_gauges();
        }
        Ok(present)
    }

    fn seal(&mut self) -> Result<()> {
        Ok(())
    }

    fn merge(&mut self) -> Result<()> {
        self.records.compact();
        self.publish_gauges();
        Ok(())
    }

    fn maintain(&mut self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.records.len(),
            memtable_objects: 0,
            sealed_segments: 0,
            tombstones: self.records.block().objects() - self.records.len(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.block_bytes = registry.as_deref().map(block_bytes_gauge);
        self.publish_gauges();
    }

    fn attach_persistence(&mut self, _store: SegmentStore) -> Result<()> {
        Ok(())
    }

    fn persistence_handle(&self) -> Option<&SegmentStore> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    fn sketched(builder: &SketchBuilder, v: &[f32]) -> (DataObject, SketchedObject) {
        let obj = DataObject::single(FeatureVector::new(v.to_vec()).unwrap());
        let so = builder.sketch_object(&obj).unwrap();
        (obj, so)
    }

    #[test]
    fn insert_tombstone_roundtrip() {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let builder = SketchBuilder::new(params, 7);
        let mut storage = MonolithicStorage::new();
        let (obj, so) = sketched(&builder, &[0.1, 0.2]);
        storage
            .insert_batch(vec![(ObjectId(1), so, Some(obj))])
            .unwrap();
        assert!(storage.contains(ObjectId(1)));
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.live_ids(), vec![ObjectId(1)]);
        let e0 = storage.epoch();
        assert!(storage.tombstone(ObjectId(1)).unwrap());
        assert!(!storage.tombstone(ObjectId(1)).unwrap());
        assert!(storage.epoch() > e0);
        assert!(storage.is_empty());
        assert_eq!(storage.stats(), StorageStats::default());
    }

    #[test]
    fn removals_mark_slots_dead_until_half_are() {
        use crate::filter::{filter_blocks, filter_candidates, FilterParams};
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let builder = SketchBuilder::new(params, 7);
        let record = |id: u64, x: f32| {
            let (obj, so) = sketched(&builder, &[x, 1.0 - x]);
            (ObjectId(id), so, Some(obj))
        };
        let mut storage = MonolithicStorage::new();
        storage
            .insert_batch((0..4).map(|i| record(i, 0.1 * i as f32)).collect())
            .unwrap();
        // Remove and re-insert id 1: its old slot stays, dead, beside the
        // new one.
        assert!(storage.tombstone(ObjectId(1)).unwrap());
        storage.insert_batch(vec![record(1, 0.9)]).unwrap();
        assert_eq!(storage.len(), 4);
        assert_eq!(storage.stats().tombstones, 1);
        let parts = storage.block_parts();
        assert_eq!((parts[0].block.objects(), parts[0].live_objects()), (5, 4));
        assert_eq!(storage.live_ids(), [0, 2, 3, 1].map(ObjectId).to_vec());
        let (_, query, _) = record(9, 0.85);
        let filter = FilterParams {
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let live: Vec<(ObjectId, &SketchedObject)> = storage
            .live_refs()
            .into_iter()
            .map(|(id, so, _)| (id, so))
            .collect();
        let reference = filter_candidates(&query, live, &filter).unwrap();
        let (cands, stats, _) = filter_blocks(&query, &parts, &filter, 1).unwrap();
        assert_eq!((cands, stats), reference);
        assert_eq!(storage.sketch(ObjectId(1)), Some(&record(1, 0.9).1));
        // A third dead slot of five compacts the part.
        assert!(storage.tombstone(ObjectId(0)).unwrap());
        assert_eq!(storage.block_parts()[0].block.objects(), 5);
        assert!(storage.tombstone(ObjectId(2)).unwrap());
        let parts = storage.block_parts();
        assert_eq!((parts[0].block.objects(), parts[0].dead_rows), (2, 0));
        assert_eq!(storage.live_ids(), vec![ObjectId(3), ObjectId(1)]);
        assert_eq!(storage.stats().tombstones, 0);
    }
}
