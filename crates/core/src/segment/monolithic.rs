//! The original storage layout: one insertion-ordered object map.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::MetricsRegistry;
use ferret_store::SegmentStore;

use super::{IndexLayout, IndexStorage, StorageStats};

/// One mutable object map. Removals take effect immediately, so there is
/// nothing to seal or compact.
#[derive(Default)]
pub struct MonolithicStorage {
    order: Vec<ObjectId>,
    objects: HashMap<ObjectId, DataObject>,
    sketches: HashMap<ObjectId, SketchedObject>,
    epoch: u64,
}

impl std::fmt::Debug for MonolithicStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonolithicStorage")
            .field("live", &self.order.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl MonolithicStorage {
    /// Creates an empty monolithic storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IndexStorage for MonolithicStorage {
    fn layout(&self) -> IndexLayout {
        IndexLayout::Monolithic
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.sketches.contains_key(&id)
    }

    fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(&id)
    }

    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.sketches.get(&id)
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        self.order.clone()
    }

    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)> {
        self.order
            .iter()
            .filter_map(|id| {
                self.sketches
                    .get(id)
                    .map(|so| (*id, so, self.objects.get(id)))
            })
            .collect()
    }

    fn insert(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()> {
        if self.sketches.contains_key(&id) {
            return Err(CoreError::DuplicateObject(id.0));
        }
        self.sketches.insert(id, sketched);
        if let Some(object) = original {
            self.objects.insert(id, object);
        }
        self.order.push(id);
        self.epoch += 1;
        Ok(())
    }

    fn tombstone(&mut self, id: ObjectId) -> Result<bool> {
        let present = self.sketches.remove(&id).is_some();
        self.objects.remove(&id);
        if present {
            self.order.retain(|&x| x != id);
            self.epoch += 1;
        }
        Ok(present)
    }

    fn seal(&mut self) -> Result<()> {
        Ok(())
    }

    fn merge(&mut self) -> Result<()> {
        Ok(())
    }

    fn maintain(&mut self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.order.len(),
            memtable_objects: 0,
            sealed_segments: 0,
            tombstones: 0,
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_telemetry(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}

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
        storage.insert(ObjectId(1), so, Some(obj)).unwrap();
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
}
