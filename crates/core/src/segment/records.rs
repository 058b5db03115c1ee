//! The records of one storage part, slot-indexed, with their sketch block.

use std::collections::{HashMap, HashSet};

use crate::error::{CoreError, Result};
use crate::filter::{BlockPart, SketchBlock};
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;

/// The records of one storage part (the monolithic map, the memtable or a
/// sealed segment) in insertion order.
///
/// Slot `s` holds object `block.ids()[s]`: its sketched form, its original
/// (if stored) and its rows in the contiguous [`SketchBlock`] the filter
/// streams. One id → slot map serves every lookup of a live object.
///
/// A removal only marks the slot dead (the filter skips its rows at
/// admission) and drops it from the map, so the id may be inserted again
/// into a fresh slot. Once at least half the slots are dead, one pass
/// compacts them away: a removal costs O(1) amortised.
#[derive(Debug, Default)]
pub(crate) struct Records {
    block: SketchBlock,
    sketched: Vec<SketchedObject>,
    originals: Vec<Option<DataObject>>,
    slots: HashMap<ObjectId, u32>,
    dead: HashSet<u32>,
    dead_rows: usize,
}

impl Records {
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

    /// Slot of the live object `id`.
    pub(crate) fn slot(&self, id: ObjectId) -> Option<usize> {
        self.slots.get(&id).map(|&s| s as usize)
    }

    pub(crate) fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.slot(id).map(|s| &self.sketched[s])
    }

    pub(crate) fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.slot(id).and_then(|s| self.originals[s].as_ref())
    }

    pub(crate) fn block(&self) -> &SketchBlock {
        &self.block
    }

    /// The block with the slots removed since the last compaction.
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

    /// Appends a record. The caller has checked `id` is not live.
    pub(crate) fn push(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()> {
        debug_assert!(!self.contains(id));
        let slot = u32::try_from(self.block.objects())
            .map_err(|_| CoreError::InvalidQuery("storage part exceeds 2^32 objects".into()))?;
        self.block.push(id, &sketched.sketches)?;
        self.sketched.push(sketched);
        self.originals.push(original);
        self.slots.insert(id, slot);
        Ok(())
    }

    /// Appends a copy of live slot `slot` of `from`, a part of the same
    /// width (see [`SketchBlock::push_slot`]).
    pub(crate) fn push_from(&mut self, from: &Records, slot: usize) {
        let id = from.block.ids()[slot];
        debug_assert!(!self.contains(id));
        self.slots.insert(id, self.block.objects() as u32);
        self.block.push_slot(&from.block, slot);
        self.sketched.push(from.sketched[slot].clone());
        self.originals.push(from.originals[slot].clone());
    }

    /// Removes `id` from the live set. Returns `false` if it was absent.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        let Some(slot) = self.slots.remove(&id) else {
            return false;
        };
        self.dead.insert(slot);
        self.dead_rows += self.block.slot_rows(slot as usize).len();
        if self.dead.len() * 2 >= self.block.objects() {
            self.compact();
        }
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
    }

    /// Reserves room for `objects` more records with `rows` more segment
    /// sketches of `nbits` bits, exactly when the part is empty.
    pub(crate) fn reserve(&mut self, objects: usize, rows: usize, nbits: usize) {
        self.block.reserve(objects, rows, nbits);
        self.sketched.reserve(objects);
        self.originals.reserve(objects);
        self.slots.reserve(objects);
    }

    /// Compacts and releases unused capacity, for a part that will not
    /// grow again.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.compact();
        self.block.shrink_to_fit();
        self.sketched.shrink_to_fit();
        self.originals.shrink_to_fit();
        self.slots.shrink_to_fit();
    }
}
