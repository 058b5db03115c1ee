//! Storage layouts for the engine's records: the monolithic object map and
//! the LSM-style segmented layout, behind one [`IndexStorage`] seam.
//!
//! Both layouts store records only (sketches plus optional originals) in
//! slot-indexed parts, and every part keeps its segment sketches in one
//! contiguous [`SketchBlock`](crate::filter::SketchBlock); the filter stage
//! streams the blocks [`IndexStorage::block_parts`] returns.
//!
//! * [`MonolithicStorage`] — one insertion-ordered part; a removal marks
//!   its slot dead and the part compacts itself once half its slots are.
//! * [`SegmentedStorage`] — an LSM-style layout: a small mutable
//!   **memtable** absorbs inserts; when it reaches the configured size it
//!   is **sealed** into an immutable segment; removals land in per-segment
//!   **dead sets**, and a background **compaction** worker reclaims them
//!   and merges runs of small segments off the write path.
//!
//! The exactness contract is layout-independent: query results are
//! bit-identical across layouts for the same live object set (pinned by
//! `tests/segmented_index.rs`), because the filter scan's heap admission
//! is a total order that ignores record order (see [`crate::filter`]).

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::filter::BlockPart;
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::{Gauge, MetricsRegistry};
use ferret_store::SegmentStore;

mod monolithic;
mod records;
mod segmented;

pub use monolithic::MonolithicStorage;
pub use segmented::SegmentedStorage;

/// Which storage layout backs the engine's records.
///
/// Both layouts answer every query bit-identically; they differ in how
/// removals and ingest are laid out. `Monolithic` mutates one map in
/// place; `Segmented` seals immutable segments and compacts them in the
/// background.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexLayout {
    /// One mutable, insertion-ordered object map.
    #[default]
    Monolithic,
    /// LSM-style memtable + immutable sealed segments with background
    /// compaction.
    Segmented,
}

impl std::fmt::Display for IndexLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexLayout::Monolithic => "monolithic",
            IndexLayout::Segmented => "segmented",
        })
    }
}

impl std::str::FromStr for IndexLayout {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "monolithic" => Ok(IndexLayout::Monolithic),
            "segmented" => Ok(IndexLayout::Segmented),
            other => Err(CoreError::InvalidQuery(format!(
                "unknown index layout {other:?} (expected monolithic or segmented)"
            ))),
        }
    }
}

/// One record to insert: id, sketched form, and the original object
/// (`None` for sketch-only engines).
pub type Record = (ObjectId, SketchedObject, Option<DataObject>);

/// Point-in-time shape of an [`IndexStorage`], for `stat` reporting and
/// the segment gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Objects visible to queries.
    pub live_objects: usize,
    /// Objects still in the mutable memtable (0 for monolithic).
    pub memtable_objects: usize,
    /// Immutable sealed segments (0 for monolithic).
    pub sealed_segments: usize,
    /// Removed objects whose storage has not been reclaimed yet.
    pub tombstones: usize,
}

/// The storage seam between the engine and its records.
///
/// One implementation per [`IndexLayout`]. All mutation happens through
/// `&mut self` (the service serializes writers behind its lock); readers
/// borrow plain `&self` views, so the borrow checker enforces that a
/// reader can never observe a torn mutation.
pub trait IndexStorage: Send + Sync {
    /// The layout this storage implements.
    fn layout(&self) -> IndexLayout;

    /// Live (visible) objects.
    fn len(&self) -> usize;

    /// True if no live objects remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `id` is live.
    fn contains(&self, id: ObjectId) -> bool;

    /// The original object, if originals are stored and `id` is live.
    fn object(&self, id: ObjectId) -> Option<&DataObject>;

    /// The sketched form of a live object.
    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject>;

    /// Live object ids in insertion order (sealed segments in seal order,
    /// then the memtable).
    fn live_ids(&self) -> Vec<ObjectId>;

    /// Every live record in insertion order.
    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)>;

    /// The sketch block of every part, with the removed objects each one
    /// still holds, for the filter stage. O(parts): nothing is walked.
    fn block_parts(&self) -> Vec<BlockPart<'_>>;

    /// Inserts new objects in batch order. The monolithic layout reserves
    /// room for the whole batch up front. An id already live fails with
    /// [`CoreError::DuplicateObject`]; records before it stay inserted.
    fn insert_batch(&mut self, batch: Vec<Record>) -> Result<()>;

    /// Removes `id` from the visible set; returns `true` if it was live.
    ///
    /// Segmented storage cannot mutate sealed segments, so the removal is
    /// recorded in the owning segment's dead set and reclaimed by a later
    /// compaction — hence "tombstone", not "remove".
    fn tombstone(&mut self, id: ObjectId) -> Result<bool>;

    /// Freezes the current memtable into an immutable sealed segment
    /// (no-op when the memtable is empty, and for monolithic storage).
    fn seal(&mut self) -> Result<()>;

    /// Runs compaction to quiescence *inline* and deterministically:
    /// applies any finished background merges, then merges until no
    /// maintenance is due. Monolithic storage drops its dead slots.
    fn merge(&mut self) -> Result<()>;

    /// Applies finished background work and schedules any due compaction,
    /// without blocking on it. Writers call this opportunistically; a
    /// periodic caller (the serve scan loop) guarantees progress even on
    /// an idle write path.
    fn maintain(&mut self) -> Result<()>;

    /// Point-in-time layout statistics.
    fn stats(&self) -> StorageStats;

    /// Monotone version counter; advances on every visible mutation.
    fn epoch(&self) -> u64;

    /// Wires (or unwires) the metrics registry the storage publishes its
    /// gauges and compaction series into.
    fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>);

    /// Attaches durable segment persistence. The storage checkpoints its
    /// current sealed segments immediately and persists every subsequent
    /// seal and compaction through the store's manifest-swap protocol.
    /// Monolithic storage has no segments to persist and ignores this.
    fn attach_persistence(&mut self, store: SegmentStore) -> Result<()>;

    /// The attached segment store, if any.
    fn persistence_handle(&self) -> Option<&SegmentStore>;
}

/// The eagerly registered gauge of bytes the storage's sketch blocks have
/// allocated. Storage sets it from block capacities it tracks, never by
/// walking records.
pub(crate) fn block_bytes_gauge(registry: &MetricsRegistry) -> Arc<Gauge> {
    registry.gauge(
        "ferret_sketch_block_bytes",
        "Bytes allocated by the filter's contiguous sketch blocks.",
        &[],
    )
}

/// Converts a store-layer failure into the engine's error type.
pub(crate) fn store_err(e: ferret_store::StoreError) -> CoreError {
    CoreError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_layout_parse_roundtrip() {
        for layout in [IndexLayout::Monolithic, IndexLayout::Segmented] {
            assert_eq!(layout.to_string().parse::<IndexLayout>().unwrap(), layout);
        }
        for bad in ["", "lsm", "Monolithic", "segmented "] {
            assert!(bad.parse::<IndexLayout>().is_err(), "{bad:?}");
        }
        assert_eq!(IndexLayout::default(), IndexLayout::Monolithic);
    }
}
