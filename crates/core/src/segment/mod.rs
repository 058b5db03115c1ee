//! Storage layouts for the engine's records: the monolithic object map and
//! the LSM-style segmented layout, behind one [`IndexStorage`] seam.
//!
//! Both layouts store records only (sketches plus optional originals);
//! the filter stage scans whatever [`IndexStorage::live_refs`] returns.
//!
//! * [`MonolithicStorage`] — one insertion-ordered map; removals take
//!   effect in place.
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
use crate::object::{DataObject, ObjectId};
use crate::sketch::SketchedObject;
use crate::telemetry::MetricsRegistry;
use ferret_store::SegmentStore;

mod monolithic;
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

    /// Inserts a new object. `original` is `None` for sketch-only engines.
    fn insert(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()>;

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
    /// maintenance is due. A no-op for monolithic storage, which removes
    /// in place.
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
