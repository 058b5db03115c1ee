//! Exactness contract of the LSM-style segmented index layout.
//!
//! The contract under test (DESIGN.md §5.6, "Segmented index contract"):
//! a `Segmented` engine must answer every query *bit-identically* to a
//! `Monolithic` twin fed the same mutation sequence, no matter where the
//! memtable seals fall, how many segments exist, or when compaction
//! merges them. Seal and merge are pure re-arrangements of the same
//! logical object set; they must never change a result, a distance, or
//! the visible id set.

use proptest::prelude::*;

use ferret::core::engine::{EngineBuilder, EngineConfig, QueryMode, QueryOptions, SearchEngine};
use ferret::core::filter::FilterParams;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::segment::IndexLayout;
use ferret::core::sketch::SketchParams;
use ferret::core::vector::FeatureVector;
use ferret::query::FerretService;

/// Deterministic pseudo-random components without a generator dependency.
fn mix(seed: u64, i: u64, d: u64) -> f32 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(d.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    (z % 10_000) as f32 / 10_000.0
}

fn mixed_object(seed: u64, i: u64) -> DataObject {
    DataObject::single(
        FeatureVector::new(vec![mix(seed, i, 0), mix(seed, i, 1), mix(seed, i, 2)]).unwrap(),
    )
}

fn config(seed: u64) -> EngineConfig {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    EngineConfig::basic(params, seed).with_parallelism(Parallelism::Serial)
}

fn build_pair(seed: u64, memtable: usize) -> (SearchEngine, SearchEngine) {
    let mono = EngineBuilder::from_config(config(seed)).build().unwrap();
    // Compaction runs inline (`with_compaction(false)` + explicit
    // `compact()`) so the op interleaving below is fully deterministic.
    let seg = EngineBuilder::from_config(
        config(seed)
            .with_index_layout(IndexLayout::Segmented)
            .with_memtable_size(memtable)
            .with_compaction(false),
    )
    .build()
    .unwrap();
    (mono, seg)
}

/// One step of the mutation interleaving. Structural ops (seal, compact,
/// maintain) only apply to the segmented twin — on the monolithic layout
/// they are no-ops by contract, which is itself part of what we pin.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Seal,
    Compact,
    Maintain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix: inserts dominate so corpora actually grow, with
    // enough removals and structural ops to shake the layering.
    (0usize..9, 0u64..48).prop_map(|(kind, i)| match kind {
        0..=3 => Op::Insert(i),
        4 | 5 => Op::Remove(i),
        6 => Op::Seal,
        7 => Op::Compact,
        _ => Op::Maintain,
    })
}

fn apply(engine: &mut SearchEngine, op: &Op, seed: u64) {
    match op {
        Op::Insert(i) => {
            // Duplicate ids are rejected by both layouts identically;
            // skip them so the logical sets stay in lockstep.
            if !engine.contains(ObjectId(*i)) {
                engine.insert(ObjectId(*i), mixed_object(seed, *i)).unwrap();
            }
        }
        Op::Remove(i) => {
            engine.remove(ObjectId(*i)).unwrap();
        }
        Op::Seal => engine.seal().unwrap(),
        Op::Compact => engine.compact().unwrap(),
        Op::Maintain => engine.maintain().unwrap(),
    }
}

/// Asserts every observable of the pair matches: id set, lengths, full
/// ranked responses (ids *and* distances) and scan statistics in both
/// brute-force and filtering modes.
fn assert_twins(mono: &SearchEngine, seg: &SearchEngine, ctx: &str) {
    assert_eq!(mono.len(), seg.len(), "len diverged {ctx}");
    let mut a = mono.ids();
    let mut b = seg.ids();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "id set diverged {ctx}");
    let query = mixed_object(0xFE44E7, 999);
    let brute = QueryOptions::brute_force(8);
    let filtered = filtering_options();
    for (name, opts) in [("brute", &brute), ("filtering", &filtered)] {
        let ra = mono.query(&query, opts).unwrap();
        let rb = seg.query(&query, opts).unwrap();
        assert_eq!(
            ra.results, rb.results,
            "{name} results diverged {ctx} (stats mono={:?} seg={:?})",
            ra.stats, rb.stats
        );
        // Dead rows still in sealed segments are never counted.
        assert_eq!(
            (
                ra.stats.objects_scanned,
                ra.stats.segments_scanned,
                ra.stats.distance_evals
            ),
            (
                rb.stats.objects_scanned,
                rb.stats.segments_scanned,
                rb.stats.distance_evals
            ),
            "{name} stats diverged {ctx}"
        );
    }
}

fn filtering_options() -> QueryOptions {
    QueryOptions::default()
        .with_mode(QueryMode::Filtering)
        .with_k(8)
        .with_filter(FilterParams {
            query_segments: 2,
            candidates_per_segment: 4,
            base_threshold: Some(10),
            weight_attenuation: 0.25,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of inserts, removals, seals, inline merges,
    /// and maintenance ticks: the segmented engine answers exactly like
    /// the monolithic one after every structural op, for tiny memtables
    /// (so even short runs span many segments).
    #[test]
    fn segmented_matches_monolithic_under_interleaving(
        ops in prop::collection::vec(op_strategy(), 1..60),
        memtable in 1usize..5,
        seed in 0u64..64,
    ) {
        let (mut mono, mut seg) = build_pair(seed, memtable);
        for (step, op) in ops.iter().enumerate() {
            apply(&mut mono, op, seed);
            apply(&mut seg, op, seed);
            // Structural ops must be invisible: check right after each.
            if matches!(op, Op::Seal | Op::Compact | Op::Maintain) {
                assert_twins(&mono, &seg, &format!("after step {step} ({op:?})"));
            }
        }
        assert_twins(&mono, &seg, "after final op");
        // Force everything through seal + full merge and re-check: a
        // fully-compacted segmented engine is still bit-identical.
        seg.seal().unwrap();
        seg.compact().unwrap();
        assert_twins(&mono, &seg, "after final seal+compact");
    }
}

/// Deterministic lifecycle walk with invariants the proptest can't see:
/// segment/memtable counts from `storage_stats`, epoch monotonicity, and
/// tombstone draining through compaction.
#[test]
fn lifecycle_stats_and_epochs() {
    let (mut mono, mut seg) = build_pair(7, 4);
    let mut last_epoch = seg.storage_epoch();
    for i in 0..32u64 {
        let obj = mixed_object(7, i);
        mono.insert(ObjectId(i), obj.clone()).unwrap();
        seg.insert(ObjectId(i), obj).unwrap();
        let e = seg.storage_epoch();
        assert!(e > last_epoch, "insert must advance the storage epoch");
        last_epoch = e;
    }
    let st = seg.storage_stats();
    assert_eq!(st.live_objects, 32);
    assert!(
        st.sealed_segments >= 32 / 4 - 1,
        "memtable of 4 must have sealed ~8 segments, saw {}",
        st.sealed_segments
    );
    assert!(st.memtable_objects < 4);
    assert_twins(&mono, &seg, "after load");

    // Remove a slice that lives in sealed segments: tombstones appear,
    // results stay in lockstep, and compaction drains them.
    for i in (0..32u64).step_by(3) {
        assert!(mono.remove(ObjectId(i)).unwrap());
        assert!(seg.remove(ObjectId(i)).unwrap());
    }
    assert!(
        seg.storage_stats().tombstones > 0,
        "sealed removals must tombstone"
    );
    assert_twins(&mono, &seg, "after removals");

    seg.seal().unwrap();
    seg.compact().unwrap();
    let st = seg.storage_stats();
    assert_eq!(st.tombstones, 0, "full compaction must drain tombstones");
    assert_eq!(st.memtable_objects, 0);
    assert_eq!(st.live_objects, mono.len());
    assert_twins(&mono, &seg, "after drain compaction");

    // Monolithic structural ops are no-ops but must not error.
    mono.seal().unwrap();
    mono.compact().unwrap();
    mono.maintain().unwrap();
    assert_eq!(mono.storage_stats().sealed_segments, 0);
}

/// Re-inserting an id that only exists as a tombstone in a sealed
/// segment resurrects it with the *new* payload — the freshest layer
/// must shadow both the tombstone and the original.
#[test]
fn reinsert_over_tombstone_uses_newest_payload() {
    let (mut mono, mut seg) = build_pair(11, 2);
    for i in 0..8u64 {
        let obj = mixed_object(11, i);
        mono.insert(ObjectId(i), obj.clone()).unwrap();
        seg.insert(ObjectId(i), obj).unwrap();
    }
    seg.seal().unwrap();
    for eng in [&mut mono, &mut seg] {
        assert!(eng.remove(ObjectId(3)).unwrap());
        eng.insert(ObjectId(3), mixed_object(99, 3)).unwrap();
    }
    assert_twins(&mono, &seg, "after reinsert");
    seg.seal().unwrap();
    seg.compact().unwrap();
    assert_twins(&mono, &seg, "after reinsert compaction");
    let obj = seg.object(ObjectId(3)).expect("reinserted object");
    assert_eq!(obj, &mixed_object(99, 3), "stale payload resurrected");
}

/// The filter follows the engine through inserts, removals and
/// re-inserts: after every mutation both layouts answer a filtering
/// query exactly like an engine built fresh from the live objects.
#[test]
fn filter_tracks_insert_remove_reinsert() {
    let seed = 0xA5E_u64;
    let (mono, seg) = build_pair(seed, 4);
    let mut engines = [mono, seg];
    let mut live: Vec<(ObjectId, DataObject)> = Vec::new();
    let check = |engines: &[SearchEngine], live: &[(ObjectId, DataObject)], step: &str| {
        let mut fresh = EngineBuilder::from_config(config(seed)).build().unwrap();
        fresh.insert_batch(live.to_vec()).unwrap();
        let opts = filtering_options();
        let want = fresh.query_by_id(ObjectId(0), &opts).unwrap().results;
        for engine in engines {
            let got = engine.query_by_id(ObjectId(0), &opts).unwrap().results;
            assert_eq!(
                got,
                want,
                "{} diverged from a fresh engine after {step}",
                engine.index_layout()
            );
        }
    };
    let insert = |engines: &mut [SearchEngine], live: &mut Vec<_>, i: u64, obj: DataObject| {
        for engine in engines.iter_mut() {
            engine.insert(ObjectId(i), obj.clone()).unwrap();
        }
        live.push((ObjectId(i), obj));
    };
    for i in 0..40u64 {
        insert(&mut engines, &mut live, i, mixed_object(seed, i));
    }
    check(&engines, &live, "initial load");
    for i in 40..60u64 {
        insert(&mut engines, &mut live, i, mixed_object(seed, i));
    }
    check(&engines, &live, "incremental insert");
    for i in (10..30u64).step_by(3) {
        for engine in engines.iter_mut() {
            assert!(engine.remove(ObjectId(i)).unwrap());
        }
        live.retain(|(id, _)| *id != ObjectId(i));
    }
    check(&engines, &live, "removal");
    for i in (10..30u64).step_by(3) {
        let obj = mixed_object(seed.wrapping_add(7), i);
        insert(&mut engines, &mut live, i, obj);
    }
    check(&engines, &live, "re-insert after removal");
}

/// Regression for the rebuild config-drop bug: a service-level sketch
/// retune replaces the engine wholesale, and the replacement used to be
/// built from a minimal config that silently reset every knob added
/// after the original fields — including the index layout. The retune
/// must preserve the full configuration *and* invalidate the service's
/// result cache.
#[test]
fn service_retune_preserves_layout_and_bumps_cache_epoch() {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let config = EngineConfig::basic(params, 5)
        .with_index_layout(IndexLayout::Segmented)
        .with_memtable_size(2)
        .with_compaction(false);
    let mut svc = FerretService::in_memory(config).unwrap();
    for i in 0..12u64 {
        svc.insert(ObjectId(i), mixed_object(5, i), None).unwrap();
    }
    assert!(svc.engine().storage_stats().sealed_segments > 0);

    let before = svc.cache_epoch();
    svc.retune_sketches(96, 2, 17).unwrap();
    assert!(
        svc.cache_epoch() > before,
        "retune must invalidate cached replies"
    );

    let engine = svc.engine();
    assert_eq!(engine.len(), 12, "retune must carry every object over");
    assert_eq!(
        engine.index_layout(),
        IndexLayout::Segmented,
        "rebuild dropped the index layout"
    );
    assert_eq!(engine.config().memtable_size, 2);
    assert!(!engine.config().compaction);
    // The replacement engine re-seals with the preserved memtable size,
    // so the segmented structure survives the retune too.
    let st = engine.storage_stats();
    assert_eq!(st.live_objects, 12);
    assert!(st.sealed_segments > 0, "rebuilt engine lost its segments");
}
