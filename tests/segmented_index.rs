//! Mutation contract of the engine's segment-sketch storage.
//!
//! The contract under test (DESIGN.md §5.6, "Storage contract"): after
//! any sequence of inserts, removals, re-inserts and compactions, an
//! engine answers every query *bit-identically* to an engine built fresh
//! from the same live objects in the same insertion order: the same ids,
//! distances, ranks and [`QueryStats`]. A removal only marks a slot dead
//! and the storage compacts itself once half its slots are dead; neither
//! the dead slots nor the moment of compaction may ever show.

use std::time::Duration;

use proptest::prelude::*;

use ferret::core::engine::{
    EngineBuilder, EngineConfig, QueryMode, QueryOptions, QueryResponse, QueryStats, SearchEngine,
};
use ferret::core::filter::FilterParams;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
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

/// Object `i` of payload variant `seed`: one to three segments, so
/// removals leave dead rows of different lengths behind.
fn mixed_object(seed: u64, i: u64) -> DataObject {
    let segments = 1 + (mix(seed, i, 9) * 3.0) as u64;
    let parts = (0..segments)
        .map(|s| {
            let v = (0..3).map(|d| mix(seed, i, 3 * s + d)).collect();
            (FeatureVector::new(v).unwrap(), 0.5 + mix(seed, i, 10 + s))
        })
        .collect();
    DataObject::new(parts).unwrap()
}

fn config(seed: u64) -> EngineConfig {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    EngineConfig::basic(params, seed).with_parallelism(Parallelism::Serial)
}

fn engine(seed: u64) -> SearchEngine {
    EngineBuilder::from_config(config(seed)).build().unwrap()
}

/// The query options every check runs: brute force over originals and
/// over sketches, and filtering both thresholded and as pure k-NN (the
/// paper's Table 2 configuration).
fn query_options() -> Vec<QueryOptions> {
    let filtering = |base_threshold| {
        QueryOptions::default()
            .with_mode(QueryMode::Filtering)
            .with_k(8)
            .with_filter(FilterParams {
                query_segments: 2,
                candidates_per_segment: 4,
                base_threshold,
                weight_attenuation: 0.25,
            })
    };
    vec![
        QueryOptions::brute_force(8),
        QueryOptions::brute_force(8).with_mode(QueryMode::BruteForceSketch),
        filtering(Some(10)),
        filtering(None),
    ]
}

/// Results (ids, distances, ranks) and statistics, minus wall time.
fn observed(resp: QueryResponse) -> (Vec<(ObjectId, f64)>, QueryStats) {
    let results = resp.results.iter().map(|r| (r.id, r.distance)).collect();
    let stats = QueryStats {
        elapsed: Duration::ZERO,
        ..resp.stats
    };
    (results, stats)
}

/// Asserts `engine` answers exactly like an engine built fresh from
/// `live` (in insertion order): ids in order, every query's ranked
/// results with distances, and its statistics.
fn assert_matches_fresh(
    engine: &SearchEngine,
    live: &[(ObjectId, DataObject)],
    seed: u64,
    ctx: &str,
) {
    let mut fresh = self::engine(seed);
    fresh.insert_batch(live.to_vec()).unwrap();
    assert_eq!(engine.ids(), fresh.ids(), "ids diverged {ctx}");
    assert_eq!(engine.storage_stats().live_objects, live.len(), "{ctx}");
    let query = mixed_object(0xFE44E7, 999);
    for opts in query_options() {
        let got = observed(engine.query(&query, &opts).unwrap());
        let want = observed(fresh.query(&query, &opts).unwrap());
        assert_eq!(got, want, "{:?} diverged {ctx}", opts.mode);
    }
}

/// One step of the mutation interleaving.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    /// Remove (if live) and insert again with a new payload.
    Reinsert(u64),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Removals are frequent and ids few, so runs keep crossing the
    // half-dead threshold that compacts the storage on its own.
    (0usize..10, 0u64..24).prop_map(|(kind, i)| match kind {
        0..=3 => Op::Insert(i),
        4..=6 => Op::Remove(i),
        7 | 8 => Op::Reinsert(i),
        _ => Op::Compact,
    })
}

/// Applies `op` to `engine` and to the model `live` set, checking the
/// storage epoch and the auto-compaction bound on the way.
fn apply(engine: &mut SearchEngine, live: &mut Vec<(ObjectId, DataObject)>, op: &Op, step: u64) {
    let before = engine.storage_epoch();
    let mutated = match *op {
        Op::Insert(i) => {
            let id = ObjectId(i);
            let fresh = !engine.contains(id);
            if fresh {
                let obj = mixed_object(1, i);
                engine.insert(id, obj.clone()).unwrap();
                live.push((id, obj));
            }
            fresh
        }
        Op::Remove(i) => {
            let id = ObjectId(i);
            let present = live.iter().any(|(l, _)| *l == id);
            assert_eq!(engine.remove(id), present);
            live.retain(|(l, _)| *l != id);
            present
        }
        Op::Reinsert(i) => {
            let id = ObjectId(i);
            engine.remove(id);
            live.retain(|(l, _)| *l != id);
            let obj = mixed_object(100 + step, i);
            engine.insert(id, obj.clone()).unwrap();
            live.push((id, obj));
            true
        }
        Op::Compact => {
            engine.compact();
            assert_eq!(engine.storage_stats().tombstones, 0);
            false
        }
    };
    let after = engine.storage_epoch();
    if mutated {
        assert!(after > before, "{op:?} must advance the storage epoch");
    } else {
        assert_eq!(after, before, "{op:?} must leave the storage epoch alone");
    }
    // Half the slots dead compacts them: dead < live whenever any are.
    let st = engine.storage_stats();
    assert!(
        st.tombstones == 0 || st.tombstones < st.live_objects,
        "auto-compaction missed: {st:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of inserts, removals, re-inserts and
    /// compactions: after every step the engine answers exactly like one
    /// built fresh from its live objects.
    #[test]
    fn mutations_match_fresh_build(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seed in 0u64..64,
    ) {
        let mut engine = engine(seed);
        let mut live = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut engine, &mut live, op, step as u64);
            assert_matches_fresh(&engine, &live, seed, &format!("after step {step} ({op:?})"));
        }
    }
}

/// Deterministic lifecycle walk: storage statistics, epoch monotonicity,
/// and removed slots draining through an explicit compaction.
#[test]
fn lifecycle_stats_and_epochs() {
    let mut engine = engine(7);
    let mut live = Vec::new();
    let mut last_epoch = engine.storage_epoch();
    for i in 0..32u64 {
        let obj = mixed_object(7, i);
        engine.insert(ObjectId(i), obj.clone()).unwrap();
        live.push((ObjectId(i), obj));
        let e = engine.storage_epoch();
        assert!(e > last_epoch, "insert must advance the storage epoch");
        last_epoch = e;
    }
    let st = engine.storage_stats();
    assert_eq!((st.live_objects, st.tombstones), (32, 0));
    assert_eq!((st.sealed_segments, st.memtable_objects), (0, 0));
    assert_matches_fresh(&engine, &live, 7, "after load");

    // Eleven removals of 32 slots stay below the half-dead threshold, so
    // their slots remain, dead, until an explicit compaction.
    for i in (0..32u64).step_by(3) {
        assert!(engine.remove(ObjectId(i)));
        live.retain(|(id, _)| *id != ObjectId(i));
    }
    assert_eq!(engine.storage_stats().tombstones, 11);
    assert_matches_fresh(&engine, &live, 7, "after removals");

    let epoch = engine.storage_epoch();
    engine.compact();
    engine.maintain().unwrap();
    let st = engine.storage_stats();
    assert_eq!(st.tombstones, 0, "compaction must drain removed slots");
    assert_eq!(st.live_objects, 21);
    assert_eq!(engine.storage_epoch(), epoch, "compaction is invisible");
    assert_matches_fresh(&engine, &live, 7, "after compaction");
}

/// Re-inserting a removed id whose slot is still dead serves the *new*
/// payload, from a new slot at the end of insertion order.
#[test]
fn reinsert_over_tombstone_uses_newest_payload() {
    let mut engine = engine(11);
    let mut live: Vec<(ObjectId, DataObject)> = (0..8u64)
        .map(|i| (ObjectId(i), mixed_object(11, i)))
        .collect();
    engine.insert_batch(live.clone()).unwrap();
    assert!(engine.remove(ObjectId(3)));
    engine.insert(ObjectId(3), mixed_object(99, 3)).unwrap();
    live.retain(|(id, _)| *id != ObjectId(3));
    live.push((ObjectId(3), mixed_object(99, 3)));
    assert_eq!(engine.storage_stats().tombstones, 1);
    assert_matches_fresh(&engine, &live, 11, "after reinsert");
    engine.compact();
    assert_matches_fresh(&engine, &live, 11, "after reinsert compaction");
    let obj = engine.object(ObjectId(3)).expect("reinserted object");
    assert_eq!(obj, &mixed_object(99, 3), "stale payload resurrected");
}

/// The filter follows the engine through inserts, removals and
/// re-inserts: after every phase it answers a filtering query seeded by
/// a stored object exactly like an engine built fresh from the live
/// objects.
#[test]
fn filter_tracks_insert_remove_reinsert() {
    let seed = 0xA5E_u64;
    let mut engine = engine(seed);
    let mut live: Vec<(ObjectId, DataObject)> = Vec::new();
    let check = |engine: &SearchEngine, live: &[(ObjectId, DataObject)], step: &str| {
        let mut fresh = self::engine(seed);
        fresh.insert_batch(live.to_vec()).unwrap();
        for opts in query_options() {
            let want = fresh.query_by_id(ObjectId(0), &opts).unwrap().results;
            let got = engine.query_by_id(ObjectId(0), &opts).unwrap().results;
            assert_eq!(got, want, "diverged from a fresh engine after {step}");
        }
    };
    for i in 0..40u64 {
        insert(&mut engine, &mut live, i, mixed_object(seed, i));
    }
    check(&engine, &live, "initial load");
    for i in 40..60u64 {
        insert(&mut engine, &mut live, i, mixed_object(seed, i));
    }
    check(&engine, &live, "incremental insert");
    for i in (10..30u64).step_by(3) {
        assert!(engine.remove(ObjectId(i)));
        live.retain(|(id, _)| *id != ObjectId(i));
    }
    check(&engine, &live, "removal");
    for i in (10..30u64).step_by(3) {
        insert(
            &mut engine,
            &mut live,
            i,
            mixed_object(seed.wrapping_add(7), i),
        );
    }
    check(&engine, &live, "re-insert after removal");
}

fn insert(
    engine: &mut SearchEngine,
    live: &mut Vec<(ObjectId, DataObject)>,
    i: u64,
    obj: DataObject,
) {
    engine.insert(ObjectId(i), obj.clone()).unwrap();
    live.push((ObjectId(i), obj));
}

/// Regression for the rebuild config-drop bug: a service-level sketch
/// retune replaces the engine wholesale, and the replacement used to be
/// built from a minimal config that silently reset every knob added
/// after the original fields. The retune must preserve the full
/// configuration *and* invalidate the service's result cache.
#[test]
fn service_retune_preserves_config_and_bumps_cache_epoch() {
    let mut svc = FerretService::in_memory(config(5)).unwrap();
    for i in 0..12u64 {
        svc.insert(ObjectId(i), mixed_object(5, i), None).unwrap();
    }
    svc.remove(ObjectId(4)).unwrap();

    let before = svc.cache_epoch();
    svc.retune_sketches(96, 2, 17).unwrap();
    assert!(
        svc.cache_epoch() > before,
        "retune must invalidate cached replies"
    );

    let engine = svc.engine();
    assert_eq!(engine.len(), 11, "retune must carry every live object over");
    assert!(!engine.contains(ObjectId(4)));
    assert_eq!(
        engine.parallelism(),
        Parallelism::Serial,
        "rebuild dropped the parallelism setting"
    );
    assert_eq!(engine.sketch_builder().nbits(), 96);
    assert_eq!(engine.storage_stats().tombstones, 0);
}
