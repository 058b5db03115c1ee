//! Property tests for the determinism contract of the parallel execution
//! layer: every query path must return bit-identical answers for every
//! thread count (see DESIGN.md §4, "Threading model").

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ferret::core::distance::emd::{Emd, GreedyEmd, ThresholdedEmd};
use ferret::core::distance::lp::L1;
use ferret::core::distance::ObjectDistance;
use ferret::core::engine::{EngineBuilder, EngineConfig, QueryMode, QueryOptions, SearchEngine};
use ferret::core::error::Result as CoreResult;
use ferret::core::filter::{filter_candidates, filter_candidates_sharded, FilterParams};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::rank::{rank_candidates, rank_candidates_parallel, rank_candidates_pruned};
use ferret::core::segment::IndexLayout;
use ferret::core::sketch::{SketchParams, SketchedObject};
use ferret::core::vector::FeatureVector;

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, dim)
}

fn object_strategy(dim: usize) -> impl Strategy<Value = DataObject> {
    prop::collection::vec((vec_strategy(dim), 0.1f32..2.0), 1..4).prop_map(|parts| {
        DataObject::new(
            parts
                .into_iter()
                .map(|(c, w)| (FeatureVector::from_components(c), w))
                .collect(),
        )
        .expect("valid generated object")
    })
}

/// Counts the distance evaluations of the wrapped distance and forwards
/// its staging.
struct Counted<'d> {
    inner: &'d dyn ObjectDistance,
    solves: AtomicUsize,
}

impl ObjectDistance for Counted<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> CoreResult<f64> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }

    fn stage(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> CoreResult<f64> {
        self.inner.stage(a, b, staged)
    }

    fn finish(&self, a: &DataObject, b: &DataObject, staged: &[f64]) -> CoreResult<f64> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.inner.finish(a, b, staged)
    }
}

/// A custom distance with no lower bound of its own: never pruned.
struct Unbounded;

impl ObjectDistance for Unbounded {
    fn name(&self) -> &'static str {
        "unbounded"
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> CoreResult<f64> {
        Emd::new(L1).distance(a, b)
    }
}

fn engine_with(objects: &[DataObject], seed: u64) -> SearchEngine {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut engine = SearchEngine::builder(params, seed).build().unwrap();
    engine.set_parallelism(Parallelism::Serial);
    for (i, obj) in objects.iter().enumerate() {
        engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
    }
    engine
}

/// An engine with `nbits`-bit sketches over `objects`. The segmented
/// layout gets a 3-object memtable and inline compaction only, so the
/// objects span several sealed segments and removals leave dead rows.
fn engine_for(nbits: usize, seed: u64, segmented: bool, objects: &[DataObject]) -> SearchEngine {
    let params = SketchParams::new(nbits, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut config = EngineConfig::basic(params, seed).with_parallelism(Parallelism::Serial);
    if segmented {
        config = config
            .with_index_layout(IndexLayout::Segmented)
            .with_memtable_size(3)
            .with_compaction(false);
    }
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    for (i, obj) in objects.iter().enumerate() {
        engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lower-bound pruning never changes a ranking: the pruned ranker
    /// returns bit-identical results to the unpruned serial reference
    /// for 1 to 5 threads and k from 1 to 12, over multi-segment and
    /// single-segment objects with duplicates (exact ties, so id
    /// tie-breaking matters), for exact, thresholded (with and without
    /// √-weights) and greedy EMD, EMD behind an `Arc<dyn ObjectDistance>`
    /// (prunes exactly like EMD), and a custom distance without a bound
    /// (never pruned). Every candidate is either evaluated or counted as
    /// skipped.
    #[test]
    fn pruned_ranking_matches_unpruned_reference(
        objects in prop::collection::vec(object_strategy(3), 2..20),
        singles in prop::collection::vec(vec_strategy(3), 0..6),
        duplicates in prop::collection::vec(0usize..26, 0..6),
        query_pick in 0usize..40,
        k in 1usize..=12,
    ) {
        let mut objects = objects;
        objects.extend(
            singles
                .into_iter()
                .map(|c| DataObject::single(FeatureVector::from_components(c))),
        );
        for d in duplicates {
            objects.push(objects[d % objects.len()].clone());
        }
        let query = &objects[query_pick % objects.len()];
        let cands: Vec<(ObjectId, &DataObject)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o))
            .collect();
        let emd = Emd::new(L1);
        let shared: Arc<dyn ObjectDistance> = Arc::new(Emd::new(L1));
        let distances: [(&dyn ObjectDistance, bool); 6] = [
            (&emd, true),
            (&ThresholdedEmd::new(L1, 0.6, false), true),
            (&ThresholdedEmd::new(L1, 0.6, true), true),
            (&GreedyEmd::new(L1), true),
            (&shared, true),
            (&Unbounded, false),
        ];
        let serial_skips = |d: &dyn ObjectDistance| {
            rank_candidates_pruned(query, &cands, d, k, 1).unwrap().solves_skipped
        };
        prop_assert_eq!(serial_skips(&shared), serial_skips(&emd));
        for (distance, bounded) in distances {
            let expected = rank_candidates(query, cands.iter().copied(), distance, k).unwrap();
            for threads in 1..=5 {
                let counted = Counted { inner: distance, solves: AtomicUsize::new(0) };
                let ranked = rank_candidates_pruned(query, &cands, &counted, k, threads).unwrap();
                let ctx = format!("{} k {k} threads {threads}", distance.name());
                prop_assert_eq!(ranked.results.len(), expected.len(), "{}", ctx);
                for (got, want) in ranked.results.iter().zip(&expected) {
                    prop_assert_eq!(got.id, want.id, "{}", ctx);
                    prop_assert_eq!(got.distance.to_bits(), want.distance.to_bits(), "{}", ctx);
                }
                let solves = counted.solves.load(Ordering::Relaxed);
                prop_assert_eq!(ranked.solves_skipped + solves, cands.len(), "{}", ctx);
                if !bounded {
                    prop_assert_eq!(ranked.solves_skipped, 0, "{}", ctx);
                }
            }
        }
    }

    /// Filtering and brute-force-original queries return identical ids,
    /// distances, and scan statistics for every parallelism setting.
    #[test]
    fn queries_identical_across_thread_counts(
        objects in prop::collection::vec(object_strategy(3), 4..14),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut engine = engine_with(&objects, seed);
        let opts = [
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceOriginal)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::Filtering)
                .with_k(k)
                .with_filter(FilterParams {
                    query_segments: 2,
                    candidates_per_segment: 3,
                    ..FilterParams::default()
                }),
        ];
        let baselines: Vec<_> = opts
            .iter()
            .map(|o| engine.query_by_id(ObjectId(0), o).unwrap())
            .collect();
        for p in [Parallelism::Threads(2), Parallelism::Threads(7)] {
            engine.set_parallelism(p);
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
                prop_assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
                prop_assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
                prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            }
        }
    }

    /// Telemetry is pure observation: enabling it must not perturb results,
    /// distances, or scan statistics — for any query mode or thread count.
    #[test]
    fn telemetry_never_perturbs_results(
        objects in prop::collection::vec(object_strategy(3), 4..14),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut engine = engine_with(&objects, seed);
        let opts = [
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceOriginal)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceSketch)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::Filtering)
                .with_k(k)
                .with_filter(FilterParams {
                    query_segments: 2,
                    candidates_per_segment: 3,
                    ..FilterParams::default()
                }),
        ];
        // Baseline: telemetry off, serial.
        let baselines: Vec<_> = opts
            .iter()
            .map(|o| engine.query_by_id(ObjectId(0), o).unwrap())
            .collect();
        for p in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(7)] {
            engine.set_parallelism(p);
            let registry = std::sync::Arc::new(ferret::core::telemetry::MetricsRegistry::new());
            engine.set_telemetry(Some(registry));
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert!(resp.trace.is_some(), "telemetry on must attach a trace");
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
                prop_assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
                prop_assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
                prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            }
            engine.set_telemetry(None);
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert!(resp.trace.is_none(), "telemetry off must not trace");
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
            }
        }
    }

    /// The engine's block kernel answers exactly like the reference row
    /// scan (`filter_candidates` over the live records), and the sharded
    /// reference equals the serial one: candidates, ranked results and
    /// scan statistics. Covers sketch widths of 1, 2, 10 and 13 words
    /// (and widths that are not a multiple of 64), thresholds on and
    /// off, `r` from 1 to 3, small `k` with distance ties (duplicated
    /// objects), 1 to 5 threads over multi-segment objects that straddle
    /// shard boundaries, both layouts, removals followed by re-inserts,
    /// and restrict sets.
    #[test]
    fn sharded_filter_candidates_identical(
        objects in prop::collection::vec(object_strategy(3), 4..20),
        cand in 1usize..5,
        seed in 0u64..100,
        nbits_idx in 0usize..6,
        r in 1usize..4,
        threshold in (any::<bool>(), 0u32..96),
        removed in prop::collection::vec(any::<bool>(), 24),
        restrict in (any::<bool>(), prop::collection::vec(any::<bool>(), 24)),
        segmented in any::<bool>(),
    ) {
        let nbits = [64usize, 96, 128, 600, 640, 832][nbits_idx];
        // Duplicates tie at every distance, so id tie-breaking matters.
        let objects: Vec<DataObject> = objects.iter().chain(&objects[..2]).cloned().collect();
        let mut engine = engine_for(nbits, seed, segmented, &objects);
        // Remove some objects (tombstones in sealed segments), then
        // re-insert every other removed one at the end of the order.
        let gone: Vec<usize> = (0..objects.len()).filter(|&i| removed[i]).collect();
        for &i in &gone {
            prop_assert!(engine.remove(ObjectId(i as u64)).unwrap());
        }
        for &i in gone.iter().step_by(2) {
            engine.insert(ObjectId(i as u64), objects[i].clone()).unwrap();
        }
        let allowed: Option<HashSet<ObjectId>> = restrict.0.then(|| {
            (0..objects.len() as u64)
                .filter(|&i| restrict.1[i as usize])
                .map(ObjectId)
                .collect()
        });
        let params = FilterParams {
            query_segments: r,
            candidates_per_segment: cand,
            base_threshold: threshold.0.then_some(threshold.1),
            weight_attenuation: 0.5,
        };
        let k = 1 + (seed as usize % 4);
        let query = &objects[0];

        let qs = engine.sketch_query(query).unwrap();
        let dataset: Vec<(ObjectId, &SketchedObject)> = engine
            .ids()
            .into_iter()
            .filter(|id| allowed.as_ref().is_none_or(|a| a.contains(id)))
            .map(|id| (id, engine.sketched(id).unwrap()))
            .collect();
        let (serial_set, serial_stats) =
            filter_candidates(&qs, dataset.iter().map(|&(id, so)| (id, so)), &params).unwrap();
        for threads in [2usize, 7] {
            let (set, stats) = filter_candidates_sharded(&qs, &dataset, &params, threads).unwrap();
            prop_assert_eq!(&set, &serial_set, "threads {}", threads);
            prop_assert_eq!(stats, serial_stats, "threads {}", threads);
        }
        let mut cand_ids: Vec<ObjectId> = serial_set.iter().copied().collect();
        cand_ids.sort();
        let cands: Vec<(ObjectId, &DataObject)> = cand_ids
            .iter()
            .map(|&id| (id, engine.object(id).unwrap()))
            .collect();
        let expected = rank_candidates_parallel(query, &cands, &Emd::new(L1), k, 1).unwrap();

        let mut opts = QueryOptions::default()
            .with_mode(QueryMode::Filtering)
            .with_k(k)
            .with_filter(params);
        if let Some(allowed) = &allowed {
            opts = opts.with_restrict(allowed.clone());
        }
        for threads in 1..=5 {
            engine.set_parallelism(Parallelism::Threads(threads));
            let resp = engine.query(query, &opts).unwrap();
            let ctx = format!("nbits {nbits} threads {threads} segmented {segmented}");
            prop_assert_eq!(&resp.results, &expected, "{}", ctx);
            prop_assert_eq!(resp.stats.objects_scanned, serial_stats.objects_scanned, "{}", ctx);
            prop_assert_eq!(resp.stats.segments_scanned, serial_stats.segments_scanned, "{}", ctx);
            prop_assert_eq!(resp.stats.distance_evals, serial_stats.candidates, "{}", ctx);
        }
    }
}
