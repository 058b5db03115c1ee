//! Sketch construction against its reference: every sketch the engine
//! stores or builds for a query must equal the paper's Algorithm 2 loop
//! ([`SketchBuilder::sketch_components_reference`]) bit for bit, over
//! random sketch parameters, corpora and thread counts.
//!
//! The engine only ever sketches with the one-pass plan; this suite is
//! what pins that plan to the reference, end to end through insertion
//! (including batch-parallel sketching) and query sketching.
//!
//! [`SketchBuilder::sketch_components_reference`]: ferret::core::sketch::SketchBuilder::sketch_components_reference

use proptest::prelude::*;

use ferret::core::engine::{EngineBuilder, EngineConfig, SearchEngine};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::{BitVec, SketchParams};
use ferret::core::vector::FeatureVector;

const MAX_DIM: usize = 6;

/// Random sketch geometry: bits, XOR folds, dimensionality, per-dimension
/// ranges (possibly zero-width) and optional dimension weights (possibly
/// zero).
fn params_strategy() -> impl Strategy<Value = SketchParams> {
    (
        1usize..=MAX_DIM,
        prop_oneof![Just(8usize), Just(64), Just(96), Just(130)],
        1usize..=4,
        prop::collection::vec((-2.0f32..2.0, 0.0f32..3.0), MAX_DIM),
        any::<bool>(),
        prop::collection::vec(0.0f32..4.0, MAX_DIM),
    )
        .prop_map(|(dim, nbits, folds, ranges, weighted, weights)| {
            let mins: Vec<f32> = ranges[..dim].iter().map(|(lo, _)| *lo).collect();
            // Dimension 0 always carries sampling mass: a positive range
            // and, when weighted, a positive weight.
            let maxs: Vec<f32> = ranges[..dim]
                .iter()
                .enumerate()
                .map(|(i, (lo, width))| lo + if i == 0 { width.max(0.5) } else { *width })
                .collect();
            let weights = weighted.then(|| {
                let mut w = weights[..dim].to_vec();
                w[0] += 1.0;
                w
            });
            SketchParams::with_options(nbits, folds, mins, maxs, weights)
                .expect("generated params are valid")
        })
}

/// Raw objects of up to `MAX_DIM` components per segment, straddling the
/// parameter ranges (below, inside and above) so the plan's
/// early-termination paths are exercised. [`build_objects`] cuts them to the
/// drawn dimensionality.
fn raw_objects_strategy() -> impl Strategy<Value = Vec<Vec<(Vec<f32>, f32)>>> {
    let segment = (prop::collection::vec(-3.0f32..6.0, MAX_DIM), 0.1f32..2.0);
    prop::collection::vec(prop::collection::vec(segment, 1..4), 1..10)
}

fn build_objects(raw: &[Vec<(Vec<f32>, f32)>], dim: usize) -> Vec<DataObject> {
    raw.iter()
        .map(|parts| {
            DataObject::new(
                parts
                    .iter()
                    .map(|(c, w)| (FeatureVector::from_components(c[..dim].to_vec()), *w))
                    .collect(),
            )
            .expect("valid generated object")
        })
        .collect()
}

fn reference_sketches(engine: &SearchEngine, object: &DataObject) -> Vec<BitVec> {
    object
        .segments()
        .iter()
        .map(|seg| {
            engine
                .sketch_builder()
                .sketch_components_reference(seg.vector.components())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_and_query_sketches_equal_reference(
        params in params_strategy(),
        raw_objects in raw_objects_strategy(),
        raw_queries in raw_objects_strategy(),
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let objects = build_objects(&raw_objects, params.dim());
        let queries = build_objects(&raw_queries, params.dim());
        let config = EngineConfig::basic(params, seed)
            .with_parallelism(Parallelism::Threads(threads));
        let mut engine = EngineBuilder::from_config(config).build().unwrap();
        let batch: Vec<_> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o.clone()))
            .collect();
        engine.insert_batch(batch).unwrap();

        for (i, object) in objects.iter().enumerate() {
            let stored = engine.sketched(ObjectId(i as u64)).unwrap();
            prop_assert_eq!(
                &stored.sketches,
                &reference_sketches(&engine, object),
                "stored sketch of object {} differs from the reference", i
            );
        }
        for (i, query) in queries.iter().enumerate() {
            let sketched = engine.sketch_query(query).unwrap();
            prop_assert_eq!(
                &sketched.sketches,
                &reference_sketches(&engine, query),
                "query sketch {} differs from the reference", i
            );
        }
    }
}
