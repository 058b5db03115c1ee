//! Micro-benchmarks for the filtering unit and full queries: how much the
//! two-step filter-then-rank design saves over brute force (paper §6.3.3
//! in miniature).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ferret_core::engine::{QueryMode, QueryOptions, SearchEngine};
use ferret_core::filter::{filter_candidates, FilterParams};
use ferret_core::object::ObjectId;
use ferret_datatypes::image::{generate_mixed_images, image_sketch_params};

fn engine_with(n: usize) -> SearchEngine {
    let mut engine = SearchEngine::builder(image_sketch_params(96, 2), 3)
        .build()
        .unwrap();
    for (id, obj) in generate_mixed_images(n, 11) {
        engine.insert(id, obj).unwrap();
    }
    engine
}

fn bench_filter_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_scan");
    group.sample_size(20);
    for n in [5_000usize, 20_000] {
        let engine = engine_with(n);
        let query = engine.sketched(ObjectId(0)).unwrap().clone();
        let params = FilterParams {
            query_segments: 2,
            candidates_per_segment: 40,
            ..FilterParams::default()
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let ids = engine.ids();
                let dataset = ids.iter().map(|&id| (id, engine.sketched(id).unwrap()));
                black_box(filter_candidates(black_box(&query), dataset, &params).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_query_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_modes_5k_images");
    group.sample_size(10);
    let engine = engine_with(5_000);
    for (label, mode) in [
        ("brute_original", QueryMode::BruteForceOriginal),
        ("brute_sketch", QueryMode::BruteForceSketch),
        ("filtering", QueryMode::Filtering),
    ] {
        let options = QueryOptions::default()
            .with_k(10)
            .with_mode(mode)
            .with_filter(FilterParams {
                query_segments: 2,
                candidates_per_segment: 40,
                ..FilterParams::default()
            });
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    engine
                        .query_by_id(ObjectId(7), black_box(&options))
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_filter_scan, bench_query_modes);
criterion_main!(benches);
