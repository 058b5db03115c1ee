//! Benchmark for the LSM-style segmented index layout: read-latency
//! stability under concurrent ingest.
//!
//! The experiment pits the two `IndexLayout`s against each other on the
//! same workload: reader threads run filtering queries under the shared
//! read lock while a writer thread keeps inserting (and removing)
//! objects and calling `maintain()` the way the serve loop does. The
//! monolithic layout marks removed slots dead and compacts its one
//! record set once half are; the segmented layout tombstones
//! and lets background merges reclaim the space off-thread (applying one
//! is an O(1) swap). Besides the criterion report, the run writes a
//! machine-readable `BENCH_segmented.json` at the repository root with
//! read p50/p99/max per layout.

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use ferret_core::engine::{EngineBuilder, EngineConfig, QueryOptions, SearchEngine};
use ferret_core::filter::FilterParams;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::segment::IndexLayout;
use ferret_core::telemetry::MetricsRegistry;
use ferret_datatypes::image::{generate_mixed_images, image_sketch_params};

const INITIAL: usize = 4_000;
const BATCH: usize = 64;
const READERS: usize = 2;
const MEASURE_SECS: f64 = 2.5;

fn query_options() -> QueryOptions {
    QueryOptions::filtering(
        10,
        FilterParams {
            query_segments: 2,
            candidates_per_segment: 40,
            base_threshold: None,
            weight_attenuation: 0.0,
        },
    )
}

fn build_engine(layout: IndexLayout, registry: &Arc<MetricsRegistry>) -> SearchEngine {
    let config = EngineConfig::basic(image_sketch_params(96, 2), 3)
        .with_index_layout(layout)
        .with_memtable_size(256);
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    engine.set_telemetry(Some(Arc::clone(registry)));
    engine
        .insert_batch(generate_mixed_images(INITIAL, 11))
        .unwrap();
    engine.seal().unwrap();
    engine.compact().unwrap();
    engine
}

struct LayoutRow {
    layout: IndexLayout,
    reads: usize,
    batches: u64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    compactions: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx]
}

/// Runs the concurrent read/ingest experiment for one layout and
/// returns the read-side latency distribution.
fn run_layout(layout: IndexLayout) -> LayoutRow {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Arc::new(RwLock::new(build_engine(layout, &registry)));
    let query = generate_mixed_images(1, 99).remove(0).1;
    let stop = Arc::new(AtomicBool::new(false));
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let latencies = Arc::clone(&latencies);
            let query = query.clone();
            let opts = query_options();
            std::thread::spawn(move || {
                let mut local = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    let resp = engine.read().query(&query, &opts).unwrap();
                    local.push(start.elapsed().as_secs_f64() * 1e6);
                    black_box(resp);
                }
                latencies.lock().extend(local);
            })
        })
        .collect();

    // The writer keeps ingesting batches (with a removal backlog so
    // maintenance has real work) and runs maintenance under the same
    // write lock the serve loop would take.
    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut next_id = INITIAL as u64;
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<(ObjectId, DataObject)> =
                    generate_mixed_images(BATCH, 1_000 + batches)
                        .into_iter()
                        .map(|(_, obj)| {
                            next_id += 1;
                            (ObjectId(next_id), obj)
                        })
                        .collect();
                let remove_from = next_id - BATCH as u64;
                {
                    let mut guard = engine.write();
                    guard.insert_batch(batch).unwrap();
                    for id in (remove_from..next_id).step_by(4) {
                        guard.remove(ObjectId(id)).unwrap();
                    }
                    guard.maintain().unwrap();
                }
                batches += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            batches
        })
    };

    std::thread::sleep(Duration::from_secs_f64(MEASURE_SECS));
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let batches = writer.join().unwrap();
    // Drain any still-running background merge so the worker thread is
    // idle before the next layout's run starts.
    engine.write().compact().unwrap();

    let mut us = Arc::try_unwrap(latencies).unwrap().into_inner();
    us.sort_by(|a, b| a.total_cmp(b));
    let compactions = registry
        .counter_value("ferret_compactions_total", &[])
        .unwrap_or(0);
    LayoutRow {
        layout,
        reads: us.len(),
        batches,
        p50_us: percentile(&us, 50.0),
        p99_us: percentile(&us, 99.0),
        max_us: us.last().copied().unwrap_or(0.0),
        compactions,
    }
}

fn bench_query_per_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("segmented");
    group.sample_size(10);
    for layout in [IndexLayout::Monolithic, IndexLayout::Segmented] {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = build_engine(layout, &registry);
        let query = generate_mixed_images(1, 99).remove(0).1;
        let opts = query_options();
        group.bench_function(format!("query_{layout}"), |b| {
            b.iter(|| black_box(engine.query(&query, &opts).unwrap()));
        });
    }
    group.finish();
}

fn write_json() -> std::io::Result<()> {
    let mut rows = Vec::new();
    for layout in [IndexLayout::Monolithic, IndexLayout::Segmented] {
        let row = run_layout(layout);
        rows.push(format!(
            "    {{\"layout\": \"{}\", \"reads\": {}, \"ingest_batches\": {}, \
             \"read_p50_us\": {:.1}, \"read_p99_us\": {:.1}, \"read_max_us\": {:.1}, \
             \"compactions\": {}}}",
            row.layout, row.reads, row.batches, row.p50_us, row.p99_us, row.max_us, row.compactions
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = format!(
        "{{\n  \"bench\": \"segmented\",\n  \"host_cores\": {cores},\n  \
         \"initial_objects\": {INITIAL},\n  \"ingest_batch\": {BATCH},\n  \
         \"readers\": {READERS},\n  \"measure_secs\": {MEASURE_SECS},\n  \
         \"layouts\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_segmented.json");
    std::fs::write(&path, out)?;
    println!("wrote {}", path.display());
    Ok(())
}

criterion_group!(benches, bench_query_per_layout);

fn main() {
    benches();
    if let Err(e) = write_json() {
        eprintln!("could not write BENCH_segmented.json: {e}");
    }
}
