//! In-process Table 2 workloads: one closed-loop client calling
//! `SearchEngine::query_by_id` on an engine built from a seeded corpus.

use std::time::{Duration, Instant};

use ferret_core::engine::{EngineBuilder, EngineConfig, QueryOptions, SearchEngine};
use ferret_core::filter::FilterParams;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::rank::SearchResult;
use ferret_core::sketch::SketchParams;

use crate::replay::{live_records, traced_query, LayerSample, Quality};
use crate::report::{peak_rss_mb, set_query_layers, Outcome};
use crate::rng::SplitMix64;
use crate::stats::{median, percentile, Trace};
use crate::{Args, SETUP_REPEATS};

/// One Table 2 row run in process.
pub struct InprocSpec {
    pub objects: usize,
    pub generate: fn(usize, u64) -> Vec<(ObjectId, DataObject)>,
    pub sketch: fn() -> SketchParams,
    /// `r`: highest-weight query segments the filter uses.
    pub query_segments: usize,
    /// `cand`: candidates kept per query segment.
    pub candidates_per_segment: usize,
    pub k: usize,
    /// Replies slower than this do not count toward goodput.
    pub latency_limit_ms: f64,
    /// Queries scored against brute force after the timed phase.
    pub quality_queries: usize,
}

/// Fewest timed queries a run takes, so p95 has ten samples beyond it.
const MIN_QUERIES: usize = 220;
/// Untimed queries before timing starts: at least this long, so the
/// first seconds of a fresh process (thread stacks, allocator growth) are
/// not timed.
const WARMUP: Duration = Duration::from_secs(2);

impl InprocSpec {
    fn options(&self) -> QueryOptions {
        QueryOptions::filtering(
            self.k,
            FilterParams {
                query_segments: self.query_segments,
                candidates_per_segment: self.candidates_per_segment,
                ..FilterParams::default()
            },
        )
    }
}

/// Builds the engine the way a user would: default configuration plus
/// the sketch geometry of the Table 2 row, one bulk `insert_batch`.
/// Returns the engine, the whole set-up time and the time inside
/// `insert_batch`.
fn build(
    config: &EngineConfig,
    corpus: Vec<(ObjectId, DataObject)>,
) -> Result<(SearchEngine, Duration, Duration), String> {
    let start = Instant::now();
    let mut engine = EngineBuilder::from_config(config.clone())
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    let insert = Instant::now();
    engine
        .insert_batch(corpus)
        .map_err(|e| format!("bulk insert: {e}"))?;
    let end = Instant::now();
    Ok((engine, end - start, end - insert))
}

/// Checks what can be checked about a reply without a reference: `k`
/// results in ascending distance order, and the seed itself among them
/// at distance zero.
fn check_reply(seed: ObjectId, k: usize, results: &[SearchResult]) -> Result<(), String> {
    if results.len() != k {
        return Err(format!(
            "query {}: {} results, want {k}",
            seed.0,
            results.len()
        ));
    }
    if results.windows(2).any(|w| w[0].distance > w[1].distance) {
        return Err(format!("query {}: results out of order", seed.0));
    }
    if !results.iter().any(|r| r.id == seed && r.distance == 0.0) {
        return Err(format!(
            "query {}: seed missing from its own top-{k}",
            seed.0
        ));
    }
    Ok(())
}

pub fn run(spec: &InprocSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let corpus = (spec.generate)(
        spec.objects,
        SplitMix64::derive(args.seed, "corpus").next_u64(),
    );
    let ids: Vec<ObjectId> = corpus.iter().map(|(id, _)| *id).collect();
    let segments: usize = corpus.iter().map(|(_, o)| o.num_segments()).sum();
    let config = EngineConfig::basic(
        (spec.sketch)(),
        SplitMix64::derive(args.seed, "sketch-seed").next_u64(),
    );
    out.note("objects", spec.objects);
    out.note("segments", segments);
    out.note(
        "config",
        format!(
            "\"nbits={} K={} r={} cand={} k={} closed loop, 1 client\"",
            config.sketch.nbits,
            config.sketch.xor_folds,
            spec.query_segments,
            spec.candidates_per_segment,
            spec.k
        ),
    );

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let replay_objects: Vec<DataObject> = if args.trace {
        corpus.iter().map(|(_, o)| o.clone()).collect()
    } else {
        Vec::new()
    };
    let mut setup_s = Vec::new();
    let mut insert_s = Vec::new();
    let mut engine = None;
    let mut corpus = Some(corpus);
    for i in 0..repeats {
        drop(engine.take());
        let items = if i + 1 == repeats {
            corpus.take().expect("corpus kept for the last set-up")
        } else {
            corpus.clone().expect("corpus kept for the last set-up")
        };
        let (e, total, insert) = build(&config, items)?;
        setup_s.push(total.as_secs_f64());
        insert_s.push(insert.as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    out.note("setup_repeats_s", format!("{setup_s:?}"));

    let options = spec.options();
    let mut queries = SplitMix64::derive(args.seed, "queries");
    let mut next_id = || ids[queries.below(ids.len() as u64) as usize];
    let warmup = Instant::now();
    while warmup.elapsed() < WARMUP {
        let id = next_id();
        engine
            .query_by_id(id, &options)
            .map_err(|e| format!("warm-up query {}: {e}", id.0))?;
    }

    if args.trace {
        // Ingest layers: replay the bulk load's sketching through the
        // public batch call, then one maintenance tick.
        let threads = engine.parallelism().threads_for(replay_objects.len());
        let start = Instant::now();
        let sketched = engine
            .sketch_builder()
            .sketch_objects(&replay_objects, threads)
            .map_err(|e| format!("sketch replay: {e}"))?;
        let sketch_s = start.elapsed().as_secs_f64();
        for (id, so) in ids.iter().zip(&sketched) {
            if engine.sketched(*id) != Some(so) {
                out.fail(format!("replayed sketch of {} differs from stored", id.0));
                break;
            }
        }
        drop(sketched);
        drop(replay_objects);
        let start = Instant::now();
        engine.maintain().map_err(|e| format!("maintain: {e}"))?;
        let maintain_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = engine.storage_stats();
        out.set(
            "sketch.ingest_us_per_object",
            sketch_s * 1e6 / spec.objects as f64,
        );
        out.set(
            "segment.insert_batch_ms",
            ((insert_s[0] - sketch_s) * 1e3).max(0.0),
        );
        out.set("segment.maintain_ms", maintain_ms);
        out.set("segment.sealed_segments", stats.sealed_segments as f64);
        out.set("segment.memtable_objects", stats.memtable_objects as f64);

        // Untraced phase first, so the run states its own tracing overhead.
        let untraced = closed_loop(args.seconds / 4.0, 0, &mut || {
            let id = next_id();
            let t = Instant::now();
            engine
                .query_by_id(id, &options)
                .map(|_| ())
                .map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        let live = live_records(&engine);
        let mut trace = Trace::new();
        let mut samples: Vec<LayerSample> = Vec::new();
        let mut errors = Vec::new();
        closed_loop(args.seconds, 0, &mut || {
            let id = next_id();
            match traced_query(&mut trace, &engine, &live, id, &options) {
                Ok(s) => {
                    let ms = s.engine_ms;
                    samples.push(s);
                    Ok(ms)
                }
                Err(e) => {
                    errors.push(e);
                    Ok(0.0)
                }
            }
        })?;
        out.attempted = (samples.len() + errors.len()) as u64;
        for e in errors {
            out.fail(e);
        }
        if samples.is_empty() {
            return Err("no traced query completed".into());
        }
        set_query_layers(&mut out, &samples);
        let traced_ms = median(&samples.iter().map(|s| s.engine_ms).collect::<Vec<_>>());
        let overhead = traced_ms / median(&untraced) - 1.0;
        out.note("traced_queries", samples.len());
        out.note("untraced_engine_query_ms", median(&untraced));
        out.note("traced_engine_query_ms", traced_ms);
        out.note("trace_overhead_share", overhead);
        out.set("trace.overhead_share", overhead);
        for name in [
            "service.write_lock_wait_ms",
            "service.write_hold_ms",
            "service.read_lock_wait_ms",
            "server.round_trip_ms",
            "cache.hit_ratio",
            "admission.rejected",
            "attr.search_us",
            "store.flush_ms",
            "store.bytes_per_object",
            "loadgen.lag_ms",
        ] {
            // In process, the query never passes through these layers.
            out.set(name, 0.0);
        }
        args.write_spans("queries", &trace)?;
        return Ok(out);
    }

    // Timed phase: closed loop, timed around `query_by_id`.
    let mut failed = 0u64;
    let mut wrong = Vec::new();
    let mut ok_within_limit = 0usize;
    let start = Instant::now();
    let latencies = closed_loop(args.seconds, MIN_QUERIES, &mut || {
        let id = next_id();
        let t = Instant::now();
        let resp = engine.query_by_id(id, &options);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(resp) => match check_reply(id, spec.k, &resp.results) {
                Ok(()) if ms <= spec.latency_limit_ms => ok_within_limit += 1,
                Ok(()) => {}
                Err(e) => wrong.push(e),
            },
            Err(_) => failed += 1,
        }
        Ok(ms)
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    for e in wrong {
        out.fail(e);
    }
    out.attempted = latencies.len() as u64;
    out.failed = failed;
    out.note("timed_queries", latencies.len());
    out.note("timed_seconds", elapsed);
    out.note("latency_limit_ms", spec.latency_limit_ms);

    // Quality: a seeded sample of queries against exact brute-force EMD.
    let mut quality_rng = SplitMix64::derive(args.seed, "quality");
    let mut quality = Quality::default();
    for _ in 0..spec.quality_queries {
        let id = ids[quality_rng.below(ids.len() as u64) as usize];
        let exact = engine
            .query_by_id(id, &QueryOptions::brute_force(spec.k))
            .map_err(|e| format!("brute-force query {}: {e}", id.0))?;
        let approx = engine
            .query_by_id(id, &options)
            .map_err(|e| format!("quality query {}: {e}", id.0))?;
        let rows = |r: &[SearchResult]| r.iter().map(|s| (s.id, s.distance)).collect::<Vec<_>>();
        quality.add(&rows(&approx.results), &rows(&exact.results));
    }
    out.note("quality_queries", spec.quality_queries);
    out.note("recall_at_10", quality.recall());

    out.set("query_p50_ms", percentile(&latencies, 0.5)?);
    out.note("query_p95_ms", percentile(&latencies, 0.95)?);
    out.set("goodput_qps", ok_within_limit as f64 / elapsed);
    out.set(
        "ingest_objects_per_s",
        spec.objects as f64 / median(&insert_s),
    );
    out.set("setup_s", median(&setup_s));
    out.set("distance_ratio_at_10", quality.distance_ratio());
    out.set(
        "ok_ratio",
        (out.attempted - failed) as f64 / out.attempted as f64,
    );
    out.set("rss_mb", peak_rss_mb());
    Ok(out)
}

/// Calls `step` back to back until `seconds` have passed and at least
/// `min_count` calls were made (giving up at four times the window), and
/// returns what each call reported.
fn closed_loop(
    seconds: f64,
    min_count: usize,
    step: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut values = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && values.len() >= min_count) || elapsed >= 4.0 * seconds {
            break;
        }
        values.push(step()?);
    }
    Ok(values)
}
