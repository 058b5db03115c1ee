//! `shape-serve`: Table 2's mixed shapes served over loopback TCP by an
//! in-process `Server` on a persistent `FerretService`, with open-loop
//! queries on one connection and a writer thread ingesting fresh shapes
//! the way the serve loop's tick does.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ferret_attr::{Attributes, AttrsBuilder};
use ferret_core::engine::{EngineConfig, QueryOptions};
use ferret_core::filter::FilterParams;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::telemetry::MetricsRegistry;
use ferret_datatypes::shape::{generate_mixed_shapes, mixed_shape_sketch_params};
use ferret_query::{AdmissionControl, Client, FerretService, ServeConfig, Server};
use ferret_store::DbOptions;

use crate::replay::{live_records, traced_query, LayerSample, Quality};
use crate::report::{peak_rss_mb, set_query_layers, Outcome};
use crate::rng::{arrival_schedule, SplitMix64, Zipf};
use crate::stats::{mean, median, percentile, uncovered, Trace};
use crate::{Args, SETUP_REPEATS};

const OBJECTS: usize = 40_000;
const SKETCH_BITS: usize = 800;
const XOR_FOLDS: usize = 2;
const K: usize = 10;
const QUERY_SEGMENTS: usize = 1;
const CANDIDATES: usize = 40;
/// `ferret serve`'s default result-cache capacity.
const CACHE_CAPACITY: usize = 128;
/// Offered query load, requests per second, on one connection: under a
/// quarter of what one connection can serve, so the parent stays well
/// below saturation even when the host slows down.
const QUERY_RATE: f64 = 12.0;
/// Zipf exponent of the query-id popularity.
const ZIPF_S: f64 = 1.0;
/// One query in this many carries an attribute predicate.
const ATTR_EVERY: u64 = 5;
/// Attribute `bucket` takes this many values, so `bucket=B` selects ~2%.
const BUCKETS: u64 = 50;
/// Writer: one tick (write lock → maintain → insert_batch → flush) per
/// period, each inserting this many fresh shapes (8 shapes/s). With
/// telemetry on, each insert into a 40k-shape index costs 1–3 ms, so a
/// batch of 4 holds the write lock for about one query time, during ~2% of
/// the run: queries that wait for it sit beyond p95, not across it, so
/// p95 stays steady until write holds grow.
const WRITER_TICK: Duration = Duration::from_millis(500);
const WRITER_BATCH: usize = 4;
/// Bulk-load chunk size during set-up.
const BULK_BATCH: usize = 4096;
/// Replies slower than this (from their due time) miss goodput.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The run is invalid when the generator, not the server, sends late:
/// p95 of its own lag (send time minus the later of due time and the
/// previous reply) above this bound.
const LAG_LIMIT_MS: f64 = 10.0;
/// Queries scored against `mode=brute` after the timed phase.
const QUALITY_QUERIES: usize = 40;
/// Queries of the stream replayed layer by layer in the traced run.
const REPLAY_QUERIES: usize = 150;

/// One query of the open-loop stream.
#[derive(Debug, Clone, Copy)]
struct Request {
    id: ObjectId,
    bucket: Option<u64>,
}

impl Request {
    fn line(&self) -> String {
        let mut line = format!(
            "query id={} k={K} mode=filter r={QUERY_SEGMENTS} cand={CANDIDATES}",
            self.id.0
        );
        if let Some(b) = self.bucket {
            line.push_str(&format!(" attr=\"bucket={b}\""));
        }
        line
    }
}

type Item = (ObjectId, DataObject, Option<Attributes>);

fn with_buckets(shapes: Vec<(ObjectId, DataObject)>, rng: &mut SplitMix64) -> Vec<Item> {
    shapes
        .into_iter()
        .map(|(id, obj)| {
            let attrs = AttrsBuilder::new()
                .int("bucket", rng.below(BUCKETS) as i64)
                .build();
            (id, obj, Some(attrs))
        })
        .collect()
}

/// A service being served, with the directory it lives in.
struct Served {
    service: Arc<RwLock<FerretService>>,
    registry: Arc<MetricsRegistry>,
    server: Server,
    dir: PathBuf,
}

impl Served {
    fn shut_down(self) {
        self.server.stop();
        drop(self.service);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up as `ferret serve` does it: open the store in a fresh
/// directory, bulk-load, flush, enable telemetry, start the TCP server
/// with default serving options.
fn set_up(config: &EngineConfig, items: Vec<Item>, dir: PathBuf) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut service = FerretService::builder(config.clone())
        .db_options(DbOptions::default())
        .cache_capacity(CACHE_CAPACITY)
        .open(&dir)
        .map_err(|e| format!("open service: {e}"))?;
    let mut items = items.into_iter().peekable();
    while items.peek().is_some() {
        let batch: Vec<Item> = items.by_ref().take(BULK_BATCH).collect();
        service
            .insert_batch(batch)
            .map_err(|e| format!("bulk insert: {e}"))?;
    }
    service.flush().map_err(|e| format!("flush: {e}"))?;
    let registry = Arc::new(MetricsRegistry::new());
    service.enable_telemetry(Arc::clone(&registry));
    let service = Arc::new(RwLock::new(service));
    let serve = ServeConfig::default();
    let admission = Arc::new(AdmissionControl::new(serve.max_inflight, Some(&registry)));
    let server = Server::start_with(Arc::clone(&service), "127.0.0.1:0", serve, admission)
        .map_err(|e| format!("start server: {e}"))?;
    Ok(Served {
        service,
        registry,
        server,
        dir,
    })
}

/// Parses a text-protocol result reply into `(id, distance)` rows.
fn parse_results(reply: &str) -> Result<Vec<(u64, f64)>, String> {
    let mut lines = reply.lines();
    let status = lines.next().unwrap_or("");
    let n: usize = status
        .strip_prefix("OK ")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("not an OK result reply: {status:?}"))?;
    let rows: Vec<(u64, f64)> = lines
        .map(|l| {
            let mut f = l.split_whitespace();
            match (
                f.next().and_then(|v| v.parse().ok()),
                f.next().and_then(|v| v.parse().ok()),
            ) {
                (Some(id), Some(d)) => Ok((id, d)),
                _ => Err(format!("bad result row {l:?}")),
            }
        })
        .collect::<Result<_, _>>()?;
    if rows.len() != n {
        return Err(format!("status says {n} rows, reply has {}", rows.len()));
    }
    Ok(rows)
}

/// The writer: at each tick, take the write lock, then `maintain`,
/// `insert_batch` and `flush` under it, as the serve loop does. Each
/// tick is a `writer.tick` span with the lock wait and the lock hold as
/// children; the three calls are children of the hold.
fn writer(
    service: &RwLock<FerretService>,
    batches: Vec<Vec<Item>>,
    start: Instant,
    abort: &AtomicBool,
) -> Result<Trace, String> {
    let mut trace = Trace::new();
    for (i, batch) in batches.into_iter().enumerate() {
        sleep_until(start + WRITER_TICK * (i as u32 + 1));
        if abort.load(Ordering::SeqCst) {
            break;
        }
        let tick = trace.open("writer.tick", None);
        let (mut svc, _) = trace.span("service.write_lock_wait", Some(tick), || service.write());
        let hold = trace.open("service.write_hold", Some(tick));
        let (r, _) = trace.span("segment.maintain", Some(hold), || svc.maintain());
        r.map_err(|e| format!("maintain: {e}"))?;
        let (r, _) = trace.span("segment.insert_batch", Some(hold), || {
            svc.insert_batch(batch)
        });
        r.map_err(|e| format!("writer insert: {e}"))?;
        let (r, _) = trace.span("store.flush", Some(hold), || svc.flush());
        r.map_err(|e| format!("writer flush: {e}"))?;
        drop(svc);
        trace.close(hold);
        trace.close(tick);
    }
    Ok(trace)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// What the query connection saw in the timed phase.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    round_trip_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ok_within_limit: usize,
    failed: u64,
    wrong: Vec<String>,
    /// Seconds from the schedule start to the last reply.
    span_s: f64,
}

/// Sends `requests` at their scheduled times on one connection. Each
/// latency runs from the request's due time, so a slow reply also
/// charges the requests queued behind it.
fn open_loop(
    client: &mut Client,
    requests: &[Request],
    schedule: &[f64],
    start: Instant,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut prev_done = start;
    for (req, &at) in requests.iter().zip(schedule) {
        let due = start + Duration::from_secs_f64(at);
        sleep_until(due);
        let sent = Instant::now();
        log.lag_ms.push(
            sent.saturating_duration_since(due.max(prev_done))
                .as_secs_f64()
                * 1e3,
        );
        let reply = client
            .send(&req.line())
            .map_err(|e| format!("query connection: {e}"))?;
        let done = Instant::now();
        prev_done = done;
        let latency = (done - due).as_secs_f64() * 1e3;
        log.latency_ms.push(latency);
        log.round_trip_ms.push((done - sent).as_secs_f64() * 1e3);
        log.span_s = (done - start).as_secs_f64();
        if reply.starts_with("ERR") {
            log.failed += 1;
            continue;
        }
        match parse_results(&reply) {
            Ok(rows) if rows.len() == K => {
                if latency <= LATENCY_LIMIT_MS {
                    log.ok_within_limit += 1;
                }
            }
            Ok(rows) => log
                .wrong
                .push(format!("{}: {} results, want {K}", req.line(), rows.len())),
            Err(e) => log.wrong.push(format!("{}: {e}", req.line())),
        }
    }
    Ok(log)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let seed = args.seed;
    let corpus = with_buckets(
        generate_mixed_shapes(OBJECTS, SplitMix64::derive(seed, "corpus").next_u64()),
        &mut SplitMix64::derive(seed, "attrs"),
    );
    let config = EngineConfig::basic(
        mixed_shape_sketch_params(SKETCH_BITS, XOR_FOLDS),
        SplitMix64::derive(seed, "sketch-seed").next_u64(),
    );

    // The query stream, its arrival times and the writer's batches.
    let count = (QUERY_RATE * args.seconds).round() as usize;
    let schedule = arrival_schedule(
        count,
        args.seconds,
        &mut SplitMix64::derive(seed, "arrivals"),
    );
    let zipf = Zipf::new(OBJECTS, ZIPF_S);
    let mut qrng = SplitMix64::derive(seed, "queries");
    let requests: Vec<Request> = (0..count)
        .map(|_| Request {
            id: ObjectId(zipf.sample(&mut qrng) as u64),
            bucket: (qrng.below(ATTR_EVERY) == 0).then(|| qrng.below(BUCKETS)),
        })
        .collect();
    let ticks = (args.seconds / WRITER_TICK.as_secs_f64()).floor().max(1.0) as usize - 1;
    let fresh = generate_mixed_shapes(
        ticks * WRITER_BATCH,
        SplitMix64::derive(seed, "ingest").next_u64(),
    )
    .into_iter()
    .map(|(id, obj)| (ObjectId(OBJECTS as u64 + id.0), obj))
    .collect();
    let fresh = with_buckets(fresh, &mut SplitMix64::derive(seed, "ingest-attrs"));
    let replay_batches: Vec<Vec<(ObjectId, DataObject)>> = if args.trace {
        fresh
            .chunks(WRITER_BATCH)
            .map(|c| c.iter().map(|(id, o, _)| (*id, o.clone())).collect())
            .collect()
    } else {
        Vec::new()
    };
    let batches: Vec<Vec<Item>> = fresh.chunks(WRITER_BATCH).map(<[Item]>::to_vec).collect();
    drop(fresh);
    out.note("objects", OBJECTS);
    out.note(
        "config",
        format!(
            "\"nbits={SKETCH_BITS} K={XOR_FOLDS} r={QUERY_SEGMENTS} cand={CANDIDATES} k={K}; open loop {QUERY_RATE} q/s Poisson on 1 connection, Zipf s={ZIPF_S}, 1 in {ATTR_EVERY} with attr bucket=B of {BUCKETS}; writer {WRITER_BATCH} shapes every {} ms\"",
            WRITER_TICK.as_millis()
        ),
    );
    out.note("queries_scheduled", count);
    out.note("writer_ticks", ticks);

    // Set-up, repeated; the last one is served.
    let work = PathBuf::from(".bench_work");
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    let mut corpus = Some(corpus);
    for i in 0..repeats {
        if let Some(s) = served.take() {
            s.shut_down();
        }
        let items = if i + 1 == repeats {
            corpus.take().expect("corpus kept for the last set-up")
        } else {
            corpus.clone().expect("corpus kept for the last set-up")
        };
        let dir = work.join(format!("shape-serve-{}-{i}", std::process::id()));
        let start = Instant::now();
        let s = set_up(&config, items, dir.clone()).inspect_err(|_| {
            let _ = std::fs::remove_dir_all(&dir);
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    out.note("setup_repeats_s", format!("{setup_s:?}"));

    let result = measure(
        &served,
        &requests,
        &schedule,
        batches,
        replay_batches,
        args,
        &mut out,
    );
    served.shut_down();
    // Removes the work directory once no run is using it.
    let _ = std::fs::remove_dir(&work);
    result?;
    if !args.trace {
        out.set("setup_s", median(&setup_s));
        out.set("rss_mb", peak_rss_mb());
    }
    Ok(out)
}

fn measure(
    served: &Served,
    requests: &[Request],
    schedule: &[f64],
    batches: Vec<Vec<Item>>,
    replay_batches: Vec<Vec<(ObjectId, DataObject)>>,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = Client::connect(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
    // Warm-up on ids outside the stream's hot set, so no reply is cached.
    for i in 0..5u64 {
        client
            .send(&format!(
                "query id={} k={K} mode=filter r={QUERY_SEGMENTS} cand={CANDIDATES}",
                OBJECTS as u64 - 1 - i
            ))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let registry = &served.registry;
    let base_hits = registry
        .counter_value("ferret_cache_hits_total", &[])
        .unwrap_or(0);
    let base_misses = registry
        .counter_value("ferret_cache_misses_total", &[])
        .unwrap_or(0);
    let base_rejected = registry
        .counter_value("ferret_rejected_total", &[])
        .unwrap_or(0);
    let base_wait = registry
        .histogram_snapshot("ferret_lock_wait_seconds", &[("lock", "read")])
        .map_or((0, 0), |h| (h.sum, h.count));

    // Timed phase: the query connection here, the writer beside it.
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let (log, writes) = std::thread::scope(|s| {
        let writer = s.spawn(|| writer(&served.service, batches, start, &abort));
        let log = open_loop(&mut client, requests, schedule, start);
        if log.is_err() {
            abort.store(true, Ordering::SeqCst);
        }
        let writes = writer
            .join()
            .map_err(|_| "writer thread panicked".to_string());
        (log, writes)
    });
    let log = log?;
    let writes = writes??;

    let hits = registry
        .counter_value("ferret_cache_hits_total", &[])
        .unwrap_or(0)
        - base_hits;
    let misses = registry
        .counter_value("ferret_cache_misses_total", &[])
        .unwrap_or(0)
        - base_misses;
    let rejected = registry
        .counter_value("ferret_rejected_total", &[])
        .unwrap_or(0)
        - base_rejected;
    let (wait_sum, wait_count) = registry
        .histogram_snapshot("ferret_lock_wait_seconds", &[("lock", "read")])
        .map_or((0, 0), |h| (h.sum - base_wait.0, h.count - base_wait.1));

    for e in &log.wrong {
        out.fail(e.clone());
    }
    out.attempted = requests.len() as u64;
    out.failed = log.failed;
    let lag_p95 = percentile(&log.lag_ms, 0.95)?;
    out.note("loadgen_lag_p95_ms", lag_p95);
    out.note(
        "loadgen_lag_max_ms",
        log.lag_ms.iter().copied().fold(0.0, f64::max),
    );
    out.note("timed_seconds", log.span_s);
    out.note("latency_limit_ms", LATENCY_LIMIT_MS);
    out.note("cache_hits", hits);
    out.note("cache_misses", misses);
    if lag_p95 > LAG_LIMIT_MS {
        out.fail(format!(
            "run invalid: the load generator fell behind (lag p95 {lag_p95:.2} ms > {LAG_LIMIT_MS} ms)"
        ));
    }
    let insert_ms = writes.durations_ms("segment.insert_batch");
    let objects = insert_ms.len() * WRITER_BATCH;
    out.note("writer_objects", objects);

    if !args.trace {
        let mut quality = Quality::default();
        let mut rng = SplitMix64::derive(args.seed, "quality");
        for _ in 0..QUALITY_QUERIES {
            let id = rng.below(OBJECTS as u64);
            let line = Request {
                id: ObjectId(id),
                bucket: None,
            }
            .line();
            let rows = |reply: std::io::Result<String>| -> Result<Vec<(ObjectId, f64)>, String> {
                let reply = reply.map_err(|e| format!("quality query: {e}"))?;
                let rows = parse_results(&reply)?;
                if rows.len() != K {
                    return Err(format!("quality reply has {} rows, want {K}", rows.len()));
                }
                Ok(rows.into_iter().map(|(id, d)| (ObjectId(id), d)).collect())
            };
            let approx = rows(client.send(&line))?;
            let exact = rows(client.send(&format!("query id={id} k={K} mode=brute")))?;
            quality.add(&approx, &exact);
        }
        out.note("quality_queries", QUALITY_QUERIES);
        out.note("recall_at_10", quality.recall());
        out.set("query_p50_ms", percentile(&log.latency_ms, 0.5)?);
        out.note("query_p95_ms", percentile(&log.latency_ms, 0.95)?);
        out.set("goodput_qps", log.ok_within_limit as f64 / log.span_s);
        // Median over ticks, so a burst of host contention that slows a
        // few inserts does not set the run's figure.
        let per_tick: Vec<f64> = insert_ms
            .iter()
            .map(|ms| WRITER_BATCH as f64 / (ms / 1e3))
            .collect();
        out.set("ingest_objects_per_s", median(&per_tick));
        out.set("distance_ratio_at_10", quality.distance_ratio());
        out.set(
            "ok_ratio",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        );
        return Ok(());
    }

    // Traced run: service-side layers from the timed phase...
    out.set(
        "service.write_lock_wait_ms",
        mean(&writes.durations_ms("service.write_lock_wait")),
    );
    out.set(
        "service.write_hold_ms",
        mean(&writes.durations_ms("service.write_hold")),
    );
    // Lock hold not spent inside maintain, insert_batch or flush.
    let hold_self: Vec<f64> = (0..writes.spans().len())
        .filter(|&id| writes.spans()[id].name == "service.write_hold")
        .map(|id| writes.self_time_ns(id) as f64 / 1e6)
        .collect();
    out.note("write_hold_self_ms", mean(&hold_self));
    out.set(
        "service.read_lock_wait_ms",
        if wait_count > 0 {
            wait_sum as f64 / wait_count as f64 / 1e6
        } else {
            0.0
        },
    );
    out.set("server.round_trip_ms", median(&log.round_trip_ms));
    out.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("admission.rejected", rejected as f64);
    out.set("store.flush_ms", mean(&writes.durations_ms("store.flush")));
    out.set(
        "segment.maintain_ms",
        mean(&writes.durations_ms("segment.maintain")),
    );
    out.set("loadgen.lag_ms", lag_p95);

    // ...then, with the writer stopped, the query layers and the ingest
    // sketching replayed through their public calls.
    let svc = served.service.read();
    let engine = svc.engine();
    let live = live_records(engine);
    let options = QueryOptions::filtering(
        K,
        FilterParams {
            query_segments: QUERY_SEGMENTS,
            candidates_per_segment: CANDIDATES,
            ..FilterParams::default()
        },
    );
    let mut trace = Trace::new();
    let mut attr_us = Vec::new();
    let mut replays = Vec::new();
    for req in requests.iter().take(REPLAY_QUERIES) {
        let opts = match req.bucket {
            Some(b) => {
                let expr = format!("bucket={b}");
                let (hits, span) =
                    trace.span("attr.search", None, || svc.attrs().search_str(&expr));
                let hits: HashSet<ObjectId> = hits.map_err(|e| format!("attr search: {e}"))?;
                attr_us.push(trace.duration(span).as_secs_f64() * 1e6);
                options.clone().with_restrict(hits)
            }
            None => options.clone(),
        };
        replays.push((req.id, opts));
    }
    let mut untraced = Vec::new();
    for (id, opts) in &replays {
        let t = Instant::now();
        engine
            .query_by_id(*id, opts)
            .map_err(|e| format!("engine query {}: {e}", id.0))?;
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut samples: Vec<LayerSample> = Vec::new();
    for (id, opts) in &replays {
        match traced_query(&mut trace, engine, &live, *id, opts) {
            Ok(s) => samples.push(s),
            Err(e) => out.fail(e),
        }
    }
    if samples.is_empty() {
        return Err("no traced query completed".into());
    }
    set_query_layers(out, &samples);
    let traced_ms = median(&samples.iter().map(|s| s.engine_ms).collect::<Vec<_>>());
    let overhead = traced_ms / median(&untraced) - 1.0;
    out.note("untraced_engine_query_ms", median(&untraced));
    out.note("traced_engine_query_ms", traced_ms);
    out.note("trace_overhead_share", overhead);
    out.set("trace.overhead_share", overhead);
    out.set("attr.search_us", median(&attr_us));

    let mut sketch_s = 0.0;
    let mut insert_self_ms = Vec::new();
    for (batch, &inserted_ms) in replay_batches.iter().zip(&insert_ms) {
        let objs: Vec<DataObject> = batch.iter().map(|(_, o)| o.clone()).collect();
        let threads = engine.parallelism().threads_for(objs.len());
        let start = Instant::now();
        let sketched = engine
            .sketch_builder()
            .sketch_objects(&objs, threads)
            .map_err(|e| format!("sketch replay: {e}"))?;
        let took = start.elapsed();
        sketch_s += took.as_secs_f64();
        insert_self_ms.push(uncovered(inserted_ms, &[took.as_secs_f64() * 1e3]).0);
        for ((id, _), so) in batch.iter().zip(&sketched) {
            if engine.sketched(*id) != Some(so) {
                out.fail(format!("replayed sketch of {} differs from stored", id.0));
            }
        }
    }
    out.set(
        "sketch.ingest_us_per_object",
        sketch_s * 1e6 / objects.max(1) as f64,
    );
    out.set("segment.insert_batch_ms", mean(&insert_self_ms));
    let stats = engine.storage_stats();
    out.set("segment.sealed_segments", stats.sealed_segments as f64);
    out.set("segment.memtable_objects", stats.memtable_objects as f64);
    out.set(
        "store.bytes_per_object",
        dir_bytes(&served.dir) as f64 / engine.len().max(1) as f64,
    );
    drop(svc);
    args.write_spans("queries", &trace)?;
    args.write_spans("writer", &writes)?;
    Ok(())
}
