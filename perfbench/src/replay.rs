//! Layer replay: re-runs one query's three stages through their public
//! calls (sketch → filter → rank), timing each in a span, and checks that
//! the replay returns exactly the engine's top-k.
//!
//! The engine's own spans are a later change; until then this replay is
//! how the traced run attributes a query's time to layers. The engine
//! span and the replayed spans of the same query give the share of the
//! engine's time that no layer accounts for.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ferret_core::distance::emd::{solve_transportation, Emd};
use ferret_core::distance::lp::L1;
use ferret_core::distance::SegmentDistance;
use ferret_core::engine::{QueryOptions, SearchEngine};
use ferret_core::filter::filter_candidates_sharded;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::rank::{rank_candidates_parallel, rank_scores, SearchResult};
use ferret_core::sketch::SketchedObject;

use crate::stats::Trace;

/// What one traced query measured, layer by layer.
#[derive(Debug, Clone)]
pub struct LayerSample {
    pub engine_ms: f64,
    pub sketch_ms: f64,
    pub filter_ms: f64,
    pub rank_ms: f64,
    pub segments_compared: usize,
    pub candidates: usize,
    pub results: usize,
    /// Transportation problems solved while ranking (single-segment
    /// pairs skip the solver).
    pub solves: usize,
    /// Sum over solves of the cost-matrix size `m × n`.
    pub solve_cells: usize,
    pub cost_matrix_ms: f64,
    pub solve_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Live records of `engine`, in the engine's id order, for the filter
/// replay.
pub fn live_records(engine: &SearchEngine) -> Vec<(ObjectId, &SketchedObject)> {
    engine
        .ids()
        .into_iter()
        .map(|id| (id, engine.sketched(id).expect("live id has a sketch")))
        .collect()
}

/// Runs `id` through the engine and through the layer replay, records
/// the spans into `trace`, and returns the per-layer sample. Any
/// difference between the engine's answer and the replay's is an error.
pub fn traced_query(
    trace: &mut Trace,
    engine: &SearchEngine,
    live: &[(ObjectId, &SketchedObject)],
    id: ObjectId,
    options: &QueryOptions,
) -> Result<LayerSample, String> {
    let root = trace.open("query", None);
    let (resp, engine_span) = trace.span("engine.query", Some(root), || {
        engine.query_by_id(id, options)
    });
    let resp = resp.map_err(|e| format!("engine query {}: {e}", id.0))?;
    let query = engine
        .object(id)
        .ok_or_else(|| format!("query object {} not stored", id.0))?;

    let (qs, sketch_span) = trace.span("sketch", Some(root), || engine.sketch_query(query));
    let qs = qs.map_err(|e| format!("sketch replay: {e}"))?;

    let restricted: Vec<(ObjectId, &SketchedObject)>;
    let dataset = match &options.restrict {
        Some(allowed) => {
            restricted = live
                .iter()
                .filter(|(id, _)| allowed.contains(id))
                .copied()
                .collect();
            &restricted[..]
        }
        None => live,
    };
    let threads = engine.parallelism().threads_for(dataset.len());
    let (filtered, filter_span) = trace.span("filter", Some(root), || {
        filter_candidates_sharded(&qs, dataset, &options.filter, threads)
    });
    let (candidates, fstats) = filtered.map_err(|e| format!("filter replay: {e}"))?;

    let mut cand_ids: Vec<ObjectId> = candidates.into_iter().collect();
    cand_ids.sort();
    let cands: Vec<(ObjectId, &DataObject)> = cand_ids
        .iter()
        .map(|&c| (c, engine.object(c).expect("candidate is stored")))
        .collect();
    let rank_threads = engine.parallelism().threads_for(cands.len());
    let distance = Emd::new(L1);
    let (ranked, rank_span) = trace.span("rank", Some(root), || {
        rank_candidates_parallel(query, &cands, &distance, options.k, rank_threads)
    });
    let ranked = ranked.map_err(|e| format!("rank replay: {e}"))?;
    let split_span = trace.open("rank.split", Some(root));
    let split = rank_split(query, &cands, options.k)?;
    trace.close(split_span);
    trace.close(root);

    same_results("engine vs replay", &resp.results, &ranked)?;
    same_results("replay vs split rank", &ranked, &split.results)?;
    if resp.stats.distance_evals != cands.len() {
        return Err(format!(
            "engine ranked {} candidates, replay filter produced {}",
            resp.stats.distance_evals,
            cands.len()
        ));
    }
    if resp.stats.segments_scanned != fstats.segments_scanned {
        return Err(format!(
            "engine compared {} segments, replay filter {}",
            resp.stats.segments_scanned, fstats.segments_scanned
        ));
    }
    Ok(LayerSample {
        engine_ms: ms(trace.duration(engine_span)),
        sketch_ms: ms(trace.duration(sketch_span)),
        filter_ms: ms(trace.duration(filter_span)),
        rank_ms: ms(trace.duration(rank_span)),
        segments_compared: fstats.segments_scanned,
        candidates: cands.len(),
        results: ranked.len(),
        solves: split.solves,
        solve_cells: split.cells,
        cost_matrix_ms: ms(split.cost_matrix),
        solve_ms: ms(split.solve),
    })
}

/// Ranking split into its two parts: building each candidate's ground
/// cost matrix with [`SegmentDistance::eval`] and solving the
/// transportation problem. Serial, so the two parts can be timed apart.
struct SplitRank {
    results: Vec<SearchResult>,
    solves: usize,
    cells: usize,
    cost_matrix: Duration,
    solve: Duration,
}

fn rank_split(
    query: &DataObject,
    cands: &[(ObjectId, &DataObject)],
    k: usize,
) -> Result<SplitRank, String> {
    let ground = L1;
    let mut out = SplitRank {
        results: Vec::with_capacity(cands.len()),
        solves: 0,
        cells: 0,
        cost_matrix: Duration::ZERO,
        solve: Duration::ZERO,
    };
    let supply = normalized_weights(query)?;
    for &(id, obj) in cands {
        let t = Instant::now();
        if query.num_segments() == 1 && obj.num_segments() == 1 {
            // Emd's single-segment shortcut: the ground distance itself.
            let d = ground.eval(
                query.segment(0).vector.components(),
                obj.segment(0).vector.components(),
            );
            out.cost_matrix += t.elapsed();
            out.results.push(SearchResult { id, distance: d });
            continue;
        }
        let demand = normalized_weights(obj)?;
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for a in query.segments() {
            for b in obj.segments() {
                let c = ground.eval(a.vector.components(), b.vector.components());
                cost.push(c.max(0.0));
            }
        }
        let built = Instant::now();
        let d = solve_transportation(&supply, &demand, &cost);
        out.solve += built.elapsed();
        out.cost_matrix += built - t;
        out.solves += 1;
        out.cells += cost.len();
        out.results.push(SearchResult { id, distance: d });
    }
    out.results = rank_scores(std::mem::take(&mut out.results), k);
    Ok(out)
}

/// Segment weights scaled to sum to one, exactly as EMD normalizes them.
fn normalized_weights(obj: &DataObject) -> Result<Vec<f64>, String> {
    let sum: f64 = obj.segments().iter().map(|s| f64::from(s.weight)).sum();
    if sum <= 0.0 {
        return Err("object with non-positive weight sum".into());
    }
    Ok(obj
        .segments()
        .iter()
        .map(|s| f64::from(s.weight) / sum)
        .collect())
}

/// Exact equality of two ranked lists: same ids in the same order and
/// bit-identical distances.
pub fn same_results(what: &str, a: &[SearchResult], b: &[SearchResult]) -> Result<(), String> {
    let same = a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits());
    if same {
        Ok(())
    } else {
        let show = |r: &[SearchResult]| {
            r.iter()
                .map(|s| format!("{}:{}", s.id.0, s.distance))
                .collect::<Vec<_>>()
                .join(" ")
        };
        Err(format!("{what} differ: [{}] vs [{}]", show(a), show(b)))
    }
}

/// How an approximate top-k compares with the exact one, summed over
/// queries: shared ids, and the distances of both lists.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Quality {
    pub shared: usize,
    pub wanted: usize,
    pub exact_distance: f64,
    pub approx_distance: f64,
}

impl Quality {
    /// Adds one query's lists of `(id, distance)`.
    pub fn add(&mut self, approx: &[(ObjectId, f64)], exact: &[(ObjectId, f64)]) {
        let want: HashSet<ObjectId> = exact.iter().map(|(id, _)| *id).collect();
        self.shared += approx.iter().filter(|(id, _)| want.contains(id)).count();
        self.wanted += exact.len();
        self.exact_distance += exact.iter().map(|(_, d)| d).sum::<f64>();
        self.approx_distance += approx.iter().map(|(_, d)| d).sum::<f64>();
    }

    /// Share of the exact top-k's ids that the approximate lists hold.
    pub fn recall(&self) -> f64 {
        if self.wanted == 0 {
            1.0
        } else {
            self.shared as f64 / self.wanted as f64
        }
    }

    /// Summed exact top-k distance over summed returned top-k distance:
    /// 1 when the answers are exact, lower the farther the returned
    /// neighbours are. Unlike recall it moves continuously, so it stays
    /// steady on collections where few true neighbours are ever found.
    pub fn distance_ratio(&self) -> f64 {
        if self.approx_distance > 0.0 {
            self.exact_distance / self.approx_distance
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_sums_over_queries() {
        let rows = |v: &[(u64, f64)]| v.iter().map(|&(i, d)| (ObjectId(i), d)).collect::<Vec<_>>();
        let mut q = Quality::default();
        assert_eq!((q.recall(), q.distance_ratio()), (1.0, 1.0));
        q.add(&rows(&[(1, 0.0), (2, 2.0)]), &rows(&[(1, 0.0), (3, 1.0)]));
        q.add(&rows(&[(4, 1.0), (5, 1.0)]), &rows(&[(4, 1.0), (5, 1.0)]));
        assert_eq!(q.recall(), 0.75);
        assert_eq!(q.distance_ratio(), 3.0 / 4.0);
    }

    #[test]
    fn same_results_is_bitwise() {
        let r = |id, distance| SearchResult {
            id: ObjectId(id),
            distance,
        };
        assert!(same_results("x", &[r(1, 0.5)], &[r(1, 0.5)]).is_ok());
        assert!(same_results("x", &[r(1, 0.5)], &[r(2, 0.5)]).is_err());
        assert!(same_results(
            "x",
            &[r(1, 0.5)],
            &[r(1, f64::from_bits(0.5f64.to_bits() + 1))]
        )
        .is_err());
        assert!(same_results("x", &[r(1, 0.5)], &[]).is_err());
    }
}
