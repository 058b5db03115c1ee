//! The ranking unit: accurate ordering of the candidate set.
//!
//! Ranking implements the second query step (paper §4.1.1): the
//! (comparatively expensive) object distance function is evaluated between
//! the query and every candidate, and the closest `k` objects are returned.
//!
//! [`rank_candidates_pruned`] skips evaluations that cannot change the
//! answer. It first has the distance stage every candidate with a lower
//! bound ([`ObjectDistance::stage`]; for EMD, the cost matrix and a bound
//! from it), then finishes candidates in `(bound, id)` order and stops at
//! the first whose bound is above the k-th smallest distance found so far:
//! bounds only grow along that order and the k-th distance only falls, so
//! no later candidate can enter the top k either. The results are
//! bit-identical to [`rank_candidates`], which evaluates every candidate
//! and stays the reference.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::distance::ObjectDistance;
use crate::error::{CoreError, Result};
use crate::object::{DataObject, ObjectId};
use crate::parallel::{try_map_chunked, DEFAULT_CHUNK};

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The matched object.
    pub id: ObjectId,
    /// Its object distance to the query (smaller is more similar).
    pub distance: f64,
}

/// The outcome of [`rank_candidates_pruned`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    /// At most `k` results, closest first.
    pub results: Vec<SearchResult>,
    /// Candidates whose distance was never evaluated because their lower
    /// bound ruled them out of the top `k`. With more than one thread the
    /// count depends on timing (workers prune against the k-th distance
    /// known so far); the results never do.
    pub solves_skipped: usize,
}

/// Ranks candidate objects by object distance to the query, evaluating
/// every one of them: the reference [`rank_candidates_pruned`] must match.
///
/// Returns at most `k` results sorted by ascending distance; ties are broken
/// by object id so results are deterministic. A NaN distance is an error.
pub fn rank_candidates<'a, I, D>(
    query: &DataObject,
    candidates: I,
    distance: &D,
    k: usize,
) -> Result<Vec<SearchResult>>
where
    I: IntoIterator<Item = (ObjectId, &'a DataObject)>,
    D: ObjectDistance + ?Sized,
{
    let mut results = Vec::new();
    for (id, obj) in candidates {
        let d = not_nan(distance, id, distance.distance(query, obj)?)?;
        results.push(SearchResult { id, distance: d });
    }
    sort_and_truncate(&mut results, k);
    Ok(results)
}

/// [`rank_candidates_pruned`] without the statistics.
pub fn rank_candidates_parallel<D>(
    query: &DataObject,
    candidates: &[(ObjectId, &DataObject)],
    distance: &D,
    k: usize,
    threads: usize,
) -> Result<Vec<SearchResult>>
where
    D: ObjectDistance + ?Sized,
{
    rank_candidates_pruned(query, candidates, distance, k, threads).map(|r| r.results)
}

/// Candidates staged at once. Bounds are ordered within a window, and its
/// staged problems are held until it is ranked: one window covers a
/// filter stage's candidate set, and the cap bounds what a brute-force
/// ranking over a whole collection holds.
const WINDOW: usize = 1024;

/// Ranks candidates by object distance on `threads` worker threads,
/// skipping every evaluation a lower bound rules out (see the module docs).
///
/// Per window of candidates, [`ObjectDistance::stage`] runs on a
/// work-stealing chunk queue; then workers claim candidates one at a time
/// in `(bound, id)` order, [`finish`](ObjectDistance::finish) them, and
/// share the top `k` found so far. A candidate is skipped only when its
/// bound is strictly above the current k-th distance, so one that would
/// tie the k-th and win on id is always evaluated: results are
/// bit-identical to [`rank_candidates`] over the same slice for every
/// thread count. A NaN bound or distance is an error, as is any error of
/// the distance; the one reported is the first in evaluation order.
pub fn rank_candidates_pruned<D>(
    query: &DataObject,
    candidates: &[(ObjectId, &DataObject)],
    distance: &D,
    k: usize,
    threads: usize,
) -> Result<Ranked>
where
    D: ObjectDistance + ?Sized,
{
    let top = Mutex::new(TopK::new(k));
    let kth = AtomicU64::new(f64::INFINITY.to_bits());
    let mut solves = 0;
    for window in candidates.chunks(WINDOW) {
        solves += rank_window(query, window, distance, threads, &top, &kth)?;
    }
    Ok(Ranked {
        results: top.into_inner().results,
        solves_skipped: candidates.len() - solves,
    })
}

/// Offers the candidates of one window to `top`, whose k-th distance
/// `kth` mirrors; returns how many were evaluated.
fn rank_window<D>(
    query: &DataObject,
    window: &[(ObjectId, &DataObject)],
    distance: &D,
    threads: usize,
    top: &Mutex<TopK>,
    kth: &AtomicU64,
) -> Result<usize>
where
    D: ObjectDistance + ?Sized,
{
    let staged = try_map_chunked(threads, DEFAULT_CHUNK, window, |_, &(id, obj)| {
        let mut staged = Vec::new();
        let bound = not_nan(distance, id, distance.stage(query, obj, &mut staged)?)?;
        Ok((bound, staged))
    })?;
    let mut order: Vec<usize> = (0..window.len()).collect();
    order.sort_unstable_by(|&x, &y| {
        staged[x]
            .0
            .total_cmp(&staged[y].0)
            .then(window[x].0.cmp(&window[y].0))
    });

    let next = AtomicUsize::new(0);
    let solves = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, CoreError)>> = Mutex::new(None);
    let worker = || loop {
        // ordering: Relaxed; the counter only hands out unique positions
        let pos = next.fetch_add(1, Ordering::Relaxed);
        if pos >= order.len() || failure.lock().is_some() {
            break;
        }
        let (id, obj) = window[order[pos]];
        let (bound, staged) = &staged[order[pos]];
        // ordering: Relaxed; a stale k-th distance is a larger one, which only prunes less
        if *bound > f64::from_bits(kth.load(Ordering::Relaxed)) {
            break;
        }
        match distance
            .finish(query, obj, staged)
            .and_then(|d| not_nan(distance, id, d))
        {
            Ok(d) => {
                // ordering: Relaxed; a plain tally read after the workers join
                solves.fetch_add(1, Ordering::Relaxed);
                let mut top = top.lock();
                top.offer(SearchResult { id, distance: d });
                // ordering: Relaxed; stored under the lock, so the value only falls
                kth.store(top.kth().to_bits(), Ordering::Relaxed);
            }
            Err(e) => {
                let mut failure = failure.lock();
                if failure.as_ref().is_none_or(|(at, _)| pos < *at) {
                    *failure = Some((pos, e));
                }
                break;
            }
        }
    };
    // As in the staging pass, a window of one chunk or less is not worth
    // a thread.
    if threads <= 1 || window.len() <= DEFAULT_CHUNK {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        });
    }
    match failure.into_inner() {
        Some((_, e)) => Err(e),
        None => Ok(solves.into_inner()),
    }
}

/// Passes a distance (or bound) on, or rejects a NaN: NaN has no place in
/// a ranking, and sorting on it is not a total order.
fn not_nan<D>(distance: &D, id: ObjectId, d: f64) -> Result<f64>
where
    D: ObjectDistance + ?Sized,
{
    if d.is_nan() {
        Err(CoreError::InvalidQuery(format!(
            "object distance {} is NaN for object {}",
            distance.name(),
            id.0
        )))
    } else {
        Ok(d)
    }
}

/// The `k` smallest results offered so far, in `(distance, id)` order.
struct TopK {
    k: usize,
    results: Vec<SearchResult>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            results: Vec::new(),
        }
    }

    fn offer(&mut self, r: SearchResult) {
        let at = self
            .results
            .partition_point(|x| cmp_results(x, &r) != std::cmp::Ordering::Greater);
        if at < self.k {
            self.results.insert(at, r);
            self.results.truncate(self.k);
        }
    }

    /// The distance a candidate must not exceed to enter: the k-th
    /// smallest so far, `+∞` while fewer than `k` are known.
    fn kth(&self) -> f64 {
        if self.results.len() < self.k {
            f64::INFINITY
        } else {
            self.results
                .last()
                .map_or(f64::NEG_INFINITY, |r| r.distance)
        }
    }
}

/// Ranks precomputed `(id, distance)` scores.
///
/// Used when distances are computed from sketches rather than through an
/// [`ObjectDistance`] implementation.
pub fn rank_scores(mut results: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
    sort_and_truncate(&mut results, k);
    results
}

/// Ascending distance, then id. NaN sorts after every number, so this is
/// a total order whatever the input (the rank stage rejects NaN before it
/// gets here; [`rank_scores`] takes any scores).
fn cmp_results(a: &SearchResult, b: &SearchResult) -> std::cmp::Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .unwrap_or_else(|| a.distance.is_nan().cmp(&b.distance.is_nan()))
        .then(a.id.cmp(&b.id))
}

fn sort_and_truncate(results: &mut Vec<SearchResult>, k: usize) {
    results.sort_by(cmp_results);
    results.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::emd::Emd;
    use crate::distance::lp::L1;
    use crate::vector::FeatureVector;

    fn obj1(x: f32) -> DataObject {
        DataObject::single(FeatureVector::new(vec![x]).unwrap())
    }

    #[test]
    fn ranks_by_distance_ascending() {
        let query = obj1(0.0);
        let a = obj1(5.0);
        let b = obj1(1.0);
        let c = obj1(3.0);
        let cands = vec![(ObjectId(1), &a), (ObjectId(2), &b), (ObjectId(3), &c)];
        let res = rank_candidates(&query, cands, &Emd::new(L1), 10).unwrap();
        let ids: Vec<u64> = res.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!((res[0].distance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncates_to_k() {
        let query = obj1(0.0);
        let objs: Vec<DataObject> = (0..10).map(|i| obj1(i as f32)).collect();
        let cands = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o));
        let res = rank_candidates(&query, cands, &Emd::new(L1), 3).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, ObjectId(0));
    }

    #[test]
    fn ties_broken_by_id() {
        let query = obj1(0.0);
        let a = obj1(2.0);
        let b = obj1(2.0);
        let cands = vec![(ObjectId(9), &a), (ObjectId(1), &b)];
        let res = rank_candidates(&query, cands, &Emd::new(L1), 10).unwrap();
        assert_eq!(res[0].id, ObjectId(1));
        assert_eq!(res[1].id, ObjectId(9));
    }

    #[test]
    fn parallel_ranking_matches_serial() {
        let query = obj1(0.0);
        // Include exact-tie distances to exercise id tie-breaking.
        let objs: Vec<DataObject> = (0..30).map(|i| obj1((i % 7) as f32)).collect();
        let cands: Vec<(ObjectId, &DataObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o))
            .collect();
        let emd = Emd::new(L1);
        let serial = rank_candidates(&query, cands.iter().copied(), &emd, 12).unwrap();
        for threads in [1usize, 2, 5, 16] {
            let parallel = rank_candidates_parallel(&query, &cands, &emd, 12, threads).unwrap();
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn pruning_skips_what_the_bound_rules_out() {
        // Single-segment objects: the bound is the distance itself, so
        // every candidate beyond the k-th is skipped.
        let query = obj1(0.0);
        let objs: Vec<DataObject> = (0..30).map(|i| obj1(i as f32)).collect();
        let cands: Vec<(ObjectId, &DataObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o))
            .collect();
        let ranked = rank_candidates_pruned(&query, &cands, &Emd::new(L1), 3, 1).unwrap();
        assert_eq!(ranked.solves_skipped, 27);
        let ids: Vec<u64> = ranked.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Behind an `Arc<dyn ObjectDistance>` the bound still arrives.
        let shared: std::sync::Arc<dyn ObjectDistance> = std::sync::Arc::new(Emd::new(L1));
        let ranked = rank_candidates_pruned(&query, &cands, &shared, 3, 1).unwrap();
        assert_eq!(ranked.solves_skipped, 27);
    }

    #[test]
    fn windows_carry_the_top_k_across() {
        // More candidates than one window holds, the nearest ones in the
        // last window: pruning across windows must still be exact.
        let two = |x: f32| {
            DataObject::new(vec![
                (FeatureVector::new(vec![x]).unwrap(), 0.5),
                (FeatureVector::new(vec![x + 1.0]).unwrap(), 0.5),
            ])
            .unwrap()
        };
        let query = two(0.0);
        let objs: Vec<DataObject> = (0..2 * WINDOW + 300)
            .map(|i| two((2 * WINDOW + 300 - i) as f32 * 0.01))
            .collect();
        let cands: Vec<(ObjectId, &DataObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o))
            .collect();
        let emd = Emd::new(L1);
        let expected = rank_candidates(&query, cands.iter().copied(), &emd, 7).unwrap();
        for threads in [1usize, 3] {
            let ranked = rank_candidates_pruned(&query, &cands, &emd, 7, threads).unwrap();
            assert_eq!(ranked.results, expected, "threads {threads}");
            assert!(ranked.solves_skipped > 0);
        }
    }

    /// A distance that is NaN for every pair but the query itself.
    struct NanDistance;

    impl ObjectDistance for NanDistance {
        fn name(&self) -> &'static str {
            "nan"
        }

        fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
            Ok(if std::ptr::eq(a, b) { 0.0 } else { f64::NAN })
        }
    }

    #[test]
    fn nan_distance_is_an_error_not_a_panic() {
        let query = obj1(0.0);
        let objs: Vec<DataObject> = (0..40).map(|i| obj1(i as f32)).collect();
        let mut cands: Vec<(ObjectId, &DataObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o))
            .collect();
        cands.push((ObjectId(99), &query));
        let err = rank_candidates(&query, cands.iter().copied(), &NanDistance, 5).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
        for threads in [1usize, 3] {
            let err =
                rank_candidates_parallel(&query, &cands, &NanDistance, 5, threads).unwrap_err();
            assert!(err.to_string().contains("NaN"), "{err}");
        }
        // Precomputed scores are not checked, but sorting them never
        // panics: NaN sorts last.
        let scores = (0..40)
            .map(|i| SearchResult {
                id: ObjectId(i),
                distance: if i % 3 == 0 { f64::NAN } else { i as f64 },
            })
            .collect();
        let ranked = rank_scores(scores, 40);
        assert_eq!(ranked[0].id, ObjectId(1));
        assert!(ranked[39].distance.is_nan());
    }

    #[test]
    fn rank_scores_sorts_and_truncates() {
        let res = rank_scores(
            vec![
                SearchResult {
                    id: ObjectId(1),
                    distance: 0.9,
                },
                SearchResult {
                    id: ObjectId(2),
                    distance: 0.1,
                },
                SearchResult {
                    id: ObjectId(3),
                    distance: 0.5,
                },
            ],
            2,
        );
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, ObjectId(2));
        assert_eq!(res[1].id, ObjectId(3));
    }

    #[test]
    fn empty_candidates_give_empty_results() {
        let query = obj1(0.0);
        let res = rank_candidates(&query, Vec::new(), &Emd::new(L1), 5).unwrap();
        assert!(res.is_empty());
    }
}
