//! The harness's own arithmetic: percentiles, span self time, and the
//! share of a span that its replayed layer spans do not cover.

use std::time::{Duration, Instant};

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `samples`.
///
/// Refuses to report a percentile with fewer than [`MIN_BEYOND`] samples
/// above its rank: the p95 of 199 samples is one of the nine largest
/// values, which says more about outliers than about the tail.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n - rank.max(1) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it; have {} samples",
            q * 100.0,
            MIN_BEYOND,
            n
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// Median with the usual midpoint rule (for small summaries, e.g. the
/// set-up repetitions of one run).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The part of `total` that the `parts` do not account for, floored at
/// zero, and that part as a share of `total`.
///
/// Used where the parts were measured by replaying a layer's public call
/// rather than nested inside the span: engine time not covered by the
/// replayed sketch/filter/rank spans of the same query, or insert time
/// not covered by re-sketching the same batch.
pub fn uncovered(total: f64, parts: &[f64]) -> (f64, f64) {
    let rest = (total - parts.iter().sum::<f64>()).max(0.0);
    let share = if total > 0.0 { rest / total } else { 0.0 };
    (rest, share)
}

/// One recorded span: a named interval with an optional parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Offsets from the trace's origin, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Spans are kept until the run ends.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a new span and returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, parent, start, end))
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose children are recorded before it is closed.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration(&self, id: usize) -> Duration {
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id` in nanoseconds (see [`self_time_ns`]).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        self_time_ns(&self.spans, id)
    }

    /// Spans as JSON lines, for offline inspection.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel work) are
/// merged first so shared time is subtracted once, and children are
/// clipped to the parent's interval.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in children {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(200);
        assert_eq!(percentile(&v, 0.5).unwrap(), 100.0);
        assert_eq!(percentile(&v, 0.95).unwrap(), 190.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.95).unwrap(), 190.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples has exactly 10 beyond it; of 199, only 9.
        assert!(percentile(&ramp(200), 0.95).is_ok());
        assert!(percentile(&ramp(199), 0.95).is_err());
        // The median needs 20 samples (rank 10, ten beyond).
        assert!(percentile(&ramp(20), 0.5).is_ok());
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("tick", None, 0, 100),
            span("maintain", Some(0), 10, 20),
            span("insert", Some(0), 30, 70),
            // A grandchild does not count against the root.
            span("sketch", Some(2), 35, 60),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 10 - 40);
        assert_eq!(self_time_ns(&spans, 2), 40 - 25);
        assert_eq!(self_time_ns(&spans, 3), 25);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips() {
        let spans = vec![
            span("root", None, 100, 200),
            // Two parallel children overlapping on [130, 150].
            span("a", Some(0), 110, 150),
            span("b", Some(0), 130, 170),
            // A child running past the parent's end is clipped.
            span("c", Some(0), 190, 250),
        ];
        // Covered: [110, 170] + [190, 200] = 70.
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut t = Trace::new();
        let root = t.open("root", None);
        let ((), child) = t.span("child", Some(root), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.close(root);
        assert!(t.duration(child) >= Duration::from_millis(2));
        assert!(t.self_time_ns(root) < t.duration(root).as_nanos() as u64);
        assert_eq!(t.durations_ms("child").len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn uncovered_share() {
        let (rest, share) = uncovered(10.0, &[1.0, 5.0, 2.0]);
        assert!((rest - 2.0).abs() < 1e-12);
        assert!((share - 0.2).abs() < 1e-12);
        // Replayed parts longer than the whole are floored at zero.
        assert_eq!(uncovered(10.0, &[6.0, 6.0]), (0.0, 0.0));
        assert_eq!(uncovered(0.0, &[]), (0.0, 0.0));
    }
}
