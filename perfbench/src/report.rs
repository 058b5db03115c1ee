//! Metric names, units and the result line the benchmark prints.

use crate::replay::LayerSample;
use crate::stats::{mean, median, uncovered};

/// End-to-end metrics, printed by every untraced run. (`query_p95_ms` is
/// measured too, but goes to the run record: on a host with bursty CPU
/// steal it is not steady enough across runs to carry a bound.)
pub const END_TO_END: [(&str, &str); 7] = [
    ("query_p50_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("ingest_objects_per_s", "1/s"),
    ("setup_s", "s"),
    ("distance_ratio_at_10", "ratio"),
    ("ok_ratio", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("filter.ms", "ms"),
    ("filter.segments_compared", "count"),
    ("filter.ns_per_segment", "ns"),
    ("filter.candidates", "count"),
    ("filter.candidate_yield", "ratio"),
    ("engine.query_ms", "ms"),
    ("engine.uncovered_ms", "ms"),
    ("engine.uncovered_share", "ratio"),
    ("rank.ms", "ms"),
    ("rank.solves", "count"),
    ("rank.cost_matrix_ms", "ms"),
    ("rank.solve_ms", "ms"),
    ("rank.solve_cells_mean", "count"),
    ("sketch.query_us", "us"),
    ("sketch.ingest_us_per_object", "us"),
    ("segment.insert_batch_ms", "ms"),
    ("segment.maintain_ms", "ms"),
    ("segment.sealed_segments", "count"),
    ("segment.memtable_objects", "count"),
    ("service.write_lock_wait_ms", "ms"),
    ("service.write_hold_ms", "ms"),
    ("service.read_lock_wait_ms", "ms"),
    ("server.round_trip_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("admission.rejected", "count"),
    ("attr.search_us", "us"),
    ("store.flush_ms", "ms"),
    ("store.bytes_per_object", "B"),
    ("loadgen.lag_ms", "ms"),
    // Not a layer: how much slower engine queries ran in the traced run
    // than in the same run's untraced phase (see `Outcome::record`).
    ("trace.overhead_share", "ratio"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about the run (seed, sizes, rates, overhead) for the record
    /// line; values are JSON fragments.
    pub record: Vec<(String, String)>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, json: impl std::fmt::Display) {
        self.record.push((key.to_string(), json.to_string()));
    }

    /// Marks the run incorrect; the reason goes to standard error.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// The result line: exactly the metrics `expected` names, in order.
    pub fn result_line(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            let mut found = self.metrics.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} set twice")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }

    pub fn record_line(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"run_record\": {{{}}}}}", fields.join(", "))
    }
}

/// Query-path per-layer metrics (filter, engine, rank, query sketch)
/// from the traced queries of one run.
pub fn set_query_layers(out: &mut Outcome, samples: &[LayerSample]) {
    let col = |f: fn(&LayerSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let uncovered_ms: Vec<f64> = samples
        .iter()
        .map(|s| uncovered(s.engine_ms, &[s.sketch_ms, s.filter_ms, s.rank_ms]).0)
        .collect();
    let solves = sum(|s| s.solves as f64);

    out.set("filter.ms", median(&col(|s| s.filter_ms)));
    out.set(
        "filter.segments_compared",
        mean(&col(|s| s.segments_compared as f64)),
    );
    out.set(
        "filter.ns_per_segment",
        sum(|s| s.filter_ms) * 1e6 / sum(|s| s.segments_compared as f64).max(1.0),
    );
    out.set("filter.candidates", mean(&col(|s| s.candidates as f64)));
    out.set(
        "filter.candidate_yield",
        sum(|s| s.results as f64) / sum(|s| s.candidates as f64).max(1.0),
    );
    out.set("engine.query_ms", median(&col(|s| s.engine_ms)));
    out.set("engine.uncovered_ms", median(&uncovered_ms));
    out.set(
        "engine.uncovered_share",
        uncovered_ms.iter().sum::<f64>() / sum(|s| s.engine_ms),
    );
    out.set("rank.ms", median(&col(|s| s.rank_ms)));
    out.set("rank.solves", mean(&col(|s| s.solves as f64)));
    out.set("rank.cost_matrix_ms", median(&col(|s| s.cost_matrix_ms)));
    out.set("rank.solve_ms", median(&col(|s| s.solve_ms)));
    out.set(
        "rank.solve_cells_mean",
        if solves > 0.0 {
            sum(|s| s.solve_cells as f64) / solves
        } else {
            0.0
        },
    );
    out.set("sketch.query_us", median(&col(|s| s.sketch_ms)) * 1e3);
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut out = Outcome::new();
        out.attempted = 3;
        out.set("a", 1.5);
        out.set("b", 2.0);
        let line = out.result_line(&[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(out.result_line(&[("a", "ms")]).is_err());
        assert!(out
            .result_line(&[("a", "ms"), ("b", "s"), ("c", "s")])
            .is_err());
        out.set("a", f64::NAN);
        assert!(out.result_line(&[("a", "ms"), ("b", "s")]).is_err());
    }

    #[test]
    fn query_layers_cover_the_engine() {
        let s = LayerSample {
            engine_ms: 10.0,
            sketch_ms: 0.01,
            filter_ms: 6.0,
            rank_ms: 2.0,
            segments_compared: 1000,
            candidates: 40,
            results: 10,
            solves: 30,
            solve_cells: 300,
            cost_matrix_ms: 0.5,
            solve_ms: 1.0,
        };
        let mut out = Outcome::new();
        set_query_layers(&mut out, &[s.clone(), s]);
        let get = |n: &str| out.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
        assert!((get("engine.uncovered_ms") - 1.99).abs() < 1e-9);
        assert!((get("engine.uncovered_share") - 0.199).abs() < 1e-9);
        assert!((get("filter.ns_per_segment") - 6000.0).abs() < 1e-9);
        assert_eq!(get("filter.candidate_yield"), 0.25);
        assert_eq!(get("rank.solve_cells_mean"), 10.0);
        assert!((get("sketch.query_us") - 10.0).abs() < 1e-9);
    }
}
