//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures (§6).
//!
//! Each binary accepts `--scale <f>` to shrink or grow the synthetic
//! collections (queries, distractors, dataset sizes) relative to its
//! defaults, and prints plain-text tables in the shape of the paper's.

use ferret_core::engine::{EngineBuilder, EngineConfig, SearchEngine};
use ferret_datatypes::Dataset;

pub mod banding;

/// Parsed `--scale <f>` / `--seed <n>` / `--csv <path>` process arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Multiplier applied to dataset sizes.
    pub scale: f64,
    /// Master seed override.
    pub seed: u64,
    /// Optional path for machine-readable (CSV) series output.
    pub csv: Option<std::path::PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments, with the given default scale.
    pub fn parse(default_scale: f64) -> Self {
        let mut args = std::env::args().skip(1);
        let mut out = Self {
            scale: default_scale,
            seed: 0xF32237,
            csv: None,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                        out.seed = v;
                    }
                }
                "--csv" => {
                    out.csv = args.next().map(std::path::PathBuf::from);
                }
                "--help" | "-h" => {
                    eprintln!("options: --scale <f>  --seed <n>  --csv <path>");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("ignoring unknown argument {other:?}");
                }
            }
        }
        out
    }

    /// Scales a count, keeping at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }
}

/// Indexes a generated dataset into a fresh engine.
pub fn index_dataset(dataset: &Dataset, config: EngineConfig) -> SearchEngine {
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    for (id, obj) in &dataset.objects {
        engine
            .insert(*id, obj.clone())
            .expect("insert generated object");
    }
    engine
}

/// Locates the low and high "knee" points of a quality-vs-sketch-size
/// curve (paper §6.3.2).
///
/// Heuristic: relative to the plateau (the maximum precision in the
/// sweep), the *low knee* is the smallest sketch size reaching 85% of the
/// plateau — below it quality degrades quickly — and the *high knee* is
/// the smallest size reaching 98% — above it quality no longer improves
/// much. Returns `(low, high)` sketch sizes.
pub fn find_knees(series: &[(usize, f64)]) -> (usize, usize) {
    assert!(!series.is_empty(), "empty sweep");
    let plateau = series.iter().map(|&(_, ap)| ap).fold(0.0f64, f64::max);
    let mut low = series.last().expect("non-empty").0;
    let mut high = series.last().expect("non-empty").0;
    for &(bits, ap) in series {
        if ap >= 0.85 * plateau {
            low = bits;
            break;
        }
    }
    for &(bits, ap) in series {
        if ap >= 0.98 * plateau {
            high = bits;
            break;
        }
    }
    (low, high.max(low))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knees_on_saturating_curve() {
        let series = vec![
            (16, 0.20),
            (32, 0.45),
            (64, 0.60),
            (96, 0.68),
            (128, 0.70),
            (256, 0.705),
        ];
        let (low, high) = find_knees(&series);
        assert_eq!(low, 64); // 0.60 >= 0.85 * 0.705.
        assert_eq!(high, 128); // 0.70 >= 0.98 * 0.705.
        assert!(high >= low);
    }

    #[test]
    fn knees_on_flat_curve() {
        let series = vec![(16, 0.5), (32, 0.5), (64, 0.5)];
        let (low, high) = find_knees(&series);
        assert_eq!(low, 16);
        assert_eq!(high, 16);
    }

    #[test]
    fn scaled_counts() {
        let args = BenchArgs {
            scale: 0.1,
            seed: 0,
            csv: None,
        };
        assert_eq!(args.scaled(1000, 10), 100);
        assert_eq!(args.scaled(50, 10), 10);
    }
}
