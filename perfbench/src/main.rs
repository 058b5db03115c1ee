//! The repository benchmark. Runs one named workload with a given seed,
//! checks its outputs, and prints one JSON result line: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audio-knn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod inproc;
mod replay;
mod report;
mod rng;
mod serve;
mod stats;

use std::path::Path;

use ferret_datatypes::audio::{generate_mixed_audio, mixed_audio_sketch_params};
use ferret_datatypes::image::{generate_mixed_images, image_sketch_params};

use crate::inproc::InprocSpec;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::Trace;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Table 2, mixed image at scale 0.1: 66,000 objects of ~11 segments.
const IMAGE_KNN: InprocSpec = InprocSpec {
    objects: 66_000,
    generate: generate_mixed_images,
    sketch: || image_sketch_params(96, 2),
    query_segments: 2,
    candidates_per_segment: 40,
    k: 10,
    latency_limit_ms: 250.0,
    // Exact EMD over all 66,000 objects takes seconds per query.
    quality_queries: 2,
};

/// Table 2, TIMIT-sized audio: 6,300 utterances of ~8.5 word segments.
const AUDIO_KNN: InprocSpec = InprocSpec {
    objects: 6_300,
    generate: generate_mixed_audio,
    sketch: || mixed_audio_sketch_params(600, 2),
    query_segments: 3,
    candidates_per_segment: 40,
    k: 10,
    latency_limit_ms: 100.0,
    quality_queries: 24,
};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }

    /// Writes a traced run's spans, as JSON lines, to
    /// `.bench_work/spans/<workload>-<seed>-<label>.jsonl`.
    // A benchmark artifact, not durable state: the Vfs seam the lint
    // guards covers production storage only.
    #[allow(clippy::disallowed_methods)]
    pub fn write_spans(&self, label: &str, trace: &Trace) -> Result<(), String> {
        let dir = Path::new(".bench_work").join("spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}-{label}.jsonl", self.workload, self.seed));
        std::fs::write(&path, trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.to_string()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "image-knn" => inproc::run(&IMAGE_KNN, args),
        "audio-knn" => inproc::run(&AUDIO_KNN, args),
        "shape-serve" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected image-knn, audio-knn or shape-serve)"
        )),
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.record.splice(
        0..0,
        [
            ("workload".to_string(), format!("\"{}\"", args.workload)),
            ("seed".to_string(), args.seed.to_string()),
            ("seconds".to_string(), args.seconds.to_string()),
            ("trace".to_string(), args.trace.to_string()),
            ("nproc".to_string(), nproc.to_string()),
            ("commit".to_string(), format!("\"{}\"", commit())),
        ],
    );
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match out.result_line(expected) {
        Ok(line) => {
            println!("{}", out.record_line());
            println!("{line}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
