//! Indexing extension experiment (paper §8 future work): the banded
//! sketch index vs the linear filter scan.
//!
//! On the VARY-like image benchmark (structured data with planted
//! neighbors), compares candidate-set size, recall of the true
//! (brute-force EMD) top-10 neighbors, and candidate-generation time
//! across banding configurations and the paper's filtering approach.

use std::collections::HashSet;
use std::time::Instant;

use ferret_bench::banding::{BandedSketchIndex, BandingParams};
use ferret_bench::BenchArgs;
use ferret_core::engine::{QueryOptions, SearchEngine};
use ferret_core::filter::{filter_candidates, FilterParams};
use ferret_core::object::ObjectId;
use ferret_datatypes::image::{generate_vary_dataset, image_sketch_params, VaryConfig};
use ferret_eval::{format_duration, TextTable};

fn main() {
    let args = BenchArgs::parse(1.0);
    let cfg = VaryConfig {
        num_sets: 32,
        set_size: 5,
        num_distractors: args.scaled(1500, 150),
        raster_size: 48,
        noise: 0.02,
        seed: args.seed,
    };
    let n = cfg.num_sets * cfg.set_size + cfg.num_distractors;
    let num_queries = 10usize;
    eprintln!("[indexing] generating and indexing {n} VARY images...");
    let dataset = generate_vary_dataset(&cfg);
    let mut engine = SearchEngine::builder(image_sketch_params(96, 2), args.seed)
        .build()
        .unwrap();
    for (id, obj) in &dataset.objects {
        engine.insert(*id, obj.clone()).expect("insert");
    }
    let seeds: Vec<ObjectId> = engine
        .ids()
        .iter()
        .step_by(n / num_queries)
        .copied()
        .take(num_queries)
        .collect();

    // Ground truth: brute-force EMD top 10 per query.
    eprintln!("[indexing] computing brute-force ground truth...");
    let mut truth: Vec<HashSet<ObjectId>> = Vec::new();
    for &seed in &seeds {
        let resp = engine
            .query_by_id(seed, &QueryOptions::brute_force(10))
            .expect("brute force");
        truth.push(resp.results.iter().map(|r| r.id).collect());
    }

    let mut table = TextTable::new(vec![
        "Method",
        "AvgCandidates",
        "Top10Recall",
        "CandidateTime",
    ]);

    // Linear filter scan.
    let params = FilterParams {
        query_segments: 2,
        candidates_per_segment: 40,
        ..FilterParams::default()
    };
    let mut cand_total = 0usize;
    let mut recall_total = 0.0f64;
    let start = Instant::now();
    let ids = engine.ids();
    for (qi, &seed) in seeds.iter().enumerate() {
        let query = engine.sketched(seed).expect("seed").clone();
        let dataset = ids
            .iter()
            .map(|&id| (id, engine.sketched(id).expect("sketch")));
        let (cands, _) = filter_candidates(&query, dataset, &params).expect("filter");
        cand_total += cands.len();
        let hit = truth[qi].iter().filter(|id| cands.contains(id)).count();
        recall_total += hit as f64 / truth[qi].len() as f64;
    }
    let elapsed = start.elapsed() / seeds.len() as u32;
    table.row(vec![
        "filter scan (r=2, cand=40)".to_string(),
        format!("{:.0}", cand_total as f64 / seeds.len() as f64),
        format!("{:.2}", recall_total / seeds.len() as f64),
        format_duration(elapsed),
    ]);

    // Banded indexes at a few operating points.
    for (bands, rows) in [(12usize, 8usize), (8, 12), (6, 16)] {
        let bp = BandingParams { bands, rows };
        let mut index = BandedSketchIndex::new(96, bp).expect("params fit 96 bits");
        for id in engine.ids() {
            index
                .insert(id, engine.sketched(id).expect("sketch"))
                .expect("insert");
        }
        let mut cand_total = 0usize;
        let mut recall_total = 0.0f64;
        let start = Instant::now();
        for (qi, &seed) in seeds.iter().enumerate() {
            let query = engine.sketched(seed).expect("seed");
            let cands = index.candidates(query).expect("candidates");
            cand_total += cands.len();
            let hit = truth[qi].iter().filter(|id| cands.contains(id)).count();
            recall_total += hit as f64 / truth[qi].len() as f64;
        }
        let elapsed = start.elapsed() / seeds.len() as u32;
        table.row(vec![
            format!("banded index ({bands} bands x {rows} bits)"),
            format!("{:.0}", cand_total as f64 / seeds.len() as f64),
            format!("{:.2}", recall_total / seeds.len() as f64),
            format_duration(elapsed),
        ]);
    }

    println!("\nIndexing extension: candidate generation on {n} VARY images (96-bit sketches):\n");
    println!("{}", table.render());
    println!("reading — this reproduces the paper's related-work argument (§7): LSH-style");
    println!("banding is 'designed for an indexing approach, instead of the filtering");
    println!("approach we take'. With multi-segment objects, any segment colliding in any");
    println!("band admits the object, so high-recall banding floods the candidate set");
    println!("(approaching the whole dataset), while the paper's filter scan returns a");
    println!("small, focused k-NN candidate set at linear scan cost.");
}
