//! Persistence and crash-recovery integration tests: the composed service
//! must come back consistent after clean restarts, checkpoints, and torn
//! write-ahead-log tails.

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;

use ferret::attr::AttrsBuilder;
use ferret::core::engine::{EngineBuilder, EngineConfig, QueryOptions};
use ferret::core::filter::FilterParams;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::sketch::SketchParams;
use ferret::core::vector::FeatureVector;
use ferret::query::FerretService;
use ferret::store::{DbOptions, Durability};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-it-persist-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config() -> EngineConfig {
    EngineConfig::basic(
        SketchParams::new(96, vec![0.0; 3], vec![1.0; 3]).unwrap(),
        31,
    )
}

fn db_opts() -> DbOptions {
    DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    }
}

fn obj(x: f32, y: f32, z: f32) -> DataObject {
    DataObject::new(vec![
        (FeatureVector::new(vec![x, y, z]).unwrap(), 0.7),
        (FeatureVector::new(vec![z, y, x]).unwrap(), 0.3),
    ])
    .unwrap()
}

#[test]
fn full_state_survives_restart() {
    let dir = tmpdir("restart");
    let expected;
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..20u64 {
            let x = i as f32 / 20.0;
            let attrs = AttrsBuilder::new()
                .keyword("bucket", if i < 10 { "lo" } else { "hi" })
                .build();
            svc.insert(ObjectId(i), obj(x, 1.0 - x, 0.5), Some(attrs))
                .unwrap();
        }
        expected = svc
            .query(ObjectId(3), QueryOptions::brute_force(5), None)
            .unwrap()
            .results;
    }
    // Reopen: sketches are rebuilt deterministically, so results and
    // attribute search match exactly.
    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    assert_eq!(svc.engine().len(), 20);
    let after = svc
        .query(ObjectId(3), QueryOptions::brute_force(5), None)
        .unwrap()
        .results;
    assert_eq!(expected, after);
    let hits = svc.attrs().search_str("bucket:lo").unwrap();
    assert_eq!(hits.len(), 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sketch_results_identical_after_restart() {
    // The deterministic sketch builder is what makes sketch-mode results
    // reproducible across restarts.
    let dir = tmpdir("sketch-determinism");
    let before;
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..15u64 {
            svc.insert(ObjectId(i), obj(0.05 * i as f32, 0.3, 0.9), None)
                .unwrap();
        }
        before = svc
            .query(ObjectId(0), QueryOptions::brute_force_sketch(15), None)
            .unwrap()
            .results;
    }
    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    let after = svc
        .query(ObjectId(0), QueryOptions::brute_force_sketch(15), None)
        .unwrap()
        .results;
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery replay gives the same filtering results: a service reopened
/// from disk answers a filter-mode query exactly as before the restart
/// and as an engine built fresh from the same objects.
#[test]
fn recovery_replay_gives_same_filter_results() {
    let dir = tmpdir("filter-replay");
    let opts = QueryOptions::filtering(
        5,
        FilterParams {
            query_segments: 1,
            candidates_per_segment: 8,
            base_threshold: Some(6),
            weight_attenuation: 0.0,
        },
    );
    let object = |i: u64| obj(i as f32 / 50.0, (i % 7) as f32 / 7.0, 0.4);
    let before = {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..50u64 {
            svc.insert(ObjectId(i), object(i), None).unwrap();
        }
        svc.flush().unwrap();
        svc.engine()
            .query_by_id(ObjectId(0), &opts)
            .unwrap()
            .results
    };
    assert!(!before.is_empty());

    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    let after = svc
        .engine()
        .query_by_id(ObjectId(0), &opts)
        .unwrap()
        .results;
    assert_eq!(after, before);

    let mut fresh = EngineBuilder::from_config(config()).build().unwrap();
    for i in 0..50u64 {
        fresh.insert(ObjectId(i), object(i)).unwrap();
    }
    assert_eq!(
        fresh.query_by_id(ObjectId(0), &opts).unwrap().results,
        after
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_then_restart() {
    let dir = tmpdir("checkpoint");
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..10u64 {
            svc.insert(ObjectId(i), obj(0.1 * i as f32, 0.5, 0.5), None)
                .unwrap();
        }
        svc.checkpoint().unwrap();
        // Post-checkpoint mutations land in the fresh log.
        svc.remove(ObjectId(0)).unwrap();
        svc.insert(ObjectId(100), obj(0.9, 0.9, 0.9), None).unwrap();
    }
    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    assert_eq!(svc.engine().len(), 10);
    assert!(!svc.engine().contains(ObjectId(0)));
    assert!(svc.engine().contains(ObjectId(100)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_loses_only_the_tail() {
    let dir = tmpdir("torn");
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..8u64 {
            svc.insert(ObjectId(i), obj(0.1 * i as f32, 0.2, 0.8), None)
                .unwrap();
        }
    }
    // Tear the last few bytes off the log, as an interrupted write would.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let n = bytes.len();
    bytes.truncate(n - 5);
    std::fs::write(&wal, &bytes).unwrap();

    let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    // The last insert is lost; everything before it is intact and the
    // service keeps working (including new writes over the repaired log).
    assert_eq!(svc.engine().len(), 7);
    for i in 0..7u64 {
        assert!(svc.engine().contains(ObjectId(i)), "object {i} lost");
    }
    svc.insert(ObjectId(50), obj(0.4, 0.4, 0.4), None).unwrap();
    drop(svc);
    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    assert_eq!(svc.engine().len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshot_is_reported() {
    let dir = tmpdir("bad-snapshot");
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        svc.insert(ObjectId(1), obj(0.1, 0.2, 0.3), None).unwrap();
        svc.checkpoint().unwrap();
    }
    // Flip a byte in the snapshot body: recovery must fail loudly rather
    // than silently load garbage.
    let snap = dir.join("snapshot.db");
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0xA5;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(FerretService::open(&dir, config(), db_opts()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attribute_restricted_query_after_restart() {
    let dir = tmpdir("attr-restrict");
    {
        let mut svc = FerretService::open(&dir, config(), db_opts()).unwrap();
        for i in 0..12u64 {
            let attrs = AttrsBuilder::new().int("idx", i as i64).build();
            svc.insert(ObjectId(i), obj(0.05 * i as f32, 0.5, 0.5), Some(attrs))
                .unwrap();
        }
    }
    let svc = FerretService::open(&dir, config(), db_opts()).unwrap();
    let resp = svc
        .query(ObjectId(0), QueryOptions::brute_force(3), Some("idx>=6"))
        .unwrap();
    for r in &resp.results {
        assert!(r.id.0 >= 6, "restriction violated: {:?}", r.id);
    }
    std::fs::remove_dir_all(&dir).ok();
}
