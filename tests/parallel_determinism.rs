//! Cross-crate determinism: `FreqDpConfig::workers` shards only the
//! local mechanism, and every trajectory draws from its own RNG stream,
//! so the released CSV must be **byte-identical** at every worker count,
//! for every model, on realistic synthetic data. The global
//! modification phase runs on one thread, so even its search counters
//! must not move with the worker count. Nor may the release depend on
//! the index kind or on bbox pruning: the global phase breaks every tie
//! by slot and the local mechanism scans each trajectory's own
//! segments, so neither ever sees an index's visit order.

use traj_freq_dp::core::{anonymize, FreqDpConfig, IndexKind, Model};
use traj_freq_dp::index::Strategy;
use traj_freq_dp::model::csv::to_csv;
use traj_freq_dp::synth::{generate, GeneratorConfig};

#[test]
fn parallel_csv_is_byte_identical_to_serial() {
    let world = generate(&GeneratorConfig::tdrive_profile(30, 60, 17));
    let cfg = FreqDpConfig { m: 5, seed: 0xD1CE, ..Default::default() };
    for model in [Model::PureGlobal, Model::PureLocal, Model::Combined] {
        let serial_csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
        for workers in [2usize, 8] {
            let parallel_csv = to_csv(
                &anonymize(&world.dataset, model, &FreqDpConfig { workers, ..cfg })
                    .unwrap()
                    .dataset,
            );
            assert_eq!(
                parallel_csv, serial_csv,
                "{model:?} with {workers} workers must match serial byte-for-byte"
            );
        }
    }
}

#[test]
fn parallel_modification_is_byte_identical_for_combined_models() {
    // Both combined orders run the global phase on a different input
    // (the original or the locally perturbed dataset); both must release
    // the same bytes at every worker count.
    let world = generate(&GeneratorConfig::tdrive_profile(35, 70, 29));
    for model in [Model::Combined, Model::CombinedLocalFirst] {
        let base_cfg = FreqDpConfig { m: 6, seed: 0xBEEF, ..Default::default() };
        let serial_csv = to_csv(&anonymize(&world.dataset, model, &base_cfg).unwrap().dataset);
        for workers in [2usize, 3, 8] {
            let cfg = FreqDpConfig { workers, ..base_cfg };
            let csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
            assert_eq!(csv, serial_csv, "{model:?}: cfg.workers={workers} diverged");
        }
    }
}

#[test]
fn parallel_modification_with_bbox_pruning_is_byte_identical() {
    let world = generate(&GeneratorConfig::tdrive_profile(25, 50, 31));
    let base_cfg = FreqDpConfig { m: 5, seed: 0xACE, bbox_pruning: true, ..Default::default() };
    let serial_csv =
        to_csv(&anonymize(&world.dataset, Model::Combined, &base_cfg).unwrap().dataset);
    for workers in [2usize, 3, 8] {
        let cfg = FreqDpConfig { workers, ..base_cfg };
        let csv = to_csv(&anonymize(&world.dataset, Model::Combined, &cfg).unwrap().dataset);
        assert_eq!(csv, serial_csv, "bbox-pruned modification diverged at {workers} workers");
    }
}

#[test]
fn search_stats_do_not_depend_on_the_worker_count() {
    let world = generate(&GeneratorConfig::tdrive_profile(25, 50, 31));
    for bbox_pruning in [false, true] {
        let base_cfg = FreqDpConfig { m: 5, seed: 0xACE, bbox_pruning, ..Default::default() };
        let stats_at = |workers: usize| {
            let cfg = FreqDpConfig { workers, ..base_cfg };
            let out = anonymize(&world.dataset, Model::Combined, &cfg).unwrap();
            out.global.expect("the combined model runs the global mechanism").search_stats
        };
        let serial = stats_at(1);
        assert!(serial.segments_checked > 0, "bbox_pruning={bbox_pruning}: no search ran");
        for workers in [2usize, 3, 8] {
            assert_eq!(
                stats_at(workers),
                serial,
                "bbox_pruning={bbox_pruning}: search counters moved at {workers} workers"
            );
        }
    }
}

#[test]
fn different_seeds_still_differ_in_parallel() {
    let world = generate(&GeneratorConfig::tdrive_profile(15, 40, 23));
    let run = |seed: u64| {
        let cfg = FreqDpConfig { m: 4, seed, workers: 8, ..Default::default() };
        to_csv(&anonymize(&world.dataset, Model::Combined, &cfg).unwrap().dataset)
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn release_does_not_depend_on_the_index_kind() {
    let world = generate(&GeneratorConfig::tdrive_profile(25, 50, 37));
    let kinds = [
        IndexKind::Linear,
        IndexKind::Uniform(64),
        IndexKind::Hier(512, Strategy::TopDown),
        IndexKind::Hier(512, Strategy::BottomUp),
        IndexKind::Hier(512, Strategy::BottomUpDown),
        IndexKind::Hier(64, Strategy::BottomUpDown),
    ];
    for model in [Model::PureGlobal, Model::PureLocal, Model::Combined, Model::CombinedLocalFirst] {
        let release = |index: IndexKind, bbox_pruning: bool| {
            let cfg =
                FreqDpConfig { m: 5, seed: 0x1DE7, index, bbox_pruning, ..Default::default() };
            to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset)
        };
        let reference = release(IndexKind::Linear, false);
        for index in kinds {
            for bbox_pruning in [false, true] {
                assert!(
                    release(index, bbox_pruning) == reference,
                    "{model:?} with {index:?}, bbox_pruning={bbox_pruning} differs from Linear"
                );
            }
        }
    }
}
