//! The published models: `PureG`, `PureL`, and the composed `GL`
//! (§V-A "Frequency-based randomized DP models").
//!
//! Composition follows Theorem 1: the global mechanism spends ε_G, the
//! local mechanism ε_L, and the combined model is (ε_G + ε_L)-DP. The
//! two mechanisms are independent and may run in either order (the paper
//! notes exchangeable ordering); [`Model::Combined`] runs global first,
//! [`Model::CombinedLocalFirst`] the reverse.

use crate::freq::FrequencyAnalysis;
use crate::global::{perturb_tf_streamed, realize_tf, GlobalReport};
use crate::indexkind::IndexKind;
use crate::local::{local_unit_streamed, merge_local_units, LocalOptions, LocalReport};
use crate::pool::map_chunks;
use std::time::Duration;
use trajdp_mech::{BudgetAccountant, MechError};
use trajdp_model::Dataset;

/// Which anonymization model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Global TF perturbation only (ε = ε_G).
    PureGlobal,
    /// Local PF perturbation only (ε = ε_L).
    PureLocal,
    /// Global then local (ε = ε_G + ε_L).
    Combined,
    /// Local then global (ε = ε_G + ε_L) — exchangeable ordering.
    CombinedLocalFirst,
}

/// Configuration shared by all models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqDpConfig {
    /// Signature size `m` (the paper uses 10).
    pub m: usize,
    /// Budget of the global mechanism, ε_G.
    pub eps_global: f64,
    /// Budget of the local mechanism, ε_L.
    pub eps_local: f64,
    /// Index used by the global modification phase. The local mechanism
    /// scans each trajectory's own segments and ignores it.
    pub index: IndexKind,
    /// Local-mechanism ablation switches.
    pub local_opts: LocalOptions,
    /// Use trajectory-bbox branch-and-bound in the global modification
    /// phase instead of the segment index (the §V-C future-work
    /// optimization; same output, different search).
    pub bbox_pruning: bool,
    /// Worker threads for the local mechanism, the one phase that is
    /// sharded: its trajectory slots are cut into contiguous chunks, one
    /// per thread. Each trajectory draws from its own RNG stream, so the
    /// output is byte-identical at every value; `1` runs fully serial.
    /// The global phase always runs on the calling thread.
    pub workers: usize,
    /// RNG seed for reproducible runs.
    pub seed: u64,
}

impl Default for FreqDpConfig {
    fn default() -> Self {
        Self {
            m: 10,
            eps_global: 0.5,
            eps_local: 0.5,
            index: IndexKind::default(),
            local_opts: LocalOptions::default(),
            bbox_pruning: false,
            workers: 1,
            seed: 0xFD01,
        }
    }
}

/// Everything a model run produces.
#[derive(Debug, Clone)]
pub struct AnonymizedOutput {
    /// The anonymized dataset.
    pub dataset: Dataset,
    /// Total privacy budget spent (ε).
    pub epsilon_spent: f64,
    /// Global-mechanism report, when the model includes it.
    pub global: Option<GlobalReport>,
    /// Local-mechanism report, when the model includes it.
    pub local: Option<LocalReport>,
    /// Wall time of the global phase (perturbation + modification).
    pub global_time: Duration,
    /// Wall time of the local phase.
    pub local_time: Duration,
}

impl AnonymizedOutput {
    /// Total utility loss across both phases.
    pub fn utility_loss(&self) -> f64 {
        self.global.as_ref().map_or(0.0, |g| g.utility_loss)
            + self.local.as_ref().map_or(0.0, |l| l.utility_loss)
    }

    /// Total number of edit operations performed.
    pub fn total_edits(&self) -> usize {
        self.global.as_ref().map_or(0, |g| g.insertions + g.deletions)
            + self.local.as_ref().map_or(0, |l| l.insertions + l.deletions)
    }
}

/// Runs a model end to end on a dataset.
///
/// The signature analysis runs once on the *original* dataset, as in the
/// paper — both mechanisms perturb the same candidate set `P`, and the
/// budget accountant enforces ε = ε_G + ε_L for the combined models.
///
/// Randomness comes from **per-unit streams** derived from `cfg.seed`
/// (see [`crate::stream`]): one stream per candidate point in the global
/// phase, one per trajectory in the local phase. The output is therefore
/// a pure function of `(dataset, model, cfg)` whatever `cfg.workers`
/// says: the workers only change which thread runs a trajectory of the
/// local phase. The global modification phase runs on the calling
/// thread, because each of its edits reads what the previous ones
/// wrote.
pub fn anonymize(
    ds: &Dataset,
    model: Model,
    cfg: &FreqDpConfig,
) -> Result<AnonymizedOutput, MechError> {
    let analysis = FrequencyAnalysis::compute(ds, cfg.m);
    let total_budget = match model {
        Model::PureGlobal => cfg.eps_global,
        Model::PureLocal => cfg.eps_local,
        Model::Combined | Model::CombinedLocalFirst => cfg.eps_global + cfg.eps_local,
    };
    let mut accountant = BudgetAccountant::new(total_budget);
    let (dataset, global, local, global_time, local_time) = match model {
        Model::PureGlobal => {
            let (out, g, t) = global_phase(ds, &analysis, cfg, &mut accountant)?;
            (out, Some(g), None, t, Duration::ZERO)
        }
        Model::PureLocal => {
            let (out, l, t) = local_phase(ds, &analysis, cfg, &mut accountant)?;
            (out, None, Some(l), Duration::ZERO, t)
        }
        Model::Combined => {
            let (mid, g, tg) = global_phase(ds, &analysis, cfg, &mut accountant)?;
            let (out, l, tl) = local_phase(&mid, &analysis, cfg, &mut accountant)?;
            (out, Some(g), Some(l), tg, tl)
        }
        Model::CombinedLocalFirst => {
            let (mid, l, tl) = local_phase(ds, &analysis, cfg, &mut accountant)?;
            let (out, g, tg) = global_phase(&mid, &analysis, cfg, &mut accountant)?;
            (out, Some(g), Some(l), tg, tl)
        }
    };
    Ok(AnonymizedOutput {
        dataset,
        epsilon_spent: accountant.spent(),
        global,
        local,
        global_time,
        local_time,
    })
}

/// The global mechanism (Algorithm 1) on `input`: the TF perturbation
/// from per-point streams, then the modification phase, with its wall
/// time.
fn global_phase(
    input: &Dataset,
    analysis: &FrequencyAnalysis,
    cfg: &FreqDpConfig,
    accountant: &mut BudgetAccountant,
) -> Result<(Dataset, GlobalReport, Duration), MechError> {
    accountant.spend("global TF mechanism", cfg.eps_global).expect("budget sized for the model");
    // lint: allow(determinism): phase wall-time is reporting-only; the phase output never reads it
    let start = std::time::Instant::now();
    let perturbed = perturb_tf_streamed(analysis, cfg.eps_global, cfg.seed)?;
    let (out, report) = realize_tf(input, analysis, &perturbed, cfg.index, cfg.bbox_pruning, 1);
    Ok((out, report, start.elapsed()))
}

/// The local mechanism (Algorithm 2) on `input`, its trajectory slots
/// sharded over `cfg.workers` threads and the units merged in slot
/// order, with its wall time.
fn local_phase(
    input: &Dataset,
    analysis: &FrequencyAnalysis,
    cfg: &FreqDpConfig,
    accountant: &mut BudgetAccountant,
) -> Result<(Dataset, LocalReport, Duration), MechError> {
    accountant.spend("local PF mechanism", cfg.eps_local).expect("budget sized for the model");
    // lint: allow(determinism): phase wall-time is reporting-only; the phase output never reads it
    let start = std::time::Instant::now();
    let shards = map_chunks(cfg.workers, &input.trajectories, |lo, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(offset, traj)| {
                local_unit_streamed(
                    traj,
                    analysis,
                    lo + offset,
                    cfg.eps_local,
                    cfg.index,
                    cfg.local_opts,
                    input.domain,
                    cfg.seed,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let mut units = Vec::with_capacity(input.len());
    for shard in shards {
        units.extend(shard?);
    }
    let (out, report) = merge_local_units(input.domain, units);
    Ok((out, report, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Sample, Trajectory};

    fn ds() -> Dataset {
        let mk = |id: u64, pts: &[(f64, f64)]| {
            Trajectory::new(
                id,
                pts.iter()
                    .enumerate()
                    .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 10))
                    .collect(),
            )
        };
        Dataset::from_trajectories(vec![
            mk(0, &[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0), (20.0, 5.0), (0.0, 0.0), (30.0, 0.0)]),
            mk(1, &[(100.0, 100.0), (110.0, 100.0), (100.0, 100.0), (120.0, 100.0)]),
            mk(2, &[(200.0, 0.0), (210.0, 0.0), (220.0, 0.0), (210.0, 0.0)]),
            mk(3, &[(50.0, 50.0), (60.0, 50.0), (50.0, 50.0), (70.0, 55.0)]),
        ])
    }

    fn cfg() -> FreqDpConfig {
        FreqDpConfig { m: 3, ..Default::default() }
    }

    #[test]
    fn pure_global_spends_only_eps_g() {
        let out = anonymize(&ds(), Model::PureGlobal, &cfg()).unwrap();
        assert_eq!(out.epsilon_spent, 0.5);
        assert!(out.global.is_some());
        assert!(out.local.is_none());
    }

    #[test]
    fn pure_local_spends_only_eps_l() {
        let out = anonymize(&ds(), Model::PureLocal, &cfg()).unwrap();
        assert_eq!(out.epsilon_spent, 0.5);
        assert!(out.global.is_none());
        assert!(out.local.is_some());
    }

    #[test]
    fn combined_spends_full_budget_both_orders() {
        for model in [Model::Combined, Model::CombinedLocalFirst] {
            let out = anonymize(&ds(), model, &cfg()).unwrap();
            assert_eq!(out.epsilon_spent, 1.0, "{model:?}");
            assert!(out.global.is_some() && out.local.is_some());
        }
    }

    #[test]
    fn preserves_trajectory_count_and_ids() {
        let d = ds();
        for model in
            [Model::PureGlobal, Model::PureLocal, Model::Combined, Model::CombinedLocalFirst]
        {
            let out = anonymize(&d, model, &cfg()).unwrap();
            assert_eq!(out.dataset.len(), d.len(), "{model:?}");
            for (a, b) in out.dataset.trajectories.iter().zip(&d.trajectories) {
                assert_eq!(a.id, b.id, "{model:?} must not reorder objects");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = ds();
        let a = anonymize(&d, Model::Combined, &cfg()).unwrap();
        let b = anonymize(&d, Model::Combined, &cfg()).unwrap();
        assert_eq!(a.dataset, b.dataset);
        let mut c2 = cfg();
        c2.seed = 999;
        let c = anonymize(&d, Model::Combined, &c2).unwrap();
        assert_ne!(a.dataset, c.dataset, "different seeds should differ");
    }

    #[test]
    fn utility_loss_and_edits_consistent() {
        let out = anonymize(&ds(), Model::Combined, &cfg()).unwrap();
        assert!(out.utility_loss().is_finite());
        if out.total_edits() == 0 {
            assert_eq!(out.utility_loss(), 0.0);
        }
    }

    #[test]
    fn large_epsilon_changes_little() {
        let d = ds();
        let mut c = cfg();
        c.eps_global = 1000.0;
        c.eps_local = 1000.0;
        let out = anonymize(&d, Model::PureGlobal, &c).unwrap();
        // Huge ε → negligible noise → TF unchanged → dataset unchanged.
        assert_eq!(out.dataset, d);
    }

    #[test]
    fn matches_serial_for_every_model_and_worker_count() {
        let d = ds();
        let cfg = FreqDpConfig { m: 3, seed: 0xFEED, ..Default::default() };
        for model in
            [Model::PureGlobal, Model::PureLocal, Model::Combined, Model::CombinedLocalFirst]
        {
            let serial = anonymize(&d, model, &cfg).unwrap();
            for workers in [2, 3, 8] {
                let parallel = anonymize(&d, model, &FreqDpConfig { workers, ..cfg }).unwrap();
                assert_eq!(
                    parallel.dataset, serial.dataset,
                    "{model:?} with {workers} workers diverged from serial"
                );
                assert_eq!(parallel.epsilon_spent, serial.epsilon_spent);
                assert_eq!(parallel.total_edits(), serial.total_edits(), "{model:?}");
                assert_eq!(parallel.utility_loss(), serial.utility_loss(), "{model:?}");
            }
        }
    }

    #[test]
    fn more_workers_than_units_is_fine() {
        let d = ds();
        let serial = anonymize(&d, Model::Combined, &cfg()).unwrap();
        let parallel = anonymize(&d, Model::Combined, &FreqDpConfig { workers: 64, ..cfg() });
        assert_eq!(parallel.unwrap().dataset, serial.dataset);
    }

    #[test]
    fn empty_dataset_is_handled() {
        let cfg = FreqDpConfig { m: 2, workers: 4, ..Default::default() };
        let empty = Dataset::from_trajectories(vec![]);
        for model in [Model::PureGlobal, Model::PureLocal, Model::Combined] {
            assert_eq!(anonymize(&empty, model, &cfg).unwrap().dataset.len(), 0, "{model:?}");
        }
    }

    #[test]
    fn timings_populated_per_model() {
        let out = anonymize(&ds(), Model::PureGlobal, &cfg()).unwrap();
        assert_eq!(out.local_time, Duration::ZERO);
        let out = anonymize(&ds(), Model::PureLocal, &cfg()).unwrap();
        assert_eq!(out.global_time, Duration::ZERO);
    }
}
