//! Golden checksums for the four label-model training entry points
//! (`GenerativeModel::{fit, fit_incremental}`, `ClassConditionalModel::fit`,
//! `GibbsTrainer::fit`).
//!
//! The trainers promise a fixed trajectory: same RNG consumption, same
//! floating-point operation order, hence the same parameters, posteriors
//! and NLLs at every seed and thread count. Each constant below is the
//! FNV-1a of the exact bit patterns a run produced **before** the
//! trainers were moved onto the shared optimiser loop (`train.rs`) and
//! the single row kernel — the events-shaped pair at b2be6ef, before the
//! dense kernel and the layout rule; a refactor of any of these must
//! leave them green. A deliberate change to the numerics re-records them
//! and says so.

// Miri perturbs `exp`/`ln` results by design, so bit patterns recorded on
// hardware cannot match under it.
#![cfg(not(miri))]

use drybell_core::gibbs::{GibbsConfig, GibbsTrainer};
use drybell_core::optim::Optimizer;
use drybell_core::{
    CcTrainConfig, ClassConditionalModel, GenerativeModel, LabelMatrix, TrainConfig,
};
use drybell_obs::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the exact bit patterns of a float sequence.
fn checksum(xs: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = xs
        .into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Planted two-class matrix whose per-LF propensity is drawn from
/// `props`, which is half of what decides the layout `fit` picks: at 50%
/// non-abstain cells or more the dense kernel, below it the CSR active
/// index if the schedule revisits rows often enough to repay building it
/// (`steps × batch ≥ 8 × rows`) and the dense kernel if not.
fn planted(examples: usize, lfs: usize, props: std::ops::Range<f64>, seed: u64) -> LabelMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let accs: Vec<f64> = (0..lfs).map(|_| rng.gen_range(0.6..0.95)).collect();
    let props: Vec<f64> = (0..lfs).map(|_| rng.gen_range(props.clone())).collect();
    let mut m = LabelMatrix::with_capacity(lfs, examples);
    for _ in 0..examples {
        let y: i8 = if rng.gen_bool(0.4) { 1 } else { -1 };
        let row: Vec<i8> = (0..lfs)
            .map(|j| {
                if !rng.gen_bool(props[j]) {
                    0
                } else if rng.gen_bool(accs[j]) {
                    y
                } else {
                    -y
                }
            })
            .collect();
        m.push_raw_row(&row).unwrap();
    }
    m
}

fn binary_params(model: &GenerativeModel) -> impl Iterator<Item = f64> + '_ {
    model
        .alphas()
        .iter()
        .chain(model.betas())
        .copied()
        .chain([model.eta()])
}

/// `fit` with a learned prior, batches that wrap the epoch mid-batch, and
/// a recorded loss history — then posteriors and NLL.
fn binary_fit_checksum(
    m: &LabelMatrix,
    steps: usize,
    batch_size: usize,
    num_threads: usize,
) -> u64 {
    let cfg = TrainConfig {
        steps,
        batch_size,
        learn_class_prior: true,
        class_prior: 0.4,
        seed: 11,
        record_every: 8,
        num_threads,
        ..TrainConfig::default()
    };
    let mut model = GenerativeModel::new(m.num_lfs(), 0.7);
    let report = model.fit(m, &cfg).unwrap();
    let posteriors = model.predict_proba_threads(m, num_threads);
    let history = report.loss_history.iter().map(|&(_, nll)| nll);
    checksum(
        binary_params(&model)
            .chain(posteriors)
            .chain(history)
            .chain([report.final_nll]),
    )
}

#[test]
fn binary_fit_dense_layout() {
    let m = planted(4_000, 8, 0.6..0.9, 42);
    assert!(m.vote_density() >= 0.5, "too dense for the active index");
    for threads in [1, 4] {
        assert_eq!(
            binary_fit_checksum(&m, 24, 1_500, threads),
            0x9f32_5523_8925_1f15,
            "{threads} thread(s)"
        );
    }
}

#[test]
fn binary_fit_sparse_layout() {
    let m = planted(4_000, 12, 0.05..0.3, 43);
    assert!(
        m.vote_density() < 0.5 && 24 * 1_500 >= 8 * m.num_examples(),
        "sparse and revisited nine times: worth the active index"
    );
    for threads in [1, 4] {
        assert_eq!(
            binary_fit_checksum(&m, 24, 1_500, threads),
            0x3474_25a3_ae22_3641,
            "{threads} thread(s)"
        );
    }
}

/// The events task's shape (§3.3): 140 sources at about 40% cell density,
/// a row count that is a multiple neither of the dense kernel's 4-row
/// block nor of `CHUNK_ROWS`, and a batch that wraps the epoch mid-batch.
/// Four steps visit each row 1.4 times, which does not repay an index (the
/// dense kernel); forty visit it 13.7 times (the active index).
#[test]
fn binary_fit_events_shape_on_both_layouts() {
    let m = planted(2_051, 140, 0.05..0.75, 47);
    assert!(m.vote_density() < 0.5);
    for (steps, golden) in [
        (4, 0xa229_4826_90a3_4e77u64),
        (40, 0xc784_c0b9_7bf4_7662u64),
    ] {
        assert_eq!(steps * 700 >= 8 * m.num_examples(), steps == 40);
        for threads in [1, 4] {
            assert_eq!(
                binary_fit_checksum(&m, steps, 700, threads),
                golden,
                "{steps} steps, {threads} thread(s)"
            );
        }
    }
}

#[test]
fn binary_fit_incremental_three_shards() {
    let cfg = TrainConfig {
        steps: 10,
        batch_size: 256,
        ..TrainConfig::default()
    };
    let mut model = GenerativeModel::new(6, cfg.init_alpha);
    let mut state = model.begin_incremental(&cfg).unwrap();
    let mut fold_nlls = Vec::new();
    let shards: Vec<LabelMatrix> = (0..3).map(|k| planted(700, 6, 0.2..0.9, 50 + k)).collect();
    for (k, shard) in shards.iter().enumerate() {
        state.set_optimizer(Optimizer::adam(0.05 / (k + 1) as f64));
        fold_nlls.push(
            model
                .fit_incremental(shard, &cfg, &mut state)
                .unwrap()
                .final_nll,
        );
    }
    assert_eq!((state.steps(), state.rows()), (30, 30 * 256));
    let posteriors = shards.iter().flat_map(|s| model.predict_proba(s));
    let got = checksum(binary_params(&model).chain(posteriors).chain(fold_nlls));
    assert_eq!(got, 0x661b_9dc8_521b_ebde);
}

#[test]
fn class_conditional_fit() {
    let m = planted(1_500, 5, 0.3..0.8, 44);
    let mut model = ClassConditionalModel::new(5);
    let cfg = CcTrainConfig {
        steps: 120,
        batch_size: 128,
        class_prior: 0.4,
        seed: 5,
        ..CcTrainConfig::default()
    };
    let nll = model.fit(&m, &cfg).unwrap();
    let got = checksum(
        model
            .theta()
            .iter()
            .copied()
            .chain(model.predict_proba(&m))
            .chain([nll]),
    );
    assert_eq!(got, 0x748f_1648_47df_1115);
}

#[test]
fn gibbs_fit() {
    // 800 rows at batch 64 wrap the epoch mid-batch (step 13), so the
    // reshuffle lands between two examples' chain draws on the one RNG.
    let m = planted(800, 4, 0.5..0.9, 46);
    let mut trainer = GibbsTrainer::new(4);
    let cfg = GibbsConfig {
        steps: 60,
        burn_in: 2,
        samples: 4,
        class_prior: 0.4,
        seed: 7,
        ..GibbsConfig::default()
    };
    let report = trainer.fit(&m, &cfg).unwrap();
    let model = trainer.model();
    let got = checksum(
        binary_params(model)
            .chain(model.predict_proba(&m))
            .chain([report.final_nll]),
    );
    assert_eq!(got, 0x9bae_1fa4_fc25_b730);
}
