//! Cross-thread determinism suite for the parallel label-model hot path.
//!
//! The contract (DESIGN.md §Parallel training): `fit`, `predict_proba`,
//! and `nll` are **byte-identical** at any `num_threads` because chunk
//! boundaries depend only on input length and partial results are
//! combined with a fixed-order tree reduction. These tests compare raw
//! `f64::to_bits` patterns — not epsilons — across thread counts, and a
//! property test pins the sparse (active-index) gradient path and the
//! dense kernel to each other, and the dense kernel's scores to the row
//! arithmetic written out, bit-for-bit.

use drybell_core::optim::Optimizer;
use drybell_core::{logsumexp2, sigmoid, CoreError, GenerativeModel, LabelMatrix, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Planted two-class matrix: per-LF accuracy and propensity drawn once,
/// rows sampled i.i.d. — the same generator the benches use.
fn planted(examples: usize, lfs: usize, seed: u64) -> LabelMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let accs: Vec<f64> = (0..lfs).map(|_| rng.gen_range(0.6..0.95)).collect();
    let props: Vec<f64> = (0..lfs).map(|_| rng.gen_range(0.3..0.9)).collect();
    let mut m = LabelMatrix::with_capacity(lfs, examples);
    for _ in 0..examples {
        let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
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

/// Exact bit patterns of a float slice, for byte-identity assertions.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// All learned parameters of a model as bit patterns.
fn param_bits(model: &GenerativeModel) -> (Vec<u64>, Vec<u64>, u64) {
    (
        bits(model.alphas()),
        bits(model.betas()),
        model.eta().to_bits(),
    )
}

fn fit_with_threads(m: &LabelMatrix, batch_size: usize, num_threads: usize) -> GenerativeModel {
    let mut model = GenerativeModel::new(m.num_lfs(), 0.7);
    model
        .fit(
            m,
            &TrainConfig {
                steps: 25,
                batch_size,
                num_threads,
                seed: 9,
                ..TrainConfig::default()
            },
        )
        .unwrap();
    model
}

#[test]
fn fit_is_byte_identical_across_thread_counts() {
    // Multi-chunk batches so the parallel gradient reduction actually
    // runs: 2048 rows are 2 chunks, and 8192 rows are 8, more chunks
    // than workers at 2 and 4 threads and one per worker at 8.
    let m = planted(10_000, 8, 42);
    for batch in [2_048, 8_192] {
        let baseline = param_bits(&fit_with_threads(&m, batch, 1));
        for threads in [2usize, 4, 8] {
            let got = param_bits(&fit_with_threads(&m, batch, threads));
            assert_eq!(
                got, baseline,
                "fit diverged at num_threads = {threads} (batch {batch})"
            );
        }
    }
}

#[test]
fn small_batches_stay_on_the_inline_path_and_agree() {
    // Batches below one chunk (64 < 1024) never spawn workers; results
    // must still match any requested width.
    let m = planted(3_000, 6, 7);
    let baseline = param_bits(&fit_with_threads(&m, 64, 1));
    for threads in [2usize, 8] {
        let got = param_bits(&fit_with_threads(&m, 64, threads));
        assert_eq!(got, baseline, "small-batch fit diverged at {threads}");
    }
}

#[test]
fn predict_proba_and_nll_are_byte_identical_across_thread_counts() {
    let m = planted(5_000, 8, 11);
    let model = fit_with_threads(&m, 1_024, 1);
    let base_posteriors = bits(&model.predict_proba_threads(&m, 1));
    let base_nll = model.nll_threads(&m, 1).unwrap().to_bits();
    for threads in [2usize, 4, 8] {
        assert_eq!(
            bits(&model.predict_proba_threads(&m, threads)),
            base_posteriors,
            "predict_proba diverged at num_threads = {threads}"
        );
        assert_eq!(
            model.nll_threads(&m, threads).unwrap().to_bits(),
            base_nll,
            "nll diverged at num_threads = {threads}"
        );
    }
    // The convenience single-thread entry points agree too.
    assert_eq!(bits(&model.predict_proba(&m)), base_posteriors);
    assert_eq!(model.nll(&m).unwrap().to_bits(), base_nll);
}

#[test]
fn thread_counts_beyond_chunk_count_are_harmless() {
    // 1500 rows = 2 chunks; asking for 64 workers must clamp, not hang
    // or diverge.
    let m = planted(1_500, 5, 3);
    let model = fit_with_threads(&m, 1_500, 1);
    assert_eq!(
        bits(&model.predict_proba_threads(&m, 64)),
        bits(&model.predict_proba_threads(&m, 1)),
    );
    let wide = param_bits(&fit_with_threads(&m, 1_500, 64));
    assert_eq!(wide, param_bits(&model));
}

/// The row arithmetic both layouts are held to, written out with nothing
/// shared with the code under test but `sigmoid`: a non-abstain cell adds
/// `λ·α_j` and `β_j` in column order, an abstain adds nothing.
fn reference_scores(model: &GenerativeModel, row: &[i8]) -> (f64, f64) {
    let (alpha, beta) = (model.alphas(), model.betas());
    let mut sum_z = 0.0;
    for (a, b) in alpha.iter().zip(beta) {
        sum_z += ((a + b).exp() + (-a + b).exp() + 1.0).ln();
    }
    let (mut margin, mut active_beta) = (0.0, 0.0);
    for (j, &l) in row.iter().enumerate() {
        if l != 0 {
            margin += f64::from(l) * alpha[j];
            active_beta += beta[j];
        }
    }
    let base = active_beta - sum_z;
    (
        sigmoid(model.eta()).ln() + margin + base,
        sigmoid(-model.eta()).ln() - margin + base,
    )
}

/// Bit patterns with every NaN folded into one: which NaN an operation on
/// two NaNs returns is the instruction's choice, not the program's.
fn bits_nan_folded(xs: &[f64]) -> Vec<u64> {
    xs.iter()
        .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
        .collect()
}

/// `predict_proba` and `nll` of the dense kernel against
/// [`reference_scores`], at 1 and 4 threads.
fn assert_scores_match_reference(model: &GenerativeModel, m: &LabelMatrix) {
    let scores: Vec<(f64, f64)> = m.rows().map(|row| reference_scores(model, row)).collect();
    let posteriors: Vec<f64> = scores.iter().map(|(sp, sm)| sigmoid(sp - sm)).collect();
    let nll = scores
        .iter()
        .map(|&(sp, sm)| -logsumexp2(sp, sm))
        .sum::<f64>()
        / m.num_examples() as f64;
    for threads in [1, 4] {
        assert_eq!(
            bits_nan_folded(&model.predict_proba_threads(m, threads)),
            bits_nan_folded(&posteriors),
            "predict_proba at {threads} thread(s)"
        );
        assert_eq!(
            bits_nan_folded(&[model.nll_threads(m, threads).unwrap()]),
            bits_nan_folded(&[nll]),
            "nll at {threads} thread(s)"
        );
    }
}

#[test]
fn abstaining_on_a_hostile_column_adds_nothing() {
    // Column 1 never votes; row 1 is all abstains.
    let votes = vec![1, 0, -1, 0, 0, 0, -1, 0, 1, 1, 0, 0, 0, 0, -1];
    let m = LabelMatrix::from_raw(3, votes).unwrap();
    let mut model = GenerativeModel::new(3, 0.7);
    // β = −∞ is an LF that never votes: e^{±α+β} = 0 and Z = 0, so every
    // score is finite — unless the abstain term is the product `0·β`,
    // which is NaN, rather than a literal zero.
    model.set_params(vec![0.4, 0.9, -0.3], vec![0.1, f64::NEG_INFINITY, 0.2], 0.3);
    let posteriors = model.predict_proba(&m);
    assert!(posteriors.iter().all(|p| p.is_finite()), "{posteriors:?}");
    assert_scores_match_reference(&model, &m);
    // The all-abstain row is scored by the prior alone.
    assert!((posteriors[1] - sigmoid(0.3)).abs() < 1e-12);
    // Parameters that make Z itself infinite or NaN leave no finite score
    // in any kernel; the kernels still have to agree on which is which.
    for (alpha, beta) in [
        (f64::INFINITY, 0.0),
        (f64::NEG_INFINITY, 0.0),
        (f64::NAN, 0.0),
        (0.5, f64::INFINITY),
        (0.5, f64::NAN),
    ] {
        model.set_params(vec![0.4, alpha, -0.3], vec![0.1, beta, 0.2], 0.3);
        assert_scores_match_reference(&model, &m);
        let dense = model.full_gradient_path(&m, 0.01, false, 1).unwrap();
        let active = model.full_gradient_path(&m, 0.01, true, 1).unwrap();
        assert_eq!(bits_nan_folded(&dense), bits_nan_folded(&active));
    }
}

#[test]
fn a_diverging_fit_fails_at_the_same_step_on_either_layout() {
    // A step size that throws the parameters to ±1e200 at step 0, which
    // overflows the normalizer at step 1 — recorded on the code before
    // the dense kernel, and the same on both sides of the layout rule.
    let m = planted(300, 6, 5);
    assert!(m.vote_density() >= 0.5);
    let sparse = LabelMatrix::from_raw(
        6,
        m.raw()
            .iter()
            .enumerate()
            .map(|(k, &v)| if k % 3 == 0 { v } else { 0 })
            .collect(),
    )
    .unwrap();
    assert!(sparse.vote_density() < 0.5);
    for (matrix, steps) in [(&m, 50), (&sparse, 4), (&sparse, 50)] {
        let mut model = GenerativeModel::new(6, 0.7);
        let err = model.fit(
            matrix,
            &TrainConfig {
                steps,
                batch_size: 64,
                optimizer: Optimizer::sgd(1e200),
                ..TrainConfig::default()
            },
        );
        assert_eq!(err.unwrap_err(), CoreError::Diverged { step: 1 });
        assert!(model.alphas().iter().all(|a| a.is_finite()));
    }
}

/// The LF counts the layout property runs at: below, at and above the
/// kernels' vector and block widths, and the events task's 140.
const WIDTHS: [usize; 5] = [1, 3, 5, 8, 140];

/// The active-index (sparse) gradient path adds the same non-abstain
/// terms in the same order as the dense kernel, whose abstain cells add
/// `+0.0`, so the two must agree bit-for-bit — on any matrix, dense or
/// abstention-heavy, at any width and thread count, and with every
/// remainder of the dense kernel's 4-row block (0 to 9 rows). Each of the
/// 50 (width, rows) pairs runs on one seeded matrix and parameter set.
#[test]
fn prop_active_and_dense_gradients_are_bitwise_equal() {
    let mut rng = StdRng::seed_from_u64(48);
    for (width, num_rows) in WIDTHS.iter().flat_map(|&w| (0..=9).map(move |r| (w, r))) {
        let cells = (0..width * num_rows)
            .map(|_| rng.gen_range(-1i8..=1))
            .collect();
        let m = LabelMatrix::from_raw(width, cells).unwrap();
        let alphas = (0..width).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let betas = (0..width).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let mut model = GenerativeModel::new(width, 0.7);
        model.set_params(alphas, betas, rng.gen_range(-1.0..1.0));
        let l2 = rng.gen_range(0.0..0.1);
        if num_rows == 0 {
            for use_active_index in [false, true] {
                assert_eq!(
                    model.full_gradient_path(&m, l2, use_active_index, 1),
                    Err(CoreError::EmptyMatrix)
                );
            }
            assert_eq!(model.nll(&m), Err(CoreError::EmptyMatrix));
            assert!(model.predict_proba(&m).is_empty());
            continue;
        }

        let dense = model.full_gradient_path(&m, l2, false, 1).unwrap();
        let active = model.full_gradient_path(&m, l2, true, 1).unwrap();
        assert_eq!(bits(&dense), bits(&active));

        // And both paths are thread-count invariant.
        let dense4 = model.full_gradient_path(&m, l2, false, 4).unwrap();
        let active4 = model.full_gradient_path(&m, l2, true, 4).unwrap();
        assert_eq!(bits(&dense), bits(&dense4));
        assert_eq!(bits(&active), bits(&active4));

        assert_scores_match_reference(&model, &m);
    }
}
