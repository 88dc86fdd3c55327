//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the label model, the codec'd document types, and the
//! vote-matrix algebra. Each runs over a seeded stream of inputs, over a
//! whole small domain, or both: `m` labeling functions vote in only
//! `3^m` ways, so for small `m` every vote pattern is checked.

use drybell::core::generative::{GenerativeModel, TrainConfig};
use drybell::core::{CoreError, LabelMatrix, Vote};
use drybell::dataflow::codec::{decode_record, encode_record};
use drybell::lf::executor::VoteRow;
use drybell_datagen::{product::ProductDoc, topic::TopicDoc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases each seeded property runs.
const CASES: usize = 24;

/// A matrix of `lfs` columns and 1 to `max_rows - 1` uniformly drawn rows.
fn random_matrix(rng: &mut StdRng, max_rows: usize, lfs: usize) -> LabelMatrix {
    let rows = rng.gen_range(1..max_rows);
    let cells = (0..rows * lfs).map(|_| rng.gen_range(-1i8..=1)).collect();
    LabelMatrix::from_raw(lfs, cells).unwrap()
}

/// Every one of the `3^lfs` vote rows, once each.
fn all_rows(lfs: usize) -> LabelMatrix {
    let rows = 3usize.pow(lfs as u32);
    let cells = (0..rows)
        .flat_map(|r| (0..lfs).map(move |j| (r / 3usize.pow(j as u32) % 3) as i8 - 1))
        .collect();
    LabelMatrix::from_raw(lfs, cells).unwrap()
}

/// A string of at most `max` characters drawn the way a `.` pattern is:
/// mostly printable ASCII, with control and multi-byte characters mixed
/// in.
fn any_text(rng: &mut StdRng, max: usize) -> String {
    const WIDE: [char; 8] = ['é', 'ß', 'Ω', '雪', 'д', '☃', '😀', char::MAX];
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| match rng.gen_range(0..10) {
            0 => char::from(rng.gen_range(0..0x20u8)),
            1 | 2 => WIDE[rng.gen_range(0..WIDE.len())],
            _ => char::from(rng.gen_range(0x20..0x7Fu8)),
        })
        .collect()
}

/// `len_lo..=len_hi` characters drawn from `alphabet`.
fn text_from(rng: &mut StdRng, alphabet: &[u8], len_lo: usize, len_hi: usize) -> String {
    (0..rng.gen_range(len_lo..=len_hi))
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

/// A score in `[0, 1]` that lands on either end one time in 32.
fn unit_score(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen(),
    }
}

/// Posteriors are probabilities, and the model's NLL is non-negative
/// (it is a negative log of a discrete probability): on seeded matrices
/// of four LFs, and on every vote pattern of one to four LFs.
#[test]
fn label_model_outputs_are_well_formed() {
    let mut rng = StdRng::seed_from_u64(1);
    let seeded = (0..CASES).map(|_| random_matrix(&mut rng, 60, 4));
    for m in seeded.chain((1..=4).map(all_rows)) {
        let mut model = GenerativeModel::new(m.num_lfs(), 0.7);
        let cfg = TrainConfig {
            steps: 60,
            batch_size: 16,
            ..TrainConfig::default()
        };
        model.fit(&m, &cfg).unwrap();
        let nll = model.nll(&m).unwrap();
        assert!(nll >= -1e-9, "NLL {nll} must be non-negative");
        for p in model.predict_proba(&m) {
            assert!((0.0..=1.0).contains(&p));
        }
        for a in model.learned_accuracies() {
            assert!((0.0..=1.0).contains(&a));
        }
        for pr in model.learned_propensities() {
            assert!((0.0..=1.0).contains(&pr));
        }
    }
}

/// Flipping every vote in the matrix flips the posterior around 0.5
/// for a model with a uniform prior and re-fit parameters: the label
/// semantics are symmetric. On seeded matrices of three LFs, and on every
/// vote pattern of one to four LFs.
#[test]
fn posterior_is_label_symmetric() {
    let mut rng = StdRng::seed_from_u64(2);
    let seeded = (0..CASES).map(|_| random_matrix(&mut rng, 50, 3));
    for m in seeded.chain((1..=4).map(all_rows)) {
        let mut model = GenerativeModel::new(m.num_lfs(), 0.7);
        let cfg = TrainConfig {
            steps: 120,
            batch_size: 16,
            ..TrainConfig::default()
        };
        model.fit(&m, &cfg).unwrap();
        // The *same parameters* applied to flipped votes must mirror the
        // posterior (per-row flip symmetry of the CI model).
        for row in m.rows() {
            let flipped: Vec<i8> = row.iter().map(|&v| -v).collect();
            let p = model.posterior(row);
            let q = model.posterior(&flipped);
            assert!((p + q - 1.0).abs() < 1e-9, "{p} + {q} != 1");
        }
    }
}

/// The law the conditionally independent model is built on: a vote of
/// `λ ∈ {−1, +1}` from LF `j` where it abstained moves the posterior
/// log-odds by exactly `2·λ·α_j`, whatever the other votes, `β` and the
/// prior. So the posterior never moves against the sign of `λ·α_j`. Checked
/// on every vote pattern of one to five LFs, on a grid of parameters that
/// gives each LF every accuracy, positive, zero and negative.
#[test]
fn a_vote_moves_the_log_odds_by_twice_its_accuracy() {
    const ALPHAS: [f64; 5] = [-1.5, -0.3, 0.0, 0.4, 2.0];
    const BETAS: [f64; 3] = [-1.0, 0.0, 1.2];
    const ETAS: [f64; 3] = [-2.0, 0.0, 0.7];
    // With `α_j = 0` the two posteriors are equal but for the rounding of
    // `β_j`, which the kernel adds to both class scores.
    const ROUNDING: f64 = 1e-15;
    let logit = |p: f64| (p / (1.0 - p)).ln();
    // Near 0 or 1, `1 − p` keeps too few digits for a 1e-9 comparison.
    let saturated = |p: f64| p.min(1.0 - p) < 1e-6;
    for lfs in 1..=5 {
        let patterns = all_rows(lfs);
        for (a, b, eta) in (0..ALPHAS.len())
            .flat_map(|a| (0..BETAS.len()).map(move |b| (a, b)))
            .flat_map(|(a, b)| ETAS.map(|eta| (a, b, eta)))
        {
            let alphas: Vec<f64> = (0..lfs).map(|j| ALPHAS[(a + j) % ALPHAS.len()]).collect();
            let betas = (0..lfs).map(|j| BETAS[(b + j) % BETAS.len()]).collect();
            let mut model = GenerativeModel::new(lfs, 0.0);
            model.set_params(alphas.clone(), betas, eta);
            for row in patterns.rows() {
                let p = model.posterior(row);
                for j in (0..lfs).filter(|&j| row[j] == 0) {
                    for vote in [1i8, -1] {
                        let mut voted = row.to_vec();
                        voted[j] = vote;
                        let q = model.posterior(&voted);
                        let pull = f64::from(vote) * alphas[j];
                        let case = format!("row {row:?}, LF {j} votes {vote}, α {alphas:?}");
                        if pull >= 0.0 {
                            assert!(q >= p - ROUNDING, "posterior fell {p} → {q}: {case}");
                        }
                        if pull <= 0.0 {
                            assert!(q <= p + ROUNDING, "posterior rose {p} → {q}: {case}");
                        }
                        if !saturated(p) && !saturated(q) {
                            let moved = logit(q) - logit(p);
                            assert!(
                                (moved - 2.0 * pull).abs() < 1e-9,
                                "log-odds moved {moved}, not {}: {case}",
                                2.0 * pull
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Column selection preserves the votes of the kept columns exactly: every
/// one of the 32 keep masks over five LFs, on every vote pattern. Keeping
/// no column is refused, as a matrix of no columns has no rows.
#[test]
fn select_columns_is_a_projection() {
    let m = all_rows(5);
    assert_eq!(
        m.select_columns(&[false; 5]),
        Err(CoreError::ZeroLabelingFunctions)
    );
    for mask in 1..32u32 {
        let keep: Vec<bool> = (0..5).map(|j| mask >> j & 1 == 1).collect();
        let sub = m.select_columns(&keep).unwrap();
        let kept: Vec<usize> = (0..5).filter(|&j| keep[j]).collect();
        assert_eq!(sub.num_lfs(), kept.len());
        assert_eq!(sub.num_examples(), m.num_examples());
        for (i, row) in sub.rows().enumerate() {
            for (jj, &j) in kept.iter().enumerate() {
                assert_eq!(row[jj], m.get(i, j));
            }
        }
    }
}

/// Application document types survive the shard codec bit-exactly.
#[test]
fn topic_doc_codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let doc = TopicDoc {
            id: rng.gen(),
            title: any_text(&mut rng, 50),
            body: any_text(&mut rng, 200),
            url: text_from(&mut rng, b"abcdefghijklmnopqrstuvwxyz./:", 0, 40),
            related_model_score: unit_score(&mut rng),
        };
        let back: TopicDoc = decode_record(&encode_record(&doc)).unwrap();
        assert_eq!(back, doc);
    }
}

#[test]
fn product_doc_codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let doc = ProductDoc {
            id: rng.gen(),
            text: any_text(&mut rng, 200),
            lang: text_from(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 2, 2),
            legacy_score: unit_score(&mut rng),
        };
        let back: ProductDoc = decode_record(&encode_record(&doc)).unwrap();
        assert_eq!(back, doc);
    }
}

#[test]
fn vote_row_codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let row = VoteRow {
            id: rng.gen(),
            votes: (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(-1i8..=1))
                .collect(),
        };
        let back: VoteRow = decode_record(&encode_record(&row)).unwrap();
        assert_eq!(back, row);
    }
}

/// Exactly the three vote values decode, each round-trips, and flipping
/// is an involution that negates it: every `i8`.
#[test]
fn vote_algebra() {
    for v in i8::MIN..=i8::MAX {
        let Some(vote) = Vote::from_i8(v) else {
            assert!(!(-1..=1).contains(&v), "{v} must decode");
            continue;
        };
        assert!((-1..=1).contains(&v), "{v} must not decode");
        assert_eq!(vote.as_i8(), v);
        assert_eq!(vote.flipped().flipped(), vote);
        assert_eq!(vote.flipped().as_i8(), -v);
    }
}
