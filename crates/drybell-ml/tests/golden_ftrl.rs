//! Golden checksums for `LogisticRegression::fit`.
//!
//! The trainer promises a fixed trajectory: the same shuffled visit order
//! for a seed and the same floating-point operation order in each update,
//! hence the same `z`, `n`, `z_bias` and `n_bias` bits. The constants below
//! are the FNV-1a of what `fit` produced when it still read each visited
//! example in place, **before** a helper thread gathered the visits into
//! contiguous blocks; a change to how the visits reach the update must
//! leave them green. A deliberate change to the numerics re-records them
//! and says so.
//!
//! The fits are shaped around the gather blocks (at most 2 048 visits and
//! 65 536 entries each): each spans several blocks, ends part-way into
//! one, and wraps an epoch in the middle of one; the wide rows close
//! blocks on their entry budget rather than their visit count, and one row
//! alone is wider than a block. Every dataset holds an empty vector and
//! indices at or past `dims`, which the update skips.

// Miri perturbs `exp`/`ln` results by design, so bit patterns recorded on
// hardware cannot match under it.
#![cfg(not(miri))]

use drybell_features::SparseVector;
use drybell_ml::{FtrlConfig, LogisticRegression, LrAlgorithm};
use drybell_obs::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `rows` seeded examples, each of up to `nnz` indices below `index_bound`
/// (some of them at or past the model's `dims`) with values in `0..1`, and
/// soft targets; row 0 is empty.
fn rows(
    rows: usize,
    nnz: std::ops::Range<usize>,
    index_bound: u32,
    seed: u64,
) -> Vec<(SparseVector, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|row| {
            let len = if row == 0 {
                0
            } else {
                rng.gen_range(nnz.clone())
            };
            let pairs: Vec<(u32, f64)> = (0..len)
                .map(|_| (rng.gen_range(0..index_bound), rng.gen_range(0.0..1.0)))
                .collect();
            (SparseVector::from_pairs(pairs), rng.gen_range(0.0..1.0))
        })
        .collect()
}

/// FNV-1a of the bits of `z`, then `n`, then `z_bias` and `n_bias`, as the
/// exported model carries them.
fn checksum(model: &LogisticRegression) -> u64 {
    let json = model.to_json();
    let field = |name| json.get(name).expect("an exported field");
    let number = |x: &drybell_obs::Json| x.as_f64().expect("a number");
    let bytes: Vec<u8> = (field("z").items().iter().map(number))
        .chain(field("n").items().iter().map(number))
        .chain([number(field("z_bias")), number(field("n_bias"))])
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Fit a `dims`-wide model for `iterations × batch_size` visits under each
/// update rule, and return both checksums (FTRL-Proximal first).
fn fits(
    data: &[(SparseVector, f64)],
    dims: usize,
    iterations: usize,
    batch_size: usize,
    seed: u64,
) -> [u64; 2] {
    [LrAlgorithm::FtrlProximal, LrAlgorithm::Sgd].map(|algorithm| {
        let mut model = LogisticRegression::new(
            dims,
            FtrlConfig {
                iterations,
                batch_size,
                seed,
                algorithm,
                alpha: if algorithm == LrAlgorithm::Sgd {
                    0.05
                } else {
                    0.2
                },
                ..FtrlConfig::default()
            },
        );
        model.fit(data).expect("non-empty data");
        checksum(&model)
    })
}

#[test]
fn narrow_rows_span_blocks_by_visit_count() {
    // 151 × 64 = 9 664 visits over 3 000 rows: four full blocks of 2 048
    // visits and a fifth of 1 472; the epoch wraps at visits 3 000, 6 000
    // and 9 000, inside the second, third and fifth blocks.
    let data = rows(3_000, 1..40, 1_100, 5);
    assert_eq!(data[0].0.nnz(), 0);
    assert_eq!(
        fits(&data, 1_024, 151, 64, 11),
        [0xe5b7_9dd7_1848_6847, 0xa03f_2e81_73b4_f604]
    );
}

#[test]
fn wide_rows_span_blocks_by_entry_count() {
    // 100 to 199 entries a row, so a block fills its 65 536 entries after
    // 400-odd visits; 47 × 50 = 2 350 visits over 700 rows, wrapping the
    // epoch three times. Row 1 alone holds more entries than a block.
    let mut data = rows(700, 100..200, 1 << 17, 23);
    data[1].0 = SparseVector::from_pairs((0..70_000u32).map(|i| (i * 2, 0.01)).collect());
    assert!(data[1].0.nnz() > 65_536);
    assert_eq!(
        fits(&data, 1 << 16, 47, 50, 3),
        [0x9266_f7ac_9228_6071, 0x91e7_cb84_d8c6_b144]
    );
}

#[test]
fn a_fit_inside_one_block_and_a_resumed_fit() {
    // 7 × 9 = 63 visits over 40 rows: one partial block and one wrap; the
    // second fit on the same model starts the visit order over and adds to
    // the state the first one left.
    let data = rows(40, 0..12, 70, 29);
    let mut model = LogisticRegression::new(
        64,
        FtrlConfig {
            iterations: 7,
            batch_size: 9,
            seed: 2,
            ..FtrlConfig::default()
        },
    );
    model.fit(&data).expect("non-empty data");
    let first = checksum(&model);
    model.fit(&data).expect("non-empty data");
    assert_eq!(
        (first, checksum(&model)),
        (0x25b8_678e_4e55_2997, 0xe441_9cff_1086_abe2)
    );
}
