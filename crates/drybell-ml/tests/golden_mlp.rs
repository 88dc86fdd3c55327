//! Golden checksums for `Mlp::fit`.
//!
//! The trainer promises a fixed trajectory: the same RNG consumption and
//! the same floating-point operation order, hence the same weights, Adam
//! moments and scores for a seed. The constants below are the FNV-1a of
//! what `fit` produced at b2be6ef, **before** it was given buffers of its
//! own and an in-major copy of the weights; a change to how the step is
//! computed must leave them green. A deliberate change to the numerics
//! re-records them and says so.

// Miri perturbs `exp`/`ln` results by design, so bit patterns recorded on
// hardware cannot match under it.
#![cfg(not(miri))]

use drybell_ml::{Mlp, MlpConfig};
use drybell_obs::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INPUTS: usize = 16;

/// Seeded rows with soft labels: a noisy logistic of the even inputs.
fn soft_labelled(rows: usize, seed: u64) -> Vec<(Vec<f64>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let x: Vec<f64> = (0..INPUTS).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let signal: f64 = x.iter().step_by(2).sum::<f64>() + rng.gen_range(-0.5..0.5);
            (x, 1.0 / (1.0 + (-signal).exp()))
        })
        .collect()
}

/// FNV-1a of the exported network (weights and Adam moments, as the model
/// file carries them) and of the first 200 rows' scores.
fn checksums(net: &Mlp, data: &[(Vec<f64>, f64)]) -> (u64, u64) {
    let scores: Vec<u8> = data
        .iter()
        .take(200)
        .flat_map(|(x, _)| net.score(x).to_bits().to_le_bytes())
        .collect();
    (
        fnv1a64(net.to_json().to_line().as_bytes()),
        fnv1a64(&scores),
    )
}

#[test]
fn fit_and_resumed_fit() {
    // 300 × 64 draws over 1 000 rows: the epoch wraps mid-batch and
    // reshuffles nineteen times.
    let data = soft_labelled(1_000, 31);
    let mut net = Mlp::new(
        INPUTS,
        MlpConfig {
            hidden: vec![32, 16],
            iterations: 300,
            batch_size: 64,
            seed: 7,
            ..MlpConfig::default()
        },
    );
    net.fit(&data);
    assert_eq!(
        checksums(&net, &data),
        (0xcc26_62c9_4a93_7abd, 0x74b4_1f15_1962_7c51)
    );
    // A second `fit` on the same net resumes from the stored moments and
    // step count.
    net.fit(&data);
    assert_eq!(
        checksums(&net, &data),
        (0x9d56_80c8_372f_2acb, 0x04e7_8959_1b1b_dbe0)
    );
}
