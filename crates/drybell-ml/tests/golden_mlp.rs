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

/// Seeded rows `inputs` wide with soft labels: a noisy logistic of the
/// even inputs.
fn soft_labelled(rows: usize, inputs: usize, seed: u64) -> Vec<(Vec<f64>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let x: Vec<f64> = (0..inputs).map(|_| rng.gen_range(-2.0..2.0)).collect();
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
    let data = soft_labelled(1_000, INPUTS, 31);
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

/// Shapes the batch kernels' 8-wide tiles do not divide and batches their
/// pairing of examples does not, recorded at 80aef94 from the per-example
/// step those kernels replaced.
#[test]
fn remainder_shapes_and_batches() {
    struct Case {
        what: &'static str,
        inputs: usize,
        hidden: &'static [usize],
        batch_size: usize,
        rows: usize,
        iterations: usize,
        want: (u64, u64),
    }
    let cases = [
        Case {
            what: "narrower than a tile; the epoch wraps and reshuffles mid-batch",
            inputs: 7,
            hidden: &[5, 3],
            batch_size: 10,
            rows: 23,
            iterations: 60,
            want: (0x1741_9cbd_1dc6_c3d4, 0xdb2c_6c70_5c34_cba8),
        },
        Case {
            what: "full tiles and a remainder in every layer, an odd batch",
            inputs: 19,
            hidden: &[13, 9],
            batch_size: 7,
            rows: 50,
            iterations: 60,
            want: (0xd6c2_36f8_ce32_4b93, 0xf108_5bf8_1703_a27c),
        },
        Case {
            what: "a batch larger than the dataset is one epoch",
            inputs: 7,
            hidden: &[5, 3],
            batch_size: 64,
            rows: 23,
            iterations: 40,
            want: (0xd854_a9e7_9568_33d5, 0x5876_2560_ecc2_69de),
        },
        Case {
            what: "a batch of one",
            inputs: 7,
            hidden: &[5, 3],
            batch_size: 1,
            rows: 23,
            iterations: 100,
            want: (0x4ced_7110_f8f9_7640, 0x581d_7f7b_6023_81a0),
        },
        Case {
            what: "no hidden layer",
            inputs: 7,
            hidden: &[],
            batch_size: 10,
            rows: 23,
            iterations: 60,
            want: (0x8cae_4ec9_ef34_a28a, 0x5965_cbd2_7716_d359),
        },
    ];
    for case in cases {
        let data = soft_labelled(case.rows, case.inputs, 43);
        let mut net = Mlp::new(
            case.inputs,
            MlpConfig {
                hidden: case.hidden.to_vec(),
                iterations: case.iterations,
                batch_size: case.batch_size,
                seed: 5,
                ..MlpConfig::default()
            },
        );
        net.fit(&data);
        let got = checksums(&net, &data);
        assert_eq!(
            got, case.want,
            "{}: ({:#018x}, {:#018x})",
            case.what, got.0, got.1
        );
    }
}
