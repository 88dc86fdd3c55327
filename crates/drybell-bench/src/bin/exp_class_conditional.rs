//! Extension experiment: the class-conditional (MeTaL-style) label model
//! vs the paper's conditionally-independent model, on the LF structure
//! that separates them — a fully *unipolar* LF set over a rare class.
//!
//! §5.2's future-work paragraph suggests plugging richer matrix-style
//! models into the same sampling-free framework; this binary measures
//! what that buys. On bipolar LF sets the two families agree; on unipolar
//! sets the CI model's maximum marginal likelihood is the degenerate
//! "rare-class LFs are always wrong" solution, while the class-conditional
//! model (given the class balance, as MeTaL assumes) recovers the truth.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::{fit_label_model, label_model_config};
use drybell_core::class_conditional::{CcTrainConfig, ClassConditionalModel};
use drybell_core::LabelMatrix;
use drybell_ml::metrics::BinaryMetrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn unipolar_matrix(examples: usize, pos_rate: f64, seed: u64) -> (LabelMatrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix = LabelMatrix::with_capacity(6, examples);
    let mut gold = Vec::with_capacity(examples);
    for _ in 0..examples {
        let y = rng.gen_bool(pos_rate);
        let fire = |rng: &mut StdRng, tp: f64, fp: f64, y: bool| -> bool {
            if y {
                rng.gen_bool(tp)
            } else {
                rng.gen_bool(fp)
            }
        };
        let row = [
            i8::from(fire(&mut rng, 0.70, 0.005, y)),
            i8::from(fire(&mut rng, 0.50, 0.003, y)),
            i8::from(fire(&mut rng, 0.35, 0.002, y)),
            -i8::from(fire(&mut rng, 0.60, 0.02, !y)),
            -i8::from(fire(&mut rng, 0.45, 0.015, !y)),
            -i8::from(fire(&mut rng, 0.30, 0.01, !y)),
        ];
        matrix.push_raw_row(&row).expect("row");
        gold.push(y);
    }
    (matrix, gold)
}

fn report(name: &str, post: &[f64], gold: &[bool]) {
    let m = BinaryMetrics::at_threshold(post, gold, 0.5 + 1e-9);
    println!(
        "{name:<28} P={:.3} R={:.3} F1={:.3} (predicted positives: {})",
        m.precision(),
        m.recall(),
        m.f1(),
        m.predicted_positives()
    );
}

fn main() {
    let args = ExpArgs::parse();
    let examples = ((400_000.0 * args.scale) as usize).max(20_000);
    let pos_rate = 0.05;
    println!(
        "== class-conditional vs conditionally-independent (unipolar LFs, {} examples, {}% positive) ==\n",
        examples,
        pos_rate * 100.0
    );
    let (matrix, gold) = unipolar_matrix(examples, pos_rate, args.seed.unwrap_or(1));

    let (ci, _) = fit_label_model(&matrix, &label_model_config(0), None);
    report(
        "conditionally independent",
        &ci.predict_proba(&matrix),
        &gold,
    );

    let mut cc = ClassConditionalModel::new(6);
    cc.fit(
        &matrix,
        &CcTrainConfig {
            class_prior: pos_rate,
            ..CcTrainConfig::default()
        },
    )
    .expect("cc fit");
    report(
        "class-conditional (MeTaL)",
        &cc.predict_proba(&matrix),
        &gold,
    );

    println!("\nlearned vote tables (class-conditional), LF 0 (positive-only, 70%/0.5%):");
    let c = cc.confusion(0);
    println!(
        "  P(fire|+1) = {:.3}   P(fire|-1) = {:.3}",
        c[0][0], c[1][0]
    );
    println!("\nThe CI model ties both classes to one accuracy parameter, so a fully");
    println!("unipolar set admits the degenerate 'rare-class LFs are always wrong'");
    println!("optimum; the class-conditional family, given the class balance,");
    println!("recovers the planted firing rates. DryBell's applications avoid the");
    println!("degenerate case by including bipolar LFs (see README notes).");
}
