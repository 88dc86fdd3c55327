//! Noise-aware losses.
//!
//! With probabilistic training labels `Ỹ_i = P(Y_i = +1 | Λ_i)` from the
//! generative model, the discriminative model minimizes the *expected*
//! loss `E_{y∼Ỹ_i}[ℓ(h(x_i), y)]` (§2). For the logistic loss this is
//! simply cross-entropy against the soft target, whose gradient in the
//! score is the familiar `σ(s) − p`.

/// Stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + e^x)`, numerically stable.
#[cfg(test)]
fn softplus(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// Noise-aware logistic loss of a raw score `s` against a soft target
/// `p = P(y = +1)`:
///
/// `ℓ = p·log(1+e^{−s}) + (1−p)·log(1+e^{s})`, the oracle the gradient
/// checks hold [`noise_aware_logistic_grad`] and the trainers to.
#[cfg(test)]
pub(crate) fn noise_aware_logistic_loss(score: f64, target: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&target));
    target * softplus(-score) + (1.0 - target) * softplus(score)
}

/// Gradient of the noise-aware logistic loss in the score: `σ(s) − p`.
#[inline]
pub(crate) fn noise_aware_logistic_grad(score: f64, target: f64) -> f64 {
    sigmoid(score) - target
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_targets_reduce_to_plain_logistic() {
        let s = 0.7;
        // target 1 → log(1+e^{-s}); target 0 → log(1+e^{s}).
        assert!((noise_aware_logistic_loss(s, 1.0) - softplus(-s)).abs() < 1e-12);
        assert!((noise_aware_logistic_loss(s, 0.0) - softplus(s)).abs() < 1e-12);
    }

    #[test]
    fn loss_is_minimized_at_matching_probability() {
        // For target p, the loss over scores is minimized where σ(s) = p.
        let p: f64 = 0.3;
        let s_star = (p / (1.0 - p)).ln();
        let at_min = noise_aware_logistic_loss(s_star, p);
        for ds in [-0.5, -0.1, 0.1, 0.5] {
            assert!(noise_aware_logistic_loss(s_star + ds, p) > at_min);
        }
        assert!(noise_aware_logistic_grad(s_star, p).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let h = 1e-6;
        for (s, p) in [(0.0, 0.5), (2.0, 0.9), (-1.5, 0.2), (0.3, 0.0), (-0.2, 1.0)] {
            let fd = (noise_aware_logistic_loss(s + h, p) - noise_aware_logistic_loss(s - h, p))
                / (2.0 * h);
            assert!(
                (noise_aware_logistic_grad(s, p) - fd).abs() < 1e-6,
                "s={s} p={p}"
            );
        }
    }

    #[test]
    fn stability_at_extreme_scores() {
        assert!(noise_aware_logistic_loss(1000.0, 0.0).is_finite());
        assert!(noise_aware_logistic_loss(-1000.0, 1.0).is_finite());
        assert!(softplus(-800.0) >= 0.0);
        assert!((softplus(800.0) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn soft_target_interpolates() {
        let s = 1.2;
        let l0 = noise_aware_logistic_loss(s, 0.0);
        let l1 = noise_aware_logistic_loss(s, 1.0);
        let lh = noise_aware_logistic_loss(s, 0.25);
        assert!((lh - (0.25 * l1 + 0.75 * l0)).abs() < 1e-12);
    }
}
