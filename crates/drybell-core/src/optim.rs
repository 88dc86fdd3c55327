//! First-order optimizers shared by the label-model trainers.
//!
//! The paper implements its sampling-free objective as a static TensorFlow
//! graph and lets TF's optimizers minimize it; here the gradients are
//! analytic and these small self-contained optimizers play TF's role.

/// Which update rule to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent with a fixed step size.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// SGD with classical momentum.
    Momentum {
        /// Learning rate.
        lr: f64,
        /// Momentum coefficient in `[0, 1)`.
        beta: f64,
    },
    /// Adam (Kingma & Ba) with the usual bias correction.
    Adam {
        /// Learning rate.
        lr: f64,
        /// Exponential decay for the first moment.
        beta1: f64,
        /// Exponential decay for the second moment.
        beta2: f64,
        /// Denominator fuzz factor.
        eps: f64,
    },
}

impl Optimizer {
    /// Adam with the standard defaults and the given learning rate.
    pub fn adam(lr: f64) -> Optimizer {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Plain SGD with the given learning rate.
    pub fn sgd(lr: f64) -> Optimizer {
        Optimizer::Sgd { lr }
    }
}

/// Mutable optimizer state for a flat parameter vector.
#[derive(Debug, Clone)]
pub struct OptimState {
    rule: Optimizer,
    /// First-moment / momentum buffer.
    m: Vec<f64>,
    /// Second-moment buffer (Adam only).
    v: Vec<f64>,
    /// Update count, for Adam bias correction.
    t: u64,
}

impl OptimState {
    /// Create state for `dim` parameters.
    pub fn new(rule: Optimizer, dim: usize) -> OptimState {
        OptimState {
            rule,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Apply one in-place update `params -= step(grad)`.
    ///
    /// Panics if `params` and `grad` are not the dimension given at
    /// construction.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter dimension changed");
        assert_eq!(params.len(), grad.len(), "gradient dimension mismatch");
        self.t += 1;
        match self.rule {
            Optimizer::Sgd { lr } => {
                for (p, g) in params.iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
            Optimizer::Momentum { lr, beta } => {
                for ((p, g), m) in params.iter_mut().zip(grad).zip(self.m.iter_mut()) {
                    *m = beta * *m + g;
                    *p -= lr * *m;
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                for (((p, g), m), v) in params
                    .iter_mut()
                    .zip(grad)
                    .zip(self.m.iter_mut())
                    .zip(self.v.iter_mut())
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *p -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Swap the update rule in place, keeping the accumulated moments
    /// and step count. The intended use is learning-rate scheduling on
    /// a long-lived state (streaming training decays the rate as data
    /// accumulates); Adam/momentum moments are step-size-independent
    /// statistics of the gradient, so they stay valid across the swap.
    pub(crate) fn set_rule(&mut self, rule: Optimizer) {
        self.rule = rule;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = (x - 3)^2, gradient 2(x - 3).
    fn quad_grad(x: f64) -> f64 {
        2.0 * (x - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut st = OptimState::new(Optimizer::sgd(0.1), 1);
        let mut p = [0.0];
        for _ in 0..200 {
            let g = [quad_grad(p[0])];
            st.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-6, "got {}", p[0]);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut st = OptimState::new(
            Optimizer::Momentum {
                lr: 0.05,
                beta: 0.8,
            },
            1,
        );
        let mut p = [0.0];
        for _ in 0..500 {
            let g = [quad_grad(p[0])];
            st.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-6, "got {}", p[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut st = OptimState::new(Optimizer::adam(0.1), 1);
        let mut p = [0.0];
        for _ in 0..2000 {
            let g = [quad_grad(p[0])];
            st.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-4, "got {}", p[0]);
    }

    #[test]
    fn step_counts() {
        let mut st = OptimState::new(Optimizer::sgd(0.1), 2);
        assert_eq!(st.steps(), 0);
        st.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(st.steps(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dimension_mismatch_panics() {
        let mut st = OptimState::new(Optimizer::sgd(0.1), 2);
        st.step(&mut [0.0], &[1.0]);
    }
}
