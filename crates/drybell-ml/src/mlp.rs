//! A small feed-forward network (the "DNN" of the real-time events task).
//!
//! §6.4 trains "a deep neural network over the servable features" from the
//! probabilistic labels. This is a dense-input MLP with ReLU hidden layers
//! and a single sigmoid output, trained with Adam on the noise-aware
//! logistic loss. Implemented from scratch (manual backprop) because the
//! reproduction environment has no deep-learning framework — and none is
//! needed at this scale.

use crate::error::MlError;
use crate::export::{array, field, finite, finite_vec, floats, size};
use crate::loss::{noise_aware_logistic_grad, sigmoid};
use drybell_obs::Json;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Network and training hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. `[32, 16]`.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f64,
    /// Number of mini-batch steps.
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub l2: f64,
    /// Seed for init and batch order.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> MlpConfig {
        MlpConfig {
            hidden: vec![32, 16],
            lr: 1e-2,
            iterations: 2000,
            batch_size: 64,
            l2: 1e-5,
            seed: 0,
        }
    }
}

impl MlpConfig {
    /// The configuration as an exported model file carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "hidden",
                Json::Arr(self.hidden.iter().map(|&h| Json::from(h)).collect()),
            ),
            ("lr", Json::Num(self.lr)),
            ("iterations", Json::from(self.iterations)),
            ("batch_size", Json::from(self.batch_size)),
            ("l2", Json::Num(self.l2)),
            ("seed", Json::from(self.seed)),
        ])
    }

    /// Read a configuration back from [`MlpConfig::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<MlpConfig, String> {
        Ok(MlpConfig {
            hidden: field(v, "hidden", |h| array(h)?.iter().map(size).collect())?,
            lr: field(v, "lr", finite)?,
            iterations: field(v, "iterations", size)?,
            // `fit` divides the batch's gradient by its size.
            batch_size: field(v, "batch_size", |b| size(b).filter(|&b| b > 0))?,
            l2: field(v, "l2", finite)?,
            seed: field(v, "seed", Json::as_u64)?,
        })
    }
}

/// One dense layer's parameters and Adam state.
#[derive(Debug, Clone)]
struct Layer {
    /// Row-major `out × in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Layer {
        // He initialization for ReLU nets.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("w", floats(&self.w)),
            ("b", floats(&self.b)),
            ("n_in", Json::from(self.n_in)),
            ("n_out", Json::from(self.n_out)),
            ("mw", floats(&self.mw)),
            ("vw", floats(&self.vw)),
            ("mb", floats(&self.mb)),
            ("vb", floats(&self.vb)),
        ])
    }

    /// `forward` slices `w` by `n_in` and indexes `b` by `n_out`, and
    /// `fit` walks the Adam moments in step with them, so every length
    /// is checked against the declared shape here.
    fn from_json(v: &Json) -> Result<Layer, String> {
        let layer = Layer {
            w: field(v, "w", finite_vec)?,
            b: field(v, "b", finite_vec)?,
            n_in: field(v, "n_in", size)?,
            n_out: field(v, "n_out", size)?,
            mw: field(v, "mw", finite_vec)?,
            vw: field(v, "vw", finite_vec)?,
            mb: field(v, "mb", finite_vec)?,
            vb: field(v, "vb", finite_vec)?,
        };
        let weights = layer.n_in.checked_mul(layer.n_out);
        let shaped = [&layer.w, &layer.mw, &layer.vw]
            .iter()
            .all(|m| Some(m.len()) == weights)
            && [&layer.b, &layer.mb, &layer.vb]
                .iter()
                .all(|m| m.len() == layer.n_out);
        if !shaped {
            return Err(format!(
                "a {}x{} layer's weights, biases or moments have the wrong length",
                layer.n_out, layer.n_in
            ));
        }
        Ok(layer)
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.n_out);
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let mut s = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                s += wi * xi;
            }
            out.push(s);
        }
    }
}

/// The rows of a row-major matrix `width` wide. A layer next to a hidden
/// layer of width 0 has no weights, and so no rows, rather than rows of
/// no width (which `chunks_exact` refuses to count).
fn rows(matrix: &[f64], width: usize) -> std::slice::ChunksExact<'_, f64> {
    matrix.chunks_exact(width.max(1))
}

/// [`rows`], mutably.
fn rows_mut(matrix: &mut [f64], width: usize) -> std::slice::ChunksExactMut<'_, f64> {
    matrix.chunks_exact_mut(width.max(1))
}

/// Columns an [`add_product`] tile spans: eight sums a row, two rows a
/// tile, is what sixteen two-lane registers hold.
const TILE: usize = 8;

/// `out[r][c] += Σ_k lhs(r, k) · m[k][c]` over row-major `out` and `m`,
/// both `width` wide. Each sum starts from what `out` holds and takes `k`
/// ascending, one rounded multiply and one rounded add a term — the
/// operations, in the order, of a loop that visits `k` outermost and adds
/// into `out` in memory — but it runs a tile at a time with the tile's
/// sums in local arrays, so they stay in registers across `k` and each
/// load of `m` serves two rows. Columns past the last whole tile are
/// summed one at a time.
fn add_product(out: &mut [f64], width: usize, lhs: impl Fn(usize, usize) -> f64, m: &[f64]) {
    if width == 0 {
        return;
    }
    let height = out.len() / width;
    let tiled = width - width % TILE;
    for c in (0..tiled).step_by(TILE) {
        for r in (0..height - height % 2).step_by(2) {
            add_product_tile(out, width, ([r, r + 1], c), &lhs, m);
        }
        if height % 2 == 1 {
            add_product_tile(out, width, ([height - 1], c), &lhs, m);
        }
    }
    for (r, row) in rows_mut(out, width).enumerate() {
        for (c, sum) in row.iter_mut().enumerate().skip(tiled) {
            for (k, m_row) in rows(m, width).enumerate() {
                *sum += lhs(r, k) * m_row[c];
            }
        }
    }
}

/// The tile of [`add_product`] over rows `rs` and columns `c..c + TILE`.
fn add_product_tile<const ROWS: usize>(
    out: &mut [f64],
    width: usize,
    (rs, c): ([usize; ROWS], usize),
    lhs: &impl Fn(usize, usize) -> f64,
    m: &[f64],
) {
    let mut sums = [[0.0; TILE]; ROWS];
    for (sums, r) in sums.iter_mut().zip(rs) {
        sums.copy_from_slice(&out[r * width + c..][..TILE]);
    }
    for (k, m_row) in rows(m, width).enumerate() {
        let m_tile = &m_row[c..c + TILE];
        for (sums, r) in sums.iter_mut().zip(rs) {
            let a = lhs(r, k);
            for (sum, &w) in sums.iter_mut().zip(m_tile) {
                *sum += a * w;
            }
        }
    }
    for (sums, r) in sums.iter().zip(rs) {
        out[r * width + c..][..TILE].copy_from_slice(sums);
    }
}

/// [`Mlp::fit`]'s working memory, shaped by the layers and the batch once
/// so that a step allocates nothing. `wt`, `acts`, `deltas` and `grads`
/// have one entry per layer; a per-example entry is row-major, one row an
/// example of the batch.
struct FitBuffers {
    /// The weights in-major (`in × out`), copied from the stored out-major
    /// `w` once a step: as [`add_product`]'s `m` they let the forward pass
    /// add input `i`'s contribution to a tile of outputs at once while
    /// each output still sums `b + Σ_i w·x` for `i` ascending, as
    /// [`Layer::forward`] does.
    wt: Vec<Vec<f64>>,
    /// The batch's examples, gathered from the dataset in visiting order.
    inputs: Vec<f64>,
    /// Their soft targets.
    targets: Vec<f64>,
    /// The layer's output for each example, after its activation.
    acts: Vec<Vec<f64>>,
    /// The loss gradient at the layer's output for each example.
    deltas: Vec<Vec<f64>>,
    /// The batch's summed `(∂w, ∂b)`, shaped like the layer's `w` and `b`.
    grads: Vec<(Vec<f64>, Vec<f64>)>,
}

impl FitBuffers {
    fn new(layers: &[Layer], batch: usize) -> FitBuffers {
        let per_example =
            || -> Vec<Vec<f64>> { layers.iter().map(|l| vec![0.0; batch * l.n_out]).collect() };
        FitBuffers {
            wt: layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            inputs: vec![0.0; batch * layers.first().map_or(0, |l| l.n_in)],
            targets: vec![0.0; batch],
            acts: per_example(),
            deltas: per_example(),
            grads: layers
                .iter()
                .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                .collect(),
        }
    }

    /// Start a step: zero the batch gradient and take the layers' current
    /// weights.
    fn begin_step(&mut self, layers: &[Layer]) {
        for (gw, gb) in &mut self.grads {
            gw.fill(0.0);
            gb.fill(0.0);
        }
        for (wt, layer) in self.wt.iter_mut().zip(layers) {
            for (o, row) in rows(&layer.w, layer.n_in).enumerate() {
                for (column, &w) in rows_mut(wt, layer.n_out).zip(row) {
                    column[o] = w;
                }
            }
        }
    }
}

/// Reusable forward-pass buffers for allocation-free scoring via
/// [`Mlp::try_predict_proba`]. Create one per scoring thread/handle; the
/// buffers grow to the widest layer on first use and are reused after.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// Widths at the layer boundaries: the input, each hidden layer, one
/// output. Layer `i` maps width `i` to width `i + 1`.
fn widths(input_dim: usize, hidden: &[usize]) -> Vec<usize> {
    let mut dims = vec![input_dim];
    dims.extend_from_slice(hidden);
    dims.push(1);
    dims
}

/// The multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    cfg: MlpConfig,
    input_dim: usize,
    adam_t: u64,
}

impl Mlp {
    /// Create an untrained network for `input_dim` dense features.
    pub fn new(input_dim: usize, cfg: MlpConfig) -> Mlp {
        assert!(input_dim > 0, "input dimension must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layers = widths(input_dim, &cfg.hidden)
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            cfg,
            input_dim,
            adam_t: 0,
        }
    }

    /// The whole network, Adam state included, as an exported model
    /// file carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "layers",
                Json::Arr(self.layers.iter().map(Layer::to_json).collect()),
            ),
            ("cfg", self.cfg.to_json()),
            ("input_dim", Json::from(self.input_dim)),
            ("adam_t", Json::from(self.adam_t)),
        ])
    }

    /// Read a network back from [`Mlp::to_json`]'s form. The layers must
    /// have the widths [`Mlp::new`] would give them (`input_dim`, then
    /// `cfg.hidden`, then one output), so each layer's input is the
    /// previous layer's output and scoring cannot index out of range.
    pub fn from_json(v: &Json) -> Result<Mlp, String> {
        let net = Mlp {
            layers: field(v, "layers", array)?
                .iter()
                .map(Layer::from_json)
                .collect::<Result<_, _>>()?,
            cfg: field(v, "cfg", Some).and_then(MlpConfig::from_json)?,
            input_dim: field(v, "input_dim", size)?,
            adam_t: field(v, "adam_t", Json::as_u64)?,
        };
        let dims = widths(net.input_dim, &net.cfg.hidden);
        let chained = net.input_dim > 0
            && net.layers.len() + 1 == dims.len()
            && net
                .layers
                .iter()
                .zip(dims.windows(2))
                .all(|(layer, shape)| shape == [layer.n_in, layer.n_out]);
        if !chained {
            return Err(format!(
                "layers do not chain from input_dim {} through hidden {:?} to one output",
                net.input_dim, net.cfg.hidden
            ));
        }
        Ok(net)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Raw pre-sigmoid score. Panics on an input-width mismatch and
    /// allocates fresh buffers per call; serving-path callers that need
    /// neither should use [`Mlp::try_predict_proba`] with a reused
    /// [`MlpScratch`].
    pub fn score(&self, x: &[f64]) -> f64 {
        let mut scratch = MlpScratch::default();
        match self.try_score_into(x, &mut scratch) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// The raw pre-sigmoid score behind [`Mlp::try_predict_proba`].
    pub(crate) fn try_score_into(
        &self,
        x: &[f64],
        scratch: &mut MlpScratch,
    ) -> Result<f64, MlError> {
        if x.len() != self.input_dim {
            return Err(MlError::DimensionMismatch {
                expected: self.input_dim,
                got: x.len(),
            });
        }
        // The buffers trade places once a layer, so with an odd number of
        // layers each holds the input on every other call: size both to
        // the widest boundary now, or the second call grows one.
        let widest = self
            .layers
            .iter()
            .map(|l| l.n_out)
            .fold(x.len(), usize::max);
        scratch.next.clear();
        scratch.next.reserve(widest);
        scratch.cur.clear();
        scratch.cur.reserve(widest);
        scratch.cur.extend_from_slice(x);
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&scratch.cur, &mut scratch.next);
            if li + 1 < self.layers.len() {
                for v in scratch.next.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        // Construction pins the output layer at width 1.
        Ok(scratch.cur.first().copied().unwrap_or(0.0))
    }

    /// Predicted `P(y = +1 | x)`.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.score(x))
    }

    /// Predicted `P(y = +1 | x)` without panicking or allocating: the
    /// forward pass runs entirely in `scratch`'s buffers (which size
    /// themselves on first use and are reused afterwards), and a wrong
    /// input width is a typed [`MlError::DimensionMismatch`] instead of
    /// an assert. This is the serving hot path's entry point.
    pub fn try_predict_proba(&self, x: &[f64], scratch: &mut MlpScratch) -> Result<f64, MlError> {
        Ok(sigmoid(self.try_score_into(x, scratch)?))
    }

    /// Mean noise-aware loss over a dataset.
    #[cfg(test)]
    fn mean_loss(&self, data: &[(Vec<f64>, f64)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter()
            .map(|(x, p)| crate::loss::noise_aware_logistic_loss(self.score(x), *p))
            .sum::<f64>()
            / data.len() as f64
    }

    /// One mini-batch's step over the examples gathered in
    /// `buffers.inputs`: a forward pass keeping each layer's outputs in
    /// `buffers.acts`, then backprop adding the batch's gradient, example
    /// by example in batch order, to `buffers.grads`. `buffers.wt` holds
    /// the current weights.
    fn batch_step(&self, buffers: &mut FitBuffers) {
        let FitBuffers {
            wt,
            inputs,
            targets,
            acts,
            deltas,
            grads,
        } = buffers;
        let last = self.layers.len() - 1;
        for (li, (layer, wt)) in self.layers.iter().zip(&*wt).enumerate() {
            let (before, from) = acts.split_at_mut(li);
            let input = before.last().unwrap_or(inputs);
            let out = &mut from[0];
            for row in rows_mut(out, layer.n_out) {
                row.copy_from_slice(&layer.b);
            }
            let x = |b: usize, i: usize| input[b * layer.n_in + i];
            add_product(out, layer.n_out, x, wt);
            if li < last {
                for v in out.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
        }
        // Construction pins the output layer at width 1.
        for ((d, &score), &target) in deltas[last].iter_mut().zip(&acts[last]).zip(&*targets) {
            *d = noise_aware_logistic_grad(score, target);
        }
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input = if li == 0 { &*inputs } else { &acts[li - 1] };
            let (before, from) = deltas.split_at_mut(li);
            let delta = &from[0];
            let (gw, gb) = &mut grads[li];
            for row in rows(delta, layer.n_out) {
                for (g, &d) in gb.iter_mut().zip(row) {
                    *g += d;
                }
            }
            let d = |b: usize, o: usize| delta[b * layer.n_out + o];
            add_product(gw, layer.n_in, |o, b| d(b, o), input);
            if let Some(prev) = before.last_mut() {
                // Propagate through weights and the ReLU of the previous
                // layer (derivative 1 where the activation is positive).
                prev.fill(0.0);
                add_product(prev, layer.n_in, d, &layer.w);
                for (p, &a) in prev.iter_mut().zip(input) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
            }
        }
    }

    /// Train on `(dense features, soft target)` pairs with Adam.
    ///
    /// Panics if `data` is empty, the configured batch size is zero, or
    /// any input has the wrong dimension.
    pub fn fit(&mut self, data: &[(Vec<f64>, f64)]) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(self.cfg.batch_size > 0, "batch size must be positive");
        for (x, _) in data {
            assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut rng);
        let mut cursor = 0usize;
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bsz = self.cfg.batch_size.min(data.len());
        let mut buffers = FitBuffers::new(&self.layers, bsz);
        for _ in 0..self.cfg.iterations {
            buffers.begin_step(&self.layers);
            let gathered = rows_mut(&mut buffers.inputs, self.input_dim);
            for (row, target) in gathered.zip(&mut buffers.targets) {
                if cursor == order.len() {
                    order.shuffle(&mut rng);
                    cursor = 0;
                }
                let (x, p) = &data[order[cursor]];
                cursor += 1;
                row.copy_from_slice(x);
                *target = *p;
            }
            self.batch_step(&mut buffers);
            self.adam_t += 1;
            // `powi` takes an `i32`; a later step saturates, and by then the
            // power has long been 0, its limit.
            let t = i32::try_from(self.adam_t).unwrap_or(i32::MAX);
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            let scale = 1.0 / bsz as f64;
            let (lr, l2) = (self.cfg.lr, self.cfg.l2);
            let adam = |p: &mut f64, m: &mut f64, v: &mut f64, g: f64| {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *p -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
            };
            for (layer, (gw, gb)) in self.layers.iter_mut().zip(&buffers.grads) {
                let moments = layer.mw.iter_mut().zip(&mut layer.vw);
                for ((w, (m, v)), &g) in layer.w.iter_mut().zip(moments).zip(gw) {
                    adam(w, m, v, g * scale + l2 * *w);
                }
                let moments = layer.mb.iter_mut().zip(&mut layer.vb);
                for ((b, (m, v)), &g) in layer.b.iter_mut().zip(moments).zip(gb) {
                    adam(b, m, v, g * scale);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::noise_aware_logistic_loss;

    #[test]
    fn learns_xor() {
        // The classic non-linear task a linear model cannot solve.
        let data: Vec<(Vec<f64>, f64)> = vec![
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 1.0),
            (vec![1.0, 1.0], 0.0),
        ];
        let mut net = Mlp::new(
            2,
            MlpConfig {
                hidden: vec![8],
                iterations: 3000,
                lr: 0.02,
                batch_size: 4,
                seed: 2,
                ..MlpConfig::default()
            },
        );
        net.fit(&data);
        for (x, y) in &data {
            let p = net.predict_proba(x);
            assert!(
                (p - y).abs() < 0.2,
                "XOR({:?}) predicted {p:.3}, want {y}",
                x
            );
        }
    }

    #[test]
    fn soft_targets_calibrate() {
        let data: Vec<(Vec<f64>, f64)> = (0..200).map(|_| (vec![1.0], 0.3)).collect();
        let mut net = Mlp::new(
            1,
            MlpConfig {
                hidden: vec![4],
                iterations: 1500,
                ..MlpConfig::default()
            },
        );
        net.fit(&data);
        let p = net.predict_proba(&[1.0]);
        assert!((p - 0.3).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn training_reduces_loss() {
        let data: Vec<(Vec<f64>, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 100.0;
                (vec![x, 1.0 - x], if x > 0.5 { 1.0 } else { 0.0 })
            })
            .collect();
        let mut net = Mlp::new(
            2,
            MlpConfig {
                iterations: 500,
                ..MlpConfig::default()
            },
        );
        let before = net.mean_loss(&data);
        net.fit(&data);
        assert!(net.mean_loss(&data) < before);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Widths and a batch the tiles do not divide: 8 + 3 inputs, 8 + 1
        // and 3 hidden units, 2 + 2 + 1 examples.
        let cfg = MlpConfig {
            hidden: vec![9, 3],
            seed: 11,
            ..MlpConfig::default()
        };
        let mut net = Mlp::new(11, cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let batch: Vec<(Vec<f64>, f64)> = (0..5)
            .map(|_| {
                let x = (0..11).map(|_| rng.gen_range(-1.0..1.0)).collect();
                (x, rng.gen_range(0.0..1.0))
            })
            .collect();
        let mut buffers = FitBuffers::new(&net.layers, batch.len());
        buffers.begin_step(&net.layers);
        for ((row, target), (x, p)) in rows_mut(&mut buffers.inputs, 11)
            .zip(&mut buffers.targets)
            .zip(&batch)
        {
            row.copy_from_slice(x);
            *target = *p;
        }
        net.batch_step(&mut buffers);
        // The oracle: central differences of the batch's summed loss,
        // through `score`, which shares nothing with the batch kernels.
        let summed_loss = |net: &Mlp| -> f64 {
            batch
                .iter()
                .map(|(x, p)| noise_aware_logistic_loss(net.score(x), *p))
                .sum()
        };
        let h = 1e-6;
        let mut central_difference = |param: fn(&mut Layer) -> &mut Vec<f64>, li: usize, i| {
            let orig = param(&mut net.layers[li])[i];
            param(&mut net.layers[li])[i] = orig + h;
            let above = summed_loss(&net);
            param(&mut net.layers[li])[i] = orig - h;
            let below = summed_loss(&net);
            param(&mut net.layers[li])[i] = orig;
            (above - below) / (2.0 * h)
        };
        for (li, (gw, gb)) in buffers.grads.iter().enumerate() {
            for (i, g) in gw.iter().enumerate() {
                let fd = central_difference(|l| &mut l.w, li, i);
                assert!((g - fd).abs() < 1e-5, "layer {li} w[{i}]: {g} vs {fd}");
            }
            for (i, g) in gb.iter().enumerate() {
                let fd = central_difference(|l| &mut l.b, li, i);
                assert!((g - fd).abs() < 1e-5, "layer {li} b[{i}]: {g} vs {fd}");
            }
        }
    }

    #[test]
    fn a_short_fit_walks_every_tile_and_remainder() {
        // Sized for Miri (the golden file sits out under it): widths of a
        // tile and a bit, an odd batch that wraps the 12 rows mid-batch.
        let data: Vec<(Vec<f64>, f64)> = (0..12)
            .map(|r| {
                let x: Vec<f64> = (0..9)
                    .map(|c| f64::from((r * 7 + c * 3) % 5) - 2.0)
                    .collect();
                let target = if x[0] > 0.0 { 0.9 } else { 0.1 };
                (x, target)
            })
            .collect();
        let mut net = Mlp::new(
            9,
            MlpConfig {
                hidden: vec![10, 3],
                iterations: 40,
                batch_size: 5,
                ..MlpConfig::default()
            },
        );
        let before = net.mean_loss(&data);
        net.fit(&data);
        assert!(net.mean_loss(&data) < before);
    }

    #[test]
    fn a_hidden_layer_of_no_width_trains_the_output_bias() {
        // Degenerate, but `MlpConfig::hidden` is anyone's to set: nothing
        // reaches the output but its bias, and nothing panics.
        let mut net = Mlp::new(
            2,
            MlpConfig {
                hidden: vec![0],
                iterations: 300,
                ..MlpConfig::default()
            },
        );
        net.fit(&[(vec![0.3, -0.1], 0.9), (vec![-0.6, 0.2], 0.9)]);
        let p = net.predict_proba(&[5.0, 5.0]);
        assert!(p > 0.7, "{p}");
    }

    #[test]
    fn json_round_trip_keeps_every_bit() {
        let mut net = Mlp::new(
            2,
            MlpConfig {
                hidden: vec![3, 2],
                iterations: 20,
                ..MlpConfig::default()
            },
        );
        net.fit(&[(vec![0.0, 1.0], 1.0), (vec![1.0, 0.5], 0.0)]);
        let text = net.to_json().to_line();
        let back = Mlp::from_json(&drybell_obs::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_line(), text);
        let x = [0.3, -0.2];
        assert_eq!(back.score(&x).to_bits(), net.score(&x).to_bits());
        // Adam state came along: training on resumes identically.
        let (mut a, mut b) = (net, back);
        a.fit(&[(vec![0.5, 0.5], 1.0)]);
        b.fit(&[(vec![0.5, 0.5], 1.0)]);
        assert_eq!(a.score(&x).to_bits(), b.score(&x).to_bits());
        // Layers that no longer chain are rejected, not indexed past.
        let widened = text.replacen("\"input_dim\":2", "\"input_dim\":3", 1);
        let err = Mlp::from_json(&drybell_obs::parse_json(&widened).unwrap());
        assert!(err.unwrap_err().contains("do not chain"));
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<(Vec<f64>, f64)> = (0..50)
            .map(|i| (vec![(i % 5) as f64], f64::from(u8::from(i % 2 == 0))))
            .collect();
        let run = || {
            let mut net = Mlp::new(
                1,
                MlpConfig {
                    iterations: 100,
                    seed: 3,
                    ..MlpConfig::default()
                },
            );
            net.fit(&data);
            net.predict_proba(&[2.0])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "model expects 3")]
    fn wrong_input_dim_panics() {
        let net = Mlp::new(3, MlpConfig::default());
        let _ = net.score(&[1.0]);
    }

    #[test]
    fn try_score_returns_typed_error_and_matches_score() {
        let net = Mlp::new(3, MlpConfig::default());
        let mut scratch = MlpScratch::default();
        assert_eq!(
            net.try_score_into(&[1.0], &mut scratch),
            Err(MlError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        );
        let x = [0.3, -1.0, 2.0];
        let s = net.try_score_into(&x, &mut scratch).unwrap();
        assert_eq!(s, net.score(&x));
        // Scratch reuse across widths must not leak state.
        let p = net.try_predict_proba(&x, &mut scratch).unwrap();
        assert_eq!(p, net.predict_proba(&x));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn a_batch_size_of_zero_panics() {
        let cfg = MlpConfig {
            batch_size: 0,
            ..MlpConfig::default()
        };
        Mlp::new(2, cfg).fit(&[(vec![0.0, 1.0], 1.0)]);
    }

    #[test]
    fn config_from_json_rejects_a_batch_size_of_zero() {
        let cfg = MlpConfig::default().to_json().to_line();
        let parsed = |text: &str| MlpConfig::from_json(&drybell_obs::parse_json(text).unwrap());
        assert_eq!(parsed(&cfg).unwrap().batch_size, 64);
        let zero = cfg.replacen("\"batch_size\":64", "\"batch_size\":0", 1);
        assert!(parsed(&zero).unwrap_err().contains("batch_size"));
    }

    #[test]
    fn a_step_count_past_i32_still_trains() {
        // An exported net may carry any step count. One too large for
        // `powi`'s `i32` must read as a late step (no bias correction
        // left), not wrap to an early or a negative one.
        let data = [(vec![0.0, 1.0], 1.0), (vec![1.0, 0.5], 0.0)];
        let cfg = MlpConfig {
            hidden: vec![3],
            iterations: 50,
            ..MlpConfig::default()
        };
        let fresh = Mlp::new(2, cfg).to_json().to_line();
        for adam_t in [i32::MAX as u64, (1 << 32) + 1] {
            let text = fresh.replacen("\"adam_t\":0", &format!("\"adam_t\":{adam_t}"), 1);
            let mut net = Mlp::from_json(&drybell_obs::parse_json(&text).unwrap()).unwrap();
            let before = net.score(&[0.0, 1.0]);
            net.fit(&data);
            let after = net.score(&[0.0, 1.0]);
            assert!(after.is_finite() && after > before, "{before} -> {after}");
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let mut net = Mlp::new(2, MlpConfig::default());
        net.fit(&[]);
    }
}
