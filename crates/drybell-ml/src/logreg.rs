//! Sparse logistic regression with FTRL-Proximal.
//!
//! §6.1: "We use a logistic regression model in TFX. We train using the
//! FTRL optimization algorithm [McMahan et al. 2013], a variant of
//! stochastic gradient descent that tunes per-coordinate learning rates,
//! with an initial step size of 0.2 ... All experiments use a batch size
//! of 64."
//!
//! FTRL-Proximal stores per-coordinate `(z, n)` state and materializes
//! weights lazily:
//!
//! ```text
//! w_i = 0                                       if |z_i| ≤ λ₁
//! w_i = −(z_i − sign(z_i)·λ₁) / ((β + √n_i)/α + λ₂)   otherwise
//! ```
//!
//! with the per-example update `σ = (√(n+g²) − √n)/α`, `z += g − σ·w`,
//! `n += g²`. The L1 term gives the sparse models production systems want.
//!
//! [`LogisticRegression::fit`] visits the examples in a shuffled order, so
//! read in place each visit would chase a separately allocated vector to a
//! random address. Instead a helper thread walks the order and copies each
//! visit's entries into contiguous blocks, which the training thread
//! updates from while the next block is gathered; see
//! [`LogisticRegression::fit`] for why this cannot change a bit.

use crate::error::MlError;
use crate::export::{field, finite, finite_vec, floats, size};
use crate::loss::{noise_aware_logistic_grad, sigmoid};
use drybell_features::SparseVector;
use drybell_obs::Json;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Visits a gather block holds at most.
const BLOCK_VISITS: usize = 2_048;
/// Entries a gather block holds at most (1 MiB), unless one example alone
/// has more, which then fills a block of its own.
const BLOCK_ENTRIES: usize = 65_536;
/// Blocks in circulation during a fit: one being gathered, one being
/// trained on and one waiting between the two.
const BLOCKS: usize = 3;

/// Which update rule the trainer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrAlgorithm {
    /// FTRL-Proximal with per-coordinate learning rates (the paper's
    /// optimizer).
    FtrlProximal,
    /// Plain SGD with a fixed step size — the ablation baseline showing
    /// why production systems prefer FTRL on sparse features.
    Sgd,
}

impl LrAlgorithm {
    /// The variant name as a string, as exported model files carry it.
    pub fn to_json(&self) -> Json {
        Json::from(match self {
            LrAlgorithm::FtrlProximal => "FtrlProximal",
            LrAlgorithm::Sgd => "Sgd",
        })
    }

    /// Read a variant back from [`LrAlgorithm::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<LrAlgorithm, String> {
        match v.as_str() {
            Some("FtrlProximal") => Ok(LrAlgorithm::FtrlProximal),
            Some("Sgd") => Ok(LrAlgorithm::Sgd),
            _ => Err(format!("unknown LrAlgorithm {v}")),
        }
    }
}

/// FTRL-Proximal hyperparameters.
#[derive(Debug, Clone)]
pub struct FtrlConfig {
    /// Initial step size `α`. The paper uses 0.2.
    pub alpha: f64,
    /// Smoothing `β` in the per-coordinate learning rate.
    pub beta: f64,
    /// L1 regularization strength `λ₁`.
    pub l1: f64,
    /// L2 regularization strength `λ₂`.
    pub l2: f64,
    /// Number of mini-batch iterations. The paper uses 10K (topic task)
    /// and 100K (product task).
    pub iterations: usize,
    /// Mini-batch size; 64 throughout the paper.
    pub batch_size: usize,
    /// RNG seed for example order.
    pub seed: u64,
    /// Update rule (FTRL-Proximal by default).
    pub algorithm: LrAlgorithm,
}

impl Default for FtrlConfig {
    fn default() -> FtrlConfig {
        FtrlConfig {
            alpha: 0.2,
            beta: 1.0,
            l1: 1e-6,
            l2: 1e-6,
            iterations: 10_000,
            batch_size: 64,
            seed: 0,
            algorithm: LrAlgorithm::FtrlProximal,
        }
    }
}

impl FtrlConfig {
    /// The configuration as an exported model file carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("alpha", Json::Num(self.alpha)),
            ("beta", Json::Num(self.beta)),
            ("l1", Json::Num(self.l1)),
            ("l2", Json::Num(self.l2)),
            ("iterations", Json::from(self.iterations)),
            ("batch_size", Json::from(self.batch_size)),
            ("seed", Json::from(self.seed)),
            ("algorithm", self.algorithm.to_json()),
        ])
    }

    /// Read a configuration back from [`FtrlConfig::to_json`]'s form.
    pub fn from_json(v: &Json) -> Result<FtrlConfig, String> {
        Ok(FtrlConfig {
            alpha: field(v, "alpha", finite)?,
            beta: field(v, "beta", finite)?,
            l1: field(v, "l1", finite)?,
            l2: field(v, "l2", finite)?,
            iterations: field(v, "iterations", size)?,
            batch_size: field(v, "batch_size", size)?,
            seed: field(v, "seed", Json::as_u64)?,
            algorithm: field(v, "algorithm", Some).and_then(LrAlgorithm::from_json)?,
        })
    }
}

/// A trained (or in-training) sparse logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// FTRL accumulated gradients `z`.
    z: Vec<f64>,
    /// FTRL squared-gradient sums `n`.
    n: Vec<f64>,
    /// Bias handled as its own coordinate (always present).
    z_bias: f64,
    n_bias: f64,
    cfg: FtrlConfig,
    dims: usize,
}

impl LogisticRegression {
    /// Create an untrained model over `dims` hashed feature dimensions.
    pub fn new(dims: usize, cfg: FtrlConfig) -> LogisticRegression {
        LogisticRegression {
            z: vec![0.0; dims],
            n: vec![0.0; dims],
            z_bias: 0.0,
            n_bias: 0.0,
            cfg,
            dims,
        }
    }

    /// The whole model, optimizer state included, as an exported model
    /// file carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("z", floats(&self.z)),
            ("n", floats(&self.n)),
            ("z_bias", Json::Num(self.z_bias)),
            ("n_bias", Json::Num(self.n_bias)),
            ("cfg", self.cfg.to_json()),
            ("dims", Json::from(self.dims)),
        ])
    }

    /// Read a model back from [`LogisticRegression::to_json`]'s form.
    /// Scoring indexes `z` and `n` by coordinate below `dims`, so a file
    /// whose vectors are not both `dims` long is rejected here.
    pub fn from_json(v: &Json) -> Result<LogisticRegression, String> {
        let model = LogisticRegression {
            z: field(v, "z", finite_vec)?,
            n: field(v, "n", finite_vec)?,
            z_bias: field(v, "z_bias", finite)?,
            n_bias: field(v, "n_bias", finite)?,
            cfg: field(v, "cfg", Some).and_then(FtrlConfig::from_json)?,
            dims: field(v, "dims", size)?,
        };
        if model.z.len() != model.dims || model.n.len() != model.dims {
            return Err(format!(
                "dims is {} but z has {} entries and n has {}",
                model.dims,
                model.z.len(),
                model.n.len()
            ));
        }
        Ok(model)
    }

    /// The lazily-materialized weight of coordinate `i`.
    #[inline]
    fn weight_at(&self, z: f64, n: f64) -> f64 {
        if self.cfg.algorithm == LrAlgorithm::Sgd {
            // In SGD mode `z` stores the weight directly.
            return z;
        }
        self.ftrl_weight(z, n.sqrt())
    }

    /// The FTRL-Proximal weight of a coordinate with state `(z, n)`, given
    /// `root = √n`.
    #[inline]
    fn ftrl_weight(&self, z: f64, root: f64) -> f64 {
        if z.abs() <= self.cfg.l1 {
            0.0
        } else {
            let sign = z.signum();
            -(z - sign * self.cfg.l1) / ((self.cfg.beta + root) / self.cfg.alpha + self.cfg.l2)
        }
    }

    /// Materialized weight of feature `i` (0 for out-of-range indices).
    pub fn weight(&self, i: usize) -> f64 {
        if i >= self.dims {
            return 0.0;
        }
        self.weight_at(self.z[i], self.n[i])
    }

    /// The bias weight.
    pub fn bias(&self) -> f64 {
        self.weight_at(self.z_bias, self.n_bias)
    }

    /// Raw decision score `w·x + b`.
    pub fn score(&self, x: &SparseVector) -> f64 {
        self.score_entries(x.entries())
    }

    fn score_entries(&self, x: &[(u32, f64)]) -> f64 {
        let mut s = self.bias();
        for &(i, v) in x {
            s += self.weight(i as usize) * v;
        }
        s
    }

    /// Predicted `P(y = +1 | x)`.
    pub fn predict_proba(&self, x: &SparseVector) -> f64 {
        sigmoid(self.score(x))
    }

    /// One update from an example with entries `x` and soft target
    /// `target`. `scored` is scratch for FTRL-Proximal: scoring keeps each
    /// coordinate's `(w_i, √n_i)` there for the update, which finds them
    /// unchanged because `x`'s indices are unique.
    fn update_one(&mut self, x: &[(u32, f64)], target: f64, scored: &mut Vec<(f64, f64)>) {
        let alpha = self.cfg.alpha;
        if self.cfg.algorithm == LrAlgorithm::Sgd {
            let g_base = noise_aware_logistic_grad(self.score_entries(x), target);
            self.z_bias -= alpha * g_base;
            for &(i, v) in x {
                let i = i as usize;
                if i < self.dims {
                    self.z[i] -= alpha * (g_base * v + self.cfg.l2 * self.z[i]);
                }
            }
            return;
        }
        let root_bias = self.n_bias.sqrt();
        let w_bias = self.ftrl_weight(self.z_bias, root_bias);
        let mut score = w_bias;
        scored.clear();
        for &(i, v) in x {
            let i = i as usize;
            // An index past `dims` weighs 0 and is not updated.
            let (w, root) = if i < self.dims {
                let root = self.n[i].sqrt();
                (self.ftrl_weight(self.z[i], root), root)
            } else {
                (0.0, 0.0)
            };
            score += w * v;
            scored.push((w, root));
        }
        let g_base = noise_aware_logistic_grad(score, target);
        // Bias coordinate (feature value 1).
        let g = g_base;
        let sigma = ((self.n_bias + g * g).sqrt() - root_bias) / alpha;
        self.z_bias += g - sigma * w_bias;
        self.n_bias += g * g;
        for (&(i, v), &(w, root)) in x.iter().zip(scored.iter()) {
            let i = i as usize;
            if i >= self.dims {
                continue;
            }
            let g = g_base * v;
            let sigma = ((self.n[i] + g * g).sqrt() - root) / alpha;
            self.z[i] += g - sigma * w;
            self.n[i] += g * g;
        }
    }

    /// Train on `(features, soft target)` pairs for the configured number
    /// of mini-batch iterations. Targets in `[0, 1]` may be hard labels or
    /// the generative model's probabilistic labels (noise-aware loss).
    ///
    /// A scoped helper thread walks the visit order (a seeded shuffle of
    /// the examples, reshuffled each time it runs out) and copies each
    /// visited example's entries and target into blocks of at most 2 048
    /// visits and 65 536 entries, which it sends to this thread over a
    /// bounded channel; this thread updates from each block in turn and
    /// hands the buffer back for the helper to refill. The trajectory is
    /// the one reading each example in place gives, bit for bit: the
    /// visits come in the same order and each update runs the same
    /// operations in the same order over the same values.
    ///
    /// Three buffers circulate, so the gathered bytes in flight stay under
    /// 3.1 MiB (3 × (1 MiB of entries + 32 KiB of targets and offsets))
    /// however many examples and visits the fit has; only an example with
    /// more than 65 536 entries grows the buffer that takes it. The helper
    /// returns once it has sent its last block or this thread has hung up,
    /// panics included, and the scope joins it before `fit` returns.
    ///
    /// Returns [`MlError::EmptyDataset`] on empty input (this used to
    /// `assert!`, aborting the calling worker).
    pub fn fit(&mut self, examples: &[(SparseVector, f64)]) -> Result<(), MlError> {
        if examples.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let (seed, iterations, batch_size) =
            (self.cfg.seed, self.cfg.iterations, self.cfg.batch_size);
        std::thread::scope(|scope| {
            let (full_tx, full_rx) = mpsc::sync_channel(BLOCKS);
            let (empty_tx, empty_rx) = mpsc::sync_channel(BLOCKS);
            scope.spawn(move || gather(examples, seed, iterations, batch_size, full_tx, empty_rx));
            let mut scored = Vec::new();
            for block in full_rx {
                let mut start = 0;
                for &(end, target) in &block.visits {
                    self.update_one(&block.entries[start..end], target, &mut scored);
                    start = end;
                }
                // Fails only once the helper has sent its last block.
                drop(empty_tx.send(block));
            }
        });
        Ok(())
    }

    /// Start scoring a batch of examples against this model, memoizing
    /// materialized weights in `cache`.
    ///
    /// FTRL materializes `w_i` from `(z_i, n_i)` on every access — a
    /// `signum`/`sqrt`/divide per touched coordinate per example. A
    /// batch touches the same hot coordinates repeatedly (hashed text
    /// features collide onto a small working set), so the returned
    /// [`BatchScorer`] computes each coordinate's weight at most once
    /// per batch and reuses it. Scores are **bit-identical** to
    /// [`LogisticRegression::score`]: `weight_at` is a pure function of
    /// `(z, n)` and the per-example accumulation order is unchanged.
    pub fn batch_scorer<'a>(&'a self, cache: &'a mut WeightCache) -> BatchScorer<'a> {
        cache.begin(self.dims);
        BatchScorer {
            bias: self.bias(),
            model: self,
            cache,
        }
    }

    /// Mean noise-aware logistic loss over a dataset.
    #[cfg(test)]
    fn mean_loss(&self, examples: &[(SparseVector, f64)]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let total: f64 = examples
            .iter()
            .map(|(x, p)| crate::loss::noise_aware_logistic_loss(self.score(x), *p))
            .sum();
        total / examples.len() as f64
    }
}

/// A run of visits copied out of the examples in visit order: each visit's
/// entries back to back in `entries`, and per visit the end of its entries
/// and its target in `visits`.
struct Block {
    entries: Vec<(u32, f64)>,
    visits: Vec<(usize, f64)>,
}

impl Block {
    fn new() -> Block {
        Block {
            entries: Vec::with_capacity(BLOCK_ENTRIES),
            visits: Vec::with_capacity(BLOCK_VISITS),
        }
    }

    /// Whether `x` joins this block without passing its bounds; an empty
    /// block takes any example.
    fn has_room(&self, x: &SparseVector) -> bool {
        self.visits.is_empty()
            || (self.visits.len() < BLOCK_VISITS && self.entries.len() + x.nnz() <= BLOCK_ENTRIES)
    }

    fn push(&mut self, x: &SparseVector, target: f64) {
        self.entries.extend_from_slice(x.entries());
        self.visits.push((self.entries.len(), target));
    }
}

/// The helper thread of [`LogisticRegression::fit`]: walk `iterations ×
/// batch_size` visits of `examples` in the order seeded by `seed`, gather
/// them into blocks sent down `full`, and refill the buffers that come
/// back on `empty` once [`BLOCKS`] are out. Returns `None` as soon as the
/// training thread has hung up.
fn gather(
    examples: &[(SparseVector, f64)],
    seed: u64,
    iterations: usize,
    batch_size: usize,
    full: SyncSender<Block>,
    empty: Receiver<Block>,
) -> Option<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    order.shuffle(&mut rng);
    let mut cursor = 0usize;
    let mut block = Block::new();
    let mut made = 1;
    for _ in 0..iterations {
        for _ in 0..batch_size {
            if cursor == order.len() {
                order.shuffle(&mut rng);
                cursor = 0;
            }
            let (x, p) = &examples[order[cursor]];
            cursor += 1;
            if !block.has_room(x) {
                full.send(block).ok()?;
                block = if made < BLOCKS {
                    made += 1;
                    Block::new()
                } else {
                    let mut recycled = empty.recv().ok()?;
                    recycled.entries.clear();
                    recycled.visits.clear();
                    recycled
                };
            }
            block.push(x, *p);
        }
    }
    full.send(block).ok()
}

/// Reusable weight-memoization scratch for [`LogisticRegression::batch_scorer`].
///
/// Holds one materialized-weight slot and one generation stamp per
/// coordinate; `begin` bumps the generation instead of clearing, so
/// starting a new batch is O(1) once the buffers are sized. Allocate
/// once per worker and reuse across batches — `begin` only reallocates
/// when the model dimensionality changes.
#[derive(Debug, Default, Clone)]
pub struct WeightCache {
    w: Vec<f64>,
    stamp: Vec<u64>,
    gen: u64,
}

impl WeightCache {
    /// Size the buffers for a `dims`-coordinate model and invalidate
    /// every memoized weight by bumping the generation stamp.
    fn begin(&mut self, dims: usize) {
        if self.w.len() != dims {
            self.w.clear();
            self.stamp.clear();
            self.w.resize(dims, 0.0);
            self.stamp.resize(dims, 0);
            self.gen = 0;
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrap (2^64 batches): stale stamps could alias
            // the restarted counter, so clear them once.
            for s in &mut self.stamp {
                *s = 0;
            }
            self.gen = 1;
        }
    }
}

/// Scores one batch of examples with per-batch weight memoization.
///
/// Created by [`LogisticRegression::batch_scorer`]; the borrow of the
/// model guarantees weights cannot change mid-batch, so memoized values
/// never go stale.
#[derive(Debug)]
pub struct BatchScorer<'a> {
    model: &'a LogisticRegression,
    bias: f64,
    cache: &'a mut WeightCache,
}

impl BatchScorer<'_> {
    /// Materialized weight of coordinate `i`, computed at most once per
    /// batch (0 for out-of-range indices, matching
    /// [`LogisticRegression::weight`]).
    #[inline]
    fn weight(&mut self, i: usize) -> f64 {
        if i >= self.model.dims {
            return 0.0;
        }
        if self.cache.stamp[i] != self.cache.gen {
            self.cache.stamp[i] = self.cache.gen;
            self.cache.w[i] = self.model.weight_at(self.model.z[i], self.model.n[i]);
        }
        self.cache.w[i]
    }

    /// Raw decision score `w·x + b`, bit-identical to
    /// [`LogisticRegression::score`].
    pub fn score(&mut self, x: &SparseVector) -> f64 {
        let mut s = self.bias;
        for &(i, v) in x.entries() {
            s += self.weight(i as usize) * v;
        }
        s
    }

    /// Predicted `P(y = +1 | x)`, bit-identical to
    /// [`LogisticRegression::predict_proba`].
    pub fn predict_proba(&mut self, x: &SparseVector) -> f64 {
        sigmoid(self.score(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn hasher() -> drybell_features::FeatureHasher {
        drybell_features::FeatureHasher::new(1 << 12)
    }

    /// Number of non-zero materialized weights (L1 sparsity).
    fn nnz_weights(m: &LogisticRegression) -> usize {
        (0..m.dims).filter(|&i| m.weight(i) != 0.0).count()
    }

    /// Linearly separable two-token dataset.
    fn separable(n: usize, seed: u64) -> Vec<(SparseVector, f64)> {
        let h = hasher();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    (h.bag_of_words(&["good", "signal"]), 1.0)
                } else {
                    (h.bag_of_words(&["bad", "noise"]), 0.0)
                }
            })
            .collect()
    }

    #[test]
    fn json_round_trip_keeps_every_bit() {
        let mut model = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 50,
                seed: u64::MAX,
                ..FtrlConfig::default()
            },
        );
        model.fit(&separable(100, 3)).unwrap();
        let text = model.to_json().to_line();
        let back = LogisticRegression::from_json(&drybell_obs::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_line(), text);
        let x = hasher().bag_of_words(&["good", "noise"]);
        assert_eq!(back.score(&x).to_bits(), model.score(&x).to_bits());
        // A vector shorter than `dims` is rejected, not indexed past.
        let short = text.replacen("\"z\":[0.0,", "\"z\":[", 1);
        assert_ne!(short, text);
        let err = LogisticRegression::from_json(&drybell_obs::parse_json(&short).unwrap());
        assert!(err.unwrap_err().contains("dims is 4096"));
    }

    #[test]
    fn learns_separable_data() {
        let data = separable(2000, 1);
        let mut model = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 200,
                ..FtrlConfig::default()
            },
        );
        model.fit(&data).unwrap();
        let h = hasher();
        assert!(model.predict_proba(&h.bag_of_words(&["good", "signal"])) > 0.9);
        assert!(model.predict_proba(&h.bag_of_words(&["bad", "noise"])) < 0.1);
    }

    #[test]
    fn soft_targets_calibrate_probabilities() {
        // All examples share one feature; the target is 0.7 — the learned
        // probability must approach 0.7, not 1.0 (the essence of the
        // noise-aware loss).
        let h = hasher();
        let x = h.bag_of_words(&["only"]);
        let data: Vec<(SparseVector, f64)> = (0..500).map(|_| (x.clone(), 0.7)).collect();
        let mut model = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 300,
                ..FtrlConfig::default()
            },
        );
        model.fit(&data).unwrap();
        let p = model.predict_proba(&x);
        assert!((p - 0.7).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn l1_produces_sparse_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = hasher();
        // Two informative tokens plus many noise tokens.
        let data: Vec<(SparseVector, f64)> = (0..3000)
            .map(|_| {
                let y = rng.gen_bool(0.5);
                let mut toks: Vec<String> = vec![if y { "pos".into() } else { "neg".into() }];
                for _ in 0..5 {
                    toks.push(format!("noise{}", rng.gen_range(0..500)));
                }
                (h.bag_of_words(&toks), if y { 1.0 } else { 0.0 })
            })
            .collect();
        let heavy = {
            let mut m = LogisticRegression::new(
                1 << 12,
                FtrlConfig {
                    iterations: 150,
                    l1: 0.5,
                    ..FtrlConfig::default()
                },
            );
            m.fit(&data).unwrap();
            nnz_weights(&m)
        };
        let light = {
            let mut m = LogisticRegression::new(
                1 << 12,
                FtrlConfig {
                    iterations: 150,
                    l1: 0.0,
                    ..FtrlConfig::default()
                },
            );
            m.fit(&data).unwrap();
            nnz_weights(&m)
        };
        assert!(heavy < light, "L1 should prune weights: {heavy} vs {light}");
        // The informative tokens must survive pruning.
        let mut m = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 150,
                l1: 0.5,
                ..FtrlConfig::default()
            },
        );
        m.fit(&data).unwrap();
        assert!(m.weight(h.index("pos") as usize) > 0.0);
        assert!(m.weight(h.index("neg") as usize) < 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let data = separable(1000, 9);
        let model = LogisticRegression::new(1 << 12, FtrlConfig::default());
        let before = model.mean_loss(&data);
        let cfg = FtrlConfig {
            iterations: 100,
            ..FtrlConfig::default()
        };
        let mut model = LogisticRegression::new(1 << 12, cfg);
        model.fit(&data).unwrap();
        let after = model.mean_loss(&data);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn untrained_model_is_uninformative() {
        let model = LogisticRegression::new(16, FtrlConfig::default());
        let h = hasher();
        assert_eq!(model.predict_proba(&h.bag_of_words(&["x"])), 0.5);
        assert_eq!(model.bias(), 0.0);
        assert_eq!(nnz_weights(&model), 0);
    }

    #[test]
    fn out_of_range_features_are_ignored() {
        let mut model = LogisticRegression::new(
            4,
            FtrlConfig {
                iterations: 10,
                ..FtrlConfig::default()
            },
        );
        let x = SparseVector::from_pairs(vec![(2, 1.0), (100, 5.0)]);
        model.fit(&[(x.clone(), 1.0)]).unwrap();
        assert_eq!(model.weight(100), 0.0);
        assert!(model.predict_proba(&x).is_finite());
    }

    #[test]
    fn empty_fit_is_a_typed_error_not_a_panic() {
        let mut model = LogisticRegression::new(4, FtrlConfig::default());
        assert_eq!(model.fit(&[]), Err(MlError::EmptyDataset));
        // The failed fit must leave the model untouched and usable.
        assert_eq!(model.bias(), 0.0);
        assert_eq!(nnz_weights(&model), 0);
    }

    #[test]
    fn sgd_mode_learns_separable_data() {
        let data = separable(2000, 21);
        let mut model = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 300,
                alpha: 0.1,
                algorithm: LrAlgorithm::Sgd,
                ..FtrlConfig::default()
            },
        );
        model.fit(&data).unwrap();
        let h = hasher();
        assert!(model.predict_proba(&h.bag_of_words(&["good", "signal"])) > 0.85);
        assert!(model.predict_proba(&h.bag_of_words(&["bad", "noise"])) < 0.15);
    }

    #[test]
    fn ftrl_produces_sparser_models_than_sgd() {
        // FTRL-Proximal's L1 drives untouched and noise coordinates to
        // exact zero; plain SGD leaves a dense trail of tiny weights.
        // This is the operational reason production systems (and the
        // paper) use FTRL for hashed-feature models.
        let h = hasher();
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<(SparseVector, f64)> = (0..3000)
            .map(|_| {
                let y = rng.gen_bool(0.5);
                let mut toks: Vec<String> = vec![if y { "pos".into() } else { "neg".into() }];
                for _ in 0..6 {
                    toks.push(format!("noise{}", rng.gen_range(0..800)));
                }
                (h.bag_of_words(&toks), if y { 1.0 } else { 0.0 })
            })
            .collect();
        let train = |alg: LrAlgorithm| {
            let mut m = LogisticRegression::new(
                1 << 12,
                FtrlConfig {
                    iterations: 150,
                    l1: 4.0,
                    algorithm: alg,
                    ..FtrlConfig::default()
                },
            );
            m.fit(&data).unwrap();
            m
        };
        let ftrl = train(LrAlgorithm::FtrlProximal);
        let sgd = train(LrAlgorithm::Sgd);
        assert!(
            nnz_weights(&ftrl) * 2 < nnz_weights(&sgd),
            "FTRL {} non-zeros should be far sparser than SGD {}",
            nnz_weights(&ftrl),
            nnz_weights(&sgd)
        );
        // Both still learn the informative tokens.
        assert!(ftrl.predict_proba(&h.bag_of_words(&["pos"])) > 0.6);
        assert!(sgd.predict_proba(&h.bag_of_words(&["pos"])) > 0.6);
    }

    #[test]
    fn batch_scoring_is_bit_identical_to_one_at_a_time() {
        let data = separable(2000, 11);
        let mut model = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 200,
                ..FtrlConfig::default()
            },
        );
        model.fit(&data).unwrap();
        let inputs: Vec<&SparseVector> = data.iter().map(|(x, _)| x).collect();
        let mut cache = WeightCache::default();
        let mut scorer = model.batch_scorer(&mut cache);
        for x in &inputs {
            assert_eq!(
                scorer.predict_proba(x).to_bits(),
                model.predict_proba(x).to_bits()
            );
        }
    }

    #[test]
    fn weight_cache_is_reusable_across_models_and_dims() {
        let data = separable(500, 13);
        let mut small = LogisticRegression::new(
            1 << 10,
            FtrlConfig {
                iterations: 50,
                ..FtrlConfig::default()
            },
        );
        let mut big = LogisticRegression::new(
            1 << 12,
            FtrlConfig {
                iterations: 50,
                ..FtrlConfig::default()
            },
        );
        small.fit(&data).unwrap();
        big.fit(&data).unwrap();
        let h = hasher();
        let x = h.bag_of_words(&["good", "signal"]);
        let mut cache = WeightCache::default();
        // Alternate models/dims through one cache: `begin` must resize
        // and invalidate so no stale weight leaks across batches.
        for _ in 0..3 {
            let got = small.batch_scorer(&mut cache).predict_proba(&x);
            assert_eq!(got.to_bits(), small.predict_proba(&x).to_bits());
            let got = big.batch_scorer(&mut cache).predict_proba(&x);
            assert_eq!(got.to_bits(), big.predict_proba(&x).to_bits());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = separable(500, 5);
        let train = |seed| {
            let mut m = LogisticRegression::new(
                1 << 12,
                FtrlConfig {
                    iterations: 50,
                    seed,
                    ..FtrlConfig::default()
                },
            );
            m.fit(&data).unwrap();
            let h = hasher();
            m.predict_proba(&h.bag_of_words(&["good", "signal"]))
        };
        assert_eq!(train(7), train(7));
    }
}
