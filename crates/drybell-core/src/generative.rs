//! The sampling-free generative label model (paper §5.2).
//!
//! DryBell models each labeling function `j` with two log-space parameters:
//!
//! * `α_j` — unnormalized log-probability that the LF is *correct* given
//!   that it did not abstain, and
//! * `β_j` — unnormalized log-probability that it did *not abstain*,
//!
//! under the conditionally independent model
//! `P_w(Λ, Y) = Π_i P(Y_i) Π_j P(λ_j(X_i) | Y_i)`.
//!
//! With `A_j = e^{α_j+β_j}`, `B_j = e^{-α_j+β_j}` and the per-LF log
//! normalizer `Z_j = log(A_j + B_j + 1)`, the per-example joint scores are
//! exactly the paper's:
//!
//! ```text
//! log P(Λ_i, Y=+1) = log π₊ + Σ_j ( λ_ij·α_j + 1[λ_ij≠0]·β_j − Z_j )
//! log P(Λ_i, Y=−1) = log π₋ + Σ_j ( −λ_ij·α_j + 1[λ_ij≠0]·β_j − Z_j )
//! ```
//!
//! and the training objective is the negative marginal log-likelihood
//! `−Σ_i logsumexp(s_i⁺, s_i⁻)`, with `Y` marginalized out — no ground
//! truth is ever consulted. Unlike the open-source Snorkel's Gibbs sampler
//! (see [`crate::gibbs`]), the gradient here is **analytic**:
//!
//! ```text
//! ∂NLL_i/∂α_j = ∂Z_j/∂α − (2p_i − 1)·λ_ij      ∂Z/∂α = (A−B)/(A+B+1)
//! ∂NLL_i/∂β_j = ∂Z_j/∂β − 1[λ_ij ≠ 0]          ∂Z/∂β = (A+B)/(A+B+1)
//! ∂NLL_i/∂η   = σ(η) − p_i                     (learned class prior)
//! ```
//!
//! where `p_i = σ(s_i⁺ − s_i⁻)` is the posterior — which doubles as the
//! probabilistic training label `Ỹ_i` once training finishes.
//!
//! Training and inference are data-parallel: gradient accumulation and
//! the full-matrix row scans (`predict_proba`, `nll`) shard over
//! [`TrainConfig::num_threads`] scoped workers with fixed chunk
//! boundaries and a fixed-order tree reduction (see [`crate::parallel`]),
//! so results are **byte-identical at any thread count**. A sparse
//! matrix that the schedule revisits often is trained through an active
//! index ([`crate::ActiveRows`]); its kernel adds the terms the dense
//! kernel adds, in the same order, minus the `+0.0` of each abstain cell,
//! so the layout changes no result bit.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::matrix::{ActiveRows, LabelMatrix};
use crate::optim::{OptimState, Optimizer};
use crate::parallel::{self, CHUNK_ROWS};
use crate::train::{self, Params, Sampler, Watch};
use crate::{logsumexp2, sigmoid};
use std::time::Instant;

/// Training hyperparameters for [`GenerativeModel::fit`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of gradient steps (mini-batches).
    pub steps: usize,
    /// Mini-batch size. The paper benchmarks with 64.
    pub batch_size: usize,
    /// Update rule; the paper's TF implementation uses first-order methods.
    pub optimizer: Optimizer,
    /// L2 penalty toward 0 on `α` and `β` (a weak prior keeping accuracies
    /// finite when LFs rarely overlap).
    pub l2: f64,
    /// Learn the class prior `P(Y)` (§5.2: "we assume that `P(Y_i)` is
    /// uniform, but we can also learn this distribution").
    pub learn_class_prior: bool,
    /// Fixed class prior `P(Y=+1)` used when `learn_class_prior` is false.
    pub class_prior: f64,
    /// Initial `α` (a mildly optimistic prior that LFs are better than
    /// chance, as in Snorkel).
    pub init_alpha: f64,
    /// RNG seed for batch shuffling.
    pub seed: u64,
    /// Record the full-data NLL every `record_every` steps (0 = never);
    /// recording costs a full pass, so keep it sparse for big matrices.
    pub record_every: usize,
    /// On observed runs, compute the full-data NLL at every
    /// `epoch_nll_every`-th epoch boundary (0 = never). Each sample
    /// costs a full pass over the matrix, so the default keeps
    /// telemetry overhead flat; the final epoch's NLL is always filled
    /// for free from the end-of-run pass. Unobserved runs never compute
    /// per-epoch NLL regardless of this setting.
    pub epoch_nll_every: usize,
    /// Worker threads for gradient accumulation and full-data row scans
    /// (0 is treated as 1). Results are **byte-identical at any value**:
    /// rows are chunked at fixed boundaries and partials are combined
    /// with a fixed-order tree reduction (see [`crate::parallel`]).
    /// Batches smaller than one chunk never spawn a thread, so the
    /// paper's batch-64 setting keeps its single-thread profile.
    pub num_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            steps: 1000,
            batch_size: 64,
            optimizer: Optimizer::adam(0.05),
            l2: 1e-3,
            learn_class_prior: false,
            class_prior: 0.5,
            init_alpha: 0.7,
            seed: 0,
            record_every: 0,
            epoch_nll_every: 0,
            num_threads: 1,
        }
    }
}

/// Per-epoch accounting from one training run (an epoch is one full pass
/// over the shuffled example order).
#[derive(Debug, Clone, Copy)]
pub struct EpochStat {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Gradient steps attributed to this epoch.
    pub steps: usize,
    /// Mean L2 norm of the mini-batch gradient over the epoch's steps.
    pub mean_grad_norm: f64,
    /// Mean L2 norm of the parameter update (the effective step size).
    pub mean_step_norm: f64,
    /// Wall-clock seconds spent in the epoch.
    pub seconds: f64,
    /// Full-data mean NLL at the epoch boundary. Only computed when the
    /// run is observed (it costs a full pass over the matrix).
    pub nll: Option<f64>,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Gradient steps actually taken.
    pub steps: usize,
    /// Mean per-example NLL on the full matrix after training.
    pub final_nll: f64,
    /// Wall-clock training time in seconds.
    pub seconds: f64,
    /// Gradient steps per second (the §5.2 headline metric).
    pub steps_per_sec: f64,
    /// Example rows consumed by gradient accumulation (steps × batch).
    pub rows: usize,
    /// Row throughput of training (`rows / seconds`) — the scaling metric
    /// `BENCH_label_model.json` tracks across thread counts.
    pub rows_per_sec: f64,
    /// `(step, mean NLL)` samples if `record_every > 0`.
    pub loss_history: Vec<(usize, f64)>,
    /// Per-epoch gradient/step-size/time accounting (always populated;
    /// the per-epoch `nll` field is only filled on observed runs — the
    /// final epoch from the free end-of-run pass, earlier epochs per
    /// [`TrainConfig::epoch_nll_every`]).
    pub epochs: Vec<EpochStat>,
}

impl TrainReport {
    /// Emit one `train_epoch` event per epoch and a closing `train` event
    /// to a run journal.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        for e in &self.epochs {
            let mut event = drybell_obs::Event::new("train_epoch")
                .field("epoch", e.epoch)
                .field("steps", e.steps)
                .field("mean_grad_norm", e.mean_grad_norm)
                .field("mean_step_norm", e.mean_step_norm)
                .field("seconds", e.seconds);
            if let Some(nll) = e.nll {
                event = event.field("nll", nll);
            }
            journal.emit(event);
        }
        journal.emit(
            drybell_obs::Event::new("train")
                .field("steps", self.steps)
                .field("epochs", self.epochs.len())
                .field("final_nll", self.final_nll)
                .field("seconds", self.seconds)
                .field("steps_per_sec", self.steps_per_sec)
                .field("rows", self.rows)
                .field("rows_per_sec", self.rows_per_sec),
        );
    }
}

/// Optimizer state carried across [`GenerativeModel::fit_incremental`]
/// calls — the streaming counterpart of one `fit` run's internals.
///
/// Created by [`GenerativeModel::begin_incremental`], which performs the
/// one-time initialization `fit` does at its top (prior, `α`/`β` reset,
/// fresh optimizer moments). Each subsequent `fit_incremental` call
/// *warm-starts* from wherever the parameters and moments currently are,
/// so a stream of arriving shards trains one continuous SGD trajectory
/// instead of refitting from scratch per shard.
///
/// Determinism contract: the trajectory is a pure function of the
/// initial configuration and the exact sequence of `(matrix, cfg)`
/// folds. There is no RNG anywhere on the incremental path (batches are
/// drawn in fixed row order), so replaying the same shard sequence
/// reproduces every parameter byte-for-byte.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    opt: OptimState,
    /// Flat parameter dimension (`2·num_lfs + 1`) the optimizer was
    /// sized for; folds against a different LF count are rejected.
    dim: usize,
    steps: usize,
    rows: usize,
}

impl IncrementalState {
    /// Total gradient steps taken across all folds so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Total example rows consumed across all folds so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Swap the optimizer rule (typically to decay the learning rate as
    /// shards accumulate — a constant rate would keep chasing the most
    /// recent shard's sampling noise and forget earlier data). Moments
    /// and step count carry over; see [`OptimState::set_rule`].
    pub fn set_optimizer(&mut self, rule: Optimizer) {
        self.opt.set_rule(rule);
    }
}

/// The conditionally-independent generative label model with sampling-free
/// maximum-marginal-likelihood training.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    /// Class-prior log-odds; `P(Y=+1) = σ(η)`.
    eta: f64,
    learn_prior: bool,
}

/// Per-parameter-setting cached quantities: per-LF normalizer gradients,
/// the summed log-normalizer, the class-prior terms and the dense
/// kernel's term table, computed once per step so that no row recomputes
/// them. A training run keeps one and refills it
/// ([`GenerativeModel::refresh`]), so a step allocates nothing.
#[derive(Default)]
pub(crate) struct LfCache {
    dz_da: Vec<f64>,
    dz_db: Vec<f64>,
    sum_z: f64,
    /// `log σ(η)` — log prior of the positive class.
    log_pi_pos: f64,
    /// `log σ(−η)` — log prior of the negative class.
    log_pi_neg: f64,
    /// `σ(η)` — the prior itself, used by the `∂η` gradient term.
    pi: f64,
    /// What a cell of column `j` adds to its row's `[Σ λ·α, Σ β]`, looked
    /// up by its vote as `λ as u8 & 3`: 0 abstains, 1 is `+1`, 3 is `−1`
    /// (2 is no vote). An abstain adds a literal `+0.0`, the identity for
    /// sums that start at `+0.0` and therefore never hold `−0.0`.
    terms: Vec<[[f64; 2]; 4]>,
}

impl LfCache {
    /// The dense row kernel: joint log-scores `(log P(Λ_i, Y=+1),
    /// log P(Λ_i, Y=−1))` of the rows `row(0)..row(n)`, handed to
    /// `each(k, s⁺, s⁻)` in that order.
    ///
    /// No compare, no convert: every cell adds its looked-up term, so a
    /// row's sums see what the entry-iterator kernel adds, in column
    /// order, plus `+0.0`s. Four rows are summed at a time because one
    /// row is a serial chain of dependent adds and four independent
    /// chains keep the adder busy (a short last block repeats its last
    /// row and drops the copies).
    fn dense_scores<'a>(
        &self,
        n: usize,
        row: impl Fn(usize) -> &'a [i8],
        mut each: impl FnMut(usize, f64, f64),
    ) {
        for first in (0..n).step_by(4) {
            let [r0, r1, r2, r3] = std::array::from_fn(|s| row((first + s).min(n - 1)));
            let mut sums = [[0.0; 2]; 4];
            let votes = r0.iter().zip(r1).zip(r2).zip(r3);
            for (terms, (((&l0, &l1), &l2), &l3)) in self.terms.iter().zip(votes) {
                for (sum, l) in sums.iter_mut().zip([l0, l1, l2, l3]) {
                    let term = terms[usize::from(l as u8 & 3)];
                    sum[0] += term[0];
                    sum[1] += term[1];
                }
            }
            for (k, [margin, active_beta]) in (first..n).zip(sums) {
                let base = active_beta - self.sum_z;
                each(
                    k,
                    self.log_pi_pos + margin + base,
                    self.log_pi_neg - margin + base,
                );
            }
        }
    }
}

/// One chunk's share of a mini-batch gradient: the summed data terms
/// `[∂α_0..∂α_n, ∂β_0..∂β_n, ∂η]`, and for the dense layout each
/// column's non-abstain count, which becomes its `∂β` term when the chunk
/// ends (subtracting 1.0 a vote from `+0.0` is exact, so is the count).
struct Partial {
    grad: Vec<f64>,
    votes: Vec<u32>,
}

/// What a training run keeps from step to step so that a step allocates
/// nothing: the batch's row indices, the parameter cache, and one
/// [`Partial`] per chunk of the batch.
struct GradBuffers {
    batch: Vec<usize>,
    cache: LfCache,
    partials: Vec<Partial>,
}

impl GradBuffers {
    fn new(num_lfs: usize, batch_len: usize) -> GradBuffers {
        GradBuffers {
            batch: Vec::with_capacity(batch_len),
            cache: LfCache::default(),
            partials: (0..parallel::num_chunks(batch_len))
                .map(|_| Partial {
                    grad: vec![0.0; 2 * num_lfs + 1],
                    votes: vec![0; num_lfs],
                })
                .collect(),
        }
    }
}

/// Below this share of non-abstain cells `fit` may train through a
/// [`crate::ActiveRows`] index instead of the dense rows. An entry is a
/// `(u32, i8)`, 8 bytes for a 1-byte cell, so the index is the *larger*
/// layout above 12.5% density; what it saves is the visit, which touches
/// only the cells that voted.
const ACTIVE_INDEX_MAX_DENSITY: f64 = 0.5;

/// … and only if the schedule draws each row at least this many times
/// (`steps × batch ≥ 8 × rows`): building the index costs about five dense
/// visits of a row, so a million-row matrix seen 1.5 times (the events
/// task) is trained dense, and a 500-row shard seen a hundred times (a
/// stream fold) through the index. Both halves of the rule are read off
/// the matrix and the schedule — never the thread count — so the choice
/// cannot perturb the determinism guarantee, and the two layouts agree
/// bit for bit anyway.
const ACTIVE_INDEX_MIN_VISITS: usize = 8;

impl GenerativeModel {
    /// Create a model for `num_lfs` labeling functions with the given
    /// initial accuracy parameter and a uniform class prior.
    pub fn new(num_lfs: usize, init_alpha: f64) -> GenerativeModel {
        GenerativeModel {
            alpha: vec![init_alpha; num_lfs],
            beta: vec![0.0; num_lfs],
            eta: 0.0,
            learn_prior: false,
        }
    }

    /// Number of labeling functions.
    pub fn num_lfs(&self) -> usize {
        self.alpha.len()
    }

    /// Raw accuracy parameters `α`.
    pub fn alphas(&self) -> &[f64] {
        &self.alpha
    }

    /// Raw propensity parameters `β`.
    pub fn betas(&self) -> &[f64] {
        &self.beta
    }

    /// Raw class-prior log-odds parameter `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Directly set the parameters (used by tests and by the Gibbs trainer
    /// which shares this model family).
    pub fn set_params(&mut self, alpha: Vec<f64>, beta: Vec<f64>, eta: f64) {
        assert_eq!(alpha.len(), beta.len());
        self.alpha = alpha;
        self.beta = beta;
        self.eta = eta;
    }

    /// Learned accuracy of each LF: `P(λ_j correct | λ_j ≠ 0) = σ(2α_j)`.
    ///
    /// §3.3 reports these estimates were "independently useful for
    /// identifying previously unknown low-quality sources".
    pub fn learned_accuracies(&self) -> Vec<f64> {
        self.alpha.iter().map(|&a| sigmoid(2.0 * a)).collect()
    }

    /// Learned non-abstain propensity of each LF:
    /// `P(λ_j ≠ 0) = (A + B) / (A + B + 1)`.
    pub fn learned_propensities(&self) -> Vec<f64> {
        self.alpha
            .iter()
            .zip(&self.beta)
            .map(|(&a, &b)| {
                let ab = (a + b).exp() + (-a + b).exp();
                ab / (ab + 1.0)
            })
            .collect()
    }

    /// The class prior `P(Y = +1)` currently in effect.
    pub fn class_prior(&self) -> f64 {
        sigmoid(self.eta)
    }

    /// Fill `cache` for the current parameters, reusing its storage.
    pub(crate) fn refresh(&self, cache: &mut LfCache) {
        let n = self.alpha.len();
        cache.dz_da.clear();
        cache.dz_da.reserve(n);
        cache.dz_db.clear();
        cache.dz_db.reserve(n);
        cache.terms.clear();
        cache.terms.reserve(n);
        cache.sum_z = 0.0;
        for (&alpha, &beta) in self.alpha.iter().zip(&self.beta) {
            let a = (alpha + beta).exp();
            let b = (-alpha + beta).exp();
            let d = a + b + 1.0;
            cache.dz_da.push((a - b) / d);
            cache.dz_db.push((a + b) / d);
            cache.sum_z += d.ln();
            // The products the entry-iterator kernel forms per cell.
            let vote = |l: i8| [f64::from(l) * alpha, beta];
            cache.terms.push([[0.0; 2], vote(1), [0.0; 2], vote(-1)]);
        }
        cache.pi = sigmoid(self.eta);
        cache.log_pi_pos = cache.pi.ln();
        cache.log_pi_neg = sigmoid(-self.eta).ln();
    }

    /// A fresh [`LfCache`] for the current parameters.
    pub(crate) fn cache(&self) -> LfCache {
        let mut cache = LfCache::default();
        self.refresh(&mut cache);
        cache
    }

    /// Joint log-scores `(log P(Λ_i, Y=+1), log P(Λ_i, Y=−1))` for one
    /// row, given its non-abstain `(column, vote)` entries in column
    /// order — the entry-iterator row kernel, which the active-index
    /// layout runs and which [`LfCache::dense_scores`] is held to, bit
    /// for bit.
    fn joint_scores(
        &self,
        entries: impl Iterator<Item = (usize, i8)>,
        cache: &LfCache,
    ) -> (f64, f64) {
        let mut margin = 0.0; // Σ_{active} λ·α
        let mut active_beta = 0.0; // Σ_{active} β
        entries.for_each(|(j, l)| {
            margin += f64::from(l) * self.alpha[j];
            active_beta += self.beta[j];
        });
        let base = active_beta - cache.sum_z;
        (
            cache.log_pi_pos + margin + base,
            cache.log_pi_neg - margin + base,
        )
    }

    /// Posterior `P(Y_i = +1 | Λ_i)` for one vote row.
    pub fn posterior(&self, row: &[i8]) -> f64 {
        assert!(
            row.len() <= self.alpha.len(),
            "a row of {} votes for {} labeling functions",
            row.len(),
            self.alpha.len()
        );
        let mut p = 0.0;
        self.cache()
            .dense_scores(1, |_| row, |_, sp, sm| p = sigmoid(sp - sm));
        p
    }

    /// Posterior probabilities for every row of the matrix — these are the
    /// probabilistic training labels `Ỹ` handed to the discriminative model.
    pub fn predict_proba(&self, m: &LabelMatrix) -> Vec<f64> {
        self.predict_proba_threads(m, 1)
    }

    /// [`GenerativeModel::predict_proba`] sharded across `num_threads`
    /// scoped workers. Output is byte-identical at any thread count: each
    /// posterior depends only on its own row, and every chunk writes its
    /// own stretch of the output.
    pub fn predict_proba_threads(&self, m: &LabelMatrix, num_threads: usize) -> Vec<f64> {
        let cache = self.cache();
        let mut out = vec![0.0; m.num_examples()];
        parallel::map_chunks(
            num_threads,
            out.len(),
            out.chunks_mut(CHUNK_ROWS),
            |range, posteriors| {
                cache.dense_scores(
                    range.len(),
                    |k| m.row(range.start + k),
                    |k, sp, sm| posteriors[k] = sigmoid(sp - sm),
                );
            },
        );
        out
    }

    /// [`GenerativeModel::predict_proba_threads`] with telemetry: records
    /// one `obs/train/predict_us` latency sample and adds the row count
    /// to the `obs/train/posterior_rows` throughput counter.
    pub fn predict_proba_observed(
        &self,
        m: &LabelMatrix,
        num_threads: usize,
        telemetry: Option<&drybell_obs::Telemetry>,
    ) -> Vec<f64> {
        let start = telemetry.map(|_| Instant::now());
        let out = self.predict_proba_threads(m, num_threads);
        if let (Some(t), Some(s)) = (telemetry, start) {
            t.metrics()
                .histogram("obs/train/predict_us")
                .record_duration(s.elapsed());
            t.metrics()
                .counter("obs/train/posterior_rows")
                .add(out.len() as u64);
        }
        out
    }

    /// Mean per-example negative marginal log-likelihood `−log P(Λ)/m`.
    pub fn nll(&self, m: &LabelMatrix) -> Result<f64, CoreError> {
        self.nll_threads(m, 1)
    }

    /// [`GenerativeModel::nll`] sharded across `num_threads` workers,
    /// byte-identical at any thread count (fixed chunking, fixed-order
    /// tree reduction of the per-chunk partial sums).
    pub fn nll_threads(&self, m: &LabelMatrix, num_threads: usize) -> Result<f64, CoreError> {
        let n = m.num_examples();
        if n == 0 {
            return Err(CoreError::EmptyMatrix);
        }
        let cache = self.cache();
        let mut partials = vec![0.0; parallel::num_chunks(n)];
        parallel::map_chunks(num_threads, n, partials.iter_mut(), |range, partial| {
            let mut terms = [0.0; CHUNK_ROWS];
            cache.dense_scores(
                range.len(),
                |k| m.row(range.start + k),
                |k, sp, sm| terms[k] = -logsumexp2(sp, sm),
            );
            *partial = terms[..range.len()].iter().sum::<f64>();
        });
        parallel::tree_reduce(&mut partials, |a, b| *a += b);
        Ok(partials[0] / n as f64)
    }

    /// Accumulate the mean gradient of the NLL over `buffers.batch`'s rows
    /// of `m` — through `index`, its active index, if the caller built
    /// one — sharding the accumulation over `num_threads` workers (fixed
    /// chunk boundaries over the batch positions, fixed-order tree
    /// reduction of the partial gradient vectors — byte-identical at any
    /// thread count).
    ///
    /// Layout of `grad`: `[∂α_0..∂α_n, ∂β_0..∂β_n, ∂η]`. An empty batch
    /// leaves `grad` all-zero instead of dividing by zero.
    fn grad_batch(
        &self,
        m: &LabelMatrix,
        index: Option<&ActiveRows>,
        l2: f64,
        num_threads: usize,
        buffers: &mut GradBuffers,
        grad: &mut [f64],
    ) {
        let GradBuffers {
            batch,
            cache,
            partials,
        } = buffers;
        grad.fill(0.0);
        if batch.is_empty() {
            return;
        }
        let n = self.alpha.len();
        self.refresh(cache);
        let cache = &*cache;
        parallel::map_chunks(
            num_threads,
            batch.len(),
            partials.iter_mut(),
            |range, part: &mut Partial| {
                let batch = batch.get(range).unwrap_or(&[]);
                let (grad, votes) = (&mut part.grad[..], &mut part.votes[..]);
                grad.fill(0.0);
                match index {
                    // A loop of its own, not a callback of a shared one:
                    // a row here is a handful of entries, and the
                    // indirection measured 12% of a stream fold.
                    Some(index) => {
                        for &i in batch {
                            let (sp, sm) = self.joint_scores(index.entries(i), cache);
                            let p = sigmoid(sp - sm);
                            scatter_votes(index.entries(i), 2.0 * p - 1.0, n, grad);
                            grad[2 * n] += cache.pi - p;
                        }
                    }
                    None => {
                        votes.fill(0);
                        cache.dense_scores(
                            batch.len(),
                            |k| m.row(batch[k]),
                            |k, sp, sm| {
                                let p = sigmoid(sp - sm);
                                scatter_row(m.row(batch[k]), 2.0 * p - 1.0, grad, votes);
                                grad[2 * n] += cache.pi - p;
                            },
                        );
                        for (beta, &votes) in grad[n..2 * n].iter_mut().zip(&*votes) {
                            *beta -= f64::from(votes);
                        }
                    }
                }
            },
        );
        parallel::tree_reduce(partials, |a, b| {
            for (x, y) in a.grad.iter_mut().zip(&b.grad) {
                *x += y;
            }
        });
        grad.copy_from_slice(&partials[0].grad);
        self.finish_gradient(cache, batch.len(), l2, grad);
    }

    /// Turn `grad`'s summed data terms over `rows` examples into the mean
    /// regularised gradient: add the batch-constant `∂Z` terms (every
    /// example contributes `∂Z_j` whether or not LF `j` abstained), take
    /// the mean, add L2 toward zero, and pin `∂η` unless the prior is
    /// learned. Shared with the Gibbs trainer, whose sampled data terms
    /// have the same shape.
    pub(crate) fn finish_gradient(&self, cache: &LfCache, rows: usize, l2: f64, grad: &mut [f64]) {
        let n = self.alpha.len();
        let bsz = rows as f64;
        for j in 0..n {
            grad[j] += bsz * cache.dz_da[j];
            grad[n + j] += bsz * cache.dz_db[j];
        }
        for g in grad.iter_mut() {
            *g /= bsz;
        }
        for j in 0..n {
            grad[j] += l2 * self.alpha[j];
            grad[n + j] += l2 * self.beta[j];
        }
        if !self.learn_prior {
            grad[2 * n] = 0.0;
        }
    }

    /// Mean NLL gradient over the whole matrix (exposed for gradient checks
    /// and for full-batch training). Errors on an empty matrix, whose mean
    /// gradient would be `0/0`.
    pub fn full_gradient(&self, m: &LabelMatrix, l2: f64) -> Result<Vec<f64>, CoreError> {
        self.full_gradient_path(m, l2, false, 1)
    }

    /// [`GenerativeModel::full_gradient`] with the row layout forced and
    /// a worker count. Exposed so the equivalence proptest can assert
    /// both layouts produce bit-identical gradients.
    pub fn full_gradient_path(
        &self,
        m: &LabelMatrix,
        l2: f64,
        use_active_index: bool,
        num_threads: usize,
    ) -> Result<Vec<f64>, CoreError> {
        self.check(m, 1, 1)?; // shape only: there is no schedule here
        let index = use_active_index.then(|| m.active_index());
        let mut buffers = GradBuffers::new(self.alpha.len(), m.num_examples());
        buffers.batch.extend(0..m.num_examples());
        let mut grad = vec![0.0; self.dim()];
        self.grad_batch(m, index.as_ref(), l2, num_threads, &mut buffers, &mut grad);
        Ok(grad)
    }

    /// Fit the model to the observed label matrix by mini-batch gradient
    /// descent on `−log P(Λ)` — the sampling-free procedure of §5.2.
    pub fn fit(&mut self, m: &LabelMatrix, cfg: &TrainConfig) -> Result<TrainReport, CoreError> {
        self.fit_observed(m, cfg, None)
    }

    /// [`GenerativeModel::fit`] with an optional telemetry sink.
    ///
    /// When `telemetry` is provided: per-step latency goes to the
    /// `obs/train/step_us` histogram and consumed rows to the
    /// `obs/train/rows` counter — both buffered in a thread-local
    /// [`drybell_obs::LocalShard`] and flushed at epoch boundaries, so
    /// the per-step cost is two plain memory writes. Each epoch emits a
    /// `train_epoch` journal event and the run closes with a `train`
    /// event. Full-data NLL at epoch boundaries (an extra pass each) is
    /// opt-in via [`TrainConfig::epoch_nll_every`]; the final epoch's
    /// NLL is always reported, reusing the end-of-run pass.
    pub fn fit_observed(
        &mut self,
        m: &LabelMatrix,
        cfg: &TrainConfig,
        telemetry: Option<&drybell_obs::Telemetry>,
    ) -> Result<TrainReport, CoreError> {
        self.check(m, cfg.steps, cfg.batch_size)?;
        let mut state = self.begin_incremental(cfg)?;
        let _span = telemetry.map(|t| t.span("train/fit"));
        if let Some(t) = telemetry {
            let threads = cfg.num_threads.max(1);
            t.metrics().gauge("obs/train/threads").set(threads as i64);
        }
        let watch = Watch {
            record_every: cfg.record_every,
            epoch_nll_every: cfg.epoch_nll_every,
            telemetry,
        };
        let report = self.train(m, cfg, &mut state.opt, Some(cfg.seed), watch)?;
        if let Some(journal) = telemetry.and_then(drybell_obs::Telemetry::journal) {
            report.emit_to(journal);
        }
        Ok(report)
    }

    /// [`train::validate`] for this model on `m`.
    fn check(&self, m: &LabelMatrix, steps: usize, batch_size: usize) -> Result<(), CoreError> {
        train::validate(
            m.num_examples(),
            m.num_lfs(),
            self.alpha.len(),
            steps,
            batch_size,
        )
    }

    /// The part `fit` and `fit_incremental` share: build the active index
    /// if the matrix and the schedule call for one, and run the optimiser
    /// loop from the current parameters — over shuffled
    /// epochs if given a seed, in row order if not.
    fn train(
        &mut self,
        m: &LabelMatrix,
        cfg: &TrainConfig,
        opt: &mut OptimState,
        shuffle_seed: Option<u64>,
        watch: Watch<'_>,
    ) -> Result<TrainReport, CoreError> {
        let sampler = Sampler::new(m.num_examples(), cfg.batch_size, shuffle_seed);
        let draws = cfg.steps.saturating_mul(sampler.batch_len);
        let index = (draws >= ACTIVE_INDEX_MIN_VISITS.saturating_mul(m.num_examples())
            && m.vote_density() < ACTIVE_INDEX_MAX_DENSITY)
            .then(|| m.active_index());
        // Workers for gradient accumulation and full-data NLL scans.
        let threads = cfg.num_threads.max(1);
        let mut buffers = GradBuffers::new(self.alpha.len(), sampler.batch_len);
        train::run(
            self,
            opt,
            sampler,
            cfg.steps,
            watch,
            |model, sampler, grad| {
                buffers.batch.clear();
                buffers.batch.extend(sampler.batch());
                model.grad_batch(m, index.as_ref(), cfg.l2, threads, &mut buffers, grad);
            },
            |model| model.nll_threads(m, threads),
        )
    }

    /// Start an incremental (streaming) training run: perform the same
    /// one-time initialization [`GenerativeModel::fit`] does — class
    /// prior from `cfg`, `α` reset to `init_alpha`, `β` to zero — and
    /// return fresh optimizer state for [`GenerativeModel::fit_incremental`]
    /// to carry across arriving mini-batches.
    pub fn begin_incremental(&mut self, cfg: &TrainConfig) -> Result<IncrementalState, CoreError> {
        train::validate_schedule(cfg.steps, cfg.batch_size)?;
        self.eta = train::prior_log_odds(cfg.class_prior)?;
        self.learn_prior = cfg.learn_class_prior;
        self.alpha.fill(cfg.init_alpha);
        self.beta.fill(0.0);
        let dim = self.dim();
        Ok(IncrementalState {
            opt: OptimState::new(cfg.optimizer, dim),
            dim,
            steps: 0,
            rows: 0,
        })
    }

    /// Fold one arriving mini-batch (shard) of label-matrix rows into the
    /// model, warm-starting from the current parameters and the carried
    /// optimizer moments instead of refitting from scratch.
    ///
    /// Takes `cfg.steps` gradient steps over `m`'s rows in **fixed row
    /// order** — batch `k` is rows `[k·B, (k+1)·B)` modulo the shard,
    /// wrapping with no reshuffle — so the incremental trajectory is
    /// deterministic: replaying the same shard sequence through the same
    /// state reproduces parameters byte-for-byte (no RNG is involved,
    /// unlike `fit`'s shuffled epochs). `cfg.optimizer` and
    /// `cfg.init_alpha`/`cfg.class_prior` are only honored by
    /// [`GenerativeModel::begin_incremental`]; this call uses the carried
    /// optimizer state and current parameters.
    ///
    /// Returns a [`TrainReport`] scoped to this fold: `final_nll` is the
    /// mean NLL over **this shard**, and one [`EpochStat`] is closed per
    /// completed pass over the shard's rows.
    pub fn fit_incremental(
        &mut self,
        m: &LabelMatrix,
        cfg: &TrainConfig,
        state: &mut IncrementalState,
    ) -> Result<TrainReport, CoreError> {
        self.check(m, cfg.steps, cfg.batch_size)?;
        if state.dim != self.dim() {
            return Err(CoreError::LengthMismatch {
                left: state.dim,
                right: self.dim(),
            });
        }
        let report = self.train(m, cfg, &mut state.opt, None, Watch::default())?;
        state.steps += report.steps;
        state.rows += report.rows;
        Ok(report)
    }
}

impl Params for GenerativeModel {
    /// `[α_0..α_n, β_0..β_n, η]`.
    fn dim(&self) -> usize {
        2 * self.alpha.len() + 1
    }

    fn pack(&self, out: &mut [f64]) {
        let n = self.alpha.len();
        out[..n].copy_from_slice(&self.alpha);
        out[n..2 * n].copy_from_slice(&self.beta);
        out[2 * n] = self.eta;
    }

    fn unpack(&mut self, params: &[f64]) {
        let n = self.alpha.len();
        self.alpha.copy_from_slice(&params[..n]);
        self.beta.copy_from_slice(&params[n..2 * n]);
        if self.learn_prior {
            self.eta = params[2 * n];
        }
    }
}

/// Subtract one row's data term from a `[∂α_0..∂α_n, ∂β_0..∂β_n, …]`
/// accumulator: `w·λ_ij` from `∂α_j` and 1 from `∂β_j`, for each
/// non-abstain entry. `w` is the expected label the trainer holds for the
/// row — `2p_i − 1` analytically, the chain average `ȳ_i` under Gibbs.
pub(crate) fn scatter_votes(
    entries: impl Iterator<Item = (usize, i8)>,
    w: f64,
    n: usize,
    acc: &mut [f64],
) {
    entries.for_each(|(j, l)| {
        acc[j] -= w * f64::from(l);
        acc[n + j] -= 1.0;
    });
}

/// [`scatter_votes`] for a dense row, across every column with no
/// compare: each `∂α_j` loses the product its vote selects — for an
/// abstain a literal `+0.0`, which changes no sum — and each column's
/// vote count gains 0 or 1.
fn scatter_row(row: &[i8], w: f64, grad: &mut [f64], votes: &mut [u32]) {
    // Indexed like `LfCache::terms`; looked up rather than converted and
    // multiplied per cell, which measured a third slower.
    let products = [0.0, w * f64::from(1i8), 0.0, w * f64::from(-1i8)];
    for (d_alpha, &l) in grad.iter_mut().zip(row) {
        *d_alpha -= products[usize::from(l as u8 & 3)];
    }
    for (votes, &l) in votes.iter_mut().zip(row) {
        *votes += u32::from(l != 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force joint `[P(Λ_i, Y=+1), P(Λ_i, Y=−1)]` of one row, computed
    /// directly from the probabilistic definition of the model, without any
    /// of the log-space shortcuts.
    fn brute_force_joint(row: &[i8], alpha: &[f64], beta: &[f64], eta: f64) -> [f64; 2] {
        let pi_pos = sigmoid(eta);
        [(1i8, pi_pos), (-1i8, 1.0 - pi_pos)].map(|(y, pi)| {
            let mut p = pi;
            for (j, &l) in row.iter().enumerate() {
                let a = (alpha[j] + beta[j]).exp();
                let b = (-alpha[j] + beta[j]).exp();
                let d = a + b + 1.0;
                p *= match l {
                    0 => 1.0 / d,
                    l if l == y => a / d,
                    _ => b / d,
                };
            }
            p
        })
    }

    /// Brute-force marginal NLL: the mean of `−log Σ_y` [`brute_force_joint`].
    fn brute_force_nll(m: &LabelMatrix, alpha: &[f64], beta: &[f64], eta: f64) -> f64 {
        let mut total = 0.0;
        for row in m.rows() {
            let [pos, neg] = brute_force_joint(row, alpha, beta, eta);
            total -= (pos + neg).ln();
        }
        total / m.num_examples() as f64
    }

    fn random_matrix(m: usize, n: usize, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(m * n);
        for _ in 0..m * n {
            data.push([-1i8, 0, 0, 1][rng.gen_range(0..4)]);
        }
        LabelMatrix::from_raw(n, data).unwrap()
    }

    #[test]
    fn nll_matches_brute_force_marginalization() {
        let m = random_matrix(40, 5, 7);
        let mut model = GenerativeModel::new(5, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let alpha: Vec<f64> = (0..5).map(|_| rng.gen_range(-1.0..1.5)).collect();
        let beta: Vec<f64> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let eta = 0.3;
        model.set_params(alpha.clone(), beta.clone(), eta);
        let fast = model.nll(&m).unwrap();
        let slow = brute_force_nll(&m, &alpha, &beta, eta);
        assert!((fast - slow).abs() < 1e-10, "fast={fast} slow={slow}");
        // The posterior is the same product normalised over y.
        let proba = model.predict_proba(&m);
        for (i, row) in m.rows().enumerate() {
            let [pos, neg] = brute_force_joint(row, &alpha, &beta, eta);
            let want = pos / (pos + neg);
            for got in [model.posterior(row), proba[i]] {
                assert!((got - want).abs() < 1e-12, "row {i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let m = random_matrix(25, 4, 3);
        let l2 = 0.01;
        // Checked at hand-set parameters and at the point one incremental
        // fold reaches, on both row layouts.
        let mut folded = GenerativeModel::new(4, 0.0);
        let fold_cfg = TrainConfig {
            steps: 12,
            batch_size: 10,
            learn_class_prior: true,
            class_prior: 0.4,
            ..TrainConfig::default()
        };
        let mut state = folded.begin_incremental(&fold_cfg).unwrap();
        folded.fit_incremental(&m, &fold_cfg, &mut state).unwrap();
        let points = [
            (vec![0.4, -0.2, 0.9, 0.1], vec![0.2, -0.5, 0.0, 0.7], -0.4),
            (folded.alpha.clone(), folded.beta.clone(), folded.eta),
        ];
        let h = 1e-6;
        let f = |al: &[f64], be: &[f64], et: f64| {
            let l2_term: f64 = al.iter().chain(be).map(|p| 0.5 * l2 * p * p).sum();
            brute_force_nll(&m, al, be, et) + l2_term
        };
        for ((alpha, beta, eta), use_active_index) in points
            .into_iter()
            .flat_map(|point| [(point.clone(), false), (point, true)])
        {
            let mut model = GenerativeModel::new(4, 0.0);
            model.set_params(alpha.clone(), beta.clone(), eta);
            model.learn_prior = true;
            let grad = model
                .full_gradient_path(&m, l2, use_active_index, 1)
                .unwrap();
            for j in 0..4 {
                let mut ap = alpha.clone();
                ap[j] += h;
                let mut am = alpha.clone();
                am[j] -= h;
                let fd = (f(&ap, &beta, eta) - f(&am, &beta, eta)) / (2.0 * h);
                assert!(
                    (grad[j] - fd).abs() < 1e-5,
                    "alpha[{j}]: {} vs {fd}",
                    grad[j]
                );

                let mut bp = beta.clone();
                bp[j] += h;
                let mut bm = beta.clone();
                bm[j] -= h;
                let fd = (f(&alpha, &bp, eta) - f(&alpha, &bm, eta)) / (2.0 * h);
                assert!(
                    (grad[4 + j] - fd).abs() < 1e-5,
                    "beta[{j}]: {} vs {fd}",
                    grad[4 + j]
                );
            }
            let fd = (f(&alpha, &beta, eta + h) - f(&alpha, &beta, eta - h)) / (2.0 * h);
            assert!((grad[8] - fd).abs() < 1e-5, "eta: {} vs {fd}", grad[8]);
        }
    }

    /// Generate a planted-truth dataset: true labels Y, then each LF votes
    /// with its own propensity and accuracy.
    fn planted(
        m: usize,
        accs: &[f64],
        props: &[f64],
        pos_rate: f64,
        seed: u64,
    ) -> (LabelMatrix, Vec<Label>) {
        let n = accs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mat = LabelMatrix::with_capacity(n, m);
        let mut gold = Vec::with_capacity(m);
        for _ in 0..m {
            let y = if rng.gen_bool(pos_rate) {
                Label::Positive
            } else {
                Label::Negative
            };
            let mut row = Vec::with_capacity(n);
            for j in 0..n {
                let v = if !rng.gen_bool(props[j]) {
                    0
                } else if rng.gen_bool(accs[j]) {
                    y.as_i8()
                } else {
                    -y.as_i8()
                };
                row.push(v);
            }
            mat.push_raw_row(&row).unwrap();
            gold.push(y);
        }
        (mat, gold)
    }

    /// Slice a matrix's rows `[lo, hi)` into a standalone shard matrix.
    fn row_slice(m: &LabelMatrix, lo: usize, hi: usize) -> LabelMatrix {
        let mut out = LabelMatrix::with_capacity(m.num_lfs(), hi - lo);
        for (i, row) in m.rows().enumerate() {
            if i >= lo && i < hi {
                out.push_raw_row(row).unwrap();
            }
        }
        out
    }

    #[test]
    fn incremental_replay_is_byte_identical() {
        let accs = [0.9, 0.7, 0.8];
        let props = [0.7, 0.5, 0.6];
        let (mat, _) = planted(600, &accs, &props, 0.5, 9);
        let shards: Vec<LabelMatrix> = (0..3)
            .map(|k| row_slice(&mat, k * 200, (k + 1) * 200))
            .collect();
        let cfg = TrainConfig {
            steps: 40,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let run = || {
            let mut model = GenerativeModel::new(3, cfg.init_alpha);
            let mut state = model.begin_incremental(&cfg).unwrap();
            for shard in &shards {
                model.fit_incremental(shard, &cfg, &mut state).unwrap();
            }
            (model, state)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        let bits = |m: &GenerativeModel| -> Vec<u64> {
            m.alphas()
                .iter()
                .chain(m.betas())
                .chain(std::iter::once(&m.eta()))
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "replayed stream must be byte-identical");
        assert_eq!(sa.steps(), 120);
        assert_eq!(sa.steps(), sb.steps());
        assert_eq!(sa.rows(), sb.rows());
    }

    #[test]
    fn incremental_warm_start_matches_batch_refit_within_tolerance() {
        let accs = [0.9, 0.75, 0.6, 0.85];
        let props = [0.8, 0.5, 0.9, 0.4];
        let (mat, _) = planted(4000, &accs, &props, 0.5, 21);
        // Batch refit over the full matrix.
        let cfg = TrainConfig {
            steps: 3000,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut refit = GenerativeModel::new(4, cfg.init_alpha);
        refit.fit(&mat, &cfg).unwrap();
        // Incremental: the same rows arrive as 8 shards; each fold takes
        // enough fixed-order steps that the stream sees a comparable
        // number of gradient updates in total.
        // Robbins–Monro style decay: fold k runs at lr/(k+1). A constant
        // rate would converge to the *last* shard's sampling-noise
        // optimum; decaying makes the trajectory average across shards
        // and land near the full-data optimum.
        let mut inc = GenerativeModel::new(4, cfg.init_alpha);
        let fold_cfg = TrainConfig {
            steps: 400,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut state = inc.begin_incremental(&fold_cfg).unwrap();
        for k in 0..8 {
            state.set_optimizer(Optimizer::adam(0.05 / (k + 1) as f64));
            let shard = row_slice(&mat, k * 500, (k + 1) * 500);
            inc.fit_incremental(&shard, &fold_cfg, &mut state).unwrap();
        }
        let nll_refit = refit.nll(&mat).unwrap();
        let nll_inc = inc.nll(&mat).unwrap();
        assert!(
            (nll_inc - nll_refit).abs() < 0.02,
            "incremental NLL {nll_inc} vs refit {nll_refit}"
        );
        for (j, (a, b)) in refit
            .learned_accuracies()
            .iter()
            .zip(inc.learned_accuracies())
            .enumerate()
        {
            // Looser than the NLL gap: per-LF accuracy carries the
            // shard-level sampling noise a streaming pass cannot avg out.
            assert!(
                (a - b).abs() < 0.075,
                "lf {j}: refit accuracy {a} vs incremental {b}"
            );
        }
    }

    #[test]
    fn incremental_folds_warm_start_instead_of_resetting() {
        let (mat, _) = planted(400, &[0.9, 0.8], &[0.8, 0.7], 0.5, 5);
        let cfg = TrainConfig {
            steps: 50,
            batch_size: 64,
            ..TrainConfig::default()
        };
        let mut model = GenerativeModel::new(2, cfg.init_alpha);
        let mut state = model.begin_incremental(&cfg).unwrap();
        model.fit_incremental(&mat, &cfg, &mut state).unwrap();
        let after_first = model.alphas().to_vec();
        assert!(
            after_first
                .iter()
                .any(|&a| (a - cfg.init_alpha).abs() > 1e-6),
            "first fold must move the parameters"
        );
        model.fit_incremental(&mat, &cfg, &mut state).unwrap();
        assert_ne!(
            model.alphas(),
            &after_first[..],
            "second fold must continue from the first, not reset"
        );
        assert_eq!(state.steps(), 100);
        // A shard with the wrong LF count is rejected.
        let bad = random_matrix(10, 3, 1);
        assert!(matches!(
            model.fit_incremental(&bad, &cfg, &mut state),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn recovers_planted_accuracies_without_gold_labels() {
        let accs = [0.9, 0.75, 0.6, 0.85, 0.95];
        let props = [0.8, 0.5, 0.9, 0.4, 0.6];
        let (mat, _gold) = planted(16000, &accs, &props, 0.5, 42);
        let mut model = GenerativeModel::new(5, 0.7);
        let cfg = TrainConfig {
            steps: 6000,
            batch_size: 128,
            optimizer: Optimizer::adam(0.05),
            ..TrainConfig::default()
        };
        model.fit(&mat, &cfg).unwrap();
        let learned = model.learned_accuracies();
        for (j, (&la, &ta)) in learned.iter().zip(&accs).enumerate() {
            assert!(
                (la - ta).abs() < 0.12,
                "LF {j}: learned {la:.3} vs true {ta:.3}"
            );
        }
        let lp = model.learned_propensities();
        for (j, (&l, &t)) in lp.iter().zip(&props).enumerate() {
            assert!((l - t).abs() < 0.05, "prop {j}: {l:.3} vs {t:.3}");
        }
    }

    #[test]
    fn posteriors_beat_majority_vote_on_skewed_accuracies() {
        // One excellent LF vs three weak ones that often gang up on it:
        // majority vote follows the mob, the generative model learns to
        // trust the good source.
        let accs = [0.95, 0.58, 0.58, 0.58];
        let props = [0.9, 0.9, 0.9, 0.9];
        let (mat, gold) = planted(6000, &accs, &props, 0.5, 9);
        let mut model = GenerativeModel::new(4, 0.7);
        model
            .fit(
                &mat,
                &TrainConfig {
                    steps: 2500,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let post = model.predict_proba(&mat);
        let model_acc = post
            .iter()
            .zip(&gold)
            .filter(|(p, y)| Label::from_prob(**p) == **y)
            .count() as f64
            / gold.len() as f64;
        let mv_acc = mat
            .rows()
            .zip(&gold)
            .filter(|(row, y)| {
                let s: i32 = row.iter().map(|&v| i32::from(v)).sum();
                s != 0 && (s > 0) == (**y == Label::Positive)
            })
            .count() as f64
            / gold.len() as f64;
        assert!(
            model_acc > mv_acc + 0.02,
            "model {model_acc:.3} should beat majority vote {mv_acc:.3}"
        );
    }

    #[test]
    fn fit_reports_epoch_accounting() {
        // 200 examples, batch 64 → ~3.2 steps per epoch; 20 steps cover
        // several epochs.
        let accs = [0.9, 0.7];
        let props = [0.8, 0.8];
        let (mat, _) = planted(200, &accs, &props, 0.5, 7);
        let mut model = GenerativeModel::new(2, 0.7);
        let cfg = TrainConfig {
            steps: 20,
            batch_size: 64,
            ..TrainConfig::default()
        };
        let report = model.fit(&mat, &cfg).unwrap();
        assert!(report.epochs.len() >= 2, "expected multiple epochs");
        let total_steps: usize = report.epochs.iter().map(|e| e.steps).sum();
        assert_eq!(total_steps, 20);
        for e in &report.epochs {
            assert!(e.mean_grad_norm.is_finite() && e.mean_grad_norm >= 0.0);
            assert!(e.mean_step_norm.is_finite() && e.mean_step_norm > 0.0);
            assert!(e.seconds >= 0.0);
            assert!(e.nll.is_none(), "unobserved runs skip per-epoch NLL");
        }
        assert_eq!(report.epochs[0].epoch, 0);
        assert_eq!(report.epochs.last().unwrap().epoch, report.epochs.len() - 1);
    }

    #[test]
    fn observed_fit_emits_epochs_and_journal() {
        let accs = [0.9, 0.7];
        let props = [0.8, 0.8];
        let (mat, _) = planted(200, &accs, &props, 0.5, 7);
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        let telemetry = drybell_obs::Telemetry::with_journal(journal);
        let cfg = TrainConfig {
            steps: 20,
            batch_size: 64,
            epoch_nll_every: 1,
            ..TrainConfig::default()
        };
        let mut model = GenerativeModel::new(2, 0.7);
        let report = model.fit_observed(&mat, &cfg, Some(&telemetry)).unwrap();
        // Observed runs fill in per-epoch NLL, and it should not blow up
        // as training proceeds.
        let nlls: Vec<f64> = report.epochs.iter().map(|e| e.nll.unwrap()).collect();
        assert!(nlls.iter().all(|v| v.is_finite()));
        assert!(nlls.last().unwrap() <= &(nlls[0] + 1e-6));
        // Metrics: one step_us sample per gradient step, and the span set.
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.histogram("obs/train/step_us").unwrap().count(), 20);
        assert!(telemetry.spans().snapshot().get("train/fit").is_some());
        // Journal: one train_epoch per epoch plus the closing train event.
        let events = buffer.parsed_lines().unwrap();
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(|k| k.as_str()))
            .collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "train_epoch").count(),
            report.epochs.len()
        );
        assert_eq!(kinds.last(), Some(&"train"));
        // Deterministic training: observed and unobserved runs converge to
        // the same parameters.
        let mut plain = GenerativeModel::new(2, 0.7);
        plain.fit(&mat, &cfg).unwrap();
        for (a, b) in model.alphas().iter().zip(plain.alphas()) {
            assert!((a - b).abs() < 1e-12, "telemetry must not perturb training");
        }
    }

    #[test]
    fn abstain_only_row_returns_prior() {
        let mut model = GenerativeModel::new(3, 0.5);
        model.set_params(vec![0.5; 3], vec![0.0; 3], 0.0);
        assert!((model.posterior(&[0, 0, 0]) - 0.5).abs() < 1e-12);
        model.set_params(vec![0.5; 3], vec![0.0; 3], 1.2);
        assert!((model.posterior(&[0, 0, 0]) - sigmoid(1.2)).abs() < 1e-12);
    }

    #[test]
    fn posterior_flips_with_votes_under_uniform_prior() {
        let mut model = GenerativeModel::new(3, 0.0);
        model.set_params(vec![0.9, 0.3, 0.6], vec![0.1, -0.2, 0.0], 0.0);
        let rows: [[i8; 3]; 3] = [[1, -1, 0], [1, 1, 1], [0, -1, 1]];
        for row in rows {
            let flipped: Vec<i8> = row.iter().map(|v| -v).collect();
            let p = model.posterior(&row);
            let q = model.posterior(&flipped);
            assert!((p + q - 1.0).abs() < 1e-10, "p={p} q={q}");
        }
    }

    #[test]
    fn fit_validates_inputs() {
        let mat = random_matrix(10, 3, 0);
        let mut model = GenerativeModel::new(4, 0.7);
        assert!(matches!(
            model.fit(&mat, &TrainConfig::default()),
            Err(CoreError::LengthMismatch { .. })
        ));
        let mut model = GenerativeModel::new(3, 0.7);
        let bad = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(matches!(
            model.fit(&mat, &bad),
            Err(CoreError::BadConfig(_))
        ));
        // Regression: steps == 0 used to "succeed" and report a final
        // NLL from untrained parameters; now it is rejected up front.
        let bad = TrainConfig {
            steps: 0,
            ..TrainConfig::default()
        };
        assert!(matches!(
            model.fit(&mat, &bad),
            Err(CoreError::BadConfig(_))
        ));
        let bad = TrainConfig {
            class_prior: 1.0,
            ..TrainConfig::default()
        };
        assert!(matches!(
            model.fit(&mat, &bad),
            Err(CoreError::BadConfig(_))
        ));
        let empty = LabelMatrix::new(3);
        assert!(matches!(
            model.fit(&empty, &TrainConfig::default()),
            Err(CoreError::EmptyMatrix)
        ));
        // A stream is refused the same schedules and priors before its
        // first shard arrives.
        for bad in [
            TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
            TrainConfig {
                steps: 0,
                ..TrainConfig::default()
            },
            TrainConfig {
                class_prior: 0.0,
                ..TrainConfig::default()
            },
        ] {
            assert!(matches!(
                model.begin_incremental(&bad),
                Err(CoreError::BadConfig(_))
            ));
        }
    }

    #[test]
    fn empty_inputs_cannot_produce_nan_gradients() {
        // Regression: `grad_batch` divided by `batch.len()` unguarded, so
        // a zero-row matrix turned the gradient into NaNs instead of an
        // error. The empty-batch guard + the typed error close both.
        let model = GenerativeModel::new(3, 0.7);
        let empty = LabelMatrix::new(3);
        assert!(matches!(
            model.full_gradient(&empty, 1e-3),
            Err(CoreError::EmptyMatrix)
        ));
        let mat = random_matrix(8, 3, 2);
        let grad = model.full_gradient(&mat, 1e-3).unwrap();
        assert!(grad.iter().all(|g| g.is_finite()));
        // Shape mismatches are typed errors too, not index panics.
        let model = GenerativeModel::new(5, 0.7);
        assert!(matches!(
            model.full_gradient(&mat, 1e-3),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rows_accounting_matches_steps_times_batch() {
        let accs = [0.9, 0.7];
        let props = [0.8, 0.8];
        let (mat, _) = planted(500, &accs, &props, 0.5, 3);
        let mut model = GenerativeModel::new(2, 0.7);
        let report = model
            .fit(
                &mat,
                &TrainConfig {
                    steps: 10,
                    batch_size: 32,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.rows, 10 * 32);
        assert!(report.rows_per_sec > 0.0);
    }

    #[test]
    fn learned_class_prior_tracks_skew() {
        let accs = [0.85, 0.8, 0.8];
        let props = [0.9, 0.9, 0.9];
        let (mat, _) = planted(6000, &accs, &props, 0.2, 11);
        let mut model = GenerativeModel::new(3, 0.7);
        let cfg = TrainConfig {
            steps: 3000,
            learn_class_prior: true,
            ..TrainConfig::default()
        };
        model.fit(&mat, &cfg).unwrap();
        let prior = model.class_prior();
        assert!(
            (prior - 0.2).abs() < 0.1,
            "learned prior {prior:.3}, planted 0.2"
        );
    }

    #[test]
    fn loss_history_is_decreasing_overall() {
        let accs = [0.8, 0.7, 0.9];
        let props = [0.7, 0.7, 0.7];
        let (mat, _) = planted(2000, &accs, &props, 0.5, 5);
        let mut model = GenerativeModel::new(3, 0.2);
        let cfg = TrainConfig {
            steps: 800,
            record_every: 100,
            ..TrainConfig::default()
        };
        let report = model.fit(&mat, &cfg).unwrap();
        assert!(report.loss_history.len() >= 2);
        let first = report.loss_history.first().unwrap().1;
        let last = report.loss_history.last().unwrap().1;
        assert!(last < first, "NLL should drop: {first} -> {last}");
        assert!(report.final_nll.is_finite());
        assert!(report.steps_per_sec > 0.0);
    }
}
