//! The one mini-batch optimiser loop behind every label-model trainer.
//!
//! §5.2 describes a single sampling-free optimiser into which likelihoods
//! are "plugged in as model functions". The label models differ only in
//! their per-row joint `P(Λ_i, Y)`, so each supplies what is its own — its
//! flat parameter packing ([`Params`]) and a mini-batch gradient closure —
//! and the rest lives here once: input checks, the batch [`Sampler`], and
//! the step loop [`run`]. Dispatch is static (monomorphised per model), so
//! the loop adds no indirection or allocation to a per-row path.

use crate::error::CoreError;
use crate::generative::{EpochStat, TrainReport};
use crate::optim::OptimState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The shape and schedule checks every trainer runs before it touches its
/// parameters: a non-empty matrix with the model's LF count, then
/// [`validate_schedule`].
pub(crate) fn validate(
    rows: usize,
    data_lfs: usize,
    model_lfs: usize,
    steps: usize,
    batch_size: usize,
) -> Result<(), CoreError> {
    if rows == 0 {
        return Err(CoreError::EmptyMatrix);
    }
    if data_lfs != model_lfs {
        return Err(CoreError::LengthMismatch {
            left: data_lfs,
            right: model_lfs,
        });
    }
    validate_schedule(steps, batch_size)
}

/// At least one step, at least one row per step. On its own where there is
/// no matrix yet (`begin_incremental`).
pub(crate) fn validate_schedule(steps: usize, batch_size: usize) -> Result<(), CoreError> {
    if steps == 0 {
        return Err(CoreError::BadConfig("steps must be >= 1".into()));
    }
    if batch_size == 0 {
        return Err(CoreError::BadConfig("batch_size must be >= 1".into()));
    }
    Ok(())
}

/// The log-odds `η` of a fixed class prior `P(Y=+1)`, which must lie in
/// the open interval (0, 1): anything else (NaN included) has a NaN or
/// infinite `η` that would poison every posterior.
pub(crate) fn prior_log_odds(class_prior: f64) -> Result<f64, CoreError> {
    if !(class_prior > 0.0 && class_prior < 1.0) {
        return Err(CoreError::BadConfig(
            "class_prior must be in the open interval (0, 1)".into(),
        ));
    }
    Ok((class_prior / (1.0 - class_prior)).ln())
}

/// A model's learnable parameters as the flat vector the optimiser updates.
pub(crate) trait Params {
    /// Length of the flat vector.
    fn dim(&self) -> usize;
    /// Write the current parameters into `out` (`dim()` long).
    fn pack(&self, out: &mut [f64]);
    /// Adopt updated parameters (`dim()` long, already checked finite).
    fn unpack(&mut self, params: &[f64]);
}

/// Draws row indices in epochs: one pass over every row, then a wrap.
pub(crate) struct Sampler {
    order: Vec<usize>,
    cursor: usize,
    /// Indices per step: the batch size, capped at the row count.
    pub(crate) batch_len: usize,
    /// Shuffles the epochs. Exposed so that a trainer with randomness of
    /// its own (Gibbs) keeps it interleaved with them on one stream.
    pub(crate) rng: StdRng,
    reshuffle: bool,
}

impl Sampler {
    /// With a seed: a shuffled order, reshuffled at every wrap. Without:
    /// rows in index order, wrapping as they are — the RNG is never read,
    /// so the trajectory is a pure function of the data.
    pub(crate) fn new(rows: usize, batch_size: usize, shuffle_seed: Option<u64>) -> Sampler {
        let mut sampler = Sampler {
            order: (0..rows).collect(),
            cursor: 0,
            batch_len: batch_size.min(rows),
            rng: StdRng::seed_from_u64(shuffle_seed.unwrap_or(0)),
            reshuffle: shuffle_seed.is_some(),
        };
        if sampler.reshuffle {
            sampler.order.shuffle(&mut sampler.rng);
        }
        sampler
    }

    /// Draw one row index.
    #[expect(
        clippy::indexing_slicing,
        reason = "cursor was just stepped from below order.len(), and validate() rejects zero rows"
    )]
    pub(crate) fn next_index(&mut self) -> usize {
        if self.cursor == self.order.len() {
            if self.reshuffle {
                self.order.shuffle(&mut self.rng);
            }
            self.cursor = 0;
        }
        self.cursor += 1;
        self.order[self.cursor - 1]
    }

    /// Draw one step's `batch_len` indices.
    pub(crate) fn batch(&mut self) -> impl Iterator<Item = usize> + '_ {
        (0..self.batch_len).map(move |_| self.next_index())
    }
}

/// What [`run`] records beyond the parameters; the default is nothing.
#[derive(Default)]
pub(crate) struct Watch<'a> {
    /// Sample the full-data NLL every this many steps (0 = never).
    pub(crate) record_every: usize,
    /// With telemetry, price every this-many-th epoch boundary with the
    /// full-data NLL (0 = never).
    pub(crate) epoch_nll_every: usize,
    /// Sink for per-step latency and consumed rows.
    pub(crate) telemetry: Option<&'a drybell_obs::Telemetry>,
}

/// An epoch with no steps yet. While it is open its norm fields hold sums.
fn open_epoch(epoch: usize) -> EpochStat {
    EpochStat {
        epoch,
        steps: 0,
        mean_grad_norm: 0.0,
        mean_step_norm: 0.0,
        seconds: 0.0,
        nll: None,
    }
}

/// Finish the open epoch (sums become means) and open the next.
fn close_epoch(open: &mut EpochStat, since: &mut Instant, nll: Option<f64>) -> EpochStat {
    let closed = EpochStat {
        mean_grad_norm: open.mean_grad_norm / open.steps as f64,
        mean_step_norm: open.mean_step_norm / open.steps as f64,
        seconds: since.elapsed().as_secs_f64(),
        nll,
        ..*open
    };
    *open = open_epoch(open.epoch + 1);
    *since = Instant::now();
    closed
}

/// Take `steps` mini-batch steps on `model`, then price it with `full_nll`
/// (the mean NLL over the whole matrix).
///
/// Each step has `gradient` draw its batch from the sampler — exactly
/// `batch_len` indices — and fill the mean gradient, applies `opt`, fails
/// with [`CoreError::Diverged`] on a non-finite parameter (the model keeps
/// its last finite point), and writes the update back.
pub(crate) fn run<M: Params>(
    model: &mut M,
    opt: &mut OptimState,
    mut sampler: Sampler,
    steps: usize,
    watch: Watch<'_>,
    mut gradient: impl FnMut(&M, &mut Sampler, &mut [f64]),
    full_nll: impl Fn(&M) -> Result<f64, CoreError>,
) -> Result<TrainReport, CoreError> {
    let mut params = vec![0.0; model.dim()];
    let mut prev_params = params.clone();
    let mut grad = params.clone();
    // Per-step observations buffer in a thread-local shard and fold into
    // the shared registry only at epoch boundaries — the loop writes
    // plain memory, no atomics. Building the layout registers both
    // instruments even if no step records into them.
    let mut shard = watch.telemetry.map(|t| {
        let mut layout = drybell_obs::ShardLayout::new();
        let step_slot = layout.slot_histogram(t.metrics().histogram("obs/train/step_us"));
        let rows_slot = layout.slot_counter(t.metrics().counter("obs/train/rows"));
        (Arc::new(layout).shard(), step_slot, rows_slot, t)
    });
    let mut epochs = Vec::new();
    let mut loss_history = Vec::new();
    let mut epoch = open_epoch(0);
    let start = Instant::now();
    let mut epoch_start = start;
    for step in 0..steps {
        let step_start = shard.as_ref().map(|_| Instant::now());
        if sampler.cursor + sampler.batch_len > sampler.order.len() && epoch.steps > 0 {
            // This step's batch crosses an epoch boundary. Pricing the
            // boundary costs a full pass over the matrix, so it is opt-in
            // (the last epoch gets the end-of-run NLL for free below).
            let nll = if watch.telemetry.is_some()
                && watch.epoch_nll_every > 0
                && epochs.len().is_multiple_of(watch.epoch_nll_every)
            {
                Some(full_nll(model)?)
            } else {
                None
            };
            if let Some((s, _, _, t)) = &mut shard {
                s.flush_into(t);
            }
            epochs.push(close_epoch(&mut epoch, &mut epoch_start, nll));
        }
        gradient(model, &mut sampler, &mut grad);
        if let Some((s, _, rows_slot, _)) = &mut shard {
            s.tally(*rows_slot, sampler.batch_len as u64);
        }
        model.pack(&mut params);
        prev_params.copy_from_slice(&params);
        opt.step(&mut params, &grad);
        if params.iter().any(|p| !p.is_finite()) {
            return Err(CoreError::Diverged { step });
        }
        model.unpack(&params);
        epoch.steps += 1;
        epoch.mean_grad_norm += grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        epoch.mean_step_norm += params
            .iter()
            .zip(&prev_params)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        if watch.record_every > 0 && (step % watch.record_every == 0 || step + 1 == steps) {
            loss_history.push((step, full_nll(model)?));
        }
        if let (Some((s, step_slot, ..)), Some(t0)) = (&mut shard, step_start) {
            s.observe_duration(*step_slot, t0.elapsed());
        }
    }
    if epoch.steps > 0 {
        epochs.push(close_epoch(&mut epoch, &mut epoch_start, None));
    }
    if let Some((s, _, _, t)) = &mut shard {
        s.flush_into(t);
    }
    let seconds = start.elapsed().as_secs_f64();
    let final_nll = full_nll(model)?;
    if let (Some(_), Some(last)) = (watch.telemetry, epochs.last_mut()) {
        last.nll = Some(final_nll);
    }
    let rows = steps * sampler.batch_len;
    Ok(TrainReport {
        steps,
        final_nll,
        seconds,
        steps_per_sec: steps as f64 / seconds.max(1e-12),
        rows,
        rows_per_sec: rows as f64 / seconds.max(1e-12),
        loss_history,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_order_wraps_without_reading_the_rng() {
        let mut s = Sampler::new(5, 3, None);
        assert_eq!(s.batch().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(s.batch().collect::<Vec<_>>(), [3, 4, 0]);
        let mut fresh = StdRng::seed_from_u64(0);
        assert_eq!(
            rand::Rng::gen::<u64>(&mut s.rng),
            rand::Rng::gen::<u64>(&mut fresh)
        );
    }

    #[test]
    fn shuffled_epochs_are_permutations_that_differ() {
        // A batch larger than the matrix is capped at one full pass.
        let mut s = Sampler::new(7, 64, Some(3));
        let mut first: Vec<usize> = s.batch().collect();
        let mut second: Vec<usize> = s.batch().collect();
        assert_ne!(first, second, "the wrap reshuffles");
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(first, (0..7).collect::<Vec<_>>());
        assert_eq!(second, first);
    }

    #[test]
    fn validate_checks_shape_before_schedule() {
        assert_eq!(validate(0, 4, 3, 0, 0), Err(CoreError::EmptyMatrix));
        assert_eq!(
            validate(9, 4, 3, 0, 0),
            Err(CoreError::LengthMismatch { left: 4, right: 3 })
        );
        for (steps, batch) in [(0, 8), (8, 0)] {
            assert!(matches!(
                validate(9, 3, 3, steps, batch),
                Err(CoreError::BadConfig(_))
            ));
            assert!(validate_schedule(steps, batch).is_err());
        }
        assert_eq!(validate(9, 3, 3, 1, 1), Ok(()));
    }

    #[test]
    fn prior_outside_the_open_unit_interval_is_rejected() {
        for bad in [0.0, 1.0, 1.5, -0.2, f64::NAN] {
            assert!(
                matches!(prior_log_odds(bad), Err(CoreError::BadConfig(_))),
                "{bad}"
            );
        }
        assert_eq!(prior_log_odds(0.5), Ok(0.0));
    }
}
