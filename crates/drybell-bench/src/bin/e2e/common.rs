//! What the four workloads share: the run context, the result they hand
//! back, seeded input helpers, and the timing loops.

use crate::host::{self, WorkDir};
use crate::stats::{self, Reps};
use crate::trace::Tracer;
use drybell_features::hashing::fnv1a64;
use drybell_features::{FeatureSpace, FeatureSpaceId, SpaceRegistry};
use drybell_serving::{
    score_spec_batch, BatchScratch, ExportedModel, ModelSpec, ScoreInput, ServingRegistry,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads every parallel call is given: the host the sizes were
/// chosen on has two cores, and the load generators never use more.
pub const WORKERS: usize = 2;

/// How many times each workload's set-up is run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Workload size. `Smoke` is 1/50 of every count and duration, for the
/// in-crate test only — deliberately not a command-line option, so every
/// published number comes from `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes BENCHMARK.json and the README describe.
    Full,
    /// 1/50 size.
    Smoke,
}

impl Size {
    /// `full` scaled to this size (never below `floor`).
    pub fn count(self, full: usize, floor: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 50).max(floor),
        }
    }

    /// A duration scaled to this size.
    pub fn seconds(self, full: f64) -> f64 {
        match self {
            Size::Full => full,
            Size::Smoke => full / 50.0,
        }
    }
}

/// Everything a workload is given.
pub struct Run<'a> {
    /// Inputs are a pure function of this.
    pub seed: u64,
    /// How long to measure for (`--seconds`).
    pub seconds: f64,
    /// Full or smoke.
    pub size: Size,
    /// Records spans on the traced run, nothing otherwise.
    pub tracer: &'a Tracer,
    /// Scratch space inside the checkout.
    pub work: &'a WorkDir,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its evidence.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }

    /// `posteriors` holds exactly `expected` finite values in [0, 1].
    pub fn probabilities(name: &'static str, posteriors: &[f64], expected: usize) -> Check {
        let in_range = |p: &f64| p.is_finite() && (0.0..=1.0).contains(p);
        Check::new(
            name,
            posteriors.len() == expected && posteriors.iter().all(in_range),
            format!("{} posteriors for {expected} examples", posteriors.len()),
        )
    }

    /// `f1` reaches `floor`. Smoke-sized splits hold a handful of positives,
    /// so there the floor is only reported.
    pub fn f1_floor(name: &'static str, f1: f64, floor: f64, size: Size) -> Check {
        Check::new(
            name,
            size == Size::Smoke || f1 >= floor,
            format!("F1 {f1:.4}, floor {floor}"),
        )
    }
}

/// What a workload hands back. The four generic end-to-end values are
/// defined per workload in the README's glossary.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Examples (documents, events or requests) completed per second in the
    /// workload's saturating phase.
    pub examples_per_s: f64,
    /// Process CPU (user + system) per example over that same phase.
    pub cpu_us_per_example: f64,
    /// Median time from an input being due to its result.
    pub result_p50_ms: f64,
    /// The same, at the highest percentile the sample supports.
    pub result_tail_ms: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or were answered degraded.
    pub failed: u64,
    /// Output checks; any failure makes the run incorrect.
    pub checks: Vec<Check>,
    /// FNV-1a checksums of the outputs, printed for diffing two commits.
    pub checksums: Vec<(&'static str, u64)>,
    /// What a reader needs to tell the program from the scheduler.
    pub noise: Vec<(&'static str, String)>,
    /// Per-layer metrics measured by this workload's window (traced run).
    pub layer: BTreeMap<&'static str, f64>,
}

/// Turn any displayable error into the `String` the workloads return.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `build` [`SETUP_REPS`] times, dropping each product before building
/// the next so peak memory stays one set of inputs; keep the last.
pub fn timed_setup<T>(build: impl Fn() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS is at least one"), seconds))
}

/// Wall and CPU seconds of one repetition of a batch window.
#[derive(Debug, Clone, Copy)]
pub struct RepTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system).
    pub cpu_s: f64,
}

/// Fewest repetitions of a batch window: one sample has no median, and a
/// single 13 s window moves by several percent with the host's own speed.
const MIN_REPS: usize = 2;

/// Repeat `rep` (given its index) until the next repetition would not
/// finish inside `seconds`, judging by the median so far; at least
/// [`MIN_REPS`] times, and exactly once at smoke size. Returns the last
/// repetition's output, every repetition's `digest`, and the timings: only
/// one output is alive at a time, so peak memory does not grow with the
/// number of repetitions a faster program fits in.
pub fn timed_reps<T, D>(
    run: &Run<'_>,
    mut rep: impl FnMut(u32) -> Result<T, String>,
    digest: impl Fn(&T) -> D,
) -> Result<(T, Vec<D>, Vec<RepTime>), String> {
    let mut digests = Vec::new();
    let mut times: Vec<RepTime> = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let index = times.len() as u32;
        run.tracer.set_rep(index);
        let cpu_before = host::process_cpu_s()?;
        let start = Instant::now();
        let out = run.tracer.timed("bench.rep", || rep(index))?;
        times.push(RepTime {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_s()? - cpu_before,
        });
        digests.push(digest(&out));
        let walls: Vec<f64> = times.iter().map(|t| t.wall_s).collect();
        let typical = stats::median(&walls).expect("a repetition was just timed");
        let out_of_time = walls.iter().sum::<f64>() + typical > run.seconds;
        if run.size == Size::Smoke || (times.len() >= MIN_REPS && out_of_time) {
            return Ok((out, digests, times));
        }
        last = Some(out);
    }
}

/// Fill the generic end-to-end fields of a batch workload from its
/// repetitions: throughput and CPU from the median repetition, the result
/// latency as the median and (no higher percentile being supported by a
/// handful of repetitions) the slowest repetition.
pub fn batch_end_to_end(out: &mut Outcome, examples: usize, times: &[RepTime]) {
    let walls: Vec<f64> = times.iter().map(|t| t.wall_s).collect();
    let cpus: Vec<f64> = times.iter().map(|t| t.cpu_s).collect();
    let wall = Reps::of(&walls).expect("timed_reps runs at least one repetition");
    let cpu = Reps::of(&cpus).expect("timed_reps runs at least one repetition");
    out.examples_per_s = examples as f64 / wall.median;
    out.cpu_us_per_example = cpu.median * 1e6 / examples as f64;
    out.result_p50_ms = wall.median * 1e3;
    out.result_tail_ms = wall.max * 1e3;
    out.noise.push((
        "window_s",
        format!(
            "reps={} min={:.4} median={:.4} max={:.4}",
            wall.count, wall.min, wall.median, wall.max
        ),
    ));
}

/// A point inside a saturated phase: when, how many examples were complete
/// by then, and the CPU the process had used.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    examples: u64,
    cpu_s: f64,
}

impl Mark {
    /// Mark the present moment, `examples` being complete.
    pub fn now(examples: u64) -> Result<Mark, String> {
        Ok(Mark {
            at: Instant::now(),
            examples,
            cpu_s: host::process_cpu_s()?,
        })
    }
}

/// Throughput and CPU cost of a saturated phase that [`Mark`]s cut into
/// slices.
#[derive(Debug, Clone)]
pub struct PhaseRate {
    /// Examples per second over the whole phase, every slice counted: the
    /// reported rate, so a stall in any slice shows.
    pub per_s: f64,
    /// Process CPU microseconds per example over the whole phase.
    pub cpu_us: f64,
    /// Examples per second of each slice, in order.
    pub slices_per_s: Vec<f64>,
}

impl PhaseRate {
    /// The rates of a phase cut by `marks`; `None` when it completed nothing.
    pub fn of(marks: &[Mark]) -> Option<PhaseRate> {
        let (first, last) = (marks.first()?, marks.last()?);
        let examples = last
            .examples
            .checked_sub(first.examples)
            .filter(|n| *n > 0)? as f64;
        let slices_per_s = marks
            .windows(2)
            .map(|w| {
                let seconds = w[1].at.duration_since(w[0].at).as_secs_f64();
                (w[1].examples - w[0].examples) as f64 / seconds
            })
            .collect();
        Some(PhaseRate {
            per_s: examples / last.at.duration_since(first.at).as_secs_f64(),
            cpu_us: (last.cpu_s - first.cpu_s) * 1e6 / examples,
            slices_per_s,
        })
    }

    /// For the noise record: the slowest, median and fastest slice beside
    /// the whole-phase rate that is reported. Slices far apart say the host
    /// (or the program) changed speed during the phase.
    pub fn noise(&self) -> String {
        let whole = format!("whole_phase_per_s={:.1}", self.per_s);
        match Reps::of(&self.slices_per_s) {
            Some(slices) => format!(
                "slices={} {whole} slice_per_s_min={:.1} median={:.1} max={:.1}",
                slices.count, slices.min, slices.median, slices.max
            ),
            None => whole,
        }
    }
}

/// The front-end's default batch width; the batch kernel is driven with it.
pub const SCORE_BATCH: usize = 64;

/// A registry with one servable feature space, and that space's id.
pub fn serving_registry() -> Result<(ServingRegistry, FeatureSpaceId), String> {
    let mut spaces = SpaceRegistry::new();
    let space = spaces
        .register(FeatureSpace::servable("servable", 10))
        .ok_or("a fresh space registry refused its first space")?;
    Ok((ServingRegistry::new(spaces, 1_000), space))
}

/// Stage `model` as `name` v`version` in a fresh registry, promote it, and
/// hand back the spec the registry now publishes.
pub fn publish(name: &str, version: u32, model: ExportedModel) -> Result<Arc<ModelSpec>, String> {
    let (registry, space) = serving_registry()?;
    let spec = ModelSpec {
        name: name.to_owned(),
        version,
        feature_spaces: vec![space],
        model,
    };
    registry.stage(spec).map_err(err)?;
    registry.promote(name, version).map_err(err)?;
    let cell = registry.epoch_cell(name).map_err(err)?;
    Ok(Arc::clone(cell.pin().spec()))
}

/// Score `inputs` through the batch kernel, [`SCORE_BATCH`] at a time.
pub fn score_in_batches(spec: &ModelSpec, inputs: &[ScoreInput<'_>]) -> Result<Vec<f64>, String> {
    let mut scratch = BatchScratch::default();
    let mut scores = vec![0.0; inputs.len()];
    for (batch, out) in inputs
        .chunks(SCORE_BATCH)
        .zip(scores.chunks_mut(SCORE_BATCH))
    {
        score_spec_batch(spec, batch, &mut scratch, out).map_err(err)?;
    }
    Ok(scores)
}

/// FNV-1a of `bytes`, taken block by block and then over the blocks'
/// digests, so that a 140 MB vote matrix is never copied whole just to be
/// summed. Equal checksums mean byte-identical input.
fn checksum_bytes(bytes: impl Iterator<Item = u8>) -> u64 {
    const BLOCK: usize = 1 << 16;
    let mut block = Vec::with_capacity(BLOCK);
    let mut digests = Vec::new();
    for byte in bytes {
        block.push(byte);
        if block.len() == BLOCK {
            digests.extend(fnv1a64(&block).to_le_bytes());
            block.clear();
        }
    }
    digests.extend(fnv1a64(&block).to_le_bytes());
    fnv1a64(&digests)
}

/// Checksum of the exact bits of a float sequence.
pub fn checksum_f64(values: &[f64]) -> u64 {
    checksum_bytes(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Checksum of a vote matrix's raw cells.
pub fn checksum_votes(votes: &[i8]) -> u64 {
    checksum_bytes(votes.iter().map(|&v| v as u8))
}

/// Checksums of the three outputs of one batch window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputSums {
    pub votes: u64,
    pub posteriors: u64,
    pub scores: u64,
}

impl OutputSums {
    /// Checksum a window's vote matrix, posteriors and served scores.
    pub fn of(votes: &[i8], posteriors: &[f64], scores: &[f64]) -> OutputSums {
        OutputSums {
            votes: checksum_votes(votes),
            posteriors: checksum_f64(posteriors),
            scores: checksum_f64(scores),
        }
    }
}

/// Record the repetitions' checksums: they saw the same input, so they
/// must agree bit for bit, and the last one's are printed.
pub fn record_sums(out: &mut Outcome, sums: &[OutputSums]) {
    out.checks.push(Check::new(
        "repetitions agree",
        sums.windows(2).all(|pair| pair[0] == pair[1]),
        format!("{} repetitions", sums.len()),
    ));
    if let Some(last) = sums.last() {
        out.checksums = vec![
            ("votes", last.votes),
            ("posteriors", last.posteriors),
            ("scores", last.scores),
        ];
    }
}

/// The benchmark's own seeded generator (splitmix64), so the inputs it
/// derives do not change when a crate's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64(seed);
            (0..4).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn checksums_see_every_bit() {
        assert_ne!(checksum_f64(&[0.0]), checksum_f64(&[-0.0]));
        assert_ne!(checksum_votes(&[1, 0, -1]), checksum_votes(&[1, -1, 0]));
    }
}
