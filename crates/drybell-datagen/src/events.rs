//! The real-time event-classification application (§3.3, §6.4).
//!
//! Events on two serving platforms must be classified in real time, but
//! the reliable signals are *offline*: 30-day aggregate statistics per
//! source and models over entity/destination relationship graphs. The
//! paper's pre-DryBell approach combined `n = 140` weak supervision
//! sources over those non-servable features with a logical OR; DryBell
//! instead denoises them with the generative model and trains a DNN over
//! the servable, event-level features — identifying 58% more events of
//! interest with a 4.5% quality improvement, and producing the far
//! smoother score distribution of Figure 6.
//!
//! The 140 sources come in the paper's three flavors:
//!
//! * **heuristics** — threshold rules on single aggregate statistics,
//!   with per-rule accuracy varying from barely-better-than-chance to
//!   strong (the "large set of existing heuristic classifiers");
//! * **model-based** — linear scorers over random subsets of the
//!   aggregate features ("several smaller models that had previously
//!   been developed over various feature sets");
//! * **graph-based** — low-threshold rules on relationship-graph scores:
//!   "higher recall but generally lower-precision signals".

use crate::common::{draw_label, gaussian};
use drybell_core::vote::{Label, Vote};
use drybell_lf::{Lf, LfCategory, LfSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of servable, real-time, event-level features.
pub const SERVABLE_DIMS: usize = 16;
/// Number of non-servable aggregate-statistics features.
pub const AGGREGATE_DIMS: usize = 12;

/// One platform event.
#[derive(Debug, Clone, PartialEq)]
pub struct RealTimeEvent {
    /// Unique id.
    pub id: u64,
    /// Real-time, event-level features available at serving time.
    pub servable: Vec<f64>,
    /// 30-day aggregate statistics for the event's source — offline,
    /// private, non-servable (§4).
    pub aggregates: Vec<f64>,
    /// Score from models over entity/destination relationship graphs —
    /// offline, non-servable.
    pub graph_score: f64,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct EventTaskConfig {
    /// Unlabeled stream size.
    pub num_unlabeled: usize,
    /// Test split size.
    pub num_test: usize,
    /// Rate of events of interest.
    pub pos_rate: f64,
    /// Number of weak supervision sources (paper: 140).
    pub num_lfs: usize,
    /// Master seed.
    pub seed: u64,
}

impl EventTaskConfig {
    /// §3.3 preset: 140 weak supervision sources, a million-event stream.
    pub fn paper() -> EventTaskConfig {
        EventTaskConfig {
            num_unlabeled: 1_000_000,
            num_test: 50_000,
            pos_rate: 0.05,
            num_lfs: 140,
            seed: 20190702,
        }
    }

    /// The paper preset with stream sizes scaled by `f` (the LF count is
    /// part of the application, not the scale).
    pub fn scaled(f: f64) -> EventTaskConfig {
        let base = EventTaskConfig::paper();
        EventTaskConfig {
            num_unlabeled: ((base.num_unlabeled as f64 * f).round() as usize).max(1),
            num_test: ((base.num_test as f64 * f).round() as usize).max(1),
            ..base
        }
    }
}

/// The generated event task.
#[derive(Debug, Clone)]
pub struct EventDataset {
    /// The unlabeled stream DryBell weakly supervises.
    pub unlabeled: Vec<RealTimeEvent>,
    /// Hidden gold for the unlabeled stream (evaluation only).
    pub unlabeled_gold: Vec<Label>,
    /// Test split.
    pub test: Vec<RealTimeEvent>,
    /// Test labels.
    pub test_gold: Vec<Label>,
}

/// Class-conditional feature generation.
///
/// A tenth of the *benign* events are "suspicious": bursty sources whose
/// servable features, aggregate statistics, and graph scores all shift
/// partway toward the positive profile without the event being of
/// interest. These are what break the Logical-OR baseline (§6.4): enough
/// individual sources fire on them that OR labels them positive, and
/// because their *servable* features also look shifted, a DNN trained on
/// OR labels learns to rank them high — wasting review budget. The
/// generative model instead weighs the accurate sources' negative votes
/// and keeps them out of the training positives.
fn gen_event(rng: &mut StdRng, id: u64, label: Label) -> RealTimeEvent {
    let pos = label == Label::Positive;
    let suspicious = !pos && rng.gen_bool(0.10);
    let servable: Vec<f64> = (0..SERVABLE_DIMS)
        .map(|d| {
            // Events of interest shift the even dims; suspicious-but-benign
            // burstiness shows up on the *odd* dims. A model trained on
            // clean labels learns to ignore the odd dims; one trained on
            // OR labels (which call suspicious events positive) learns to
            // rank benign burstiness high.
            let shift = if pos && d % 2 == 0 {
                0.9
            } else if suspicious && d % 2 != 0 {
                0.8
            } else {
                0.0
            };
            shift + gaussian(rng)
        })
        .collect();
    let aggregates: Vec<f64> = (0..AGGREGATE_DIMS)
        .map(|d| {
            // Aggregates are the strong offline signal: shift on
            // two-thirds of dims.
            let shift = if d % 3 == 0 {
                0.0
            } else if pos {
                2.4
            } else if suspicious {
                0.8
            } else {
                0.0
            };
            shift + gaussian(rng)
        })
        .collect();
    // Graph score: positives high; suspicious negatives often share
    // infrastructure with bad sources; plain negatives stay low.
    let graph_score = if pos {
        (0.75 + 0.2 * gaussian(rng)).clamp(0.0, 1.0)
    } else {
        let base: f64 = rng.gen();
        let tail = if suspicious { 0.5 } else { 0.01 };
        if rng.gen_bool(tail) {
            (0.5 + 0.3 * base).min(1.0)
        } else {
            0.3 * base
        }
    };
    RealTimeEvent {
        id,
        servable,
        aggregates,
        graph_score,
    }
}

/// Generate the full task.
pub fn generate(cfg: &EventTaskConfig) -> EventDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut make_split = |n: usize, id_base: u64| {
        let mut events = Vec::with_capacity(n);
        let mut gold = Vec::with_capacity(n);
        for i in 0..n {
            let label = draw_label(&mut rng, cfg.pos_rate);
            events.push(gen_event(&mut rng, id_base + i as u64, label));
            gold.push(label);
        }
        (events, gold)
    };
    let (unlabeled, unlabeled_gold) = make_split(cfg.num_unlabeled, 0);
    let (test, test_gold) = make_split(cfg.num_test, 3_000_000_000);
    EventDataset {
        unlabeled,
        unlabeled_gold,
        test,
        test_gold,
    }
}

/// Build the `num_lfs` weak supervision sources of §3.3, split across the
/// three families. Deterministic given `seed`.
pub fn lf_set(num_lfs: usize, seed: u64) -> LfSet<RealTimeEvent> {
    assert!(num_lfs >= 3, "need at least one LF per family");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = LfSet::new();
    let n_heuristic = num_lfs * 3 / 7; // "a large set of existing heuristics"
    let n_model = num_lfs * 2 / 7;
    let n_graph = num_lfs - n_heuristic - n_model;

    // Heuristic thresholds on single aggregate dimensions. Positive-vote
    // rules use high thresholds (precise); negative-vote rules fire when
    // the statistic looks clearly benign.
    for i in 0..n_heuristic {
        let dim = rng.gen_range(0..AGGREGATE_DIMS);
        let positive_rule = rng.gen_bool(0.5);
        let threshold = if positive_rule {
            // High thresholds: with a 5% positive rate, a usable
            // positive-voting rule must keep its false-positive rate in
            // the low percents. Rules that landed on uninformative
            // dimensions stay near-chance — the "previously unknown
            // low-quality sources" §3.3 says the learned accuracies
            // expose.
            rng.gen_range(2.4..3.2)
        } else {
            rng.gen_range(-0.5..0.6)
        };
        set.push(
            Lf::plain(
                &format!("heuristic_{i:03}_dim{dim}"),
                LfCategory::SourceHeuristic,
                false,
                move |e: &RealTimeEvent| {
                    let v = e.aggregates[dim];
                    if positive_rule {
                        if v > threshold {
                            Vote::Positive
                        } else {
                            Vote::Abstain
                        }
                    } else if v < threshold {
                        Vote::Negative
                    } else {
                        Vote::Abstain
                    }
                },
            )
            .with_feature_spaces(&["aggregate-stats"]),
        );
    }

    // Smaller models: linear scorers over random aggregate subsets with
    // noisy weights; vote on both sides with an abstain band.
    for i in 0..n_model {
        let dims: Vec<usize> = (0..AGGREGATE_DIMS).filter(|_| rng.gen_bool(0.5)).collect();
        let dims = if dims.is_empty() { vec![1] } else { dims };
        let weights: Vec<f64> = dims
            .iter()
            .map(|&d| {
                let signal = if d % 3 != 0 { 0.8 } else { 0.0 };
                signal + 0.35 * gaussian(&mut rng)
            })
            .collect();
        let bias = -1.4 * weights.iter().sum::<f64>(); // centers the score
        let scale = 1.0 / (dims.len() as f64).sqrt();
        set.push(
            Lf::plain(
                &format!("model_{i:03}"),
                LfCategory::ModelBased,
                false,
                move |e: &RealTimeEvent| {
                    let mut s = bias;
                    for (&d, &w) in dims.iter().zip(&weights) {
                        s += w * e.aggregates[d];
                    }
                    s *= scale;
                    if s > 0.8 {
                        Vote::Positive
                    } else if s < -0.8 {
                        Vote::Negative
                    } else {
                        Vote::Abstain
                    }
                },
            )
            .with_feature_spaces(&["aggregate-stats"]),
        );
    }

    // Graph-based: low thresholds on the relationship-graph score —
    // higher recall, lower precision (§3.3). Each of these "models over
    // graphs of entity and destination relationships" sees the graph
    // through its own lens, so per-LF observation noise (deterministic in
    // the event id and LF index) decorrelates their errors; without it,
    // forty perfectly-nested threshold rules would act as one LF with
    // 40× the weight.
    for i in 0..n_graph {
        let threshold = rng.gen_range(0.4..0.6);
        let lf_salt = rng.gen::<u64>();
        set.push(
            Lf::plain(
                &format!("graph_{i:03}"),
                LfCategory::GraphBased,
                false,
                move |e: &RealTimeEvent| {
                    // The id's eight little-endian bytes, then the salt's.
                    let key = (u128::from(lf_salt) << 64 | u128::from(e.id)).to_le_bytes();
                    let h = drybell_features::fnv1a64(&key);
                    let noise = (h % 10_000) as f64 / 10_000.0 * 0.24 - 0.12;
                    if e.graph_score + noise > threshold {
                        Vote::Positive
                    } else {
                        Vote::Abstain
                    }
                },
            )
            .with_feature_spaces(&["relationship-graph"]),
        );
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use drybell_lf::executor::execute_in_memory;

    fn small() -> (EventDataset, LfSet<RealTimeEvent>) {
        let cfg = EventTaskConfig {
            num_unlabeled: 4000,
            num_test: 500,
            pos_rate: 0.05,
            num_lfs: 140,
            seed: 5,
        };
        (generate(&cfg), lf_set(cfg.num_lfs, cfg.seed))
    }

    #[test]
    fn lf_count_matches_paper() {
        let (_, set) = small();
        assert_eq!(set.len(), 140, "§3.3: n = 140 weak supervision sources");
        // All three families are present (Figure 2's event-app mix).
        let dist = set.category_distribution();
        for (cat, count) in dist {
            if cat != LfCategory::ContentHeuristic {
                assert!(count > 0, "missing family {cat}");
            }
        }
        // Everything is defined over non-servable features (§3.3: none of
        // the weak supervision sources apply to the servable features).
        assert!(set.servable_mask().iter().all(|&s| !s));
    }

    #[test]
    fn generation_shapes() {
        let (ds, _) = small();
        assert_eq!(ds.unlabeled.len(), 4000);
        let e = &ds.unlabeled[0];
        assert_eq!(e.servable.len(), SERVABLE_DIMS);
        assert_eq!(e.aggregates.len(), AGGREGATE_DIMS);
        assert!((0.0..=1.0).contains(&e.graph_score));
    }

    #[test]
    fn aggregate_features_separate_classes_more_than_servable() {
        let (ds, _) = small();
        let mean_diff = |extract: &dyn Fn(&RealTimeEvent) -> f64| {
            let (mut pos, mut neg, mut np, mut nn) = (0.0, 0.0, 0usize, 0usize);
            for (e, g) in ds.unlabeled.iter().zip(&ds.unlabeled_gold) {
                let v = extract(e);
                if *g == Label::Positive {
                    pos += v;
                    np += 1;
                } else {
                    neg += v;
                    nn += 1;
                }
            }
            pos / np as f64 - neg / nn as f64
        };
        let agg_gap = mean_diff(&|e| e.aggregates[1]);
        let srv_gap = mean_diff(&|e| e.servable[0]);
        assert!(
            agg_gap > srv_gap + 0.3,
            "aggregates should be the stronger signal: {agg_gap:.2} vs {srv_gap:.2}"
        );
    }

    #[test]
    fn graph_lfs_have_high_recall_low_precision() {
        let (ds, set) = small();
        let (matrix, _) = execute_in_memory(&set, None, &ds.unlabeled, 4).unwrap();
        let names = set.names();
        let graph_idx: Vec<usize> = names
            .iter()
            .enumerate()
            .filter_map(|(j, n)| n.starts_with("graph_").then_some(j))
            .collect();
        assert!(!graph_idx.is_empty());
        // Pool recall/precision over graph LFs.
        let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
        for (row, gold) in matrix.rows().zip(&ds.unlabeled_gold) {
            for &j in &graph_idx {
                match (row[j], *gold) {
                    (1, Label::Positive) => tp += 1,
                    (1, Label::Negative) => fp += 1,
                    (0, Label::Positive) => fn_ += 1,
                    _ => {}
                }
            }
        }
        let recall = tp as f64 / (tp + fn_) as f64;
        let precision = tp as f64 / (tp + fp) as f64;
        assert!(recall > 0.75, "graph recall {recall:.3}");
        assert!(
            precision < 0.65,
            "graph precision {precision:.3} should be low"
        );
    }

    #[test]
    fn most_lfs_are_informative() {
        // With 140 auto-generated sources some are near-chance by design
        // (§3.3: the estimated accuracies identified low-quality sources);
        // but the bulk must carry signal.
        let (ds, set) = small();
        let (matrix, _) = execute_in_memory(&set, None, &ds.unlabeled, 4).unwrap();
        let names = set.names();
        let mut informative = 0usize;
        let mut voted = 0usize;
        #[allow(clippy::needless_range_loop)] // j indexes names and the matrix
        for j in 0..set.len() {
            // Graph LFs are low-precision by design; they are validated
            // separately in `graph_lfs_have_high_recall_low_precision`.
            if names[j].starts_with("graph_") {
                continue;
            }
            if let Some(acc) = matrix.empirical_accuracy(j, &ds.unlabeled_gold).unwrap() {
                voted += 1;
                if acc > 0.6 {
                    informative += 1;
                }
            }
        }
        assert!(voted >= 80, "voted: {voted}");
        assert!(
            informative as f64 > 0.6 * voted as f64,
            "informative: {informative}/{voted}"
        );
        assert!(matrix.label_density() > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = EventTaskConfig {
            num_unlabeled: 50,
            num_test: 10,
            pos_rate: 0.2,
            num_lfs: 14,
            seed: 9,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.unlabeled, b.unlabeled);
        let (ma, _) = execute_in_memory(&lf_set(14, 9), None, &a.unlabeled, 2).unwrap();
        let (mb, _) = execute_in_memory(&lf_set(14, 9), None, &b.unlabeled, 2).unwrap();
        assert_eq!(ma, mb);
    }
}
