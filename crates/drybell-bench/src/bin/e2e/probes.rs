//! Per-layer probes: each layer's unit costs, measured the same way on
//! every traced run whatever the workload, so ledgers from different
//! workloads and commits line up. Each probe calls one layer's public
//! functions on a small seeded sample of product documents, on one thread
//! unless it says otherwise, and times them from outside.

use crate::common::{err, publish, score_in_batches, Run, WORKERS};
use crate::product_batch::{build_inputs, label_model_config, one_pass_ftrl, HASH_DIMS};
use crate::stats;
use crate::trace::Tracer;
use drybell_core::generative::{GenerativeModel, TrainConfig};
use drybell_core::Vote;
use drybell_dataflow::{read_all, write_all, JobConfig, Service, ShardSpec};
use drybell_datagen::product::{self, ProductDoc};
use drybell_features::{FeatureHasher, SparseVector};
use drybell_lf::executor::{
    execute_in_memory, execute_in_memory_observed, execute_sharded, ExecOptions,
};
use drybell_lf::{Lf, LfCategory, LfSet};
use drybell_ml::{LogisticRegression, MlpScratch};
use drybell_nlp::langid::LangDetector;
use drybell_nlp::sentiment::SentimentScorer;
use drybell_nlp::tokenizer::lower_tokens;
use drybell_nlp::{
    tokenize, CachedNlpServer, NerTagger, NlpResult, NlpServer, SemanticCategorizer,
};
use drybell_obs::Telemetry;
use drybell_serving::{score_spec, ExportedModel, ScoreInput};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Documents in the probe sample.
const SAMPLE_DOCS: usize = 8000;
/// Repetitions of the probes that time one short call.
const SHORT_REPS: usize = 15;
/// Passes over the sample by the scoring-kernel probes.
const KERNEL_PASSES: usize = 10;

/// Seconds `work` takes.
fn seconds<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

/// Median microseconds of [`SHORT_REPS`] runs of `work`.
fn median_us(mut work: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SHORT_REPS);
    for _ in 0..SHORT_REPS {
        let start = Instant::now();
        work()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples).ok_or_else(|| "no probe samples".to_owned())
}

/// How much longer `observed` takes than `plain`, in percent: the two run
/// alternately, so a change of host speed falls on both, and the medians
/// are compared.
fn overhead_pct(
    mut plain: impl FnMut() -> Result<(), String>,
    mut observed: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    const PAIRS: usize = 5;
    let (mut plain_s, mut observed_s) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (done, s) = seconds(&mut plain);
        done?;
        plain_s.push(s);
        let (done, s) = seconds(&mut observed);
        done?;
        observed_s.push(s);
    }
    let median = |v: &[f64]| stats::median(v).ok_or("no overhead samples");
    Ok(100.0 * (median(&observed_s)? / median(&plain_s)? - 1.0))
}

/// What recording one span costs, in microseconds — the tracer's overhead
/// is this times the spans a run recorded.
pub fn span_cost_us() -> f64 {
    const SPANS: usize = 20_000;
    let tracer = Tracer::new(true);
    let ((), s) = seconds(|| {
        for _ in 0..SPANS {
            tracer.timed("trace.probe", || black_box(()));
        }
    });
    s * 1e6 / SPANS as f64
}

/// A warmed model server.
fn warm_server() -> Result<NlpServer, String> {
    let mut server = NlpServer::new();
    server.warm_up().map_err(err)?;
    Ok(server)
}

/// Run every probe and add its metrics to `layer`.
pub fn run(run: &Run<'_>, layer: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let n = run.size.count(SAMPLE_DOCS, 200);
    let inputs = build_inputs(run.seed, n, 0);
    let docs = &inputs.ds.unlabeled;
    let texts: Vec<String> = docs.iter().map(|d| d.text.clone()).collect();
    let per_doc_us = |s: f64| s * 1e6 / n as f64;

    // --- nlp: the model server, whole and in parts ---
    let warm_up_us = median_us(|| warm_server().map(|s| drop(black_box(s))))?;
    layer.insert("nlp.warm_up_us", warm_up_us);
    let server = warm_server()?;
    let (annotations, annotate_s): (Vec<NlpResult>, f64) =
        seconds(|| texts.iter().map(|t| server.annotate(t)).collect());
    layer.insert("nlp.annotate_us_per_doc", per_doc_us(annotate_s));
    let ((), tokenize_s) = seconds(|| {
        for t in &texts {
            black_box(tokenize(t));
        }
    });
    layer.insert("nlp.tokenize_us_per_doc", per_doc_us(tokenize_s));
    let ner = NerTagger::new();
    let ((), ner_s) = seconds(|| {
        for t in &texts {
            black_box(ner.tag(t));
        }
    });
    layer.insert("nlp.ner_us_per_doc", per_doc_us(ner_s));
    // `annotate` classifies twice (`classify`, then `top_topic`); so does
    // this probe, on tokens lowered beforehand.
    let topics = SemanticCategorizer::from_seeds();
    let lowered: Vec<Vec<String>> = texts.iter().map(|t| lower_tokens(t)).collect();
    let ((), topic_s) = seconds(|| {
        for tokens in &lowered {
            black_box(topics.classify(tokens));
            black_box(topics.top_topic(tokens));
        }
    });
    layer.insert("nlp.topic_us_per_doc", per_doc_us(topic_s));
    let langid = LangDetector::new();
    let ((), langid_s) = seconds(|| {
        for t in &texts {
            black_box(langid.detect(t));
        }
    });
    layer.insert("nlp.langid_us_per_doc", per_doc_us(langid_s));
    let sentiment = SentimentScorer::new();
    let ((), sentiment_s) = seconds(|| {
        for t in &texts {
            black_box(sentiment.score(t));
        }
    });
    layer.insert("nlp.sentiment_us_per_doc", per_doc_us(sentiment_s));
    // Memo-table hits: fill with a quarter of the sample, then time the
    // same quarter again.
    let quarter = &texts[..n / 4];
    let cached = CachedNlpServer::new(warm_server()?, quarter.len());
    for t in quarter {
        black_box(cached.annotate(t));
    }
    let ((), hit_s) = seconds(|| {
        for t in quarter {
            black_box(cached.annotate(t));
        }
    });
    layer.insert(
        "nlp.cached_annotate_us_per_doc",
        hit_s * 1e6 / quarter.len() as f64,
    );

    // --- lf: the LF bodies by family, on annotations computed above ---
    let kg = inputs.set.knowledge_graph().map(|g| g.as_ref());
    type Family = (&'static str, fn(&Lf<ProductDoc>) -> bool);
    let families: [Family; 3] = [
        ("lf.heuristic_us_per_doc", |lf| {
            !lf.needs_nlp() && !lf.needs_graph()
        }),
        ("lf.nlp_body_us_per_doc", |lf| lf.needs_nlp()),
        ("lf.kg_us_per_doc", |lf| lf.needs_graph()),
    ];
    for (name, belongs) in families {
        let lfs: Vec<&Lf<ProductDoc>> = inputs.set.lfs().iter().filter(|lf| belongs(lf)).collect();
        let (voted, s) = seconds(|| {
            for (doc, annotation) in docs.iter().zip(&annotations) {
                for lf in &lfs {
                    black_box(lf.try_vote(doc, Some(annotation), kg).map_err(err)?);
                }
            }
            Ok::<(), String>(())
        });
        voted?;
        layer.insert(name, per_doc_us(s));
    }

    // --- lf: the executor around them ---
    let ((matrix, _), exec_s) = {
        let (result, s) = seconds(|| execute_in_memory(&inputs.set, Some(&inputs.text), docs, 1));
        (result.map_err(err)?, s)
    };
    layer.insert("lf.exec_1worker_examples_per_s", n as f64 / exec_s);
    let per_call_fixed_us = median_us(|| {
        execute_in_memory(&inputs.set, Some(&inputs.text), &docs[..1], WORKERS)
            .map(|out| drop(black_box(out)))
            .map_err(err)
    })?;
    layer.insert("lf.per_call_fixed_us", per_call_fixed_us);

    // --- obs: what handing the layers a Telemetry costs ---
    let telemetry = Telemetry::new();
    let options = ExecOptions::new().with_telemetry(telemetry.clone());
    let quarter_docs = &docs[..n / 4];
    let lf_overhead = overhead_pct(
        || {
            execute_in_memory(&inputs.set, Some(&inputs.text), quarter_docs, 1)
                .map(|out| drop(black_box(out)))
                .map_err(err)
        },
        || {
            execute_in_memory_observed(&inputs.set, Some(&inputs.text), quarter_docs, 1, &options)
                .map(|out| drop(black_box(out)))
                .map_err(err)
        },
    )?;
    layer.insert("obs.lf_overhead_pct", lf_overhead);
    let config = TrainConfig {
        steps: 2000,
        ..label_model_config(run.seed)
    };
    let fit = |telemetry: Option<&Telemetry>| {
        GenerativeModel::new(matrix.num_lfs(), 0.7)
            .fit_observed(&matrix, &config, telemetry)
            .map(|report| drop(black_box(report)))
            .map_err(err)
    };
    let train_overhead = overhead_pct(|| fit(None), || fit(Some(&telemetry)))?;
    layer.insert("obs.train_overhead_pct", train_overhead);

    // --- kg: the two alias queries the KG LFs make per word ---
    let words: Vec<&str> = texts.iter().flat_map(|t| t.split_whitespace()).collect();
    let ((), kg_s) = seconds(|| {
        for w in &words {
            black_box(inputs.ds.kg.alias_in_photography(w));
            black_box(inputs.ds.kg.alias_is_foreign_accessory(w));
        }
    });
    layer.insert("kg.query_ns", kg_s * 1e9 / (2 * words.len()) as f64);

    // --- dataflow: shard files, and the engine around a trivial LF ---
    let dir = run.work.fresh_subdir("probe")?;
    let spec = ShardSpec::new(&dir, "docs", 8);
    let (written, write_s) = seconds(|| write_all(&spec, docs));
    written.map_err(err)?;
    let mut bytes = 0;
    for shard in 0..spec.num_shards() {
        bytes += std::fs::metadata(spec.shard_path(shard))
            .map_err(err)?
            .len();
    }
    let mb = bytes as f64 / 1e6;
    layer.insert("dataflow.shard_write_mb_per_s", mb / write_s);
    let (read, read_s) = seconds(|| read_all::<ProductDoc>(&spec));
    black_box(read.map_err(err)?);
    layer.insert("dataflow.shard_read_mb_per_s", mb / read_s);
    let trivial: LfSet<ProductDoc> = LfSet::new().with(Lf::plain(
        "abstain",
        LfCategory::ContentHeuristic,
        true,
        |_: &ProductDoc| Vote::Abstain,
    ));
    let job = JobConfig::new("probe-engine").with_workers(WORKERS);
    let (engine, engine_s) =
        seconds(|| execute_sharded(&trivial, None, &spec, &spec.derive("votes"), &job, |d| d.id));
    engine.map_err(err)?;
    layer.insert("dataflow.engine_us_per_record", per_doc_us(engine_s));

    // --- features, ml, serving: featurize, train, score ---
    let hasher = FeatureHasher::new(HASH_DIMS);
    let (features, featurize_s): (Vec<SparseVector>, f64) = seconds(|| {
        docs.iter()
            .map(|d| product::featurize(d, &hasher))
            .collect()
    });
    layer.insert("features.featurize_us_per_doc", per_doc_us(featurize_s));
    let examples: Vec<(SparseVector, f64)> = features
        .into_iter()
        .zip(inputs.ds.unlabeled_gold.iter().map(|l| l.as_prob()))
        .collect();
    let mut lr = LogisticRegression::new(HASH_DIMS as usize, one_pass_ftrl(n, run.seed));
    lr.fit(&examples).map_err(err)?;
    let ((), score_s) = seconds(|| {
        for (x, _) in &examples {
            black_box(lr.predict_proba(x));
        }
    });
    layer.insert("ml.logreg_score_rows_per_s", n as f64 / score_s);

    let model = ExportedModel::LogReg(lr);
    // Cloned beforehand, so a repetition times the registry and not a copy.
    let mut models = vec![model.clone(); SHORT_REPS];
    let stage_promote_us = median_us(|| {
        let model = models.pop().ok_or("one model per repetition")?;
        publish("probe", 1, model).map(|spec| drop(black_box(spec)))
    })?;
    layer.insert("serving.stage_promote_us", stage_promote_us);
    let spec = publish("probe", 1, model)?;
    let score_inputs: Vec<ScoreInput<'_>> = examples
        .iter()
        .map(|(x, _)| ScoreInput::Sparse(x))
        .collect();
    let rows = (n * KERNEL_PASSES) as f64;
    let mut scratch = MlpScratch::default();
    let (single, single_s) = seconds(|| {
        for _ in 0..KERNEL_PASSES {
            for x in &score_inputs {
                black_box(score_spec(&spec, x, &mut scratch).map_err(err)?);
            }
        }
        Ok::<(), String>(())
    });
    single?;
    layer.insert("serving.kernel_single_rows_per_s", rows / single_s);
    let (batched, batch_s) = seconds(|| {
        for _ in 0..KERNEL_PASSES {
            black_box(score_in_batches(&spec, &score_inputs)?);
        }
        Ok::<(), String>(())
    });
    batched?;
    layer.insert("serving.kernel_batch_rows_per_s", rows / batch_s);
    Ok(())
}
