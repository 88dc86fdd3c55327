//! Allocation budget of the per-example paths: how many times featurizing,
//! annotating and voting on one product document, and voting on, training
//! the label model on and taking an end-model step for one event, and
//! serving one request through the front-end, may call the allocator; and
//! the per-call kernels that must not call it at all: language ID, the
//! serving score paths and the SLO tracker.
//!
//! The per-document path runs 650K times in a `product_batch` window and
//! the per-event ones one to three million times in an `events_wide`
//! window, the executor's on two workers sharing one allocator, so a
//! `String` per word or a `Vec` per vote is both the time and the
//! contention. The counts here are exact properties of the code (no clock
//! involved), which is what lets a test hold them.
//!
//! The counter is process-wide, so that executor workers are counted, and
//! this file therefore holds exactly one `#[test]`: a second would run on
//! another thread of the same process and leak into the counts.

use drybell_core::{GenerativeModel, TrainConfig, Vote};
use drybell_datagen::events::{self, EventTaskConfig};
use drybell_datagen::product::{self, ProductDoc, ProductTaskConfig};
use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry, SparseVector};
use drybell_lf::executor::execute_in_memory;
use drybell_lf::{Lf, LfCategory, LfSet};
use drybell_ml::{FtrlConfig, LogisticRegression, Mlp, MlpConfig, MlpScratch};
use drybell_nlp::langid::LangDetector;
use drybell_nlp::{CachedNlpServer, NlpResult, NlpServer};
use drybell_obs::Telemetry;
use drybell_serving::{
    batch_session, score_spec, score_spec_batch, BatchScratch, ExportedModel, Frontend,
    FrontendConfig, ModelSpec, OwnedInput, Pending, ScoreInput, ServingRegistry, ShadowEval,
    SloConfig, SloTracker,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every call that can return new memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was promised; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `work` makes, on every thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const DOCS: usize = 2_000;

/// Allocator calls per document of `each`, averaged over `docs`.
fn per_doc<D>(docs: &[D], mut each: impl FnMut(&D)) -> f64 {
    allocations(|| docs.iter().for_each(&mut each)) as f64 / docs.len() as f64
}

#[test]
fn the_document_path_stays_within_its_allocation_budget() {
    let ds = product::generate(&ProductTaskConfig {
        num_unlabeled: DOCS,
        num_dev: 0,
        num_test: 0,
        seed: 17,
        ..ProductTaskConfig::paper()
    });
    let docs = ds.unlabeled;
    let words: usize = docs.iter().map(|d| d.text.split_whitespace().count()).sum();
    let mean_words = words as f64 / DOCS as f64;
    assert!((30.0..45.0).contains(&mean_words), "{mean_words} words");
    // The same documents with twice the words: a count that scales with
    // the words doubles here.
    let doubled: Vec<ProductDoc> = docs
        .iter()
        .map(|d| ProductDoc {
            text: format!("{} {}", d.text, d.text),
            ..d.clone()
        })
        .collect();

    let hasher = FeatureHasher::new(1 << 16);
    let server = NlpServer::new();
    let set = product::lf_set(ds.kg.clone());
    let kg = set.knowledge_graph().map(|g| g.as_ref());
    let annotate_all = |docs: &[ProductDoc]| -> Vec<NlpResult> {
        docs.iter().map(|d| server.annotate(&d.text)).collect()
    };
    // Annotating everything once also fills every lazily built table (the
    // gazetteers, the trigram table, the topic model's logarithms); one
    // vote per LF fills the graphs' category lists.
    let annotations = annotate_all(&docs);
    let doubled_annotations = annotate_all(&doubled);
    for lf in set.lfs() {
        lf.try_vote(&docs[0], Some(&annotations[0]), kg).unwrap();
    }

    // --- features ---
    let featurize = |d: &ProductDoc| drop(black_box(product::featurize(d, &hasher)));
    let n = per_doc(&docs, featurize);
    assert!(n <= 3.0, "featurize: {n} allocations a document");
    let n = per_doc(&doubled, featurize);
    assert!(n <= 5.0, "featurize, doubled: {n} allocations a document");

    // --- nlp ---
    let n = per_doc(&docs, |d| drop(black_box(server.annotate(&d.text))));
    assert!(n <= 8.0, "annotate: {n} allocations a document");
    let cached = CachedNlpServer::new(NlpServer::new(), DOCS);
    for d in &docs {
        cached.annotate(&d.text);
    }
    let n = per_doc(&docs, |d| drop(black_box(cached.annotate(&d.text))));
    assert!(n <= 6.0, "cache hit: {n} allocations a document");
    assert_eq!(cached.stats().hits, DOCS as u64);

    // --- lf ---
    assert_eq!(set.len(), 8);
    for lf in set.lfs() {
        let name = &lf.metadata().name;
        for (docs, annotations) in [(&docs, &annotations), (&doubled, &doubled_annotations)] {
            let mut next = annotations.iter();
            let n = per_doc(docs, |d| {
                black_box(lf.try_vote(d, next.next(), kg).unwrap());
            });
            let words = docs[0].text.split_whitespace().count();
            assert!(
                n <= 0.05,
                "{name}: {n} allocations a document ({words} words in the first)"
            );
        }
    }

    // --- the executor: rows are written into the matrix's own buffer ---
    const ROWS: usize = 10_000;
    let mut wide: LfSet<u32> = LfSet::new();
    for j in 0..140u32 {
        let vote = [Vote::Positive, Vote::Negative, Vote::Abstain][j as usize % 3];
        wide = wide.with(Lf::plain(
            &format!("constant_{j}"),
            LfCategory::ContentHeuristic,
            true,
            move |_: &u32| vote,
        ));
    }
    let examples: Vec<u32> = (0..ROWS as u32).collect();
    for workers in [1, 2] {
        let n = allocations(|| {
            let (matrix, _) = execute_in_memory(&wide, None, &examples, workers).unwrap();
            assert_eq!(matrix.num_examples(), ROWS);
        });
        let per_row = n as f64 / ROWS as f64;
        assert!(
            per_row <= 0.05,
            "executor, {workers} worker(s): {per_row} allocations a row"
        );
    }

    // --- the events task: 140 sources, no text ---
    let paper = EventTaskConfig::paper();
    let stream = events::generate(&EventTaskConfig {
        num_unlabeled: DOCS,
        num_test: 1,
        ..paper.clone()
    })
    .unlabeled;
    let sources = events::lf_set(paper.num_lfs, paper.seed);
    for lf in sources.lfs() {
        let n = per_doc(&stream, |e| {
            black_box(lf.try_vote(e, None, None).unwrap());
        });
        let name = &lf.metadata().name;
        assert!(n == 0.0, "{name}: {n} allocations an event");
    }
    let mut votes = None;
    for workers in [1, 2] {
        let n = allocations(|| {
            votes = Some(
                execute_in_memory(&sources, None, &stream, workers)
                    .unwrap()
                    .0,
            );
        });
        let per_event = n as f64 / DOCS as f64;
        assert!(
            per_event <= 0.05,
            "events executor, {workers} worker(s): {per_event} allocations an event"
        );
    }
    let votes = votes.expect("the executor ran");

    // --- the label model: a step allocates nothing, on either layout ---
    // At under 50% density (39% here) the schedule picks the layout: 8
    // rows a step comes back to a row at most four times (dense kernel),
    // 64 rows a step sixteen times or more (active index).
    assert!(votes.vote_density() < 0.5);
    for (batch_size, layout) in [(8, "dense"), (64, "index")] {
        let [shorter, longer] = [500, 1_000].map(|steps| {
            assert_eq!(steps * batch_size >= 8 * DOCS, layout == "index");
            let cfg = TrainConfig {
                steps,
                batch_size,
                ..TrainConfig::default()
            };
            let mut model = GenerativeModel::new(votes.num_lfs(), cfg.init_alpha);
            allocations(|| drop(black_box(model.fit(&votes, &cfg).unwrap())))
        });
        assert!(
            longer.abs_diff(shorter) <= 10,
            "label model, {layout}: {shorter} allocations for 500 steps, {longer} for 1000"
        );
    }

    // --- the end model: a step allocates nothing ---
    let soft: Vec<(Vec<f64>, f64)> = stream
        .iter()
        .map(|e| (e.servable.clone(), e.graph_score))
        .collect();
    let [shorter, longer] = [100, 200].map(|iterations| {
        let mut net = Mlp::new(
            events::SERVABLE_DIMS,
            MlpConfig {
                iterations,
                ..MlpConfig::default()
            },
        );
        allocations(|| net.fit(&soft))
    });
    assert_eq!(
        shorter, longer,
        "end model: {shorter} allocations for 100 iterations, {longer} for 200"
    );

    // --- language ID: a dense-table walk in text order ---
    let detector = LangDetector::new();
    let n = per_doc(&docs, |d| {
        black_box(detector.detect(&d.text));
    });
    assert!(n == 0.0, "language ID: {n} allocations a document");

    // --- serving: a score allocates nothing once its scratch is warm ---
    let sparse: Vec<SparseVector> = docs
        .iter()
        .map(|d| product::featurize(d, &hasher))
        .collect();
    let labelled: Vec<(SparseVector, f64)> = sparse
        .iter()
        .enumerate()
        .map(|(i, x)| (x.clone(), (i % 2) as f64))
        .collect();
    let mut logreg = LogisticRegression::new(1 << 16, FtrlConfig::default());
    logreg.fit(&labelled).unwrap();
    let mut net = Mlp::new(events::SERVABLE_DIMS, MlpConfig::default());
    net.fit(&soft);
    let mut spaces = SpaceRegistry::new();
    let space = spaces
        .register(FeatureSpace::servable("servable", 1))
        .unwrap();
    // With telemetry, so the shadow loop times every pair as it does in a run.
    let registry = ServingRegistry::new(spaces, 10_000).with_telemetry(&Telemetry::new());
    for version in [1, 2] {
        for (name, model) in [
            ("text", ExportedModel::LogReg(logreg.clone())),
            ("event", ExportedModel::Mlp(net.clone())),
        ] {
            let feature_spaces = vec![space];
            let spec = ModelSpec {
                name: name.into(),
                version,
                feature_spaces,
                model,
            };
            registry.stage(spec).unwrap();
        }
    }
    let text: Vec<ScoreInput<'_>> = sparse.iter().map(ScoreInput::Sparse).collect();
    let event: Vec<ScoreInput<'_>> = stream
        .iter()
        .map(|e| ScoreInput::Dense(&e.servable))
        .collect();
    let mut scores = vec![0.0; DOCS];
    for (name, inputs) in [("text", &text), ("event", &event)] {
        registry.promote(name, 1).unwrap();
        let spec = registry.epoch_cell(name).unwrap().pin().spec().clone();
        let mut scratch = MlpScratch::default();
        score_spec(&spec, &inputs[0], &mut scratch).unwrap();
        let n = per_doc(inputs, |x| {
            black_box(score_spec(&spec, x, &mut scratch).unwrap());
        });
        assert!(n == 0.0, "score_spec, {name}: {n} allocations a row");

        let mut scratch = BatchScratch::default();
        score_spec_batch(&spec, inputs, &mut scratch, &mut scores).unwrap();
        let n = allocations(|| score_spec_batch(&spec, inputs, &mut scratch, &mut scores).unwrap());
        assert!(n == 0, "score_spec_batch, {name}: {n} allocations a batch");
        let mut session = batch_session(&spec, &mut scratch);
        let n = per_doc(inputs, |x| {
            black_box(session.score(x).unwrap());
        });
        assert!(
            n == 0.0,
            "BatchSession::score, {name}: {n} allocations a row"
        );

        let mut shadow = ShadowEval::new(&registry, name, 2).unwrap();
        shadow.observe(inputs[0]).unwrap();
        let n = per_doc(inputs, |x| {
            black_box(shadow.observe(*x).unwrap());
        });
        assert!(
            n == 0.0,
            "ShadowEval::observe, {name}: {n} allocations a row"
        );
    }

    // --- the front-end: a served request allocates its response slot ---
    // Sixteen requests in flight at a time, so the worker scores batches
    // and its allocations are counted too; the inputs are built outside
    // the count.
    let frontend = Frontend::for_model(&registry, "text", FrontendConfig::default()).unwrap();
    const IN_FLIGHT: usize = 16;
    let mut in_flight: Vec<Pending> = Vec::with_capacity(IN_FLIGHT);
    let mut serve = |inputs: Vec<OwnedInput>| {
        for input in inputs {
            in_flight.push(frontend.submit(input).unwrap());
            if in_flight.len() == IN_FLIGHT {
                for pending in in_flight.drain(..) {
                    black_box(pending.wait().unwrap());
                }
            }
        }
        for pending in in_flight.drain(..) {
            black_box(pending.wait().unwrap());
        }
    };
    let mut requests: Vec<OwnedInput> = sparse.iter().cloned().map(OwnedInput::Sparse).collect();
    let counted = requests.split_off(DOCS / 2);
    serve(requests);
    let n = allocations(|| serve(counted)) as f64 / (DOCS - DOCS / 2) as f64;
    assert!(
        n <= 1.0,
        "Frontend::submit + Pending::wait: {n} allocations a request"
    );
    frontend.shutdown();

    // --- the SLO tracker: a ring write and integer window stats ---
    let mut slo = SloTracker::new(SloConfig::default());
    let latencies: Vec<u64> = (0..20_000u64).map(|i| 50 + (i * 7919) % 40_000).collect();
    for &us in &latencies {
        slo.observe(us, us % 97 == 0);
    }
    let n = per_doc(&latencies, |&us| {
        black_box(slo.observe(us, us % 97 == 0));
    });
    assert!(n == 0.0, "SloTracker::observe: {n} allocations a request");
}
