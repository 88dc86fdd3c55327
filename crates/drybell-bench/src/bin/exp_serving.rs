//! Serving front-end load generator: batched admission vs one-at-a-time
//! scoring, closed- and open-loop traffic, and tail-latency percentiles.
//!
//! The paper serves discriminative models behind a TFX-style serving
//! stack; this reproduction's analog is `drybell-serving::Frontend`
//! (bounded admission → micro-batcher → epoch-pinned scoring). This
//! binary measures that path end to end:
//!
//! * **Part 1 — kernel:** `score_spec` one-at-a-time vs
//!   `score_spec_batch` over the same inputs, checksumming both score
//!   streams (FNV-1a over `f64::to_bits`) to prove the batched kernel
//!   is bit-identical, and reporting the amortization speedup as the
//!   ratio of the median times of alternated passes.
//! * **Part 2 — closed loop:** N client threads drive `submit` + `wait`
//!   through the front-end until ≥1M requests complete (at any
//!   `--scale`), with a `promote` fired mid-run so live traffic crosses
//!   a hot swap; every response must come from exactly one published
//!   (epoch, version) pairing. Tail latencies (p50/p99/p999) come from
//!   the `obs/serving/request_us` histogram.
//! * **Part 3 — open loop:** a burst beyond queue capacity against a
//!   drainless front-end, counting typed `QueueFull` rejections, plus a
//!   zero-budget front-end proving expired requests degrade to the
//!   default score instead of blocking.
//!
//! Results land in `results/BENCH_serving.json` for the CI
//! `serving-bench` gate (`doctor bench` holds `p99_us` under a ceiling
//! and `batched_speedup` above a floor; see `doctor.toml [serving]`).

use drybell_bench::args::ExpArgs;
use drybell_bench::bits_checksum;
use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry, SparseVector};
use drybell_ml::{FtrlConfig, LogisticRegression, MlpScratch};
use drybell_obs::Json;
use drybell_serving::{
    score_spec, score_spec_batch, BatchScratch, ExportedModel, Frontend, FrontendConfig, ModelSpec,
    OwnedInput, ScoreInput, Scored, ServingError, ServingRegistry, SloConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Hashed feature-space bits (dimension `1 << HASH_BITS`).
const HASH_BITS: u32 = 10;

/// Batch width for the kernel comparison — the front-end's default.
const KERNEL_BATCH: usize = 64;

/// Alternated single/batched passes in the kernel comparison; each side
/// reports the median of its passes.
const KERNEL_REPS: usize = 7;

/// Distinct request payloads cycled by the load loops.
const POOL: usize = 256;

/// Seconds the process stays up after finishing when `--live` is set,
/// so scrapers can read the final gauges before they vanish.
const LIVE_LINGER_S: u64 = 20;

/// A registry serving model `"m"` v1, with v2 staged for the mid-run
/// promote, plus the hasher and a pool of request payloads.
fn build_registry(seed: u64) -> (ServingRegistry, Vec<SparseVector>) {
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed", 10))
        .expect("fresh space registry");
    let registry = ServingRegistry::new(spaces, 1_000);
    let h = FeatureHasher::new(1 << HASH_BITS);

    let mut rng = StdRng::seed_from_u64(seed);
    let vocab: Vec<String> = (0..400).map(|i| format!("tok{i}")).collect();
    let doc = |rng: &mut StdRng| -> Vec<&str> {
        (0..16)
            .map(|_| vocab[rng.gen_range(0..vocab.len())].as_str())
            .collect()
    };
    let data: Vec<(SparseVector, f64)> = (0..2_000)
        .map(|_| {
            let tokens = doc(&mut rng);
            let y = f64::from(u8::from(tokens.iter().any(|t| t.ends_with('7'))));
            (h.bag_of_words(&tokens), y)
        })
        .collect();
    let mut m = LogisticRegression::new(1 << HASH_BITS, FtrlConfig::default());
    m.fit(&data).expect("logreg training");

    for version in 1..=2 {
        registry
            .stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(m.clone()),
            })
            .expect("stage");
    }
    registry.promote("m", 1).expect("promote v1");

    let pool: Vec<SparseVector> = (0..POOL).map(|_| h.bag_of_words(&doc(&mut rng))).collect();
    (registry, pool)
}

/// Part 1: one-at-a-time vs batched kernel over identical inputs.
struct KernelResult {
    n: usize,
    single_rps: f64,
    batch_rps: f64,
    speedup: f64,
    bit_identical: bool,
}

/// The middle of an odd number of samples.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run_kernel(registry: &ServingRegistry, pool: &[SparseVector], n: usize) -> KernelResult {
    let spec = std::sync::Arc::clone(
        registry
            .epoch_cell("m")
            .expect("published cell")
            .pin()
            .spec(),
    );
    let inputs: Vec<ScoreInput<'_>> = (0..n)
        .map(|i| ScoreInput::Sparse(&pool[i % pool.len()]))
        .collect();

    let mut scratch = MlpScratch::default();
    let mut batch_scratch = BatchScratch::default();
    let mut single = vec![0.0; n];
    let mut batched = vec![0.0; n];
    // One pass of each over ~10 ms reads a drifting host, not the
    // kernels: alternate the two and compare medians.
    let (mut single_times, mut batch_times) = (Vec::new(), Vec::new());
    for _ in 0..KERNEL_REPS {
        let start = Instant::now();
        for (x, out) in inputs.iter().zip(single.iter_mut()) {
            *out = score_spec(&spec, x, &mut scratch).expect("single scoring");
        }
        single_times.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for (inputs, out) in inputs
            .chunks(KERNEL_BATCH)
            .zip(batched.chunks_mut(KERNEL_BATCH))
        {
            score_spec_batch(&spec, inputs, &mut batch_scratch, out).expect("batched scoring");
        }
        batch_times.push(start.elapsed().as_secs_f64());
    }
    let (single_s, batch_s) = (median(&mut single_times), median(&mut batch_times));

    KernelResult {
        n,
        single_rps: n as f64 / single_s.max(1e-12),
        batch_rps: n as f64 / batch_s.max(1e-12),
        speedup: single_s / batch_s.max(1e-12),
        bit_identical: bits_checksum(single.into_iter()) == bits_checksum(batched.into_iter()),
    }
}

/// Part 2: closed-loop clients through the front-end with a mid-run
/// promote.
struct ClosedLoopResult {
    requests: u64,
    clients: usize,
    elapsed_s: f64,
    v1_responses: u64,
    v2_responses: u64,
    degraded: u64,
}

fn run_closed_loop(
    registry: &ServingRegistry,
    pool: &[SparseVector],
    telemetry: &drybell_obs::Telemetry,
    requests: u64,
    clients: usize,
) -> ClosedLoopResult {
    let frontend =
        Frontend::for_model_with_telemetry(registry, "m", FrontendConfig::default(), telemetry)
            .expect("front-end");
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let (v1, v2, degraded) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let frontend = &frontend;
                let completed = &completed;
                let share =
                    requests / clients as u64 + u64::from((requests % clients as u64) > c as u64);
                scope.spawn(move || {
                    let (mut v1, mut v2, mut degraded) = (0_u64, 0_u64, 0_u64);
                    for i in 0..share {
                        let x = pool[(c + i as usize) % pool.len()].clone();
                        let scored: Scored =
                            frontend.score(OwnedInput::Sparse(x)).expect("closed loop");
                        assert_eq!(
                            scored.epoch,
                            u64::from(scored.version),
                            "torn epoch/version pairing"
                        );
                        match scored.version {
                            1 => v1 += 1,
                            2 => v2 += 1,
                            v => panic!("unknown version {v}"),
                        }
                        degraded += u64::from(scored.degraded);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    (v1, v2, degraded)
                })
            })
            .collect();
        // Fire the hot swap once live traffic is mid-flight.
        while completed.load(Ordering::Relaxed) < requests / 2 {
            std::thread::yield_now();
        }
        registry.promote("m", 2).expect("promote v2");
        handles.into_iter().fold((0, 0, 0), |acc, h| {
            let (v1, v2, d) = h.join().expect("client thread");
            (acc.0 + v1, acc.1 + v2, acc.2 + d)
        })
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    frontend.shutdown();
    ClosedLoopResult {
        requests,
        clients,
        elapsed_s,
        v1_responses: v1,
        v2_responses: v2,
        degraded,
    }
}

/// Part 3: an open-loop burst past queue capacity (drainless front-end,
/// counting typed rejections) and a zero-budget front-end (counting
/// degraded defaults).
struct OpenLoopResult {
    burst: usize,
    queue_depth: usize,
    accepted: u64,
    rejected: u64,
    degraded: u64,
    default_score: f64,
}

fn run_open_loop(
    registry: &ServingRegistry,
    pool: &[SparseVector],
    telemetry: &drybell_obs::Telemetry,
) -> OpenLoopResult {
    // Burst at an unbounded rate against zero service capacity: the
    // admission gate must accept exactly `queue_depth` and reject the
    // rest with the typed error — never block, never queue unbounded.
    let queue_depth = 256;
    let burst = queue_depth * 4;
    let frontend = Frontend::for_model_with_telemetry(
        registry,
        "m",
        FrontendConfig {
            queue_depth,
            workers: 0,
            ..FrontendConfig::default()
        },
        telemetry,
    )
    .expect("burst front-end");
    let (accepted, rejected) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let frontend = &frontend;
                scope.spawn(move || {
                    let (mut accepted, mut rejected) = (0_u64, 0_u64);
                    for i in 0..burst / 4 {
                        let x = pool[(c * 7 + i) % pool.len()].clone();
                        match frontend.submit(OwnedInput::Sparse(x)) {
                            Ok(_) => accepted += 1,
                            Err(ServingError::QueueFull { .. }) => rejected += 1,
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    (accepted, rejected)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0), |acc, h| {
            let (a, r) = h.join().expect("burst thread");
            (acc.0 + a, acc.1 + r)
        })
    });
    frontend.shutdown();
    assert_eq!(accepted, queue_depth as u64, "admission gate over-admitted");

    // Zero latency budget: every request lands past its deadline and
    // must degrade to the configured default instead of blocking.
    let default_score = 0.5;
    let frontend = Frontend::for_model_with_telemetry(
        registry,
        "m",
        FrontendConfig {
            request_budget: Duration::ZERO,
            default_score,
            workers: 1,
            ..FrontendConfig::default()
        },
        telemetry,
    )
    .expect("budget front-end");
    let mut degraded = 0_u64;
    for i in 0..1_000 {
        let scored = frontend
            .score(OwnedInput::Sparse(pool[i % pool.len()].clone()))
            .expect("budget loop");
        assert_eq!(scored.score, default_score);
        degraded += u64::from(scored.degraded);
    }
    frontend.shutdown();
    assert_eq!(degraded, 1_000, "zero-budget requests must all degrade");

    OpenLoopResult {
        burst,
        queue_depth,
        accepted,
        rejected,
        degraded,
        default_score,
    }
}

/// Part 4: a seeded SLO breach. A front-end with multi-window burn-rate
/// tracking and a zero latency budget: every response degrades, so the
/// error budget burns at 1000× and the tracker must fire exactly one
/// edge-triggered `slo_breach` (journaled, gauged on `slo/*`, and — when
/// a flight recorder is armed via `--live` — dumped as the black box's
/// last event).
struct SloDrillResult {
    requests: u64,
    fast_error_burn_ppm: i64,
    slow_error_burn_ppm: i64,
    fast_p99_us: i64,
    slow_p99_us: i64,
}

/// The drill's SLO budgets come from `doctor.toml [slo]` when the file
/// is present — the same source of truth `doctor` gates with — falling
/// back to the tracker's built-in defaults (which match the doctor's).
fn slo_config() -> SloConfig {
    let cfg = std::fs::read_to_string("doctor.toml")
        .ok()
        .and_then(|text| drybell_doctor::DoctorConfig::from_toml_str(&text).ok())
        .unwrap_or_default();
    let mut slo = SloConfig::default();
    if let Some(v) = cfg.budget("slo.p99_us") {
        slo.p99_budget_us = v as u64;
    }
    if let Some(v) = cfg.budget("slo.error_ppm") {
        slo.error_budget_ppm = v as u64;
    }
    if let Some(v) = cfg.budget("slo.burn") {
        slo.burn_threshold = v;
    }
    slo
}

fn run_slo_drill(
    registry: &ServingRegistry,
    pool: &[SparseVector],
    telemetry: &drybell_obs::Telemetry,
) -> SloDrillResult {
    let requests = 12_000_u64;
    let frontend = Frontend::for_model_with_telemetry(
        registry,
        "m",
        FrontendConfig {
            request_budget: Duration::ZERO,
            workers: 1,
            slo: Some(slo_config()),
            ..FrontendConfig::default()
        },
        telemetry,
    )
    .expect("slo drill front-end");
    for i in 0..requests {
        let scored = frontend
            .score(OwnedInput::Sparse(pool[i as usize % pool.len()].clone()))
            .expect("slo drill loop");
        assert!(scored.degraded, "zero budget must degrade every request");
    }
    frontend.shutdown();
    let snap = telemetry.metrics().snapshot();
    let result = SloDrillResult {
        requests,
        fast_error_burn_ppm: snap.gauge("slo/fast/error_burn_ppm"),
        slow_error_burn_ppm: snap.gauge("slo/slow/error_burn_ppm"),
        fast_p99_us: snap.gauge("slo/fast/p99_us"),
        slow_p99_us: snap.gauge("slo/slow/p99_us"),
    };
    assert!(
        result.fast_error_burn_ppm > 1_000_000 && result.slow_error_burn_ppm > 1_000_000,
        "seeded breach must leave both error burn gauges over budget \
         (fast {} ppm, slow {} ppm)",
        result.fast_error_burn_ppm,
        result.slow_error_burn_ppm
    );
    result
}

fn main() {
    let args = ExpArgs::parse();
    let quiet = args.json;
    let say = |s: String| {
        if !quiet {
            println!("{s}");
        }
    };
    let telemetry = args.telemetry_or_exit().unwrap_or_default();
    args.emit_header(&telemetry, "serving");
    let _live = args.serve_live_or_exit(&telemetry);

    let seed = args.seed.unwrap_or(11);
    let (registry, pool) = build_registry(seed);

    // ---- Part 1: batched kernel vs one-at-a-time ----------------------
    let kernel_n = ((2_000_000.0 * args.scale) as usize).max(100_000);
    let kernel = run_kernel(&registry, &pool, kernel_n);
    say(format!(
        "== kernel: {} inputs, batch {} ==\n",
        kernel.n, KERNEL_BATCH
    ));
    say(format!(
        "one-at-a-time: {:>12.0} scores/s\nbatched:       {:>12.0} scores/s  ({:.2}x, bit-identical: {})",
        kernel.single_rps, kernel.batch_rps, kernel.speedup, kernel.bit_identical
    ));
    assert!(
        kernel.bit_identical,
        "batched kernel diverged from one-at-a-time scoring"
    );

    // ---- Part 2: closed-loop load with a mid-run hot swap -------------
    // ≥1M completed requests at any --scale: the CI smoke invocation
    // (--scale 0.01) still exercises the full request floor.
    let requests = ((10_000_000.0 * args.scale) as u64).max(1_000_000);
    // Client threads spend most of their life blocked on a response
    // slot, so the closed loop wants more of them than host cores.
    let clients = args.workers.clamp(8, 16);
    say(format!(
        "\n== closed loop: {requests} requests over {clients} clients, promote at 50% =="
    ));
    let closed = run_closed_loop(&registry, &pool, &telemetry, requests, clients);
    let closed_rps = closed.requests as f64 / closed.elapsed_s.max(1e-12);
    // Percentiles snapshot now, before the open-loop phases record their
    // own (unrepresentative) request timings into the same histogram.
    let snap = telemetry.metrics().snapshot();
    let latency = snap
        .histogram("obs/serving/request_us")
        .expect("request histogram");
    let quantile_us = |q: f64| latency.quantile(q).unwrap_or(0);
    let (p50_us, p99_us, p999_us) = (quantile_us(0.5), quantile_us(0.99), quantile_us(0.999));
    say(format!(
        "\ncompleted {} in {:.2}s ({:.0} req/s); v1 {} / v2 {} responses, {} degraded",
        closed.requests,
        closed.elapsed_s,
        closed_rps,
        closed.v1_responses,
        closed.v2_responses,
        closed.degraded
    ));
    say(format!(
        "latency: p50 {p50_us}us  p99 {p99_us}us  p999 {p999_us}us"
    ));
    assert_eq!(closed.v1_responses + closed.v2_responses, closed.requests);
    assert!(
        closed.v2_responses > 0,
        "the mid-run promote never reached live traffic"
    );

    // ---- Part 3: open-loop burst + zero-budget degradation ------------
    let open = run_open_loop(&registry, &pool, &telemetry);
    say(format!(
        "\n== open loop: burst {} into depth {} ==\n\naccepted {}, rejected {} (typed QueueFull); zero-budget degraded {}",
        open.burst, open.queue_depth, open.accepted, open.rejected, open.degraded
    ));

    // ---- Part 4: seeded SLO breach through the burn-rate tracker ------
    let slo = run_slo_drill(&registry, &pool, &telemetry);
    say(format!(
        "\n== slo drill: {} zero-budget requests ==\n\nerror burn fast {} ppm / slow {} ppm (breach journaled{})",
        slo.requests,
        slo.fast_error_burn_ppm,
        slo.slow_error_burn_ppm,
        if telemetry.flight().is_some() {
            ", flight ring dumped"
        } else {
            ""
        }
    ));

    let doc = Json::obj(vec![
        ("bench", Json::from("serving")),
        ("seed", Json::from(seed)),
        ("requests", Json::from(closed.requests)),
        ("clients", Json::from(closed.clients)),
        ("closed_loop_rps", Json::from(closed_rps)),
        ("p50_us", Json::from(p50_us)),
        ("p99_us", Json::from(p99_us)),
        ("p999_us", Json::from(p999_us)),
        ("batched_speedup", Json::from(kernel.speedup)),
        ("completed", Json::from(closed.requests)),
        ("rejected", Json::from(open.rejected)),
        ("degraded", Json::from(open.degraded)),
        (
            "kernel",
            Json::obj(vec![
                ("inputs", Json::from(kernel.n)),
                ("batch", Json::from(KERNEL_BATCH)),
                ("single_rps", Json::from(kernel.single_rps)),
                ("batch_rps", Json::from(kernel.batch_rps)),
                ("bit_identical", Json::from(kernel.bit_identical)),
            ]),
        ),
        (
            "hot_swap",
            Json::obj(vec![
                ("v1_responses", Json::from(closed.v1_responses)),
                ("v2_responses", Json::from(closed.v2_responses)),
            ]),
        ),
        (
            "open_loop",
            Json::obj(vec![
                ("burst", Json::from(open.burst)),
                ("queue_depth", Json::from(open.queue_depth)),
                ("accepted", Json::from(open.accepted)),
                ("rejected", Json::from(open.rejected)),
                ("default_score", Json::from(open.default_score)),
            ]),
        ),
        (
            "slo_drill",
            Json::obj(vec![
                ("requests", Json::from(slo.requests)),
                ("fast_error_burn_ppm", Json::from(slo.fast_error_burn_ppm)),
                ("slow_error_burn_ppm", Json::from(slo.slow_error_burn_ppm)),
                ("fast_p99_us", Json::from(slo.fast_p99_us)),
                ("slow_p99_us", Json::from(slo.slow_p99_us)),
            ]),
        ),
    ]);

    telemetry.emit(
        drybell_obs::Event::new("serving_bench")
            .field("completed", Json::from(closed.requests))
            .field("rejected", Json::from(open.rejected))
            .field("degraded", Json::from(open.degraded))
            .field("p50_us", Json::from(p50_us))
            .field("p99_us", Json::from(p99_us))
            .field("p999_us", Json::from(p999_us))
            .field("batched_speedup", Json::from(kernel.speedup)),
    );

    let out_dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let out_path = out_dir.join("BENCH_serving.json");
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", doc.to_pretty())) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    say(format!("\nwrote {}", out_path.display()));

    args.finish_trace_or_exit(&telemetry);
    args.write_summary_or_exit(&telemetry);
    if args.json {
        println!("{}", doc.to_pretty());
    }

    // The registry and its gauges die with the process; linger so a
    // scraper can still read the drill's burn gauges off /metrics
    // after the results land (the CI live-smoke job depends on this).
    if _live.is_some() {
        say(format!(
            "live endpoint lingering {LIVE_LINGER_S}s for scrapes"
        ));
        std::thread::sleep(std::time::Duration::from_secs(LIVE_LINGER_S));
    }
}
