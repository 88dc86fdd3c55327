//! Fixture tests for the workspace's guards: a small crate that breaks a
//! rule, checked the way CI checks the workspace — with a real crate
//! root's lint header and the real `clippy.toml` — and the exact lints
//! and lines that must report. Telemetry names are the exception: they
//! are checked against `naming::REGISTRY` at run time.

#[path = "support/clippy_fixture.rs"]
mod clippy_fixture;

use clippy_fixture::{at, sites, with_lints_of, Fixture, WORKSPACE};
use drybell::obs::{naming, Event, MetricsRegistry, SpanSet};

#[test]
fn no_panic_fixture_finds_every_panic_site() {
    let src = with_lints_of(
        "crates/drybell-core/src/lib.rs",
        "pub fn sites(v: &[u8], o: Option<u8>, r: Result<u8, String>, k: u8) -> u8 {
    let a = o.unwrap();
    let b = r.expect(\"validated upstream\");
    if k == 0 {
        panic!(\"k must be positive\");
    }
    if k == 1 {
        unreachable!(\"k is never 1\");
    }
    if k == 2 {
        todo!();
    }
    if k == 3 {
        unimplemented!();
    }
    let c = v[0];
    let d = &v[1..];
    a + b + c + d.len() as u8
}

/// The panic-free spellings stay quiet.
pub fn safe(v: &[u8], o: Option<u8>) -> u8 {
    let [first, ..] = v else {
        return o.unwrap_or(0);
    };
    first.saturating_add(v.get(1).copied().unwrap_or_default())
}
",
    );
    let found = Fixture::new().file("src/lib.rs", &src).clippy();
    assert_eq!(
        sites(&found),
        [
            ("clippy::unwrap_used", at(&src, ".unwrap()")),
            ("clippy::expect_used", at(&src, ".expect(")),
            ("clippy::panic", at(&src, "panic!(")),
            ("clippy::unreachable", at(&src, "unreachable!(")),
            ("clippy::todo", at(&src, "todo!(")),
            ("clippy::unimplemented", at(&src, "unimplemented!(")),
            ("clippy::indexing_slicing", at(&src, "v[0]")),
            ("clippy::indexing_slicing", at(&src, "&v[1..]")),
        ]
    );
}

#[test]
fn determinism_fixture_flags_rng_clock_and_unordered_maps() {
    let src = with_lints_of(
        "crates/drybell-dataflow/src/lib.rs",
        "use std::collections::{BTreeMap, HashMap};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

pub fn stamp() -> u64 {
    let now = SystemTime::now();
    now.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Durations come from `Instant`, which is fine.
pub fn elapsed_us(start: Instant) -> u128 {
    start.elapsed().as_micros()
}

pub fn total(counts: &HashMap<String, u64>, ordered: &BTreeMap<String, u64>) -> u64 {
    let mut sum = counts.get(\"seed\").copied().unwrap_or(0);
    for n in counts.values() {
        sum += n;
    }
    for n in ordered.values() {
        sum += n;
    }
    sum
}
",
    );
    let found = Fixture::new().file("src/lib.rs", &src).clippy();
    assert_eq!(
        sites(&found),
        [
            ("clippy::disallowed_methods", at(&src, "SystemTime::now()")),
            ("clippy::iter_over_hash_type", at(&src, "for n in counts")),
        ]
    );

    // An unseeded generator cannot be written at all: the vendored
    // `rand` has no entropy source, so only a seeded one compiles.
    let rng = "use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn seeded() -> u64 {
    StdRng::seed_from_u64(7).gen()
}

pub fn from_thread() -> u64 {
    rand::thread_rng().gen()
}

pub fn from_entropy() -> u64 {
    StdRng::from_entropy().gen()
}
";
    let found = Fixture::new()
        .manifest(&format!(
            "[dependencies]\nrand = {{ path = \"{WORKSPACE}/vendor/rand\" }}\n"
        ))
        .file("src/lib.rs", rng)
        .clippy();
    assert_eq!(
        sites(&found),
        [
            ("E0425", at(rng, "thread_rng")),
            ("E0599", at(rng, "StdRng::from_entropy")),
        ]
    );
}

#[test]
fn telemetry_fixture_flags_only_off_registry_names() {
    let metrics = MetricsRegistry::new();
    let spans = SpanSet::new();
    let mut kinds = Vec::new();

    // Registered names: all fine.
    metrics.counter("nlp_calls").inc();
    metrics.counter(&format!("votes/{}", "kw_spam")).inc();
    metrics.histogram("obs/train/step_us").record(12);
    spans.record("train/fit", 5);
    kinds.push(Event::new("train"));

    // Off-registry names: one finding each.
    metrics.counter("nlp_callz").inc();
    metrics.gauge("cache_size").set(3);
    metrics.histogram("serving_score_ms").record(12);
    spans.record("mystery/phase", 5);
    kinds.push(Event::new("vibes"));
    metrics.counter(&format!("tallies/{}", "kw_spam")).inc();

    let unregistered = naming::unregistered(
        &metrics.snapshot(),
        &spans.snapshot(),
        kinds.iter().map(Event::kind),
    );
    assert_eq!(
        unregistered,
        [
            "counter nlp_callz",
            "counter tallies/kw_spam",
            "gauge cache_size",
            "histogram serving_score_ms",
            "span mystery/phase",
            "journal-kind vibes",
        ]
    );
}

#[test]
fn suppression_fixture_honors_justified_and_rejects_blanket() {
    let src = with_lints_of(
        "crates/drybell-serving/src/lib.rs",
        "pub fn justified(v: &[u8]) -> u8 {
    #[expect(clippy::indexing_slicing, reason = \"v is the non-empty admission queue\")]
    let head = v[0];
    head.wrapping_add(1)
}

#[allow(clippy::indexing_slicing)]
pub fn blanket(v: &[u8]) -> u8 {
    v[1]
}

#[expect(clippy::indexing_slicing, reason = \"was an index, now a get\")]
pub fn stale(v: &[u8]) -> u8 {
    v.first().copied().unwrap_or(0)
}

pub fn plain(v: &[u8]) -> u8 {
    v[2]
}
",
    );
    let allow = at(&src, "#[allow(");
    let found = Fixture::new().file("src/lib.rs", &src).clippy();
    assert_eq!(
        sites(&found),
        [
            ("clippy::allow_attributes_without_reason", allow.clone()),
            ("clippy::allow_attributes", allow),
            ("unfulfilled_lint_expectations", at(&src, "now a get")),
            ("clippy::indexing_slicing", at(&src, "v[2]")),
        ]
    );
}

#[test]
fn fixtures_report_full_diagnostic_format() {
    // A finding points at the offending call and renders as
    // `path:line:col: lint: message`.
    let src = with_lints_of(
        "crates/drybell-kg/src/lib.rs",
        "pub fn port(s: &str) -> u16 {
    s.parse().unwrap()
}
",
    );
    let found = Fixture::new().file("src/lib.rs", &src).clippy();
    let [only] = found.as_slice() else {
        panic!("one finding expected: {found:?}");
    };
    let rendered = only.to_string();
    let want = format!("{}:5: clippy::unwrap_used: ", at(&src, ".unwrap()"));
    assert!(rendered.starts_with(&want), "{rendered}");
    assert!(rendered.contains("unwrap()"), "{rendered}");
}
