//! The canonical telemetry-name registry.
//!
//! Every metric, span path, and journal event kind that production code
//! may emit is declared here, once, as a [`NameSpec`]. The crate-level
//! convention (see the [crate] docs) is that job-level counters keep
//! their MapReduce names (`votes/<lf>`, `nlp_calls`, `nlp_cache/hits`)
//! while instruments owned by the observability layer are namespaced
//! `obs/<area>/<metric>`, with `_us` suffixing microsecond-latency
//! histograms. This module turns that prose into data so that:
//!
//! * tests can check every name a real run emits — the metrics and span
//!   snapshots and the journal's event kinds — against the registry
//!   (`tests/telemetry_journal.rs`, the serving front-end's telemetry
//!   test), and
//! * dashboards and journal consumers have a single source of truth for
//!   what a run can emit.
//!
//! Templates may contain `{placeholder}` segments standing for one
//! dynamic `/`-separated segment — `votes/{lf}` matches the per-LF
//! counter family built with `format!("votes/{}", name)`. Adding a new
//! instrument means adding a row here first; those tests fail otherwise.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanSnapshot;

/// Which instrument family a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Monotonic counters in a `MetricsRegistry` (or job-level
    /// `Counters` merged into reports).
    Counter,
    /// Point-in-time gauges.
    Gauge,
    /// Log-bucketed latency histograms.
    Histogram,
    /// `/`-separated wall-clock span paths.
    Span,
    /// `kind` values of journal events.
    JournalKind,
}

impl Family {
    /// Stable lower-case name, used in [`validate`]'s messages.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Counter => "counter",
            Family::Gauge => "gauge",
            Family::Histogram => "histogram",
            Family::Span => "span",
            Family::JournalKind => "journal-kind",
        }
    }
}

/// One registered telemetry name (or name family, when the template has
/// `{placeholder}` segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameSpec {
    /// The instrument family the name belongs to.
    pub family: Family,
    /// The canonical name; `{placeholder}` stands for one dynamic
    /// `/`-separated segment.
    pub template: &'static str,
    /// What the instrument measures and who emits it.
    pub doc: &'static str,
}

/// Every name production code may emit, grouped by family.
pub const REGISTRY: &[NameSpec] = &[
    // ---- Counters (MapReduce-era job names, un-prefixed) ----
    NameSpec {
        family: Family::Counter,
        template: "votes/{lf}",
        doc: "non-abstain votes per labeling function (LF executor)",
    },
    NameSpec {
        family: Family::Counter,
        template: "nlp_calls",
        doc: "annotate requests reaching the NLP model server",
    },
    NameSpec {
        family: Family::Counter,
        template: "nlp_cache/hits",
        doc: "NLP memo-table hits (sharded job counters)",
    },
    NameSpec {
        family: Family::Counter,
        template: "nlp_cache/misses",
        doc: "NLP memo-table misses (sharded job counters)",
    },
    NameSpec {
        family: Family::Counter,
        template: "nlp_cache/evictions",
        doc: "NLP memo-table evictions (sharded job counters)",
    },
    NameSpec {
        family: Family::Counter,
        template: "dataflow/retries",
        doc: "shard/partition attempts that failed and were requeued (MapReduce engine)",
    },
    NameSpec {
        family: Family::Counter,
        template: "dataflow/skipped_records",
        doc: "records dropped under skip_bad_record_budget instead of failing the shard",
    },
    NameSpec {
        family: Family::Counter,
        template: "serving/rejected",
        doc: "requests rejected because the front-end admission queue was full",
    },
    NameSpec {
        family: Family::Counter,
        template: "serving/degraded",
        doc: "requests answered with the declared default score after their latency budget lapsed",
    },
    NameSpec {
        family: Family::Counter,
        template: "lf/{lf}/degraded",
        doc: "examples where the LF abstained because its backing service errored",
    },
    NameSpec {
        family: Family::Counter,
        template: "obs/train/rows",
        doc: "example rows consumed by generative-model gradient accumulation",
    },
    NameSpec {
        family: Family::Counter,
        template: "obs/train/posterior_rows",
        doc: "rows scored by observed posterior inference (predict_proba_observed)",
    },
    NameSpec {
        family: Family::Counter,
        template: "stream/shards_seen",
        doc: "committed shards delivered by the streaming ingestor (exactly once each)",
    },
    NameSpec {
        family: Family::Counter,
        template: "stream/events",
        doc: "journal events folded by the in-stream drift monitor (StreamMonitor)",
    },
    NameSpec {
        family: Family::Counter,
        template: "stream/counter_resets",
        doc: "cumulative-counter resets observed by WindowFolder (a producer restarted)",
    },
    NameSpec {
        family: Family::Counter,
        template: "live/requests",
        doc: "HTTP requests answered by the in-process live snapshot server",
    },
    // ---- Gauges (point-in-time exports of absolute levels) ----
    NameSpec {
        family: Family::Gauge,
        template: "stream/lag_us",
        doc: "commit-to-delivery lag of the most recent shard, microseconds (StreamIngestor)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "nlp_cache/hits",
        doc: "cumulative cache hits at export time (CachedNlpServer)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "nlp_cache/misses",
        doc: "cumulative cache misses at export time (CachedNlpServer)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "nlp_cache/evictions",
        doc: "cumulative evictions at export time (CachedNlpServer)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "nlp_cache/size",
        doc: "resident memo-table entries at export time (CachedNlpServer)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "obs/train/threads",
        doc: "worker-pool size in effect for the current generative-model fit",
    },
    NameSpec {
        family: Family::Gauge,
        template: "lf/{lf}/coverage_ppm",
        doc: "LfReport coverage export, parts-per-million fixed point (export_to)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "lf/{lf}/overlap_ppm",
        doc: "LfReport overlap export, parts-per-million fixed point (export_to)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "lf/{lf}/conflict_ppm",
        doc: "LfReport conflict export, parts-per-million fixed point (export_to)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "lf/{lf}/learned_accuracy_ppm",
        doc: "LfReport learned-accuracy export, parts-per-million fixed point (export_to)",
    },
    NameSpec {
        family: Family::Gauge,
        template: "serving/queue_depth",
        doc: "requests waiting in the front-end admission queue, sampled after each batch is taken from it",
    },
    NameSpec {
        family: Family::Gauge,
        template: "serving/batch_size",
        doc: "size of the most recent micro-batch drained by a scoring worker",
    },
    NameSpec {
        family: Family::Gauge,
        template: "slo/{window}/p99_us",
        doc: "rolling-window p99 request latency per SLO window (fast/slow), µs",
    },
    NameSpec {
        family: Family::Gauge,
        template: "slo/{window}/error_ppm",
        doc: "rolling-window degraded/error rate per SLO window, parts-per-million",
    },
    NameSpec {
        family: Family::Gauge,
        template: "slo/{window}/p99_burn_ppm",
        doc: "latency burn rate per SLO window: window p99 over budget, ppm fixed point",
    },
    NameSpec {
        family: Family::Gauge,
        template: "slo/{window}/error_burn_ppm",
        doc: "error burn rate per SLO window: window error rate over budget, ppm fixed point",
    },
    // ---- Histograms (obs-layer, microseconds, `_us` suffix) ----
    NameSpec {
        family: Family::Histogram,
        template: "obs/lf/{lf}/eval_us",
        doc: "per-LF evaluation latency (LF executor)",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/train/step_us",
        doc: "generative-model training step latency",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/train/predict_us",
        doc: "full-matrix posterior inference latency (predict_proba_observed)",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/nlp/annotate_us",
        doc: "NLP annotate latency (instrumented server)",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/serving/score_us",
        doc: "serving-path score latency",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/serving/shadow_score_us",
        doc: "shadow-path dual-score latency",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/serving/batch_us",
        doc: "front-end micro-batch drain+score latency (per batch)",
    },
    NameSpec {
        family: Family::Histogram,
        template: "obs/serving/request_us",
        doc: "front-end end-to-end request latency, enqueue to response",
    },
    // ---- Span paths ----
    NameSpec {
        family: Family::Span,
        template: "run",
        doc: "whole-run root span",
    },
    NameSpec {
        family: Family::Span,
        template: "run/fit",
        doc: "model fitting within a run",
    },
    NameSpec {
        family: Family::Span,
        template: "train/fit",
        doc: "generative-model fit",
    },
    NameSpec {
        family: Family::Span,
        template: "lf_exec/in_memory",
        doc: "in-memory LF execution pass",
    },
    NameSpec {
        family: Family::Span,
        template: "lf_exec/sharded",
        doc: "sharded (MapReduce) LF execution pass",
    },
    NameSpec {
        family: Family::Span,
        template: "job/map",
        doc: "map phase of a MapReduce job",
    },
    NameSpec {
        family: Family::Span,
        template: "worker/busy",
        doc: "per-worker busy time",
    },
    NameSpec {
        family: Family::Span,
        template: "job/shard_attempt",
        doc: "one attempt at one shard task (retries record one span each)",
    },
    // ---- Journal event kinds ----
    NameSpec {
        family: Family::JournalKind,
        template: "phase",
        doc: "the map phase of a job, with its seconds and record counts",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "job",
        doc: "one MapReduce job completed, with its counters",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "lf_execution",
        doc: "one LF-matrix materialization, with vote/cache stats",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "train",
        doc: "generative-model training completed",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "train_epoch",
        doc: "one generative-model training epoch",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "content_report",
        doc: "end-of-run content-pipeline quality report",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "scaling",
        doc: "one point of a worker-scaling experiment",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "shadow",
        doc: "a shadow-evaluation report (serving layer)",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "shard_attempt",
        doc: "one shard/partition attempt finished (outcome: ok, retry, or failed)",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "run_header",
        doc: "journal schema version + run id + config fingerprint (first event)",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "lf_report",
        doc: "full per-LF diagnostics (coverage/overlap/conflict/learned accuracy)",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "slo_breach",
        doc: "both SLO burn-rate windows exceeded budget (front-end, edge-triggered)",
    },
    NameSpec {
        family: Family::JournalKind,
        template: "flight_dump",
        doc: "the flight recorder dumped its ring to flight-<ts>.jsonl, with the trigger reason",
    },
];

/// Whether `segment` is a `{placeholder}` (dynamic) segment. `{}` — the
/// shape a `format!` literal leaves at a call site — counts.
fn is_placeholder(segment: &str) -> bool {
    segment.starts_with('{') && segment.ends_with('}')
}

/// Whether `name` matches `template`, segment-wise: a literal template
/// segment must match exactly; a `{placeholder}` template segment
/// matches any non-empty segment, including a `{}`-style placeholder
/// extracted from a `format!` call site.
pub fn template_matches(template: &str, name: &str) -> bool {
    let mut t = template.split('/');
    let mut n = name.split('/');
    loop {
        match (t.next(), n.next()) {
            (None, None) => return true,
            (Some(ts), Some(ns)) => {
                if is_placeholder(ts) {
                    if ns.is_empty() {
                        return false;
                    }
                } else if ts != ns {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Whether every segment of `template` is dynamic (e.g. the
/// `{parent}/{child}` path a child span builds): such a template would
/// accept any name of its length, so [`validate`] refuses it.
pub fn is_fully_dynamic(template: &str) -> bool {
    template.split('/').all(is_placeholder)
}

/// The registry row matching `name` in `family`, if any.
pub fn lookup(family: Family, name: &str) -> Option<&'static NameSpec> {
    REGISTRY
        .iter()
        .find(|spec| spec.family == family && template_matches(spec.template, name))
}

/// Whether `name` is a registered `family` name.
pub fn is_registered(family: Family, name: &str) -> bool {
    lookup(family, name).is_some()
}

/// Every name in a run's metrics and span snapshots and journal event
/// `kinds` that no registry row matches, as `"<family> <name>"`. Empty
/// means the run emitted only declared names.
pub fn unregistered<'a>(
    metrics: &'a MetricsSnapshot,
    spans: &'a SpanSnapshot,
    kinds: impl IntoIterator<Item = &'a str>,
) -> Vec<String> {
    named(Family::Counter, &metrics.counters)
        .chain(named(Family::Gauge, &metrics.gauges))
        .chain(named(Family::Histogram, &metrics.histograms))
        .chain(named(Family::Span, spans.entries()))
        .chain(kinds.into_iter().map(|kind| (Family::JournalKind, kind)))
        .filter(|&(family, name)| !is_registered(family, name))
        .map(|(family, name)| format!("{} {name}", family.as_str()))
        .collect()
}

/// The names of one snapshot section, tagged with their family.
fn named<T>(family: Family, entries: &[(String, T)]) -> impl Iterator<Item = (Family, &str)> {
    entries.iter().map(move |(name, _)| (family, name.as_str()))
}

/// Check the registry's own invariants, returning every violation.
/// Empty means well-formed. A unit test holds it, so a malformed
/// registry fails loudly instead of silently accepting everything.
pub fn validate() -> Vec<String> {
    let mut problems = Vec::new();
    for spec in REGISTRY {
        let t = spec.template;
        if t.is_empty() {
            problems.push(format!("{}: empty template", spec.family.as_str()));
            continue;
        }
        for segment in t.split('/') {
            let ok = if is_placeholder(segment) {
                segment.len() > 2
                    && segment
                        .strip_prefix('{')
                        .and_then(|s| s.strip_suffix('}'))
                        .is_some_and(|inner| {
                            inner.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                        })
            } else {
                !segment.is_empty()
                    && segment
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            };
            if !ok {
                problems.push(format!("{t}: bad segment {segment:?}"));
            }
        }
        if spec.family == Family::Histogram {
            if !t.starts_with("obs/") {
                problems.push(format!("{t}: histograms must be namespaced obs/"));
            }
            if !t.ends_with("_us") {
                problems.push(format!("{t}: latency histograms must end in _us"));
            }
        }
        if spec.family == Family::JournalKind && t.contains('/') {
            problems.push(format!("{t}: journal kinds are single segments"));
        }
        if spec.doc.is_empty() {
            problems.push(format!("{t}: missing doc"));
        }
        if is_fully_dynamic(t) {
            problems.push(format!("{t}: fully dynamic template is unauditable"));
        }
    }
    for (i, a) in REGISTRY.iter().enumerate() {
        for b in REGISTRY.iter().skip(i + 1) {
            if a.family == b.family && a.template == b.template {
                problems.push(format!("{}: duplicate template", a.template));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        let problems = validate();
        assert!(problems.is_empty(), "registry problems: {problems:?}");
    }

    #[test]
    fn literal_names_match_exactly() {
        assert!(is_registered(Family::Counter, "nlp_calls"));
        assert!(is_registered(Family::Gauge, "nlp_cache/size"));
        assert!(is_registered(Family::Histogram, "obs/train/step_us"));
        assert!(is_registered(Family::Histogram, "obs/train/predict_us"));
        assert!(is_registered(Family::Counter, "obs/train/rows"));
        assert!(is_registered(Family::Counter, "obs/train/posterior_rows"));
        assert!(is_registered(Family::Gauge, "obs/train/threads"));
        assert!(is_registered(Family::Span, "lf_exec/sharded"));
        assert!(is_registered(Family::JournalKind, "shadow"));
        assert!(is_registered(Family::JournalKind, "run_header"));
        assert!(is_registered(Family::JournalKind, "lf_report"));
        assert!(is_registered(Family::Counter, "stream/counter_resets"));
        assert!(is_registered(Family::Counter, "live/requests"));
        assert!(is_registered(Family::Gauge, "slo/fast/p99_us"));
        assert!(is_registered(Family::Gauge, "slo/slow/error_burn_ppm"));
        assert!(!is_registered(Family::Gauge, "slo/fast/p99"));
        assert!(is_registered(Family::JournalKind, "slo_breach"));
        assert!(is_registered(Family::JournalKind, "flight_dump"));
        assert!(is_registered(Family::Gauge, "lf/kw_gossip/coverage_ppm"));
        // A placeholder stands for one segment: it matches no `/`.
        assert!(!is_registered(Family::Gauge, "lf/kw/gossip/coverage_ppm"));
        assert!(is_registered(Family::Gauge, "lf/{}/learned_accuracy_ppm"));
        assert!(!is_registered(Family::Gauge, "lf/kw_gossip/coverage"));
        assert!(!is_registered(Family::Counter, "nlp_call"));
        assert!(!is_registered(Family::Gauge, "cache_size"));
        assert!(!is_registered(Family::JournalKind, "probe"));
    }

    #[test]
    fn placeholders_match_dynamic_segments() {
        assert!(is_registered(Family::Counter, "votes/has_person"));
        // A format! literal's `{}` placeholder also matches.
        assert!(is_registered(Family::Counter, "votes/{}"));
        assert!(is_registered(Family::Histogram, "obs/lf/{}/eval_us"));
        assert!(is_registered(
            Family::Histogram,
            "obs/lf/nlp_person/eval_us"
        ));
        // Segment counts must line up.
        assert!(!is_registered(Family::Counter, "votes/a/b"));
        assert!(!is_registered(Family::Counter, "votes"));
        assert!(!is_registered(Family::Histogram, "obs/lf/eval_us"));
    }

    #[test]
    fn families_are_distinct_namespaces() {
        // nlp_cache/hits is both a job counter and an export gauge, but
        // not a histogram.
        assert!(is_registered(Family::Counter, "nlp_cache/hits"));
        assert!(is_registered(Family::Gauge, "nlp_cache/hits"));
        assert!(!is_registered(Family::Histogram, "nlp_cache/hits"));
        assert!(!is_registered(Family::Span, "nlp_calls"));
    }

    #[test]
    fn fully_dynamic_templates_are_detected() {
        assert!(is_fully_dynamic("{}/{}"));
        assert!(is_fully_dynamic("{parent}/{child}"));
        assert!(!is_fully_dynamic("votes/{lf}"));
    }

    #[test]
    fn lookup_surfaces_docs_and_templates() {
        let spec = lookup(Family::Histogram, "obs/nlp/annotate_us").unwrap();
        assert!(spec.doc.contains("annotate"));
        let spans: Vec<_> = REGISTRY
            .iter()
            .filter(|spec| spec.family == Family::Span)
            .map(|spec| spec.template)
            .collect();
        assert!(spans.contains(&"job/map"));
        assert!(spans.len() >= 8);
    }
}
