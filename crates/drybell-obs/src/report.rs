//! Report renderers: a telemetry snapshot as a machine-readable JSON
//! document (the `--json` mode of the diagnostic binaries).

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::span::SpanSnapshot;

/// JSON summary of one histogram: count, mean, the percentile ladder,
/// and the non-empty log buckets as `[index, count]` pairs (the raw
/// distribution cross-run diffing needs — percentiles alone cannot feed
/// a population-stability index).
pub(crate) fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let buckets = Json::Arr(
        h.nonzero_buckets()
            .into_iter()
            .map(|(i, n)| Json::Arr(vec![Json::from(i), Json::from(n)]))
            .collect(),
    );
    Json::obj(vec![
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("mean", h.mean().map(Json::Num).unwrap_or(Json::Null)),
        ("min", h.min().map(Json::from).unwrap_or(Json::Null)),
        ("p50", h.p50().map(Json::from).unwrap_or(Json::Null)),
        ("p95", h.p95().map(Json::from).unwrap_or(Json::Null)),
        ("p99", h.p99().map(Json::from).unwrap_or(Json::Null)),
        ("max", h.max().map(Json::from).unwrap_or(Json::Null)),
        ("buckets", buckets),
    ])
}

/// The full metrics snapshot as a JSON object with `counters`, `gauges`,
/// and `histograms` sections.
pub fn metrics_to_json(snapshot: &MetricsSnapshot) -> Json {
    let counters = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect(),
    );
    let gauges = Json::Obj(
        snapshot
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect(),
    );
    let histograms = Json::Obj(
        snapshot
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), histogram_to_json(h)))
            .collect(),
    );
    Json::obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// The span snapshot as a JSON array (one object per path, sorted).
pub(crate) fn spans_to_json(snapshot: &SpanSnapshot) -> Json {
    Json::Arr(
        snapshot
            .entries()
            .iter()
            .map(|(path, stat)| {
                Json::obj(vec![
                    ("path", Json::from(path.as_str())),
                    ("count", Json::from(stat.count)),
                    ("total_us", Json::from(stat.total_us)),
                    ("max_us", Json::from(stat.max_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::SpanSet;

    #[test]
    fn metrics_render_as_json() {
        let reg = MetricsRegistry::new();
        reg.counter("votes/has_good").add(7);
        reg.gauge("nlp_cache/size").set(3);
        reg.histogram("obs/lf/eval_us").record(120);
        let snap = reg.snapshot();

        let json = metrics_to_json(&snap);
        assert_eq!(
            json.get("counters")
                .unwrap()
                .get("votes/has_good")
                .unwrap()
                .as_i64(),
            Some(7)
        );
        let hist = json
            .get("histograms")
            .unwrap()
            .get("obs/lf/eval_us")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_i64(), Some(1));
        assert_eq!(hist.get("p50").unwrap().as_i64(), Some(120));
        // 120 has bit width 7 → one non-empty bucket at index 7.
        let buckets = hist.get("buckets").unwrap().items();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].at(0).unwrap().as_i64(), Some(7));
        assert_eq!(buckets[0].at(1).unwrap().as_i64(), Some(1));
        // Rendered JSON parses back.
        assert!(crate::json::parse(&json.to_pretty()).is_ok());
    }

    #[test]
    fn empty_histogram_renders_nulls() {
        let reg = MetricsRegistry::new();
        reg.histogram("obs/empty_us");
        let json = metrics_to_json(&reg.snapshot());
        let hist = json.get("histograms").unwrap().get("obs/empty_us").unwrap();
        assert_eq!(hist.get("p50"), Some(&Json::Null));
    }

    #[test]
    fn spans_render_as_sorted_json() {
        let set = SpanSet::new();
        {
            let _run = set.span("run");
            let _fit = set.span("run/fit");
        }
        let json = spans_to_json(&set.snapshot());
        assert_eq!(json.items().len(), 2);
        assert_eq!(
            json.at(0).unwrap().get("path").unwrap().as_str(),
            Some("run")
        );
    }
}
