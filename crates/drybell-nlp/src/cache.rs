//! Memoizing front-end for the NLP model server.
//!
//! §5.1's motivation for per-node model servers is cost: the NLP models
//! "are too computationally expensive to run for all content submitted to
//! Google". Pipelines that re-process the same content (LF development
//! iterations, the dev/test splits scored by multiple experiments) pay
//! that cost repeatedly. [`CachedNlpServer`] wraps an [`NlpServer`] with a
//! bounded, hash-keyed memo table — the standard deployment trick — and
//! exposes hit/miss statistics so the savings show up in job counters.
//! Entries are shared [`Arc`]s: a hit clones a pointer, not the result.

use crate::server::{NlpError, NlpResult, NlpServer};
use drybell_obs::{fnv1a64, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the memo table.
    pub hits: u64,
    /// Calls forwarded to the underlying server.
    pub misses: u64,
    /// Entries evicted after the table filled.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when never called).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded memoizing wrapper around [`NlpServer`].
///
/// Keys are FNV-1a hashes of the text, and an entry answers only for the
/// text it was computed from: a second text with the same hash is
/// annotated on every call and never cached. Eviction is first in, first
/// out (a full table displaces its oldest insertion), which is cheap and
/// adequate for corpus-shaped reuse patterns.
pub struct CachedNlpServer {
    inner: NlpServer,
    capacity: usize,
    state: Mutex<CacheState>,
    /// Tests set this to give every text the same key.
    #[cfg(test)]
    all_texts_collide: bool,
}

struct CacheState {
    map: HashMap<u64, Arc<NlpResult>>,
    /// Insertion ring for eviction.
    ring: Vec<u64>,
    cursor: usize,
    stats: CacheStats,
}

impl CachedNlpServer {
    /// Wrap `inner` with a memo table of at most `capacity` entries.
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: NlpServer, capacity: usize) -> CachedNlpServer {
        assert!(capacity > 0, "cache capacity must be positive");
        CachedNlpServer {
            inner,
            capacity,
            state: Mutex::new(CacheState {
                map: HashMap::with_capacity(capacity),
                ring: Vec::with_capacity(capacity),
                cursor: 0,
                stats: CacheStats::default(),
            }),
            #[cfg(test)]
            all_texts_collide: false,
        }
    }

    fn key_of(&self, text: &str) -> u64 {
        #[cfg(test)]
        if self.all_texts_collide {
            return 0;
        }
        fnv1a64(text.as_bytes())
    }

    /// The resident annotation of `text`, counting the hit or the miss.
    /// FNV-1a collisions can be constructed, so the entry under the text's
    /// key must also carry the text.
    fn lookup(&self, key: u64, text: &str) -> Option<Arc<NlpResult>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resident = state.map.get(&key);
        let hit = resident.filter(|r| r.tokens.text() == text).map(Arc::clone);
        match hit {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        hit
    }

    /// Annotate `text`, consulting the memo table first.
    pub fn annotate(&self, text: &str) -> Arc<NlpResult> {
        let key = self.key_of(text);
        if let Some(hit) = self.lookup(key, text) {
            return hit;
        }
        // Compute outside the lock: annotation is the expensive part and
        // other workers shouldn't serialize behind it.
        let result = Arc::new(self.inner.annotate(text));
        self.insert_result(key, &result);
        result
    }

    /// Annotate `text` through the memo table, surfacing service failures.
    ///
    /// A cache hit is served even while the backing server is failing —
    /// the memo table acts as a shield during an outage. A miss forwards
    /// to [`NlpServer::try_annotate`]; failed calls are *never* cached, so
    /// the next request for the same text retries the server.
    pub fn try_annotate(&self, text: &str) -> Result<Arc<NlpResult>, NlpError> {
        let key = self.key_of(text);
        if let Some(hit) = self.lookup(key, text) {
            return Ok(hit);
        }
        let result = Arc::new(self.inner.try_annotate(text)?);
        self.insert_result(key, &result);
        Ok(result)
    }

    /// Insert a freshly computed result, enforcing the capacity bound.
    fn insert_result(&self, key: u64, result: &Arc<NlpResult>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.map.contains_key(&key) {
            // Another worker missed on the same key and inserted while we
            // were computing (or a different text owns the key). Keep the
            // resident entry: inserting again would push a
            // duplicate ring entry, and a later eviction of one copy
            // leaves the other pointing at nothing — from there the
            // capacity bound decays (the drybell-modelcheck cache model
            // finds exactly this schedule).
            return;
        }
        if state.map.len() >= self.capacity {
            let cursor = state.cursor;
            let evict = state.ring[cursor];
            state.map.remove(&evict);
            state.ring[cursor] = key;
            state.cursor = (cursor + 1) % self.capacity;
            state.stats.evictions += 1;
        } else {
            state.ring.push(key);
        }
        state.map.insert(key, Arc::clone(result));
    }

    /// Snapshot of cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Publish the current [`CacheStats`] into `metrics` as the gauges
    /// `nlp_cache/hits`, `nlp_cache/misses`, `nlp_cache/evictions`, and
    /// `nlp_cache/size` (resident entries).
    ///
    /// Gauges (not counters) because this is a point-in-time export of an
    /// absolute level: calling it again overwrites rather than
    /// double-counts.
    pub fn export_to(&self, metrics: &MetricsRegistry) {
        let (stats, size) = {
            let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            (state.stats, state.map.len())
        };
        metrics.gauge("nlp_cache/hits").set(stats.hits as i64);
        metrics.gauge("nlp_cache/misses").set(stats.misses as i64);
        metrics
            .gauge("nlp_cache/evictions")
            .set(stats.evictions as i64);
        metrics.gauge("nlp_cache/size").set(size as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_text_hits_the_cache() {
        let metrics = MetricsRegistry::new();
        let cache = CachedNlpServer::new(NlpServer::new().with_metrics(&metrics), 16);
        let a = cache.annotate("Alice Johnson buys a camera");
        let b = cache.annotate("Alice Johnson buys a camera");
        assert_eq!(a.entities, b.entities);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // The expensive server only ran once.
        assert_eq!(metrics.snapshot().counter("nlp_calls"), 1);
    }

    /// Two texts under one key: each gets its own annotation, the first
    /// keeps the entry, the second is annotated every time.
    #[test]
    fn texts_with_one_key_are_not_served_each_other() {
        let metrics = MetricsRegistry::new();
        let mut cache = CachedNlpServer::new(NlpServer::new().with_metrics(&metrics), 4);
        cache.all_texts_collide = true;
        let (camera, alice) = ("buy a camera", "Alice Johnson arrived in Springfield");
        let plain = NlpServer::new();
        for _ in 0..2 {
            for text in [camera, alice] {
                for got in [cache.annotate(text), cache.try_annotate(text).unwrap()] {
                    let want = plain.annotate(text);
                    assert_eq!(got.tokens, want.tokens);
                    assert_eq!(got.entities, want.entities);
                    assert_eq!(got.topic_probs, want.topic_probs);
                }
            }
        }
        let stats = cache.stats();
        // Eight calls: "camera" misses once and then hits; "alice" always
        // misses, and the entry it cannot take is never evicted for it.
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 5, 0));
        assert_eq!(metrics.snapshot().counter("nlp_calls"), 5);
    }

    #[test]
    fn distinct_texts_miss() {
        let cache = CachedNlpServer::new(NlpServer::new(), 16);
        for i in 0..5 {
            cache.annotate(&format!("text number {i}"));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let cache = CachedNlpServer::new(NlpServer::new(), 4);
        for i in 0..10 {
            cache.annotate(&format!("item {i}"));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 6);
        // Re-annotating the most recent items can still hit.
        cache.annotate("item 9");
        assert!(cache.stats().hits >= 1 || cache.stats().misses == 11);
    }

    #[test]
    fn evicted_entries_recompute() {
        let cache = CachedNlpServer::new(NlpServer::new(), 2);
        cache.annotate("one");
        cache.annotate("two");
        cache.annotate("three"); // evicts "one"
        cache.annotate("one"); // miss again
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CachedNlpServer::new(NlpServer::new(), 0);
    }

    #[test]
    fn export_to_publishes_stats_as_gauges() {
        let metrics = MetricsRegistry::new();
        let cache = CachedNlpServer::new(NlpServer::new(), 2);
        cache.annotate("one");
        cache.annotate("one");
        cache.annotate("two");
        cache.annotate("three"); // evicts
        cache.export_to(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("nlp_cache/hits"), 1);
        assert_eq!(snap.gauge("nlp_cache/misses"), 3);
        assert_eq!(snap.gauge("nlp_cache/evictions"), 1);
        // Re-exporting overwrites, never double-counts.
        cache.export_to(&metrics);
        assert_eq!(metrics.snapshot().gauge("nlp_cache/misses"), 3);
    }

    #[test]
    fn try_annotate_failures_are_never_cached() {
        let plan = drybell_dataflow::FaultPlan::seeded(2).fail_nlp_text("down");
        let cache = CachedNlpServer::new(NlpServer::new().with_fault_plan(plan), 16);
        assert!(cache.try_annotate("down").is_err());
        assert!(
            cache.try_annotate("down").is_err(),
            "failure must not be memoized"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "each failed call must reach the server");
        assert_eq!(stats.hits, 0);
        // Healthy texts behave normally and do memoize.
        assert!(cache.try_annotate("up").is_ok());
        assert!(cache.try_annotate("up").is_ok());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_hits_shield_against_a_failing_server() {
        // The server fails every try_annotate for this text, but a prior
        // cached result keeps answering.
        let plan = drybell_dataflow::FaultPlan::seeded(2).fail_nlp_text("flaky text");
        let cache = CachedNlpServer::new(NlpServer::new().with_fault_plan(plan), 16);
        // Seed the memo table through the infallible path (a call made
        // while the service was healthy).
        cache.annotate("flaky text");
        let shielded = cache.try_annotate("flaky text").unwrap();
        assert!(!shielded.tokens.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_annotation_is_safe() {
        let cache = std::sync::Arc::new(CachedNlpServer::new(NlpServer::new(), 64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        cache.annotate(&format!("shared text {}", (i + t) % 20));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.hits > 0, "concurrent reuse should hit");
    }
}
