//! Named job counters, in the spirit of MapReduce counters.
//!
//! Workers increment counters cheaply through a [`CounterHandle`]; the
//! engine merges the tally of each shard attempt that commits into a
//! [`CounterSnapshot`] attached to the job's final stats. Counters are
//! how LF pipelines report vote distributions, service cache hits, skipped
//! records, etc. without funneling everything through return values.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared counter registry for one job.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    inner: Arc<Mutex<HashMap<String, u64>>>,
}

impl Counters {
    /// Create an empty registry.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Add `n` to the counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, n: u64) {
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // Fast path avoids allocating a String for names already present
        // (the common case on per-record paths).
        if let Some(slot) = map.get_mut(name) {
            *slot += n;
        } else {
            map.insert(name.to_owned(), n);
        }
    }

    /// Increment the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot all counters, sorted by name.
    pub fn snapshot(&self) -> CounterSnapshot {
        let map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<(String, u64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort();
        CounterSnapshot { entries }
    }

    /// Merge a local tally into the registry in one lock acquisition.
    pub fn merge(&self, local: &HashMap<String, u64>) {
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "addition commutes; visit order cannot affect the merged totals"
        )]
        for (k, v) in local {
            *map.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// A worker-local counter buffer that batches increments and flushes them
/// to the shared [`Counters`] on drop (avoiding per-record lock traffic).
pub struct CounterHandle {
    shared: Counters,
    local: HashMap<String, u64>,
}

impl CounterHandle {
    /// Create a handle feeding `shared`.
    pub fn new(shared: Counters) -> CounterHandle {
        CounterHandle {
            shared,
            local: HashMap::new(),
        }
    }

    /// Add `n` to the local tally of `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        // Fast path: the counter usually already exists locally.
        if let Some(slot) = self.local.get_mut(name) {
            *slot += n;
        } else {
            self.local.insert(name.to_owned(), n);
        }
    }

    /// Increment the local tally by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The shared registry this handle flushes into — for sideband
    /// reporters (e.g. a worker's cache stats on shutdown) that need to
    /// merge totals outside the per-record path.
    pub fn shared(&self) -> &Counters {
        &self.shared
    }

    /// Flush the local tally into the shared registry immediately.
    pub fn flush(&mut self) {
        if !self.local.is_empty() {
            self.shared.merge(&self.local);
            self.local.clear();
        }
    }

    /// Throw the local tally away unflushed: what a failed shard attempt
    /// counted must not reach the job's totals.
    pub(crate) fn discard(&mut self) {
        self.local.clear();
    }
}

impl Drop for CounterHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An immutable, sorted snapshot of the counters after a job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    entries: Vec<(String, u64)>,
}

impl CounterSnapshot {
    /// Counter value by name (zero if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map_or(0, |(_, v)| *v)
    }

    /// Add `n` to `name`, inserting at zero if absent and keeping the
    /// entries sorted. For post-job sideband totals (e.g. a shared NLP
    /// cache's final stats joining the job's counters).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => {
                if let Some(entry) = self.entries.get_mut(i) {
                    entry.1 += n;
                }
            }
            Err(i) => self.entries.insert(i, (name.to_owned(), n)),
        }
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.inc("a");
        c.add("a", 4);
        c.inc("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("missing"), 0);
        let snap = c.snapshot();
        assert_eq!(snap.get("a"), 5);
        assert_eq!(snap.entries().len(), 2);
        // Sorted order.
        assert_eq!(snap.entries()[0].0, "a");
    }

    #[test]
    fn snapshot_add_inserts_sorted() {
        let c = Counters::new();
        c.add("b", 2);
        let mut snap = c.snapshot();
        snap.add("b", 3);
        snap.add("a", 1);
        snap.add("z", 9);
        assert_eq!(snap.get("a"), 1);
        assert_eq!(snap.get("b"), 5);
        assert_eq!(snap.get("z"), 9);
        let names: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a", "b", "z"]);
    }

    #[test]
    fn handle_batches_and_flushes_on_drop() {
        let c = Counters::new();
        {
            let mut h = CounterHandle::new(c.clone());
            h.inc("x");
            h.add("x", 9);
            // Not yet visible.
            assert_eq!(c.get("x"), 0);
        }
        assert_eq!(c.get("x"), 10);
    }

    #[test]
    fn concurrent_merges_are_lossless() {
        // Workers flushing disjoint and overlapping names through
        // `merge` must never drop or double-count a tally.
        let c = Counters::new();
        thread::scope(|s| {
            for w in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for round in 0..50 {
                        let mut local = HashMap::new();
                        local.insert("shared".to_string(), 1u64);
                        local.insert(format!("worker/{w}"), 2u64);
                        if round % 2 == 0 {
                            local.insert("even_rounds".to_string(), 1u64);
                        }
                        c.merge(&local);
                    }
                });
            }
        });
        assert_eq!(c.get("shared"), 8 * 50);
        assert_eq!(c.get("even_rounds"), 8 * 25);
        for w in 0..8 {
            assert_eq!(c.get(&format!("worker/{w}")), 100);
        }
    }

    #[test]
    fn handle_explicit_flush_then_drop_does_not_double_count() {
        let c = Counters::new();
        {
            let mut h = CounterHandle::new(c.clone());
            h.add("x", 3);
            h.flush();
            assert_eq!(c.get("x"), 3);
            h.inc("x");
            assert_eq!(h.shared().get("x"), 3);
        }
        // Drop flushes only the post-flush increment.
        assert_eq!(c.get("x"), 4);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = Counters::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    let mut h = CounterHandle::new(c);
                    for _ in 0..1000 {
                        h.inc("hits");
                    }
                });
            }
        });
        assert_eq!(c.get("hits"), 8000);
    }
}
