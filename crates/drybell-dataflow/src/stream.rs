//! Streaming ingestion: watch a spool directory for atomically-committed
//! shards and deliver each exactly once, in a deterministic order.
//!
//! The ingestor is the arrival half of the streaming pipeline (the
//! paper's third production workload is *real-time events*; batch jobs
//! cover the other two). Producers write shards with [`ShardWriter`],
//! which stages bytes in a `.tmp` sibling and renames onto the final
//! `.rec` path only after appending the CRC commit footer — so a poll
//! can classify every file in the spool with no coordination:
//!
//! * **committed** — ends in a valid [`crate::codec`] footer; delivered
//!   exactly once (a name, once delivered, is never delivered again, so
//!   re-sighting a committed shard on a later poll is a no-op and votes
//!   are never double-counted);
//! * **torn / in-flight** — `.tmp` stages and `.rec` files without a
//!   valid footer (a producer that died mid-rename, a truncated copy).
//!   Skipped this poll and re-examined on the next one: a torn shard
//!   never poisons the stream, it just stays undelivered until a
//!   producer commits it properly;
//! * **foreign** — anything that is not a `.rec` file; ignored.
//!
//! Delivery order within a poll is by file name, not directory order or
//! mtime, so a replayed spool produces the identical shard sequence —
//! the property `GenerativeModel::fit_incremental` turns into a
//! byte-identical parameter trajectory.
//!
//! Fault injection reuses the [`FaultPlan`] schedule machinery: a
//! `FaultSite::Stream` entry fails the matching *arrival* (keyed by the
//! order each file is first sighted) for its scheduled attempt, and the
//! ingestor retries the file on subsequent polls up to
//! [`StreamIngestor::with_max_attempts`], mirroring the batch engine's
//! per-task retry budget.

use crate::error::DataflowError;
use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::shard::shard_is_committed;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use std::time::SystemTime;

#[cfg(doc)]
use crate::shard::ShardWriter;

/// One committed shard delivered by [`StreamIngestor::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivedShard {
    /// Full path of the committed `.rec` file.
    pub path: PathBuf,
    /// Zero-based delivery sequence number over the ingestor's lifetime
    /// (the deterministic stream position of this shard).
    pub sequence: u64,
}

/// Per-file sighting state: stable arrival id and failed attempt count.
#[derive(Debug, Clone, Copy)]
struct Sighting {
    /// Arrival index assigned the first time the file is sighted; this
    /// is the task key for `FaultSite::Stream` schedule entries.
    arrival: usize,
    attempts: u32,
    delivered: bool,
}

/// Watches a spool directory and yields newly committed shards.
///
/// See the [module docs](self) for the delivery protocol. The ingestor
/// holds no file handles between polls and keeps only file-name state,
/// so it is cheap to poll at high frequency.
pub struct StreamIngestor {
    dir: PathBuf,
    sightings: BTreeMap<OsString, Sighting>,
    next_arrival: usize,
    delivered: u64,
    fault_plan: FaultPlan,
    max_attempts: u32,
    telemetry: Option<drybell_obs::Telemetry>,
}

impl StreamIngestor {
    /// Watch `dir` for committed shards. The directory does not need to
    /// exist yet; polls before it appears deliver nothing.
    pub fn new(dir: impl Into<PathBuf>) -> StreamIngestor {
        StreamIngestor {
            dir: dir.into(),
            sightings: BTreeMap::new(),
            next_arrival: 0,
            delivered: 0,
            fault_plan: FaultPlan::default(),
            max_attempts: 3,
            telemetry: None,
        }
    }

    /// Inject `FaultSite::Stream` schedule faults into arrivals.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> StreamIngestor {
        self.fault_plan = plan;
        self
    }

    /// Per-arrival injected-fault retry budget (total attempts, like
    /// `JobConfig::with_max_attempts`; default 3). Exhausting it fails
    /// the poll.
    pub fn with_max_attempts(mut self, attempts: u32) -> StreamIngestor {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Observe deliveries: bumps the `stream/shards_seen` counter and
    /// sets the `stream/lag_us` gauge (commit-to-pickup latency of the
    /// most recently delivered shard, from file mtime) on each poll.
    pub fn with_telemetry(mut self, telemetry: drybell_obs::Telemetry) -> StreamIngestor {
        self.telemetry = Some(telemetry);
        self
    }

    /// Number of shards delivered so far.
    pub fn shards_seen(&self) -> u64 {
        self.delivered
    }

    /// Scan the spool once and return every newly committed shard, in
    /// file-name order. Torn or in-flight files are skipped (retried on
    /// the next poll); already-delivered names are never re-delivered.
    pub fn poll(&mut self) -> Result<Vec<ArrivedShard>, DataflowError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            // A spool that has not been created yet is an empty stream,
            // not an error — producers may race the consumer's startup.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(DataflowError::io(&self.dir, e)),
        };
        let mut names: Vec<OsString> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| DataflowError::io(&self.dir, e))?;
            let name = entry.file_name();
            if Path::new(&name).extension().is_some_and(|ext| ext == "rec") {
                names.push(name);
            }
        }
        // File-name order, not readdir order: the delivery sequence must
        // be a pure function of the set of committed files.
        names.sort();
        let mut delivered = Vec::new();
        let mut last_lag_us: Option<i64> = None;
        for name in names {
            let sighting = {
                let next = self.next_arrival;
                let s = self
                    .sightings
                    .entry(name.clone())
                    .or_insert_with(|| Sighting {
                        arrival: next,
                        attempts: 0,
                        delivered: false,
                    });
                if s.arrival == next {
                    self.next_arrival += 1;
                }
                *s
            };
            if sighting.delivered {
                continue;
            }
            let path = self.dir.join(&name);
            if !shard_is_committed(&path) {
                // Torn or still being written: leave it for a later
                // poll. No state advances, so a producer retry that
                // commits the same name later is picked up cleanly.
                continue;
            }
            // Injected arrival fault (chaos tests): consume one attempt
            // and retry on a later poll, up to the budget.
            match self
                .fault_plan
                .task_fault(FaultSite::Stream, sighting.arrival, sighting.attempts)
            {
                Some(FaultKind::Error | FaultKind::Panic) => {
                    if let Some(s) = self.sightings.get_mut(&name) {
                        s.attempts += 1;
                        if s.attempts >= self.max_attempts {
                            // Fault budget exhausted: preserve the ring
                            // of events leading up to the failure before
                            // surfacing it — the dump is the post-mortem
                            // for a fault the retry budget could not
                            // absorb.
                            if let Some(t) = &self.telemetry {
                                t.dump_flight("stream_fault_budget");
                            }
                            return Err(DataflowError::User(format!(
                                "stream arrival {} ({}) failed {} attempts",
                                sighting.arrival,
                                path.display(),
                                s.attempts
                            )));
                        }
                    }
                    continue;
                }
                Some(FaultKind::Delay(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms))
                }
                None => {}
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "commit-to-pickup lag is a telemetry-only gauge; it never influences delivery"
            )]
            let lag_us = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                .map(|d| d.as_micros().min(i64::MAX as u128) as i64);
            if let Some(s) = self.sightings.get_mut(&name) {
                s.delivered = true;
            }
            delivered.push(ArrivedShard {
                path,
                sequence: self.delivered,
            });
            self.delivered += 1;
            if let Some(lag) = lag_us {
                last_lag_us = Some(lag);
            }
        }
        // Telemetry flushes once per poll (the batch boundary), not per
        // delivered shard.
        if let Some(t) = &self.telemetry {
            if !delivered.is_empty() {
                t.metrics()
                    .counter("stream/shards_seen")
                    .add(delivered.len() as u64);
            }
            if let Some(lag) = last_lag_us {
                t.metrics().gauge("stream/lag_us").set(lag);
            }
        }
        Ok(delivered)
    }

    /// Run [`StreamIngestor::poll`] as a daemon: poll, hand every
    /// non-empty batch to `on_batch`, sleep `interval`, repeat until
    /// `shutdown` is set (or a poll fails). The sleep is sliced into
    /// ≤10 ms naps so a shutdown requested mid-interval takes effect
    /// promptly even with a multi-second poll interval — the shape a
    /// supervisor thread expects from a stoppable worker.
    ///
    /// Returns the number of shards delivered to `on_batch` over the
    /// loop's lifetime.
    pub fn poll_loop(
        &mut self,
        interval: Duration,
        shutdown: &AtomicBool,
        mut on_batch: impl FnMut(Vec<ArrivedShard>),
    ) -> Result<u64, DataflowError> {
        const NAP: Duration = Duration::from_millis(10);
        let mut handed = 0_u64;
        while !shutdown.load(Ordering::Acquire) {
            let batch = self.poll()?;
            if !batch.is_empty() {
                handed += batch.len() as u64;
                on_batch(batch);
            }
            let mut remaining = interval;
            while remaining > Duration::ZERO {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(handed);
                }
                let nap = remaining.min(NAP);
                std::thread::sleep(nap);
                remaining = remaining.saturating_sub(nap);
            }
        }
        Ok(handed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardReader, ShardWriter};

    type Rec = (u64, String);

    fn write_committed(dir: &Path, name: &str, lo: u64, hi: u64) {
        let mut w = ShardWriter::<Rec>::create(&dir.join(name)).unwrap();
        for i in lo..hi {
            w.write(&(i, format!("doc {i}"))).unwrap();
        }
        w.finish().unwrap();
    }

    fn read_ids(path: &Path) -> Vec<u64> {
        ShardReader::<Rec>::open(path)
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect()
    }

    #[test]
    fn delivers_committed_shards_once_in_name_order() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "b-00001.rec", 10, 20);
        write_committed(dir.path(), "a-00000.rec", 0, 10);
        let mut ing = StreamIngestor::new(dir.path());
        let first = ing.poll().unwrap();
        assert_eq!(first.len(), 2);
        // Name order, regardless of creation order.
        assert!(first[0].path.ends_with("a-00000.rec"));
        assert_eq!(first[0].sequence, 0);
        assert_eq!(first[1].sequence, 1);
        assert_eq!(read_ids(&first[0].path), (0..10).collect::<Vec<_>>());
        // Redelivery is idempotent: the files are still in the spool but
        // a second poll yields nothing — no double-counted votes.
        assert!(ing.poll().unwrap().is_empty());
        assert_eq!(ing.shards_seen(), 2);
        // A new commit between polls arrives with the next sequence.
        write_committed(dir.path(), "c-00002.rec", 20, 25);
        let third = ing.poll().unwrap();
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].sequence, 2);
    }

    #[test]
    fn torn_shard_is_skipped_then_picked_up_after_commit() {
        let dir = tempfile::tempdir().unwrap();
        // A torn file: record bytes but no commit footer (a producer
        // that died mid-write and somehow got partial bytes onto the
        // final name, the worst case rename atomicity cannot prevent).
        std::fs::write(dir.path().join("x-00000.rec"), b"partial garbage").unwrap();
        // And a staged .tmp from a live producer: must be invisible.
        std::fs::write(dir.path().join("y-00001.rec.tmp"), b"in flight").unwrap();
        let mut ing = StreamIngestor::new(dir.path());
        assert!(
            ing.poll().unwrap().is_empty(),
            "torn shard must not deliver"
        );
        assert!(
            ing.poll().unwrap().is_empty(),
            "…and must not poison later polls"
        );
        // The producer retries and commits the same name properly.
        write_committed(dir.path(), "x-00000.rec", 0, 5);
        let got = ing.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(read_ids(&got[0].path), vec![0, 1, 2, 3, 4]);
        assert_eq!(ing.shards_seen(), 1);
    }

    #[test]
    fn missing_spool_directory_is_an_empty_stream() {
        let dir = tempfile::tempdir().unwrap();
        let spool = dir.path().join("not-yet-created");
        let mut ing = StreamIngestor::new(&spool);
        assert!(ing.poll().unwrap().is_empty());
        std::fs::create_dir_all(&spool).unwrap();
        write_committed(&spool, "a-00000.rec", 0, 3);
        assert_eq!(ing.poll().unwrap().len(), 1);
    }

    #[test]
    fn injected_arrival_fault_retries_then_delivers() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        let plan = FaultPlan::seeded(3).fail_task(FaultSite::Stream, 0, 0);
        let mut ing = StreamIngestor::new(dir.path()).with_fault_plan(plan);
        assert!(
            ing.poll().unwrap().is_empty(),
            "attempt 0 fails by schedule"
        );
        let got = ing.poll().unwrap();
        assert_eq!(got.len(), 1, "attempt 1 succeeds");
        assert_eq!(got[0].sequence, 0);
    }

    #[test]
    fn exhausted_arrival_attempts_fail_the_poll() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        let plan = FaultPlan::seeded(3)
            .fail_task(FaultSite::Stream, 0, 0)
            .fail_task(FaultSite::Stream, 0, 1);
        let mut ing = StreamIngestor::new(dir.path())
            .with_fault_plan(plan)
            .with_max_attempts(2);
        assert!(ing.poll().unwrap().is_empty());
        assert!(matches!(ing.poll(), Err(DataflowError::User(_))));
    }

    #[test]
    fn poll_loop_delivers_and_shutdown_mid_interval_is_prompt() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        let shutdown = std::sync::Arc::new(AtomicBool::new(false));
        let spool = dir.path().to_path_buf();
        let flag = std::sync::Arc::clone(&shutdown);
        let worker = std::thread::spawn(move || {
            let mut ing = StreamIngestor::new(&spool);
            let mut seen = Vec::new();
            // A one-hour interval: only sliced napping lets shutdown in.
            let handed = ing
                .poll_loop(Duration::from_secs(3600), &flag, |batch| {
                    seen.extend(batch.into_iter().map(|s| s.sequence));
                })
                .unwrap();
            (handed, seen)
        });
        // Let the first poll land, then stop the daemon mid-interval.
        std::thread::sleep(Duration::from_millis(50));
        let stopped_at = std::time::Instant::now();
        shutdown.store(true, Ordering::Release);
        let (handed, seen) = worker.join().unwrap();
        assert!(
            stopped_at.elapsed() < Duration::from_secs(5),
            "shutdown must not wait out the interval"
        );
        assert_eq!(handed, 1);
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn poll_loop_with_shutdown_preset_exits_before_polling() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        let mut ing = StreamIngestor::new(dir.path());
        let shutdown = AtomicBool::new(true);
        let handed = ing
            .poll_loop(Duration::from_millis(1), &shutdown, |_| {
                panic!("must not deliver after shutdown")
            })
            .unwrap();
        assert_eq!(handed, 0);
        assert_eq!(ing.shards_seen(), 0);
    }

    #[test]
    fn exhausted_fault_budget_dumps_the_flight_recorder() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        let flight_dir = dir.path().join("flight");
        let telemetry = drybell_obs::Telemetry::new()
            .with_flight(drybell_obs::FlightRecorder::with_capacity(&flight_dir, 16));
        telemetry.emit(drybell_obs::Event::new("phase").field("name", "ingest"));
        let plan = FaultPlan::seeded(3)
            .fail_task(FaultSite::Stream, 0, 0)
            .fail_task(FaultSite::Stream, 0, 1);
        let mut ing = StreamIngestor::new(dir.path())
            .with_fault_plan(plan)
            .with_max_attempts(2)
            .with_telemetry(telemetry.clone());
        assert!(ing.poll().unwrap().is_empty());
        assert!(matches!(ing.poll(), Err(DataflowError::User(_))));
        let dumps: Vec<_> = std::fs::read_dir(&flight_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dumps.len(), 1, "exhaustion must leave a post-mortem");
        let text = std::fs::read_to_string(&dumps[0]).unwrap();
        assert!(
            text.contains("\"reason\":\"stream_fault_budget\""),
            "{text}"
        );
        assert!(
            text.contains("\"kind\":\"phase\""),
            "ring context kept: {text}"
        );
    }

    #[test]
    fn telemetry_counts_deliveries() {
        let dir = tempfile::tempdir().unwrap();
        write_committed(dir.path(), "a-00000.rec", 0, 5);
        write_committed(dir.path(), "b-00001.rec", 5, 9);
        let telemetry = drybell_obs::Telemetry::new();
        let mut ing = StreamIngestor::new(dir.path()).with_telemetry(telemetry.clone());
        ing.poll().unwrap();
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("stream/shards_seen"), 2);
        assert!(snap.gauge("stream/lag_us") >= 0);
    }
}
