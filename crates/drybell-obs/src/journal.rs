//! The structured run journal: one JSON object per line, one line per
//! event (a pipeline phase finishing, a training epoch, a shard written,
//! a shadow-eval verdict, …).
//!
//! Every line carries a monotonic sequence number and seconds since the
//! journal opened, so events order and align even when emitted from many
//! threads. The format is append-only JSONL — greppable, and parseable
//! line-by-line with [`crate::json::parse`].

use crate::hash::Fnv1a64;
use crate::json::Json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Journal schema version stamped by [`RunJournal::emit_header`].
///
/// Journals written before the header existed carry no version; readers
/// (e.g. `drybell-doctor`) treat them as schema `0`.
pub const SCHEMA_VERSION: u32 = 1;

/// FNV-1a over the given parts (each terminated by a NUL so `["ab"]`
/// and `["a", "b"]` hash differently), rendered as 16 hex digits.
///
/// This is the stable config fingerprint callers put in the journal
/// header: hash the knobs that define the run's configuration (scale,
/// seed, worker count, …) and two runs are comparable iff the digests
/// match.
pub fn config_fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = Fnv1a64::new();
    for part in parts {
        h.write(part.as_bytes());
        h.write(&[0]);
    }
    format!("{:016x}", h.finish())
}

/// One journal event under construction.
#[derive(Debug, Clone)]
pub struct Event {
    kind: String,
    fields: Vec<(String, Json)>,
}

impl Event {
    /// Start an event of the given kind (e.g. `"phase"`, `"epoch"`).
    pub fn new(kind: &str) -> Event {
        Event {
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Attach a field. Order is preserved in the output line.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Event {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The event as a standalone JSON object: `kind` plus the fields in
    /// attachment order, without the journal's `seq`/`t` envelope (those
    /// are assigned at emit time). Used by side channels that observe
    /// events without owning them — e.g. the flight recorder's ring.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::with_capacity(self.fields.len() + 1);
        fields.push(("kind".to_string(), Json::Str(self.kind.clone())));
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }

    fn into_json(self, seq: u64, t_seconds: f64) -> Json {
        let mut fields = Vec::with_capacity(self.fields.len() + 3);
        fields.push(("seq".to_string(), Json::from(seq)));
        fields.push(("t".to_string(), Json::Num(t_seconds)));
        fields.push(("kind".to_string(), Json::Str(self.kind)));
        fields.extend(self.fields);
        Json::Obj(fields)
    }
}

/// Everything a write needs, under one lock: assigning the sequence
/// number and appending the line are a single critical section, so a
/// line's position in the file always matches its `seq` field.
struct JournalState {
    sink: Box<dyn Write + Send>,
    seq: u64,
}

struct JournalInner {
    state: Mutex<JournalState>,
    start: Instant,
}

/// A shared, clonable handle to one append-only JSONL journal.
#[derive(Clone)]
pub struct RunJournal {
    inner: Arc<JournalInner>,
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("events", &self.events())
            .finish()
    }
}

impl RunJournal {
    /// Journal into a buffered file at `path` (truncating).
    pub fn to_path(path: &Path) -> io::Result<RunJournal> {
        let file = File::create(path)?;
        Ok(RunJournal::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Journal into any writer.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> RunJournal {
        RunJournal {
            inner: Arc::new(JournalInner {
                state: Mutex::new(JournalState { sink, seq: 0 }),
                start: Instant::now(),
            }),
        }
    }

    /// Journal into a shared in-memory buffer, returned alongside the
    /// handle — the natural choice in tests.
    pub fn in_memory() -> (RunJournal, JournalBuffer) {
        let buffer = JournalBuffer::default();
        (RunJournal::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Emit the run-identity header: one `run_header` event carrying the
    /// journal [`SCHEMA_VERSION`], a caller-chosen run id, and a config
    /// fingerprint (see [`config_fingerprint`]). By convention this is
    /// the first event of a journal; readers must tolerate journals
    /// without one (older artifacts are schema `0`).
    pub fn emit_header(&self, run_id: &str, config_fingerprint: &str) {
        self.emit(
            Event::new("run_header")
                .field("schema_version", SCHEMA_VERSION)
                .field("run_id", run_id)
                .field("config_fingerprint", config_fingerprint),
        );
    }

    /// Append one event. The journal lock is taken exactly once per
    /// event — sequence assignment and the write are one critical
    /// section. Write errors are deliberately swallowed: telemetry
    /// must never take down the pipeline it observes.
    pub fn emit(&self, event: Event) {
        let t = self.inner.start.elapsed().as_secs_f64();
        let mut state = self.locked();
        let seq = state.seq;
        state.seq += 1;
        let line = event.into_json(seq, t).to_line();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "telemetry must never take down the pipeline it observes"
        )]
        let _ = writeln!(state.sink, "{line}");
    }

    /// Append a batch of events under one lock acquisition, with
    /// consecutive sequence numbers and a shared timestamp — the flush
    /// path for thread-local telemetry shards (`crate::shard`), where
    /// buffered events must land contiguously rather than interleaved
    /// with other threads' flushes.
    pub fn emit_batch(&self, events: impl IntoIterator<Item = Event>) {
        let t = self.inner.start.elapsed().as_secs_f64();
        let mut state = self.locked();
        for event in events {
            let seq = state.seq;
            state.seq += 1;
            let line = event.into_json(seq, t).to_line();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "telemetry must never take down the pipeline it observes"
            )]
            let _ = writeln!(state.sink, "{line}");
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events emitted so far.
    pub fn events(&self) -> u64 {
        self.locked().seq
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.locked().sink.flush()
    }
}

/// A clonable in-memory sink for [`RunJournal::in_memory`].
#[derive(Debug, Default, Clone)]
pub struct JournalBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl JournalBuffer {
    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        let bytes = self.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Parse each non-empty line as JSON.
    pub fn parsed_lines(&self) -> Result<Vec<Json>, crate::json::JsonError> {
        self.contents()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(crate::json::parse)
            .collect()
    }
}

impl Write for JournalBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_seq_time_and_fields() {
        let (journal, buffer) = RunJournal::in_memory();
        journal.emit(
            Event::new("phase")
                .field("name", "map")
                .field("seconds", 0.5)
                .field("records", 12u64),
        );
        journal.emit(Event::new("done"));
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("seq").unwrap().as_i64(), Some(0));
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("phase"));
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("map"));
        assert_eq!(lines[0].get("records").unwrap().as_i64(), Some(12));
        assert!(lines[0].get("t").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(lines[1].get("seq").unwrap().as_i64(), Some(1));
        assert_eq!(journal.events(), 2);
    }

    #[test]
    fn concurrent_emits_produce_distinct_whole_lines() {
        let (journal, buffer) = RunJournal::in_memory();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let journal = journal.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        journal.emit(
                            Event::new("tick")
                                .field("worker", t as u64)
                                .field("i", i as u64),
                        );
                    }
                });
            }
        });
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines.len(), 200);
        // All sequence numbers present exactly once.
        let mut seqs: Vec<i64> = lines
            .iter()
            .map(|l| l.get("seq").unwrap().as_i64().unwrap())
            .collect();
        seqs.sort();
        assert_eq!(seqs, (0..200).collect::<Vec<i64>>());
    }

    #[test]
    fn batches_are_contiguous_under_interleaved_writers() {
        let (journal, buffer) = RunJournal::in_memory();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let journal = journal.clone();
                scope.spawn(move || {
                    for batch in 0..10 {
                        journal.emit_batch((0..5).map(|i| {
                            Event::new("tick")
                                .field("worker", t as u64)
                                .field("batch", batch as u64)
                                .field("i", i as u64)
                        }));
                    }
                });
            }
        });
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines.len(), 200);
        assert_eq!(journal.events(), 200);
        // Sequence numbers are dense and in file order...
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("seq").unwrap().as_i64(), Some(i as i64));
        }
        // ...and each 5-event batch landed contiguously.
        for window in lines.chunks(5) {
            let worker = window[0].get("worker").unwrap().as_i64();
            let batch = window[0].get("batch").unwrap().as_i64();
            for (i, line) in window.iter().enumerate() {
                assert_eq!(line.get("worker").unwrap().as_i64(), worker);
                assert_eq!(line.get("batch").unwrap().as_i64(), batch);
                assert_eq!(line.get("i").unwrap().as_i64(), Some(i as i64));
            }
        }
    }

    #[test]
    fn header_event_carries_schema_and_identity() {
        let (journal, buffer) = RunJournal::in_memory();
        journal.emit_header("run-7", "deadbeefdeadbeef");
        journal.emit(Event::new("phase").field("name", "map"));
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("run_header"));
        assert_eq!(
            lines[0].get("schema_version").unwrap().as_i64(),
            Some(i64::from(SCHEMA_VERSION))
        );
        assert_eq!(lines[0].get("run_id").unwrap().as_str(), Some("run-7"));
        assert_eq!(
            lines[0].get("config_fingerprint").unwrap().as_str(),
            Some("deadbeefdeadbeef")
        );
        assert_eq!(lines[0].get("seq").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn config_fingerprint_is_stable_and_boundary_sensitive() {
        let a = config_fingerprint(["scale=0.1", "seed=7"]);
        assert_eq!(a, config_fingerprint(["scale=0.1", "seed=7"]));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        // Pinned: headers of journals already on disk must stay comparable.
        assert_eq!(a, "f7e91edabc305eba");
        assert_ne!(a, config_fingerprint(["scale=0.1", "seed=8"]));
        // Part boundaries matter: ["ab"] and ["a","b"] differ.
        assert_ne!(config_fingerprint(["ab"]), config_fingerprint(["a", "b"]));
        assert_ne!(
            config_fingerprint(std::iter::empty::<&str>()),
            config_fingerprint([""])
        );
    }

    #[test]
    fn file_journal_round_trips() {
        let dir = std::env::temp_dir().join(format!("obs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let journal = RunJournal::to_path(&path).unwrap();
        journal.emit(Event::new("phase").field("name", "map"));
        journal.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("name").unwrap().as_str(), Some("map"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
