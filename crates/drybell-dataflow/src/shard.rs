//! Sharded record files — the stand-in for Google's distributed filesystem.
//!
//! A *sharded dataset* is a directory holding `N` shard files named
//! `name-00007-of-00032.rec`, each a sequence of checksummed frames (see
//! [`crate::codec`]). Labeling-function binaries in the paper communicate
//! exclusively through such files ("labeling functions are independent
//! executables that use a distributed filesystem to share data", §5.4);
//! here they are the interchange format between pipeline stages.

use crate::codec::{self, CodecError, Record};
use crate::error::DataflowError;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Identifies a sharded dataset: a directory, a base name, and a shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    dir: PathBuf,
    name: String,
    num_shards: usize,
}

impl ShardSpec {
    /// Create a spec. `num_shards` must be at least 1.
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>, num_shards: usize) -> ShardSpec {
        assert!(num_shards >= 1, "a dataset needs at least one shard");
        ShardSpec {
            dir: dir.into(),
            name: name.into(),
            num_shards,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Base name of the dataset.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `i` (`name-0000i-of-0000N.rec`).
    pub fn shard_path(&self, i: usize) -> PathBuf {
        assert!(i < self.num_shards, "shard index out of range");
        self.dir.join(format!(
            "{}-{:05}-of-{:05}.rec",
            self.name, i, self.num_shards
        ))
    }

    /// A sibling spec with the same directory and shard count but a new name
    /// (pipeline stages conventionally write next to their input).
    pub fn derive(&self, name: impl Into<String>) -> ShardSpec {
        ShardSpec {
            dir: self.dir.clone(),
            name: name.into(),
            num_shards: self.num_shards,
        }
    }

    /// `true` if every shard file exists on disk.
    ///
    /// Because [`ShardWriter`] only ever creates the final path via an
    /// atomic rename on commit, a file being present implies it was
    /// written to completion; use [`ShardSpec::is_complete`] to also
    /// verify the commit footers (defense against out-of-band writes).
    pub fn exists(&self) -> bool {
        (0..self.num_shards).all(|i| self.shard_path(i).exists())
    }

    /// `true` if every shard file exists *and* carries a valid commit
    /// footer — the strong form of [`ShardSpec::exists`].
    pub fn is_complete(&self) -> bool {
        (0..self.num_shards).all(|i| shard_is_committed(&self.shard_path(i)))
    }

    /// Delete all shard files (ignores missing ones), including any
    /// orphaned `.tmp` siblings from interrupted writers.
    pub fn remove(&self) -> Result<(), DataflowError> {
        for i in 0..self.num_shards {
            let final_path = self.shard_path(i);
            for p in [tmp_sibling(&final_path), final_path] {
                if p.exists() {
                    fs::remove_file(&p).map_err(|e| DataflowError::io(&p, e))?;
                }
            }
        }
        Ok(())
    }
}

/// The `.tmp` sibling a [`ShardWriter`] stages its output in before the
/// commit rename.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Whether the file at `path` exists and ends in a valid commit footer.
/// Only the footer is read, so a stream poll that meets a torn or
/// in-flight shard does not read the whole of it.
pub(crate) fn shard_is_committed(path: &Path) -> bool {
    read_footer(path).is_ok_and(|footer| codec::split_footer(&footer).is_ok())
}

/// The last [`codec::FOOTER_LEN`] bytes of the file at `path`. Fails on a
/// shorter file, and on a directory when it reads.
fn read_footer(path: &Path) -> std::io::Result<[u8; codec::FOOTER_LEN]> {
    let mut footer = [0u8; codec::FOOTER_LEN];
    let mut file = File::open(path)?;
    file.seek(SeekFrom::End(-(codec::FOOTER_LEN as i64)))?;
    file.read_exact(&mut footer)?;
    Ok(footer)
}

/// Buffered writer for one shard file, with atomic commit.
///
/// Output is staged in a `.tmp` sibling and only renamed onto the final
/// path by [`ShardWriter::finish`], after a commit footer (record count
/// and checksum, [`codec::FOOTER_LEN`] bytes) has been appended. A reader
/// therefore either sees no file at all or a byte-complete committed
/// one — never the flushed prefix of an interrupted job — and retrying
/// an aborted shard just truncates the `.tmp` stage and rewrites it,
/// making shard attempts idempotent. Dropping a writer without calling
/// `finish` removes the stage file.
pub struct ShardWriter<R: Record> {
    out: Option<BufWriter<File>>,
    path: PathBuf,
    tmp_path: PathBuf,
    scratch: Vec<u8>,
    frame: Vec<u8>,
    records: u64,
    committed: bool,
    _marker: PhantomData<fn(&R)>,
}

impl<R: Record> ShardWriter<R> {
    /// Create the shard writer for `path`, staging into its `.tmp`
    /// sibling. The final path is not touched until [`finish`].
    ///
    /// [`finish`]: ShardWriter::finish
    pub fn create(path: &Path) -> Result<ShardWriter<R>, DataflowError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| DataflowError::io(parent, e))?;
        }
        let tmp_path = tmp_sibling(path);
        let file = File::create(&tmp_path).map_err(|e| DataflowError::io(&tmp_path, e))?;
        Ok(ShardWriter {
            out: Some(BufWriter::new(file)),
            path: path.to_path_buf(),
            tmp_path,
            scratch: Vec::new(),
            frame: Vec::new(),
            records: 0,
            committed: false,
            _marker: PhantomData,
        })
    }

    /// Append one record.
    pub fn write(&mut self, record: &R) -> Result<(), DataflowError> {
        self.scratch.clear();
        record.encode(&mut self.scratch);
        self.frame.clear();
        codec::put_frame(&mut self.frame, &self.scratch);
        self.out
            .as_mut()
            .ok_or_else(|| DataflowError::internal("write after shard writer closed"))?
            .write_all(&self.frame)
            .map_err(|e| DataflowError::io(&self.tmp_path, e))?;
        self.records += 1;
        Ok(())
    }

    /// Commit the shard: append the record-count footer, flush, and
    /// atomically rename the stage file onto the final path.
    pub fn finish(mut self) -> Result<u64, DataflowError> {
        let mut footer = Vec::with_capacity(codec::FOOTER_LEN);
        codec::put_footer(&mut footer, self.records);
        let out = self
            .out
            .as_mut()
            .ok_or_else(|| DataflowError::internal("finish after shard writer closed"))?;
        out.write_all(&footer)
            .map_err(|e| DataflowError::io(&self.tmp_path, e))?;
        out.flush()
            .map_err(|e| DataflowError::io(&self.tmp_path, e))?;
        // Close the file handle before the rename.
        self.out = None;
        fs::rename(&self.tmp_path, &self.path).map_err(|e| DataflowError::io(&self.path, e))?;
        self.committed = true;
        Ok(self.records)
    }
}

impl<R: Record> Drop for ShardWriter<R> {
    fn drop(&mut self) {
        if !self.committed {
            // Abandoned attempt: close and discard the stage file so a
            // retry (or a later cleanup pass) finds no leftovers.
            self.out = None;
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best effort: a leftover stage file is never read, and a retry overwrites it"
            )]
            let _ = fs::remove_file(&self.tmp_path);
        }
    }
}

/// A set of shard writers distributing records round-robin.
pub struct ShardWriterSet<R: Record> {
    writers: Vec<ShardWriter<R>>,
    next: usize,
}

impl<R: Record> ShardWriterSet<R> {
    /// Create writers for every shard in the spec.
    pub fn create(spec: &ShardSpec) -> Result<ShardWriterSet<R>, DataflowError> {
        let writers = (0..spec.num_shards())
            .map(|i| ShardWriter::create(&spec.shard_path(i)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardWriterSet { writers, next: 0 })
    }

    /// Append a record to the next shard, round-robin.
    pub fn write(&mut self, record: &R) -> Result<(), DataflowError> {
        let i = self.next;
        self.next = (self.next + 1) % self.writers.len();
        self.writers
            .get_mut(i)
            .ok_or_else(|| DataflowError::internal("round-robin shard index out of range"))?
            .write(record)
    }

    /// Flush and close all shards, returning total records written.
    pub fn finish(self) -> Result<u64, DataflowError> {
        let mut total = 0;
        for w in self.writers {
            total += w.finish()?;
        }
        Ok(total)
    }
}

/// Iterator over the records of one shard file.
pub struct ShardReader<R: Record> {
    buf: Vec<u8>,
    pos: usize,
    /// End of the frame region (the commit footer starts here).
    end: usize,
    /// Record count promised by the commit footer.
    expected: u64,
    /// Records decoded so far.
    seen: u64,
    /// Set after exhaustion or a decode error, so iteration terminates.
    done: bool,
    path: PathBuf,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Record> ShardReader<R> {
    /// Open and fully buffer the shard at `path`, validating its commit
    /// footer. Files without a valid footer — the flushed prefix of an
    /// interrupted writer, or a truncated copy — are rejected as
    /// [`DataflowError::Corrupt`] before any record is surfaced.
    ///
    /// Shards are sized to be read whole (the paper's pipelines stream
    /// shard-at-a-time per worker); buffering keeps decode zero-copy.
    pub fn open(path: &Path) -> Result<ShardReader<R>, DataflowError> {
        let file = File::open(path).map_err(|e| DataflowError::io(path, e))?;
        let mut reader = BufReader::new(file);
        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .map_err(|e| DataflowError::io(path, e))?;
        let (end, expected) = {
            let (frames, count) =
                codec::split_footer(&buf).map_err(|e| DataflowError::corrupt(path, e))?;
            (frames.len(), count)
        };
        Ok(ShardReader {
            buf,
            pos: 0,
            end,
            expected,
            seen: 0,
            done: false,
            path: path.to_path_buf(),
            _marker: PhantomData,
        })
    }

    fn next_record(&mut self) -> Result<Option<R>, DataflowError> {
        if self.done {
            return Ok(None);
        }
        let Some(mut slice) = self.buf.get(self.pos..self.end).filter(|s| !s.is_empty()) else {
            self.done = true;
            if self.seen != self.expected {
                return Err(DataflowError::corrupt(
                    &self.path,
                    CodecError::RecordCountMismatch {
                        expected: self.expected,
                        actual: self.seen,
                    },
                ));
            }
            return Ok(None);
        };
        let before = slice.len();
        let result = (|| {
            let payload =
                codec::get_frame(&mut slice).map_err(|e| DataflowError::corrupt(&self.path, e))?;
            let mut p = payload;
            let record = R::decode(&mut p).map_err(|e| DataflowError::corrupt(&self.path, e))?;
            if !p.is_empty() {
                return Err(DataflowError::corrupt(
                    &self.path,
                    CodecError::TrailingBytes(p.len()),
                ));
            }
            Ok(record)
        })();
        match result {
            Ok(record) => {
                self.pos += before - slice.len();
                self.seen += 1;
                Ok(Some(record))
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }
}

impl<R: Record> Iterator for ShardReader<R> {
    type Item = Result<R, DataflowError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Read every record of every shard into memory (test/tool convenience).
pub fn read_all<R: Record>(spec: &ShardSpec) -> Result<Vec<R>, DataflowError> {
    let mut out = Vec::new();
    for i in 0..spec.num_shards() {
        for rec in ShardReader::<R>::open(&spec.shard_path(i))? {
            out.push(rec?);
        }
    }
    Ok(out)
}

/// Write `records` across the spec's shards round-robin.
pub fn write_all<R: Record>(spec: &ShardSpec, records: &[R]) -> Result<u64, DataflowError> {
    let mut set = ShardWriterSet::create(spec)?;
    for r in records {
        set.write(r)?;
    }
    set.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::any_text;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shard_paths_are_stable() {
        let spec = ShardSpec::new("/tmp/x", "docs", 32);
        assert_eq!(
            spec.shard_path(7).file_name().unwrap().to_str().unwrap(),
            "docs-00007-of-00032.rec"
        );
        assert_eq!(spec.num_shards(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardSpec::new("/tmp/x", "docs", 0);
    }

    #[test]
    fn roundtrip_across_shards() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "nums", 4);
        let records: Vec<(u64, String)> = (0..103).map(|i| (i, format!("record-{i}"))).collect();
        let written = write_all(&spec, &records).unwrap();
        assert_eq!(written, 103);
        assert!(spec.exists());
        let mut back: Vec<(u64, String)> = read_all(&spec).unwrap();
        back.sort();
        assert_eq!(back, records);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "bad", 1);
        write_all(&spec, &[(1u64, "hello".to_string())]).unwrap();
        // Corrupt the last payload byte (just before the commit footer).
        let path = spec.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() - codec::FOOTER_LEN - 1;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        assert!(matches!(result, Err(DataflowError::Corrupt { .. })));
        // Corrupting the footer itself is also caught.
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() - 1;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        assert!(matches!(result, Err(DataflowError::Corrupt { .. })));
    }

    #[test]
    fn uncommitted_writer_leaves_no_files() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "torn", 1);
        let path = spec.shard_path(0);
        {
            let mut w = ShardWriter::<(u64, String)>::create(&path).unwrap();
            w.write(&(1, "flushed but never committed".into())).unwrap();
            // Dropped without finish(): simulates a killed job.
        }
        assert!(!path.exists(), "final path must not appear without commit");
        assert!(!spec.exists());
        assert!(!spec.is_complete());
        let leftovers: Vec<_> = fs::read_dir(dir.path()).unwrap().collect();
        assert!(leftovers.is_empty(), "stage file must be cleaned up");
    }

    #[test]
    fn torn_wellframed_prefix_is_rejected() {
        // A file of perfectly valid frames but no commit footer — exactly
        // what the pre-atomic-commit writer left behind when a job died
        // after a flush — must not be readable as a (truncated) dataset.
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "prefix", 1);
        let mut bytes = Vec::new();
        for i in 0..5u64 {
            let mut payload = Vec::new();
            (i, format!("rec-{i}")).encode(&mut payload);
            codec::put_frame(&mut bytes, &payload);
        }
        fs::write(spec.shard_path(0), &bytes).unwrap();
        assert!(spec.exists(), "the raw file is present");
        assert!(!spec.is_complete(), "but it is not committed");
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        match result {
            Err(DataflowError::Corrupt { source, .. }) => {
                assert_eq!(source, CodecError::MissingFooter);
            }
            other => panic!("expected MissingFooter, got {other:?}"),
        }
    }

    #[test]
    fn every_flipped_byte_and_every_truncation_is_corrupt() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("three.rec");
        let mut w = ShardWriter::<(u64, String)>::create(&path).unwrap();
        for (i, text) in ["one", "two two", "three three three"]
            .into_iter()
            .enumerate()
        {
            w.write(&(i as u64, text.to_owned())).unwrap();
        }
        w.finish().unwrap();
        let good = fs::read(&path).unwrap();
        let read = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            std::panic::catch_unwind(|| -> Result<Vec<(u64, String)>, DataflowError> {
                ShardReader::open(&path)?.collect()
            })
        };
        assert_eq!(read(&good).unwrap().unwrap().len(), 3);
        let mut cases = Vec::new();
        for at in 0..good.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                cases.push((format!("byte {at} ^ {mask:#04x}"), bad));
            }
        }
        for len in 0..good.len() {
            cases.push((format!("first {len} bytes"), good[..len].to_vec()));
        }
        for (case, bytes) in cases {
            let got = read(&bytes);
            assert!(
                matches!(got, Ok(Err(DataflowError::Corrupt { .. }))),
                "{case}: {got:?}"
            );
        }
    }

    #[test]
    fn committed_means_a_valid_footer_at_the_end() {
        let dir = tempfile::tempdir().unwrap();
        let committed = dir.path().join("committed.rec");
        let mut w = ShardWriter::<(u64, String)>::create(&committed).unwrap();
        w.write(&(1, "x".to_owned())).unwrap();
        w.finish().unwrap();
        let bytes = fs::read(&committed).unwrap();
        let torn = dir.path().join("torn.rec");
        fs::write(&torn, &bytes[..bytes.len() - 1]).unwrap();
        let short = dir.path().join("short.rec");
        fs::write(&short, &bytes[bytes.len() - codec::FOOTER_LEN + 1..]).unwrap();
        let footer_only = dir.path().join("footer-only.rec");
        fs::write(&footer_only, &bytes[bytes.len() - codec::FOOTER_LEN..]).unwrap();
        let empty = dir.path().join("empty.rec");
        fs::write(&empty, b"").unwrap();
        let directory = dir.path().join("x.rec");
        fs::create_dir(&directory).unwrap();
        let missing = dir.path().join("missing.rec");
        // What a poll decided when it read the whole file.
        let whole_file = |p: &Path| fs::read(p).is_ok_and(|b| codec::split_footer(&b).is_ok());
        for (path, expected) in [
            (&committed, true),
            (&footer_only, true),
            (&torn, false),
            (&short, false),
            (&empty, false),
            (&directory, false),
            (&missing, false),
        ] {
            assert_eq!(shard_is_committed(path), expected, "{}", path.display());
            assert_eq!(whole_file(path), expected, "{}", path.display());
        }
    }

    #[test]
    fn truncated_committed_file_is_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "trunc", 1);
        let records: Vec<(u64, String)> = (0..20).map(|i| (i, format!("record-{i}"))).collect();
        write_all(&spec, &records).unwrap();
        let path = spec.shard_path(0);
        let bytes = fs::read(&path).unwrap();
        // Chop off the tail: the footer (and part of the last frame) go.
        fs::write(&path, &bytes[..bytes.len() - codec::FOOTER_LEN - 3]).unwrap();
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        assert!(matches!(result, Err(DataflowError::Corrupt { .. })));
    }

    #[test]
    fn footer_count_mismatch_is_rejected() {
        // A footer that checksums fine but promises more records than the
        // frames hold (e.g. frames dropped by a buggy copy).
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "count", 1);
        write_all(&spec, &[(1u64, "only one".to_string())]).unwrap();
        let path = spec.shard_path(0);
        let bytes = fs::read(&path).unwrap();
        let mut patched = bytes[..bytes.len() - codec::FOOTER_LEN].to_vec();
        codec::put_footer(&mut patched, 2);
        fs::write(&path, &patched).unwrap();
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        match result {
            Err(DataflowError::Corrupt { source, .. }) => {
                assert_eq!(
                    source,
                    CodecError::RecordCountMismatch {
                        expected: 2,
                        actual: 1
                    }
                );
            }
            other => panic!("expected RecordCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn is_complete_accepts_committed_datasets() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "ok", 3);
        write_all(&spec, &[(1u64, "x".to_string()), (2, "y".to_string())]).unwrap();
        assert!(spec.exists());
        assert!(spec.is_complete());
    }

    #[test]
    fn remove_cleans_stale_tmp_files() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "stale", 1);
        write_all(&spec, &[(1u64, "x".to_string())]).unwrap();
        // Simulate a crashed writer's leftover stage file.
        let tmp = tmp_sibling(&spec.shard_path(0));
        fs::write(&tmp, b"garbage").unwrap();
        spec.remove().unwrap();
        assert!(!spec.shard_path(0).exists());
        assert!(!tmp.exists());
    }

    #[test]
    fn missing_shard_is_io_error() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "ghost", 2);
        assert!(!spec.exists());
        let result: Result<Vec<(u64, String)>, _> = read_all(&spec);
        assert!(matches!(result, Err(DataflowError::Io { .. })));
    }

    #[test]
    fn remove_deletes_shards() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "tmp", 2);
        write_all(&spec, &[(1u64, "x".to_string())]).unwrap();
        assert!(spec.exists());
        spec.remove().unwrap();
        assert!(!spec.exists());
        // Removing again is fine.
        spec.remove().unwrap();
    }

    #[test]
    fn empty_dataset_reads_empty() {
        let dir = tempfile::tempdir().unwrap();
        let spec = ShardSpec::new(dir.path(), "empty", 3);
        write_all::<(u64, String)>(&spec, &[]).unwrap();
        let back: Vec<(u64, String)> = read_all(&spec).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn prop_roundtrip_any_records() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let records: Vec<(u64, String)> = (0..rng.gen_range(0..200))
                .map(|_| (rng.gen(), any_text(&mut rng, 40)))
                .collect();
            let shards = rng.gen_range(1..8);
            let dir = tempfile::tempdir().unwrap();
            let spec = ShardSpec::new(dir.path(), "prop", shards);
            write_all(&spec, &records).unwrap();
            let mut back: Vec<(u64, String)> = read_all(&spec).unwrap();
            let mut want = records.clone();
            back.sort();
            want.sort();
            assert_eq!(back, want);
        }
    }
}
