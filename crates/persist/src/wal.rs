//! The write-ahead op log: netted [`Delta`] batches appended as
//! length-prefixed, CRC-checked records *before* the in-memory apply is
//! acknowledged.
//!
//! File layout: an 8-byte magic (`TRIQWAL1`), then zero or more records
//! `[u32 len][u32 crc32][payload]` (both little-endian), where `payload`
//! is `varint pre_version` followed by the delta encoding of
//! `triq_common::codec::encode_delta`. `pre_version` is the session
//! version *before* the batch applies — the post-apply version is not
//! knowable until the apply runs (redundant operations do not advance
//! it), and recovery re-derives it deterministically by replaying.
//!
//! A torn or bit-flipped tail (crash mid-write) is detected by the
//! length/CRC frame and **truncated, not fatal**: recovery keeps every
//! record up to the first invalid one. Everything after a bad record is
//! unreachable (record boundaries are gone) and is discarded with it.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use triq_common::codec::{crc32, decode_delta, encode_delta, Decoder, Encoder};
use triq_common::{Delta, Result, TriqError};
use triq_obs::{Phase, Recorder, Timer};

use crate::io_err;

/// Magic prefix of a WAL file (8 bytes, version-bearing).
pub const WAL_MAGIC: &[u8; 8] = b"TRIQWAL1";

/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.triq";

/// Upper bound on a single record's payload (64 MiB) — a corrupt length
/// prefix must not drive a giant allocation.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// When to `fsync` the WAL.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every appended batch (durable to the last
    /// acknowledged write; the default).
    #[default]
    PerBatch,
    /// Sync at most once per interval (bounded data loss window).
    Interval(Duration),
    /// Never sync explicitly (the OS flushes on its own schedule).
    Off,
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::PerBatch => write!(f, "per-batch"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = TriqError;

    /// Parses `per-batch`, `off`, or `interval:<ms>`.
    fn from_str(s: &str) -> Result<FsyncPolicy> {
        match s {
            "per-batch" => Ok(FsyncPolicy::PerBatch),
            "off" => Ok(FsyncPolicy::Off),
            _ => {
                let ms = s
                    .strip_prefix("interval:")
                    .and_then(|ms| ms.parse::<u64>().ok())
                    .ok_or_else(|| {
                        TriqError::Persist(format!(
                            "bad fsync policy {s:?} (expected per-batch, off, or interval:<ms>)"
                        ))
                    })?;
                Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

/// One recovered WAL record: the pre-apply version and the netted batch.
#[derive(Debug)]
pub struct WalRecord {
    /// Version the session was at when the batch was appended.
    pub pre_version: u64,
    /// The netted mutation batch.
    pub delta: Delta,
}

/// An open write-ahead log, positioned at its end for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Current file length (magic + valid records).
    len: u64,
    /// Records appended since the log was last truncated (not counting
    /// the ones recovered at open).
    appended: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// hold a torn frame, and anything appended after it would be
    /// unreachable to recovery (scan stops at the first bad frame).
    /// Refusing further appends beats acknowledging writes that a
    /// restart would silently drop.
    poisoned: bool,
    /// Telemetry sink for fsync latency (a no-op unless the owning
    /// engine installed a live recorder).
    rec: Arc<dyn Recorder>,
    /// Test hook: make the next append write only this many frame
    /// bytes and then fail, as a crash or ENOSPC mid-`write_all` would.
    #[cfg(test)]
    fail_append_after: Option<usize>,
}

impl Wal {
    /// Opens (or creates) the WAL in `dir` and scans existing records.
    /// A torn or corrupt tail is truncated in place; the records before
    /// it are returned for replay.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<(Wal, Vec<WalRecord>)> {
        let path = dir.join(WAL_FILE);
        let fresh = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open WAL", &path, &e))?;
        if fresh {
            file.write_all(WAL_MAGIC)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("initialize WAL", &path, &e))?;
            // The file's directory entry must survive a crash too:
            // fsync the directory that now names it.
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err("fsync data dir", dir, &e))?;
        }
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(|e| io_err("read WAL", &path, &e))?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(TriqError::Persist(format!(
                "{} is not a TriQ WAL (bad magic)",
                path.display()
            )));
        }
        let (records, valid_len) = scan(&bytes[WAL_MAGIC.len()..]);
        let valid_len = (WAL_MAGIC.len() + valid_len) as u64;
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("truncate torn WAL tail", &path, &e))?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| io_err("seek WAL end", &path, &e))?;
        Ok((
            Wal {
                file,
                path,
                policy,
                last_sync: Instant::now(),
                len: valid_len,
                appended: 0,
                poisoned: false,
                rec: Arc::new(triq_obs::Noop),
                #[cfg(test)]
                fail_append_after: None,
            },
            records,
        ))
    }

    /// Appends one netted batch recorded at `pre_version` and applies
    /// the fsync policy. Returns the number of bytes written. On `Ok`,
    /// the record is in the file (and, under [`FsyncPolicy::PerBatch`],
    /// durable) — callers acknowledge the write only after this returns.
    ///
    /// On `Err` the record is **not** in the file: a partially written
    /// frame (ENOSPC mid-`write_all`) or a frame whose fsync failed is
    /// cut back off before returning, so the rejected batch is never
    /// replayed at recovery and later successful appends extend the
    /// valid prefix instead of landing unreachable behind a torn frame.
    /// If that rollback itself fails the log is poisoned and refuses
    /// all further appends.
    pub fn append(&mut self, pre_version: u64, delta: &Delta) -> Result<u64> {
        if self.poisoned {
            return Err(TriqError::Persist(format!(
                "WAL is poisoned after an append failure could not be rolled back ({}); \
                 refusing further appends",
                self.path.display()
            )));
        }
        let mut payload = Encoder::new();
        payload.varint(pre_version);
        encode_delta(&mut payload, delta);
        let payload = payload.into_bytes();
        let mut frame = Encoder::new();
        frame.u32_fixed(payload.len() as u32);
        frame.u32_fixed(crc32(&payload));
        frame.raw(&payload);
        let frame = frame.into_bytes();
        if let Err(e) = self.write_frame(&frame) {
            return Err(self.rollback_append(e));
        }
        self.len += frame.len() as u64;
        self.appended += 1;
        Ok(frame.len() as u64)
    }

    /// Writes one framed record and applies the fsync policy.
    fn write_frame(&mut self, frame: &[u8]) -> Result<()> {
        #[cfg(test)]
        if let Some(n) = self.fail_append_after.take() {
            let n = n.min(frame.len());
            let _ = self.file.write_all(&frame[..n]);
            return Err(TriqError::Persist(format!(
                "append WAL record ({}): injected failure after {n} bytes",
                self.path.display()
            )));
        }
        self.file
            .write_all(frame)
            .map_err(|e| io_err("append WAL record", &self.path, &e))?;
        match self.policy {
            FsyncPolicy::PerBatch => self.sync(),
            FsyncPolicy::Interval(every) if self.last_sync.elapsed() >= every => self.sync(),
            FsyncPolicy::Interval(_) | FsyncPolicy::Off => Ok(()),
        }
    }

    /// Restores the valid-prefix invariant after a failed append:
    /// truncate the (possibly torn) frame back off, return the cursor
    /// to the old end, and make the repair durable. On success the
    /// original error is returned and the log stays usable; if the
    /// repair fails the log is poisoned.
    fn rollback_append(&mut self, cause: TriqError) -> TriqError {
        let repaired = self
            .file
            .set_len(self.len)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()))
            .and_then(|()| self.file.sync_all());
        match repaired {
            Ok(()) => cause,
            Err(e) => {
                self.poisoned = true;
                TriqError::Persist(format!(
                    "{cause}; rolling the torn frame back also failed \
                     ({e}) — WAL poisoned, refusing further appends"
                ))
            }
        }
    }

    /// Installs the recorder that fsync latency is reported to.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = rec;
    }

    /// Forces the log to stable storage now.
    pub fn sync(&mut self) -> Result<()> {
        let _t = Timer::start(&*self.rec, Phase::WalFsync);
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync WAL", &self.path, &e))?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Discards every record (after a checkpoint has made them
    /// redundant), leaving just the magic. Correct only under the
    /// single-writer contract: the caller serializes appends and
    /// checkpoints on one thread, so every record present here has
    /// already been folded into the checkpointed state.
    pub fn truncate(&mut self) -> Result<()> {
        let keep = WAL_MAGIC.len() as u64;
        self.file
            .set_len(keep)
            .and_then(|()| self.file.seek(SeekFrom::Start(keep)).map(|_| ()))
            .and_then(|()| self.file.sync_all())
            .map_err(|e| io_err("truncate WAL", &self.path, &e))?;
        self.len = keep;
        self.appended = 0;
        Ok(())
    }

    /// Current file length in bytes (magic included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records appended since the last truncation.
    pub fn appended_records(&self) -> u64 {
        self.appended
    }
}

/// Scans the record region of a WAL. Returns the valid records and the
/// byte length of the valid prefix; scanning stops at the first torn or
/// corrupt frame.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= 8 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break;
        }
        let body_start = offset + 8;
        let Some(body_end) = body_start.checked_add(len as usize) else {
            break;
        };
        if body_end > bytes.len() {
            break; // torn tail: the record was never fully written
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            break; // bit rot or a torn rewrite: stop here
        }
        let mut dec = Decoder::new(payload);
        let Ok(pre_version) = dec.varint() else { break };
        let Ok(delta) = decode_delta(&mut dec) else {
            break;
        };
        if !dec.is_exhausted() {
            break;
        }
        records.push(WalRecord { pre_version, delta });
        offset = body_end;
    }
    (records, offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triq-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn delta(n: u32) -> Delta {
        Delta::new().insert("e", &[&format!("a{n}"), &format!("b{n}")])
    }

    #[test]
    fn append_and_reload_round_trips() {
        let dir = tmpdir("round");
        let (mut wal, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert!(records.is_empty());
        for v in 0..5u64 {
            wal.append(v, &delta(v as u32)).unwrap();
        }
        drop(wal);
        let (wal, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(records.len(), 5);
        for (v, r) in records.iter().enumerate() {
            assert_eq!(r.pre_version, v as u64);
            assert_eq!(r.delta, delta(v as u32));
        }
        assert!(wal.len_bytes() > WAL_MAGIC.len() as u64);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        wal.append(0, &delta(0)).unwrap();
        wal.append(1, &delta(1)).unwrap();
        let full = wal.len_bytes();
        drop(wal);
        // Chop mid-record, as a crash during the second append would.
        let path = dir.join(WAL_FILE);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (wal, records) = Wal::open(&dir, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(records.len(), 1, "only the intact record survives");
        assert_eq!(records[0].pre_version, 0);
        // The file itself was repaired: reopening finds a clean end.
        let repaired = wal.len_bytes();
        drop(wal);
        let (mut wal, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(wal.len_bytes(), repaired);
        // And appending after repair extends the valid prefix.
        wal.append(1, &delta(1)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn bit_flip_invalidates_the_suffix() {
        let dir = tmpdir("flip");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        let first = wal.append(0, &delta(0)).unwrap();
        wal.append(1, &delta(1)).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit in the FIRST record: both records die
        // (the suffix after a corrupt frame is unreachable).
        let idx = WAL_MAGIC.len() + 8 + (first as usize - 8) / 2;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn failed_append_rolls_back_and_later_appends_survive() {
        let dir = tmpdir("rollback");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::PerBatch).unwrap();
        wal.append(0, &delta(0)).unwrap();
        let len = wal.len_bytes();
        // A torn write mid-frame, as ENOSPC would leave it.
        wal.fail_append_after = Some(5);
        assert!(wal.append(1, &delta(1)).is_err());
        assert_eq!(wal.len_bytes(), len, "failed frame must be cut back off");
        let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(on_disk, len, "no torn bytes left in the file");
        // Later appends land on the valid prefix and are recoverable —
        // without the rollback they would sit unreachable behind the
        // torn frame and recovery would silently drop them.
        wal.append(1, &delta(1)).unwrap();
        wal.append(2, &delta(2)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].pre_version, 1);
        assert_eq!(records[2].pre_version, 2);
        assert_eq!(records[2].delta, delta(2));
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = tmpdir("foreign");
        std::fs::write(dir.join(WAL_FILE), b"definitely not a wal").unwrap();
        let err = Wal::open(&dir, FsyncPolicy::Off).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
    }

    #[test]
    fn truncate_resets_to_magic() {
        let dir = tmpdir("reset");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        wal.append(0, &delta(0)).unwrap();
        assert_eq!(wal.appended_records(), 1);
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), WAL_MAGIC.len() as u64);
        assert_eq!(wal.appended_records(), 0);
        wal.append(7, &delta(7)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].pre_version, 7);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "per-batch".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::PerBatch
        );
        assert_eq!("off".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Off);
        assert_eq!(
            "interval:250".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert!("interval:x".parse::<FsyncPolicy>().is_err());
    }
}
