//! Snapshot checkpoints: whole-session state written atomically.
//!
//! A snapshot file is `snap-<version, zero-padded to 20 digits>.triq`
//! containing `[8-byte magic "TRIQSNP4"][u64 version][u32 crc32 of
//! body][u64 body length][body]` (integers little-endian); the body is
//! the session encoding of `triq::persist::encode_snapshot`. Writes go
//! to a `.tmp` sibling first, flushed with fsync, then renamed into
//! place and the directory flushed with fsync — a crash at any point
//! leaves either the old set of snapshots or the old set plus one
//! complete new file, never a half-written snapshot under the real name.
//!
//! Loading walks snapshots newest-first and skips invalid ones (bad
//! magic, CRC mismatch, truncation): an older intact snapshot plus a
//! longer WAL replay beats refusing to start. With no intact snapshot
//! left, loading refuses instead of reporting a fresh directory.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use triq_common::codec::crc32;
use triq_common::{Result, TriqError};

use crate::io_err;

/// Magic prefix of a snapshot file (8 bytes, version-bearing).
/// `TRIQSNP1` stored four schedule fields and a demand mode in every
/// view's config, `TRIQSNP2` the demand mode, and `TRIQSNP3` every view
/// whole, with no role tag; this build reads none of them nor any other
/// format.
pub const SNAP_MAGIC: &[u8; 8] = b"TRIQSNP4";

const HEADER_LEN: usize = 8 + 8 + 4 + 8;

/// Manages the `snap-*.triq` files of one data directory.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store over `dir` (created if missing).
    pub fn new(dir: &Path) -> Result<SnapshotStore> {
        fs::create_dir_all(dir).map_err(|e| io_err("create data dir", dir, &e))?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
        })
    }

    fn file_name(version: u64) -> String {
        format!("snap-{version:020}.triq")
    }

    /// Writes a snapshot for `version` atomically (tmp + fsync + rename
    /// + dir fsync). Returns the final path.
    pub fn write(&self, version: u64, body: &[u8]) -> Result<PathBuf> {
        let final_path = self.dir.join(Self::file_name(version));
        let tmp_path = self.dir.join(format!("{}.tmp", Self::file_name(version)));
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(SNAP_MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&crc32(body).to_le_bytes());
        header.extend_from_slice(&(body.len() as u64).to_le_bytes());
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("create snapshot tmp", &tmp_path, &e))?;
        tmp.write_all(&header)
            .and_then(|()| tmp.write_all(body))
            .and_then(|()| tmp.sync_all())
            .map_err(|e| io_err("write snapshot", &tmp_path, &e))?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| io_err("publish snapshot", &final_path, &e))?;
        // Make the rename itself durable. A failure here means the
        // publish may not survive a crash — it must surface, because
        // the caller is about to truncate the WAL that still covers
        // this state.
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync data dir", &self.dir, &e))?;
        Ok(final_path)
    }

    /// Re-reads and fully validates (magic, version, length, CRC) the
    /// published snapshot for `version`. Called after [`Self::write`],
    /// before the WAL covering the same state is truncated.
    pub fn verify(&self, version: u64) -> Result<()> {
        let path = self.dir.join(Self::file_name(version));
        validate(&read_file(&path)?, version)
    }

    /// The newest snapshot version *named* in the directory, valid or
    /// not. Recovery compares it against the version it actually
    /// loaded: a newer named snapshot that failed validation means the
    /// WAL records needed to roll an older snapshot forward were
    /// already truncated.
    pub fn newest_named_version(&self) -> Result<Option<u64>> {
        Ok(self.versions()?.into_iter().next())
    }

    /// All snapshot versions present (valid or not), descending.
    fn versions(&self) -> Result<Vec<u64>> {
        let mut versions = Vec::new();
        let entries =
            fs::read_dir(&self.dir).map_err(|e| io_err("list data dir", &self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list data dir", &self.dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(v) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".triq"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                versions.push(v);
            }
        }
        versions.sort_unstable_by(|a, b| b.cmp(a));
        Ok(versions)
    }

    /// Loads the newest *valid* snapshot: `(version, body)`, or `None`
    /// when the directory names no snapshot at all. Invalid files are
    /// skipped (with a note on stderr), not fatal — recovery falls back
    /// to the next older one. When *every* named file is invalid this
    /// refuses with `E-PERSIST`, giving the newest file's reason: a
    /// checkpoint truncates the WAL, so those files hold acknowledged
    /// writes and starting fresh would drop them.
    pub fn load_newest(&self) -> Result<Option<(u64, Vec<u8>)>> {
        let mut newest_failure = None;
        for version in self.versions()? {
            let path = self.dir.join(Self::file_name(version));
            match read_snapshot(&path, version) {
                Ok(body) => return Ok(Some((version, body))),
                Err(e) => {
                    eprintln!("triq-persist: skipping {}: {e}", path.display());
                    newest_failure.get_or_insert((version, e));
                }
            }
        }
        let Some((version, e)) = newest_failure else {
            return Ok(None);
        };
        let why = match e {
            TriqError::Persist(why) => why,
            other => other.to_string(),
        };
        Err(TriqError::Persist(format!(
            "{} holds snapshots but none is usable (newest, version {version}: {why}) \
             — refusing to re-initialize over acknowledged writes (restore a \
             snapshot file or clear the directory)",
            self.dir.display(),
        )))
    }

    /// Deletes all but the newest `keep` snapshot files, plus any
    /// leftover `.tmp` files from interrupted writes.
    pub fn prune(&self, keep: usize) -> Result<()> {
        for version in self.versions()?.into_iter().skip(keep) {
            let _ = fs::remove_file(self.dir.join(Self::file_name(version)));
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_str().is_some_and(|n| n.ends_with(".tmp")) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }
}

/// Reads and fully validates one snapshot file; returns its body, the
/// file's own buffer with the header drained off.
fn read_snapshot(path: &Path, expect_version: u64) -> Result<Vec<u8>> {
    let mut bytes = read_file(path)?;
    validate(&bytes, expect_version)?;
    bytes.drain(..HEADER_LEN);
    Ok(bytes)
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read snapshot", path, &e))?;
    Ok(bytes)
}

/// Checks a snapshot file's bytes in place: magic, version, body length
/// and the body's CRC.
fn validate(bytes: &[u8], expect_version: u64) -> Result<()> {
    let corrupt = |msg: &str| TriqError::Persist(format!("corrupt snapshot file: {msg}"));
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("truncated header"));
    }
    if bytes[..8] != SNAP_MAGIC[..] {
        if bytes[..7] == SNAP_MAGIC[..7] {
            return Err(TriqError::Persist(format!(
                "snapshot format {} is not readable by this build, which reads {}",
                String::from_utf8_lossy(&bytes[..8]),
                String::from_utf8_lossy(SNAP_MAGIC)
            )));
        }
        return Err(corrupt("bad magic"));
    }
    let version = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if version != expect_version {
        return Err(corrupt("version does not match file name"));
    }
    let crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
    let body = &bytes[HEADER_LEN..];
    if body.len() != len {
        return Err(corrupt("body length mismatch"));
    }
    if crc32(body) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triq-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_newest() {
        let dir = tmpdir("basic");
        let store = SnapshotStore::new(&dir).unwrap();
        store.write(3, b"three").unwrap();
        store.write(10, b"ten").unwrap();
        let (v, body) = store.load_newest().unwrap().unwrap();
        assert_eq!((v, body.as_slice()), (10, b"ten".as_slice()));
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmpdir("fallback");
        let store = SnapshotStore::new(&dir).unwrap();
        store.write(1, b"one").unwrap();
        let newest = store.write(2, b"two").unwrap();
        // Flip a body bit in the newest file.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (v, body) = store.load_newest().unwrap().unwrap();
        assert_eq!((v, body.as_slice()), (1, b"one".as_slice()));
    }

    #[test]
    fn empty_dir_loads_none() {
        let dir = tmpdir("empty");
        let store = SnapshotStore::new(&dir).unwrap();
        assert!(store.load_newest().unwrap().is_none());
    }

    #[test]
    fn prune_keeps_newest_and_clears_tmps() {
        let dir = tmpdir("prune");
        let store = SnapshotStore::new(&dir).unwrap();
        for v in 1..=4u64 {
            store.write(v, b"x").unwrap();
        }
        fs::write(dir.join("snap-5.triq.tmp"), b"partial").unwrap();
        store.prune(2).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![SnapshotStore::file_name(3), SnapshotStore::file_name(4),]
        );
    }
}
