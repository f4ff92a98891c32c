//! Checkpoint files: full snapshots and the segments chained on them,
//! each written atomically.
//!
//! A full snapshot is `snap-<version>.triq` (versions zero-padded to 20
//! digits) containing `[8-byte magic "TRIQSNP5"][u64 version][u32 crc32
//! of body][u64 body length][body]` (integers little-endian); the body
//! is the session encoding of `triq::persist::encode_snapshot`. A
//! segment is `seg-<base>-<version>.triq`, where `base` names the full
//! snapshot its chain starts from: `[magic][u64 version][u64 extends]
//! [u32 crc32][u64 body length][body]`, where `extends` is the version
//! of the checkpoint before it in the chain (the base's, for the
//! first). Writes go to a `.tmp` sibling first, flushed with fsync,
//! then renamed into place and the directory flushed with fsync — a
//! crash at any point leaves either the old set of files or the old set
//! plus one complete new file, never a half-written one under a real
//! name.
//!
//! Loading walks full snapshots newest-first and skips invalid ones
//! (bad magic, CRC mismatch, truncation): an older intact snapshot plus
//! a longer WAL replay beats refusing to start. It then reads the
//! loaded snapshot's segments in version order for as long as each is
//! intact and extends the one before; the caller refuses the result if
//! a named version lies beyond what it reaches. With no intact snapshot
//! left, loading refuses instead of reporting a fresh directory.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use triq_common::codec::crc32;
use triq_common::{Result, TriqError};

use crate::io_err;

/// Magic prefix of a snapshot or segment file (8 bytes,
/// version-bearing). `TRIQSNP1` stored four schedule fields and a demand
/// mode in every view's config, `TRIQSNP2` the demand mode, `TRIQSNP3`
/// every view whole, with no role tag, and `TRIQSNP4` every instance
/// renumbered without its tombstones, with a support counter per atom;
/// this build reads none of them nor any other format.
pub const SNAP_MAGIC: &[u8; 8] = b"TRIQSNP5";

/// What a full snapshot's header holds after the magic: version, CRC,
/// body length.
const HEADER_LEN: usize = 8 + 8 + 4 + 8;

/// A segment's header: the snapshot's plus the version it extends.
const SEGMENT_HEADER_LEN: usize = HEADER_LEN + 8;

/// The newest intact full snapshot and the segments chained on it.
#[derive(Debug)]
pub struct Loaded {
    /// The full snapshot's version.
    pub version: u64,
    /// The full snapshot's body.
    pub body: Vec<u8>,
    /// The bodies of the segments that extend it, in chain order.
    pub segments: Vec<Vec<u8>>,
    /// The version the last of them reaches (the snapshot's, with none).
    pub reached: u64,
}

/// The checkpoint files of a directory, by name.
struct Names {
    /// Full snapshot versions, descending.
    fulls: Vec<u64>,
    /// Segments as `(base, version)`, ascending.
    segments: Vec<(u64, u64)>,
}

/// Manages the `snap-*.triq` and `seg-*.triq` files of one data
/// directory.
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

    fn segment_name(base: u64, version: u64) -> String {
        format!("seg-{base:020}-{version:020}.triq")
    }

    /// Writes a full snapshot for `version` atomically (tmp + fsync +
    /// rename + dir fsync). Returns the final path.
    pub fn write(&self, version: u64, body: &[u8]) -> Result<PathBuf> {
        self.publish(
            &Self::file_name(version),
            &header(version, None, body),
            body,
        )
    }

    /// Writes the segment reaching `version` of the chain on the full
    /// snapshot `base`, extending the checkpoint at `extends`,
    /// atomically. Returns the final path.
    pub fn write_segment(
        &self,
        base: u64,
        extends: u64,
        version: u64,
        body: &[u8],
    ) -> Result<PathBuf> {
        let name = Self::segment_name(base, version);
        self.publish(&name, &header(version, Some(extends), body), body)
    }

    fn publish(&self, name: &str, header: &[u8], body: &[u8]) -> Result<PathBuf> {
        let final_path = self.dir.join(name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("create snapshot tmp", &tmp_path, &e))?;
        tmp.write_all(header)
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
        validate(&read_file(&path)?, version, None).map(drop)
    }

    /// [`Self::verify`] for the segment [`Self::write_segment`] wrote.
    pub fn verify_segment(&self, base: u64, extends: u64, version: u64) -> Result<()> {
        let path = self.dir.join(Self::segment_name(base, version));
        validate(&read_file(&path)?, version, Some(extends)).map(drop)
    }

    /// The newest version *named* in the directory, by a snapshot or a
    /// segment, valid or not. Recovery compares it against the version
    /// it actually reached: a newer named file that could not be used
    /// means the WAL records needed to roll forward were already
    /// truncated.
    pub fn newest_named_version(&self) -> Result<Option<u64>> {
        let Names { fulls, segments } = self.names()?;
        Ok(fulls
            .into_iter()
            .chain(segments.into_iter().map(|(_, v)| v))
            .max())
    }

    /// The checkpoint files present, valid or not.
    fn names(&self) -> Result<Names> {
        let (mut fulls, mut segments) = (Vec::new(), Vec::new());
        let entries =
            fs::read_dir(&self.dir).map_err(|e| io_err("list data dir", &self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list data dir", &self.dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(v) = number(name, "snap-") {
                fulls.push(v);
            } else if let Some((base, v)) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.split_once('-'))
                .and_then(|(base, rest)| Some((base.parse().ok()?, number(rest, "")?)))
            {
                segments.push((base, v));
            }
        }
        fulls.sort_unstable_by(|a, b| b.cmp(a));
        segments.sort_unstable();
        Ok(Names { fulls, segments })
    }

    /// Loads the newest *valid* full snapshot and the segments chained
    /// on it, or `None` when the directory names no snapshot at all.
    /// Invalid snapshots are skipped (with a note on stderr), not fatal
    /// — recovery falls back to the next older one. The chain stops at
    /// the first segment that is invalid or does not extend the one
    /// before (a gap); what lies past it is left to the caller's
    /// newest-named-version check. When *every* named snapshot is
    /// invalid this refuses with `E-PERSIST`, giving the newest file's
    /// reason: a checkpoint truncates the WAL, so those files hold
    /// acknowledged writes and starting fresh would drop them.
    pub fn load_newest(&self) -> Result<Option<Loaded>> {
        let Names { fulls, segments } = self.names()?;
        let mut newest_failure = None;
        for version in fulls {
            let path = self.dir.join(Self::file_name(version));
            match read_valid(&path, version, None) {
                Ok(body) => {
                    let mut loaded = Loaded {
                        version,
                        body,
                        segments: Vec::new(),
                        reached: version,
                    };
                    for &(_, v) in segments.iter().filter(|&&(base, _)| base == version) {
                        let path = self.dir.join(Self::segment_name(version, v));
                        match read_valid(&path, v, Some(loaded.reached)) {
                            Ok(body) => {
                                loaded.segments.push(body);
                                loaded.reached = v;
                            }
                            Err(e) => {
                                eprintln!(
                                    "triq-persist: chain stops before {}: {e}",
                                    path.display()
                                );
                                break;
                            }
                        }
                    }
                    return Ok(Some(loaded));
                }
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

    /// Deletes all but the newest `keep` full snapshots, every segment
    /// not chained on the newest one, and any leftover `.tmp` files from
    /// interrupted writes.
    pub fn prune(&self, keep: usize) -> Result<()> {
        let Names { fulls, segments } = self.names()?;
        for &version in fulls.iter().skip(keep) {
            let _ = fs::remove_file(self.dir.join(Self::file_name(version)));
        }
        for (base, version) in segments {
            if fulls.first() != Some(&base) {
                let _ = fs::remove_file(self.dir.join(Self::segment_name(base, version)));
            }
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

/// The zero-padded number between `prefix` and `.triq` in `name`.
fn number(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(".triq")?
        .parse()
        .ok()
}

/// A file header: magic, version, the version a segment extends, the
/// body's CRC and length.
fn header(version: u64, extends: Option<u64>, body: &[u8]) -> Vec<u8> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
    header.extend_from_slice(SNAP_MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    if let Some(extends) = extends {
        header.extend_from_slice(&extends.to_le_bytes());
    }
    header.extend_from_slice(&crc32(body).to_le_bytes());
    header.extend_from_slice(&(body.len() as u64).to_le_bytes());
    header
}

/// Reads and fully validates one file; returns its body, the file's own
/// buffer with the header drained off.
fn read_valid(path: &Path, version: u64, extends: Option<u64>) -> Result<Vec<u8>> {
    let mut bytes = read_file(path)?;
    let header = validate(&bytes, version, extends)?;
    bytes.drain(..header);
    Ok(bytes)
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read snapshot", path, &e))?;
    Ok(bytes)
}

/// Checks a file's bytes in place: magic, version, for a segment the
/// version it extends, body length and the body's CRC. Returns the
/// header's length.
fn validate(bytes: &[u8], expect_version: u64, extends: Option<u64>) -> Result<usize> {
    let corrupt = |msg: &str| TriqError::Persist(format!("corrupt snapshot file: {msg}"));
    let header_len = if extends.is_some() {
        SEGMENT_HEADER_LEN
    } else {
        HEADER_LEN
    };
    if bytes.len() < header_len {
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
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if word(8) != expect_version {
        return Err(corrupt("version does not match file name"));
    }
    let at = match extends {
        Some(extends) if word(16) != extends => {
            return Err(corrupt("segment does not extend the checkpoint before it"));
        }
        Some(_) => 24,
        None => 16,
    };
    let crc = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let len = word(at + 4) as usize;
    let body = &bytes[header_len..];
    if body.len() != len {
        return Err(corrupt("body length mismatch"));
    }
    if crc32(body) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    Ok(header_len)
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
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!(
            (loaded.version, loaded.body.as_slice()),
            (10, b"ten".as_slice())
        );
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
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!(
            (loaded.version, loaded.body.as_slice()),
            (1, b"one".as_slice())
        );
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
