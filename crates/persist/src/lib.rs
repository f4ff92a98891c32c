//! # triq-persist — durability for TriQ sessions
//!
//! Crash safety for the serving layer, in three parts:
//!
//! * a **write-ahead op log** ([`Wal`]): every netted [`Delta`] batch is
//!   appended as a CRC-framed record *before* the in-memory apply is
//!   acknowledged (fsync policy: per batch, interval, or off);
//! * **snapshot checkpoints** ([`SnapshotStore`]): the exact session
//!   state — interner, columnar database, every maintained view's
//!   instance and skolem memo — written atomically (tmp + fsync +
//!   rename) on a policy of every N ops / M bytes of WAL, after which
//!   the WAL is truncated;
//! * **recovery** ([`Persistence::open`]): load the newest valid
//!   snapshot, replay the WAL tail through the engine's incremental
//!   apply path (torn or corrupt tails are truncated, not fatal), and
//!   hand back a [`SharedSession`] at the **exact pre-crash version**
//!   with byte-identical answers — no re-chase.
//!
//! The handle assumes the server's single-writer discipline: one thread
//! interleaves [`Persistence::append`] → [`SharedSession::apply`] →
//! [`Persistence::maybe_checkpoint`]. Under that ordering every WAL
//! record present at checkpoint time is already folded into the
//! checkpointed state, which is what makes the post-checkpoint WAL
//! truncation safe.
//!
//! See the "Durability" section of `docs/ARCHITECTURE.md` for the file
//! formats and the recovery protocol.

#![warn(missing_docs)]

use std::io;
use std::path::Path;

use triq::api::{Engine, SharedSession};
use triq_common::{Delta, Result, TriqError};
use triq_obs::Counter;

mod snapshot;
mod wal;

pub use snapshot::{SnapshotStore, SNAP_MAGIC};
pub use wal::{FsyncPolicy, Wal, WalRecord, WAL_FILE, WAL_MAGIC};

pub(crate) fn io_err(what: &str, path: &Path, e: &io::Error) -> TriqError {
    TriqError::Persist(format!("{what} ({}): {e}", path.display()))
}

/// Tuning for the durability layer.
#[derive(Clone, Copy, Debug)]
pub struct PersistConfig {
    /// When to fsync the WAL (default: per batch).
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL records (default 4096).
    pub checkpoint_ops: u64,
    /// …or after this many bytes of WAL, whichever comes first
    /// (default 16 MiB).
    pub checkpoint_bytes: u64,
    /// Snapshot files retained after a checkpoint (default 2: the new
    /// one plus one fallback).
    pub keep_snapshots: usize,
}

impl Default for PersistConfig {
    fn default() -> PersistConfig {
        PersistConfig {
            fsync: FsyncPolicy::PerBatch,
            checkpoint_ops: 4096,
            checkpoint_bytes: 16 << 20,
            keep_snapshots: 2,
        }
    }
}

/// What recovery did, for operator-facing startup logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Version of the snapshot the session was rebuilt from.
    pub snapshot_version: u64,
    /// WAL records replayed on top of it.
    pub replayed_records: u64,
    /// The recovered op-log version — exactly the last acknowledged
    /// pre-crash version.
    pub recovered_version: u64,
}

/// The result of [`Persistence::open`].
#[derive(Debug)]
pub struct Opened {
    /// The durability handle for the running server.
    pub persistence: Persistence,
    /// The recovered session, when the data directory held state.
    /// `None` on a fresh directory — the caller builds its initial
    /// session and should [`Persistence::checkpoint`] it before
    /// serving, so a crash before the first mutation still recovers.
    pub session: Option<SharedSession>,
    /// Recovery details (present iff `session` is).
    pub recovery: Option<RecoveryStats>,
}

/// The durability handle of one data directory: owns the WAL and the
/// snapshot store, tracks the checkpoint policy.
#[derive(Debug)]
pub struct Persistence {
    wal: Wal,
    store: SnapshotStore,
    config: PersistConfig,
    last_checkpoint_version: u64,
    /// Backoff after a failed checkpoint: do not retry until this many
    /// records have been appended since the last truncation (0 = no
    /// failure pending). Without it a persistent disk error would make
    /// every subsequent update re-encode the whole session under the
    /// writer lock.
    retry_checkpoint_at: u64,
}

impl Persistence {
    /// Opens a data directory and recovers whatever state it holds.
    ///
    /// * Fresh (or empty) directory → `session: None`; the caller
    ///   builds the initial state and checkpoints it.
    /// * Snapshot present → decode it, replay the WAL tail through the
    ///   incremental apply path, return the session at the exact
    ///   pre-crash version.
    /// * WAL records but **no** usable snapshot → `E-PERSIST`: the base
    ///   state the records build on is gone, silently starting empty
    ///   would lose acknowledged writes.
    /// * Snapshot files present but **none** usable (corrupt, or another
    ///   format such as `TRIQSNP3`) → `E-PERSIST`, never a fresh start.
    ///
    /// Torn or corrupt WAL tails are truncated in place; invalid
    /// snapshot files are skipped in favor of the next older one —
    /// but only when the surviving snapshot plus the WAL still reach
    /// the newest version named in the directory. If they cannot
    /// (the records bridging the gap were truncated at the failed
    /// snapshot's checkpoint), recovery refuses with `E-PERSIST`
    /// instead of silently rolling back acknowledged writes.
    pub fn open(dir: &Path, config: PersistConfig, engine: &Engine) -> Result<Opened> {
        let store = SnapshotStore::new(dir)?;
        let (wal, records) = Wal::open(dir, config.fsync)?;
        let snapshot = store.load_newest()?;
        let mut persistence = Persistence {
            wal,
            store,
            config,
            last_checkpoint_version: 0,
            retry_checkpoint_at: 0,
        };
        persistence.wal.set_recorder(engine.recorder().clone());
        let Some((snap_version, body)) = snapshot else {
            if !records.is_empty() {
                return Err(TriqError::Persist(format!(
                    "{} holds {} WAL record(s) but no usable snapshot — refusing to drop \
                     acknowledged writes (restore a snapshot file or clear the directory)",
                    dir.display(),
                    records.len()
                )));
            }
            return Ok(Opened {
                persistence,
                session: None,
                recovery: None,
            });
        };
        persistence.last_checkpoint_version = snap_version;
        let mut session = triq::persist::decode_snapshot(engine, &body)?;
        let mut replayed = 0u64;
        for record in &records {
            if record.pre_version < session.version() {
                continue; // already folded into the snapshot
            }
            if record.pre_version > session.version() {
                // The WAL's epoch is newer than the snapshot we could
                // load: the snapshot these records build on is missing
                // or failed validation (checkpoints truncate the WAL,
                // so an older snapshot cannot be rolled forward across
                // the gap). Refuse rather than lose acknowledged
                // writes.
                return Err(TriqError::Persist(format!(
                    "WAL epoch is newer than the recovered snapshot: record expects \
                     version {} but snapshot {snap_version} only reaches {} — the \
                     snapshot these records build on is missing or corrupt; restore \
                     it from backup or clear the directory to start over",
                    record.pre_version,
                    session.version(),
                )));
            }
            session.apply_delta(&record.delta);
            replayed += 1;
        }
        // Same gap, empty-WAL shape: a newer snapshot is named in the
        // directory but failed validation, and the WAL that would roll
        // this older one forward was truncated at that checkpoint.
        // Serving here would silently roll back acknowledged writes.
        if let Some(newest) = persistence.store.newest_named_version()? {
            if session.version() < newest {
                return Err(TriqError::Persist(format!(
                    "newest snapshot (version {newest}) failed validation and the \
                     surviving state only reaches version {} — the WAL records \
                     needed to roll forward were truncated at that checkpoint; \
                     refusing to silently roll back acknowledged writes (restore \
                     the snapshot from backup or clear the directory)",
                    session.version(),
                )));
            }
        }
        engine
            .counters()
            .add(Counter::RecoveryReplayedOps, replayed);
        let recovery = RecoveryStats {
            snapshot_version: snap_version,
            replayed_records: replayed,
            recovered_version: session.version(),
        };
        Ok(Opened {
            persistence,
            session: Some(session.into_shared()),
            recovery: Some(recovery),
        })
    }

    /// Logs one netted batch at `pre_version` (the session version
    /// *before* it applies). Call before [`SharedSession::apply`]; on
    /// `Err` do **not** apply — the write is not durable and must be
    /// rejected. Ticks the engine's `wal_records` / `wal_bytes`
    /// counters.
    pub fn append(&mut self, pre_version: u64, delta: &Delta, engine: &Engine) -> Result<()> {
        let rec = &**engine.recorder();
        let bytes = {
            let _t = triq_obs::Timer::start(rec, triq_obs::Phase::WalAppend);
            self.wal.append(pre_version, delta)?
        };
        engine.counters().add(Counter::WalRecords, 1);
        engine.counters().add(Counter::WalBytes, bytes);
        Ok(())
    }

    /// Whether the checkpoint policy says it is time (WAL records or
    /// bytes over budget).
    pub fn should_checkpoint(&self) -> bool {
        self.wal.appended_records() >= self.config.checkpoint_ops
            || self.wal.len_bytes() >= self.config.checkpoint_bytes
    }

    /// Checkpoints when the policy calls for it; returns the
    /// checkpointed version, if one was taken.
    ///
    /// After a failed checkpoint this backs off — the next attempt
    /// waits for `checkpoint_ops` more appended records instead of
    /// retrying (and re-encoding the whole session under the writer
    /// lock) on every subsequent update. Failures tick the engine's
    /// `checkpoint_failures` counter, surfaced through `GET /stats`;
    /// the WAL keeps covering the state either way.
    pub fn maybe_checkpoint(&mut self, shared: &SharedSession) -> Result<Option<u64>> {
        if !self.should_checkpoint() {
            return Ok(None);
        }
        if self.wal.appended_records() < self.retry_checkpoint_at {
            return Ok(None); // backing off after a failure
        }
        match self.checkpoint(shared) {
            Ok(version) => Ok(Some(version)),
            Err(e) => {
                self.retry_checkpoint_at =
                    self.wal.appended_records() + self.config.checkpoint_ops.max(1);
                shared
                    .engine()
                    .counters()
                    .add(Counter::CheckpointFailures, 1);
                Err(e)
            }
        }
    }

    /// Takes a checkpoint now: encodes the exact current session state
    /// under the writer lock, writes it atomically, verifies the
    /// published file reads back, and only then prunes old snapshots
    /// and truncates the WAL — the state that could replace a bad
    /// snapshot is never destroyed before the snapshot has proven
    /// itself. Returns the checkpointed version and ticks the engine's
    /// `snapshots_written` / `last_checkpoint_version` counters.
    pub fn checkpoint(&mut self, shared: &SharedSession) -> Result<u64> {
        let rec = &**shared.engine().recorder();
        let (body, version) = {
            let _t = triq_obs::Timer::start(rec, triq_obs::Phase::CheckpointEncode);
            triq::persist::encode_snapshot(shared)
        };
        {
            let _t = triq_obs::Timer::start(rec, triq_obs::Phase::CheckpointWrite);
            self.store.write(version, &body)?;
            self.store.verify(version)?;
        }
        self.store.prune(self.config.keep_snapshots.max(1))?;
        self.wal.truncate()?;
        self.last_checkpoint_version = version;
        self.retry_checkpoint_at = 0;
        let counters = shared.engine().counters();
        counters.add(Counter::SnapshotsWritten, 1);
        counters.set(Counter::LastCheckpointVersion, version);
        Ok(version)
    }

    /// The version of the most recent checkpoint (0 before the first).
    pub fn last_checkpoint_version(&self) -> u64 {
        self.last_checkpoint_version
    }

    /// Current WAL length in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use triq::api::Datalog;

    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                      t(?X, ?Y) -> out(?X, ?Y).";

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triq-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn edge(n: u32) -> Delta {
        Delta::new().insert("e", &[&format!("n{n}"), &format!("n{}", n + 1)])
    }

    /// The single-writer protocol, as the server's writer thread runs it.
    fn durable_apply(p: &mut Persistence, shared: &SharedSession, delta: &Delta) {
        p.append(shared.version(), delta, shared.engine()).unwrap();
        shared.apply(delta);
        p.maybe_checkpoint(shared).unwrap();
    }

    #[test]
    fn fresh_open_then_recover_exact_version() {
        let dir = tmpdir("recover");
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let opened = Persistence::open(&dir, PersistConfig::default(), &engine).unwrap();
        assert!(opened.session.is_none());
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap();
        for n in 0..6 {
            durable_apply(&mut p, &shared, &edge(n));
        }
        let answers = shared.execute(&q).unwrap();
        let version = shared.version();
        drop((p, shared)); // "crash": nothing flushed beyond the WAL

        let engine2 = Engine::new();
        let q2 = engine2.prepare(Datalog(TC, "out")).unwrap();
        let opened = Persistence::open(&dir, PersistConfig::default(), &engine2).unwrap();
        let recovered = opened.session.expect("state must recover");
        let stats = opened.recovery.unwrap();
        assert_eq!(stats.recovered_version, version);
        assert_eq!(recovered.version(), version);
        assert_eq!(recovered.execute(&q2).unwrap().tuples(), answers.tuples());
        assert_eq!(
            engine2.stats().recovery_replayed_ops,
            stats.replayed_records
        );
    }

    #[test]
    fn checkpoint_policy_truncates_wal_and_recovery_skips_replay() {
        let dir = tmpdir("policy");
        let engine = Engine::new();
        let config = PersistConfig {
            checkpoint_ops: 3,
            ..PersistConfig::default()
        };
        let opened = Persistence::open(&dir, config, &engine).unwrap();
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap();
        for n in 0..3 {
            durable_apply(&mut p, &shared, &edge(n));
        }
        // Third append crossed the policy: WAL is empty again.
        assert_eq!(p.wal_len_bytes(), WAL_MAGIC.len() as u64);
        assert_eq!(p.last_checkpoint_version(), shared.version());
        assert!(engine.stats().snapshots_written >= 2);
        assert_eq!(engine.stats().last_checkpoint_version, shared.version());
        drop((p, shared));

        let engine2 = Engine::new();
        let opened = Persistence::open(&dir, config, &engine2).unwrap();
        let stats = opened.recovery.unwrap();
        assert_eq!(stats.replayed_records, 0, "checkpoint made the WAL empty");
        assert_eq!(opened.session.unwrap().version(), 3);
    }

    #[test]
    fn wal_without_snapshot_is_refused() {
        let dir = tmpdir("orphan-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        wal.append(0, &edge(0)).unwrap();
        drop(wal);
        let engine = Engine::new();
        let err = Persistence::open(&dir, PersistConfig::default(), &engine).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
    }

    #[test]
    fn stale_snapshot_fallback_is_refused_not_silent() {
        let dir = tmpdir("stale");
        let engine = Engine::new();
        let config = PersistConfig {
            checkpoint_ops: 2,
            ..PersistConfig::default()
        };
        let opened = Persistence::open(&dir, config, &engine).unwrap();
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap(); // snap v0
        for n in 0..2 {
            durable_apply(&mut p, &shared, &edge(n)); // snap v2, WAL truncated
        }
        assert_eq!(p.last_checkpoint_version(), 2);
        drop((p, shared));

        // Corrupt the newest snapshot. The old snap v0 is intact, but
        // the WAL that would roll it forward to v2 is gone — recovery
        // must refuse rather than silently serve v0.
        let newest = dir.join("snap-00000000000000000002.triq");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let err = Persistence::open(&dir, config, &Engine::new()).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
        assert!(
            err.to_string().contains("failed validation"),
            "unexpected message: {err}"
        );
    }

    /// Acknowledges and checkpoints version 1 (WAL truncated, snapshots
    /// v0 and v1 kept), rewrites every snapshot's header with `mangle`,
    /// and returns the refusal — checking that no file changed.
    fn open_with_every_snapshot_mangled(name: &str, mangle: fn(&mut [u8])) -> TriqError {
        let dir = tmpdir(name);
        let engine = Engine::new();
        let config = PersistConfig {
            checkpoint_ops: 1,
            ..PersistConfig::default()
        };
        let mut p = Persistence::open(&dir, config, &engine)
            .unwrap()
            .persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap();
        durable_apply(&mut p, &shared, &edge(0));
        assert_eq!(p.last_checkpoint_version(), 1);
        drop((p, shared));
        let files = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|path| (std::fs::read(&path).unwrap(), path))
                .collect();
            files.sort_by(|a, b| a.1.cmp(&b.1));
            files
        };
        for (mut bytes, path) in files() {
            if !path.ends_with(WAL_FILE) {
                mangle(&mut bytes);
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let before = files();
        let err = Persistence::open(&dir, config, &Engine::new()).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
        assert!(err.to_string().contains("none is usable"), "{err}");
        assert!(files() == before, "a refused directory must not change");
        err
    }

    #[test]
    fn unreadable_snapshots_are_refused_not_reinitialized() {
        open_with_every_snapshot_mangled("unreadable", |bytes| bytes[0] ^= 0x01);
    }

    #[test]
    fn old_snapshot_format_is_refused_by_name() {
        let mangles: [fn(&mut [u8]); 3] = [
            |bytes| bytes[7] = b'1',
            |bytes| bytes[7] = b'2',
            |bytes| bytes[7] = b'3',
        ];
        for (format, mangle) in ["TRIQSNP1", "TRIQSNP2", "TRIQSNP3"]
            .into_iter()
            .zip(mangles)
        {
            let err = open_with_every_snapshot_mangled("old-format", mangle);
            assert!(err.to_string().contains(format), "{err}");
        }
    }

    #[test]
    fn wal_epoch_newer_than_snapshot_is_refused() {
        let dir = tmpdir("epoch");
        let engine = Engine::new();
        let config = PersistConfig {
            checkpoint_ops: 2,
            ..PersistConfig::default()
        };
        let opened = Persistence::open(&dir, config, &engine).unwrap();
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap(); // snap v0
        for n in 0..3 {
            // Records at pre 0 and 1 are folded into snap v2 (WAL
            // truncated); the third lives in the WAL at pre 2.
            durable_apply(&mut p, &shared, &edge(n));
        }
        drop((p, shared));

        // With snap v2 corrupt, the WAL tail (pre 2) builds on a
        // snapshot newer than the one that loads (v0): a clear
        // epoch-gap refusal, not a bogus "diverged" apply.
        let newest = dir.join("snap-00000000000000000002.triq");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let err = Persistence::open(&dir, config, &Engine::new()).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
        assert!(
            err.to_string().contains("epoch"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn checkpoint_failure_backs_off_then_recovers() {
        let dir = tmpdir("backoff");
        let engine = Engine::new();
        let config = PersistConfig {
            checkpoint_ops: 2,
            ..PersistConfig::default()
        };
        let opened = Persistence::open(&dir, config, &engine).unwrap();
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap();
        // Squat a directory on the tmp name of the checkpoint the
        // policy will trigger at version 2, so its write fails.
        let blocker = dir.join("snap-00000000000000000002.triq.tmp");
        std::fs::create_dir_all(&blocker).unwrap();

        p.append(shared.version(), &edge(0), shared.engine())
            .unwrap();
        shared.apply(&edge(0));
        assert!(p.maybe_checkpoint(&shared).unwrap().is_none(), "1 < 2 ops");

        p.append(shared.version(), &edge(1), shared.engine())
            .unwrap();
        shared.apply(&edge(1));
        assert!(p.maybe_checkpoint(&shared).is_err(), "blocked tmp file");
        assert_eq!(engine.stats().checkpoint_failures, 1);

        // Backoff: the very next update does not retry (and does not
        // re-encode the session), even though the policy still fires.
        p.append(shared.version(), &edge(2), shared.engine())
            .unwrap();
        shared.apply(&edge(2));
        assert!(p.should_checkpoint());
        assert!(
            p.maybe_checkpoint(&shared).unwrap().is_none(),
            "backing off"
        );
        assert_eq!(engine.stats().checkpoint_failures, 1);

        // After checkpoint_ops more records the retry runs — and
        // succeeds, because version 4's tmp name is unobstructed.
        p.append(shared.version(), &edge(3), shared.engine())
            .unwrap();
        shared.apply(&edge(3));
        assert_eq!(p.maybe_checkpoint(&shared).unwrap(), Some(shared.version()));
        assert_eq!(p.last_checkpoint_version(), 4);
        assert_eq!(p.wal_len_bytes(), WAL_MAGIC.len() as u64);
    }

    #[test]
    fn deletes_and_redundant_ops_replay_deterministically() {
        let dir = tmpdir("deletes");
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let opened = Persistence::open(&dir, PersistConfig::default(), &engine).unwrap();
        let mut p = opened.persistence;
        let shared = engine.session().into_shared();
        p.checkpoint(&shared).unwrap();
        durable_apply(&mut p, &shared, &edge(0));
        durable_apply(&mut p, &shared, &edge(1));
        // A redundant insert (version must not advance) and a delete.
        durable_apply(&mut p, &shared, &edge(1));
        durable_apply(&mut p, &shared, &Delta::new().delete("e", &["n0", "n1"]));
        let answers = shared.execute(&q).unwrap();
        let version = shared.version();
        assert_eq!(version, 3, "redundant insert did not advance the version");
        drop((p, shared));

        let engine2 = Engine::new();
        let q2 = engine2.prepare(Datalog(TC, "out")).unwrap();
        let opened = Persistence::open(&dir, PersistConfig::default(), &engine2).unwrap();
        let recovered = opened.session.unwrap();
        assert_eq!(recovered.version(), version);
        assert_eq!(recovered.execute(&q2).unwrap().tuples(), answers.tuples());
    }
}
