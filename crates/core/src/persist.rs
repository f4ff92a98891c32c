//! Session snapshot encoding — the payload of durability checkpoints.
//!
//! A checkpoint is either a **full snapshot** or a **segment**. A full
//! snapshot captures a [`SharedSession`]'s exact state at one version:
//! the interner string table, the extensional
//! [`Database`](triq_datalog::Database) and every maintained view
//! (instance, skolem memo, program text and chase configuration — see
//! `triq_datalog::persist`), each written verbatim, tombstones and all.
//! Each view is preceded by its role: a base view is written once,
//! before every view stacked on it, and a stacked view as its own rows
//! plus its base's key. A segment holds what the session gained since
//! the checkpoint before it ([`Chain`]): the interner's new strings, the
//! database's segment, and per view of that checkpoint, in its order,
//! either its segment or the note that it was dropped; then every view
//! that is new or lives in a new id space (rebuilt or compacted), whole.
//! Atom ids name the same atoms in the recovering process as in the
//! writer, because the snapshot and every segment keep them verbatim.
//!
//! Decoding yields a [`Session`] that holds the views as ordinary
//! entries of its view table, under the same [`PlanKey`] a prepared
//! query of the same program and configuration looks up — so its first
//! execution is a cache hit, not a chase. File framing (magic, CRC,
//! atomic rename, the chain's order) is the `triq-persist` crate's job —
//! this module only defines the bodies.
//!
//! The database is the only copy of the data, before and after a
//! recovery ([`Session::graph`] reads the RDF graph back out of it). A
//! graph file sitting next to the snapshot is ignored on recovery. Each
//! view is restored over it by reference once the last segment is
//! applied: a view's facts are atoms of its own instance, and decode
//! only checks the database's facts against them (see
//! `triq_datalog::persist`), so no view gets a copy.

use std::sync::{Mutex, PoisonError};

use triq_common::codec::{encode_interner_from, Decoder, Encoder, SymbolRemap};
use triq_common::{Delta, Result, TriqError};
use triq_datalog::persist::{
    apply_database_segment, database_mark, decode_database, decode_plan_key, encode_database,
    encode_database_segment, encode_plan_key, encode_view, encode_view_segment, extends, mark_view,
    PlanKey, StoredView, ViewMark,
};
use triq_datalog::InstanceMark;

use crate::api::{Engine, Session, SharedSession, View, Views};

/// Upper bound on the view count a snapshot may declare — far above
/// anything a session produces (live views are capped at 32, and the
/// bases, exempt from that cap, are one per chase configuration), it
/// merely keeps a corrupt length prefix from driving a huge allocation
/// loop.
const MAX_SNAPSHOT_VIEWS: usize = 1024;

/// The role tags a view is written under: chased alone, the base other
/// views stack on, or stacked on a base.
const FLAT: u8 = 0;
const BASE: u8 = 1;
const STACKED: u8 = 2;

/// What a segment says of each view of the checkpoint before it.
const DROPPED: u8 = 0;
const EXTENDED: u8 = 1;

fn corrupt(msg: &str) -> TriqError {
    TriqError::Persist(format!("corrupt snapshot: {msg}"))
}

/// A view a checkpoint writes: its role, key and its base's key when
/// stacked.
type Entry = (u8, PlanKey, Option<PlanKey>);

/// The chain of checkpoints a session's next one extends: the full
/// snapshot it starts from, the segments since (their bytes) and where
/// the last checkpoint left each part of the session — the interner's
/// length, the database's mark and every view it wrote, in its order,
/// with its mark.
#[derive(Clone, Debug)]
pub struct Chain {
    base: u64,
    version: u64,
    base_bytes: u64,
    base_atoms: u64,
    chain_bytes: u64,
    symbols: usize,
    db: InstanceMark,
    /// The database's compaction count at the chain's start: a segment
    /// names its atoms by id, so once it compacts the chain ends.
    db_compactions: u64,
    views: Vec<(Entry, ViewMark)>,
}

impl Chain {
    /// The version of the full snapshot the chain starts from.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The version of the chain's last checkpoint.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// One checkpoint's body, ready to write.
#[derive(Debug)]
pub struct Checkpoint {
    /// The body.
    pub body: Vec<u8>,
    /// The session version it reflects.
    pub version: u64,
    /// `None` for a full snapshot. For a segment, the version of the
    /// full snapshot its chain starts from and of the checkpoint it
    /// extends.
    pub segment: Option<(u64, u64)>,
    /// The chain once this checkpoint is written: what the next one is
    /// encoded against.
    pub chain: Chain,
}

/// Encodes the exact current state of a shared session under its writer
/// lock, as a full snapshot. Returns the snapshot body and the version
/// it reflects.
///
/// Views included: every built view that is not poisoned — whether a
/// query has asked anything of it since it was recovered or not. Views
/// are written in fingerprint order — the encoding is deterministic for
/// a given state, which is what the kill-and-recover differential tests
/// compare.
pub fn encode_snapshot(shared: &SharedSession) -> (Vec<u8>, u64) {
    shared.with_writer(encode_session)
}

/// [`encode_snapshot`] against an exclusively-held session.
pub fn encode_session(session: &mut Session) -> (Vec<u8>, u64) {
    let (enc, _) = write_full(session, false);
    (enc.into_bytes(), session.version)
}

/// Encodes the next checkpoint of a shared session under its writer
/// lock: a segment extending `chain`, or a full snapshot
/// ([`checkpoint_session`]).
pub fn encode_checkpoint(shared: &SharedSession, chain: Option<&Chain>) -> Checkpoint {
    shared.with_writer(|session| checkpoint_session(session, chain))
}

/// The next checkpoint of an exclusively-held session. It is a segment
/// extending `chain`, unless there is no chain, the session's version
/// has not moved since its last checkpoint (a segment is named by the
/// version it reaches), the database compacted since the chain started
/// (its ids are new), or the chain would outgrow its full snapshot:
/// its bytes already exceed the snapshot's, or would once the views
/// written whole — priced at the snapshot's bytes per atom — were
/// added. Then it is a full snapshot, which starts a new chain. Either
/// way the views written are marked, and record their memo edits from
/// here on.
pub fn checkpoint_session(session: &mut Session, chain: Option<&Chain>) -> Checkpoint {
    if let Some(chain) = chain {
        if session.version != chain.version
            && session.db.compactions() == chain.db_compactions
            && chain.chain_bytes <= chain.base_bytes
        {
            if let Some(checkpoint) = write_segment(session, chain) {
                return checkpoint;
            }
        }
    }
    let (enc, chain) = write_full(session, true);
    let chain = chain.expect("a marked full snapshot yields its chain");
    Checkpoint {
        body: enc.into_bytes(),
        version: session.version,
        segment: None,
        chain,
    }
}

/// The views a checkpoint writes, in its order: every built view that
/// is not poisoned, a stacked one only with its base; bases and views
/// chased alone first, so a stacked view follows its base.
fn entries(views: &Views) -> Vec<Entry> {
    let live = |view: &View| !view.view.is_poisoned();
    let mut chosen: Vec<Entry> = views
        .bases
        .iter()
        .filter(|(_, base)| live(base))
        .map(|(key, _)| (BASE, key.clone(), None))
        .collect();
    for (key, view) in views.plans.iter().filter(|(_, view)| live(view)) {
        match &view.base {
            None => chosen.push((FLAT, key.clone(), None)),
            Some(base) if views.bases.get(base).is_some_and(live) => {
                chosen.push((STACKED, key.clone(), Some(base.clone())))
            }
            Some(_) => {}
        }
    }
    chosen.sort_by(|a, b| {
        let order = |(tag, key, _): &Entry| (*tag == STACKED, key.fingerprint());
        order(a)
            .cmp(&order(b))
            .then_with(|| a.1.text().cmp(b.1.text()))
    });
    chosen
}

/// The view filed under an entry's key.
fn view_mut<'v>(views: &'v mut Views, (tag, key, _): &Entry) -> &'v mut View {
    let map = if *tag == BASE {
        &mut views.bases
    } else {
        &mut views.plans
    };
    map.get_mut(key).expect("an entry names a filed view")
}

/// Writes an entry's view whole: its role, its base's key when stacked,
/// then the view.
fn write_whole(enc: &mut Encoder, (tag, _, base): &Entry, view: &View) {
    enc.u8(*tag);
    if let Some(base) = base {
        encode_plan_key(enc, base);
    }
    encode_view(enc, &view.view);
}

/// Writes the whole session; with `mark`, marks every view written and
/// returns the chain the snapshot starts.
fn write_full(session: &mut Session, mark: bool) -> (Encoder, Option<Chain>) {
    let version = session.version;
    let mut enc = Encoder::new();
    let symbols = encode_interner_from(&mut enc, 0);
    enc.varint(version);
    encode_database(&mut enc, &session.db);
    let views = session
        .views
        .get_mut()
        .unwrap_or_else(PoisonError::into_inner);
    let chosen = entries(views);
    enc.varint(chosen.len() as u64);
    let mut atoms = session.db.len() as u64;
    let mut marks = Vec::new();
    for entry in chosen {
        let view = view_mut(views, &entry);
        write_whole(&mut enc, &entry, view);
        atoms += view.view.instance().len() as u64;
        if mark {
            marks.push((entry, mark_view(&mut view.view)));
        }
    }
    let chain = mark.then(|| Chain {
        base: version,
        version,
        base_bytes: enc.len() as u64,
        base_atoms: atoms.max(1),
        chain_bytes: 0,
        symbols,
        db: database_mark(&session.db),
        db_compactions: session.db.compactions(),
        views: marks,
    });
    (enc, chain)
}

/// Writes a segment extending `chain`, or returns `None` when the views
/// it would write whole would make the chain outgrow its full snapshot.
fn write_segment(session: &mut Session, chain: &Chain) -> Option<Checkpoint> {
    let views = session
        .views
        .get_mut()
        .unwrap_or_else(PoisonError::into_inner);
    // A view extends its mark while it stays in the id space the mark
    // was taken in, under the same base, whose own mark it extends too.
    let mut extended: Vec<(Entry, ViewMark)> = Vec::new();
    let mut whole: Vec<Entry> = Vec::new();
    for entry in entries(views) {
        let marked = chain.views.iter().find(|(e, _)| e.1 == entry.1);
        let continues = marked.is_some_and(|((tag, _, base), mark)| {
            *tag == entry.0
                && *base == entry.2
                && extends(&view_mut(views, &entry).view, mark)
                && base
                    .as_ref()
                    .is_none_or(|b| extended.iter().any(|(e, _)| e.1 == *b))
        });
        match marked {
            Some((_, mark)) if continues => extended.push((entry, *mark)),
            _ => whole.push(entry),
        }
    }
    let whole_atoms: u64 = whole
        .iter()
        .map(|entry| view_mut(views, entry).view.instance().len() as u64)
        .sum();
    if chain.chain_bytes + whole_atoms * chain.base_bytes / chain.base_atoms > chain.base_bytes {
        return None;
    }

    let version = session.version;
    let mut enc = Encoder::new();
    enc.u32_fixed(chain.symbols as u32);
    let symbols = encode_interner_from(&mut enc, chain.symbols);
    enc.varint(version);
    encode_database_segment(&mut enc, &session.db, chain.db);
    let mut marks = Vec::with_capacity(extended.len() + whole.len());
    for (entry, _) in &chain.views {
        match extended.iter().find(|(e, _)| e.1 == entry.1) {
            Some((entry, mark)) => {
                enc.u8(EXTENDED);
                let view = &mut view_mut(views, entry).view;
                marks.push((entry.clone(), encode_view_segment(&mut enc, view, mark)));
            }
            None => enc.u8(DROPPED),
        }
    }
    enc.varint(whole.len() as u64);
    for entry in whole {
        let view = view_mut(views, &entry);
        write_whole(&mut enc, &entry, view);
        let mark = mark_view(&mut view.view);
        marks.push((entry, mark));
    }
    let body = enc.into_bytes();
    let next = Chain {
        version,
        chain_bytes: chain.chain_bytes + body.len() as u64,
        symbols,
        db: database_mark(&session.db),
        views: marks,
        ..*chain
    };
    Some(Checkpoint {
        body,
        version,
        segment: Some((chain.base, chain.version)),
        chain: next,
    })
}

/// A session as its full snapshot and segments describe it, before its
/// views are restored over the database.
struct Stored {
    remap: SymbolRemap,
    version: u64,
    db: triq_datalog::Database,
    /// Every view, in the order of the last checkpoint read, with its
    /// role and its base's key when stacked.
    views: Vec<(u8, Option<PlanKey>, StoredView)>,
}

impl Stored {
    /// Reads a full snapshot body.
    fn decode(bytes: &[u8]) -> Result<Stored> {
        let mut dec = Decoder::new(bytes);
        let remap = SymbolRemap::decode(&mut dec)?;
        let version = dec.varint()?;
        let db = decode_database(&mut dec, &remap)?;
        let mut stored = Stored {
            remap,
            version,
            db,
            views: Vec::new(),
        };
        stored.read_whole(&mut dec)?;
        finish(&dec)?;
        Ok(stored)
    }

    /// The view filed under `key`.
    fn find(&self, key: &PlanKey) -> Option<&StoredView> {
        self.views
            .iter()
            .map(|(_, _, view)| view)
            .find(|view| view.key() == key)
    }

    /// Reads a count of views written whole and files them after the
    /// views already read.
    fn read_whole(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let count = dec.len_capped(MAX_SNAPSHOT_VIEWS)?;
        for _ in 0..count {
            let tag = dec.u8()?;
            let (view, base) = match tag {
                FLAT | BASE => (StoredView::decode(dec, &self.remap, None)?, None),
                STACKED => {
                    let base_key = decode_plan_key(dec)?;
                    let base = self
                        .views
                        .iter()
                        .find(|(tag, _, view)| *tag == BASE && *view.key() == base_key)
                        .map(|(_, _, view)| (view.runner(), view.instance()))
                        .ok_or_else(|| corrupt("a stacked view's base is missing"))?;
                    let view = StoredView::decode(dec, &self.remap, Some(base))?;
                    (view, Some(base_key))
                }
                _ => return Err(corrupt("unknown view role")),
            };
            if self.find(view.key()).is_some() {
                return Err(corrupt("duplicate view"));
            }
            self.views.push((tag, base, view));
        }
        Ok(())
    }

    /// Applies a segment body: the next checkpoint after the last one
    /// read.
    fn apply_segment(&mut self, bytes: &[u8]) -> Result<()> {
        let mut dec = Decoder::new(bytes);
        if dec.u32_fixed()? as usize != self.remap.len() {
            return Err(corrupt(
                "a segment's interner table does not extend the snapshot's",
            ));
        }
        self.remap.extend(&mut dec)?;
        let version = dec.varint()?;
        if version <= self.version {
            return Err(corrupt("a segment does not move the version forward"));
        }
        self.version = version;
        apply_database_segment(&mut dec, &self.remap, &mut self.db)?;
        for (tag, base_key, mut view) in std::mem::take(&mut self.views) {
            match dec.u8()? {
                DROPPED => continue,
                EXTENDED => {
                    let base = match &base_key {
                        Some(key) => Some(
                            self.find(key)
                                .ok_or_else(|| corrupt("a stacked view's base is missing"))?
                                .instance(),
                        ),
                        None => None,
                    };
                    view.apply_segment(&mut dec, &self.remap, base)?;
                    self.views.push((tag, base_key, view));
                }
                _ => return Err(corrupt("bad view segment tag")),
            }
        }
        self.read_whole(&mut dec)?;
        finish(&dec)
    }

    /// The session: every view restored over the database, a stacked
    /// one over its base — except those no plan of `engine` can ask for
    /// ([`Engine::asks_for`]), with the views stacked on them.
    fn into_session(self, engine: &Engine) -> Result<Session> {
        let Stored {
            version,
            db,
            views: stored,
            ..
        } = self;
        let mut views = Views::default();
        let mut dropped: Vec<PlanKey> = Vec::new();
        for (tag, base_key, view) in stored {
            let key = view.key().clone();
            let orphan = match &base_key {
                Some(base) => dropped.contains(base),
                None => !engine.asks_for(tag == BASE, view.runner()),
            };
            if orphan {
                dropped.push(key);
                continue;
            }
            let view = match &base_key {
                None => view.restore(&db, None)?,
                Some(base) => {
                    let base = views
                        .bases
                        .get(base)
                        .ok_or_else(|| corrupt("a stacked view's base is missing"))?;
                    view.restore(&db, Some(&base.view))?
                }
            };
            let map = if tag == BASE {
                &mut views.bases
            } else {
                &mut views.plans
            };
            map.insert(key, View::new(view, base_key));
        }
        Ok(Session {
            engine: engine.clone(),
            db,
            version,
            views: Mutex::new(views),
        })
    }
}

fn finish(dec: &Decoder<'_>) -> Result<()> {
    if dec.is_exhausted() {
        Ok(())
    } else {
        Err(corrupt("trailing bytes after last view"))
    }
}

/// Decodes a snapshot body written by [`encode_snapshot`] (or as a full
/// checkpoint) into a fresh [`Session`] of `engine`, positioned at the
/// snapshot's version. Every stored view lands in the session's view
/// table; a plan stored twice, a stacked view whose base precedes it
/// nowhere, and trailing bytes are corruption.
pub fn decode_snapshot(engine: &Engine, bytes: &[u8]) -> Result<Session> {
    Stored::decode(bytes)?.into_session(engine)
}

/// Recovers a session: decodes the full snapshot body `bytes`, applies
/// the segments chained on it in order, and rolls the result forward
/// over the write-ahead log records written after the last of them,
/// each given as the version it applies at and its delta. A record the
/// chain already holds is skipped; one that starts past the session's
/// version is a gap in the log (`E-PERSIST`). Every record folds into
/// the data, then the views absorb the netted effective facts of all of
/// them at once — one maintenance per view, however long the tail.
/// Returns the session and the number of records replayed.
pub fn recover<'a>(
    engine: &Engine,
    bytes: &[u8],
    segments: &[Vec<u8>],
    records: impl IntoIterator<Item = (u64, &'a Delta)>,
) -> Result<(Session, u64)> {
    let mut stored = Stored::decode(bytes)?;
    for segment in segments {
        stored.apply_segment(segment)?;
    }
    let mut session = stored.into_session(engine)?;
    let snap_version = session.version;
    let mut effective = Vec::new();
    for (pre_version, delta) in records {
        if pre_version < session.version() {
            continue; // already folded into the snapshot
        }
        if pre_version > session.version() {
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
                pre_version,
                session.version(),
            )));
        }
        effective.push(session.fold(delta));
    }
    session.absorb(&Delta::net(&effective));
    Ok((session, effective.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Datalog;

    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                      t(?X, ?Y) -> out(?X, ?Y).";

    #[test]
    fn snapshot_round_trips_and_is_adopted_without_a_chase() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        session.add_fact("e", &["b", "c"]);
        let shared = session.into_shared();
        let before = shared.execute(&q).unwrap();
        assert!(before.contains(&["a", "c"]));

        let (bytes, version) = encode_snapshot(&shared);
        assert_eq!(version, 2);

        // Recover into a fresh engine; the same prepared query (same
        // program text + config → same fingerprint) adopts the restored
        // view: answers are identical and no chase runs.
        let engine2 = Engine::new();
        let q2 = engine2.prepare(Datalog(TC, "out")).unwrap();
        let recovered = decode_snapshot(&engine2, &bytes).unwrap();
        assert_eq!(recovered.version(), 2);
        let runs_before = engine2.stats().chase_runs;
        let shared2 = recovered.into_shared();
        let after = shared2.execute(&q2).unwrap();
        assert_eq!(
            engine2.stats().chase_runs,
            runs_before,
            "adopted, not re-chased"
        );
        assert_eq!(before.tuples(), after.tuples());

        // The recovered session keeps maintaining incrementally.
        shared2.apply(&Delta::new().insert("e", &["c", "d"]));
        assert!(shared2.execute(&q2).unwrap().contains(&["a", "d"]));
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        shared.execute(&q).unwrap();
        // The body starts with the process-wide interner table, which
        // tests running alongside this one grow: compare two encodings
        // between which nothing was interned.
        let interned = || triq_common::interned_strings().len();
        let (a, b) = loop {
            let before = interned();
            let (a, _) = encode_snapshot(&shared);
            let (b, _) = encode_snapshot(&shared);
            if interned() == before {
                break (a, b);
            }
        };
        assert_eq!(a, b);
    }

    #[test]
    fn restored_view_survives_the_next_checkpoint_unadopted() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        shared.execute(&q).unwrap();
        let (bytes, _) = encode_snapshot(&shared);

        let engine2 = Engine::new();
        let recovered = decode_snapshot(&engine2, &bytes).unwrap();
        let shared2 = recovered.into_shared();
        // No query executed: the view is still in the restored set, and
        // a new checkpoint must carry it forward.
        let (bytes2, _) = encode_snapshot(&shared2);
        let engine3 = Engine::new();
        let recovered3 = decode_snapshot(&engine3, &bytes2).unwrap();
        let q3 = engine3.prepare(Datalog(TC, "out")).unwrap();
        let runs = engine3.stats().chase_runs;
        let shared3 = recovered3.into_shared();
        assert!(shared3.execute(&q3).unwrap().contains(&["a", "b"]));
        assert_eq!(engine3.stats().chase_runs, runs);
    }

    /// A full checkpoint and three segments — an insert and a delete, a
    /// new view, every view dropped — recover a session that encodes to
    /// the live session's bytes.
    #[test]
    fn a_chain_of_segments_recovers_the_session_verbatim() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let r = engine.prepare(Datalog("e(?X, ?Y) -> r(?Y).", "r")).unwrap();
        let mut session = engine.session();
        for (x, y) in [("a", "b"), ("b", "c"), ("x", "y")] {
            session.add_fact("e", &[x, y]);
        }
        // Facts no rule reads, so that a new view costs less than the
        // full snapshot (else the checkpoint writing it is a full one).
        for i in 0..300 {
            session.add_fact("pad", &[&format!("p{i}")]);
        }
        q.execute(&session).unwrap();
        let full = checkpoint_session(&mut session, None);
        assert!(full.segment.is_none());
        let mut chain = full.chain;
        let steps: [&dyn Fn(&mut Session); 3] = [
            &|s| {
                s.add_fact("e", &["c", "d"]);
                s.remove_fact("e", &["a", "b"]);
            },
            &|s| {
                r.execute(s).unwrap();
                s.add_fact("e", &["d", "e"]);
            },
            &|s| {
                s.invalidate();
                s.add_fact("e", &["e", "f"]);
            },
        ];
        let mut segments = Vec::new();
        for step in steps {
            step(&mut session);
            let next = checkpoint_session(&mut session, Some(&chain));
            assert_eq!(next.segment, Some((chain.base(), chain.version())));
            segments.push(next.body);
            chain = next.chain;
        }
        let (mut recovered, replayed) = recover(&Engine::new(), &full.body, &segments, []).unwrap();
        assert_eq!((recovered.version(), replayed), (session.version(), 0));
        let interned = || triq_common::interned_strings().len();
        let (a, b) = loop {
            let before = interned();
            let (a, _) = encode_session(&mut session);
            let (b, _) = encode_session(&mut recovered);
            if interned() == before {
                break (a, b);
            }
        };
        assert!(a == b, "the recovered session is the live one");
        // A segment applied out of order is refused.
        let err = recover(&Engine::new(), &full.body, &segments[1..], []).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
    }

    /// A snapshot written before the regime was served holds its views
    /// of `τ_owl2ql_core` literal: recovery drops them, and the views
    /// stacked on them, rather than keep views no plan asks for.
    #[test]
    fn literal_regime_views_are_dropped_at_recovery() {
        use triq_datalog::{ChaseRunner, MaterializedView};
        use triq_translate::regime_chase_config;
        let engine = Engine::new();
        let q = engine
            .prepare((
                triq_sparql::parse_pattern("{ ?X rdf:type c }").unwrap(),
                crate::Semantics::RegimeU,
            ))
            .unwrap();
        let mut session = engine.session();
        session.insert_triple("a", "rdf:type", "c");
        q.execute(&session).unwrap();
        let literal = |program| {
            let runner = ChaseRunner::new(program, regime_chase_config()).unwrap();
            let view = MaterializedView::new(runner, session.database().clone()).unwrap();
            (PlanKey::of(view.runner()), View::new(view, None))
        };
        let (base, base_view) = literal(triq_owl2ql::tau_owl2ql_core());
        let flat_program = triq_owl2ql::tau_owl2ql_core()
            .union(&triq_datalog::parse_program("triple1(?X, p, ?Y) -> out(?X).").unwrap());
        let (flat, flat_view) = literal(flat_program);
        {
            let mut views = session.views.lock().unwrap();
            views.bases.insert(base.clone(), base_view);
            views.plans.insert(flat.clone(), flat_view);
            assert_eq!((views.bases.len(), views.plans.len()), (2, 2));
        }
        let full = checkpoint_session(&mut session, None);
        let (recovered, _) = recover(&Engine::new(), &full.body, &[], []).unwrap();
        let views = recovered.views.lock().unwrap();
        assert_eq!(
            (views.bases.len(), views.plans.len()),
            (1, 1),
            "the served views stay"
        );
        assert!(!views.bases.contains_key(&base) && !views.plans.contains_key(&flat));
    }

    /// A checkpoint written before `type` was read through a selection
    /// and `adom` as a constant test holds the regime base in its earlier
    /// served form (rule 16 chased, unions for `triple1` alone) and a
    /// layer stacked on it. No plan asks for that base: recovery drops
    /// it and its layer, and the next query builds both again.
    #[test]
    fn a_regime_base_in_an_earlier_served_form_is_rebuilt_after_recovery() {
        use triq_datalog::{ChaseRunner, Database, MaterializedView, Program, Union, Unions};
        use triq_owl2ql::{tau_owl2ql_core, triple1_pred};
        let config = triq_translate::regime_chase_config();
        let pattern = || {
            (
                triq_sparql::parse_pattern("{ ?X rdf:type c }").unwrap(),
                crate::Semantics::RegimeU,
            )
        };
        let engine = Engine::new();
        let q = engine.prepare(pattern()).unwrap();
        let mut session = engine.session();
        session.insert_triple("a", "rdf:type", "b");
        session.insert_triple("b", "rdfs:subClassOf", "c");
        let tau = tau_owl2ql_core();
        let copies = tau.rules.iter().filter_map(Union::of_rule);
        let earlier = Unions::new(copies.filter(|u| u.pred == triple1_pred()).collect()).unwrap();
        let base_runner = ChaseRunner::with_unions(tau.clone(), earlier.clone(), config).unwrap();
        assert!(base_runner.text().contains("adom(?X), adom(?Y), adom(?Z)."));
        assert!(!base_runner.text().contains("@constant"));
        assert!(!engine.asks_for(true, &base_runner), "no plan asks for it");
        let layer = Program {
            rules: q.program().rules[tau.rules.len()..].to_vec(),
            constraints: Vec::new(),
        };
        let layer_key = PlanKey::served(&tau.union(&layer), &earlier, &config);
        let layer_runner = ChaseRunner::with_unions(layer, earlier, config).unwrap();
        let base_key = PlanKey::of(&base_runner);
        let base = MaterializedView::new(base_runner, session.database().clone()).unwrap();
        let stacked = MaterializedView::stacked(layer_runner, Database::new(), &base).unwrap();
        {
            let mut views = session.views.lock().unwrap();
            views.bases.insert(base_key.clone(), View::new(base, None));
            views
                .plans
                .insert(layer_key.clone(), View::new(stacked, Some(base_key)));
        }
        let full = checkpoint_session(&mut session, None);
        let engine2 = Engine::new();
        let (recovered, _) = recover(&engine2, &full.body, &[], []).unwrap();
        {
            let views = recovered.views.lock().unwrap();
            assert_eq!((views.bases.len(), views.plans.len()), (0, 0), "no orphan");
        }
        let q2 = engine2.prepare(pattern()).unwrap();
        let runs = engine2.stats().chase_runs;
        assert!(q2.execute(&recovered).unwrap().contains(&["a"]));
        assert_eq!(engine2.stats().chase_runs, runs + 2, "base and layer built");
        let views = recovered.views.lock().unwrap();
        assert_eq!((views.bases.len(), views.plans.len()), (1, 1));
        assert!(!views.plans.contains_key(&layer_key));
    }

    /// A Datalog plan that spells `τ_owl2ql_core` out is asked for by
    /// the same plan after recovery: its view is kept and adopted
    /// without a chase, though its text starts with the regime's rules.
    #[test]
    fn a_datalog_plan_holding_the_regime_rules_survives_recovery() {
        let text = format!(
            "{}triple1(?X, p, ?Y) -> out(?X).",
            triq_owl2ql::tau_owl2ql_core()
        );
        let engine = Engine::new();
        let q = engine.prepare(Datalog(&text, "out")).unwrap();
        let mut session = engine.session();
        session.insert_triple("p", "rdfs:subPropertyOf", "q");
        session.insert_triple("a", "p", "b");
        let before = q.execute(&session).unwrap();
        assert!(before.contains(&["a"]));
        let full = checkpoint_session(&mut session, None);

        let engine2 = Engine::new();
        let q2 = engine2.prepare(Datalog(&text, "out")).unwrap();
        let (recovered, _) = recover(&engine2, &full.body, &[], []).unwrap();
        assert_eq!(recovered.views.lock().unwrap().plans.len(), 1);
        let runs = engine2.stats().chase_runs;
        let after = q2.execute(&recovered).unwrap();
        assert_eq!(engine2.stats().chase_runs, runs, "adopted, not re-chased");
        assert_eq!(before.tuples(), after.tuples());
    }

    /// 2,000 cycles that each insert and delete a fresh fact leave the
    /// live facts as they were: the database compacts by the rule views
    /// use, so its rows and its part of a full snapshot stay bounded,
    /// the checkpoint after each compaction is a full snapshot, and
    /// recovery lands on the last version written.
    #[test]
    fn a_churning_database_compacts_and_recovers() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        for i in 0..100 {
            session.add_fact("e", &[&format!("k{i}"), &format!("k{}", i + 1)]);
        }
        q.execute(&session).unwrap();
        let db_bytes = |session: &Session| {
            let mut enc = Encoder::new();
            triq_datalog::persist::encode_database(&mut enc, &session.db);
            enc.len()
        };
        let settled = db_bytes(&session);
        let full = checkpoint_session(&mut session, None);
        let (mut snapshot, mut chain, mut segments) = (full.body, full.chain, Vec::new());
        let mut fulls = 0;
        for cycle in 0..2_000 {
            let fresh = format!("churn{cycle}");
            session.add_fact("e", &[&fresh, "k0"]);
            session.remove_fact("e", &[&fresh, "k0"]);
            if cycle % 50 == 49 {
                let compactions = session.db.compactions();
                let next = checkpoint_session(&mut session, Some(&chain));
                match next.segment {
                    Some(_) => segments.push(next.body),
                    None => {
                        (snapshot, segments) = (next.body, Vec::new());
                        fulls += 1;
                    }
                }
                assert_eq!(compactions, session.db.compactions());
                chain = next.chain;
            }
        }
        let db = &session.db;
        assert!(db.compactions() >= 7, "{} compactions", db.compactions());
        assert!(
            fulls >= db.compactions() as usize / 2,
            "a compaction ends the chain"
        );
        let rows = db.rows();
        assert!(rows < 100 + 256 + 1, "{rows} rows for 100 live facts");
        assert!(
            db_bytes(&session) < settled + 256 * 16,
            "the database's bytes stay bounded"
        );
        let (recovered, replayed) = recover(&Engine::new(), &snapshot, &segments, []).unwrap();
        assert_eq!((recovered.version(), replayed), (session.version(), 0));
        assert_eq!(recovered.database().len(), 100);
        assert!(q.execute(&recovered).unwrap().contains(&["k0", "k100"]));
    }

    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        let engine = Engine::new();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        let (bytes, _) = encode_snapshot(&shared);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let engine2 = Engine::new();
            assert!(decode_snapshot(&engine2, &bytes[..cut]).is_err());
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        let engine2 = Engine::new();
        assert!(decode_snapshot(&engine2, &padded).is_err());
    }
}
