//! Session snapshot encoding — the payload of durability checkpoints.
//!
//! A snapshot captures a [`SharedSession`]'s exact state at one
//! version: the interner string table, the extensional
//! [`Database`](triq_datalog::Database) and every maintained view
//! (instance, skolem memo, program text and chase configuration — see
//! `triq_datalog::persist`). Each view is preceded by its role: a base
//! view is written once, before every view stacked on it, and a stacked
//! view as its own rows plus its base's key. Decoding yields a
//! [`Session`] that holds those views as ordinary entries of its view
//! table, under the same [`PlanKey`] a prepared query of the same
//! program and configuration looks up — so its first execution is a
//! cache hit, not a chase. File framing (magic, CRC, atomic rename) is
//! the `triq-persist` crate's job — this module only defines the body.
//!
//! The database is the only copy of the data, before and after a
//! recovery ([`Session::graph`] reads the RDF graph back out of it). A
//! graph file sitting next to the snapshot is ignored on recovery. Each
//! view is decoded over it by reference: a view's facts are atoms of
//! its own instance, and decode only checks the database's facts
//! against them (see `triq_datalog::persist`), so no view gets a copy.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use triq_common::codec::{encode_interner, Decoder, Encoder, SymbolRemap};
use triq_common::{Delta, Result, TriqError};
use triq_datalog::persist::{
    decode_database, decode_plan_key, decode_stacked_view, decode_view, encode_database,
    encode_plan_key, encode_stacked_view, encode_view, PlanKey,
};

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

fn corrupt(msg: &str) -> TriqError {
    TriqError::Persist(format!("corrupt snapshot: {msg}"))
}

/// Encodes the exact current state of a shared session under its writer
/// lock. Returns the snapshot body and the version it reflects.
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
    let version = session.version;
    let mut enc = Encoder::new();
    encode_interner(&mut enc);
    enc.varint(version);
    encode_database(&mut enc, &session.db);

    let Views { bases, plans } = session
        .views
        .get_mut()
        .unwrap_or_else(PoisonError::into_inner);
    let live = |view: &View| !view.view.is_poisoned();
    let mut chosen: Vec<(u8, &PlanKey, &View)> = bases
        .iter()
        .filter(|(_, base)| live(base))
        .map(|(key, base)| (BASE, key, base))
        .collect();
    for (key, view) in plans.iter().filter(|(_, view)| live(view)) {
        match &view.base {
            None => chosen.push((FLAT, key, view)),
            // A stacked view goes only with its base.
            Some(base) if bases.get(base).is_some_and(live) => chosen.push((STACKED, key, view)),
            Some(_) => {}
        }
    }
    // Bases (and flat views) first, so a stacked view follows its base.
    chosen.sort_by_key(|&(tag, key, _)| (tag == STACKED, key.fingerprint(), key.text()));
    enc.varint(chosen.len() as u64);
    let mut remaps: HashMap<&PlanKey, Option<_>> = HashMap::new();
    for (tag, key, view) in chosen {
        enc.u8(tag);
        match &view.base {
            Some(base) => {
                encode_plan_key(&mut enc, base);
                encode_stacked_view(&mut enc, &view.view, remaps[base].as_ref());
            }
            None => {
                remaps.insert(key, encode_view(&mut enc, &view.view));
            }
        }
    }
    (enc.into_bytes(), version)
}

/// Decodes a snapshot body written by [`encode_snapshot`] into a fresh
/// [`Session`] of `engine`, positioned at the snapshot's version. Every
/// stored view lands in the session's view table; a plan stored twice,
/// a stacked view whose base precedes it nowhere, and trailing bytes
/// are corruption.
pub fn decode_snapshot(engine: &Engine, bytes: &[u8]) -> Result<Session> {
    let mut dec = Decoder::new(bytes);
    let remap = SymbolRemap::decode(&mut dec)?;
    let version = dec.varint()?;
    let db = decode_database(&mut dec, &remap)?;
    let count = dec.len_capped(MAX_SNAPSHOT_VIEWS)?;
    let mut views = Views::default();
    for _ in 0..count {
        let tag = dec.u8()?;
        let (view, key) = match tag {
            FLAT | BASE => {
                let (view, key) = decode_view(&mut dec, &remap, &db)?;
                (View::new(view, None), key)
            }
            STACKED => {
                let base_key = decode_plan_key(&mut dec)?;
                let base = views
                    .bases
                    .get(&base_key)
                    .ok_or_else(|| corrupt("a stacked view's base is missing"))?;
                let (view, key) = decode_stacked_view(&mut dec, &remap, &db, &base.view)?;
                (View::new(view, Some(base_key)), key)
            }
            _ => return Err(corrupt("unknown view role")),
        };
        if views.bases.contains_key(&key) || views.plans.contains_key(&key) {
            return Err(corrupt("duplicate view"));
        }
        let map = if tag == BASE {
            &mut views.bases
        } else {
            &mut views.plans
        };
        map.insert(key, view);
    }
    if !dec.is_exhausted() {
        return Err(corrupt("trailing bytes after last view"));
    }
    Ok(Session {
        engine: engine.clone(),
        db,
        version,
        views: Mutex::new(views),
    })
}

/// Recovers a session: decodes the snapshot body `bytes` and rolls it
/// forward over the write-ahead log records written after it, each
/// given as the version it applies at and its delta. A record the
/// snapshot already holds is skipped; one that starts past the
/// session's version is a gap in the log (`E-PERSIST`). Every record
/// folds into the data, then the views absorb the netted effective
/// facts of all of them at once — one maintenance per view, however
/// long the tail. Returns the session and the number of records
/// replayed.
pub fn recover<'a>(
    engine: &Engine,
    bytes: &[u8],
    records: impl IntoIterator<Item = (u64, &'a Delta)>,
) -> Result<(Session, u64)> {
    let mut session = decode_snapshot(engine, bytes)?;
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
