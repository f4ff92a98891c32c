//! Binary snapshot codec for the chase state: columnar [`Instance`]s,
//! [`Database`]s, the skolem memo and whole [`MaterializedView`]s.
//!
//! The encoding builds on the primitives in [`triq_common::codec`] and is
//! deterministic: a relation's `Vec<TermId>` columns are written as raw
//! little-endian `u32` slices (the "nearly verbatim" bulk path), and the
//! atom directory is written in global id order, so the same logical
//! state always produces the same bytes.
//!
//! What is — and is not — serialized:
//!
//! * **Tombstones are compacted away.** An instance that has seen
//!   deletions is encoded through [`Instance::compacted`], which keeps
//!   supports and (re-pointed) provenance intact and keeps only the
//!   nulls a live atom mentions, renumbered with their depths (the memo
//!   and stacked views follow). The decoded instance is therefore always
//!   dense.
//! * **Indexes and statistics are rebuilt, not stored.** Decode replays
//!   every row through [`Instance::insert_ids`], which reconstructs the
//!   tuple-hash table, per-column posting lists and the insert-monotone
//!   [`triq_common::RelationStats`] exactly as the original inserts did
//!   (the sketches are deterministic functions of the insert sequence).
//!   Joint indexes are planner-requested and rebuild lazily.
//! * **Symbols are snapshot-relative.** Every constant is an index into
//!   the snapshot's interner table; decode translates through a
//!   [`SymbolRemap`]. Labeled nulls are instance-local and pass through.
//!
//! A [`MaterializedView`] snapshot additionally carries its program
//! *text* and [`ChaseConfig`], from which the view's compiled runner is
//! rebuilt (the program `Display` form round-trips through the parser —
//! pinned by the display-roundtrip tests). The pair is also the view's
//! [`PlanKey`], the identity a session files it under — before and after
//! a restart alike. A stacked view stores its layer's program and rows
//! only; it is decoded against its base view ([`decode_stacked_view`]),
//! and its key is that of the two programs together.

use crate::chase::{renumber_memo, ChaseOutcome, ChaseRunner, ChaseStats, SkolemMemo};
use crate::incremental::MaterializedView;
use crate::instance::{AtomId, Database, Derivation, Instance, Renumbering, BASE_ATOM};
use crate::parser::parse_program;
use crate::program::Program;
use crate::{ChaseConfig, ExistentialStrategy};
use std::sync::Arc;
use triq_common::codec::{Decoder, Encoder, SymbolRemap};
use triq_common::{Result, Symbol, TermId, TriqError};

fn corrupt(what: &str) -> TriqError {
    TriqError::Persist(format!("corrupt snapshot: {what}"))
}

// ---------------------------------------------------------------------------
// Instance / Database
// ---------------------------------------------------------------------------

/// Encodes an instance. Tombstoned atoms are compacted away first, so
/// the byte stream (and the decoded instance) is always dense.
pub fn encode_instance(enc: &mut Encoder, inst: &Instance) {
    encode_instance_over(enc, inst, None);
}

/// [`encode_instance`], renumbering a stacked view's provenance and the
/// base nulls its rows carry through `base`, how its base was compacted
/// on encode. Returns how the instance itself was compacted, if it was.
fn encode_instance_over(
    enc: &mut Encoder,
    inst: &Instance,
    base: Option<&Renumbering>,
) -> Option<Renumbering> {
    let compacted_owned;
    let mut renumbering = None;
    let inst = if inst.dead_len() > 0 || base.is_some() {
        let (compacted, renumbered) = inst.compacted_over(base);
        compacted_owned = compacted;
        renumbering = Some(renumbered);
        &compacted_owned
    } else {
        inst
    };
    // Null invention depths (indexed by NullId) must precede the rows:
    // decode seeds them before re-inserting so each atom's depth is
    // recomputed exactly.
    enc.u32_slice(inst.null_depths().iter().copied());
    // Relation directory: predicate, arity, then the columns verbatim.
    let rels = inst.relations_slice();
    enc.varint(rels.len() as u64);
    for rel in rels {
        enc.varint(u64::from(rel.pred().index()));
        enc.varint(rel.arity() as u64);
        for col in rel.columns() {
            enc.u32_slice(col.iter().map(|t| t.raw()));
        }
    }
    // Atom directory in global id order: which relation the atom's row
    // lives in (rows are consumed in order per relation), its support
    // counter, and its provenance.
    enc.varint(inst.len() as u64);
    for id in 0..inst.len() as AtomId {
        enc.varint(u64::from(inst.rel_index_of(id)));
        enc.varint(u64::from(inst.support(id)));
        match inst.derivation(id) {
            None => enc.u8(0),
            Some(d) => {
                enc.u8(1);
                enc.varint(d.rule as u64);
                enc.varint(d.body.len() as u64);
                for &b in &d.body {
                    enc.varint(u64::from(b));
                }
            }
        }
    }
    renumbering
}

/// Decodes an instance written by [`encode_instance`], translating
/// constants through `remap`. The columns are adopted verbatim and the
/// indexes, sketches and depths are rebuilt through the bulk path
/// (`Instance::bulk_load`) — pre-sized single passes producing the
/// same state replaying every insert would, without the per-row
/// hash-table growth.
pub fn decode_instance(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<Instance> {
    decode_instance_over(dec, remap, None)
}

/// [`decode_instance`] of a stacked view's own instance when `base` is
/// given: its provenance may name the base's atoms, and its rows carry
/// the base's nulls.
fn decode_instance_over(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    base: Option<&Instance>,
) -> Result<Instance> {
    let null_depths = dec.u32_slice()?;
    let nrels = dec.len_capped(dec.remaining())?;
    let mut rels = Vec::with_capacity(nrels);
    for _ in 0..nrels {
        let pred = remap
            .symbol(u32::try_from(dec.varint()?).map_err(|_| corrupt("predicate id overflow"))?)?;
        let arity = dec.len_capped(u16::MAX as usize)?;
        let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(arity);
        for c in 0..arity {
            let raw = dec.u32_slice()?;
            let col: Result<Vec<TermId>> = raw.into_iter().map(|w| remap.term(w)).collect();
            let col = col?;
            if c > 0 && col.len() != cols[0].len() {
                return Err(corrupt("ragged relation columns"));
            }
            cols.push(col);
        }
        rels.push((pred, arity, cols));
    }
    let natoms = dec.len_capped(dec.remaining())?;
    let mut directory = Vec::with_capacity(natoms);
    for id in 0..natoms {
        let rel_idx = dec.len_capped(nrels.saturating_sub(1))? as u32;
        let support =
            u32::try_from(dec.varint()?).map_err(|_| corrupt("support counter overflow"))?;
        let derivation = match dec.u8()? {
            0 => None,
            1 => {
                let rule = dec.len_capped(u32::MAX as usize)?;
                let blen = dec.len_capped(dec.remaining())?;
                let mut body = Vec::with_capacity(blen);
                for _ in 0..blen {
                    let b = dec.varint()?;
                    let in_base = b & u64::from(BASE_ATOM) != 0;
                    let bound = match base {
                        Some(base) if in_base => base.len() as u64 | u64::from(BASE_ATOM),
                        _ => id as u64,
                    };
                    if b >= bound {
                        return Err(corrupt("provenance references a later atom"));
                    }
                    body.push(b as AtomId);
                }
                Some(Derivation { rule, body })
            }
            _ => return Err(corrupt("bad derivation tag")),
        };
        directory.push((rel_idx, support, derivation));
    }
    Instance::bulk_load(null_depths, rels, directory, base).map_err(corrupt)
}

/// Encodes a database (its live facts; removals are compacted away).
pub fn encode_database(enc: &mut Encoder, db: &Database) {
    encode_instance(enc, db.instance_ref());
}

/// Decodes a database written by [`encode_database`].
pub fn decode_database(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<Database> {
    Ok(Database::from_instance(decode_instance(dec, remap)?))
}

// ---------------------------------------------------------------------------
// Skolem memo
// ---------------------------------------------------------------------------

fn encode_memo(enc: &mut Encoder, memo: &SkolemMemo) {
    let mut entries: Vec<_> = memo.iter().collect();
    // Canonical order: the memo is a hash map, the stream must not be.
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    enc.varint(entries.len() as u64);
    for ((rule, frontier), nulls) in entries {
        enc.varint(*rule as u64);
        enc.u32_slice(frontier.iter().map(|t| t.raw()));
        enc.u32_slice(nulls.iter().map(|t| t.raw()));
    }
}

fn decode_memo(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<SkolemMemo> {
    let n = dec.len_capped(dec.remaining())?;
    let mut memo = SkolemMemo::with_capacity(n);
    for _ in 0..n {
        let rule = dec.len_capped(u32::MAX as usize)?;
        let frontier: Result<Vec<TermId>> = dec
            .u32_slice()?
            .into_iter()
            .map(|w| remap.term(w))
            .collect();
        let nulls: Result<Vec<TermId>> = dec
            .u32_slice()?
            .into_iter()
            .map(|w| remap.term(w))
            .collect();
        if memo
            .insert((rule, frontier?.into_boxed_slice()), nulls?)
            .is_some()
        {
            return Err(corrupt("duplicate skolem memo key"));
        }
    }
    Ok(memo)
}

// ---------------------------------------------------------------------------
// ChaseConfig + plan fingerprint
// ---------------------------------------------------------------------------

/// Encodes a chase configuration.
pub fn encode_config(enc: &mut Encoder, config: &ChaseConfig) {
    enc.u8(match config.strategy {
        ExistentialStrategy::Skolem => 0,
        ExistentialStrategy::Restricted => 1,
    });
    enc.varint(u64::from(config.max_null_depth));
    enc.varint(config.max_atoms as u64);
}

/// Decodes a chase configuration written by [`encode_config`].
pub fn decode_config(dec: &mut Decoder<'_>) -> Result<ChaseConfig> {
    let strategy = match dec.u8()? {
        0 => ExistentialStrategy::Skolem,
        1 => ExistentialStrategy::Restricted,
        _ => return Err(corrupt("unknown existential strategy")),
    };
    let max_null_depth =
        u32::try_from(dec.varint()?).map_err(|_| corrupt("max_null_depth overflow"))?;
    let max_atoms = usize::try_from(dec.varint()?).map_err(|_| corrupt("max_atoms overflow"))?;
    Ok(ChaseConfig {
        strategy,
        max_null_depth,
        max_atoms,
    })
}

/// The identity of a compiled plan: the program's canonical `Display`
/// text, its [`ChaseConfig`], and the FNV-1a fingerprint of both.
///
/// A view is Π(D), so this is the one identity a plan has: sessions key
/// their views by it, snapshots store the text and config it is made
/// of, and it survives restarts. It holds exactly what fixes Π(D): the
/// config carries no schedule or join order (`crate::schedule`), so a
/// view built under any schedule is found again under any other. Built
/// once per plan behind an [`Arc`]:
/// hashing writes the precomputed fingerprint, and equality is `Arc`'s —
/// a pointer compare or, failing that, fingerprint, text and config,
/// never a fingerprint match alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanKey(Arc<PlanKeyInner>);

#[derive(Debug, PartialEq, Eq)]
struct PlanKeyInner {
    fingerprint: u64,
    text: String,
    config: ChaseConfig,
}

impl PlanKey {
    /// The key of `program` compiled under `config`.
    pub fn new(program: &Program, config: &ChaseConfig) -> PlanKey {
        PlanKey::from_text(program.to_string(), *config)
    }

    fn from_text(text: String, config: ChaseConfig) -> PlanKey {
        let mut enc = Encoder::new();
        encode_config(&mut enc, &config);
        let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
        for byte in text.bytes().chain(enc.bytes().iter().copied()) {
            fingerprint ^= u64::from(byte);
            fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01B3);
        }
        PlanKey(Arc::new(PlanKeyInner {
            fingerprint,
            text,
            config,
        }))
    }

    /// The 64-bit digest of the key: a label for telemetry, and the
    /// order snapshots store views in. Not an identity.
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    /// The canonical program text.
    pub fn text(&self) -> &str {
        &self.0.text
    }
}

impl std::hash::Hash for PlanKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.fingerprint);
    }
}

/// The fingerprint of [`PlanKey::new`]`(program, config)`.
pub fn plan_fingerprint(program: &Program, config: &ChaseConfig) -> u64 {
    PlanKey::new(program, config).fingerprint()
}

// ---------------------------------------------------------------------------
// MaterializedView
// ---------------------------------------------------------------------------

/// Encodes a plan key: its program text and configuration.
pub fn encode_plan_key(enc: &mut Encoder, key: &PlanKey) {
    enc.str(key.text());
    encode_config(enc, &key.0.config);
}

/// Decodes a plan key written by [`encode_plan_key`].
pub fn decode_plan_key(dec: &mut Decoder<'_>) -> Result<PlanKey> {
    let text = dec.str()?.to_string();
    Ok(PlanKey::from_text(text, decode_config(dec)?))
}

/// Encodes a materialized view: program text, configuration,
/// inconsistency flag, the maintained instance and the skolem memo. The
/// base database is *not* included — it belongs to the session snapshot
/// (every view over one session shares it). Returns how the instance
/// was compacted on the way, if it was, which the views stacked on this
/// one are encoded through ([`encode_stacked_view`]).
pub fn encode_view(enc: &mut Encoder, view: &MaterializedView) -> Option<Renumbering> {
    encode_view_over(enc, view, None)
}

/// Encodes a stacked view like [`encode_view`]: its layer's program and
/// its own rows only. `base` is what encoding its base returned.
pub fn encode_stacked_view(enc: &mut Encoder, view: &MaterializedView, base: Option<&Renumbering>) {
    encode_view_over(enc, view, base);
}

fn encode_view_over(
    enc: &mut Encoder,
    view: &MaterializedView,
    base: Option<&Renumbering>,
) -> Option<Renumbering> {
    enc.str(&view.runner().program().to_string());
    encode_config(enc, &view.runner().config());
    enc.u8(u8::from(view.outcome().inconsistent));
    let renumbering = encode_instance_over(enc, &view.outcome().instance, base);
    match &renumbering {
        Some(own) => encode_memo(enc, &renumber_memo(view.skolem_ref(), own, base)),
        None => encode_memo(enc, view.skolem_ref()),
    }
    renumbering
}

/// Decodes a view written by [`encode_view`], re-attaching it to `base`
/// (the session database at the snapshot's version). The runner is
/// recompiled from the stored program text; reverse provenance and join
/// plans are rebuilt. Returns the view plus its [`PlanKey`], made of
/// the stored text and configuration.
pub fn decode_view(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    base: Database,
) -> Result<(MaterializedView, PlanKey)> {
    let (text, runner, inconsistent) = decode_runner(dec)?;
    let key = PlanKey::from_text(text, runner.config());
    let instance = decode_instance(dec, remap)?;
    let view = decode_view_state(dec, remap, runner, inconsistent, instance, base, None)?;
    Ok((view, key))
}

/// Decodes a view written by [`encode_stacked_view`] on top of `base`,
/// the view it was stacked on (decoded first), over the session
/// database `db`. Its key is that of `base`'s program and its own
/// together, under its configuration.
pub fn decode_stacked_view(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    db: &Database,
    base: &MaterializedView,
) -> Result<(MaterializedView, PlanKey)> {
    let (_, runner, inconsistent) = decode_runner(dec)?;
    let key = PlanKey::new(
        &base.runner().program().union(runner.program()),
        &runner.config(),
    );
    let instance = decode_instance_over(dec, remap, Some(base.instance()))?;
    let edb = db.select(runner.program().head_predicates());
    let view = decode_view_state(dec, remap, runner, inconsistent, instance, edb, Some(base))?;
    Ok((view, key))
}

/// The stored program text, compiled under the stored configuration,
/// plus the inconsistency flag that follows them.
fn decode_runner(dec: &mut Decoder<'_>) -> Result<(String, ChaseRunner, bool)> {
    let text = dec.str()?;
    let config = decode_config(dec)?;
    let program = parse_program(text)
        .map_err(|e| corrupt(&format!("stored program does not re-parse: {e}")))?;
    let runner = ChaseRunner::new(program, config)
        .map_err(|e| corrupt(&format!("stored program does not recompile: {e}")))?;
    let inconsistent = match dec.u8()? {
        0 => false,
        1 => true,
        _ => return Err(corrupt("bad inconsistency flag")),
    };
    Ok((text.to_string(), runner, inconsistent))
}

fn decode_view_state(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    runner: ChaseRunner,
    inconsistent: bool,
    instance: Instance,
    edb: Database,
    base: Option<&MaterializedView>,
) -> Result<MaterializedView> {
    let skolem = decode_memo(dec, remap)?;
    // The encoding carries the instance but not the facts the view was
    // chased over, and the caller re-attaches the *session* database —
    // which can be a strict subset of them (the demand rewrite chases
    // over `D ∪ {seed}`). Every underived fully-ground atom of the
    // instance is by construction an extensional input, so re-assert any
    // the database lacks: a later full-rebuild fallback must recompute
    // the same fixpoint.
    let mut edb = edb;
    for (id, atom) in instance.iter() {
        if instance.derivation(id).is_some() || !atom.is_fully_ground() {
            continue;
        }
        let args: Vec<Symbol> = atom.terms.iter().map(|t| t.as_const().unwrap()).collect();
        edb.add_row(atom.pred, &args);
    }
    let outcome = Arc::new(ChaseOutcome {
        instance,
        inconsistent,
        stats: ChaseStats::default(),
    });
    Ok(MaterializedView::restore(
        runner, edb, outcome, skolem, base,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_common::codec::encode_interner;
    use triq_common::Delta;

    fn remap_for(bytes: &[u8]) -> (SymbolRemap, usize) {
        let mut dec = Decoder::new(bytes);
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let consumed = bytes.len() - dec.remaining();
        (remap, consumed)
    }

    /// Encode with the interner table prefix, decode through the remap.
    fn round_trip_instance(inst: &Instance) -> Instance {
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_instance(&mut enc, inst);
        let bytes = enc.into_bytes();
        let (remap, consumed) = remap_for(&bytes);
        let mut dec = Decoder::new(&bytes[consumed..]);
        let out = decode_instance(&mut dec, &remap).unwrap();
        assert!(dec.is_exhausted());
        out
    }

    fn assert_instances_equal(a: &Instance, b: &Instance) {
        assert_eq!(a.live_len(), b.live_len());
        assert_eq!(b.dead_len(), 0, "decoded instances are dense");
        assert_eq!(a.null_count(), b.null_count());
        for (id, atom) in b.iter() {
            let orig = a.find(&atom).expect("decoded atom exists in original");
            assert_eq!(a.support(orig), b.support(id));
            assert_eq!(a.depth(orig), b.depth(id));
            assert_eq!(
                a.derivation(orig).is_some(),
                b.derivation(id).is_some(),
                "provenance presence preserved"
            );
        }
    }

    #[test]
    fn empty_instance_round_trips() {
        let inst = Instance::new();
        let out = round_trip_instance(&inst);
        assert!(out.is_empty());
    }

    #[test]
    fn facts_nulls_and_provenance_round_trip() {
        let mut inst = Instance::new();
        let a = inst.insert_fact("e", &["a", "b"]);
        let b = inst.insert_fact("e", &["b", "c"]);
        // A null at depth 1 and a derived atom mentioning it.
        let null = inst.fresh_null(1);
        let t = triq_common::intern("t");
        let key = [
            TermId::from_const(triq_common::intern("a")),
            TermId::from_null(null),
        ];
        let (d, fresh) = inst.insert_ids(
            t,
            &key,
            Some(Derivation {
                rule: 3,
                body: vec![a, b],
            }),
        );
        assert!(fresh);
        // Bump a support counter via a duplicate insert.
        inst.insert_fact("e", &["a", "b"]);
        assert_eq!(inst.support(a), 2);
        assert_eq!(inst.depth(d), 1);

        let out = round_trip_instance(&inst);
        assert_instances_equal(&inst, &out);
        let out_d = out.find_ids(t, &key).unwrap();
        assert_eq!(
            out.derivation(out_d).unwrap(),
            &Derivation {
                rule: 3,
                body: vec![a, b]
            }
        );
    }

    #[test]
    fn tombstoned_instances_are_compacted_on_encode() {
        let mut inst = Instance::new();
        let a = inst.insert_fact("p", &["x"]);
        inst.insert_fact("p", &["y"]);
        inst.insert_fact("q", &["x", "y"]);
        inst.tombstone(a);
        assert_eq!(inst.dead_len(), 1);
        let out = round_trip_instance(&inst);
        assert_eq!(out.live_len(), 2);
        assert_eq!(out.dead_len(), 0);
        assert_instances_equal(&inst, &out);
    }

    #[test]
    fn truncated_or_mangled_streams_error_cleanly() {
        let mut inst = Instance::new();
        inst.insert_fact("e", &["a", "b"]);
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_instance(&mut enc, &inst);
        let bytes = enc.into_bytes();
        let (remap, consumed) = remap_for(&bytes);
        for cut in [consumed, consumed + 1, bytes.len() - 1] {
            let mut dec = Decoder::new(&bytes[consumed..cut]);
            match decode_instance(&mut dec, &remap) {
                Ok(out) => assert!(out.is_empty(), "a prefix may decode as empty"),
                Err(e) => assert_eq!(e.code(), "E-PERSIST"),
            }
        }
    }

    #[test]
    fn config_round_trips_and_rejects_junk() {
        let custom = ChaseConfig {
            strategy: ExistentialStrategy::Restricted,
            max_null_depth: 3,
            max_atoms: 123,
        };
        for config in [ChaseConfig::default(), custom] {
            let mut enc = Encoder::new();
            encode_config(&mut enc, &config);
            let bytes = enc.into_bytes();
            assert_eq!(decode_config(&mut Decoder::new(&bytes)).unwrap(), config);
        }
        // Exactly the three fields: strategy, depth, budget.
        let mut enc = Encoder::new();
        encode_config(&mut enc, &custom);
        assert_eq!(enc.into_bytes(), [1, 3, 123]);
        assert_eq!(
            decode_config(&mut Decoder::new(&[9, 0, 0, 0]))
                .unwrap_err()
                .code(),
            "E-PERSIST"
        );
    }

    #[test]
    fn fingerprint_separates_programs_and_configs() {
        let p1 = parse_program("e(?X, ?Y) -> t(?X, ?Y).").unwrap();
        let p2 = parse_program("e(?X, ?Y) -> s(?X, ?Y).").unwrap();
        let c1 = ChaseConfig::default();
        let c2 = ChaseConfig {
            max_null_depth: 7,
            ..ChaseConfig::default()
        };
        assert_eq!(plan_fingerprint(&p1, &c1), plan_fingerprint(&p1, &c1));
        assert_ne!(plan_fingerprint(&p1, &c1), plan_fingerprint(&p2, &c1));
        assert_ne!(plan_fingerprint(&p1, &c1), plan_fingerprint(&p1, &c2));
    }

    #[test]
    fn colliding_fingerprints_are_still_two_plans() {
        // Keys with a forced fingerprint, as a crafted program text could
        // produce against 64-bit FNV.
        let forced = |text: &str| {
            PlanKey(Arc::new(PlanKeyInner {
                fingerprint: 7,
                text: text.to_string(),
                config: ChaseConfig::default(),
            }))
        };
        let a = forced("e(?X) -> t(?X).");
        let b = forced("e(?X) -> s(?X).");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b);
        let same_text = forced("e(?X) -> t(?X).");
        assert_eq!(a, same_text, "equality does not need a shared Arc");
        let table: std::collections::HashMap<PlanKey, u8> =
            [(a.clone(), 0), (b, 1), (same_text, 2)]
                .into_iter()
                .collect();
        assert_eq!(table.len(), 2);
        assert_eq!(table[&a], 2);
    }

    #[test]
    fn view_round_trips_and_keeps_maintaining() {
        let program = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
             t(?X, ?Y) -> ex(?X).\n ex(?X) -> exists ?N holder(?X, ?N).",
        )
        .unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut db = Database::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.add_fact("e", &[x, y]);
        }
        let mut view = MaterializedView::new(runner, db).unwrap();
        view.apply(&Delta::new().insert("e", &["d", "e"])).unwrap();

        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_view(&mut enc, &view);
        let bytes = enc.into_bytes();
        let (remap, consumed) = remap_for(&bytes);
        let mut dec = Decoder::new(&bytes[consumed..]);
        let (mut restored, key) = decode_view(&mut dec, &remap, view.database().clone()).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(
            key,
            PlanKey::new(view.runner().program(), &view.runner().config())
        );
        assert_instances_equal(view.instance(), restored.instance());

        // The restored view must keep maintaining incrementally and agree
        // with the original under the same mutations.
        let delta = Delta::new()
            .insert("e", &["e", "f"])
            .delete("e", &["a", "b"]);
        view.apply(&delta).unwrap();
        restored.apply(&delta).unwrap();
        assert_eq!(view.instance().live_len(), restored.instance().live_len());
        for (_, atom) in view.instance().iter() {
            if atom.is_fully_ground() {
                assert!(restored.instance().contains(&atom));
            }
        }
    }
}
