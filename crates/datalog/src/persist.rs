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
//!   deletions is streamed from its live rows through one
//!   [`Renumbering`] pass (`Instance::renumbering`): live atoms get
//!   dense ids, provenance is re-pointed, supports are kept, and only
//!   the nulls a live atom mentions are kept, renumbered with their
//!   depths (the memo and stacked views follow). No compacted copy is
//!   built, and the bytes are those [`Instance::compacted`]'s copy would
//!   encode to. The decoded instance is therefore always dense.
//! * **Indexes and statistics are rebuilt, not stored.** Decode adopts
//!   the columns and rebuilds each relation's dedup table (pre-sized),
//!   per-column posting lists and the insert-monotone
//!   [`triq_common::RelationStats`] in one pass over its rows, in insert
//!   order, so they come out as the original inserts left them (the
//!   sketches are deterministic functions of the insert sequence). The
//!   derivations go straight into the instance's arena. Joint indexes
//!   are planner-requested and rebuild lazily.
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
//!
//! A view's facts are not written apart from its instance: they are
//! its underived atoms plus the derived atoms whose tuple is also a
//! fact (see `crate::incremental`). Decode finds the latter from the
//! session database it is handed: it walks the database's facts of the
//! view's predicates (all of them, or a layer's own), looks each up in
//! the decoded instance and files the derived ones. A database fact the
//! instance lacks is `E-PERSIST`: the view could not be maintained over
//! that database.

use crate::chase::{ChaseOutcome, ChaseRunner, ChaseStats, SkolemMemo};
use crate::incremental::MaterializedView;
use crate::instance::{AtomId, Database, Derivations, Instance, Renumbering, BASE_ATOM};
use crate::parser::parse_program;
use crate::program::Program;
use crate::{ChaseConfig, ExistentialStrategy};
use std::collections::BTreeSet;
use std::sync::Arc;
use triq_common::codec::{Decoder, Encoder, SymbolRemap};
use triq_common::{Result, TermId, TriqError};

fn corrupt(what: &str) -> TriqError {
    TriqError::Persist(format!("corrupt snapshot: {what}"))
}

// ---------------------------------------------------------------------------
// Instance / Database
// ---------------------------------------------------------------------------

/// Encodes an instance. Tombstoned atoms are skipped and the live ones
/// renumbered on the way, so the byte stream (and the decoded instance)
/// is always dense.
pub fn encode_instance(enc: &mut Encoder, inst: &Instance) {
    let (own, _) = numbering(inst, None);
    write_instance(enc, inst, &own, None);
}

/// How `inst` is numbered in a snapshot, given how its base was (a
/// stacked view's): renumbered ([`Instance::renumbering`]) when it has
/// tombstones or its base was renumbered, else as it is, every null
/// kept. The flag says whether it was renumbered.
fn numbering(inst: &Instance, base: Option<&Renumbering>) -> (Renumbering, bool) {
    if inst.dead_len() > 0 || base.is_some() {
        (inst.renumbering(), true)
    } else {
        (inst.identity(), false)
    }
}

/// Writes the live rows of `inst` numbered by `own`: a stacked view's
/// provenance and the base nulls its rows carry go through `base`, how
/// its base was renumbered (as they are without one). Nothing is copied:
/// each column is streamed from its live rows.
fn write_instance(
    enc: &mut Encoder,
    inst: &Instance,
    own: &Renumbering,
    base: Option<&Renumbering>,
) {
    // Null invention depths (indexed by NullId) must precede the rows:
    // decode seeds them before re-inserting so each atom's depth is
    // recomputed exactly.
    enc.u32_words(own.null_count(), own.null_depths(inst));
    // Relation directory: predicate, arity, then the live rows of each
    // column in id order (tombstoned rows keep their slots).
    let rels = inst.relations_slice();
    enc.varint(own.relations().len() as u64);
    for &r in own.relations() {
        let rel = &rels[r as usize];
        enc.varint(u64::from(rel.pred().index()));
        enc.varint(rel.arity() as u64);
        for col in rel.columns() {
            let live = col
                .iter()
                .zip(rel.row_ids())
                .filter(|&(_, &id)| inst.is_live(id));
            enc.u32_words(rel.len(), live.map(|(&t, _)| own.term(t, base).raw()));
        }
    }
    // Atom directory in global id order: which relation the atom's row
    // lives in (rows are consumed in order per relation), its support
    // counter, and its provenance.
    enc.varint(inst.live_len() as u64);
    for id in (0..inst.len() as AtomId).filter(|&id| inst.is_live(id)) {
        enc.varint(u64::from(own.rel_index(inst.rel_index_of(id))));
        enc.varint(u64::from(inst.support(id)));
        match inst.provenance(id) {
            None => enc.u8(0),
            Some((rule, body)) => {
                enc.u8(1);
                enc.varint(rule as u64);
                enc.varint(body.len() as u64);
                for &b in body {
                    enc.varint(u64::from(own.body_atom(b, base)));
                }
            }
        }
    }
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
    let mut derivations = Derivations::default();
    let mut body: Vec<AtomId> = Vec::new();
    for id in 0..natoms {
        let rel_idx = dec.len_capped(nrels.saturating_sub(1))? as u32;
        let support =
            u32::try_from(dec.varint()?).map_err(|_| corrupt("support counter overflow"))?;
        let derived = match dec.u8()? {
            0 => false,
            1 => {
                let rule = dec.len_capped(u32::MAX as usize)?;
                let blen = dec.len_capped(dec.remaining())?;
                body.clear();
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
                derivations.push(rule, &body);
                true
            }
            _ => return Err(corrupt("bad derivation tag")),
        };
        directory.push((rel_idx, support, derived));
    }
    Instance::bulk_load(null_depths, rels, directory, derivations, base).map_err(corrupt)
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

/// Writes the memo entries whose nulls and frontier survive `own` (and
/// `base`, for a stacked view), renumbered.
fn encode_memo(
    enc: &mut Encoder,
    memo: &SkolemMemo,
    own: &Renumbering,
    base: Option<&Renumbering>,
) {
    let kept = |ts: &[TermId]| ts.iter().all(|&t| own.try_term(t, base).is_some());
    let mut entries: Vec<_> = memo
        .iter()
        .filter(|((_, frontier), nulls)| kept(frontier) && kept(nulls))
        .collect();
    // Canonical order: the memo is a hash map, the stream must not be.
    // Renumbering keeps the order of terms (constants stay, and each
    // null space keeps its order and its tag bits), so the old keys sort
    // as the new ones do.
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    enc.varint(entries.len() as u64);
    for ((rule, frontier), nulls) in entries {
        enc.varint(*rule as u64);
        enc.u32_slice(frontier.iter().map(|&t| own.term(t, base).raw()));
        enc.u32_slice(nulls.iter().map(|&t| own.term(t, base).raw()));
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
/// view's facts are its instance's underived atoms plus the derived
/// atoms that are also session facts, which decode finds again from
/// the session database ([`decode_view`]); nothing else of them is
/// written. Returns how the instance was renumbered on the way, if it
/// was, which the views stacked on this one are encoded through
/// ([`encode_stacked_view`]).
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
    let inst = &view.outcome().instance;
    let (own, renumbered) = numbering(inst, base);
    write_instance(enc, inst, &own, base);
    encode_memo(enc, view.skolem_ref(), &own, base);
    renumbered.then_some(own)
}

/// Decodes a view written by [`encode_view`] over `db`, the session
/// database at the snapshot's version: every fact of `db` must be in
/// the view's instance, and those it holds as derived atoms are filed
/// as derived facts. The runner is recompiled from the stored program
/// text; reverse provenance and join plans are rebuilt. Returns the
/// view plus its [`PlanKey`], made of the stored text and
/// configuration.
pub fn decode_view(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    db: &Database,
) -> Result<(MaterializedView, PlanKey)> {
    let (text, runner, inconsistent) = decode_runner(dec)?;
    let key = PlanKey::from_text(text, runner.config());
    let instance = decode_instance(dec, remap)?;
    let view = decode_view_state(dec, remap, runner, inconsistent, instance, db, None)?;
    Ok((view, key))
}

/// Decodes a view written by [`encode_stacked_view`] on top of `base`,
/// the view it was stacked on (decoded first), over the session
/// database `db`, whose facts of the predicates the layer derives must
/// be in its instance ([`decode_view`]). Its key is that of `base`'s
/// program and its own together, under its configuration.
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
    let view = decode_view_state(dec, remap, runner, inconsistent, instance, db, Some(base))?;
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
    db: &Database,
    base: Option<&MaterializedView>,
) -> Result<MaterializedView> {
    let skolem = decode_memo(dec, remap)?;
    // Maintenance reads a recorded derivation against its rule (DRed
    // re-binds the rule's body from it), so every derivation must name
    // a rule of the program and one body atom per positive subgoal.
    let compiled = runner.compiled();
    for id in 0..instance.len() as AtomId {
        if let Some((rule, body)) = instance.provenance(id) {
            match compiled.get(rule) {
                None => return Err(corrupt("derivation names an unknown rule")),
                Some(r) if r.body_pos.len() != body.len() => {
                    return Err(corrupt("derivation body does not fit its rule"))
                }
                Some(_) => {}
            }
        }
    }
    // The view's facts are its underived atoms and the derived atoms
    // that are also facts. The session facts of the view's predicates
    // (all of them, or a layer's own) must all be in the instance; the
    // derived ones among them are filed as such. An underived atom that
    // is no session fact (a demand seed) stays a fact of the view.
    let own = base.map(|_| runner.program().head_predicates());
    let mut derived_facts = BTreeSet::new();
    let mut key: Vec<TermId> = Vec::new();
    let facts = db.instance_ref();
    for rel in facts.relations() {
        if own.as_ref().is_some_and(|own| !own.contains(&rel.pred())) {
            continue;
        }
        for (row, &fact) in rel.row_ids().iter().enumerate() {
            if !facts.is_live(fact) {
                continue;
            }
            key.clear();
            key.extend(rel.row(row as u32));
            let Some(id) = instance.find_ids(rel.pred(), &key) else {
                return Err(corrupt("a database fact is missing from a view"));
            };
            if instance.provenance(id).is_some() {
                derived_facts.insert(id);
            }
        }
    }
    let outcome = Arc::new(ChaseOutcome {
        instance,
        inconsistent,
        stats: ChaseStats::default(),
    });
    Ok(MaterializedView::restore(
        runner,
        outcome,
        derived_facts,
        skolem,
        base,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Derivation;
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
            Derivation {
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
        let (mut restored, key) = decode_view(&mut dec, &remap, &view.database()).unwrap();
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

    /// Encodes `base` and `layer` (stacked on it) behind the interner
    /// table; returns the two views' stream and the decoded pair.
    fn round_trip_layered(
        base: &MaterializedView,
        layer: &MaterializedView,
        db: &Database,
    ) -> (Vec<u8>, MaterializedView, MaterializedView) {
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        let start = enc.len();
        let renumbering = encode_view(&mut enc, base);
        encode_stacked_view(&mut enc, layer, renumbering.as_ref());
        let bytes = enc.into_bytes();
        let (remap, consumed) = remap_for(&bytes);
        let mut dec = Decoder::new(&bytes[consumed..]);
        let (base, _) = decode_view(&mut dec, &remap, db).unwrap();
        let (layer, _) = decode_stacked_view(&mut dec, &remap, db, &base).unwrap();
        assert!(dec.is_exhausted());
        (bytes[start..].to_vec(), base, layer)
    }

    /// `view` with the memo entry of the existential trigger behind its
    /// dead `pred` atom put back: a memo naming a null that died, which
    /// the encoder must drop (maintenance forgets such entries itself).
    fn with_stale_entry(
        view: &MaterializedView,
        pred: &str,
        base: Option<&MaterializedView>,
    ) -> MaterializedView {
        let inst = view.instance();
        let dead = (0..inst.len() as AtomId)
            .find(|&id| !inst.is_live(id) && inst.pred_of(id) == triq_common::intern(pred))
            .unwrap();
        let key = inst.key_of(dead);
        let mut skolem = view.skolem_ref().clone();
        let rule = inst.derivation(dead).unwrap().rule;
        assert!(skolem
            .insert((rule, key[..1].into()), key[1..].to_vec())
            .is_none());
        MaterializedView::restore(
            view.runner().clone(),
            view.outcome().clone(),
            view.derived_facts().clone(),
            skolem,
            base,
        )
    }

    #[test]
    fn a_stacked_layer_over_a_tombstoned_base_streams_to_a_fixpoint() {
        // The base invents a null per `e` source; the layer carries those
        // base nulls in `l` and invents its own in `m`. Deleting `e(a, b)`
        // tombstones base atoms, killing the null of `a`, and the layer's
        // atoms built on them, killing the null it invented for it.
        let base_program =
            parse_program("e(?X, ?Y) -> exists ?N h(?X, ?N).\n e(?X, ?Y) -> t(?X, ?Y).").unwrap();
        let layer_program =
            parse_program("h(?X, ?N), t(?X, ?Y) -> l(?X, ?N).\n l(?X, ?N) -> exists ?M m(?N, ?M).")
                .unwrap();
        let config = ChaseConfig::default();
        let runner = |p: &Program| ChaseRunner::new(p.clone(), config).unwrap();
        let mut db = Database::new();
        for (x, y) in [("a", "b"), ("c", "d"), ("d", "e")] {
            db.add_fact("e", &[x, y]);
        }
        let mut base = MaterializedView::new(runner(&base_program), db.clone()).unwrap();
        let mut layer =
            MaterializedView::stacked(runner(&layer_program), Database::new(), &base).unwrap();
        let delete = Delta::new().delete("e", &["a", "b"]);
        base.apply(&delete).unwrap();
        layer.apply_over(&delete, &base).unwrap();
        db.remove_fact("e", &["a", "b"]);
        assert!(base.instance().dead_len() > 0 && layer.instance().dead_len() > 0);
        let base_nulls_in_layer = layer
            .instance()
            .iter()
            .flat_map(|(_, atom)| atom.terms.into_vec())
            .filter_map(|t| t.as_null())
            .any(|n| !layer.instance().owns_null(n));
        assert!(base_nulls_in_layer, "the layer carries the base's nulls");

        let mut base = with_stale_entry(&base, "h", None);
        let mut layer = with_stale_entry(&layer, "m", Some(&base));

        let (bytes, mut base2, mut layer2) = round_trip_layered(&base, &layer, &db);
        for (view, restored) in [(&base, &base2), (&layer, &layer2)] {
            let (kept, all) = (restored.skolem_ref().len(), view.skolem_ref().len());
            assert_eq!(kept + 1, all, "the dead null's entry is dropped");
        }
        let (again, _, _) = round_trip_layered(&base2, &layer2, &db);
        assert_eq!(bytes, again, "encode, decode, encode is a fixpoint");

        // The same answers, before and after one more write.
        let answers = |view: &MaterializedView| {
            let inst = view.instance();
            let mut ground: Vec<String> =
                inst.ground_part().iter().map(|a| a.to_string()).collect();
            ground.sort();
            (inst.live_len(), ground)
        };
        for delta in [Delta::new(), Delta::new().insert("e", &["a", "c"])] {
            base.apply(&delta).unwrap();
            layer.apply_over(&delta, &base).unwrap();
            base2.apply(&delta).unwrap();
            layer2.apply_over(&delta, &base2).unwrap();
            assert_eq!(answers(&base), answers(&base2), "{delta:?}");
            assert_eq!(answers(&layer), answers(&layer2), "{delta:?}");
        }
    }

    /// A Skolem view of `e(a)` under one existential rule, encoded
    /// behind the interner table: `e(a)` is atom 0 and `h(a, _)` atom 1,
    /// derived by rule 0 from atom 0.
    fn skolem_view_bytes() -> (Vec<u8>, Database) {
        let program = parse_program("e(?X) -> exists ?N h(?X, ?N).").unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut db = Database::new();
        db.add_fact("e", &["a"]);
        let view = MaterializedView::new(runner, db.clone()).unwrap();
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_view(&mut enc, &view);
        (enc.into_bytes(), db)
    }

    fn decode_view_bytes(bytes: &[u8], db: &Database) -> Result<MaterializedView> {
        let (remap, consumed) = remap_for(bytes);
        let mut dec = Decoder::new(&bytes[consumed..]);
        decode_view(&mut dec, &remap, db).map(|(view, _)| view)
    }

    #[test]
    fn a_derivation_naming_an_unknown_rule_is_rejected() {
        let (mut bytes, db) = skolem_view_bytes();
        // The atom directory: two atoms; `e(a)` (relation 0, support 1,
        // underived), then `h(a, _)` (relation 1, support 1, derived by
        // rule 0 from a body of one atom, atom 0).
        let directory = [2, 0, 1, 0, 1, 1, 1, 0, 1, 0];
        let at = bytes
            .windows(directory.len())
            .position(|w| w == directory)
            .expect("the directory is in the stream");
        assert!(decode_view_bytes(&bytes, &db).is_ok());
        // Rule 0 → 99: a program of one rule has no rule 99. Accepted,
        // the first delete killing `h(a, _)` would index rule 99.
        bytes[at + 7] = 99;
        let err = decode_view_bytes(&bytes, &db).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST", "{err}");
    }

    #[test]
    fn a_database_fact_missing_from_the_view_is_rejected() {
        let (bytes, mut db) = skolem_view_bytes();
        db.add_fact("e", &["b"]);
        // Accepted, the first delete of `e(b)` would find no atom.
        let err = decode_view_bytes(&bytes, &db).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST", "{err}");
    }

    #[test]
    fn a_fact_that_is_also_derived_survives_a_round_trip() {
        let program = parse_program("a(?X) -> r(?X).").unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut db = Database::new();
        db.add_fact("a", &["c"]);
        let mut view = MaterializedView::new(runner, db.clone()).unwrap();
        let insert = Delta::new().insert("r", &["c"]);
        view.apply(&insert).unwrap();
        db.add_fact("r", &["c"]);
        assert_eq!(view.derived_facts().len(), 1);

        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_view(&mut enc, &view);
        let mut restored = decode_view_bytes(&enc.into_bytes(), &db).unwrap();
        assert_eq!(restored.derived_facts(), view.derived_facts());
        let facts = |v: &MaterializedView| {
            let mut facts: Vec<String> = v.database().iter().map(|a| a.to_string()).collect();
            facts.sort();
            facts
        };
        assert_eq!(facts(&restored), ["a(c)", "r(c)"]);
        // Its only derivation goes: the fact survives; then it goes too.
        for (delta, want) in [
            (Delta::new().delete("a", &["c"]), &["r(c)"][..]),
            (Delta::new().delete("r", &["c"]), &[][..]),
        ] {
            view.apply(&delta).unwrap();
            restored.apply(&delta).unwrap();
            for v in [&view, &restored] {
                assert_eq!(facts(v), want, "{delta:?}");
                assert_eq!(v.instance().live_len(), want.len(), "{delta:?}");
            }
        }
    }

    #[test]
    fn a_derivation_whose_body_does_not_fit_its_rule_is_rejected() {
        // `h(a, _)` recorded with two body atoms for a one-atom body.
        let program = parse_program("e(?X) -> exists ?N h(?X, ?N).").unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut db = Database::new();
        db.add_fact("e", &["a"]);
        let mut instance = db.to_instance();
        let null = TermId::from_null(instance.fresh_null(1));
        let a = TermId::from_const(triq_common::intern("a"));
        let body = vec![0, 0];
        instance.insert_ids(
            triq_common::intern("h"),
            &[a, null],
            Some(Derivation { rule: 0, body }),
        );
        let outcome = Arc::new(ChaseOutcome {
            instance,
            inconsistent: false,
            stats: ChaseStats::default(),
        });
        let view = MaterializedView::restore(
            runner,
            outcome,
            Default::default(),
            Default::default(),
            None,
        );
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_view(&mut enc, &view);
        let err = decode_view_bytes(&enc.into_bytes(), &db).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST", "{err}");
    }

    #[test]
    fn a_layer_restored_over_a_top_base_tells_its_own_violations_apart() {
        // The base is ⊤ through `e(a, a)`. The layer's own constraint
        // fires through `stop(b)` in one session and not in the other,
        // which the snapshot's one ⊤ flag per view cannot say: a restored
        // layer must not trust its own constraints to hold.
        let base_program = parse_program("e(?X, ?Y) -> t(?X, ?Y).\n t(?X, ?X) -> false.").unwrap();
        let layer_program =
            parse_program("t(?X, ?Y) -> u(?X).\n u(?X), stop(?X) -> false.").unwrap();
        let union = base_program.union(&layer_program);
        let config = ChaseConfig::default();
        for own_fires in [false, true] {
            let mut db = Database::new();
            db.add_fact("e", &["a", "a"]);
            db.add_fact("e", &["b", "c"]);
            if own_fires {
                db.add_fact("stop", &["b"]);
            }
            let runner = |p: &Program| ChaseRunner::new(p.clone(), config).unwrap();
            let base = MaterializedView::new(runner(&base_program), db.clone()).unwrap();
            let layer =
                MaterializedView::stacked(runner(&layer_program), Database::new(), &base).unwrap();

            let mut enc = Encoder::new();
            encode_interner(&mut enc);
            let renumbering = encode_view(&mut enc, &base);
            encode_stacked_view(&mut enc, &layer, renumbering.as_ref());
            let bytes = enc.into_bytes();
            let (remap, consumed) = remap_for(&bytes);
            let mut dec = Decoder::new(&bytes[consumed..]);
            let (mut base, _) = decode_view(&mut dec, &remap, &db).unwrap();
            let (mut layer, _) = decode_stacked_view(&mut dec, &remap, &db, &base).unwrap();
            assert!(layer.outcome().inconsistent);

            // Repairing the base leaves the layer ⊤ exactly when its own
            // constraint fires; `stop(b)` then makes it fire either way.
            let steps = [
                (Delta::new().delete("e", &["a", "a"]), own_fires),
                (Delta::new().insert("stop", &["b"]), true),
            ];
            for (delta, top) in steps {
                base.apply(&delta).unwrap();
                layer.apply_over(&delta, &base).unwrap();
                let scratch = runner(&union).run(&base.database()).unwrap();
                assert_eq!(scratch.inconsistent, top, "{delta:?}");
                assert_eq!(layer.outcome().inconsistent, top, "{own_fires}: {delta:?}");
            }
        }
    }
}
