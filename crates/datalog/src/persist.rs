//! Binary snapshot codec for the chase state: columnar [`Instance`]s,
//! [`Database`]s, the skolem memo and whole [`MaterializedView`]s — and
//! the checkpoint segments that extend them.
//!
//! The encoding builds on the primitives in [`triq_common::codec`] and is
//! deterministic: a relation's `Vec<TermId>` columns are written as raw
//! little-endian `u32` slices (the "nearly verbatim" bulk path), and the
//! atom directory is written in global id order, so the same logical
//! state always produces the same bytes.
//!
//! What is — and is not — serialized:
//!
//! * **An instance is written verbatim.** Every row ever appended, dead
//!   or alive, keeps its atom id; every null keeps its index; the
//!   graveyard is written in the order the atoms died. Decode therefore
//!   rebuilds the very instance the writer held, so a later
//!   [segment](encode_view_segment) can name its atoms by id: a segment
//!   holds what an instance gained past an [`InstanceMark`] — the new
//!   nulls, the rows appended to each relation (new relations last), the
//!   new atoms' directory entries and derivations, and the graveyard's
//!   new entries — and decode appends it (`Instance::append`). Nothing
//!   written is ever rewritten: rows, nulls and provenance are
//!   append-only, and a tombstone is one more graveyard entry.
//! * **Indexes are rebuilt, not stored.** Decode adopts the columns and
//!   rebuilds each relation's dedup table (pre-sized) and per-column
//!   posting lists in one pass over its rows, in insert order, so they
//!   come out as the original inserts left them.
//! * **Symbols are snapshot-relative.** Every constant is an index into
//!   the snapshot's interner table; decode translates through a
//!   [`SymbolRemap`]. Labeled nulls are instance-local and pass through.
//! * **Ids in a segment are fixed-width.** A full snapshot writes atom
//!   ids as varints; a segment writes them as `u32` words, so the bytes a
//!   segment takes depend on what changed, not on how large the ids have
//!   grown.
//!
//! A [`MaterializedView`] snapshot additionally carries its program
//! *text* and [`ChaseConfig`], from which the view's compiled runner is
//! rebuilt (the program `Display` form round-trips through the parser —
//! pinned by the display-roundtrip tests). The pair is also the view's
//! [`PlanKey`], the identity a session files it under — before and after
//! a restart alike. A stacked view stores its layer's program and rows
//! only; it is decoded against its base view, and its key is that of the
//! two programs together. A view's segment holds its ⊤ flag, its
//! instance's segment and its skolem memo's edits since the checkpoint
//! that [marked](mark_view) it; it extends the view only within one id
//! space (a rebuild or a compaction issues ids afresh, and the view is
//! then written whole).
//!
//! A view's facts are not written apart from its instance: they are
//! its underived atoms plus the derived atoms whose tuple is also a
//! fact (see `crate::incremental`). Decode finds the latter from the
//! session database it is handed once the last segment is applied
//! ([`StoredView::restore`]): it walks the database's facts of the
//! view's predicates (all of them, or a layer's own), looks each up in
//! the decoded instance and files the derived ones. A database fact the
//! instance lacks is `E-PERSIST`: the view could not be maintained over
//! that database.

use crate::chase::{ChaseOutcome, ChaseRunner, ChaseStats, MemoKey, SkolemMemo};
use crate::incremental::MaterializedView;
use crate::instance::{AtomId, Database, Derivations, Instance, InstanceMark, Rows, BASE_ATOM};
use crate::parser::parse_served;
use crate::program::{Program, Unions};
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

/// How atom ids are written: varints in a full snapshot, `u32` words in
/// a segment.
#[derive(Clone, Copy)]
enum Ids {
    Varint,
    Fixed,
}

impl Ids {
    fn write(self, enc: &mut Encoder, id: AtomId) {
        match self {
            Ids::Varint => enc.varint(u64::from(id)),
            Ids::Fixed => enc.u32_fixed(id),
        }
    }

    fn read(self, dec: &mut Decoder<'_>) -> Result<AtomId> {
        match self {
            Ids::Varint => u32::try_from(dec.varint()?).map_err(|_| corrupt("atom id overflow")),
            Ids::Fixed => dec.u32_fixed(),
        }
    }
}

/// Encodes a whole instance, verbatim: tombstoned rows, nulls and the
/// graveyard included.
pub fn encode_instance(enc: &mut Encoder, inst: &Instance) {
    write_rows(enc, inst, InstanceMark::default(), Ids::Varint);
}

/// Writes what `inst` holds past `from`: the mark itself (which decode
/// checks against the instance it extends), the new nulls' depths,
/// every relation with the rows appended to it since, the new atoms'
/// directory — relation and provenance — and the graveyard's new
/// entries. Nothing is copied: each column is streamed from its rows.
fn write_rows(enc: &mut Encoder, inst: &Instance, from: InstanceMark, ids: Ids) {
    for word in [from.len, from.dead, from.nulls, from.rels] {
        enc.u32_fixed(word);
    }
    // Null invention depths precede the rows: decode seeds them before
    // it appends, so each atom's depth is recomputed exactly.
    let depths = &inst.null_depths()[from.nulls as usize..];
    enc.u32_words(depths.len(), depths.iter().copied());
    let rels = inst.relations_slice();
    enc.varint(rels.len() as u64);
    for rel in rels {
        enc.varint(u64::from(rel.pred().index()));
        enc.varint(rel.arity() as u64);
        let start = rel.row_ids().partition_point(|&id| id < from.len);
        for col in rel.columns() {
            let new = &col[start..];
            enc.u32_words(new.len(), new.iter().map(|t| t.raw()));
        }
    }
    // Atom directory in global id order: which relation the atom's row
    // lives in (rows are consumed in order per relation) and its
    // provenance.
    enc.varint(inst.len() as u64 - u64::from(from.len));
    for id in from.len..inst.len() as AtomId {
        enc.varint(u64::from(inst.rel_index_of(id)));
        match inst.provenance(id) {
            None => enc.u8(0),
            Some((rule, body)) => {
                enc.u8(1);
                enc.varint(rule as u64);
                enc.varint(body.len() as u64);
                for &b in body {
                    ids.write(enc, b);
                }
            }
        }
    }
    let dead = &inst.graveyard()[from.dead as usize..];
    enc.varint(dead.len() as u64);
    for &id in dead {
        ids.write(enc, id);
    }
}

/// Reads what [`write_rows`] wrote into `inst`, which must stand at the
/// mark the stream names, translating constants through `remap`. A
/// stacked view's own instance is read over `base`: its provenance may
/// name the base's atoms, and its rows carry the base's nulls.
fn read_rows(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    inst: &mut Instance,
    ids: Ids,
    base: Option<&Instance>,
) -> Result<()> {
    let mut mark = [0u32; 4];
    for word in &mut mark {
        *word = dec.u32_fixed()?;
    }
    let at = inst.mark();
    if mark != [at.len, at.dead, at.nulls, at.rels] {
        return Err(corrupt(
            "a segment does not extend the state it is applied to",
        ));
    }
    let null_depths = dec.u32_slice()?;
    let nrels = dec.len_capped(dec.remaining())?;
    let mut relations = Vec::with_capacity(nrels);
    for _ in 0..nrels {
        let pred = remap
            .symbol(u32::try_from(dec.varint()?).map_err(|_| corrupt("predicate id overflow"))?)?;
        let arity = dec.len_capped(u16::MAX as usize)?;
        let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let col: Result<Vec<TermId>> = dec
                .u32_slice()?
                .into_iter()
                .map(|w| remap.term(w))
                .collect();
            cols.push(col?);
        }
        relations.push((pred, arity, cols));
    }
    let natoms = dec.len_capped(dec.remaining())?;
    let mut directory = Vec::with_capacity(natoms);
    let mut derivations = Derivations::default();
    let mut body: Vec<AtomId> = Vec::new();
    for id in at.len as u64..at.len as u64 + natoms as u64 {
        let rel_idx = dec.len_capped(nrels.saturating_sub(1))? as u32;
        let derived = match dec.u8()? {
            0 => false,
            1 => {
                let rule = dec.len_capped(u32::MAX as usize)?;
                let blen = dec.len_capped(dec.remaining())?;
                body.clear();
                for _ in 0..blen {
                    let b = ids.read(dec)?;
                    let bound = match base {
                        Some(base) if b & BASE_ATOM != 0 => {
                            base.len() as u64 | u64::from(BASE_ATOM)
                        }
                        _ => id,
                    };
                    if u64::from(b) >= bound {
                        return Err(corrupt("provenance references a later atom"));
                    }
                    body.push(b);
                }
                derivations.push(rule, &body);
                true
            }
            _ => return Err(corrupt("bad derivation tag")),
        };
        directory.push((rel_idx, derived));
    }
    let ndead = dec.len_capped(dec.remaining())?;
    let graveyard = (0..ndead)
        .map(|_| ids.read(dec))
        .collect::<Result<Vec<AtomId>>>()?;
    let rows = Rows {
        null_depths,
        relations,
        directory,
        derivations,
        graveyard,
    };
    inst.append(rows, base).map_err(corrupt)
}

/// Decodes an instance written by [`encode_instance`], translating
/// constants through `remap`. The columns are adopted and the indexes,
/// sketches and depths rebuilt in pre-sized single passes
/// (`Instance::append`) — the state replaying every insert and
/// tombstone would produce, without the per-row hash-table growth.
pub fn decode_instance(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<Instance> {
    let mut inst = Instance::new();
    read_rows(dec, remap, &mut inst, Ids::Varint, None)?;
    Ok(inst)
}

/// Encodes a database verbatim, its removed facts' rows included.
pub fn encode_database(enc: &mut Encoder, db: &Database) {
    encode_instance(enc, db.instance_ref());
}

/// Decodes a database written by [`encode_database`].
pub fn decode_database(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<Database> {
    Ok(Database::from_instance(decode_instance(dec, remap)?))
}

/// Where a database stands now, for [`encode_database_segment`].
pub fn database_mark(db: &Database) -> InstanceMark {
    db.instance_ref().mark()
}

/// Encodes what `db` gained past `mark`: its added facts and the
/// removals since, by id. A database is never renumbered.
pub fn encode_database_segment(enc: &mut Encoder, db: &Database, mark: InstanceMark) {
    write_rows(enc, db.instance_ref(), mark, Ids::Fixed);
}

/// Applies a segment written by [`encode_database_segment`] to `db`,
/// which must stand where the segment's mark says.
pub fn apply_database_segment(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    db: &mut Database,
) -> Result<()> {
    read_rows(dec, remap, db.instance_mut(), Ids::Fixed, None)
}

// ---------------------------------------------------------------------------
// Skolem memo
// ---------------------------------------------------------------------------

fn write_key(enc: &mut Encoder, (rule, frontier): &MemoKey) {
    enc.varint(*rule as u64);
    enc.u32_slice(frontier.iter().map(|t| t.raw()));
}

fn read_key(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<MemoKey> {
    let rule = dec.len_capped(u32::MAX as usize)?;
    Ok((rule, read_terms(dec, remap)?.into_boxed_slice()))
}

fn read_terms(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<Vec<TermId>> {
    dec.u32_slice()?
        .into_iter()
        .map(|w| remap.term(w))
        .collect()
}

/// Writes every memo entry.
fn encode_memo(enc: &mut Encoder, memo: &SkolemMemo) {
    let mut entries: Vec<_> = memo.iter().collect();
    // Canonical order: the memo is a hash map, the stream must not be.
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    enc.varint(entries.len() as u64);
    for (key, nulls) in entries {
        write_key(enc, key);
        enc.u32_slice(nulls.iter().map(|t| t.raw()));
    }
}

fn decode_memo(dec: &mut Decoder<'_>, remap: &SymbolRemap) -> Result<SkolemMemo> {
    let n = dec.len_capped(dec.remaining())?;
    let mut memo = SkolemMemo::with_capacity(n);
    for _ in 0..n {
        let key = read_key(dec, remap)?;
        if memo.insert(key, read_terms(dec, remap)?).is_some() {
            return Err(corrupt("duplicate skolem memo key"));
        }
    }
    Ok(memo)
}

/// Writes memo edits in order: an insert with its nulls, a removal
/// without.
fn encode_memo_edits(enc: &mut Encoder, edits: &[(MemoKey, Option<Vec<TermId>>)]) {
    enc.varint(edits.len() as u64);
    for (key, nulls) in edits {
        enc.u8(u8::from(nulls.is_some()));
        write_key(enc, key);
        if let Some(nulls) = nulls {
            enc.u32_slice(nulls.iter().map(|t| t.raw()));
        }
    }
}

/// Replays edits written by [`encode_memo_edits`]: an insert must be
/// of a key the memo lacks, a removal of one it holds.
fn apply_memo_edits(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    memo: &mut SkolemMemo,
) -> Result<()> {
    let n = dec.len_capped(dec.remaining())?;
    for _ in 0..n {
        let insert = match dec.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bad memo edit tag")),
        };
        let key = read_key(dec, remap)?;
        let fits = if insert {
            memo.insert(key, read_terms(dec, remap)?).is_none()
        } else {
            memo.remove(&key).is_some()
        };
        if !fits {
            return Err(corrupt("a memo edit does not fit the memo"));
        }
    }
    Ok(())
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
/// of, and it survives restarts. It holds exactly what fixes Π(D).
/// Built once per plan behind an [`Arc`]:
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

    /// The key of `program` serving `unions` under `config`: its served
    /// text ([`ChaseRunner::text`]).
    pub fn served(program: &Program, unions: &Unions, config: &ChaseConfig) -> PlanKey {
        PlanKey::from_text(format!("{program}{unions}"), *config)
    }

    /// The key of what `runner` chases.
    pub fn of(runner: &ChaseRunner) -> PlanKey {
        PlanKey::from_text(runner.text(), runner.config())
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

/// Encodes a whole materialized view — chased alone, a base, or stacked
/// on one (then its layer's program and own rows only): program text,
/// configuration, inconsistency flag, the maintained instance and the
/// skolem memo. The view's facts are its instance's underived atoms
/// plus the derived atoms that are also session facts, which decode
/// finds again from the session database ([`StoredView::restore`]);
/// nothing else of them is written.
pub fn encode_view(enc: &mut Encoder, view: &MaterializedView) {
    enc.str(&view.runner().text());
    encode_config(enc, &view.runner().config());
    enc.u8(u8::from(view.outcome().inconsistent));
    encode_instance(enc, view.instance());
    encode_memo(enc, view.skolem_ref());
}

/// Where a checkpoint left a view: its id space and how far its
/// instance reached. The next checkpoint extends the view by a segment
/// against it ([`encode_view_segment`]) while the view stays in that id
/// space, and writes it whole otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewMark {
    generation: u64,
    instance: InstanceMark,
}

/// Marks `view` as written by a checkpoint now: returns its mark and
/// has its skolem memo record its edits from here on.
pub fn mark_view(view: &mut MaterializedView) -> ViewMark {
    view.skolem_mut().track();
    ViewMark {
        generation: view.generation(),
        instance: view.instance().mark(),
    }
}

/// Whether a segment against `mark` can extend `view`: it still lives
/// in the id space `mark` was taken in, with the memo that records its
/// edits since.
pub fn extends(view: &MaterializedView, mark: &ViewMark) -> bool {
    view.generation() == mark.generation && view.skolem_ref().tracks()
}

/// Encodes what `view` gained past `mark` — its ⊤ flag, its instance's
/// segment and its skolem memo's edits — and marks it anew. `view` must
/// still be in `mark`'s id space ([`extends`]).
pub fn encode_view_segment(
    enc: &mut Encoder,
    view: &mut MaterializedView,
    mark: &ViewMark,
) -> ViewMark {
    debug_assert!(extends(view, mark));
    enc.u8(u8::from(view.outcome().inconsistent));
    write_rows(enc, view.instance(), mark.instance, Ids::Fixed);
    let edits = view.skolem_mut().take_edits().unwrap_or_default();
    encode_memo_edits(enc, &edits);
    mark_view(view)
}

/// A view as a snapshot and its segments hold it, before it is filed:
/// its key, compiled runner, ⊤ flag, instance and skolem memo.
/// [`StoredView::restore`] turns it into a [`MaterializedView`] once the
/// last segment is applied.
pub struct StoredView {
    key: PlanKey,
    runner: ChaseRunner,
    inconsistent: bool,
    instance: Instance,
    memo: SkolemMemo,
}

impl StoredView {
    /// Decodes a view written by [`encode_view`]. A stacked view is
    /// decoded over `base`, its base's runner and instance: its key is
    /// that of the two programs together, serving the base's unions,
    /// under its configuration.
    pub fn decode(
        dec: &mut Decoder<'_>,
        remap: &SymbolRemap,
        base: Option<(&ChaseRunner, &Instance)>,
    ) -> Result<StoredView> {
        let text = dec.str()?;
        let config = decode_config(dec)?;
        let (program, unions) = parse_served(text)
            .map_err(|e| corrupt(&format!("stored program does not re-parse: {e}")))?;
        let key = match base {
            None => PlanKey::from_text(text.to_string(), config),
            Some((base, _)) => {
                PlanKey::served(&base.program().union(&program), base.unions(), &config)
            }
        };
        let runner = ChaseRunner::with_unions(program, unions, config)
            .map_err(|e| corrupt(&format!("stored program does not recompile: {e}")))?;
        let inconsistent = read_flag(dec)?;
        let mut instance = match base {
            None => Instance::new(),
            Some(_) => Instance::stacked(),
        };
        read_rows(
            dec,
            remap,
            &mut instance,
            Ids::Varint,
            base.map(|(_, inst)| inst),
        )?;
        let memo = decode_memo(dec, remap)?;
        Ok(StoredView {
            key,
            runner,
            inconsistent,
            instance,
            memo,
        })
    }

    /// The key the view is filed under.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The runner the view is maintained by.
    pub fn runner(&self) -> &ChaseRunner {
        &self.runner
    }

    /// The view's instance as decoded so far.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Applies a segment written by [`encode_view_segment`]; a stacked
    /// view's is read over `base`, its base's instance with the same
    /// checkpoint's segment applied.
    pub fn apply_segment(
        &mut self,
        dec: &mut Decoder<'_>,
        remap: &SymbolRemap,
        base: Option<&Instance>,
    ) -> Result<()> {
        self.inconsistent = read_flag(dec)?;
        read_rows(dec, remap, &mut self.instance, Ids::Fixed, base)?;
        apply_memo_edits(dec, remap, &mut self.memo)
    }

    /// The view, over `db`, the session database at the version the
    /// last applied segment reached, and over `base` when stacked
    /// (restored first). Every derivation must name a rule of the
    /// program with one body atom per positive subgoal; every fact of
    /// `db` must be in the view's instance, and those it holds as
    /// derived atoms are filed as derived facts. Reverse provenance and
    /// join plans are rebuilt.
    pub fn restore(
        self,
        db: &Database,
        base: Option<&MaterializedView>,
    ) -> Result<MaterializedView> {
        let StoredView {
            runner,
            inconsistent,
            instance,
            memo,
            ..
        } = self;
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
            memo,
            base,
        ))
    }
}

fn read_flag(dec: &mut Decoder<'_>) -> Result<bool> {
    match dec.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt("bad inconsistency flag")),
    }
}

/// Decodes a view written by [`encode_view`] over `db`, the session
/// database at the snapshot's version ([`StoredView::restore`]).
/// Returns the view plus its [`PlanKey`], made of the stored text and
/// configuration.
pub fn decode_view(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    db: &Database,
) -> Result<(MaterializedView, PlanKey)> {
    let stored = StoredView::decode(dec, remap, None)?;
    let key = stored.key.clone();
    Ok((stored.restore(db, None)?, key))
}

/// Decodes a stacked view written by [`encode_view`] on top of `base`,
/// the view it was stacked on (decoded first), over the session
/// database `db`. Its key is that of `base`'s program and its own
/// together, under its configuration.
pub fn decode_stacked_view(
    dec: &mut Decoder<'_>,
    remap: &SymbolRemap,
    db: &Database,
    base: &MaterializedView,
) -> Result<(MaterializedView, PlanKey)> {
    let over = (base.runner(), base.instance());
    let stored = StoredView::decode(dec, remap, Some(over))?;
    let key = stored.key.clone();
    Ok((stored.restore(db, Some(base))?, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Derivation;
    use crate::parse_program;
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

    /// `b` is `a` verbatim: the same atoms under the same ids, dead or
    /// alive, the same nulls, derivations and graveyard.
    fn assert_instances_equal(a: &Instance, b: &Instance) {
        assert_eq!(a.mark(), b.mark());
        assert_eq!(a.graveyard(), b.graveyard());
        assert_eq!(a.null_depths(), b.null_depths());
        for id in 0..a.len() as AtomId {
            assert_eq!(a.atom(id), b.atom(id));
            assert_eq!(a.is_live(id), b.is_live(id));
            assert_eq!(a.depth(id), b.depth(id));
            assert_eq!(a.derivation(id), b.derivation(id));
        }
        for (_, atom) in a.iter() {
            assert_eq!(a.find(&atom), b.find(&atom), "{atom} is found alike");
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
    fn tombstoned_instances_round_trip_verbatim() {
        let mut inst = Instance::new();
        let a = inst.insert_fact("p", &["x"]);
        inst.insert_fact("p", &["y"]);
        let q = inst.insert_fact("q", &["x", "y"]);
        inst.tombstone(q);
        inst.tombstone(a);
        // The dead tuple again, under a new id.
        inst.insert_fact("p", &["x"]);
        let out = round_trip_instance(&inst);
        assert_eq!((out.live_len(), out.dead_len()), (2, 2));
        assert_instances_equal(&inst, &out);
    }

    /// A segment appended to the decoded state at a mark is the state
    /// the writer reached: rows appended, old and new atoms tombstoned,
    /// a dead tuple re-inserted, a new relation and new nulls.
    #[test]
    fn a_segment_extends_a_decoded_instance_to_the_writers() {
        let mut inst = Instance::new();
        let a = inst.insert_fact("p", &["x"]);
        inst.insert_fact("p", &["y"]);
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_instance(&mut enc, &inst);
        let mark = inst.mark();

        let b = inst.insert_fact("p", &["z"]);
        inst.tombstone(a);
        inst.insert_fact("p", &["x"]);
        let null = TermId::from_null(inst.fresh_null(1));
        let z = TermId::from_const(triq_common::intern("z"));
        let derivation = Derivation {
            rule: 0,
            body: vec![b],
        };
        let (h, _) = inst.insert_ids(triq_common::intern("h"), &[z, null], Some(derivation));
        inst.tombstone(b);
        inst.tombstone(h);
        encode_interner(&mut enc);
        write_rows(&mut enc, &inst, mark, Ids::Fixed);

        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let mut out = decode_instance(&mut dec, &remap).unwrap();
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        read_rows(&mut dec, &remap, &mut out, Ids::Fixed, None).unwrap();
        assert!(dec.is_exhausted());
        assert_instances_equal(&inst, &out);
        // Applied to a state it does not extend, it is refused.
        let mut dec = Decoder::new(&bytes);
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let mut wrong = Instance::new();
        wrong.insert_fact("p", &["x"]);
        decode_instance(&mut dec, &remap).unwrap();
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let err = read_rows(&mut dec, &remap, &mut wrong, Ids::Fixed, None).unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
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
        encode_view(&mut enc, base);
        encode_view(&mut enc, layer);
        let bytes = enc.into_bytes();
        let (remap, consumed) = remap_for(&bytes);
        let mut dec = Decoder::new(&bytes[consumed..]);
        let (base, _) = decode_view(&mut dec, &remap, db).unwrap();
        let (layer, _) = decode_stacked_view(&mut dec, &remap, db, &base).unwrap();
        assert!(dec.is_exhausted());
        (bytes[start..].to_vec(), base, layer)
    }

    /// `view` with the memo entry of the existential trigger behind its
    /// dead `pred` atom put back: a memo naming a null that died (which
    /// maintenance forgets itself), which a snapshot keeps as it is.
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
    fn a_stacked_layer_over_a_tombstoned_base_round_trips_verbatim() {
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
            assert_instances_equal(view.instance(), restored.instance());
            let memo = |v: &MaterializedView| {
                let mut entries: Vec<_> = v
                    .skolem_ref()
                    .iter()
                    .map(|(k, n)| (k.clone(), n.clone()))
                    .collect();
                entries.sort();
                entries
            };
            assert_eq!(memo(view), memo(restored), "the memo is kept as it is");
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
        // The atom directory: two atoms; `e(a)` (relation 0, underived),
        // then `h(a, _)` (relation 1, derived by rule 0 from a body of
        // one atom, atom 0); then an empty graveyard.
        let directory = [2, 0, 0, 1, 1, 0, 1, 0, 0];
        let at = bytes
            .windows(directory.len())
            .position(|w| w == directory)
            .expect("the directory is in the stream");
        assert!(decode_view_bytes(&bytes, &db).is_ok());
        // Rule 0 → 99: a program of one rule has no rule 99. Accepted,
        // the first delete killing `h(a, _)` would index rule 99.
        bytes[at + 5] = 99;
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
            encode_view(&mut enc, &base);
            encode_view(&mut enc, &layer);
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
