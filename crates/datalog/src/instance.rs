//! Instances and databases (§3.2) with provenance and join indexes.
//!
//! An *instance* is a set of atoms over constants and labeled nulls; a
//! *database* is a finite instance over constants only. [`Instance`] is a
//! **columnar, fully interned relation store**: each predicate (at each
//! arity) owns a [`Relation`] holding its tuples as per-column
//! `Vec<TermId>` plus incremental per-column hash indexes, and every atom
//! still gets a stable [`AtomId`] in global insertion order — the
//! semi-naive chase uses those ids for delta windows and the proof-tree
//! machinery uses them for provenance, exactly as with the old row store.
//!
//! Membership probes are *borrowed-key*: [`Instance::find_terms`] /
//! [`Instance::contains_ids`] hash the candidate tuple in place and
//! compare column-wise, so the chase's innermost loops allocate nothing
//! (see `tests/probe_alloc.rs` for the enforced guarantee).

use crate::Atom;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use triq_common::{NullId, RelationStats, Result, Symbol, Term, TermId, TriqError};

// ---------------------------------------------------------------------------
// Hashing: the store's keys are small integers (TermId / Symbol / packed
// tuple hashes), where SipHash is pure overhead on the chase hot path.
// ---------------------------------------------------------------------------

/// Fx-style (firefox/rustc) multiply-xor hasher: excellent dispersion for
/// word-sized integer keys at a fraction of SipHash's cost. DoS hardening
/// is irrelevant here — keys are interner indexes, not attacker strings.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// Incremental Fx hash of an encoded tuple (length-mixed so prefixes of
/// longer tuples do not collide trivially).
#[inline]
fn tuple_hash(key: impl Iterator<Item = TermId>) -> u64 {
    let mut h = FxHasher::default();
    let mut len = 0u64;
    for t in key {
        h.add(t.raw() as u64);
        len += 1;
    }
    h.add(len);
    h.finish()
}

/// Stable identifier of an atom within an [`Instance`] (insertion order).
pub type AtomId = u32;

/// A variable-free atom as a value (decoded row of a [`Relation`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: Symbol,
    /// The argument tuple (constants and nulls only).
    pub terms: Box<[Term]>,
}

impl GroundAtom {
    /// Builds a ground atom, checking the no-variables invariant.
    pub fn new(pred: Symbol, terms: Box<[Term]>) -> Self {
        debug_assert!(terms.iter().all(|t| !t.is_var()));
        GroundAtom { pred, terms }
    }

    /// True iff the atom mentions only constants (`dom(a) ⊂ U`).
    pub fn is_fully_ground(&self) -> bool {
        self.terms.iter().all(|t| t.is_const())
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// Provenance of a derived atom: which rule fired on which body atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the rule in the evaluated program.
    pub rule: usize,
    /// The matched positive body atoms, in body order.
    pub body: Vec<AtomId>,
}

/// Directory entry: where an atom's row lives, plus provenance.
#[derive(Clone)]
struct Meta {
    rel: u32,
    row: u32,
    derivation: Option<Derivation>,
    /// 0 for database atoms and null-free derived atoms; otherwise
    /// the maximum invention depth of the nulls mentioned.
    depth: u32,
    /// Times this tuple was (re-)asserted: 1 at first insert, +1 per
    /// duplicate insertion attempt (another rule application deriving the
    /// same tuple, or a redundant database add). A diagnostic *upper
    /// bound* on the number of distinct supports — the exact count is
    /// schedule-dependent — used by the incremental subsystem's stats.
    support: u32,
    /// Tombstone: the atom was deleted. Dead atoms keep their id and row
    /// (ids are never reused) but are removed from every index, so joins,
    /// membership probes and iteration no longer see them.
    dead: bool,
}

/// An on-demand hash index over a *subset* of a relation's columns: the
/// encoded values at `cols` hash to the ascending [`AtomId`]s of the rows
/// holding them. The join planner requests one for probe positions whose
/// single-column posting lists have high expected fanout; the probe then
/// lands on the (near-)exact candidate set in one hash lookup instead of
/// scanning the shortest posting list. Collisions are harmless — the join
/// loop verifies every column of every candidate anyway.
#[derive(Clone, Debug)]
struct JointIndex {
    /// Indexed columns, ascending.
    cols: Box<[u8]>,
    /// Hash of the values at `cols` → ascending ids of matching rows.
    map: FxHashMap<u64, Vec<AtomId>>,
}

impl JointIndex {
    #[inline]
    fn key_hash(&self, rel: &Relation, row: u32) -> u64 {
        tuple_hash(
            self.cols
                .iter()
                .map(|&c| rel.cols[c as usize][row as usize]),
        )
    }
}

/// Most joint indexes a relation keeps at once. A request beyond the cap
/// is *refused* (the probe falls back to the per-column path) rather than
/// evicting: eviction would let three wanted column sets rebuild an
/// O(rows) index at every stratum entry, churning forever. Tombstones
/// clear all indexes anyway, so the winners re-race after any deletion.
const MAX_JOINT_INDEXES: usize = 2;

/// Columnar storage of one predicate at one arity.
///
/// Tuples are stored column-major (`cols[c][row]`), deduplicated through a
/// tuple-hash table, and indexed per column (`value → ascending AtomIds`).
/// Rows are append-only, so both `atom_ids` and every posting list stay
/// sorted — the chase's delta windows restrict them by binary search.
#[derive(Clone)]
pub struct Relation {
    pred: Symbol,
    arity: usize,
    cols: Vec<Vec<TermId>>,
    /// Live rows' global [`AtomId`]s (ascending). Tombstoned rows are
    /// removed, so this is the *live* extent, not the row count.
    atom_ids: Vec<AtomId>,
    /// Row → global [`AtomId`], for **all** rows ever stored (tombstoned
    /// rows keep their entry; they are unreachable through the indexes).
    row_id: Vec<AtomId>,
    /// Tuple hash → candidate rows (collisions resolved column-wise).
    row_lookup: FxHashMap<u64, Vec<u32>>,
    /// Per column: value → atoms holding it there (ascending ids).
    col_index: Vec<FxHashMap<TermId, Vec<AtomId>>>,
    /// Planner-requested multi-column hash indexes (built lazily,
    /// maintained on insert, **invalidated wholesale by tombstones** —
    /// correctness never depends on them, so deletion-heavy phases simply
    /// drop them and the planner rebuilds on its next request).
    joint: Vec<JointIndex>,
    /// Insert-monotone planner statistics (row inserts, per-column
    /// distinct-count sketches and value ranges).
    stats: RelationStats,
}

impl Relation {
    fn new(pred: Symbol, arity: usize) -> Relation {
        Relation {
            pred,
            arity,
            cols: vec![Vec::new(); arity],
            atom_ids: Vec::new(),
            row_id: Vec::new(),
            row_lookup: FxHashMap::default(),
            col_index: vec![FxHashMap::default(); arity],
            joint: Vec::new(),
            stats: RelationStats::new(arity),
        }
    }

    /// The predicate.
    pub fn pred(&self) -> Symbol {
        self.pred
    }

    /// The raw column vectors (persistence codec bulk path).
    pub(crate) fn columns(&self) -> &[Vec<TermId>] {
        &self.cols
    }

    /// The tuple width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.atom_ids.len()
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.atom_ids.is_empty()
    }

    /// The value at (`column`, `row`).
    #[inline]
    pub fn value(&self, column: usize, row: u32) -> TermId {
        self.cols[column][row as usize]
    }

    /// Global ids of all tuples, ascending.
    #[inline]
    pub fn atom_ids(&self) -> &[AtomId] {
        &self.atom_ids
    }

    /// Ids of tuples with `value` at `column`, ascending.
    #[inline]
    pub fn ids_by_column(&self, column: usize, value: TermId) -> &[AtomId] {
        self.col_index[column]
            .get(&value)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The relation's insert-monotone planner statistics.
    #[inline]
    pub fn stats(&self) -> &RelationStats {
        &self.stats
    }

    /// One raw column as a contiguous slice — the surface the
    /// [`crate::kernels`] filters scan. Includes tombstoned rows, so
    /// row-range kernel scans must first check [`Relation::is_dense`].
    #[inline]
    pub(crate) fn col(&self, column: usize) -> &[TermId] {
        &self.cols[column]
    }

    /// Row → global [`AtomId`] for every row ever stored, ascending
    /// (rows append in id order). The inverse of [`Instance::row_of`],
    /// as a slice — what maps a kernel selection back to ids.
    #[inline]
    pub(crate) fn row_ids(&self) -> &[AtomId] {
        &self.row_id
    }

    /// True iff every stored row is live (no tombstones): the live
    /// extent and the row space coincide, so an [`AtomId`] range maps to
    /// a contiguous **row** range and a column slice over it contains
    /// only live tuples — the precondition for the vectorized row-window
    /// scans in the chase. Instances mid-deletion are not dense and fall
    /// back to the posting-list path.
    #[inline]
    pub(crate) fn is_dense(&self) -> bool {
        self.atom_ids.len() == self.row_id.len()
    }

    /// True iff a joint hash index over exactly `cols` (ascending) is
    /// currently built.
    #[inline]
    pub fn has_joint_index(&self, cols: &[u8]) -> bool {
        self.joint.iter().any(|j| *j.cols == *cols)
    }

    /// Probes the joint index over `cols` with the given values
    /// (column-aligned with `cols`). Returns the ascending candidate ids
    /// — possibly with hash-collision strays, which callers filter by
    /// comparing columns — or `None` when no such index is built. Never
    /// allocates.
    #[inline]
    pub fn joint_ids(
        &self,
        cols: &[u8],
        values: impl Iterator<Item = TermId>,
    ) -> Option<&[AtomId]> {
        let idx = self.joint.iter().find(|j| *j.cols == *cols)?;
        let hash = tuple_hash(values);
        Some(idx.map.get(&hash).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Builds (or re-builds after invalidation) the joint hash index over
    /// `cols`, walking the live rows once. Returns `false` when the index
    /// already exists — or when the relation is at the
    /// [`MAX_JOINT_INDEXES`] cap (the probe then falls back to the
    /// per-column path; refusing beats evict-and-rebuild churn).
    fn build_joint_index(&mut self, cols: &[u8]) -> bool {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols ascending");
        debug_assert!(cols.iter().all(|&c| (c as usize) < self.arity));
        if self.has_joint_index(cols) || self.joint.len() >= MAX_JOINT_INDEXES {
            return false;
        }
        let mut idx = JointIndex {
            cols: cols.into(),
            map: FxHashMap::default(),
        };
        // `row_id` and `atom_ids` are both ascending; merge-walk them to
        // visit exactly the live rows in O(rows).
        let mut live = self.atom_ids.iter().copied().peekable();
        for (row, &id) in self.row_id.iter().enumerate() {
            while live.peek().is_some_and(|&l| l < id) {
                live.next();
            }
            if live.peek() == Some(&id) {
                let hash = idx.key_hash(self, row as u32);
                idx.map.entry(hash).or_default().push(id);
            }
        }
        self.joint.push(idx);
        true
    }

    /// Borrowed-key point lookup: the row equal to `key`, if any.
    #[inline]
    pub fn find_row(&self, key: &[TermId]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.arity);
        let hash = tuple_hash(key.iter().copied());
        let candidates = self.row_lookup.get(&hash)?;
        candidates
            .iter()
            .copied()
            .find(|&row| (0..self.arity).all(|c| self.cols[c][row as usize] == key[c]))
    }

    /// Point lookup *or* append in one pass — the tuple is hashed exactly
    /// once. Returns `(row, inserted)`; `id` is the [`AtomId`] the row
    /// gets if it is new.
    fn find_or_push(&mut self, key: &[TermId], id: AtomId) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.arity);
        let hash = tuple_hash(key.iter().copied());
        let rows = self.row_lookup.entry(hash).or_default();
        for &row in rows.iter() {
            if key
                .iter()
                .enumerate()
                .all(|(c, &t)| self.cols[c][row as usize] == t)
            {
                return (row, false);
            }
        }
        let row = self.row_id.len() as u32;
        rows.push(row);
        for (c, &t) in key.iter().enumerate() {
            self.cols[c].push(t);
            self.col_index[c].entry(t).or_default().push(id);
        }
        self.atom_ids.push(id);
        self.row_id.push(id);
        self.stats.observe_row(key.iter().map(|t| t.raw()));
        for idx in &mut self.joint {
            let hash = tuple_hash(idx.cols.iter().map(|&c| key[c as usize]));
            idx.map.entry(hash).or_default().push(id);
        }
        (row, true)
    }

    /// Bulk construction from complete columns (persistence decode):
    /// the column vectors are adopted verbatim, `row_ids[row]` is each
    /// row's global [`AtomId`], and the dedup table, posting lists and
    /// stats are rebuilt in one pre-sized pass over the rows — in row
    /// order, which is the original insert order, so the insert-monotone
    /// sketches come out identical. Fails on duplicate rows.
    fn from_columns(
        pred: Symbol,
        arity: usize,
        cols: Vec<Vec<TermId>>,
        row_ids: Vec<AtomId>,
    ) -> std::result::Result<Relation, &'static str> {
        let rows = row_ids.len();
        let mut row_lookup: FxHashMap<u64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(rows, Default::default());
        let mut col_index: Vec<FxHashMap<TermId, Vec<AtomId>>> = vec![FxHashMap::default(); arity];
        let mut stats = RelationStats::new(arity);
        let mut key: Vec<TermId> = Vec::with_capacity(arity);
        for row in 0..rows {
            key.clear();
            key.extend(cols.iter().map(|col| col[row]));
            let hash = tuple_hash(key.iter().copied());
            let candidates = row_lookup.entry(hash).or_default();
            if candidates.iter().any(|&r| {
                key.iter()
                    .enumerate()
                    .all(|(c, &t)| cols[c][r as usize] == t)
            }) {
                return Err("duplicate row in relation");
            }
            candidates.push(row as u32);
            let id = row_ids[row];
            for (c, &t) in key.iter().enumerate() {
                col_index[c].entry(t).or_default().push(id);
            }
            stats.observe_row(key.iter().map(|t| t.raw()));
        }
        Ok(Relation {
            pred,
            arity,
            cols,
            atom_ids: row_ids.clone(),
            row_id: row_ids,
            row_lookup,
            col_index,
            joint: Vec::new(),
            stats,
        })
    }

    /// The row as an iterator of ids (column order).
    pub fn row(&self, row: u32) -> impl Iterator<Item = TermId> + '_ {
        self.cols.iter().map(move |col| col[row as usize])
    }

    /// The global id of a stored row (dead or alive).
    #[inline]
    pub fn row_to_id(&self, row: u32) -> Option<AtomId> {
        self.row_id.get(row as usize).copied()
    }

    /// Unlinks a row from every index (dedup table, posting lists, the
    /// id directory). The column data stays in place — rows are never
    /// renumbered — so `value`/`row` keep working for the dead atom.
    ///
    /// Each removal is O(list length) (`Vec::remove` keeps the lists
    /// sorted for the binary-searchable delta windows), so deleting a
    /// large DRed cone costs O(cone × relation). If cone deletion ever
    /// dominates a profile, batch the unlinks per relation: collect the
    /// dead ids, then one `retain` pass over `atom_ids` and each touched
    /// posting list.
    fn unlink(&mut self, row: u32, id: AtomId) {
        let hash = tuple_hash(self.cols.iter().map(|col| col[row as usize]));
        if let Some(rows) = self.row_lookup.get_mut(&hash) {
            rows.retain(|&r| r != row);
            if rows.is_empty() {
                self.row_lookup.remove(&hash);
            }
        }
        for (c, col) in self.cols.iter().enumerate() {
            let value = col[row as usize];
            if let Some(ids) = self.col_index[c].get_mut(&value) {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    self.col_index[c].remove(&value);
                }
            }
        }
        if let Ok(pos) = self.atom_ids.binary_search(&id) {
            self.atom_ids.remove(pos);
        }
        // Tombstones invalidate the planner's joint hash indexes
        // wholesale: they are pure accelerators, rebuilt on the planner's
        // next request (see `Instance::ensure_joint_index`), and a
        // deletion-heavy phase should not pay per-list maintenance for
        // them.
        self.joint.clear();
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("pred", &self.pred)
            .field("arity", &self.arity)
            .field("rows", &self.len())
            .finish()
    }
}

/// An append-only columnar instance with borrowed-key lookup and
/// per-column indexes.
#[derive(Default, Clone)]
pub struct Instance {
    relations: Vec<Relation>,
    /// Predicate → relations of that predicate (one per arity seen; in a
    /// validated program there is exactly one).
    rels_of: FxHashMap<Symbol, Vec<u32>>,
    /// Predicate → all its atom ids, ascending (union across arities).
    by_pred: FxHashMap<Symbol, Vec<AtomId>>,
    meta: Vec<Meta>,
    /// Depth at which each null was invented (indexed by `NullId`).
    null_depth: Vec<u32>,
    /// Number of tombstoned atoms (`meta` entries with `dead` set).
    dead: usize,
    /// Joint hash indexes built over this instance's lifetime (a rebuild
    /// after tombstone invalidation counts again) — the counter-probe the
    /// index-lifecycle tests and [`crate::ChaseStats::index_builds`] read.
    joint_builds: usize,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Number of atom ids ever issued, **including** tombstoned atoms —
    /// i.e. the id watermark (the next atom gets this id). For the count
    /// of atoms actually present use [`Instance::live_len`]; the two
    /// coincide on instances that never saw a deletion.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Number of live (non-tombstoned) atoms.
    pub fn live_len(&self) -> usize {
        self.meta.len() - self.dead
    }

    /// Number of tombstoned atoms.
    pub fn dead_len(&self) -> usize {
        self.dead
    }

    /// True iff the instance holds no live atoms.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// The relation holding `pred` at `arity`, if any tuples exist.
    #[inline]
    pub fn relation(&self, pred: Symbol, arity: usize) -> Option<&Relation> {
        self.rels_of.get(&pred).and_then(|idxs| {
            idxs.iter()
                .map(|&i| &self.relations[i as usize])
                .find(|r| r.arity == arity)
        })
    }

    fn relation_mut(&mut self, pred: Symbol, arity: usize) -> u32 {
        if let Some(idxs) = self.rels_of.get(&pred) {
            if let Some(&i) = idxs
                .iter()
                .find(|&&i| self.relations[i as usize].arity == arity)
            {
                return i;
            }
        }
        let i = self.relations.len() as u32;
        self.relations.push(Relation::new(pred, arity));
        self.rels_of.entry(pred).or_default().push(i);
        i
    }

    /// All relations (arbitrary order).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.iter()
    }

    /// The relations in creation order (persistence codec: index `i`
    /// here is the `rel` directory index atoms are encoded against).
    pub(crate) fn relations_slice(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation directory index of an atom (persistence codec).
    pub(crate) fn rel_index_of(&self, id: AtomId) -> u32 {
        self.meta[id as usize].rel
    }

    /// Per-null invention depths, indexed by `NullId` (persistence codec).
    pub(crate) fn null_depths(&self) -> &[u32] {
        &self.null_depth
    }

    /// Persistence decode's bulk path: rebuilds an instance from fully
    /// decoded columns and a per-atom directory of
    /// `(relation index, support, provenance)` in global id order,
    /// without routing every row through [`Instance::insert_ids`].
    /// Columns are adopted verbatim and every index, sketch and depth is
    /// reconstructed in pre-sized single passes, producing a state
    /// byte-identical (under re-encoding) to replaying the inserts — the
    /// sketches see each relation's rows in the original insert order.
    /// Errors are structural-corruption messages for the codec to wrap.
    pub(crate) fn bulk_load(
        null_depth: Vec<u32>,
        rels: Vec<(Symbol, usize, Vec<Vec<TermId>>)>,
        directory: Vec<(u32, u32, Option<Derivation>)>,
    ) -> std::result::Result<Instance, &'static str> {
        let mut rels_of: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        for (i, (pred, arity, _)) in rels.iter().enumerate() {
            let entries = rels_of.entry(*pred).or_default();
            if entries.iter().any(|&j| rels[j as usize].1 == *arity) {
                return Err("duplicate relation in directory");
            }
            entries.push(i as u32);
        }
        // Pass 1 — the atom directory assigns global ids to relation
        // rows in order; depths are recomputed from the null table
        // exactly as the original inserts did.
        let mut row_ids: Vec<Vec<AtomId>> = rels
            .iter()
            .map(|(_, arity, cols)| Vec::with_capacity(if *arity == 0 { 0 } else { cols[0].len() }))
            .collect();
        let mut meta = Vec::with_capacity(directory.len());
        let mut by_pred: FxHashMap<Symbol, Vec<AtomId>> = FxHashMap::default();
        for (id, (rel_idx, support, derivation)) in directory.into_iter().enumerate() {
            let (pred, arity, cols) = rels
                .get(rel_idx as usize)
                .ok_or("atom directory references an unknown relation")?;
            let row = row_ids[rel_idx as usize].len();
            if *arity > 0 && row >= cols[0].len() {
                return Err("atom directory overruns its relation");
            }
            let mut depth = 0;
            for col in cols.iter() {
                if let Some(n) = col[row].as_null() {
                    let d = *null_depth.get(n.0 as usize).ok_or("null id out of range")?;
                    depth = depth.max(d);
                }
            }
            row_ids[rel_idx as usize].push(id as AtomId);
            by_pred.entry(*pred).or_default().push(id as AtomId);
            meta.push(Meta {
                rel: rel_idx,
                row: row as u32,
                derivation,
                depth,
                support,
                dead: false,
            });
        }
        // Pass 2 — per relation, adopt the columns and rebuild the
        // dedup table, posting lists and stats in one sized sweep.
        let mut relations = Vec::with_capacity(rels.len());
        for ((pred, arity, cols), ids) in rels.into_iter().zip(row_ids) {
            let rows = if arity == 0 { ids.len() } else { cols[0].len() };
            if ids.len() != rows {
                return Err("relation rows not covered by atom directory");
            }
            relations.push(Relation::from_columns(pred, arity, cols, ids)?);
        }
        Ok(Instance {
            relations,
            rels_of,
            by_pred,
            meta,
            null_depth,
            dead: 0,
            joint_builds: 0,
        })
    }

    /// Ensures a joint hash index over `cols` (ascending column indexes)
    /// exists on the relation of `pred` at `arity`. Returns `true` when
    /// an index was actually built (a fresh request, or a rebuild after
    /// tombstone/compaction invalidation); `false` when it already
    /// existed or no such relation stores any tuples.
    pub fn ensure_joint_index(&mut self, pred: Symbol, arity: usize, cols: &[u8]) -> bool {
        let Some(idxs) = self.rels_of.get(&pred) else {
            return false;
        };
        let Some(&i) = idxs
            .iter()
            .find(|&&i| self.relations[i as usize].arity == arity)
        else {
            return false;
        };
        let built = self.relations[i as usize].build_joint_index(cols);
        if built {
            self.joint_builds += 1;
        }
        built
    }

    /// Joint hash indexes built over this instance's lifetime (rebuilds
    /// after invalidation count again).
    pub fn joint_builds(&self) -> usize {
        self.joint_builds
    }

    /// Drops every joint index not named in `wanted` (`(pred, arity,
    /// cols)` tuples). The planner calls this after a re-plan: an index
    /// no current plan wants would otherwise hold its relation's index
    /// cap *and* keep paying per-insert maintenance forever (in an
    /// insert-only workload no tombstone ever clears it).
    pub fn retain_joint_indexes(&mut self, wanted: &[(Symbol, usize, Box<[u8]>)]) {
        for rel in &mut self.relations {
            rel.joint.retain(|j| {
                wanted
                    .iter()
                    .any(|(p, a, cols)| *p == rel.pred && *a == rel.arity && **cols == *j.cols)
            });
        }
    }

    /// The atom with the given id, decoded into a value.
    pub fn atom(&self, id: AtomId) -> GroundAtom {
        let m = &self.meta[id as usize];
        let rel = &self.relations[m.rel as usize];
        GroundAtom {
            pred: rel.pred,
            terms: rel.row(m.row).map(TermId::to_term).collect(),
        }
    }

    /// The predicate of the atom with the given id.
    #[inline]
    pub fn pred_of(&self, id: AtomId) -> Symbol {
        self.relations[self.meta[id as usize].rel as usize].pred
    }

    /// The storage row of the atom within its predicate's [`Relation`].
    #[inline]
    pub fn row_of(&self, id: AtomId) -> u32 {
        self.meta[id as usize].row
    }

    /// The atom's encoded argument tuple (column order).
    pub fn key_of(&self, id: AtomId) -> Vec<TermId> {
        let m = &self.meta[id as usize];
        self.relations[m.rel as usize].row(m.row).collect()
    }

    /// Decodes the atom into constants only; `None` if it mentions a null.
    pub fn const_tuple(&self, id: AtomId) -> Option<Vec<Symbol>> {
        let m = &self.meta[id as usize];
        let rel = &self.relations[m.rel as usize];
        rel.row(m.row).map(TermId::as_const).collect()
    }

    /// The provenance of the atom with the given id (`None` for database
    /// atoms).
    pub fn derivation(&self, id: AtomId) -> Option<&Derivation> {
        self.meta[id as usize].derivation.as_ref()
    }

    /// True iff the atom has not been tombstoned.
    #[inline]
    pub fn is_live(&self, id: AtomId) -> bool {
        !self.meta[id as usize].dead
    }

    /// The support count of the atom: 1 + the number of duplicate
    /// insertion attempts observed. A schedule-dependent diagnostic upper
    /// bound on the number of distinct derivations, surfaced by the
    /// incremental-maintenance stats.
    pub fn support(&self, id: AtomId) -> u32 {
        self.meta[id as usize].support
    }

    /// Tombstones an atom: it disappears from every index (joins,
    /// membership probes, posting lists, iteration) while keeping its id
    /// and row slot, so surviving ids never shift. Returns `false` if the
    /// atom was already dead. The caller is responsible for the semantic
    /// side (DRed over-deletion of dependents — see
    /// [`crate::incremental`]).
    pub fn tombstone(&mut self, id: AtomId) -> bool {
        let m = &mut self.meta[id as usize];
        if m.dead {
            return false;
        }
        m.dead = true;
        let (rel_idx, row) = (m.rel, m.row);
        self.relations[rel_idx as usize].unlink(row, id);
        let pred = self.relations[rel_idx as usize].pred;
        if let Some(ids) = self.by_pred.get_mut(&pred) {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
        }
        self.dead += 1;
        true
    }

    /// A compacted copy: live atoms only, dense fresh ids (in the same
    /// relative order), re-pointed provenance. Returns the copy plus the
    /// id remapping (`old id → new id`, `None` for dead atoms). Null ids
    /// and their depths are preserved verbatim, so `TermId`s (and any
    /// skolem memoization keyed on them) stay valid across compaction.
    pub fn compacted(&self) -> (Instance, Vec<Option<AtomId>>) {
        let mut out = Instance::new();
        out.null_depth = self.null_depth.clone();
        let mut remap: Vec<Option<AtomId>> = vec![None; self.meta.len()];
        let mut key: Vec<TermId> = Vec::new();
        for (id, m) in self.meta.iter().enumerate() {
            if m.dead {
                continue;
            }
            let rel = &self.relations[m.rel as usize];
            key.clear();
            key.extend(rel.row(m.row));
            let derivation = m.derivation.as_ref().map(|d| Derivation {
                rule: d.rule,
                body: d
                    .body
                    .iter()
                    .map(|&b| {
                        remap[b as usize].expect(
                            "a live atom's provenance references live atoms \
                             (dependents are over-deleted before their support)",
                        )
                    })
                    .collect(),
            });
            let (new_id, fresh) = out.insert_ids(rel.pred, &key, derivation);
            debug_assert!(fresh, "live atoms are distinct tuples");
            out.meta[new_id as usize].support = m.support;
            remap[id] = Some(new_id);
        }
        (out, remap)
    }

    /// The null-invention depth of the atom (0 if it mentions no nulls).
    pub fn depth(&self, id: AtomId) -> u32 {
        self.meta[id as usize].depth
    }

    /// Looks up an atom value, returning its id if present.
    pub fn find(&self, atom: &GroundAtom) -> Option<AtomId> {
        self.find_terms(atom.pred, &atom.terms)
    }

    /// Membership test for an atom value.
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.find(atom).is_some()
    }

    /// Borrowed-key lookup: no `GroundAtom` (and no key) is built. Terms
    /// are encoded on the fly; a variable term never matches.
    pub fn find_terms(&self, pred: Symbol, terms: &[Term]) -> Option<AtomId> {
        let rel = self.relation(pred, terms.len())?;
        let hash = tuple_hash(terms.iter().filter_map(|&t| TermId::from_term(t)));
        let candidates = rel.row_lookup.get(&hash)?;
        let row = candidates.iter().copied().find(|&row| {
            terms
                .iter()
                .enumerate()
                .all(|(c, &t)| TermId::from_term(t) == Some(rel.cols[c][row as usize]))
        })?;
        Some(rel.row_id[row as usize])
    }

    /// Borrowed-key membership for a term slice.
    pub fn contains_terms(&self, pred: Symbol, terms: &[Term]) -> bool {
        self.find_terms(pred, terms).is_some()
    }

    /// Borrowed-key lookup over an already-encoded row.
    #[inline]
    pub fn find_ids(&self, pred: Symbol, key: &[TermId]) -> Option<AtomId> {
        let rel = self.relation(pred, key.len())?;
        let row = rel.find_row(key)?;
        Some(rel.row_id[row as usize])
    }

    /// Borrowed-key membership over an already-encoded row.
    #[inline]
    pub fn contains_ids(&self, pred: Symbol, key: &[TermId]) -> bool {
        self.find_ids(pred, key).is_some()
    }

    /// Creates a fresh labeled null invented at `depth`.
    pub fn fresh_null(&mut self, depth: u32) -> NullId {
        let id = NullId(self.null_depth.len() as u32);
        self.null_depth.push(depth);
        id
    }

    /// The invention depth of a null.
    pub fn null_depth(&self, null: NullId) -> u32 {
        self.null_depth[null.0 as usize]
    }

    /// Number of nulls invented so far.
    pub fn null_count(&self) -> usize {
        self.null_depth.len()
    }

    /// 1 + the maximum invention depth among the nulls of `terms`
    /// (1 if there are none). This is the depth a *new* null invented from
    /// these frontier values gets.
    pub fn next_depth(&self, terms: &[Term]) -> u32 {
        terms
            .iter()
            .filter_map(|t| t.as_null())
            .map(|n| self.null_depth(n))
            .max()
            .map_or(1, |d| d + 1)
    }

    /// Like [`Instance::next_depth`] over an encoded row.
    pub fn next_depth_ids(&self, key: &[TermId]) -> u32 {
        key.iter()
            .filter_map(|t| t.as_null())
            .map(|n| self.null_depth(n))
            .max()
            .map_or(1, |d| d + 1)
    }

    /// Inserts an atom value, returning `(id, inserted)`.
    pub fn insert(&mut self, atom: GroundAtom, derivation: Option<Derivation>) -> (AtomId, bool) {
        let key: Vec<TermId> = atom
            .terms
            .iter()
            .map(|&t| TermId::from_term(t).expect("instance atoms are ground"))
            .collect();
        self.insert_ids(atom.pred, &key, derivation)
    }

    /// Inserts an encoded row, returning `(id, inserted)`. This is the
    /// chase's write path: the key is borrowed, so a duplicate insert
    /// allocates nothing.
    pub fn insert_ids(
        &mut self,
        pred: Symbol,
        key: &[TermId],
        derivation: Option<Derivation>,
    ) -> (AtomId, bool) {
        let rel_idx = self.relation_mut(pred, key.len());
        let id = self.meta.len() as AtomId;
        let (row, inserted) = self.relations[rel_idx as usize].find_or_push(key, id);
        if !inserted {
            let existing = self.relations[rel_idx as usize]
                .row_to_id(row)
                .expect("a deduplicated row is live");
            self.meta[existing as usize].support += 1;
            return (existing, false);
        }
        let depth = key
            .iter()
            .filter_map(|t| t.as_null())
            .map(|n| self.null_depth(n))
            .max()
            .unwrap_or(0);
        self.by_pred.entry(pred).or_default().push(id);
        self.meta.push(Meta {
            rel: rel_idx,
            row,
            derivation,
            depth,
            support: 1,
            dead: false,
        });
        (id, true)
    }

    /// Inserts a database fact built from constant strings.
    pub fn insert_fact(&mut self, pred: &str, constants: &[&str]) -> AtomId {
        let key: Vec<TermId> = constants
            .iter()
            .map(|c| TermId::from_const(Symbol::new(c)))
            .collect();
        self.insert_ids(Symbol::new(pred), &key, None).0
    }

    /// Ids of all atoms with predicate `pred`, ascending.
    pub fn ids_by_pred(&self, pred: Symbol) -> &[AtomId] {
        self.by_pred.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all live atoms (with ids), in insertion order. Atoms
    /// are decoded on the fly from the columnar store; tombstoned atoms
    /// are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, GroundAtom)> + '_ {
        (0..self.meta.len() as AtomId)
            .filter(move |&id| !self.meta[id as usize].dead)
            .map(move |id| (id, self.atom(id)))
    }

    /// All atoms of a predicate, decoded.
    pub fn atoms_of(&self, pred: Symbol) -> impl Iterator<Item = GroundAtom> + '_ {
        self.ids_by_pred(pred).iter().map(move |&id| self.atom(id))
    }

    /// The ground part `Π(D)↓`: all atoms whose terms are constants only
    /// (§6.3, Step 1).
    pub fn ground_part(&self) -> Vec<GroundAtom> {
        self.iter()
            .map(|(_, a)| a)
            .filter(GroundAtom::is_fully_ground)
            .collect()
    }

    /// Checks whether any atom of `pred` is stored (used by the
    /// restricted chase and tests); see [`crate::ChaseConfig`] for the
    /// full matcher.
    pub fn has_pred(&self, pred: Symbol) -> bool {
        self.by_pred.get(&pred).is_some_and(|v| !v.is_empty())
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|(_, a)| a)).finish()
    }
}

/// A database: a finite instance over constants only (§3.2).
#[derive(Default, Clone)]
pub struct Database {
    instance: Instance,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The backing instance (persistence codec).
    pub(crate) fn instance_ref(&self) -> &Instance {
        &self.instance
    }

    /// Wraps a decoded instance (persistence decode). The caller
    /// guarantees database invariants: constants only, no derivations.
    pub(crate) fn from_instance(instance: Instance) -> Database {
        Database { instance }
    }

    /// Adds a fact; errors if any term is not a constant.
    pub fn add(&mut self, atom: &Atom) -> Result<()> {
        let key: Option<Vec<TermId>> = atom
            .terms
            .iter()
            .map(|&t| t.as_const().map(TermId::from_const))
            .collect();
        let Some(key) = key else {
            return Err(TriqError::InvalidProgram(format!(
                "database fact {atom} contains a non-constant term"
            )));
        };
        self.instance.insert_ids(atom.pred, &key, None);
        Ok(())
    }

    /// Adds a fact from strings.
    pub fn add_fact(&mut self, pred: &str, constants: &[&str]) {
        self.instance.insert_fact(pred, constants);
    }

    /// Adds a fact from already-interned symbols — the fast bridge path
    /// (`τ_db` of §5.1 feeds rows straight from the RDF store without a
    /// string round-trip). Returns `true` if the fact was not already
    /// present.
    pub fn add_row(&mut self, pred: Symbol, constants: &[Symbol]) -> bool {
        let key: Vec<TermId> = constants.iter().copied().map(TermId::from_const).collect();
        self.instance.insert_ids(pred, &key, None).1
    }

    /// Bulk ingest: adopts pre-interned rows of a single predicate
    /// straight into the columnar store, the way the persistence decoder
    /// does — one sized pass per column instead of a per-row
    /// [`Database::add_row`] probe against an ever-growing dedup table.
    /// `columns` is column-major (`columns[c][r]` is row `r`'s term in
    /// position `c`); duplicate rows fold into the first occurrence's
    /// support count, so the result is byte-identical (under re-encoding)
    /// to `add_row`-ing every input row in order. Errors only on ragged
    /// columns.
    pub fn bulk_rows(pred: Symbol, columns: Vec<Vec<Symbol>>) -> Result<Database> {
        let arity = columns.len();
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(TriqError::InvalidProgram(format!(
                "bulk rows for {pred} have ragged columns"
            )));
        }
        // Dedup in insert order, folding repeats into support counts —
        // exactly what replaying add_row would have produced.
        let mut first_of: FxHashMap<Vec<TermId>, u32> = FxHashMap::default();
        first_of.reserve(rows);
        let mut out: Vec<Vec<TermId>> = (0..arity).map(|_| Vec::with_capacity(rows)).collect();
        let mut supports: Vec<u32> = Vec::with_capacity(rows);
        let mut key: Vec<TermId> = Vec::with_capacity(arity);
        for r in 0..rows {
            key.clear();
            key.extend(columns.iter().map(|c| TermId::from_const(c[r])));
            match first_of.entry(key.clone()) {
                Entry::Occupied(e) => supports[*e.get() as usize] += 1,
                Entry::Vacant(e) => {
                    e.insert(supports.len() as u32);
                    for (c, col) in out.iter_mut().enumerate() {
                        col.push(key[c]);
                    }
                    supports.push(1);
                }
            }
        }
        let directory = supports.iter().map(|&s| (0, s, None)).collect();
        let instance = Instance::bulk_load(Vec::new(), vec![(pred, arity, out)], directory)
            .map_err(|m| TriqError::InvalidProgram(format!("bulk load: {m}")))?;
        Ok(Database { instance })
    }

    /// Removes a fact given as interned symbols; returns `true` if it was
    /// present. Removal tombstones the row — [`Database::to_instance`]
    /// compacts before seeding a chase, so chase ids stay dense.
    pub fn remove_row(&mut self, pred: Symbol, constants: &[Symbol]) -> bool {
        let key: Vec<TermId> = constants.iter().copied().map(TermId::from_const).collect();
        match self.instance.find_ids(pred, &key) {
            Some(id) => self.instance.tombstone(id),
            None => false,
        }
    }

    /// Removes a fact given as strings; returns `true` if it was present.
    pub fn remove_fact(&mut self, pred: &str, constants: &[&str]) -> bool {
        let symbols: Vec<Symbol> = constants.iter().map(|c| Symbol::new(c)).collect();
        self.remove_row(Symbol::new(pred), &symbols)
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.instance.live_len()
    }

    /// True iff the database has no facts.
    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }

    /// The facts as a fresh [`Instance`] seed. The columnar store clones
    /// wholesale (columns + indexes), with no per-atom re-hashing; only a
    /// database that has seen removals pays for a compacting copy (the
    /// chase relies on dense, gap-free seed ids).
    pub fn to_instance(&self) -> Instance {
        if self.instance.dead_len() == 0 {
            self.instance.clone()
        } else {
            self.instance.compacted().0
        }
    }

    /// Iterates over the facts.
    pub fn iter(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.instance.iter().map(|(_, a)| a)
    }

    /// Iterates over the facts of one predicate.
    pub fn atoms_of(&self, pred: Symbol) -> impl Iterator<Item = GroundAtom> + '_ {
        self.instance.atoms_of(pred)
    }

    /// All constants occurring in the database (`dom(D)`). Streams the
    /// live rows straight out of the columns — no per-fact decoding or
    /// allocation; removed facts no longer contribute.
    pub fn domain(&self) -> std::collections::BTreeSet<Symbol> {
        let inst = &self.instance;
        inst.meta
            .iter()
            .filter(|m| !m.dead)
            .flat_map(|m| inst.relations[m.rel as usize].row(m.row))
            .filter_map(|t| t.as_const())
            .collect()
    }

    /// Membership test for a fully-ground atom.
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.instance.contains(atom)
    }

    /// Borrowed-key membership over an already-encoded row (used by the
    /// incremental maintenance to re-assert base facts whose instance
    /// atom was over-deleted).
    pub fn contains_ids(&self, pred: Symbol, key: &[TermId]) -> bool {
        self.instance.contains_ids(pred, key)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.instance.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_common::intern;

    #[test]
    fn insert_and_lookup() {
        let mut inst = Instance::new();
        let id = inst.insert_fact("edge", &["a", "b"]);
        let (id2, fresh) = inst.insert(
            GroundAtom::new(
                intern("edge"),
                vec![Term::constant("a"), Term::constant("b")].into(),
            ),
            None,
        );
        assert_eq!(id, id2);
        assert!(!fresh);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.atom(id).to_string(), "edge(a, b)");
    }

    #[test]
    fn column_index_lookups() {
        let mut inst = Instance::new();
        inst.insert_fact("edge", &["a", "b"]);
        inst.insert_fact("edge", &["a", "c"]);
        inst.insert_fact("edge", &["b", "c"]);
        let a = TermId::from_const(intern("a"));
        let rel = inst.relation(intern("edge"), 2).unwrap();
        assert_eq!(rel.ids_by_column(0, a).len(), 2);
        assert_eq!(rel.ids_by_column(1, a).len(), 0);
        assert_eq!(inst.ids_by_pred(intern("edge")).len(), 3);
        assert_eq!(inst.ids_by_pred(intern("nothing")).len(), 0);
    }

    #[test]
    fn relation_layout_is_columnar() {
        let mut inst = Instance::new();
        inst.insert_fact("edge", &["a", "b"]);
        inst.insert_fact("edge", &["b", "c"]);
        let rel = inst.relation(intern("edge"), 2).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.arity(), 2);
        assert_eq!(rel.value(0, 1), TermId::from_const(intern("b")));
        assert_eq!(rel.value(1, 0), TermId::from_const(intern("b")));
        let key = [
            TermId::from_const(intern("b")),
            TermId::from_const(intern("c")),
        ];
        assert_eq!(rel.find_row(&key), Some(1));
        assert!(inst.contains_ids(intern("edge"), &key));
        assert!(inst.relation(intern("edge"), 3).is_none());
    }

    #[test]
    fn borrowed_key_find_terms() {
        let mut inst = Instance::new();
        let id = inst.insert_fact("p", &["a", "b"]);
        let terms = [Term::constant("a"), Term::constant("b")];
        assert_eq!(inst.find_terms(intern("p"), &terms), Some(id));
        assert!(inst.contains_terms(intern("p"), &terms));
        let absent = [Term::constant("b"), Term::constant("a")];
        assert_eq!(inst.find_terms(intern("p"), &absent), None);
        // A variable never matches.
        let with_var = [Term::Var(triq_common::VarId::new("X")), Term::constant("b")];
        assert_eq!(inst.find_terms(intern("p"), &with_var), None);
    }

    #[test]
    fn null_depth_tracking() {
        let mut inst = Instance::new();
        let n0 = inst.fresh_null(1);
        let atom = GroundAtom::new(intern("p"), vec![Term::Null(n0)].into());
        let (id, _) = inst.insert(atom, None);
        assert_eq!(inst.depth(id), 1);
        assert_eq!(inst.next_depth(&[Term::Null(n0)]), 2);
        assert_eq!(inst.next_depth(&[Term::constant("a")]), 1);
        assert_eq!(inst.ground_part().len(), 0);
        assert_eq!(inst.const_tuple(id), None);
    }

    #[test]
    fn database_rejects_nulls_and_vars() {
        let mut db = Database::new();
        let bad = Atom::from_parts("p", vec![Term::Var(triq_common::VarId::new("X"))]);
        assert!(db.add(&bad).is_err());
        db.add_fact("p", &["a"]);
        assert_eq!(db.len(), 1);
        assert!(db.domain().contains(&intern("a")));
    }

    #[test]
    fn provenance_round_trip() {
        let mut inst = Instance::new();
        let body = inst.insert_fact("p", &["a"]);
        let atom = GroundAtom::new(intern("q"), vec![Term::constant("a")].into());
        let (id, _) = inst.insert(
            atom,
            Some(Derivation {
                rule: 3,
                body: vec![body],
            }),
        );
        let d = inst.derivation(id).unwrap();
        assert_eq!(d.rule, 3);
        assert_eq!(d.body, vec![body]);
        assert!(inst.derivation(body).is_none());
    }

    #[test]
    fn tombstone_hides_atom_from_every_index() {
        let mut inst = Instance::new();
        let a = inst.insert_fact("e", &["a", "b"]);
        let b = inst.insert_fact("e", &["b", "c"]);
        assert!(inst.tombstone(a));
        assert!(!inst.tombstone(a), "double tombstone is a no-op");
        assert_eq!(inst.len(), 2, "len stays the id watermark");
        assert_eq!(inst.live_len(), 1);
        assert_eq!(inst.dead_len(), 1);
        assert!(!inst.is_live(a));
        assert!(inst.is_live(b));
        // Probes, posting lists, per-pred ids and iteration all miss it.
        let key = [
            TermId::from_const(intern("a")),
            TermId::from_const(intern("b")),
        ];
        assert!(!inst.contains_ids(intern("e"), &key));
        assert_eq!(inst.ids_by_pred(intern("e")), &[b]);
        assert_eq!(
            inst.relation(intern("e"), 2)
                .unwrap()
                .ids_by_column(0, TermId::from_const(intern("a")))
                .len(),
            0
        );
        assert_eq!(inst.iter().count(), 1);
        let rel = inst.relation(intern("e"), 2).unwrap();
        assert_eq!(rel.atom_ids(), &[b]);
        // The dead atom still decodes (ids are never reused).
        assert_eq!(inst.atom(a).to_string(), "e(a, b)");
        // Re-inserting the tuple issues a fresh id.
        let a2 = inst.insert_fact("e", &["a", "b"]);
        assert_ne!(a2, a);
        assert!(inst.contains_ids(intern("e"), &key));
        assert_eq!(inst.find_ids(intern("e"), &key), Some(a2));
    }

    #[test]
    fn support_counts_duplicate_insertions() {
        let mut inst = Instance::new();
        let id = inst.insert_fact("p", &["a"]);
        assert_eq!(inst.support(id), 1);
        let (again, fresh) = inst.insert(
            GroundAtom::new(intern("p"), vec![Term::constant("a")].into()),
            Some(Derivation {
                rule: 0,
                body: vec![],
            }),
        );
        assert_eq!(again, id);
        assert!(!fresh);
        assert_eq!(inst.support(id), 2);
    }

    #[test]
    fn compaction_renumbers_and_repoints_provenance() {
        let mut inst = Instance::new();
        let e = inst.insert_fact("e", &["a", "b"]);
        let dead = inst.insert_fact("e", &["x", "y"]);
        let atom = GroundAtom::new(intern("t"), vec![Term::constant("a")].into());
        let (t, _) = inst.insert(
            atom.clone(),
            Some(Derivation {
                rule: 7,
                body: vec![e],
            }),
        );
        inst.tombstone(dead);
        let (compact, remap) = inst.compacted();
        assert_eq!(compact.len(), 2);
        assert_eq!(compact.dead_len(), 0);
        assert_eq!(remap[dead as usize], None);
        let new_t = remap[t as usize].unwrap();
        assert_eq!(compact.atom(new_t), atom);
        let d = compact.derivation(new_t).unwrap();
        assert_eq!(d.rule, 7);
        assert_eq!(d.body, vec![remap[e as usize].unwrap()]);
    }

    #[test]
    fn database_removal_and_compacting_seed() {
        let mut db = Database::new();
        db.add_fact("e", &["a", "b"]);
        db.add_fact("e", &["b", "c"]);
        assert!(db.remove_fact("e", &["a", "b"]));
        assert!(!db.remove_fact("e", &["a", "b"]), "absent fact");
        assert_eq!(db.len(), 1);
        assert!(!db.domain().contains(&intern("a")));
        let seed = db.to_instance();
        assert_eq!(seed.len(), 1, "seed is compacted (dense ids)");
        assert_eq!(seed.dead_len(), 0);
        assert!(db.add_row(intern("e"), &[intern("a"), intern("b")]));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn joint_index_builds_probes_and_follows_inserts() {
        let mut inst = Instance::new();
        for i in 0..20 {
            inst.insert_fact(
                "t",
                &[
                    &format!("a{}", i % 4),
                    &format!("b{}", i % 5),
                    &format!("c{i}"),
                ],
            );
        }
        assert_eq!(inst.joint_builds(), 0);
        assert!(inst.ensure_joint_index(intern("t"), 3, &[0, 1]));
        assert!(
            !inst.ensure_joint_index(intern("t"), 3, &[0, 1]),
            "idempotent"
        );
        assert_eq!(inst.joint_builds(), 1);
        // No relation / wrong arity: nothing to build.
        assert!(!inst.ensure_joint_index(intern("absent"), 2, &[0]));
        assert!(!inst.ensure_joint_index(intern("t"), 2, &[0]));
        let key = |s: &str| TermId::from_const(intern(s));
        let rel = inst.relation(intern("t"), 3).unwrap();
        assert!(rel.has_joint_index(&[0, 1]));
        assert!(!rel.has_joint_index(&[0, 2]));
        let ids = rel
            .joint_ids(&[0, 1], [key("a0"), key("b0")].into_iter())
            .unwrap();
        // i ≡ 0 (mod 4) and i ≡ 0 (mod 5) → i = 0 only, within 0..20.
        assert_eq!(ids.len(), 1);
        assert_eq!(inst.atom(ids[0]).to_string(), "t(a0, b0, c0)");
        // The index follows later inserts (i = 20 ≡ 0 mod 4 and mod 5).
        let id20 = inst.insert_fact("t", &["a0", "b0", "c20"]);
        let rel = inst.relation(intern("t"), 3).unwrap();
        let ids = rel
            .joint_ids(&[0, 1], [key("a0"), key("b0")].into_iter())
            .unwrap();
        assert_eq!(ids, &[0, id20], "ascending, freshly inserted row included");
        // An unindexed column set probes as absent.
        assert!(rel
            .joint_ids(&[1, 2], [key("b0"), key("c0")].into_iter())
            .is_none());
    }

    #[test]
    fn tombstone_invalidates_joint_indexes_and_rebuild_counts() {
        // The counter-probe for the index lifecycle (the planner's
        // `index_builds` stat reads the same counter): tombstone →
        // invalidated; next ensure → rebuilt, counted again.
        let mut inst = Instance::new();
        for i in 0..8 {
            inst.insert_fact(
                "e",
                &[
                    &format!("x{}", i % 2),
                    &format!("y{}", i % 2),
                    &format!("z{i}"),
                ],
            );
        }
        assert!(inst.ensure_joint_index(intern("e"), 3, &[0, 1]));
        assert_eq!(inst.joint_builds(), 1);
        let victim = inst
            .find_ids(
                intern("e"),
                &[
                    TermId::from_const(intern("x1")),
                    TermId::from_const(intern("y1")),
                    TermId::from_const(intern("z1")),
                ],
            )
            .unwrap();
        inst.tombstone(victim);
        let rel = inst.relation(intern("e"), 3).unwrap();
        assert!(!rel.has_joint_index(&[0, 1]), "tombstone invalidates");
        // Rebuilding counts again and excludes the dead row.
        assert!(inst.ensure_joint_index(intern("e"), 3, &[0, 1]));
        assert_eq!(inst.joint_builds(), 2, "rebuild after invalidation");
        let rel = inst.relation(intern("e"), 3).unwrap();
        let ids = rel
            .joint_ids(
                &[0, 1],
                [
                    TermId::from_const(intern("x1")),
                    TermId::from_const(intern("y1")),
                ]
                .into_iter(),
            )
            .unwrap();
        assert!(!ids.contains(&victim), "dead rows are not re-indexed");
        assert_eq!(ids.len(), 3, "x1/y1 rows minus the tombstoned one");
        // Compaction produces a fresh store: indexes (and the counter)
        // do not survive — the planner re-requests on its next pass.
        let (compact, _) = inst.compacted();
        assert!(!compact
            .relation(intern("e"), 3)
            .unwrap()
            .has_joint_index(&[0, 1]));
        assert_eq!(compact.joint_builds(), 0);
    }

    #[test]
    fn joint_index_requests_beyond_the_cap_are_refused() {
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.insert_fact("w", &[&format!("a{i}"), &format!("b{i}"), &format!("c{i}")]);
        }
        assert!(inst.ensure_joint_index(intern("w"), 3, &[0, 1]));
        assert!(inst.ensure_joint_index(intern("w"), 3, &[1, 2]));
        // A third column set is refused (cap = 2 per relation): probes
        // for it fall back to the per-column path instead of triggering
        // an evict-and-rebuild cycle at every stratum entry.
        assert!(!inst.ensure_joint_index(intern("w"), 3, &[0, 2]));
        assert_eq!(inst.joint_builds(), 2);
        let rel = inst.relation(intern("w"), 3).unwrap();
        assert!(rel.has_joint_index(&[0, 1]));
        assert!(rel.has_joint_index(&[1, 2]));
        assert!(!rel.has_joint_index(&[0, 2]));
        // Retiring unwanted indexes (what a re-plan does) frees the cap
        // for newly wanted ones.
        inst.retain_joint_indexes(&[(intern("w"), 3, Box::from([1u8, 2]))]);
        let rel = inst.relation(intern("w"), 3).unwrap();
        assert!(!rel.has_joint_index(&[0, 1]), "unwanted index retired");
        assert!(rel.has_joint_index(&[1, 2]));
        assert!(inst.ensure_joint_index(intern("w"), 3, &[0, 2]));
        // Tombstoning clears the slots; the next requests win them back.
        inst.tombstone(0);
        assert!(!inst
            .relation(intern("w"), 3)
            .unwrap()
            .has_joint_index(&[0, 2]));
        assert!(inst.ensure_joint_index(intern("w"), 3, &[0, 2]));
        assert!(inst
            .relation(intern("w"), 3)
            .unwrap()
            .has_joint_index(&[0, 2]));
    }

    #[test]
    fn relation_stats_observe_inserts() {
        let mut inst = Instance::new();
        for i in 0..50 {
            inst.insert_fact("p", &[&format!("k{}", i % 10), "same"]);
        }
        // Duplicates are deduplicated before stats see them: 10 distinct
        // tuples inserted, 40 duplicate attempts invisible.
        let rel = inst.relation(intern("p"), 2).unwrap();
        assert_eq!(rel.stats().rows, 10);
        let d0 = rel.stats().cols[0].distinct();
        assert!((9..=11).contains(&d0), "col 0 distinct ≈ 10, got {d0}");
        assert_eq!(rel.stats().cols[1].distinct(), 1);
        let same = TermId::from_const(intern("same")).raw();
        assert!(!rel.stats().cols[1].excludes(same));
        assert_eq!(rel.stats().cols[1].range(), Some((same, same)));
    }

    #[test]
    fn mixed_arity_predicates_coexist() {
        // A database is not bound by a program's arity coherence; the
        // store keeps one relation per (pred, arity).
        let mut inst = Instance::new();
        inst.insert_fact("p", &["a"]);
        inst.insert_fact("p", &["a", "b"]);
        assert_eq!(inst.ids_by_pred(intern("p")).len(), 2);
        assert_eq!(inst.relation(intern("p"), 1).unwrap().len(), 1);
        assert_eq!(inst.relation(intern("p"), 2).unwrap().len(), 1);
    }
}
