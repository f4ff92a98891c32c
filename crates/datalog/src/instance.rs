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
//!
//! An atom costs its data, not heap objects of its own:
//!
//! * the atom directory is one `Vec` of four-word entries (relation,
//!   row, null depth, and a derivation index whose top bit is the
//!   tombstone);
//! * every derivation (Def. 6.11's proof edges) is a rule plus a range
//!   of one per-instance body arena — [`Instance::provenance`] borrows
//!   it, [`Instance::derivation`] hands out an owned copy;
//! * a relation's dedup table is one open-addressed array of
//!   `(row, hash tag)` slots, probed linearly and compared column-wise,
//!   whose deletes shift later slots back instead of leaving tombstones.

use crate::Atom;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use triq_common::{NullId, Result, Symbol, Term, TermId, TriqError};

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

/// The tag bit a stacked view's provenance sets on the ids of its
/// *base's* atoms: a derivation body there mixes the view's own atoms
/// (untagged) with atoms of the base instance it reads in place.
pub(crate) const BASE_ATOM: AtomId = 1 << 31;

/// The tag bit of the nulls a stacked view invents itself. Its rows may
/// also carry the base's nulls, which are untagged: the two null spaces
/// never meet.
const OWN_NULL: u32 = 1 << 30;

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
/// The owned form [`Instance::derivation`] hands out; the instance keeps
/// every body in one arena, which [`Instance::provenance`] borrows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the rule in the evaluated program.
    pub rule: usize,
    /// The matched positive body atoms, in body order.
    pub body: Vec<AtomId>,
}

/// The bit of [`Meta::derivation`] that marks a tombstoned atom.
const DEAD: u32 = 1 << 31;

/// Directory entry: where an atom's row lives, plus provenance — plain
/// words, no heap.
#[derive(Clone, Copy)]
struct Meta {
    rel: u32,
    row: u32,
    /// 0 for database atoms and null-free derived atoms; otherwise
    /// the maximum invention depth of the nulls mentioned.
    depth: u32,
    /// 1 + the index of the atom's record in [`Derivations`] (0: a
    /// database atom), or'ed with [`DEAD`] once the atom is tombstoned.
    /// Dead atoms keep their id and row (ids are never reused) but are
    /// removed from every index, so joins, membership probes and
    /// iteration no longer see them.
    derivation: u32,
}

impl Meta {
    #[inline]
    fn is_dead(self) -> bool {
        self.derivation & DEAD != 0
    }

    #[inline]
    fn derivation_index(self) -> Option<usize> {
        match self.derivation & !DEAD {
            0 => None,
            i => Some(i as usize - 1),
        }
    }
}

/// Every derivation of an instance, in the order its atoms were issued:
/// a rule plus where its body starts in one shared arena of body ids.
/// A body ends where the next record's starts, so a derivation costs
/// two words plus its body, and recording one never allocates beyond
/// the arenas' amortized growth.
#[derive(Clone, Default)]
pub(crate) struct Derivations {
    /// `(rule, start)` per recorded derivation: its body begins at
    /// `bodies[start]`.
    records: Vec<(u32, u32)>,
    bodies: Vec<AtomId>,
}

impl Derivations {
    /// Appends `other`'s derivations after these.
    fn append(&mut self, other: Derivations) {
        let shift = self.bodies.len() as u32;
        self.records.extend(
            other
                .records
                .into_iter()
                .map(|(rule, start)| (rule, start + shift)),
        );
        self.bodies.extend(other.bodies);
    }

    /// Records a derivation; returns its index.
    pub(crate) fn push(&mut self, rule: usize, body: &[AtomId]) -> usize {
        let rule = u32::try_from(rule).expect("rule index fits in u32");
        let start = u32::try_from(self.bodies.len()).expect("provenance arena overflow");
        self.records.push((rule, start));
        self.bodies.extend_from_slice(body);
        self.records.len() - 1
    }

    /// The rule and body of the derivation at `index`.
    #[inline]
    fn get(&self, index: usize) -> (usize, &[AtomId]) {
        let (rule, start) = self.records[index];
        let end = self
            .records
            .get(index + 1)
            .map_or(self.bodies.len(), |&(_, next)| next as usize);
        (rule as usize, &self.bodies[start as usize..end])
    }
}

/// How far an instance reached when a checkpoint wrote it
/// (`Instance::mark`): its id watermark, graveyard length, null count
/// and relation count. The next checkpoint writes only what lies past
/// it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceMark {
    pub(crate) len: u32,
    pub(crate) dead: u32,
    pub(crate) nulls: u32,
    pub(crate) rels: u32,
}

/// The part of an instance past a mark, as the snapshot codec reads it
/// ([`Instance::append`]): the depths of the new nulls; every relation
/// in creation order with the rows appended to it (new relations last);
/// the new atoms' directory entries `(relation, derived?)` in id order,
/// with the derived ones' derivations; and the new graveyard entries,
/// in the order the atoms died. From the empty mark, it is the whole
/// instance.
#[derive(Default)]
pub(crate) struct Rows {
    pub(crate) null_depths: Vec<u32>,
    pub(crate) relations: Vec<(Symbol, usize, Vec<Vec<TermId>>)>,
    pub(crate) directory: Vec<(u32, bool)>,
    pub(crate) derivations: Derivations,
    pub(crate) graveyard: Vec<AtomId>,
}

/// The row index that marks a free [`RowTable`] slot.
const FREE: u32 = u32::MAX;

/// A relation's dedup table: one open-addressed array of `(row, tag)`
/// slots, probed linearly, where `tag` is the high half of the row's
/// tuple hash and also picks its home slot. Probes compare tags first,
/// so neither a probe nor a growth reads the columns of a row that does
/// not match; a delete shifts the rest of its probe run back, so no
/// tombstones pile up. At most three quarters of the slots are used.
#[derive(Clone, Default)]
struct RowTable {
    /// `(row, tag)`; the length is 0 or a power of two.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl RowTable {
    /// An empty table sized for `rows` rows without growing.
    fn with_rows(rows: usize) -> RowTable {
        let slots = if rows == 0 {
            0
        } else {
            (rows * 4 / 3 + 1).next_power_of_two()
        };
        RowTable {
            slots: vec![(FREE, 0); slots],
            len: 0,
        }
    }

    #[inline]
    fn tag(hash: u64) -> u32 {
        (hash >> 32) as u32
    }

    /// The slot a probe for `tag` starts at and the index mask.
    #[inline]
    fn home(&self, tag: u32) -> (usize, usize) {
        let mask = self.slots.len() - 1;
        (tag as usize & mask, mask)
    }

    /// Walks the probe run of `tag` (the table must have slots): the
    /// row tagged `tag` that `eq` accepts, or the free slot ending the
    /// run.
    #[inline]
    fn probe(&self, tag: u32, mut eq: impl FnMut(u32) -> bool) -> std::result::Result<u32, usize> {
        let (mut i, mask) = self.home(tag);
        loop {
            match self.slots[i] {
                (FREE, _) => return Err(i),
                (row, t) if t == tag && eq(row) => return Ok(row),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The row with this tuple hash that `eq` accepts.
    #[inline]
    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(RowTable::tag(hash), eq).ok()
    }

    /// The row with this tuple hash that `eq` accepts, or `None` once
    /// `row` has been entered in its place.
    #[inline]
    fn find_or_insert(&mut self, hash: u64, row: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = RowTable::tag(hash);
        match self.probe(tag, eq) {
            Ok(existing) => Some(existing),
            Err(free) => {
                self.slots[free] = (row, tag);
                self.len += 1;
                None
            }
        }
    }

    /// Makes room for `rows` more rows without growing on the way.
    fn reserve(&mut self, rows: usize) {
        let want = (self.len + rows) * 4 / 3 + 1;
        if rows > 0 && want > self.slots.len() {
            self.resize(want.next_power_of_two());
        }
    }

    /// Doubles the slot array.
    fn grow(&mut self) {
        self.resize((self.slots.len() * 2).max(8));
    }

    /// Moves to `slots` slots, re-placing every row by its tag alone.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(FREE, 0); slots]);
        for (row, tag) in old.into_iter().filter(|&(row, _)| row != FREE) {
            if let Err(free) = self.probe(tag, |_| false) {
                self.slots[free] = (row, tag);
            }
        }
    }

    /// Removes `row` (whose tuple hash is `hash`), shifting the rest of
    /// its probe run back over the hole: every later row that may sit
    /// in the hole (its home is not inside the cyclic range after the
    /// hole) moves in, and the run ends at the first free slot.
    fn remove(&mut self, hash: u64, row: u32) {
        if self.slots.is_empty() {
            return;
        }
        let (mut hole, mask) = self.home(RowTable::tag(hash));
        loop {
            match self.slots[hole].0 {
                FREE => return,
                r if r == row => break,
                _ => hole = (hole + 1) & mask,
            }
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (r, tag) = self.slots[j];
            if r == FREE {
                break;
            }
            let home = tag as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = (r, tag);
                hole = j;
            }
        }
        self.slots[hole] = (FREE, 0);
        self.len -= 1;
    }
}

/// Ids a posting list holds inline before it moves to the heap.
const INLINE_POSTINGS: usize = 4;

/// One posting list: the ascending ids of the rows holding a value in a
/// column. Most values of a column occur in a few rows (an individual's
/// subject or object position), so a list holds up to
/// [`INLINE_POSTINGS`] ids inline: such a value costs its relation no
/// heap allocation, when it first occurs or when the relation is cloned.
#[derive(Clone)]
enum Postings {
    Inline(u32, [AtomId; INLINE_POSTINGS]),
    Heap(Vec<AtomId>),
}

impl Default for Postings {
    fn default() -> Postings {
        Postings::Inline(0, [0; INLINE_POSTINGS])
    }
}

impl Postings {
    #[inline]
    fn as_slice(&self) -> &[AtomId] {
        match self {
            Postings::Inline(len, ids) => &ids[..*len as usize],
            Postings::Heap(ids) => ids,
        }
    }

    /// Appends an id above every id held.
    #[inline]
    fn push(&mut self, id: AtomId) {
        match self {
            Postings::Inline(len, ids) if (*len as usize) < INLINE_POSTINGS => {
                ids[*len as usize] = id;
                *len += 1;
            }
            Postings::Inline(_, ids) => {
                let mut heap = Vec::with_capacity(2 * INLINE_POSTINGS);
                heap.extend_from_slice(ids);
                heap.push(id);
                *self = Postings::Heap(heap);
            }
            Postings::Heap(ids) => ids.push(id),
        }
    }

    /// Removes `id` if held; returns whether the list is empty now.
    fn remove(&mut self, id: AtomId) -> bool {
        match self {
            Postings::Inline(len, ids) => {
                if let Ok(pos) = ids[..*len as usize].binary_search(&id) {
                    ids.copy_within(pos + 1..*len as usize, pos);
                    *len -= 1;
                }
                *len == 0
            }
            Postings::Heap(ids) => {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                ids.is_empty()
            }
        }
    }
}

/// Columnar storage of one predicate at one arity.
///
/// Tuples are stored column-major (`cols[c][row]`), deduplicated through
/// an open-addressed table of row indexes, and indexed per column
/// (`value → ascending AtomIds`). Rows are append-only, so both
/// `atom_ids` and every posting list stay sorted — the chase's delta
/// windows restrict them by binary search.
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
    /// The live rows, found by tuple hash (compared column-wise).
    row_lookup: RowTable,
    /// Per column: value → atoms holding it there (ascending ids).
    col_index: Vec<FxHashMap<TermId, Postings>>,
}

impl Relation {
    fn new(pred: Symbol, arity: usize) -> Relation {
        Relation {
            pred,
            arity,
            cols: vec![Vec::new(); arity],
            atom_ids: Vec::new(),
            row_id: Vec::new(),
            row_lookup: RowTable::default(),
            col_index: vec![FxHashMap::default(); arity],
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
            .map(Postings::as_slice)
            .unwrap_or(&[])
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

    /// Borrowed-key point lookup: the row equal to `key`, if any.
    #[inline]
    pub fn find_row(&self, key: &[TermId]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.arity);
        let hash = tuple_hash(key.iter().copied());
        self.row_lookup
            .find(hash, |row| holds(&self.cols, row, key))
    }

    /// Point lookup *or* append in one pass — the tuple is hashed exactly
    /// once. Returns `(row, inserted)`; `id` is the [`AtomId`] the row
    /// gets if it is new.
    fn find_or_push(&mut self, key: &[TermId], id: AtomId) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.arity);
        let hash = tuple_hash(key.iter().copied());
        let row = self.row_id.len() as u32;
        let cols = &self.cols;
        let found = self
            .row_lookup
            .find_or_insert(hash, row, |r| holds(cols, r, key));
        if let Some(existing) = found {
            return (existing, false);
        }
        for (c, &t) in key.iter().enumerate() {
            self.cols[c].push(t);
            self.col_index[c].entry(t).or_default().push(id);
        }
        self.atom_ids.push(id);
        self.row_id.push(id);
        (row, true)
    }

    /// Indexes the next stored row, whose values are already in the
    /// columns (persistence decode, [`Instance::append`]), as atom `id`:
    /// a live row enters the dedup table and the posting lists, a dead
    /// one only the row directory. Returns the row.
    fn index_row(&mut self, id: AtomId, live: bool) -> std::result::Result<u32, &'static str> {
        let row = self.row_id.len() as u32;
        if self.arity > 0 && row as usize >= self.cols[0].len() {
            return Err("atom directory overruns its relation");
        }
        self.row_id.push(id);
        if !live {
            return Ok(row);
        }
        let cols = &self.cols;
        let key = |r: u32| cols.iter().map(move |col| col[r as usize]);
        let duplicate = self
            .row_lookup
            .find_or_insert(tuple_hash(key(row)), row, |r| key(r).eq(key(row)))
            .is_some();
        if duplicate {
            return Err("duplicate row in relation");
        }
        for (c, col) in self.cols.iter().enumerate() {
            self.col_index[c]
                .entry(col[row as usize])
                .or_default()
                .push(id);
        }
        self.atom_ids.push(id);
        Ok(row)
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
    /// id directory); the dedup table shifts its probe run back. The
    /// column data stays in place — rows are never renumbered — so
    /// `value`/`row` keep working for the dead atom.
    ///
    /// Each removal is O(list length) (`Vec::remove` keeps the lists
    /// sorted for the binary-searchable delta windows), so deleting a
    /// large DRed cone costs O(cone × relation). If cone deletion ever
    /// dominates a profile, batch the unlinks per relation: collect the
    /// dead ids, then one `retain` pass over `atom_ids` and each touched
    /// posting list.
    fn unlink(&mut self, row: u32, id: AtomId) {
        let hash = tuple_hash(self.cols.iter().map(|col| col[row as usize]));
        self.row_lookup.remove(hash, row);
        for (c, col) in self.cols.iter().enumerate() {
            let value = col[row as usize];
            if let Some(ids) = self.col_index[c].get_mut(&value) {
                if ids.remove(id) {
                    self.col_index[c].remove(&value);
                }
            }
        }
        if let Ok(pos) = self.atom_ids.binary_search(&id) {
            self.atom_ids.remove(pos);
        }
    }
}

/// True iff `row` of these columns stores exactly `key`.
#[inline]
fn holds(cols: &[Vec<TermId>], row: u32, key: &[TermId]) -> bool {
    key.iter().zip(cols).all(|(&t, col)| col[row as usize] == t)
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
    /// The derivations of the derived atoms, in id order.
    derivations: Derivations,
    /// Depth at which each null was invented (indexed by `NullId`
    /// without its `null_tag`).
    null_depth: Vec<u32>,
    /// `OWN_NULL` for the own instance of a stacked view (whose rows
    /// may carry its base's untagged nulls too), 0 otherwise.
    null_tag: u32,
    /// Tombstoned atoms, in the order they died — what a view stacked on
    /// this one reads to learn which base atoms it lost.
    graveyard: Vec<AtomId>,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// An empty instance for a view stacked on a base instance: the
    /// nulls it invents are tagged so they never collide with the
    /// base's, which its rows may carry as well.
    pub(crate) fn stacked() -> Self {
        Instance {
            null_tag: OWN_NULL,
            ..Instance::default()
        }
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
        self.meta.len() - self.graveyard.len()
    }

    /// Number of tombstoned atoms.
    pub fn dead_len(&self) -> usize {
        self.graveyard.len()
    }

    /// The tombstoned atoms, in the order they died.
    pub(crate) fn graveyard(&self) -> &[AtomId] {
        &self.graveyard
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

    /// Where the instance stands now: its id watermark, graveyard
    /// length, null count and relation count. Ids, rows, nulls,
    /// relations and the graveyard only ever grow, so what lies past a
    /// mark is exactly what the instance gained since it was taken —
    /// unless it was compacted, which issues every id afresh.
    pub(crate) fn mark(&self) -> InstanceMark {
        InstanceMark {
            len: self.meta.len() as u32,
            dead: self.graveyard.len() as u32,
            nulls: self.null_depth.len() as u32,
            rels: self.relations.len() as u32,
        }
    }

    /// The depths of the nulls this instance invented, by index.
    pub(crate) fn null_depths(&self) -> &[u32] {
        &self.null_depth
    }

    /// Persistence decode: appends `rows`, the part of an instance past
    /// `self.mark()` as the snapshot codec read it, so the instance
    /// ends exactly as the one they were written from — the same ids,
    /// rows, nulls, derivations, tombstones and graveyard order, and
    /// the same insert-monotone sketches (every row, dead or alive,
    /// is observed in insert order). On an empty instance this is the
    /// whole decode. With `stacked_on`, the instance is a stacked
    /// view's own, whose untagged nulls are that base's. Errors are
    /// structural-corruption messages for the codec to wrap.
    pub(crate) fn append(
        &mut self,
        rows: Rows,
        stacked_on: Option<&Instance>,
    ) -> std::result::Result<(), &'static str> {
        let from = self.meta.len() as AtomId;
        let new_atoms = rows.directory.len();
        self.null_depth.extend_from_slice(&rows.null_depths);
        if rows.relations.len() < self.relations.len() {
            return Err("a relation went missing");
        }
        for (i, (pred, arity, cols)) in rows.relations.into_iter().enumerate() {
            if i == self.relations.len() {
                if self.relation(pred, arity).is_some() {
                    return Err("duplicate relation in directory");
                }
                self.relations.push(Relation::new(pred, arity));
                self.rels_of.entry(pred).or_default().push(i as u32);
            }
            let rel = &mut self.relations[i];
            if rel.pred != pred || rel.arity != arity {
                return Err("a relation changed its predicate");
            }
            let added = cols.first().map_or(0, Vec::len);
            if cols.iter().any(|col| col.len() != added) {
                return Err("ragged relation columns");
            }
            for (col, new) in rel.cols.iter_mut().zip(cols) {
                if col.is_empty() {
                    *col = new;
                } else {
                    col.extend(new);
                }
            }
            rel.row_lookup.reserve(added);
        }
        // Tombstones first: an atom appended here may repeat the tuple
        // of an older one that died since, which must leave the dedup
        // table before it enters.
        let mut dead = vec![false; new_atoms];
        for &id in &rows.graveyard {
            if id < from {
                if !self.unlink(id) {
                    return Err("a tombstone names a dead atom");
                }
            } else {
                let slot = dead
                    .get_mut((id - from) as usize)
                    .ok_or("a tombstone names an unknown atom")?;
                if std::mem::replace(slot, true) {
                    return Err("a tombstone names a dead atom");
                }
            }
        }
        let null_tag = self.null_tag;
        let mut derived = self.derivations.records.len() as u32;
        self.meta.reserve(new_atoms);
        for ((rel_idx, is_derived), dead) in rows.directory.into_iter().zip(dead) {
            let id = self.meta.len() as AtomId;
            let rel = self
                .relations
                .get_mut(rel_idx as usize)
                .ok_or("atom directory references an unknown relation")?;
            let row = rel.index_row(id, !dead)?;
            let mut depth = 0;
            for t in rel.row(row) {
                if let Some(n) = t.as_null() {
                    let d = if n.0 & OWN_NULL == null_tag {
                        self.null_depth.get((n.0 & !OWN_NULL) as usize)
                    } else {
                        stacked_on.and_then(|base| base.null_depth.get(n.0 as usize))
                    };
                    depth = depth.max(*d.ok_or("null id out of range")?);
                }
            }
            if !dead {
                self.by_pred.entry(rel.pred).or_default().push(id);
            }
            let derivation = if is_derived {
                derived += 1;
                derived
            } else {
                0
            };
            self.meta.push(Meta {
                rel: rel_idx,
                row,
                depth,
                derivation: derivation | if dead { DEAD } else { 0 },
            });
        }
        if self
            .relations
            .iter()
            .any(|rel| rel.arity > 0 && rel.cols[0].len() != rel.row_id.len())
        {
            return Err("relation rows not covered by atom directory");
        }
        if derived as usize != self.derivations.records.len() + rows.derivations.records.len() {
            return Err("derivation count does not match the directory");
        }
        self.derivations.append(rows.derivations);
        self.graveyard.extend(rows.graveyard);
        Ok(())
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

    /// The provenance of the atom with the given id, as an owned value
    /// (`None` for database atoms). [`Instance::provenance`] borrows it.
    pub fn derivation(&self, id: AtomId) -> Option<Derivation> {
        self.provenance(id).map(|(rule, body)| Derivation {
            rule,
            body: body.to_vec(),
        })
    }

    /// The rule and the body atoms of the atom's recorded derivation,
    /// borrowed from the instance's arena (`None` for database atoms).
    #[inline]
    pub fn provenance(&self, id: AtomId) -> Option<(usize, &[AtomId])> {
        let index = self.meta[id as usize].derivation_index()?;
        Some(self.derivations.get(index))
    }

    /// True iff the atom has not been tombstoned.
    #[inline]
    pub fn is_live(&self, id: AtomId) -> bool {
        !self.meta[id as usize].is_dead()
    }

    /// Tombstones an atom: it disappears from every index (joins,
    /// membership probes, posting lists, iteration) while keeping its id
    /// and row slot, so surviving ids never shift. Returns `false` if the
    /// atom was already dead. The caller is responsible for the semantic
    /// side (DRed over-deletion of dependents — see
    /// [`crate::incremental`]).
    pub fn tombstone(&mut self, id: AtomId) -> bool {
        let dies = self.unlink(id);
        if dies {
            self.graveyard.push(id);
        }
        dies
    }

    /// [`Instance::tombstone`] without the graveyard entry, which the
    /// caller makes: marks the atom dead and removes it from every
    /// index. Returns `false` if it was already dead.
    fn unlink(&mut self, id: AtomId) -> bool {
        let m = &mut self.meta[id as usize];
        if m.is_dead() {
            return false;
        }
        m.derivation |= DEAD;
        let (rel_idx, row) = (m.rel, m.row);
        self.relations[rel_idx as usize].unlink(row, id);
        let pred = self.relations[rel_idx as usize].pred;
        if let Some(ids) = self.by_pred.get_mut(&pred) {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
        }
        true
    }

    /// A compacted copy: live atoms only, dense fresh ids (in the same
    /// relative order), re-pointed provenance, and only the nulls some
    /// live atom mentions, renumbered densely in the same order (with
    /// their depths). Returns the copy plus the [`Renumbering`], which
    /// anything else naming this instance's atoms or nulls — a skolem
    /// memo — must go through. The `BASE_ATOM` provenance ids and base
    /// nulls of a stacked view's own instance are kept as they are.
    pub fn compacted(&self) -> (Instance, Renumbering) {
        let renumbering = self.renumbering();
        let mut out = Instance {
            null_depth: renumbering.null_depths(self).collect(),
            null_tag: self.null_tag,
            meta: Vec::with_capacity(self.live_len()),
            ..Instance::new()
        };
        let mut key: Vec<TermId> = Vec::new();
        let mut body: Vec<AtomId> = Vec::new();
        for (id, m) in self.meta.iter().enumerate() {
            if m.is_dead() {
                continue;
            }
            let rel = &self.relations[m.rel as usize];
            key.clear();
            key.extend(rel.row(m.row).map(|t| renumbering.term(t)));
            let rule = self.provenance(id as AtomId).map(|(rule, old)| {
                body.clear();
                body.extend(old.iter().map(|&b| renumbering.body_atom(b)));
                rule
            });
            let derivation = rule.map(|rule| (rule, body.as_slice()));
            let (new_id, fresh) = out.insert_with_depth(rel.pred, &key, derivation, |_| m.depth);
            debug_assert!(fresh, "live atoms are distinct tuples");
            debug_assert_eq!(renumbering.atom(id as AtomId), new_id);
        }
        (out, renumbering)
    }

    /// How dropping the tombstones renumbers this instance, in one pass
    /// over its live rows: live atoms get dense new ids in id order, and
    /// the own nulls some live atom mentions get dense new indexes in
    /// their old order.
    fn renumbering(&self) -> Renumbering {
        let mut atoms = Vec::with_capacity(self.meta.len());
        let mut next: AtomId = 0;
        for m in &self.meta {
            atoms.push((!m.is_dead()).then_some(next));
            next += AtomId::from(!m.is_dead());
        }
        let mut nulls = vec![GONE; self.null_depth.len()];
        if !nulls.is_empty() {
            for rel in &self.relations {
                for col in &rel.cols {
                    for (t, &id) in col.iter().zip(&rel.row_id) {
                        if let Some(n) = t.as_null().filter(|&n| self.owns_null(n)) {
                            if !self.meta[id as usize].is_dead() {
                                nulls[(n.0 & !OWN_NULL) as usize] = 0;
                            }
                        }
                    }
                }
            }
            for (new, slot) in nulls.iter_mut().filter(|slot| **slot != GONE).enumerate() {
                *slot = new as u32;
            }
        }
        Renumbering {
            atoms,
            nulls,
            null_tag: self.null_tag,
        }
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
        let row = rel.row_lookup.find(hash, |row| {
            terms
                .iter()
                .zip(&rel.cols)
                .all(|(&t, col)| TermId::from_term(t) == Some(col[row as usize]))
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
        let index = self.null_depth.len() as u32;
        assert!(index & OWN_NULL == 0, "null space exhausted");
        self.null_depth.push(depth);
        NullId(index | self.null_tag)
    }

    /// True iff `null` was invented by this instance (a stacked view's
    /// rows may carry its base's nulls too).
    #[inline]
    pub(crate) fn owns_null(&self, null: NullId) -> bool {
        null.0 & OWN_NULL == self.null_tag
    }

    /// The invention depth of a null this instance invented.
    pub fn null_depth(&self, null: NullId) -> u32 {
        debug_assert!(self.owns_null(null), "{null:?} is another instance's");
        self.null_depth[(null.0 & !self.null_tag) as usize]
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
        let derivation = derivation.as_ref().map(|d| (d.rule, d.body.as_slice()));
        self.insert_with_depth(pred, key, derivation, |inst| {
            Layers::flat(inst).depth_of(key)
        })
    }

    /// [`Instance::insert_ids`] with the derivation borrowed as `(rule,
    /// body)` — recorded into the arena only if the row is fresh — and
    /// the depth of a fresh row computed by `depth`: a stacked view's
    /// rows may carry its base's nulls, whose depths only the base
    /// records.
    pub(crate) fn insert_with_depth(
        &mut self,
        pred: Symbol,
        key: &[TermId],
        derivation: Option<(usize, &[AtomId])>,
        depth: impl FnOnce(&Instance) -> u32,
    ) -> (AtomId, bool) {
        let rel_idx = self.relation_mut(pred, key.len());
        let id = self.meta.len() as AtomId;
        let (row, inserted) = self.relations[rel_idx as usize].find_or_push(key, id);
        if !inserted {
            let existing = self.relations[rel_idx as usize]
                .row_to_id(row)
                .expect("a deduplicated row is live");
            return (existing, false);
        }
        let depth = depth(self);
        self.by_pred.entry(pred).or_default().push(id);
        let derivation = derivation.map_or(0, |(rule, body)| {
            self.derivations.push(rule, body) as u32 + 1
        });
        self.meta.push(Meta {
            rel: rel_idx,
            row,
            depth,
            derivation,
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
            .filter(move |&id| !self.meta[id as usize].is_dead())
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

/// The tuples one body atom matches against: a relation, the instance
/// whose directory maps its ids to rows, and the tag those ids carry in
/// provenance (`BASE_ATOM` for a stacked view's base, 0 otherwise).
#[derive(Clone, Copy)]
pub(crate) struct Source<'a> {
    pub(crate) rel: &'a Relation,
    pub(crate) inst: &'a Instance,
    pub(crate) tag: AtomId,
}

impl Source<'_> {
    /// True for a base relation: read in place, never indexed or written.
    #[inline]
    pub(crate) fn read_only(&self) -> bool {
        self.tag != 0
    }
}

/// What a chase reads: its own instance, optionally stacked on a base
/// view's instance that it reads in place and never writes. A predicate
/// lives in exactly one layer — the own one when it has a relation there
/// (a stacked view's own predicates are the ones its program derives or
/// seeds), else the base.
#[derive(Clone, Copy)]
pub(crate) struct Layers<'a> {
    pub(crate) own: &'a Instance,
    pub(crate) base: Option<&'a Instance>,
}

impl<'a> Layers<'a> {
    /// An instance read on its own.
    pub(crate) fn flat(own: &'a Instance) -> Layers<'a> {
        Layers { own, base: None }
    }

    /// The relation holding `pred` at `arity`, in whichever layer it
    /// lives.
    #[inline]
    pub(crate) fn source(self, pred: Symbol, arity: usize) -> Option<Source<'a>> {
        if let Some(rel) = self.own.relation(pred, arity) {
            return Some(Source {
                rel,
                inst: self.own,
                tag: 0,
            });
        }
        let base = self.base?;
        Some(Source {
            rel: base.relation(pred, arity)?,
            inst: base,
            tag: BASE_ATOM,
        })
    }

    /// Borrowed-key membership over an already-encoded row.
    #[inline]
    pub(crate) fn contains_ids(self, pred: Symbol, key: &[TermId]) -> bool {
        self.source(pred, key.len())
            .is_some_and(|s| s.rel.find_row(key).is_some())
    }

    /// The encoded tuple of an atom as provenance names it (a
    /// `BASE_ATOM`-tagged id is the base's), live or tombstoned.
    pub(crate) fn key_of(self, id: AtomId) -> Vec<TermId> {
        match self.base {
            Some(base) if id & BASE_ATOM != 0 => base.key_of(id ^ BASE_ATOM),
            _ => self.own.key_of(id),
        }
    }

    /// The predicate of an atom as provenance names it.
    pub(crate) fn pred_of(self, id: AtomId) -> Symbol {
        match self.base {
            Some(base) if id & BASE_ATOM != 0 => base.pred_of(id ^ BASE_ATOM),
            _ => self.own.pred_of(id),
        }
    }

    /// The invention depth of a null of either layer.
    pub(crate) fn null_depth(self, null: NullId) -> u32 {
        match self.base {
            Some(base) if !self.own.owns_null(null) => base.null_depth(null),
            _ => self.own.null_depth(null),
        }
    }

    /// The deepest null of `key` (0 if it has none): the depth of the
    /// atom it encodes.
    pub(crate) fn depth_of(self, key: &[TermId]) -> u32 {
        key.iter()
            .filter_map(|t| t.as_null())
            .map(|n| self.null_depth(n))
            .max()
            .unwrap_or(0)
    }
}

/// The number a [`Renumbering`] gives a null it drops.
const GONE: u32 = u32::MAX;

/// How an instance is renumbered once its tombstones are dropped
/// ([`Instance::compacted`]): the new id of each live atom and the new
/// index of each own null a live atom mentions. A stacked view's base
/// atoms and nulls keep their numbers.
#[derive(Clone, Debug)]
pub struct Renumbering {
    /// Old atom id → new atom id (`None`: tombstoned).
    pub atoms: Vec<Option<AtomId>>,
    /// Old own-null index → new index (`GONE`: no live atom mentions it).
    nulls: Vec<u32>,
    null_tag: u32,
}

impl Renumbering {
    /// The new id of a live atom.
    #[inline]
    pub(crate) fn atom(&self, id: AtomId) -> AtomId {
        self.atoms[id as usize].expect(
            "a live atom's provenance references live atoms \
             (dependents are over-deleted before their support)",
        )
    }

    /// `t` after renumbering a term of a live atom: its own nulls
    /// renumbered, a base's nulls and constants as they are.
    #[inline]
    pub(crate) fn term(&self, t: TermId) -> TermId {
        self.try_term(t).expect("a live atom's nulls are live")
    }

    /// [`Renumbering::term`] for a term that may name a dropped null
    /// (`None` then) — a skolem memo's.
    pub(crate) fn try_term(&self, t: TermId) -> Option<TermId> {
        let Some(null) = t.as_null() else {
            return Some(t);
        };
        if null.0 & OWN_NULL != self.null_tag {
            return Some(t);
        }
        let index = self.nulls[(null.0 & !OWN_NULL) as usize];
        (index != GONE).then(|| TermId::from_null(NullId(index | self.null_tag)))
    }

    /// A provenance id of a live atom renumbered: its own atoms through
    /// this renumbering, its base's (`BASE_ATOM`) as they are.
    #[inline]
    pub(crate) fn body_atom(&self, b: AtomId) -> AtomId {
        if b & BASE_ATOM != 0 {
            b
        } else {
            self.atom(b)
        }
    }

    /// The depths of the nulls kept, in their new order.
    fn null_depths<'a>(&'a self, inst: &'a Instance) -> impl Iterator<Item = u32> + 'a {
        self.nulls
            .iter()
            .zip(&inst.null_depth)
            .filter(|(&n, _)| n != GONE)
            .map(|(_, &depth)| depth)
    }
}

/// Compaction trigger, for views and the database alike: tombstones
/// both reach this count and outnumber half the live atoms.
pub(crate) const COMPACT_MIN_DEAD: usize = 256;

impl Instance {
    /// Whether tombstones dominate enough to compact ([`COMPACT_MIN_DEAD`]).
    pub(crate) fn wants_compaction(&self) -> bool {
        self.dead_len() >= COMPACT_MIN_DEAD && self.dead_len() * 2 >= self.live_len()
    }
}

/// A database: a finite instance over constants only (§3.2).
#[derive(Default, Clone)]
pub struct Database {
    instance: Instance,
    /// Times the instance was compacted, which issues every id afresh.
    compactions: u64,
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

    /// The backing instance, for a checkpoint segment to extend
    /// (persistence decode).
    pub(crate) fn instance_mut(&mut self) -> &mut Instance {
        &mut self.instance
    }

    /// Wraps a decoded instance (persistence decode). The caller
    /// guarantees database invariants: constants only, no derivations.
    pub(crate) fn from_instance(instance: Instance) -> Database {
        Database {
            instance,
            compactions: 0,
        }
    }

    /// Times removals made the database compact its rows. A checkpoint
    /// segment names the database's atoms by id, so it can extend a
    /// chain only while this stays where the chain started.
    pub fn compactions(&self) -> u64 {
        self.compactions
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
    /// position `c`); a repeated row is dropped, so the result is the
    /// database `add_row`-ing every input row in order builds. Errors
    /// only on ragged columns.
    pub fn bulk_rows(pred: Symbol, columns: Vec<Vec<Symbol>>) -> Result<Database> {
        let arity = columns.len();
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(TriqError::InvalidProgram(format!(
                "bulk rows for {pred} have ragged columns"
            )));
        }
        // Dedup in insert order: the first occurrence of a row is kept.
        let mut first_of = RowTable::with_rows(rows);
        let mut out: Vec<Vec<TermId>> = (0..arity).map(|_| Vec::with_capacity(rows)).collect();
        let mut kept = 0;
        let mut key: Vec<TermId> = Vec::with_capacity(arity);
        for r in 0..rows {
            key.clear();
            key.extend(columns.iter().map(|c| TermId::from_const(c[r])));
            let hash = tuple_hash(key.iter().copied());
            if first_of
                .find_or_insert(hash, kept, |row| holds(&out, row, &key))
                .is_none()
            {
                for (col, &t) in out.iter_mut().zip(&key) {
                    col.push(t);
                }
                kept += 1;
            }
        }
        let rows = Rows {
            relations: vec![(pred, arity, out)],
            directory: vec![(0, false); kept as usize],
            ..Rows::default()
        };
        let mut instance = Instance::new();
        instance
            .append(rows, None)
            .map_err(|m| TriqError::InvalidProgram(format!("bulk load: {m}")))?;
        Ok(Database::from_instance(instance))
    }

    /// Removes a fact given as interned symbols; returns `true` if it was
    /// present. Removal tombstones the row, and once tombstones dominate
    /// by the rule views compact by, the database compacts too, so its
    /// rows stay O(live facts) under churn.
    pub fn remove_row(&mut self, pred: Symbol, constants: &[Symbol]) -> bool {
        let key: Vec<TermId> = constants.iter().copied().map(TermId::from_const).collect();
        let Some(id) = self.instance.find_ids(pred, &key) else {
            return false;
        };
        let removed = self.instance.tombstone(id);
        if self.instance.wants_compaction() {
            self.instance = self.instance.compacted().0;
            self.compactions += 1;
        }
        removed
    }

    /// Removes a fact given as strings; returns `true` if it was present.
    pub fn remove_fact(&mut self, pred: &str, constants: &[&str]) -> bool {
        let symbols: Vec<Symbol> = constants.iter().map(|c| Symbol::new(c)).collect();
        self.remove_row(Symbol::new(pred), &symbols)
    }

    /// The facts of the given predicates, as a database of their own.
    pub fn select(&self, preds: impl IntoIterator<Item = Symbol>) -> Database {
        let mut out = Database::new();
        for pred in preds {
            for &id in self.instance.ids_by_pred(pred) {
                out.instance
                    .insert_ids(pred, &self.instance.key_of(id), None);
            }
        }
        out
    }

    /// The facts as the seed of a stacked view's own instance (see
    /// [`Instance::stacked`]), consuming the database.
    pub(crate) fn into_stacked_instance(self) -> Instance {
        let mut seed = Instance::stacked();
        for (_, atom) in self.instance.iter() {
            seed.insert(atom, None);
        }
        seed
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.instance.live_len()
    }

    /// Number of rows held: the facts and the removed ones not yet
    /// compacted away.
    pub fn rows(&self) -> usize {
        self.instance.len()
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

    /// The facts as the seed of a chase, consuming the database: its
    /// instance is moved as it is, or compacted when it has seen
    /// removals (see [`Database::to_instance`]).
    pub(crate) fn into_instance(self) -> Instance {
        if self.instance.dead_len() == 0 {
            self.instance
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
            .filter(|m| !m.is_dead())
            .flat_map(|m| inst.relations[m.rel as usize].row(m.row))
            .filter_map(|t| t.as_const())
            .collect()
    }

    /// Membership test for a fully-ground atom.
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.instance.contains(atom)
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

    /// A duplicate insert writes nothing: no atom is ever changed in
    /// place, which is what lets a checkpoint segment carry an
    /// instance's change as the rows past a mark.
    #[test]
    fn a_duplicate_insert_writes_nothing() {
        let mut inst = Instance::new();
        let id = inst.insert_fact("p", &["a"]);
        let mark = inst.mark();
        let (again, fresh) = inst.insert(
            GroundAtom::new(intern("p"), vec![Term::constant("a")].into()),
            Some(Derivation {
                rule: 0,
                body: vec![],
            }),
        );
        assert_eq!((again, fresh), (id, false));
        assert_eq!(inst.mark(), mark);
        assert_eq!(inst.derivation(id), None, "the fact stays underived");
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
        let remap = remap.atoms;
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
