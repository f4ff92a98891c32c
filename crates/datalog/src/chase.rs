//! The chase procedure (§3.2) with stratified negation, constraints and
//! provenance, implemented as a semi-naive fixpoint per stratum over the
//! columnar [`Instance`] store.
//!
//! The paper defines the semantics of a Datalog∃,¬s,⊥ program via the
//! (possibly infinite) chase `S₀ = chase(D, ex(Π)₀)`,
//! `Sᵢ = chase(S_{i-1}, (ex(Π)ᵢ)^{S_{i-1}})`. A real engine needs a
//! terminating realization; we provide two existential strategies:
//!
//! * [`ExistentialStrategy::Skolem`] — the semi-oblivious chase: the null
//!   created for an existential variable is a function of the rule and the
//!   frontier values, memoized, with a configurable *invention-depth* bound
//!   (a null built from depth-`d` nulls has depth `d+1`). This terminates
//!   on every program and is the workhorse; for the warded programs of
//!   §6 the *ground* atoms (which is all a query answer may contain)
//!   saturate at shallow depth, and the engine reports via
//!   [`ChaseStats::truncated`] whether the bound was ever hit.
//! * [`ExistentialStrategy::Restricted`] — the standard restricted chase:
//!   an existential rule fires only when its head is not already satisfied
//!   by an extension of the match. Fewer nulls, same ground semantics,
//!   but termination is not guaranteed in general, hence the same depth
//!   bound applies.
//!
//! Both strategies respect the paper's indefinite-grounding treatment of
//! nulls under negation: negated atoms are evaluated against the closed
//! lower strata (nulls compare by identity, as the grounding of §3.2
//! prescribes).
//!
//! # Execution model
//!
//! Rules are *compiled*: every rule variable becomes a slot index, and
//! every fixed term a [`TermId`], so a candidate match is a flat
//! `Vec<Option<TermId>>` — the join loop compares `u32`s against the
//! relation columns and allocates nothing per probed tuple.
//!
//! Within a stratum round, match *enumeration* is read-only (semi-naive
//! delta windows cap every candidate range at the round's start length):
//! every rule's matches are collected into one flat buffer, sorted into
//! a canonical order (by their chosen body-atom ids), and *applied*
//! serially in rule order. The canonical order makes the output —
//! [`AtomId`]s, nulls and provenance — independent of the join order
//! the planner picked (tests force other join orders through
//! `crate::schedule`). Every chase runs on the thread that asked for
//! it: a served request is one small incremental chase, and the server
//! gets its parallelism from serving requests side by side, not from
//! splitting one. A rule whose
//! pivot atom leads its join order additionally routes the leading scan
//! through the vectorized column kernels of [`crate::kernels`] when the
//! relation is dense and the filter is unselective enough
//! ([`ChaseStats::kernel_filter_rows`] counts the rows so screened).

use crate::instance::{AtomId, Database, Instance, Layers, Relation, Renumbering, Source};
use crate::kernels;
use crate::planner::{self, BoundOrder, ProbeKind, RulePlan};
use crate::schedule::{JoinOrder, Schedule};
use crate::{Atom, Builtin, Fixed, Program, Rule, Stratification, Union, Unions};
use std::collections::HashMap;
use std::sync::Arc;
use triq_common::{Result, Symbol, Term, TermId, TriqError, VarId};
use triq_obs::{self as obs, Counter, Counters, Phase, Recorder, Timer};

/// How existential rules instantiate their head nulls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExistentialStrategy {
    /// Semi-oblivious (skolem) chase with memoized nulls.
    Skolem,
    /// Restricted chase: fire only if the head is not already satisfied.
    Restricted,
}

/// Chase configuration: only what can change `Π(D)` or whether it is
/// computed. How the matches are enumerated is no part of it (see
/// `crate::schedule`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Existential strategy.
    pub strategy: ExistentialStrategy,
    /// Maximum null invention depth; rule applications that would create a
    /// deeper null are skipped and [`ChaseStats::truncated`] is set.
    pub max_null_depth: u32,
    /// Hard budget on the total number of stored atoms.
    pub max_atoms: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            strategy: ExistentialStrategy::Skolem,
            max_null_depth: 6,
            max_atoms: 10_000_000,
        }
    }
}

/// Counters describing a chase run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Atoms derived beyond the database.
    pub derived: usize,
    /// Fixpoint rounds summed over strata.
    pub rounds: usize,
    /// Nulls invented.
    pub nulls: usize,
    /// Candidate tuples examined by the join loops (index probes).
    pub probes: u64,
    /// Rows examined by the vectorized column filter kernels
    /// ([`crate::kernels`]) while enumerating leading-atom scans — the
    /// work that runs as chunked compare loops instead of per-row hash
    /// probes.
    pub kernel_filter_rows: u64,
    /// Rule join plans compiled from live statistics (first stats-driven
    /// planning of a rule within a run).
    pub plans_compiled: usize,
    /// Plans recomputed at stratum entry because relation cardinalities
    /// drifted past the planner's threshold.
    pub replans: usize,
    /// On-demand joint hash indexes built (rebuilds after tombstone or
    /// compaction invalidation count again).
    pub index_builds: usize,
    /// Probes served by a hash index (whole-tuple probes at fully-bound
    /// plan positions plus joint-index lookups) instead of posting-list
    /// scans.
    pub index_probes: u64,
    /// Whether some existential application was skipped because it would
    /// exceed `max_null_depth`. When `false`, the computed instance is the
    /// *exact* chase (it happened to be finite within the bound).
    pub truncated: bool,
}

impl std::ops::AddAssign for ChaseStats {
    /// Accumulates another run (a resumed chase over the same instance).
    fn add_assign(&mut self, run: ChaseStats) {
        self.derived += run.derived;
        self.rounds += run.rounds;
        self.nulls += run.nulls;
        self.probes += run.probes;
        self.kernel_filter_rows += run.kernel_filter_rows;
        self.plans_compiled += run.plans_compiled;
        self.replans += run.replans;
        self.index_builds += run.index_builds;
        self.index_probes += run.index_probes;
        self.truncated |= run.truncated;
    }
}

impl ChaseStats {
    /// Adds this run's work to the engine counter table — the one place
    /// chase work is mapped onto [`Counter`]s (`rounds` and `nulls`
    /// describe the outcome, not work, and have no entry; a `truncated`
    /// run ticks [`Counter::ChasesTruncated`]).
    pub fn count_into(&self, counters: &Counters) {
        counters.add(Counter::ChasesTruncated, u64::from(self.truncated));
        counters.add(Counter::AtomsDerived, self.derived as u64);
        counters.add(Counter::JoinProbes, self.probes);
        counters.add(Counter::PlansCompiled, self.plans_compiled as u64);
        counters.add(Counter::Replans, self.replans as u64);
        counters.add(Counter::IndexBuilds, self.index_builds as u64);
        counters.add(Counter::IndexProbes, self.index_probes);
        counters.add(Counter::KernelFilterRows, self.kernel_filter_rows);
    }
}

/// The result of chasing a database with a program. `Clone` so the
/// incremental subsystem can snapshot a maintained outcome behind an
/// `Arc` and mutate its own copy.
#[derive(Clone, Debug)]
pub struct ChaseOutcome {
    /// The computed (finite) instance `Π(D)` (up to the depth bound).
    pub instance: Instance,
    /// Whether some constraint fired, i.e. `Π(D) = ⊤` (§3.2).
    pub inconsistent: bool,
    /// Counters.
    pub stats: ChaseStats,
}

// ---------------------------------------------------------------------------
// Compiled form: variables become slot indexes, fixed terms become TermIds.
// ---------------------------------------------------------------------------

/// A term of a compiled atom: a fixed ground value or a slot.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CTerm {
    Fixed(TermId),
    Slot(u16),
}

#[derive(Clone, Debug)]
pub(crate) struct CAtom {
    pub(crate) pred: Symbol,
    pub(crate) terms: Vec<CTerm>,
    /// The other relations the atom reads when its predicate is a union
    /// ([`Unions`]), in declaration order; empty for every other atom.
    pub(crate) alts: Vec<Alt>,
}

/// One more relation a union atom reads: the atom as that relation's
/// rows match it (its terms without an inserted column, or with a
/// selected one), the column the two do not share, and the slot an
/// inserted column binds when the atom has a variable there.
#[derive(Clone, Debug)]
pub(crate) struct Alt {
    pub(crate) atom: CAtom,
    pub(crate) fixed: Option<Fixed<TermId>>,
    pub(crate) bind: Option<(u16, TermId)>,
}

impl Alt {
    /// How `terms` read `u`'s source, or `None` when a constant of the
    /// atom contradicts an inserted column.
    fn of(pred: Symbol, terms: &[CTerm], u: &Union) -> Option<Alt> {
        debug_assert_eq!(pred, u.pred);
        let mut atom = CAtom {
            pred: u.from,
            terms: terms.to_vec(),
            alts: Vec::new(),
        };
        let fixed = u.fixed.map(Fixed::to_ids);
        let bind = match fixed {
            None => None,
            Some(Fixed::Select(col, k)) => {
                atom.terms.insert(col, CTerm::Fixed(k));
                None
            }
            Some(Fixed::Insert(col, k)) => match atom.terms.remove(col) {
                CTerm::Fixed(v) if v != k => return None,
                CTerm::Fixed(_) => None,
                CTerm::Slot(s) => Some((s, k)),
            },
        };
        Some(Alt { atom, fixed, bind })
    }

    /// The union predicate's tuple for `key`, a row of the source.
    pub(crate) fn widen(&self, key: &mut Vec<TermId>) {
        let selected = Fixed::widen(self.fixed, key);
        debug_assert!(selected, "a source row read is selected");
    }
}

impl CAtom {
    /// Whether another source than the atom's own relation holds `key`
    /// (a tuple of the atom's predicate); `buf` is scratch.
    pub(crate) fn held_by_alt(
        &self,
        layers: Layers<'_>,
        key: &[TermId],
        buf: &mut Vec<TermId>,
    ) -> bool {
        self.alts.iter().any(|alt| {
            Fixed::narrow(alt.fixed, key, buf)
                && layers
                    .source(alt.atom.pred, buf.len())
                    .is_some_and(|s| s.rel.find_row(buf).is_some())
        })
    }

    /// Whether any relation the atom reads holds `key`.
    pub(crate) fn holds(&self, layers: Layers<'_>, key: &[TermId], buf: &mut Vec<TermId>) -> bool {
        layers.contains_ids(self.pred, key) || self.held_by_alt(layers, key, buf)
    }

    /// The tuple of the atom's predicate that the stored atom `id`
    /// (of its own relation or of a source) stands for, live or
    /// tombstoned.
    pub(crate) fn key_of(&self, layers: Layers<'_>, id: AtomId) -> Vec<TermId> {
        let mut key = layers.key_of(id);
        if !self.alts.is_empty() {
            let pred = layers.pred_of(id);
            if let Some(alt) = self.alts.iter().find(|a| a.atom.pred == pred) {
                alt.widen(&mut key);
            }
        }
        key
    }
}

impl Unions {
    /// The rows of unions' own relations that one of their sources holds
    /// too, so that a body atom reads their tuple twice. A build stores
    /// none; a source gains one when it gains a tuple a rule had stored
    /// first (see "The served regime closure" in `docs/ARCHITECTURE.md`
    /// for the bound). A tuple read twice through two sources is counted
    /// too: the one source that is a union itself (`type`, read by
    /// `triple1`) then holds it as an own row that its source holds.
    pub fn overlap(&self, instance: &Instance) -> usize {
        let mut buf = Vec::new();
        let mut count = 0;
        for (i, u) in self.iter().enumerate() {
            let Some(rel) = instance.relation(u.pred, u.arity) else {
                continue;
            };
            if self.iter().take(i).any(|o| o.pred == u.pred) {
                continue; // each union once
            }
            for &id in rel.atom_ids() {
                let key = instance.key_of(id);
                let mut held = |s: &Union| {
                    Fixed::narrow(s.fixed.map(Fixed::to_ids), &key, &mut buf)
                        && instance.contains_ids(s.from, &buf)
                };
                count += usize::from(self.sources(u.pred, u.arity).any(&mut held));
            }
        }
        count
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum CBuiltin {
    Eq(CTerm, CTerm),
    Neq(CTerm, CTerm),
    /// An atom of the constant test ([`Unions::constant`]): holds iff
    /// the term is a constant, or for a negated atom iff it is not.
    Constant(CTerm, bool),
}

/// A constraint body with slot-indexed variables.
#[derive(Clone, Debug)]
pub(crate) struct CompiledConstraint {
    n_slots: usize,
    atoms: Vec<CAtom>,
    builtins: Vec<CBuiltin>,
}

/// A rule with slot-indexed variables.
#[derive(Clone, Debug)]
pub(crate) struct CompiledRule {
    pub(crate) n_slots: usize,
    pub(crate) body_pos: Vec<CAtom>,
    pub(crate) body_neg: Vec<CAtom>,
    pub(crate) builtins: Vec<CBuiltin>,
    pub(crate) heads: Vec<CAtom>,
    /// Slots of frontier variables, in ascending `VarId` order (stable
    /// skolem keys).
    pub(crate) frontier_slots: Vec<u16>,
    /// Slots of the existential variables, in declaration order.
    pub(crate) exist_slots: Vec<u16>,
}

struct SlotMap {
    map: HashMap<VarId, u16>,
}

impl SlotMap {
    fn new() -> Self {
        SlotMap {
            map: HashMap::new(),
        }
    }

    fn slot(&mut self, v: VarId) -> u16 {
        let next = self.map.len() as u16;
        *self.map.entry(v).or_insert(next)
    }

    fn compile_atom(&mut self, atom: &Atom, unions: &Unions) -> CAtom {
        let terms: Vec<CTerm> = atom.terms.iter().map(|&t| self.compile_term(t)).collect();
        let alts = unions
            .sources(atom.pred, atom.arity())
            .filter_map(|u| Alt::of(atom.pred, &terms, u))
            .collect();
        CAtom {
            pred: atom.pred,
            terms,
            alts,
        }
    }

    fn compile_term(&mut self, t: Term) -> CTerm {
        match t {
            Term::Var(v) => CTerm::Slot(self.slot(v)),
            other => CTerm::Fixed(TermId::from_term(other).expect("ground term")),
        }
    }

    /// Compiles body atoms (negated ones unless `positive`), turning
    /// each atom of the constant test into a builtin pushed to `tests`.
    fn compile_body(
        &mut self,
        atoms: &[Atom],
        positive: bool,
        unions: &Unions,
        tests: &mut Vec<CBuiltin>,
    ) -> Vec<CAtom> {
        let mut out = Vec::with_capacity(atoms.len());
        for atom in atoms {
            match &atom.terms[..] {
                &[t] if unions.constant() == Some(atom.pred) => {
                    tests.push(CBuiltin::Constant(self.compile_term(t), positive))
                }
                _ => out.push(self.compile_atom(atom, unions)),
            }
        }
        out
    }

    fn compile_builtins(&mut self, builtins: &[Builtin], out: &mut Vec<CBuiltin>) {
        out.extend(builtins.iter().map(|b| match *b {
            Builtin::Eq(x, y) => CBuiltin::Eq(self.compile_term(x), self.compile_term(y)),
            Builtin::Neq(x, y) => CBuiltin::Neq(self.compile_term(x), self.compile_term(y)),
        }));
    }
}

fn compile_constraint(c: &crate::Constraint, unions: &Unions) -> CompiledConstraint {
    let mut slot_map = SlotMap::new();
    let mut builtins = Vec::new();
    let atoms = slot_map.compile_body(&c.body, true, unions, &mut builtins);
    slot_map.compile_builtins(&c.builtins, &mut builtins);
    CompiledConstraint {
        n_slots: slot_map.map.len(),
        atoms,
        builtins,
    }
}

pub(crate) fn compile_rule(rule: &Rule, unions: &Unions) -> CompiledRule {
    let mut slots = SlotMap::new();
    let mut builtins = Vec::new();
    let body_pos = slots.compile_body(&rule.body_pos, true, unions, &mut builtins);
    let body_neg = slots.compile_body(&rule.body_neg, false, unions, &mut builtins);
    slots.compile_builtins(&rule.builtins, &mut builtins);
    let heads = rule
        .head
        .iter()
        .map(|a| slots.compile_atom(a, unions))
        .collect();
    let mut frontier: Vec<VarId> = rule.frontier().into_iter().collect();
    frontier.sort_unstable();
    let frontier_slots = frontier.iter().map(|&v| slots.slot(v)).collect();
    let exist_slots = rule.exist_vars.iter().map(|&v| slots.slot(v)).collect();
    CompiledRule {
        n_slots: slots.map.len(),
        body_pos,
        body_neg,
        builtins,
        heads,
        frontier_slots,
        exist_slots,
    }
}

impl CompiledRule {
    /// The frontier values of a match — the rule's half of a skolem memo
    /// key. Every frontier slot must be bound.
    pub(crate) fn frontier_key(&self, slots: &Slots) -> Box<[TermId]> {
        self.frontier_slots
            .iter()
            .map(|&s| slots[s as usize].expect("frontier slot bound"))
            .collect()
    }
}

/// A slot assignment during matching (usually a strided slice of a flat
/// per-round buffer).
pub(crate) type Slots = [Option<TermId>];

#[inline]
pub(crate) fn resolve(t: CTerm, slots: &Slots) -> Option<TermId> {
    match t {
        CTerm::Fixed(v) => Some(v),
        CTerm::Slot(s) => slots[s as usize],
    }
}

/// The most selective candidate id slice for `atom` under `slots` within
/// `range` (smallest per-column posting list, falling back to the
/// relation's full extent). Ids are ascending, so the range restriction is
/// binary search. `rel` is the relation matching the atom's predicate and
/// arity (`None` when no such tuples exist).
fn candidates<'a>(
    rel: Option<&'a Relation>,
    atom: &CAtom,
    slots: &Slots,
    range: (AtomId, AtomId),
) -> &'a [AtomId] {
    let Some(rel) = rel else { return &[] };
    let mut best: &[AtomId] = rel.atom_ids();
    for (i, &t) in atom.terms.iter().enumerate() {
        if let Some(value) = resolve(t, slots) {
            let ids = rel.ids_by_column(i, value);
            if ids.len() < best.len() {
                best = ids;
            }
        }
    }
    // Window the ascending list: short lists take the branch-free linear
    // count kernel (one vectorized pass beats binary-search branching),
    // long ones binary-search.
    let (lo, hi) = if best.len() <= SHORT_LIST {
        (
            kernels::count_lt(best, range.0),
            kernels::count_lt(best, range.1),
        )
    } else {
        (
            best.partition_point(|&id| id < range.0),
            best.partition_point(|&id| id < range.1),
        )
    };
    &best[lo..hi]
}

/// Posting lists at most this long are windowed with the linear
/// [`kernels::count_lt`] kernel instead of binary search.
const SHORT_LIST: usize = 128;

/// One relation a body atom reads, resolved in the layers: the pattern
/// its rows must match, and the slot its fixed column binds (see
/// [`Alt`]). A single-source atom has one read, its own relation.
#[derive(Clone, Copy)]
pub(crate) struct Read<'a> {
    pub(crate) src: Source<'a>,
    pub(crate) atom: &'a CAtom,
    bind: Option<(u16, TermId)>,
    /// Whether the pattern has the atom's own columns (joint indexes
    /// are keyed by them).
    same_columns: bool,
}

impl<'a> Read<'a> {
    /// Binds the fixed column's slot: `None` when it is bound to
    /// another constant, else whether it was bound here (and must be
    /// unbound after).
    #[inline]
    fn prebind(&self, slots: &mut Slots) -> Option<Option<u16>> {
        let Some((s, k)) = self.bind else {
            return Some(None);
        };
        match slots[s as usize] {
            Some(v) if v != k => None,
            Some(_) => Some(None),
            None => {
                slots[s as usize] = Some(k);
                Some(Some(s))
            }
        }
    }

    /// The read's candidate ids under `slots` within its layer's part
    /// of `window`.
    #[inline]
    fn candidates(&self, slots: &Slots, window: Window) -> &'a [AtomId] {
        if self
            .bind
            .is_some_and(|(s, k)| slots[s as usize].is_some_and(|v| v != k))
        {
            return &[];
        }
        candidates(Some(self.src.rel), self.atom, slots, window.of(self.src))
    }

    /// Binds each of `cands` in turn (the read's fixed column first)
    /// and calls `next` with atom `i` chosen; stops when `next` returns
    /// `false`, which it then returns.
    #[inline]
    fn for_each_row(
        &self,
        i: usize,
        cands: &[AtomId],
        slots: &mut Slots,
        chosen: &mut [AtomId],
        mut next: impl FnMut(&mut Slots, &mut [AtomId]) -> bool,
    ) -> bool {
        if cands.is_empty() {
            return true;
        }
        let Some(bound) = self.prebind(slots) else {
            return true;
        };
        let mut trail = Trail::default();
        let mut keep_going = true;
        for &id in cands {
            if !bind_row(
                self.src.rel,
                self.atom,
                self.src.inst.row_of(id),
                slots,
                &mut trail,
            ) {
                continue;
            }
            chosen[i] = id | self.src.tag;
            keep_going = next(slots, chosen);
            trail.unbind(slots);
            if !keep_going {
                break;
            }
        }
        if let Some(s) = bound {
            slots[s as usize] = None;
        }
        keep_going
    }
}

/// Atoms whose read boundaries [`Reads`] keeps inline.
const INLINE_ENDS: usize = 8;

/// The reads of each of a list of atoms, in atom order: one allocation
/// for up to [`INLINE_ENDS`] atoms.
pub(crate) struct Reads<'a> {
    reads: Vec<Read<'a>>,
    /// Atom `i`'s reads are `reads[end(i - 1)..end(i)]`: the ends are
    /// inline, or all in `spill` for a longer body.
    ends: [u32; INLINE_ENDS],
    spill: Vec<u32>,
}

impl<'a> Reads<'a> {
    /// Resolves every relation `atoms` read in `layers`: an atom's own
    /// relation, then its union sources', each where it exists.
    pub(crate) fn resolve(layers: Layers<'a>, atoms: &'a [CAtom]) -> Reads<'a> {
        let most = atoms.iter().map(|a| 1 + a.alts.len()).sum();
        let mut reads = Vec::with_capacity(most);
        let mut ends = [0; INLINE_ENDS];
        let mut spill = Vec::new();
        for (i, atom) in atoms.iter().enumerate() {
            if let Some(src) = layers.source(atom.pred, atom.terms.len()) {
                reads.push(Read {
                    src,
                    atom,
                    bind: None,
                    same_columns: true,
                });
            }
            for alt in &atom.alts {
                if let Some(src) = layers.source(alt.atom.pred, alt.atom.terms.len()) {
                    reads.push(Read {
                        src,
                        atom: &alt.atom,
                        bind: alt.bind,
                        same_columns: alt.fixed.is_none(),
                    });
                }
            }
            match atoms.len() <= INLINE_ENDS {
                true => ends[i] = reads.len() as u32,
                false => spill.push(reads.len() as u32),
            }
        }
        Reads { reads, ends, spill }
    }

    #[inline]
    fn end(&self, i: usize) -> usize {
        match self.spill.is_empty() {
            true => self.ends[i] as usize,
            false => self.spill[i] as usize,
        }
    }

    /// Atom `i`'s reads.
    #[inline]
    pub(crate) fn of(&self, i: usize) -> &[Read<'a>] {
        let start = if i == 0 { 0 } else { self.end(i - 1) };
        &self.reads[start..self.end(i)]
    }

    /// Whether atom `i` has nothing inside `window` in any of its reads.
    fn none_in(&self, i: usize, window: Window) -> bool {
        self.of(i).iter().all(|r| {
            let (lo, hi) = window.of(r.src);
            lo >= hi
        })
    }
}

/// Enumerates every homomorphism from `atoms` into `layers`. Calls
/// `on_match` for every complete match; returning `false` stops the
/// enumeration. Returns the number of candidate tuples probed.
pub(crate) fn enumerate_matches(
    layers: Layers<'_>,
    atoms: &[CAtom],
    slots: &mut Slots,
    on_match: &mut dyn FnMut(&Slots, &[AtomId]) -> bool,
) -> u64 {
    let reads = Reads::resolve(layers, atoms);
    let all = Window {
        own: (0, layers.own.len() as AtomId),
        base: (0, layers.base.map_or(0, |b| b.len() as AtomId)),
    };
    let ranges = vec![all; atoms.len()];
    let mut chosen: Vec<AtomId> = vec![0; atoms.len()];
    let mut solved: Vec<bool> = vec![false; atoms.len()];
    let mut probes = 0u64;
    solve(
        atoms,
        &reads,
        &ranges,
        slots,
        &mut chosen,
        &mut solved,
        0,
        &mut probes,
        on_match,
    );
    probes
}

/// Enumerates homomorphisms from `atoms` into their `reads`, where atom
/// `i` may only match stored atoms inside `ranges[i]` (per id space).
/// `chosen` receives each match's body ids, tagged with their source's
/// provenance tag.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve(
    atoms: &[CAtom],
    reads: &Reads<'_>,
    ranges: &[Window],
    slots: &mut Slots,
    chosen: &mut [AtomId],
    solved: &mut [bool],
    depth: usize,
    probes: &mut u64,
    on_match: &mut dyn FnMut(&Slots, &[AtomId]) -> bool,
) -> bool {
    if depth == atoms.len() {
        return on_match(slots, chosen);
    }
    // Pick the unsolved atom with the fewest candidates (keeping the
    // winning slice of a single-read atom — candidate selection is not
    // recomputed; a union atom counts every read's).
    let mut pick = usize::MAX;
    let mut cands: &[AtomId] = &[];
    let mut pick_len = usize::MAX;
    for i in 0..atoms.len() {
        if solved[i] {
            continue;
        }
        let (c, len) = match reads.of(i) {
            [r] => {
                let c = r.candidates(slots, ranges[i]);
                (c, c.len())
            }
            rs => (
                &[][..],
                rs.iter()
                    .map(|r| r.candidates(slots, ranges[i]).len())
                    .sum(),
            ),
        };
        if len < pick_len {
            pick = i;
            pick_len = len;
            cands = c;
            if len == 0 {
                break;
            }
        }
    }
    *probes += pick_len as u64;
    if pick_len == 0 {
        return true;
    }
    solved[pick] = true;
    let mut next = |slots: &mut Slots, chosen: &mut [AtomId]| {
        solve(
            atoms,
            reads,
            ranges,
            slots,
            chosen,
            solved,
            depth + 1,
            probes,
            on_match,
        )
    };
    let keep_going = match reads.of(pick) {
        [r] => r.for_each_row(pick, cands, slots, chosen, &mut next),
        rs => rs.iter().all(|r| {
            let c = r.candidates(slots, ranges[pick]);
            r.for_each_row(pick, c, slots, chosen, &mut next)
        }),
    };
    solved[pick] = false;
    keep_going
}

/// Slots inline in a [`Trail`] before it spills to the heap.
const INLINE_TRAIL: usize = 12;

/// The slots one candidate row bound, to unbind after it — inline up to
/// [`INLINE_TRAIL`] slots, so a join level allocates nothing.
#[derive(Default)]
struct Trail {
    inline: [u16; INLINE_TRAIL],
    len: usize,
    spill: Vec<u16>,
}

impl Trail {
    #[inline]
    fn push(&mut self, slot: u16) {
        if self.len < INLINE_TRAIL {
            self.inline[self.len] = slot;
            self.len += 1;
        } else {
            self.spill.push(slot);
        }
    }

    /// Unbinds every slot pushed, and empties the trail.
    #[inline]
    fn unbind(&mut self, slots: &mut Slots) {
        for &s in self.inline[..self.len].iter().chain(&self.spill) {
            slots[s as usize] = None;
        }
        self.len = 0;
        self.spill.clear();
    }
}

/// Unifies `atom`'s compiled pattern against stored row `row`, binding
/// free slots and pushing them onto `trail`. On mismatch every slot
/// bound here is unwound (trail emptied) and `false` is returned. This
/// is the one candidate-verification loop both join solvers (`solve`
/// and `solve_ordered`) share — the binding/unwind semantics must never
/// diverge between the greedy and the planned path.
#[inline]
fn bind_row(rel: &Relation, atom: &CAtom, row: u32, slots: &mut Slots, trail: &mut Trail) -> bool {
    for (c, pat) in atom.terms.iter().enumerate() {
        let val = rel.value(c, row);
        let matched = match *pat {
            CTerm::Fixed(f) => f == val,
            CTerm::Slot(s) => match slots[s as usize] {
                Some(b) => b == val,
                None => {
                    slots[s as usize] = Some(val);
                    trail.push(s);
                    true
                }
            },
        };
        if !matched {
            trail.unbind(slots);
            return false;
        }
    }
    true
}

/// Like [`solve`], but following a precompiled [`BoundOrder`] instead of
/// picking adaptively: position `pos` probes atom `order.order[pos]` the
/// way `order.probes[pos]` prescribes, in each of its reads. Fully-bound
/// positions resolve with one whole-tuple hash probe per read;
/// joint-indexed positions look up their candidate list in one hash
/// (falling back to the per-column path when the index was invalidated
/// and not yet rebuilt, or for a read whose columns are not the atom's).
/// `index_probes` counts the probes a hash index answered.
#[allow(clippy::too_many_arguments)]
fn solve_ordered(
    atoms: &[CAtom],
    reads: &Reads<'_>,
    ranges: &[Window],
    order: &BoundOrder,
    pos: usize,
    slots: &mut Slots,
    chosen: &mut [AtomId],
    key_buf: &mut Vec<TermId>,
    probes: &mut u64,
    index_probes: &mut u64,
    on_match: &mut dyn FnMut(&Slots, &[AtomId]) -> bool,
) -> bool {
    if pos == atoms.len() {
        return on_match(slots, chosen);
    }
    let ai = order.order[pos] as usize;
    let atom = &atoms[ai];
    let window = ranges[ai];
    for r in reads.of(ai) {
        let range = window.of(r.src);
        if order.probes[pos] == ProbeKind::Full {
            // Every column is bound: one O(1) hash probe decides the
            // read, and equality is guaranteed — no per-column loop, no
            // slot binding.
            if r.bind.is_some_and(|(s, k)| slots[s as usize] != Some(k)) {
                continue;
            }
            key_buf.clear();
            key_buf.extend(
                r.atom
                    .terms
                    .iter()
                    .map(|&t| resolve(t, slots).expect("full-probe position is fully bound")),
            );
            *index_probes += 1;
            let Some(row) = r.src.rel.find_row(key_buf) else {
                continue;
            };
            let id = r.src.rel.row_to_id(row).expect("found rows are stored");
            if id < range.0 || id >= range.1 {
                continue;
            }
            *probes += 1;
            chosen[ai] = id | r.src.tag;
            let keep_going = solve_ordered(
                atoms,
                reads,
                ranges,
                order,
                pos + 1,
                slots,
                chosen,
                key_buf,
                probes,
                index_probes,
                on_match,
            );
            if !keep_going {
                return false;
            }
            continue;
        }
        let joint = match &order.probes[pos] {
            ProbeKind::Joint(cols) if r.same_columns => r.src.rel.joint_ids(
                cols,
                cols.iter().map(|&c| {
                    resolve(atom.terms[c as usize], slots).expect("joint columns are bound")
                }),
            ),
            _ => None,
        };
        let cands: &[AtomId] = match joint {
            Some(ids) => {
                *index_probes += 1;
                let lo = ids.partition_point(|&id| id < range.0);
                let hi = ids.partition_point(|&id| id < range.1);
                &ids[lo..hi]
            }
            None => r.candidates(slots, window),
        };
        *probes += cands.len() as u64;
        let keep_going = r.for_each_row(ai, cands, slots, chosen, |slots, chosen| {
            solve_ordered(
                atoms,
                reads,
                ranges,
                order,
                pos + 1,
                slots,
                chosen,
                key_buf,
                probes,
                index_probes,
                on_match,
            )
        });
        if !keep_going {
            return false;
        }
    }
    true
}

/// Encodes a compiled atom under a total slot assignment into `key`.
#[inline]
pub(crate) fn instantiate_into(atom: &CAtom, slots: &Slots, key: &mut Vec<TermId>) {
    key.clear();
    key.extend(
        atom.terms
            .iter()
            .map(|&t| resolve(t, slots).expect("unbound slot at instantiation")),
    );
}

/// One rule's collected matches for a round, stored flat (strided):
/// match `i` is `slots_flat[i*n_slots..][..n_slots]` plus
/// `ids_flat[i*n_body..][..n_body]` — two amortized allocations per rule
/// per round instead of two per match.
struct RuleMatches {
    count: usize,
    n_slots: usize,
    n_body: usize,
    slots_flat: Vec<Option<TermId>>,
    ids_flat: Vec<AtomId>,
    probes: u64,
    index_probes: u64,
    /// Rows the vectorized filter kernels examined.
    kernel_rows: u64,
}

/// A growing flat match buffer plus the counters accumulated while
/// filling it — what one rule's pivots produce before canonicalization.
#[derive(Default)]
struct MatchAccum {
    count: usize,
    slots_flat: Vec<Option<TermId>>,
    ids_flat: Vec<AtomId>,
    probes: u64,
    index_probes: u64,
    kernel_rows: u64,
}

/// One round's semi-naive windows, per id space a rule body reads: the
/// instance's own atoms and, for a stacked view, its base's. In each
/// space the atoms `start..end` are new this round and those below
/// `start` are old; a round whose windows both start at 0 sees
/// everything as new — a first round, matched as one full join.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    own: (AtomId, AtomId),
    base: (AtomId, AtomId),
}

impl Window {
    fn first(self) -> bool {
        self.own.0 == 0 && self.base.0 == 0
    }

    /// The window of the id space `src` lives in.
    #[inline]
    fn of(self, src: Source<'_>) -> (AtomId, AtomId) {
        if src.read_only() {
            self.base
        } else {
            self.own
        }
    }

    /// Everything below the window's end: old and new atoms.
    fn to_end(self) -> Window {
        Window {
            own: (0, self.own.1),
            base: (0, self.base.1),
        }
    }

    /// The old atoms only.
    fn old(self) -> Window {
        Window {
            own: (0, self.own.0),
            base: (0, self.base.0),
        }
    }
}

/// Per-rule scratch the match loops reuse across pivots: the solvers
/// restore `slots`/`solved` on unwind, so reuse is safe.
struct PivotScratch {
    ranges: Vec<Window>,
    slots: Vec<Option<TermId>>,
    chosen: Vec<AtomId>,
    solved: Vec<bool>,
    key_buf: Vec<TermId>,
    /// Kernel selection vector (absolute row positions).
    sel: Vec<u32>,
    /// Kernel-materialized pivot candidate ids.
    pivot_ids: Vec<AtomId>,
}

impl PivotScratch {
    fn for_rule(rule: &CompiledRule) -> PivotScratch {
        let n = rule.body_pos.len();
        PivotScratch {
            ranges: vec![
                Window {
                    own: (0, 0),
                    base: (0, 0),
                };
                n
            ],
            slots: vec![None; rule.n_slots],
            chosen: vec![0; n],
            solved: vec![false; n],
            key_buf: Vec::new(),
            sel: Vec::new(),
            pivot_ids: Vec::new(),
        }
    }
}

/// Minimum rows in a scan window before the kernel leading scan is worth
/// a vectorized pass (below one [`kernels::CHUNK`] the scalar loop wins).
const KERNEL_MIN_ROWS: usize = 64;
/// The kernel scan is skipped when some fixed column's posting list is
/// this many times smaller than the row window — the posting-list probe
/// touches far fewer rows than even a vectorized scan would.
const KERNEL_SELECTIVITY: usize = 4;

/// Computes the pivot atom's candidate ids for a window with the
/// vectorized column kernels: maps the id range to a contiguous row
/// range (dense relations only — no tombstones), filters the atom's
/// fixed columns and repeated-variable column pairs as chunked compare
/// passes, and gathers the surviving rows' ids into `pivot_ids`
/// (ascending). Returns `false` — leaving the caller on the posting-list
/// path — when the relation is missing or not dense, the atom has
/// nothing to filter on, the window is too small, or a posting list is
/// selective enough to beat a scan. The candidate *set* is exactly what
/// the posting path would enumerate-and-verify, so taking either path
/// never changes the match set.
fn kernel_pivot_ids(
    rel: &Relation,
    atom: &CAtom,
    range: (AtomId, AtomId),
    sel: &mut Vec<u32>,
    pivot_ids: &mut Vec<AtomId>,
    kernel_rows: &mut u64,
) -> bool {
    if !rel.is_dense() {
        return false;
    }
    // The atom's filterable structure: fixed columns and repeated-slot
    // column pairs (first occurrence vs repeat).
    let mut fixed: Vec<(usize, TermId)> = Vec::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (c, &t) in atom.terms.iter().enumerate() {
        match t {
            CTerm::Fixed(v) => fixed.push((c, v)),
            CTerm::Slot(s) => {
                if let Some(first) = atom.terms[..c]
                    .iter()
                    .position(|&u| matches!(u, CTerm::Slot(s2) if s2 == s))
                {
                    pairs.push((first, c));
                }
            }
        }
    }
    if fixed.is_empty() && pairs.is_empty() {
        return false;
    }
    let row_ids = rel.row_ids();
    let r_lo = row_ids.partition_point(|&id| id < range.0);
    let r_hi = row_ids.partition_point(|&id| id < range.1);
    let window = r_hi - r_lo;
    if window < KERNEL_MIN_ROWS {
        return false;
    }
    for &(c, v) in &fixed {
        if rel.ids_by_column(c, v).len() * KERNEL_SELECTIVITY < window {
            return false;
        }
    }
    sel.clear();
    let base = r_lo as u32;
    if let Some(&(c0, v0)) = fixed.first() {
        kernels::filter_eq(&rel.col(c0)[r_lo..r_hi], v0, base, sel);
        *kernel_rows += window as u64;
        for &(c, v) in &fixed[1..] {
            *kernel_rows += sel.len() as u64;
            kernels::refine_eq(&rel.col(c)[r_lo..r_hi], v, base, sel);
        }
        for &(a, b) in &pairs {
            *kernel_rows += sel.len() as u64;
            kernels::refine_pair_eq(&rel.col(a)[r_lo..r_hi], &rel.col(b)[r_lo..r_hi], base, sel);
        }
    } else {
        let (a, b) = pairs[0];
        kernels::filter_pair_eq(&rel.col(a)[r_lo..r_hi], &rel.col(b)[r_lo..r_hi], base, sel);
        *kernel_rows += window as u64;
        for &(a, b) in &pairs[1..] {
            *kernel_rows += sel.len() as u64;
            kernels::refine_pair_eq(&rel.col(a)[r_lo..r_hi], &rel.col(b)[r_lo..r_hi], base, sel);
        }
    }
    pivot_ids.clear();
    kernels::gather(row_ids, sel, pivot_ids);
    true
}

/// Enumerates one pivot's matches of one rule within a round, appending
/// them (unsorted) to `out`. The pivot atom matches inside `window`, the
/// round's delta. For a first round there is a single call per rule,
/// with pivot 0; every other atom sees everything below its window's
/// end. Because the pivot windows of different calls are disjoint,
/// their match sets partition the round's total match set.
#[allow(clippy::too_many_arguments)]
fn match_one_pivot(
    rule: &CompiledRule,
    plan: Option<&RulePlan>,
    reads: &Reads<'_>,
    scratch: &mut PivotScratch,
    window: Window,
    pivot: usize,
    out: &mut MatchAccum,
) {
    let PivotScratch {
        ranges,
        slots,
        chosen,
        solved,
        key_buf,
        sel,
        pivot_ids,
    } = scratch;
    // Semi-naive windows: atoms before the pivot must be old, the pivot
    // must be in its delta window, the rest unconstrained but capped at
    // their window's end so a round never consumes its own output. First
    // round: everything capped so.
    let first = window.first();
    for (i, r) in ranges.iter_mut().enumerate() {
        *r = if i == pivot {
            window
        } else if first || i > pivot {
            window.to_end()
        } else {
            window.old()
        };
    }
    let order = plan.map(|p| if first { &p.full } else { &p.pivots[pivot] });
    let MatchAccum {
        count,
        slots_flat,
        ids_flat,
        probes,
        index_probes,
        kernel_rows,
    } = out;
    let mut on_match = |s: &Slots, ids: &[AtomId]| {
        *count += 1;
        slots_flat.extend_from_slice(s);
        ids_flat.extend_from_slice(ids);
        true
    };
    // Kernel leading scan: when the pivot atom leads the join anyway
    // (always, under greedy; when the plan's order starts with it, under
    // a plan) and has fixed columns or repeated variables to filter on,
    // enumerate its candidates with the vectorized kernels and hand each
    // bound row to the remaining join. A union pivot leads this way
    // only when a plan puts it first, scanning each of its reads in
    // turn (with the kernels where they apply); under greedy, `solve`
    // picks the first atom, since a union's delta (every new row of
    // each read) is wider than the TBox atom beside it (measured in
    // "Chase data flow" in `docs/ARCHITECTURE.md`). Only the
    // enumeration of the same candidate set changes — never the match
    // set.
    let plan_leads_with_pivot = match order {
        None => true,
        Some(o) => {
            o.order[0] as usize == pivot && matches!(o.probes[0], ProbeKind::Scan | ProbeKind::Cols)
        }
    };
    let pivot_reads = reads.of(pivot);
    let union_pivot = pivot_reads.len() > 1;
    let mut kernel = |r: &Read<'_>, pivot_ids: &mut Vec<AtomId>| {
        kernel_pivot_ids(
            r.src.rel,
            r.atom,
            window.of(r.src),
            sel,
            pivot_ids,
            kernel_rows,
        )
    };
    let leads = plan_leads_with_pivot
        && match union_pivot {
            true => order.is_some(),
            false => pivot_reads.first().is_some_and(|r| kernel(r, pivot_ids)),
        };
    if leads {
        solved[pivot] = true;
        for r in pivot_reads {
            // A single read's kernel pass already ran above.
            let cands: &[AtomId] = if !union_pivot || kernel(r, pivot_ids) {
                pivot_ids
            } else {
                r.candidates(slots, window)
            };
            *probes += cands.len() as u64;
            let keep_going =
                r.for_each_row(pivot, cands, slots, chosen, |slots, chosen| match order {
                    Some(order) => solve_ordered(
                        &rule.body_pos,
                        reads,
                        ranges,
                        order,
                        1,
                        slots,
                        chosen,
                        key_buf,
                        probes,
                        index_probes,
                        &mut on_match,
                    ),
                    None => solve(
                        &rule.body_pos,
                        reads,
                        ranges,
                        slots,
                        chosen,
                        solved,
                        1,
                        probes,
                        &mut on_match,
                    ),
                });
            if !keep_going {
                break;
            }
        }
        solved[pivot] = false;
        return;
    }
    match order {
        Some(order) => {
            solve_ordered(
                &rule.body_pos,
                reads,
                ranges,
                order,
                0,
                slots,
                chosen,
                key_buf,
                probes,
                index_probes,
                &mut on_match,
            );
        }
        None => {
            solve(
                &rule.body_pos,
                reads,
                ranges,
                slots,
                chosen,
                solved,
                0,
                probes,
                &mut on_match,
            );
        }
    }
}

/// Canonicalizes an accumulated match buffer into [`RuleMatches`]:
/// distinct matches always have distinct chosen-id tuples (the windows
/// of different pivots are disjoint, and within a window the enumeration
/// visits each candidate combination once), so sorting by those tuples
/// yields one order independent of the join order. Enumeration often
/// already emits in this order (single-atom bodies always do), so check
/// before paying for the permutation.
fn finish_rule_matches(rule: &CompiledRule, accum: MatchAccum, rec: &dyn Recorder) -> RuleMatches {
    let _sort = Timer::start(rec, Phase::ChaseSort);
    let n = rule.body_pos.len();
    let MatchAccum {
        count,
        mut slots_flat,
        mut ids_flat,
        probes,
        index_probes,
        kernel_rows,
    } = accum;
    let already_sorted =
        || (1..count).all(|i| ids_flat[(i - 1) * n..i * n] <= ids_flat[i * n..(i + 1) * n]);
    if count > 1 && n > 0 && !already_sorted() {
        let mut perm: Vec<u32> = (0..count as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            ids_flat[a * n..(a + 1) * n].cmp(&ids_flat[b * n..(b + 1) * n])
        });
        let n_slots = rule.n_slots;
        let mut sorted_slots: Vec<Option<TermId>> = Vec::with_capacity(slots_flat.len());
        let mut sorted_ids: Vec<AtomId> = Vec::with_capacity(ids_flat.len());
        for &i in &perm {
            let i = i as usize;
            sorted_slots.extend_from_slice(&slots_flat[i * n_slots..(i + 1) * n_slots]);
            sorted_ids.extend_from_slice(&ids_flat[i * n..(i + 1) * n]);
        }
        slots_flat = sorted_slots;
        ids_flat = sorted_ids;
    }
    RuleMatches {
        count,
        n_slots: rule.n_slots,
        n_body: n,
        slots_flat,
        ids_flat,
        probes,
        index_probes,
        kernel_rows,
    }
}

/// Collects the semi-naive matches of one rule within a round, through
/// the rule's compiled [`RulePlan`] (or the adaptive greedy pick when
/// `plan` is `None`). Read-only on the instance: every candidate range is
/// capped at `prev_len`, so the result is independent of any same-round
/// insertions.
///
/// The returned matches are in **canonical order** (sorted by their
/// chosen body-atom ids). The match *set* of a round is a function of the
/// instance and the windows alone, so canonicalizing the apply order
/// makes the chase's output — AtomIds, null numbering, provenance, all of
/// it — independent of the join order the planner picked. That is the
/// invariant `tests/differential_planner.rs` pins byte-for-byte.
fn collect_rule_matches(
    layers: Layers<'_>,
    rule: &CompiledRule,
    plan: Option<&RulePlan>,
    window: Window,
    rec: &dyn Recorder,
) -> RuleMatches {
    let n = rule.body_pos.len();
    let reads = Reads::resolve(layers, &rule.body_pos);
    let mut scratch: Option<PivotScratch> = None;
    let mut accum = MatchAccum::default();
    for pivot in 0..n {
        if window.first() && pivot > 0 {
            break; // first round: single full join
        }
        if reads.none_in(pivot, window) {
            continue; // nothing new in the pivot's id spaces
        }
        match_one_pivot(
            rule,
            plan,
            &reads,
            scratch.get_or_insert_with(|| PivotScratch::for_rule(rule)),
            window,
            pivot,
            &mut accum,
        );
    }
    finish_rule_matches(rule, accum, rec)
}

/// A skolem memo key: a rule index and the frontier values of a match.
pub(crate) type MemoKey = (usize, Box<[TermId]>);

/// The skolem memoization retained across incremental delta applications:
/// (rule index, frontier values) → the null ids invented for the rule's
/// existential variables. Resuming a chase **must** reuse this map — a
/// fresh one would re-invent nulls for frontiers that already fired,
/// producing atoms a from-scratch chase would never contain.
///
/// Once a checkpoint has written the memo ([`SkolemMemo::track`]), it
/// also records its edits, in order, until the next checkpoint takes
/// them ([`SkolemMemo::take_edits`]): what a checkpoint segment carries
/// of it. A memo no checkpoint wrote records nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct SkolemMemo {
    map: HashMap<MemoKey, Vec<TermId>>,
    edits: Option<Vec<(MemoKey, Option<Vec<TermId>>)>>,
}

impl SkolemMemo {
    pub(crate) fn with_capacity(n: usize) -> SkolemMemo {
        SkolemMemo {
            map: HashMap::with_capacity(n),
            edits: None,
        }
    }

    pub(crate) fn get(&self, key: &MemoKey) -> Option<&Vec<TermId>> {
        self.map.get(key)
    }

    /// Memoizes the nulls of a trigger; returns the entry it replaced.
    pub(crate) fn insert(&mut self, key: MemoKey, nulls: Vec<TermId>) -> Option<Vec<TermId>> {
        if let Some(edits) = &mut self.edits {
            edits.push((key.clone(), Some(nulls.clone())));
        }
        self.map.insert(key, nulls)
    }

    /// Forgets a trigger; returns its nulls if it was memoized.
    pub(crate) fn remove(&mut self, key: &MemoKey) -> Option<Vec<TermId>> {
        let removed = self.map.remove(key);
        if let (Some(edits), Some(_)) = (&mut self.edits, &removed) {
            edits.push((key.clone(), None));
        }
        removed
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MemoKey, &Vec<TermId>)> + '_ {
        self.map.iter()
    }

    /// Whether the memo records its edits.
    pub(crate) fn tracks(&self) -> bool {
        self.edits.is_some()
    }

    /// Starts recording edits afresh: a checkpoint just wrote the memo.
    pub(crate) fn track(&mut self) {
        self.edits = Some(Vec::new());
    }

    /// The edits since the last checkpoint, in order — an insert with
    /// its nulls, a removal without — and records on from none; `None`
    /// when no checkpoint wrote the memo.
    pub(crate) fn take_edits(&mut self) -> Option<Vec<(MemoKey, Option<Vec<TermId>>)>> {
        self.edits.as_mut().map(std::mem::take)
    }
}

impl FromIterator<(MemoKey, Vec<TermId>)> for SkolemMemo {
    fn from_iter<I: IntoIterator<Item = (MemoKey, Vec<TermId>)>>(entries: I) -> SkolemMemo {
        SkolemMemo {
            map: entries.into_iter().collect(),
            edits: None,
        }
    }
}

/// `memo` over the compacted instance `own` describes. An entry naming a
/// null that is gone belongs to a trigger that died, and is dropped.
pub(crate) fn renumber_memo(memo: &SkolemMemo, own: &Renumbering) -> SkolemMemo {
    let terms =
        |ts: &[TermId]| -> Option<Vec<TermId>> { ts.iter().map(|&t| own.try_term(t)).collect() };
    memo.iter()
        .filter_map(|((rule, frontier), nulls)| {
            Some(((*rule, terms(frontier)?.into_boxed_slice()), terms(nulls)?))
        })
        .collect()
}

pub(crate) struct Engine<'a> {
    compiled: &'a [CompiledRule],
    constraints: &'a [CompiledConstraint],
    config: ChaseConfig,
    /// Sampled once per chase run (the per-round hot loop must not
    /// re-read the thread-local).
    schedule: Schedule,
    /// Per-rule join plans, index-aligned with `compiled`. Seeded from
    /// the runner's build-time heuristic plans and re-planned at stratum
    /// entry from live statistics (see [`Engine::plan_stratum`]). Unused
    /// under [`JoinOrder::Greedy`].
    plans: Vec<RulePlan>,
    /// The instance the chase writes: the whole fixpoint, or a stacked
    /// view's own layer.
    pub(crate) instance: Instance,
    /// A stacked view's base: read in place, never written (and never
    /// indexed — its joint indexes are its own view's).
    base: Option<&'a Instance>,
    pub(crate) stats: ChaseStats,
    /// Skolem memo: (rule, frontier values) → existential null ids.
    pub(crate) skolem: SkolemMemo,
    /// Scratch row for head instantiation / negative checks.
    key_buf: Vec<TermId>,
    /// Scratch row for a union source's probe.
    alt_buf: Vec<TermId>,
    /// Telemetry hook: phase timings and spans. The no-op default costs
    /// one virtual call + branch per *round*-granularity site; the
    /// innermost probe loops carry no hooks at all.
    rec: &'a dyn Recorder,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        compiled: &'a [CompiledRule],
        constraints: &'a [CompiledConstraint],
        plans: Vec<RulePlan>,
        seed: Instance,
        base: Option<&'a Instance>,
        config: ChaseConfig,
        rec: &'a dyn Recorder,
    ) -> Self {
        debug_assert_eq!(plans.len(), compiled.len());
        Engine {
            compiled,
            constraints,
            config,
            schedule: crate::schedule::current(),
            plans,
            instance: seed,
            base,
            stats: ChaseStats::default(),
            skolem: SkolemMemo::default(),
            key_buf: Vec::new(),
            alt_buf: Vec::new(),
            rec,
        }
    }

    /// What the rules read: the instance, stacked on the base if any.
    pub(crate) fn layers(&self) -> Layers<'_> {
        Layers {
            own: &self.instance,
            base: self.base,
        }
    }

    /// How existential rules fire.
    pub(crate) fn strategy(&self) -> ExistentialStrategy {
        self.config.strategy
    }

    /// The plan `collect_rule_matches` should follow for rule `ri`
    /// (`None` = the adaptive greedy pick). Cost-based plans defer to
    /// the greedy pick when they have nothing to offer (short bodies
    /// with no hash-indexed probe positions — see
    /// [`RulePlan::worthwhile`]); the forced-reverse order never defers.
    fn plan_for(&self, ri: usize) -> Option<&RulePlan> {
        match self.schedule.join_order {
            JoinOrder::Greedy => None,
            JoinOrder::Reverse => Some(&self.plans[ri]),
            JoinOrder::CostBased => {
                let plan = &self.plans[ri];
                plan.worthwhile.then_some(plan)
            }
        }
    }

    /// Stratum-entry planning: (re-)compiles the join plan of every rule
    /// in the stratum from live relation statistics when cardinalities
    /// have drifted past the planner's threshold, and makes sure every
    /// joint hash index the plans want exists (tombstones invalidate
    /// them wholesale, so this also re-builds after deletion phases).
    fn plan_stratum(&mut self, rule_indices: &[usize]) {
        if self.schedule.join_order == JoinOrder::Greedy {
            return;
        }
        let mut replanned = false;
        for &ri in rule_indices {
            let rule = &self.compiled[ri];
            match self.schedule.join_order {
                JoinOrder::Greedy => unreachable!("checked above"),
                JoinOrder::Reverse => {
                    // Data-free by design: compiled once, never re-planned.
                    if !self.plans[ri].from_stats {
                        let mut plan = planner::plan_rule_reversed(rule);
                        plan.from_stats = true;
                        self.plans[ri] = plan;
                        self.stats.plans_compiled += 1;
                        replanned = true;
                    }
                }
                JoinOrder::CostBased => {
                    // The drift gate governs *all* re-planning: the
                    // build-time heuristic plan (snapshot all-zero)
                    // keeps serving tiny relations — below the drift
                    // floor the order genuinely doesn't matter — and is
                    // replaced by a stats-driven plan exactly when
                    // cardinalities move past the threshold.
                    let plan = &self.plans[ri];
                    let counts = planner::body_row_counts(rule, self.layers());
                    if planner::drifted(&plan.snapshot, &counts) {
                        if plan.from_stats {
                            self.stats.replans += 1;
                        } else {
                            self.stats.plans_compiled += 1;
                        }
                        self.plans[ri] =
                            planner::plan_rule_timed(rule, Some(self.layers()), self.rec);
                        replanned = true;
                    }
                }
            }
        }
        // Retire indexes no plan (of *any* rule) wants anymore: a stale
        // one would hold its relation's index cap and pay per-insert
        // maintenance forever in an insert-only workload. Only a re-plan
        // can change the wanted union, so this scan is skipped on the
        // common no-drift entry.
        if replanned {
            let wanted: Vec<(Symbol, usize, Box<[u8]>)> = self
                .plans
                .iter()
                .flat_map(|p| p.wanted_indexes.iter().cloned())
                .collect();
            self.instance.retain_joint_indexes(&wanted);
        }
        // Make sure every index this stratum's plans want exists (freed
        // cap slots above are claimable; tombstone invalidation between
        // strata re-triggers builds here too).
        for &ri in rule_indices {
            for (pred, arity, cols) in &self.plans[ri].wanted_indexes {
                // Time the build only when it happens: the common
                // already-built probe must not read the clock.
                let t = self.rec.enabled().then(std::time::Instant::now);
                if self.instance.ensure_joint_index(*pred, *arity, cols) {
                    self.stats.index_builds += 1;
                    if let Some(t) = t {
                        self.rec
                            .phase(Phase::IndexBuild, t.elapsed().as_nanos() as u64);
                    }
                }
            }
        }
    }

    /// Destructures the engine into its retained state (instance, run
    /// counters, skolem memo, stats-driven join plans) — the pieces a
    /// [`crate::incremental`] materialized view keeps alive between
    /// delta applications (retained plans only re-plan on drift instead
    /// of from scratch at every apply).
    pub(crate) fn into_parts(self) -> (Instance, ChaseStats, SkolemMemo, Vec<RulePlan>) {
        (self.instance, self.stats, self.skolem, self.plans)
    }

    /// Restores a retained skolem memo before resuming a chase.
    pub(crate) fn set_skolem(&mut self, memo: SkolemMemo) {
        self.skolem = memo;
    }

    pub(crate) fn builtin_holds(b: CBuiltin, slots: &Slots) -> bool {
        match b {
            CBuiltin::Eq(x, y) => resolve(x, slots) == resolve(y, slots),
            CBuiltin::Neq(x, y) => resolve(x, slots) != resolve(y, slots),
            CBuiltin::Constant(x, holds) => {
                resolve(x, slots).is_some_and(TermId::is_const) == holds
            }
        }
    }

    pub(crate) fn check_negatives_and_builtins(&mut self, rule_idx: usize, slots: &Slots) -> bool {
        let rule = &self.compiled[rule_idx];
        for &b in &rule.builtins {
            if !Self::builtin_holds(b, slots) {
                return false;
            }
        }
        for neg in &rule.body_neg {
            instantiate_into(neg, slots, &mut self.key_buf);
            let layers = Layers {
                own: &self.instance,
                base: self.base,
            };
            if neg.holds(layers, &self.key_buf, &mut self.alt_buf) {
                return false;
            }
        }
        true
    }

    /// Applies one rule match; `slots` is mutated to hold existential
    /// values during head instantiation and restored afterwards.
    pub(crate) fn apply(
        &mut self,
        rule_idx: usize,
        slots: &mut Slots,
        body_ids: &[AtomId],
    ) -> Result<()> {
        let rule = &self.compiled[rule_idx];
        debug_assert_eq!(body_ids.len(), rule.body_pos.len(), "one id per body atom");
        if !rule.exist_slots.is_empty() {
            let frontier_vals = rule.frontier_key(slots);
            match self.config.strategy {
                ExistentialStrategy::Skolem => {
                    if let Some(known) = self.skolem.get(&(rule_idx, frontier_vals.clone())) {
                        for (&s, &t) in rule.exist_slots.iter().zip(known.iter()) {
                            slots[s as usize] = Some(t);
                        }
                    } else {
                        let depth = self.layers().depth_of(&frontier_vals) + 1;
                        if depth > self.config.max_null_depth {
                            self.stats.truncated = true;
                            return Ok(());
                        }
                        let mut nulls = Vec::with_capacity(rule.exist_slots.len());
                        for &s in &rule.exist_slots {
                            let null = TermId::from_null(self.instance.fresh_null(depth));
                            self.stats.nulls += 1;
                            slots[s as usize] = Some(null);
                            nulls.push(null);
                        }
                        self.skolem.insert((rule_idx, frontier_vals), nulls);
                    }
                }
                ExistentialStrategy::Restricted => {
                    // Is the head already satisfied by some extension?
                    let mut satisfied = false;
                    self.stats.probes +=
                        enumerate_matches(self.layers(), &rule.heads, slots, &mut |_, _| {
                            satisfied = true;
                            false
                        });
                    if satisfied {
                        return Ok(());
                    }
                    let depth = self.layers().depth_of(&frontier_vals) + 1;
                    if depth > self.config.max_null_depth {
                        self.stats.truncated = true;
                        return Ok(());
                    }
                    for &s in &rule.exist_slots {
                        let null = TermId::from_null(self.instance.fresh_null(depth));
                        self.stats.nulls += 1;
                        slots[s as usize] = Some(null);
                    }
                }
            }
        }
        let base = self.base;
        for head in &self.compiled[rule_idx].heads {
            instantiate_into(head, slots, &mut self.key_buf);
            // A union's own rows hold only what no source does.
            let layers = Layers {
                own: &self.instance,
                base,
            };
            if !head.alts.is_empty() && head.held_by_alt(layers, &self.key_buf, &mut self.alt_buf) {
                continue;
            }
            let key = &self.key_buf;
            let (_, fresh) = self.instance.insert_with_depth(
                head.pred,
                key,
                Some((rule_idx, body_ids)),
                |own| Layers { own, base }.depth_of(key),
            );
            if fresh {
                self.stats.derived += 1;
                // A stacked view's budget is what its base left over.
                if self.instance.len() + base.map_or(0, Instance::len) > self.config.max_atoms {
                    return Err(TriqError::ResourceExhausted(format!(
                        "chase exceeded the atom budget of {}",
                        self.config.max_atoms
                    )));
                }
                // Amortized ambient-deadline poll beside the atom budget:
                // a request-scoped wall-clock limit installed by the
                // serving layer (thread-local, not part of ChaseConfig —
                // it must not split the plan fingerprint). Checked every
                // 1024 fresh derivations so huge apply batches cannot
                // overshoot a deadline by a whole round.
                if self.stats.derived & 1023 == 0 {
                    triq_common::deadline::check()?;
                }
            }
        }
        // Clear existential slots for the next application of this rule.
        let rule = &self.compiled[rule_idx];
        for &s in &rule.exist_slots {
            slots[s as usize] = None;
        }
        Ok(())
    }

    /// Collects one round's matches for every rule of the stratum, in
    /// rule order, each rule's in canonical order.
    fn collect_round(&self, rule_indices: &[usize], window: Window) -> Vec<RuleMatches> {
        rule_indices
            .iter()
            .map(|&ri| {
                let _rule = Timer::start(self.rec, Phase::ChaseRuleMatch);
                collect_rule_matches(
                    self.layers(),
                    &self.compiled[ri],
                    self.plan_for(ri),
                    window,
                    self.rec,
                )
            })
            .collect()
    }

    /// Runs the rules of one stratum to fixpoint (semi-naive), starting
    /// from the beginning of the instance (and of the base).
    fn run_stratum(&mut self, rule_indices: &[usize]) -> Result<()> {
        self.run_stratum_from(rule_indices, 0, 0)
    }

    /// Runs the rules of one stratum to fixpoint, treating only own
    /// atoms with id ≥ `own_start` and base atoms with id ≥ `base_start`
    /// as new. With both `0` this is the full stratum evaluation; the
    /// incremental subsystem resumes a finished chase by passing the
    /// pre-delta id watermarks, so the first round pivots exclusively on
    /// the freshly inserted atoms.
    pub(crate) fn run_stratum_from(
        &mut self,
        rule_indices: &[usize],
        own_start: AtomId,
        base_start: AtomId,
    ) -> Result<()> {
        // Stratum entry: (re-)plan the stratum's rules against live
        // statistics and build any joint indexes the plans request.
        self.plan_stratum(rule_indices);
        let base_len = self.base.map_or(0, |b| b.len() as AtomId);
        let mut window = Window {
            own: (own_start, own_start),
            base: (base_start.min(base_len), base_len),
        };
        loop {
            // Honor an ambient read deadline (installed by the serving
            // layer on this thread) between rounds; E-RESOURCE here maps
            // to 503 like any other exhausted budget.
            triq_common::deadline::check()?;
            self.stats.rounds += 1;
            let prev_len = self.instance.len() as AtomId;
            window.own.1 = prev_len;
            if !window.first() && window.own.0 == prev_len && window.base.0 == base_len {
                break;
            }
            // Phase 1 (read-only): enumerate matches.
            let per_rule = {
                let _match = Timer::start(self.rec, Phase::ChaseMatch);
                self.collect_round(rule_indices, window)
            };
            // Phase 2 (in rule order): filter and apply.
            let _apply = Timer::start(self.rec, Phase::ChaseApply);
            for (&ri, mut rm) in rule_indices.iter().zip(per_rule) {
                self.stats.probes += rm.probes;
                self.stats.index_probes += rm.index_probes;
                self.stats.kernel_filter_rows += rm.kernel_rows;
                for i in 0..rm.count {
                    let slots = &mut rm.slots_flat[i * rm.n_slots..(i + 1) * rm.n_slots];
                    let ids = &rm.ids_flat[i * rm.n_body..(i + 1) * rm.n_body];
                    if self.check_negatives_and_builtins(ri, slots) {
                        self.apply(ri, slots, ids)?;
                    }
                }
            }
            if self.instance.len() as AtomId == prev_len {
                break;
            }
            // Only own atoms are new from here on: the base is read-only.
            window = Window {
                own: (prev_len, prev_len),
                base: (base_len, base_len),
            };
        }
        Ok(())
    }

    /// Whether some constraint fires, i.e. `Π(D) = ⊤` (§3.2).
    ///
    /// With `since = Some((own, base))` the check is **semi-naive**: it
    /// only looks for matches that use an own atom with id ≥ `own` or a
    /// base atom with id ≥ `base`. Constraint bodies are positive and
    /// tombstones are never revived, so if no constraint fired over the
    /// atoms below the watermarks, a match can only be new through an atom
    /// above them. Each body atom in turn is the pivot, matched against
    /// the new atoms only, with the atoms before it restricted to old ones
    /// — the decomposition of the chase's delta rounds — so a write pays
    /// for the atoms it added, not for the closure. Without `since` (or
    /// with watermarks of 0) it checks everything.
    pub(crate) fn check_constraints(&mut self, since: Option<(AtomId, AtomId)>) -> bool {
        let layers = self.layers();
        let (own_start, base_start) = since.unwrap_or((0, 0));
        let base_len = layers.base.map_or(0, |b| b.len() as AtomId);
        let window = Window {
            own: (own_start, layers.own.len() as AtomId),
            base: (base_start.min(base_len), base_len),
        };
        let full = window.first();
        let mut probes = 0u64;
        let fired = self.constraints.iter().any(|c| {
            let n = c.atoms.len();
            let reads = Reads::resolve(layers, &c.atoms);
            let mut ranges = vec![window; n];
            let mut slots: Vec<Option<TermId>> = vec![None; c.n_slots];
            let mut chosen = vec![0; n];
            let mut solved = vec![false; n];
            // Everything new is one full join; otherwise one join per pivot.
            (0..if full { 1 } else { n }).any(|pivot| {
                for (i, r) in ranges.iter_mut().enumerate() {
                    *r = if full || i > pivot {
                        window.to_end()
                    } else if i == pivot {
                        window
                    } else {
                        window.old()
                    };
                }
                if !full && reads.none_in(pivot, window) {
                    return false; // nothing new in the pivot's id spaces
                }
                let mut fired = false;
                solve(
                    &c.atoms,
                    &reads,
                    &ranges,
                    &mut slots,
                    &mut chosen,
                    &mut solved,
                    0,
                    &mut probes,
                    &mut |s, _| {
                        fired = c.builtins.iter().all(|&b| Self::builtin_holds(b, s));
                        !fired
                    },
                );
                fired
            })
        });
        self.stats.probes += probes;
        fired
    }
}

/// Rejects a stratification that does not describe `program` — a stale
/// one computed before rules were added, or with out-of-range strata —
/// which would otherwise silently skip rules during the chase.
fn check_stratification(program: &Program, strat: &Stratification) -> Result<()> {
    if strat.rule_stratum.len() != program.rules.len() {
        return Err(TriqError::InvalidProgram(format!(
            "stratification covers {} rules but the program has {} — it was \
             computed for a different program",
            strat.rule_stratum.len(),
            program.rules.len()
        )));
    }
    if let Some(&bad) = strat.rule_stratum.iter().find(|&&s| s > strat.max_stratum) {
        return Err(TriqError::InvalidProgram(format!(
            "stratification assigns stratum {bad} beyond its max_stratum {}",
            strat.max_stratum
        )));
    }
    Ok(())
}

/// Groups rule indices by stratum, in ascending stratum order, leaving
/// out the copy rules `unions` serves by reading. The stratification
/// must already have passed [`check_stratification`].
fn rules_by_stratum(program: &Program, strat: &Stratification, unions: &Unions) -> Vec<Vec<usize>> {
    let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); strat.max_stratum + 1];
    for (i, &s) in strat
        .rule_stratum
        .iter()
        .enumerate()
        .take(program.rules.len())
    {
        if !unions.serves(&program.rules[i]) {
            grouped[s].push(i);
        }
    }
    grouped
}

/// Runs every stratum of `runner`'s program to fixpoint over `seed` —
/// stacked on `base` when given — and returns the engine **with its
/// retained state** (instance, counters, skolem memo) — shared by
/// [`ChaseRunner::run_seed`] (which consumes it into a [`ChaseOutcome`])
/// and by `crate::incremental`'s initial materialization (which keeps
/// the memo alive). Constraints are *not* checked here; callers do that
/// on the returned engine.
pub(crate) fn chase_to_fixpoint<'a>(
    runner: &'a ChaseRunner,
    seed: Instance,
    base: Option<&'a Instance>,
) -> Result<Engine<'a>> {
    let rec = runner.recorder();
    let mut engine = Engine::new(
        &runner.compiled,
        &runner.constraints,
        runner.plans.clone(),
        seed,
        base,
        runner.config,
        rec,
    );
    for (s, indices) in runner.strata_rules.iter().enumerate() {
        if !indices.is_empty() {
            let _span = obs::span(rec, "stratum", s as u64);
            let _t = Timer::start(rec, Phase::ChaseStratum);
            engine.run_stratum(indices)?;
        }
    }
    Ok(engine)
}

/// A prepared chase: stratification and rule compilation are paid **once**
/// at construction, and [`ChaseRunner::run`] can then be called any number
/// of times against different databases. This is the execution backend of
/// prepared queries — the one-shot [`chase`] / [`chase_stratified`]
/// functions re-derive this state on every call. Cloning copies the
/// compiled state without re-deriving it.
#[derive(Clone, Debug)]
pub struct ChaseRunner {
    program: Program,
    /// The union reads the chase serves (none for most programs).
    unions: Unions,
    strat: Stratification,
    compiled: Vec<CompiledRule>,
    constraints: Vec<CompiledConstraint>,
    strata_rules: Vec<Vec<usize>>,
    /// Build-time join plans (data-free heuristic: constants first).
    /// Every run starts from these; the engine re-plans per stratum from
    /// live statistics as data arrives.
    plans: Vec<RulePlan>,
    config: ChaseConfig,
    /// Telemetry hook for every run (and the incremental maintenance
    /// built on this runner). Defaults to the zero-cost no-op;
    /// [`ChaseRunner::set_recorder`] installs a live one. Kept out of
    /// [`ChaseConfig`] deliberately — the config stays `Copy + Eq`.
    rec: Arc<dyn Recorder>,
}

impl ChaseRunner {
    /// Validates and stratifies `program`, then compiles its rules into
    /// the slot-indexed form the join loop consumes.
    pub fn new(program: Program, config: ChaseConfig) -> Result<ChaseRunner> {
        ChaseRunner::with_unions(program, Unions::none(), config)
    }

    /// Like [`ChaseRunner::new`], serving `unions`: every body atom of a
    /// union predicate reads its own relation and each source in turn,
    /// a head of one appends only what no source holds, and the copy
    /// rules the unions replace — in `program` or not — are never
    /// chased. The program is stratified as if it held those copy rules,
    /// so `Π(D)` is the literal program's, read through the unions.
    pub fn with_unions(
        program: Program,
        unions: Unions,
        config: ChaseConfig,
    ) -> Result<ChaseRunner> {
        unions.check_constant(&program)?;
        let strat = if unions.is_empty() {
            program.validate()?;
            crate::stratify(&program)?
        } else {
            let literal = unions.complete(&program);
            literal.validate()?;
            let mut strat = crate::stratify(&literal)?;
            strat.rule_stratum.truncate(program.rules.len());
            strat
        };
        ChaseRunner::compile(program, unions, strat, config)
    }

    /// Like [`ChaseRunner::new`] with a precomputed stratification. The
    /// program is not re-validated, but the stratification must match it
    /// (same rule count, in-range strata) — a stale one, e.g. computed
    /// before extra rules were unioned in, is rejected rather than
    /// silently skipping rules.
    pub fn with_stratification(
        program: Program,
        strat: Stratification,
        config: ChaseConfig,
    ) -> Result<ChaseRunner> {
        ChaseRunner::compile(program, Unions::none(), strat, config)
    }

    /// Compiles the program's rules and constraints serving `unions`,
    /// once `strat` is known to describe the program.
    fn compile(
        program: Program,
        unions: Unions,
        strat: Stratification,
        config: ChaseConfig,
    ) -> Result<ChaseRunner> {
        check_stratification(&program, &strat)?;
        let compiled: Vec<CompiledRule> = program
            .rules
            .iter()
            .map(|r| compile_rule(r, &unions))
            .collect();
        let constraints: Vec<CompiledConstraint> = program
            .constraints
            .iter()
            .map(|c| compile_constraint(c, &unions))
            .collect();
        let strata_rules = rules_by_stratum(&program, &strat, &unions);
        let plans = planner::initial_plans(&compiled);
        Ok(ChaseRunner {
            program,
            unions,
            strat,
            compiled,
            constraints,
            strata_rules,
            plans,
            config,
            rec: Arc::new(obs::Noop),
        })
    }

    /// The prepared program. With union reads it is the literal one:
    /// it may hold the copy rules the unions replace, which are never
    /// chased.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The union reads the chase serves.
    pub fn unions(&self) -> &Unions {
        &self.unions
    }

    /// Whether rule `ri` is a copy rule the unions serve by reading.
    pub(crate) fn serves(&self, ri: usize) -> bool {
        self.unions.serves(&self.program.rules[ri])
    }

    /// The served text: the program, then its union reads as `@union`
    /// lines ([`crate::parse_served`] reads it back). Without unions it
    /// is the program's text.
    pub fn text(&self) -> String {
        format!("{}{}", self.program, self.unions)
    }

    /// The slot-compiled rules (for the incremental maintenance engine).
    pub(crate) fn compiled(&self) -> &[CompiledRule] {
        &self.compiled
    }

    /// The compiled constraints.
    pub(crate) fn compiled_constraints(&self) -> &[CompiledConstraint] {
        &self.constraints
    }

    /// Rule indices grouped by stratum, ascending.
    pub(crate) fn strata_rules(&self) -> &[Vec<usize>] {
        &self.strata_rules
    }

    /// The build-time heuristic join plans (per rule).
    pub(crate) fn initial_plans(&self) -> &[RulePlan] {
        &self.plans
    }

    /// The cached stratification.
    pub fn stratification(&self) -> &Stratification {
        &self.strat
    }

    /// The chase configuration used by [`ChaseRunner::run`].
    pub fn config(&self) -> ChaseConfig {
        self.config
    }

    /// Replaces the chase configuration (the compiled rules are kept).
    pub fn set_config(&mut self, config: ChaseConfig) {
        self.config = config;
    }

    /// Installs a telemetry recorder: every subsequent run (and the
    /// incremental maintenance built on this runner) reports phase
    /// timings and spans through it. The default no-op recorder makes
    /// the hooks branch-cheap and the chase output is byte-identical
    /// either way (`tests/telemetry_parity.rs`).
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = rec;
    }

    /// The installed telemetry recorder (no-op unless
    /// [`ChaseRunner::set_recorder`] was called).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.rec
    }

    /// Chases `db`, computing `Π(D)` and testing the constraints.
    pub fn run(&self, db: &Database) -> Result<ChaseOutcome> {
        self.run_seed(db.to_instance())
    }

    /// Chases an explicit seed instance (which may already contain nulls).
    pub fn run_seed(&self, seed: Instance) -> Result<ChaseOutcome> {
        let mut engine = chase_to_fixpoint(self, seed, None)?;
        let inconsistent = engine.check_constraints(None);
        let (instance, stats, _, _) = engine.into_parts();
        Ok(ChaseOutcome {
            inconsistent,
            stats,
            instance,
        })
    }
}

/// Chases `db` with `program` under `config`, computing the stratified
/// semantics `Π(D)` of §3.2 (up to the configured depth bound) and then
/// testing the constraints.
///
/// This one-shot entry point re-stratifies and re-compiles the program on
/// every call; use a [`ChaseRunner`] to pay that cost once.
pub fn chase(db: &Database, program: &Program, config: ChaseConfig) -> Result<ChaseOutcome> {
    let strat: Stratification = crate::stratify(program)?;
    chase_stratified(db, program, &strat, config)
}

/// Like [`chase`] but with a precomputed stratification.
pub fn chase_stratified(
    db: &Database,
    program: &Program,
    strat: &Stratification,
    config: ChaseConfig,
) -> Result<ChaseOutcome> {
    ChaseRunner::with_stratification(program.clone(), strat.clone(), config)?.run(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::GroundAtom;
    use crate::parse_program;
    use triq_common::intern;

    fn run(program: &str, facts: &[(&str, &[&str])]) -> ChaseOutcome {
        let p = parse_program(program).unwrap();
        let mut db = Database::new();
        for (pred, args) in facts {
            db.add_fact(pred, args);
        }
        chase(&db, &p, ChaseConfig::default()).unwrap()
    }

    fn has(out: &ChaseOutcome, pred: &str, args: &[&str]) -> bool {
        let terms: Vec<Term> = args.iter().map(|a| Term::constant(a)).collect();
        out.instance.contains_terms(intern(pred), &terms)
    }

    #[test]
    fn transitive_closure() {
        let out = run(
            "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).",
            &[("e", &["a", "b"]), ("e", &["b", "c"]), ("e", &["c", "d"])],
        );
        assert!(has(&out, "t", &["a", "d"]));
        assert!(has(&out, "t", &["b", "d"]));
        assert!(!has(&out, "t", &["d", "a"]));
        assert_eq!(out.instance.atoms_of(intern("t")).count(), 6);
        assert!(!out.stats.truncated);
        assert!(out.stats.probes > 0, "probe counter must tick");
    }

    #[test]
    fn stratified_negation_min_max() {
        // The Πaux fragment of Example 4.3.
        let out = run(
            "succ(?X, ?Y) -> less(?X, ?Y).\n\
             succ(?X, ?Y), less(?Y, ?Z) -> less(?X, ?Z).\n\
             less(?X, ?Y) -> not_max(?X).\n\
             less(?X, ?Y) -> not_min(?Y).\n\
             less(?X, ?Y), !not_min(?X) -> zero(?X).\n\
             less(?Y, ?X), !not_max(?X) -> max(?X).",
            &[
                ("succ", &["0", "1"]),
                ("succ", &["1", "2"]),
                ("succ", &["2", "3"]),
            ],
        );
        assert!(has(&out, "zero", &["0"]));
        assert!(!has(&out, "zero", &["1"]));
        assert!(has(&out, "max", &["3"]));
        assert!(!has(&out, "max", &["2"]));
    }

    #[test]
    fn existential_skolem_memoizes() {
        let out = run(
            "person(?X) -> exists ?Y parent(?X, ?Y).",
            &[("person", &["alice"])],
        );
        // One null for alice, and re-running the rule adds nothing.
        assert_eq!(out.stats.nulls, 1);
        assert_eq!(out.instance.atoms_of(intern("parent")).count(), 1);
    }

    #[test]
    fn existential_cycle_is_depth_bounded() {
        let p = parse_program(
            "person(?X) -> exists ?Y parent(?X, ?Y).\n\
             parent(?X, ?Y) -> person(?Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("person", &["alice"]);
        let out = chase(
            &db,
            &p,
            ChaseConfig {
                max_null_depth: 4,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert!(out.stats.truncated);
        assert_eq!(out.stats.nulls, 4);
        // alice's ancestors: parent(alice, n1) ... parent(n3, n4).
        assert_eq!(out.instance.atoms_of(intern("parent")).count(), 4);
    }

    #[test]
    fn restricted_chase_reuses_witnesses() {
        // alice already has a parent; restricted chase creates no null.
        let p = parse_program("person(?X) -> exists ?Y parent(?X, ?Y).").unwrap();
        let mut db = Database::new();
        db.add_fact("person", &["alice"]);
        db.add_fact("parent", &["alice", "bob"]);
        let out = chase(
            &db,
            &p,
            ChaseConfig {
                strategy: ExistentialStrategy::Restricted,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.nulls, 0);
        // Skolem, by contrast, invents one.
        let out2 = chase(&db, &p, ChaseConfig::default()).unwrap();
        assert_eq!(out2.stats.nulls, 1);
    }

    #[test]
    fn multi_head_existential_shares_null() {
        let out = run(
            "coauthor(?X, ?Y) -> exists ?Z author_of(?X, ?Z), author_of(?Y, ?Z).",
            &[("coauthor", &["aho", "ullman"])],
        );
        assert_eq!(out.stats.nulls, 1);
        let atoms: Vec<GroundAtom> = out.instance.atoms_of(intern("author_of")).collect();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].terms[1], atoms[1].terms[1]);
    }

    #[test]
    fn constraints_fire() {
        let out = run(
            "type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.",
            &[
                ("type", &["a", "c1"]),
                ("type", &["a", "c2"]),
                ("disj", &["c1", "c2"]),
            ],
        );
        assert!(out.inconsistent);
        let out2 = run(
            "type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.",
            &[("type", &["a", "c1"]), ("disj", &["c1", "c2"])],
        );
        assert!(!out2.inconsistent);
    }

    #[test]
    fn builtins_filter_matches() {
        let out = run(
            "e(?X, ?Y), ?X != ?Y -> nonloop(?X, ?Y).\n\
             e(?X, ?Y), ?X = ?Y -> loop(?X).",
            &[("e", &["a", "a"]), ("e", &["a", "b"])],
        );
        assert!(has(&out, "nonloop", &["a", "b"]));
        assert!(!has(&out, "nonloop", &["a", "a"]));
        assert!(has(&out, "loop", &["a"]));
    }

    #[test]
    fn atom_budget_is_enforced() {
        let p = parse_program("e(?X, ?Y), e(?Y, ?Z) -> e(?X, ?Z).").unwrap();
        let mut db = Database::new();
        for i in 0..50 {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let res = chase(
            &db,
            &p,
            ChaseConfig {
                max_atoms: 100,
                ..ChaseConfig::default()
            },
        );
        assert!(matches!(res, Err(TriqError::ResourceExhausted(_))));
    }

    #[test]
    fn negation_sees_closed_lower_stratum() {
        // q must be fully computed before r's negation consults it.
        let out = run(
            "e(?X, ?Y) -> q(?Y).\n\
             e(?X, ?Y), q(?Y), e(?Y, ?Z) -> q(?Z).\n\
             n(?X), !q(?X) -> r(?X).",
            &[
                ("e", &["a", "b"]),
                ("e", &["b", "c"]),
                ("n", &["a"]),
                ("n", &["b"]),
                ("n", &["c"]),
            ],
        );
        assert!(has(&out, "r", &["a"]));
        assert!(!has(&out, "r", &["b"]));
        assert!(!has(&out, "r", &["c"]));
    }

    #[test]
    fn repeated_variables_in_atoms_join_correctly() {
        let out = run(
            "e(?X, ?X) -> selfloop(?X).\n\
             t(?X, ?Y, ?X) -> wrap(?X, ?Y).",
            &[
                ("e", &["a", "a"]),
                ("e", &["a", "b"]),
                ("t", &["a", "b", "a"]),
                ("t", &["a", "b", "c"]),
            ],
        );
        assert!(has(&out, "selfloop", &["a"]));
        assert_eq!(out.instance.atoms_of(intern("selfloop")).count(), 1);
        assert!(has(&out, "wrap", &["a", "b"]));
        assert_eq!(out.instance.atoms_of(intern("wrap")).count(), 1);
    }

    #[test]
    fn stale_stratification_is_rejected() {
        let p1 = parse_program("e(?X, ?Y) -> t(?X, ?Y).").unwrap();
        let strat = crate::stratify(&p1).unwrap();
        // Union in an extra rule after stratifying: the old stratification
        // no longer covers the program and must be rejected, not silently
        // skip the new rule.
        let p2 = p1.union(&parse_program("t(?X, ?Y) -> reach(?X).").unwrap());
        let err =
            ChaseRunner::with_stratification(p2.clone(), strat.clone(), ChaseConfig::default())
                .unwrap_err();
        assert!(matches!(err, TriqError::InvalidProgram(_)), "{err}");
        let db = Database::new();
        assert!(chase_stratified(&db, &p2, &strat, ChaseConfig::default()).is_err());
        // A matching stratification is accepted.
        let fresh = crate::stratify(&p2).unwrap();
        assert!(ChaseRunner::with_stratification(p2, fresh, ChaseConfig::default()).is_ok());
    }

    #[test]
    fn chase_runner_reuses_compiled_state_across_databases() {
        let p = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
             n(?X), !t(?X, ?X) -> acyclic(?X).",
        )
        .unwrap();
        let runner = ChaseRunner::new(p.clone(), ChaseConfig::default()).unwrap();
        for facts in [
            vec![
                ("e", vec!["a", "b"]),
                ("e", vec!["b", "c"]),
                ("n", vec!["a"]),
            ],
            vec![("e", vec!["x", "x"]), ("n", vec!["x"])],
            vec![("n", vec!["lonely"])],
        ] {
            let mut db = Database::new();
            for (pred, args) in &facts {
                db.add_fact(pred, args);
            }
            let prepared = runner.run(&db).unwrap();
            let oneshot = chase(&db, &p, ChaseConfig::default()).unwrap();
            assert_eq!(prepared.instance.len(), oneshot.instance.len());
            for (_, atom) in oneshot.instance.iter() {
                assert!(prepared.instance.contains(&atom));
            }
        }
    }

    #[test]
    fn constants_in_rule_bodies_restrict_matches() {
        let out = run(
            "e(a, ?Y) -> from_a(?Y).",
            &[("e", &["a", "b"]), ("e", &["c", "d"])],
        );
        assert!(has(&out, "from_a", &["b"]));
        assert!(!has(&out, "from_a", &["d"]));
    }

    #[test]
    fn planner_counters_tick_and_modes_agree() {
        // A star join big enough to trigger a joint-index build, plus a
        // fully-bound cycle probe for the tuple-hash path.
        let mut db = Database::new();
        for i in 0..600u32 {
            db.add_fact(
                "hub",
                &[
                    &format!("a{}", i % 16),
                    &format!("b{}", i % 16),
                    &format!("c{i}"),
                ],
            );
        }
        for i in 0..16u32 {
            db.add_fact("s1", &[&format!("a{i}")]);
            db.add_fact("s2", &[&format!("b{i}")]);
        }
        let p = parse_program(
            "s1(?A), s2(?B), hub(?A, ?B, ?C) -> out(?C).\n\
             s1(?A), s2(?B), hub(?A, ?B, ?C), out(?C) -> both(?A, ?B).",
        )
        .unwrap();
        let cost = chase(&db, &p, ChaseConfig::default()).unwrap();
        assert!(cost.stats.plans_compiled >= 2, "both rules planned");
        assert!(cost.stats.index_builds >= 1, "joint index built");
        assert!(cost.stats.index_probes > 0, "hash probes served");
        let greedy = {
            let _greedy = crate::schedule::force(Schedule {
                join_order: JoinOrder::Greedy,
            });
            chase(&db, &p, ChaseConfig::default()).unwrap()
        };
        assert_eq!(greedy.stats.plans_compiled, 0);
        assert_eq!(greedy.stats.index_builds, 0);
        assert_eq!(greedy.stats.index_probes, 0);
        // Byte-identical output regardless of mode (the differential
        // suite covers this broadly; this is the smoke-level pin).
        assert_eq!(cost.instance.len(), greedy.instance.len());
        for (id, atom) in greedy.instance.iter() {
            assert_eq!(cost.instance.find(&atom), Some(id));
        }
        // The planner did its job: far fewer candidates examined.
        assert!(
            cost.stats.probes < greedy.stats.probes / 2,
            "planner-on probes {} vs greedy {}",
            cost.stats.probes,
            greedy.stats.probes
        );
    }

    #[test]
    fn the_kernel_leading_scan_fires_and_matches_the_reference() {
        // One hot recursive rule plus a constant-filtered rule and a
        // repeated-variable rule, so the kernel leading scan fires. Its
        // ground atoms must be the naive reference's.
        let program = "e(?X, ?Y) -> t(?X, ?Y).\n\
                       e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                       e(hub, ?Y) -> from_hub(?Y).\n\
                       e(?X, ?X) -> selfloop(?X).";
        let p = parse_program(program).unwrap();
        let mut db = Database::new();
        for i in 0..120u32 {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", (i + 1) % 120)]);
            // Half the edges leave the hub: the hub posting list is
            // unselective enough that the kernel scan beats it.
            db.add_fact(
                "e",
                &[if i % 2 == 0 { "hub" } else { "spoke" }, &format!("n{i}")],
            );
        }
        db.add_fact("e", &["hub", "hub"]);
        let out = chase(&db, &p, ChaseConfig::default()).unwrap();
        assert!(out.stats.kernel_filter_rows > 0, "the kernel scan fired");
        let naive = crate::reference::naive_chase(&db, &p, ChaseConfig::default()).unwrap();
        let ground: std::collections::BTreeSet<String> = out
            .instance
            .ground_part()
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(naive.ground_part(), ground);
        assert!(has(&out, "selfloop", &["hub"]));
    }
}
