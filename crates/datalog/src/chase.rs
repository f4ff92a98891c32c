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
//! delta windows cap every candidate range at the round's start length),
//! so it is collected **morsel-parallel**: every rule's pivot windows are
//! split into fixed-size morsels of pivot atoms
//! ([`ChaseConfig::morsel_size`]), a `std::thread::scope` worker pool
//! drains the flat task list through a shared atomic cursor into
//! per-task flat buffers, and the buffers are merged back in task order.
//! Because the morsels partition each rule's match set disjointly and the
//! merged matches then pass through the same canonical per-rule sort the
//! sequential path uses, *application* (serial, in rule order) produces
//! byte-for-byte the same instance — identical [`AtomId`]s, nulls and
//! provenance — regardless of morsel size or worker count. A rule whose
//! pivot atom leads its join order additionally routes the leading scan
//! through the vectorized column kernels of [`crate::kernels`] when the
//! relation is dense and the filter is unselective enough
//! ([`ChaseStats::kernel_filter_rows`] counts the rows so screened).

use crate::instance::{AtomId, Database, Derivation, Instance, Relation};
use crate::kernels;
use crate::planner::{self, BoundOrder, JoinPlanner, ProbeKind, RulePlan};
use crate::{Atom, Builtin, Program, Rule, Stratification};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Chase configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Existential strategy.
    pub strategy: ExistentialStrategy,
    /// Maximum null invention depth; rule applications that would create a
    /// deeper null are skipped and [`ChaseStats::truncated`] is set.
    pub max_null_depth: u32,
    /// Hard budget on the total number of stored atoms.
    pub max_atoms: usize,
    /// Evaluate a round with morsel-parallel match collection once its
    /// delta window (new atoms since the previous round) holds at least
    /// this many atoms (`usize::MAX` forces sequential evaluation; `0`
    /// forces the morsel machinery even on one worker, for the
    /// schedule-equality tests). Parallelism never changes results —
    /// only wall-clock: tiny rounds stay on one thread where task
    /// dispatch would dominate.
    pub parallel_threshold: usize,
    /// Atoms per morsel: each rule's pivot window is split into tasks of
    /// at most this many pivot candidates, which workers steal
    /// independently. Smaller morsels balance better and bigger ones
    /// amortize task overhead; `0` is treated as `1`. The differential
    /// suites force extreme values (down to 1) to pin schedule
    /// independence.
    pub morsel_size: usize,
    /// Worker threads for morsel-parallel collection; `0` (the default)
    /// means one per available hardware thread.
    pub chase_threads: usize,
    /// Which join order the match loops follow. Plans never change
    /// results — the collected matches of a round are applied in a
    /// canonical order regardless of how they were enumerated — so this
    /// knob trades planning work against join work (and the
    /// [`JoinPlanner::ReverseOrder`] setting exists purely for the
    /// differential planner harness).
    pub planner: JoinPlanner,
    /// Whether the *facade* (`triq-core`'s `Engine`) may answer point
    /// queries by chasing the magic-set rewrite of the program instead
    /// of the program itself (see `crate::demand`). The chase proper
    /// ignores this field — it evaluates whatever program it is given —
    /// but it lives here so the knob rides along with every prepared
    /// plan, is covered by plan fingerprints, and survives the
    /// persistence round-trip.
    pub demand: crate::demand::DemandMode,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            strategy: ExistentialStrategy::Skolem,
            max_null_depth: 6,
            max_atoms: 10_000_000,
            parallel_threshold: 4096,
            morsel_size: 2048,
            chase_threads: 0,
            planner: JoinPlanner::CostBased,
            demand: crate::demand::DemandMode::Auto,
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
    /// Strata whose rules were evaluated with parallel match collection.
    pub parallel_strata: usize,
    /// Morsel tasks executed by the parallel match collector (each task
    /// is one rule × pivot × window slice of at most
    /// [`ChaseConfig::morsel_size`] pivot candidates).
    pub morsel_batches: u64,
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
        self.parallel_strata += run.parallel_strata;
        self.morsel_batches += run.morsel_batches;
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
    /// chase work is mapped onto [`Counter`]s (`rounds`, `nulls` and
    /// `truncated` describe the outcome, not work, and have no entry).
    pub fn count_into(&self, counters: &Counters) {
        counters.add(Counter::AtomsDerived, self.derived as u64);
        counters.add(Counter::JoinProbes, self.probes);
        counters.add(Counter::ParallelStrata, self.parallel_strata as u64);
        counters.add(Counter::PlansCompiled, self.plans_compiled as u64);
        counters.add(Counter::Replans, self.replans as u64);
        counters.add(Counter::IndexBuilds, self.index_builds as u64);
        counters.add(Counter::IndexProbes, self.index_probes);
        counters.add(Counter::MorselBatches, self.morsel_batches);
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
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum CBuiltin {
    Eq(CTerm, CTerm),
    Neq(CTerm, CTerm),
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
    frontier_slots: Vec<u16>,
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

    fn compile_atom(&mut self, atom: &Atom) -> CAtom {
        CAtom {
            pred: atom.pred,
            terms: atom.terms.iter().map(|&t| self.compile_term(t)).collect(),
        }
    }

    fn compile_term(&mut self, t: Term) -> CTerm {
        match t {
            Term::Var(v) => CTerm::Slot(self.slot(v)),
            other => CTerm::Fixed(TermId::from_term(other).expect("ground term")),
        }
    }
}

fn compile_constraint(c: &crate::Constraint) -> CompiledConstraint {
    let mut slot_map = SlotMap::new();
    let atoms: Vec<CAtom> = c.body.iter().map(|a| slot_map.compile_atom(a)).collect();
    let builtins: Vec<CBuiltin> = c
        .builtins
        .iter()
        .map(|b| match *b {
            Builtin::Eq(x, y) => CBuiltin::Eq(slot_map.compile_term(x), slot_map.compile_term(y)),
            Builtin::Neq(x, y) => CBuiltin::Neq(slot_map.compile_term(x), slot_map.compile_term(y)),
        })
        .collect();
    CompiledConstraint {
        n_slots: slot_map.map.len(),
        atoms,
        builtins,
    }
}

pub(crate) fn compile_rule(rule: &Rule) -> CompiledRule {
    let mut slots = SlotMap::new();
    let body_pos = rule
        .body_pos
        .iter()
        .map(|a| slots.compile_atom(a))
        .collect();
    let body_neg = rule
        .body_neg
        .iter()
        .map(|a| slots.compile_atom(a))
        .collect();
    let builtins = rule
        .builtins
        .iter()
        .map(|b| match *b {
            Builtin::Eq(x, y) => CBuiltin::Eq(slots.compile_term(x), slots.compile_term(y)),
            Builtin::Neq(x, y) => CBuiltin::Neq(slots.compile_term(x), slots.compile_term(y)),
        })
        .collect();
    let heads = rule.head.iter().map(|a| slots.compile_atom(a)).collect();
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

/// Enumerates homomorphisms from `atoms` into `inst`, where atom `i` may
/// only match stored atoms with id in `ranges[i]`. Calls `on_match` for
/// every complete match; returning `false` stops the enumeration. Returns
/// the number of candidate tuples probed.
fn enumerate_matches(
    inst: &Instance,
    atoms: &[CAtom],
    ranges: &[(AtomId, AtomId)],
    slots: &mut Slots,
    on_match: &mut dyn FnMut(&Slots, &[AtomId]) -> bool,
) -> u64 {
    let rels: Vec<Option<&Relation>> = atoms
        .iter()
        .map(|a| inst.relation(a.pred, a.terms.len()))
        .collect();
    let mut chosen: Vec<AtomId> = vec![0; atoms.len()];
    let mut solved: Vec<bool> = vec![false; atoms.len()];
    let mut probes = 0u64;
    solve(
        inst,
        atoms,
        &rels,
        ranges,
        slots,
        &mut chosen,
        &mut solved,
        0,
        &mut probes,
        on_match,
    );
    probes
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn solve(
    inst: &Instance,
    atoms: &[CAtom],
    rels: &[Option<&Relation>],
    ranges: &[(AtomId, AtomId)],
    slots: &mut Slots,
    chosen: &mut Vec<AtomId>,
    solved: &mut Vec<bool>,
    depth: usize,
    probes: &mut u64,
    on_match: &mut dyn FnMut(&Slots, &[AtomId]) -> bool,
) -> bool {
    if depth == atoms.len() {
        return on_match(slots, chosen);
    }
    // Pick the unsolved atom with the fewest candidates (keeping the
    // winning slice — candidate selection is not recomputed).
    let mut pick = usize::MAX;
    let mut cands: &[AtomId] = &[];
    let mut pick_len = usize::MAX;
    for (i, atom) in atoms.iter().enumerate() {
        if solved[i] {
            continue;
        }
        let c = candidates(rels[i], atom, slots, ranges[i]);
        if c.len() < pick_len {
            pick = i;
            pick_len = c.len();
            cands = c;
            if c.is_empty() {
                break;
            }
        }
    }
    let atom = &atoms[pick];
    *probes += cands.len() as u64;
    if cands.is_empty() {
        return true;
    }
    solved[pick] = true;
    let rel = rels[pick].expect("an atom with candidates has a relation");
    let mut trail: Vec<u16> = Vec::with_capacity(atom.terms.len());
    for &id in cands {
        let row = inst.row_of(id);
        if !bind_row(rel, atom, row, slots, &mut trail) {
            continue;
        }
        chosen[pick] = id;
        let keep_going = solve(
            inst,
            atoms,
            rels,
            ranges,
            slots,
            chosen,
            solved,
            depth + 1,
            probes,
            on_match,
        );
        for s in trail.drain(..) {
            slots[s as usize] = None;
        }
        if !keep_going {
            solved[pick] = false;
            return false;
        }
    }
    solved[pick] = false;
    true
}

/// Unifies `atom`'s compiled pattern against stored row `row`, binding
/// free slots and pushing them onto `trail`. On mismatch every slot
/// bound here is unwound (trail drained) and `false` is returned. This
/// is the one candidate-verification loop both join solvers (`solve`
/// and `solve_ordered`) share — the binding/unwind semantics must never
/// diverge between the greedy and the planned path.
#[inline]
fn bind_row(
    rel: &Relation,
    atom: &CAtom,
    row: u32,
    slots: &mut Slots,
    trail: &mut Vec<u16>,
) -> bool {
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
            for s in trail.drain(..) {
                slots[s as usize] = None;
            }
            return false;
        }
    }
    true
}

/// Like [`solve`], but following a precompiled [`BoundOrder`] instead of
/// picking adaptively: position `pos` probes atom `order.order[pos]` the
/// way `order.probes[pos]` prescribes. Fully-bound positions resolve with
/// one whole-tuple hash probe; joint-indexed positions look up their
/// candidate list in one hash (falling back to the per-column path when
/// the index was invalidated and not yet rebuilt). `index_probes` counts
/// the probes a hash index answered.
#[allow(clippy::too_many_arguments)]
fn solve_ordered(
    inst: &Instance,
    atoms: &[CAtom],
    rels: &[Option<&Relation>],
    ranges: &[(AtomId, AtomId)],
    order: &BoundOrder,
    pos: usize,
    slots: &mut Slots,
    chosen: &mut Vec<AtomId>,
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
    let range = ranges[ai];
    if order.probes[pos] == ProbeKind::Full {
        // Every column is bound: one O(1) hash probe decides the
        // position, and equality is guaranteed — no per-column loop, no
        // slot binding.
        let Some(rel) = rels[ai] else { return true };
        key_buf.clear();
        key_buf.extend(
            atom.terms
                .iter()
                .map(|&t| resolve(t, slots).expect("full-probe position is fully bound")),
        );
        *index_probes += 1;
        let Some(row) = rel.find_row(key_buf) else {
            return true;
        };
        let id = rel.row_to_id(row).expect("found rows are stored");
        if id < range.0 || id >= range.1 {
            return true;
        }
        *probes += 1;
        chosen[ai] = id;
        return solve_ordered(
            inst,
            atoms,
            rels,
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
    }
    let cands: &[AtomId] = match &order.probes[pos] {
        ProbeKind::Joint(cols) => {
            let joint = rels[ai].and_then(|rel| {
                rel.joint_ids(
                    cols,
                    cols.iter().map(|&c| {
                        resolve(atom.terms[c as usize], slots).expect("joint columns are bound")
                    }),
                )
            });
            match joint {
                Some(ids) => {
                    *index_probes += 1;
                    let lo = ids.partition_point(|&id| id < range.0);
                    let hi = ids.partition_point(|&id| id < range.1);
                    &ids[lo..hi]
                }
                None => candidates(rels[ai], atom, slots, range),
            }
        }
        _ => candidates(rels[ai], atom, slots, range),
    };
    *probes += cands.len() as u64;
    if cands.is_empty() {
        return true;
    }
    let rel = rels[ai].expect("an atom with candidates has a relation");
    let mut trail: Vec<u16> = Vec::with_capacity(atom.terms.len());
    for &id in cands {
        let row = inst.row_of(id);
        if !bind_row(rel, atom, row, slots, &mut trail) {
            continue;
        }
        chosen[ai] = id;
        let keep_going = solve_ordered(
            inst,
            atoms,
            rels,
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
        for s in trail.drain(..) {
            slots[s as usize] = None;
        }
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
    /// Morsel tasks merged into this rule's matches (0 on the
    /// sequential path).
    batches: u64,
    /// Rows the vectorized filter kernels examined.
    kernel_rows: u64,
}

/// A growing flat match buffer plus the counters accumulated while
/// filling it — what one morsel task produces, and what the per-rule
/// merge concatenates before canonicalization.
#[derive(Default)]
struct MatchAccum {
    count: usize,
    slots_flat: Vec<Option<TermId>>,
    ids_flat: Vec<AtomId>,
    probes: u64,
    index_probes: u64,
    kernel_rows: u64,
    batches: u64,
}

impl MatchAccum {
    /// Appends another accumulator's matches (in task order — the
    /// canonical sort in [`finish_rule_matches`] makes the final order
    /// schedule-independent).
    fn absorb(&mut self, other: MatchAccum) {
        self.count += other.count;
        self.slots_flat.extend_from_slice(&other.slots_flat);
        self.ids_flat.extend_from_slice(&other.ids_flat);
        self.probes += other.probes;
        self.index_probes += other.index_probes;
        self.kernel_rows += other.kernel_rows;
        self.batches += other.batches + 1;
    }
}

/// One unit of morsel-parallel work: match rule `rule_pos` (a position
/// into the round's `rule_indices`) with pivot atom `pivot` restricted
/// to candidate ids in `lo..hi` — a slice of at most
/// [`ChaseConfig::morsel_size`] pivot candidates. In the first round
/// (`delta_start == 0`) `pivot` is the rule's *split* atom instead.
struct MorselTask {
    rule_pos: u32,
    pivot: u32,
    lo: AtomId,
    hi: AtomId,
}

/// Per-rule scratch the match loops reuse across pivots (and one morsel
/// task allocates once): the solvers restore `slots`/`solved` on unwind,
/// so reuse is safe.
struct PivotScratch {
    ranges: Vec<(AtomId, AtomId)>,
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
            ranges: vec![(0, 0); n],
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
    rel: Option<&Relation>,
    atom: &CAtom,
    range: (AtomId, AtomId),
    sel: &mut Vec<u32>,
    pivot_ids: &mut Vec<AtomId>,
    kernel_rows: &mut u64,
) -> bool {
    let Some(rel) = rel else { return false };
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
/// them (unsorted) to `out`. `pivot_range` restricts the pivot atom's
/// candidate ids — `(delta_start, prev_len)` for a whole pivot window,
/// or a morsel slice of it. For the first round (`delta_start == 0`)
/// there is a single call per rule and `pivot` names the *split* atom
/// whose scan the morsels partition; every other atom sees the full
/// `(0, prev_len)` window.
///
/// Read-only on the instance, so any number of calls (across pivots,
/// morsels, threads) may run concurrently; because the pivot windows of
/// different calls are disjoint, their match sets partition the round's
/// total match set — which is what makes morsel-parallel collection
/// exact, not approximate.
#[allow(clippy::too_many_arguments)]
fn match_one_pivot(
    inst: &Instance,
    rule: &CompiledRule,
    plan: Option<&RulePlan>,
    rels: &[Option<&Relation>],
    scratch: &mut PivotScratch,
    delta_start: AtomId,
    prev_len: AtomId,
    pivot: usize,
    pivot_range: (AtomId, AtomId),
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
    // must be in its (possibly morsel-restricted) delta slice, the rest
    // unconstrained but capped at prev_len so a round never consumes its
    // own output. First round: everything capped at prev_len.
    for (i, r) in ranges.iter_mut().enumerate() {
        *r = if i == pivot {
            pivot_range
        } else if delta_start == 0 || i > pivot {
            (0, prev_len)
        } else {
            (0, delta_start)
        };
    }
    let order = plan.map(|p| {
        if delta_start == 0 {
            &p.full
        } else {
            &p.pivots[pivot]
        }
    });
    let MatchAccum {
        count,
        slots_flat,
        ids_flat,
        probes,
        index_probes,
        kernel_rows,
        batches: _,
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
    // bound row to the remaining join. Only the enumeration of the same
    // candidate set changes — never the match set.
    let plan_leads_with_pivot = match order {
        None => true,
        Some(o) => {
            o.order[0] as usize == pivot && matches!(o.probes[0], ProbeKind::Scan | ProbeKind::Cols)
        }
    };
    let pa = &rule.body_pos[pivot];
    if plan_leads_with_pivot
        && kernel_pivot_ids(rels[pivot], pa, pivot_range, sel, pivot_ids, kernel_rows)
    {
        let rel = rels[pivot].expect("kernel scan implies the relation exists");
        *probes += pivot_ids.len() as u64;
        let mut trail: Vec<u16> = Vec::with_capacity(pa.terms.len());
        solved[pivot] = true;
        for &id in pivot_ids.iter() {
            let row = inst.row_of(id);
            if !bind_row(rel, pa, row, slots, &mut trail) {
                continue;
            }
            chosen[pivot] = id;
            let keep_going = match order {
                Some(order) => solve_ordered(
                    inst,
                    &rule.body_pos,
                    rels,
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
                    inst,
                    &rule.body_pos,
                    rels,
                    ranges,
                    slots,
                    chosen,
                    solved,
                    1,
                    probes,
                    &mut on_match,
                ),
            };
            for s in trail.drain(..) {
                slots[s as usize] = None;
            }
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
                inst,
                &rule.body_pos,
                rels,
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
                inst,
                &rule.body_pos,
                rels,
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
/// of different pivots are disjoint, morsels partition each window, and
/// within a slice the enumeration visits each candidate combination
/// once), so sorting by those tuples yields one schedule-independent
/// order. Enumeration often already emits in this order (single-atom
/// bodies always do), so check before paying for the permutation.
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
        batches,
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
        batches,
        kernel_rows,
    }
}

/// Collects the semi-naive matches of one rule within a round, through
/// the rule's compiled [`RulePlan`] (or the adaptive greedy pick when
/// `plan` is `None`). Read-only on the instance: every candidate range is
/// capped at `prev_len`, so the result is independent of any same-round
/// insertions — which is what makes per-rule parallel collection exact,
/// not approximate.
///
/// The returned matches are in **canonical order** (sorted by their
/// chosen body-atom ids). The match *set* of a round is a function of the
/// instance and the windows alone, so canonicalizing the apply order
/// makes the chase's output — AtomIds, null numbering, provenance, all of
/// it — independent of the join order the planner picked. That is the
/// invariant `tests/differential_planner.rs` pins byte-for-byte.
fn collect_rule_matches(
    inst: &Instance,
    rule: &CompiledRule,
    plan: Option<&RulePlan>,
    delta_start: AtomId,
    prev_len: AtomId,
    rec: &dyn Recorder,
) -> RuleMatches {
    let n = rule.body_pos.len();
    let rels: Vec<Option<&Relation>> = rule
        .body_pos
        .iter()
        .map(|a| inst.relation(a.pred, a.terms.len()))
        .collect();
    let mut scratch = PivotScratch::for_rule(rule);
    let mut accum = MatchAccum::default();
    for pivot in 0..n {
        if delta_start == 0 && pivot > 0 {
            break; // first round: single full join
        }
        match_one_pivot(
            inst,
            rule,
            plan,
            &rels,
            &mut scratch,
            delta_start,
            prev_len,
            pivot,
            (delta_start, prev_len),
            &mut accum,
        );
    }
    finish_rule_matches(rule, accum, rec)
}

/// The skolem memoization retained across incremental delta applications:
/// (rule index, frontier values) → the null ids invented for the rule's
/// existential variables. Resuming a chase **must** reuse this map — a
/// fresh one would re-invent nulls for frontiers that already fired,
/// producing atoms a from-scratch chase would never contain.
pub(crate) type SkolemMemo = HashMap<(usize, Box<[TermId]>), Vec<TermId>>;

pub(crate) struct Engine<'a> {
    compiled: &'a [CompiledRule],
    constraints: &'a [CompiledConstraint],
    config: ChaseConfig,
    /// Hardware threads, sampled once per chase run (the per-round hot
    /// loop must not re-query the scheduler).
    hw_threads: usize,
    /// Per-rule join plans, index-aligned with `compiled`. Seeded from
    /// the runner's build-time heuristic plans and re-planned at stratum
    /// entry from live statistics (see [`Engine::plan_stratum`]). Unused
    /// under [`JoinPlanner::Greedy`].
    plans: Vec<RulePlan>,
    pub(crate) instance: Instance,
    pub(crate) stats: ChaseStats,
    /// Skolem memo: (rule, frontier values) → existential null ids.
    pub(crate) skolem: SkolemMemo,
    /// Scratch row for head instantiation / negative checks.
    key_buf: Vec<TermId>,
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
        config: ChaseConfig,
        rec: &'a dyn Recorder,
    ) -> Self {
        debug_assert_eq!(plans.len(), compiled.len());
        Engine {
            compiled,
            constraints,
            config,
            hw_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            plans,
            instance: seed,
            stats: ChaseStats::default(),
            skolem: HashMap::new(),
            key_buf: Vec::new(),
            rec,
        }
    }

    /// The plan `collect_rule_matches` should follow for rule `ri`
    /// (`None` = the adaptive greedy pick). Cost-based plans defer to
    /// the greedy pick when they have nothing to offer (short bodies
    /// with no hash-indexed probe positions — see
    /// [`RulePlan::worthwhile`]); the forced-reverse test mode never
    /// defers.
    fn plan_for(&self, ri: usize) -> Option<&RulePlan> {
        match self.config.planner {
            JoinPlanner::Greedy => None,
            JoinPlanner::ReverseOrder => Some(&self.plans[ri]),
            JoinPlanner::CostBased => {
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
        if self.config.planner == JoinPlanner::Greedy {
            return;
        }
        let mut replanned = false;
        for &ri in rule_indices {
            let rule = &self.compiled[ri];
            match self.config.planner {
                JoinPlanner::Greedy => unreachable!("checked above"),
                JoinPlanner::ReverseOrder => {
                    // Data-free by design: compiled once, never re-planned.
                    if !self.plans[ri].from_stats {
                        let mut plan = planner::plan_rule_reversed(rule);
                        plan.from_stats = true;
                        self.plans[ri] = plan;
                        self.stats.plans_compiled += 1;
                        replanned = true;
                    }
                }
                JoinPlanner::CostBased => {
                    // The drift gate governs *all* re-planning: the
                    // build-time heuristic plan (snapshot all-zero)
                    // keeps serving tiny relations — below the drift
                    // floor the order genuinely doesn't matter — and is
                    // replaced by a stats-driven plan exactly when
                    // cardinalities move past the threshold.
                    let plan = &self.plans[ri];
                    let counts = planner::body_row_counts(rule, &self.instance);
                    if planner::drifted(&plan.snapshot, &counts) {
                        if plan.from_stats {
                            self.stats.replans += 1;
                        } else {
                            self.stats.plans_compiled += 1;
                        }
                        self.plans[ri] =
                            planner::plan_rule_timed(rule, Some(&self.instance), self.rec);
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
            if self.instance.contains_ids(neg.pred, &self.key_buf) {
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
        if !rule.exist_slots.is_empty() {
            let frontier_vals: Box<[TermId]> = rule
                .frontier_slots
                .iter()
                .map(|&s| slots[s as usize].expect("frontier slot bound"))
                .collect();
            match self.config.strategy {
                ExistentialStrategy::Skolem => {
                    if let Some(known) = self.skolem.get(&(rule_idx, frontier_vals.clone())) {
                        for (&s, &t) in rule.exist_slots.iter().zip(known.iter()) {
                            slots[s as usize] = Some(t);
                        }
                    } else {
                        let depth = self.instance.next_depth_ids(&frontier_vals);
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
                    let cap = self.instance.len() as AtomId;
                    let ranges = vec![(0, cap); rule.heads.len()];
                    let mut satisfied = false;
                    self.stats.probes += enumerate_matches(
                        &self.instance,
                        &rule.heads,
                        &ranges,
                        slots,
                        &mut |_, _| {
                            satisfied = true;
                            false
                        },
                    );
                    if satisfied {
                        return Ok(());
                    }
                    let depth = self.instance.next_depth_ids(&frontier_vals);
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
        for head in &self.compiled[rule_idx].heads {
            instantiate_into(head, slots, &mut self.key_buf);
            let (_, fresh) = self.instance.insert_ids(
                head.pred,
                &self.key_buf,
                Some(Derivation {
                    rule: rule_idx,
                    body: body_ids.to_vec(),
                }),
            );
            if fresh {
                self.stats.derived += 1;
                if self.instance.len() > self.config.max_atoms {
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

    /// Morsel workers for this run: the configured thread count, or one
    /// per hardware thread when unset.
    fn morsel_workers(&self) -> usize {
        if self.config.chase_threads > 0 {
            self.config.chase_threads
        } else {
            self.hw_threads
        }
    }

    /// The body atom whose scan the first (full-join) round splits into
    /// morsels: the one with the largest live extent below `prev_len`
    /// (most rows to split; ties break on the lowest body index, keeping
    /// the task list deterministic). Restricting any *single* atom's id
    /// range partitions the rule's match set, so the choice affects
    /// balance, never results. `None` when no atom has candidates — the
    /// rule cannot match this round.
    fn split_atom(&self, rule: &CompiledRule, prev_len: AtomId) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (extent, atom index)
        for (i, atom) in rule.body_pos.iter().enumerate() {
            let extent = self
                .instance
                .relation(atom.pred, atom.terms.len())
                .map_or(0, |rel| rel.atom_ids().partition_point(|&id| id < prev_len));
            if best.is_none_or(|(b, _)| extent > b) {
                best = Some((extent, i));
            }
        }
        match best {
            Some((extent, i)) if extent > 0 => Some(i),
            _ => None,
        }
    }

    /// Builds the round's morsel task list: for every rule, every pivot
    /// (the split atom alone in the first round), the pivot atom's live
    /// ids inside the delta window are chunked into slices of at most
    /// `morsel_size`, each becoming one independent task. The task
    /// ranges partition each pivot's window exactly, so the tasks' match
    /// sets partition the round's — any schedule reassembles the same
    /// round.
    fn morsel_tasks(
        &self,
        rule_indices: &[usize],
        delta_start: AtomId,
        prev_len: AtomId,
    ) -> Vec<MorselTask> {
        let morsel = self.config.morsel_size.max(1);
        let mut tasks: Vec<MorselTask> = Vec::new();
        for (pos, &ri) in rule_indices.iter().enumerate() {
            let rule = &self.compiled[ri];
            let n = rule.body_pos.len();
            if n == 0 {
                continue; // bodyless rules derive nothing (no pivot scan)
            }
            let (pivot_lo, pivot_hi) = if delta_start == 0 {
                match self.split_atom(rule, prev_len) {
                    Some(split) => (split, split + 1),
                    None => continue,
                }
            } else {
                (0, n)
            };
            for pivot in pivot_lo..pivot_hi {
                let atom = &rule.body_pos[pivot];
                let Some(rel) = self.instance.relation(atom.pred, atom.terms.len()) else {
                    continue;
                };
                let ids = rel.atom_ids();
                let lo_idx = ids.partition_point(|&id| id < delta_start);
                let hi_idx = ids.partition_point(|&id| id < prev_len);
                let extent = &ids[lo_idx..hi_idx];
                if extent.is_empty() {
                    continue; // the pivot atom has no candidates: no matches
                }
                let mut start = delta_start;
                let mut k = morsel;
                while k < extent.len() {
                    tasks.push(MorselTask {
                        rule_pos: pos as u32,
                        pivot: pivot as u32,
                        lo: start,
                        hi: extent[k],
                    });
                    start = extent[k];
                    k += morsel;
                }
                tasks.push(MorselTask {
                    rule_pos: pos as u32,
                    pivot: pivot as u32,
                    lo: start,
                    hi: prev_len,
                });
            }
        }
        tasks
    }

    /// Collects one round's matches for every rule of the stratum.
    ///
    /// When the round's delta window reaches `parallel_threshold` and
    /// more than one worker is available (`parallel_threshold == 0`
    /// forces the machinery even on one worker, for the
    /// schedule-equality tests), the round is split into **morsel
    /// tasks** — rule × pivot × window slice — which scoped workers
    /// steal off a shared cursor into private flat buffers; the buffers
    /// are then merged per rule in task order and canonicalized exactly
    /// like the sequential path's, so a single hot recursive rule now
    /// scales with cores instead of pinning one. Otherwise every rule is
    /// collected sequentially. Either way the returned matches are
    /// byte-identical; the flag reports whether the morsel path ran.
    fn collect_round(
        &self,
        rule_indices: &[usize],
        delta_start: AtomId,
        prev_len: AtomId,
    ) -> (Vec<RuleMatches>, bool) {
        // The delta window is the work available this round; first round
        // (delta_start == 0) the whole instance is the window. Cheap
        // rejections first — the common case is a sequential round.
        let window = (prev_len - delta_start) as usize;
        let forced = self.config.parallel_threshold == 0;
        let workers = self.morsel_workers();
        let parallel = window >= self.config.parallel_threshold && (workers >= 2 || forced);
        let sequential = |taken: bool| {
            let collected = rule_indices
                .iter()
                .map(|&ri| {
                    let _rule = Timer::start(self.rec, Phase::ChaseRuleMatch);
                    collect_rule_matches(
                        &self.instance,
                        &self.compiled[ri],
                        self.plan_for(ri),
                        delta_start,
                        prev_len,
                        self.rec,
                    )
                })
                .collect::<Vec<_>>();
            (collected, taken)
        };
        if !parallel {
            return sequential(false);
        }
        let tasks = self.morsel_tasks(rule_indices, delta_start, prev_len);
        if tasks.is_empty() {
            return sequential(false);
        }
        let n_workers = workers.min(tasks.len()).max(1);
        if n_workers == 1 {
            // One available worker (forced single-thread or a 1-core
            // host): run the task list inline — same morsel boundaries,
            // same task order, but no spawn and no merge copies, so a
            // forced-morsel schedule stays within noise of the
            // sequential path.
            let mut merged: Vec<MatchAccum> = Vec::new();
            merged.resize_with(rule_indices.len(), MatchAccum::default);
            let mut scratch: Option<(u32, Vec<Option<&Relation>>, PivotScratch)> = None;
            for task in &tasks {
                let ri = rule_indices[task.rule_pos as usize];
                let rule = &self.compiled[ri];
                if !matches!(&scratch, Some((rp, ..)) if *rp == task.rule_pos) {
                    let rels = rule
                        .body_pos
                        .iter()
                        .map(|a| self.instance.relation(a.pred, a.terms.len()))
                        .collect();
                    scratch = Some((task.rule_pos, rels, PivotScratch::for_rule(rule)));
                }
                let (_, rels, scr) = scratch.as_mut().expect("scratch was just ensured");
                let accum = &mut merged[task.rule_pos as usize];
                match_one_pivot(
                    &self.instance,
                    rule,
                    self.plan_for(ri),
                    rels,
                    scr,
                    delta_start,
                    prev_len,
                    task.pivot as usize,
                    (task.lo, task.hi),
                    accum,
                );
                accum.batches += 1;
            }
            // The forced single worker drained every task.
            self.rec.phase(Phase::MorselDrain, tasks.len() as u64);
            let collected = rule_indices
                .iter()
                .zip(merged)
                .map(|(&ri, accum)| finish_rule_matches(&self.compiled[ri], accum, self.rec))
                .collect();
            return (collected, true);
        }
        let cursor = AtomicUsize::new(0);
        let mut outs: Vec<Option<MatchAccum>> = Vec::new();
        outs.resize_with(tasks.len(), || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_workers);
            for _ in 0..n_workers {
                let tasks = &tasks;
                let cursor = &cursor;
                let this = &*self;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, MatchAccum)> = Vec::new();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks.len() {
                            break;
                        }
                        let task = &tasks[t];
                        let ri = rule_indices[task.rule_pos as usize];
                        let rule = &this.compiled[ri];
                        let rels: Vec<Option<&Relation>> = rule
                            .body_pos
                            .iter()
                            .map(|a| this.instance.relation(a.pred, a.terms.len()))
                            .collect();
                        let mut scratch = PivotScratch::for_rule(rule);
                        let mut accum = MatchAccum::default();
                        match_one_pivot(
                            &this.instance,
                            rule,
                            this.plan_for(ri),
                            &rels,
                            &mut scratch,
                            delta_start,
                            prev_len,
                            task.pivot as usize,
                            (task.lo, task.hi),
                            &mut accum,
                        );
                        local.push((t, accum));
                    }
                    local
                }));
            }
            for h in handles {
                let local = h.join().expect("morsel worker must not panic");
                // Per-worker drain count: how evenly the shared cursor
                // spread the round's tasks across workers.
                self.rec.phase(Phase::MorselDrain, local.len() as u64);
                for (t, accum) in local {
                    outs[t] = Some(accum);
                }
            }
        });
        // Merge per rule in task order (tasks are emitted rule-major,
        // pivot-minor, window-ascending), then canonicalize — the same
        // sort the sequential path applies, over the same match set.
        let mut merged: Vec<MatchAccum> = Vec::new();
        merged.resize_with(rule_indices.len(), MatchAccum::default);
        for (task, accum) in tasks.iter().zip(outs) {
            let accum = accum.expect("every morsel task was executed");
            merged[task.rule_pos as usize].absorb(accum);
        }
        let collected = rule_indices
            .iter()
            .zip(merged)
            .map(|(&ri, accum)| finish_rule_matches(&self.compiled[ri], accum, self.rec))
            .collect();
        (collected, true)
    }

    /// Runs the rules of one stratum to fixpoint (semi-naive), starting
    /// from the beginning of the instance.
    fn run_stratum(&mut self, rule_indices: &[usize]) -> Result<()> {
        self.run_stratum_from(rule_indices, 0)
    }

    /// Runs the rules of one stratum to fixpoint, treating only atoms
    /// with id ≥ `initial_delta_start` as new. With `0` this is the full
    /// stratum evaluation; the incremental subsystem resumes a finished
    /// chase by passing the pre-delta id watermark, so the first round
    /// pivots exclusively on the freshly inserted atoms.
    pub(crate) fn run_stratum_from(
        &mut self,
        rule_indices: &[usize],
        initial_delta_start: AtomId,
    ) -> Result<()> {
        // Stratum entry: (re-)plan the stratum's rules against live
        // statistics and build any joint indexes the plans request.
        self.plan_stratum(rule_indices);
        let mut went_parallel = false;
        let mut delta_start: AtomId = initial_delta_start;
        loop {
            // Honor an ambient read deadline (installed by the serving
            // layer on this thread) between rounds; E-RESOURCE here maps
            // to 503 like any other exhausted budget.
            triq_common::deadline::check()?;
            self.stats.rounds += 1;
            let prev_len = self.instance.len() as AtomId;
            if delta_start == prev_len && delta_start != 0 {
                break;
            }
            // Phase 1 (read-only, parallelizable): enumerate matches.
            let (per_rule, was_parallel) = {
                let _match = Timer::start(self.rec, Phase::ChaseMatch);
                self.collect_round(rule_indices, delta_start, prev_len)
            };
            went_parallel |= was_parallel;
            // Phase 2 (serial, in rule order): filter and apply — the
            // same order the purely sequential schedule applies them in.
            let _apply = Timer::start(self.rec, Phase::ChaseApply);
            for (&ri, mut rm) in rule_indices.iter().zip(per_rule) {
                self.stats.probes += rm.probes;
                self.stats.index_probes += rm.index_probes;
                self.stats.morsel_batches += rm.batches;
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
            delta_start = prev_len;
        }
        // Count each stratum at most once, however many rounds went wide.
        if went_parallel {
            self.stats.parallel_strata += 1;
        }
        Ok(())
    }

    pub(crate) fn check_constraints(&mut self) -> bool {
        for c in self.constraints {
            let cap = self.instance.len() as AtomId;
            let ranges = vec![(0, cap); c.atoms.len()];
            let mut slots: Vec<Option<TermId>> = vec![None; c.n_slots];
            let mut fired = false;
            self.stats.probes += enumerate_matches(
                &self.instance,
                &c.atoms,
                &ranges,
                &mut slots,
                &mut |s, _| {
                    if c.builtins.iter().all(|&b| Self::builtin_holds(b, s)) {
                        fired = true;
                        false
                    } else {
                        true
                    }
                },
            );
            if fired {
                return true;
            }
        }
        false
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

/// Groups rule indices by stratum, in ascending stratum order. The
/// stratification must already have passed [`check_stratification`].
fn rules_by_stratum(program: &Program, strat: &Stratification) -> Vec<Vec<usize>> {
    let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); strat.max_stratum + 1];
    for (i, &s) in strat
        .rule_stratum
        .iter()
        .enumerate()
        .take(program.rules.len())
    {
        grouped[s].push(i);
    }
    grouped
}

/// One full chase over an already-compiled program.
fn run_compiled(
    compiled: &[CompiledRule],
    constraints: &[CompiledConstraint],
    strata_rules: &[Vec<usize>],
    plans: &[RulePlan],
    seed: Instance,
    config: ChaseConfig,
    rec: &dyn Recorder,
) -> Result<ChaseOutcome> {
    let mut engine = chase_to_fixpoint(
        compiled,
        constraints,
        strata_rules,
        plans,
        seed,
        config,
        rec,
    )?;
    let inconsistent = engine.check_constraints();
    let (instance, stats, _, _) = engine.into_parts();
    Ok(ChaseOutcome {
        inconsistent,
        stats,
        instance,
    })
}

/// Runs every stratum of a compiled program to fixpoint over `seed` and
/// returns the engine **with its retained state** (instance, counters,
/// skolem memo) — shared by the one-shot chase above (which consumes it
/// into a [`ChaseOutcome`]) and by `crate::incremental`'s initial
/// materialization (which keeps the memo alive). Constraints are *not*
/// checked here; callers do that on the returned engine.
pub(crate) fn chase_to_fixpoint<'a>(
    compiled: &'a [CompiledRule],
    constraints: &'a [CompiledConstraint],
    strata_rules: &[Vec<usize>],
    plans: &[RulePlan],
    seed: Instance,
    config: ChaseConfig,
    rec: &'a dyn Recorder,
) -> Result<Engine<'a>> {
    let mut engine = Engine::new(compiled, constraints, plans.to_vec(), seed, config, rec);
    for (s, indices) in strata_rules.iter().enumerate() {
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
        program.validate()?;
        let strat = crate::stratify(&program)?;
        ChaseRunner::with_stratification(program, strat, config)
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
        check_stratification(&program, &strat)?;
        let compiled: Vec<CompiledRule> = program.rules.iter().map(compile_rule).collect();
        let constraints: Vec<CompiledConstraint> =
            program.constraints.iter().map(compile_constraint).collect();
        let strata_rules = rules_by_stratum(&program, &strat);
        let plans = planner::initial_plans(&compiled);
        Ok(ChaseRunner {
            program,
            strat,
            compiled,
            constraints,
            strata_rules,
            plans,
            config,
            rec: Arc::new(obs::Noop),
        })
    }

    /// The prepared program.
    pub fn program(&self) -> &Program {
        &self.program
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
        run_compiled(
            &self.compiled,
            &self.constraints,
            &self.strata_rules,
            &self.plans,
            seed,
            self.config,
            &*self.rec,
        )
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
    check_stratification(program, strat)?;
    let compiled: Vec<CompiledRule> = program.rules.iter().map(compile_rule).collect();
    let constraints: Vec<CompiledConstraint> =
        program.constraints.iter().map(compile_constraint).collect();
    let strata_rules = rules_by_stratum(program, strat);
    let plans = planner::initial_plans(&compiled);
    run_compiled(
        &compiled,
        &constraints,
        &strata_rules,
        &plans,
        db.to_instance(),
        config,
        obs::noop(),
    )
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
        let greedy = chase(
            &db,
            &p,
            ChaseConfig {
                planner: JoinPlanner::Greedy,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
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
    fn morsel_schedules_are_byte_identical_and_counters_tick() {
        // One hot recursive rule per stratum-mate — including the shape
        // rule-level parallelism could never split (a single rule doing
        // all the work) — plus a constant-filtered rule and a repeated-
        // variable rule so the kernel leading scan fires. Forced morsel
        // schedules at extreme morsel sizes and worker counts must be
        // byte-identical to the sequential run.
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
        let sequential = chase(
            &db,
            &p,
            ChaseConfig {
                parallel_threshold: usize::MAX,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.stats.morsel_batches, 0, "sequential: no morsels");
        assert!(
            sequential.stats.kernel_filter_rows > 0,
            "kernels are orthogonal to parallelism and fire sequentially too"
        );
        for (morsel_size, chase_threads) in [(1, 2), (7, 3), (2048, 1)] {
            let forced = chase(
                &db,
                &p,
                ChaseConfig {
                    parallel_threshold: 0,
                    morsel_size,
                    chase_threads,
                    ..ChaseConfig::default()
                },
            )
            .unwrap();
            let ctx = format!("morsel_size {morsel_size}, chase_threads {chase_threads}");
            assert!(forced.stats.morsel_batches > 0, "batches tick ({ctx})");
            assert!(forced.stats.parallel_strata >= 1, "{ctx}");
            assert_eq!(forced.instance.len(), sequential.instance.len(), "{ctx}");
            for (id, atom) in sequential.instance.iter() {
                assert_eq!(forced.instance.find(&atom), Some(id), "{ctx}");
                assert_eq!(
                    forced.instance.derivation(id),
                    sequential.instance.derivation(id),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn parallel_and_sequential_schedules_agree() {
        // Many independent rules in one stratum, forced down both paths.
        let program = "e(?X, ?Y) -> t(?X, ?Y).\n\
                       e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                       e(?X, ?Y) -> s(?Y, ?X).\n\
                       s(?X, ?Y), s(?Y, ?Z) -> s(?X, ?Z).\n\
                       e(?X, ?X) -> selfloop(?X).\n\
                       t(?X, ?Y) -> reach(?X).";
        let p = parse_program(program).unwrap();
        let mut db = Database::new();
        for i in 0..40u32 {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", (i + 1) % 40)]);
        }
        let sequential = chase(
            &db,
            &p,
            ChaseConfig {
                parallel_threshold: usize::MAX,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        let parallel = chase(
            &db,
            &p,
            ChaseConfig {
                parallel_threshold: 0,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.stats.parallel_strata, 0);
        assert!(parallel.stats.parallel_strata >= 1);
        assert_eq!(parallel.instance.len(), sequential.instance.len());
        // Identical contents *and* identical AtomIds (schedule equality,
        // not just set equality) — provenance depends on it.
        for (id, atom) in sequential.instance.iter() {
            assert_eq!(parallel.instance.find(&atom), Some(id));
            assert_eq!(
                parallel.instance.derivation(id),
                sequential.instance.derivation(id)
            );
        }
    }
}
