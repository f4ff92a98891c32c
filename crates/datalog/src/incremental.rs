//! Incremental materialization: delta-chase insertions and
//! delete-and-rederive (DRed) deletions over the columnar store.
//!
//! A [`MaterializedView`] keeps a chase fixpoint `Π(D)` **alive** across
//! mutations of the extensional database `D`. Instead of discarding the
//! materialization and re-running the chase whenever a fact arrives or
//! retracts, [`MaterializedView::apply`] maintains it:
//!
//! * **Insertions** resume the semi-naive chase from a fresh frontier:
//!   the new EDB atoms get ids above the previous watermark and every
//!   stratum re-runs with its delta window pinned there
//!   ([`crate::ChaseRunner`]'s compiled rules are reused verbatim, and
//!   the retained skolem memo guarantees existential rules re-fire onto
//!   the *same* nulls a from-scratch chase would memoize).
//! * **Deletions** use DRed: the transitive support cone of the deleted
//!   atoms — computed from the recorded provenance through a
//!   [`DependencyIndex`] — is *over-deleted* (tombstoned), then each
//!   over-deleted tuple is **rederived** stratum by stratum if some
//!   surviving match still produces it; rederived atoms get fresh ids,
//!   re-entering the delta frontier so their dependents are rebuilt.
//! * **Stratified negation** is maintained from both sides. An inserted
//!   atom of a negated predicate may invalidate higher-stratum atoms:
//!   each rule with `!p(…)` is pivoted over the inserted `p`-tuples and
//!   the matched heads are over-deleted (then rederived if another match
//!   survives). A deleted atom of a negated predicate may *enable*
//!   matches the old instance blocked: the same pivot over the deleted
//!   tuples derives them. Strata are swept in ascending order so every
//!   negation always reads a settled lower stratum, exactly like the
//!   from-scratch chase.
//! * **Constraints** are checked semi-naively: while they hold, an apply
//!   looks only for violations through the atoms it appended (see
//!   `Engine::check_constraints`); once they fire, every apply re-checks
//!   them in full.
//!
//! # DRed through labeled nulls
//!
//! Every atom that mentions a null descends, in recorded provenance,
//! from an application of the trigger (rule, frontier values) that
//! invented the null. DRed is therefore sound through nulls, under
//! either [`crate::ExistentialStrategy`]:
//!
//! * **Over-delete** tombstones the support cone whatever it mentions:
//!   when a trigger loses its last recorded match, every atom carrying
//!   its nulls is in the cone. Negation victims of an existential rule
//!   are its head atoms with the existential positions left open.
//! * **Re-fire**: once a stratum's other rules have rederived and
//!   propagated, an over-deleted tuple of an existential head that is
//!   still missing re-fires every surviving trigger of that head, and
//!   the strategy decides the outcome. Under the skolem chase the memo
//!   re-issues the trigger's *own* nulls, so a surviving trigger gets
//!   its atoms back unchanged; only the trigger that invented a tuple's
//!   nulls can, so that is the one tried (its frontier read off the
//!   tuple, else off the tuple's recorded derivation). Under the
//!   restricted chase a trigger
//!   fires when no surviving atom satisfies its head — which also covers
//!   a trigger whose head was satisfied only by an atom that is now gone.
//! * **Memo upkeep** (skolem): an over-deleted atom whose recorded
//!   derivation was an existential trigger and whose tuple did not come
//!   back means that trigger died; its memo entry is dropped, so the memo
//!   always holds exactly the triggers a from-scratch chase memoizes.
//!
//! A skolem view maintains the from-scratch chase up to the names of
//! its nulls. A restricted view maintains *a* restricted chase of its
//! facts: every trigger satisfied, every atom derived, so the same
//! certain answers and ⊤ — but, as after an insert, not necessarily the
//! null atoms a from-scratch run, whose result depends on firing order,
//! would keep.
//!
//! A **full rebuild** from the (already mutated) facts — the same path
//! as an explicit `Session::invalidate()` — remains only for a poisoned
//! view and for an incremental apply that ran out of budget, each named
//! by a [`RebuildReason`].
//!
//! # Where the facts live
//!
//! Every fact of `D` is an atom of `Π(D)`, so a view keeps no copy of
//! its facts beside its instance. They are its live **underived**
//! atoms — only a fact is inserted without a derivation — plus the few
//! live **derived** atoms whose tuple is also a fact: a fact inserted
//! while its tuple was derived deduplicates onto the derived atom,
//! which is then filed in a small per-view set. So an insert is
//! effective iff the tuple is not yet a fact (no live atom, or a
//! derived one not in the set), and a delete iff it is (an underived
//! atom, or one in the set). When DRed over-deletes an atom of the set,
//! the fact comes back as a fresh underived atom and leaves the set.
//! The set is renumbered with the instance on compaction. A rebuild
//! reads the facts back off the instance ([`MaterializedView::database`])
//! — after a failed apply, off the half-maintained one, whose facts
//! every change reaches before the first step that can fail — and a
//! view holds a [`Database`] of its own only while poisoned.
//!
//! Tombstoned atoms keep their ids (the semi-naive windows rely on id
//! monotonicity), and dead nulls their slots in the null table; when
//! tombstones accumulate past a threshold the view compacts its instance
//! ([`Instance::compacted`]: dense ids, only the nulls live atoms
//! mention, the memo renumbered alike) and rebuilds the dependency
//! index.
//!
//! # Stacked views
//!
//! A view may be stacked on another ([`MaterializedView::stacked`]): its
//! program reads the predicates it does not derive from the base view's
//! instance in place, and it stores only its own rows. Base ids are
//! append-only, so what a stacked view must absorb after its base
//! applied a delta is the base's atoms appended and tombstoned since it
//! last looked ([`MaterializedView::apply_over`]); it treats them like
//! extensional changes — DRed cones, negation pivots and delta windows
//! — and re-chases its own layer only when the base issued its ids
//! afresh (a rebuild or a compaction).
//!
//! # Snapshot isolation
//!
//! The view is the **owner** of its fixpoint. The maintained outcome
//! lives behind an [`Arc`] only so that an in-process caller can keep
//! reading one (`outcome().clone()`, e.g. a streaming answer iterator)
//! across a later `apply`: maintenance mutates through
//! [`Arc::make_mut`], which works in place when the view holds the only
//! handle and detaches a private copy otherwise, so a handle taken
//! before an `apply` never observes a half-applied delta. The
//! concurrent serving layer (`triq::SharedSession`, `triq-server`) does
//! **not** hand such handles to readers: after each completed `apply`
//! its single writer extracts the answers `Q(D)` of the plans whose
//! view changed and publishes those, so on the serving path the view's
//! handle is always unique, `apply` never copies an instance, and the
//! cost of publishing a new version is O(answer rows of the changed
//! plans) rather than O(instance × live plans).

use crate::chase::{
    enumerate_matches, instantiate_into, renumber_memo, CAtom, CTerm, ChaseOutcome, ChaseRunner,
    ChaseStats, CompiledRule, Engine, SkolemMemo,
};
use crate::instance::{AtomId, Database, Instance, Layers, BASE_ATOM};
use crate::planner::RulePlan;
use crate::proof::DependencyIndex;
use crate::{ExistentialStrategy, Unions};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use triq_common::{Delta, Fact, Result, Symbol, TermId};
use triq_obs::{Phase, Timer};

/// Cumulative counters of a [`MaterializedView`]'s maintenance work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Deltas applied (including ones that fell back to a rebuild).
    pub deltas_applied: usize,
    /// Atoms over-deleted by DRed (transitive support cones and
    /// negation victims; the explicitly deleted EDB facts not included).
    pub atoms_overdeleted: u64,
    /// Over-deleted atoms that survived rederivation.
    pub atoms_rederived: u64,
    /// Genuinely new atoms derived by incremental insertion frontiers.
    pub atoms_inserted: u64,
    /// Deltas answered by a full re-chase (a [`RebuildReason`], or — for
    /// a stacked view — a base that issued its ids afresh).
    pub full_rebuilds: usize,
    /// Times the instance was compacted to shed tombstones.
    pub compactions: usize,
}

/// What one [`MaterializedView::apply`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Atoms over-deleted (support cones + negation victims).
    pub overdeleted: usize,
    /// Over-deleted atoms restored by rederivation.
    pub rederived: usize,
    /// New atoms derived (beyond the inserted EDB facts themselves).
    pub inserted: usize,
    /// Why the delta was answered by a full re-chase instead of
    /// incremental maintenance; `None` when it was maintained (a stacked
    /// view's re-chase after its base issued its ids afresh is `None`
    /// too: the base's rebuild stands for it).
    pub rebuild: Option<RebuildReason>,
    /// The work of the chase this apply ran: the resumed chase of the
    /// incremental path (its `derived` also counts re-added over-deleted
    /// atoms), or the whole from-scratch chase of a full rebuild.
    pub run: ChaseStats,
}

/// Why a [`MaterializedView`] answered a delta by re-chasing its facts
/// from scratch instead of maintaining its fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// A previous apply failed and so did its recovery rebuild: the held
    /// outcome no longer reflected the facts.
    Poisoned,
    /// The incremental apply failed mid-way — typically on the atom
    /// budget, which counts tombstones, so maintenance churn can exceed
    /// a budget the from-scratch chase fits in.
    Budget,
}

/// Head predicate → `(stratum, rule index)` of every rule that can
/// derive it, ascending by stratum: the rederivation schedule.
type Derivers = HashMap<Symbol, Vec<(usize, usize)>>;

/// The program-derived predicate sets a view's maintenance machinery
/// consults: negated predicates and the rederivation schedule. Shared
/// between the chasing constructor ([`MaterializedView::new`]) and the
/// snapshot-restoring one ([`MaterializedView::restore`]).
fn program_sets(runner: &ChaseRunner) -> (HashSet<Symbol>, Derivers) {
    let program = runner.program();
    let mut negated_preds = HashSet::new();
    let mut derivers: Derivers = HashMap::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let stratum = runner.stratification().rule_stratum[ri];
        for neg in &rule.body_neg {
            negated_preds.insert(neg.pred);
            // A negated union reads its sources too: their changes are
            // the union's.
            for u in runner.unions().sources(neg.pred, neg.arity()) {
                negated_preds.insert(u.from);
            }
        }
        if runner.serves(ri) {
            continue; // read, never chased: it derives nothing
        }
        for head in &rule.head {
            let entry = derivers.entry(head.pred).or_default();
            if !entry.contains(&(stratum, ri)) {
                entry.push((stratum, ri));
            }
        }
    }
    for list in derivers.values_mut() {
        list.sort_unstable();
    }
    (negated_preds, derivers)
}

/// A maintained chase fixpoint: `Π(D)` plus everything needed to update
/// it in place — the compiled [`ChaseRunner`], the retained skolem memo,
/// and the reverse-provenance directory. The extensional facts are not
/// kept beside the instance: they are its underived atoms, plus the
/// few derived atoms whose tuple is also a fact (see
/// [`MaterializedView::database`]).
///
/// A view may be **stacked** on another ([`MaterializedView::stacked`]):
/// its program then reads the predicates it does not derive straight
/// from the base view's instance, at match time, and its own instance
/// holds only its own rows — the base is never copied, and a stacked
/// view keeps no handle to it between calls: every call that chases
/// (`stacked`, [`MaterializedView::apply_over`]) is handed the base.
///
/// The outcome is held behind an [`Arc`] so in-process executions can
/// keep reading it across a later mutation (see "Snapshot isolation" in
/// the module docs); the serving layer publishes extracted answers
/// instead, so there the view is the sole owner and mutates in place.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    runner: ChaseRunner,
    outcome: Arc<ChaseOutcome>,
    /// The live derived atoms whose tuple is also an extensional fact:
    /// a fact inserted while derived keeps its derivation (the store
    /// deduplicates), so it is told apart from a derivation here. With
    /// the underived atoms, these are the view's facts.
    derived_facts: BTreeSet<AtomId>,
    skolem: SkolemMemo,
    /// Stats-driven join plans retained across applies (like the skolem
    /// memo): each resumed chase re-plans only on cardinality drift
    /// instead of from scratch.
    plans: Vec<RulePlan>,
    deps: DependencyIndex,
    stats: MaintenanceStats,
    /// Predicates occurring under negation in some rule body. Only their
    /// tuples feed the negation pivots, so per-atom change bookkeeping is
    /// skipped entirely for everything else (a negation-free program pays
    /// nothing per derived atom).
    negated_preds: HashSet<Symbol>,
    derivers: Derivers,
    /// The facts, set when an apply failed *and* the recovery rebuild
    /// failed too: the held outcome no longer reflects them. The next
    /// apply folds its delta into them and retries the rebuild before
    /// doing anything else, and clears them on success.
    poisoned: Option<Database>,
    /// Process-unique number of the id space the instance lives in: it
    /// changes whenever ids are issued afresh (a build, a rebuild, a
    /// compaction), which is how a view stacked on this one tells
    /// appended and tombstoned atoms from a renumbering.
    generation: u64,
    /// For a stacked view: how far it has absorbed its base.
    mark: Option<BaseMark>,
    /// Whether the view's own constraints fire (a stacked view is ⊤ also
    /// when its base is). While they do not, an apply checks them only
    /// against the atoms it appended.
    violated: bool,
}

/// How far a stacked view has absorbed its base: the base's id space,
/// its id watermark, and how many of its atoms had died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BaseMark {
    generation: u64,
    len: AtomId,
    dead: usize,
}

impl BaseMark {
    fn of(base: &MaterializedView) -> BaseMark {
        BaseMark {
            generation: base.generation,
            len: base.instance().len() as AtomId,
            dead: base.instance().dead_len(),
        }
    }
}

fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl MaterializedView {
    /// Chases `db` with the runner's program and retains the full
    /// post-chase state for incremental maintenance. `db` becomes the
    /// seed of the chase: the view keeps no copy of it.
    pub fn new(runner: ChaseRunner, db: Database) -> Result<MaterializedView> {
        MaterializedView::build(runner, db, None)
    }

    /// Chases the runner's program **stacked on** `base`: its rules read
    /// every predicate the program does not derive from `base`'s
    /// instance in place, and the view stores only its own rows. `edb`
    /// holds the extensional facts of the predicates the program derives
    /// (they live in the view's own layer), plus any seed it needs. The
    /// program must derive nothing `base`'s program mentions — then the
    /// view's answers are those of the two programs chased together.
    /// The view is ⊤ when the base is or when its own constraints fire,
    /// and its atom budget is what the base leaves of the configured
    /// one.
    pub fn stacked(
        runner: ChaseRunner,
        edb: Database,
        base: &MaterializedView,
    ) -> Result<MaterializedView> {
        MaterializedView::build(runner, edb, Some(base))
    }

    fn build(
        runner: ChaseRunner,
        edb: Database,
        base: Option<&MaterializedView>,
    ) -> Result<MaterializedView> {
        // Same fixpoint routine as `ChaseRunner::run` — the from-scratch
        // oracle the differential suites compare against — except the
        // engine is kept so its skolem memo survives.
        let seed = match base {
            None => edb.into_instance(),
            Some(_) => edb.into_stacked_instance(),
        };
        let mut engine =
            crate::chase::chase_to_fixpoint(&runner, seed, base.map(MaterializedView::instance))?;
        let violated = engine.check_constraints(None);
        let inconsistent = violated || base.is_some_and(|b| b.outcome.inconsistent);
        let (instance, stats, skolem, plans) = engine.into_parts();
        let deps = DependencyIndex::from_instance(&instance);
        let (negated_preds, derivers) = program_sets(&runner);
        Ok(MaterializedView {
            runner,
            outcome: Arc::new(ChaseOutcome {
                instance,
                inconsistent,
                stats,
            }),
            derived_facts: BTreeSet::new(),
            skolem,
            plans,
            deps,
            stats: MaintenanceStats::default(),
            negated_preds,
            derivers,
            poisoned: None,
            generation: next_generation(),
            mark: base.map(BaseMark::of),
            violated,
        })
    }

    /// Reconstructs a view from persisted state without chasing: the
    /// outcome and skolem memo come from a snapshot, while everything
    /// derived from them — reverse provenance, the program's predicate
    /// sets, join plans — is rebuilt in place (see [`crate::persist`]).
    /// The caller guarantees `outcome` is a fixpoint under the runner's
    /// program (stacked on `base` at its current state, if given) of the
    /// facts its underived atoms and `derived_facts` name.
    pub(crate) fn restore(
        runner: ChaseRunner,
        outcome: Arc<ChaseOutcome>,
        derived_facts: BTreeSet<AtomId>,
        skolem: SkolemMemo,
        base: Option<&MaterializedView>,
    ) -> MaterializedView {
        let deps = DependencyIndex::from_instance(&outcome.instance);
        let (negated_preds, derivers) = program_sets(&runner);
        let plans = runner.initial_plans().to_vec();
        // A snapshot records only whether the view is ⊤. Over a ⊤ base
        // that may overstate `violated`, which costs the next apply a
        // full check and nothing else.
        let violated = outcome.inconsistent;
        MaterializedView {
            runner,
            outcome,
            derived_facts,
            skolem,
            plans,
            deps,
            stats: MaintenanceStats::default(),
            negated_preds,
            derivers,
            poisoned: None,
            generation: next_generation(),
            mark: base.map(BaseMark::of),
            violated,
        }
    }

    /// The retained skolem memo (persistence codec).
    pub(crate) fn skolem_ref(&self) -> &SkolemMemo {
        &self.skolem
    }

    /// The retained skolem memo, for a checkpoint to mark it and take
    /// its edits (persistence codec).
    pub(crate) fn skolem_mut(&mut self) -> &mut SkolemMemo {
        &mut self.skolem
    }

    /// The number of the id space the instance lives in: a checkpoint
    /// extends a view it wrote only while this stays (persistence
    /// codec).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of existential triggers in the skolem memo. After every
    /// apply these are exactly the triggers a from-scratch chase of the
    /// same facts memoizes.
    pub fn memo_len(&self) -> usize {
        self.skolem.len()
    }

    /// True iff a failed apply (and failed recovery rebuild) left the
    /// held outcome out of sync with the base. Poisoned views are
    /// skipped by persistence snapshots.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// True iff the view's program derives `pred` — for a stacked view,
    /// iff `pred` lives in its own layer rather than its base.
    pub fn derives(&self, pred: Symbol) -> bool {
        self.derivers.contains_key(&pred)
    }

    /// The maintained chase outcome — for a stacked view, its own layer
    /// (⊤ when its base is).
    pub fn outcome(&self) -> &Arc<ChaseOutcome> {
        &self.outcome
    }

    /// The maintained instance.
    pub fn instance(&self) -> &Instance {
        &self.outcome.instance
    }

    /// The extensional facts the view is maintained over: the whole
    /// database, or for a stacked view those of its own predicates (plus
    /// any seed it was built with). They are read off the instance — its
    /// live underived atoms and the derived atoms that are also facts,
    /// in id order — so this builds a fresh [`Database`].
    pub fn database(&self) -> Database {
        match &self.poisoned {
            Some(facts) => facts.clone(),
            None => self.facts(),
        }
    }

    /// The facts of a healthy view: the live atoms of its instance that
    /// have no derivation or are in `derived_facts`, in id order.
    fn facts(&self) -> Database {
        let inst = &self.outcome.instance;
        let mut facts = Instance::new();
        for id in 0..inst.len() as AtomId {
            let fact = inst.provenance(id).is_none() || self.derived_facts.contains(&id);
            if fact && inst.is_live(id) {
                facts.insert_ids(inst.pred_of(id), &inst.key_of(id), None);
            }
        }
        Database::from_instance(facts)
    }

    /// The derived atoms that are also facts.
    #[cfg(test)]
    pub(crate) fn derived_facts(&self) -> &BTreeSet<AtomId> {
        &self.derived_facts
    }

    /// Whether the live atom `id` is a fact: underived, or derived and
    /// in `derived_facts`. `deleted` holds the facts an apply has
    /// already deleted, whose atoms stay live until it tombstones them.
    fn is_fact(&self, id: AtomId, deleted: &HashSet<AtomId>) -> bool {
        let underived = self.outcome.instance.provenance(id).is_none() && !deleted.contains(&id);
        underived || self.derived_facts.contains(&id)
    }

    /// The compiled runner this view executes.
    pub fn runner(&self) -> &ChaseRunner {
        &self.runner
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Applies a batch of extensional insertions and deletions,
    /// maintaining the fixpoint incrementally (or falling back to a full
    /// re-chase for one of the [`RebuildReason`]s). Deletes are
    /// processed before inserts; redundant operations are no-ops.
    ///
    /// On `Err` (resource exhaustion, even via the internal rebuild
    /// fallback) the maintained state could not be brought to the target:
    /// the view is *poisoned* — `outcome()` no longer reflects the base
    /// until a later `apply` (which retries the rebuild first) succeeds.
    /// Callers that cannot retry should discard the view. Re-applying the
    /// same delta is a no-op against the already-mutated base.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaSummary> {
        debug_assert!(self.mark.is_none(), "a stacked view applies over its base");
        self.apply_inner(delta, None)
    }

    /// [`MaterializedView::apply`] for a stacked view, after `base`
    /// absorbed the same delta: the facts of the view's own predicates
    /// come from `delta`, and everything else it reads from the base's
    /// change set since the view last saw it — the atoms appended and
    /// the atoms tombstoned. When the base's ids were issued afresh
    /// (a rebuild or a compaction), the view re-chases its layer instead;
    /// that re-chase is part of the base's rebuild, so the summary does
    /// not report it as one.
    pub fn apply_over(&mut self, delta: &Delta, base: &MaterializedView) -> Result<DeltaSummary> {
        debug_assert!(self.mark.is_some(), "only a stacked view has a base");
        self.apply_inner(delta, Some(base))
    }

    fn apply_inner(
        &mut self,
        delta: &Delta,
        base: Option<&MaterializedView>,
    ) -> Result<DeltaSummary> {
        self.stats.deltas_applied += 1;
        // A stacked view's own facts are those of the predicates it
        // derives; the base absorbed the rest.
        let own = |pred: &Symbol| base.is_none() || self.derivers.contains_key(pred);
        let deletes: Vec<&Fact> = delta.deletes.iter().filter(|f| own(&f.pred)).collect();
        let inserts: Vec<&Fact> = delta.inserts.iter().filter(|f| own(&f.pred)).collect();
        let renumbered = self
            .mark
            .zip(base)
            .is_some_and(|(mark, base)| mark.generation != base.generation);
        if self.poisoned.is_some() || renumbered {
            // The held outcome cannot be maintained: it does not reflect
            // the facts (a previous apply failed twice), or the base ids
            // it records are gone. Fold the delta into the facts and
            // re-chase — a shrinking delta may be exactly what brings
            // the fixpoint back inside the budget.
            let reason = self.poisoned.is_some().then_some(RebuildReason::Poisoned);
            let mut facts = self.poisoned.take().unwrap_or_else(|| self.facts());
            for f in deletes {
                facts.remove_row(f.pred, &f.args);
            }
            for f in inserts {
                facts.add_row(f.pred, &f.args);
            }
            let mut summary = self.rebuild(base, reason, facts)?;
            if reason.is_none() {
                summary.inserted = summary.run.derived;
            }
            return Ok(summary);
        }
        // Keep only the effective part of the delta. A deleted fact
        // stops being a fact now (its atom is tombstoned below); an
        // inserted tuple the instance holds only as a derivation — or as
        // a fact this delta deleted — becomes a derived fact, and its
        // atom is re-asserted if it is over-deleted. So from here on the
        // facts are the *target* state, and a fallback recomputes it.
        let mut del_ids: Vec<AtomId> = Vec::new();
        let mut deleted: HashSet<AtomId> = HashSet::new();
        for f in deletes {
            let key: Vec<TermId> = f.args.iter().copied().map(TermId::from_const).collect();
            let found = self.outcome.instance.find_ids(f.pred, &key);
            if let Some(id) = found.filter(|&id| self.is_fact(id, &deleted)) {
                self.derived_facts.remove(&id);
                deleted.insert(id);
                del_ids.push(id);
            }
        }
        let mut eff_inserts: Vec<(Symbol, Vec<TermId>)> = Vec::new();
        for f in inserts {
            let key: Vec<TermId> = f.args.iter().copied().map(TermId::from_const).collect();
            match self.outcome.instance.find_ids(f.pred, &key) {
                Some(id) if self.is_fact(id, &deleted) => continue,
                Some(id) => {
                    self.derived_facts.insert(id);
                }
                None => {}
            }
            eff_inserts.push((f.pred, key));
        }
        let changes = self.mark.zip(base).map(|(mark, base)| BaseChanges {
            base: base.instance(),
            inconsistent: base.outcome.inconsistent,
            from: mark.len,
            dead: &base.instance().graveyard()[mark.dead..],
        });
        let base_moved = changes
            .as_ref()
            .is_some_and(|c| c.from < c.base.len() as AtomId || !c.dead.is_empty());
        if del_ids.is_empty() && eff_inserts.is_empty() && !base_moved {
            return Ok(DeltaSummary::default());
        }
        let result = self.apply_incremental(del_ids, eff_inserts, changes);
        self.mark = base.map(BaseMark::of);
        match result {
            Ok(summary) => Ok(summary),
            // A mid-apply error (typically `ResourceExhausted` — note the
            // atom budget counts tombstones, so maintenance churn can
            // transiently exceed a budget the from-scratch chase fits in)
            // leaves the in-flight instance half maintained and the memo
            // abandoned. Its facts already reflect the target state, so a
            // full rebuild from them either recovers a correct view or
            // fails for the same reason a from-scratch chase would; only
            // in the latter case is the view unusable, and the error
            // tells the caller to discard it.
            Err(_) => {
                let facts = self.facts();
                self.rebuild(base, Some(RebuildReason::Budget), facts)
            }
        }
    }

    /// Discards the maintained state and re-chases `facts` (over
    /// `base`, for a stacked view): the fallback for `reason`, or with
    /// `None` a stacked view's re-chase after its base issued its ids
    /// afresh. On failure the view is poisoned and keeps `facts` (see
    /// [`MaterializedView::apply`]); on success it is healthy again.
    fn rebuild(
        &mut self,
        base: Option<&MaterializedView>,
        reason: Option<RebuildReason>,
        facts: Database,
    ) -> Result<DeltaSummary> {
        match MaterializedView::build(self.runner.clone(), facts.clone(), base) {
            Ok(rebuilt) => {
                // The rebuild's own chase derived, probed, planned and
                // indexed from scratch; surface that work in the summary
                // so the engine counters don't go flat exactly on the
                // degraded path an operator would be diagnosing.
                let run = rebuilt.outcome.stats;
                self.outcome = rebuilt.outcome;
                self.derived_facts = rebuilt.derived_facts;
                self.skolem = rebuilt.skolem;
                self.plans = rebuilt.plans;
                self.deps = rebuilt.deps;
                self.generation = rebuilt.generation;
                self.mark = rebuilt.mark;
                self.violated = rebuilt.violated;
                self.stats.full_rebuilds += 1;
                self.poisoned = None;
                Ok(DeltaSummary {
                    rebuild: reason,
                    run,
                    ..DeltaSummary::default()
                })
            }
            Err(e) => {
                self.poisoned = Some(facts);
                Err(e)
            }
        }
    }

    /// The incremental path. On `Err` the instance is left half
    /// maintained and the memo and plans abandoned; its facts are the
    /// target's, which is all the rebuild that follows reads.
    fn apply_incremental(
        &mut self,
        del_ids: Vec<AtomId>,
        eff_inserts: Vec<(Symbol, Vec<TermId>)>,
        changes: Option<BaseChanges<'_>>,
    ) -> Result<DeltaSummary> {
        let program = self.runner.program();
        let base = changes.as_ref().map(|c| c.base);
        // The deleted facts and the base atoms that died (tagged as the
        // view's provenance names them) seed the deletion cone.
        let dead_base = changes.as_ref().map_or(&[][..], |c| c.dead);
        let seeds: Vec<AtomId> = del_ids
            .iter()
            .copied()
            .chain(dead_base.iter().map(|&id| id | BASE_ATOM))
            .collect();
        let cone = self.deps.cone(&seeds);

        let outcome = Arc::make_mut(&mut self.outcome);
        let instance = std::mem::take(&mut outcome.instance);
        let apply_start = instance.len() as AtomId;
        let mut summary = DeltaSummary::default();
        let mut sweep = Sweep::new(&self.negated_preds, self.runner.unions());

        let rec = self.runner.recorder();
        let mut engine = Engine::new(
            self.runner.compiled(),
            self.runner.compiled_constraints(),
            std::mem::take(&mut self.plans),
            instance,
            base,
            self.runner.config(),
            rec,
        );
        engine.set_skolem(std::mem::take(&mut self.skolem));
        // Everything tombstoned from here on is this apply's.
        let dead_from = engine.instance.dead_len();

        // Phase 0a: tombstone the deleted facts and the support cones of
        // the deleted facts and base atoms.
        {
            let _t = Timer::start(rec, Phase::Overdelete);
            for &id in &del_ids {
                sweep.tombstone(&mut engine.instance, &self.derivers, id, false);
            }
            summary.overdeleted +=
                sweep.tombstone_many(&mut engine.instance, &self.derivers, &cone);
        }

        restore_base_facts(
            &mut self.derived_facts,
            &mut engine,
            &mut sweep,
            &mut summary,
        );

        // Phase 0b: seed the inserted facts above the watermark, and
        // record the base's changes for the negation pivots (the base is
        // extensional to this view, like its facts).
        for (pred, key) in &eff_inserts {
            let (_, fresh) = engine.instance.insert_ids(*pred, key, None);
            if fresh {
                sweep.note_inserted(*pred, key.clone());
            }
        }
        if let Some(c) = changes.as_ref().filter(|_| !self.negated_preds.is_empty()) {
            // Only tuples of negated predicates this view reads from its
            // base (not its own layer) feed the pivots.
            let negated_here = |id: AtomId| {
                let pred = c.base.pred_of(id);
                if !self.negated_preds.contains(&pred) {
                    return None;
                }
                let key = c.base.key_of(id);
                let source = engine.layers().source(pred, key.len());
                source.is_some_and(|s| s.read_only()).then_some((pred, key))
            };
            let appended = (c.from..c.base.len() as AtomId).filter(|&id| c.base.is_live(id));
            let inserted: Vec<_> = appended.filter_map(negated_here).collect();
            let deleted: Vec<_> = c.dead.iter().filter_map(|&id| negated_here(id)).collect();
            for (pred, key) in inserted {
                sweep.note_inserted(pred, key);
            }
            for (pred, key) in deleted {
                sweep.note_deleted(pred, key);
            }
        }
        let base_start = changes.as_ref().map_or(0, |c| c.from);

        // The stratum sweep. Lower strata settle before higher ones read
        // them (through negation or otherwise), mirroring the chase. The
        // sweep can *re-enter* an earlier stratum: a multi-head rule is
        // placed at the max of its head strata, so a negation victim
        // over-deleted at stratum `s` may belong to a predicate of a
        // lower stratum — its derivers (and the rules its disappearance
        // un-blocks) live below `s` and must run again. Each re-entry is
        // driven by freshly tombstoned atoms, so the loop terminates.
        // Every change to the facts happened above, so if a step below
        // fails, the in-flight instance goes back to the view and the
        // rebuild reads the target facts off it.
        let swept = (|| -> Result<()> {
            let n_strata = self.runner.strata_rules().len();
            let mut stratum = 0usize;
            while stratum < n_strata {
                let rules_s = &self.runner.strata_rules()[stratum];
                if rules_s.is_empty() {
                    stratum += 1;
                    continue;
                }

                // (a) Negation victims: atoms whose `!p(…)` subgoal is now
                // contradicted by an inserted `p`-tuple are over-deleted
                // (with their cones); rederivation below restores any that
                // another match still supports — and facts come back
                // unconditionally.
                if !sweep.inserted_by_pred.is_empty() {
                    let (n, restart) = overdelete_victims(
                        self.runner.compiled(),
                        self.runner.stratification(),
                        &self.derivers,
                        &mut self.deps,
                        &mut engine,
                        rules_s,
                        &mut sweep,
                    );
                    summary.overdeleted += n;
                    restore_base_facts(
                        &mut self.derived_facts,
                        &mut engine,
                        &mut sweep,
                        &mut summary,
                    );
                    if let Some(target) = restart {
                        if target < stratum {
                            stratum = target;
                            continue;
                        }
                    }
                }
                let stratum_mark = engine.instance.len() as AtomId;

                // (b) Rederivation: over-deleted tuples derivable by a rule
                // of this stratum from surviving atoms come back (with fresh
                // ids, so their dependents rebuild through the windows).
                {
                    let _t = Timer::start(rec, Phase::Rederive);
                    rederive_pending(
                        self.runner.compiled(),
                        &self.derivers,
                        &mut engine,
                        stratum,
                        &sweep,
                    )?;
                }

                // (c) Deletion-enabled matches: rules negating a predicate
                // that lost tuples are pivoted over exactly those tuples.
                if !sweep.deleted_by_pred.is_empty() {
                    fire_negation_unblocked(self.runner.compiled(), &mut engine, rules_s, &sweep)?;
                }

                // (d) Semi-naive propagation of everything new this apply.
                {
                    let _span = triq_obs::span(rec, "stratum", stratum as u64);
                    let _t = Timer::start(rec, Phase::ChaseStratum);
                    engine.run_stratum_from(rules_s, apply_start, base_start)?;
                }

                // (d') Existential rules re-fire the triggers of what is
                // still missing, and the stratum propagates what they made
                // (the base has nothing new for it by now).
                let compiled = self.runner.compiled();
                if !sweep.pending.is_empty()
                    && rules_s
                        .iter()
                        .any(|&ri| !compiled[ri].exist_slots.is_empty())
                {
                    let refire_mark = engine.instance.len() as AtomId;
                    {
                        let _t = Timer::start(rec, Phase::Rederive);
                        refire_pending(
                            self.runner.compiled(),
                            &self.derivers,
                            &mut engine,
                            stratum,
                            &sweep,
                        )?;
                    }
                    if engine.instance.len() as AtomId > refire_mark {
                        let _t = Timer::start(rec, Phase::ChaseStratum);
                        engine.run_stratum_from(rules_s, refire_mark, AtomId::MAX)?;
                    }
                }

                // (e) Bookkeeping for the atoms this stratum appended.
                let end = engine.instance.len() as AtomId;
                self.deps.extend_to(&engine.instance);
                for id in stratum_mark..end {
                    if !engine.instance.is_live(id) {
                        continue;
                    }
                    let pred = engine.instance.pred_of(id);
                    // Negation-free predicates with nothing over-deleted pay
                    // no per-atom bookkeeping (the common insert-only case).
                    if sweep.overdeleted.is_empty() && !sweep.negated.contains(&pred) {
                        summary.inserted += 1;
                        continue;
                    }
                    let key = engine.instance.key_of(id);
                    if sweep.was_overdeleted(pred, &key) {
                        summary.rederived += 1;
                    } else {
                        summary.inserted += 1;
                    }
                    sweep.note_inserted(pred, key);
                }
                stratum += 1;
            }
            Ok(())
        })();
        if let Err(e) = swept {
            outcome.instance = engine.into_parts().0;
            return Err(e);
        }

        forget_dead_triggers(self.runner.compiled(), &mut engine, dead_from);

        // Constraints see the final instance, as in a from-scratch run.
        // Their bodies are positive: if they held before this apply, a
        // violation can only use an atom it appended.
        self.violated = !program.constraints.is_empty()
            && if self.violated {
                engine.check_constraints(None)
            } else {
                engine.check_constraints(Some((apply_start, base_start)))
            };
        outcome.inconsistent = self.violated || changes.is_some_and(|c| c.inconsistent);

        let (instance, run, skolem, plans) = engine.into_parts();
        outcome.stats += run;
        outcome.instance = instance;
        self.skolem = skolem;
        self.plans = plans;
        summary.run = run;

        self.stats.atoms_overdeleted += summary.overdeleted as u64;
        self.stats.atoms_rederived += summary.rederived as u64;
        self.stats.atoms_inserted += summary.inserted as u64;

        self.maybe_compact();
        Ok(summary)
    }

    /// Sheds tombstones once they dominate: compacts the instance to
    /// dense ids, drops the nulls no live atom mentions, and rebuilds the
    /// dependency index; the skolem memo follows the renumbered nulls.
    /// The ids and nulls of a stacked view's base are left as they are.
    fn maybe_compact(&mut self) {
        if !self.outcome.instance.wants_compaction() {
            return;
        }
        let outcome = Arc::make_mut(&mut self.outcome);
        let (compacted, renumbering) = outcome.instance.compacted();
        outcome.instance = compacted;
        self.skolem = renumber_memo(&self.skolem, &renumbering);
        self.derived_facts = self
            .derived_facts
            .iter()
            .map(|&id| renumbering.atom(id))
            .collect();
        self.deps = DependencyIndex::from_instance(&outcome.instance);
        self.generation = next_generation();
        self.stats.compactions += 1;
    }
}

/// What a stacked view reads of its base's changes since it last looked:
/// the atoms appended (ids `from..`) and those tombstoned, plus whether
/// the base is ⊤ now.
struct BaseChanges<'a> {
    base: &'a Instance,
    inconsistent: bool,
    from: AtomId,
    dead: &'a [AtomId],
}

/// Per-apply mutable tracking shared across the stratum sweep.
struct Sweep<'a> {
    /// Predicates occurring under negation — the only ones whose change
    /// tuples the pivots ever read; everything else skips bookkeeping.
    negated: &'a HashSet<Symbol>,
    /// The view's union reads: a source tuple's change is its union
    /// tuple's change too.
    unions: &'a Unions,
    /// Tuples inserted this apply (EDB seeds, rederivations and derived
    /// atoms), by **negated** predicate — the insertion side of the
    /// negation pivots.
    inserted_by_pred: HashMap<Symbol, Vec<Vec<TermId>>>,
    /// Tuples tombstoned this apply, by **negated** predicate — the
    /// deletion side.
    deleted_by_pred: HashMap<Symbol, Vec<Vec<TermId>>>,
    /// Keys over-deleted this apply (to classify re-inserted atoms as
    /// rederivations rather than new derivations).
    overdeleted: HashSet<(Symbol, Box<[TermId]>)>,
    /// Over-deleted tuples awaiting a rederivation attempt (each is
    /// tried at every stratum holding a deriving rule), with the id of
    /// the tombstoned atom, whose recorded derivation stays readable.
    pending: Vec<(Symbol, Vec<TermId>, AtomId)>,
    /// Tombstoned atoms not yet checked against the view's facts. A
    /// tuple can be an EDB fact *and* carry a derivation (the store
    /// deduplicates, so a later database insert of an already-derived
    /// tuple leaves the derivation in place); when DRed over-deletes it,
    /// being a fact re-asserts it unconditionally.
    restore_check: Vec<AtomId>,
}

impl<'a> Sweep<'a> {
    fn new(negated: &'a HashSet<Symbol>, unions: &'a Unions) -> Sweep<'a> {
        Sweep {
            negated,
            unions,
            inserted_by_pred: HashMap::new(),
            deleted_by_pred: HashMap::new(),
            overdeleted: HashSet::new(),
            pending: Vec::new(),
            restore_check: Vec::new(),
        }
    }

    /// Records an inserted tuple for the negation pivots (negated
    /// predicates only — no other predicate is ever read back).
    fn note_inserted(&mut self, pred: Symbol, key: Vec<TermId>) {
        if self.negated.contains(&pred) {
            for (union, wide) in self.widen(pred, &key) {
                self.inserted_by_pred.entry(union).or_default().push(wide);
            }
            self.inserted_by_pred.entry(pred).or_default().push(key);
        }
    }

    /// The tuples of negated unions that a tuple of `pred` stands for.
    fn widen(&self, pred: Symbol, key: &[TermId]) -> Vec<(Symbol, Vec<TermId>)> {
        self.unions
            .served_by(pred, key.len())
            .filter(|u| self.negated.contains(&u.pred))
            .filter_map(|u| Some((u.pred, u.widen(key)?)))
            .collect()
    }

    /// Tombstones one atom, recording its tuple for the negation pivots
    /// and (when a rule could rederive it) the rederivation schedule.
    /// Returns `true` if the atom was live.
    fn tombstone(
        &mut self,
        instance: &mut Instance,
        derivers: &Derivers,
        id: AtomId,
        derived: bool,
    ) -> bool {
        if !instance.is_live(id) {
            return false;
        }
        let pred = instance.pred_of(id);
        let key = instance.key_of(id);
        instance.tombstone(id);
        if derived || derivers.contains_key(&pred) {
            self.overdeleted
                .insert((pred, key.clone().into_boxed_slice()));
        }
        if derivers.contains_key(&pred) {
            self.pending.push((pred, key.clone(), id));
        }
        // A union's own rows skip what a source holds, so a dying source
        // tuple may leave its union tuple derived yet stored nowhere:
        // the union's derivers try it again.
        for u in self.unions.served_by(pred, key.len()) {
            if let (true, Some(wide)) = (derivers.contains_key(&u.pred), u.widen(&key)) {
                self.overdeleted
                    .insert((u.pred, wide.clone().into_boxed_slice()));
                self.pending.push((u.pred, wide, id));
            }
        }
        self.restore_check.push(id);
        self.note_deleted(pred, key);
        true
    }

    /// Records a deleted tuple for the negation pivots (negated
    /// predicates only).
    fn note_deleted(&mut self, pred: Symbol, key: Vec<TermId>) {
        if self.negated.contains(&pred) {
            for (union, wide) in self.widen(pred, &key) {
                self.deleted_by_pred.entry(union).or_default().push(wide);
            }
            self.deleted_by_pred.entry(pred).or_default().push(key);
        }
    }

    /// Tombstones a cone of derived atoms, returning how many were live.
    fn tombstone_many(
        &mut self,
        instance: &mut Instance,
        derivers: &Derivers,
        ids: &[AtomId],
    ) -> usize {
        ids.iter()
            .filter(|&&id| self.tombstone(instance, derivers, id, true))
            .count()
    }

    fn was_overdeleted(&self, pred: Symbol, key: &[TermId]) -> bool {
        // Box the key only for the probe; the set is small per apply.
        !self.overdeleted.is_empty()
            && self
                .overdeleted
                .contains(&(pred, key.to_vec().into_boxed_slice()))
    }
}

/// Re-asserts every freshly tombstoned atom that is (still) a fact:
/// DRed may over-delete an atom whose tuple is both derived *and*
/// extensional (the store deduplicates them into one atom, filed in
/// `derived_facts`), but a fact needs no derivation. The re-inserted
/// fact is a fresh underived atom, which leaves `derived_facts` and
/// rejoins the delta frontier, so its dependents rebuild. An explicitly
/// deleted fact has already left `derived_facts`, so it stays dead.
fn restore_base_facts(
    derived_facts: &mut BTreeSet<AtomId>,
    engine: &mut Engine<'_>,
    sweep: &mut Sweep<'_>,
    summary: &mut DeltaSummary,
) {
    let checks = std::mem::take(&mut sweep.restore_check);
    for id in checks {
        if derived_facts.remove(&id) {
            let pred = engine.instance.pred_of(id);
            let key = engine.instance.key_of(id);
            let (_, fresh) = engine.instance.insert_ids(pred, &key, None);
            debug_assert!(fresh, "a tombstoned fact is not live elsewhere");
            summary.rederived += 1;
            sweep.note_inserted(pred, key);
        }
    }
}

/// Over-deletes the heads of `rules_s` matches whose negated subgoal is
/// one of this apply's inserted tuples (plus their support cones).
/// Returns `(count, restart)` — the number of atoms over-deleted, plus
/// the minimum *predicate* stratum among them (a multi-head rule lifted
/// to the max of its head strata can victimize a lower-stratum
/// predicate; the sweep must re-enter that stratum so its derivers and
/// un-blocked consumers run again). An existential head is matched with
/// its existential positions free, so it finds the atoms the blocked
/// trigger invented. Database atoms are never victims — they hold
/// regardless of rule matches.
fn overdelete_victims(
    compiled: &[CompiledRule],
    strat: &crate::Stratification,
    derivers: &Derivers,
    deps: &mut DependencyIndex,
    engine: &mut Engine<'_>,
    rules_s: &[usize],
    sweep: &mut Sweep<'_>,
) -> (usize, Option<usize>) {
    let mut victims: Vec<AtomId> = Vec::new();
    let mut head_slots: Vec<Option<TermId>> = Vec::new();
    for &ri in rules_s {
        let rule = &compiled[ri];
        if rule.body_neg.is_empty() {
            continue;
        }
        for neg in &rule.body_neg {
            let Some(tuples) = sweep.inserted_by_pred.get(&neg.pred) else {
                continue;
            };
            for key in tuples {
                let layers = engine.layers();
                for_each_pivot_match(layers, rule, neg, key, |slots, _| {
                    for head in &rule.heads {
                        head_slots.clear();
                        head_slots.extend_from_slice(slots);
                        let head = std::slice::from_ref(head);
                        enumerate_matches(layers, head, &mut head_slots, &mut |_, ids| {
                            // Only atoms whose *recorded* support is this
                            // very rule are victims: a different recorded
                            // derivation (another rule, or a database
                            // fact) is untouched by this negation change
                            // — and not re-victimizing rederived atoms is
                            // what makes the re-entrant sweep terminate.
                            let id = ids[0];
                            if id & BASE_ATOM == 0
                                && layers.own.provenance(id).is_some_and(|(r, _)| r == ri)
                            {
                                victims.push(id);
                            }
                            true
                        });
                    }
                    true
                });
            }
        }
    }
    if victims.is_empty() {
        return (0, None);
    }
    victims.sort_unstable();
    victims.dedup();
    deps.extend_to(&engine.instance);
    let cone = deps.cone(&victims);
    let mut n = 0usize;
    let mut restart: Option<usize> = None;
    for &id in victims.iter().chain(cone.iter()) {
        if !engine.instance.is_live(id) {
            continue;
        }
        let s = strat.stratum_of(engine.instance.pred_of(id));
        if sweep.tombstone(&mut engine.instance, derivers, id, true) {
            n += 1;
            restart = Some(restart.map_or(s, |r: usize| r.min(s)));
        }
    }
    (n, restart)
}

/// Tries to rederive every pending over-deleted tuple through the
/// Datalog rules of `stratum`; successes are inserted with their new
/// derivation (and fresh ids, making them part of the frontier).
/// Existential rules are [`refire_pending`]'s.
fn rederive_pending(
    compiled: &[CompiledRule],
    derivers: &Derivers,
    engine: &mut Engine<'_>,
    stratum: usize,
    sweep: &Sweep<'_>,
) -> Result<()> {
    for (pred, key, _, ri) in pending_derivers(compiled, derivers, stratum, sweep, false) {
        let rule = &compiled[ri];
        if holds_pending(engine, rule, pred, key) {
            continue; // restored by an earlier rule, stratum or propagation
        }
        for head in heads_of(rule, pred, key) {
            if let Some((mut slots, ids)) = find_supporting_match(engine.layers(), rule, head, key)
            {
                engine.apply(ri, &mut slots, &ids)?;
                break;
            }
        }
    }
    Ok(())
}

/// The existential half of rederivation, run once the stratum's other
/// rules have propagated. A pending tuple one of an existential rule's
/// heads could have instantiated — or, under the restricted chase,
/// satisfied — and that did not come back re-fires every surviving
/// trigger of that head ([`refire_triggers`]); the chase strategy
/// decides what that yields. Under the skolem chase the memo re-issues
/// a trigger's own nulls, so a surviving trigger gets its atoms back
/// unchanged. Under the restricted chase a trigger whose head no
/// surviving atom satisfies invents fresh nulls, as a chase step would.
fn refire_pending(
    compiled: &[CompiledRule],
    derivers: &Derivers,
    engine: &mut Engine<'_>,
    stratum: usize,
    sweep: &Sweep<'_>,
) -> Result<()> {
    for (pred, key, id, ri) in pending_derivers(compiled, derivers, stratum, sweep, true) {
        if holds_pending(engine, &compiled[ri], pred, key) {
            continue;
        }
        for head in heads_of(&compiled[ri], pred, key) {
            refire_triggers(compiled, engine, ri, head, key, id)?;
        }
    }
    Ok(())
}

/// Whether a pending tuple of `pred` is back: held by the instance, or
/// for a union by any of its sources (read through the head of `rule`
/// that derives it).
fn holds_pending(engine: &Engine<'_>, rule: &CompiledRule, pred: Symbol, key: &[TermId]) -> bool {
    match heads_of(rule, pred, key).next() {
        Some(head) if !head.alts.is_empty() => head.holds(engine.layers(), key, &mut Vec::new()),
        _ => engine.instance.contains_ids(pred, key),
    }
}

/// Every pending tuple (with its tombstoned atom) with each rule of
/// `stratum` — the existential ones, or the others — that could derive
/// it.
fn pending_derivers<'s>(
    compiled: &'s [CompiledRule],
    derivers: &'s Derivers,
    stratum: usize,
    sweep: &'s Sweep<'_>,
    existential: bool,
) -> impl Iterator<Item = (Symbol, &'s [TermId], AtomId, usize)> {
    sweep.pending.iter().flat_map(move |(pred, key, id)| {
        let rules = derivers.get(pred).map_or(&[][..], Vec::as_slice);
        rules.iter().filter_map(move |&(s, ri)| {
            let fits = s == stratum && compiled[ri].exist_slots.is_empty() != existential;
            fits.then_some((*pred, &key[..], *id, ri))
        })
    })
}

/// The heads of `rule` a tuple of `pred` could instantiate.
fn heads_of<'r>(
    rule: &'r CompiledRule,
    pred: Symbol,
    key: &[TermId],
) -> impl Iterator<Item = &'r CAtom> {
    let arity = key.len();
    rule.heads
        .iter()
        .filter(move |h| h.pred == pred && h.terms.len() == arity)
}

/// Applies every surviving match of existential rule `ri` whose `head`
/// agrees with `key` off its existential positions — the triggers whose
/// instance of `head` `key` could be or could satisfy — with builtins
/// and negated subgoals checked against the current instance.
///
/// Under the skolem chase only the trigger that invented a tuple's
/// nulls can issue them again, so a tuple with a constant at an
/// existential position has no trigger here, and a head that leaves
/// part of the frontier open (`B(n)` of `A(X) → ∃Y r(X,Y), B(Y)`) takes
/// the rest from the tuple's recorded derivation (`id`) when that was
/// this rule — one trigger instead of every match of the body. The
/// restricted chase tries every match: any trigger whose head the tuple
/// witnessed may have to fire.
fn refire_triggers(
    compiled: &[CompiledRule],
    engine: &mut Engine<'_>,
    ri: usize,
    head: &CAtom,
    key: &[TermId],
    id: AtomId,
) -> Result<()> {
    let rule = &compiled[ri];
    let skolem = engine.strategy() == ExistentialStrategy::Skolem;
    let mut slots: Vec<Option<TermId>> = vec![None; rule.n_slots];
    let mut invented = false;
    for (&term, &value) in head.terms.iter().zip(key) {
        let bound = match term {
            CTerm::Slot(s) if rule.exist_slots.contains(&s) => {
                invented = true;
                !skolem || value.as_null().is_some()
            }
            _ => bind_term(term, value, &mut slots),
        };
        if !bound {
            return Ok(());
        }
    }
    let open = rule
        .frontier_slots
        .iter()
        .any(|&s| slots[s as usize].is_none());
    let layers = engine.layers();
    let recorded = layers.own.provenance(id).filter(|&(r, _)| r == ri);
    if let Some((_, body)) = recorded.filter(|_| skolem && invented && open) {
        let recorded = recorded_bindings(rule, layers, body);
        for &s in &rule.frontier_slots {
            let value = recorded[s as usize].expect("a body binds the frontier");
            if !bind_term(CTerm::Slot(s), value, &mut slots) {
                return Ok(());
            }
        }
    }
    let mut matches: Vec<(Vec<Option<TermId>>, Vec<AtomId>)> = Vec::new();
    enumerate_matches(
        engine.layers(),
        &rule.body_pos,
        &mut slots,
        &mut |s, ids| {
            matches.push((s.to_vec(), ids.to_vec()));
            true
        },
    );
    for (mut slots, ids) in matches {
        if engine.check_negatives_and_builtins(ri, &slots) {
            engine.apply(ri, &mut slots, &ids)?;
        }
    }
    Ok(())
}

/// Drops the memo entry of every trigger that died this apply. An atom
/// tombstoned since `dead_from` whose recorded derivation was an
/// existential trigger, and whose tuple did not come back, means no
/// match of that trigger survived: a live trigger re-fires all its
/// heads. Its nulls died with it — every atom mentioning them descends
/// from an application of the trigger, so the cone took them all — and
/// the memo keeps exactly the triggers a from-scratch chase memoizes.
/// (The restricted chase memoizes nothing.)
fn forget_dead_triggers(compiled: &[CompiledRule], engine: &mut Engine<'_>, dead_from: usize) {
    if engine.skolem.is_empty() {
        return;
    }
    let layers = engine.layers();
    let mut dead: Vec<(usize, Box<[TermId]>)> = Vec::new();
    for &id in &layers.own.graveyard()[dead_from..] {
        let Some((ri, body)) = layers.own.provenance(id) else {
            continue;
        };
        let rule = &compiled[ri];
        if rule.exist_slots.is_empty() {
            continue;
        }
        let (pred, key) = (layers.own.pred_of(id), layers.own.key_of(id));
        let back = match heads_of(rule, pred, &key).next() {
            Some(head) => head.holds(layers, &key, &mut Vec::new()),
            None => layers.own.contains_ids(pred, &key),
        };
        if back {
            continue;
        }
        dead.push((
            ri,
            rule.frontier_key(&recorded_bindings(rule, layers, body)),
        ));
    }
    for trigger in dead {
        engine.skolem.remove(&trigger);
    }
}

/// The slots `rule`'s body bound in a recorded derivation, read off its
/// body atoms (live or tombstoned).
fn recorded_bindings(
    rule: &CompiledRule,
    layers: Layers<'_>,
    body: &[AtomId],
) -> Vec<Option<TermId>> {
    let mut slots: Vec<Option<TermId>> = vec![None; rule.n_slots];
    for (atom, &b) in rule.body_pos.iter().zip(body) {
        let bound = bind_atom(atom, &atom.key_of(layers, b), &mut slots);
        debug_assert!(bound, "a recorded derivation matches its rule's body");
    }
    slots
}

/// Fires the matches a deletion un-blocked: for each rule of the stratum
/// with a negated subgoal on a predicate that lost tuples, pivot the
/// negated atom over exactly those tuples and apply the resulting
/// matches (the negative-delta counterpart of the semi-naive window).
fn fire_negation_unblocked(
    compiled: &[CompiledRule],
    engine: &mut Engine<'_>,
    rules_s: &[usize],
    sweep: &Sweep<'_>,
) -> Result<()> {
    for &ri in rules_s {
        let rule = &compiled[ri];
        if rule.body_neg.is_empty() {
            continue;
        }
        let mut matches: Vec<(Vec<Option<TermId>>, Vec<AtomId>)> = Vec::new();
        for neg in &rule.body_neg {
            let Some(tuples) = sweep.deleted_by_pred.get(&neg.pred) else {
                continue;
            };
            for key in tuples {
                for_each_pivot_match(engine.layers(), rule, neg, key, |slots, ids| {
                    matches.push((slots.to_vec(), ids.to_vec()));
                    true
                });
            }
        }
        for (mut slots, ids) in matches {
            // Re-checks every negated subgoal against the current
            // instance — in particular the pivot tuple itself, which
            // blocks again if it was rederived meanwhile.
            if engine.check_negatives_and_builtins(ri, &slots) {
                engine.apply(ri, &mut slots, &ids)?;
            }
        }
    }
    Ok(())
}

/// Enumerates the matches of `rule`'s positive body under the binding
/// that unifies the negated atom `neg` with `key`, calling `on_match`
/// with (slots, chosen body ids) for each. Used for both directions of
/// the negation delta (victims of insertions, matches un-blocked by
/// deletions). Builtins and the remaining negated subgoals are **not**
/// checked here — callers filter.
fn for_each_pivot_match(
    layers: Layers<'_>,
    rule: &CompiledRule,
    neg: &CAtom,
    key: &[TermId],
    mut on_match: impl FnMut(&[Option<TermId>], &[AtomId]) -> bool,
) {
    if neg.terms.len() != key.len() {
        return;
    }
    let mut slots: Vec<Option<TermId>> = vec![None; rule.n_slots];
    if !bind_atom(neg, key, &mut slots) {
        return;
    }
    enumerate_matches(layers, &rule.body_pos, &mut slots, &mut |s, ids| {
        on_match(s, ids)
    });
}

/// Unifies a compiled atom pattern with an encoded tuple, binding free
/// slots. Returns `false` (possibly leaving `slots` partially bound —
/// callers use fresh slot vectors) on mismatch.
fn bind_atom(atom: &CAtom, key: &[TermId], slots: &mut [Option<TermId>]) -> bool {
    debug_assert_eq!(atom.terms.len(), key.len());
    atom.terms
        .iter()
        .zip(key)
        .all(|(&term, &value)| bind_term(term, value, slots))
}

/// Unifies one compiled term with a value, binding a free slot.
fn bind_term(term: CTerm, value: TermId, slots: &mut [Option<TermId>]) -> bool {
    match term {
        CTerm::Fixed(v) => v == value,
        CTerm::Slot(s) => match slots[s as usize] {
            Some(b) => b == value,
            None => {
                slots[s as usize] = Some(value);
                true
            }
        },
    }
}

/// Searches for one match of `rule`'s positive body that instantiates
/// `head` to exactly `key`, with builtins and negated subgoals checked
/// inline against `instance`. Returns the full slot assignment and the
/// matched body ids.
fn find_supporting_match(
    layers: Layers<'_>,
    rule: &CompiledRule,
    head: &CAtom,
    key: &[TermId],
) -> Option<(Vec<Option<TermId>>, Vec<AtomId>)> {
    let mut slots: Vec<Option<TermId>> = vec![None; rule.n_slots];
    if !bind_atom(head, key, &mut slots) {
        return None;
    }
    let mut found: Option<(Vec<Option<TermId>>, Vec<AtomId>)> = None;
    let mut neg_buf: Vec<TermId> = Vec::new();
    let mut alt_buf: Vec<TermId> = Vec::new();
    enumerate_matches(layers, &rule.body_pos, &mut slots, &mut |s, ids| {
        for &b in &rule.builtins {
            if !Engine::builtin_holds(b, s) {
                return true; // keep searching
            }
        }
        for neg in &rule.body_neg {
            instantiate_into(neg, s, &mut neg_buf);
            if neg.holds(layers, &neg_buf, &mut alt_buf) {
                return true;
            }
        }
        found = Some((s.to_vec(), ids.to_vec()));
        false
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, ChaseConfig, ExistentialStrategy, GroundAtom};
    use triq_common::{intern, Term};

    fn view(program: &str, facts: &[(&str, &[&str])]) -> MaterializedView {
        view_with(program, facts, ChaseConfig::default())
    }

    fn view_with(
        program: &str,
        facts: &[(&str, &[&str])],
        config: ChaseConfig,
    ) -> MaterializedView {
        let p = parse_program(program).unwrap();
        let runner = ChaseRunner::new(p, config).unwrap();
        let mut db = Database::new();
        for (pred, args) in facts {
            db.add_fact(pred, args);
        }
        MaterializedView::new(runner, db).unwrap()
    }

    fn assert_matches_scratch(v: &MaterializedView) {
        let scratch = v.runner().run(&v.database()).unwrap();
        assert_eq!(scratch.inconsistent, v.outcome().inconsistent);
        let got: std::collections::BTreeSet<String> =
            v.instance().iter().map(|(_, a)| a.to_string()).collect();
        let want: std::collections::BTreeSet<String> = scratch
            .instance
            .iter()
            .map(|(_, a)| a.to_string())
            .collect();
        assert_eq!(got, want);
    }

    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";

    #[test]
    fn insert_resumes_the_chase() {
        let mut v = view(TC, &[("e", &["a", "b"])]);
        assert_eq!(v.instance().live_len(), 2);
        let s = v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert_eq!(s.rebuild, None);
        assert_eq!(
            s.inserted, 2,
            "t(b,c) and t(a,c) derived beyond the EDB fact"
        );
        assert_matches_scratch(&v);
        // Redundant insert: nothing happens.
        let s = v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert_eq!(s, DeltaSummary::default());
    }

    #[test]
    fn delete_overdeletes_and_rederives() {
        // Two paths a→c; deleting one leaves t(a,c) rederivable.
        let mut v = view(
            TC,
            &[
                ("e", &["a", "b"]),
                ("e", &["b", "c"]),
                ("e", &["a", "x"]),
                ("e", &["x", "c"]),
            ],
        );
        let s = v.apply(&Delta::new().delete("e", &["a", "b"])).unwrap();
        assert_eq!(s.rebuild, None);
        assert!(s.overdeleted >= 2, "t(a,b) and t(a,c) over-deleted");
        assert!(s.rederived >= 1, "t(a,c) survives via a→x→c");
        assert_matches_scratch(&v);
        assert!(v
            .instance()
            .contains_terms(intern("t"), &[Term::constant("a"), Term::constant("c")]));
        assert!(!v
            .instance()
            .contains_terms(intern("t"), &[Term::constant("a"), Term::constant("b")]));
    }

    #[test]
    fn negation_maintained_in_both_directions() {
        let program = "e(?X, ?Y) -> t(?X, ?Y).\n\
                       e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                       e(?X, ?Y) -> node(?X).\n\
                       e(?X, ?Y) -> node(?Y).\n\
                       node(?X), node(?Y), !t(?X, ?Y) -> unreachable(?X, ?Y).";
        let mut v = view(program, &[("e", &["a", "b"]), ("e", &["c", "d"])]);
        assert_matches_scratch(&v);
        // Insert: a→…→d becomes reachable, its `unreachable` atom dies.
        v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert_matches_scratch(&v);
        // Delete: reachability shrinks, `unreachable` atoms come back.
        v.apply(&Delta::new().delete("e", &["b", "c"])).unwrap();
        assert_matches_scratch(&v);
        assert_eq!(v.stats().full_rebuilds, 0, "no fallback on this program");
    }

    #[test]
    fn existential_inserts_reuse_the_skolem_memo() {
        let mut v = view(
            "person(?X) -> exists ?Y parent(?X, ?Y).",
            &[("person", &["alice"])],
        );
        assert_eq!(v.outcome().stats.nulls, 1);
        // A redundant re-assertion must not re-invent the null.
        let s = v.apply(&Delta::new().insert("person", &["alice"])).unwrap();
        assert_eq!(s, DeltaSummary::default(), "redundant fact");
        v.apply(&Delta::new().insert("person", &["bob"])).unwrap();
        assert_eq!(v.outcome().stats.nulls, 2);
        assert_eq!(v.instance().atoms_of(intern("parent")).count(), 2);
        assert_eq!(v.stats().full_rebuilds, 0);
    }

    #[test]
    fn lifted_multihead_victims_reenter_lower_strata() {
        // The multi-head rule is placed at stratum 2 (max of its heads:
        // z is stratum 2 via !r), but its head `r` lives in stratum 1.
        // Inserting p(c) victimizes r(c) during the stratum-2 sweep —
        // AFTER stratum 1 ran — so the sweep must re-enter stratum 1 to
        // rederive r(c) via `base(?X) -> r(?X)`.
        let program = "base(?X) -> r(?X).\n\
                       a(?X), !p(?X) -> r(?X), z(?X).\n\
                       w(?X), !r(?X) -> z(?X).";
        let mut v = view(program, &[("base", &["c"]), ("a", &["c"]), ("w", &["c"])]);
        assert_matches_scratch(&v);
        let s = v.apply(&Delta::new().insert("p", &["c"])).unwrap();
        assert_eq!(s.rebuild, None);
        assert_matches_scratch(&v);
        assert!(
            v.instance()
                .contains_terms(intern("r"), &[Term::constant("c")]),
            "r(c) must be rederived by the lower-stratum rule"
        );
        // And without the alternative deriver, r(c) genuinely dies and
        // the un-blocked stratum-2 rule fires z via !r.
        let mut v = view(program, &[("a", &["c"]), ("w", &["c"])]);
        v.apply(&Delta::new().insert("p", &["c"])).unwrap();
        assert_matches_scratch(&v);
        assert!(!v
            .instance()
            .contains_terms(intern("r"), &[Term::constant("c")]));
        assert!(v
            .instance()
            .contains_terms(intern("z"), &[Term::constant("c")]));
    }

    #[test]
    fn existential_negation_victims_are_the_blocked_triggers_heads() {
        let program = "person(?X), !blocked(?X) -> exists ?Y parent(?X, ?Y).\n\
                       e(?X, ?Y) -> t(?X, ?Y).\n\
                       e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";
        let mut v = view(program, &[("person", &["alice"]), ("e", &["a", "b"])]);
        let s = v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert_eq!(s.rebuild, None, "insert unrelated to the negated pred");
        assert_matches_scratch_modulo_nulls(&v);
        // Blocking alice kills her trigger: its head is the victim, and
        // its memo entry goes with it.
        let s = v
            .apply(&Delta::new().insert("blocked", &["alice"]))
            .unwrap();
        assert_eq!(s.rebuild, None);
        assert_eq!(s.overdeleted, 1, "parent(alice, _) is the one victim");
        assert_eq!(v.memo_len(), 0);
        assert_matches_scratch_modulo_nulls(&v);
        // Unblocking fires the trigger afresh.
        let s = v
            .apply(&Delta::new().delete("blocked", &["alice"]))
            .unwrap();
        assert_eq!((s.rebuild, s.inserted), (None, 1));
        assert_matches_scratch_modulo_nulls(&v);
        assert_eq!(v.stats().full_rebuilds, 0);
    }

    #[test]
    fn a_victim_whose_trigger_survives_comes_back_with_its_null() {
        // Two matches of alice's trigger: blocking one victimizes the
        // head, and the other re-fires the memo onto the same null.
        let mut v = view(
            "person(?X, ?D), !blocked(?D) -> exists ?Y parent(?X, ?Y).\n\
             parent(?X, ?Y) -> has_kid(?X).",
            &[("person", &["alice", "d1"]), ("person", &["alice", "d2"])],
        );
        let before: Vec<GroundAtom> = v.instance().atoms_of(intern("parent")).collect();
        let s = v.apply(&Delta::new().insert("blocked", &["d1"])).unwrap();
        assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 2, 2));
        let after: Vec<GroundAtom> = v.instance().atoms_of(intern("parent")).collect();
        assert_eq!(before, after, "the same null");
        assert_eq!(v.memo_len(), 1);
        // Blocking the other match kills the trigger for good.
        v.apply(&Delta::new().insert("blocked", &["d2"])).unwrap();
        assert_eq!(v.instance().live_len(), 4, "the four facts");
        assert_eq!(v.memo_len(), 0);
        assert_matches_scratch_modulo_nulls(&v);
    }

    /// Like `assert_matches_scratch`, but compares the ground parts only
    /// (null names differ between a resumed and a fresh chase), the atom
    /// count, and the memo against the triggers a fresh chase fires.
    fn assert_matches_scratch_modulo_nulls(v: &MaterializedView) {
        let scratch = v.runner().run(&v.database()).unwrap();
        assert_eq!(scratch.inconsistent, v.outcome().inconsistent);
        let got: std::collections::BTreeSet<String> = v
            .instance()
            .ground_part()
            .iter()
            .map(|a| a.to_string())
            .collect();
        let want: std::collections::BTreeSet<String> = scratch
            .instance
            .ground_part()
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            v.instance().live_len(),
            scratch.instance.live_len(),
            "same atom count up to null renaming"
        );
        let fresh = MaterializedView::new(v.runner().clone(), v.database()).unwrap();
        assert_eq!(v.memo_len(), fresh.memo_len(), "memoized triggers");
    }

    #[test]
    fn apply_error_recovers_via_rebuild_or_reports_unusable() {
        // A budget the from-scratch chase fits (8 edges + 36 closure
        // atoms = 44) but maintenance churn trips: tombstones count
        // toward the id watermark the budget checks, so repeated
        // delete+insert cycles exceed it mid-apply and the view must
        // transparently recover through the rebuild fallback.
        let p = parse_program(TC).unwrap();
        let runner = ChaseRunner::new(
            p,
            ChaseConfig {
                max_atoms: 50,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..8 {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let mut v = MaterializedView::new(runner, db).unwrap();
        // Churn: repeated delete+insert of a middle edge keeps the live
        // size constant but pushes the id watermark toward the budget.
        let mut reasons = Vec::new();
        for _ in 0..6 {
            for d in [
                Delta::new().delete("e", &["n3", "n4"]),
                Delta::new().insert("e", &["n3", "n4"]),
            ] {
                if let Ok(s) = v.apply(&d) {
                    reasons.extend(s.rebuild);
                }
            }
        }
        // Whatever path each apply took (incremental, rebuild fallback),
        // the surviving view must match the scratch chase.
        assert_matches_scratch(&v);
        assert!(
            !reasons.is_empty() && reasons.iter().all(|&r| r == RebuildReason::Budget),
            "the tight budget must have forced a recovery rebuild: {reasons:?}"
        );
    }

    #[test]
    fn poisoned_view_errors_then_recovers_on_shrinking_delta() {
        // Budget fits the 5-chain closure (5 e + 10 t = 15 ≤ 20) but not
        // the 8-chain one (44): growing past it poisons the view, and a
        // shrinking delta heals it through the retried rebuild.
        let runner = ChaseRunner::new(
            parse_program(TC).unwrap(),
            ChaseConfig {
                max_atoms: 20,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..5 {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let mut v = MaterializedView::new(runner, db).unwrap();
        let grow = Delta::new()
            .insert("e", &["n5", "n6"])
            .insert("e", &["n6", "n7"])
            .insert("e", &["n7", "n8"]);
        assert!(v.apply(&grow).unwrap_err().to_string().contains("budget"));
        // Poisoned: another infeasible apply errors again (no panic).
        assert!(v.apply(&Delta::new().insert("e", &["n8", "n9"])).is_err());
        // Shrinking back under the budget recovers via the rebuild.
        let shrink = Delta::new()
            .delete("e", &["n5", "n6"])
            .delete("e", &["n6", "n7"])
            .delete("e", &["n7", "n8"])
            .delete("e", &["n8", "n9"]);
        let s = v.apply(&shrink).unwrap();
        assert_eq!(s.rebuild, Some(RebuildReason::Poisoned));
        assert_matches_scratch(&v);
    }

    const KIDS: &str = "person(?X) -> exists ?Y parent(?X, ?Y).\n parent(?X, ?Y) -> haskid(?X).";

    #[test]
    fn a_skolem_delete_is_maintained_through_nulls() {
        let mut v = view(KIDS, &[("person", &["alice"]), ("person", &["bob"])]);
        let s = v.apply(&Delta::new().delete("person", &["bob"])).unwrap();
        assert_eq!(s.rebuild, None, "DRed runs through the null");
        assert_eq!(
            (s.overdeleted, s.rederived),
            (2, 0),
            "parent(bob, _), haskid(bob)"
        );
        assert_eq!(v.stats().full_rebuilds, 0);
        assert_matches_scratch(&v);
        // bob's trigger died, and its memo entry with it.
        let bob = TermId::from_const(intern("bob"));
        assert_eq!(v.memo_len(), 1);
        assert!(v
            .skolem_ref()
            .iter()
            .all(|((_, frontier), _)| **frontier != [bob]));
    }

    #[test]
    fn a_restricted_delete_is_maintained_through_nulls() {
        let config = ChaseConfig {
            strategy: ExistentialStrategy::Restricted,
            ..ChaseConfig::default()
        };
        let mut v = view_with(
            KIDS,
            &[("person", &["alice"]), ("person", &["bob"])],
            config,
        );
        let s = v.apply(&Delta::new().delete("person", &["bob"])).unwrap();
        assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 2, 0));
        assert_eq!(v.stats().full_rebuilds, 0);
        assert_matches_scratch(&v);
    }

    #[test]
    fn a_restricted_trigger_whose_head_lost_its_witness_fires() {
        // parent(alice, carol) satisfies alice's trigger, so the
        // restricted chase invents no null for her — until it goes.
        let config = ChaseConfig {
            strategy: ExistentialStrategy::Restricted,
            ..ChaseConfig::default()
        };
        let mut v = view_with(
            KIDS,
            &[("person", &["alice"]), ("parent", &["alice", "carol"])],
            config,
        );
        assert_eq!(v.outcome().stats.nulls, 0);
        let s = v
            .apply(&Delta::new().delete("parent", &["alice", "carol"]))
            .unwrap();
        assert_eq!(s.rebuild, None);
        assert_eq!(v.instance().atoms_of(intern("parent")).count(), 1);
        assert!(v
            .instance()
            .iter()
            .any(|(id, _)| v.instance().depth(id) > 0));
        assert_matches_scratch_modulo_nulls(&v);
    }

    #[test]
    fn a_multi_head_trigger_is_keyed_by_its_whole_frontier() {
        // The frontier {X, Y} spans both heads: neither head alone names
        // the trigger, so its memo key is read off the recorded match.
        let mut v = view(
            "p(?X, ?Y) -> exists ?Z q(?X, ?Z), r(?Y, ?Z).\n q(?X, ?Z), r(?Y, ?Z) -> s(?X, ?Y).",
            &[("p", &["a", "b"]), ("p", &["a", "c"])],
        );
        assert_eq!(v.memo_len(), 2);
        let s = v.apply(&Delta::new().delete("p", &["a", "b"])).unwrap();
        assert_eq!(s.rebuild, None);
        assert_eq!(v.memo_len(), 1);
        assert_matches_scratch_modulo_nulls(&v);
        v.apply(&Delta::new().insert("p", &["a", "b"])).unwrap();
        assert_matches_scratch_modulo_nulls(&v);
    }

    #[test]
    fn a_head_without_the_frontier_refires_only_its_own_trigger() {
        // `b(?Y)` names no frontier value, so a pending `b` tuple finds
        // its trigger through its recorded derivation. The trigger of
        // `a(z, s0)` would exceed the null depth bound: re-firing it
        // (as enumerating every match of the body would) marks the
        // apply truncated.
        let config = ChaseConfig {
            max_null_depth: 1,
            ..ChaseConfig::default()
        };
        let mut v = view_with(
            "s(?X) -> exists ?Z a(?Z, ?X).\n a(?X, ?D) -> exists ?Y b(?Y), r(?X, ?Y).",
            &[
                ("s", &["s0"]),
                ("a", &["a0", "d1"]),
                ("a", &["a1", "d1"]),
                ("a", &["a1", "d2"]),
            ],
            config,
        );
        assert!(v.outcome().stats.truncated);
        assert_eq!(v.memo_len(), 3);
        // a0's trigger dies with its only match.
        let s = v.apply(&Delta::new().delete("a", &["a0", "d1"])).unwrap();
        assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 2, 0));
        assert!(!s.run.truncated, "no other trigger re-fired");
        assert_eq!(v.memo_len(), 2);
        assert_matches_scratch_modulo_nulls(&v);
        // a1's trigger keeps a match and re-issues its null, starting
        // from `b`, whose tuple binds nothing of the frontier.
        let before: Vec<GroundAtom> = v.instance().atoms_of(intern("b")).collect();
        let s = v.apply(&Delta::new().delete("a", &["a1", "d1"])).unwrap();
        assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 2, 2));
        assert!(!s.run.truncated, "no other trigger re-fired");
        let after: Vec<GroundAtom> = v.instance().atoms_of(intern("b")).collect();
        assert_eq!(before, after, "the same null");
        assert_eq!(v.memo_len(), 2);
        assert_matches_scratch_modulo_nulls(&v);
    }

    #[test]
    fn a_head_without_nulls_comes_back_from_any_surviving_trigger() {
        // `p(?X)` carries no null, so any trigger with the same `X` makes
        // it: the recorded one (w1) died, the w2 one brings it back.
        let mut v = view(
            "a(?X, ?W) -> exists ?Y p(?X), q(?W, ?Y).",
            &[("a", &["x", "w1"]), ("a", &["x", "w2"])],
        );
        let s = v.apply(&Delta::new().delete("a", &["x", "w1"])).unwrap();
        assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 2, 1));
        assert!(v
            .instance()
            .contains_terms(intern("p"), &[Term::constant("x")]));
        assert_eq!(v.memo_len(), 1);
        assert_matches_scratch_modulo_nulls(&v);
    }

    #[test]
    fn constraints_recheck_after_delta() {
        let program = "a(?X), b(?X) -> false.\n a(?X) -> out(?X).";
        let mut v = view(program, &[("a", &["x"])]);
        assert!(!v.outcome().inconsistent);
        v.apply(&Delta::new().insert("b", &["x"])).unwrap();
        assert!(v.outcome().inconsistent);
        v.apply(&Delta::new().delete("b", &["x"])).unwrap();
        assert!(!v.outcome().inconsistent);
        assert_matches_scratch(&v);
    }

    #[test]
    fn held_outcome_handles_are_isolated_from_later_deltas() {
        let mut v = view(TC, &[("e", &["a", "b"])]);
        let before = v.outcome().clone();
        v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert_eq!(before.instance.live_len(), 2, "held handle unchanged");
        assert_eq!(v.instance().live_len(), 5);
    }

    #[test]
    fn compaction_preserves_the_view() {
        let mut v = view(TC, &[]);
        // Churn enough tombstones to trigger compaction.
        for round in 0..40 {
            let mut ins = Delta::new();
            let mut del = Delta::new();
            for i in 0..10 {
                let from = format!("r{round}n{i}");
                let to = format!("r{round}n{}", i + 1);
                ins = ins.insert("e", &[&from, &to]);
                del = del.delete("e", &[&from, &to]);
            }
            v.apply(&ins).unwrap();
            v.apply(&del).unwrap();
        }
        assert!(v.stats().compactions > 0, "compaction must trigger");
        assert_matches_scratch(&v);
        // And the compacted view keeps maintaining correctly.
        v.apply(
            &Delta::new()
                .insert("e", &["p", "q"])
                .insert("e", &["q", "r"]),
        )
        .unwrap();
        assert_matches_scratch(&v);
    }

    #[test]
    fn compaction_drops_dead_nulls_and_the_memo_follows() {
        let mut v = view(KIDS, &[]);
        let (mut arrive, mut leave) = (Delta::new(), Delta::new());
        for i in 0..100 {
            let person = format!("p{i}");
            arrive = arrive.insert("person", &[&person]);
            leave = leave.delete("person", &[&person]);
        }
        v.apply(&arrive.insert("person", &["alice"])).unwrap();
        v.apply(&leave).unwrap();
        assert_eq!(v.stats().compactions, 1);
        assert_eq!(v.instance().null_count(), 1, "only alice's null is left");
        assert_eq!(v.memo_len(), 1);
        assert_matches_scratch_modulo_nulls(&v);
        // Her memo entry names her renumbered null: deleting her finds
        // and drops it.
        let s = v.apply(&Delta::new().delete("person", &["alice"])).unwrap();
        assert_eq!((s.overdeleted, v.memo_len()), (2, 0));
        assert_eq!(v.instance().live_len(), 0);
        v.apply(&Delta::new().insert("person", &["alice"])).unwrap();
        assert_matches_scratch_modulo_nulls(&v);
    }

    #[test]
    fn mixed_delta_delete_then_insert_same_fact() {
        let mut v = view(TC, &[("e", &["a", "b"])]);
        // Same fact in both lists: deletes run first, so it survives.
        let d = Delta::new()
            .insert("e", &["a", "b"])
            .delete("e", &["a", "b"]);
        v.apply(&d).unwrap();
        assert_matches_scratch(&v);
        assert!(v
            .instance()
            .contains_terms(intern("t"), &[Term::constant("a"), Term::constant("b")]));
    }

    /// The view's facts, printed and sorted.
    fn facts_of(v: &MaterializedView) -> Vec<String> {
        let mut facts: Vec<String> = v.database().iter().map(|a| a.to_string()).collect();
        facts.sort();
        facts
    }

    /// Is `r(c)` live, and is its atom a derivation?
    fn r_c(v: &MaterializedView) -> Option<bool> {
        let id = v
            .instance()
            .find_terms(intern("r"), &[Term::constant("c")])?;
        Some(v.instance().provenance(id).is_some())
    }

    #[test]
    fn a_fact_inserted_while_derived_outlives_its_derivation() {
        for compact in [false, true] {
            let mut v = view("a(?X) -> r(?X).", &[("a", &["c"])]);
            let s = v.apply(&Delta::new().insert("r", &["c"])).unwrap();
            assert_eq!(
                (s.inserted, s.run.derived),
                (0, 0),
                "nothing new is derived"
            );
            assert_eq!(r_c(&v), Some(true), "one atom, still the derivation");
            assert_eq!(v.derived_facts().len(), 1);
            assert_eq!(facts_of(&v), ["a(c)", "r(c)"]);
            // A redundant insert of the fact is a no-op.
            let s = v.apply(&Delta::new().insert("r", &["c"])).unwrap();
            assert_eq!(s, DeltaSummary::default());
            if compact {
                let (mut arrive, mut leave) = (Delta::new(), Delta::new());
                for i in 0..200 {
                    arrive = arrive.insert("a", &[&format!("p{i}")]);
                    leave = leave.delete("a", &[&format!("p{i}")]);
                }
                v.apply(&arrive).unwrap();
                v.apply(&leave).unwrap();
                assert_eq!(v.stats().compactions, 1);
                let &id = v.derived_facts().iter().next().unwrap();
                assert_eq!(v.instance().atom(id).to_string(), "r(c)", "renumbered");
            }
            // Its only derivation goes: the fact survives, underived.
            let s = v.apply(&Delta::new().delete("a", &["c"])).unwrap();
            assert_eq!((s.rebuild, s.overdeleted, s.rederived), (None, 1, 1));
            assert_eq!(r_c(&v), Some(false));
            assert!(v.derived_facts().is_empty());
            assert_eq!(facts_of(&v), ["r(c)"]);
            assert_matches_scratch(&v);
            // Then the fact goes.
            v.apply(&Delta::new().delete("r", &["c"])).unwrap();
            assert_eq!(r_c(&v), None);
            assert!(facts_of(&v).is_empty());
            assert_eq!(v.instance().live_len(), 0);
            assert_eq!(v.stats().full_rebuilds, 0);
        }
    }

    #[test]
    fn a_fact_deleted_while_derived_stays_as_the_derivation() {
        let mut v = view("a(?X) -> r(?X).", &[("a", &["c"])]);
        v.apply(&Delta::new().insert("r", &["c"])).unwrap();
        // Deleting the fact tombstones the atom, and the derivation
        // brings it back.
        let s = v.apply(&Delta::new().delete("r", &["c"])).unwrap();
        assert_eq!((s.overdeleted, s.rederived), (0, 1));
        assert_eq!(r_c(&v), Some(true));
        assert!(v.derived_facts().is_empty());
        assert_eq!(facts_of(&v), ["a(c)"]);
        assert_matches_scratch(&v);
        // A second delete of the fact finds no fact to delete.
        let s = v.apply(&Delta::new().delete("r", &["c"])).unwrap();
        assert_eq!(s, DeltaSummary::default());
        // Deleting and re-inserting it in one delta keeps it a fact.
        v.apply(&Delta::new().insert("r", &["c"])).unwrap();
        let both = Delta::new().delete("r", &["c"]).insert("r", &["c"]);
        v.apply(&both).unwrap();
        v.apply(&Delta::new().delete("a", &["c"])).unwrap();
        assert_eq!(r_c(&v), Some(false));
        assert_eq!(facts_of(&v), ["r(c)"]);
        assert_matches_scratch(&v);
    }

    #[test]
    fn a_rebuild_keeps_the_derived_facts() {
        // A budget of 4 fits a(c), r(c), a(x) and r(x), but not the
        // tombstones of churning a(x): the rebuild reads the facts off
        // the half-maintained instance, r(c) among them.
        let runner = ChaseRunner::new(
            parse_program("a(?X) -> r(?X).").unwrap(),
            ChaseConfig {
                max_atoms: 4,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("a", &["c"]);
        let mut v = MaterializedView::new(runner, db).unwrap();
        v.apply(&Delta::new().insert("r", &["c"])).unwrap();
        let mut reasons = Vec::new();
        for _ in 0..4 {
            let s = v.apply(&Delta::new().insert("a", &["x"])).unwrap();
            reasons.extend(s.rebuild);
            let s = v.apply(&Delta::new().delete("a", &["x"])).unwrap();
            reasons.extend(s.rebuild);
        }
        assert!(reasons.contains(&RebuildReason::Budget), "{reasons:?}");
        assert_eq!(facts_of(&v), ["a(c)", "r(c)"]);
        v.apply(&Delta::new().delete("a", &["c"])).unwrap();
        assert_eq!(facts_of(&v), ["r(c)"]);
        assert_matches_scratch(&v);
    }

    /// A view of `layer` stacked on a view of `fixed`, and the oracle:
    /// the two programs chased together from scratch.
    struct Stack {
        base: MaterializedView,
        layer: MaterializedView,
        whole: ChaseRunner,
        db: Database,
    }

    impl Stack {
        fn new(fixed: &str, layer: &str, facts: &[(&str, &[&str])], config: ChaseConfig) -> Stack {
            let fixed = parse_program(fixed).unwrap();
            let layer = parse_program(layer).unwrap();
            let whole = ChaseRunner::new(fixed.union(&layer), config).unwrap();
            let mut db = Database::new();
            for (pred, args) in facts {
                db.add_fact(pred, args);
            }
            let base = MaterializedView::new(ChaseRunner::new(fixed, config).unwrap(), db.clone())
                .unwrap();
            let layer = ChaseRunner::new(layer, config).unwrap();
            let own = db.select(layer.program().head_predicates());
            let layer = MaterializedView::stacked(layer, own, &base).unwrap();
            Stack {
                base,
                layer,
                whole,
                db,
            }
        }

        fn apply(&mut self, delta: &Delta) -> DeltaSummary {
            for f in &delta.deletes {
                self.db.remove_row(f.pred, &f.args);
            }
            for f in &delta.inserts {
                self.db.add_row(f.pred, &f.args);
            }
            self.base.apply(delta).unwrap();
            self.layer.apply_over(delta, &self.base).unwrap()
        }

        /// Every predicate the layer derives answers like the monolithic
        /// chase, ⊤ included, and the layer holds nothing else.
        fn assert_matches_whole(&self) {
            let whole = self.whole.run(&self.db).unwrap();
            assert_eq!(self.layer.outcome().inconsistent, whole.inconsistent);
            for pred in self.layer.runner().program().head_predicates() {
                assert_eq!(
                    crate::Answers::from_chase(self.layer.outcome(), pred),
                    crate::Answers::from_chase(&whole, pred),
                    "{pred}"
                );
            }
            for (_, atom) in self.layer.instance().iter() {
                assert!(self.layer.derives(atom.pred), "{atom} is the base's");
            }
            // The layer has absorbed everything the base holds.
            assert_eq!(self.layer.mark, Some(BaseMark::of(&self.base)));
        }
    }

    const FIXED: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                         e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                         n(?X), !t(?X, ?X) -> acyclic(?X).";
    const LAYER: &str = "t(?X, ?Y), acyclic(?Y) -> safe(?X, ?Y).\n\
                         n(?X), !acyclic(?X) -> looped(?X).\n\
                         safe(?X, ?Y), looped(?X) -> mixed(?X).\n\
                         mixed(?X), banned(?X) -> false.";

    #[test]
    fn a_stacked_view_answers_like_the_programs_chased_together() {
        let mut stack = Stack::new(
            FIXED,
            LAYER,
            &[
                ("e", &["a", "b"]),
                ("e", &["b", "c"]),
                ("n", &["a"]),
                ("n", &["b"]),
                ("n", &["c"]),
            ],
            ChaseConfig::default(),
        );
        stack.assert_matches_whole();
        let steps = [
            // A cycle: base atoms appended, `acyclic` atoms tombstoned.
            Delta::new().insert("e", &["c", "a"]),
            // A fact of a layer predicate lives in the layer.
            Delta::new()
                .insert("looped", &["c"])
                .insert("banned", &["a"]),
            // Breaking the cycle: DRed in the base, negation un-blocked.
            Delta::new().delete("e", &["c", "a"]),
            Delta::new()
                .delete("looped", &["c"])
                .insert("e", &["c", "c"]),
        ];
        for delta in &steps {
            let summary = stack.apply(delta);
            assert_eq!(summary.rebuild, None, "{delta:?}");
            stack.assert_matches_whole();
        }
    }

    #[test]
    fn a_renumbered_base_makes_the_layer_rechase_without_a_rebuild() {
        let mut stack = Stack::new(
            KIDS,
            "haskid(?X), !retired(?X) -> active(?X).",
            &[("person", &["alice"]), ("person", &["bob"])],
            ChaseConfig::default(),
        );
        stack.assert_matches_whole();
        let (mut arrive, mut leave) = (Delta::new(), Delta::new());
        for i in 0..100 {
            let person = format!("p{i}");
            arrive = arrive.insert("person", &[&person]);
            leave = leave.delete("person", &[&person]);
        }
        stack.apply(&arrive);
        // 300 tombstones against 6 live atoms: the base compacts,
        // issuing fresh ids.
        let generation = stack.base.generation;
        let summary = stack.apply(&leave);
        assert_eq!(stack.base.stats().compactions, 1);
        assert_ne!(stack.base.generation, generation);
        assert_eq!(
            summary.rebuild, None,
            "the base's renumbering stands for it"
        );
        assert!(summary.run.derived > 0, "the layer was chased again");
        stack.assert_matches_whole();
        stack.apply(&Delta::new().insert("retired", &["alice"]));
        stack.assert_matches_whole();
    }

    #[test]
    fn a_layer_absorbs_a_base_delete_through_nulls_without_rechasing() {
        let mut stack = Stack::new(
            KIDS,
            "parent(?X, ?Y), !retired(?X) -> exists ?Z carer(?Y, ?Z).\n\
             parent(?X, ?Y), carer(?Y, ?Z) -> cared(?X).",
            &[("person", &["alice"]), ("person", &["bob"])],
            ChaseConfig::default(),
        );
        stack.assert_matches_whole();
        let generation = stack.base.generation;
        let summary = stack.apply(&Delta::new().delete("person", &["bob"]));
        assert_eq!(stack.base.generation, generation, "the base maintained");
        assert_eq!(stack.base.stats().atoms_overdeleted, 2);
        assert_eq!(
            (summary.rebuild, summary.overdeleted, summary.run.derived),
            (None, 2, 0),
            "carer(bob's null, _) and cared(bob) retracted, nothing chased"
        );
        assert_eq!(stack.layer.memo_len(), 1, "bob's carer trigger is gone");
        stack.assert_matches_whole();
        stack.apply(&Delta::new().insert("retired", &["alice"]));
        assert_eq!(stack.layer.memo_len(), 0);
        stack.assert_matches_whole();
    }

    #[test]
    fn a_stacked_view_spends_what_its_base_leaves_of_the_budget() {
        let config = ChaseConfig {
            max_atoms: 12,
            ..ChaseConfig::default()
        };
        let facts: Vec<(String, String)> = (0..3)
            .map(|i| (format!("n{i}"), format!("n{}", i + 1)))
            .collect();
        let facts: Vec<(&str, [&str; 2])> = facts
            .iter()
            .map(|(x, y)| ("e", [x.as_str(), y.as_str()]))
            .collect();
        let facts: Vec<(&str, &[&str])> = facts.iter().map(|(p, a)| (*p, &a[..])).collect();
        // The base holds 3 edges + 6 closure atoms: 9 of the 12.
        let fixed = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";
        let stack = Stack::new(fixed, "t(?X, ?Y) -> s(?X).", &facts, config);
        assert_eq!(stack.layer.instance().len(), 3);
        let err = MaterializedView::stacked(
            ChaseRunner::new(parse_program("t(?X, ?Y) -> u(?X, ?Y).").unwrap(), config).unwrap(),
            Database::new(),
            &stack.base,
        )
        .unwrap_err();
        assert!(err.to_string().contains("budget of 12"), "{err}");
    }

    /// A union whose two sources are `e` and `m` (the latter fixing
    /// `t`'s second column to `self`), beside `t`'s own rows, which a
    /// recursive rule derives, and a rule negating the union.
    const UNION: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                         m(?X) -> t(?X, self).\n\
                         t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                         t(?X, ?Y) -> r(?Y).\n\
                         n(?X), !t(?X, self) -> s(?X).\n\
                         t(?X, ?Y), bad(?Y) -> false.";

    /// The atoms of `inst` as text, each source tuple of a union read
    /// as the union's tuple as well.
    fn union_read(inst: &Instance, unions: &crate::Unions) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        for (_, a) in inst.iter() {
            let key: Vec<TermId> = a
                .terms
                .iter()
                .map(|&t| TermId::from_term(t).unwrap())
                .collect();
            for u in unions.served_by(a.pred, a.terms.len()) {
                if let Some(wide) = u.widen(&key) {
                    let wide: Vec<Term> = wide.iter().map(|t| t.to_term()).collect();
                    out.insert(GroundAtom::new(u.pred, wide.into()).to_string());
                }
            }
            out.insert(a.to_string());
        }
        out
    }

    #[test]
    fn a_union_with_a_fixed_column_matches_the_copy_rules_under_maintenance() {
        let program = parse_program(UNION).unwrap();
        let unions = crate::Unions::new(
            program
                .rules
                .iter()
                .filter_map(crate::Union::of_rule)
                .collect(),
        )
        .unwrap();
        assert_eq!(unions.iter().count(), 2);
        let facts: &[(&str, &[&str])] = &[
            ("e", &["a", "b"]),
            ("e", &["b", "self"]),
            ("e", &["c", "self"]),
            ("m", &["c"]),
            ("m", &["d"]),
            ("n", &["a"]),
            ("n", &["c"]),
            ("n", &["x"]),
        ];
        let mut db = Database::new();
        for (pred, args) in facts {
            db.add_fact(pred, args);
        }
        let config = ChaseConfig::default();
        let literal_runner = ChaseRunner::new(program.clone(), config).unwrap();
        let served_runner = ChaseRunner::with_unions(program, unions, config).unwrap();
        let mut literal = MaterializedView::new(literal_runner, db.clone()).unwrap();
        let mut served = MaterializedView::new(served_runner, db).unwrap();
        let check = |literal: &MaterializedView, served: &MaterializedView| {
            let want: std::collections::BTreeSet<String> = literal
                .instance()
                .iter()
                .map(|(_, a)| a.to_string())
                .collect();
            let unions = served.runner().unions();
            assert_eq!(union_read(served.instance(), unions), want);
            assert_eq!(
                literal.outcome().inconsistent,
                served.outcome().inconsistent
            );
            let scratch = served.runner().run(&served.database()).unwrap();
            assert_eq!(
                union_read(&scratch.instance, unions),
                want,
                "a fresh served chase agrees"
            );
            assert_eq!(scratch.inconsistent, served.outcome().inconsistent);
        };
        check(&literal, &served);
        // The copies are gone: t's own rows hold only t(a, self), which
        // no source holds.
        let own_t = served
            .instance()
            .iter()
            .filter(|(_, a)| a.pred == intern("t"))
            .count();
        let literal_t = literal
            .instance()
            .iter()
            .filter(|(_, a)| a.pred == intern("t"))
            .count();
        assert_eq!(
            (literal_t, own_t),
            (5, 1),
            "four source tuples are read, not copied"
        );
        let deltas = [
            // t(c, self) is held by both sources: one goes, one stays.
            Delta::new().delete("e", &["c", "self"]),
            Delta::new().delete("m", &["c"]),
            // t(a, self) is derived (a → b → self); give it a source,
            // then take the derivation away: the source holds it.
            Delta::new().insert("m", &["a"]),
            Delta::new().delete("e", &["b", "self"]),
            // …and the source: gone.
            Delta::new().delete("m", &["a"]),
            // A source tuple dies while the rule still derives it.
            Delta::new()
                .insert("e", &["b", "self"])
                .insert("e", &["a", "self"]),
            Delta::new().delete("e", &["a", "self"]),
            Delta::new().insert("bad", &["self"]),
            Delta::new().delete("bad", &["self"]).insert("m", &["x"]),
        ];
        for delta in &deltas {
            literal.apply(delta).unwrap();
            served.apply(delta).unwrap();
            check(&literal, &served);
        }
    }

    /// `type` read through a selection of `triple`, and `triple1`
    /// reading `triple` and `type`'s own rows, as the regime serves them.
    const SELECTION: &str = "triple(?X, rdf:type, ?Y) -> type(?X, ?Y).\n\
                             type(?X, ?Y), sc(?Y, ?Z) -> type(?X, ?Z).\n\
                             triple(?X, ?Y, ?Z) -> triple1(?X, ?Y, ?Z).\n\
                             type(?X, ?Y) -> triple1(?X, rdf:type, ?Y).\n\
                             triple1(?X, rdf:type, ?Y) -> member(?X).";

    /// Removing an asserted type that `sc` also derives keeps its `type`
    /// and `triple1` tuples (now `type`'s own row, read by `triple1`);
    /// removing one with no other support removes both, and what they
    /// derived.
    #[test]
    fn a_selection_source_under_delete_keeps_exactly_the_supported_tuples() {
        let program = parse_program(SELECTION).unwrap();
        let sources = program.rules.iter().filter_map(crate::Union::of_rule);
        let unions = crate::Unions::new(sources.collect()).unwrap();
        assert_eq!(unions.iter().count(), 3);
        let mut db = Database::new();
        db.add_fact("triple", &["a", "rdf:type", "B"]);
        db.add_fact("triple", &["a", "rdf:type", "C"]);
        db.add_fact("triple", &["d", "rdf:type", "C"]);
        db.add_fact("sc", &["B", "C"]);
        let config = ChaseConfig::default();
        let literal_runner = ChaseRunner::new(program.clone(), config).unwrap();
        let served_runner = ChaseRunner::with_unions(program, unions, config).unwrap();
        let mut literal = MaterializedView::new(literal_runner, db.clone()).unwrap();
        let mut served = MaterializedView::new(served_runner, db).unwrap();
        let read = |view: &MaterializedView| union_read(view.instance(), view.runner().unions());
        let literal_set = |view: &MaterializedView| -> std::collections::BTreeSet<String> {
            view.instance().iter().map(|(_, a)| a.to_string()).collect()
        };
        assert_eq!(read(&served), literal_set(&literal));
        let own =
            |view: &MaterializedView, pred: &str| view.instance().atoms_of(intern(pred)).count();
        assert_eq!((own(&served, "type"), own(&served, "triple1")), (0, 0));
        let held = |view: &MaterializedView, atom: &str| read(view).contains(atom);
        for (fact, kept) in [
            (["a", "rdf:type", "C"], true),
            (["d", "rdf:type", "C"], false),
        ] {
            let delta = Delta::new().delete("triple", &fact);
            literal.apply(&delta).unwrap();
            served.apply(&delta).unwrap();
            assert_eq!(read(&served), literal_set(&literal));
            let subject = fact[0];
            for atom in [
                format!("type({subject}, C)"),
                format!("triple1({subject}, rdf:type, C)"),
                format!("member({subject})"),
            ] {
                assert_eq!(held(&served, &atom), kept, "{atom}");
            }
        }
        assert_eq!(own(&served, "type"), 1, "type(a, C) is derived now");
        assert_eq!(served.runner().unions().overlap(served.instance()), 0);
        // Asserting the derived type again: its source and its own row
        // hold one tuple, counted once.
        let delta = Delta::new().insert("triple", &["a", "rdf:type", "C"]);
        literal.apply(&delta).unwrap();
        served.apply(&delta).unwrap();
        assert_eq!(read(&served), literal_set(&literal));
        assert_eq!(served.runner().unions().overlap(served.instance()), 1);
    }

    #[test]
    fn served_text_round_trips() {
        let program = parse_program(UNION).unwrap();
        let unions = crate::Unions::new(
            program
                .rules
                .iter()
                .filter_map(crate::Union::of_rule)
                .collect(),
        )
        .unwrap();
        let runner =
            ChaseRunner::with_unions(program.clone(), unions.clone(), ChaseConfig::default())
                .unwrap();
        let (p, u) = crate::parse_served(&runner.text()).unwrap();
        assert_eq!((p, u), (program.clone(), unions));
        assert_eq!(
            crate::parse_served(&program.to_string()).unwrap().0,
            program
        );
        assert!(
            parse_program(&runner.text()).is_err(),
            "only parse_served reads @union"
        );
    }

    /// A constant test is checked like a builtin and never stored: the
    /// rule deriving it is served, a null fails it, its line round-trips,
    /// and a program that reads it unbound or derives it beside other
    /// atoms is refused.
    #[test]
    fn a_constant_test_holds_for_constants_only() {
        let text = "e(?X, ?Y) -> dom(?X), dom(?Y).\n\
                    e(?X, ?Y) -> exists ?Z f(?Y, ?Z).\n\
                    f(?X, ?Y) -> g(?X, ?Y).\n\
                    e(?X, ?Y) -> g(?X, ?Y).\n\
                    g(?X, ?Y), dom(?Y) -> r(?X, ?Y).\n\
                    g(?X, ?Y), !dom(?Y) -> s(?X).";
        let program = parse_program(text).unwrap();
        let unions = crate::Unions::none().with_constant(Some(intern("dom")));
        let config = ChaseConfig::default();
        let runner = ChaseRunner::with_unions(program.clone(), unions.clone(), config).unwrap();
        assert_eq!(
            crate::parse_served(&runner.text()).unwrap(),
            (program.clone(), unions.clone())
        );
        assert!(runner.text().ends_with("@constant dom.\n"));
        assert!(
            parse_program(&runner.text()).is_err(),
            "only parse_served reads @constant"
        );
        let mut db = Database::new();
        db.add_fact("e", &["a", "b"]);
        let served = runner.run(&db).unwrap();
        let literal = ChaseRunner::new(program, config).unwrap().run(&db).unwrap();
        let of = |out: &ChaseOutcome, pred: &str| -> Vec<String> {
            out.instance
                .atoms_of(intern(pred))
                .map(|a| a.to_string())
                .collect()
        };
        assert_eq!(of(&served, "dom"), Vec::<String>::new(), "never stored");
        for pred in ["r", "s"] {
            assert_eq!(of(&served, pred), of(&literal, pred));
        }
        assert_eq!(of(&served, "s"), ["s(b)"]);
        for bad in [
            "e(?X, ?Y), dom(?Z) -> r(?X, ?Y).",
            "e(?X, ?Y), dom(a) -> r(?X, ?Y).",
            "e(?X, ?Y) -> dom(?X), r(?X, ?Y).",
        ] {
            let program = parse_program(bad).unwrap();
            assert!(
                ChaseRunner::with_unions(program, unions.clone(), config).is_err(),
                "{bad}"
            );
        }
    }
}
