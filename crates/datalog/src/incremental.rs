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
//!
//! # The labeled-null escape hatch
//!
//! DRed over existentials is unsound in general: deleting one atom that
//! shares an invented null with surviving atoms (multi-head existential
//! rules), or whose cone reaches null-bearing atoms, can strand or
//! duplicate skolem witnesses. When a deletion's support cone touches
//! labeled nulls, contains an atom derived by an existential rule, or
//! over-deletes a tuple only an existential rule's head could rederive,
//! the view falls back to a **full rebuild** from its (already mutated)
//! base database — the same escape hatch as an explicit
//! `Session::invalidate()`. Insertions fall back only in one corner:
//! when an inserted tuple contradicts the negated subgoal of an
//! *existential* rule (whose victims cannot be re-instantiated without
//! their nulls); insertions into a null-free program never fall back.
//!
//! Tombstoned atoms keep their ids (the semi-naive windows rely on id
//! monotonicity); when they accumulate past a threshold the view
//! compacts its instance ([`Instance::compacted`]) and rebuilds the
//! dependency index.
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
    instantiate_into, resolve, solve, CAtom, CTerm, ChaseOutcome, ChaseRunner, ChaseStats,
    CompiledRule, Engine, SkolemMemo,
};
use crate::instance::{AtomId, Database, Instance, Relation};
use crate::planner::RulePlan;
use crate::proof::DependencyIndex;
use crate::Program;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use triq_common::{Delta, Result, Symbol, TermId};
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
    /// Deltas that fell back to a full re-chase (null entanglement).
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
    /// True iff the delta was answered by a full re-chase instead of
    /// incremental maintenance.
    pub full_rebuild: bool,
    /// The work of the chase this apply ran: the resumed chase of the
    /// incremental path (its `derived` also counts re-added over-deleted
    /// atoms), or the whole from-scratch chase of a full rebuild.
    pub run: ChaseStats,
}

/// Head predicate → `(stratum, rule index)` of every rule that can
/// derive it, ascending by stratum: the rederivation schedule.
type Derivers = HashMap<Symbol, Vec<(usize, usize)>>;

/// The program-derived predicate sets a view's maintenance machinery
/// consults: existential head predicates, negated predicates, and the
/// rederivation schedule. Shared between the chasing constructor
/// ([`MaterializedView::new`]) and the snapshot-restoring one
/// ([`MaterializedView::restore`]).
fn program_sets(runner: &ChaseRunner) -> (HashSet<Symbol>, HashSet<Symbol>, Derivers) {
    let program = runner.program();
    let mut exist_head_preds = HashSet::new();
    let mut negated_preds = HashSet::new();
    let mut derivers: Derivers = HashMap::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let stratum = runner.stratification().rule_stratum[ri];
        for neg in &rule.body_neg {
            negated_preds.insert(neg.pred);
        }
        for head in &rule.head {
            if rule.is_existential() {
                exist_head_preds.insert(head.pred);
            }
            let entry = derivers.entry(head.pred).or_default();
            if !entry.contains(&(stratum, ri)) {
                entry.push((stratum, ri));
            }
        }
    }
    for list in derivers.values_mut() {
        list.sort_unstable();
    }
    (exist_head_preds, negated_preds, derivers)
}

/// A maintained chase fixpoint: `Π(D)` plus everything needed to update
/// it in place — the compiled [`ChaseRunner`], the base database, the
/// retained skolem memo, and the reverse-provenance directory.
///
/// The outcome is held behind an [`Arc`] so in-process executions can
/// keep reading it across a later mutation (see "Snapshot isolation" in
/// the module docs); the serving layer publishes extracted answers
/// instead, so there the view is the sole owner and mutates in place.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    runner: ChaseRunner,
    base: Database,
    outcome: Arc<ChaseOutcome>,
    skolem: SkolemMemo,
    /// Stats-driven join plans retained across applies (like the skolem
    /// memo): each resumed chase re-plans only on cardinality drift
    /// instead of from scratch.
    plans: Vec<RulePlan>,
    deps: DependencyIndex,
    stats: MaintenanceStats,
    /// Predicates occurring in the head of some existential rule — an
    /// over-deleted tuple of such a predicate forces the rebuild
    /// fallback (rederivation would have to invent nulls).
    exist_head_preds: HashSet<Symbol>,
    /// Predicates occurring under negation in some rule body. Only their
    /// tuples feed the negation pivots, so per-atom change bookkeeping is
    /// skipped entirely for everything else (a negation-free program pays
    /// nothing per derived atom).
    negated_preds: HashSet<Symbol>,
    derivers: Derivers,
    /// Set when an apply failed *and* the recovery rebuild failed too:
    /// the held outcome no longer reflects the base. The next apply
    /// retries the rebuild before doing anything else (so the
    /// "materialized base fact" invariant is restored), and clears the
    /// flag on success.
    poisoned: bool,
}

/// Compaction trigger: tombstones both exceed this count and outnumber
/// half the live atoms.
const COMPACT_MIN_DEAD: usize = 256;

impl MaterializedView {
    /// Chases `db` with the runner's program and retains the full
    /// post-chase state for incremental maintenance.
    pub fn new(runner: ChaseRunner, db: Database) -> Result<MaterializedView> {
        // Same fixpoint routine as `ChaseRunner::run` — the from-scratch
        // oracle the differential suites compare against — except the
        // engine is kept so its skolem memo survives.
        let mut engine = crate::chase::chase_to_fixpoint(
            runner.compiled(),
            runner.compiled_constraints(),
            runner.strata_rules(),
            runner.initial_plans(),
            db.to_instance(),
            runner.config(),
            runner.recorder(),
        )?;
        let inconsistent = engine.check_constraints();
        let (instance, stats, skolem, plans) = engine.into_parts();
        let deps = DependencyIndex::from_instance(&instance);
        let (exist_head_preds, negated_preds, derivers) = program_sets(&runner);
        Ok(MaterializedView {
            runner,
            base: db,
            outcome: Arc::new(ChaseOutcome {
                instance,
                inconsistent,
                stats,
            }),
            skolem,
            plans,
            deps,
            stats: MaintenanceStats::default(),
            exist_head_preds,
            negated_preds,
            derivers,
            poisoned: false,
        })
    }

    /// Reconstructs a view from persisted state without chasing: the
    /// outcome and skolem memo come from a snapshot, while everything
    /// derived from them — reverse provenance, the program's predicate
    /// sets, join plans — is rebuilt in place (see [`crate::persist`]).
    /// The caller guarantees `outcome` is the fixpoint of `base` under
    /// the runner's program; a mismatched pair yields a view whose
    /// applies would violate the "every base fact is materialized"
    /// invariant.
    pub(crate) fn restore(
        runner: ChaseRunner,
        base: Database,
        outcome: Arc<ChaseOutcome>,
        skolem: SkolemMemo,
    ) -> MaterializedView {
        let deps = DependencyIndex::from_instance(&outcome.instance);
        let (exist_head_preds, negated_preds, derivers) = program_sets(&runner);
        let plans = runner.initial_plans().to_vec();
        MaterializedView {
            runner,
            base,
            outcome,
            skolem,
            plans,
            deps,
            stats: MaintenanceStats::default(),
            exist_head_preds,
            negated_preds,
            derivers,
            poisoned: false,
        }
    }

    /// The retained skolem memo (persistence codec).
    pub(crate) fn skolem_ref(&self) -> &SkolemMemo {
        &self.skolem
    }

    /// True iff a failed apply (and failed recovery rebuild) left the
    /// held outcome out of sync with the base. Poisoned views are
    /// skipped by persistence snapshots.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The maintained chase outcome.
    pub fn outcome(&self) -> &Arc<ChaseOutcome> {
        &self.outcome
    }

    /// The maintained instance.
    pub fn instance(&self) -> &Instance {
        &self.outcome.instance
    }

    /// The current extensional database (base facts after all deltas).
    pub fn database(&self) -> &Database {
        &self.base
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
    /// re-chase when a deletion is entangled with labeled nulls).
    /// Deletes are processed before inserts; redundant operations are
    /// no-ops.
    ///
    /// On `Err` (resource exhaustion, even via the internal rebuild
    /// fallback) the maintained state could not be brought to the target:
    /// the view is *poisoned* — `outcome()` no longer reflects the base
    /// until a later `apply` (which retries the rebuild first) or an
    /// explicit [`MaterializedView::full_rebuild`] succeeds. Callers that
    /// cannot retry should discard the view. Re-applying the same delta
    /// is a no-op against the already-mutated base.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaSummary> {
        self.stats.deltas_applied += 1;
        if self.poisoned {
            // The held outcome does not reflect the base (a previous
            // apply failed twice), so the incremental machinery cannot
            // run. Fold the delta into the base directly and retry the
            // rebuild — a shrinking delta may be exactly what brings the
            // fixpoint back inside the budget.
            for f in &delta.deletes {
                self.base.remove_row(f.pred, &f.args);
            }
            for f in &delta.inserts {
                self.base.add_row(f.pred, &f.args);
            }
            return self.full_rebuild();
        }
        // Mutate the base EDB first, keeping only the effective part of
        // the delta. `self.base` is the rebuild substrate, so after this
        // point a fallback always recomputes the *target* state.
        let mut del_ids: Vec<AtomId> = Vec::new();
        for f in &delta.deletes {
            if self.base.remove_row(f.pred, &f.args) {
                let key: Vec<TermId> = f.args.iter().copied().map(TermId::from_const).collect();
                let id = self
                    .outcome
                    .instance
                    .find_ids(f.pred, &key)
                    .expect("every base fact is materialized");
                del_ids.push(id);
            }
        }
        let mut eff_inserts: Vec<(Symbol, Vec<TermId>)> = Vec::new();
        for f in &delta.inserts {
            if self.base.add_row(f.pred, &f.args) {
                let key = f.args.iter().copied().map(TermId::from_const).collect();
                eff_inserts.push((f.pred, key));
            }
        }
        if del_ids.is_empty() && eff_inserts.is_empty() {
            return Ok(DeltaSummary::default());
        }
        match self.apply_incremental(del_ids, eff_inserts) {
            Ok(Some(summary)) => Ok(summary),
            Ok(None) => self.full_rebuild(),
            // A mid-apply error (typically `ResourceExhausted` — note the
            // atom budget counts tombstones, so maintenance churn can
            // transiently exceed a budget the from-scratch chase fits in)
            // leaves the in-flight instance and memo abandoned. The base
            // already reflects the target state, so a full rebuild either
            // recovers a correct view or fails for the same reason a
            // from-scratch chase would; only in the latter case is the
            // view unusable, and the error tells the caller to discard it.
            Err(_) => self.full_rebuild(),
        }
    }

    /// Discards the maintained state and re-chases the base database —
    /// the explicit escape hatch, and the automatic fallback for
    /// null-entangled deletions. On failure the view stays poisoned (see
    /// [`MaterializedView::apply`]); on success it is healthy again.
    pub fn full_rebuild(&mut self) -> Result<DeltaSummary> {
        match MaterializedView::new(self.runner.clone(), self.base.clone()) {
            Ok(rebuilt) => {
                // The rebuild's own chase derived, probed, planned and
                // indexed from scratch; surface that work in the summary
                // so the engine counters don't go flat exactly on the
                // degraded path an operator would be diagnosing.
                let run = rebuilt.outcome.stats;
                self.outcome = rebuilt.outcome;
                self.skolem = rebuilt.skolem;
                self.plans = rebuilt.plans;
                self.deps = rebuilt.deps;
                self.stats.full_rebuilds += 1;
                self.poisoned = false;
                Ok(DeltaSummary {
                    full_rebuild: true,
                    run,
                    ..DeltaSummary::default()
                })
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The incremental path. Returns `Ok(None)` when the delta turned
    /// out to be null-entangled and the caller must rebuild instead (the
    /// partially mutated state is abandoned; only `self.base` matters to
    /// the rebuild).
    fn apply_incremental(
        &mut self,
        del_ids: Vec<AtomId>,
        eff_inserts: Vec<(Symbol, Vec<TermId>)>,
    ) -> Result<Option<DeltaSummary>> {
        let program = self.runner.program();
        // Upfront entanglement check on the EDB deletion cone.
        let cone = {
            let instance = &self.outcome.instance;
            let cone = self.deps.cone(&del_ids);
            if del_ids
                .iter()
                .chain(cone.iter())
                .any(|&id| is_entangled(program, &self.exist_head_preds, instance, id))
            {
                return Ok(None);
            }
            cone
        };

        let outcome = Arc::make_mut(&mut self.outcome);
        let instance = std::mem::take(&mut outcome.instance);
        let apply_start = instance.len() as AtomId;
        let mut summary = DeltaSummary::default();
        let mut sweep = Sweep::new(&self.negated_preds);

        let rec = self.runner.recorder();
        let mut engine = Engine::new(
            self.runner.compiled(),
            self.runner.compiled_constraints(),
            std::mem::take(&mut self.plans),
            instance,
            self.runner.config(),
            rec,
        );
        engine.set_skolem(std::mem::take(&mut self.skolem));

        // Phase 0a: tombstone the deleted EDB facts and their support
        // cones (checked non-entangled above).
        {
            let _t = Timer::start(rec, Phase::Overdelete);
            for &id in &del_ids {
                sweep.tombstone(&mut engine.instance, &self.derivers, id, false);
            }
            summary.overdeleted +=
                sweep.tombstone_many(&mut engine.instance, &self.derivers, &cone);
        }

        restore_base_facts(&self.base, &mut engine, &mut sweep, &mut summary);

        // Phase 0b: seed the inserted EDB facts above the watermark.
        for (pred, key) in &eff_inserts {
            let (_, fresh) = engine.instance.insert_ids(*pred, key, None);
            if fresh {
                sweep.note_inserted(*pred, key.clone());
            }
        }

        // The stratum sweep. Lower strata settle before higher ones read
        // them (through negation or otherwise), mirroring the chase. The
        // sweep can *re-enter* an earlier stratum: a multi-head rule is
        // placed at the max of its head strata, so a negation victim
        // over-deleted at stratum `s` may belong to a predicate of a
        // lower stratum — its derivers (and the rules its disappearance
        // un-blocks) live below `s` and must run again. Each re-entry is
        // driven by freshly tombstoned atoms, so the loop terminates.
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
            // another match still supports — and base facts come back
            // unconditionally.
            if !sweep.inserted_by_pred.is_empty() {
                let victims = overdelete_victims(
                    program,
                    self.runner.compiled(),
                    self.runner.stratification(),
                    &self.exist_head_preds,
                    &self.derivers,
                    &mut self.deps,
                    &mut engine,
                    rules_s,
                    &mut sweep,
                );
                let restart = match victims {
                    Some((n, restart)) => {
                        summary.overdeleted += n;
                        restart
                    }
                    None => return Ok(None), // entangled victim cone
                };
                restore_base_facts(&self.base, &mut engine, &mut sweep, &mut summary);
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
                engine.run_stratum_from(rules_s, apply_start)?;
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

        // Constraints see the final instance, as in a from-scratch run.
        outcome.inconsistent = !program.constraints.is_empty() && engine.check_constraints();

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
        Ok(Some(summary))
    }

    /// Sheds tombstones once they dominate: compacts the instance to
    /// dense ids and rebuilds the dependency index. Null ids (and the
    /// skolem memo keyed on them) survive compaction unchanged.
    fn maybe_compact(&mut self) {
        if self.outcome.instance.dead_len() < COMPACT_MIN_DEAD
            || self.outcome.instance.dead_len() * 2 < self.outcome.instance.live_len()
        {
            return;
        }
        let outcome = Arc::make_mut(&mut self.outcome);
        let (compacted, _) = outcome.instance.compacted();
        outcome.instance = compacted;
        self.deps = DependencyIndex::from_instance(&outcome.instance);
        self.stats.compactions += 1;
    }
}

/// Per-apply mutable tracking shared across the stratum sweep.
struct Sweep<'a> {
    /// Predicates occurring under negation — the only ones whose change
    /// tuples the pivots ever read; everything else skips bookkeeping.
    negated: &'a HashSet<Symbol>,
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
    /// tried at every stratum holding a deriving rule).
    pending: Vec<(Symbol, Vec<TermId>)>,
    /// Tombstoned tuples not yet checked against the base database. A
    /// tuple can be an EDB fact *and* carry a derivation (the store
    /// deduplicates, so a later database insert of an already-derived
    /// tuple leaves the derivation in place); when DRed over-deletes it,
    /// membership in the base re-asserts it unconditionally.
    restore_check: Vec<(Symbol, Vec<TermId>)>,
}

impl<'a> Sweep<'a> {
    fn new(negated: &'a HashSet<Symbol>) -> Sweep<'a> {
        Sweep {
            negated,
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
            self.inserted_by_pred.entry(pred).or_default().push(key);
        }
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
            self.pending.push((pred, key.clone()));
        }
        self.restore_check.push((pred, key.clone()));
        if self.negated.contains(&pred) {
            self.deleted_by_pred.entry(pred).or_default().push(key);
        }
        true
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

/// Re-asserts every freshly tombstoned tuple that is (still) a base
/// fact: DRed may over-delete an atom whose tuple is both derived *and*
/// extensional (the store deduplicates them into one atom), but base
/// membership needs no derivation. Re-inserted facts get fresh ids, so
/// they rejoin the delta frontier and their dependents rebuild.
fn restore_base_facts(
    base: &Database,
    engine: &mut Engine<'_>,
    sweep: &mut Sweep<'_>,
    summary: &mut DeltaSummary,
) {
    let checks = std::mem::take(&mut sweep.restore_check);
    for (pred, key) in checks {
        if base.contains_ids(pred, &key) && !engine.instance.contains_ids(pred, &key) {
            engine.instance.insert_ids(pred, &key, None);
            summary.rederived += 1;
            sweep.note_inserted(pred, key);
        }
    }
}

/// True iff over-deleting `id` (or rederiving its tuple) would be
/// unsound without reasoning about labeled nulls.
fn is_entangled(
    program: &Program,
    exist_head_preds: &HashSet<Symbol>,
    instance: &Instance,
    id: AtomId,
) -> bool {
    if instance.depth(id) > 0 {
        return true; // the atom itself mentions nulls
    }
    if let Some(d) = instance.derivation(id) {
        if program.rules[d.rule].is_existential() {
            return true; // shares invented nulls with head siblings
        }
    }
    // A null-free tuple an existential rule could (re-)derive: the
    // rederivation check cannot fire such a rule soundly.
    exist_head_preds.contains(&instance.pred_of(id))
}

/// Over-deletes the heads of `rules_s` matches whose negated subgoal is
/// one of this apply's inserted tuples (plus their support cones).
/// Returns `(count, restart)` — the number of atoms over-deleted, plus
/// the minimum *predicate* stratum among them (a multi-head rule lifted
/// to the max of its head strata can victimize a lower-stratum
/// predicate; the sweep must re-enter that stratum so its derivers and
/// un-blocked consumers run again). `None` when a victim cone is
/// entangled with labeled nulls (caller must rebuild). Database atoms
/// are never victims — they hold regardless of rule matches.
#[allow(clippy::too_many_arguments)]
fn overdelete_victims(
    program: &Program,
    compiled: &[CompiledRule],
    strat: &crate::Stratification,
    exist_head_preds: &HashSet<Symbol>,
    derivers: &Derivers,
    deps: &mut DependencyIndex,
    engine: &mut Engine<'_>,
    rules_s: &[usize],
    sweep: &mut Sweep<'_>,
) -> Option<(usize, Option<usize>)> {
    let mut victims: Vec<AtomId> = Vec::new();
    let mut key_buf: Vec<TermId> = Vec::new();
    for &ri in rules_s {
        let rule = &compiled[ri];
        if rule.body_neg.is_empty() {
            continue;
        }
        for neg in &rule.body_neg {
            let Some(tuples) = sweep.inserted_by_pred.get(&neg.pred) else {
                continue;
            };
            if tuples.is_empty() {
                continue;
            }
            if program.rules[ri].is_existential() {
                // An inserted tuple contradicts this existential rule's
                // negated subgoal, and its head cannot be re-instantiated
                // from a match without the invented nulls — the victims
                // are unidentifiable here. Only this combination falls
                // back; inserts not touching the negated predicate stay
                // incremental.
                return None;
            }
            for key in tuples {
                let instance = &engine.instance;
                for_each_pivot_match(instance, rule, neg, key, |slots, _| {
                    for head in &rule.heads {
                        instantiate_into(head, slots, &mut key_buf);
                        if let Some(id) = instance.find_ids(head.pred, &key_buf) {
                            // Only atoms whose *recorded* support is this
                            // very rule are victims: a different recorded
                            // derivation (another rule, or a database
                            // fact) is untouched by this negation change
                            // — and not re-victimizing rederived atoms is
                            // what makes the re-entrant sweep terminate.
                            if instance.derivation(id).is_some_and(|d| d.rule == ri) {
                                victims.push(id);
                            }
                        }
                    }
                    true
                });
            }
        }
    }
    if victims.is_empty() {
        return Some((0, None));
    }
    victims.sort_unstable();
    victims.dedup();
    deps.extend_to(&engine.instance);
    let cone = deps.cone(&victims);
    if victims
        .iter()
        .chain(cone.iter())
        .filter(|&&id| engine.instance.is_live(id))
        .any(|&id| is_entangled(program, exist_head_preds, &engine.instance, id))
    {
        return None;
    }
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
    Some((n, restart))
}

/// Tries to rederive every pending over-deleted tuple through the rules
/// of `stratum`; successes are inserted with their new derivation (and
/// fresh ids, making them part of the frontier).
fn rederive_pending(
    compiled: &[CompiledRule],
    derivers: &Derivers,
    engine: &mut Engine<'_>,
    stratum: usize,
    sweep: &Sweep<'_>,
) -> Result<()> {
    for (pred, key) in &sweep.pending {
        if engine.instance.contains_ids(*pred, key) {
            continue; // restored by an earlier stratum or propagation
        }
        let Some(rules) = derivers.get(pred) else {
            continue;
        };
        'rules: for &(s, ri) in rules {
            if s != stratum {
                continue;
            }
            let rule = &compiled[ri];
            debug_assert!(
                rule.exist_slots.is_empty(),
                "existential derivers force the rebuild fallback"
            );
            for head in &rule.heads {
                if head.pred != *pred || head.terms.len() != key.len() {
                    continue;
                }
                if let Some((mut slots, ids)) =
                    find_supporting_match(&engine.instance, rule, head, key)
                {
                    engine.apply(ri, &mut slots, &ids)?;
                    break 'rules;
                }
            }
        }
    }
    Ok(())
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
                for_each_pivot_match(&engine.instance, rule, neg, key, |slots, ids| {
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
    instance: &Instance,
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
    let n = rule.body_pos.len();
    let rels: Vec<Option<&Relation>> = rule
        .body_pos
        .iter()
        .map(|a| instance.relation(a.pred, a.terms.len()))
        .collect();
    let cap = instance.len() as AtomId;
    let ranges: Vec<(AtomId, AtomId)> = vec![(0, cap); n];
    let mut chosen: Vec<AtomId> = vec![0; n];
    let mut solved: Vec<bool> = vec![false; n];
    let mut probes = 0u64;
    solve(
        instance,
        &rule.body_pos,
        &rels,
        &ranges,
        &mut slots,
        &mut chosen,
        &mut solved,
        0,
        &mut probes,
        &mut |s, ids| on_match(s, ids),
    );
}

/// Unifies a compiled atom pattern with an encoded tuple, binding free
/// slots. Returns `false` (possibly leaving `slots` partially bound —
/// callers use fresh slot vectors) on mismatch.
fn bind_atom(atom: &CAtom, key: &[TermId], slots: &mut [Option<TermId>]) -> bool {
    debug_assert_eq!(atom.terms.len(), key.len());
    for (i, &t) in atom.terms.iter().enumerate() {
        match t {
            CTerm::Fixed(v) => {
                if v != key[i] {
                    return false;
                }
            }
            CTerm::Slot(s) => match slots[s as usize] {
                Some(b) => {
                    if b != key[i] {
                        return false;
                    }
                }
                None => slots[s as usize] = Some(key[i]),
            },
        }
    }
    true
}

/// Searches for one match of `rule`'s positive body that instantiates
/// `head` to exactly `key`, with builtins and negated subgoals checked
/// inline against `instance`. Returns the full slot assignment and the
/// matched body ids.
fn find_supporting_match(
    instance: &Instance,
    rule: &CompiledRule,
    head: &CAtom,
    key: &[TermId],
) -> Option<(Vec<Option<TermId>>, Vec<AtomId>)> {
    let mut slots: Vec<Option<TermId>> = vec![None; rule.n_slots];
    if !bind_atom(head, key, &mut slots) {
        return None;
    }
    let n = rule.body_pos.len();
    let rels: Vec<Option<&Relation>> = rule
        .body_pos
        .iter()
        .map(|a| instance.relation(a.pred, a.terms.len()))
        .collect();
    let cap = instance.len() as AtomId;
    let ranges: Vec<(AtomId, AtomId)> = vec![(0, cap); n];
    let mut chosen: Vec<AtomId> = vec![0; n];
    let mut solved: Vec<bool> = vec![false; n];
    let mut probes = 0u64;
    let mut found: Option<(Vec<Option<TermId>>, Vec<AtomId>)> = None;
    let mut neg_buf: Vec<TermId> = Vec::new();
    solve(
        instance,
        &rule.body_pos,
        &rels,
        &ranges,
        &mut slots,
        &mut chosen,
        &mut solved,
        0,
        &mut probes,
        &mut |s, ids| {
            for &b in &rule.builtins {
                if !Engine::builtin_holds(b, s) {
                    return true; // keep searching
                }
            }
            for neg in &rule.body_neg {
                neg_buf.clear();
                neg_buf.extend(
                    neg.terms
                        .iter()
                        .map(|&t| resolve(t, s).expect("negated subgoals are safe")),
                );
                if instance.contains_ids(neg.pred, &neg_buf) {
                    return true;
                }
            }
            found = Some((s.to_vec(), ids.to_vec()));
            false
        },
    );
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, ChaseConfig};
    use triq_common::{intern, Term};

    fn view(program: &str, facts: &[(&str, &[&str])]) -> MaterializedView {
        let p = parse_program(program).unwrap();
        let runner = ChaseRunner::new(p, ChaseConfig::default()).unwrap();
        let mut db = Database::new();
        for (pred, args) in facts {
            db.add_fact(pred, args);
        }
        MaterializedView::new(runner, db).unwrap()
    }

    fn assert_matches_scratch(v: &MaterializedView) {
        let scratch = v.runner().run(v.database()).unwrap();
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
        assert!(!s.full_rebuild);
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
        assert!(!s.full_rebuild);
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
        assert!(!s.full_rebuild);
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
    fn inserts_stay_incremental_beside_existential_negation_rules() {
        // The program has an existential rule with a negated subgoal,
        // but inserts that do not touch `blocked` must stay incremental.
        let program = "person(?X), !blocked(?X) -> exists ?Y parent(?X, ?Y).\n\
                       e(?X, ?Y) -> t(?X, ?Y).\n\
                       e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";
        let mut v = view(program, &[("person", &["alice"]), ("e", &["a", "b"])]);
        let s = v.apply(&Delta::new().insert("e", &["b", "c"])).unwrap();
        assert!(!s.full_rebuild, "insert unrelated to the negated pred");
        assert_eq!(v.stats().full_rebuilds, 0);
        assert_matches_scratch_modulo_nulls(&v);
        // An insert contradicting the existential rule's negation is the
        // one insert shape that must fall back.
        let s = v
            .apply(&Delta::new().insert("blocked", &["alice"]))
            .unwrap();
        assert!(s.full_rebuild, "victims of an ∃-rule are unidentifiable");
        assert_matches_scratch_modulo_nulls(&v);
    }

    /// Like `assert_matches_scratch`, but compares the ground parts only
    /// (null names differ between a resumed and a fresh chase).
    fn assert_matches_scratch_modulo_nulls(v: &MaterializedView) {
        let scratch = v.runner().run(v.database()).unwrap();
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
        for _ in 0..6 {
            let d = Delta::new().delete("e", &["n3", "n4"]);
            let _ = v.apply(&d);
            let d = Delta::new().insert("e", &["n3", "n4"]);
            let _ = v.apply(&d);
        }
        // Whatever path each apply took (incremental, rebuild fallback),
        // the surviving view must match the scratch chase.
        assert_matches_scratch(&v);
        assert!(
            v.stats().full_rebuilds > 0,
            "the tight budget must have forced at least one recovery rebuild"
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
        assert!(s.full_rebuild);
        assert_matches_scratch(&v);
    }

    #[test]
    fn null_entangled_delete_falls_back_to_rebuild() {
        let mut v = view(
            "person(?X) -> exists ?Y parent(?X, ?Y).\n parent(?X, ?Y) -> haskid(?X).",
            &[("person", &["alice"]), ("person", &["bob"])],
        );
        let s = v.apply(&Delta::new().delete("person", &["bob"])).unwrap();
        assert!(s.full_rebuild, "deleting into an existential cone");
        assert_eq!(v.stats().full_rebuilds, 1);
        assert_matches_scratch(&v);
        assert_eq!(v.instance().atoms_of(intern("parent")).count(), 1);
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
}
