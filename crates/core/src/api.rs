//! The unified `Engine` / `Session` / `PreparedQuery` facade.
//!
//! The paper gives four ways to ask a question — SPARQL patterns under
//! three semantics (§3.1, §5.2, §5.3), TriQ 1.0 programs (Def. 4.2),
//! TriQ-Lite 1.0 programs (Def. 6.1) and raw Datalog∃,¬s,⊥ queries
//! (§3.2) — and the seed exposed one ad-hoc entry point per way, each
//! re-parsing, re-translating, re-classifying, re-stratifying and
//! re-compiling on every call. This module replaces them with one
//! prepare-once / execute-many lifecycle:
//!
//! * [`Engine`] (built via [`EngineBuilder`]) holds policy: chase
//!   configuration, default [`Semantics`], rule libraries (§2), and
//!   usage [statistics](Engine::stats);
//! * [`Engine::prepare`] accepts *any* query form through [`IntoQuery`]
//!   and pays translation (§5), classification (Def. 4.2 / 6.1),
//!   stratification (§3.2) and rule compilation exactly **once**,
//!   yielding a [`PreparedQuery`];
//! * [`Session`] holds loaded data — a [`Database`], `τ_db(G)` (§5.1)
//!   for an RDF [`Graph`] `G` — plus **maintained** chase state:
//!   re-executing a prepared query against unchanged data is a
//!   lookup, and mutations ([`Session::insert_triple`],
//!   [`Session::remove_fact`], …) are absorbed incrementally
//!   (delta-chase inserts, DRed deletes — see
//!   `triq_datalog::incremental`) instead of discarding the
//!   materialization;
//! * a [`PreparedQuery`] executes against any number of sessions, either
//!   materialized ([`PreparedQuery::execute`]) or streaming
//!   ([`PreparedQuery::execute_iter`]).
//!
//! ```
//! use triq::prelude::*;
//!
//! let engine = Engine::new();
//! let authors = engine.prepare(Sparql(
//!     "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
//! ))?;
//!
//! let session = engine.load_turtle(
//!     "dbUllman is_author_of \"The Complete Book\" .\n\
//!      dbUllman name \"Jeffrey Ullman\" .",
//! )?;
//! assert_eq!(authors.bindings_of(&session, "X")?[0].as_str(), "Jeffrey Ullman");
//! # Ok::<(), TriqError>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use triq_common::{Delta, Fact, Result, Symbol, Term, TriqError, VarId};
use triq_datalog::persist::PlanKey;
use triq_datalog::{
    classify_program, demand, AnswerIter, Answers, ChaseConfig, ChaseOutcome, ChaseRunner,
    ChaseStats, Database, DeltaSummary, MaterializedView, Program, ProgramClassification,
};
use triq_obs::{Counter, Counters, Phase, Recorder, Timer};
use triq_owl2ql::{tau_db, tau_owl2ql_core};
use triq_rdf::{Graph, Triple};
use triq_sparql::{GraphPattern, SelectQuery};
use triq_translate::{
    decode_tuple_vars, regime_chase_config, translate_pattern, translate_pattern_all,
    translate_pattern_u, RegimeAnswers,
};

use crate::{TriqLiteQuery, TriqQuery};

/// The evaluation semantics for SPARQL patterns (§3.1, §5.2, §5.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Semantics {
    /// Plain SPARQL over the graph as-is (Theorem 5.2).
    #[default]
    Plain,
    /// The OWL 2 QL core direct-semantics entailment regime J·K^U, with
    /// the active-domain restriction (Theorem 5.3).
    RegimeU,
    /// J·K^All (§5.3): the regime without the active-domain restriction
    /// on blank nodes.
    RegimeAll,
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Builder for [`Engine`]: chase policy, default semantics and rule
/// libraries.
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    plain_config: ChaseConfig,
    regime_config: ChaseConfig,
    default_semantics: Semantics,
    libraries: Vec<Program>,
    recorder: Arc<dyn Recorder>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            plain_config: ChaseConfig::default(),
            regime_config: regime_chase_config(),
            default_semantics: Semantics::Plain,
            libraries: Vec::new(),
            recorder: Arc::new(triq_obs::Noop),
        }
    }
}

impl EngineBuilder {
    /// A builder with the default policy: skolem chase for plain /
    /// datalog queries, restricted chase for the entailment regimes
    /// (see [`regime_chase_config`]), plain semantics, no libraries.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the atom budget for all query kinds.
    pub fn max_atoms(mut self, atoms: usize) -> EngineBuilder {
        self.plain_config.max_atoms = atoms;
        self.regime_config.max_atoms = atoms;
        self
    }

    /// Sets the semantics used when a SPARQL query is prepared without an
    /// explicit one.
    pub fn default_semantics(mut self, semantics: Semantics) -> EngineBuilder {
        self.default_semantics = semantics;
        self
    }

    /// Adds a rule library (a fixed set of rules in the sense of §2, e.g.
    /// the `owl:sameAs` closure) that is unioned into every prepared
    /// program. Libraries must not redefine `triple` recursively in a way
    /// that breaks stratification.
    pub fn library(mut self, library: Program) -> EngineBuilder {
        self.libraries.push(library);
        self
    }

    /// Installs a telemetry recorder (e.g. [`triq_obs::Telemetry`]):
    /// prepare/execute/apply spans and every chase phase timing of
    /// queries prepared by this engine report through it. The default
    /// is the zero-cost no-op recorder; chase outcomes are byte-
    /// identical either way.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> EngineBuilder {
        self.recorder = recorder;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                plain_config: self.plain_config,
                regime_config: self.regime_config,
                default_semantics: self.default_semantics,
                libraries: self.libraries,
                fixed: Default::default(),
                counters: Counters::default(),
                recorder: self.recorder,
            }),
        }
    }
}

/// Folds one incremental delta application into the counter table.
fn count_delta(counters: &Counters, summary: &DeltaSummary) {
    counters.add(Counter::DeltasApplied, 1);
    counters.add(Counter::AtomsOverdeleted, summary.overdeleted as u64);
    counters.add(Counter::AtomsRederived, summary.rederived as u64);
    let run = if summary.rebuild.is_some() {
        // The delta was answered by the full re-chase fallback (see
        // `RebuildReason`) — a chase run like any other.
        counters.add(Counter::ChaseRuns, 1);
        counters.add(Counter::ViewRebuilds, 1);
        summary.run
    } else {
        // A resumed chase also re-adds what DRed over-deleted; only the
        // genuinely new atoms count as derived.
        ChaseStats {
            derived: summary.inserted,
            ..summary.run
        }
    };
    run.count_into(counters);
}

#[derive(Debug)]
struct EngineInner {
    plain_config: ChaseConfig,
    regime_config: ChaseConfig,
    default_semantics: Semantics,
    libraries: Vec<Program>,
    /// The fixed rules of plain (index 0) and regime (index 1) plans —
    /// the libraries, plus `τ_owl2ql_core` under a regime — compiled on
    /// first use; `None` when there are none.
    fixed: [OnceLock<Option<Arc<ViewPlan>>>; 2],
    counters: Counters,
    /// Telemetry hook shared by everything this engine prepares (and by
    /// the persistence layer through [`Engine::recorder`]).
    recorder: Arc<dyn Recorder>,
}

/// Usage counters of an [`Engine`] (a point-in-time snapshot): one
/// named `u64` field per entry of the [`triq_obs::Counter`] table, which
/// also derives its JSON (`GET /stats`), Prometheus and text renderings.
pub type EngineStats = triq_obs::CounterSnapshot;

/// The top-level handle: policy + prepared-query factory.
///
/// Cloning an `Engine` is cheap (an [`Arc`] bump) and clones share
/// statistics; sessions and prepared queries keep their engine alive.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        EngineBuilder::new().build()
    }
}

impl Engine {
    /// An engine with the default policy.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The semantics used when none is given at prepare time.
    pub fn default_semantics(&self) -> Semantics {
        self.inner.default_semantics
    }

    /// A snapshot of the usage counters.
    pub fn stats(&self) -> EngineStats {
        self.inner.counters.snapshot()
    }

    /// The live counter table. The persistence and serving layers count
    /// their own events (WAL appends, checkpoints, rejected reads)
    /// straight into it, so one [`Engine::stats`] covers the whole stack.
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// The engine's telemetry recorder (the zero-cost no-op unless
    /// [`EngineBuilder::recorder`] installed one). The persistence and
    /// server layers report through this same hook so one `/metrics`
    /// scrape covers the whole stack.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.inner.recorder
    }

    /// An empty session.
    pub fn session(&self) -> Session {
        self.load_database(Database::new())
    }

    /// A session over an RDF graph, bridged through `τ_db` (§5.1) once.
    pub fn load_graph(&self, graph: Graph) -> Session {
        self.load_database(tau_db(&graph))
    }

    /// A session over a graph given in Turtle-lite text.
    pub fn load_turtle(&self, turtle: &str) -> Result<Session> {
        Ok(self.load_graph(triq_rdf::parse_turtle(turtle)?))
    }

    /// A session over a raw Datalog database.
    pub fn load_database(&self, db: Database) -> Session {
        Session {
            engine: self.clone(),
            db,
            ops: OpLog::default(),
            views: Mutex::new(HashMap::new()),
        }
    }

    /// Prepares a query: parsing, translation (§5), classification
    /// (Def. 4.2 / 6.1), stratification and rule compilation happen here,
    /// exactly once; the result executes against any number of sessions.
    pub fn prepare<Q: IntoQuery>(&self, query: Q) -> Result<PreparedQuery> {
        let spec = query.into_query()?;
        self.prepare_spec(spec)
    }

    fn prepare_spec(&self, spec: QuerySpec) -> Result<PreparedQuery> {
        let rec = &*self.inner.recorder;
        let _span = triq_obs::span(rec, "prepare", 0);
        let _t = Timer::start(rec, Phase::Prepare);
        let (program, output, decode) = match spec {
            QuerySpec::Sparql { pattern, semantics } => {
                let semantics = semantics.unwrap_or(self.inner.default_semantics);
                let translated = match semantics {
                    Semantics::Plain => translate_pattern(&pattern)?,
                    Semantics::RegimeU => translate_pattern_u(&pattern)?,
                    Semantics::RegimeAll => translate_pattern_all(&pattern)?,
                };
                let decode = SparqlDecode {
                    vars: translated.vars,
                    semantics,
                };
                (translated.program, translated.answer_pred, Some(decode))
            }
            QuerySpec::Datalog { program, output } => (program, output, None),
        };
        // Union the engine's rule libraries into the prepared program.
        let mut program = program;
        for lib in &self.inner.libraries {
            program = lib.union(&program);
        }
        // §3.2: the output predicate must not occur in any rule body.
        if program.occurs_in_body(output) {
            return Err(TriqError::OutputInBody(format!(
                "output predicate {output} occurs in a rule body (§3.2 \
                 forbids this)"
            )));
        }
        // `~d~` names are the magic-set rewrite's: a demand view is chased
        // over `D ∪ {seed}` yet filed under the rewritten text's key, so
        // that text must never be preparable as a plain program over `D`.
        demand::reject_reserved(output)?;
        for atom in program.all_atoms() {
            demand::reject_reserved(atom.pred)?;
        }
        // The full program is classified and stratified first, so the
        // split below never changes an error or a language class.
        let classification = classify_program(&program);
        let regime = matches!(&decode, Some(d) if d.semantics != Semantics::Plain);
        let config = match regime {
            true => self.inner.regime_config,
            false => self.inner.plain_config,
        };
        let mut runner = ChaseRunner::new(program, config)?;
        runner.set_recorder(self.inner.recorder.clone());
        self.inner.counters.add(Counter::PreparedQueries, 1);
        let key = PlanKey::new(runner.program(), &runner.config());
        let view = self.view_plan(&runner, key.clone(), regime);
        let demand = self.attach_demand(&view, output);
        Ok(PreparedQuery {
            engine: self.clone(),
            key,
            runner,
            view,
            output,
            classification,
            decode,
            demand,
        })
    }

    /// The fixed rules of plain or regime plans, compiled under the
    /// engine's configuration for them on first use.
    fn fixed(&self, regime: bool) -> Option<Arc<ViewPlan>> {
        let build = || {
            let mut program = if regime {
                tau_owl2ql_core()
            } else {
                Program::new()
            };
            for lib in &self.inner.libraries {
                program = lib.union(&program);
            }
            if program.rules.is_empty() && program.constraints.is_empty() {
                return None;
            }
            let config = match regime {
                true => self.inner.regime_config,
                false => self.inner.plain_config,
            };
            let mut runner = ChaseRunner::new(program, config).ok()?;
            runner.set_recorder(self.inner.recorder.clone());
            Some(Arc::new(ViewPlan {
                key: PlanKey::new(runner.program(), &config),
                runner,
                role: Role::Base,
            }))
        };
        self.inner.fixed[usize::from(regime)]
            .get_or_init(build)
            .clone()
    }

    /// How a plan's view is built: stacked on the view of the engine's
    /// fixed rules F when the program splits as F ∪ L with L deriving no
    /// predicate F mentions, served by that view itself when L is empty,
    /// else chased alone (see "Layered plans" in `docs/ARCHITECTURE.md`).
    fn view_plan(&self, runner: &ChaseRunner, key: PlanKey, regime: bool) -> ViewPlan {
        let flat = |key| ViewPlan {
            key,
            runner: runner.clone(),
            role: Role::Flat,
        };
        let Some(mut base) = self.fixed(regime) else {
            return flat(key);
        };
        let program = runner.program();
        let fixed = base.runner.program();
        let (Some(rules), Some(constraints)) = (
            program.rules.strip_prefix(&fixed.rules[..]),
            program.constraints.strip_prefix(&fixed.constraints[..]),
        ) else {
            return flat(key);
        };
        let layer = Program {
            rules: rules.to_vec(),
            constraints: constraints.to_vec(),
        };
        let config = runner.config();
        if base.runner.config() != config {
            // A reconfigured plan stacks on the fixed rules under its
            // own configuration.
            let mut fixed = base.runner.clone();
            fixed.set_config(config);
            base = Arc::new(ViewPlan {
                key: PlanKey::new(fixed.program(), &config),
                runner: fixed,
                role: Role::Base,
            });
        }
        if layer.rules.is_empty() && layer.constraints.is_empty() {
            return (*base).clone();
        }
        let fixed_preds = base.runner.program().schema();
        if layer
            .head_predicates()
            .iter()
            .any(|p| fixed_preds.contains_key(p))
        {
            return flat(key);
        }
        match ChaseRunner::new(layer, config) {
            Ok(mut layer) => {
                layer.set_recorder(self.inner.recorder.clone());
                ViewPlan {
                    key,
                    runner: layer,
                    role: Role::Stacked(base),
                }
            }
            Err(_) => flat(key),
        }
    }

    /// Attempts the magic-set rewrite of the program a plan's view
    /// chases — a stacked view's layer alone, the fixed rules' predicates
    /// being extensional to it. `None` means "evaluate the original
    /// program": the rewrite declined (counted in `demand_fallbacks`).
    fn attach_demand(&self, view: &ViewPlan, output: Symbol) -> Option<Arc<DemandPlan>> {
        let config = view.runner.config();
        let rewritten = match demand::rewrite(view.runner.program(), output) {
            Ok(r) => r,
            Err(_fallback) => {
                self.inner.counters.add(Counter::DemandFallbacks, 1);
                return None;
            }
        };
        // The rewrite is validated and stratified, so compilation only
        // fails on resource-class issues; treat any failure as one more
        // fallback rather than failing the prepare.
        match ChaseRunner::new(rewritten.program, config) {
            Ok(mut drunner) => {
                drunner.set_recorder(self.inner.recorder.clone());
                self.inner.counters.add(Counter::DemandRewrites, 1);
                let (key, role) = match &view.role {
                    Role::Stacked(base) => (
                        PlanKey::new(&base.runner.program().union(drunner.program()), &config),
                        Role::Stacked(base.clone()),
                    ),
                    Role::Flat | Role::Base => {
                        (PlanKey::new(drunner.program(), &config), Role::Flat)
                    }
                };
                Some(Arc::new(DemandPlan {
                    view: ViewPlan {
                        key,
                        runner: drunner,
                        role,
                    },
                    seed: rewritten.seed,
                }))
            }
            Err(_) => {
                self.inner.counters.add(Counter::DemandFallbacks, 1);
                None
            }
        }
    }
}

/// How to build the view filed under `key`: `runner`'s program chased
/// over the session database — or, stacked, over the base view's
/// instance. A stacked view's key is that of its base's program and its
/// own together, so it names the same Π(D) a monolithic chase would.
#[derive(Clone, Debug)]
struct ViewPlan {
    key: PlanKey,
    /// The whole program, or a stacked view's layer alone.
    runner: ChaseRunner,
    role: Role,
}

/// What a view is to the session's view table.
#[derive(Clone, Debug)]
enum Role {
    /// Chased alone over the database.
    Flat,
    /// The engine's fixed rules, chased alone: the view other plans
    /// stack on.
    Base,
    /// A layer over the base view of this plan.
    Stacked(Arc<ViewPlan>),
}

/// The compiled magic-set rewrite of a prepared query: how to build its
/// view, and the extensional seed fact its demand propagation fires
/// from. The view's [`PlanKey`] is the identity it is kept and persisted
/// under. Two queries that differ only in their bound constants compile
/// to different rewritten program texts (the constants appear in the
/// seed rules), so their views never collide.
#[derive(Debug)]
struct DemandPlan {
    view: ViewPlan,
    seed: Fact,
}

// ---------------------------------------------------------------------------
// IntoQuery
// ---------------------------------------------------------------------------

/// A query in some source language, normalized for [`Engine::prepare`].
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// A SPARQL graph pattern, optionally pinned to a semantics (else the
    /// engine default applies).
    Sparql {
        /// The pattern.
        pattern: GraphPattern,
        /// `None` = use [`Engine::default_semantics`].
        semantics: Option<Semantics>,
    },
    /// A Datalog∃,¬s,⊥ query `(Π, p)`.
    Datalog {
        /// The program Π.
        program: Program,
        /// The output predicate `p`.
        output: Symbol,
    },
}

/// Conversion into a [`QuerySpec`] — the single doorway every query
/// language enters the engine through. Implemented for SPARQL patterns
/// and `SELECT` queries (optionally paired with a [`Semantics`]), for
/// validated [`TriqQuery`] / [`TriqLiteQuery`] programs, for raw
/// [`triq_datalog::Query`] values and `(Program, output)` pairs, and for
/// source text via the [`Sparql`] and [`Datalog`] wrappers.
pub trait IntoQuery {
    /// Normalizes `self`.
    fn into_query(self) -> Result<QuerySpec>;
}

/// SPARQL `SELECT` source text, e.g. `Sparql("SELECT ?X WHERE { ?X p ?Y }")`.
#[derive(Clone, Copy, Debug)]
pub struct Sparql<'a>(pub &'a str);

/// Datalog∃,¬s,⊥ source text plus output predicate, e.g.
/// `Datalog("triple(?X, p, ?Y) -> out(?X).", "out")`.
#[derive(Clone, Copy, Debug)]
pub struct Datalog<'a>(pub &'a str, pub &'a str);

impl IntoQuery for QuerySpec {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(self)
    }
}

impl IntoQuery for Sparql<'_> {
    fn into_query(self) -> Result<QuerySpec> {
        triq_sparql::parse_select(self.0)?.into_query()
    }
}

impl IntoQuery for Datalog<'_> {
    fn into_query(self) -> Result<QuerySpec> {
        let program = triq_datalog::parse_program(self.0)?;
        Ok(QuerySpec::Datalog {
            program,
            output: triq_common::intern(self.1),
        })
    }
}

impl IntoQuery for GraphPattern {
    fn into_query(self) -> Result<QuerySpec> {
        self.validate()?;
        Ok(QuerySpec::Sparql {
            pattern: self,
            semantics: None,
        })
    }
}

impl IntoQuery for (GraphPattern, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        self.0.validate()?;
        Ok(QuerySpec::Sparql {
            pattern: self.0,
            semantics: Some(self.1),
        })
    }
}

impl IntoQuery for &GraphPattern {
    fn into_query(self) -> Result<QuerySpec> {
        self.clone().into_query()
    }
}

impl IntoQuery for (&GraphPattern, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        (self.0.clone(), self.1).into_query()
    }
}

impl IntoQuery for SelectQuery {
    fn into_query(self) -> Result<QuerySpec> {
        let pattern = GraphPattern::Select(self.vars, Box::new(self.pattern));
        pattern.into_query()
    }
}

impl IntoQuery for (SelectQuery, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        let QuerySpec::Sparql { pattern, .. } = self.0.into_query()? else {
            unreachable!("SelectQuery normalizes to a SPARQL spec");
        };
        Ok(QuerySpec::Sparql {
            pattern,
            semantics: Some(self.1),
        })
    }
}

impl IntoQuery for triq_datalog::Query {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(QuerySpec::Datalog {
            program: self.program,
            output: self.output,
        })
    }
}

impl IntoQuery for (Program, &str) {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(QuerySpec::Datalog {
            program: self.0,
            output: triq_common::intern(self.1),
        })
    }
}

impl IntoQuery for TriqQuery {
    fn into_query(self) -> Result<QuerySpec> {
        self.query().clone().into_query()
    }
}

impl IntoQuery for TriqLiteQuery {
    fn into_query(self) -> Result<QuerySpec> {
        self.query().clone().into_query()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Upper bound on maintained views per session, recovered ones included.
/// A view holds the whole materialized instance (plus maintenance state),
/// so the table is kept small; a new plan arriving at a full table clears
/// it wholesale (coarse, but bounded — recomputation is always correct).
const MAX_CACHED_OUTCOMES: usize = 32;

/// Upper bound on unabsorbed ops in a session's mutation log. When it is
/// exceeded, views too far behind are evicted (they rebuild on their next
/// execution) so the absorbed prefix can be pruned.
const MAX_PENDING_OPS: usize = 4096;

/// The extensional mutation log of a session: every
/// `insert_*`/`remove_*`/`add_fact` call appends one operation here
/// (`true` = insert). Each maintained view remembers the log *version*
/// it is synced to; executing a prepared query replays only the suffix
/// the view has not seen, as one netted [`Delta`]. The log prefix every
/// view has absorbed is pruned on the next mutation.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    /// Version of the first entry in `ops`.
    pub(crate) base: u64,
    pub(crate) ops: Vec<(bool, Fact)>,
}

impl OpLog {
    pub(crate) fn version(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// The net delta from log version `from` to the head over the
    /// predicates `keep` accepts: per fact, the **last** operation wins
    /// (insert-then-delete nets to a delete, and vice versa — presence is
    /// set semantics).
    pub(crate) fn delta_since(&self, from: u64, keep: impl Fn(Symbol) -> bool) -> Delta {
        let start = (from.saturating_sub(self.base)) as usize;
        let mut last: HashMap<&Fact, bool> = HashMap::new();
        for (insert, fact) in &self.ops[start..] {
            if keep(fact.pred) {
                last.insert(fact, *insert);
            }
        }
        let mut delta = Delta::new();
        for (fact, insert) in last {
            if insert {
                delta.add_insert(fact.clone());
            } else {
                delta.add_delete(fact.clone());
            }
        }
        delta
    }
}

/// A maintained view plus the op-log version it reflects. `view` is
/// `None` before the first successful build and after an apply error
/// (the next execution rebuilds from the session database).
#[derive(Debug)]
pub(crate) struct ViewEntry {
    pub(crate) view: Option<MaterializedView>,
    pub(crate) synced: u64,
    /// The output predicates asked of this view so far (a view is Π(D);
    /// a query restricts it to one predicate), each with its answers.
    answers: Vec<(Symbol, Extracted)>,
}

/// `Q(D)` as last extracted for publication, with the op-log version it
/// was extracted at. It is current exactly when that version equals the
/// view's `synced`: any delta the view absorbs moves `synced` past it.
type Extracted = Option<(u64, Arc<Answers>)>;

/// One plan's place in a session's view table: what the view is to the
/// table, and the view itself behind its own lock — the outer map mutex
/// is held only for the lookup / insert, so a long chase or delta
/// application on one prepared query never blocks executions of other
/// queries against the same session. A stacked view is reached through
/// its base: the base's lock is always taken first.
#[derive(Debug)]
pub(crate) struct ViewSlot {
    pub(crate) role: SlotRole,
    pub(crate) entry: Mutex<ViewEntry>,
}

/// [`Role`] as the table records it: a stacked view names its base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SlotRole {
    Flat,
    Base,
    Stacked(PlanKey),
}

pub(crate) type ViewCell = Arc<ViewSlot>;

impl ViewEntry {
    /// A cell for `view` at op-log version `synced`, nothing asked yet.
    pub(crate) fn cell(role: SlotRole, view: Option<MaterializedView>, synced: u64) -> ViewCell {
        Arc::new(ViewSlot {
            role,
            entry: Mutex::new(ViewEntry {
                view,
                synced,
                answers: Vec::new(),
            }),
        })
    }

    /// Brings the view to the head of the op log — the one place a view
    /// absorbs its pending suffix, as one netted delta (a stacked view:
    /// plus its base's changes; `base` is already at the head) — and
    /// returns whether there was something to absorb. A view that cannot
    /// get there (see `MaterializedView::apply`) is discarded: the next
    /// execution rebuilds it from the database rather than serve it
    /// stale.
    fn sync(
        &mut self,
        ops: &OpLog,
        counters: &Counters,
        base: Option<&MaterializedView>,
    ) -> Result<bool> {
        let version = ops.version();
        let Some(view) = self.view.as_mut() else {
            return Ok(false);
        };
        if self.synced == version && base.is_none_or(|b| view.is_current_over(b)) {
            return Ok(false);
        }
        let applied = match base {
            None => view.apply(&ops.delta_since(self.synced, |_| true)),
            // The base absorbed everything but the layer's own facts.
            Some(base) => {
                let delta = ops.delta_since(self.synced, |pred| view.derives(pred));
                view.apply_over(&delta, base)
            }
        };
        match applied {
            Ok(summary) => {
                count_delta(counters, &summary);
                self.synced = version;
                Ok(true)
            }
            Err(e) => {
                self.view = None;
                Err(e)
            }
        }
    }

    /// The outcome that answers `output`, recording that it is asked.
    fn hand_out(&mut self, output: Symbol, base: Option<&MaterializedView>) -> Arc<ChaseOutcome> {
        if !self.answers.iter().any(|(asked, _)| *asked == output) {
            self.answers.push((output, None));
        }
        let view = self.view.as_ref().expect("only built views are served");
        answering(view, base, output).clone()
    }
}

/// The outcome `output` is read from: the view's own — or, for a
/// stacked view asked a predicate its layer does not derive, its base's
/// (unless the view is ⊤, which answers everything).
fn answering<'v>(
    view: &'v MaterializedView,
    base: Option<&'v MaterializedView>,
    output: Symbol,
) -> &'v Arc<ChaseOutcome> {
    match base {
        Some(base) if !view.outcome().inconsistent && !view.derives(output) => base.outcome(),
        _ => view.outcome(),
    }
}

/// Loaded data plus maintained chase state.
///
/// A session belongs to the [`Engine`] that created it. Its data is one
/// [`Database`] (`τ_db(G)` for a graph session). For every plan executed
/// against it, the session keeps a [`MaterializedView`] — the chase
/// fixpoint plus the state needed to update it in place — in one table
/// keyed by [`PlanKey`]: queries with the same program and configuration
/// share a view whatever their output predicate, and a view recovered
/// from a snapshot is an entry like any other. A plan made of the
/// engine's fixed rules (its libraries, plus `τ_owl2ql_core` under an
/// entailment regime) and rules of its own keeps only a view of its own
/// rules, stacked on one view of the fixed rules the session shares
/// between all such plans. Re-executing an unchanged
/// session is a lookup; executing after mutations replays only the
/// pending operations as an incremental delta (semi-naive insert
/// frontiers, DRed deletes — through labeled nulls too, under the
/// default skolem chase) instead of re-running the chase.
/// [`Session::invalidate`] remains the explicit full-rebuild escape
/// hatch; a view re-chases on its own only for a
/// [`RebuildReason`](triq_datalog::RebuildReason), counted as
/// `view_rebuilds`.
#[derive(Debug)]
pub struct Session {
    pub(crate) engine: Engine,
    pub(crate) db: Database,
    pub(crate) ops: OpLog,
    pub(crate) views: Mutex<HashMap<PlanKey, ViewCell>>,
}

impl Session {
    /// The engine this session belongs to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The session's RDF graph: the `triple/3` facts of the database
    /// read back as triples — the inverse of `τ_db` (§5.1), so it
    /// reflects every mutation and is there after a recovery too.
    pub fn graph(&self) -> Graph {
        let facts = self.db.atoms_of(triq_common::intern("triple"));
        facts
            .filter_map(|atom| match *atom.terms {
                [Term::Const(s), Term::Const(p), Term::Const(o)] => Some(Triple::new(s, p, o)),
                _ => None,
            })
            .collect()
    }

    /// The underlying Datalog database (`τ_db(G)` for graph sessions).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Adds an RDF triple (a `triple/3` fact of the `τ_db` bridge).
    /// Maintained chase state absorbs the change incrementally at the
    /// next execution.
    pub fn insert_triple(&mut self, s: &str, p: &str, o: &str) {
        self.add_fact("triple", &[s, p, o]);
    }

    /// Removes an RDF triple. Returns `true` if it was present;
    /// maintained chase state absorbs the deletion incrementally
    /// (delete-and-rederive) at the next execution.
    pub fn remove_triple(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.remove_fact("triple", &[s, p, o])
    }

    /// Adds a raw Datalog fact; maintained chase state absorbs it
    /// incrementally at the next execution.
    pub fn add_fact(&mut self, pred: &str, constants: &[&str]) {
        self.apply_delta(&Delta::new().insert(pred, constants));
    }

    /// Removes a raw Datalog fact; returns `true` if it was present.
    pub fn remove_fact(&mut self, pred: &str, constants: &[&str]) -> bool {
        self.apply_delta(&Delta::new().delete(pred, constants)).1 == 1
    }

    /// Drops the op-log prefix every live view has already absorbed.
    /// Runs under `&mut self`, so no execution (and no entry lock) can
    /// be active concurrently.
    fn prune_ops(&mut self) {
        let version = self.ops.version();
        let views = self.views.get_mut().expect("session views poisoned");
        // The version a view needs the log from; an entry without a
        // view rebuilds from the database and needs no log suffix. A
        // base is synced whenever a view stacked on it is, so it is
        // never further behind than its dependents — eviction keeps it
        // while any of them is kept.
        let needs = |cell: &ViewCell| {
            let entry = cell.entry.lock().expect("session view poisoned");
            entry.view.is_some().then_some(entry.synced)
        };
        let oldest = |views: &HashMap<PlanKey, ViewCell>| {
            views.values().filter_map(needs).min().unwrap_or(version)
        };
        let mut keep_from = oldest(views);
        // A view that has sat out thousands of mutations is cheaper to
        // rebuild than to keep the log suffix alive for: evict far-behind
        // views so the log stays bounded even when a prepared query goes
        // idle on a long-lived session.
        if version - keep_from > MAX_PENDING_OPS as u64 {
            let near = |synced| version - synced <= (MAX_PENDING_OPS / 2) as u64;
            views.retain(|_, cell| needs(cell).is_some_and(near));
            keep_from = oldest(views);
        }
        let drop = keep_from.saturating_sub(self.ops.base) as usize;
        if drop > 0 {
            self.ops.ops.drain(..drop);
            self.ops.base = keep_from;
        }
    }

    /// Applies a whole [`Delta`] to the session's extensional data:
    /// deletes first, then inserts (the [`Delta`] contract) — the one
    /// mutation routine; the single-fact mutators are one-fact deltas.
    /// Returns `(inserted, deleted)` — the counts of facts that actually
    /// changed (redundant operations are no-ops and are not logged).
    /// Maintained views absorb the change incrementally; the op log is
    /// pruned once for the whole batch, not once per fact.
    ///
    /// Facts over the reserved `~d~` namespace are skipped like redundant
    /// operations: those predicates belong to the demand rewrite, whose
    /// views carry their own seed fact, and are never data.
    pub fn apply_delta(&mut self, delta: &Delta) -> (usize, usize) {
        // The predicate's text is looked at once per run of facts over
        // one predicate: a bulk load of triples resolves one symbol.
        let mut last = None;
        let mut is_data = move |pred: Symbol| match last {
            Some((seen, data)) if seen == pred => data,
            _ => {
                let data = !demand::is_reserved(pred);
                last = Some((pred, data));
                data
            }
        };
        let mut deleted = 0usize;
        for f in &delta.deletes {
            if is_data(f.pred) && self.db.remove_row(f.pred, &f.args) {
                deleted += 1;
                self.ops.ops.push((false, f.clone()));
            }
        }
        let mut inserted = 0usize;
        for f in &delta.inserts {
            if is_data(f.pred) && self.db.add_row(f.pred, &f.args) {
                inserted += 1;
                self.ops.ops.push((true, f.clone()));
            }
        }
        self.prune_ops();
        (inserted, deleted)
    }

    /// Brings every maintained view up to the head of the op log and
    /// returns the snapshot to publish: per plan, the answers `Q(D)` of
    /// every output asked of its view — the publication step of the
    /// [`SharedSession`] writer. Answers are re-extracted only for views
    /// that absorbed a delta since their last extraction, and a
    /// re-extraction that finds `Q(D)` equal to what was published keeps
    /// the published `Arc<Answers>`; every plan whose answers did not
    /// change carries its previous `Arc` forward, so the cost is
    /// O(answer rows of the changed plans) and no handle to a view's
    /// instance ever leaves the session. Views whose delta application
    /// fails are discarded (they rebuild on their next execution) rather
    /// than poisoning the whole session; entries without a built view
    /// are dropped likewise, and so are views stacked on them. A
    /// recovered view no query has asked for yet is kept at the head too
    /// — a checkpoint taken now persists it and the op-log prefix stays
    /// prunable — but publishes nothing.
    fn sync_all_views(&mut self) -> SessionSnapshot {
        let version = self.ops.version();
        let views = self.views.get_mut().expect("session views poisoned");
        let mut published = HashMap::with_capacity(views.len());
        let mut dropped = Vec::new();
        for (key, cell) in views.iter() {
            let base = match &cell.role {
                SlotRole::Stacked(base_key) => match views.get(base_key) {
                    Some(base) => Some(base.entry.lock().expect("session view poisoned")),
                    None => {
                        dropped.push(key.clone());
                        continue;
                    }
                },
                SlotRole::Flat | SlotRole::Base => None,
            };
            let mut base = base;
            let mut entry = cell.entry.lock().expect("session view poisoned");
            let counters = &self.engine.inner.counters;
            let Ok(_) = sync_pair(&self.ops, counters, base.as_deref_mut(), &mut entry) else {
                dropped.push(key.clone());
                continue;
            };
            let entry = &mut *entry;
            let view = entry.view.as_ref().expect("synced views are built");
            let base = base.as_ref().and_then(|b| b.view.as_ref());
            let extract = |(output, extracted): &mut (Symbol, Extracted)| {
                let current = match extracted.take() {
                    Some((at, current)) if at == version => current,
                    stale => {
                        let fresh = Answers::from_chase(answering(view, base, *output), *output);
                        match stale {
                            Some((_, old)) if *old == fresh => old,
                            _ => Arc::new(fresh),
                        }
                    }
                };
                *extracted = Some((version, current.clone()));
                (*output, current)
            };
            let current: Vec<_> = entry.answers.iter_mut().map(extract).collect();
            if !current.is_empty() {
                published.insert(key.clone(), current);
            }
        }
        for key in dropped {
            views.remove(&key);
            published.remove(&key);
        }
        SessionSnapshot {
            version,
            answers: published,
        }
    }

    /// Converts this session into a [`SharedSession`] — the concurrent,
    /// snapshot-isolated form served by `triq-server`. Existing
    /// maintained views carry over and appear in the first published
    /// snapshot.
    pub fn into_shared(self) -> SharedSession {
        SharedSession::new(self)
    }

    /// Drops all maintained chase state: the next execution of any
    /// prepared query re-chases from scratch. This is the explicit
    /// full-rebuild escape hatch; plain mutations no longer need it.
    pub fn invalidate(&mut self) {
        self.views
            .get_mut()
            .expect("session views poisoned")
            .clear();
        self.ops.base = self.ops.version();
        self.ops.ops.clear();
    }

    /// The current op-log version: the number of effective extensional
    /// operations this session has absorbed over its lifetime (the
    /// version readers of a [`SharedSession`] observe, and the version
    /// the durability layer stamps WAL records and snapshots with).
    pub fn version(&self) -> u64 {
        self.ops.version()
    }

    /// Convenience mirror of [`PreparedQuery::execute`].
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers> {
        query.execute(self)
    }

    /// The cell the view for `key` lives in, inserted empty when the
    /// session holds none in that role. The map lock is held only for
    /// this lookup. A new plan arriving at a full table clears it, base
    /// views excepted: they do not count against the bound.
    fn cell(&self, key: &PlanKey, role: SlotRole) -> ViewCell {
        let mut views = self.views.lock().expect("session views poisoned");
        let is_base = |cell: &ViewCell| cell.role == SlotRole::Base;
        if !views.contains_key(key)
            && views.values().filter(|c| !is_base(c)).count() >= MAX_CACHED_OUTCOMES
        {
            views.retain(|_, cell| is_base(cell));
        }
        match views.get(key) {
            Some(cell) if cell.role == role => cell.clone(),
            _ => {
                let cell = ViewEntry::cell(role, None, self.ops.version());
                views.insert(key.clone(), cell.clone());
                cell
            }
        }
    }

    /// The cell the session holds for `key`, if any.
    fn held(&self, key: &PlanKey) -> Option<ViewCell> {
        let views = self.views.lock().expect("session views poisoned");
        views.get(key).cloned()
    }

    /// The maintained outcome for `query`, building or delta-syncing a
    /// view as needed. The (possibly long) chase or delta application
    /// runs under the plan's own entry lock (and its base's, taken
    /// first), so concurrent executions of one plan chase it once.
    ///
    /// A view the session holds is served first, looked up in the order
    /// of [`PreparedQuery::view_keys`]. Otherwise one is built and filed
    /// under the key of the plan that was chased: the query's magic-set
    /// rewrite ([`DemandPlan`]) when it carries one — with the demand
    /// seed fact added to its facts; later mutations delta-sync that
    /// view like any other — else the query's own program. A demand
    /// build that fails at runtime falls back to the full chase (counted
    /// in `demand_fallbacks`).
    fn outcome_for(&self, query: &PreparedQuery) -> Result<Arc<ChaseOutcome>> {
        let counters = &query.engine.inner.counters;
        for cell in query.view_keys().filter_map(|key| self.held(key)) {
            let base_cell = match &cell.role {
                SlotRole::Stacked(base_key) => match self.held(base_key) {
                    Some(base) => Some(base),
                    None => continue,
                },
                SlotRole::Flat | SlotRole::Base => None,
            };
            let mut base = base_cell
                .as_ref()
                .map(|b| b.entry.lock().expect("session view poisoned"));
            let mut entry = cell.entry.lock().expect("session view poisoned");
            if let Some(served) = self.serve(&mut entry, base.as_deref_mut(), query) {
                return served;
            }
        }
        if let Some(plan) = query.demand.as_deref() {
            match self.build(&plan.view, Some(&plan.seed), query) {
                Ok(outcome) => return Ok(outcome),
                // Budget exhausted or the rewritten chase failed at
                // runtime: count the fallback and serve the full plan.
                Err(_) => counters.add(Counter::DemandFallbacks, 1),
            }
        }
        self.build(&query.view, None, query)
    }

    /// Serves `query` from `entry`'s view (stacked on `base`'s), synced
    /// to the head of the log — a cache hit when it already was; `None`
    /// when either view is not built.
    fn serve(
        &self,
        entry: &mut ViewEntry,
        mut base: Option<&mut ViewEntry>,
        query: &PreparedQuery,
    ) -> Option<Result<Arc<ChaseOutcome>>> {
        entry.view.as_ref()?;
        if let Some(base) = &base {
            base.view.as_ref()?;
        }
        let counters = &query.engine.inner.counters;
        Some(
            sync_pair(&self.ops, counters, base.as_deref_mut(), entry).map(|absorbed| {
                if !absorbed {
                    counters.add(Counter::CacheHits, 1);
                }
                let base = base.and_then(|b| b.view.as_ref());
                entry.hand_out(query.output, base)
            }),
        )
    }

    /// Builds the view `plan` describes (unless another execution did
    /// while this one waited) and serves `query` from it. A stacked
    /// view's base is built or synced first, under its own lock, which
    /// stays held while the layer is chased over it.
    fn build(
        &self,
        plan: &ViewPlan,
        seed: Option<&Fact>,
        query: &PreparedQuery,
    ) -> Result<Arc<ChaseOutcome>> {
        let counters = &query.engine.inner.counters;
        let Role::Stacked(base_plan) = &plan.role else {
            let role = match plan.role {
                Role::Base => SlotRole::Base,
                _ => SlotRole::Flat,
            };
            let cell = self.cell(&plan.key, role);
            let mut entry = cell.entry.lock().expect("session view poisoned");
            if let Some(served) = self.serve(&mut entry, None, query) {
                return served;
            }
            let mut db = self.db.clone();
            if let Some(seed) = seed {
                db.add_row(seed.pred, &seed.args);
            }
            let view = MaterializedView::new(plan.runner.clone(), db)?;
            self.install(&mut entry, view, counters);
            return Ok(entry.hand_out(query.output, None));
        };
        let base_cell = self.cell(&base_plan.key, SlotRole::Base);
        let mut base = base_cell.entry.lock().expect("session view poisoned");
        if base.view.is_some() {
            base.sync(&self.ops, counters, None)?;
        } else {
            let view = MaterializedView::new(base_plan.runner.clone(), self.db.clone())?;
            self.install(&mut base, view, counters);
        }
        let cell = self.cell(&plan.key, SlotRole::Stacked(base_plan.key.clone()));
        let mut entry = cell.entry.lock().expect("session view poisoned");
        if let Some(served) = self.serve(&mut entry, Some(&mut base), query) {
            return served;
        }
        // The layer's own facts: those of the predicates it derives.
        let mut edb = self.db.select(plan.runner.program().head_predicates());
        if let Some(seed) = seed {
            edb.add_row(seed.pred, &seed.args);
        }
        let base = base
            .view
            .as_ref()
            .expect("the base was just built or synced");
        let view = MaterializedView::stacked(plan.runner.clone(), edb, base)?;
        self.install(&mut entry, view, counters);
        Ok(entry.hand_out(query.output, Some(base)))
    }

    /// Stores a freshly chased view in `entry` — a chase run, counted
    /// here. Mutations take `&mut self`, so the log version is still the
    /// one the view was chased at.
    fn install(&self, entry: &mut ViewEntry, view: MaterializedView, counters: &Counters) {
        counters.add(Counter::ChaseRuns, 1);
        view.outcome().stats.count_into(counters);
        entry.view = Some(view);
        entry.synced = self.ops.version();
    }
}

/// Syncs `entry` to the head of the log — over its base when it is
/// stacked: the base first (a no-op when another view stacked on it
/// already synced it), then the view over the base's change set.
/// Returns whether `entry` absorbed something; `Err` when either view
/// is not built or fails to apply (the caller drops the entry).
fn sync_pair(
    ops: &OpLog,
    counters: &Counters,
    base: Option<&mut ViewEntry>,
    entry: &mut ViewEntry,
) -> Result<bool> {
    let missing = || TriqError::Other("the view is not built".into());
    let base = match base {
        Some(base) => {
            base.sync(ops, counters, None)?;
            Some(base.view.as_ref().ok_or_else(missing)?)
        }
        None => None,
    };
    entry.view.as_ref().ok_or_else(missing)?;
    entry.sync(ops, counters, base)
}

// ---------------------------------------------------------------------------
// SharedSession — concurrent snapshot-isolated reads over live views
// ---------------------------------------------------------------------------

/// An immutable, cross-plan-consistent picture of a [`SharedSession`] at
/// one op-log version.
///
/// A snapshot holds, per materialized plan and output predicate asked
/// of it, the **answers** — §3.2's `Q(D)`: ⊤ or the constant tuples of
/// the output predicate, which is all a reader of a served plan can
/// observe — all extracted at the **same** version: executing several
/// prepared queries against one snapshot observes a single database
/// state, even while the writer keeps applying deltas behind it. It
/// never references a view's chase instance, so holding one costs the
/// writer nothing. Snapshots are cheap to obtain (one `Arc` clone under
/// a briefly-held read lock) and keep answering for as long as they are
/// held.
#[derive(Debug)]
pub struct SessionSnapshot {
    version: u64,
    answers: HashMap<PlanKey, Vec<(Symbol, Arc<Answers>)>>,
}

impl SessionSnapshot {
    /// The op-log version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of plans materialized in this snapshot.
    pub fn plans(&self) -> usize {
        self.answers.len()
    }

    /// Executes a prepared query against this snapshot, lock-free.
    /// Returns `None` when the plan is not materialized here — use
    /// [`SharedSession::execute`] to build it (that takes the writer
    /// lock once; later snapshots then contain the plan for as long as
    /// the writer session keeps its view).
    pub fn try_execute(&self, query: &PreparedQuery) -> Option<Answers> {
        self.answers(query).map(|a| (**a).clone())
    }

    /// The published answer set of `query` itself — shared, not copied
    /// (`None` when the plan is not materialized here). Consecutive
    /// snapshots hand out the *same* `Arc` for as long as the plan's
    /// answers are unchanged, whatever the version.
    pub fn answers(&self, query: &PreparedQuery) -> Option<&Arc<Answers>> {
        query.view_keys().find_map(|key| {
            let outputs = self.answers.get(key)?;
            let (_, answers) = outputs.iter().find(|(asked, _)| *asked == query.output)?;
            Some(answers)
        })
    }

    /// Like [`SessionSnapshot::try_execute`], but decoding into SPARQL
    /// mappings (`Err` for Datalog-origin plans, which have no variable
    /// decoding; `None` when the plan is not materialized here).
    pub fn try_mappings(&self, query: &PreparedQuery) -> Option<Result<RegimeAnswers>> {
        self.answers(query).map(|a| query.mappings_from_answers(a))
    }
}

/// What [`SharedSession::apply`] did: the published version and how many
/// facts actually changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The op-log version readers observe from now on.
    pub version: u64,
    /// Facts inserted (redundant inserts excluded).
    pub inserted: usize,
    /// Facts deleted (absent deletes excluded).
    pub deleted: usize,
}

#[derive(Debug)]
struct SharedInner {
    engine: Engine,
    /// The single-writer lock: mutations and first-time plan
    /// materializations serialize here. Readers never take it.
    writer: Mutex<Session>,
    /// The published snapshot. The write guard is held only for the
    /// pointer swap (and read guards only for an `Arc` clone), so no
    /// reader is ever blocked for the duration of a chase or delta
    /// application. It holds answer sets only: the writer session is
    /// the sole owner of every view's instance.
    published: RwLock<Arc<SessionSnapshot>>,
}

/// A [`Session`] shared between N concurrent readers and one logical
/// writer, with **snapshot isolation**: readers answer from immutable,
/// atomically-published answer sets and are never blocked by an
/// in-flight mutation.
///
/// The concurrency contract:
///
/// * **Readers hold answer sets.** [`SharedSession::execute`] and
///   [`SharedSession::snapshot`] clone the current [`SessionSnapshot`]
///   handle — a read lock held for one `Arc` clone — and answer from its
///   per-plan `Q(D)` without further coordination. A plan's first
///   execution is the one read that takes the writer lock (the fixpoint
///   must be chased once before its answers can be published).
/// * **The writer owns the instances.** [`SharedSession::apply`] takes
///   the writer lock, folds the delta into the base data, brings every
///   maintained view to the new fixpoint incrementally and in place
///   (delta-chase inserts, DRed deletes — the
///   `triq_datalog::incremental` machinery), extracts the answers of the
///   plans whose view absorbed the delta, and only then swaps the new
///   snapshot in. No handle to a view's chase instance is ever
///   published, so maintenance never copies one: **publish cost is
///   O(answer rows of the plans whose view changed)**, independent of
///   how much data is resident and of what readers are holding.
///   Readers racing the apply keep the old snapshot; readers arriving
///   after the swap see the new one; nobody observes a half-applied
///   delta.
/// * Snapshots are **cross-plan consistent**: all answers in one
///   snapshot reflect the same op-log version.
/// * A snapshot lists only plans whose views the writer session holds
///   (with the answers of each output predicate asked of them), so it is
///   bounded like the session's view cache; a plan that fell out is
///   chased again on its next execution.
///
/// Cloning a `SharedSession` is an `Arc` bump; clones share everything.
/// This type is the in-process core of `triq-server`'s query service —
/// see the "Serving layer" section of `docs/ARCHITECTURE.md`.
///
/// ```
/// use std::sync::Arc;
/// use triq::prelude::*;
///
/// let engine = Engine::new();
/// let q = engine.prepare(Datalog(
///     "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
///      t(?X, ?Y) -> out(?X, ?Y).",
///     "out",
/// ))?;
/// let mut session = engine.session();
/// session.add_fact("e", &["a", "b"]);
/// let shared = session.into_shared();
///
/// // Reader threads execute lock-free against published snapshots…
/// assert_eq!(shared.execute(&q)?.len(), 1);
/// // …while the writer applies deltas and republishes atomically.
/// shared.apply(&Delta::new().insert("e", &["b", "c"]));
/// assert!(shared.execute(&q)?.contains(&["a", "c"]));
/// # Ok::<(), TriqError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SharedSession {
    inner: Arc<SharedInner>,
}

impl SharedSession {
    /// Wraps a session for concurrent use. Views the session already
    /// maintains are synced and appear in the first published snapshot.
    pub fn new(mut session: Session) -> SharedSession {
        let first = session.sync_all_views();
        SharedSession {
            inner: Arc::new(SharedInner {
                engine: session.engine.clone(),
                published: RwLock::new(Arc::new(first)),
                writer: Mutex::new(session),
            }),
        }
    }

    /// The engine this shared session belongs to.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The currently published snapshot (cheap: one `Arc` clone under a
    /// momentary read lock). Hold it to run several queries against one
    /// consistent database state.
    pub fn snapshot(&self) -> Arc<SessionSnapshot> {
        self.inner
            .published
            .read()
            .expect("published snapshot poisoned")
            .clone()
    }

    /// The op-log version readers currently observe.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Executes a prepared query: lock-free against the published
    /// snapshot when the plan is already materialized, else the plan is
    /// chased once under the writer lock and published for every later
    /// reader.
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers> {
        self.execute_versioned(query).map(|(a, _)| a)
    }

    /// Like [`SharedSession::execute`], also returning the op-log
    /// version the answers reflect — the version and the rows come from
    /// the **same** snapshot, so callers (e.g. the server's JSON answer
    /// writer) can expose them together without racing a concurrent
    /// apply.
    pub fn execute_versioned(&self, query: &PreparedQuery) -> Result<(Answers, u64)> {
        let (answers, version) = self.answers_versioned(query)?;
        Ok(((*answers).clone(), version))
    }

    /// Executes and decodes into SPARQL mappings (`Err` with `E-OTHER`
    /// for Datalog-origin plans). Same locking profile as
    /// [`SharedSession::execute`].
    pub fn mappings(&self, query: &PreparedQuery) -> Result<RegimeAnswers> {
        self.mappings_versioned(query).map(|(m, _)| m)
    }

    /// Like [`SharedSession::mappings`], also returning the op-log
    /// version the mappings reflect (see
    /// [`SharedSession::execute_versioned`]).
    pub fn mappings_versioned(&self, query: &PreparedQuery) -> Result<(RegimeAnswers, u64)> {
        let (answers, version) = self.answers_versioned(query)?;
        Ok((query.mappings_from_answers(&answers)?, version))
    }

    /// The published answer set of `query` — shared, not copied — with
    /// the op-log version of the snapshot it came from, materializing
    /// the plan on first use. The same `Arc` comes back for as long as
    /// the plan's answers do not change (see
    /// [`SessionSnapshot::answers`]), so a caller can key derived work
    /// on it with [`Arc::ptr_eq`].
    pub fn answers_versioned(&self, query: &PreparedQuery) -> Result<(Arc<Answers>, u64)> {
        let snap = self.snapshot();
        if let Some(answers) = snap.answers(query) {
            let counters = &self.inner.engine.inner.counters;
            counters.add(Counter::Executions, 1);
            counters.add(Counter::CacheHits, 1);
            return Ok((answers.clone(), snap.version));
        }
        self.materialize(query)
    }

    /// Slow path: chase the plan under the writer lock, then republish
    /// the plans the writer session holds views for — the new one
    /// included, at the same version (the data did not change). Only the
    /// new plan's answers are extracted; the others carry over.
    /// Publications all happen under the writer lock, so concurrent
    /// first-executions of different plans cannot lose each other's
    /// entries.
    fn materialize(&self, query: &PreparedQuery) -> Result<(Arc<Answers>, u64)> {
        let mut session = self.inner.writer.lock().expect("writer session poisoned");
        let current = self.snapshot();
        // Double-check: the plan may have been published while this
        // thread waited on the writer lock.
        if let Some(answers) = current.answers(query) {
            return Ok((answers.clone(), current.version));
        }
        // Build the view. The outcome handle is dropped right here,
        // under the lock: only the session may own an instance.
        drop(query.outcome(&session)?);
        let next = self.publish(&mut session);
        let answers = next.answers(query).cloned().ok_or_else(|| {
            TriqError::Other("the view built for this plan could not be published".into())
        })?;
        Ok((answers, next.version))
    }

    /// Syncs the writer session's views and swaps the resulting snapshot
    /// in. Callers hold the writer lock, so publications are serialized.
    fn publish(&self, session: &mut Session) -> Arc<SessionSnapshot> {
        let next = Arc::new(session.sync_all_views());
        *self
            .inner
            .published
            .write()
            .expect("published snapshot poisoned") = next.clone();
        next
    }

    /// Runs `f` against the writer session under the writer lock — the
    /// persistence layer uses this to encode a checkpoint of the exact
    /// current state. While `f` runs the write path is stalled (readers
    /// are unaffected: they answer from the published snapshot). Do not
    /// call while already holding the lock.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        let mut session = self.inner.writer.lock().expect("writer session poisoned");
        f(&mut session)
    }

    /// Applies a mutation batch: folds the delta into the base data,
    /// brings every maintained view to the new fixpoint incrementally,
    /// and atomically publishes the new snapshot. Readers are never
    /// blocked while this runs — they keep the previous snapshot until
    /// the final pointer swap.
    ///
    /// A view whose incremental application fails (resource budget) is
    /// dropped from the snapshot and rebuilt on its next execution; the
    /// apply itself does not fail for it.
    pub fn apply(&self, delta: &Delta) -> AppliedDelta {
        let mut session = self.inner.writer.lock().expect("writer session poisoned");
        let rec = session.engine.inner.recorder.clone();
        let _span = triq_obs::span(
            &*rec,
            "apply_delta",
            (delta.inserts.len() + delta.deletes.len()) as u64,
        );
        let _t = Timer::start(&*rec, Phase::ApplyDelta);
        let (inserted, deleted) = session.apply_delta(delta);
        AppliedDelta {
            version: self.publish(&mut session).version,
            inserted,
            deleted,
        }
    }
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

/// Decoding info for SPARQL-origin queries: the answer-tuple argument
/// order and the semantics the pattern was compiled for.
#[derive(Clone, Debug)]
struct SparqlDecode {
    vars: Vec<VarId>,
    semantics: Semantics,
}

/// A query that has been parsed, translated, classified, stratified and
/// rule-compiled once, ready to execute against any [`Session`].
///
/// Cloning copies the compiled plan without re-preparing it.
#[derive(Clone)]
pub struct PreparedQuery {
    engine: Engine,
    /// The plan's identity (program text + chase config): what sessions
    /// and snapshots file its view under, stable across restarts.
    key: PlanKey,
    /// The whole program, compiled.
    runner: ChaseRunner,
    /// How executions build the plan's view (filed under `key`).
    view: ViewPlan,
    output: Symbol,
    classification: ProgramClassification,
    decode: Option<SparqlDecode>,
    /// The magic-set rewrite, when one exists for this plan (see
    /// [`Engine::attach_demand`]); `None` means executions always chase
    /// the original program.
    demand: Option<Arc<DemandPlan>>,
}

impl PreparedQuery {
    /// The compiled program (libraries included).
    pub fn program(&self) -> &Program {
        self.runner.program()
    }

    /// The output predicate.
    pub fn output(&self) -> Symbol {
        self.output
    }

    /// The language-classification report computed at prepare time.
    pub fn classification(&self) -> &ProgramClassification {
        &self.classification
    }

    /// The semantics this query was compiled for (`None` for raw Datalog
    /// queries, which have no SPARQL decoding).
    pub fn semantics(&self) -> Option<Semantics> {
        self.decode.as_ref().map(|d| d.semantics)
    }

    /// The chase configuration executions use.
    pub fn config(&self) -> ChaseConfig {
        self.runner.config()
    }

    /// Returns a variant with a different chase configuration. The
    /// compiled rules and stratification are reused; the configuration
    /// is part of the plan's identity, so a changed one is a different
    /// plan with its own views (a config change can change results).
    pub fn with_config(mut self, config: ChaseConfig) -> PreparedQuery {
        if self.runner.config() != config {
            self.runner.set_config(config);
            self.key = PlanKey::new(self.runner.program(), &config);
            // The view's runners and the demand rewrite's carry the
            // config (budgets) too — recompute them for the new identity.
            let regime = self.semantics().is_some_and(|s| s != Semantics::Plain);
            self.view = self
                .engine
                .view_plan(&self.runner, self.key.clone(), regime);
            self.demand = self.engine.attach_demand(&self.view, self.output);
        }
        self
    }

    /// The plan fingerprint: a hash of the compiled program's canonical
    /// text and the chase configuration, stable across restarts. It
    /// labels the plan in telemetry; identity is the full [`PlanKey`].
    pub fn fingerprint(&self) -> u64 {
        self.key.fingerprint()
    }

    /// The keys a view that answers this query may be filed under, in
    /// lookup order: the query's own plan, then its demand rewrite.
    fn view_keys(&self) -> impl Iterator<Item = &PlanKey> {
        std::iter::once(&self.key).chain(self.demand.as_deref().map(|p| &p.view.key))
    }

    /// Whether a magic-set rewrite is attached: executions without a
    /// usable cached view will chase the demand-rewritten program instead
    /// of the full one.
    pub fn uses_demand(&self) -> bool {
        self.demand.is_some()
    }

    /// The fingerprint of the demand-rewritten plan, when one is
    /// attached. Distinct queries over the same rules but different bound
    /// constants get distinct rewritten plans (the constants appear in
    /// the rewritten program's seed rules), so a persisted demand view
    /// never answers the wrong query.
    pub fn demand_fingerprint(&self) -> Option<u64> {
        self.demand.as_ref().map(|p| p.view.key.fingerprint())
    }

    /// The chase outcome for this query over `session` — served from
    /// the session's maintained view: a lookup when nothing changed, an
    /// incremental delta application when mutations are pending, and a
    /// full chase only the first time (or after `invalidate()`).
    fn outcome(&self, session: &Session) -> Result<Arc<ChaseOutcome>> {
        let counters = &self.engine.inner.counters;
        counters.add(Counter::Executions, 1);
        let rec = &*self.engine.inner.recorder;
        let _span = triq_obs::span(rec, "execute", self.key.fingerprint());
        let _t = Timer::start(rec, Phase::Execute);
        session.outcome_for(self)
    }

    /// Executes, materializing the answers (§3.2's `Q(D)`).
    pub fn execute(&self, session: &Session) -> Result<Answers> {
        let outcome = self.outcome(session)?;
        Ok(Answers::from_chase(&outcome, self.output))
    }

    /// Executes, streaming the answer tuples without materializing a set.
    /// Check [`AnswerIter::is_top`] before interpreting emptiness.
    pub fn execute_iter(&self, session: &Session) -> Result<AnswerIter> {
        let outcome = self.outcome(session)?;
        Ok(AnswerIter::new(outcome, self.output))
    }

    /// The SPARQL variable names answers decode into, in answer-tuple
    /// argument order (`None` for Datalog-origin plans, which have no
    /// variable decoding). The server's JSON answer writer uses this as
    /// the `vars` header.
    pub fn var_names(&self) -> Option<Vec<&'static str>> {
        self.decode
            .as_ref()
            .map(|d| d.vars.iter().map(|v| v.name()).collect())
    }

    /// The decoded variables themselves, in the same order as
    /// [`PreparedQuery::var_names`] (`None` for Datalog-origin plans).
    pub fn vars(&self) -> Option<&[VarId]> {
        self.decode.as_ref().map(|d| d.vars.as_slice())
    }

    /// Executes and decodes into SPARQL mappings (`µ_{t,P}` of §5.1).
    /// Errors with `E-OTHER` for raw Datalog queries, which have no
    /// variable decoding.
    pub fn mappings(&self, session: &Session) -> Result<RegimeAnswers> {
        self.mappings_from_answers(&self.execute(session)?)
    }

    /// Decodes an answer set (session- or snapshot-served) into SPARQL
    /// mappings.
    fn mappings_from_answers(&self, answers: &Answers) -> Result<RegimeAnswers> {
        let decode = self.decode.as_ref().ok_or_else(|| {
            TriqError::Other(
                "prepared query has no SPARQL variable decoding (it was built \
                 from a Datalog program); use execute() instead"
                    .into(),
            )
        })?;
        Ok(match answers {
            Answers::Top => RegimeAnswers::Top,
            Answers::Tuples(tuples) => RegimeAnswers::Mappings(
                tuples
                    .iter()
                    .map(|t| decode_tuple_vars(t, &decode.vars))
                    .collect(),
            ),
        })
    }

    /// Convenience: the sorted, deduplicated bindings of one variable
    /// (SPARQL-origin queries only).
    ///
    /// When the session data is inconsistent with the ontology semantics
    /// (`Q(D) = ⊤`, where *every* mapping is an answer), this returns an
    /// error rather than an empty list — a flat binding list cannot
    /// represent ⊤. Use [`PreparedQuery::mappings`] to handle ⊤
    /// explicitly.
    pub fn bindings_of(&self, session: &Session, var: &str) -> Result<Vec<Symbol>> {
        let v = VarId::new(var);
        match self.mappings(session)? {
            RegimeAnswers::Top => Err(TriqError::Other(
                "the session data is inconsistent with the ontology \
                 semantics (Q(D) = ⊤): every binding is an answer; use \
                 mappings() to handle ⊤"
                    .into(),
            )),
            RegimeAnswers::Mappings(ms) => {
                let mut out: Vec<Symbol> = ms.iter().filter_map(|m| m.get(v)).collect();
                out.sort();
                out.dedup();
                Ok(out)
            }
        }
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("fingerprint", &self.key.fingerprint())
            .field("output", &self.output)
            .field("rules", &self.runner.program().rules.len())
            .field("semantics", &self.semantics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_rdf::parse_turtle;
    use triq_sparql::parse_pattern;

    fn g2() -> Graph {
        parse_turtle(
            "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman name \"Jeffrey Ullman\" .\n\
             dbAho is_coauthor_of dbUllman .\n\
             dbAho name \"Alfred Aho\" .",
        )
        .unwrap()
    }

    #[test]
    fn sparql_text_roundtrip() {
        let engine = Engine::new();
        let q = engine
            .prepare(Sparql(
                "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
            ))
            .unwrap();
        let session = engine.load_graph(g2());
        let names = q.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }

    #[test]
    fn one_prepared_query_many_sessions() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?Y, name, ?X) -> query(?X).", "query"))
            .unwrap();
        let s1 = engine.load_graph(g2());
        let s2 = engine
            .load_turtle("someone name \"Somebody Else\" .")
            .unwrap();
        let s3 = engine.session();
        assert_eq!(q.execute(&s1).unwrap().len(), 2);
        assert!(q.execute(&s2).unwrap().contains(&["Somebody Else"]));
        assert!(q.execute(&s3).unwrap().is_empty());
    }

    #[test]
    fn session_cache_hits_and_incremental_mutation() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?Y, name, ?X) -> q(?X).", "q"))
            .unwrap();
        let mut session = engine.load_graph(g2());
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        let after_first = engine.stats();
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        let after_second = engine.stats();
        assert_eq!(after_second.chase_runs, after_first.chase_runs);
        assert_eq!(after_second.cache_hits, after_first.cache_hits + 1);
        // Mutations are absorbed incrementally — no full re-chase.
        session.insert_triple("x", "name", "X New");
        assert_eq!(q.execute(&session).unwrap().len(), 3);
        let after_third = engine.stats();
        assert_eq!(after_third.chase_runs, after_first.chase_runs);
        assert_eq!(after_third.deltas_applied, after_first.deltas_applied + 1);
        // Removal too (DRed): the derived answer disappears.
        assert!(session.remove_triple("x", "name", "X New"));
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        assert_eq!(engine.stats().chase_runs, after_first.chase_runs);
        // invalidate() stays the explicit full-rebuild escape hatch.
        session.invalidate();
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        assert_eq!(engine.stats().chase_runs, after_first.chase_runs + 1);
    }

    #[test]
    fn batched_mutations_net_into_one_delta() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("p(?X, ?Y) -> out(?X).", "out"))
            .unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["a", "b"]);
        assert_eq!(q.execute(&session).unwrap().len(), 1);
        let runs = engine.stats().chase_runs;
        // Insert-then-remove between executions nets to nothing…
        session.add_fact("p", &["c", "d"]);
        assert!(session.remove_fact("p", &["c", "d"]));
        // …and several surviving ops arrive as one delta.
        session.add_fact("p", &["e", "f"]);
        session.add_fact("p", &["g", "h"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(!answers.contains(&["c"]));
        let stats = engine.stats();
        assert_eq!(stats.chase_runs, runs, "no full re-chase");
        assert_eq!(stats.deltas_applied, 1, "one netted delta");
        // Removing a never-present fact is a no-op.
        assert!(!session.remove_fact("p", &["zz", "zz"]));
    }

    #[test]
    fn idle_views_are_evicted_to_bound_the_op_log() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["seed"]);
        assert_eq!(q.execute(&session).unwrap().len(), 1);
        let runs = engine.stats().chase_runs;
        // Thousands of mutations with the view idle: the log must stay
        // bounded (the far-behind view is evicted, not fed forever).
        for i in 0..5000 {
            session.add_fact("p", &[&format!("x{i}")]);
        }
        assert!(
            session.ops.ops.len() <= MAX_PENDING_OPS,
            "op log must stay bounded, got {}",
            session.ops.ops.len()
        );
        // The evicted view rebuilds on its next execution, correctly.
        assert_eq!(q.execute(&session).unwrap().len(), 5001);
        assert_eq!(engine.stats().chase_runs, runs + 1);
    }

    #[test]
    fn a_batch_prunes_the_op_log_like_the_same_facts_one_by_one() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let idle = engine
            .prepare(Datalog("p(?X) -> idle(?X).", "idle"))
            .unwrap();
        let facts: Vec<String> = (0..MAX_PENDING_OPS + 500)
            .map(|i| format!("x{i}"))
            .collect();
        // `q` is synced midway and so survives the eviction `idle` (left
        // at version 1) suffers when the log overflows; a batch that
        // stays under the bound prunes nothing.
        for (sync_at, n) in [(300, 1000), (3000, facts.len())] {
            let mut one_by_one = engine.session();
            let mut batched = engine.session();
            for session in [&mut one_by_one, &mut batched] {
                session.add_fact("p", &["seed"]);
                assert_eq!(idle.execute(session).unwrap().len(), 1);
            }
            for session in [&mut one_by_one, &mut batched] {
                let mut head = Delta::new();
                for f in &facts[..sync_at] {
                    head = head.insert("p", &[f]);
                }
                session.apply_delta(&head);
                assert_eq!(q.execute(session).unwrap().len(), sync_at + 1);
            }
            let mut tail = Delta::new();
            for f in &facts[sync_at..n] {
                one_by_one.add_fact("p", &[f]);
                tail = tail.insert("p", &[f]);
            }
            assert_eq!(batched.apply_delta(&tail), (n - sync_at, 0));
            assert_eq!(batched.ops.ops.len(), one_by_one.ops.ops.len());
            assert_eq!(batched.ops.base, one_by_one.ops.base);
            assert_eq!(batched.version(), one_by_one.version());
            assert!(batched.ops.ops.len() <= MAX_PENDING_OPS);
            assert_eq!(
                q.execute(&batched).unwrap(),
                q.execute(&one_by_one).unwrap()
            );
        }
    }

    #[test]
    fn consecutive_batches_under_the_bound_keep_the_views() {
        // Each batch leaves its ops in the log until the next prune; the
        // absorbed prefix must not count towards the eviction bound.
        let engine = Engine::new();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let shared = engine.session().into_shared();
        assert!(shared.execute(&q).unwrap().is_empty());
        for batch in 0..3 {
            let mut delta = Delta::new();
            for i in 0..MAX_PENDING_OPS - 1 {
                delta = delta.insert("p", &[&format!("b{batch}x{i}")]);
            }
            shared.apply(&delta);
            assert_eq!(shared.snapshot().plans(), 1, "batch {batch}");
        }
        assert_eq!(shared.execute(&q).unwrap().len(), 3 * (MAX_PENDING_OPS - 1));
        assert_eq!(engine.stats().chase_runs, 1, "the view was never rebuilt");
    }

    #[test]
    fn the_published_plan_map_is_bounded_without_writes() {
        let engine = Engine::new();
        let mut session = engine.session();
        for i in 0..4 {
            session.add_fact("p", &[&format!("c{i}"), &format!("v{i}")]);
        }
        let shared = session.into_shared();
        // Distinct plans: each selects the rows of one constant.
        let plans: Vec<(PreparedQuery, String)> = (0..3 * MAX_CACHED_OUTCOMES)
            .map(|i| {
                let c = format!("c{}", i % 4);
                let text = format!("p({c}, ?V), ?V != never{i} -> out(?V).");
                (
                    engine.prepare(Datalog(&text, "out")).unwrap(),
                    format!("v{}", i % 4),
                )
            })
            .collect();
        for round in 0..2 {
            for (q, expected) in &plans {
                let answers = shared.execute(q).unwrap();
                assert_eq!(answers.len(), 1, "round {round}");
                assert!(answers.contains(&[expected]), "round {round}");
                assert!(shared.snapshot().plans() <= MAX_CACHED_OUTCOMES);
            }
        }
        assert_eq!(shared.version(), 4, "reads never move the version");
    }

    #[test]
    fn materializing_a_plan_carries_the_other_plans_answers_forward() {
        let engine = Engine::new();
        let a = engine.prepare(Datalog("p(?X) -> a(?X).", "a")).unwrap();
        let b = engine.prepare(Datalog("p(?X) -> b(?X).", "b")).unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["x"]);
        let shared = session.into_shared();
        shared.execute(&a).unwrap();
        let before = shared.snapshot();
        shared.execute(&b).unwrap();
        // A redundant insert changes nothing, so nothing is re-extracted.
        assert_eq!(shared.apply(&Delta::new().insert("p", &["x"])).inserted, 0);
        let after = shared.snapshot();
        assert_eq!(after.plans(), 2);
        assert!(Arc::ptr_eq(
            before.answers(&a).unwrap(),
            after.answers(&a).unwrap()
        ));
        // An effective one is absorbed by every view.
        shared.apply(&Delta::new().insert("p", &["y"]));
        let moved = shared.snapshot();
        assert!(!Arc::ptr_eq(
            after.answers(&a).unwrap(),
            moved.answers(&a).unwrap()
        ));
        assert_eq!(after.try_execute(&a).unwrap().len(), 1);
        assert_eq!(moved.try_execute(&a).unwrap().len(), 2);
        // …but one that leaves a plan's answers equal republishes the
        // same set under the new version.
        shared.apply(&Delta::new().insert("r", &["z"]));
        let unmoved = shared.snapshot();
        assert_eq!(unmoved.version(), moved.version() + 1);
        assert!(Arc::ptr_eq(
            moved.answers(&a).unwrap(),
            unmoved.answers(&a).unwrap()
        ));
    }

    #[test]
    fn prepared_queries_follow_the_maintained_view() {
        // Recursive rules + negation through the facade, mutated live.
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog(
                "e(?X, ?Y) -> t(?X, ?Y).\n\
                 e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                 t(?X, ?Y) -> out(?X, ?Y).",
                "out",
            ))
            .unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        session.add_fact("e", &["b", "c"]);
        assert_eq!(q.execute(&session).unwrap().len(), 3);
        session.add_fact("e", &["c", "d"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 6);
        assert!(answers.contains(&["a", "d"]));
        session.remove_fact("e", &["b", "c"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(!answers.contains(&["a", "d"]));
        // The maintained view must agree with a fresh session.
        let fresh = engine.load_database(session.database().clone());
        assert_eq!(q.execute(&fresh).unwrap(), q.execute(&session).unwrap());
    }

    #[test]
    fn streaming_matches_materialized() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?X, ?P, ?Y) -> pair(?X, ?Y).", "pair"))
            .unwrap();
        let session = engine.load_graph(g2());
        let materialized = q.execute(&session).unwrap();
        let mut streamed: Vec<Vec<Symbol>> = q.execute_iter(&session).unwrap().collect();
        streamed.sort();
        let expected: Vec<Vec<Symbol>> = materialized.tuples().iter().cloned().collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn semantics_selection_and_default() {
        let engine = Engine::builder()
            .default_semantics(Semantics::RegimeAll)
            .build();
        let pattern = parse_pattern("{ ?X eats _:B }").unwrap();
        let q_default = engine.prepare(&pattern).unwrap();
        assert_eq!(q_default.semantics(), Some(Semantics::RegimeAll));
        let q_pinned = engine.prepare((&pattern, Semantics::Plain)).unwrap();
        assert_eq!(q_pinned.semantics(), Some(Semantics::Plain));
    }

    #[test]
    fn output_in_body_is_rejected_with_code() {
        let engine = Engine::new();
        let err = engine.prepare(Datalog("q(?X) -> r(?X).", "q")).unwrap_err();
        assert_eq!(err.code(), "E-OUTPUT-IN-BODY");
    }

    #[test]
    fn bindings_of_errors_on_inconsistent_graph() {
        let engine = Engine::new();
        let session = engine
            .load_turtle(
                "cat owl:disjointWith dog .\n\
                 cat rdf:type owl:Class .\n\
                 dog rdf:type owl:Class .\n\
                 felix rdf:type cat .\n\
                 felix rdf:type dog .",
            )
            .unwrap();
        let q = engine
            .prepare((
                parse_pattern("{ ?X rdf:type cat }").unwrap(),
                Semantics::RegimeU,
            ))
            .unwrap();
        // mappings() reports ⊤ explicitly…
        assert!(q.mappings(&session).unwrap().is_top());
        // …while the flat binding list refuses to flatten it away.
        assert!(q.bindings_of(&session, "X").is_err());
    }

    #[test]
    fn mappings_on_datalog_query_errors() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?X, ?P, ?Y) -> out(?X).", "out"))
            .unwrap();
        let session = engine.session();
        assert!(q.mappings(&session).is_err());
    }

    #[test]
    fn libraries_are_unioned_at_prepare_time() {
        let engine = Engine::builder()
            .library(crate::engine::same_as_regime_library())
            .build();
        let pattern = parse_pattern("{ ?Y is_author_of ?Z . ?Y name ?X }").unwrap();
        let q = engine.prepare((pattern, Semantics::RegimeU)).unwrap();
        let session = engine
            .load_turtle(
                "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman owl:sameAs yagoUllman .\n\
             yagoUllman name \"Jeffrey Ullman\" .",
            )
            .unwrap();
        let names = q.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }
}
