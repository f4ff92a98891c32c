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
//!   for an RDF [`Graph`] `G` — plus **maintained** chase state: every
//!   mutation ([`Session::insert_triple`], [`Session::remove_fact`],
//!   … — all of them [`Session::apply_delta`]) is absorbed by every
//!   maintained view when it lands (delta-chase inserts, DRed deletes —
//!   see `triq_datalog::incremental`) instead of discarding the
//!   materialization, so re-executing a prepared query is a lookup;
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
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use triq_common::{Delta, Fact, Result, Symbol, Term, TriqError, VarId};
use triq_datalog::persist::PlanKey;
use triq_datalog::{
    classify_program, demand, AnswerIter, Answers, ChaseConfig, ChaseOutcome, ChaseRunner,
    ChaseStats, Database, DeltaSummary, MaterializedView, Program, ProgramClassification, Unions,
};
use triq_obs::{Counter, Counters, Phase, Recorder, Timer};
use triq_owl2ql::{tau_db, tau_owl2ql_core, tau_owl2ql_unions};
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
            version: 0,
            views: Mutex::default(),
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
        let (program, output, decode, unions) = match spec {
            QuerySpec::Sparql { pattern, semantics } => {
                let semantics = semantics.unwrap_or(self.inner.default_semantics);
                let translated = match semantics {
                    Semantics::Plain => translate_pattern(&pattern)?,
                    Semantics::RegimeU => translate_pattern_u(&pattern)?,
                    Semantics::RegimeAll => translate_pattern_all(&pattern)?,
                };
                let unions = translated.unions();
                let decode = SparqlDecode {
                    vars: translated.vars,
                    semantics,
                };
                (
                    translated.program,
                    translated.answer_pred,
                    Some(decode),
                    unions,
                )
            }
            QuerySpec::Datalog { program, output } => (program, output, None, Unions::none()),
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
        let mut runner = ChaseRunner::with_unions(program, unions, config)?;
        runner.set_recorder(self.inner.recorder.clone());
        self.inner.counters.add(Counter::PreparedQueries, 1);
        let key = PlanKey::of(&runner);
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
    /// engine's configuration for them on first use. The regime's are
    /// `τ_owl2ql_core` served through its union reads.
    fn fixed(&self, regime: bool) -> Option<Arc<ViewPlan>> {
        let build = || {
            let (mut program, unions) = if regime {
                (tau_owl2ql_core(), tau_owl2ql_unions())
            } else {
                (Program::new(), Unions::none())
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
            let mut runner = ChaseRunner::with_unions(program, unions, config).ok()?;
            runner.set_recorder(self.inner.recorder.clone());
            Some(Arc::new(ViewPlan {
                key: PlanKey::of(&runner),
                runner,
                role: Role::Base,
            }))
        };
        self.inner.fixed[usize::from(regime)]
            .get_or_init(build)
            .clone()
    }

    /// Whether a plan of this engine can ask for a view restored from a
    /// snapshot. A snapshot written before the regime was served holds
    /// its regime views literal, under keys no regime plan asks for any
    /// more; recovery drops them (and the views stacked on them) instead
    /// of maintaining them forever. A base must hold the engine's fixed
    /// rules as they are served. A whole program is a regime plan's
    /// literal view when it runs under the regime configuration, starts
    /// with the regime's fixed rules and reads them without the regime's
    /// unions; a demand view (its rewrite names reserved predicates) is
    /// kept, since a served plan's whole program is rewritten literally
    /// too. A Datalog plan that spells the fixed rules out runs under
    /// the plain configuration and is kept; only one reconfigured to the
    /// regime's is taken for an old regime view and chased again.
    pub(crate) fn asks_for(&self, base: bool, runner: &ChaseRunner) -> bool {
        if base {
            return [self.fixed(false), self.fixed(true)]
                .iter()
                .flatten()
                .any(|fixed| fixed.runner.text() == runner.text());
        }
        let Some(regime) = self.fixed(true) else {
            return true;
        };
        let program = runner.program();
        let literal_regime = runner.config() == regime.runner.config()
            && runner.unions() != regime.runner.unions()
            && program.rules.starts_with(&regime.runner.program().rules)
            && !program.schema().keys().any(|&p| demand::is_reserved(p));
        !literal_regime
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
                key: PlanKey::of(&fixed),
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
        match ChaseRunner::with_unions(layer, base.runner.unions().clone(), config) {
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
        // A layer reads its base's unions; a whole program is rewritten
        // with its copy rules, so it is chased literally.
        let unions = match &view.role {
            Role::Stacked(_) => view.runner.unions().clone(),
            Role::Flat | Role::Base => Unions::none(),
        };
        match ChaseRunner::with_unions(rewritten.program, unions, config) {
            Ok(mut drunner) => {
                drunner.set_recorder(self.inner.recorder.clone());
                self.inner.counters.add(Counter::DemandRewrites, 1);
                let (key, role) = match &view.role {
                    Role::Stacked(base) => (
                        PlanKey::served(
                            &base.runner.program().union(drunner.program()),
                            base.runner.unions(),
                            &config,
                        ),
                        Role::Stacked(base.clone()),
                    ),
                    Role::Flat | Role::Base => (PlanKey::of(&drunner), Role::Flat),
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

/// Upper bound on maintained plan views per session, recovered ones
/// included; base views do not count against it. A view holds the whole
/// materialized instance (plus maintenance state), so the table is kept
/// small; a new view arriving at a full table clears every plan view
/// (coarse, but bounded — recomputation is always correct).
const MAX_CACHED_OUTCOMES: usize = 32;

/// A session's maintained views. A view of the engine's fixed rules
/// lives in `bases`; every other view — chased alone, or stacked on a
/// base it names — lives in `plans`, so a stacked view can change while
/// its base is read. A view is filed only once its chase returned.
#[derive(Debug, Default)]
pub(crate) struct Views {
    pub(crate) bases: HashMap<PlanKey, View>,
    pub(crate) plans: HashMap<PlanKey, View>,
}

/// A built view, with the answers asked of it.
#[derive(Debug)]
pub(crate) struct View {
    pub(crate) view: MaterializedView,
    /// The key in [`Views::bases`] of the base a stacked view is over.
    pub(crate) base: Option<PlanKey>,
    /// The output predicates asked of this view so far (a view is Π(D);
    /// a query restricts it to one predicate), each with its answers.
    answers: Vec<(Symbol, Extracted)>,
}

/// `Q(D)` as last extracted for publication, with the session version
/// it was extracted at: current exactly when that is still the
/// session's version, since every effective write moves the version
/// and every view absorbs it.
type Extracted = Option<(u64, Arc<Answers>)>;

impl View {
    /// `view`, over the base filed under `base` when stacked; nothing
    /// asked yet.
    pub(crate) fn new(view: MaterializedView, base: Option<PlanKey>) -> View {
        View {
            view,
            base,
            answers: Vec::new(),
        }
    }

    /// The outcome that answers `output`, recording that it is asked.
    fn hand_out(&mut self, output: Symbol, base: Option<&MaterializedView>) -> Arc<ChaseOutcome> {
        if !self.answers.iter().any(|(asked, _)| *asked == output) {
            self.answers.push((output, None));
        }
        answering(&self.view, base, output).clone()
    }

    /// The answers of every output asked of this view, stamped with
    /// `version`: re-extracted only where the stamp is stale, and a
    /// re-extraction that finds `Q(D)` equal to what was published keeps
    /// the published `Arc<Answers>`.
    fn extract(
        &mut self,
        base: Option<&MaterializedView>,
        version: u64,
    ) -> Vec<(Symbol, Arc<Answers>)> {
        let view = &self.view;
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
        self.answers.iter_mut().map(extract).collect()
    }
}

impl Views {
    /// Serves `output` from the view filed under `key`, over its base
    /// when stacked; `None` when the table holds no such view.
    fn serve(&mut self, key: &PlanKey, output: Symbol) -> Option<Arc<ChaseOutcome>> {
        let Some(view) = self.plans.get_mut(key) else {
            return Some(self.bases.get_mut(key)?.hand_out(output, None));
        };
        let base = match &view.base {
            Some(base) => Some(&self.bases.get(base)?.view),
            None => None,
        };
        Some(view.hand_out(output, base))
    }

    /// Files a freshly chased view under `key`, a key the table does not
    /// hold — a chase run, counted here. Arriving at a full table, it
    /// clears every plan view first; bases survive the clear.
    fn file(&mut self, key: &PlanKey, view: View, base: bool, counters: &Counters) {
        counters.add(Counter::ChaseRuns, 1);
        view.view.outcome().stats.count_into(counters);
        if self.plans.len() >= MAX_CACHED_OUTCOMES {
            self.plans.clear();
        }
        let map = if base {
            &mut self.bases
        } else {
            &mut self.plans
        };
        map.insert(key.clone(), view);
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
/// between all such plans. The table sits behind the session's one lock,
/// which an execution holds for its whole lookup-or-build, so executions
/// against one session run one at a time.
///
/// [`Session::apply_delta`] is the one place views change: every write
/// folds into the database and every view absorbs it at once, as an
/// incremental delta (semi-naive insert frontiers, DRed deletes —
/// through labeled nulls too, under the default skolem chase). A view in
/// the table is therefore always current, and executing a plan it
/// answers is a lookup. [`Session::invalidate`] remains the explicit
/// full-rebuild escape hatch; a view re-chases on its own only for a
/// [`RebuildReason`](triq_datalog::RebuildReason), counted as
/// `view_rebuilds`.
#[derive(Debug)]
pub struct Session {
    pub(crate) engine: Engine,
    pub(crate) db: Database,
    /// The number of effective extensional operations absorbed over the
    /// session's lifetime.
    pub(crate) version: u64,
    /// A panic inside a chase poisons this lock, but the table changes
    /// only once a build succeeded (or by a wholesale clear), so a
    /// poisoned guard is still consistent and every user recovers it.
    pub(crate) views: Mutex<Views>,
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
    /// Maintained chase state absorbs the change incrementally.
    pub fn insert_triple(&mut self, s: &str, p: &str, o: &str) {
        self.add_fact("triple", &[s, p, o]);
    }

    /// Removes an RDF triple. Returns `true` if it was present;
    /// maintained chase state absorbs the deletion incrementally
    /// (delete-and-rederive).
    pub fn remove_triple(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.remove_fact("triple", &[s, p, o])
    }

    /// Adds a raw Datalog fact; maintained chase state absorbs it
    /// incrementally.
    pub fn add_fact(&mut self, pred: &str, constants: &[&str]) {
        self.apply_delta(&Delta::new().insert(pred, constants));
    }

    /// Removes a raw Datalog fact; returns `true` if it was present.
    pub fn remove_fact(&mut self, pred: &str, constants: &[&str]) -> bool {
        self.apply_delta(&Delta::new().delete(pred, constants)).1 == 1
    }

    /// Applies a whole [`Delta`] to the session's extensional data:
    /// deletes first, then inserts (the [`Delta`] contract) — the one
    /// mutation routine; the single-fact mutators are one-fact deltas.
    /// Returns `(inserted, deleted)` — the counts of facts that actually
    /// changed (redundant operations are no-ops and do not move the
    /// version). Every maintained view then absorbs the effective facts,
    /// in delta order, as one delta.
    ///
    /// Facts over the reserved `~d~` namespace are skipped like redundant
    /// operations: those predicates belong to the demand rewrite, whose
    /// views carry their own seed fact, and are never data.
    pub fn apply_delta(&mut self, delta: &Delta) -> (usize, usize) {
        let effective = self.fold(delta);
        self.absorb(&effective);
        (effective.inserts.len(), effective.deletes.len())
    }

    /// Folds `delta` into the database alone and returns its effective
    /// facts in delta order; the version moves by their count.
    pub(crate) fn fold(&mut self, delta: &Delta) -> Delta {
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
        let mut effective = Delta::new();
        for f in &delta.deletes {
            if is_data(f.pred) && self.db.remove_row(f.pred, &f.args) {
                effective.add_delete(f.clone());
            }
        }
        for f in &delta.inserts {
            if is_data(f.pred) && self.db.add_row(f.pred, &f.args) {
                effective.add_insert(f.clone());
            }
        }
        self.version += effective.len() as u64;
        effective
    }

    /// Has every view absorb `effective`, a change the database already
    /// holds: bases first, then the other views, each stacked one over
    /// its base. A view whose apply fails is dropped (it rebuilds on its
    /// next execution) together with the views stacked on it, rather
    /// than poisoning the whole session.
    pub(crate) fn absorb(&mut self, effective: &Delta) {
        if effective.is_empty() {
            return;
        }
        let counters = &self.engine.inner.counters;
        let Views { bases, plans } = self.views.get_mut().unwrap_or_else(PoisonError::into_inner);
        let apply = |view: &mut MaterializedView, base: Option<&MaterializedView>| {
            let applied = match base {
                None => view.apply(effective),
                Some(base) => view.apply_over(effective, base),
            };
            applied
                .map(|summary| count_delta(counters, &summary))
                .is_ok()
        };
        bases.retain(|_, base| apply(&mut base.view, None));
        plans.retain(|_, view| match &view.base {
            None => apply(&mut view.view, None),
            Some(key) => bases
                .get(key)
                .is_some_and(|base| apply(&mut view.view, Some(&base.view))),
        });
    }

    /// The snapshot to publish: per plan, the answers `Q(D)` of every
    /// output asked of its view — the publication step of the
    /// [`SharedSession`] writer. Answers are re-extracted only where
    /// their stamp is not the current version, and a re-extraction that
    /// finds `Q(D)` equal to what was published keeps the published
    /// `Arc<Answers>`; every plan whose answers did not change carries
    /// its previous `Arc` forward, so the cost is O(answer rows of the
    /// changed plans) and no handle to a view's instance ever leaves the
    /// session. A recovered view no query has asked for yet publishes
    /// nothing.
    fn extract_answers(&mut self) -> SessionSnapshot {
        let version = self.version;
        let Views { bases, plans } = self.views.get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut published = HashMap::with_capacity(bases.len() + plans.len());
        for (key, base) in bases.iter_mut() {
            published.insert(key.clone(), base.extract(None, version));
        }
        for (key, view) in plans.iter_mut() {
            let base = match &view.base {
                Some(base) => match bases.get(base) {
                    Some(base) => Some(&base.view),
                    None => continue,
                },
                None => None,
            };
            published.insert(key.clone(), view.extract(base, version));
        }
        published.retain(|_, answers| !answers.is_empty());
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
        self.views = Mutex::default();
    }

    /// The session version: the number of effective extensional
    /// operations this session has absorbed over its lifetime (the
    /// version readers of a [`SharedSession`] observe, and the version
    /// the durability layer stamps WAL records and snapshots with).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Convenience mirror of [`PreparedQuery::execute`].
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers> {
        query.execute(self)
    }

    /// The maintained outcome for `query`, building a view when none
    /// answers it. The table lock is held for the whole lookup-or-build.
    ///
    /// A view the session holds is served first, looked up in the order
    /// of [`PreparedQuery::view_keys`]. Otherwise one is built and filed
    /// under the key of the plan that was chased: the query's magic-set
    /// rewrite ([`DemandPlan`]) when it carries one — with the demand
    /// seed fact added to its facts; later mutations reach that view
    /// like any other — else the query's own program. A demand build
    /// that fails at runtime falls back to the full chase (counted in
    /// `demand_fallbacks`).
    fn outcome_for(&self, query: &PreparedQuery) -> Result<Arc<ChaseOutcome>> {
        let counters = &query.engine.inner.counters;
        let mut views = self.views.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(served) = query
            .view_keys()
            .find_map(|key| views.serve(key, query.output))
        {
            counters.add(Counter::CacheHits, 1);
            return Ok(served);
        }
        if let Some(plan) = query.demand.as_deref() {
            match self.build(&mut views, &plan.view, Some(&plan.seed), query) {
                Ok(outcome) => return Ok(outcome),
                // Budget exhausted or the rewritten chase failed at
                // runtime: count the fallback and serve the full plan.
                Err(_) => counters.add(Counter::DemandFallbacks, 1),
            }
        }
        self.build(&mut views, &query.view, None, query)
    }

    /// Builds the view `plan` describes, files it in `views` and serves
    /// `query` from it. A stacked view's base is built and filed first
    /// when missing. A build that fails files nothing.
    fn build(
        &self,
        views: &mut Views,
        plan: &ViewPlan,
        seed: Option<&Fact>,
        query: &PreparedQuery,
    ) -> Result<Arc<ChaseOutcome>> {
        let counters = &query.engine.inner.counters;
        let Role::Stacked(base_plan) = &plan.role else {
            let mut db = self.db.clone();
            if let Some(seed) = seed {
                db.add_row(seed.pred, &seed.args);
            }
            let mut view = View::new(MaterializedView::new(plan.runner.clone(), db)?, None);
            let outcome = view.hand_out(query.output, None);
            views.file(&plan.key, view, matches!(plan.role, Role::Base), counters);
            return Ok(outcome);
        };
        if !views.bases.contains_key(&base_plan.key) {
            let base = MaterializedView::new(base_plan.runner.clone(), self.db.clone())?;
            views.file(&base_plan.key, View::new(base, None), true, counters);
        }
        // The layer's own facts: those of the predicates it derives.
        let mut edb = self.db.select(plan.runner.program().head_predicates());
        if let Some(seed) = seed {
            edb.add_row(seed.pred, &seed.args);
        }
        let base = &views.bases[&base_plan.key].view;
        let layer = MaterializedView::stacked(plan.runner.clone(), edb, base)?;
        let mut view = View::new(layer, Some(base_plan.key.clone()));
        let outcome = view.hand_out(query.output, Some(base));
        views.file(&plan.key, view, false, counters);
        Ok(outcome)
    }
}

// ---------------------------------------------------------------------------
// SharedSession — concurrent snapshot-isolated reads over live views
// ---------------------------------------------------------------------------

/// An immutable, cross-plan-consistent picture of a [`SharedSession`] at
/// one session version.
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
    /// The session version this snapshot reflects.
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
    /// The session version readers observe from now on.
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
///   snapshot reflect the same session version.
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
    /// maintains appear in the first published snapshot.
    pub fn new(mut session: Session) -> SharedSession {
        let first = session.extract_answers();
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

    /// The session version readers currently observe.
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

    /// Like [`SharedSession::execute`], also returning the session
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

    /// Like [`SharedSession::mappings`], also returning the session
    /// version the mappings reflect (see
    /// [`SharedSession::execute_versioned`]).
    pub fn mappings_versioned(&self, query: &PreparedQuery) -> Result<(RegimeAnswers, u64)> {
        let (answers, version) = self.answers_versioned(query)?;
        Ok((query.mappings_from_answers(&answers)?, version))
    }

    /// The published answer set of `query` — shared, not copied — with
    /// the session version of the snapshot it came from, materializing
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

    /// Extracts the writer session's answers and swaps the resulting
    /// snapshot in. Callers hold the writer lock, so publications are serialized.
    fn publish(&self, session: &mut Session) -> Arc<SessionSnapshot> {
        let next = Arc::new(session.extract_answers());
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
            self.key = PlanKey::of(&self.runner);
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
    /// the session's maintained view, which absorbed every mutation as
    /// it landed: a lookup, and a full chase only the first time (or
    /// after `invalidate()`).
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
        // A multi-fact batch reaches the view as one delta…
        let batch = Delta::new()
            .delete("p", &["a", "b"])
            .insert("p", &["e", "f"])
            .insert("p", &["g", "h"]);
        assert_eq!(session.apply_delta(&batch), (2, 1));
        assert_eq!(engine.stats().deltas_applied, 1, "one delta per batch");
        // …and each one-fact mutator as one of its own.
        session.add_fact("p", &["c", "d"]);
        assert!(session.remove_fact("p", &["c", "d"]));
        assert_eq!(engine.stats().deltas_applied, 3);
        // Removing a never-present fact is a no-op, not a delta.
        assert!(!session.remove_fact("p", &["zz", "zz"]));
        assert_eq!(engine.stats().deltas_applied, 3);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(!answers.contains(&["a"]) && !answers.contains(&["c"]));
        assert_eq!(engine.stats().chase_runs, runs, "no full re-chase");
    }

    #[test]
    fn consecutive_batches_under_the_bound_keep_the_views() {
        // Large batches in a row are each absorbed by the live view at
        // the write; none of them costs the view its place.
        let engine = Engine::new();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let shared = engine.session().into_shared();
        assert!(shared.execute(&q).unwrap().is_empty());
        for batch in 0..3 {
            let mut delta = Delta::new();
            for i in 0..4095 {
                delta = delta.insert("p", &[&format!("b{batch}x{i}")]);
            }
            shared.apply(&delta);
            assert_eq!(shared.snapshot().plans(), 1, "batch {batch}");
        }
        assert_eq!(shared.execute(&q).unwrap().len(), 3 * 4095);
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
    fn a_failed_build_takes_no_slot() {
        let engine = Engine::new();
        let mut session = engine.session();
        for i in 0..30 {
            session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let closure = |i: usize| {
            format!(
                "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                 t(?X, ?Y), ?X != never{i} -> out(?X, ?Y)."
            )
        };
        let good = engine.prepare(Datalog(&closure(0), "out")).unwrap();
        assert_eq!(good.execute(&session).unwrap().len(), 465);
        let runs = engine.stats().chase_runs;
        // Each of these runs out of its atom budget.
        for i in 1..=40 {
            let q = engine.prepare(Datalog(&closure(i), "out")).unwrap();
            let config = ChaseConfig {
                max_atoms: 50,
                ..q.config()
            };
            let err = q.with_config(config).execute(&session).unwrap_err();
            assert_eq!(err.code(), "E-RESOURCE");
        }
        assert_eq!(good.execute(&session).unwrap().len(), 465);
        assert_eq!(engine.stats().chase_runs, runs, "the good view was kept");
    }

    #[test]
    fn a_panic_inside_a_chase_costs_one_execution() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Panics on the first stratum span it is asked to open.
        #[derive(Debug, Default)]
        struct PanicOnce(AtomicBool);
        impl Recorder for PanicOnce {
            fn begin_span(&self, name: &'static str, _detail: u64) -> u64 {
                if name == "stratum" && !self.0.swap(true, Ordering::SeqCst) {
                    panic!("injected panic inside a chase");
                }
                0
            }
        }

        let engine = Engine::builder()
            .recorder(Arc::new(PanicOnce::default()))
            .build();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["a"]);
        let first = catch_unwind(AssertUnwindSafe(|| q.execute(&session)));
        assert!(first.is_err(), "the first chase panics");
        assert!(q.execute(&session).unwrap().contains(&["a"]));
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
