//! Demand-driven evaluation: the magic-set rewrite for point queries.
//!
//! The chase materializes the **whole** fixpoint of a program even when
//! the query will only ever look at a tiny slice of it — `t(n0, ?Y)`
//! over a transitive closure pays for every pair, then throws all but
//! one source away. The classic remedy is the *magic-set* transformation
//! (Bancilhon–Maier–Sagiv–Ullman; Balbin–Port–Ramamohanarao–Meenakshi
//! for the stratified-negation case): specialize each intensional
//! predicate by an *adornment* recording which argument positions arrive
//! bound, guard every specialized rule with a *magic* predicate that
//! enumerates exactly the demanded bindings, and seed the magic
//! predicates from the query's constants. The rewritten program derives
//! only the cone of facts reachable from the demand seeds, yet — when it
//! stratifies — has the same certain answers as the original.
//!
//! [`rewrite`] performs that transformation for a prepared `(Π, out)`
//! query. It is deliberately conservative: whenever the rewrite cannot
//! *prove* answer equivalence it reports a [`DemandFallback`] and the
//! caller runs the full chase instead. The fallback taxonomy, and the
//! equivalence argument for the cases that are accepted, are spelled out
//! in `docs/ARCHITECTURE.md` ("Demand-driven evaluation").
//!
//! ## Shape of the rewritten program
//!
//! For each demanded predicate `p` with adornment `a` (a `b`/`f` string,
//! one letter per argument position):
//!
//! * `~d~a~p` — the adorned copy of `p`, holding the demanded slice;
//! * `~d~m~a~p` — the magic predicate, holding the demanded bindings of
//!   `p`'s bound positions (arity = number of `b`s);
//! * one *adorned rule* per original rule deriving `p`: the original
//!   body prefixed with the magic guard, with demanded intensional
//!   subgoals renamed to their adorned copies;
//! * one *magic rule* per demanded body occurrence, deriving the callee's
//!   magic predicate from the guard plus the body prefix left of the
//!   occurrence (a full left-to-right sideways-information-passing
//!   strategy);
//! * one *copy rule* `~d~m~a~p(..bound..), p(?A0, …) → ~d~a~p(?A0, …)`
//!   importing extensional facts of `p` (predicates may be both stored
//!   and derived);
//! * *seed rules* `~d~seed(~d~on) → ~d~m~a~p(c₁, …)` for demanded
//!   occurrences whose bound positions are all constants before any body
//!   atom has run (the query's entry points). The single extensional
//!   fact `~d~seed(~d~on)` — [`DemandProgram::seed`], which the caller
//!   must add to the database — exists because rules need a non-empty
//!   positive body (§3.2 condition n ≥ 1).
//!
//! Predicates forced into the *full set* `F` (constraint support,
//! all-free occurrences, multi-head derivations) keep their original
//! rules and names verbatim; rules deriving predicates that end up
//! neither demanded nor in `F` are dropped — they cannot influence the
//! answers.

use crate::program::{Program, Rule};
use crate::{Atom, Builtin};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
use triq_common::{Fact, Symbol, Term, TriqError, VarId};

/// Reserved name prefix of every predicate the rewrite invents. Programs
/// that already use it are rejected — here with [`DemandFallback::Shape`],
/// by the facade already at prepare — rather than risking a collision.
/// The `~` is legal in identifiers, so rewritten programs survive the
/// program-text round-trip of the persistence layer.
pub const DEMAND_PREFIX: &str = "~d~";

/// Whether `pred` lies in the namespace [`DEMAND_PREFIX`] reserves.
pub fn is_reserved(pred: Symbol) -> bool {
    pred.as_str().starts_with(DEMAND_PREFIX)
}

/// The refusal (`E-INVALID-PROGRAM`) a program or a data fact naming a
/// reserved predicate gets at the facade and on the wire.
pub fn reject_reserved(pred: Symbol) -> Result<(), TriqError> {
    if is_reserved(pred) {
        return Err(TriqError::InvalidProgram(
            "`~d~` predicate names are reserved".into(),
        ));
    }
    Ok(())
}

/// How the facade chooses between demand-driven and full evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DemandMode {
    /// Rewrite when possible and evaluate the demanded cone, unless a
    /// live or recovered materialization of the full fixpoint already
    /// exists (then the lookup is cheaper than any chase).
    #[default]
    Auto,
    /// Always chase the full program.
    Off,
    /// Always evaluate the rewritten program when the rewrite succeeds
    /// (diagnostics / differential testing; falls back to the full chase
    /// only when the rewrite itself reports a [`DemandFallback`]).
    Force,
}

impl fmt::Display for DemandMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DemandMode::Auto => "auto",
            DemandMode::Off => "off",
            DemandMode::Force => "force",
        })
    }
}

impl std::str::FromStr for DemandMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(DemandMode::Auto),
            "off" => Ok(DemandMode::Off),
            "force" => Ok(DemandMode::Force),
            other => Err(format!(
                "invalid demand mode {other:?} (expected auto, off or force)"
            )),
        }
    }
}

/// Why [`rewrite`] declined to produce a demand program. Every variant
/// means "run the full chase"; the facade counts them as
/// `demand_fallbacks`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DemandFallback {
    /// No intensional body occurrence ever receives a binding: the query
    /// genuinely asks for the full fixpoint (e.g. `t(?X, ?Y) → out(?X,
    /// ?Y)`), so there is nothing to demand.
    Unbound,
    /// A demanded predicate is derived by an existential rule. Magic
    /// guards on ∃-rules can break wardedness and interact with the
    /// invention-depth bound, so the rewrite refuses rather than risk
    /// diverging answers.
    Existential,
    /// The rewritten program lost stratifiability: a magic predicate
    /// closed a cycle through a negated adorned subgoal. The original
    /// (stratified) program is evaluated in full instead.
    Unstratifiable,
    /// The program's shape is outside the rewrite's remit: an output
    /// rule sharing its head with another predicate, a predicate already
    /// using the reserved [`DEMAND_PREFIX`], or a rewritten program that
    /// failed validation.
    Shape,
}

impl fmt::Display for DemandFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DemandFallback::Unbound => "unbound query",
            DemandFallback::Existential => "existential rule demanded",
            DemandFallback::Unstratifiable => "rewrite breaks stratification",
            DemandFallback::Shape => "program shape outside the rewrite",
        })
    }
}

/// A successful magic-set rewrite: the program to chase and the one
/// extensional seed fact its magic seed rules fire from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DemandProgram {
    /// The rewritten program (adorned + magic + seed + copy rules, the
    /// retained full-set rules, and the original constraints).
    pub program: Program,
    /// The single extensional fact (`~d~seed(~d~on)`) the caller must
    /// add to the database before chasing [`DemandProgram::program`].
    pub seed: Fact,
    /// Number of `(predicate, adornment)` pairs that were demanded.
    pub demanded: usize,
    /// Number of magic + seed rules generated (the demand propagation
    /// skeleton; diagnostics only).
    pub magic_rules: usize,
}

/// The adorned copy of `pred` under `adornment` (`true` = bound).
pub fn adorned_symbol(pred: Symbol, adornment: &[bool]) -> Symbol {
    Symbol::new(&format!(
        "{DEMAND_PREFIX}{}~{pred}",
        adornment_letters(adornment)
    ))
}

/// The magic predicate of `pred` under `adornment` (arity = number of
/// bound positions).
pub fn magic_symbol(pred: Symbol, adornment: &[bool]) -> Symbol {
    Symbol::new(&format!(
        "{DEMAND_PREFIX}m~{}~{pred}",
        adornment_letters(adornment)
    ))
}

fn adornment_letters(adornment: &[bool]) -> String {
    adornment
        .iter()
        .map(|&b| if b { 'b' } else { 'f' })
        .collect()
}

/// The extensional seed fact every [`DemandProgram`] fires from.
fn seed_fact() -> Fact {
    Fact {
        pred: Symbol::new(&format!("{DEMAND_PREFIX}seed")),
        args: vec![Symbol::new(&format!("{DEMAND_PREFIX}on"))],
    }
}

fn seed_atom() -> Atom {
    let f = seed_fact();
    Atom::new(f.pred, vec![Term::Const(f.args[0])])
}

/// Internal control flow of one rewrite attempt: either the full set `F`
/// must grow (and the attempt restarts), or the whole rewrite is off.
enum Abort {
    /// `pred` cannot be demanded — move it to the full set and restart.
    Restart(Symbol),
    /// Give up on the rewrite entirely.
    Fail(DemandFallback),
}

/// Applies the magic-set transformation to `(program, output)`.
///
/// `output` must not occur in any rule body (the §3.2 side condition the
/// facade already enforces). On success the returned
/// [`DemandProgram::program`] is validated and stratified, and chasing
/// it over `D ∪ {seed}` yields the same certain answers for `output` as
/// chasing `program` over `D` — see `docs/ARCHITECTURE.md` for the
/// argument. On `Err` the caller must evaluate the original program.
pub fn rewrite(program: &Program, output: Symbol) -> Result<DemandProgram, DemandFallback> {
    // Reserved-prefix collision: refuse to generate names into a
    // namespace the program already touches.
    if program.schema().keys().any(|p| is_reserved(*p)) || is_reserved(output) {
        return Err(DemandFallback::Shape);
    }
    let idb = program.head_predicates();
    // The full set F: predicates whose original rules are kept verbatim.
    // Constraints must observe exactly the facts the full chase would
    // derive (answers can be ⊤), so every predicate a constraint reads —
    // and, transitively, everything those predicates are computed from —
    // is exempt from demand.
    let mut full: BTreeSet<Symbol> = program
        .constraints
        .iter()
        .flat_map(|c| c.body.iter().map(|a| a.pred))
        .filter(|p| idb.contains(p))
        .collect();
    // Each restart adds one predicate to F, so the loop runs at most
    // |idb| + 1 times.
    loop {
        close_full_set(&mut full, program, &idb);
        if full.contains(&output) {
            // Unreachable while the output-not-in-bodies side condition
            // holds; bail out defensively rather than mis-rewrite.
            return Err(DemandFallback::Shape);
        }
        match try_rewrite(program, output, &idb, &full) {
            Ok(result) => return Ok(result),
            Err(Abort::Restart(pred)) => {
                full.insert(pred);
            }
            Err(Abort::Fail(fallback)) => return Err(fallback),
        }
    }
}

/// Closes `full` under rule support: a predicate computed in full needs
/// every predicate in the bodies of its rules (and every co-head of
/// those rules, which the verbatim rules derive anyway) computed in full
/// too.
fn close_full_set(full: &mut BTreeSet<Symbol>, program: &Program, idb: &BTreeSet<Symbol>) {
    loop {
        let mut grew = false;
        for rule in &program.rules {
            if !rule.head.iter().any(|h| full.contains(&h.pred)) {
                continue;
            }
            for atom in rule
                .head
                .iter()
                .chain(rule.body_pos.iter())
                .chain(rule.body_neg.iter())
            {
                if idb.contains(&atom.pred) && full.insert(atom.pred) {
                    grew = true;
                }
            }
        }
        if !grew {
            return;
        }
    }
}

/// One rewrite attempt against a fixed full set.
struct Rewriter<'a> {
    program: &'a Program,
    idb: &'a BTreeSet<Symbol>,
    full: &'a BTreeSet<Symbol>,
    /// Rules deriving each predicate (indices into `program.rules`).
    derivers: BTreeMap<Symbol, Vec<usize>>,
    /// Demanded (predicate, adornment) pairs, with discovery queue.
    demanded: BTreeMap<Symbol, BTreeSet<Vec<bool>>>,
    queue: VecDeque<(Symbol, Vec<bool>)>,
    /// Predicates whose derivers passed the single-head / non-∃ checks.
    checked: HashSet<Symbol>,
    /// Generated adorned rules (with their magic rules interleaved in
    /// discovery order — the order only affects program text, which must
    /// simply be deterministic).
    generated: Vec<Rule>,
    magic_rules: usize,
}

fn try_rewrite(
    program: &Program,
    output: Symbol,
    idb: &BTreeSet<Symbol>,
    full: &BTreeSet<Symbol>,
) -> Result<DemandProgram, Abort> {
    let mut derivers: BTreeMap<Symbol, Vec<usize>> = BTreeMap::new();
    for (i, rule) in program.rules.iter().enumerate() {
        for head in &rule.head {
            let entry = derivers.entry(head.pred).or_default();
            if entry.last() != Some(&i) {
                entry.push(i);
            }
        }
    }
    let mut rw = Rewriter {
        program,
        idb,
        full,
        derivers,
        demanded: BTreeMap::new(),
        queue: VecDeque::new(),
        checked: HashSet::new(),
        generated: Vec::new(),
        magic_rules: 0,
    };

    // Rewrite the output rules first (no guard, nothing bound): they are
    // where demand enters the program.
    let mut out_rules: Vec<Rule> = Vec::new();
    for rule in &program.rules {
        if !rule.head.iter().any(|h| h.pred == output) {
            continue;
        }
        if rule.head.iter().any(|h| h.pred != output) {
            // A co-head would be computed only under this rule's demand,
            // but other consumers expect its full extension.
            return Err(Abort::Fail(DemandFallback::Shape));
        }
        let (body_pos, body_neg) = rw.rewrite_body(rule, None, BTreeSet::new())?;
        out_rules.push(Rule {
            body_pos,
            body_neg,
            builtins: rule.builtins.clone(),
            exist_vars: rule.exist_vars.clone(),
            head: rule.head.clone(),
        });
    }

    // Drain the demand queue: each demanded (p, a) gets adorned copies
    // of p's rules plus the extensional copy rule.
    while let Some((pred, adornment)) = rw.queue.pop_front() {
        for &i in &rw.derivers.get(&pred).cloned().unwrap_or_default() {
            let rule = &program.rules[i];
            let head = &rule.head[0];
            let guard_terms: Vec<Term> = bound_terms(&head.terms, &adornment);
            let guard = Atom::new(magic_symbol(pred, &adornment), guard_terms);
            let bound0: BTreeSet<VarId> = guard.vars().collect();
            let (body_pos, body_neg) = rw.rewrite_body(rule, Some(guard), bound0)?;
            rw.generated.push(Rule {
                body_pos,
                body_neg,
                builtins: rule.builtins.clone(),
                exist_vars: Vec::new(),
                head: vec![Atom::new(
                    adorned_symbol(pred, &adornment),
                    head.terms.clone(),
                )],
            });
        }
        // Copy rule: extensional facts of `pred` join the demanded slice.
        let all_vars: Vec<Term> = (0..adornment.len())
            .map(|i| Term::Var(VarId::new(&format!("DV{i}"))))
            .collect();
        let guard = Atom::new(
            magic_symbol(pred, &adornment),
            bound_terms(&all_vars, &adornment),
        );
        rw.generated.push(Rule {
            body_pos: vec![guard, Atom::new(pred, all_vars.clone())],
            body_neg: Vec::new(),
            builtins: Vec::new(),
            exist_vars: Vec::new(),
            head: vec![Atom::new(adorned_symbol(pred, &adornment), all_vars)],
        });
    }

    if rw.demanded.is_empty() {
        return Err(Abort::Fail(DemandFallback::Unbound));
    }

    // Assemble: retained full-set rules (original order), rewritten
    // output rules, then the generated demand skeleton; constraints ride
    // along verbatim.
    let mut rules: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| r.head.iter().any(|h| full.contains(&h.pred)))
        .cloned()
        .collect();
    rules.extend(out_rules);
    let demanded_pairs = rw.demanded.values().map(|s| s.len()).sum();
    let magic_rules = rw.magic_rules;
    rules.extend(rw.generated);
    let rewritten = Program {
        rules,
        constraints: program.constraints.clone(),
    };
    if rewritten.validate().is_err() {
        debug_assert!(false, "demand rewrite produced an invalid program");
        return Err(Abort::Fail(DemandFallback::Shape));
    }
    if crate::stratify(&rewritten).is_err() {
        return Err(Abort::Fail(DemandFallback::Unstratifiable));
    }
    Ok(DemandProgram {
        program: rewritten,
        seed: seed_fact(),
        demanded: demanded_pairs,
        magic_rules,
    })
}

/// The terms at the bound positions of `adornment`, in position order.
fn bound_terms(terms: &[Term], adornment: &[bool]) -> Vec<Term> {
    terms
        .iter()
        .zip(adornment)
        .filter(|(_, &b)| b)
        .map(|(&t, _)| t)
        .collect()
}

impl Rewriter<'_> {
    /// True iff a body occurrence of `pred` is rewritten to an adorned
    /// copy (intensional and not exempted into the full set).
    fn demandable(&self, pred: Symbol) -> bool {
        self.idb.contains(&pred) && !self.full.contains(&pred)
    }

    /// Checks that every rule deriving `pred` is single-head and
    /// non-existential; otherwise demand for it is impossible.
    fn check_derivers(&mut self, pred: Symbol) -> Result<(), Abort> {
        if !self.checked.insert(pred) {
            return Ok(());
        }
        for &i in self.derivers.get(&pred).map(Vec::as_slice).unwrap_or(&[]) {
            let rule = &self.program.rules[i];
            if rule.is_existential() {
                return Err(Abort::Fail(DemandFallback::Existential));
            }
            if rule.head.len() > 1 {
                // The rule's co-heads would be derived only under this
                // demand; compute the predicate in full instead.
                return Err(Abort::Restart(pred));
            }
        }
        Ok(())
    }

    /// Registers demand for `(pred, adornment)`.
    fn demand(&mut self, pred: Symbol, adornment: Vec<bool>) -> Result<(), Abort> {
        self.check_derivers(pred)?;
        if self
            .demanded
            .entry(pred)
            .or_default()
            .insert(adornment.clone())
        {
            self.queue.push_back((pred, adornment));
        }
        Ok(())
    }

    /// Rewrites one rule body under a full left-to-right SIP: `guard`
    /// (already an adorned/magic atom, if any) plus the variables in
    /// `bound0` are available before the first subgoal runs. Returns the
    /// rewritten positive and negated bodies; magic rules for demanded
    /// occurrences are appended to `self.generated`.
    fn rewrite_body(
        &mut self,
        rule: &Rule,
        guard: Option<Atom>,
        bound0: BTreeSet<VarId>,
    ) -> Result<(Vec<Atom>, Vec<Atom>), Abort> {
        let mut bound = bound0;
        let mut body_pos: Vec<Atom> = Vec::new();
        body_pos.extend(guard);
        for atom in &rule.body_pos {
            if self.demandable(atom.pred) {
                let adornment: Vec<bool> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => bound.contains(v),
                        _ => true,
                    })
                    .collect();
                if !adornment.iter().any(|&b| b) {
                    // Nothing to pass sideways: this occurrence needs the
                    // predicate's full extension.
                    return Err(Abort::Restart(atom.pred));
                }
                self.demand(atom.pred, adornment.clone())?;
                let magic_head = Atom::new(
                    magic_symbol(atom.pred, &adornment),
                    bound_terms(&atom.terms, &adornment),
                );
                self.magic_rules += 1;
                if body_pos.is_empty() {
                    // First subgoal of an output rule: the bound
                    // positions are all constants — a demand seed.
                    self.generated
                        .push(Rule::plain(vec![seed_atom()], magic_head));
                } else {
                    self.generated.push(Rule {
                        body_pos: body_pos.clone(),
                        body_neg: Vec::new(),
                        builtins: covered_builtins(&rule.builtins, &bound),
                        exist_vars: Vec::new(),
                        head: vec![magic_head],
                    });
                }
                body_pos.push(Atom::new(
                    adorned_symbol(atom.pred, &adornment),
                    atom.terms.clone(),
                ));
            } else {
                body_pos.push(atom.clone());
            }
            bound.extend(atom.vars());
        }
        // Negated subgoals run after the positive body, with every
        // variable bound (§3.2 condition 3) — their adornment is all-`b`
        // and their magic rule sees the whole positive body.
        let mut body_neg: Vec<Atom> = Vec::new();
        for atom in &rule.body_neg {
            if self.demandable(atom.pred) {
                let adornment = vec![true; atom.terms.len()];
                if adornment.is_empty() {
                    // A nullary predicate has no bound positions to
                    // demand through.
                    return Err(Abort::Restart(atom.pred));
                }
                self.demand(atom.pred, adornment.clone())?;
                self.magic_rules += 1;
                self.generated.push(Rule {
                    body_pos: body_pos.clone(),
                    body_neg: Vec::new(),
                    builtins: covered_builtins(&rule.builtins, &bound),
                    exist_vars: Vec::new(),
                    head: vec![Atom::new(
                        magic_symbol(atom.pred, &adornment),
                        atom.terms.clone(),
                    )],
                });
                body_neg.push(Atom::new(
                    adorned_symbol(atom.pred, &adornment),
                    atom.terms.clone(),
                ));
            } else {
                body_neg.push(atom.clone());
            }
        }
        Ok((body_pos, body_neg))
    }
}

/// The builtins whose variables are all in `bound` (safe to evaluate in
/// a magic rule whose body is the prefix that bound them — they narrow
/// the demand without changing it).
fn covered_builtins(builtins: &[Builtin], bound: &BTreeSet<VarId>) -> Vec<Builtin> {
    builtins
        .iter()
        .filter(|b| b.vars().all(|v| bound.contains(&v)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, Answers, ChaseConfig, ChaseRunner, Database};

    fn db(facts: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (pred, args) in facts {
            db.add_fact(pred, args);
        }
        db
    }

    /// Chases both programs and asserts equal answers; returns
    /// (full_derived, demand_derived).
    fn assert_equivalent(text: &str, output: &str, db: &Database) -> (usize, usize) {
        let program = parse_program(text).unwrap();
        let out = Symbol::new(output);
        let dp = rewrite(&program, out).expect("rewrite must succeed");
        let config = ChaseConfig::default();
        let full = ChaseRunner::new(program, config).unwrap().run(db).unwrap();
        let mut demand_db = db.clone();
        demand_db.add_row(dp.seed.pred, &dp.seed.args);
        let demand = ChaseRunner::new(dp.program.clone(), config)
            .unwrap()
            .run(&demand_db)
            .unwrap();
        assert_eq!(
            Answers::from_chase(&full, out),
            Answers::from_chase(&demand, out),
            "answers diverge for output {output}\nrewritten:\n{}",
            dp.program
        );
        (full.stats.derived, demand.stats.derived)
    }

    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                      t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                      t(n0, ?Y) -> out(?Y).";

    fn chain(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        // A second component the demanded cone never visits.
        for i in 0..n {
            db.add_fact("e", &[&format!("m{i}"), &format!("m{}", i + 1)]);
        }
        db
    }

    #[test]
    fn adornment_propagates_left_to_right() {
        let program = parse_program(TC).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let text = dp.program.to_string();
        // The left-linear recursion passes the bound first argument
        // through: one adornment, `bf`.
        assert_eq!(dp.demanded, 1, "{text}");
        assert!(text.contains("~d~bf~t"), "{text}");
        assert!(text.contains("~d~m~bf~t"), "{text}");
        // The query constant seeds the magic set…
        assert!(text.contains("~d~seed(~d~on) -> ~d~m~bf~t(n0)"), "{text}");
        // …and the recursive rule re-demands under the same adornment.
        assert!(
            text.contains("~d~m~bf~t(?X) -> ~d~m~bf~t(?X)"),
            "left-linear magic propagation:\n{text}"
        );
    }

    #[test]
    fn magic_evaluation_matches_full_chase_and_prunes() {
        let (full, demand) = assert_equivalent(TC, "out", &chain(40));
        // The demanded cone is the single-source closure: far smaller
        // than the all-pairs closure over both components.
        assert!(
            demand * 2 < full,
            "expected pruning, got full={full} demand={demand}"
        );
    }

    #[test]
    fn partially_bound_and_constant_adornments() {
        let text = "e(?X, ?Y) -> t(?X, ?Y).\n\
                    t(?X, ?Z), t(?Z, ?Y) -> t(?X, ?Y).\n\
                    t(n0, ?Y), t(?Y, n3) -> out(?Y).";
        let (_, _) = assert_equivalent(text, "out", &chain(8));
        let program = parse_program(text).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let rendered = dp.program.to_string();
        // First occurrence binds position 1, the second binds both (the
        // `?Y` flows in from the first subgoal).
        assert!(rendered.contains("~d~bf~t"), "{rendered}");
        assert!(rendered.contains("~d~bb~t"), "{rendered}");
    }

    #[test]
    fn negated_subgoals_are_demanded_fully_bound() {
        let text = "g(?X, ?Y) -> r(?X, ?Y).\n\
                    b(?X) -> p(?X).\n\
                    d(?X), !p(?X) -> out(?X).";
        let facts = db(&[
            ("d", &["a"]),
            ("d", &["b"]),
            ("b", &["a"]),
            ("g", &["x", "y"]),
        ]);
        assert_equivalent(text, "out", &facts);
        let program = parse_program(text).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let rendered = dp.program.to_string();
        assert!(rendered.contains("!~d~b~p"), "{rendered}");
        // The unreferenced r-rules are dropped from the demand program.
        assert!(!rendered.contains("r(?X, ?Y)"), "{rendered}");
    }

    #[test]
    fn extensional_facts_of_demanded_predicates_survive() {
        // `t` is both stored and derived: the copy rule must import the
        // stored tuples into the demanded slice.
        let facts = db(&[("e", &["n0", "n1"]), ("t", &["n0", "zz"])]);
        assert_equivalent(TC, "out", &facts);
    }

    #[test]
    fn unbound_query_falls_back() {
        let text = "e(?X, ?Y) -> t(?X, ?Y).\n\
                    t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                    t(?X, ?Y) -> out(?X, ?Y).";
        let program = parse_program(text).unwrap();
        assert_eq!(
            rewrite(&program, Symbol::new("out")),
            Err(DemandFallback::Unbound)
        );
    }

    #[test]
    fn existential_deriver_falls_back() {
        let text = "r(?X) -> exists ?N s(?X, ?N).\n\
                    d(?X), s(?X, ?Y) -> out(?X, ?Y).";
        let program = parse_program(text).unwrap();
        assert_eq!(
            rewrite(&program, Symbol::new("out")),
            Err(DemandFallback::Existential)
        );
    }

    #[test]
    fn magic_cycle_through_negation_falls_back() {
        // Stratified original: q < p < out. The magic rewrite would
        // close a negative cycle (p's adorned rule negates q's adorned
        // copy, whose magic set is fed from p's adorned copy by the
        // output rule's SIP), so the rewrite must refuse.
        let text = "b(?X), !q(?X) -> p(?X).\n\
                    f(?X) -> q(?X).\n\
                    d(?X), p(?X), e(?X, ?Z), q(?Z) -> out(?X, ?Z).";
        let program = parse_program(text).unwrap();
        crate::stratify(&program).expect("original must stratify");
        assert_eq!(
            rewrite(&program, Symbol::new("out")),
            Err(DemandFallback::Unstratifiable)
        );
    }

    #[test]
    fn multi_head_output_rule_falls_back() {
        let text = "a(?X) -> out(?X), extra(?X).";
        let program = parse_program(text).unwrap();
        assert_eq!(
            rewrite(&program, Symbol::new("out")),
            Err(DemandFallback::Shape)
        );
    }

    #[test]
    fn reserved_prefix_falls_back() {
        let text = "~d~x(?X) -> out(?X).";
        let program = parse_program(text).unwrap();
        assert_eq!(
            rewrite(&program, Symbol::new("out")),
            Err(DemandFallback::Shape)
        );
    }

    #[test]
    fn multi_head_deriver_moves_to_full_set() {
        // `p` is derived by a multi-head rule: demanding it would starve
        // the co-head, so it joins F and keeps its original rules, while
        // `q` is still demanded.
        let text = "a(?X) -> p(?X), r(?X).\n\
                    w(?X) -> q(?X).\n\
                    d(?X), p(?X), q(?X) -> out(?X).";
        let program = parse_program(text).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let rendered = dp.program.to_string();
        assert!(rendered.contains("a(?X) -> p(?X), r(?X)"), "{rendered}");
        assert!(!rendered.contains("~d~b~p"), "{rendered}");
        assert!(rendered.contains("~d~b~q"), "{rendered}");
        let facts = db(&[
            ("a", &["a"]),
            ("w", &["a"]),
            ("w", &["b"]),
            ("d", &["a"]),
            ("d", &["c"]),
        ]);
        assert_equivalent(text, "out", &facts);
    }

    #[test]
    fn constraint_support_is_exempt_from_demand() {
        // `p` feeds a constraint: it must be computed in full so ⊤ is
        // detected exactly as the full chase would.
        let text = "b(?X) -> p(?X).\n\
                    w(?X) -> q(?X).\n\
                    d(?X), q(?X) -> out(?X).\n\
                    p(?X), forbidden(?X) -> false.";
        let program = parse_program(text).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let rendered = dp.program.to_string();
        assert!(rendered.contains("b(?X) -> p(?X)"), "{rendered}");
        assert!(rendered.contains("-> false"), "{rendered}");
        // Consistent data: answers agree.
        assert_equivalent(
            text,
            "out",
            &db(&[("b", &["x"]), ("w", &["a"]), ("d", &["a"])]),
        );
        // Inconsistent data: both sides report ⊤.
        assert_equivalent(
            text,
            "out",
            &db(&[
                ("b", &["x"]),
                ("forbidden", &["x"]),
                ("w", &["a"]),
                ("d", &["a"]),
            ]),
        );
    }

    #[test]
    fn builtins_ride_along_and_narrow_the_demand() {
        let text = "e(?X, ?Y) -> t(?X, ?Y).\n\
                    t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                    d(?A), t(?A, ?Y), ?A != n1 -> out(?A, ?Y).";
        let facts = {
            let mut d = chain(6);
            d.add_fact("d", &["n0"]);
            d.add_fact("d", &["n1"]);
            d.add_fact("d", &["n2"]);
            d
        };
        assert_equivalent(text, "out", &facts);
    }

    #[test]
    fn existential_output_rules_are_allowed() {
        // ∃ in the *output* rule is fine — the output predicate itself is
        // never demanded (nulls simply never surface in Answers).
        let text = "e(?X, ?Y) -> t(?X, ?Y).\n\
                    t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                    t(n0, ?Y) -> exists ?N out(?Y, ?N).";
        assert_equivalent(text, "out", &chain(5));
    }

    #[test]
    fn demand_mode_parses() {
        assert_eq!("auto".parse(), Ok(DemandMode::Auto));
        assert_eq!("off".parse(), Ok(DemandMode::Off));
        assert_eq!("force".parse(), Ok(DemandMode::Force));
        assert!("magic".parse::<DemandMode>().is_err());
        assert_eq!(DemandMode::Force.to_string(), "force");
    }

    #[test]
    fn rewritten_program_text_round_trips() {
        let program = parse_program(TC).unwrap();
        let dp = rewrite(&program, Symbol::new("out")).unwrap();
        let reparsed = parse_program(&dp.program.to_string()).unwrap();
        assert_eq!(dp.program, reparsed, "persistence relies on this");
    }
}
