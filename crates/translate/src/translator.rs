//! The pattern-to-program translation (§5.1–§5.3).
//!
//! Every pattern node `P'` of the input pattern is compiled to a family of
//! predicates, one per *variant* — a set `B ⊆ var(P')` of bound variables
//! (the paper's supra-indexed `query^S_{P'}` predicates, §5.1/Example
//! 5.1). A variant predicate has arity `|var(P')|`, with the special
//! constant ⋆ stored at unbound positions; only variants that can actually
//! arise are generated, so the program is exponential only in the worst
//! case, as the paper notes.

use crate::dnf::compile_condition;
use std::collections::{BTreeMap, BTreeSet};
use triq_common::{intern, Result, Symbol, Term, TriqError, VarId};
use triq_datalog::{Atom, ChaseConfig, Program, Query, Rule};
use triq_owl2ql::tau_owl2ql_core;
use triq_sparql::{GraphPattern, PatternTerm, TriplePattern};

/// The special constant ⋆ marking unbound answer positions (§5.1).
pub fn star() -> Symbol {
    intern("~star~")
}

/// The chase configuration used by the regime evaluators: the
/// *restricted* chase, which terminates on DL-Lite_R ontologies (the
/// skolem chase ping-pongs on inverse axioms: `triple1(z1, p⁻, z2)` keeps
/// re-triggering the `∃` rule even though a witness exists). Ground
/// consequences are identical under both strategies — both compute
/// universal models — but the restricted chase needs orders of magnitude
/// fewer nulls and never hits the depth bound on regime workloads.
pub fn regime_chase_config() -> ChaseConfig {
    ChaseConfig {
        strategy: triq_datalog::ExistentialStrategy::Restricted,
        max_null_depth: 6,
        ..ChaseConfig::default()
    }
}

/// Which semantics the basic graph patterns are compiled for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Plain SPARQL over `τ_db(G)` (Theorem 5.2): BGPs match `triple`.
    Plain,
    /// The OWL 2 QL core direct-semantics entailment regime J·K^U
    /// (Theorem 5.3): BGPs match `triple1` with `adom` guards on every
    /// variable and blank node.
    RegimeU,
    /// The §5.3 semantics J·K^All: like `RegimeU` but blank nodes are not
    /// forced into the active domain.
    RegimeAll,
}

/// The result of translating a graph pattern.
#[derive(Clone, Debug)]
pub struct TranslatedPattern {
    /// The full query program (including `τ_owl2ql_core` in regime modes).
    pub program: Program,
    /// The output predicate `answer_P`.
    pub answer_pred: Symbol,
    /// `var(P)`, sorted — the argument order of `answer_P`.
    pub vars: Vec<VarId>,
    /// The compilation mode.
    pub mode: Mode,
}

impl TranslatedPattern {
    /// Wraps the translation as a Datalog query `(Π, answer_P)`.
    pub fn query(&self) -> Result<Query> {
        Query::new(self.program.clone(), self.answer_pred)
    }
}

struct NodeResult {
    /// Sorted `var(P')` of this node.
    vars: Vec<VarId>,
    /// Variant predicates by bound-set.
    variants: BTreeMap<BTreeSet<VarId>, Symbol>,
}

struct Translator {
    program: Program,
    counter: usize,
    mode: Mode,
}

impl Translator {
    fn fresh_pred(&mut self, tag: &str) -> Symbol {
        self.counter += 1;
        intern(&format!("q{}~{}", self.counter, tag))
    }

    /// Argument list of a variant predicate: bound variables in sorted
    /// `vars` order, ⋆ elsewhere.
    fn args(vars: &[VarId], bound: &BTreeSet<VarId>) -> Vec<Term> {
        vars.iter()
            .map(|v| {
                if bound.contains(v) {
                    Term::Var(*v)
                } else {
                    Term::Const(star())
                }
            })
            .collect()
    }

    fn translate(&mut self, pattern: &GraphPattern) -> Result<NodeResult> {
        match pattern {
            GraphPattern::Basic(triples) => self.translate_bgp(triples),
            GraphPattern::And(a, b) => {
                let ra = self.translate(a)?;
                let rb = self.translate(b)?;
                self.translate_and(&ra, &rb)
            }
            GraphPattern::Union(a, b) => {
                let ra = self.translate(a)?;
                let rb = self.translate(b)?;
                self.translate_union(&ra, &rb)
            }
            GraphPattern::Opt(a, b) => {
                let ra = self.translate(a)?;
                let rb = self.translate(b)?;
                self.translate_opt(&ra, &rb)
            }
            GraphPattern::Filter(p, cond) => {
                let rp = self.translate(p)?;
                self.translate_filter(&rp, cond)
            }
            GraphPattern::Select(w, p) => {
                let rp = self.translate(p)?;
                self.translate_select(&rp, w)
            }
        }
    }

    /// τ_bgp (Example 5.1 / §5.2 / §5.3): one rule, one variant (all
    /// variables bound). Blank nodes become body-only variables.
    fn translate_bgp(&mut self, triples: &[TriplePattern]) -> Result<NodeResult> {
        if triples.is_empty() {
            return Err(TriqError::InvalidProgram(
                "empty basic graph pattern cannot be translated".into(),
            ));
        }
        self.counter += 1;
        let node_id = self.counter;
        let vars: BTreeSet<VarId> = triples.iter().flat_map(TriplePattern::vars).collect();
        let vars: Vec<VarId> = vars.into_iter().collect();
        let data_pred = match self.mode {
            Mode::Plain => intern("triple"),
            Mode::RegimeU | Mode::RegimeAll => intern("triple1"),
        };
        let mut body: Vec<Atom> = Vec::with_capacity(triples.len());
        let mut blank_vars: BTreeSet<VarId> = BTreeSet::new();
        let term = |t: PatternTerm, blanks: &mut BTreeSet<VarId>| -> Term {
            match t {
                PatternTerm::Const(c) => Term::Const(c),
                PatternTerm::Var(v) => Term::Var(v),
                PatternTerm::Blank(b) => {
                    let v = VarId::new(&format!("blank~{}~{}", b.as_str(), node_id));
                    blanks.insert(v);
                    Term::Var(v)
                }
            }
        };
        for t in triples {
            let s = term(t.s, &mut blank_vars);
            let p = term(t.p, &mut blank_vars);
            let o = term(t.o, &mut blank_vars);
            body.push(Atom::new(data_pred, vec![s, p, o]));
        }
        // Active-domain guards (rule (18) of §5.2; §5.3 drops the guards
        // on blank variables).
        match self.mode {
            Mode::Plain => {}
            Mode::RegimeU => {
                for v in vars.iter().chain(blank_vars.iter()) {
                    body.push(Atom::new(intern("adom"), vec![Term::Var(*v)]));
                }
            }
            Mode::RegimeAll => {
                for v in vars.iter() {
                    body.push(Atom::new(intern("adom"), vec![Term::Var(*v)]));
                }
            }
        }
        let pred = self.fresh_pred("bgp");
        let bound: BTreeSet<VarId> = vars.iter().copied().collect();
        self.program.rules.push(Rule::plain(
            body,
            Atom::new(pred, Self::args(&vars, &bound)),
        ));
        Ok(NodeResult {
            vars,
            variants: BTreeMap::from([(bound, pred)]),
        })
    }

    /// The argument list for referencing child `r` under variant `b`.
    fn ref_args(r: &NodeResult, b: &BTreeSet<VarId>) -> Vec<Term> {
        Self::args(&r.vars, b)
    }

    fn merged_vars(a: &NodeResult, b: &NodeResult) -> Vec<VarId> {
        let set: BTreeSet<VarId> = a.vars.iter().chain(b.vars.iter()).copied().collect();
        set.into_iter().collect()
    }

    /// One join rule per variant pair: the Ω₁ ⋈ Ω₂ part of AND and OPT.
    fn push_join_rules(
        &mut self,
        ra: &NodeResult,
        rb: &NodeResult,
        vars: &[VarId],
        out: &mut BTreeMap<BTreeSet<VarId>, Symbol>,
        tag: &str,
    ) {
        let mut pending: Vec<Rule> = Vec::new();
        for (b1, &p1) in &ra.variants {
            for (b2, &p2) in &rb.variants {
                let bound: BTreeSet<VarId> = b1.union(b2).copied().collect();
                let pred = *out.entry(bound.clone()).or_insert_with(|| {
                    self.counter += 1;
                    intern(&format!("q{}~{}", self.counter, tag))
                });
                pending.push(Rule::plain(
                    vec![
                        Atom::new(p1, Self::ref_args(ra, b1)),
                        Atom::new(p2, Self::ref_args(rb, b2)),
                    ],
                    Atom::new(pred, Self::args(vars, &bound)),
                ));
            }
        }
        self.program.rules.extend(pending);
    }

    fn translate_and(&mut self, ra: &NodeResult, rb: &NodeResult) -> Result<NodeResult> {
        let vars = Self::merged_vars(ra, rb);
        let mut variants = BTreeMap::new();
        self.push_join_rules(ra, rb, &vars, &mut variants, "and");
        Ok(NodeResult { vars, variants })
    }

    fn translate_union(&mut self, ra: &NodeResult, rb: &NodeResult) -> Result<NodeResult> {
        let vars = Self::merged_vars(ra, rb);
        let mut variants: BTreeMap<BTreeSet<VarId>, Symbol> = BTreeMap::new();
        for (r, tag) in [(ra, "unionl"), (rb, "unionr")] {
            for (b, &p) in &r.variants {
                let pred = *variants.entry(b.clone()).or_insert_with(|| {
                    self.counter += 1;
                    intern(&format!("q{}~{tag}", self.counter))
                });
                self.program.rules.push(Rule::plain(
                    vec![Atom::new(p, Self::ref_args(r, b))],
                    Atom::new(pred, Self::args(&vars, b)),
                ));
            }
        }
        Ok(NodeResult { vars, variants })
    }

    /// OPT = join ∪ difference; the difference uses the `compatible`
    /// predicates of Example 5.1 (rules (11)/(12)) under stratified
    /// negation.
    fn translate_opt(&mut self, ra: &NodeResult, rb: &NodeResult) -> Result<NodeResult> {
        let vars = Self::merged_vars(ra, rb);
        let mut variants = BTreeMap::new();
        self.push_join_rules(ra, rb, &vars, &mut variants, "optjoin");
        // compat_{B1}(µ1-tuple) ← pred1, pred2 with shared bound variables
        // unified and µ2-only positions wildcarded.
        for (b1, &p1) in &ra.variants {
            let compat = self.fresh_pred("compat");
            for (b2, &p2) in &rb.variants {
                let mut fresh_counter = 0usize;
                let args2: Vec<Term> = rb
                    .vars
                    .iter()
                    .map(|v| {
                        if b2.contains(v) {
                            if b1.contains(v) {
                                Term::Var(*v)
                            } else {
                                fresh_counter += 1;
                                Term::Var(VarId::new(&format!("wild~{fresh_counter}")))
                            }
                        } else {
                            Term::Const(star())
                        }
                    })
                    .collect();
                self.program.rules.push(Rule::plain(
                    vec![Atom::new(p1, Self::ref_args(ra, b1)), Atom::new(p2, args2)],
                    Atom::new(compat, Self::ref_args(ra, b1)),
                ));
            }
            // Difference rule: µ1 with no compatible µ2 (rule (12)).
            let pred = *variants.entry(b1.clone()).or_insert_with(|| {
                self.counter += 1;
                intern(&format!("q{}~optdiff", self.counter))
            });
            self.program.rules.push(Rule {
                body_pos: vec![Atom::new(p1, Self::ref_args(ra, b1))],
                body_neg: vec![Atom::new(compat, Self::ref_args(ra, b1))],
                builtins: vec![],
                exist_vars: vec![],
                head: vec![Atom::new(pred, Self::args(&vars, b1))],
            });
        }
        Ok(NodeResult { vars, variants })
    }

    fn translate_filter(
        &mut self,
        rp: &NodeResult,
        cond: &triq_sparql::Condition,
    ) -> Result<NodeResult> {
        let mut variants: BTreeMap<BTreeSet<VarId>, Symbol> = BTreeMap::new();
        for (b, &p) in &rp.variants {
            let disjuncts = compile_condition(cond, b);
            if disjuncts.is_empty() {
                continue; // statically false for this variant
            }
            let pred = *variants.entry(b.clone()).or_insert_with(|| {
                self.counter += 1;
                intern(&format!("q{}~filter", self.counter))
            });
            for conj in disjuncts {
                self.program.rules.push(Rule {
                    body_pos: vec![Atom::new(p, Self::ref_args(rp, b))],
                    body_neg: vec![],
                    builtins: conj,
                    exist_vars: vec![],
                    head: vec![Atom::new(pred, Self::args(&rp.vars, b))],
                });
            }
        }
        Ok(NodeResult {
            vars: rp.vars.clone(),
            variants,
        })
    }

    fn translate_select(&mut self, rp: &NodeResult, w: &BTreeSet<VarId>) -> Result<NodeResult> {
        let vars: Vec<VarId> = rp.vars.iter().filter(|v| w.contains(v)).copied().collect();
        let mut variants: BTreeMap<BTreeSet<VarId>, Symbol> = BTreeMap::new();
        for (b, &p) in &rp.variants {
            let bound: BTreeSet<VarId> = b.intersection(w).copied().collect();
            let pred = *variants.entry(bound.clone()).or_insert_with(|| {
                self.counter += 1;
                intern(&format!("q{}~select", self.counter))
            });
            self.program.rules.push(Rule::plain(
                vec![Atom::new(p, Self::ref_args(rp, b))],
                Atom::new(pred, Self::args(&vars, &bound)),
            ));
        }
        Ok(NodeResult { vars, variants })
    }
}

fn translate_with_mode(pattern: &GraphPattern, mode: Mode) -> Result<TranslatedPattern> {
    pattern.validate()?;
    let mut t = Translator {
        program: match mode {
            Mode::Plain => Program::new(),
            Mode::RegimeU | Mode::RegimeAll => tau_owl2ql_core(),
        },
        counter: 0,
        mode,
    };
    let root = t.translate(pattern)?;
    // τ_out: one rule per top-level variant into answer_P.
    let answer_pred = t.fresh_pred("answer");
    for (b, &p) in &root.variants {
        t.program.rules.push(Rule::plain(
            vec![Atom::new(p, Translator::ref_args(&root, b))],
            Atom::new(answer_pred, Translator::args(&root.vars, b)),
        ));
    }
    let translated = TranslatedPattern {
        program: t.program,
        answer_pred,
        vars: root.vars,
        mode,
    };
    // Internal consistency: the program must be a valid stratified query.
    translated.query()?;
    Ok(translated)
}

/// `P_dat` (Theorem 5.2): the plain translation of a graph pattern.
pub fn translate_pattern(pattern: &GraphPattern) -> Result<TranslatedPattern> {
    translate_with_mode(pattern, Mode::Plain)
}

/// `P^U_dat` (Theorem 5.3): the translation under the OWL 2 QL core
/// direct-semantics entailment regime.
pub fn translate_pattern_u(pattern: &GraphPattern) -> Result<TranslatedPattern> {
    translate_with_mode(pattern, Mode::RegimeU)
}

/// `P^All_dat` (§5.3): the entailment regime without the active-domain
/// restriction on blank nodes.
pub fn translate_pattern_all(pattern: &GraphPattern) -> Result<TranslatedPattern> {
    translate_with_mode(pattern, Mode::RegimeAll)
}

/// The one-shot path the unit tests below check the translations
/// through: translate → chase over `τ_db(G)` → decode.
#[cfg(test)]
fn one_shot(
    graph: &triq_rdf::Graph,
    pattern: &GraphPattern,
    mode: Mode,
) -> crate::answers::RegimeAnswers {
    let translated = translate_with_mode(pattern, mode).unwrap();
    let config = match mode {
        Mode::Plain => ChaseConfig::default(),
        Mode::RegimeU | Mode::RegimeAll => regime_chase_config(),
    };
    let answers = translated
        .query()
        .unwrap()
        .evaluate_with(&triq_owl2ql::tau_db(graph), config)
        .unwrap();
    crate::answers::decode_answers(&answers, &translated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_datalog::classify_program;
    use triq_rdf::{parse_turtle, Graph};
    use triq_sparql::{evaluate, parse_pattern};

    fn check_equiv(graph: &Graph, pattern_src: &str) {
        let pattern = parse_pattern(pattern_src).unwrap();
        let direct = evaluate(graph, &pattern);
        let translated = one_shot(graph, &pattern, Mode::Plain);
        assert_eq!(
            Some(&direct),
            translated.mappings(),
            "pattern {pattern_src}"
        );
    }

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
    fn theorem_5_2_on_paper_examples() {
        let g = g2();
        // Example 5.1's P1, P2 (blank), P3 (OPT), P4 (OPT-AND).
        check_equiv(&g, "{ ?X name ?Y }");
        check_equiv(&g, "{ ?X name _:B }");
        check_equiv(&g, "{ ?X name ?Y } OPTIONAL { ?X phone ?Z }");
        check_equiv(
            &g,
            "{ { ?X name ?Y } OPTIONAL { ?X phone ?Z } } AND { ?Z phone_company ?W }",
        );
        check_equiv(&g, "{ ?Y is_author_of ?Z . ?Y name ?X }");
    }

    #[test]
    fn theorem_5_2_with_opt_binding_asymmetries() {
        let g = parse_turtle(
            "a name \"Alice\" .\n\
             b name \"Bob\" .\n\
             a phone \"123\" .\n\
             \"123\" phone_company ACME .\n\
             \"999\" phone_company Globex .",
        )
        .unwrap();
        check_equiv(&g, "{ ?X name ?Y } OPTIONAL { ?X phone ?Z }");
        check_equiv(
            &g,
            "{ { ?X name ?Y } OPTIONAL { ?X phone ?Z } } AND { ?Z phone_company ?W }",
        );
        check_equiv(&g, "{ ?X name ?Y } UNION { ?X phone ?Z }");
        check_equiv(
            &g,
            "{ { ?X name ?Y } UNION { ?X phone ?Z } } OPTIONAL { ?Z phone_company ?W }",
        );
    }

    #[test]
    fn theorem_5_2_with_filters_and_select() {
        let g = g2();
        check_equiv(&g, "{ ?X name ?N } FILTER (?N = \"Alfred Aho\")");
        check_equiv(&g, "{ SELECT ?X WHERE { ?X name ?N } }");
        check_equiv(
            &g,
            "{ ?X name ?N } OPTIONAL { ?X phone ?Z } FILTER (!bound(?Z))",
        );
        check_equiv(
            &g,
            "{ ?X name ?N } OPTIONAL { ?X phone ?Z } FILTER (bound(?Z))",
        );
    }

    #[test]
    fn translations_are_triq_lite_1_0() {
        // Corollary 6.2 / Corollary 5.4: P^U_dat and P^All_dat are
        // TriQ-Lite 1.0 queries (hence TriQ 1.0 too).
        for src in [
            "{ ?X name ?Y }",
            "{ ?X name ?Y } OPTIONAL { ?X phone ?Z }",
            "{ ?X eats _:B }",
            "{ { ?A p ?B } UNION { ?A q ?B } } FILTER (?A = ?B)",
        ] {
            let pattern = parse_pattern(src).unwrap();
            for translate in [translate_pattern_u, translate_pattern_all] {
                let t = translate(&pattern).unwrap();
                let c = classify_program(&t.program);
                assert!(c.is_triq_lite_1_0(), "{src}: {:?}", c.violations);
            }
            // The plain translation is plain Datalog with negation.
            let t = translate_pattern(&pattern).unwrap();
            let c = classify_program(&t.program);
            assert!(c.plain_datalog && c.stratified);
        }
    }

    /// §5.2's running example: the pattern (?X, eats, _:B) over the animal
    /// graph — empty under J·K^U, {dog} under J·K^All.
    #[test]
    fn active_domain_vs_all_semantics() {
        use triq_owl2ql::{ontology_to_graph, Axiom, BasicClass, BasicProperty, Ontology};
        let mut o = Ontology::new();
        o.add(Axiom::ClassAssertion(
            BasicClass::Named(intern("animal")),
            intern("dog"),
        ));
        o.add(Axiom::SubClassOf(
            BasicClass::Named(intern("animal")),
            BasicClass::Some(BasicProperty::Named(intern("eats"))),
        ));
        let g = ontology_to_graph(&o);
        let pattern = parse_pattern("{ ?X eats _:B }").unwrap();
        let u = one_shot(&g, &pattern, Mode::RegimeU);
        assert!(
            u.mappings().unwrap().is_empty(),
            "active domain blocks the null witness"
        );
        let all = one_shot(&g, &pattern, Mode::RegimeAll);
        let ms = all.mappings().unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(
            ms.iter().next().unwrap().get(VarId::new("X")),
            Some(intern("dog"))
        );
        // The workaround the paper describes for J·K^U: type the subject
        // with the restriction class.
        let workaround = parse_pattern("{ ?X rdf:type some~eats }").unwrap();
        let u2 = one_shot(&g, &workaround, Mode::RegimeU);
        assert_eq!(u2.mappings().unwrap().len(), 1);
    }

    /// §2's G3: under the regime, Aho appears in the rewritten author
    /// query via the subclass-of-restriction axiom.
    #[test]
    fn g3_restriction_reasoning() {
        let mut g = g2();
        for (s, p, o) in [
            ("r1", "rdf:type", "owl:Restriction"),
            ("r2", "rdf:type", "owl:Restriction"),
            ("r1", "owl:onProperty", "is_coauthor_of"),
            ("r2", "owl:onProperty", "is_author_of"),
            ("r1", "owl:someValuesFrom", "owl:Thing"),
            ("r2", "owl:someValuesFrom", "owl:Thing"),
            ("r1", "rdfs:subClassOf", "r2"),
        ] {
            g.insert_strs(s, p, o);
        }
        // The SPARQL 1.1 style rewritten query of §2 under J·K^U.
        let rewritten = parse_pattern(
            "{ ?Y name ?X . ?Y rdf:type ?Z . ?Z rdf:type owl:Restriction . \
               ?Z owl:onProperty is_author_of . ?Z owl:someValuesFrom owl:Thing }",
        )
        .unwrap();
        let u = one_shot(&g, &rewritten, Mode::RegimeU);
        let names: BTreeSet<Symbol> = u
            .mappings()
            .unwrap()
            .iter()
            .filter_map(|m| m.get(VarId::new("X")))
            .collect();
        assert!(names.contains(&intern("Alfred Aho")), "{names:?}");
        assert!(names.contains(&intern("Jeffrey Ullman")));
        // With J·K^All, the natural query (with a blank) suffices.
        let natural = parse_pattern("{ ?Y is_author_of _:B . ?Y name ?X }").unwrap();
        let all = one_shot(&g, &natural, Mode::RegimeAll);
        let names: BTreeSet<Symbol> = all
            .mappings()
            .unwrap()
            .iter()
            .filter_map(|m| m.get(VarId::new("X")))
            .collect();
        assert!(names.contains(&intern("Alfred Aho")));
    }

    #[test]
    fn inconsistent_graph_yields_top() {
        let g = parse_turtle(
            "cat owl:disjointWith dog .\n\
             cat rdf:type owl:Class .\n\
             dog rdf:type owl:Class .\n\
             felix rdf:type cat .\n\
             felix rdf:type dog .",
        )
        .unwrap();
        let pattern = parse_pattern("{ ?X rdf:type cat }").unwrap();
        let u = one_shot(&g, &pattern, Mode::RegimeU);
        assert!(u.is_top());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use triq_rdf::parse_turtle;
    use triq_sparql::{evaluate, parse_pattern};

    fn check(graph_src: &str, pattern_src: &str) {
        let graph = parse_turtle(graph_src).unwrap();
        let pattern = parse_pattern(pattern_src).unwrap();
        let direct = evaluate(&graph, &pattern);
        let translated = one_shot(&graph, &pattern, Mode::Plain);
        assert_eq!(
            Some(&direct),
            translated.mappings(),
            "pattern {pattern_src}"
        );
    }

    const G: &str = "a p b .\n b p c .\n a q x .\n x r y .\n c q y .\n y r a .";

    /// Nested OPT: three levels of optional binding produce up to 2^3
    /// supra-index variants; all must decode correctly.
    #[test]
    fn deep_opt_nesting() {
        check(
            G,
            "{ { { ?A p ?B } OPTIONAL { ?B p ?C } } OPTIONAL { ?C q ?D } } \
             OPTIONAL { ?D r ?E }",
        );
    }

    /// OPT under UNION under OPT — variants flow through every operator.
    #[test]
    fn bushy_union_opt() {
        check(
            G,
            "{ { ?A p ?B } UNION { { ?A q ?B } OPTIONAL { ?B r ?C } } } \
             OPTIONAL { ?C p ?D }",
        );
    }

    /// FILTER over partially-bound variants: bound() interacts with the
    /// variant machinery (statically resolved per bound-set).
    #[test]
    fn filter_across_variants() {
        check(
            G,
            "{ { ?A p ?B } OPTIONAL { ?B q ?C } } \
             FILTER (!bound(?C) || ?C = y)",
        );
        check(
            G,
            "{ { ?A p ?B } OPTIONAL { ?B q ?C } } FILTER (bound(?C) && ?A = ?C)",
        );
    }

    /// SELECT projecting away the join variable of a later AND (the
    /// Cartesian-product phenomenon of Example 5.1's P4, but with the
    /// projection happening first).
    #[test]
    fn select_then_join() {
        check(G, "{ SELECT ?B WHERE { ?A p ?B } } AND { ?B p ?C }");
    }

    /// Empty-answer edge cases: unsatisfiable filter, empty BGP matches.
    #[test]
    fn empty_results() {
        check(G, "{ ?A p ?B } FILTER (?A = ?B)");
        check(G, "{ ?A nosuchpred ?B }");
        check(G, "{ ?A p ?B . ?B nosuchpred ?C }");
    }

    /// Zero-variable patterns: a fully-ground BGP behaves like an
    /// assertion, answering {µ∅} or ∅.
    #[test]
    fn ground_bgp() {
        check(G, "{ a p b }");
        check(G, "{ a p c }");
        check(G, "{ a p b } UNION { ?X q ?Y }");
    }

    /// Blank nodes joining across triples inside one BGP.
    #[test]
    fn blank_join_in_bgp() {
        check(G, "{ ?A p _:B . _:B q ?C }");
        check(G, "{ _:B p _:C }");
    }

    /// Persisted views store their program as text, so every
    /// translation must print to something the Datalog parser reads
    /// back — including the `?blank~B~1` variables blank nodes become.
    #[test]
    fn blank_node_translations_reparse_under_all_semantics() {
        let pattern = parse_pattern("{ ?X advisor _:B . ?X memberOf d }").unwrap();
        for translate in [
            translate_pattern,
            translate_pattern_u,
            translate_pattern_all,
        ] {
            let program = translate(&pattern).unwrap().program;
            let printed = program.to_string();
            assert!(printed.contains("?blank~B~"), "{printed}");
            let reparsed = triq_datalog::parse_program(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
            assert_eq!(reparsed, program);
        }
    }
}
