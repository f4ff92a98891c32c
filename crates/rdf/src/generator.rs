//! Synthetic workload generators.
//!
//! The paper has no published datasets (it is a theory paper), so every
//! experiment (the README's "Benchmarks" table; `benchmark/README.md`
//! for the serving benchmark) runs on graphs produced here. Each
//! generator is deterministic given its seed/parameters.

use crate::vocab;
use crate::{Graph, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq_common::intern;

/// An Erdős–Rényi-style random labeled graph: `n` nodes, `m` edges drawn
/// uniformly with replacement, each labeled with one of `labels`.
pub fn random_graph(n: usize, m: usize, labels: &[&str], seed: u64) -> Graph {
    assert!(n > 0 && !labels.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<_> = (0..n).map(|i| intern(&format!("node{i}"))).collect();
    let labels: Vec<_> = labels.iter().map(|l| intern(l)).collect();
    let mut g = Graph::new();
    for _ in 0..m {
        let s = nodes[rng.gen_range(0..n)];
        let o = nodes[rng.gen_range(0..n)];
        let p = labels[rng.gen_range(0..labels.len())];
        g.insert(Triple::new(s, p, o));
    }
    g
}

/// Parameters for [`transport_graph`], the §2 transport-services scenario.
#[derive(Clone, Copy, Debug)]
pub struct TransportSpec {
    /// Number of cities (laid out on a line; service i connects city i to
    /// i+1, wrapping per operator).
    pub cities: usize,
    /// Number of transport operators (airlines / rail companies).
    pub operators: usize,
    /// Length of the `partOf` chain from an operator up to
    /// `transportService` (the paper's point is that this chain can be of
    /// arbitrary length).
    pub part_of_depth: usize,
}

impl Default for TransportSpec {
    fn default() -> Self {
        TransportSpec {
            cities: 4,
            operators: 3,
            part_of_depth: 1,
        }
    }
}

/// Generates the transport-services RDF graph of §2: cities connected by
/// concrete services, each service `partOf` an operator, each operator
/// reaching `transportService` through a `partOf` chain of the requested
/// depth.
///
/// With the default spec this reproduces the Oxford–London–Madrid–Valladolid
/// figure (modulo naming): service `service{i}` takes `city{i}` to
/// `city{i+1}` and belongs to `operator{i % operators}`.
pub fn transport_graph(spec: TransportSpec) -> Graph {
    let part_of = intern("partOf");
    let ts = intern("transportService");
    let mut g = Graph::new();
    for op in 0..spec.operators {
        // operator -> intermediate_1 -> ... -> transportService
        let mut current = intern(&format!("operator{op}"));
        for d in 0..spec.part_of_depth {
            let next = if d + 1 == spec.part_of_depth {
                ts
            } else {
                intern(&format!("operator{op}_tier{}", d + 1))
            };
            g.insert(Triple::new(current, part_of, next));
            current = next;
        }
        if spec.part_of_depth == 0 {
            g.insert(Triple::new(current, part_of, ts));
        }
    }
    for i in 0..spec.cities.saturating_sub(1) {
        let service = intern(&format!("service{i}"));
        let operator = intern(&format!("operator{}", i % spec.operators.max(1)));
        g.insert(Triple::new(service, part_of, operator));
        g.insert(Triple::new(
            intern(&format!("city{i}")),
            service,
            intern(&format!("city{}", i + 1)),
        ));
    }
    g
}

/// Parameters for [`university_graph`], a LUBM-lite workload.
#[derive(Clone, Copy, Debug)]
pub struct UniversitySpec {
    /// Number of departments.
    pub departments: usize,
    /// Professors per department.
    pub professors_per_dept: usize,
    /// Students per department.
    pub students_per_dept: usize,
    /// RNG seed for advisor/teaching assignments.
    pub seed: u64,
}

impl Default for UniversitySpec {
    fn default() -> Self {
        UniversitySpec {
            departments: 2,
            professors_per_dept: 3,
            students_per_dept: 10,
            seed: 7,
        }
    }
}

/// Generates a small university knowledge graph *including* its OWL 2 QL
/// core ontology triples (subclass/subproperty/restriction axioms in the
/// Table 1 RDF encoding), suitable for the §5 entailment-regime
/// experiments. The ontology part states, among others:
///
/// * `professor ⊑ faculty ⊑ person`, `student ⊑ person`,
/// * `advises ⊑ worksWith` and `∃advises ⊑ professor` (via restrictions),
/// * every professor teaches something (`professor ⊑ ∃teaches`).
pub fn university_graph(spec: UniversitySpec) -> Graph {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let rdf_type = vocab::rdf_type();
    let sub_class = vocab::rdfs_sub_class_of();
    let sub_prop = vocab::rdfs_sub_property_of();
    let mut g = Graph::new();

    // --- ontology (TBox), Table 1 encoding ---------------------------------
    for (a, b) in [
        ("professor", "faculty"),
        ("faculty", "person"),
        ("student", "person"),
    ] {
        g.insert(Triple::new(intern(a), sub_class, intern(b)));
    }
    g.insert(Triple::new(
        intern("advises"),
        sub_prop,
        intern("worksWith"),
    ));
    // ∃teaches and ∃advises as restrictions (the paper's §5.2 encoding).
    for prop in ["teaches", "advises"] {
        let r = intern(&format!("exists_{prop}"));
        g.insert(Triple::new(r, rdf_type, vocab::owl_restriction()));
        g.insert(Triple::new(r, vocab::owl_on_property(), intern(prop)));
        g.insert(Triple::new(
            r,
            vocab::owl_some_values_from(),
            vocab::owl_thing(),
        ));
    }
    // professor ⊑ ∃teaches ; ∃advises ⊑ professor
    g.insert(Triple::new(
        intern("professor"),
        sub_class,
        intern("exists_teaches"),
    ));
    g.insert(Triple::new(
        intern("exists_advises"),
        sub_class,
        intern("professor"),
    ));

    // --- data (ABox) --------------------------------------------------------
    for d in 0..spec.departments {
        for p in 0..spec.professors_per_dept {
            let prof = intern(&format!("prof_{d}_{p}"));
            g.insert(Triple::new(prof, rdf_type, intern("professor")));
            g.insert(Triple::new(
                prof,
                intern("memberOf"),
                intern(&format!("dept{d}")),
            ));
        }
        for s in 0..spec.students_per_dept {
            let student = intern(&format!("student_{d}_{s}"));
            g.insert(Triple::new(student, rdf_type, intern("student")));
            g.insert(Triple::new(
                student,
                intern("memberOf"),
                intern(&format!("dept{d}")),
            ));
            // Most students have a declared advisor; some only via inference.
            if rng.gen_bool(0.8) {
                let p = rng.gen_range(0..spec.professors_per_dept);
                g.insert(Triple::new(
                    intern(&format!("prof_{d}_{p}")),
                    intern("advises"),
                    student,
                ));
            }
        }
    }
    g
}

/// The ontology family (O_n, G_n) from the proof of Lemma 6.5 (UGCP):
///
/// ```text
/// ClassAssertion(a0, c), SubClassOf(a0, ∃p), SubClassOf(∃p⁻, a1),
/// SubClassOf(a1, a2), ..., SubClassOf(a_{n-1}, a_n)
/// ```
///
/// encoded as RDF triples per Table 1 / §5.2.
pub fn chain_ontology_graph(n: usize) -> Graph {
    assert!(n > 0);
    let rdf_type = vocab::rdf_type();
    let sub_class = vocab::rdfs_sub_class_of();
    let mut g = Graph::new();
    // ClassAssertion(a0, c)
    g.insert(Triple::new(intern("c"), rdf_type, intern("a0")));
    // ∃p and ∃p⁻ as restrictions.
    for (name, prop) in [("exists_p", "p"), ("exists_p_inv", "p_inv")] {
        let r = intern(name);
        g.insert(Triple::new(r, rdf_type, vocab::owl_restriction()));
        g.insert(Triple::new(r, vocab::owl_on_property(), intern(prop)));
        g.insert(Triple::new(
            r,
            vocab::owl_some_values_from(),
            vocab::owl_thing(),
        ));
    }
    g.insert(Triple::new(
        intern("p"),
        vocab::owl_inverse_of(),
        intern("p_inv"),
    ));
    g.insert(Triple::new(
        intern("p_inv"),
        vocab::owl_inverse_of(),
        intern("p"),
    ));
    // SubClassOf(a0, ∃p), SubClassOf(∃p⁻, a1)
    g.insert(Triple::new(intern("a0"), sub_class, intern("exists_p")));
    g.insert(Triple::new(intern("exists_p_inv"), sub_class, intern("a1")));
    // SubClassOf(a_i, a_{i+1})
    for i in 1..n {
        g.insert(Triple::new(
            intern(&format!("a{i}")),
            sub_class,
            intern(&format!("a{}", i + 1)),
        ));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic() {
        let g1 = random_graph(10, 30, &["e", "f"], 42);
        let g2 = random_graph(10, 30, &["e", "f"], 42);
        assert_eq!(g1, g2);
        assert!(g1.len() <= 30 && !g1.is_empty());
    }

    #[test]
    fn transport_default_matches_paper_figure_shape() {
        let g = transport_graph(TransportSpec::default());
        // 3 services connecting 4 cities, 3 operators each partOf
        // transportService directly (depth 1).
        assert!(g.contains(&Triple::from_strs("city0", "service0", "city1")));
        assert!(g.contains(&Triple::from_strs("service0", "partOf", "operator0")));
        assert!(g.contains(&Triple::from_strs(
            "operator0",
            "partOf",
            "transportService"
        )));
    }

    #[test]
    fn transport_deep_chain() {
        let g = transport_graph(TransportSpec {
            cities: 3,
            operators: 1,
            part_of_depth: 3,
        });
        assert!(g.contains(&Triple::from_strs("operator0", "partOf", "operator0_tier1")));
        assert!(g.contains(&Triple::from_strs(
            "operator0_tier2",
            "partOf",
            "transportService"
        )));
    }

    #[test]
    fn university_contains_ontology_and_data() {
        let g = university_graph(UniversitySpec::default());
        assert!(g.contains(&Triple::from_strs(
            "professor",
            "rdfs:subClassOf",
            "faculty"
        )));
        assert!(g.contains(&Triple::from_strs("prof_0_0", "rdf:type", "professor")));
        assert!(!g.matching(None, Some(intern("advises")), None).is_empty());
    }

    #[test]
    fn chain_ontology_has_n_plus_fixed_triples() {
        let g5 = chain_ontology_graph(5);
        let g6 = chain_ontology_graph(6);
        assert_eq!(g6.len(), g5.len() + 1);
        assert!(g5.contains(&Triple::from_strs("a4", "rdfs:subClassOf", "a5")));
    }
}
