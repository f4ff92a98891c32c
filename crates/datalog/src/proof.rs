//! Proof trees (Definition 6.11) reconstructed from chase provenance.
//!
//! A proof tree of a ground atom `p(t)` w.r.t. a database `D` and program
//! `Π` is a tree-shaped representation of the part of `Π(D)` that entails
//! `p(t)`: the root is labeled `p(t)`, each inner node is the head of a rule
//! application whose children are the matched body atoms, and leaves are
//! database atoms. Figure 1 of the paper shows the proof tree of `p(a,a)`
//! for Example 6.10; [`render_proof_tree`] reproduces that figure as text.

use crate::instance::{AtomId, GroundAtom, Instance, BASE_ATOM};
use crate::Program;
use std::collections::HashMap;

/// A node of a proof tree.
#[derive(Clone, Debug, PartialEq)]
pub struct ProofNode {
    /// The atom this node is labeled with (λ_N in Definition 6.11).
    pub atom: GroundAtom,
    /// The rule that derived it (λ_E on the edges to the children);
    /// `None` for database leaves.
    pub rule: Option<usize>,
    /// Children: the matched body atoms of the rule application.
    pub children: Vec<ProofNode>,
}

impl ProofNode {
    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProofNode::size).sum::<usize>()
    }

    /// Height of the subtree (a leaf has height 0).
    pub fn height(&self) -> usize {
        self.children
            .iter()
            .map(|c| c.height() + 1)
            .max()
            .unwrap_or(0)
    }

    /// All leaf atoms (database facts used by the proof).
    pub fn leaves(&self) -> Vec<&GroundAtom> {
        if self.children.is_empty() {
            vec![&self.atom]
        } else {
            self.children.iter().flat_map(ProofNode::leaves).collect()
        }
    }
}

/// A proof tree of an atom with respect to a database and a program.
#[derive(Clone, Debug, PartialEq)]
pub struct ProofTree {
    /// The root node (labeled with the proved atom).
    pub root: ProofNode,
}

impl ProofTree {
    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        self.root.height()
    }
}

fn build(instance: &Instance, id: AtomId) -> ProofNode {
    match instance.derivation(id) {
        None => ProofNode {
            atom: instance.atom(id),
            rule: None,
            children: Vec::new(),
        },
        Some(d) => ProofNode {
            atom: instance.atom(id),
            rule: Some(d.rule),
            children: d.body.iter().map(|&b| build(instance, b)).collect(),
        },
    }
}

/// Extracts the proof tree of the atom with id `id` from a chased
/// instance's provenance. Provenance bodies always have strictly smaller
/// ids, so the recursion is well-founded — this is exactly the paper's
/// "reverse the edges and unfold the proof into a tree" construction
/// (discussion after Example 6.10).
pub fn proof_tree(instance: &Instance, id: AtomId) -> ProofTree {
    ProofTree {
        root: build(instance, id),
    }
}

/// Reverse provenance: for every atom, the atoms whose *recorded*
/// derivation uses it as a body atom — the edge set of Definition 6.11
/// with the arrows turned around, materialized as adjacency lists.
///
/// This is the "provenance directory" the delete-and-rederive (DRed)
/// maintenance of [`crate::incremental`] walks: deleting an atom must
/// over-delete its transitive dependents ([`DependencyIndex::cone`])
/// before rederivation decides which of them survive. The index is
/// append-only, mirroring the instance: after the instance grows, call
/// [`DependencyIndex::extend_to`] to index the new derivations. A stacked
/// view's derivations also name atoms of its base (ids with the top
/// bit set); those are indexed too, so a base deletion finds the view's
/// atoms it supported.
#[derive(Clone, Debug, Default)]
pub struct DependencyIndex {
    /// `dependents[id]` = ids whose derivation body mentions `id`.
    dependents: Vec<Vec<AtomId>>,
    /// The same for the base atoms a stacked view's derivations name.
    base_dependents: HashMap<AtomId, Vec<AtomId>>,
}

impl DependencyIndex {
    /// An index over no atoms.
    pub fn new() -> DependencyIndex {
        DependencyIndex::default()
    }

    /// Builds the index for every atom of `instance`.
    pub fn from_instance(instance: &Instance) -> DependencyIndex {
        let mut index = DependencyIndex::new();
        index.extend_to(instance);
        index
    }

    /// Number of atom ids covered so far.
    pub fn len(&self) -> usize {
        self.dependents.len()
    }

    /// True iff no atoms are covered.
    pub fn is_empty(&self) -> bool {
        self.dependents.is_empty()
    }

    /// Indexes the derivations of atoms appended since the last call
    /// (ids `self.len()..instance.len()`).
    pub fn extend_to(&mut self, instance: &Instance) {
        let from = self.dependents.len() as AtomId;
        let to = instance.len() as AtomId;
        self.dependents.resize_with(to as usize, Vec::new);
        for id in from..to {
            if let Some(d) = instance.derivation(id) {
                for &body in &d.body {
                    if body & BASE_ATOM == 0 {
                        self.dependents[body as usize].push(id);
                    } else {
                        self.base_dependents.entry(body).or_default().push(id);
                    }
                }
            }
        }
    }

    /// Direct dependents of one atom.
    pub fn dependents_of(&self, id: AtomId) -> &[AtomId] {
        let deps = if id & BASE_ATOM == 0 {
            self.dependents.get(id as usize)
        } else {
            self.base_dependents.get(&id)
        };
        deps.map(Vec::as_slice).unwrap_or(&[])
    }

    /// The transitive support cone **above** `seeds`: every atom whose
    /// recorded derivation reaches a seed, excluding the seeds
    /// themselves. Sorted ascending and deduplicated. (Dead atoms are
    /// not filtered here — the caller decides what tombstoning means.)
    ///
    /// Work is proportional to the cone, not the instance — the visited
    /// set is hashed, so a single-fact deletion on a view of millions of
    /// atoms does not pay an O(|instance|) scan per delta.
    pub fn cone(&self, seeds: &[AtomId]) -> Vec<AtomId> {
        let mut visited: std::collections::HashSet<AtomId> =
            std::collections::HashSet::with_capacity(seeds.len() * 2);
        let mut queue: Vec<AtomId> = Vec::new();
        for &s in seeds {
            if visited.insert(s) {
                queue.push(s);
            }
        }
        let mut out: Vec<AtomId> = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &dep in self.dependents_of(cur) {
                if visited.insert(dep) {
                    queue.push(dep);
                    out.push(dep);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

fn render(node: &ProofNode, program: &Program, prefix: &str, is_last: bool, out: &mut String) {
    let connector = if prefix.is_empty() {
        ""
    } else if is_last {
        "`-- "
    } else {
        "|-- "
    };
    out.push_str(prefix);
    out.push_str(connector);
    out.push_str(&node.atom.to_string());
    if let Some(r) = node.rule {
        out.push_str(&format!("   [via ρ{}]", r + 1));
        let _ = program; // rule index display matches the paper's ρ-numbering
    } else {
        out.push_str("   [database]");
    }
    out.push('\n');
    let child_prefix = if prefix.is_empty() {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "    " } else { "|   " })
    };
    for (i, c) in node.children.iter().enumerate() {
        render(c, program, &child_prefix, i + 1 == node.children.len(), out);
    }
}

/// Renders a proof tree as ASCII (Figure 1(b)-style).
pub fn render_proof_tree(tree: &ProofTree, program: &Program) -> String {
    let mut out = String::new();
    render(&tree.root, program, "", true, &mut out);
    // Children of the root need a prefix; re-render with a sentinel.
    if !tree.root.children.is_empty() {
        out.clear();
        out.push_str(&tree.root.atom.to_string());
        if let Some(r) = tree.root.rule {
            out.push_str(&format!("   [via ρ{}]", r + 1));
        }
        out.push('\n');
        for (i, c) in tree.root.children.iter().enumerate() {
            render(c, program, "", i + 1 == tree.root.children.len(), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase, ChaseConfig};
    use crate::instance::Database;
    use crate::parse_program;
    use triq_common::{intern, Term};

    /// Example 6.10 / Figure 1: the proof tree of p(a,a).
    #[test]
    fn example_6_10_figure_1() {
        let program = parse_program(
            "s(?X, ?Y, ?Z) -> exists ?W s(?X, ?Z, ?W).\n\
             s(?X, ?Y, ?Z), s(?Y, ?Z, ?W) -> q(?X, ?Y).\n\
             t(?X) -> exists ?Z p(?X, ?Z).\n\
             p(?X, ?Y), q(?X, ?Z) -> r(?X, ?Y, ?Z).\n\
             r(?X, ?Y, ?Z) -> p(?X, ?Z).",
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("s", &["a", "a", "a"]);
        db.add_fact("t", &["a"]);
        let out = chase(&db, &program, ChaseConfig::default()).unwrap();
        let goal = GroundAtom::new(
            intern("p"),
            vec![Term::constant("a"), Term::constant("a")].into(),
        );
        let id = out.instance.find(&goal).expect("p(a,a) must be derivable");
        let tree = proof_tree(&out.instance, id);
        // Figure 1(b): root p(a,a) via ρ5 from r(a,z2,a), which came via ρ4
        // from p(a,z2) and q(a,a); p(a,z2) via ρ3 from t(a); q(a,a) via ρ2
        // from s(a,a,z1) and s(a,z1,z3); both s-atoms via ρ1 from s(a,a,a).
        assert_eq!(tree.root.atom, goal);
        assert_eq!(tree.root.rule, Some(4)); // ρ5 (0-based 4)
        let r_node = &tree.root.children[0];
        assert_eq!(r_node.atom.pred, intern("r"));
        assert_eq!(r_node.rule, Some(3)); // ρ4
        assert_eq!(r_node.children.len(), 2);
        let preds: Vec<&str> = r_node
            .children
            .iter()
            .map(|c| c.atom.pred.as_str())
            .collect();
        assert_eq!(preds, vec!["p", "q"]);
        // q(a,a) via ρ2 with two s-children.
        let q_node = &r_node.children[1];
        assert_eq!(q_node.rule, Some(1));
        assert_eq!(q_node.children.len(), 2);
        // Leaves are exactly database atoms.
        for leaf in tree.root.leaves() {
            assert!(db.contains(leaf), "leaf {leaf} should be a database atom");
        }
        // The chase records the shortest derivation of q(a,a) (directly from
        // two copies of s(a,a,a)), giving height 3; Figure 1 shows an
        // alternative, deeper proof via the invented s-atoms — both are
        // valid proof trees of p(a,a).
        assert_eq!(tree.height(), 3);
        let text = render_proof_tree(&tree, &program);
        assert!(text.contains("p(a, a)"));
        assert!(text.contains("[via ρ5]"));
        assert!(text.contains("t(a)   [database]"));
    }

    #[test]
    fn database_atom_is_a_leaf_tree() {
        let program = parse_program("p(?X) -> q(?X).").unwrap();
        let mut db = Database::new();
        db.add_fact("p", &["a"]);
        let out = chase(&db, &program, ChaseConfig::default()).unwrap();
        let id = out
            .instance
            .find(&GroundAtom::new(
                intern("p"),
                vec![Term::constant("a")].into(),
            ))
            .unwrap();
        let tree = proof_tree(&out.instance, id);
        assert_eq!(tree.size(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.root.rule, None);
    }

    #[test]
    fn dependency_index_cones() {
        // e -> t -> r, plus an unrelated fact.
        let program = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y).\n\
             t(?X, ?Y) -> r(?X).",
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("e", &["a", "b"]);
        db.add_fact("u", &["z"]);
        let out = chase(&db, &program, ChaseConfig::default()).unwrap();
        let inst = &out.instance;
        let e = inst
            .find(&GroundAtom::new(
                intern("e"),
                vec![Term::constant("a"), Term::constant("b")].into(),
            ))
            .unwrap();
        let t = inst
            .find(&GroundAtom::new(
                intern("t"),
                vec![Term::constant("a"), Term::constant("b")].into(),
            ))
            .unwrap();
        let r = inst
            .find(&GroundAtom::new(
                intern("r"),
                vec![Term::constant("a")].into(),
            ))
            .unwrap();
        let u = inst
            .find(&GroundAtom::new(
                intern("u"),
                vec![Term::constant("z")].into(),
            ))
            .unwrap();
        let index = DependencyIndex::from_instance(inst);
        assert_eq!(index.len(), inst.len());
        assert_eq!(index.dependents_of(e), &[t]);
        assert_eq!(index.cone(&[e]), vec![t, r]);
        assert_eq!(index.cone(&[t]), vec![r]);
        assert!(index.cone(&[r]).is_empty());
        assert!(index.cone(&[u]).is_empty());
        // Incremental extension covers atoms appended later.
        let mut grown = inst.clone();
        let (extra, _) = grown.insert(
            GroundAtom::new(intern("x"), vec![Term::constant("a")].into()),
            Some(crate::instance::Derivation {
                rule: 0,
                body: vec![r],
            }),
        );
        let mut index = index;
        index.extend_to(&grown);
        assert_eq!(index.cone(&[e]), vec![t, r, extra]);
    }

    #[test]
    fn proof_size_counts_repeated_subtrees() {
        // Unfolding a DAG proof repeats shared nodes (the paper: "unfolding
        // the obtained graph into a tree by repeating some of the nodes").
        let program = parse_program(
            "e(?X, ?Y) -> a(?X).\n\
             e(?X, ?Y) -> b(?Y).\n\
             a(?X), b(?Y) -> both(?X, ?Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("e", &["x", "y"]);
        let out = chase(&db, &program, ChaseConfig::default()).unwrap();
        let id = out
            .instance
            .find(&GroundAtom::new(
                intern("both"),
                vec![Term::constant("x"), Term::constant("y")].into(),
            ))
            .unwrap();
        let tree = proof_tree(&out.instance, id);
        // both <- {a <- e, b <- e}: 5 nodes, e repeated.
        assert_eq!(tree.size(), 5);
        assert_eq!(tree.root.leaves().len(), 2);
    }
}
