//! Builders for the paper's example programs: the k-clique TriQ 1.0 query
//! of Example 4.3 and the fixed warded-with-minimal-interaction program of
//! Theorem 6.15 (ATM simulation), plus direct baselines.

use crate::atm::{Machine, Move, StateKind};
use crate::instance::Database;
use crate::{parse_program, Program, Query};
use triq_common::{intern, Symbol};

// ---------------------------------------------------------------------------
// Example 4.3: does a graph contain a k-clique?
// ---------------------------------------------------------------------------

/// The fixed TriQ 1.0 program of Example 4.3 (Π = Π_aux ∪ Π_clique) as a
/// query with output predicate `yes`. `G` contains a k-clique iff
/// `Q(D) ≠ ∅` on the database produced by [`clique_database`].
pub fn clique_query() -> Query {
    let program = parse_program(
        "# ---- Pi_aux: linear order on [0,k] ----------------------------\n\
         succ0(?X, ?Y) -> less0(?X, ?Y).\n\
         succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z).\n\
         less0(?X, ?Y) -> not_max(?X).\n\
         less0(?X, ?Y) -> not_min(?Y).\n\
         less0(?X, ?Y), !not_min(?X) -> zero0(?X).\n\
         less0(?Y, ?X), !not_max(?X) -> max0(?X).\n\
         # ---- copies into the schema used by Pi_clique -----------------\n\
         node0(?X) -> node(?X).\n\
         edge0(?X, ?Y) -> edge(?X, ?Y).\n\
         succ0(?X, ?Y) -> succ(?X, ?Y).\n\
         less0(?X, ?Y) -> less(?X, ?Y).\n\
         zero0(?X) -> zero(?X).\n\
         max0(?X) -> max(?X).\n\
         # ---- Pi_clique: the tree of mappings --------------------------\n\
         zero(?X) -> exists ?Y ism(?Y, ?X).\n\
         ism(?X, ?Y), succ(?Y, ?Z), node(?W) -> exists ?U \
             next(?X, ?W, ?U), ism(?U, ?Z), map(?U, ?Z, ?W).\n\
         next(?X, ?Y, ?Z), map(?X, ?U, ?V) -> map(?Z, ?U, ?V).\n\
         less(?X, ?Y), map(?Z, ?X, ?W), map(?Z, ?Y, ?U), !edge(?W, ?U) -> \
             noclique(?Z).\n\
         less(?X, ?Y), map(?Z, ?X, ?W), map(?Z, ?Y, ?W) -> noclique(?Z).\n\
         ism(?X, ?Y), max(?Y), !noclique(?X) -> yes().",
    )
    .expect("the Example 4.3 program is well-formed");
    Query::new(program, intern("yes")).expect("yes does not occur in a body")
}

/// Encodes an undirected graph `(V, E)` with `|V| = n` (vertices `0..n`)
/// and the integer `k` as the database of Example 4.3:
/// `{node0(v)} ∪ {edge0(v,w)} ∪ {succ0(0,1), …, succ0(k-1,k)}`.
/// Both orientations of each edge are stored, matching the undirected
/// semantics of the example.
pub fn clique_database(n: usize, edges: &[(usize, usize)], k: usize) -> Database {
    assert!(k >= 1, "k must be positive (Example 4.3 assumes k > 0)");
    let mut db = Database::new();
    let name = |i: usize| format!("v{i}");
    for v in 0..n {
        db.add_fact("node0", &[&name(v)]);
    }
    for &(v, w) in edges {
        db.add_fact("edge0", &[&name(v), &name(w)]);
        db.add_fact("edge0", &[&name(w), &name(v)]);
    }
    for i in 0..k {
        db.add_fact("succ0", &[&format!("i{i}"), &format!("i{}", i + 1)]);
    }
    db
}

/// A direct backtracking k-clique checker (the baseline of experiment E1).
pub fn has_clique_direct(n: usize, edges: &[(usize, usize)], k: usize) -> bool {
    if k == 0 {
        return true;
    }
    let mut adj = vec![vec![false; n]; n];
    for &(v, w) in edges {
        if v != w {
            adj[v][w] = true;
            adj[w][v] = true;
        }
    }
    fn extend(adj: &[Vec<bool>], chosen: &mut Vec<usize>, start: usize, k: usize) -> bool {
        if chosen.len() == k {
            return true;
        }
        for v in start..adj.len() {
            if chosen.iter().all(|&c| adj[c][v]) {
                chosen.push(v);
                if extend(adj, chosen, v + 1, k) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    extend(&adj, &mut Vec::new(), 0, k)
}

// ---------------------------------------------------------------------------
// Theorem 6.15: ATM simulation with a fixed warded program with minimal
// interaction.
// ---------------------------------------------------------------------------

/// The fixed program Π of Theorem 6.15 — independent of the machine — as a
/// query with output `accept_out`. It is warded *with minimal interaction*
/// but not warded: the harmful configuration variables `?V, ?V1, ?V2`
/// escape the ward exactly once per rule.
///
/// Because the head `accept(·)` also occurs in rule bodies (the acceptance
/// fixpoint), we add the output rule `accept(?V) -> accept_out(?V)`; the
/// machine accepts on input `I` iff `accept_out(ι)` is derived.
pub fn atm_program() -> Query {
    let mut src = String::from(
        "# configuration tree generator\n\
         config(?V) -> exists ?V1 ?V2 \
            succ(?V, ?V1, ?V2), config(?V1), config(?V2), \
            follows(?V, ?V1), follows(?V, ?V2).\n\
         # state-cursor-symbol auxiliary (keeps rules minimally interacting)\n\
         state(?S, ?V), cursor(?C, ?V) -> sc(?S, ?C, ?V).\n\
         sc(?S, ?C, ?V), symbol(?A, ?C, ?V) -> scs(?S, ?C, ?A, ?V).\n",
    );
    // Transition rules, one per direction pair (m1, m2) ∈ {-1,+1}^2. The
    // cursor target cells C1/C2 are obtained via next_cell in the proper
    // orientation.
    for (m1, m1c) in [("m1", "next_cell(?C1, ?C)"), ("p1", "next_cell(?C, ?C1)")] {
        for (m2, m2c) in [("m1", "next_cell(?C2, ?C)"), ("p1", "next_cell(?C, ?C2)")] {
            src.push_str(&format!(
                "trans(?S, ?A, ?S1, ?A1, {m1}, ?S2, ?A2, {m2}), \
                 succ(?V, ?V1, ?V2), scs(?S, ?C, ?A, ?V), {m1c}, {m2c} -> \
                 state(?S1, ?V1), state(?S2, ?V2), \
                 symbol(?A1, ?C, ?V1), symbol(?A2, ?C, ?V2), \
                 cursor(?C1, ?V1), cursor(?C2, ?V2).\n"
            ));
        }
    }
    src.push_str(
        "# frame rule: untouched cells keep their symbols\n\
         scs(?S, ?C, ?A, ?V), neq(?C, ?C2), symbol(?A2, ?C2, ?V) -> \
            next_symbol(?C2, ?A2, ?V).\n\
         follows(?V, ?V2), next_symbol(?C, ?A, ?V) -> symbol(?A, ?C, ?V2).\n\
         # acceptance\n\
         state(s_accept, ?V) -> accept(?V).\n\
         follows(?V, ?V2), state(?S, ?V) -> previous_state(?S, ?V2).\n\
         succ(?V, ?V1, ?V2), accept(?V2) -> sibling_accept(?V1).\n\
         succ(?V, ?V1, ?V2), accept(?V1) -> sibling_accept(?V2).\n\
         accept(?V), sibling_accept(?V) -> both_siblings_accept(?V).\n\
         previous_state(?S, ?V), exists_state(?S), accept(?V) -> \
            previous_accept(?V).\n\
         previous_state(?S, ?V), forall_state(?S), both_siblings_accept(?V) -> \
            previous_accept(?V).\n\
         follows(?V, ?V2), previous_accept(?V2) -> accept(?V).\n\
         accept(?V) -> accept_out(?V).\n",
    );
    let program = parse_program(&src).expect("the Theorem 6.15 program is well-formed");
    Query::new(program, intern("accept_out")).expect("accept_out does not occur in a body")
}

/// Encodes machine `M` on `input` as the database `D_M` of Theorem 6.15.
/// The machine's accepting state must be named `s_accept`; `ι` (the
/// initial configuration constant) is named `iota`.
pub fn atm_database(machine: &Machine, input: &[&str]) -> Database {
    let mut db = Database::new();
    let n = input.len();
    let cell = |i: usize| format!("c{}", i + 1);
    db.add_fact("config", &["iota"]);
    db.add_fact("state", &[machine.initial.as_str(), "iota"]);
    db.add_fact("cursor", &[&cell(0), "iota"]);
    for (i, a) in input.iter().enumerate() {
        db.add_fact("symbol", &[a, &cell(i), "iota"]);
    }
    for i in 0..n.saturating_sub(1) {
        db.add_fact("next_cell", &[&cell(i), &cell(i + 1)]);
    }
    for i in 0..n {
        for j in 0..n {
            if i != j {
                db.add_fact("neq", &[&cell(i), &cell(j)]);
            }
        }
    }
    for (&s, &kind) in &machine.kinds {
        match kind {
            StateKind::Exists => db.add_fact("exists_state", &[s.as_str()]),
            StateKind::Forall => db.add_fact("forall_state", &[s.as_str()]),
            StateKind::Accept | StateKind::Reject => {}
        }
    }
    let dir = |m: Move| match m {
        Move::Left => "m1",
        Move::Right => "p1",
    };
    for (&(s, a), &(f, g)) in &machine.delta {
        db.add_fact(
            "trans",
            &[
                s.as_str(),
                a.as_str(),
                f.state.as_str(),
                f.write.as_str(),
                dir(f.dir),
                g.state.as_str(),
                g.write.as_str(),
                dir(g.dir),
            ],
        );
    }
    db
}

/// The constant `ι` naming the initial configuration in [`atm_database`].
pub fn atm_initial_constant() -> Symbol {
    intern("iota")
}

/// Convenience: the §2 recursive transport query (connected city pairs),
/// with output predicate `query`.
pub fn transport_query() -> Query {
    let program = parse_program(
        "triple(?X, partOf, transportService) -> ts(?X).\n\
         triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).\n\
         ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).\n\
         ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).\n\
         conn(?X, ?Y) -> query(?X, ?Y).",
    )
    .expect("transport program is well-formed");
    Query::new(program, intern("query")).expect("query does not occur in a body")
}

/// Returns the Example 4.3 program (not wrapped as a query), e.g. for
/// classification.
pub fn clique_program() -> Program {
    clique_query().program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atm::{machine_all_ones, machine_first_cell_one, machine_forall_both};
    use crate::chase::{ChaseConfig, ExistentialStrategy};
    use crate::classify_program;

    fn clique_answer(n: usize, edges: &[(usize, usize)], k: usize) -> bool {
        let q = clique_query();
        let db = clique_database(n, edges, k);
        let config = ChaseConfig {
            max_null_depth: (k + 2) as u32,
            ..ChaseConfig::default()
        };
        let ans = q.evaluate_with(&db, config).unwrap();
        !ans.is_empty()
    }

    #[test]
    fn clique_program_is_triq_1_0_but_not_lite() {
        let c = classify_program(&clique_program());
        assert!(c.is_triq_1_0(), "{:?}", c.violations);
        // The negation !noclique(?X) is over a harmful variable, so the
        // program is not TriQ-Lite 1.0 — consistent with Theorem 4.4's
        // ExpTime-hardness.
        assert!(!c.is_triq_lite_1_0());
    }

    #[test]
    fn triangle_detection() {
        let triangle = [(0, 1), (1, 2), (0, 2)];
        assert!(clique_answer(3, &triangle, 3));
        assert!(has_clique_direct(3, &triangle, 3));
        let path = [(0, 1), (1, 2)];
        assert!(!clique_answer(3, &path, 3));
        assert!(!has_clique_direct(3, &path, 3));
    }

    #[test]
    fn clique_sizes_match_direct_baseline() {
        // K4 minus one edge: has 3-cliques but no 4-clique.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)];
        for k in 1..=4 {
            assert_eq!(
                clique_answer(4, &edges, k),
                has_clique_direct(4, &edges, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn self_loops_do_not_fake_cliques() {
        // The 5th rule of Π_clique exists precisely to prevent reusing a
        // node (relevant when G has self-loops).
        let edges = [(0, 0), (0, 1)];
        assert!(!clique_answer(2, &edges, 3));
        assert!(!has_clique_direct(2, &edges, 3));
    }

    fn atm_accepts(machine: &Machine, input: &[&str], depth: u32) -> bool {
        let q = atm_program();
        let db = atm_database(machine, input);
        let config = ChaseConfig {
            max_null_depth: depth,
            strategy: ExistentialStrategy::Skolem,
            max_atoms: 2_000_000,
        };
        let ans = q.evaluate_with(&db, config).unwrap();
        ans.contains(&["iota"])
    }

    #[test]
    fn atm_program_is_warded_minimal_interaction_not_warded() {
        let c = classify_program(&atm_program().program);
        assert!(
            c.warded_minimal_interaction,
            "Theorem 6.15's program must be warded with minimal interaction: {:?}",
            c.violations
        );
        assert!(!c.warded, "the whole point is that it is NOT warded");
    }

    #[test]
    fn atm_first_cell_machine_cross_validation() {
        let m = machine_first_cell_one();
        for input in [["1", "0"], ["0", "1"]] {
            let direct = m.accepts_input(&input, 3);
            let datalog = atm_accepts(&m, &input, 3);
            assert_eq!(direct, datalog, "input {input:?}");
        }
    }

    #[test]
    fn atm_forall_machine_cross_validation() {
        let m = machine_forall_both();
        for input in [["1", "1", "1"], ["1", "0", "1"]] {
            let direct = m.accepts_input(&input, 4);
            let datalog = atm_accepts(&m, &input, 4);
            assert_eq!(direct, datalog, "input {input:?}");
        }
    }

    #[test]
    fn atm_walker_cross_validation() {
        let m = machine_all_ones();
        for input in [
            vec!["1", "$"],
            vec!["1", "1", "$"],
            vec!["1", "0", "$"],
            vec!["0", "$"],
        ] {
            let direct = m.accepts_input(&input, 4);
            let datalog = atm_accepts(&m, &input, 4);
            assert_eq!(direct, datalog, "input {input:?}");
        }
    }
}
