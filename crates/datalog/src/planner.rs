//! Statistics-driven join planning for the chase.
//!
//! PR 2's join loop picked the next body atom *per binding step* by
//! recomputing every unsolved atom's candidate list and taking the
//! shortest — adaptive, but the scan itself costs `O(atoms² × arity)`
//! hash probes along every match path, and it cannot see selectivity
//! (a column with four distinct values filters nothing even when its
//! posting list happens to be short *right now*). The planner replaces
//! that with a **bound order** compiled per rule:
//!
//! * [`ChaseRunner`](crate::ChaseRunner) compiles a heuristic plan at
//!   build time (constants-first — no data has been seen yet);
//! * the engine re-plans **at stratum entry** from live [`RelationStats`]
//!   (row counts, per-column distinct-count sketches, value ranges)
//!   whenever cardinalities have drifted past [`drifted`]'s threshold —
//!   the classic greedy smallest-estimated-intermediate-result order,
//!   with one order per semi-naive pivot (the pivot's delta window makes
//!   it the most selective atom, so it leads);
//! * each plan position carries a precomputed [`ProbeKind`]: which
//!   columns are bound there is a *static* property of the order, so the
//!   runtime join loop does no picking at all — and positions where every
//!   column is bound probe the whole-tuple hash table in O(1), while
//!   high-fanout multi-column positions request an on-demand joint hash
//!   index from the store ([`crate::Instance::ensure_joint_index`]) —
//!   never on a stacked view's base, which is read in place.
//!
//! Plans never change answers — only the enumeration order of matches,
//! which the chase canonicalizes before applying (see
//! `collect_rule_matches`) — so a mis-estimated plan costs time, never
//! correctness. `tests/differential_planner.rs` pins exactly that: the
//! cost-based order, a forced-reverse order and the PR 2 greedy fallback
//! must produce byte-identical instances.

use crate::chase::{CAtom, CTerm, CompiledRule};
use crate::instance::Layers;
use crate::kernels;
use triq_common::Symbol;

/// How the compiled join loop probes the atom at one plan position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ProbeKind {
    /// No column is bound here: scan the atom's windowed extent.
    Scan,
    /// Some columns are bound: smallest per-column posting list among
    /// them (the PR 2 probe path).
    Cols,
    /// Several columns are bound and the expected per-value fanout is
    /// high: probe the joint hash index over exactly these (ascending)
    /// columns, falling back to [`ProbeKind::Cols`] when the index has
    /// been invalidated and not yet rebuilt.
    Joint(Box<[u8]>),
    /// Every column is bound: one O(1) whole-tuple hash probe.
    Full,
}

/// An atom order for one rule body plus the per-position probe kinds.
#[derive(Clone, Debug)]
pub(crate) struct BoundOrder {
    /// `order[k]` = index (into `body_pos`) of the atom matched at
    /// depth `k`.
    pub(crate) order: Vec<u16>,
    /// `probes[k]` = how `order[k]` is probed, given the slots bound by
    /// the positions before it.
    pub(crate) probes: Vec<ProbeKind>,
}

/// A compiled join plan for one rule: a bound order for the first
/// (full-join) round and one per semi-naive pivot, plus the statistics
/// snapshot it was computed from and the joint indexes it wants built.
#[derive(Clone, Debug)]
pub(crate) struct RulePlan {
    /// Order used when the whole instance is the frontier
    /// (`delta_start == 0`).
    pub(crate) full: BoundOrder,
    /// `pivots[p]` = order used when body atom `p` is the semi-naive
    /// pivot (it leads — its candidate range is the delta window).
    pub(crate) pivots: Vec<BoundOrder>,
    /// Live row count per body atom's relation at planning time; the
    /// drift check compares against this.
    pub(crate) snapshot: Vec<u64>,
    /// `(pred, arity, cols)` of every joint index some position wants.
    pub(crate) wanted_indexes: Vec<(Symbol, usize, Box<[u8]>)>,
    /// False for build-time heuristic plans (no data seen yet): the
    /// first stats-driven planning of the rule counts as a compile, not
    /// a re-plan.
    pub(crate) from_stats: bool,
    /// Whether following this plan is expected to beat the adaptive
    /// greedy pick. For 1–2 atom bodies the per-step pick is near-free
    /// *and* sees the true per-round delta sizes a stratum-entry plan
    /// cannot (a recursive rule's delta can dwarf its static relation
    /// mid-closure), so a compiled order only pays off on longer bodies
    /// — or when some position probes through a hash index
    /// ([`ProbeKind::Full`] / [`ProbeKind::Joint`]), which the greedy
    /// path never does. `false` plans fall back to the greedy pick.
    pub(crate) worthwhile: bool,
}

/// Expected rows-per-binding above which a multi-column probe position
/// asks for a joint hash index.
const JOINT_FANOUT: f64 = 16.0;
/// Minimum relation size for a joint index to be worth building.
const JOINT_MIN_ROWS: u64 = 256;
/// A joint index is requested only when the expected posting-list scan
/// work it avoids exceeds this multiple of the relation's size (the
/// build is one pass over the rows, plus a map entry per distinct key).
const JOINT_BUILD_FACTOR: f64 = 4.0;
/// Absolute row-count change below which drift is ignored (tiny
/// relations re-planning every stratum would be pure churn).
const DRIFT_MIN_ROWS: u64 = 64;

/// True iff some relation's live row count moved by more than 2× (in
/// either direction) and by more than [`DRIFT_MIN_ROWS`] rows since the
/// plan's snapshot was taken.
pub(crate) fn drifted(snapshot: &[u64], now: &[u64]) -> bool {
    snapshot.len() != now.len()
        || snapshot.iter().zip(now).any(|(&a, &b)| {
            let (lo, hi) = (a.min(b), a.max(b));
            hi.abs_diff(lo) > DRIFT_MIN_ROWS && hi > lo.saturating_mul(2)
        })
}

/// The live row counts of a rule's body relations (0 when absent). A
/// union atom's is the sum of its sources', or 0 while its own relation
/// is empty: that is where the copy rules it replaces would have copied
/// to, so the drift gate sees the union as the literal program sees the
/// copies — empty when a build enters its stratum, full from then on —
/// and plans the rules reading it about when the literal program would.
pub(crate) fn body_row_counts(rule: &CompiledRule, layers: Layers<'_>) -> Vec<u64> {
    let rows = |a: &CAtom| {
        layers
            .source(a.pred, a.terms.len())
            .map_or(0, |s| s.rel.len() as u64)
    };
    rule.body_pos
        .iter()
        .map(|a| match rows(a) {
            0 => 0,
            own => own + a.alts.iter().map(|alt| rows(&alt.atom)).sum::<u64>(),
        })
        .collect()
}

/// A union atom's costs: its sources' rows summed, and per column the
/// most distinct values any source holds there (one at a source's fixed
/// column). No exact counts, and no joint index: its columns are not
/// one relation's.
fn union_cost(atom: &CAtom, layers: Layers<'_>) -> AtomCost {
    let mut rows = 0.0;
    let mut distinct = vec![1.0f64; atom.terms.len()];
    let own = layers
        .source(atom.pred, atom.terms.len())
        .map(|s| (s.rel, None));
    let alts = atom.alts.iter().filter_map(|alt| {
        let src = layers.source(alt.atom.pred, alt.atom.terms.len())?;
        Some((src.rel, alt.fixed.map(|(col, _)| col)))
    });
    for (rel, fixed) in own.into_iter().chain(alts) {
        rows += rel.len() as f64;
        let mut cols = rel.stats().cols.iter();
        for (c, d) in distinct.iter_mut().enumerate() {
            if fixed != Some(c) {
                let seen = cols.next().map_or(1, |col| col.distinct().max(1));
                *d = d.max(seen as f64);
            }
        }
    }
    AtomCost {
        rows,
        distinct,
        impossible: false,
        exact_fixed: vec![None; atom.terms.len()],
        read_only: true,
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Tracks which slots are bound while an order is being laid out.
struct BoundSlots {
    bound: Vec<bool>,
}

impl BoundSlots {
    fn new(n_slots: usize) -> Self {
        BoundSlots {
            bound: vec![false; n_slots],
        }
    }

    fn is_bound(&self, term: CTerm) -> bool {
        match term {
            CTerm::Fixed(_) => true,
            CTerm::Slot(s) => self.bound[s as usize],
        }
    }

    fn bind_atom(&mut self, atom: &CAtom) {
        for &t in &atom.terms {
            if let CTerm::Slot(s) = t {
                self.bound[s as usize] = true;
            }
        }
    }
}

/// Per-body-atom costing inputs, computed **once** per plan (HLL
/// estimates cost a register sweep each — they must not run per
/// `estimate` call inside the greedy layout loop).
struct AtomCost {
    /// Live rows of the atom's relation (0 when absent).
    rows: f64,
    /// Per-column estimated distinct count (≥ 1).
    distinct: Vec<f64>,
    /// True iff some fixed term lies outside its column's observed
    /// value range — the atom cannot match at all.
    impossible: bool,
    /// Exact per-column match counts for *fixed* terms, measured with the
    /// vectorized [`kernels`] when the relation is small and dense
    /// (`None` otherwise — estimation falls back to `1/distinct`). An
    /// exact zero upgrades `impossible` from a range heuristic to a
    /// proof.
    exact_fixed: Vec<Option<f64>>,
    /// The relation is a stacked view's base, read in place, or the atom
    /// reads several (a union): no joint index is ever requested on it.
    read_only: bool,
}

/// Above this row count the planner stops paying for exact fixed-column
/// counts at plan time and trusts the distinct-count sketches.
const EXACT_COUNT_MAX: usize = 4096;

fn atom_costs(rule: &CompiledRule, layers: Layers<'_>) -> Vec<AtomCost> {
    rule.body_pos
        .iter()
        .map(|atom| {
            if !atom.alts.is_empty() {
                return union_cost(atom, layers);
            }
            let Some(source) = layers.source(atom.pred, atom.terms.len()) else {
                return AtomCost {
                    rows: 0.0,
                    distinct: vec![1.0; atom.terms.len()],
                    impossible: false,
                    exact_fixed: vec![None; atom.terms.len()],
                    read_only: false,
                };
            };
            let rel = source.rel;
            let stats = rel.stats();
            let mut impossible = false;
            let mut exact_fixed = vec![None; atom.terms.len()];
            let exact_ok = !rel.is_empty() && rel.len() <= EXACT_COUNT_MAX && rel.is_dense();
            for (c, &t) in atom.terms.iter().enumerate() {
                if let CTerm::Fixed(v) = t {
                    impossible |= stats.cols[c].excludes(v.raw());
                    if exact_ok {
                        let k = kernels::count_eq(rel.col(c), v);
                        impossible |= k == 0;
                        exact_fixed[c] = Some(k as f64);
                    }
                }
            }
            AtomCost {
                rows: rel.len() as f64,
                distinct: stats
                    .cols
                    .iter()
                    .map(|c| c.distinct().max(1) as f64)
                    .collect(),
                impossible,
                exact_fixed,
                read_only: source.read_only(),
            }
        })
        .collect()
}

/// Estimated number of candidate rows for atom `i` with the current
/// bound slots: `live_rows × Π selectivity(bound col)`, where a bound
/// column's selectivity is its exact kernel-measured fraction for fixed
/// terms on small dense relations and `1/distinct` otherwise; clamped
/// at zero for impossible atoms. `None` costs (build time, no data) fall back to
/// a data-free heuristic: prefer more fixed terms, then smaller arity.
fn estimate(atom: &CAtom, cost: Option<&AtomCost>, bound: &BoundSlots) -> f64 {
    let Some(cost) = cost else {
        let fixed = atom
            .terms
            .iter()
            .filter(|t| matches!(t, CTerm::Fixed(_)))
            .count();
        return (1000.0 / (fixed as f64 + 1.0)) * (1.0 + atom.terms.len() as f64 / 10.0);
    };
    if cost.impossible {
        return 0.0;
    }
    let mut est = cost.rows;
    for (c, &t) in atom.terms.iter().enumerate() {
        if bound.is_bound(t) {
            // Fixed columns on small dense relations carry an exact
            // kernel-measured count; everything else uses the sketch.
            est *= match cost.exact_fixed[c] {
                Some(k) => k / cost.rows.max(1.0),
                None => 1.0 / cost.distinct[c],
            };
        }
    }
    est
}

/// The probe kind for `atom` at a position where `bound` slots are
/// already bound and an estimated `bindings` partial matches reach it.
/// Joint indexes are only requested when `cost` is stats-backed *and*
/// the scan work they avoid is expected to exceed their build cost.
fn probe_kind(
    atom: &CAtom,
    cost: Option<&AtomCost>,
    bound: &BoundSlots,
    bindings: f64,
    wanted: &mut Vec<(Symbol, usize, Box<[u8]>)>,
) -> ProbeKind {
    let bound_cols: Vec<u8> = atom
        .terms
        .iter()
        .enumerate()
        .filter(|&(_, &t)| bound.is_bound(t))
        .map(|(c, _)| c as u8)
        .collect();
    if bound_cols.is_empty() {
        return ProbeKind::Scan;
    }
    if bound_cols.len() == atom.terms.len() {
        return ProbeKind::Full;
    }
    if bound_cols.len() >= 2 {
        if let Some(cost) = cost.filter(|c| !c.read_only) {
            // Fanout of the best single bound column: what the Cols
            // probe would have to scan per incoming binding.
            let best_single = bound_cols
                .iter()
                .map(|&c| cost.rows / cost.distinct[c as usize])
                .fold(f64::INFINITY, f64::min);
            let expected_scans = bindings * best_single;
            if cost.rows >= JOINT_MIN_ROWS as f64
                && best_single >= JOINT_FANOUT
                && expected_scans >= JOINT_BUILD_FACTOR * cost.rows
            {
                let cols: Box<[u8]> = bound_cols.clone().into();
                let key = (atom.pred, atom.terms.len(), cols.clone());
                if !wanted.contains(&key) {
                    wanted.push(key);
                }
                return ProbeKind::Joint(cols);
            }
        }
    }
    ProbeKind::Cols
}

/// Lays out one bound order: the atoms of `force_first` lead (in the
/// given sequence), the rest follow greedily by smallest estimate (ties
/// break on the original body index, keeping plans deterministic).
fn lay_out(
    rule: &CompiledRule,
    force_first: &[u16],
    costs: Option<&[AtomCost]>,
    wanted: &mut Vec<(Symbol, usize, Box<[u8]>)>,
) -> BoundOrder {
    let n = rule.body_pos.len();
    let mut order: Vec<u16> = Vec::with_capacity(n);
    let mut probes: Vec<ProbeKind> = Vec::with_capacity(n);
    let mut bound = BoundSlots::new(rule.n_slots);
    let mut placed = vec![false; n];
    // Estimated number of partial matches reaching the next position
    // (product of the estimates of the placed atoms, floored at 1 so a
    // zero-estimate never hides downstream fanout entirely).
    let mut bindings = 1.0f64;
    let place = |i: u16,
                 order: &mut Vec<u16>,
                 probes: &mut Vec<ProbeKind>,
                 bound: &mut BoundSlots,
                 placed: &mut Vec<bool>,
                 bindings: &mut f64,
                 wanted: &mut Vec<(Symbol, usize, Box<[u8]>)>| {
        let atom = &rule.body_pos[i as usize];
        let cost = costs.map(|c| &c[i as usize]);
        probes.push(probe_kind(atom, cost, bound, *bindings, wanted));
        *bindings *= estimate(atom, cost, bound).max(1.0);
        bound.bind_atom(atom);
        order.push(i);
        placed[i as usize] = true;
    };
    for &i in force_first {
        place(
            i,
            &mut order,
            &mut probes,
            &mut bound,
            &mut placed,
            &mut bindings,
            wanted,
        );
    }
    while order.len() < n {
        let mut best: Option<(f64, usize)> = None;
        for (i, atom) in rule.body_pos.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let est = estimate(atom, costs.map(|c| &c[i]), &bound);
            if best.is_none_or(|(b, _)| est < b) {
                best = Some((est, i));
            }
        }
        let (_, i) = best.expect("an unplaced atom exists");
        place(
            i as u16,
            &mut order,
            &mut probes,
            &mut bound,
            &mut placed,
            &mut bindings,
            wanted,
        );
    }
    BoundOrder { order, probes }
}

/// Compiles a plan for one rule. With `layers` the greedy order is
/// statistics-driven; without them (build time) a constants-first
/// heuristic applies and no joint indexes are requested.
pub(crate) fn plan_rule(rule: &CompiledRule, layers: Option<Layers<'_>>) -> RulePlan {
    let n = rule.body_pos.len();
    let mut wanted = Vec::new();
    let costs = layers.map(|l| atom_costs(rule, l));
    let full = lay_out(rule, &[], costs.as_deref(), &mut wanted);
    let pivots: Vec<BoundOrder> = (0..n as u16)
        .map(|p| lay_out(rule, &[p], costs.as_deref(), &mut wanted))
        .collect();
    let snapshot = layers.map_or_else(|| vec![0; n], |l| body_row_counts(rule, l));
    let indexed = std::iter::once(&full)
        .chain(pivots.iter())
        .flat_map(|o| o.probes.iter())
        .any(|p| matches!(p, ProbeKind::Full | ProbeKind::Joint(_)));
    RulePlan {
        worthwhile: n >= 3 || indexed,
        full,
        pivots,
        snapshot,
        wanted_indexes: wanted,
        from_stats: layers.is_some(),
    }
}

/// [`plan_rule`] with its latency reported to a telemetry recorder
/// (`triq_chase_plan_ns` — the chase times every drift-triggered replan
/// through this entry point; the clock is read only when the recorder
/// is enabled).
pub(crate) fn plan_rule_timed(
    rule: &CompiledRule,
    layers: Option<Layers<'_>>,
    rec: &dyn triq_obs::Recorder,
) -> RulePlan {
    let _t = triq_obs::Timer::start(rec, triq_obs::Phase::ChasePlan);
    plan_rule(rule, layers)
}

/// A deliberately cost-blind plan: body atoms in reverse declaration
/// order (for every pivot too). Correctness must not care.
pub(crate) fn plan_rule_reversed(rule: &CompiledRule) -> RulePlan {
    let n = rule.body_pos.len();
    let reversed: Vec<u16> = (0..n as u16).rev().collect();
    let mut wanted = Vec::new();
    let lay = |first: &[u16], wanted: &mut Vec<(Symbol, usize, Box<[u8]>)>| {
        lay_out(rule, first, None, wanted)
    };
    let full = lay(&reversed, &mut wanted);
    let pivots = (0..n as u16)
        .map(|p| {
            let mut seq = vec![p];
            seq.extend(reversed.iter().copied().filter(|&i| i != p));
            lay(&seq, &mut wanted)
        })
        .collect();
    RulePlan {
        full,
        pivots,
        snapshot: vec![0; n],
        wanted_indexes: wanted,
        from_stats: false,
        // The whole point of this mode is forcing the order, even where
        // a cost-based plan would defer to the greedy pick.
        worthwhile: true,
    }
}

/// Build-time plans for a whole compiled program (data-free heuristic) —
/// what [`crate::ChaseRunner`] precomputes and every chase run starts
/// from.
pub(crate) fn initial_plans(compiled: &[CompiledRule]) -> Vec<RulePlan> {
    compiled.iter().map(|r| plan_rule(r, None)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::compile_rule as compile;
    use crate::instance::{Database, Layers};
    use crate::parse_program;

    fn rule_of(src: &str) -> CompiledRule {
        compile(
            &parse_program(src).unwrap().rules[0],
            &crate::Unions::none(),
        )
    }

    #[test]
    fn heuristic_plan_prefers_constants() {
        // Without data, the atom with a constant leads.
        let rule = rule_of("p(?X, ?Y), q(?X, c) -> r(?Y).");
        let plan = plan_rule(&rule, None);
        assert_eq!(plan.full.order, vec![1, 0]);
        assert!(!plan.from_stats);
        assert!(plan.wanted_indexes.is_empty());
    }

    #[test]
    fn stats_plan_orders_by_cardinality() {
        // big has 200 rows, small has 2: small leads, then big is probed
        // through its bound join column.
        let rule = rule_of("big(?X, ?Y), small(?Y, ?Z) -> r(?X, ?Z).");
        let mut db = Database::new();
        for i in 0..200 {
            db.add_fact("big", &[&format!("b{i}"), &format!("y{}", i % 4)]);
        }
        db.add_fact("small", &["y0", "z"]);
        db.add_fact("small", &["y1", "z"]);
        let inst = db.to_instance();
        let plan = plan_rule(&rule, Some(Layers::flat(&inst)));
        assert!(plan.from_stats);
        assert_eq!(plan.full.order, vec![1, 0], "small relation first");
        assert_eq!(plan.full.probes[0], ProbeKind::Scan);
        assert_eq!(plan.full.probes[1], ProbeKind::Cols, "Y bound for big");
        // Each pivot leads its own order.
        assert_eq!(plan.pivots[0].order[0], 0);
        assert_eq!(plan.pivots[1].order[0], 1);
    }

    #[test]
    fn fully_bound_positions_probe_the_tuple_hash() {
        let rule = rule_of("a(?X, ?Y), b(?X, ?Y) -> r(?X).");
        let mut db = Database::new();
        db.add_fact("a", &["1", "2"]);
        db.add_fact("b", &["1", "2"]);
        let inst = db.to_instance();
        let plan = plan_rule(&rule, Some(Layers::flat(&inst)));
        assert_eq!(plan.full.probes[1], ProbeKind::Full);
    }

    #[test]
    fn high_fanout_positions_request_a_joint_index() {
        // hub: 512 rows, 3 columns; the spokes bind two columns with few
        // distinct values each, so enough bindings with enough fanout
        // reach the hub to pay for building the joint index.
        let rule = rule_of("s1(?A), s2(?B), hub(?A, ?B, ?C) -> r(?C).");
        let mut db = Database::new();
        for i in 0..16 {
            db.add_fact("s1", &[&format!("a{i}")]);
            db.add_fact("s2", &[&format!("b{i}")]);
        }
        for i in 0..512 {
            db.add_fact(
                "hub",
                &[
                    &format!("a{}", i % 16),
                    &format!("b{}", i % 16),
                    &format!("c{i}"),
                ],
            );
        }
        let inst = db.to_instance();
        let plan = plan_rule(&rule, Some(Layers::flat(&inst)));
        assert_eq!(plan.full.order[2], 2, "hub probed last");
        assert!(
            matches!(plan.full.probes[2], ProbeKind::Joint(ref c) if **c == [0, 1]),
            "got {:?}",
            plan.full.probes[2]
        );
        assert_eq!(plan.wanted_indexes.len(), 1);
    }

    #[test]
    fn out_of_range_constants_cost_zero() {
        // q is big (100 rows, 2 distinct tags → est 50 when probed by its
        // constant) and p small (5 rows): without range pruning p leads.
        // But the constant in the rule was never inserted into q's tag
        // column, so its estimate collapses to 0 and q fails fastest.
        let mut db = Database::new();
        for i in 0..100 {
            db.add_fact(
                "q",
                &[&format!("v{i}"), if i % 2 == 0 { "t0" } else { "t1" }],
            );
        }
        for i in 0..5 {
            db.add_fact("p", &[&format!("v{i}")]);
        }
        let absent = format!("never_inserted_{}", line!());
        let rule = rule_of(&format!("p(?X), q(?X, {absent}) -> r(?X)."));
        let inst = db.to_instance();
        let plan = plan_rule(&rule, Some(Layers::flat(&inst)));
        assert_eq!(plan.full.order[0], 1, "impossible atom fails fastest");
    }

    #[test]
    fn exact_counts_prove_in_range_constants_impossible() {
        // The constant interns *between* the two values actually stored
        // in q's tag column, so the range sketch cannot exclude it —
        // only the exact kernel count over the small dense relation
        // proves zero matches. q is big (200 rows, 2 distinct tags →
        // sketch estimate 100) and p small (5 rows): without the exact
        // count p would lead.
        let n = line!();
        let mut db = Database::new();
        for i in 0..100 {
            db.add_fact("q", &[&format!("v{i}"), &format!("tag_a_{n}")]);
        }
        // Interned after tag_a and before tag_c: in range, never in q.
        db.add_fact("marker", &[&format!("tag_b_{n}")]);
        for i in 0..100 {
            db.add_fact("q", &[&format!("w{i}"), &format!("tag_c_{n}")]);
        }
        for i in 0..5 {
            db.add_fact("p", &[&format!("v{i}")]);
        }
        let rule = rule_of(&format!("p(?X), q(?X, tag_b_{n}) -> r(?X)."));
        let inst = db.to_instance();
        let plan = plan_rule(&rule, Some(Layers::flat(&inst)));
        assert_eq!(plan.full.order[0], 1, "exact zero count fails fastest");
    }

    #[test]
    fn drift_detector_fires_on_2x_growth() {
        assert!(!drifted(&[100, 100], &[100, 120]));
        assert!(drifted(&[100, 100], &[100, 300]));
        assert!(drifted(&[1000, 10], &[400, 10]));
        // Tiny absolute changes never fire.
        assert!(!drifted(&[1, 1], &[3, 3]));
        assert!(drifted(&[1], &[1, 1]), "shape change always re-plans");
    }

    #[test]
    fn reverse_plan_reverses_and_keeps_pivots_first() {
        let rule = rule_of("a(?X, ?Y), b(?Y, ?Z), c(?Z, ?W) -> r(?X, ?W).");
        let plan = plan_rule_reversed(&rule);
        assert_eq!(plan.full.order, vec![2, 1, 0]);
        for p in 0..3u16 {
            assert_eq!(plan.pivots[p as usize].order[0], p);
        }
    }
}
