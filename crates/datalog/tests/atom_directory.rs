//! The atom directory, the derivation arena, the dedup table and the
//! reverse-provenance arena against a naive model.
//!
//! Random histories of inserts (with and without a derivation),
//! duplicate inserts, tombstones (each taking its dependents along, as
//! DRed does), re-inserts of dead tuples and compactions run against a
//! tuple map plus one `Vec` of dependents per atom. After every step
//! the instance answers `find_ids` / `contains_ids`, `derivation` and
//! `live_len` as the model does, `DependencyIndex::cone`
//! is a breadth-first search over the model's dependents, and an index
//! extended step by step equals one built once. The relations grow to
//! hundreds of rows, so each dedup table doubles several times with
//! deletes in between.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use triq_common::{intern, Symbol, TermId};
use triq_datalog::{AtomId, DependencyIndex, Derivation, Instance};

/// One atom of the model, by id.
#[derive(Clone, Debug)]
struct ModelAtom {
    pred: Symbol,
    key: Vec<TermId>,
    derivation: Option<Derivation>,
    live: bool,
}

/// What the instance should hold.
#[derive(Default)]
struct Model {
    atoms: Vec<ModelAtom>,
    /// Live tuple → its id.
    live: HashMap<(Symbol, Vec<TermId>), AtomId>,
}

impl Model {
    /// `dependents[id]`: the atoms whose derivation names `id`, once per
    /// occurrence.
    fn dependents(&self) -> Vec<Vec<AtomId>> {
        let mut deps = vec![Vec::new(); self.atoms.len()];
        for (id, atom) in self.atoms.iter().enumerate() {
            for &b in atom.derivation.iter().flat_map(|d| &d.body) {
                deps[b as usize].push(id as AtomId);
            }
        }
        deps
    }

    /// Every atom reachable from `seeds` through dependents, the seeds
    /// themselves excluded — the cone.
    fn cone(&self, seeds: &[AtomId]) -> Vec<AtomId> {
        let deps = self.dependents();
        let mut seen: BTreeSet<AtomId> = seeds.iter().copied().collect();
        let mut queue: Vec<AtomId> = seeds.to_vec();
        let mut out = BTreeSet::new();
        while let Some(cur) = queue.pop() {
            for &d in &deps[cur as usize] {
                if seen.insert(d) {
                    out.insert(d);
                    queue.push(d);
                }
            }
        }
        out.into_iter().collect()
    }

    fn live_ids(&self) -> Vec<AtomId> {
        (0..self.atoms.len() as AtomId)
            .filter(|&id| self.atoms[id as usize].live)
            .collect()
    }
}

const PREDS: [(&str, usize); 3] = [("p", 1), ("e", 2), ("unit", 0)];

fn random_tuple(rng: &mut StdRng) -> (Symbol, Vec<TermId>) {
    // Mostly `e`: the binary relation is the one that grows large.
    let (pred, arity) = PREDS[[0, 1, 1, 1, 1, 1, 1, 2][rng.gen_range(0..8usize)]];
    let key = (0..arity)
        .map(|_| TermId::from_const(intern(&format!("c{}", rng.gen_range(0..40u32)))))
        .collect();
    (intern(pred), key)
}

/// Inserts `(pred, key)` into both; a fresh atom gets `derivation`.
fn insert(
    inst: &mut Instance,
    model: &mut Model,
    pred: Symbol,
    key: Vec<TermId>,
    derivation: Option<Derivation>,
) {
    let (id, fresh) = inst.insert_ids(pred, &key, derivation.clone());
    match model.live.get(&(pred, key.clone())) {
        Some(&known) => {
            assert!(!fresh, "a live tuple is found again");
            assert_eq!(id, known);
        }
        None => {
            assert!(fresh, "a new or dead tuple gets a fresh id");
            assert_eq!(id as usize, model.atoms.len());
            model.live.insert((pred, key.clone()), id);
            model.atoms.push(ModelAtom {
                pred,
                key,
                derivation,
                live: true,
            });
        }
    }
}

/// Tombstones `id` and, as DRed over-deletes, every live atom of its
/// cone: no live derivation names a dead atom.
fn tombstone(inst: &mut Instance, model: &mut Model, id: AtomId) {
    for victim in std::iter::once(id).chain(model.cone(&[id])) {
        let atom = &mut model.atoms[victim as usize];
        assert_eq!(inst.tombstone(victim), atom.live);
        if atom.live {
            atom.live = false;
            model.live.remove(&(atom.pred, atom.key.clone()));
        }
    }
}

/// Replaces the instance with its compacted copy and renumbers the
/// model the same way.
fn compact(inst: &mut Instance, model: &mut Model) {
    let (out, renumbering) = inst.compacted();
    let new_id = |old: AtomId| renumbering.atoms[old as usize].expect("live");
    let mut atoms = Vec::with_capacity(out.len());
    for (old, atom) in model.atoms.iter().enumerate() {
        let Some(new) = renumbering.atoms[old] else {
            assert!(!atom.live);
            continue;
        };
        assert_eq!(new as usize, atoms.len(), "dense ids in the same order");
        let mut atom = atom.clone();
        if let Some(d) = &mut atom.derivation {
            d.body = d.body.iter().map(|&b| new_id(b)).collect();
        }
        atoms.push(atom);
    }
    model.live = atoms
        .iter()
        .enumerate()
        .map(|(id, a)| ((a.pred, a.key.clone()), id as AtomId))
        .collect();
    model.atoms = atoms;
    *inst = out;
}

fn check(inst: &Instance, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(inst.len(), model.atoms.len());
    prop_assert_eq!(inst.live_len(), model.live.len());
    for (id, atom) in model.atoms.iter().enumerate() {
        let id = id as AtomId;
        prop_assert_eq!(inst.is_live(id), atom.live);
        prop_assert_eq!(inst.derivation(id), atom.derivation.clone());
        prop_assert_eq!(
            inst.provenance(id),
            atom.derivation
                .as_ref()
                .map(|d| (d.rule, d.body.as_slice()))
        );
        prop_assert_eq!(inst.key_of(id), atom.key.clone());
        let found = inst.find_ids(atom.pred, &atom.key);
        let want = model.live.get(&(atom.pred, atom.key.clone())).copied();
        prop_assert_eq!(found, want, "find_ids of {}", id);
        prop_assert_eq!(inst.contains_ids(atom.pred, &atom.key), want.is_some());
    }
    Ok(())
}

fn check_index(
    stepwise: &DependencyIndex,
    inst: &Instance,
    model: &Model,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    let once = DependencyIndex::from_instance(inst);
    prop_assert_eq!(stepwise.len(), inst.len());
    prop_assert_eq!(once.len(), inst.len());
    let deps = model.dependents();
    for id in 0..inst.len() as AtomId {
        let mut want = deps[id as usize].clone();
        want.sort_unstable();
        for index in [stepwise, &once] {
            let mut got: Vec<AtomId> = index.dependents_of(id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "dependents of {}", id);
        }
    }
    if !model.atoms.is_empty() {
        for _ in 0..4 {
            let seeds: Vec<AtomId> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..model.atoms.len()) as AtomId)
                .collect();
            let want = model.cone(&seeds);
            prop_assert_eq!(stepwise.cone(&seeds), want.clone());
            prop_assert_eq!(once.cone(&seeds), want);
        }
    }
    Ok(())
}

fn run(seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new();
    let mut model = Model::default();
    let mut index = DependencyIndex::new();
    for step in 0..steps {
        match rng.gen_range(0..100u32) {
            // A new tuple, derived from up to three earlier live atoms.
            0..=54 => {
                let (pred, key) = random_tuple(&mut rng);
                let live = model.live_ids();
                let derivation = (!live.is_empty() && rng.gen_bool(0.6)).then(|| Derivation {
                    rule: rng.gen_range(0..6),
                    body: (0..rng.gen_range(0..4))
                        .map(|_| live[rng.gen_range(0..live.len())])
                        .collect(),
                });
                insert(&mut inst, &mut model, pred, key, derivation);
            }
            // A duplicate of a live tuple.
            55..=69 => {
                let live = model.live_ids();
                if let Some(&id) = live.get(rng.gen_range(0..live.len().max(1))) {
                    let atom = &model.atoms[id as usize];
                    let (pred, key) = (atom.pred, atom.key.clone());
                    insert(&mut inst, &mut model, pred, key, None);
                }
            }
            // A tombstone, with its cone.
            70..=84 => {
                let live = model.live_ids();
                if let Some(&id) = live.get(rng.gen_range(0..live.len().max(1))) {
                    tombstone(&mut inst, &mut model, id);
                }
            }
            // A dead tuple comes back under a fresh id.
            85..=97 => {
                let dead: Vec<&ModelAtom> = model
                    .atoms
                    .iter()
                    .filter(|a| !model.live.contains_key(&(a.pred, a.key.clone())))
                    .collect();
                if let Some(atom) = dead.get(rng.gen_range(0..dead.len().max(1))) {
                    let (pred, key) = (atom.pred, atom.key.clone());
                    insert(&mut inst, &mut model, pred, key, None);
                }
            }
            _ => {
                compact(&mut inst, &mut model);
                index = DependencyIndex::new();
            }
        }
        check(&inst, &model)?;
        // The step-by-step index catches up every few steps.
        if step % 3 == 0 {
            index.extend_to(&inst);
            check_index(&index, &inst, &model, &mut rng)?;
        }
    }
    index.extend_to(&inst);
    check_index(&index, &inst, &model, &mut rng)?;
    let rel = inst.relation(intern("e"), 2).expect("e grew");
    prop_assert!(rel.len() >= 100, "the binary relation grows large");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long random histories over relations of hundreds of rows.
    #[test]
    fn the_directory_and_both_arenas_match_a_naive_model(seed in any::<u64>()) {
        run(seed, 700)?;
    }
}

#[test]
fn a_tombstone_shifts_its_probe_run_back() {
    // Hundreds of rows, every other one deleted and re-inserted: each
    // delete shifts later rows of its run back, and every lookup still
    // lands — a hole left behind would cut the run short.
    let mut inst = Instance::new();
    let e = intern("e");
    let key = |i: u32| {
        [
            TermId::from_const(intern(&format!("s{i}"))),
            TermId::from_const(intern(&format!("o{}", i % 7))),
        ]
    };
    let ids: Vec<AtomId> = (0..600)
        .map(|i| inst.insert_ids(e, &key(i), None).0)
        .collect();
    for i in (0..600).step_by(2) {
        assert!(inst.tombstone(ids[i as usize]));
    }
    for i in 0..600u32 {
        let want = (i % 2 == 1).then_some(ids[i as usize]);
        assert_eq!(inst.find_ids(e, &key(i)), want, "row {i}");
    }
    for i in (0..600).step_by(2) {
        let (id, fresh) = inst.insert_ids(e, &key(i), None);
        assert!(fresh);
        assert_eq!(inst.find_ids(e, &key(i)), Some(id));
    }
    assert_eq!(inst.live_len(), 600);
    let (compact, _) = inst.compacted();
    for i in 0..600 {
        assert!(compact.contains_ids(e, &key(i)));
    }
}
