//! Property tests for the snapshot codec: randomly built instances
//! (facts, labeled nulls, provenance, tombstones) and live materialized
//! views round-trip through encode → decode verbatim (every atom under
//! its id, dead or alive, every null under its index), re-encoding is a
//! byte-level fixpoint, a chain of checkpoint segments brings a decoded
//! view to the live one, and truncated streams fail cleanly instead of
//! panicking.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use triq_common::codec::{encode_interner, encode_interner_from, Decoder, Encoder, SymbolRemap};
use triq_common::{intern, Delta, NullId, TermId};
use triq_datalog::persist::{
    decode_instance, decode_view, encode_instance, encode_view, encode_view_segment, extends,
    mark_view, plan_fingerprint, StoredView,
};
use triq_datalog::{
    parse_program, AtomId, ChaseConfig, ChaseRunner, Database, Derivation, Instance,
    MaterializedView,
};

/// Builds an instance the way the chase does: base facts first, then
/// derived atoms (some mentioning fresh nulls, some with provenance over
/// earlier atoms), duplicate inserts, and a few tombstones — never on an
/// atom that backs a live derivation, matching the chase invariant
/// `Instance::compacted` relies on.
fn build_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new();
    let consts = ["a", "b", "c", "d", "e", "f"];
    let preds: Vec<(&str, usize)> = vec![("p", 1), ("q", 2), ("r", 3), ("unit", 0)];

    // Base facts (including an arity-0 predicate and duplicates).
    let mut ids: Vec<AtomId> = Vec::new();
    for _ in 0..rng.gen_range(0..30) {
        let (pred, arity) = preds[rng.gen_range(0..preds.len())];
        let args: Vec<&str> = (0..arity)
            .map(|_| consts[rng.gen_range(0..consts.len())])
            .collect();
        ids.push(inst.insert_fact(pred, &args));
    }

    // Derived atoms: random mixes of constants and fresh nulls, some
    // carrying provenance over already-present atoms.
    let mut used_as_body: HashSet<AtomId> = HashSet::new();
    for rule in 0..rng.gen_range(0..12usize) {
        let (pred, arity) = preds[rng.gen_range(0..preds.len() - 1)];
        let key: Vec<TermId> = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    TermId::from_null(inst.fresh_null(rng.gen_range(1..4)))
                } else {
                    TermId::from_const(intern(consts[rng.gen_range(0..consts.len())]))
                }
            })
            .collect();
        let derivation = if !ids.is_empty() && rng.gen_bool(0.7) {
            let body: Vec<AtomId> = (0..rng.gen_range(1..3))
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect();
            used_as_body.extend(body.iter().copied());
            Some(Derivation { rule, body })
        } else {
            None
        };
        let (id, fresh) = inst.insert_ids(intern(pred), &key, derivation);
        if fresh {
            ids.push(id);
        }
    }

    // Tombstone a few atoms nothing derives from.
    let candidates: Vec<AtomId> = ids
        .iter()
        .copied()
        .filter(|id| !used_as_body.contains(id))
        .collect();
    for id in candidates {
        if rng.gen_bool(0.25) {
            inst.tombstone(id);
        }
    }
    inst
}

/// Encodes `inst` behind an interner table and decodes it back. Returns
/// the instance stream only: the interner table in front of it is
/// process-global and grows while sibling tests intern.
fn round_trip(inst: &Instance) -> (Vec<u8>, Instance) {
    let mut enc = Encoder::new();
    encode_interner(&mut enc);
    encode_instance(&mut enc, inst);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let remap = SymbolRemap::decode(&mut dec).unwrap();
    let consumed = bytes.len() - dec.remaining();
    let mut dec = Decoder::new(&bytes[consumed..]);
    let out = decode_instance(&mut dec, &remap).unwrap();
    assert!(dec.is_exhausted());
    (bytes[consumed..].to_vec(), out)
}

/// `b`, decoded from `a`'s encoding, is `a` verbatim: every atom under
/// the same id, dead or alive, with the same depth and derivation, every
/// null under the same index with the same depth, and every live atom
/// found under its id.
fn check_equal(a: &Instance, b: &Instance) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.dead_len(), b.dead_len());
    prop_assert_eq!(a.null_count(), b.null_count());
    for n in 0..a.null_count() as u32 {
        prop_assert_eq!(
            a.null_depth(NullId(n)),
            b.null_depth(NullId(n)),
            "null depth"
        );
    }
    for id in 0..a.len() as AtomId {
        prop_assert_eq!(a.atom(id), b.atom(id), "atom {} moved", id);
        prop_assert_eq!(a.is_live(id), b.is_live(id), "atom {} died or woke", id);
        prop_assert_eq!(a.depth(id), b.depth(id));
        prop_assert_eq!(a.derivation(id), b.derivation(id));
        if a.is_live(id) {
            prop_assert_eq!(b.find(&a.atom(id)), Some(id), "live atom {} is found", id);
        }
    }
    Ok(())
}

const VIEW_PROGRAM: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                            e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                            t(?X, ?Y) -> ex(?X).\n\
                            ex(?X) -> exists ?N holder(?X, ?N).";

fn random_delta(rng: &mut StdRng, nodes: &[&str], present: &mut Vec<(usize, usize)>) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..rng.gen_range(1..5) {
        if !present.is_empty() && rng.gen_bool(0.3) {
            let (x, y) = present.swap_remove(rng.gen_range(0..present.len()));
            delta = delta.delete("e", &[nodes[x], nodes[y]]);
        } else {
            let (x, y) = (rng.gen_range(0..nodes.len()), rng.gen_range(0..nodes.len()));
            present.push((x, y));
            delta = delta.insert("e", &[nodes[x], nodes[y]]);
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random instances — nulls, provenance, supports, tombstones —
    /// survive encode → decode, and re-encoding the decoded (dense)
    /// instance reproduces the original stream byte for byte.
    #[test]
    fn random_instances_round_trip(seed in any::<u64>()) {
        let inst = build_instance(seed);
        let (bytes, out) = round_trip(&inst);
        check_equal(&inst, &out)?;
        let (bytes2, _) = round_trip(&out);
        prop_assert_eq!(bytes, bytes2, "encoding is a fixpoint after decode");
    }

    /// No prefix of a valid stream panics the decoder: every truncation
    /// either decodes (a short prefix can look like an empty instance)
    /// or fails with E-PERSIST.
    #[test]
    fn truncated_streams_never_panic(seed in any::<u64>(), frac in 0..100u32) {
        let inst = build_instance(seed);
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_instance(&mut enc, &inst);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let consumed = bytes.len() - dec.remaining();
        let body = &bytes[consumed..];
        let cut = body.len() * frac as usize / 100;
        match decode_instance(&mut Decoder::new(&body[..cut]), &remap) {
            Ok(_) => {}
            Err(e) => prop_assert_eq!(e.code(), "E-PERSIST"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live views under random insert/delete histories round-trip with
    /// their skolem memos: the restored view matches the original and
    /// both stay in lockstep under further mutation (the memo prevents
    /// re-inventing existential witnesses on re-fire).
    #[test]
    fn random_views_round_trip_and_keep_maintaining(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = ["n0", "n1", "n2", "n3", "n4", "n5"];
        let mut present: Vec<(usize, usize)> = Vec::new();
        let mut db = Database::new();
        for _ in 0..rng.gen_range(1..8) {
            let (x, y) = (rng.gen_range(0..nodes.len()), rng.gen_range(0..nodes.len()));
            present.push((x, y));
            db.add_fact("e", &[nodes[x], nodes[y]]);
        }
        let program = parse_program(VIEW_PROGRAM).unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut view = MaterializedView::new(runner, db).unwrap();
        for _ in 0..rng.gen_range(0..3) {
            view.apply(&random_delta(&mut rng, &nodes, &mut present)).unwrap();
        }

        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        encode_view(&mut enc, &view);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let remap = SymbolRemap::decode(&mut dec).unwrap();
        let consumed = bytes.len() - dec.remaining();
        let mut dec = Decoder::new(&bytes[consumed..]);
        let (mut restored, fp) = decode_view(&mut dec, &remap, &view.database()).unwrap();
        prop_assert!(dec.is_exhausted());
        prop_assert_eq!(
            fp.fingerprint(),
            plan_fingerprint(view.runner().program(), &view.runner().config())
        );
        check_equal(view.instance(), restored.instance())?;

        // Both copies must evolve identically under the same deltas.
        for _ in 0..2 {
            let delta = random_delta(&mut rng, &nodes, &mut present);
            view.apply(&delta).unwrap();
            restored.apply(&delta).unwrap();
            prop_assert_eq!(view.instance().live_len(), restored.instance().live_len());
            for (_, atom) in view.instance().iter() {
                if atom.is_fully_ground() {
                    prop_assert!(restored.instance().contains(&atom), "missing: {atom}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A checkpoint chain: a view written whole, then a segment after
    /// each of a few random deltas (or whole again where maintenance
    /// compacted or rebuilt it). The stored view the full snapshot and
    /// the segments decode to is the live view verbatim — instance and
    /// memo — after every step, and restored, it keeps maintaining in
    /// lockstep.
    #[test]
    fn segments_bring_a_decoded_view_to_the_live_one(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = ["n0", "n1", "n2", "n3", "n4", "n5"];
        let mut present: Vec<(usize, usize)> = Vec::new();
        let mut db = Database::new();
        for _ in 0..rng.gen_range(1..8) {
            let (x, y) = (rng.gen_range(0..nodes.len()), rng.gen_range(0..nodes.len()));
            present.push((x, y));
            db.add_fact("e", &[nodes[x], nodes[y]]);
        }
        let program = parse_program(VIEW_PROGRAM).unwrap();
        let runner = ChaseRunner::new(program, ChaseConfig::default()).unwrap();
        let mut view = MaterializedView::new(runner, db).unwrap();

        let mut enc = Encoder::new();
        let mut symbols = encode_interner_from(&mut enc, 0);
        encode_view(&mut enc, &view);
        let mut mark = mark_view(&mut view);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut remap = SymbolRemap::decode(&mut dec).unwrap();
        let mut stored = StoredView::decode(&mut dec, &remap, None).unwrap();
        prop_assert!(dec.is_exhausted());

        for _ in 0..rng.gen_range(1..5) {
            view.apply(&random_delta(&mut rng, &nodes, &mut present)).unwrap();
            let mut enc = Encoder::new();
            if extends(&view, &mark) {
                symbols = encode_interner_from(&mut enc, symbols);
                mark = encode_view_segment(&mut enc, &mut view, &mark);
                let bytes = enc.into_bytes();
                let mut dec = Decoder::new(&bytes);
                remap.extend(&mut dec).unwrap();
                stored.apply_segment(&mut dec, &remap, None).unwrap();
                prop_assert!(dec.is_exhausted());
            } else {
                symbols = encode_interner_from(&mut enc, 0);
                encode_view(&mut enc, &view);
                mark = mark_view(&mut view);
                let bytes = enc.into_bytes();
                let mut dec = Decoder::new(&bytes);
                remap = SymbolRemap::decode(&mut dec).unwrap();
                stored = StoredView::decode(&mut dec, &remap, None).unwrap();
            }
            check_equal(view.instance(), stored.instance())?;
        }
        let mut restored = stored.restore(&view.database(), None).unwrap();
        prop_assert_eq!(restored.memo_len(), view.memo_len());
        for _ in 0..2 {
            let delta = random_delta(&mut rng, &nodes, &mut present);
            view.apply(&delta).unwrap();
            restored.apply(&delta).unwrap();
            check_equal(view.instance(), restored.instance())?;
        }
    }
}
