//! Vectorizable column kernels for the columnar store.
//!
//! The [`crate::Instance`] relations are column-major `Vec<TermId>`
//! (PR 2) precisely so the innermost compare/filter loops of the chase
//! could become chunked `u32` kernels. This module holds those kernels:
//! equality and range filters producing **selection vectors** (ascending
//! row positions), conjunctive refinement of an existing selection, a
//! gather for materializing ids out of a selection, and branch-free
//! counting primitives.
//!
//! Every kernel is written as an iterator-free chunked loop over fixed
//! [`CHUNK`]-wide blocks plus a scalar tail — the shape LLVM
//! auto-vectorizes on every target without `unsafe`, intrinsics, or new
//! dependencies. Filters do a branch-free *count* pass per block first
//! and only fall into the write loop when the block has hits, so sparse
//! selections stay at SIMD speed.
//!
//! Kernels never allocate when the caller pre-reserves output capacity
//! (`tests/probe_alloc.rs` pins that), and they never inspect
//! [`TermId`] semantics — a column of constants and nulls is filtered on
//! the packed representation, which is exactly term identity (the
//! comparison the paper's indefinite grounding prescribes for nulls).
//!
//! Selection vectors hold **absolute** row positions: a kernel scanning
//! the slice `col[base..]` with offset `base` emits `base + i`, so a
//! caller can filter a row *window* of a relation and index other
//! columns of the same relation with the result.

use triq_common::TermId;

/// Rows per vectorized block. 64 `u32`s = one or two cache lines per
/// column — wide enough to fill 128/256/512-bit lanes, small enough that
/// the per-block hit test rarely straddles a selectivity boundary.
pub const CHUNK: usize = 64;

/// Appends to `out` the absolute positions `base + i` of every row of
/// `col` equal to `value`, in ascending order.
pub fn filter_eq(col: &[TermId], value: TermId, base: u32, out: &mut Vec<u32>) {
    let n = col.len();
    let mut i = 0usize;
    while i + CHUNK <= n {
        let mut hits = 0u32;
        for j in 0..CHUNK {
            hits += (col[i + j] == value) as u32;
        }
        if hits > 0 {
            for j in 0..CHUNK {
                if col[i + j] == value {
                    out.push(base + (i + j) as u32);
                }
            }
        }
        i += CHUNK;
    }
    while i < n {
        if col[i] == value {
            out.push(base + i as u32);
        }
        i += 1;
    }
}

/// Appends to `out` the absolute positions `base + i` of every element
/// of `xs` in the half-open range `lo..hi`, in ascending order.
pub fn filter_range(xs: &[u32], lo: u32, hi: u32, base: u32, out: &mut Vec<u32>) {
    let n = xs.len();
    let mut i = 0usize;
    while i + CHUNK <= n {
        let mut hits = 0u32;
        for j in 0..CHUNK {
            let x = xs[i + j];
            hits += (x >= lo && x < hi) as u32;
        }
        if hits > 0 {
            for j in 0..CHUNK {
                let x = xs[i + j];
                if x >= lo && x < hi {
                    out.push(base + (i + j) as u32);
                }
            }
        }
        i += CHUNK;
    }
    while i < n {
        let x = xs[i];
        if x >= lo && x < hi {
            out.push(base + i as u32);
        }
        i += 1;
    }
}

/// Conjunctive refinement: retains in `sel` only the positions `p` with
/// `col[p - base] == value`. The selection stays ascending. In-place and
/// allocation-free (a compaction walk, never a re-collect).
pub fn refine_eq(col: &[TermId], value: TermId, base: u32, sel: &mut Vec<u32>) {
    let mut kept = 0usize;
    let mut i = 0usize;
    let n = sel.len();
    while i < n {
        let p = sel[i];
        let keep = col[(p - base) as usize] == value;
        sel[kept] = p;
        kept += keep as usize;
        i += 1;
    }
    sel.truncate(kept);
}

/// Conjunctive refinement on a repeated variable: retains in `sel` only
/// the positions `p` where columns `a` and `b` agree
/// (`a[p - base] == b[p - base]`).
pub fn refine_pair_eq(a: &[TermId], b: &[TermId], base: u32, sel: &mut Vec<u32>) {
    let mut kept = 0usize;
    let mut i = 0usize;
    let n = sel.len();
    while i < n {
        let p = sel[i];
        let r = (p - base) as usize;
        let keep = a[r] == b[r];
        sel[kept] = p;
        kept += keep as usize;
        i += 1;
    }
    sel.truncate(kept);
}

/// Appends to `out` the positions `base + i` of every row where columns
/// `a` and `b` agree — the leading-pass form of [`refine_pair_eq`], for
/// atoms whose only filter is a repeated variable (e.g. `e(?X, ?X)`).
pub fn filter_pair_eq(a: &[TermId], b: &[TermId], base: u32, out: &mut Vec<u32>) {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + CHUNK <= n {
        let mut hits = 0u32;
        for j in 0..CHUNK {
            hits += (a[i + j] == b[i + j]) as u32;
        }
        if hits > 0 {
            for j in 0..CHUNK {
                if a[i + j] == b[i + j] {
                    out.push(base + (i + j) as u32);
                }
            }
        }
        i += CHUNK;
    }
    while i < n {
        if a[i] == b[i] {
            out.push(base + i as u32);
        }
        i += 1;
    }
}

/// Gather: appends `src[p]` for every position `p` in `sel` (absolute
/// positions into `src`) — the match-buffer fill step that turns a
/// selection over a relation's row window into the corresponding
/// `AtomId`s (or any other per-row `u32` payload).
pub fn gather(src: &[u32], sel: &[u32], out: &mut Vec<u32>) {
    let n = sel.len();
    let mut i = 0usize;
    while i + CHUNK <= n {
        for j in 0..CHUNK {
            out.push(src[sel[i + j] as usize]);
        }
        i += CHUNK;
    }
    while i < n {
        out.push(src[sel[i] as usize]);
        i += 1;
    }
}

/// Branch-free count of elements strictly below `bound`. On an
/// **ascending** slice this equals `xs.partition_point(|&x| x < bound)` —
/// the linear form beats the binary search on short posting lists, where
/// the chase's candidate windowing spends most of its time.
pub fn count_lt(xs: &[u32], bound: u32) -> usize {
    let n = xs.len();
    let mut count = 0usize;
    let mut i = 0usize;
    while i + CHUNK <= n {
        let mut c = 0u32;
        for j in 0..CHUNK {
            c += (xs[i + j] < bound) as u32;
        }
        count += c as usize;
        i += CHUNK;
    }
    while i < n {
        count += (xs[i] < bound) as usize;
        i += 1;
    }
    count
}

/// Branch-free count of rows equal to `value`.
pub fn count_eq(col: &[TermId], value: TermId) -> usize {
    let n = col.len();
    let mut count = 0usize;
    let mut i = 0usize;
    while i + CHUNK <= n {
        let mut c = 0u32;
        for j in 0..CHUNK {
            c += (col[i + j] == value) as u32;
        }
        count += c as usize;
        i += CHUNK;
    }
    while i < n {
        count += (col[i] == value) as usize;
        i += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use triq_common::{intern, NullId};

    fn tid(x: u32) -> TermId {
        // Map the low bit to constant-vs-null so columns mix both kinds;
        // interned indices keep constants within the symbol space.
        if x.is_multiple_of(2) {
            TermId::from_const(intern(&format!("k{}", x % 17)))
        } else {
            TermId::from_null(NullId(x % 13))
        }
    }

    fn scalar_filter_eq(col: &[TermId], v: TermId, base: u32) -> Vec<u32> {
        (0..col.len())
            .filter(|&i| col[i] == v)
            .map(|i| base + i as u32)
            .collect()
    }

    #[test]
    fn empty_inputs_do_nothing() {
        let mut out = Vec::new();
        filter_eq(&[], tid(0), 5, &mut out);
        filter_range(&[], 0, 10, 0, &mut out);
        filter_pair_eq(&[], &[], 0, &mut out);
        gather(&[], &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(count_lt(&[], 3), 0);
        assert_eq!(count_eq(&[], tid(0)), 0);
        let mut sel = Vec::new();
        refine_eq(&[], tid(0), 0, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn all_match_and_exact_chunk_boundaries() {
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 7] {
            let v = tid(4);
            let col = vec![v; n];
            let mut out = Vec::new();
            filter_eq(&col, v, 100, &mut out);
            let want: Vec<u32> = (0..n as u32).map(|i| 100 + i).collect();
            assert_eq!(out, want, "n={n}");
            assert_eq!(count_eq(&col, v), n);
            let raw: Vec<u32> = (0..n as u32).collect();
            assert_eq!(count_lt(&raw, n as u32 + 1), n);
            assert_eq!(count_lt(&raw, 0), 0);
        }
    }

    #[test]
    fn gather_pulls_through_selection() {
        let src: Vec<u32> = (0..200u32).map(|i| i * 3).collect();
        let sel: Vec<u32> = vec![0, 7, 63, 64, 65, 199];
        let mut out = Vec::new();
        gather(&src, &sel, &mut out);
        assert_eq!(out, vec![0, 21, 189, 192, 195, 597]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn filter_eq_matches_scalar(raw in prop::collection::vec(0u32..40, 0..300), pick in 0u32..40, base in 0u32..1000) {
            let col: Vec<TermId> = raw.iter().map(|&x| tid(x)).collect();
            let v = tid(pick);
            let mut out = vec![0u32; 3]; // dirty prefix must survive
            let mut want = vec![0u32; 3];
            filter_eq(&col, v, base, &mut out);
            want.extend(scalar_filter_eq(&col, v, base));
            prop_assert_eq!(out, want);
        }

        #[test]
        fn filter_range_matches_scalar(xs in prop::collection::vec(0u32..500, 0..300), lo in 0u32..500, span in 0u32..200) {
            let hi = lo.saturating_add(span);
            let mut out = Vec::new();
            filter_range(&xs, lo, hi, 10, &mut out);
            let want: Vec<u32> = (0..xs.len())
                .filter(|&i| xs[i] >= lo && xs[i] < hi)
                .map(|i| 10 + i as u32)
                .collect();
            prop_assert_eq!(out, want);
        }

        #[test]
        fn conjunctive_filter_matches_scalar(
            a in prop::collection::vec(0u32..12, 0..300),
            b_seed in 0u32..12,
            pick_a in 0u32..12,
            pick_b in 0u32..12,
        ) {
            // Two columns of equal length; conjunctive = filter then refine.
            let col_a: Vec<TermId> = a.iter().map(|&x| tid(x)).collect();
            let col_b: Vec<TermId> = a.iter().map(|&x| tid(x.wrapping_mul(7).wrapping_add(b_seed) % 12)).collect();
            let (va, vb) = (tid(pick_a), tid(pick_b));
            let mut sel = Vec::new();
            filter_eq(&col_a, va, 50, &mut sel);
            refine_eq(&col_b, vb, 50, &mut sel);
            let want: Vec<u32> = (0..col_a.len())
                .filter(|&i| col_a[i] == va && col_b[i] == vb)
                .map(|i| 50 + i as u32)
                .collect();
            prop_assert_eq!(sel, want);
        }

        #[test]
        fn pair_eq_paths_agree(raw in prop::collection::vec(0u32..8, 0..300)) {
            let a: Vec<TermId> = raw.iter().map(|&x| tid(x)).collect();
            let b: Vec<TermId> = raw.iter().rev().map(|&x| tid(x)).collect();
            // Leading-pass form vs refine over the full selection.
            let mut lead = Vec::new();
            filter_pair_eq(&a, &b, 0, &mut lead);
            let mut refined: Vec<u32> = (0..a.len() as u32).collect();
            refine_pair_eq(&a, &b, 0, &mut refined);
            prop_assert_eq!(lead, refined);
        }

        #[test]
        fn count_lt_matches_partition_point(raw in prop::collection::vec(0u32..1000, 0..300), bound in 0u32..1000) {
            let mut xs = raw;
            xs.sort_unstable();
            prop_assert_eq!(count_lt(&xs, bound), xs.partition_point(|&x| x < bound));
        }

        #[test]
        fn count_eq_matches_filter_len(raw in prop::collection::vec(0u32..20, 0..300), pick in 0u32..20) {
            let col: Vec<TermId> = raw.iter().map(|&x| tid(x)).collect();
            let v = tid(pick);
            let mut out = Vec::new();
            filter_eq(&col, v, 0, &mut out);
            prop_assert_eq!(count_eq(&col, v), out.len());
        }
    }
}
