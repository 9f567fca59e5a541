//! The flat structure-of-arrays moment kernel.
//!
//! Same mathematics as [`tree_sums`](crate::tree_sums) — the Appendix's
//! `Cal_Cap_Loads` / `Cal_Summations` two-pass algorithm — but swept over a
//! packed [`FlatTree`] / [`FlatForest`] instead of the pointer-linked
//! arena:
//!
//! * **Pass 1** walks indices *descending*. Because the flat layout keeps
//!   the arena's topological order (`parent[i] < i`), every child is
//!   finalized before its parent, and the CSR child gather visits children
//!   in ascending order — the arena's insertion order — so each node's
//!   capacitance accumulation performs the exact same float additions as
//!   the arena walker.
//! * **Pass 2** walks indices *ascending*; each node reads its parent's
//!   already-final prefix sums. The per-node expression is identical to the
//!   arena preorder pass.
//!
//! Both passes are branch-light linear loops over contiguous slices — no
//! traversal vectors, no parent `Option` chasing — which is where the ≥5x
//! single-thread speedup over the arena walker comes from. The results are
//! **bit-identical** to the arena kernel (enforced by the `flat_vs_arena`
//! differential suite), so the swap is invisible in every rendered report.
//!
//! [`FlatIncrementalSums`] is the factored O(depth)-edit form of the same
//! sums, bit-identical to a from-scratch pass after every edit.

use rlc_tree::flat::{FlatForest, FlatTree, NO_PARENT};
use rlc_units::{Capacitance, Inductance, Resistance, Time, TimeSquared};

use crate::ElmoreSums;

/// The shared two-pass kernel over raw SoA slices.
///
/// `out` is fully overwritten (and resized) — stale contents are never
/// read, so callers can reuse one [`ElmoreSums`] across nets to keep the
/// hot loop allocation-free.
fn sums_into_arrays(
    parent: &[u32],
    res: &[Resistance],
    ind: &[Inductance],
    cap: &[Capacitance],
    child_start: &[u32],
    child_index: &[u32],
    out: &mut ElmoreSums,
) {
    let n = parent.len();
    // Size-only resize: both passes overwrite every slot, so zero-filling
    // the surviving prefix (what `clear` + `resize` would do) is 3n wasted
    // stores on the hot path.
    out.rc.resize(n, Time::ZERO);
    out.lc.resize(n, TimeSquared::ZERO);
    out.downstream_cap.resize(n, Capacitance::ZERO);

    // SAFETY precondition for the `get_unchecked` accesses below: every
    // child in `child_index` and every non-`NO_PARENT` entry of `parent`
    // is `< n`. `FlatForest`'s fields are private and `push_tree` only
    // stores rebased in-range indices, so safe code cannot violate this;
    // debug builds (and therefore the whole test suite) still verify it.
    debug_assert!(child_index.iter().all(|&c| (c as usize) < n));
    debug_assert!(parent.iter().all(|&p| p == NO_PARENT || (p as usize) < n));

    // Re-slice to exactly `n` so the sweeps below index into
    // constant-length slices (lets the per-node bounds checks fold away).
    let dc = &mut out.downstream_cap[..n];
    let cap = &cap[..n];
    let child_start_lo = &child_start[..n];
    let child_start_hi = &child_start[1..n + 1];

    // Pass 1 (Cal_Cap_Loads): descending sweep; children (all at larger
    // indices) are final before their parent gathers them.
    for i in (0..n).rev() {
        let mut total = cap[i];
        let lo = child_start_lo[i] as usize;
        let hi = child_start_hi[i] as usize;
        for &child in &child_index[lo..hi] {
            // SAFETY: `child < n` per the precondition above
            // (DESIGN.md §15 packed-kernel index invariants).
            total += *unsafe { dc.get_unchecked(child as usize) };
        }
        dc[i] = total;
    }

    // Pass 2 (Cal_Summations): ascending sweep; parents (all at smaller
    // indices) are final before their children read them.
    let dc = &out.downstream_cap[..n];
    let rc = &mut out.rc[..n];
    let lc = &mut out.lc[..n];
    let parent = &parent[..n];
    let res = &res[..n];
    let ind = &ind[..n];
    for i in 0..n {
        let p = parent[i];
        let (parent_rc, parent_lc) = if p == NO_PARENT {
            (Time::ZERO, TimeSquared::ZERO)
        } else {
            // SAFETY: `p != NO_PARENT`, so `p < n` per the precondition
            // (DESIGN.md §15 packed-kernel index invariants).
            unsafe { (*rc.get_unchecked(p as usize), *lc.get_unchecked(p as usize)) }
        };
        let load = dc[i];
        rc[i] = parent_rc + res[i] * load;
        lc[i] = parent_lc + ind[i] * load;
    }
}

/// Computes [`ElmoreSums`] for a [`FlatTree`] in O(n), writing into a
/// caller-owned buffer (allocation-free when `out` has capacity).
///
/// Flat indices coincide with the source arena's ids, so the result is
/// queryable with the original [`NodeId`](rlc_tree::NodeId)s and is
/// bit-identical to [`tree_sums`](crate::tree_sums) on the source tree.
pub fn flat_sums_into(flat: &FlatTree, out: &mut ElmoreSums) {
    let _span = rlc_obs::span!("moments.flat_sums");
    rlc_obs::counter!("moments.flat_sums.calls");
    rlc_obs::counter!("moments.flat_sums.nodes_visited", 2 * flat.len() as u64);
    sums_into_arrays(
        flat.parents(),
        flat.resistances(),
        flat.inductances(),
        flat.capacitances(),
        flat.child_start(),
        flat.child_index(),
        out,
    );
}

/// Allocating convenience wrapper around [`flat_sums_into`].
///
/// # Examples
///
/// ```
/// use rlc_moments::{flat_sums, tree_sums};
/// use rlc_tree::flat::FlatTree;
/// use rlc_tree::{topology, RlcSection};
/// use rlc_units::{Resistance, Inductance, Capacitance};
///
/// let s = RlcSection::new(
///     Resistance::from_ohms(10.0),
///     Inductance::from_nanohenries(1.0),
///     Capacitance::from_picofarads(0.2),
/// );
/// let tree = topology::balanced_tree(3, 2, s);
/// let flat = FlatTree::from_tree(&tree);
/// assert_eq!(flat_sums(&flat), tree_sums(&tree));
/// ```
pub fn flat_sums(flat: &FlatTree) -> ElmoreSums {
    let mut out = ElmoreSums::default();
    flat_sums_into(flat, &mut out);
    out
}

/// Computes the sums for **every net** of a packed [`FlatForest`] in one
/// pair of linear sweeps, writing into a caller-owned buffer.
///
/// The kernel is the same two passes: the topological invariant holds
/// globally (roots carry [`NO_PARENT`], parents precede children within
/// each net, nets are disjoint index ranges), so no per-net dispatch is
/// needed. Per-net results live at
/// [`net_range(k)`](FlatForest::net_range) offsets and are bit-identical
/// to analyzing each net alone.
pub fn forest_sums_into(forest: &FlatForest, out: &mut ElmoreSums) {
    let _span = rlc_obs::span!("moments.forest_sums");
    rlc_obs::counter!("moments.forest_sums.calls");
    rlc_obs::counter!("moments.forest_sums.nets", forest.net_count() as u64);
    rlc_obs::counter!("moments.forest_sums.nodes_visited", 2 * forest.len() as u64);
    sums_into_arrays(
        forest.parents(),
        forest.resistances(),
        forest.inductances(),
        forest.capacitances(),
        forest.child_start(),
        forest.child_index(),
        out,
    );
}

/// Allocating convenience wrapper around [`forest_sums_into`].
pub fn forest_sums(forest: &FlatForest) -> ElmoreSums {
    let mut out = ElmoreSums::default();
    forest_sums_into(forest, &mut out);
    out
}

/// Walks the root path of `node` (via the flat parent array) and applies
/// `f` root-first — the float-fold order [`tree_sums`](crate::tree_sums)
/// uses, which bit-identity of queries depends on.
///
/// Allocation-free up to 64 levels (an inline index buffer); deeper paths
/// spill to the heap, matching the O(depth) cost contract.
fn for_path_root_first(parents: &[u32], node: usize, mut f: impl FnMut(usize)) {
    let mut buf = [0u32; 64];
    let mut len = 0usize;
    let mut spill: Vec<u32> = Vec::new();
    let mut cur = node as u32;
    loop {
        if len < buf.len() {
            buf[len] = cur;
        } else {
            spill.push(cur);
        }
        len += 1;
        let p = parents[cur as usize];
        if p == NO_PARENT {
            break;
        }
        cur = p;
    }
    // The walk pushed deepest-first; root-first is the reverse. Entries
    // past the inline buffer (closer to the root) come first.
    for &j in spill.iter().rev() {
        f(j as usize);
    }
    for &j in buf[..len.min(buf.len())].iter().rev() {
        f(j as usize);
    }
}

/// The tree sums in factored form: subtree capacitances `C_i^T` plus the
/// per-section contribution terms `R_i·C_i^T` / `L_i·C_i^T`, whose
/// root-path prefix sums are exactly `T_RC(i)` and `T_LC(i)` (paper eqs.
/// 52–53), updatable in O(depth) per section edit.
///
/// Editing section `k` perturbs `C_j^T` only for `j` on the root path of
/// `k`. Kept consistent with an external [`FlatTree`]: mirror every value
/// edit with [`FlatTree::set_section`] then call
/// [`apply_edit`](Self::apply_edit). Edits re-derive the affected terms
/// from current element values (no accumulated deltas, so undo is
/// lossless), an early exit makes `R`/`L`-only edits O(1), and queries
/// fold root-first, which keeps every probe bit-identical to a
/// from-scratch [`tree_sums`](crate::tree_sums).
///
/// # Examples
///
/// ```
/// use rlc_moments::{tree_sums, FlatIncrementalSums};
/// use rlc_tree::flat::FlatTree;
/// use rlc_tree::{topology, RlcSection};
/// use rlc_units::{Capacitance, Inductance, Resistance};
///
/// let s = RlcSection::new(
///     Resistance::from_ohms(10.0),
///     Inductance::from_nanohenries(1.0),
///     Capacitance::from_picofarads(0.2),
/// );
/// let (mut line, sink) = topology::single_line(8, s);
/// let mut flat = FlatTree::from_tree(&line);
/// let mut sums = FlatIncrementalSums::new(&flat);
///
/// *line.section_mut(sink) = s.scaled(2.0);
/// flat.set_section(sink.index(), &s.scaled(2.0));
/// sums.apply_edit(&flat, sink.index());
/// assert_eq!(sums.rc(&flat, sink.index()), tree_sums(&line).rc(sink));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatIncrementalSums {
    /// `C_i^T`: total capacitance of the subtree rooted at section `i`.
    downstream_cap: Vec<Capacitance>,
    /// `R_i·C_i^T`: section `i`'s contribution to `T_RC` of its subtree.
    contrib_rc: Vec<Time>,
    /// `L_i·C_i^T`: section `i`'s contribution to `T_LC` of its subtree.
    contrib_lc: Vec<TimeSquared>,
}

impl FlatIncrementalSums {
    /// Builds the factored sums for the current state of `flat` in O(n).
    pub fn new(flat: &FlatTree) -> Self {
        let _span = rlc_obs::span!("moments.incremental.build");
        rlc_obs::counter!("moments.incremental.builds");
        let n = flat.len();
        let cap = flat.capacitances();
        let mut downstream_cap = vec![Capacitance::ZERO; n];
        for i in (0..n).rev() {
            let mut total = cap[i];
            for &child in flat.children_of(i) {
                total += downstream_cap[child as usize];
            }
            downstream_cap[i] = total;
        }
        let res = flat.resistances();
        let ind = flat.inductances();
        let mut contrib_rc = vec![Time::ZERO; n];
        let mut contrib_lc = vec![TimeSquared::ZERO; n];
        for i in 0..n {
            contrib_rc[i] = res[i] * downstream_cap[i];
            contrib_lc[i] = ind[i] * downstream_cap[i];
        }
        Self {
            downstream_cap,
            contrib_rc,
            contrib_lc,
        }
    }

    /// Number of sections covered.
    pub fn len(&self) -> usize {
        self.downstream_cap.len()
    }

    /// Returns `true` if built from an empty tree.
    pub fn is_empty(&self) -> bool {
        self.downstream_cap.is_empty()
    }

    /// Re-derives the terms invalidated by a value edit of section `node`,
    /// walking the flat parent chain bottom-up and stopping as soon as a
    /// recomputed subtree capacitance is unchanged — so a resistance- or
    /// inductance-only edit costs O(1) and a capacitance edit
    /// O(depth · branching).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `flat` has a different node
    /// count than the layout these sums were built from.
    pub fn apply_edit(&mut self, flat: &FlatTree, node: usize) {
        assert_eq!(
            flat.len(),
            self.len(),
            "tree structure changed under FlatIncrementalSums"
        );
        rlc_obs::counter!("moments.incremental.edits");
        let cap = flat.capacitances();
        let res = flat.resistances();
        let ind = flat.inductances();
        let parents = flat.parents();
        let mut cursor = node;
        loop {
            // Identical gather order to the from-scratch pass 1.
            let mut total = cap[cursor];
            for &child in flat.children_of(cursor) {
                total += self.downstream_cap[child as usize];
            }
            let unchanged = total == self.downstream_cap[cursor];
            self.downstream_cap[cursor] = total;
            self.contrib_rc[cursor] = res[cursor] * total;
            self.contrib_lc[cursor] = ind[cursor] * total;
            // The edited node always refreshes its R/L products (above);
            // ancestors only matter while the subtree capacitance moves.
            if unchanged {
                break;
            }
            let p = parents[cursor];
            if p == NO_PARENT {
                break;
            }
            cursor = p as usize;
        }
    }

    /// The subtree capacitance `C_i^T` below section `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn downstream_capacitance(&self, i: usize) -> Capacitance {
        self.downstream_cap[i]
    }

    /// The Elmore sum `T_RC(i)`, folded root-first in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for `flat`.
    pub fn rc(&self, flat: &FlatTree, i: usize) -> Time {
        let mut acc = Time::ZERO;
        for_path_root_first(flat.parents(), i, |j| acc += self.contrib_rc[j]);
        acc
    }

    /// The inductive sum `T_LC(i)`, folded root-first in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for `flat`.
    pub fn lc(&self, flat: &FlatTree, i: usize) -> TimeSquared {
        let mut acc = TimeSquared::ZERO;
        for_path_root_first(flat.parents(), i, |j| acc += self.contrib_lc[j]);
        acc
    }

    /// Both sums at `i` with a single path walk.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for `flat`.
    pub fn rc_lc(&self, flat: &FlatTree, i: usize) -> (Time, TimeSquared) {
        let mut rc = Time::ZERO;
        let mut lc = TimeSquared::ZERO;
        for_path_root_first(flat.parents(), i, |j| {
            rc += self.contrib_rc[j];
            lc += self.contrib_lc[j];
        });
        (rc, lc)
    }

    /// Expands the factored form into a full [`ElmoreSums`] table in O(n)
    /// via the ascending prefix sweep (bit-identical to a from-scratch
    /// [`tree_sums`](crate::tree_sums) of the mirrored tree).
    ///
    /// # Panics
    ///
    /// Panics if `flat` has a different node count than these sums.
    pub fn to_elmore_sums(&self, flat: &FlatTree) -> ElmoreSums {
        assert_eq!(
            flat.len(),
            self.len(),
            "tree structure changed under FlatIncrementalSums"
        );
        let n = flat.len();
        let parents = flat.parents();
        let mut rc = vec![Time::ZERO; n];
        let mut lc = vec![TimeSquared::ZERO; n];
        for i in 0..n {
            let p = parents[i];
            let (parent_rc, parent_lc) = if p == NO_PARENT {
                (Time::ZERO, TimeSquared::ZERO)
            } else {
                (rc[p as usize], lc[p as usize])
            };
            rc[i] = parent_rc + self.contrib_rc[i];
            lc[i] = parent_lc + self.contrib_lc[i];
        }
        ElmoreSums {
            rc,
            lc,
            downstream_cap: self.downstream_cap.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_sums;
    use rlc_tree::{topology, RlcSection, RlcTree};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    fn random(seed: u64, n: usize) -> RlcTree {
        topology::random_tree(
            seed,
            n,
            (Resistance::from_ohms(1.0), Resistance::from_ohms(50.0)),
            (Inductance::ZERO, Inductance::from_nanohenries(5.0)),
            (
                Capacitance::from_femtofarads(10.0),
                Capacitance::from_picofarads(0.5),
            ),
        )
    }

    #[test]
    fn flat_sums_bit_identical_to_tree_sums() {
        for seed in 0..8 {
            let tree = random(seed, 50);
            let flat = FlatTree::from_tree(&tree);
            assert_eq!(flat_sums(&flat), tree_sums(&tree), "seed {seed}");
        }
    }

    #[test]
    fn flat_sums_into_reuses_buffers_across_sizes() {
        let big = random(1, 80);
        let small = random(2, 5);
        let mut out = ElmoreSums::default();
        flat_sums_into(&FlatTree::from_tree(&big), &mut out);
        assert_eq!(out, tree_sums(&big));
        flat_sums_into(&FlatTree::from_tree(&small), &mut out);
        assert_eq!(out, tree_sums(&small));
    }

    #[test]
    fn forest_slices_match_per_tree_analysis() {
        let trees: Vec<RlcTree> = (0..4)
            .map(|seed| random(seed, 20 + seed as usize))
            .collect();
        let mut forest = FlatForest::new();
        for tree in &trees {
            forest.push_tree(tree);
        }
        let packed = forest_sums(&forest);
        assert_eq!(packed.len(), forest.len());
        for (k, tree) in trees.iter().enumerate() {
            let alone = tree_sums(tree);
            let range = forest.net_range(k);
            assert_eq!(&packed.rc_values()[range.clone()], alone.rc_values());
            assert_eq!(&packed.lc_values()[range.clone()], alone.lc_values());
            assert_eq!(
                &packed.downstream_cap_values()[range],
                alone.downstream_cap_values()
            );
        }
    }

    /// Every query of `inc` against a from-scratch `tree_sums` of the
    /// mirrored arena tree, bit for bit.
    fn assert_matches_full(tree: &RlcTree, flat: &FlatTree, inc: &FlatIncrementalSums) {
        let full = tree_sums(tree);
        for id in tree.node_ids() {
            let i = id.index();
            assert_eq!(inc.rc(flat, i), full.rc(id), "T_RC mismatch at {id}");
            assert_eq!(inc.lc(flat, i), full.lc(id), "T_LC mismatch at {id}");
            assert_eq!(inc.rc_lc(flat, i), (full.rc(id), full.lc(id)));
            assert_eq!(
                inc.downstream_capacitance(i),
                full.downstream_capacitance(id),
                "C^T mismatch at {id}"
            );
        }
        assert_eq!(inc.to_elmore_sums(flat), full);
    }

    /// Applies `section` at `id` to both layouts and to `inc`.
    fn edit(
        tree: &mut RlcTree,
        flat: &mut FlatTree,
        inc: &mut FlatIncrementalSums,
        id: rlc_tree::NodeId,
        section: RlcSection,
    ) {
        *tree.section_mut(id) = section;
        flat.set_section(id.index(), &section);
        inc.apply_edit(flat, id.index());
    }

    #[test]
    fn fresh_build_matches_tree_sums() {
        let (tree, _) = topology::fig5_with(|k| s(k as f64, 2.0 * k as f64, 0.5 * k as f64));
        let flat = FlatTree::from_tree(&tree);
        let inc = FlatIncrementalSums::new(&flat);
        assert_matches_full(&tree, &flat, &inc);
        assert_eq!(inc.len(), 7);
        assert!(!inc.is_empty());
    }

    #[test]
    fn edit_sequences_stay_bit_identical_to_tree_sums() {
        let mut tree = random(11, 60);
        let mut flat = FlatTree::from_tree(&tree);
        let mut inc = FlatIncrementalSums::new(&flat);
        let ids: Vec<_> = tree.node_ids().collect();
        for (k, &id) in ids.iter().enumerate() {
            let scaled = tree.section(id).scaled(1.0 + 0.07 * (k as f64 + 1.0));
            edit(&mut tree, &mut flat, &mut inc, id, scaled);
            assert_matches_full(&tree, &flat, &inc);
        }
    }

    #[test]
    fn capacitance_edit_updates_whole_root_path() {
        let (mut tree, nodes) = topology::fig5(s(2.0, 1.0, 3.0));
        let mut flat = FlatTree::from_tree(&tree);
        let mut inc = FlatIncrementalSums::new(&flat);
        edit(&mut tree, &mut flat, &mut inc, nodes.n7, s(2.0, 1.0, 9.0));
        assert_matches_full(&tree, &flat, &inc);
    }

    #[test]
    fn deep_paths_spill_past_the_inline_buffer() {
        // 100 levels exercises the heap fallback of the root-first fold.
        let (tree, sink) = topology::single_line(100, s(2.0, 1e-9, 1e-13));
        let flat = FlatTree::from_tree(&tree);
        let inc = FlatIncrementalSums::new(&flat);
        let full = tree_sums(&tree);
        assert_eq!(inc.rc(&flat, sink.index()), full.rc(sink));
        assert_eq!(inc.lc(&flat, sink.index()), full.lc(sink));
    }

    #[test]
    fn rl_only_edit_touches_only_the_section() {
        let (mut tree, nodes) = topology::fig5(s(2.0, 1.0, 3.0));
        let mut flat = FlatTree::from_tree(&tree);
        let mut inc = FlatIncrementalSums::new(&flat);
        let before_root = inc.contrib_rc[nodes.n1.index()];
        edit(&mut tree, &mut flat, &mut inc, nodes.n3, s(50.0, 1.0, 3.0));
        assert_eq!(
            inc.contrib_rc[nodes.n1.index()],
            before_root,
            "R-only edit must not touch ancestors"
        );
        assert_matches_full(&tree, &flat, &inc);
    }

    #[test]
    fn round_trip_edit_restores_exactly() {
        let (mut tree, nodes) = topology::fig5(s(3.0, 2.0, 1.0));
        let mut flat = FlatTree::from_tree(&tree);
        let mut inc = FlatIncrementalSums::new(&flat);
        let pristine = inc.clone();
        let old = *tree.section(nodes.n2);
        edit(
            &mut tree,
            &mut flat,
            &mut inc,
            nodes.n2,
            s(30.0, 20.0, 10.0),
        );
        edit(&mut tree, &mut flat, &mut inc, nodes.n2, old);
        // Exact recomputation (not delta accumulation) makes undo lossless.
        assert_eq!(inc, pristine);
    }

    #[test]
    fn multiple_roots_are_supported() {
        let mut tree = RlcTree::new();
        let a = tree.add_root_section(s(2.0, 0.0, 3.0));
        let b = tree.add_root_section(s(5.0, 0.0, 7.0));
        let mut flat = FlatTree::from_tree(&tree);
        let mut inc = FlatIncrementalSums::new(&flat);
        edit(&mut tree, &mut flat, &mut inc, a, s(4.0, 0.0, 3.0));
        assert_eq!(inc.rc(&flat, a.index()).as_seconds(), 12.0);
        assert_eq!(inc.rc(&flat, b.index()).as_seconds(), 35.0);
        assert_matches_full(&tree, &flat, &inc);
    }

    #[test]
    fn empty_layouts() {
        let flat = FlatTree::new();
        assert!(flat_sums(&flat).is_empty());
        let inc = FlatIncrementalSums::new(&flat);
        assert!(inc.is_empty());
        assert_eq!(inc.len(), 0);
        assert!(inc.to_elmore_sums(&flat).is_empty());
        assert!(forest_sums(&FlatForest::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "structure changed")]
    fn rejects_structural_drift() {
        let (tree, _) = topology::single_line(3, s(1.0, 0.0, 1.0));
        let mut inc = FlatIncrementalSums::new(&FlatTree::from_tree(&tree));
        let (bigger, _) = topology::single_line(4, s(1.0, 0.0, 1.0));
        inc.apply_edit(&FlatTree::from_tree(&bigger), 0);
    }
}
