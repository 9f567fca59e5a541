//! Property tests: random edit/rollback sequences on random trees keep
//! the incremental sums in agreement with a from-scratch pass.
//!
//! The implementation actually guarantees *bit-identical* agreement (it
//! replays the same floating-point operation order as `tree_sums`); the
//! properties here assert the contractually promised 1e-12 relative
//! envelope at every node after every operation, and exact equality at
//! the end of each sequence via `cross_check`.

use proptest::prelude::*;
use rlc_engine::IncrementalAnalysis;
use rlc_moments::tree_sums;
use rlc_tree::{topology, RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance};

fn arb_tree() -> impl Strategy<Value = RlcTree> {
    (
        any::<u64>(),
        2usize..48,
        1.0f64..100.0, // R upper bound, Ω
        0.01f64..10.0, // L upper bound, nH
        0.01f64..1.0,  // C upper bound, pF
    )
        .prop_map(|(seed, n, r_hi, l_hi, c_hi)| {
            topology::random_tree(
                seed,
                n,
                (
                    Resistance::from_ohms(r_hi * 0.01),
                    Resistance::from_ohms(r_hi),
                ),
                (
                    Inductance::from_nanohenries(l_hi * 0.01),
                    Inductance::from_nanohenries(l_hi),
                ),
                (
                    Capacitance::from_picofarads(c_hi * 0.01),
                    Capacitance::from_picofarads(c_hi),
                ),
            )
        })
}

/// One random operation: `(node picker, R Ω, L nH, C pF, mode)` where
/// mode 0 = committed edit, 1 = scoped probe (edit then rollback),
/// 2 = R/L-only edit (keeps the subtree capacitance unchanged, the
/// early-exit path).
type Op = (usize, f64, f64, f64, usize);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0usize..10_000,
            0.0f64..500.0,
            0.0f64..20.0,
            0.001f64..5.0,
            0usize..3,
        ),
        1..16,
    )
}

/// Every node's incremental sums agree with a from-scratch `tree_sums`
/// pass to 1e-12 relative.
fn assert_matches_full(probe: &IncrementalAnalysis) -> Result<(), TestCaseError> {
    let full = tree_sums(probe.tree());
    for node in probe.tree().node_ids() {
        let (rc, lc) = (
            probe.rc(node).as_seconds(),
            probe.lc(node).as_seconds_squared(),
        );
        let (rc_ref, lc_ref) = (
            full.rc(node).as_seconds(),
            full.lc(node).as_seconds_squared(),
        );
        prop_assert!(
            (rc - rc_ref).abs() <= 1e-12 * rc_ref.abs().max(1e-30),
            "T_RC {rc} vs {rc_ref} at {node}"
        );
        prop_assert!(
            (lc - lc_ref).abs() <= 1e-12 * lc_ref.abs().max(1e-45),
            "T_LC {lc} vs {lc_ref} at {node}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edit_sequences_match_from_scratch(tree in arb_tree(), ops in arb_ops()) {
        let nodes: Vec<_> = tree.node_ids().collect();
        let mut probe = IncrementalAnalysis::new(tree);
        for &(pick, r, l, c, mode) in &ops {
            let node = nodes[pick % nodes.len()];
            let section = match mode {
                2 => {
                    // R/L-only: keep C, exercising the O(1) early exit.
                    let keep_c = probe.tree().section(node).capacitance();
                    RlcSection::new(
                        Resistance::from_ohms(r),
                        Inductance::from_nanohenries(l),
                        keep_c,
                    )
                }
                _ => RlcSection::new(
                    Resistance::from_ohms(r),
                    Inductance::from_nanohenries(l),
                    Capacitance::from_picofarads(c),
                ),
            };
            if mode == 1 {
                let before_rc = probe.rc(nodes[0]);
                probe.scoped_edit(|p| {
                    p.set_section(node, section);
                    // Inside the scope the sums must already be consistent.
                    assert_matches_full(p)
                })?;
                prop_assert_eq!(probe.rc(nodes[0]), before_rc);
            } else {
                probe.set_section(node, section);
                probe.commit();
            }
            assert_matches_full(&probe)?;
        }
        // And the final state is not just close, but exactly reproducible.
        prop_assert!(probe.cross_check(), "final state not bit-identical");
    }

    #[test]
    fn rollback_across_many_edits_is_lossless(tree in arb_tree(), ops in arb_ops()) {
        let nodes: Vec<_> = tree.node_ids().collect();
        let mut probe = IncrementalAnalysis::new(tree);
        let pristine = probe.tree().clone();
        let baseline: Vec<_> = nodes.iter().map(|&n| (probe.rc(n), probe.lc(n))).collect();

        let mark = probe.checkpoint();
        for &(pick, r, l, c, _) in &ops {
            let node = nodes[pick % nodes.len()];
            probe.set_section(
                node,
                RlcSection::new(
                    Resistance::from_ohms(r),
                    Inductance::from_nanohenries(l),
                    Capacitance::from_picofarads(c),
                ),
            );
        }
        probe.rollback_to(mark);

        prop_assert_eq!(probe.tree(), &pristine);
        for (&node, &(rc, lc)) in nodes.iter().zip(&baseline) {
            prop_assert_eq!(probe.rc(node), rc);
            prop_assert_eq!(probe.lc(node), lc);
        }
        prop_assert!(probe.cross_check());
    }

    /// Layout equivalence: the flat-offset path inside
    /// `IncrementalAnalysis` agrees **bitwise** with a from-scratch arena
    /// `tree_sums` of a mirror tree at every node after every operation of
    /// a random `set_section`/checkpoint/`rollback_to`/`scoped_edit`
    /// sequence — both replay the same float operation order, so any
    /// divergence is a kernel bug, not rounding.
    #[test]
    fn flat_and_arena_layouts_agree_at_every_step(tree in arb_tree(), ops in arb_ops()) {
        let nodes: Vec<_> = tree.node_ids().collect();
        // Arena mirror: a plain tree, re-summed from scratch after each op.
        let mut mirror = tree.clone();
        let mut probe = IncrementalAnalysis::new(tree);
        let mut marks: Vec<(rlc_engine::EditCheckpoint, Vec<RlcSection>)> = Vec::new();

        let assert_layouts_agree = |probe: &IncrementalAnalysis, mirror: &RlcTree| {
            let full = tree_sums(mirror);
            for &node in &nodes {
                prop_assert_eq!(probe.rc(node), full.rc(node));
                prop_assert_eq!(probe.lc(node), full.lc(node));
                prop_assert_eq!(
                    probe.downstream_capacitance(node),
                    full.downstream_capacitance(node)
                );
            }
            Ok(())
        };

        for (k, &(pick, r, l, c, mode)) in ops.iter().enumerate() {
            let node = nodes[pick % nodes.len()];
            let section = RlcSection::new(
                Resistance::from_ohms(r),
                Inductance::from_nanohenries(l),
                Capacitance::from_picofarads(c),
            );
            match mode {
                // Scoped probe: both layouts see the edit inside the scope
                // and its exact reversal after.
                1 => {
                    probe.scoped_edit(|p| {
                        p.set_section(node, section);
                        let mut inner = mirror.clone();
                        *inner.section_mut(node) = section;
                        assert_layouts_agree(p, &inner)
                    })?;
                }
                // Checkpoint, edit, sometimes roll back.
                2 => {
                    let saved = nodes.iter().map(|&n| *probe.tree().section(n)).collect();
                    marks.push((probe.checkpoint(), saved));
                    probe.set_section(node, section);
                    *mirror.section_mut(node) = section;
                    if k % 2 == 0 {
                        let (mark, saved) = marks.pop().expect("just pushed");
                        probe.rollback_to(mark);
                        for (&n, s) in nodes.iter().zip(&saved) {
                            *mirror.section_mut(n) = *s;
                        }
                    }
                }
                // Plain committed edit.
                _ => {
                    probe.set_section(node, section);
                    probe.commit();
                    marks.clear();
                    *mirror.section_mut(node) = section;
                }
            }
            assert_layouts_agree(&probe, &mirror)?;
        }
        prop_assert_eq!(probe.tree(), &mirror);
        prop_assert!(probe.cross_check());
    }

    /// The derived timing quantities (model, delays) seen through the
    /// incremental path equal the ones a fresh `TreeAnalysis` computes on
    /// the edited tree.
    #[test]
    fn derived_timing_matches_fresh_analysis(tree in arb_tree(), ops in arb_ops()) {
        let nodes: Vec<_> = tree.node_ids().collect();
        let mut probe = IncrementalAnalysis::new(tree);
        for &(pick, r, l, c, _) in &ops {
            probe.set_section(
                nodes[pick % nodes.len()],
                RlcSection::new(
                    Resistance::from_ohms(r),
                    Inductance::from_nanohenries(l),
                    Capacitance::from_picofarads(c),
                ),
            );
        }
        let fresh = eed::TreeAnalysis::new(probe.tree());
        for &node in &nodes {
            match fresh.try_model(node) {
                Some(model) => {
                    prop_assert_eq!(probe.model(node), *model);
                    prop_assert_eq!(probe.delay_50(node), fresh.delay_50(node));
                    prop_assert_eq!(probe.rise_time(node), fresh.rise_time(node));
                }
                None => {
                    prop_assert!(probe.try_model(node).is_none());
                }
            }
        }
    }
}
