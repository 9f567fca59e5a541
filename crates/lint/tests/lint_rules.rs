//! Per-rule coverage: every code in the catalog fires on a minimal deck,
//! with the right severity, span, and gating behaviour.

use rlc_lint::{lint_deck, lint_deck_with, lint_path, lint_tree, LintConfig, Rule, Severity};
use rlc_tree::{RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance};

/// The codes a deck fires, in canonical report order.
fn codes(deck: &str) -> Vec<&'static str> {
    lint_deck(deck).codes()
}

#[test]
fn l001_empty_deck() {
    for deck in ["", "* comment only\n", ".input in\n.end\n"] {
        assert_eq!(codes(deck), vec!["L001"], "deck {deck:?}");
    }
}

#[test]
fn l002_cycle_with_line_span() {
    let report = lint_deck(".input in\nR1 in a 10\nR2 a b 10\nR3 b in 10\nC1 b 0 1p\n");
    assert_eq!(report.codes(), vec!["L002"]);
    let d = &report.diagnostics()[0];
    assert_eq!(d.rule.severity(), Severity::Error);
    assert!(d.line.is_some(), "cycle finding carries the card line");
}

#[test]
fn l003_unreachable_element() {
    let report = lint_deck(".input in\nR1 in a 10\nC1 a 0 1p\nR2 x y 10\n");
    assert_eq!(report.codes(), vec!["L003"]);
    assert_eq!(report.diagnostics()[0].line, Some(4));
}

#[test]
fn l004_no_input() {
    assert_eq!(codes("R1 a b 10\nC1 b 0 1p\n"), vec!["L004"]);
    // A named input that touches nothing is the same rule, anchored to
    // the .input line.
    let report = lint_deck(".input ghost\nR1 in a 10\nC1 a 0 1p\n");
    assert_eq!(report.codes(), vec!["L004"]);
    assert_eq!(report.diagnostics()[0].line, Some(1));
}

#[test]
fn l005_grounded_series() {
    assert_eq!(codes(".input in\nR1 in 0 10\n"), vec!["L005"]);
    assert_eq!(codes(".input in\nL1 gnd in 1n\n"), vec!["L005"]);
}

#[test]
fn l006_floating_capacitor() {
    assert_eq!(codes(".input in\nR1 in a 10\nC1 in a 1p\n"), vec!["L006"]);
    assert_eq!(codes(".input in\nR1 in a 10\nC1 0 gnd 1p\n"), vec!["L006"]);
}

#[test]
fn l007_orphan_capacitor() {
    // On an unknown node, and on the input node.
    assert_eq!(
        codes(".input in\nR1 in a 10\nC1 a 0 1p\nC9 zz 0 1p\n"),
        vec!["L007"]
    );
    assert_eq!(
        codes(".input in\nR1 in a 10\nC1 a 0 1p\nC2 in 0 1p\n"),
        vec!["L007"]
    );
}

#[test]
fn l008_duplicate_label_is_warning_only() {
    let report = lint_deck(".input in\nR1 in a 10\nR1 a b 10\nC1 b 0 1p\n");
    assert!(report.is_clean());
    assert!(report.codes().contains(&"L008"));
}

#[test]
fn l009_load_free_leaf() {
    let report = lint_deck(".input in\nR1 in n1 25\nC1 n1 0 1p\nR2 n1 n2 25\n");
    assert!(report.is_clean());
    assert!(report.codes().contains(&"L009"));
    let leaf = report
        .diagnostics()
        .iter()
        .find(|d| d.rule == Rule::LoadFreeLeaf)
        .expect("L009 fires");
    assert_eq!(leaf.node.as_deref(), Some("n2"), "original node name kept");
}

#[test]
fn l010_duplicate_input() {
    let report = lint_deck(".input in\n.input src\nR1 src a 10\nC1 a 0 1p\n");
    assert!(report.is_clean());
    assert!(report.codes().contains(&"L010"));
    assert_eq!(report.diagnostics()[0].line, Some(2));
}

#[test]
fn l101_malformed_cards_collect_multiple() {
    let report = lint_deck(".input in\nR1 in n1\nQ7 a b 10\nR2 in n2 bogus\nC1 n2 0 1p\n");
    let l101: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.rule == Rule::MalformedCard)
        .collect();
    assert_eq!(l101.len(), 3, "one finding per malformed card: {report:?}");
    assert_eq!(
        l101.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![Some(2), Some(3), Some(4)]
    );
}

#[test]
fn l102_bad_values() {
    for deck in [
        ".input in\nR1 in n1 NaN\nC1 n1 0 0.5p\n",
        ".input in\nR1 in n1 1e999\nC1 n1 0 0.5p\n",
        ".input in\nR1 in n1 -25\nC1 n1 0 0.5p\n",
        ".input in\nR1 in n1 25\nC1 n1 0 -0.5p\n",
        ".input in\nR1 in n1 25\nL1 n1 n2 -1n\nC1 n2 0 0.5p\n",
    ] {
        assert_eq!(codes(deck), vec!["L102"], "deck {deck:?}");
    }
}

#[test]
fn l103_degenerate_sink() {
    let report = lint_deck(".input in\nL1 in a 5n\nC1 a 0 1p\n");
    assert!(report.codes().contains(&"L103"), "{report:?}");
}

#[test]
fn l104_zero_load_net_suppresses_per_sink_noise() {
    let report = lint_deck(".input in\nR1 in n1 25\nC1 n1 0 0\n");
    assert_eq!(report.codes(), vec!["L104"]);
}

#[test]
fn l105_implausible_magnitudes() {
    assert_eq!(
        codes(".input in\nR1 in n1 10M\nC1 n1 0 0.5p\n"),
        vec!["L105", "L202"]
    );
    assert_eq!(
        codes(".input in\nR1 in n1 25\nC1 n1 0 2u\n"),
        vec!["L105", "L202"]
    );
    assert_eq!(
        codes(".input in\nR1 in n1 25\nL1 n1 n2 1m\nC1 n2 0 1p\n"),
        vec!["L105", "L201"]
    );
}

#[test]
fn l201_underdamped_sink_matches_eq29() {
    // T_RC = 37.5 ps, T_LC = 5e-21 s² → ζ ≈ 0.265 at sink n2.
    let report = lint_deck("R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n");
    assert!(report.is_clean());
    assert_eq!(report.codes(), vec!["L201"]);
    let d = &report.diagnostics()[0];
    assert_eq!(d.node.as_deref(), Some("n2"));
    assert!(d.message.contains("0.265"), "{}", d.message);
    // The threshold is configurable; a permissive floor silences it.
    let lax = LintConfig {
        zeta_warn_below: 0.1,
        ..LintConfig::default()
    };
    assert!(
        lint_deck_with("R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n", &lax).is_spotless()
    );
}

#[test]
fn l202_deep_rc_hints() {
    // Purely RC flavour.
    assert_eq!(
        codes(".input in\nR1 in n1 25\nC1 n1 0 0.5p\n"),
        vec!["L202"]
    );
    // Deeply overdamped RLC flavour (ζ ≈ 15.8 ≥ 10).
    assert_eq!(
        codes(".input in\nR1 in n1 1k\nL2 n1 n2 1n\nC2 n2 0 1p\n"),
        vec!["L202"]
    );
    // A moderately damped net gets no hint.
    assert!(lint_deck(".input in\nR1 in n1 100\nL2 n1 n2 1n\nC2 n2 0 1p\n").is_spotless());
}

#[test]
fn l301_unreadable_deck() {
    let report = lint_path(
        std::path::Path::new("fixtures/does-not-exist.sp"),
        &LintConfig::default(),
    );
    assert_eq!(report.codes(), vec!["L301"]);
    assert!(!report.is_clean());
}

#[test]
fn lint_path_routes_each_deck_by_its_cards_up_to_end() {
    let lint = |path: &str| lint_path(std::path::Path::new(path), &LintConfig::default());
    // Netlists whose `.net` / `.lib` cards sit after `.end`, which no
    // parser reads: both lint as the clean netlists they parse as.
    for path in [
        "fixtures/good/netlist_net_after_end.sp",
        "fixtures/good/netlist_lib_after_end.sp",
    ] {
        let report = lint(path);
        assert_eq!(report.codes(), vec!["L202"], "{path}: {report:?}");
        assert!(report.is_clean(), "{path}");
    }
    // Coupled and synthesis decks still reach their own linters.
    assert!(lint("fixtures/bad/coupled_unknown_net.sp")
        .codes()
        .contains(&"L401"));
    assert!(lint("fixtures/bad/synth_unknown_buffer.sp")
        .codes()
        .contains(&"L501"));
}

#[test]
fn lint_tree_covers_in_memory_trees() {
    assert_eq!(lint_tree(&RlcTree::new()).codes(), vec!["L001"]);
    let mut tree = RlcTree::new();
    let root = tree.add_root_section(RlcSection::new(
        Resistance::from_ohms(25.0),
        Inductance::ZERO,
        Capacitance::from_picofarads(0.5),
    ));
    tree.add_section(
        root,
        RlcSection::new(
            Resistance::ZERO,
            Inductance::from_nanohenries(5.0),
            Capacitance::from_picofarads(1.0),
        ),
    );
    let report = lint_tree(&tree);
    assert_eq!(report.codes(), vec!["L201"]);
    assert_eq!(report.diagnostics()[0].node.as_deref(), Some("n1"));
}

#[test]
fn clean_decks_are_spotless() {
    let deck = ".input in\nR1 in t 50\nC1 t 0 0.2p\nL2 t a 1n\nC2 a 0 1p\nR3 t b 80\nC3 b 0 0.5p\n";
    let report = lint_deck(deck);
    assert!(report.is_spotless(), "{report:?}");
    assert!(report.passes(true));
}

#[test]
fn primary_finding_drives_gates() {
    // Mixed severities: the error outranks the warning for gate messages.
    let report = lint_deck(".input in\nR1 in n1 -25\nR1 n1 n2 25\nC1 n2 0 1p\n");
    let primary = report.primary().expect("findings exist");
    assert_eq!(primary.rule, Rule::BadValue);
}
