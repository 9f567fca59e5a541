//! The load-bearing property of the whole gate design: **a deck lints
//! error-free iff its parser accepts it** (`Netlist::parse`,
//! `CoupledGroup::parse` or `SynthDeck::parse`). Warnings and infos never
//! block parsing; any error-severity finding predicts a parse failure.
//! The coupled and synthesis cases also check that each collect-mode
//! `scan` returns exactly its parser's outcome.
//!
//! `rlc-serve` relies on this to reject work before admission without ever
//! refusing a deck the engine could serve, and `rlc-engine`'s batch
//! pre-check relies on it to predict per-net failures.

use proptest::prelude::*;
use rlc_lint::{lint_coupled_deck, lint_deck, lint_synth_deck};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;
use rlc_tree::TreeError;

/// A generator of decks spanning the interesting space: mostly valid
/// topologies, with mutations that hit every scanner path.
fn decks() -> impl Strategy<Value = String> {
    let section = (0u32..4, 1u32..100, 0u32..100);
    (
        proptest::collection::vec(section, 1..12),
        0u32..12, // mutation selector
    )
        .prop_map(|(sections, mutation)| {
            let mut deck = String::from(".input in\n");
            for (i, (kind, series, cap)) in sections.iter().enumerate() {
                let parent = if i == 0 {
                    "in".to_owned()
                } else {
                    format!("m{}", i - 1)
                };
                let me = format!("m{i}");
                if kind % 2 == 0 {
                    deck.push_str(&format!("R{i} {parent} {me} {series}\n"));
                } else {
                    deck.push_str(&format!("L{i} {parent} {me} {series}n\n"));
                }
                if *cap > 0 {
                    deck.push_str(&format!("C{i} {me} 0 {cap}f\n"));
                }
            }
            match mutation {
                0 => deck.push_str("Rbad m0\n"),
                1 => deck.push_str("Q9 m0 zz 10\n"),
                2 => deck.push_str("Rneg m0 zz -5\n"),
                3 => deck.push_str("Rnan m0 zz NaN\n"),
                4 => deck.push_str("Rinf m0 zz 1e999\n"),
                5 => deck.push_str("Rloop m0 in 10\n"),
                6 => deck.push_str("Rfar aa bb 10\n"),
                7 => deck.push_str("Cfar zz 0 1p\n"),
                8 => deck.push_str("Rgnd m0 0 10\n"),
                9 => deck.push_str("Cfloat in m0 1p\n"),
                _ => {} // leave the deck valid
            }
            deck
        })
}

/// A generator of *coupled* decks: 1–3 `.net` blocks built from the same
/// per-net section chains as [`decks`], with `K` cards and one or two
/// mutations that hit every coupled front-end path (`.net` grammar,
/// reference resolution, coupling values, per-net faults) and the order
/// in which the parser meets them.
fn coupled_decks() -> impl Strategy<Value = String> {
    let section = (0u32..4, 1u32..100, 1u32..100);
    let net = proptest::collection::vec(section, 1..6);
    (
        proptest::collection::vec(net, 1..4),
        proptest::collection::vec(0u32..16, 1..3), // mutation selectors
    )
        .prop_map(|(nets, mutations)| {
            let mut deck = String::new();
            for (n, sections) in nets.iter().enumerate() {
                deck.push_str(&format!(".net net{n}\n"));
                for (i, (kind, series, cap)) in sections.iter().enumerate() {
                    let parent = if i == 0 {
                        "in".to_owned()
                    } else {
                        format!("m{}", i - 1)
                    };
                    let me = format!("m{i}");
                    if kind % 2 == 0 {
                        deck.push_str(&format!("R{i} {parent} {me} {series}\n"));
                    } else {
                        deck.push_str(&format!("L{i} {parent} {me} {series}n\n"));
                    }
                    deck.push_str(&format!("C{i} {me} 0 {cap}f\n"));
                }
            }
            if nets.len() > 1 {
                deck.push_str("K1 net0.m0 net1.m0 0.05p\n");
            }
            for mutation in mutations {
                match mutation {
                    0 => deck.push_str("K9 net0.m0 ghost.m0 0.1p\n"),
                    1 => deck.push_str("K9 net0.m0 net0.m0 0.1p\n"),
                    2 => deck.push_str("K9 net0.m0 net0.zz 0.1p\n"),
                    3 => deck.push_str("K9 net0.m0 0.1p\n"),
                    4 => deck.push_str("K9 net0.m0 nodot 0.1p\n"),
                    5 => deck.push_str("K9 net0.m0 net0.m0 0\n"),
                    6 => deck.push_str("K9 net0.m0 net0.m0 NaN\n"),
                    7 => deck.push_str("K9 net0.m0 net0.m0 1e999\n"),
                    8 => deck.push_str("K9 net0.m0 net0.m0 oops\n"),
                    9 => deck.push_str(".net\n"),
                    10 => deck.push_str(".net two words\n"),
                    11 => deck.push_str(".net dotted.name\n"),
                    12 => deck.push_str(".net net0\nR1 in n1 10\nC1 n1 0 1p\n"),
                    13 => deck.push_str("Rbad m0\n"),
                    14 => deck = format!("Rearly in n1 10\n{deck}"),
                    _ => {} // leave the deck valid
                }
            }
            deck
        })
}

/// A generator of *synthesis* decks: a valid section chain plus
/// `.lib`/`.use`/`.driver`/`.require` cards, with one or two mutations
/// hitting every synthesis front-end path (card grammar, buffer
/// resolution, resistance signs, constraint-node resolution, element
/// faults underneath) and the order in which the parser meets them.
fn synth_decks() -> impl Strategy<Value = String> {
    let section = (0u32..4, 1u32..100, 1u32..100);
    (
        proptest::collection::vec(section, 1..8),
        proptest::collection::vec(0u32..20, 1..3), // mutation selectors
    )
        .prop_map(|(sections, mutations)| {
            let mut deck = String::from(".input in\n");
            for (i, (kind, series, cap)) in sections.iter().enumerate() {
                let parent = if i == 0 {
                    "in".to_owned()
                } else {
                    format!("m{}", i - 1)
                };
                let me = format!("m{i}");
                if kind % 2 == 0 {
                    deck.push_str(&format!("R{i} {parent} {me} {series}\n"));
                } else {
                    deck.push_str(&format!("L{i} {parent} {me} {series}n\n"));
                }
                deck.push_str(&format!("C{i} {me} 0 {cap}f\n"));
            }
            deck.push_str(".lib bufa r=120 cin=4f tin=15p\n");
            for mutation in mutations {
                match mutation {
                    0 => deck.push_str(".lib short r=1k cin=4f\n"),
                    1 => deck.push_str(".lib keys r=1k cin=4f zap=1p\n"),
                    2 => deck.push_str(".lib keys r=1k cin=4f cin=5f\n"),
                    3 => deck.push_str(".lib bufa r=2k cin=4f tin=1p\n"),
                    4 => deck.push_str(".lib zero r=0 cin=4f tin=1p\n"),
                    5 => deck.push_str(".lib neg r=-5 cin=4f tin=1p\n"),
                    6 => deck.push_str(".lib bad r=oops cin=4f tin=1p\n"),
                    7 => deck.push_str(".lib nn r=1k cin=-4f tin=1p\n"),
                    8 => deck.push_str(".use ghost\n"),
                    9 => deck.push_str(".use bufa\n.use bufa\n"),
                    10 => deck.push_str(".use one two\n"),
                    11 => deck.push_str(".driver 0\n"),
                    12 => deck.push_str(".driver 100\n.driver 200\n"),
                    13 => deck.push_str(".driver\n"),
                    14 => deck.push_str(".require ghost 1n\n"),
                    15 => deck.push_str(".require m0 -1p\n"),
                    16 => deck.push_str(".require m0 1p\n.require m0 2p\n"),
                    17 => deck.push_str(".require m0\n"),
                    18 => deck.push_str("Rbad m0\n"),
                    _ => deck.push_str(".use bufa\n.driver 150\n.require m0 2n\n"),
                }
            }
            deck
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lints_error_free_iff_the_parser_accepts(deck in decks()) {
        let report = lint_deck(&deck);
        let parsed = Netlist::parse(&deck);
        let agree = report.is_clean() == parsed.is_ok();
        prop_assert!(agree, "lint/parse disagree on {deck:?}: {report:?} vs {:?}", parsed.err());
    }

    #[test]
    fn reports_are_deterministic(deck in decks()) {
        prop_assert_eq!(lint_deck(&deck), lint_deck(&deck));
    }

    #[test]
    fn coupled_lints_error_free_iff_the_parser_accepts(deck in coupled_decks()) {
        let report = lint_coupled_deck(&deck);
        let parsed = CoupledGroup::parse(&deck);
        let agree = report.is_clean() == parsed.is_ok();
        prop_assert!(
            agree,
            "coupled lint/parse disagree on {deck:?}: {report:?} vs {:?}",
            parsed.err()
        );
        // Collect mode returns exactly what the parser does.
        let canonical = |group: Result<CoupledGroup, TreeError>| group.map(|g| g.canonical_deck());
        prop_assert_eq!(canonical(CoupledGroup::scan(&deck).into_group()), canonical(parsed));
    }

    #[test]
    fn coupled_reports_are_deterministic(deck in coupled_decks()) {
        prop_assert_eq!(lint_coupled_deck(&deck), lint_coupled_deck(&deck));
    }

    #[test]
    fn synth_lints_error_free_iff_the_parser_accepts(deck in synth_decks()) {
        let report = lint_synth_deck(&deck);
        let parsed = SynthDeck::parse(&deck);
        let agree = report.is_clean() == parsed.is_ok();
        prop_assert!(
            agree,
            "synth lint/parse disagree on {deck:?}: {report:?} vs {:?}",
            parsed.err()
        );
        // Collect mode returns exactly what the parser does.
        let canonical = |deck: Result<SynthDeck, TreeError>| deck.map(|d| d.canonical_deck());
        prop_assert_eq!(canonical(SynthDeck::scan(&deck).into_deck()), canonical(parsed));
    }

    #[test]
    fn synth_reports_are_deterministic(deck in synth_decks()) {
        prop_assert_eq!(lint_synth_deck(&deck), lint_synth_deck(&deck));
    }
}
