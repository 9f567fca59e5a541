//! Golden corpus for the deck front end: what `rlc-lint` reports and what
//! the parsers return, frozen over a seeded corpus of single-net, coupled
//! and synthesis decks.
//!
//! Each corpus entry records the deck text, its `rlc-lint/1` report object
//! and the parse outcome: the canonical deck (header included for
//! single-net decks) plus the node-name map, or the error's `Display`.
//! Any change to the tokenizer, the tree builder, the lint rule passes or
//! the canonical writers that perturbs one byte of these fails here.
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test front_end_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rlc_lint::{lint_coupled_deck, lint_deck, lint_synth_deck};
use rlc_obs::json;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;

/// SplitMix64: a tiny seeded generator, so the corpus is a pure function
/// of this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

const OHMS: &[&str] = &[
    "25", "2.5e1", "25ohm", "0.025k", "10", "1k", "40Ω", "7.5", "0",
];
const HENRIES: &[&str] = &["5n", "5nH", "0.5n", "5e-9", "12n", "1u", "0.25nH"];
const FARADS: &[&str] = &[
    "0.5p", "500f", "5e-13", "0.5pF", "1p", "20f", "3e-15", "2.5p",
];
const GROUNDS: &[&str] = &["0", "gnd", "GND", "Gnd"];
const COMMENTS: &[&str] = &["* a note", "; lint: off", "*", "* trailing prose, M3"];

/// One element card line, with occasional spacing and case variation.
fn card(rng: &mut Rng, letter: char, label: usize, a: &str, b: &str, value: &str) -> String {
    let letter = if rng.below(5) == 0 {
        letter.to_ascii_lowercase()
    } else {
        letter
    };
    let sep = if rng.below(6) == 0 { " \t " } else { " " };
    format!("{letter}{label}{sep}{a}{sep}{b}{sep}{value}")
}

/// A valid single-net deck: a random tree (chain, balanced or random
/// parent choice) with R, L and R+L sections, spelled with varied
/// prefixes, grounds, comments, headers and terminators.
fn valid_deck(rng: &mut Rng, sections: usize) -> String {
    let mut lines: Vec<String> = Vec::new();
    if rng.below(2) == 0 {
        lines.push(format!("* deck {} header", rng.below(1000)));
    }
    if rng.below(4) == 0 {
        lines.push(String::new());
    }
    let input = if rng.below(3) == 0 { "src" } else { "in" };
    if input != "in" || rng.below(2) == 0 {
        lines.push(format!(".input {input}"));
    }
    let shape = rng.below(3);
    let mut names: Vec<String> = vec![input.to_owned()];
    for i in 0..sections {
        let label = i + 1;
        let parent = match shape {
            0 => names[names.len() - 1].clone(),
            1 => names[i / 2].clone(),
            _ => names[rng.below(names.len() as u64) as usize].clone(),
        };
        let me = format!("x{}", rng.below(10_000) * 100 + i as u64);
        match rng.below(4) {
            0 | 1 => {
                let v = rng.pick(OHMS);
                lines.push(card(rng, 'R', label, &parent, &me, v));
            }
            2 => {
                let v = rng.pick(HENRIES);
                lines.push(card(rng, 'L', label, &parent, &me, v));
            }
            _ => {
                let mid = format!("{me}m");
                let r = rng.pick(OHMS);
                lines.push(card(rng, 'R', label, &parent, &mid, r));
                let l = rng.pick(HENRIES);
                lines.push(card(rng, 'L', label, &mid, &me, l));
            }
        }
        if rng.below(5) != 0 {
            let c = rng.pick(FARADS);
            let g = rng.pick(GROUNDS);
            let line = if rng.below(4) == 0 {
                card(rng, 'C', label, g, &me, c)
            } else {
                card(rng, 'C', label, &me, g, c)
            };
            lines.push(line);
        }
        if rng.below(8) == 0 {
            lines.push(rng.pick(COMMENTS).to_owned());
        }
        if rng.below(12) == 0 {
            lines.push(".option post".to_owned());
        }
        names.push(me);
    }
    // Shuffle a few element cards: the builder must not depend on order.
    if rng.below(3) == 0 && lines.len() > 3 {
        let n = lines.len();
        for _ in 0..3 {
            let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            lines.swap(a, b);
        }
    }
    match rng.below(4) {
        0 => lines.push(".end".to_owned()),
        1 => {
            lines.push(".END".to_owned());
            lines.push("R999 nowhere else 1".to_owned());
        }
        _ => {}
    }
    let eol = if rng.below(10) == 0 { "\r\n" } else { "\n" };
    let mut deck = lines.join(eol);
    deck.push_str(eol);
    deck
}

/// The single-net mutation classes of `crates/lint/tests/parser_agreement.rs`
/// plus the directive and label faults, applied to a valid chain deck.
fn mutated_deck(rng: &mut Rng, mutation: u64) -> String {
    let sections = 1 + rng.below(8) as usize;
    let mut deck = String::from(".input in\n");
    for i in 0..sections {
        let parent = if i == 0 {
            "in".to_owned()
        } else {
            format!("m{}", i - 1)
        };
        if rng.below(2) == 0 {
            let _ = writeln!(deck, "R{i} {parent} m{i} {}", 1 + rng.below(99));
        } else {
            let _ = writeln!(deck, "L{i} {parent} m{i} {}n", 1 + rng.below(99));
        }
        let cap = rng.below(100);
        if cap > 0 {
            let _ = writeln!(deck, "C{i} m{i} 0 {cap}f");
        }
    }
    let tail = match mutation {
        0 => "Rbad m0\n",
        1 => "Q9 m0 zz 10\n",
        2 => "Rneg m0 zz -5\n",
        3 => "Rnan m0 zz NaN\n",
        4 => "Rinf m0 zz 1e999\n",
        5 => "Rloop m0 in 10\n",
        6 => "Rfar aa bb 10\n",
        7 => "Cfar zz 0 1p\n",
        8 => "Rgnd m0 0 10\n",
        9 => "Cfloat in m0 1p\n",
        10 => ".input m0\n",
        11 => "R0 m0 dup 10\nC0 dup 0 1f\n",
        12 => ".input\n",
        13 => ".input ghost\n",
        14 => "Cin in 0 1p\n",
        15 => "Rgndbad m0 0 oops\n",
        16 => "Cboth 0 gnd 1p\n",
        17 => "Rbig m0 huge 1e9\nChuge huge 0 1p\n",
        18 => "Rself m0 m0 10\n",
        19 => "Rx m0 q 10 extra\n",
        20 => "Cneg m0 0 -1p\nRbad2 m0\n",
        21 => "Rloop m0 in 10\nRfar aa bb 10\nCfar zz 0 1p\n",
        22 => "Lhuge m0 h 1\nCh h 0 1p\n",
        23 => "Cinf m0 0 inf\n",
        24 => "Rq m0 q 5 ohms\n",
        30 => "Czz zz 0 1p\nCin in 0 1p\nCaa aa 0 1p\n",
        31 => "Rc1 m0 in 10\nRu1 p q 10\nRu2 q r 10\nCq q 0 1p\nCin2 in 0 1f\n",
        32 => ".input m0\nR0 m0 x 5\n.input in\nR0 x y 5\nCx x 0 1f\n",
        _ => "",
    };
    deck.push_str(tail);
    if mutation == 25 {
        // No input directive and no node named `in`.
        deck = deck.replace(".input in\n", "").replace(" in ", " root ");
    }
    if mutation == 26 {
        deck = "* only prose\n; and more\n".to_owned();
    }
    if mutation == 27 {
        // A load-free, zero-capacitance net.
        deck = ".input in\nR1 in a 10\nL2 a b 1n\n".to_owned();
    }
    if mutation == 28 {
        // Strongly underdamped: big L, small R.
        deck = ".input in\nR1 in a 0.1\nL1 a b 50n\nC1 b 0 1p\nL2 b c 50n\nC2 c 0 1p\n".to_owned();
    }
    if mutation == 29 {
        // A degenerate sink: only inductance on the path.
        deck = ".input in\nL1 in a 1n\nC1 a 0 1p\n".to_owned();
    }
    deck
}

/// A coupled deck, with the mutation classes of the coupled generator in
/// `parser_agreement.rs`.
fn coupled_deck(rng: &mut Rng, mutation: u64) -> String {
    let nets = 1 + rng.below(3) as usize;
    let mut deck = String::new();
    if rng.below(2) == 0 {
        deck.push_str("* coupled group\n");
    }
    for n in 0..nets {
        let _ = writeln!(deck, ".net net{n}");
        if rng.below(3) == 0 {
            deck.push_str("; block comment\n");
        }
        for i in 0..1 + rng.below(5) as usize {
            let parent = if i == 0 {
                "in".to_owned()
            } else {
                format!("m{}", i - 1)
            };
            if rng.below(2) == 0 {
                let _ = writeln!(deck, "R{i} {parent} m{i} {}", 1 + rng.below(99));
            } else {
                let _ = writeln!(deck, "L{i} {parent} m{i} {}n", 1 + rng.below(99));
            }
            let _ = writeln!(deck, "C{i} m{i} 0 {}f", 1 + rng.below(99));
        }
    }
    if nets > 1 {
        deck.push_str("K1 net0.m0 net1.m0 0.05p\n");
        if rng.below(2) == 0 {
            deck.push_str("K2 net1.m0 net0.m0 0.02p\n");
        }
    }
    let tail = match mutation {
        0 => "K9 net0.m0 ghost.m0 0.1p\n",
        1 => "K9 net0.m0 net0.m0 0.1p\n",
        2 => "K9 net0.m0 net0.zz 0.1p\n",
        3 => "K9 net0.m0 0.1p\n",
        4 => "K9 net0.m0 nodot 0.1p\n",
        5 => "K9 net0.m0 net0.m0 0\n",
        6 => "K9 net0.m0 net0.m0 NaN\n",
        7 => "K9 net0.m0 net0.m0 1e999\n",
        8 => "K9 net0.m0 net0.m0 oops\n",
        9 => ".net\n",
        10 => ".net two words\n",
        11 => ".net dotted.name\n",
        12 => ".net net0\nR1 in n1 10\nC1 n1 0 1p\n",
        13 => "Rbad m0\n",
        14 => "K9 net0.in net0.m0 0.1p\n",
        15 => ".net late\nR1 in a 10\nR2 a in 10\nC1 a 0 1p\n",
        16 => ".end\nRafter in x 10\n",
        _ => "",
    };
    deck.push_str(tail);
    if mutation == 17 {
        deck = format!("Rearly in n1 10\n{deck}");
    }
    if mutation == 18 {
        deck = "* prose only\n.end\n".to_owned();
    }
    deck
}

/// A synthesis deck, with the mutation classes of the synthesis generator
/// in `parser_agreement.rs`.
fn synth_deck(rng: &mut Rng, mutation: u64) -> String {
    let mut deck = String::from("* clock net\n.input in\n");
    for i in 0..1 + rng.below(7) as usize {
        let parent = if i == 0 {
            "in".to_owned()
        } else {
            format!("m{}", i - 1)
        };
        if rng.below(2) == 0 {
            let _ = writeln!(deck, "R{i} {parent} m{i} {}", 1 + rng.below(99));
        } else {
            let _ = writeln!(deck, "L{i} {parent} m{i} {}n", 1 + rng.below(99));
        }
        let _ = writeln!(deck, "C{i} m{i} 0 {}f", 1 + rng.below(99));
    }
    deck.push_str(".lib bufa r=120 cin=4f tin=15p\n");
    let tail = match mutation {
        0 => ".lib short r=1k cin=4f\n",
        1 => ".lib keys r=1k cin=4f zap=1p\n",
        2 => ".lib keys r=1k cin=4f cin=5f\n",
        3 => ".lib bufa r=2k cin=4f tin=1p\n",
        4 => ".lib zero r=0 cin=4f tin=1p\n",
        5 => ".lib neg r=-5 cin=4f tin=1p\n",
        6 => ".lib bad r=oops cin=4f tin=1p\n",
        7 => ".lib nn r=1k cin=-4f tin=1p\n",
        8 => ".use ghost\n",
        9 => ".use bufa\n.use bufa\n",
        10 => ".use one two\n",
        11 => ".driver 0\n",
        12 => ".driver 100\n.driver 200\n",
        13 => ".driver\n",
        14 => ".require ghost 1n\n",
        15 => ".require m0 -1p\n",
        16 => ".require m0 1p\n.require m0 2p\n",
        17 => ".require m0\n",
        18 => "Rbad m0\n",
        19 => ".lib bufb r=80 cin=6f tin=12p\n.use bufb\n.require m0 3n\n",
        _ => ".use bufa\n.driver 150\n.require m0 2n\n",
    };
    deck.push_str(tail);
    if mutation == 21 {
        // Synthesis directives but no buffer library.
        deck = deck.replace(".lib bufa r=120 cin=4f tin=15p\n", ".driver 90\n");
    }
    deck
}

/// The sorted `name=index` node map of a parsed netlist.
fn node_map(netlist: &Netlist) -> String {
    let mut pairs: Vec<(&str, usize)> = netlist.nodes().map(|(n, id)| (n, id.index())).collect();
    pairs.sort_unstable();
    let pairs: Vec<String> = pairs.iter().map(|(n, i)| format!("{n}={i}")).collect();
    pairs.join(" ")
}

fn entry(out: &mut String, kind: &str, deck: &str, lint: &str, parse: Result<String, String>) {
    let (key, value) = match &parse {
        Ok(canonical) => ("ok", canonical.as_str()),
        Err(error) => ("error", error.as_str()),
    };
    let _ = writeln!(
        out,
        "  {{\"kind\": {}, \"deck\": {}, \"lint\": {}, \"{key}\": {}}},",
        json::quote(kind),
        json::quote(deck),
        lint,
        json::quote(value),
    );
}

fn netlist_entry(out: &mut String, deck: &str) {
    let lint = lint_deck(deck).to_json_object("deck");
    let parse = Netlist::parse(deck)
        .map(|n| format!("{}nodes: {}\n", n.canonical_deck(), node_map(&n)))
        .map_err(|e| e.to_string());
    entry(out, "netlist", deck, &lint, parse);
}

/// The whole corpus, rendered one entry per line.
fn corpus() -> String {
    let mut out = String::from("[\n");
    let mut rng = Rng(0x5eed_f00d);
    for k in 0..240 {
        let sections = 1 + (k % 24) + rng.below(6) as usize;
        netlist_entry(&mut out, &valid_deck(&mut rng, sections));
    }
    for k in 0..330 {
        netlist_entry(&mut out, &mutated_deck(&mut rng, k % 33));
    }
    for k in 0..76 {
        let deck = coupled_deck(&mut rng, k % 19);
        let lint = lint_coupled_deck(&deck).to_json_object("deck");
        let parse = CoupledGroup::parse(&deck)
            .map(|g| g.canonical_deck())
            .map_err(|e| e.to_string());
        entry(&mut out, "coupled", &deck, &lint, parse);
    }
    for k in 0..66 {
        let deck = synth_deck(&mut rng, k % 22);
        let lint = lint_synth_deck(&deck).to_json_object("deck");
        let parse = SynthDeck::parse(&deck)
            .map(|s| s.canonical_deck())
            .map_err(|e| e.to_string());
        entry(&mut out, "synth", &deck, &lint, parse);
    }
    // Drop the trailing comma of the last entry.
    out.truncate(out.len() - 2);
    out.push_str("\n]\n");
    out
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/netlist_front_end.json")
}

#[test]
fn front_end_corpus_is_frozen() {
    let actual = corpus();
    json::parse(&actual).expect("corpus renders as valid JSON");
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "front-end corpus line {} drifted", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "front-end corpus length drifted"
    );
}

#[test]
fn corpus_covers_every_outcome() {
    let corpus = corpus();
    let entries = corpus.lines().filter(|l| l.starts_with("  {")).count();
    assert!(entries >= 500, "only {entries} decks");
    for needle in [
        "\"ok\": ", "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010",
        "L101", "L102", "L103", "L104", "L105", "L201", "L202", "L401", "L402", "L403", "L404",
        "L406", "L501", "L502", "L503", "L504", "L505",
    ] {
        assert!(corpus.contains(needle), "corpus never produces {needle}");
    }
}
