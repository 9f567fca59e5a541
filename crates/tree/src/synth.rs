//! Synthesis decks: a netlist plus buffer-library and constraint cards.
//!
//! A *synthesis deck* is an ordinary netlist (see [`crate::netlist`])
//! extended with deck-level cards describing what the synthesizer may do
//! to the net and what it must achieve:
//!
//! ```text
//! * clock net, M6
//! .input in
//! R1 in n1 120
//! C1 n1 0 0.4p
//! .lib bufx r=1.2k cin=4f tin=18p
//! .use bufx
//! .driver 150
//! .require n1 900p
//! .end
//! ```
//!
//! * `.lib <name> r=<R> cin=<C> tin=<T>` defines a buffer: driver
//!   (output) resistance, input capacitance, and intrinsic delay. A deck
//!   may carry several `.lib` cards; key/value fields accept any order.
//! * `.use <name>` selects which buffer the synthesizer inserts. Without
//!   it, the first `.lib` card is selected.
//! * `.driver <R>` is the source driver's output resistance. Without it,
//!   the net is assumed driven by the selected buffer's resistance.
//! * `.require <node> <T>` is an optional required 50% arrival time at a
//!   named tree node, reported as slack by the synthesizer.
//!
//! Values use the same engineering-suffix grammar as element cards
//! (`1.2k`, `4f`, `18p`). The plain [`Netlist`] parser ignores every
//! synthesis card (they are unknown directives to it), so a synthesis
//! deck is always also a valid analysis deck for the same tree.
//!
//! Malformed cards are **typed errors**, never panics: card-level
//! problems surface as [`TreeError::ParseNetlist`] with the 1-based line
//! number, deck-level problems (no `.lib` card at all) as
//! [`TreeError::SynthDeck`]. [`SynthDeck::parse`] stops at the first;
//! [`SynthDeck::scan`], the same card loop in collect mode, records every
//! problem and still returns exactly `parse`'s outcome. The `rlc-lint`
//! crate's L5xx synthesis tier is rule passes over that scan.

use rlc_units::{Capacitance, Resistance, Time};

use crate::deck::{self, card_error, Card, Faults, Problem};
use crate::netlist::{DeckScan, Netlist, ValueFault};
use crate::{NodeId, RlcTree, TreeError};

/// One `.lib` card: a buffer characterized for synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferCard {
    /// The library name of the buffer (the `.lib` card's first field).
    pub name: String,
    /// Driver (output) resistance; must be positive and finite.
    pub resistance: Resistance,
    /// Input capacitance presented to the upstream stage.
    pub input_capacitance: Capacitance,
    /// Intrinsic (input-to-output) delay added per inserted buffer.
    pub intrinsic_delay: Time,
}

/// A parsed synthesis deck: the netlist plus its buffer library and
/// constraints.
#[derive(Debug, Clone)]
pub struct SynthDeck {
    netlist: Netlist,
    buffers: Vec<BufferCard>,
    selected: usize,
    driver: Resistance,
    explicit_driver: bool,
    requires: Vec<(NodeId, Time)>,
    /// Original names of `.require` nodes, aligned with `requires`.
    require_names: Vec<String>,
}

/// The directives that make a deck a synthesis deck, each with the
/// number of fields after its name and what they are.
const SYNTH_DIRECTIVES: [(&str, usize, &str); 4] = [
    (".lib", 4, "`<name> r=<res> cin=<cap> tin=<time>`"),
    (".use", 1, "a buffer name"),
    (".driver", 1, "a resistance"),
    (".require", 2, "`<node> <time>`"),
];

/// The synthesis directive `card` is (any case), if it is one.
pub(crate) fn directive(card: &Card<'_>) -> Option<(&'static str, usize, &'static str)> {
    SYNTH_DIRECTIVES
        .into_iter()
        .find(|(name, ..)| card.is(name))
}

/// The class of a problem the synthesis front end found in the synthesis
/// cards or at deck level (element-card problems are in
/// [`SynthScan::netlist`]). Every class is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthFault<'a> {
    /// A malformed or duplicate synthesis card, or a negative input
    /// capacitance, intrinsic delay or required time.
    Malformed,
    /// The value of `what` (`.lib resistance`, `.require time`, …) does
    /// not parse, or is not positive where it must be.
    BadValue {
        what: &'static str,
        raw: &'a str,
        fault: ValueFault,
    },
    /// No `.lib` card with the right field count.
    MissingLibrary,
    /// A `.use` naming no `.lib` buffer.
    UnknownBuffer,
    /// A `.require` on node `node`, which the parsed tree lacks.
    UnknownNode { node: &'a str },
}

/// Collect-mode output of the synthesis front end: see
/// [`SynthDeck::scan`].
#[derive(Debug)]
pub struct SynthScan<'a> {
    /// Every synthesis-card and deck-level problem, in the order the
    /// parser checks for them: card problems in deck order, then the
    /// library and `.use` checks, then unresolved `.require` nodes.
    pub problems: Vec<Problem<SynthFault<'a>>>,
    /// The element portion (every card but the synthesis directives)
    /// through the netlist front end.
    pub netlist: DeckScan<'a>,
    header: Option<&'a str>,
    cards: Reader<'a>,
    /// The `.require` constraints whose node and time both read cleanly.
    requires: Vec<(NodeId, Time, &'a str)>,
}

/// The synthesis cards as the card loop read them.
#[derive(Debug)]
struct Reader<'a> {
    faults: Faults<SynthFault<'a>>,
    /// The name of every `.lib` card with the right field count.
    libraries: Vec<&'a str>,
    /// The `.lib` cards that read cleanly.
    buffers: Vec<BufferCard>,
    /// Every `.use` card with the right field count: line and name.
    uses: Vec<(usize, &'a str)>,
    driver: Option<Resistance>,
    driver_seen: bool,
    /// Every `.require` card with the right field count on a new node:
    /// line, node and time (when the time reads cleanly).
    requires: Vec<(usize, &'a str, Option<Time>)>,
}

impl<'a> SynthScan<'a> {
    /// The parse outcome: exactly what [`SynthDeck::parse`] returns for
    /// the same deck.
    pub fn into_deck(self) -> Result<SynthDeck, TreeError> {
        let Reader {
            faults,
            buffers,
            uses,
            driver,
            ..
        } = self.cards;
        if let Some(error) = faults.first_error {
            return Err(error);
        }
        let netlist = self.netlist.netlist?.with_header(self.header);
        // The first `.use` selects; without one, the first `.lib` does.
        let selected = uses
            .first()
            .and_then(|&(_, name)| buffers.iter().position(|b| b.name == name))
            .unwrap_or(0);
        let mut requires = self.requires;
        requires.sort_by_key(|(node, _, _)| node.index());
        Ok(SynthDeck {
            netlist,
            driver: driver.unwrap_or(buffers[selected].resistance),
            explicit_driver: driver.is_some(),
            requires: requires.iter().map(|&(node, t, _)| (node, t)).collect(),
            require_names: requires.iter().map(|(_, _, n)| (*n).to_owned()).collect(),
            buffers,
            selected,
        })
    }

    /// The one synthesis-deck card loop, fail-fast or collecting.
    /// Fail-fast mode returns the first problem as an error; collect mode
    /// never fails.
    fn read(deck: &'a str, collect: bool) -> Result<Self, TreeError> {
        let mut reader = Reader {
            faults: Faults::new(collect),
            libraries: Vec::new(),
            buffers: Vec::new(),
            uses: Vec::new(),
            driver: None,
            driver_seen: false,
            requires: Vec::new(),
        };
        let mut cards = deck::cards(deck);
        // The element portion, fed to the netlist front end once the
        // synthesis cards are read.
        let mut elements: Vec<Card<'a>> = Vec::new();
        for card in &mut cards {
            let line = card.line;
            let Some((name, count, usage)) = directive(&card) else {
                elements.push(card);
                continue;
            };
            if card.len() != count + 1 {
                let message = format!("{name} expects {usage}, got {} fields", card.len() - 1);
                reader.malformed(line, message)?;
                continue;
            }
            let first = card.field(1).unwrap_or_default();
            match name {
                ".lib" => reader.lib_card(&card, first)?,
                ".use" => {
                    if !reader.uses.is_empty() {
                        reader.malformed(line, "duplicate .use card".into())?;
                    }
                    reader.uses.push((line, first));
                }
                ".driver" => {
                    if std::mem::replace(&mut reader.driver_seen, true) {
                        reader.malformed(line, "duplicate .driver card".into())?;
                    }
                    let what = ".driver resistance";
                    reader.driver =
                        reader.value(line, what, Some(first), Resistance::as_ohms, true)?;
                }
                _ => {
                    let raw = card.field(2);
                    let time = reader.value(line, ".require time", raw, Time::as_seconds, false)?;
                    if reader.requires.iter().any(|&(_, n, _)| n == first) {
                        let message = format!("duplicate .require constraint on node {first:?}");
                        reader.malformed(line, message)?;
                    } else {
                        reader.requires.push((line, first, time));
                    }
                }
            }
        }

        let faults = &mut reader.faults;
        if reader.libraries.is_empty() {
            let message = "synthesis deck has no .lib buffer card".into();
            faults.report(SynthFault::MissingLibrary, TreeError::SynthDeck { message })?;
        }
        for &(line, name) in &reader.uses {
            if !reader.libraries.contains(&name) {
                let message = format!(".use references unknown buffer {name:?}");
                faults.report(SynthFault::UnknownBuffer, card_error(line, message))?;
            }
        }
        let hint = elements.len();
        let netlist = Netlist::read_cards(elements, hint, collect);
        let mut requires = Vec::with_capacity(reader.requires.len());
        match &netlist.netlist {
            Err(error) => faults.fail(error)?,
            Ok(parsed) => {
                for &(line, node, time) in &reader.requires {
                    let Some(id) = parsed.node(node) else {
                        let message = format!(".require constraint on nonexistent node {node:?}");
                        faults
                            .report(SynthFault::UnknownNode { node }, card_error(line, message))?;
                        continue;
                    };
                    requires.extend(time.map(|time| (id, time, node)));
                }
            }
        }
        Ok(Self {
            problems: std::mem::take(&mut faults.problems),
            netlist,
            header: cards.header(),
            cards: reader,
            requires,
        })
    }
}

impl<'a> Reader<'a> {
    fn malformed(&mut self, line: usize, message: String) -> Result<(), TreeError> {
        let error = card_error(line, message);
        self.faults.report(SynthFault::Malformed, error)
    }

    /// Reads `raw`, the value of `what`, which must be positive when
    /// `positive` and non-negative otherwise; returns it when it reads
    /// cleanly. A missing value reads as none: the field fault that lost
    /// it is already reported.
    fn value<T>(
        &mut self,
        line: usize,
        what: &'static str,
        raw: Option<&'a str>,
        base: fn(T) -> f64,
        positive: bool,
    ) -> Result<Option<T>, TreeError>
    where
        T: std::str::FromStr<Err = rlc_units::ParseQuantityError> + Copy,
    {
        let Some(raw) = raw else {
            return Ok(None);
        };
        let fault = match ValueFault::check(raw, base, positive) {
            Ok(value) => return Ok(Some(value)),
            Err(fault) => fault,
        };
        let error = card_error(line, fault.message(what, raw));
        let kind = match fault {
            ValueFault::Negative => SynthFault::Malformed,
            fault => SynthFault::BadValue { what, raw, fault },
        };
        self.faults.report(kind, error)?;
        Ok(None)
    }

    /// Reads a `.lib <name> r=<R> cin=<C> tin=<T>` card of the right
    /// field count, in the parser's order: field shapes and repeats,
    /// unknown keys (alphabetically), the three values, then the buffer
    /// name.
    fn lib_card(&mut self, card: &Card<'a>, name: &'a str) -> Result<(), TreeError> {
        let line = card.line;
        // The first value of each key, sorted by key below.
        let mut pairs = [("", ""); 3];
        let mut count = 0;
        for field in card.fields().skip(2) {
            let Some((key, value)) = field.split_once('=') else {
                self.malformed(line, format!(".lib field {field:?} is not `key=value`"))?;
                continue;
            };
            if pairs[..count].iter().any(|&(k, _)| k == key) {
                self.malformed(line, format!(".lib repeats key {key:?}"))?;
                continue;
            }
            pairs[count] = (key, value);
            count += 1;
        }
        let pairs = &mut pairs[..count];
        pairs.sort_unstable_by_key(|&(key, _)| key);
        for &(key, _) in pairs.iter() {
            if !matches!(key, "r" | "cin" | "tin") {
                self.malformed(line, format!(".lib has unknown key {key:?}"))?;
            }
        }
        // Three fields and three known keys: a key is only missing when a
        // field fault above is already reported.
        let raw = |key: &str| pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        let r = self.value(line, ".lib resistance", raw("r"), Resistance::as_ohms, true)?;
        let what = ".lib input capacitance";
        let cin = self.value(line, what, raw("cin"), Capacitance::as_farads, false)?;
        let what = ".lib intrinsic delay";
        let tin = self.value(line, what, raw("tin"), Time::as_seconds, false)?;
        if self.libraries.contains(&name) {
            return self.malformed(line, format!("duplicate .lib buffer {name:?}"));
        }
        self.libraries.push(name);
        if let (Some(resistance), Some(input_capacitance), Some(intrinsic_delay)) = (r, cin, tin) {
            self.buffers.push(BufferCard {
                name: name.to_owned(),
                resistance,
                input_capacitance,
                intrinsic_delay,
            });
        }
        Ok(())
    }
}

impl SynthDeck {
    /// Parses a synthesis deck, stopping at the first problem.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed element or synthesis
    ///   cards (bad values, missing fields, duplicate definitions,
    ///   unknown buffer references, constraints on nonexistent nodes);
    /// * [`TreeError::SynthDeck`] when the deck has no `.lib` card;
    /// * any error of [`Netlist::parse`] for the element portion.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        SynthScan::read(deck, false)?.into_deck()
    }

    /// Parses a synthesis deck in collect mode: every synthesis-card,
    /// deck-level and element problem is recorded instead of ending the
    /// parse. `scan(deck).into_deck()` is exactly `parse(deck)` — the
    /// same deck, or the same first error.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::synth::{SynthDeck, SynthFault};
    ///
    /// let deck = "\
    /// R1 in n1 25
    /// C1 n1 0 1p
    /// .lib bufx r=0 cin=4f tin=oops
    /// .use ghost
    /// .require n9 1n
    /// ";
    /// let scan = SynthDeck::scan(deck);
    /// let kinds: Vec<&SynthFault> = scan.problems.iter().map(|p| &p.kind).collect();
    /// assert!(matches!(
    ///     kinds[..],
    ///     [
    ///         SynthFault::BadValue { what: ".lib resistance", .. },
    ///         SynthFault::BadValue { what: ".lib intrinsic delay", .. },
    ///         SynthFault::UnknownBuffer,
    ///         SynthFault::UnknownNode { node: "n9" },
    ///     ]
    /// ));
    /// assert!(scan.netlist.netlist.is_ok());
    /// assert_eq!(
    ///     scan.into_deck().unwrap_err(),
    ///     SynthDeck::parse(deck).unwrap_err(),
    /// );
    /// ```
    pub fn scan(deck: &str) -> SynthScan<'_> {
        match SynthScan::read(deck, true) {
            Ok(scan) => scan,
            Err(error) => unreachable!("collect mode records {error} and carries on"),
        }
    }

    /// The parsed element tree.
    pub fn tree(&self) -> &RlcTree {
        self.netlist.tree()
    }

    /// The underlying netlist (node names, header).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Every `.lib` card, in deck order.
    pub fn buffers(&self) -> &[BufferCard] {
        &self.buffers
    }

    /// The buffer the synthesizer will insert (the `.use` selection, or
    /// the first `.lib` card).
    pub fn buffer(&self) -> &BufferCard {
        &self.buffers[self.selected]
    }

    /// The source driver's output resistance (`.driver`, defaulting to the
    /// selected buffer's resistance).
    pub fn driver_resistance(&self) -> Resistance {
        self.driver
    }

    /// Required 50% arrival times from `.require` cards, sorted by node
    /// index.
    pub fn required_times(&self) -> &[(NodeId, Time)] {
        &self.requires
    }

    /// The canonical form of this synthesis deck: the netlist tree's
    /// canonical deck (comments dropped, nodes renamed `n{index}`, `{:e}`
    /// values) with the *resolved* synthesis cards spliced in before
    /// `.end` —
    /// only the selected buffer is emitted (unselected `.lib` cards
    /// cannot influence the synthesis result, so they must not influence
    /// the cache identity), `.use` and `.driver` are always explicit, and
    /// `.require` cards are sorted by canonical node index.
    ///
    /// Like the other canonical forms this is a fixpoint:
    /// `SynthDeck::parse(deck.canonical_deck())` reproduces the same
    /// canonical bytes, so it serves as the content address for the serve
    /// tier's `optimize` cache. Unlike [`Netlist::canonical_deck`] the
    /// deck header is *not* preserved: two synthesis decks differing only
    /// in prose must share one cache identity, matching the analyze and
    /// couple key derivations.
    pub fn canonical_deck(&self) -> String {
        use std::fmt::Write as _;

        let base = self.netlist.tree().canonical_deck();
        let body = base
            .strip_suffix(".end\n")
            .unwrap_or_else(|| unreachable!("canonical netlist decks always end with .end"));
        let mut out = body.to_owned();
        let buffer = self.buffer();
        let _ = writeln!(
            out,
            ".lib {} r={:e} cin={:e} tin={:e}",
            buffer.name,
            buffer.resistance.as_ohms(),
            buffer.input_capacitance.as_farads(),
            buffer.intrinsic_delay.as_seconds()
        );
        let _ = writeln!(out, ".use {}", buffer.name);
        let _ = writeln!(out, ".driver {:e}", self.driver.as_ohms());
        for (node, t) in &self.requires {
            let _ = writeln!(out, ".require n{} {:e}", node.index(), t.as_seconds());
        }
        out.push_str(".end\n");
        out
    }

    /// The original deck names of the `.require` nodes, aligned with
    /// [`required_times`](Self::required_times).
    pub fn require_names(&self) -> &[String] {
        &self.require_names
    }

    /// Whether the deck carried an explicit `.driver` card (as opposed to
    /// defaulting to the selected buffer's resistance).
    pub fn has_explicit_driver(&self) -> bool {
        self.explicit_driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
* clock net
.input in
R1 in n1 120
C1 n1 0 0.4p
R2 n1 n2 120
C2 n2 0 0.4p
.lib bufx r=1.2k cin=4f tin=18p
.lib bufy r=600 cin=9f tin=25p
.use bufx
.driver 150
.require n2 900p
.end
";

    #[test]
    fn parses_a_full_synthesis_deck() {
        let deck = SynthDeck::parse(DECK).unwrap();
        assert_eq!(deck.tree().len(), 2);
        assert_eq!(deck.buffers().len(), 2);
        assert_eq!(deck.buffer().name, "bufx");
        assert_eq!(deck.buffer().resistance.as_ohms(), 1200.0);
        assert!((deck.buffer().input_capacitance.as_farads() - 4e-15).abs() < 1e-24);
        assert!((deck.buffer().intrinsic_delay.as_seconds() - 18e-12).abs() < 1e-21);
        assert_eq!(deck.driver_resistance().as_ohms(), 150.0);
        assert!(deck.has_explicit_driver());
        let requires = deck.required_times();
        assert_eq!(requires.len(), 1);
        assert_eq!(requires[0].0, deck.netlist().node("n2").unwrap());
        assert!((requires[0].1.as_seconds() - 900e-12).abs() < 1e-18);
        assert_eq!(deck.require_names(), ["n2"]);
    }

    #[test]
    fn lib_keys_accept_any_order_and_use_defaults_to_first() {
        let deck = "\
R1 in n1 25
C1 n1 0 0.5p
.lib a tin=10p cin=2f r=3k
";
        let parsed = SynthDeck::parse(deck).unwrap();
        assert_eq!(parsed.buffer().name, "a");
        // No .driver: the net is assumed driven by the selected buffer.
        assert_eq!(parsed.driver_resistance().as_ohms(), 3000.0);
        assert!(!parsed.has_explicit_driver());
    }

    #[test]
    fn netlist_parser_ignores_synth_cards() {
        // The same deck is a valid plain analysis deck.
        let plain = Netlist::parse(DECK).unwrap();
        assert_eq!(plain.tree().len(), 2);
    }

    #[test]
    fn malformed_cards_are_typed_errors_with_lines() {
        let cases: &[(&str, &str)] = &[
            (".lib a r=1k cin=4f\nR1 in n1 25\nC1 n1 0 1p\n", "3 fields"),
            (
                ".lib a r=1k cin=4f cin=5f\nR1 in n1 25\nC1 n1 0 1p\n",
                "repeats key",
            ),
            (
                ".lib a r=1k cin=4f tin=1p extra=2\nR1 in n1 25\nC1 n1 0 1p\n",
                "5 fields",
            ),
            (
                ".lib a r=1k cin=4f zap=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "unknown key",
            ),
            (
                ".lib a r=0 cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=-3 cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=1k cin=oops tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "bad value",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.lib a r=2k cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .lib",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.use b\nR1 in n1 25\nC1 n1 0 1p\n",
                "unknown buffer",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.use a\n.use a\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .use",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.driver 0\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.driver 10\n.driver 20\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .driver",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require zz 1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "nonexistent node",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1 -1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "non-negative",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1 1p\n.require n1 2p\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .require",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1\nR1 in n1 25\nC1 n1 0 1p\n",
                "1 fields",
            ),
        ];
        for (deck, needle) in cases {
            let err = SynthDeck::parse(deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "deck {deck:?} gave {err:?}"
            );
            assert!(
                err.to_string().contains(needle),
                "deck {deck:?}: {err} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn deck_without_lib_card_is_a_deck_level_error() {
        let err = SynthDeck::parse(".driver 100\nR1 in n1 25\nC1 n1 0 1p\n").unwrap_err();
        assert!(matches!(err, TreeError::SynthDeck { .. }), "{err:?}");
        assert!(err.to_string().contains(".lib"));
    }

    #[test]
    fn netlist_errors_pass_through() {
        let err = SynthDeck::parse(".lib a r=1k cin=4f tin=1p\nR1 in n1 oops\n").unwrap_err();
        assert!(matches!(err, TreeError::ParseNetlist { .. }));
    }

    #[test]
    fn canonical_deck_is_a_fixpoint_and_drops_unselected_buffers() {
        let deck = SynthDeck::parse(DECK).unwrap();
        let canonical = deck.canonical_deck();
        // The header comment is dropped: canonical identity is prose-free.
        assert!(canonical.starts_with(".input in\n"), "{canonical}");
        assert!(canonical.contains(".lib bufx "), "{canonical}");
        assert!(!canonical.contains("bufy"), "{canonical}");
        assert!(canonical.contains(".use bufx\n"), "{canonical}");
        assert!(canonical.contains(".driver 1.5e2\n"), "{canonical}");
        assert!(canonical.ends_with(".end\n"), "{canonical}");

        let again = SynthDeck::parse(&canonical).unwrap();
        assert_eq!(
            again.canonical_deck(),
            canonical,
            "canonical form is a fixpoint"
        );
        assert_eq!(again.tree(), deck.tree());
        assert_eq!(again.buffer(), deck.buffer());
        assert_eq!(again.driver_resistance(), deck.driver_resistance());
        assert_eq!(again.required_times(), deck.required_times());
    }

    #[test]
    fn canonical_deck_shares_identity_across_spellings() {
        // Same circuit, same library physics: different node names, value
        // spellings, and an extra unselected buffer must not change the
        // canonical bytes.
        let a = SynthDeck::parse(
            "R1 in x 120\nC1 x 0 0.4p\n.lib b r=1.2k cin=4f tin=18p\n.driver 150\n",
        )
        .unwrap();
        let b = SynthDeck::parse(
            ".input in\nRw in y 1.2e2\nCw y 0 4e-13\n.lib b r=1200 cin=0.004p tin=0.018n\n.lib spare r=9k cin=1f tin=5p\n.use b\n.driver 1.5e2\n",
        )
        .unwrap();
        assert_eq!(a.canonical_deck(), b.canonical_deck());
    }

    #[test]
    fn requires_are_sorted_by_node_index() {
        let deck = "\
R1 in a 25
C1 a 0 1p
R2 a b 25
C2 b 0 1p
.lib buf r=1k cin=4f tin=10p
.require b 2n
.require a 1n
";
        let parsed = SynthDeck::parse(deck).unwrap();
        let nodes: Vec<u32> = parsed
            .required_times()
            .iter()
            .map(|(n, _)| n.index() as u32)
            .collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted);
    }
}
