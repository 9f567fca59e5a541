//! SPICE-like netlist parsing and writing for RLC trees.
//!
//! The format is the familiar card deck:
//!
//! ```text
//! * an RLC tree
//! .input in
//! R1 in  n1  25
//! L1 n1  n1x 5n
//! C1 n1x 0   0.5p
//! R2 n1x n2  25
//! C2 n2  0   0.5p
//! .end
//! ```
//!
//! * `R`/`L` cards are series elements between two nodes; `C` cards connect a
//!   node to ground (`0` or `gnd`).
//! * `.input <node>` names the source node (defaults to `in` if such a node
//!   exists).
//! * Values accept engineering suffixes (`25`, `5n`, `0.5p`) via
//!   [`rlc_units`] parsing.
//!
//! On parse, each series element becomes one tree section (an element chain
//! through capacitor-less intermediate nodes is electrically identical to a
//! combined section, so no merging is needed); shunt capacitance is summed
//! per node. The element graph must be a tree rooted at the input node.
//!
//! # One front end, two modes
//!
//! Cards come from the shared [`crate::deck`] tokenizer, borrowed
//! from the deck text. A single builder interns each node name once,
//! assembles the tree over index adjacency in a depth-first walk from the
//! input, and runs in one of two modes:
//!
//! * **fail-fast** ([`Netlist::parse`]) stops at the first problem and
//!   returns it as a [`TreeError`];
//! * **collect** ([`Netlist::scan`]) records every card and graph
//!   [`Finding`] and keeps going, and still returns exactly the outcome
//!   `Netlist::parse` would — the same tree, or the same error.
//!
//! `rlc-lint` is rule passes over collect-mode output, so "a deck lints
//! error-free iff `Netlist::parse` accepts it" holds by construction.

use rlc_units::{Capacitance, Inductance, ParseQuantityError, Resistance};

use crate::deck::{self, Card};
use crate::names::{Interner, NodeNames};
use crate::{NodeId, RlcSection, RlcTree, TreeError};

/// A parsed netlist: the tree plus the original node names.
///
/// # Examples
///
/// ```
/// use rlc_tree::netlist::Netlist;
///
/// let deck = "\
/// * two-section line
/// .input in
/// R1 in n1 25
/// C1 n1 0 0.5p
/// R2 n1 n2 25
/// C2 n2 0 0.5p
/// ";
/// let parsed = Netlist::parse(deck)?;
/// assert_eq!(parsed.tree().len(), 2);
/// let n2 = parsed.node("n2").expect("named node");
/// assert_eq!(parsed.tree().depth(n2), 2);
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    tree: RlcTree,
    names: NodeNames,
    header: Option<String>,
}

/// The kind of an element card, from its first letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// `R` — a series resistor, in Ω.
    Resistor,
    /// `L` — a series inductor, in H.
    Inductor,
    /// `C` — a shunt capacitor to ground, in F.
    Capacitor,
}

/// One element card with the right field count, as collect mode saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementCard<'a> {
    /// 1-based deck line.
    pub line: usize,
    /// The card label (`R1`, `Cload`, …).
    pub label: &'a str,
    /// What the card's letter makes it.
    pub kind: ElementKind,
    /// The value in base SI units, when it parsed finite and non-negative.
    pub value: Option<f64>,
}

/// Why a card value was rejected. The coupled and synthesis grammars
/// share this with element cards.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueFault {
    /// The text is not a quantity, or overflows (see
    /// [`rlc_units::QuantityErrorKind`]).
    Syntax(ParseQuantityError),
    /// The value parsed but is negative where it must be non-negative.
    Negative,
    /// The value parsed but is not positive where it must be (coupling
    /// capacitors, buffer and driver resistances).
    NotPositive,
}

impl ValueFault {
    /// Reads `raw` as a quantity that must be non-negative, or strictly
    /// positive when `positive`. Quantity parsing never yields a
    /// non-finite value, so only the sign is left to check.
    pub(crate) fn check<T>(raw: &str, base: fn(T) -> f64, positive: bool) -> Result<T, Self>
    where
        T: std::str::FromStr<Err = ParseQuantityError> + Copy,
    {
        let value = raw.parse::<T>().map_err(ValueFault::Syntax)?;
        match (base(value), positive) {
            (v, true) if v > 0.0 => Ok(value),
            (_, true) => Err(ValueFault::NotPositive),
            (v, false) if v >= 0.0 => Ok(value),
            (_, false) => Err(ValueFault::Negative),
        }
    }

    /// The parser's message for this fault on `raw`, the value of `what`.
    pub fn message(&self, what: &str, raw: &str) -> String {
        match self {
            ValueFault::Syntax(e) => format!("bad value {raw:?}: {e}"),
            ValueFault::Negative => format!("{what} {raw:?} must be finite and non-negative"),
            ValueFault::NotPositive => format!("{what} {raw:?} must be finite and positive"),
        }
    }
}

/// One problem collect mode found, borrowing its text from the deck.
///
/// Every variant but [`DuplicateInput`](Self::DuplicateInput) and
/// [`DuplicateLabel`](Self::DuplicateLabel) is an error: it makes
/// [`Netlist::parse`] fail. Card findings carry their deck line; graph
/// findings are only looked for once every card is well formed.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding<'a> {
    /// `.input` with no node name.
    InputWithoutNode { line: usize },
    /// A second `.input` overrides an earlier one (not an error).
    DuplicateInput {
        line: usize,
        node: &'a str,
        previous: &'a str,
        previous_line: usize,
    },
    /// A card whose letter is not `R`, `L` or `C`.
    UnsupportedCard { line: usize, card: &'a str },
    /// An element card without exactly four fields.
    FieldCount { line: usize, count: usize },
    /// A card label used before (not an error).
    DuplicateLabel {
        line: usize,
        label: &'a str,
        first_line: usize,
    },
    /// An element value that does not parse, or parses negative.
    BadValue {
        line: usize,
        card: &'a str,
        raw: &'a str,
        fault: ValueFault,
    },
    /// A series element touching ground.
    GroundedSeries { line: usize, card: &'a str },
    /// A capacitor that does not join exactly one node to ground.
    FloatingCapacitor { line: usize, card: &'a str },
    /// No series element at all.
    NoSeriesElements,
    /// No `.input` directive and no node named `in`.
    MissingInput,
    /// The `.input` node touches no series element.
    DetachedInput { line: usize, node: &'a str },
    /// A series element that reaches an already visited node.
    Cycle {
        line: usize,
        card: &'a str,
        node: &'a str,
    },
    /// A series element the walk from the input never reaches.
    Unreachable {
        line: usize,
        card: &'a str,
        a: &'a str,
        b: &'a str,
    },
    /// A capacitor on the input node or on a node outside the tree.
    OrphanCapacitor {
        line: usize,
        card: &'a str,
        node: &'a str,
    },
}

impl Finding<'_> {
    /// The deck line the finding points at, or `None` for the two
    /// deck-level findings ([`NoSeriesElements`](Self::NoSeriesElements),
    /// [`MissingInput`](Self::MissingInput)).
    pub fn line(&self) -> Option<usize> {
        match *self {
            Finding::NoSeriesElements | Finding::MissingInput => None,
            Finding::InputWithoutNode { line }
            | Finding::DuplicateInput { line, .. }
            | Finding::UnsupportedCard { line, .. }
            | Finding::FieldCount { line, .. }
            | Finding::DuplicateLabel { line, .. }
            | Finding::BadValue { line, .. }
            | Finding::GroundedSeries { line, .. }
            | Finding::FloatingCapacitor { line, .. }
            | Finding::DetachedInput { line, .. }
            | Finding::Cycle { line, .. }
            | Finding::Unreachable { line, .. }
            | Finding::OrphanCapacitor { line, .. } => Some(line),
        }
    }

    /// What the finding says. For an error this is the message of the
    /// [`TreeError`] [`Netlist::parse`] reports when it meets it first.
    pub fn message(&self) -> String {
        match self {
            Finding::InputWithoutNode { .. } => ".input requires a node name".into(),
            Finding::DuplicateInput {
                node,
                previous,
                previous_line,
                ..
            } => format!(".input {node} overrides .input {previous} from line {previous_line}"),
            Finding::UnsupportedCard { card, .. } => format!("unsupported card {card:?}"),
            Finding::FieldCount { count, .. } => {
                format!("expected `<name> <node> <node> <value>`, got {count} fields")
            }
            Finding::DuplicateLabel {
                label, first_line, ..
            } => format!("card label {label} already used on line {first_line}"),
            Finding::BadValue {
                card, raw, fault, ..
            } => fault.message(&format!("element {card} value"), raw),
            Finding::GroundedSeries { card, .. } => {
                format!("series element {card} may not connect to ground in a tree")
            }
            Finding::FloatingCapacitor { card, .. } => {
                format!("capacitor {card} must connect a node to ground")
            }
            Finding::NoSeriesElements => "netlist has no series elements".into(),
            Finding::MissingInput => "no .input directive and no node named \"in\"".into(),
            Finding::DetachedInput { node, .. } => {
                format!("input node {node:?} does not appear in any series element")
            }
            Finding::Cycle { node, .. } => format!("cycle detected through node {node:?}"),
            Finding::Unreachable { a, b, .. } => {
                format!("element between {a:?} and {b:?} is not reachable from the input")
            }
            Finding::OrphanCapacitor { node, .. } => {
                format!("capacitor at node {node:?} which is the input or not in the tree")
            }
        }
    }

    /// The error [`Netlist::parse`] reports when this is the first problem
    /// it meets, or `None` for the two non-error findings.
    fn tree_error(&self) -> Option<TreeError> {
        let message = self.message();
        match *self {
            Finding::DuplicateInput { .. } | Finding::DuplicateLabel { .. } => None,
            Finding::InputWithoutNode { line }
            | Finding::UnsupportedCard { line, .. }
            | Finding::FieldCount { line, .. }
            | Finding::BadValue { line, .. }
            | Finding::GroundedSeries { line, .. }
            | Finding::FloatingCapacitor { line, .. } => {
                Some(TreeError::ParseNetlist { line, message })
            }
            Finding::NoSeriesElements
            | Finding::MissingInput
            | Finding::DetachedInput { .. }
            | Finding::Cycle { .. }
            | Finding::Unreachable { .. }
            | Finding::OrphanCapacitor { .. } => Some(TreeError::NotATree { message }),
        }
    }
}

/// Collect-mode output of the front end: see [`Netlist::scan`].
#[derive(Debug)]
pub struct DeckScan<'a> {
    /// Exactly what [`Netlist::parse`] returns for the same deck.
    pub netlist: Result<Netlist, TreeError>,
    /// Every card and graph finding, in the order found: cards in deck
    /// order, then the graph walk's.
    pub findings: Vec<Finding<'a>>,
    /// Every element card with four fields, in deck order.
    pub elements: Vec<ElementCard<'a>>,
}

impl Netlist {
    /// Parses a netlist deck, stopping at the first problem.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed cards or values;
    /// * [`TreeError::NotATree`] if the element graph has cycles, is
    ///   disconnected, or lacks an identifiable input node.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        let mut cards = deck::cards(deck);
        let scan = Self::read_cards(&mut cards, cards_hint(deck), false);
        scan.netlist
            .map(|netlist| netlist.with_header(cards.header()))
    }

    /// Runs the builder over `cards` in deck order (about `hint` of them),
    /// fail-fast or collecting; the netlist has no header. Fail-fast mode
    /// leaves the findings and element lists empty. The coupled and
    /// synthesis parsers feed their element cards through here.
    pub(crate) fn read_cards<'a>(
        cards: impl IntoIterator<Item = Card<'a>>,
        hint: usize,
        collect: bool,
    ) -> DeckScan<'a> {
        let mut builder = Builder::new(collect, hint);
        // Only fail-fast mode stops early, and its error comes first.
        let read = cards.into_iter().try_for_each(|card| builder.card(&card));
        let (netlist, collected) = builder.finish();
        let Collected {
            findings, elements, ..
        } = collected.unwrap_or_default();
        DeckScan {
            netlist: read.and(netlist),
            findings,
            elements,
        }
    }

    /// The netlist with `header` as its deck header.
    pub(crate) fn with_header(mut self, header: Option<&str>) -> Self {
        self.header = header.map(str::to_owned);
        self
    }

    /// Parses a netlist deck in collect mode: every card and graph problem
    /// is recorded instead of ending the parse. `scan(deck).netlist` is
    /// exactly `parse(deck)` — the same tree, or the same first error.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::netlist::{Finding, Netlist};
    ///
    /// let deck = ".input in\nR1 in n1 25\nR1 n1 n2 oops\nQ3 n2 0 1\n";
    /// let scan = Netlist::scan(deck);
    /// assert_eq!(scan.findings.len(), 3);
    /// assert!(matches!(scan.findings[0], Finding::DuplicateLabel { line: 3, .. }));
    /// assert_eq!(
    ///     scan.netlist.unwrap_err(),
    ///     Netlist::parse(deck).unwrap_err(),
    /// );
    /// ```
    pub fn scan(deck: &str) -> DeckScan<'_> {
        let mut cards = deck::cards(deck);
        let mut scan = Self::read_cards(&mut cards, cards_hint(deck), true);
        scan.netlist = scan
            .netlist
            .map(|netlist| netlist.with_header(cards.header()));
        scan
    }

    /// The reconstructed tree.
    pub fn tree(&self) -> &RlcTree {
        &self.tree
    }

    /// The deck-level header: the first `*` comment line preceding any card
    /// or directive, verbatim (leading `*` included), or `None` when the
    /// deck has none.
    pub fn header(&self) -> Option<&str> {
        self.header.as_deref()
    }

    /// The canonical form of this netlist *with the deck header preserved*.
    ///
    /// [`RlcTree::canonical_deck`] deliberately drops every comment — two
    /// decks differing only in prose must share one cache identity — so a
    /// header would be lost by a parse → canonicalize round trip through
    /// the bare tree. This method restores it: the output is the tree's
    /// canonical deck with the original header as its first line. The
    /// mapping between the two forms is therefore exact:
    ///
    /// ```text
    /// netlist.canonical_deck() == "{header}\n" + netlist.tree().canonical_deck()
    /// ```
    ///
    /// (identical when the deck had no header). Re-parsing the result
    /// preserves both the tree and the header, so this form is a fixpoint
    /// too — exercised in `tests/canonical_roundtrip.rs`.
    pub fn canonical_deck(&self) -> String {
        emit_deck(&self.tree, self.header.as_deref())
    }

    /// Consumes the netlist, returning the tree.
    pub fn into_tree(self) -> RlcTree {
        self.tree
    }

    /// Looks up a node by its netlist name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(NodeId)
    }

    /// The netlist name of tree node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist's tree.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.name(id.0)
    }

    /// All `(name, node)` pairs, sorted by name.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, NodeId)> + '_ {
        self.names
            .by_name()
            .iter()
            .map(|&i| (self.names.name(i), NodeId(i)))
    }
}

/// A guess at a deck's card count from its length (cards such as
/// `R12 n11 n12 25.5` run about 16 bytes), for pre-sizing.
fn cards_hint(deck: &str) -> usize {
    deck.len() / 16
}

/// One accepted series card: interned end nodes and its base-unit value.
#[derive(Debug, Clone, Copy)]
struct Series<'a> {
    a: u32,
    b: u32,
    inductor: bool,
    value: f64,
    line: usize,
    label: &'a str,
}

/// One accepted shunt-capacitor card.
#[derive(Debug, Clone, Copy)]
struct Shunt<'a> {
    node: u32,
    line: usize,
    label: &'a str,
}

/// What collect mode keeps besides the tree.
#[derive(Debug, Default)]
struct Collected<'a> {
    findings: Vec<Finding<'a>>,
    elements: Vec<ElementCard<'a>>,
    /// Card labels, for duplicate detection, with their first lines.
    labels: Interner<'a>,
    label_lines: Vec<usize>,
    /// The error fail-fast mode would have stopped at.
    first_error: Option<TreeError>,
}

/// The netlist builder behind both modes. Feed it cards in deck order with
/// [`card`](Self::card), then [`finish`](Self::finish).
struct Builder<'a> {
    /// `Some` in collect mode.
    collected: Option<Collected<'a>>,
    nodes: Interner<'a>,
    /// Summed shunt capacitance per interned node.
    shunt: Vec<Capacitance>,
    series: Vec<Series<'a>>,
    shunts: Vec<Shunt<'a>>,
    input: Option<(&'a str, usize)>,
    card_errors: bool,
}

impl<'a> Builder<'a> {
    /// A builder sized for about `cards` element cards (a hint).
    fn new(collect: bool, cards: usize) -> Self {
        // Typical decks pair each series card with one shunt card, and
        // each series card adds one node.
        let half = cards / 2 + 1;
        Self {
            collected: collect.then(|| Collected {
                elements: Vec::with_capacity(cards),
                labels: Interner::with_capacity(cards),
                label_lines: Vec::with_capacity(cards),
                ..Collected::default()
            }),
            nodes: Interner::with_capacity(half),
            shunt: Vec::with_capacity(half),
            series: Vec::with_capacity(half),
            shunts: Vec::with_capacity(half),
            input: None,
            card_errors: false,
        }
    }

    /// Reports a problem. Fail-fast mode returns the error `Netlist::parse`
    /// stops at: `parser`'s when given (the parser checks a card's nodes
    /// before its value, the findings list prefers the value fault), else
    /// `finding`'s. Collect mode records `finding`, remembers the first
    /// such error, and carries on.
    fn fault(
        &mut self,
        finding: Finding<'a>,
        parser: Option<Finding<'a>>,
    ) -> Result<(), TreeError> {
        let error = || parser.as_ref().unwrap_or(&finding).tree_error();
        match &mut self.collected {
            None => match error() {
                Some(error) => Err(error),
                None => Ok(()),
            },
            Some(collected) => {
                if collected.first_error.is_none() {
                    collected.first_error = error();
                }
                collected.findings.push(finding);
                Ok(())
            }
        }
    }

    fn card_fault(
        &mut self,
        finding: Finding<'a>,
        parser: Option<Finding<'a>>,
    ) -> Result<(), TreeError> {
        self.card_errors = true;
        self.fault(finding, parser)
    }

    fn node(&mut self, name: &'a str) -> u32 {
        let (id, new) = self.nodes.intern(name);
        if new {
            self.shunt.push(Capacitance::ZERO);
        }
        id
    }

    /// Reads one card (any card: unknown directives are ignored, like most
    /// SPICE readers).
    fn card(&mut self, card: &Card<'a>) -> Result<(), TreeError> {
        let line = card.line;
        let name = card.name();
        if card.is(".input") {
            let Some(node) = card.field(1) else {
                return self.card_fault(Finding::InputWithoutNode { line }, None);
            };
            if let (Some(collected), Some((previous, previous_line))) =
                (&mut self.collected, self.input)
            {
                collected.findings.push(Finding::DuplicateInput {
                    line,
                    node,
                    previous,
                    previous_line,
                });
            }
            self.input = Some((node, line));
            return Ok(());
        }
        if name.starts_with('.') {
            return Ok(());
        }
        let kind = match name.as_bytes()[0].to_ascii_uppercase() {
            b'R' => ElementKind::Resistor,
            b'L' => ElementKind::Inductor,
            b'C' => ElementKind::Capacitor,
            _ => return self.card_fault(Finding::UnsupportedCard { line, card: name }, None),
        };
        let Some([label, n1, n2, raw]) = card.four() else {
            let count = card.len();
            return self.card_fault(Finding::FieldCount { line, count }, None);
        };
        if let Some(collected) = &mut self.collected {
            let (id, new) = collected.labels.intern(label);
            if new {
                collected.label_lines.push(line);
            } else {
                collected.findings.push(Finding::DuplicateLabel {
                    line,
                    label,
                    first_line: collected.label_lines[id as usize],
                });
            }
        }
        let parsed = match kind {
            ElementKind::Resistor => raw.parse::<Resistance>().map(Resistance::as_ohms),
            ElementKind::Inductor => raw.parse::<Inductance>().map(Inductance::as_henries),
            ElementKind::Capacitor => raw.parse::<Capacitance>().map(Capacitance::as_farads),
        };
        let value = match parsed {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            Ok(_) => Err(ValueFault::Negative),
            Err(e) => Err(ValueFault::Syntax(e)),
        };
        if let Some(collected) = &mut self.collected {
            collected.elements.push(ElementCard {
                line,
                label,
                kind,
                value: value.as_ref().ok().copied(),
            });
        }
        let (grounded, shunt_node) = match kind {
            ElementKind::Capacitor => match (is_ground(n1), is_ground(n2)) {
                (false, true) => (false, n1),
                (true, false) => (false, n2),
                _ => (true, n1),
            },
            _ => (is_ground(n1) || is_ground(n2), n1),
        };
        let ground_fault = grounded.then_some(match kind {
            ElementKind::Capacitor => Finding::FloatingCapacitor { line, card: label },
            _ => Finding::GroundedSeries { line, card: label },
        });
        let value = match value {
            Ok(value) => value,
            Err(fault) => {
                let finding = Finding::BadValue {
                    line,
                    card: label,
                    raw,
                    fault,
                };
                return self.card_fault(finding, ground_fault);
            }
        };
        if let Some(finding) = ground_fault {
            return self.card_fault(finding, None);
        }
        if kind == ElementKind::Capacitor {
            let node = self.node(shunt_node);
            self.shunt[node as usize] += Capacitance::from_farads(value);
            self.shunts.push(Shunt { node, line, label });
        } else {
            let a = self.node(n1);
            let b = self.node(n2);
            self.series.push(Series {
                a,
                b,
                inductor: kind == ElementKind::Inductor,
                value,
                line,
                label,
            });
        }
        Ok(())
    }

    /// Checks the element graph and assembles the tree. The outcome is
    /// what `Netlist::parse` returns; the findings come back in collect
    /// mode.
    fn finish(mut self) -> (Result<Netlist, TreeError>, Option<Collected<'a>>) {
        // Graph checks only make sense over a fully read card set: a bad
        // card already fails the deck, and the holes it leaves in the
        // graph would only be cascade noise.
        let assembled = if self.card_errors {
            Ok(None)
        } else {
            self.assemble()
        };
        let mut collected = self.collected;
        let first_error = collected.as_mut().and_then(|c| c.first_error.take());
        let outcome = match (assembled, first_error) {
            (Err(error), _) | (_, Some(error)) => Err(error),
            (Ok(Some((tree, names))), None) => Ok(Netlist {
                tree,
                names,
                header: None,
            }),
            // No tree and no error: only a caller that ignored a fail-fast
            // card error gets here. Refuse the deck rather than guess.
            (Ok(None), None) => Err(TreeError::NotATree {
                message: "netlist has no series elements".into(),
            }),
        };
        (outcome, collected)
    }

    /// The depth-first assembly from the input, in the order the tree's
    /// node ids follow: pop a node, then take its unused elements in card
    /// order, each making one section.
    fn assemble(&mut self) -> Result<Option<(RlcTree, NodeNames)>, TreeError> {
        if self.series.is_empty() {
            self.fault(Finding::NoSeriesElements, None)?;
            return Ok(None);
        }
        // Index adjacency (CSR): each node's elements in card order.
        let count = self.nodes.len();
        let mut offsets = vec![0u32; count + 1];
        for el in &self.series {
            offsets[el.a as usize + 1] += 1;
            offsets[el.b as usize + 1] += 1;
        }
        for i in 0..count {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut adjacent = vec![0u32; 2 * self.series.len()];
        for (index, el) in self.series.iter().enumerate() {
            for end in [el.a, el.b] {
                adjacent[fill[end as usize] as usize] = index as u32;
                fill[end as usize] += 1;
            }
        }
        let in_graph = |id: u32| offsets[id as usize + 1] > offsets[id as usize];

        let input = match self.input {
            Some((name, line)) => match self.nodes.get(name).filter(|&id| in_graph(id)) {
                Some(id) => id,
                None => {
                    self.fault(Finding::DetachedInput { line, node: name }, None)?;
                    return Ok(None);
                }
            },
            None => match self.nodes.get("in").filter(|&id| in_graph(id)) {
                Some(id) => id,
                None => {
                    self.fault(Finding::MissingInput, None)?;
                    return Ok(None);
                }
            },
        };

        let mut tree = RlcTree::with_capacity(self.series.len());
        // Tree node index -> interned name.
        let mut node_names: Vec<u32> = Vec::with_capacity(self.series.len());
        let mut used = vec![false; self.series.len()];
        let mut visited = vec![false; count];
        visited[input as usize] = true;
        let mut stack: Vec<(u32, Option<NodeId>)> = vec![(input, None)];
        while let Some((node, parent)) = stack.pop() {
            let edges = offsets[node as usize] as usize..offsets[node as usize + 1] as usize;
            for &edge in &adjacent[edges] {
                let edge = edge as usize;
                if used[edge] {
                    continue;
                }
                used[edge] = true;
                let el = self.series[edge];
                let far = if el.a == node { el.b } else { el.a };
                if visited[far as usize] {
                    let node = self.nodes.name(far);
                    let (line, card) = (el.line, el.label);
                    self.fault(Finding::Cycle { line, card, node }, None)?;
                    continue;
                }
                visited[far as usize] = true;
                let cap = self.shunt[far as usize];
                let section = if el.inductor {
                    RlcSection::new(Resistance::ZERO, Inductance::from_henries(el.value), cap)
                } else {
                    RlcSection::new(Resistance::from_ohms(el.value), Inductance::ZERO, cap)
                };
                let id = match parent {
                    Some(parent) => tree.add_section(parent, section),
                    None => tree.add_root_section(section),
                };
                node_names.push(far);
                stack.push((far, Some(id)));
            }
        }

        for (index, &reached) in used.iter().enumerate() {
            if !reached {
                let el = self.series[index];
                let (a, b) = (self.nodes.name(el.a), self.nodes.name(el.b));
                let (line, card) = (el.line, el.label);
                self.fault(Finding::Unreachable { line, card, a, b }, None)?;
            }
        }

        // Capacitors on the input or off the tree. The parser names the
        // alphabetically first such node.
        let orphans: Vec<(&'a str, Finding<'a>)> = self
            .shunts
            .iter()
            .filter(|s| s.node == input || !visited[s.node as usize])
            .map(|s| {
                let node = self.nodes.name(s.node);
                let (line, card) = (s.line, s.label);
                (node, Finding::OrphanCapacitor { line, card, node })
            })
            .collect();
        let mut parser = orphans
            .iter()
            .min_by_key(|(node, _)| *node)
            .map(|(_, finding)| finding.clone());
        for (_, finding) in orphans {
            self.fault(finding, parser.take())?;
        }

        let names = NodeNames::new(node_names.iter().map(|&id| self.nodes.name(id)));
        Ok(Some((tree, names)))
    }
}

/// Writes `tree` as a netlist deck parseable by [`Netlist::parse`].
///
/// Section nodes are named `n{index}`; the source is named `in`. Sections
/// with both R and L get an internal `…x` node between the two elements.
///
/// # Examples
///
/// ```
/// use rlc_tree::{netlist, RlcSection, RlcTree};
/// use rlc_units::{Resistance, Inductance, Capacitance};
///
/// let mut tree = RlcTree::new();
/// tree.add_root_section(RlcSection::new(
///     Resistance::from_ohms(25.0),
///     Inductance::from_nanohenries(5.0),
///     Capacitance::from_picofarads(0.5),
/// ));
/// let deck = netlist::write(&tree);
/// let round_trip = netlist::Netlist::parse(&deck)?;
/// // R and L become two chained sections; totals are preserved.
/// assert_eq!(round_trip.tree().total_capacitance(), tree.total_capacitance());
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
pub fn write(tree: &RlcTree) -> String {
    emit_deck(tree, Some("* RLC tree netlist (generated)"))
}

impl RlcTree {
    /// The canonical netlist form of this tree: a deck with every degree of
    /// textual freedom removed, suitable as a content-addressable identity
    /// for caching and deduplication (see the `rlc-serve` crate).
    ///
    /// Two decks that parse to the same tree — whatever their node names,
    /// whitespace, comments, card labels, or engineering-suffix spelling of
    /// the same value — canonicalize to the same bytes:
    ///
    /// * sections are emitted in arena order (the parse order, which is
    ///   stable for a given tree) and nodes renamed `n{index}`;
    /// * element values are printed in base SI units in `{:e}` form, so
    ///   `0.5p`, `5e-1p`, and `5e-13` all become the same token;
    /// * whitespace is a single space, comments are dropped, and the deck
    ///   is framed by exactly `.input in` and `.end`.
    ///
    /// Dropping comments includes the deck-level `*` header — a bare tree
    /// carries no text, and cache identity must not depend on prose. A
    /// caller that wants the header to survive canonicalization should go
    /// through [`Netlist::canonical_deck`], which prepends the parsed
    /// header back onto exactly this output.
    ///
    /// For trees in the parser's image (each section purely R or purely L),
    /// canonicalization is lossless: `parse(t.canonical_deck())` rebuilds
    /// `t` exactly, node ids included, and a second round trip is a
    /// fixpoint — properties exercised in `tests/canonical_roundtrip.rs`.
    /// Sections carrying both R and L (only constructible via the API) are
    /// split into an R card and an L card like [`write`], which preserves
    /// the electrical behaviour but doubles those sections on re-parse.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::netlist::Netlist;
    ///
    /// let sloppy = "* a line\n.input src\nRdrv   src  mid   25\n\nCload mid 0 5e-1p\n";
    /// let tidy = ".input in\nR1 in a 25\nC1 a 0 0.5p\n";
    /// let canon = |deck: &str| Netlist::parse(deck).unwrap().into_tree().canonical_deck();
    /// assert_eq!(canon(sloppy), canon(tidy));
    /// ```
    pub fn canonical_deck(&self) -> String {
        emit_deck(self, None)
    }

    /// Appends [`canonical_deck`](Self::canonical_deck) to `out` — the
    /// same bytes, without allocating a string of its own. Callers that
    /// frame the deck (a cache key prefixes a model id) build the whole
    /// key in one buffer this way.
    ///
    /// ```
    /// use rlc_tree::netlist::Netlist;
    ///
    /// let tree = Netlist::parse("R1 in a 25\nC1 a 0 1p\n").unwrap().into_tree();
    /// let mut key = String::from("eed\n");
    /// tree.write_canonical_deck(&mut key);
    /// assert_eq!(key, format!("eed\n{}", tree.canonical_deck()));
    /// ```
    pub fn write_canonical_deck(&self, out: &mut String) {
        write_deck(self, None, out);
    }
}

/// Appends the canonical deck of `tree` (see [`RlcTree::canonical_deck`])
/// to `out`, preceded by `header` when given. Writes straight into `out`:
/// no per-node temporaries.
fn write_deck(tree: &RlcTree, header: Option<&str>, out: &mut String) {
    // Room for a typical card pair per node, so the writer rarely grows.
    out.reserve(24 + header.map_or(0, str::len) + 48 * tree.len());
    if let Some(comment) = header {
        out.push_str(comment);
        out.push('\n');
    }
    out.push_str(".input in\n");
    for id in tree.node_ids() {
        let section = tree.section(id);
        let index = id.index();
        let parent = tree
            .parent(id)
            .map_or(Pin::Source, |p| Pin::Node(p.index()));
        let node = Pin::Node(index);
        let r = section.resistance().as_ohms();
        let l = section.inductance().as_henries();
        let c = section.capacitance().as_farads();
        match (r > 0.0, l > 0.0) {
            (true, true) => {
                push_card(out, 'R', index, parent, Pin::Mid(index), Some(r));
                push_card(out, 'L', index, Pin::Mid(index), node, Some(l));
            }
            (true, false) => push_card(out, 'R', index, parent, node, Some(r)),
            (false, true) => push_card(out, 'L', index, parent, node, Some(l)),
            // Zero-impedance section: a zero-ohm resistor keeps the
            // topology representable.
            (false, false) => push_card(out, 'R', index, parent, node, None),
        }
        if c > 0.0 {
            push_card(out, 'C', index, node, Pin::Ground, Some(c));
        }
    }
    out.push_str(".end\n");
}

fn emit_deck(tree: &RlcTree, header: Option<&str>) -> String {
    let mut out = String::new();
    write_deck(tree, header, &mut out);
    out
}

/// A node reference in a canonical card.
#[derive(Clone, Copy)]
enum Pin {
    /// The source node, `in`.
    Source,
    /// Ground, `0`.
    Ground,
    /// Section node `n{index}`.
    Node(usize),
    /// The internal node `n{index}x` between an R+L section's elements.
    Mid(usize),
}

fn push_index(out: &mut String, mut index: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (index % 10) as u8;
        index /= 10;
        if index == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn push_pin(out: &mut String, pin: Pin) {
    match pin {
        Pin::Source => out.push_str("in"),
        Pin::Ground => out.push('0'),
        Pin::Node(index) => {
            out.push('n');
            push_index(out, index);
        }
        Pin::Mid(index) => {
            out.push('n');
            push_index(out, index);
            out.push('x');
        }
    }
}

/// Writes `{letter}{index} {a} {b} {value:e}` (value `0` when `None`).
fn push_card(out: &mut String, letter: char, index: usize, a: Pin, b: Pin, value: Option<f64>) {
    use std::fmt::Write as _;

    out.push(letter);
    push_index(out, index);
    out.push(' ');
    push_pin(out, a);
    out.push(' ');
    push_pin(out, b);
    out.push(' ');
    match value {
        Some(v) => {
            let _ = write!(out, "{v:e}");
        }
        None => out.push('0'),
    }
    out.push('\n');
}

fn is_ground(node: &str) -> bool {
    node == "0" || node.eq_ignore_ascii_case("gnd")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn parses_two_section_line() {
        let deck = "\
* comment line
.input in
R1 in n1 25
C1 n1 0 0.5p
R2 n1 n2 25
C2 n2 0 0.5p
.end
";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 2);
        let n1 = parsed.node("n1").unwrap();
        let n2 = parsed.node("n2").unwrap();
        assert_eq!(parsed.tree().parent(n2), Some(n1));
        assert_eq!(parsed.tree().section(n1).resistance().as_ohms(), 25.0);
        assert!((parsed.tree().section(n2).capacitance().as_picofarads() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_to_node_named_in() {
        let deck = "R1 in n1 10\nC1 n1 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
    }

    #[test]
    fn missing_input_is_an_error() {
        let deck = "R1 a b 10\nC1 b 0 1p\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }));
    }

    #[test]
    fn explicit_input_directive() {
        let deck = ".input a\nR1 a b 10\nC1 b 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
        assert!(parsed.node("b").is_some());
    }

    #[test]
    fn inductors_make_l_sections() {
        let deck = "\
.input in
R1 in m 25
L1 m n1 5n
C1 n1 0 0.5p
";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 2);
        let n1 = parsed.node("n1").unwrap();
        let sec = parsed.tree().section(n1);
        assert!((sec.inductance().as_nanohenries() - 5.0).abs() < 1e-9);
        assert_eq!(sec.resistance().as_ohms(), 0.0);
        // The path R totals 25 Ω.
        assert_eq!(parsed.tree().path_resistance(n1).as_ohms(), 25.0);
    }

    #[test]
    fn branching_tree_parses() {
        let deck = "\
.input in
R1 in t 10
C1 t 0 1p
R2 t a 20
C2 a 0 1p
R3 t b 30
C3 b 0 1p
";
        let parsed = Netlist::parse(deck).unwrap();
        let t = parsed.node("t").unwrap();
        assert_eq!(parsed.tree().children(t).len(), 2);
        assert_eq!(parsed.tree().leaves().count(), 2);
    }

    #[test]
    fn cycle_is_rejected() {
        let deck = "\
.input in
R1 in a 10
R2 a b 10
R3 b in 10
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }), "{err}");
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn disconnected_element_is_rejected() {
        let deck = "\
.input in
R1 in a 10
R2 x y 10
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not reachable"), "{err}");
    }

    #[test]
    fn capacitor_on_unknown_node_is_rejected() {
        let deck = "\
.input in
R1 in a 10
C9 zz 0 1p
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn grounded_series_element_is_rejected() {
        let deck = ".input in\nR1 in 0 10\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::ParseNetlist { .. }), "{err}");
    }

    #[test]
    fn floating_capacitor_is_rejected() {
        let deck = ".input in\nR1 in a 10\nC1 in a 1p\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("ground"), "{err}");
    }

    #[test]
    fn malformed_cards_are_rejected_with_line_numbers() {
        let deck = "R1 in n1\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        let deck = ".input in\nR1 in n1 bogus\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let deck = "Q1 in n1 10\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("unsupported card"), "{err}");
    }

    #[test]
    fn negative_and_non_finite_values_are_typed_errors() {
        // Each of these used to panic inside RlcSection::new; they must be
        // ordinary parse errors so batch workers can isolate them per net.
        for deck in [
            ".input in\nR1 in n1 -25\nC1 n1 0 0.5p\n",
            ".input in\nR1 in n1 25\nC1 n1 0 -0.5p\n",
            ".input in\nR1 in n1 25\nL1 n1 n2 -1n\nC1 n2 0 0.5p\n",
            ".input in\nR1 in n1 1e999\nC1 n1 0 0.5p\n",
            ".input in\nR1 in n1 25\nC1 n1 0 1e999\n",
            ".input in\nR1 in n1 NaN\nC1 n1 0 0.5p\n",
        ] {
            let err = Netlist::parse(deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "deck {deck:?} gave {err}"
            );
        }
        let err = Netlist::parse(".input in\nR1 in n1 -25\n").unwrap_err();
        assert!(err.to_string().contains("finite and non-negative"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_deck_is_rejected() {
        let err = Netlist::parse("* nothing here\n").unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }));
    }

    #[test]
    fn shunt_capacitors_accumulate() {
        let deck = "\
.input in
R1 in a 10
C1 a 0 1p
C2 a 0 2p
C3 0 a 3p
";
        let parsed = Netlist::parse(deck).unwrap();
        let a = parsed.node("a").unwrap();
        assert!((parsed.tree().section(a).capacitance().as_picofarads() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn write_then_parse_preserves_electrical_totals() {
        use rlc_units::{Capacitance, Inductance, Resistance};
        let tree = topology::balanced_tree(
            3,
            2,
            RlcSection::new(
                Resistance::from_ohms(25.0),
                Inductance::from_nanohenries(5.0),
                Capacitance::from_picofarads(0.5),
            ),
        );
        let deck = write(&tree);
        let parsed = Netlist::parse(&deck).unwrap();
        let rt = parsed.tree();
        // Each R+L section becomes an R section plus an L section.
        assert_eq!(rt.len(), 2 * tree.len());
        assert!(
            (rt.total_capacitance().as_farads() - tree.total_capacitance().as_farads()).abs()
                < 1e-24
        );
        // Leaves correspond one-to-one and keep their path impedances.
        assert_eq!(rt.leaves().count(), tree.leaves().count());
        let orig_leaf = tree.leaves().next().unwrap();
        let rt_leaf = parsed.node(&format!("n{}", orig_leaf.index())).unwrap();
        assert!(
            (rt.path_resistance(rt_leaf).as_ohms() - tree.path_resistance(orig_leaf).as_ohms())
                .abs()
                < 1e-9
        );
        assert!(
            (rt.path_inductance(rt_leaf).as_henries()
                - tree.path_inductance(orig_leaf).as_henries())
            .abs()
                < 1e-18
        );
    }

    #[test]
    fn write_handles_zero_sections() {
        let mut tree = RlcTree::new();
        tree.add_root_section(RlcSection::zero());
        let deck = write(&tree);
        assert!(deck.contains("R0 in n0 0"));
        let parsed = Netlist::parse(&deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
    }

    #[test]
    fn header_comment_survives_canonicalization() {
        let deck = "* clk spine, M7, extracted 2024-11-02\n.input in\nR1 in n1 25\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(
            parsed.header(),
            Some("* clk spine, M7, extracted 2024-11-02")
        );

        let canonical = parsed.canonical_deck();
        assert!(
            canonical.starts_with("* clk spine, M7, extracted 2024-11-02\n.input in\n"),
            "{canonical}"
        );
        // The documented mapping: header line + the tree's canonical form.
        assert_eq!(
            canonical,
            format!(
                "* clk spine, M7, extracted 2024-11-02\n{}",
                parsed.tree().canonical_deck()
            )
        );
        // Re-parsing preserves both tree and header, and is a fixpoint.
        let again = Netlist::parse(&canonical).unwrap();
        assert_eq!(again.header(), parsed.header());
        assert_eq!(again.tree(), parsed.tree());
        assert_eq!(again.canonical_deck(), canonical);
    }

    #[test]
    fn header_capture_takes_only_the_leading_comment() {
        // No comment at all.
        let parsed = Netlist::parse("R1 in n1 25\nC1 n1 0 0.5p\n").unwrap();
        assert_eq!(parsed.header(), None);
        assert_eq!(parsed.canonical_deck(), parsed.tree().canonical_deck());

        // Comments after the first card are not headers; `;` never is.
        let deck = "; lint: off\n.input in\nR1 in n1 25\n* trailing note\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.header(), None);

        // Blank lines before the header are fine; only the first `*` line
        // is kept.
        let deck = "\n* first\n* second\n.input in\nR1 in n1 25\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.header(), Some("* first"));
    }

    #[test]
    fn scan_returns_what_parse_returns_and_keeps_going() {
        for deck in [
            ".input in\nR1 in n1 25\nC1 n1 0 0.5p\n",
            "* h\nR1 in n1 25\nR1 n1 n2 25\n.input n1\n.input in\nC1 n2 0 1p\n",
            ".input in\nR1 in n1\nQ2 n1 n2 5\nR3 n1 n2 -1\n",
            ".input in\nR1 in a 1\nR2 a b 1\nR3 b a 1\nR4 x y 1\nCz z 0 1p\n",
            ".input ghost\nR1 in a 1\n",
            "R1 a b 1\n",
            "* nothing\n",
        ] {
            let scan = Netlist::scan(deck);
            match (Netlist::parse(deck), &scan.netlist) {
                (Ok(parsed), Ok(scanned)) => {
                    assert_eq!(parsed.canonical_deck(), scanned.canonical_deck());
                }
                (Err(parsed), Err(scanned)) => assert_eq!(&parsed, scanned, "{deck:?}"),
                (parsed, scanned) => panic!("{deck:?}: {parsed:?} vs {scanned:?}"),
            }
            let errors = scan
                .findings
                .iter()
                .filter(|f| f.tree_error().is_some())
                .count();
            assert_eq!(scan.netlist.is_ok(), errors == 0, "{deck:?}");
        }
        // Every bad card is found, not just the first.
        let scan = Netlist::scan(".input in\nR1 in n1\nQ2 n1 n2 5\nR3 n1 n2 -1\n");
        let lines: Vec<Option<usize>> = scan
            .findings
            .iter()
            .map(|f| match f {
                Finding::FieldCount { line, .. }
                | Finding::UnsupportedCard { line, .. }
                | Finding::BadValue { line, .. } => Some(*line),
                _ => None,
            })
            .collect();
        assert_eq!(lines, [Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn a_card_with_two_faults_shows_each_mode_its_own() {
        // The parser checks nodes before the value; the findings list
        // reports the value.
        let deck = ".input in\nR1 in 0 oops\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(
            err.to_string().contains("may not connect to ground"),
            "{err}"
        );
        let scan = Netlist::scan(deck);
        assert_eq!(scan.netlist.unwrap_err(), err);
        assert!(matches!(
            scan.findings[..],
            [Finding::BadValue {
                fault: ValueFault::Syntax(_),
                ..
            }]
        ));
    }

    #[test]
    fn orphan_capacitors_are_all_found_and_the_error_names_the_first_node() {
        let deck = ".input in\nR1 in a 1\nCz zz 0 1p\nCin in 0 1p\nCb bb 0 1p\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("\"bb\""), "{err}");
        let scan = Netlist::scan(deck);
        assert_eq!(scan.netlist.unwrap_err(), err);
        let cards: Vec<&str> = scan
            .findings
            .iter()
            .map(|f| match f {
                Finding::OrphanCapacitor { card, .. } => *card,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(cards, ["Cz", "Cin", "Cb"]);
    }

    #[test]
    fn names_resolve_both_ways() {
        let parsed = Netlist::parse(".input src\nR1 src a 1\nR2 a b 1\nC1 b 0 1p\n").unwrap();
        for (name, id) in parsed.nodes() {
            assert_eq!(parsed.name(id), name);
            assert_eq!(parsed.node(name), Some(id));
        }
        assert_eq!(parsed.node("src"), None, "the input is not a tree node");
        assert_eq!(parsed.nodes().count(), 2);
    }

    #[test]
    fn nodes_are_listed_by_name() {
        let deck = ".input in\nR1 in z 1\nR2 z a 1\nR3 a m 1\nC1 m 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        let nodes: Vec<(&str, usize)> = parsed.nodes().map(|(n, id)| (n, id.index())).collect();
        assert_eq!(nodes, [("a", 1), ("m", 2), ("z", 0)]);
    }
}
