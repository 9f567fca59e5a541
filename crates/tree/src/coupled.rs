//! Multi-net coupled groups: several RLC trees tied together by coupling
//! capacitors, parsed from one deck.
//!
//! A *coupled deck* extends the single-net card format (see
//! [`crate::netlist`]) with two constructs:
//!
//! * `.net <name>` opens a named net block; every ordinary card (`R`, `L`,
//!   `C`, `.input`) that follows belongs to that net until the next `.net`
//!   or `.end`;
//! * `K<label> <netA>.<nodeA> <netB>.<nodeB> <value>` places a coupling
//!   capacitor of `<value>` farads between a node of one net and a node of
//!   another. `K` cards are group-level and may appear anywhere in the deck.
//!
//! ```text
//! * a victim flanked by one aggressor
//! .net victim
//! R1 in n1 25
//! C1 n1 0 0.5p
//! .net agg
//! R1 in n1 40
//! C1 n1 0 0.3p
//! K1 victim.n1 agg.n1 0.1p
//! .end
//! ```
//!
//! Each net block is parsed like a [`Netlist`] deck and must individually be
//! a source-rooted RLC tree; coupling references are resolved against the
//! per-net node names after all blocks are read. Coupling capacitors must be
//! finite and strictly positive, must join two *different* nets, and may not
//! attach to a net's input (source) node — the ideal source pins that
//! voltage, so a coupling cap there is inert on the aggressor side and
//! unmodelable on the victim side.
//!
//! [`CoupledGroup::parse`] stops at the first problem;
//! [`CoupledGroup::scan`], the same card loop in collect mode, records
//! every problem of the group and of each net and still returns exactly
//! `parse`'s outcome. The `rlc-lint` crate's L4xx coupling tier is rule
//! passes over that scan.
//!
//! Like [`RlcTree::canonical_deck`], a [`CoupledGroup`] has a canonical form
//! ([`CoupledGroup::canonical_deck`]) with every degree of textual freedom
//! removed, used as the content-addressable identity for coupled results.

use std::collections::BTreeMap;

use rlc_units::Capacitance;

use crate::deck::{self, card_error, Card, Faults, Problem};
use crate::netlist::{DeckScan, Netlist, ValueFault};
use crate::{NodeId, RlcTree, TreeError};

/// One net of a coupled group: its name and its parsed netlist.
#[derive(Debug, Clone)]
pub struct CoupledNet {
    name: String,
    netlist: Netlist,
}

impl CoupledNet {
    /// The net's name as declared by its `.net` card.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parsed netlist (tree plus original node names).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The net's RLC tree.
    pub fn tree(&self) -> &RlcTree {
        self.netlist.tree()
    }
}

/// One end of a coupling capacitor: a net (by index into
/// [`CoupledGroup::nets`]) and a node within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CouplingEnd {
    /// Index of the net in [`CoupledGroup::nets`].
    pub net: usize,
    /// The attached node within that net.
    pub node: NodeId,
}

/// A coupling capacitor between nodes of two different nets.
///
/// Ends are normalized so `a` orders before `b` by `(net, node)`; parallel
/// couplings between the same node pair are summed at parse time, so each
/// pair appears at most once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupling {
    /// The lower-ordered end.
    pub a: CouplingEnd,
    /// The higher-ordered end.
    pub b: CouplingEnd,
    /// The coupling capacitance (finite and strictly positive).
    pub capacitance: Capacitance,
}

/// A group of nets coupled by capacitors, parsed from one deck.
///
/// # Examples
///
/// ```
/// use rlc_tree::coupled::CoupledGroup;
///
/// let deck = "\
/// .net victim
/// R1 in n1 25
/// C1 n1 0 0.5p
/// .net agg
/// R1 in n1 40
/// C1 n1 0 0.3p
/// K1 victim.n1 agg.n1 0.1p
/// .end
/// ";
/// let group = CoupledGroup::parse(deck)?;
/// assert_eq!(group.nets().len(), 2);
/// assert_eq!(group.couplings().len(), 1);
/// assert_eq!(group.nets()[0].name(), "victim");
/// // The canonical form is a fixpoint.
/// let canonical = group.canonical_deck();
/// assert_eq!(CoupledGroup::parse(&canonical)?.canonical_deck(), canonical);
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoupledGroup {
    nets: Vec<CoupledNet>,
    couplings: Vec<Coupling>,
    header: Option<String>,
}

/// The class of a group-level problem the coupled front end found (each
/// net's own problems are in its [`NetScan`]). Every class is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupFault<'a> {
    /// A malformed `.net` or `K` card, or a card before the first `.net`.
    Malformed,
    /// A second `.net` block named `name`, declared on `line`.
    DuplicateNet { line: usize, name: &'a str },
    /// The value of coupling `label` does not parse or is not positive.
    BadValue {
        label: &'a str,
        raw: &'a str,
        fault: ValueFault,
    },
    /// No `.net` block at all.
    NoNets,
    /// A coupling reference to an undeclared net.
    UnknownNet,
    /// A coupling reference to a node that is not a section node of its
    /// net (the input node included).
    DanglingNode,
    /// A coupling with both ends on one net.
    SelfCoupling,
}

/// One `.net` block as collect mode saw it.
#[derive(Debug)]
pub struct NetScan<'a> {
    /// The declared name, or `None` when the `.net` card is malformed
    /// (the cards that follow still belong to the block).
    pub name: Option<&'a str>,
    /// The block's cards through the netlist front end, with their deck
    /// lines.
    pub scan: DeckScan<'a>,
}

/// Collect-mode output of the coupled front end: see
/// [`CoupledGroup::scan`].
#[derive(Debug)]
pub struct CoupledScan<'a> {
    /// Every group-level problem, in the order the parser checks for
    /// them: card problems in deck order, then
    /// [`NoNets`](GroupFault::NoNets), then each net's error, then
    /// reference problems in deck order.
    pub problems: Vec<Problem<GroupFault<'a>>>,
    /// One entry per `.net` card, in deck order.
    pub nets: Vec<NetScan<'a>>,
    /// For each well-formed `K` card whose references name two different
    /// declared nets, those nets as indices into [`nets`](Self::nets) (the
    /// first block of each name), in deck order.
    pub couplings: Vec<[usize; 2]>,
    header: Option<&'a str>,
    merged: Vec<Coupling>,
    first_error: Option<TreeError>,
}

/// A `K` card with a well-formed shape and value, before its references
/// are resolved.
struct RawCoupling<'a> {
    line: usize,
    label: &'a str,
    refs: [&'a str; 2],
    capacitance: Capacitance,
}

/// A resolved coupling reference: its block, net name and, when the node
/// resolves too, its coupling end.
type End<'a> = (usize, &'a str, Option<CouplingEnd>);

impl<'a> CoupledScan<'a> {
    /// The parse outcome: exactly what [`CoupledGroup::parse`] returns for
    /// the same deck.
    pub fn into_group(self) -> Result<CoupledGroup, TreeError> {
        if let Some(error) = self.first_error {
            return Err(error);
        }
        let mut nets = Vec::with_capacity(self.nets.len());
        for net in self.nets {
            let Some(name) = net.name else {
                unreachable!("a malformed .net card always records an error")
            };
            let (name, netlist) = (name.to_owned(), net.scan.netlist?);
            nets.push(CoupledNet { name, netlist });
        }
        Ok(CoupledGroup {
            nets,
            couplings: self.merged,
            header: self.header.map(str::to_owned),
        })
    }

    /// The one coupled-deck card loop, fail-fast or collecting. Fail-fast
    /// mode returns the first problem as an error; collect mode never
    /// fails.
    fn read(deck: &'a str, collect: bool) -> Result<Self, TreeError> {
        let mut faults = Faults::new(collect);
        let mut cards = deck::cards(deck);
        // Each block's name and cards, with their deck lines.
        let mut blocks: Vec<(Option<&'a str>, Vec<Card<'a>>)> = Vec::new();
        let mut raw: Vec<RawCoupling<'a>> = Vec::new();
        for card in &mut cards {
            let (line, name) = (card.line, card.name());
            if card.is(".net") {
                let name = net_card(&mut faults, &card, &blocks)?;
                blocks.push((name, Vec::new()));
            } else if name.as_bytes()[0].eq_ignore_ascii_case(&b'K') {
                raw.extend(coupling_card(&mut faults, &card)?);
            } else if let Some((_, block)) = blocks.last_mut() {
                block.push(card);
            } else {
                let message = format!("card {name:?} appears before any .net block");
                faults.report(GroupFault::Malformed, card_error(line, message))?;
            }
        }
        if blocks.is_empty() {
            let message = "coupled deck has no .net blocks".into();
            faults.report(GroupFault::NoNets, TreeError::NotATree { message })?;
        }

        // Each block goes through the netlist front end on its own, with
        // its cards' deck lines, so findings and errors point into the
        // deck.
        let mut nets = Vec::with_capacity(blocks.len());
        for (name, block) in blocks {
            let hint = block.len();
            let scan = Netlist::read_cards(block, hint, collect);
            if let Err(error) = &scan.netlist {
                faults.fail(error)?;
            }
            nets.push(NetScan { name, scan });
        }

        let mut scan = Self {
            problems: Vec::new(),
            nets,
            couplings: Vec::new(),
            header: cards.header(),
            merged: Vec::with_capacity(raw.len()),
            first_error: None,
        };
        let mut index: BTreeMap<&'a str, usize> = BTreeMap::new();
        for (i, net) in scan.nets.iter().enumerate() {
            if let Some(name) = net.name {
                index.entry(name).or_insert(i);
            }
        }
        for coupling in &raw {
            scan.resolve(&mut faults, &index, coupling)?;
        }
        scan.merged.sort_by_key(|c| (c.a, c.b));
        scan.problems = faults.problems;
        scan.first_error = faults.first_error;
        Ok(scan)
    }

    /// Resolves one coupling's references and merges it into the group:
    /// parallel couplings between the same node pair are summed, like
    /// shunt capacitors in a single-net deck.
    fn resolve(
        &mut self,
        faults: &mut Faults<GroupFault<'a>>,
        index: &BTreeMap<&'a str, usize>,
        coupling: &RawCoupling<'a>,
    ) -> Result<(), TreeError> {
        let [a, b] = coupling.refs;
        let a = self.end(faults, index, coupling, a)?;
        let b = self.end(faults, index, coupling, b)?;
        let (Some((a, net, end_a)), Some((b, _, end_b))) = (a, b) else {
            return Ok(());
        };
        if a == b {
            let message = format!("coupling {} joins net {net:?} to itself", coupling.label);
            let error = card_error(coupling.line, message);
            return faults.report(GroupFault::SelfCoupling, error);
        }
        if faults.collect {
            self.couplings.push([a, b]);
        }
        let (Some(a), Some(b)) = (end_a, end_b) else {
            return Ok(());
        };
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let capacitance = coupling.capacitance;
        match self.merged.iter_mut().find(|c| c.a == a && c.b == b) {
            Some(existing) => existing.capacitance += capacitance,
            None => self.merged.push(Coupling { a, b, capacitance }),
        }
        Ok(())
    }

    /// Resolves one `<net>.<node>` reference. The node is only looked up
    /// in a net that parsed: a net that did not already fails the deck.
    fn end(
        &self,
        faults: &mut Faults<GroupFault<'a>>,
        index: &BTreeMap<&'a str, usize>,
        coupling: &RawCoupling<'a>,
        reference: &'a str,
    ) -> Result<Option<End<'a>>, TreeError> {
        let (line, card) = (coupling.line, coupling.label);
        let (net, node) = reference.split_once('.').unwrap_or((reference, ""));
        let Some(&block) = index.get(net) else {
            let message = format!("coupling {card} references unknown net {net:?}");
            faults.report(GroupFault::UnknownNet, card_error(line, message))?;
            return Ok(None);
        };
        let Ok(netlist) = &self.nets[block].scan.netlist else {
            return Ok(Some((block, net, None)));
        };
        let Some(node) = netlist.node(node) else {
            let message = format!(
                "coupling {card} references node {node:?} which is not a section node of net {net:?}"
            );
            faults.report(GroupFault::DanglingNode, card_error(line, message))?;
            return Ok(Some((block, net, None)));
        };
        Ok(Some((block, net, Some(CouplingEnd { net: block, node }))))
    }
}

/// Reads a `.net` card: the declared name, or `None` when the card is
/// malformed.
fn net_card<'a>(
    faults: &mut Faults<GroupFault<'a>>,
    card: &Card<'a>,
    blocks: &[(Option<&'a str>, Vec<Card<'a>>)],
) -> Result<Option<&'a str>, TreeError> {
    let line = card.line;
    let message = match card.field(1) {
        None => ".net requires a net name".to_owned(),
        Some(_) if card.len() > 2 => {
            format!(".net takes one name, got {} fields", card.len() - 1)
        }
        Some(name) if name.contains('.') => format!("net name {name:?} may not contain '.'"),
        Some(name) => {
            if blocks.iter().any(|(declared, _)| *declared == Some(name)) {
                // The name is kept: the block's cards still belong to it.
                let label = name.to_owned();
                let error = TreeError::DuplicateLabel { label };
                faults.report(GroupFault::DuplicateNet { line, name }, error)?;
            }
            return Ok(Some(name));
        }
    };
    faults.report(GroupFault::Malformed, card_error(line, message))?;
    Ok(None)
}

/// Reads a `K` card: the coupling when its shape and value are good.
fn coupling_card<'a>(
    faults: &mut Faults<GroupFault<'a>>,
    card: &Card<'a>,
) -> Result<Option<RawCoupling<'a>>, TreeError> {
    let line = card.line;
    let Some([label, ref_a, ref_b, raw]) = card.four() else {
        let message = format!(
            "expected `K<label> <net>.<node> <net>.<node> <value>`, got {} fields",
            card.len()
        );
        faults.report(GroupFault::Malformed, card_error(line, message))?;
        return Ok(None);
    };
    let mut good = true;
    for reference in [ref_a, ref_b] {
        if !reference.contains('.') {
            let message = format!("coupling reference {reference:?} must be `<net>.<node>`");
            faults.report(GroupFault::Malformed, card_error(line, message))?;
            good = false;
        }
    }
    match ValueFault::check(raw, Capacitance::as_farads, true) {
        Ok(capacitance) => Ok(good.then_some(RawCoupling {
            line,
            label,
            refs: [ref_a, ref_b],
            capacitance,
        })),
        Err(fault) => {
            let message = fault.message(&format!("coupling capacitor {label} value"), raw);
            let kind = GroupFault::BadValue { label, raw, fault };
            faults.report(kind, card_error(line, message))?;
            Ok(None)
        }
    }
}

impl CoupledGroup {
    /// Parses a coupled deck, stopping at the first problem.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed cards, cards outside any
    ///   `.net` block, bad coupling values or references (unknown net,
    ///   self-coupling, unknown node, coupling to the input node);
    /// * [`TreeError::DuplicateLabel`] when two `.net` blocks share a name;
    /// * [`TreeError::NotATree`] when the deck has no `.net` block or a net
    ///   block is not a source-rooted tree.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        CoupledScan::read(deck, false)?.into_group()
    }

    /// Parses a coupled deck in collect mode: every group-level problem
    /// and every problem of each net is recorded instead of ending the
    /// parse. `scan(deck).into_group()` is exactly `parse(deck)` — the
    /// same group, or the same first error.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::coupled::{CoupledGroup, GroupFault};
    ///
    /// let deck = "\
    /// .net a
    /// R1 in n1 25
    /// C1 n1 0 oops
    /// .net b
    /// R1 in m1 40
    /// C1 m1 0 0.3p
    /// K1 a.n1 ghost.m1 0.1p
    /// K2 a.n1 b.m1 -1p
    /// ";
    /// let scan = CoupledGroup::scan(deck);
    /// assert_eq!(scan.nets.len(), 2);
    /// assert_eq!(scan.nets[0].scan.findings.len(), 1);
    /// let kinds: Vec<&GroupFault> = scan.problems.iter().map(|p| &p.kind).collect();
    /// assert!(matches!(kinds[..], [GroupFault::BadValue { .. }, GroupFault::UnknownNet]));
    /// assert_eq!(
    ///     scan.into_group().unwrap_err(),
    ///     CoupledGroup::parse(deck).unwrap_err(),
    /// );
    /// ```
    pub fn scan(deck: &str) -> CoupledScan<'_> {
        match CoupledScan::read(deck, true) {
            Ok(scan) => scan,
            Err(error) => unreachable!("collect mode records {error} and carries on"),
        }
    }

    /// The group's nets in declaration order.
    pub fn nets(&self) -> &[CoupledNet] {
        &self.nets
    }

    /// The coupling capacitors, normalized (ends ordered, parallel caps
    /// summed) and sorted by `(a, b)`.
    pub fn couplings(&self) -> &[Coupling] {
        &self.couplings
    }

    /// The deck-level header comment, if any (first `*` line before any
    /// card), verbatim.
    pub fn header(&self) -> Option<&str> {
        self.header.as_deref()
    }

    /// Looks up a net index by name.
    pub fn net_index(&self, name: &str) -> Option<usize> {
        self.nets.iter().position(|n| n.name() == name)
    }

    /// The couplings that touch net `net`, as `(this end, far end,
    /// capacitance)` triples.
    pub fn couplings_of(
        &self,
        net: usize,
    ) -> impl Iterator<Item = (CouplingEnd, CouplingEnd, Capacitance)> + '_ {
        self.couplings.iter().filter_map(move |c| {
            if c.a.net == net {
                Some((c.a, c.b, c.capacitance))
            } else if c.b.net == net {
                Some((c.b, c.a, c.capacitance))
            } else {
                None
            }
        })
    }

    /// The canonical form of this group: the content-addressable identity
    /// used by result caches, mirroring [`RlcTree::canonical_deck`].
    ///
    /// * nets are emitted in declaration order under their declared names,
    ///   each as its tree's canonical card body (nodes renamed `n{index}`,
    ///   values in `{:e}` base SI units, root parent named `in`);
    /// * coupling capacitors follow, renumbered `K1…`, with canonical
    ///   `<net>.n{index}` references, normalized end order, parallel caps
    ///   summed, and sorted;
    /// * comments are dropped and the deck ends with `.end`.
    ///
    /// For groups in the parser's image the form is lossless and a
    /// fixpoint: `parse(g.canonical_deck())` rebuilds the same group and
    /// canonicalizes to the same bytes.
    pub fn canonical_deck(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        for net in &self.nets {
            let _ = writeln!(out, ".net {}", net.name());
            let body = net.tree().canonical_deck();
            let body = body
                .strip_prefix(".input in\n")
                .unwrap_or(&body)
                .strip_suffix(".end\n")
                .unwrap_or(&body);
            out.push_str(body);
        }
        for (idx, c) in self.couplings.iter().enumerate() {
            let _ = writeln!(
                out,
                "K{} {}.n{} {}.n{} {:e}",
                idx + 1,
                self.nets[c.a.net].name(),
                c.a.node.index(),
                self.nets[c.b.net].name(),
                c.b.node.index(),
                c.capacitance.as_farads()
            );
        }
        out.push_str(".end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_NET_DECK: &str = "\
* bus pair
.net victim
R1 in n1 25
C1 n1 0 0.5p
R2 n1 n2 25
C2 n2 0 0.5p
.net agg
R1 in a1 40
C1 a1 0 0.3p
K1 victim.n2 agg.a1 0.1p
.end
";

    #[test]
    fn parses_two_net_group() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        assert_eq!(group.nets().len(), 2);
        assert_eq!(group.nets()[0].name(), "victim");
        assert_eq!(group.nets()[1].name(), "agg");
        assert_eq!(group.nets()[0].tree().len(), 2);
        assert_eq!(group.nets()[1].tree().len(), 1);
        assert_eq!(group.couplings().len(), 1);
        let c = group.couplings()[0];
        assert_eq!(c.a.net, 0);
        assert_eq!(c.b.net, 1);
        assert!((c.capacitance.as_picofarads() - 0.1).abs() < 1e-12);
        assert_eq!(group.header(), Some("* bus pair"));
        assert_eq!(group.net_index("agg"), Some(1));
        assert_eq!(group.net_index("nope"), None);
    }

    #[test]
    fn single_net_group_without_couplings_is_fine() {
        let deck = ".net solo\nR1 in n1 10\nC1 n1 0 1p\n";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.nets().len(), 1);
        assert!(group.couplings().is_empty());
    }

    #[test]
    fn k_cards_may_appear_anywhere() {
        let deck = "\
K1 a.n1 b.n1 0.1p
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in n1 20
C1 n1 0 1p
";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.couplings().len(), 1);
    }

    #[test]
    fn parallel_couplings_sum_and_ends_normalize() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 b.m1 a.n1 0.1p
K2 a.n1 b.m1 0.2p
";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.couplings().len(), 1);
        let c = group.couplings()[0];
        assert_eq!((c.a.net, c.b.net), (0, 1));
        assert!((c.capacitance.as_picofarads() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn card_before_net_block_is_rejected() {
        let err =
            CoupledGroup::parse("R1 in n1 10\n.net a\nR1 in n1 10\nC1 n1 0 1p\n").unwrap_err();
        assert!(err.to_string().contains("before any .net"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn duplicate_net_name_is_rejected() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net a\nR1 in n1 10\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::DuplicateLabel { .. }), "{err}");
    }

    #[test]
    fn unknown_net_reference_is_rejected() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("unknown net \"ghost\""), "{err}");
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn self_coupling_is_rejected() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
R2 n1 n2 10
C2 n2 0 1p
K1 a.n1 a.n2 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("itself"), "{err}");
    }

    #[test]
    fn dangling_node_reference_is_rejected() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 a.n9 b.m1 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not a section node"), "{err}");
    }

    #[test]
    fn coupling_to_the_input_node_is_dangling() {
        // `in` is the source, not a section node; the names map excludes it.
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 a.in b.m1 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not a section node"), "{err}");
    }

    #[test]
    fn non_positive_or_non_finite_coupling_values_are_rejected() {
        for value in ["0", "-0.1p", "1e999", "NaN"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 {value}\n"
            );
            let err = CoupledGroup::parse(&deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "value {value:?} gave {err}"
            );
        }
        let deck =
            ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 0\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("finite and positive"), "{err}");
    }

    #[test]
    fn malformed_k_cards_are_rejected_with_line_numbers() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("got 3 fields"), "{err}");

        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 bn1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("must be `<net>.<node>`"), "{err}");
    }

    #[test]
    fn net_chunk_errors_keep_deck_line_numbers() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 bogus
C1 m1 0 1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    #[test]
    fn empty_deck_and_missing_net_name_are_rejected() {
        let err = CoupledGroup::parse("* nothing\n").unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }), "{err}");

        let err = CoupledGroup::parse(".net\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("requires a net name"), "{err}");

        let err = CoupledGroup::parse(".net a b\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("one name"), "{err}");

        let err = CoupledGroup::parse(".net a.b\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("may not contain"), "{err}");
    }

    #[test]
    fn end_card_terminates_the_group() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.end\ngarbage here\n";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.nets().len(), 1);
    }

    #[test]
    fn canonical_deck_is_a_fixpoint_and_spelling_invariant() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        let canonical = group.canonical_deck();
        let reparsed = CoupledGroup::parse(&canonical).unwrap();
        assert_eq!(reparsed.canonical_deck(), canonical);
        assert_eq!(reparsed.nets().len(), group.nets().len());
        assert_eq!(reparsed.couplings(), group.couplings());

        // A respelling of the same group shares the identity.
        let respelled = "\
; prose differs, labels differ, values respelled
.net victim
Rd in  x  2.5e1
Cd x 0 500f
Re x y 25
Ce y 0 0.5p
.net agg
Rf in z 40
Cf z 0 3e-1p
Kx agg.z victim.y 100f
.end
";
        let other = CoupledGroup::parse(respelled).unwrap();
        assert_eq!(other.canonical_deck(), canonical);
    }

    #[test]
    fn canonical_deck_shape() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        let canonical = group.canonical_deck();
        assert!(canonical.starts_with(".net victim\n"), "{canonical}");
        assert!(canonical.contains("\n.net agg\n"), "{canonical}");
        assert!(
            canonical.contains("K1 victim.n1 agg.n0 1e-13\n"),
            "{canonical}"
        );
        assert!(canonical.ends_with(".end\n"), "{canonical}");
        assert!(!canonical.contains(".input"), "{canonical}");
        assert!(!canonical.contains('*'), "{canonical}");
    }
}
