//! The card tokenizer shared by every deck grammar.
//!
//! All three deck grammars — single-net netlists ([`crate::netlist`]),
//! coupled groups ([`crate::coupled`]) and synthesis decks
//! ([`crate::synth`]) — read the same line-oriented card format:
//!
//! * blank lines and comment lines (first non-blank character `*` or `;`)
//!   carry no cards;
//! * the first `*` comment before any card is the deck's *header*;
//! * every other line is one card: whitespace-separated fields, the first
//!   of which names the card (`R1`, `.input`, `K3`, …);
//! * a `.end` card (any case) ends the deck; nothing after it is read.
//!
//! [`cards`] walks a deck once and yields [`Card`]s that borrow their text
//! from the deck: tokenizing allocates nothing per card.

use core::iter::Enumerate;
use core::str::{Lines, SplitWhitespace};

use crate::TreeError;

/// How many leading fields a [`Card`] keeps inline. Every element and
/// coupling card has exactly this many; longer cards (synthesis
/// directives) are re-split with [`Card::fields`].
const INLINE_FIELDS: usize = 4;

/// One card: a non-blank, non-comment deck line, split into fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Card<'a> {
    /// 1-based line number in the deck.
    pub line: usize,
    /// The line with surrounding whitespace trimmed.
    text: &'a str,
    fields: [&'a str; INLINE_FIELDS],
    count: usize,
}

impl<'a> Card<'a> {
    /// Splits a trimmed line.
    fn new(line: usize, text: &'a str) -> Self {
        let mut fields = [""; INLINE_FIELDS];
        let mut count = 0;
        for field in text.split_whitespace() {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        Self {
            line,
            text,
            fields,
            count,
        }
    }

    /// The card's name: its first field (`R1`, `.input`, …).
    pub fn name(&self) -> &'a str {
        self.fields[0]
    }

    /// Whether the card's name is `directive`, ignoring ASCII case.
    pub fn is(&self, directive: &str) -> bool {
        self.name().eq_ignore_ascii_case(directive)
    }

    /// Number of fields, the name included.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Always `false`: a card has at least its name.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Field `index` (0 is the name), or `None` past the end.
    pub fn field(&self, index: usize) -> Option<&'a str> {
        if index >= self.count {
            return None;
        }
        match self.fields.get(index) {
            Some(field) => Some(field),
            None => self.fields().nth(index),
        }
    }

    /// The first four fields, when the card has exactly four — the shape
    /// of every element and coupling card.
    pub fn four(&self) -> Option<[&'a str; 4]> {
        (self.count == INLINE_FIELDS).then_some(self.fields)
    }

    /// Every field, re-split from the card's text.
    pub fn fields(&self) -> SplitWhitespace<'a> {
        self.text.split_whitespace()
    }
}

/// The cards of a deck, in order, up to `.end`. See the [module
/// docs](self) for the format.
///
/// # Examples
///
/// ```
/// use rlc_tree::deck;
///
/// let mut cards = deck::cards("* header\n.input in\n\nR1 in n1 25\n.end\nR2 n1 n2 5\n");
/// let names: Vec<(usize, &str)> = cards.by_ref().map(|c| (c.line, c.name())).collect();
/// assert_eq!(names, [(2, ".input"), (4, "R1")]);
/// assert_eq!(cards.header(), Some("* header"));
/// ```
pub fn cards(deck: &str) -> Cards<'_> {
    Cards {
        lines: deck.lines().enumerate(),
        header: None,
        seen_card: false,
        ended: false,
    }
}

/// Iterator over a deck's cards; see [`cards`].
#[derive(Debug, Clone)]
pub struct Cards<'a> {
    lines: Enumerate<Lines<'a>>,
    header: Option<&'a str>,
    seen_card: bool,
    ended: bool,
}

impl<'a> Cards<'a> {
    /// The deck header: the first `*` comment line before any card,
    /// trimmed (leading `*` included). Final once the first card has been
    /// yielded.
    pub fn header(&self) -> Option<&'a str> {
        self.header
    }
}

impl<'a> Iterator for Cards<'a> {
    type Item = Card<'a>;

    fn next(&mut self) -> Option<Card<'a>> {
        if self.ended {
            return None;
        }
        for (index, line) in self.lines.by_ref() {
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            if text.starts_with('*') || text.starts_with(';') {
                if self.header.is_none() && !self.seen_card && text.starts_with('*') {
                    self.header = Some(text);
                }
                continue;
            }
            let card = Card::new(index + 1, text);
            if card.is(".end") {
                break;
            }
            self.seen_card = true;
            return Some(card);
        }
        self.ended = true;
        None
    }
}

/// The grammars a deck can be written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grammar {
    /// A single-net netlist ([`crate::netlist`]).
    Netlist,
    /// A coupled group: at least one `.net` card ([`crate::coupled`]).
    Coupled,
    /// A synthesis deck: at least one `.lib`, `.use`, `.driver` or
    /// `.require` card ([`crate::synth`]), and no `.net` card.
    Synth,
}

/// Which grammar `deck` is written in, from its cards up to `.end`: a
/// `.net` card makes it coupled, else a synthesis directive makes it a
/// synthesis deck, else it is a netlist. Comments and anything after
/// `.end` never count, as no parser reads them. A deck can belong to a
/// grammar and still fail that grammar's parser.
///
/// # Examples
///
/// ```
/// use rlc_tree::deck::{grammar, Grammar};
///
/// assert_eq!(grammar(".net a\nR1 in n1 25\n.lib b r=1 cin=0 tin=0\n"), Grammar::Coupled);
/// assert_eq!(grammar("R1 in n1 25\n  .DRIVER 100\n"), Grammar::Synth);
/// assert_eq!(grammar("* .net in prose\nR1 in n1 25\n.end\n.net x\n"), Grammar::Netlist);
/// ```
pub fn grammar(deck: &str) -> Grammar {
    let mut found = Grammar::Netlist;
    for card in cards(deck) {
        if card.is(".net") {
            return Grammar::Coupled;
        }
        if crate::synth::directive(&card).is_some() {
            found = Grammar::Synth;
        }
    }
    found
}

/// One problem the coupled or synthesis front end found: its class `K`,
/// and the error the parser reports when this is the first problem it
/// meets.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem<K> {
    /// What kind of problem this is.
    pub kind: K,
    /// The parser's error for it.
    pub error: TreeError,
}

/// A card-level parse error.
pub(crate) fn card_error(line: usize, message: String) -> TreeError {
    TreeError::ParseNetlist { line, message }
}

/// What a collect-capable front end does with a problem it finds.
/// Fail-fast mode stops with the problem's error; collect mode records
/// the problem, remembers the first error (the one fail-fast mode would
/// have stopped at) and carries on.
#[derive(Debug)]
pub(crate) struct Faults<K> {
    pub(crate) collect: bool,
    /// Every problem so far; always empty in fail-fast mode.
    pub(crate) problems: Vec<Problem<K>>,
    /// The error fail-fast mode stopped at, or would have.
    pub(crate) first_error: Option<TreeError>,
}

impl<K> Faults<K> {
    pub(crate) fn new(collect: bool) -> Self {
        Self {
            collect,
            problems: Vec::new(),
            first_error: None,
        }
    }

    /// Reports a problem of class `kind` whose parse error is `error`.
    pub(crate) fn report(&mut self, kind: K, error: TreeError) -> Result<(), TreeError> {
        self.fail(&error)?;
        self.problems.push(Problem { kind, error });
        Ok(())
    }

    /// Reports an error found by a nested front end, which keeps its own
    /// findings.
    pub(crate) fn fail(&mut self, error: &TreeError) -> Result<(), TreeError> {
        if !self.collect {
            return Err(error.clone());
        }
        self.first_error.get_or_insert_with(|| error.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_fields_and_counts_past_the_inline_ones() {
        let card = Card::new(3, ".lib buf r=1 cin=2f tin=3p");
        assert_eq!(card.name(), ".lib");
        assert_eq!(card.len(), 5);
        assert_eq!(card.field(1), Some("buf"));
        assert_eq!(card.field(4), Some("tin=3p"));
        assert_eq!(card.field(5), None);
        assert_eq!(card.four(), None);
        assert!(card.is(".LIB"));

        let card = Card::new(1, "R1 \t in  n1 25");
        assert_eq!(card.four(), Some(["R1", "in", "n1", "25"]));
        assert_eq!(card.field(9), None);
    }

    #[test]
    fn ascii_and_unicode_lines_split_like_split_whitespace() {
        for text in [
            "R1 in n1 25",
            "R1\tin \x0b n1\x0c25",
            "R1 in\u{a0}n1 25",
            "Rµ in n1 5µ",
            "R1 in\u{2003}n1\u{3000}25 x",
            ".lib buf r=1 cin=2f tin=3p",
        ] {
            let card = Card::new(1, text);
            let expected: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(card.len(), expected.len(), "{text:?}");
            for (k, field) in expected.iter().enumerate() {
                assert_eq!(card.field(k), Some(*field), "{text:?}");
            }
        }
    }

    #[test]
    fn lines_split_like_str_lines_then_split_whitespace() {
        let deck = "R1 in n1 25\r\n\t\n  C1\tn1 0\x0b1p  \r\n\u{a0}* nbsp comment\nRµ in\u{2003}n2 5 x\n\r\nR9\rq";
        let cards: Vec<Card<'_>> = cards(deck).collect();
        let expected: Vec<(usize, Vec<&str>)> = deck
            .lines()
            .enumerate()
            .filter_map(|(k, l)| {
                let l = l.trim();
                (!l.is_empty() && !l.starts_with('*') && !l.starts_with(';'))
                    .then(|| (k + 1, l.split_whitespace().collect()))
            })
            .collect();
        assert_eq!(cards.len(), expected.len());
        for (card, (line, fields)) in cards.iter().zip(&expected) {
            assert_eq!(card.line, *line);
            assert_eq!(card.len(), fields.len());
            assert_eq!(card.text, deck.lines().nth(line - 1).unwrap().trim());
            for (k, field) in fields.iter().enumerate() {
                assert_eq!(card.field(k), Some(*field));
            }
        }
    }

    #[test]
    fn skips_comments_keeps_line_numbers_and_stops_at_end() {
        let deck =
            "\n; not a header\n* header\n* second\r\nR1 in a 1\r\n  * late\n.END\nR2 a b 1\n";
        let mut cards = cards(deck);
        let first = cards.next().unwrap();
        assert_eq!((first.line, first.text), (5, "R1 in a 1"));
        assert_eq!(cards.next(), None);
        assert_eq!(cards.next(), None, "stays ended");
        assert_eq!(cards.header(), Some("* header"));
    }

    #[test]
    fn grammar_detection_is_case_insensitive_and_token_exact() {
        assert_eq!(grammar(".LIB b r=1 cin=1f tin=1p\n"), Grammar::Synth);
        assert_eq!(grammar("R1 in n1 25\n  .driver 100\n"), Grammar::Synth);
        assert_eq!(grammar("R1 in n1 25\nC1 n1 0 1p\n"), Grammar::Netlist);
        // `.library` and `.network` are other (unknown) directives.
        assert_eq!(grammar(".library foo\n.network x\n"), Grammar::Netlist);
        // Comments never count.
        assert_eq!(grammar("* .lib in prose\n; .net too\n"), Grammar::Netlist);
        // A `.net` card wins over synthesis cards, wherever it is.
        assert_eq!(grammar(".use b\n.NET a\n"), Grammar::Coupled);
    }

    #[test]
    fn grammar_stops_at_end_like_every_parser() {
        let netlist = "R1 in n1 25\nC1 n1 0 1p\n.end\n";
        assert_eq!(grammar(&format!("{netlist}.net x\n")), Grammar::Netlist);
        let synth = format!("{netlist}.lib b r=1 cin=0 tin=0\n");
        assert_eq!(grammar(&synth), Grammar::Netlist);
        assert_eq!(
            grammar(".lib b r=1 cin=0 tin=0\n.end\n.net x\n"),
            Grammar::Synth
        );
    }

    #[test]
    fn a_comment_after_the_first_card_is_no_header() {
        let mut cards = cards(".input in\n* late\n");
        assert!(cards.by_ref().count() == 1);
        assert_eq!(cards.header(), None);
    }
}
