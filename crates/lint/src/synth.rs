//! Static analysis for *synthesis* decks (see [`rlc_tree::synth`]).
//!
//! Linting is rule passes over [`SynthDeck::scan`], the collect mode of
//! the one synthesis front end: the element portion runs through the
//! single-net rule passes, and each synthesis-card or deck-level problem
//! maps onto one `L5xx` rule. The report and the parse come from the same
//! pass, so **a synthesis deck lints error-free iff [`SynthDeck::parse`]
//! accepts it** by construction.

use rlc_tree::deck::Problem;
use rlc_tree::netlist::ValueFault;
use rlc_tree::synth::{SynthDeck, SynthFault};
use rlc_tree::TreeError;

use crate::analyze::{error_parts, is_nan_spelling, net_rules, LintConfig};
use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Lints a synthesis deck with the default [`LintConfig`].
pub fn lint_synth_deck(deck: &str) -> LintReport {
    lint_synth_deck_with(deck, &LintConfig::default())
}

/// Lints a synthesis deck with an explicit configuration.
pub fn lint_synth_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    lint_and_parse_synth_with(deck, config).0
}

/// Lints a synthesis deck with the default [`LintConfig`] and returns the
/// parse outcome with the report: exactly what `SynthDeck::parse(deck)`
/// returns, from the same single read of the deck.
///
/// # Examples
///
/// ```
/// use rlc_lint::lint_and_parse_synth;
///
/// let deck = "R1 in n1 400\nC1 n1 0 1p\n.lib bufx r=120 cin=4f tin=15p\n";
/// let (report, parsed) = lint_and_parse_synth(deck);
/// assert!(report.is_clean());
/// assert_eq!(parsed.unwrap().buffer().name, "bufx");
///
/// let (report, parsed) = lint_and_parse_synth("R1 in n1 400\nC1 n1 0 1p\n.driver 100\n");
/// assert_eq!(report.codes(), vec!["L202", "L505"]);
/// assert!(parsed.is_err());
/// ```
pub fn lint_and_parse_synth(deck: &str) -> (LintReport, Result<SynthDeck, TreeError>) {
    lint_and_parse_synth_with(deck, &LintConfig::default())
}

/// [`lint_and_parse_synth`] with an explicit configuration.
fn lint_and_parse_synth_with(
    deck: &str,
    config: &LintConfig,
) -> (LintReport, Result<SynthDeck, TreeError>) {
    let _span = rlc_obs::span!("lint.synth_deck");
    rlc_obs::counter!("lint.synth_decks");
    let scan = SynthDeck::scan(deck);
    let mut diagnostics = net_rules(&scan.netlist, config);
    diagnostics.extend(scan.problems.iter().map(synth_diagnostic));
    let report = LintReport::new(diagnostics);
    rlc_obs::counter!("lint.diagnostics", report.diagnostics().len() as u64);
    (report, scan.into_deck())
}

/// The rule and message for one synthesis problem. The message is the
/// parser's own except for values that do not parse, which lint names by
/// what they are the value of.
fn synth_diagnostic(problem: &Problem<SynthFault<'_>>) -> Diagnostic {
    let (line, mut message) = error_parts(&problem.error);
    let mut node = None;
    let rule = match &problem.kind {
        SynthFault::Malformed => Rule::MalformedSynthCard,
        SynthFault::BadValue {
            what,
            raw,
            fault: ValueFault::Syntax(_),
        } => {
            message = if is_nan_spelling(raw) {
                format!("{what} {raw:?} is not finite")
            } else {
                format!("{what} has bad value {raw:?}")
            };
            Rule::MalformedSynthCard
        }
        SynthFault::BadValue { .. } => Rule::NonPositiveSynthResistance,
        SynthFault::MissingLibrary => Rule::MissingBufferLibrary,
        SynthFault::UnknownBuffer => Rule::UnknownBufferRef,
        SynthFault::UnknownNode { node: name } => {
            // A constraint on a missing node names the node too.
            node = Some((*name).to_owned());
            Rule::ConstraintOnUnknownNode
        }
    };
    Diagnostic {
        rule,
        line,
        node,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    const CLEAN: &str = "\
* synthesizable clock net
.input in
R1 in n1 400
C1 n1 0 0.8p
R2 n1 n2 400
C2 n2 0 0.8p
.lib bufx r=120 cin=4f tin=15p
.use bufx
.driver 100
.require n2 2n
.end
";

    #[test]
    fn clean_synth_deck_is_clean() {
        let report = lint_synth_deck(CLEAN);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn unknown_buffer_ref_is_l501() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\n.lib a r=120 cin=4f tin=15p\n.use ghost\n";
        let report = lint_synth_deck(deck);
        assert!(report.codes().contains(&"L501"), "{report:?}");
        assert_eq!(Rule::UnknownBufferRef.severity(), Severity::Error);
    }

    #[test]
    fn non_positive_resistances_are_l502() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\n.lib a r=0 cin=4f tin=15p\n.driver -5\n";
        let report = lint_synth_deck(deck);
        let l502 = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::NonPositiveSynthResistance)
            .count();
        assert_eq!(l502, 2, "{report:?}");
    }

    #[test]
    fn constraint_on_unknown_node_is_l503() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\n.lib a r=120 cin=4f tin=15p\n.require ghost 1n\n";
        let report = lint_synth_deck(deck);
        assert!(report.codes().contains(&"L503"), "{report:?}");
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::ConstraintOnUnknownNode)
            .unwrap();
        assert_eq!(d.node.as_deref(), Some("ghost"));
        assert_eq!(d.line, Some(4));
    }

    #[test]
    fn malformed_cards_are_l504_and_all_reported() {
        let deck = "\
R1 in n1 400
C1 n1 0 1p
.lib a r=1k cin=4f
.lib b r=1k cin=4f zap=1p
.lib b r=2k cin=4f tin=1p
.use x y
.driver 10 20
.require n1 -1p
.require n1 1p
.require n1 2p
";
        let report = lint_synth_deck(deck);
        let l504 = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::MalformedSynthCard)
            .count();
        // field count, unknown key, duplicate lib, .use shape, .driver
        // shape, negative time, duplicate require — every card reported.
        assert!(l504 >= 6, "{l504} in {report:?}");
    }

    #[test]
    fn missing_library_is_l505() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\n.driver 100\n";
        let report = lint_synth_deck(deck);
        assert!(report.codes().contains(&"L505"), "{report:?}");
    }

    #[test]
    fn element_findings_still_fire() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\nC9 n1 n1 1p\n.lib a r=120 cin=4f tin=15p\n";
        let report = lint_synth_deck(deck);
        assert!(report.codes().contains(&"L006"), "{report:?}");
    }

    #[test]
    fn cards_after_end_are_ignored() {
        let deck = "R1 in n1 400\nC1 n1 0 1p\n.lib a r=120 cin=4f tin=15p\n.end\n.use ghost\n";
        let report = lint_synth_deck(deck);
        assert!(report.is_clean(), "{report:?}");
    }
}
