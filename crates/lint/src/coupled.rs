//! Static analysis for *coupled* decks (see [`rlc_tree::coupled`]).
//!
//! Linting is rule passes over [`CoupledGroup::scan`], the collect mode of
//! the one coupled front end: each group-level problem maps onto one rule
//! (`L4xx`, or `L101`/`L001` for malformed cards and empty decks); each
//! `.net` block's scan runs through the single-net rule passes, with
//! node-anchored findings prefixed `net.node` and unanchored ones anchored
//! to the net; and distinct aggressors per net are tallied against
//! [`LintConfig::max_aggressors`] (`L405`, warning). The report and the
//! parse come from the same pass, so **a coupled deck lints error-free iff
//! [`CoupledGroup::parse`] accepts it** by construction.

use rlc_tree::coupled::{CoupledGroup, CoupledScan, GroupFault};
use rlc_tree::deck::Problem;
use rlc_tree::netlist::ValueFault;
use rlc_tree::TreeError;

use crate::analyze::{error_parts, is_non_finite, net_rules, LintConfig};
use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Lints a coupled deck with the default [`LintConfig`].
pub fn lint_coupled_deck(deck: &str) -> LintReport {
    lint_coupled_deck_with(deck, &LintConfig::default())
}

/// Lints a coupled deck with an explicit configuration.
pub fn lint_coupled_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    lint_and_parse_coupled_with(deck, config).0
}

/// Lints a coupled deck with the default [`LintConfig`] and returns the
/// parse outcome with the report: exactly what
/// `CoupledGroup::parse(deck)` returns, from the same single read of the
/// deck.
///
/// # Examples
///
/// ```
/// use rlc_lint::lint_and_parse_coupled;
///
/// let deck = ".net a\nR1 in n1 25\nC1 n1 0 1p\n.net b\nR1 in m1 40\nC1 m1 0 1p\nK1 a.n1 b.m1 0.1p\n";
/// let (report, parsed) = lint_and_parse_coupled(deck);
/// assert!(report.is_clean());
/// assert_eq!(parsed.unwrap().couplings().len(), 1);
///
/// let (report, parsed) = lint_and_parse_coupled(".net a\nR1 in n1 25\nK1 a.n1 b.m1 0.1p\n");
/// assert!(report.codes().contains(&"L401"));
/// assert!(parsed.is_err());
/// ```
pub fn lint_and_parse_coupled(deck: &str) -> (LintReport, Result<CoupledGroup, TreeError>) {
    lint_and_parse_coupled_with(deck, &LintConfig::default())
}

/// [`lint_and_parse_coupled`] with an explicit configuration.
fn lint_and_parse_coupled_with(
    deck: &str,
    config: &LintConfig,
) -> (LintReport, Result<CoupledGroup, TreeError>) {
    let _span = rlc_obs::span!("lint.coupled_deck");
    rlc_obs::counter!("lint.coupled_decks");
    let scan = CoupledGroup::scan(deck);
    let mut diagnostics: Vec<Diagnostic> = scan.problems.iter().map(group_diagnostic).collect();
    for (index, net) in scan.nets.iter().enumerate() {
        let label = match net.name {
            Some(name) => name.to_owned(),
            None => format!("net#{}", index + 1),
        };
        for mut d in net_rules(&net.scan, config) {
            match &d.node {
                Some(node) => d.node = Some(format!("{label}.{node}")),
                None if d.line.is_none() => d.node = Some(label.clone()),
                None => {}
            }
            diagnostics.push(d);
        }
    }
    fan_in(&mut diagnostics, &scan, config);
    let report = LintReport::new(diagnostics);
    rlc_obs::counter!("lint.diagnostics", report.diagnostics().len() as u64);
    (report, scan.into_group())
}

/// The rule and message for one group-level problem. The message is the
/// parser's own except for duplicate net names and non-finite coupling
/// values.
fn group_diagnostic(problem: &Problem<GroupFault<'_>>) -> Diagnostic {
    let (line, mut message) = error_parts(&problem.error);
    let rule = match &problem.kind {
        GroupFault::Malformed => Rule::MalformedCard,
        &GroupFault::DuplicateNet { line, name } => {
            let message = format!("a .net block named {name:?} was already declared");
            return Diagnostic::line(Rule::DuplicateNet, line, message);
        }
        GroupFault::BadValue { label, raw, fault } if is_non_finite(raw, fault) => {
            message = format!("coupling capacitor {label} value {raw:?} is not finite");
            Rule::NonPositiveCouplingCap
        }
        GroupFault::BadValue {
            fault: ValueFault::Syntax(_),
            ..
        } => Rule::MalformedCard,
        GroupFault::BadValue { .. } => Rule::NonPositiveCouplingCap,
        GroupFault::NoNets => Rule::EmptyDeck,
        GroupFault::UnknownNet => Rule::UnknownCouplingNet,
        GroupFault::DanglingNode => Rule::DanglingCouplingNode,
        GroupFault::SelfCoupling => Rule::SelfCoupling,
    };
    Diagnostic {
        rule,
        line,
        node: None,
        message,
    }
}

/// `L405`: a named net coupled to more distinct aggressors than the
/// configured limit.
fn fan_in(diagnostics: &mut Vec<Diagnostic>, scan: &CoupledScan<'_>, config: &LintConfig) {
    let mut partners: Vec<Vec<usize>> = vec![Vec::new(); scan.nets.len()];
    for &[a, b] in &scan.couplings {
        for (this, far) in [(a, b), (b, a)] {
            if !partners[this].contains(&far) {
                partners[this].push(far);
            }
        }
    }
    for (net, partners) in scan.nets.iter().zip(&partners) {
        let Some(name) = net.name else { continue };
        let aggressors = partners.len();
        if aggressors > config.max_aggressors {
            diagnostics.push(Diagnostic::node(
                Rule::TooManyAggressors,
                name,
                format!(
                    "net {name:?} is coupled to {aggressors} distinct aggressors \
                     (limit {}); the decoupled Miller window compounds pessimism \
                     per aggressor",
                    config.max_aggressors
                ),
            ));
        }
    }
}

/// Lints an in-memory group via its canonical deck, so batch pre-checks
/// over already-parsed groups share one code path with deck linting. A
/// parsed group is by construction in the parser's image, so the report is
/// always error-free; warnings (fan-in, model regime) still apply.
pub fn lint_coupled_group(group: &CoupledGroup) -> LintReport {
    lint_coupled_deck(&group.canonical_deck())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    const CLEAN: &str = "\
.net victim
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
.net agg
R1 in m1 40
C1 m1 0 0.3p
K1 victim.n2 agg.m1 0.1p
.end
";

    #[test]
    fn clean_coupled_deck_is_clean() {
        let report = lint_coupled_deck(CLEAN);
        assert!(report.is_clean(), "{report:?}");
        assert!(CoupledGroup::parse(CLEAN).is_ok());
    }

    #[test]
    fn unknown_net_fires_l401() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L401"), "{report:?}");
        assert!(!report.is_clean());
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn self_coupling_fires_l402() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
R2 n1 n2 10
C2 n2 0 1p
K1 a.n1 a.n2 0.1p
";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L402"), "{report:?}");
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn non_positive_coupling_caps_fire_l403() {
        for value in ["0", "-0.1p", "1e999", "NaN"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 {value}\n"
            );
            let report = lint_coupled_deck(&deck);
            assert!(
                report.codes().contains(&"L403"),
                "value {value:?}: {report:?}"
            );
            assert!(CoupledGroup::parse(&deck).is_err());
        }
    }

    #[test]
    fn dangling_node_and_input_refs_fire_l404() {
        for node in ["n9", "in"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.{node} b.m1 0.1p\n"
            );
            let report = lint_coupled_deck(&deck);
            assert!(report.codes().contains(&"L404"), "{node}: {report:?}");
            assert!(CoupledGroup::parse(&deck).is_err());
        }
    }

    #[test]
    fn wide_fan_in_warns_l405_without_blocking() {
        let mut deck = String::from(".net victim\nR1 in n1 10\nC1 n1 0 1p\n");
        for i in 0..3 {
            deck.push_str(&format!(".net agg{i}\nR1 in m1 10\nC1 m1 0 1p\n"));
            deck.push_str(&format!("K{i} victim.n1 agg{i}.m1 0.05p\n"));
        }
        let tight = LintConfig {
            max_aggressors: 2,
            ..LintConfig::default()
        };
        let report = lint_coupled_deck_with(&deck, &tight);
        assert!(report.codes().contains(&"L405"), "{report:?}");
        assert!(report.is_clean(), "L405 is a warning: {report:?}");
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::TooManyAggressors)
            .expect("has the finding");
        assert_eq!(diag.rule.severity(), Severity::Warning);
        assert_eq!(diag.node.as_deref(), Some("victim"));
        assert!(CoupledGroup::parse(&deck).is_ok());
        // The default limit (8) leaves the same deck spotless of L405.
        assert!(!lint_coupled_deck(&deck).codes().contains(&"L405"));
    }

    #[test]
    fn duplicate_net_fires_l406() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net a\nR1 in n1 10\nC1 n1 0 1p\n";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L406"), "{report:?}");
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn card_before_net_and_malformed_blocks_are_errors() {
        let report = lint_coupled_deck("R1 in n1 10\n.net a\nR1 in n1 10\nC1 n1 0 1p\n");
        assert!(report.codes().contains(&"L101"), "{report:?}");
        for deck in [
            ".net\nR1 in n1 10\n",
            ".net a b\nR1 in n1 10\n",
            ".net a.b\nR1 in n1 10\n",
        ] {
            let report = lint_coupled_deck(deck);
            assert!(!report.is_clean(), "{deck:?}: {report:?}");
            assert!(CoupledGroup::parse(deck).is_err());
        }
    }

    #[test]
    fn per_net_findings_carry_net_prefixed_anchors_and_deck_lines() {
        // Line 5 is the bad card; the ζ warning anchors to agg's sink.
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 bogus
C1 m1 0 1p
";
        let report = lint_coupled_deck(deck);
        let bad = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::MalformedCard)
            .expect("chunk error surfaces");
        assert_eq!(bad.line, Some(5));
        assert!(CoupledGroup::parse(deck).is_err());

        let underdamped = "\
.net a
R1 in n1 25
C1 n1 0 0.5p
L2 n1 n2 5n
C2 n2 0 1p
";
        let report = lint_coupled_deck(underdamped);
        assert!(report.is_clean());
        let finding = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::UnderdampedSink)
            .expect("model tier runs per net");
        assert_eq!(finding.node.as_deref(), Some("a.n2"));
    }

    #[test]
    fn empty_coupled_deck_fires_l001() {
        let report = lint_coupled_deck("* nothing\n");
        assert_eq!(report.codes(), vec!["L001"]);
        assert!(CoupledGroup::parse("* nothing\n").is_err());
    }

    #[test]
    fn parsed_group_lints_error_free() {
        let group = CoupledGroup::parse(CLEAN).expect("parses");
        let report = lint_coupled_group(&group);
        assert!(report.is_clean(), "{report:?}");
    }
}
