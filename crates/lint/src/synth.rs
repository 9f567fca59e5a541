//! Static analysis for *synthesis* decks (see [`rlc_tree::synth`]).
//!
//! The synthesis linter runs the full single-net pipeline over the deck
//! (synthesis directives are unknown cards to the plain grammar, so the
//! element portion lints unchanged) and then mirrors
//! [`SynthDeck::parse`]'s card grammar in a collecting pass: every
//! malformed `.lib`/`.use`/`.driver`/`.require` card is reported instead
//! of stopping at the first, buffer references are resolved against the
//! scanned library (`L501`), resistances are checked positive (`L502`),
//! and `.require` nodes are resolved against the parsed netlist
//! (`L503`).
//!
//! The agreement invariant extends verbatim: **a synthesis deck lints
//! error-free iff [`SynthDeck::parse`] accepts it** — enforced by the
//! synthesis cases in `tests/parser_agreement.rs`.

use rlc_units::{Capacitance, Resistance, Time};

use crate::analyze::{is_nan_spelling, lint_and_parse_with, LintConfig};
use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Lints a synthesis deck with the default [`LintConfig`].
pub fn lint_synth_deck(deck: &str) -> LintReport {
    lint_synth_deck_with(deck, &LintConfig::default())
}

/// Lints a synthesis deck with an explicit configuration.
pub fn lint_synth_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    let _span = rlc_obs::span!("lint.synth_deck");
    rlc_obs::counter!("lint.synth_decks");
    let (report, parsed) = lint_and_parse_with(deck, config);
    let mut diagnostics: Vec<Diagnostic> = report.diagnostics().to_vec();

    let mut lib_names: Vec<String> = Vec::new();
    let mut use_cards: Vec<(usize, String)> = Vec::new();
    let mut saw_driver = false;
    let mut requires: Vec<(usize, String)> = Vec::new();

    for (idx, raw) in deck.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let lower = fields[0].to_ascii_lowercase();
        if lower == ".end" {
            break;
        }
        match lower.as_str() {
            ".lib" => scan_lib_card(&mut diagnostics, &mut lib_names, &fields, lineno),
            ".use" => {
                if fields.len() != 2 {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        format!(
                            ".use expects a buffer name, got {} fields",
                            fields.len() - 1
                        ),
                    ));
                    continue;
                }
                if !use_cards.is_empty() {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        "duplicate .use card".to_owned(),
                    ));
                }
                use_cards.push((lineno, fields[1].to_owned()));
            }
            ".driver" => {
                if fields.len() != 2 {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        format!(
                            ".driver expects a resistance, got {} fields",
                            fields.len() - 1
                        ),
                    ));
                    continue;
                }
                if saw_driver {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        "duplicate .driver card".to_owned(),
                    ));
                }
                saw_driver = true;
                if let Some(ohms) = scan_value::<Resistance>(
                    &mut diagnostics,
                    ".driver resistance",
                    fields[1],
                    lineno,
                    |r| r.as_ohms(),
                ) {
                    if ohms <= 0.0 {
                        diagnostics.push(Diagnostic::line(
                            Rule::NonPositiveSynthResistance,
                            lineno,
                            format!(
                                ".driver resistance {:?} must be finite and positive",
                                fields[1]
                            ),
                        ));
                    }
                }
            }
            ".require" => {
                if fields.len() != 3 {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        format!(
                            ".require expects `<node> <time>`, got {} fields",
                            fields.len() - 1
                        ),
                    ));
                    continue;
                }
                if let Some(t) =
                    scan_value::<Time>(&mut diagnostics, ".require time", fields[2], lineno, |t| {
                        t.as_seconds()
                    })
                {
                    if t < 0.0 {
                        diagnostics.push(Diagnostic::line(
                            Rule::MalformedSynthCard,
                            lineno,
                            format!(
                                ".require time {:?} must be finite and non-negative",
                                fields[2]
                            ),
                        ));
                    }
                }
                if requires.iter().any(|(_, n)| n == fields[1]) {
                    diagnostics.push(Diagnostic::line(
                        Rule::MalformedSynthCard,
                        lineno,
                        format!("duplicate .require constraint on node {:?}", fields[1]),
                    ));
                } else {
                    requires.push((lineno, fields[1].to_owned()));
                }
            }
            _ => {}
        }
    }

    if lib_names.is_empty() {
        diagnostics.push(Diagnostic::deck(
            Rule::MissingBufferLibrary,
            "synthesis deck has no .lib buffer card".to_owned(),
        ));
    }
    for (lineno, name) in &use_cards {
        if !lib_names.iter().any(|n| n == name) {
            diagnostics.push(Diagnostic::line(
                Rule::UnknownBufferRef,
                *lineno,
                format!(".use references unknown buffer {name:?}"),
            ));
        }
    }

    // `.require` nodes resolve against the parsed element portion. When
    // the netlist itself does not parse, the base pass above has already
    // errored and node resolution is moot.
    if let Ok(netlist) = parsed {
        for (lineno, name) in &requires {
            if netlist.node(name).is_none() {
                diagnostics.push(Diagnostic {
                    rule: Rule::ConstraintOnUnknownNode,
                    line: Some(*lineno),
                    node: Some(name.clone()),
                    message: format!(".require constraint on nonexistent node {name:?}"),
                });
            }
        }
    }

    LintReport::new(diagnostics)
}

/// Mirrors `parse_lib_card`: field shape, key set, value grammar, and the
/// positivity requirement on the buffer's driver resistance.
fn scan_lib_card(
    diagnostics: &mut Vec<Diagnostic>,
    lib_names: &mut Vec<String>,
    fields: &[&str],
    lineno: usize,
) {
    if fields.len() != 5 {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedSynthCard,
            lineno,
            format!(
                ".lib expects `<name> r=<res> cin=<cap> tin=<time>`, got {} fields",
                fields.len() - 1
            ),
        ));
        return;
    }
    let name = fields[1];
    if lib_names.iter().any(|n| n == name) {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedSynthCard,
            lineno,
            format!("duplicate .lib buffer {name:?}"),
        ));
    } else {
        lib_names.push(name.to_owned());
    }
    let mut seen: Vec<&str> = Vec::new();
    for field in &fields[2..] {
        let Some((key, value)) = field.split_once('=') else {
            diagnostics.push(Diagnostic::line(
                Rule::MalformedSynthCard,
                lineno,
                format!(".lib field {field:?} is not `key=value`"),
            ));
            continue;
        };
        if seen.contains(&key) {
            diagnostics.push(Diagnostic::line(
                Rule::MalformedSynthCard,
                lineno,
                format!(".lib repeats key {key:?}"),
            ));
            continue;
        }
        seen.push(key);
        match key {
            "r" => {
                if let Some(ohms) =
                    scan_value::<Resistance>(diagnostics, ".lib resistance", value, lineno, |r| {
                        r.as_ohms()
                    })
                {
                    if ohms <= 0.0 {
                        diagnostics.push(Diagnostic::line(
                            Rule::NonPositiveSynthResistance,
                            lineno,
                            format!(".lib resistance {value:?} must be finite and positive"),
                        ));
                    }
                }
            }
            "cin" => {
                if let Some(farads) = scan_value::<Capacitance>(
                    diagnostics,
                    ".lib input capacitance",
                    value,
                    lineno,
                    |c| c.as_farads(),
                ) {
                    if farads < 0.0 {
                        diagnostics.push(Diagnostic::line(
                            Rule::MalformedSynthCard,
                            lineno,
                            format!(
                                ".lib input capacitance {value:?} must be finite and non-negative"
                            ),
                        ));
                    }
                }
            }
            "tin" => {
                if let Some(seconds) =
                    scan_value::<Time>(diagnostics, ".lib intrinsic delay", value, lineno, |t| {
                        t.as_seconds()
                    })
                {
                    if seconds < 0.0 {
                        diagnostics.push(Diagnostic::line(
                            Rule::MalformedSynthCard,
                            lineno,
                            format!(
                                ".lib intrinsic delay {value:?} must be finite and non-negative"
                            ),
                        ));
                    }
                }
            }
            other => diagnostics.push(Diagnostic::line(
                Rule::MalformedSynthCard,
                lineno,
                format!(".lib has unknown key {other:?}"),
            )),
        }
    }
}

/// Parses one synthesis-card value; syntax and non-finite problems are
/// `L504` (the parser rejects them with the same boundary). Returns the
/// base value for the caller's sign checks, `None` when already reported.
fn scan_value<T: std::str::FromStr<Err = rlc_units::ParseQuantityError>>(
    diagnostics: &mut Vec<Diagnostic>,
    what: &str,
    raw: &str,
    lineno: usize,
    base: impl Fn(T) -> f64,
) -> Option<f64> {
    match raw.parse::<T>() {
        Ok(v) => {
            let value = base(v);
            if !value.is_finite() {
                diagnostics.push(Diagnostic::line(
                    Rule::MalformedSynthCard,
                    lineno,
                    format!("{what} {raw:?} is not finite"),
                ));
                return None;
            }
            Some(value)
        }
        Err(_) => {
            let detail = if is_nan_spelling(raw) {
                format!("{what} {raw:?} is not finite")
            } else {
                format!("{what} has bad value {raw:?}")
            };
            diagnostics.push(Diagnostic::line(Rule::MalformedSynthCard, lineno, detail));
            None
        }
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
