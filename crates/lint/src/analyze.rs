//! The parse-to-diagnostics pipeline.
//!
//! There is no second netlist grammar here. [`Netlist::scan`] — the
//! collect mode of the one netlist front end in `rlc-tree` — reads the
//! deck once and returns every card and graph finding (each with its
//! 1-based deck line), every element card with its parsed value, and
//! exactly the outcome `Netlist::parse` would produce. Linting is rule
//! passes over that output:
//!
//! 1. **Findings** — each front-end finding maps onto one rule and
//!    message ([`finding_diagnostic`]). Graph findings (input node,
//!    cycles, reachability, capacitor placement) only exist when every
//!    card was well formed, so a bad card never cascades.
//! 2. **Values** — each element value that parsed is checked against the
//!    configured plausible on-chip range (`L105`).
//! 3. **Model** — when the deck parsed, the eq. 29/30 tree sums are
//!    computed once in O(n) via [`rlc_moments::tree_sums`]. Per-sink
//!    damping factors `ζ = T_RC/(2√T_LC)` drive the model-regime rules;
//!    findings at this stage carry the original node names, looked up
//!    only when a finding fires.
//!
//! Because the report and the parse come from the same pass, **a deck
//! lints error-free if and only if `Netlist::parse` accepts it** holds by
//! construction (warnings and infos never block parsing);
//! `tests/parser_agreement.rs` keeps checking it. [`lint_and_parse`]
//! hands the parsed netlist back with the report, so a caller that needs
//! both reads the deck once.

use rlc_tree::deck::{grammar, Grammar};
use rlc_tree::netlist::{DeckScan, ElementCard, ElementKind, Finding, Netlist, ValueFault};
use rlc_tree::{NodeId, RlcTree, TreeError};
use rlc_units::QuantityErrorKind;

use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Tunable thresholds for the physical and model-regime tiers.
///
/// The defaults encode the paper's applicability envelope: Section V bounds
/// the two-pole model's delay error at 25% across moderately damped
/// regimes, and the fit visibly decays once ζ drops below ~0.5 (strong
/// ringing); deep-RC nets with ζ ≥ 10 everywhere are first-order for all
/// practical purposes. The magnitude ranges are generous envelopes of
/// on-chip interconnect values (the paper's examples use Ω, nH, pF scales).
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Warn (`L201`) when a sink's ζ falls below this. Default `0.5`.
    pub zeta_warn_below: f64,
    /// Info (`L202`) when every sink's ζ is at or above this. Default `10.0`.
    pub zeta_info_above: f64,
    /// Plausible resistance magnitudes in Ω. Default `1e-3 ..= 1e5`.
    pub resistance_ohms: (f64, f64),
    /// Plausible inductance magnitudes in H. Default `1e-15 ..= 1e-6`.
    pub inductance_henries: (f64, f64),
    /// Plausible capacitance magnitudes in F. Default `1e-18 ..= 1e-9`.
    pub capacitance_farads: (f64, f64),
    /// Warn (`L405`) when a net of a coupled deck has more distinct
    /// aggressors than this. The decoupled Miller analysis compounds its
    /// per-aggressor pessimism, so wide fan-in windows deserve scrutiny.
    /// Default `8`.
    pub max_aggressors: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            zeta_warn_below: 0.5,
            zeta_info_above: 10.0,
            resistance_ohms: (1e-3, 1e5),
            inductance_henries: (1e-15, 1e-6),
            capacitance_farads: (1e-18, 1e-9),
            max_aggressors: 8,
        }
    }
}

/// Lints a deck with the default [`LintConfig`].
pub fn lint_deck(deck: &str) -> LintReport {
    lint_deck_with(deck, &LintConfig::default())
}

/// Lints a deck with an explicit configuration.
pub fn lint_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    lint_and_parse_with(deck, config).0
}

/// Lints a deck with the default [`LintConfig`] and returns the parse
/// outcome with the report: exactly what `Netlist::parse(deck)` returns,
/// from the same single read of the deck.
///
/// # Examples
///
/// ```
/// use rlc_lint::lint_and_parse;
///
/// let (report, parsed) = lint_and_parse("R1 in n1 25\nC1 n1 0 0.5p\n");
/// assert!(report.is_clean());
/// assert_eq!(parsed.unwrap().tree().len(), 1);
///
/// let (report, parsed) = lint_and_parse("R1 in n1 25\nC1 n1 n2 0.5p\n");
/// assert_eq!(report.codes(), vec!["L006"]);
/// assert!(parsed.is_err());
/// ```
pub fn lint_and_parse(deck: &str) -> (LintReport, Result<Netlist, TreeError>) {
    lint_and_parse_with(deck, &LintConfig::default())
}

/// [`lint_and_parse`] with an explicit configuration.
pub fn lint_and_parse_with(
    deck: &str,
    config: &LintConfig,
) -> (LintReport, Result<Netlist, TreeError>) {
    let _span = rlc_obs::span!("lint.deck");
    rlc_obs::counter!("lint.decks");
    let scan = Netlist::scan(deck);
    let report = LintReport::new(net_rules(&scan, config));
    rlc_obs::counter!("lint.diagnostics", report.diagnostics().len() as u64);
    (report, scan.netlist)
}

/// The single-net rule passes over one collect-mode scan: each front-end
/// finding, the plausibility of each element value and, when the net
/// parsed, the tree rules, naming nodes by their deck names. Coupled
/// decks run this per net and synthesis decks over their element
/// portion.
pub(crate) fn net_rules(scan: &DeckScan<'_>, config: &LintConfig) -> Vec<Diagnostic> {
    let mut diagnostics: Vec<Diagnostic> = scan.findings.iter().map(finding_diagnostic).collect();
    for element in &scan.elements {
        plausibility(&mut diagnostics, element, config);
    }
    if let Ok(netlist) = &scan.netlist {
        tree_rules(
            &mut diagnostics,
            netlist.tree(),
            |id| netlist.name(id).to_owned(),
            config,
        );
    }
    diagnostics
}

/// Lints an in-memory tree (no deck text, so no line anchors) with the
/// default config: physical and model-regime tiers only, node findings
/// named by canonical index (`n0`, `n1`, …) as in
/// [`RlcTree::canonical_deck`].
pub fn lint_tree(tree: &RlcTree) -> LintReport {
    lint_tree_with(tree, &LintConfig::default())
}

/// Lints an in-memory tree with an explicit configuration.
pub fn lint_tree_with(tree: &RlcTree, config: &LintConfig) -> LintReport {
    let _span = rlc_obs::span!("lint.tree");
    let mut diagnostics = Vec::new();
    if tree.is_empty() {
        diagnostics.push(Diagnostic::deck(
            Rule::EmptyDeck,
            "tree has no sections".to_owned(),
        ));
        return LintReport::new(diagnostics);
    }
    tree_rules(
        &mut diagnostics,
        tree,
        |id| format!("n{}", id.index()),
        config,
    );
    LintReport::new(diagnostics)
}

/// Reads and lints a deck file. An unreadable file yields a report with a
/// single [`Rule::UnreadableDeck`] error instead of an `io::Error`, so
/// batch callers can fold I/O problems into the same report stream.
/// Each deck goes to the analyzer of its grammar
/// ([`rlc_tree::deck::grammar`], which reads the cards up to `.end` as
/// every parser does): coupled decks (`.net` blocks, see
/// [`crate::lint_coupled_deck`]) to the coupled analyzer, decks carrying
/// synthesis directives (`.lib`/`.use`/`.driver`/`.require`, see
/// [`crate::lint_synth_deck`]) to the synthesis analyzer, so directory
/// sweeps may mix single-net, coupled, and synthesis decks freely.
pub fn lint_path(path: &std::path::Path, config: &LintConfig) -> LintReport {
    match std::fs::read_to_string(path) {
        Ok(deck) => match grammar(&deck) {
            Grammar::Coupled => crate::coupled::lint_coupled_deck_with(&deck, config),
            Grammar::Synth => crate::synth::lint_synth_deck_with(&deck, config),
            Grammar::Netlist => lint_deck_with(&deck, config),
        },
        Err(err) => LintReport::new(vec![Diagnostic::deck(
            Rule::UnreadableDeck,
            format!("cannot read deck: {err}"),
        )]),
    }
}

/// The rule and message for one front-end finding. The message is the
/// front end's own ([`Finding::message`]) except for four findings, where
/// lint names the offending card.
fn finding_diagnostic(finding: &Finding<'_>) -> Diagnostic {
    // "NaN" never parses as a number (the numeric head is empty), but the
    // author clearly meant a value, not a typo: file it as a value error
    // so fault classes map one-to-one onto codes.
    let non_finite =
        matches!(finding, Finding::BadValue { raw, fault, .. } if is_non_finite(raw, fault));
    let rule = match finding {
        Finding::InputWithoutNode { .. }
        | Finding::UnsupportedCard { .. }
        | Finding::FieldCount { .. } => Rule::MalformedCard,
        Finding::BadValue { .. } if non_finite => Rule::BadValue,
        Finding::BadValue {
            fault: ValueFault::Syntax(_),
            ..
        } => Rule::MalformedCard,
        Finding::BadValue { .. } => Rule::BadValue,
        Finding::DuplicateInput { .. } => Rule::DuplicateInput,
        Finding::DuplicateLabel { .. } => Rule::DuplicateLabel,
        Finding::GroundedSeries { .. } => Rule::GroundedSeries,
        Finding::FloatingCapacitor { .. } => Rule::FloatingCapacitor,
        Finding::NoSeriesElements => Rule::EmptyDeck,
        Finding::MissingInput | Finding::DetachedInput { .. } => Rule::NoInput,
        Finding::Cycle { .. } => Rule::Cycle,
        Finding::Unreachable { .. } => Rule::Unreachable,
        Finding::OrphanCapacitor { .. } => Rule::OrphanCapacitor,
    };
    let message = match finding {
        Finding::BadValue { card, raw, .. } if non_finite => {
            format!("element {card} value {raw:?} is not finite")
        }
        Finding::Cycle { card, node, .. } => {
            format!("element {card} closes a cycle through node {node:?}")
        }
        Finding::Unreachable { card, a, b, .. } => {
            format!("element {card} between {a:?} and {b:?} is not reachable from the input")
        }
        Finding::OrphanCapacitor { card, node, .. } => {
            format!("capacitor {card} at node {node:?} which is the input or not in the tree")
        }
        _ => finding.message(),
    };
    match finding.line() {
        Some(line) => Diagnostic::line(rule, line, message),
        None => Diagnostic::deck(rule, message),
    }
}

/// The deck line and message of a front-end error: what a coupled or
/// synthesis problem reports unless lint words it itself.
pub(crate) fn error_parts(error: &TreeError) -> (Option<usize>, String) {
    match error {
        TreeError::ParseNetlist { line, message } => (Some(*line), message.clone()),
        TreeError::NotATree { message } | TreeError::SynthDeck { message } => {
            (None, message.clone())
        }
        other => (None, other.to_string()),
    }
}

/// `L105`: a finite, positive element value outside the configured
/// plausible on-chip range for its kind.
fn plausibility(diagnostics: &mut Vec<Diagnostic>, element: &ElementCard<'_>, config: &LintConfig) {
    let Some(value) = element.value else {
        return;
    };
    let (unit, (lo, hi)) = match element.kind {
        ElementKind::Resistor => ("Ω", config.resistance_ohms),
        ElementKind::Inductor => ("H", config.inductance_henries),
        ElementKind::Capacitor => ("F", config.capacitance_farads),
    };
    if value > 0.0 && !(lo..=hi).contains(&value) {
        diagnostics.push(Diagnostic::line(
            Rule::ImplausibleValue,
            element.line,
            format!(
                "element {} value {value:e} {unit} is outside the plausible on-chip range [{lo:e}, {hi:e}] {unit}",
                element.label
            ),
        ));
    }
}

/// Whether a value the quantity grammar rejects is an overflow or a
/// NaN/infinity spelling: a value the author meant, filed as a value
/// error rather than a malformed card.
pub(crate) fn is_non_finite(raw: &str, fault: &ValueFault) -> bool {
    matches!(fault, ValueFault::Syntax(err)
        if err.kind() == QuantityErrorKind::NonFinite || is_nan_spelling(raw))
}

/// The spellings of a non-finite float literal that `f64`'s grammar would
/// accept but the quantity grammar rejects at the syntax stage.
pub(crate) fn is_nan_spelling(raw: &str) -> bool {
    let head = raw.trim().trim_start_matches(['-', '+']);
    let head = head.get(..3).unwrap_or(head);
    head.eq_ignore_ascii_case("nan") || head.eq_ignore_ascii_case("inf")
}

/// The shared tier-2/tier-3 rules: run for parsed decks and bare trees.
///
/// `name(id)` is the display name of node `id`; it is only called for
/// nodes a finding names.
fn tree_rules(
    diagnostics: &mut Vec<Diagnostic>,
    tree: &RlcTree,
    name: impl Fn(NodeId) -> String,
    config: &LintConfig,
) {
    if tree.total_capacitance().as_farads() == 0.0 {
        diagnostics.push(Diagnostic::deck(
            Rule::ZeroLoadNet,
            "net has zero total capacitance; every T_RC and T_LC sum is zero".to_owned(),
        ));
        // Every per-sink quantity is zero too: the individual sink
        // diagnostics would just repeat this one n times.
        return;
    }
    for id in tree.node_ids() {
        if tree.is_leaf(id) && tree.section(id).capacitance().as_farads() == 0.0 {
            let node = name(id);
            let message = format!(
                "leaf node {node:?} carries no capacitive load and contributes nothing to any Elmore sum"
            );
            diagnostics.push(Diagnostic::node(Rule::LoadFreeLeaf, node, message));
        }
    }
    let sums = rlc_moments::tree_sums(tree);
    let mut min_zeta = f64::INFINITY;
    let mut all_rc = true;
    let mut sinks = 0usize;
    for leaf in tree.leaves() {
        sinks += 1;
        let t_rc = sums.rc(leaf).as_seconds();
        let t_lc = sums.lc(leaf).as_seconds_squared();
        if t_rc == 0.0 {
            let node = name(leaf);
            let message = format!(
                "sink node {node:?} has T_RC = 0; the second-order model (eq. 29) is degenerate there"
            );
            diagnostics.push(Diagnostic::node(Rule::DegenerateSink, node, message));
            continue;
        }
        if t_lc == 0.0 {
            continue;
        }
        all_rc = false;
        // Paper eq. 29: ζ = T_RC / (2·√T_LC).
        let zeta = t_rc / (2.0 * t_lc.sqrt());
        min_zeta = min_zeta.min(zeta);
        if zeta < config.zeta_warn_below {
            let node = name(leaf);
            let message = format!(
                "sink node {node:?} has ζ = {zeta:.3} < {:.2}; the two-pole model's fidelity decays for strongly underdamped responses (paper Section V)",
                config.zeta_warn_below
            );
            diagnostics.push(Diagnostic::node(Rule::UnderdampedSink, node, message));
        }
    }
    if sinks > 0 && all_rc {
        diagnostics.push(Diagnostic::deck(
            Rule::DeepRcNet,
            "net is purely RC (T_LC = 0 at every sink); the first-order Elmore/Wyatt model suffices"
                .to_owned(),
        ));
    } else if min_zeta.is_finite() && min_zeta >= config.zeta_info_above {
        diagnostics.push(Diagnostic::deck(
            Rule::DeepRcNet,
            format!(
                "net is deeply overdamped (min sink ζ = {min_zeta:.3} ≥ {:.1}); the first-order Elmore/Wyatt model suffices",
                config.zeta_info_above
            ),
        ));
    }
}
