//! Static analysis for RLC netlist decks.
//!
//! `rlc-lint` inspects a deck *without* simulating it and produces a
//! [`LintReport`]: a deterministic list of [`Diagnostic`]s with stable rule
//! codes (`L001`…), fixed severities, and source spans pointing at the
//! offending deck line. The rules come in four tiers (see [`Tier`]):
//!
//! * **structural** — the element graph must be a tree rooted at the input
//!   (cycles, unreachable elements, misplaced capacitors, missing loads);
//! * **physical** — element values must be finite, non-negative, and
//!   plausibly on-chip;
//! * **model-regime** — per-sink damping factors `ζ = T_RC/(2√T_LC)`
//!   (paper eq. 29) computed in O(n) via [`rlc_moments::tree_sums`], used
//!   to flag decks the two-pole model grades poorly on (ζ < 0.5) and
//!   deep-RC decks where a first-order model would do (`L202`);
//! * **coupling** — coupled-deck defects (`L4xx`): `K` cards naming
//!   unknown nets or nodes, self-coupling, non-positive coupling caps,
//!   duplicate `.net` names, and implausibly wide aggressor fan-in (see
//!   [`lint_coupled_deck`]);
//! * **synthesis** — synthesis-deck defects (`L5xx`): unknown buffer
//!   references, non-positive driver resistances, constraints on
//!   nonexistent sinks, malformed `.lib`/`.use`/`.driver`/`.require`
//!   cards (see [`lint_synth_deck`]).
//!
//! The contract downstream gates rely on: **a deck lints error-free iff
//! `Netlist::parse` accepts it** (for coupled decks: iff
//! `CoupledGroup::parse` accepts it; for synthesis decks: iff
//! `SynthDeck::parse` accepts it). Warnings and infos never block
//! parsing; errors always predict a parse failure. It holds by
//! construction: every linter is rule passes over the collect mode of
//! its grammar's one front end in `rlc-tree` (`Netlist::scan`,
//! `CoupledGroup::scan`, `SynthDeck::scan`), and [`lint_and_parse`],
//! [`lint_and_parse_coupled`] and [`lint_and_parse_synth`] return that
//! pass's parse with the report. `rlc-serve` uses this to reject work
//! before it costs an admission slot, `rlc-engine` offers it as a batch
//! pre-check, and `rlc-verify` screens its generated corpus with it.
//!
//! Reports render two ways: human `file:line: L00x severity: message`
//! lines, and the byte-stable `rlc-lint/1` JSON document (sorted decks,
//! sorted diagnostics, no timestamps) — see [`report::render_document`].
//!
//! # Examples
//!
//! ```
//! use rlc_lint::{lint_deck, Rule, Severity};
//!
//! // ζ ≈ 0.265 at the sink: analyzable, but flagged.
//! let deck = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";
//! let report = lint_deck(deck);
//! assert!(report.is_clean());
//! assert_eq!(report.codes(), vec!["L201"]);
//! let finding = &report.diagnostics()[0];
//! assert_eq!(finding.rule, Rule::UnderdampedSink);
//! assert_eq!(finding.rule.severity(), Severity::Warning);
//! assert_eq!(finding.node.as_deref(), Some("n2"));
//! ```

mod analyze;
mod coupled;
mod report;
mod rules;
mod synth;

pub use analyze::{
    lint_and_parse, lint_and_parse_with, lint_deck, lint_deck_with, lint_path, lint_tree,
    lint_tree_with, LintConfig,
};
pub use coupled::{
    lint_and_parse_coupled, lint_coupled_deck, lint_coupled_deck_with, lint_coupled_group,
};
pub use report::{render_document, Diagnostic, LintReport};
pub use rules::{Rule, Severity, Tier};
pub use synth::{lint_and_parse_synth, lint_synth_deck, lint_synth_deck_with};
