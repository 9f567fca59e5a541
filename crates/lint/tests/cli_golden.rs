//! The `lint` CLI against the checked-in fixture tree: byte-exact
//! `rlc-lint/1` output, worker-count independence, and gate exit codes.
//!
//! `fixtures/expected.json` is the frozen golden; the CI `lint-smoke` job
//! re-asserts the same bytes from the repository root on both feature
//! configurations.

// Test-support helpers sit outside `#[test]` fns, so the workspace
// unwrap/expect deny (scoped to library code via clippy.toml) needs an
// explicit test-file opt-out here.
#![allow(clippy::expect_used)]

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("lint binary runs")
}

fn golden() -> String {
    std::fs::read_to_string("fixtures/expected.json").expect("golden checked in")
}

#[test]
fn json_output_matches_the_golden_bytes() {
    let out = lint(&["--json", "fixtures"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden());
    // Errors in the fixture set: gate fails (exit 1), but output is complete.
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn json_output_is_worker_count_independent() {
    let golden = golden();
    for workers in ["1", "2", "4", "8"] {
        let out = lint(&["--json", "--workers", workers, "fixtures"]);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "workers={workers} must produce identical bytes"
        );
    }
}

#[test]
fn good_decks_pass_the_default_gate() {
    let out = lint(&["fixtures/good"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("8 decks: 0 errors, 0 warnings, 5 infos"),
        "{text}"
    );
}

#[test]
fn deny_warnings_tightens_the_gate() {
    // Warnings alone pass by default…
    let out = lint(&["fixtures/bad/underdamped.sp"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // …and fail under --deny-warnings.
    let out = lint(&["--deny-warnings", "fixtures/bad/underdamped.sp"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L201 warning"), "{text}");
}

#[test]
fn file_labels_use_the_path_as_given() {
    let out = lint(&["--json", "fixtures/good/rc_line.sp"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"deck\": \"fixtures/good/rc_line.sp\""),
        "{text}"
    );
}

#[test]
fn missing_files_surface_as_l301_not_a_crash() {
    let out = lint(&["no/such/deck.sp"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L301 error"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(lint(&[]).status.code(), Some(2));
    assert_eq!(lint(&["--workers", "0", "x.sp"]).status.code(), Some(2));
    assert_eq!(lint(&["--bogus"]).status.code(), Some(2));
}

#[test]
fn rules_listing_covers_the_catalog() {
    let out = lint(&["--rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for code in ["L001", "L010", "L101", "L105", "L201", "L202", "L301"] {
        assert!(text.contains(code), "catalog lists {code}: {text}");
    }
}
