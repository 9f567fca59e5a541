//! # rlc-audit — workspace invariant auditor
//!
//! Static analysis over this repository's *own* Rust source, guarding
//! the three contracts every shipped surface depends on:
//!
//! * **determinism** (`A1xx`) — the byte-determinism story ("reports
//!   identical at 1/2/4/8 workers") dies the moment a hash container's
//!   iteration order or a wall-clock read reaches a render path;
//! * **unsafe hygiene** (`A2xx`) — the DESIGN.md §15 packed-kernel
//!   rules (SAFETY comments citing a DESIGN section, `debug_assert!`
//!   guards next to `get_unchecked`), made checkable;
//! * **schema stability** (`A3xx`) — every `rlc-*/N` version tag must
//!   match a golden descriptor under `tests/schemas/`, so key-set
//!   changes force a version bump (the dynamic half lives in the root
//!   `schema_drift` test);
//! * **error hygiene** (`A4xx`) — panic-family macros in shipped
//!   library paths, extending the workspace `unwrap_used` deny.
//!
//! Exemptions are written down next to the code they excuse with an
//! inline `audit:allow` comment carrying the rule codes and a mandatory
//! reason string; see DESIGN.md §17 for the exact syntax and the full
//! rule catalog. There is no external parser: the scanner strips
//! comments and literals with a small state machine
//! ([`scanner`]), so patterns inside strings, comments, and doc
//! comments never fire.
//!
//! The `audit` binary runs the whole workspace through [`run`] and
//! renders either a compiler-style listing or the deterministic
//! `rlc-audit/1` JSON document.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

pub mod report;
pub mod rules;
pub mod scanner;
pub mod schema;

pub use report::{AuditReport, Finding, Waived};
pub use rules::{classify, FileClass, Rule, RULES};

/// Configuration for one audit run.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Workspace root: the directory walked for `.rs` sources.
    pub root: PathBuf,
    /// Descriptor directory; defaults to `<root>/tests/schemas`.
    pub schemas_dir: Option<PathBuf>,
    /// Path filters: when non-empty, only files whose workspace-relative
    /// path contains one of these substrings are audited — and the
    /// workspace-level schema cross-check (A301/A302) is skipped, since
    /// a partial view cannot decide staleness.
    pub filters: Vec<String>,
}

impl AuditOptions {
    /// Audits everything under `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            schemas_dir: None,
            filters: Vec::new(),
        }
    }
}

/// Runs the audit and returns the sorted report.
pub fn run(options: &AuditOptions) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    collect_sources(&options.root, &options.root, &mut files)?;
    files.sort();

    let mut report = AuditReport::default();
    // Version tags found in library string literals, for A3xx:
    // tag -> first (file, 1-based line) in path-sorted order.
    let mut tags: BTreeMap<String, (String, usize)> = BTreeMap::new();
    // Waivers keyed by (file, covered line) for the A301 pass.
    let mut tag_waivers: BTreeMap<(String, usize), (Vec<String>, String)> = BTreeMap::new();

    for (rel, path) in &files {
        if !options.filters.is_empty() && !options.filters.iter().any(|f| rel.contains(f.as_str()))
        {
            continue;
        }
        let Some(class) = rules::classify(rel) else {
            continue;
        };
        let content = std::fs::read_to_string(path)?;
        let scanned = scanner::scan(&content);
        let waivers = rules::check_file(
            rel,
            &scanned,
            class,
            &mut report.findings,
            &mut report.waivers,
        );
        report.files += 1;

        if class == FileClass::Library {
            for (idx, line) in scanned.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                for s in &line.strings {
                    for tag in schema::version_tags(s) {
                        tags.entry(tag).or_insert_with(|| (rel.clone(), idx + 1));
                    }
                }
            }
            for w in &waivers {
                for covered in [w.line, w.line + 1] {
                    tag_waivers
                        .entry((rel.clone(), covered + 1))
                        .or_insert_with(|| (w.codes.clone(), w.reason.clone()));
                }
            }
        }
    }

    if options.filters.is_empty() {
        let schemas_dir = options
            .schemas_dir
            .clone()
            .unwrap_or_else(|| options.root.join("tests/schemas"));
        schema_rules(&schemas_dir, &tags, &tag_waivers, &mut report)?;
    }

    report.sort();
    Ok(report)
}

/// A3xx: cross-checks the version tags found in library strings against
/// the descriptor files under `tests/schemas/`.
fn schema_rules(
    schemas_dir: &Path,
    tags: &BTreeMap<String, (String, usize)>,
    tag_waivers: &BTreeMap<(String, usize), (Vec<String>, String)>,
    report: &mut AuditReport,
) -> io::Result<()> {
    let mut descriptors: BTreeSet<String> = BTreeSet::new();
    if schemas_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(schemas_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        entries.sort();
        for path in entries {
            let file = format!("tests/schemas/{}", file_name(&path));
            match schema::parse_descriptor(&std::fs::read_to_string(&path)?) {
                Ok((tag, _keys)) => {
                    if schema::descriptor_file_name(&tag) != file_name(&path) {
                        report.findings.push(Finding {
                            code: "A302".to_string(),
                            file: file.clone(),
                            line: 1,
                            message: format!(
                                "descriptor file name does not match its tag {tag:?} \
                                 (expected {})",
                                schema::descriptor_file_name(&tag)
                            ),
                        });
                    }
                    descriptors.insert(tag);
                }
                Err(why) => report.findings.push(Finding {
                    code: "A302".to_string(),
                    file,
                    line: 1,
                    message: format!("unreadable descriptor: {why}"),
                }),
            }
        }
    }

    // Family name -> pinned versions, for the bump diagnostic.
    let mut families: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for tag in &descriptors {
        if let Some((family, version)) = tag.rsplit_once('/') {
            families.entry(family).or_default().push(version);
        }
    }

    for (tag, (file, line)) in tags {
        if descriptors.contains(tag) {
            continue;
        }
        let family = tag.rsplit_once('/').map(|(f, _)| f).unwrap_or(tag);
        let message = match families.get(family) {
            Some(pinned) => format!(
                "source emits {tag:?} but tests/schemas pins {family}/{}; regenerate \
                 descriptors with UPDATE_SCHEMAS=1 cargo test --test schema_drift",
                pinned.join(", ")
            ),
            None => format!(
                "source emits {tag:?} with no descriptor in tests/schemas; add one \
                 with UPDATE_SCHEMAS=1 cargo test --test schema_drift"
            ),
        };
        match tag_waivers.get(&(file.clone(), *line)) {
            Some((codes, reason)) if codes.iter().any(|c| c == "A301") => {
                report.waivers.push(Waived {
                    code: "A301".to_string(),
                    file: file.clone(),
                    line: *line,
                    reason: reason.clone(),
                });
            }
            _ => report.findings.push(Finding {
                code: "A301".to_string(),
                file: file.clone(),
                line: *line,
                message,
            }),
        }
    }

    for tag in &descriptors {
        if !tags.contains_key(tag) {
            report.findings.push(Finding {
                code: "A302".to_string(),
                file: format!("tests/schemas/{}", schema::descriptor_file_name(tag)),
                line: 1,
                message: format!(
                    "stale descriptor: no library source emits {tag:?}; delete it or \
                     restore the surface"
                ),
            });
        }
    }
    Ok(())
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Recursively collects `.rs` files under `dir` as
/// `(workspace-relative forward-slash path, absolute path)` pairs.
/// Hidden directories, `target/`, and `vendor/` are never entered, and
/// neither is a nested workspace (see [`is_nested_workspace`]).
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        let name = file_name(&entry);
        if entry.is_dir() {
            if name.starts_with('.')
                || name == "target"
                || name == "vendor"
                || is_nested_workspace(&entry)
            {
                continue;
            }
            collect_sources(root, &entry, out)?;
        } else if name.ends_with(".rs") {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, entry));
        }
    }
    Ok(())
}

/// Whether `dir` holds a `Cargo.toml` declaring its own `[workspace]`.
/// Cargo never builds such a directory as a member of the enclosing
/// workspace (it is a separate build with its own lock file and
/// profile), so its sources are outside the audited contract. The walk
/// only asks this of subdirectories, never of the audit root itself.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_workspaces_are_skipped_but_members_are_audited() {
        let root = std::env::temp_dir().join(format!("rlc-audit-nested-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
            std::fs::write(path, text).expect("write fixture file");
        };
        let hazard = "use std::collections::HashMap;\npub type M = HashMap<u8, u8>;\n";
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("crates/member/Cargo.toml", "[package]\nname = \"member\"\n");
        write("crates/member/src/lib.rs", hazard);
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\n",
        );
        write("bench/src/main.rs", hazard);
        std::fs::create_dir_all(root.join("tests/schemas")).expect("mkdir schemas");

        let report = run(&AuditOptions::new(&root));
        let _ = std::fs::remove_dir_all(&root);
        let report = report.expect("audit run");
        let hits: Vec<(&str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.code.as_str(), f.file.as_str()))
            .collect();
        assert_eq!(hits, vec![("A101", "crates/member/src/lib.rs")]);
        assert_eq!(
            report.files, 1,
            "the nested workspace's sources are not read"
        );
    }

    #[test]
    fn classify_scopes_paths() {
        assert_eq!(
            classify("crates/tree/src/netlist.rs"),
            Some(FileClass::Library)
        );
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Library));
        assert_eq!(
            classify("crates/serve/src/bin/serve.rs"),
            Some(FileClass::Bin)
        );
        assert_eq!(classify("crates/engine/tests/loom_service.rs"), None);
        assert_eq!(classify("examples/buffer_synthesis.rs"), None);
        assert_eq!(classify("crates/bench/benches/engine.rs"), None);
        assert_eq!(classify("vendor/proptest/src/lib.rs"), None);
        assert_eq!(classify("crates/tree/src/netlist.txt"), None);
    }
}
