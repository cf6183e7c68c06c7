//! The tier-1 gate: the real workspace must lint clean.
//!
//! Zero unwaived findings under the default policy, and no stale waivers
//! (a waiver that no longer matches a finding must be deleted, keeping the
//! audit surface honest). CI runs the same check as the `lint` job, which
//! additionally uploads the JSON report artifact.

use std::path::PathBuf;

use agossip_lint::policy::default_policy;
use agossip_lint::run_lint;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("lint crate lives at <root>/crates/lint");
    assert!(
        root.join("Cargo.toml").is_file(),
        "not a workspace root: {}",
        root.display()
    );
    root
}

#[test]
fn workspace_has_zero_unwaived_findings() {
    let report = run_lint(&workspace_root()).expect("workspace walk");
    assert!(
        report.files.len() > 50,
        "suspiciously small walk ({} files) — wrong root?",
        report.files.len()
    );
    let diagnostics = report.render_diagnostics();
    assert_eq!(
        report.unwaived_count(),
        0,
        "unwaived lint findings:\n{diagnostics}"
    );
}

#[test]
fn workspace_has_no_stale_waivers() {
    let report = run_lint(&workspace_root()).expect("workspace walk");
    let stale: Vec<String> = report
        .waivers
        .iter()
        .filter(|w| !w.used)
        .map(|w| format!("{}:{}: unused waiver for {}", w.file, w.line, w.rule))
        .collect();
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

/// A rule scoped to an exact file must name a file the walk really scans:
/// otherwise deleting or renaming that file silently drops it out of the
/// rule's scope. Directory patterns (ending in `/`) and the match-all empty
/// pattern are not file names and are skipped.
#[test]
fn every_exact_file_scope_names_a_scanned_file() {
    let report = run_lint(&workspace_root()).expect("workspace walk");
    let missing: Vec<String> = default_policy()
        .entries
        .iter()
        .flat_map(|entry| {
            entry
                .include
                .iter()
                .chain(&entry.exclude)
                .map(move |pattern| (entry.rule, pattern))
        })
        .filter(|(_, pattern)| !pattern.is_empty() && !pattern.ends_with('/'))
        .filter(|(_, pattern)| !report.files.contains(pattern))
        .map(|(rule, pattern)| format!("{rule}: `{pattern}` is not a scanned file"))
        .collect();
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}
