//! # agossip-lint
//!
//! A self-contained static-analysis pass that turns the workspace's two
//! load-bearing conventions into machine-checked invariants:
//!
//! * **bit-identical deterministic execution** — no randomized-iteration
//!   collections in the deterministic crates, no wall-clock reads outside
//!   the free-running runtime paths and the bench crate;
//! * **never-panic wire decode** — no `unwrap`/`expect`/panicking macros or
//!   literal indexing in decode/frame-handling code, and no truncating `as`
//!   casts in codec/wire code;
//!
//! plus a workspace-wide `unsafe` ban. The pass is a hand-rolled lexer
//! ([`lexer`]) feeding token-stream rules ([`rules`]) scoped by a path
//! policy table ([`policy`]); findings and waivers land in a JSON report
//! ([`report`]).
//!
//! ## Waivers
//!
//! An intentional violation is waived inline:
//!
//! ```text
//! let byte = (value & 0x7f) as u8; // lint:allow(no-unchecked-narrowing): masked to 7 bits
//! ```
//!
//! A waiver covers findings of the named rule on its own line, or — when the
//! comment stands alone — on the next line. Every waiver (used or not) is
//! listed in the report, so the audit surface is always visible. A waiver
//! with an unknown rule id or an empty reason is itself a finding
//! (`invalid-waiver`) and cannot be waived.
//!
//! ## Entry points
//!
//! * [`run_lint`] — walk a workspace root and lint it under
//!   [`policy::default_policy`] (what the tier-1 test and the CI `lint` job
//!   run);
//! * [`lint_source`] — lint one in-memory snippet under an explicit policy
//!   (what the corpus tests use).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]
#![warn(missing_docs)]

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use lexer::{lex, Tok};
use policy::Policy;
use report::{Finding, Report, Waiver};
use rules::{check, strip_cfg_test, RuleId, Violation};

/// Directories under the workspace root that the linter walks.
const WALK_ROOTS: [&str; 2] = ["crates", "tests"];

/// Paths (relative, `/`-separated) excluded from the walk: the corpus holds
/// deliberate violations.
const WALK_EXCLUDE: [&str; 1] = ["crates/lint/tests/corpus/"];

/// Lints one file's source text under `policy`, as if it lived at
/// `rel_path`. Returns the findings plus every waiver present in the file.
pub fn lint_source(rel_path: &str, source: &str, policy: &Policy) -> (Vec<Finding>, Vec<Waiver>) {
    let tokens = lex(source);

    // Waivers are collected from the full stream (a waiver inside a test
    // module still documents intent), findings only from non-test code.
    let (mut waivers, mut findings) = parse_waivers(rel_path, &tokens);

    let stripped = strip_cfg_test(&tokens);
    let mut violations: Vec<Violation> = Vec::new();
    for rule in policy.rules_for(rel_path) {
        violations.extend(check(rule, &stripped));
    }

    for v in violations {
        // A waiver matches if it names the rule and sits on the finding's
        // line (trailing comment) or the line directly above.
        let reason = waivers
            .iter_mut()
            .find(|w| w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line))
            .map(|w| {
                w.used = true;
                w.reason.clone()
            });
        findings.push(Finding {
            rule: v.rule,
            file: rel_path.to_string(),
            line: v.line,
            what: v.what,
            waive_reason: reason,
        });
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    (findings, waivers)
}

/// Extracts `lint:allow(rule): reason` waivers from the line comments, and
/// `invalid-waiver` findings for malformed ones.
fn parse_waivers(rel_path: &str, tokens: &[lexer::Token]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for t in tokens {
        let Tok::LineComment(text) = &t.kind else {
            continue;
        };
        // A waiver comment *starts* with the marker (after whitespace);
        // prose that merely mentions `lint:allow(…)` — docs, this very
        // function — is not a waiver.
        let trimmed = text.trim_start();
        if !trimmed.starts_with("lint:allow") {
            continue;
        }
        let at = text.len() - trimmed.len();
        let invalid = |what: &str| Finding {
            rule: RuleId::InvalidWaiver,
            file: rel_path.to_string(),
            line: t.line,
            what: what.to_string(),
            waive_reason: None,
        };
        // Shape: lint:allow(<rule>[, <rule>…]): <reason>
        let rest = &text[at + "lint:allow".len()..];
        let Some(open) = rest.find('(') else {
            findings.push(invalid("waiver is missing `(<rule>)`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(invalid("waiver is missing the closing `)`"));
            continue;
        };
        if open != 0 || close < open {
            findings.push(invalid(
                "malformed waiver; expected `lint:allow(<rule>): <reason>`",
            ));
            continue;
        }
        let reason = match rest[close + 1..].strip_prefix(':') {
            Some(r) if !r.trim().is_empty() => r.trim().to_string(),
            _ => {
                findings.push(invalid(
                    "waiver has no reason; write `lint:allow(<rule>): <why>`",
                ));
                continue;
            }
        };
        for name in rest[open + 1..close].split(',') {
            let name = name.trim();
            match RuleId::parse(name) {
                Some(rule) => waivers.push(Waiver {
                    rule,
                    file: rel_path.to_string(),
                    line: t.line,
                    reason: reason.clone(),
                    used: false,
                }),
                None => findings.push(Finding {
                    rule: RuleId::InvalidWaiver,
                    file: rel_path.to_string(),
                    line: t.line,
                    what: format!("waiver names unknown rule `{name}`"),
                    waive_reason: None,
                }),
            }
        }
    }
    (waivers, findings)
}

/// Walks `root` and lints every `.rs` file under `crates/` and `tests/`
/// (the corpus directory excluded — it holds deliberate violations) with the
/// workspace [`policy::default_policy`]. File order (and therefore report
/// order) is deterministic: paths are walked sorted.
pub fn run_lint(root: &Path) -> std::io::Result<Report> {
    run_lint_with(root, &policy::default_policy())
}

/// [`run_lint`] under an explicit policy.
pub fn run_lint_with(root: &Path, policy: &Policy) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for dir in WALK_ROOTS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = rel_path(root, &path);
        if WALK_EXCLUDE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        let (findings, waivers) = lint_source(&rel, &source, policy);
        report.findings.extend(findings);
        report.waivers.extend(waivers);
        report.files.push(rel);
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `target/` never nests under crates/ or tests/ sources, but be
            // safe against local build dirs.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (policy patterns assume `/`).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rule: RuleId, src: &str) -> Vec<Finding> {
        lint_source("snippet.rs", src, &Policy::single_rule(rule)).0
    }

    #[test]
    fn waiver_on_same_line_covers_the_finding() {
        let src = "let x = v[0]; // lint:allow(never-panic-decode): header checked above\n";
        let findings = lint_one(RuleId::NeverPanicDecode, src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].is_unwaived());
        assert_eq!(
            findings[0].waive_reason.as_deref(),
            Some("header checked above")
        );
    }

    #[test]
    fn waiver_on_line_above_covers_the_finding() {
        let src = "// lint:allow(no-unsafe): demo\nunsafe { }\n";
        let findings = lint_one(RuleId::NoUnsafe, src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].is_unwaived());
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_cover() {
        let src = "let x = v[0]; // lint:allow(no-unsafe): wrong rule\n";
        let findings = lint_one(RuleId::NeverPanicDecode, src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].is_unwaived());
    }

    #[test]
    fn unused_and_malformed_waivers_are_reported() {
        let src = "\
// lint:allow(no-unsafe): nothing unsafe here actually
// lint:allow(not-a-rule): bogus
// lint:allow(no-unsafe):
let x = 1;
";
        let (findings, waivers) =
            lint_source("snippet.rs", src, &Policy::single_rule(RuleId::NoUnsafe));
        assert_eq!(waivers.len(), 1);
        assert!(!waivers[0].used, "no finding matched it");
        let invalid: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::InvalidWaiver)
            .collect();
        assert_eq!(
            invalid.len(),
            2,
            "unknown rule + missing reason: {findings:?}"
        );
        assert!(invalid.iter().all(|f| f.is_unwaived()));
    }

    #[test]
    fn comma_separated_waiver_covers_both_rules() {
        let src =
            "let y = x as u8; // lint:allow(no-unchecked-narrowing, never-panic-decode): masked\n";
        let findings = lint_one(RuleId::NoUncheckedNarrowing, src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].is_unwaived());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "\
fn shipped() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v = vec![1]; assert_eq!(v[0], super::shipped().checked_sub(0).unwrap()); }
}
";
        let findings = lint_one(RuleId::NeverPanicDecode, src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_unix_is_not_exempt() {
        let src = "#[cfg(unix)]\nfn f(v: &[u8]) -> u8 { v[0] }\n";
        let findings = lint_one(RuleId::NeverPanicDecode, src);
        assert_eq!(findings.len(), 1);
    }
}
