//! Findings, waivers and the machine-readable JSON report.
//!
//! The workspace has no serde (offline vendor policy), so the report is
//! emitted by a small hand-rolled writer. The schema is flat on purpose —
//! CI consumers and humans read the same artifact:
//!
//! ```json
//! {
//!   "version": 1,
//!   "files_scanned": 93,
//!   "unwaived_count": 0,
//!   "findings": [
//!     {"rule": "…", "file": "…", "line": 7, "what": "…",
//!      "waived": true, "waive_reason": "…"}
//!   ],
//!   "waivers": [
//!     {"rule": "…", "file": "…", "line": 7, "reason": "…", "used": true}
//!   ]
//! }
//! ```
//!
//! Every waiver is listed whether or not it matched a finding, so the full
//! audit surface — what is suppressed where, and any stale suppressions —
//! is one artifact.

use std::fmt::Write as _;

use crate::rules::RuleId;

/// One diagnostic: a rule violation at a location, possibly waived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What matched.
    pub what: String,
    /// The waiver reason, when an inline waiver covers this finding.
    pub waive_reason: Option<String>,
}

impl Finding {
    /// True if no waiver covers this finding (what the gate counts).
    pub fn is_unwaived(&self) -> bool {
        self.waive_reason.is_none()
    }
}

/// One `// lint:allow(rule): reason` comment found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The justification after the colon.
    pub reason: String,
    /// Whether any finding actually matched this waiver.
    pub used: bool,
}

/// Everything one lint run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workspace-relative paths of the `.rs` files lexed, in walk order.
    pub files: Vec<String>,
    /// All findings, waived ones included, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// All waivers seen, used or not, sorted by (file, line).
    pub waivers: Vec<Waiver>,
}

impl Report {
    /// Findings not covered by a waiver — the gate fails if any exist.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_unwaived())
    }

    /// Count of unwaived findings.
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Human-readable `file:line: [rule] what` diagnostics (unwaived only).
    pub fn render_diagnostics(&self) -> String {
        let mut out = String::new();
        for f in self.unwaived() {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.what);
        }
        out
    }

    /// The machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files.len());
        let _ = writeln!(out, "  \"unwaived_count\": {},", self.unwaived_count());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"what\": {}, \"waived\": {}, \"waive_reason\": {}}}",
                json_str(f.rule.id()),
                json_str(&f.file),
                f.line,
                json_str(&f.what),
                !f.is_unwaived(),
                f.waive_reason.as_deref().map_or("null".to_string(), json_str),
            );
        }
        out.push_str("\n  ],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"used\": {}}}",
                json_str(w.rule.id()),
                json_str(&w.file),
                w.line,
                json_str(&w.reason),
                w.used,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed() {
        let report = Report {
            files: vec!["a.rs".into(), "b.rs".into()],
            findings: vec![Finding {
                rule: RuleId::NoUnsafe,
                file: "a.rs".into(),
                line: 3,
                what: "`unsafe` with \"quotes\"".into(),
                waive_reason: None,
            }],
            waivers: vec![Waiver {
                rule: RuleId::NoWallClock,
                file: "b.rs".into(),
                line: 9,
                reason: "free-running path".into(),
                used: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"unwaived_count\": 1"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"used\": true"));
        // Empty report stays valid.
        let empty = Report::default().to_json();
        assert!(empty.contains("\"findings\": []") || empty.contains("\"findings\": [\n  ]"));
    }
}
