//! Findings: severities, file attribution, and machine-readable output.
//!
//! A [`Finding`] is a [`Violation`](crate::rules::Violation) pinned to a
//! workspace-relative file. The driver renders findings either as the
//! classic `file:line: [rule] message` text or — with `--format json` —
//! as one JSON document (schema below) that `grefar-report lint-diff`
//! consumes to diff lint baselines:
//!
//! ```json
//! {
//!   "version": 1,
//!   "tool": "grefar-verify",
//!   "errors": 2,
//!   "warnings": 1,
//!   "findings": [
//!     {"file": "crates/lp/src/problem.rs", "line": 66,
//!      "rule": "hot-path-alloc", "severity": "error",
//!      "message": "`Vec::new()` allocates in the per-slot call tree ..."}
//!   ]
//! }
//! ```
//!
//! Findings are sorted by `(file, line, rule)`; the document is a single
//! flat object so `grefar_obs::json` can parse it back.

use grefar_obs::json::write_string;

/// How bad a finding is. Errors always fail the run; warnings fail only
/// under `--deny-warnings` (which `scripts/check.sh` passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but sometimes legitimate (e.g. a `collect`
    /// whose size hint preallocates in practice).
    Warning,
    /// A contract violation: unregistered event, missing field, heap
    /// allocation in the per-slot tree, panic path in a no-panic scope.
    Error,
}

impl Severity {
    /// The wire label (`"error"` / `"warning"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, attributed to a workspace-relative file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// What was found.
    pub message: String,
}

impl Finding {
    /// The classic one-line text rendering.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: [{}{}] {}",
            self.file,
            self.line,
            self.rule,
            match self.severity {
                Severity::Error => "",
                Severity::Warning => "/warn",
            },
            self.message
        )
    }
}

/// Sorts findings into canonical `(file, line, rule)` order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Renders the machine-readable findings document (see [module
/// docs](self) for the schema). Input order is preserved — call
/// [`sort_findings`] first for canonical output.
pub fn render_json(findings: &[Finding]) -> String {
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    let mut out = String::with_capacity(128 + findings.len() * 128);
    out.push_str(&format!(
        "{{\"version\":1,\"tool\":\"grefar-verify\",\"errors\":{errors},\
         \"warnings\":{warnings},\"findings\":["
    ));
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\":");
        write_string(&mut out, &f.file);
        out.push_str(&format!(",\"line\":{},\"rule\":", f.line));
        write_string(&mut out, f.rule);
        out.push_str(",\"severity\":\"");
        out.push_str(f.severity.label());
        out.push_str("\",\"message\":");
        write_string(&mut out, &f.message);
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/lp/src/problem.rs".to_string(),
                line: 66,
                rule: "hot-path-alloc",
                severity: Severity::Error,
                message: "`Vec::new()` in the per-slot tree".to_string(),
            },
            Finding {
                file: "crates/core/src/solver/greedy.rs".to_string(),
                line: 71,
                rule: "hot-path-alloc",
                severity: Severity::Warning,
                message: "a \"collect\" with\nnewline".to_string(),
            },
        ]
    }

    #[test]
    fn json_document_counts_and_escapes() {
        let mut findings = sample();
        sort_findings(&mut findings);
        let doc = render_json(&findings);
        assert!(doc
            .starts_with("{\"version\":1,\"tool\":\"grefar-verify\",\"errors\":1,\"warnings\":1,"));
        assert!(doc.contains("\\\"collect\\\" with\\nnewline"), "{doc}");
        // Sorted: greedy.rs before problem.rs.
        let greedy = doc.find("greedy.rs").unwrap();
        let problem = doc.find("problem.rs").unwrap();
        assert!(greedy < problem);
    }

    #[test]
    fn empty_document_is_valid() {
        let doc = render_json(&[]);
        assert_eq!(
            doc,
            "{\"version\":1,\"tool\":\"grefar-verify\",\"errors\":0,\"warnings\":0,\"findings\":[]}\n"
        );
    }

    #[test]
    fn text_rendering_marks_warnings() {
        let findings = sample();
        assert!(findings[0].render_text().contains("[hot-path-alloc]"));
        assert!(findings[1].render_text().contains("[hot-path-alloc/warn]"));
    }
}
