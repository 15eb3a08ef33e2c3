//! `grefar-verify` — the workspace's static-analysis engine.
//!
//! GreFar's guarantees (Theorem 1) are only as good as the code's
//! discipline: per-slot decisions must be bit-deterministic and feasible,
//! float comparisons must be tolerance-aware, hot paths must not panic or
//! allocate, and every telemetry event must match the central schema
//! registry. Clippy cannot express those rules, so this crate carries one
//! hand-rolled lexer (offline, zero external dependencies, no `syn`) plus
//! two layers of checks, run over the workspace by the `grefar-verify`
//! binary:
//!
//! ```text
//! cargo run -p grefar-verify                  # human-readable findings
//! cargo run -p grefar-verify -- --format json # machine-readable findings
//! cargo run -p grefar-verify -- deps-audit    # manifest hygiene only
//! ```
//!
//! * **Per-line lexical rules** ([`rules`]): `determinism`, `float-eq`,
//!   `no-panic` (plus a strict variant that also bans subscripts),
//!   `errors-doc`. These see one cleaned file (and its `fn` items) at a
//!   time.
//! * **Cross-file passes** ([`passes`]): `event-schema` (construction
//!   sites vs. [`grefar_obs::schema::EVENTS`]),
//!   `hot-path-alloc` (no heap allocation in the per-slot call tree),
//!   and `deps-audit` (lockfile duplicates, unused manifest entries).
//!   These see a whole [`model::Workspace`].
//!
//! Findings carry a [`findings::Severity`]: errors always fail the run,
//! warnings fail under `--deny-warnings` (which `scripts/check.sh`
//! passes). Each file is lexed once: [`tokens`] is the lexer, and
//! [`model::FileModel`] derives everything else from its token stream —
//! the item finder's `fn` items and `#[cfg(test)]` extents, the
//! [`scanner`]'s blanked code and `verify: allow(<rule>):
//! <justification>` directives, and the comment-free tokens the passes
//! pattern-match against.
//!
//! The library half exists so every rule and pass is testable against
//! fixture source (see `tests/fixtures.rs`) — the binary is a thin
//! driver that maps rules onto workspace scopes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod model;
pub mod passes;
pub mod rules;
pub mod scanner;
pub mod tokens;

pub use findings::{render_json, sort_findings, Finding, Severity};
pub use model::{FileModel, FnItem, Workspace};
pub use rules::{
    check_determinism, check_directives, check_errors_doc, check_float_eq, check_no_panic,
    check_no_panic_strict, Violation, RULE_DEPS_AUDIT, RULE_DETERMINISM, RULE_DIRECTIVE,
    RULE_ERRORS_DOC, RULE_EVENT_SCHEMA, RULE_FLOAT_EQ, RULE_HOT_PATH_ALLOC, RULE_NO_PANIC,
};
pub use scanner::{clean, CleanedSource};

/// Runs the named per-line rules over one file's source, returning
/// violations (including malformed suppression directives).
pub fn check_source(source: &str, rule_names: &[&str]) -> Vec<Violation> {
    let file = FileModel::from_source(String::new(), source.to_string());
    let cleaned = &file.cleaned;
    let mut out = check_directives(cleaned);
    for rule in rule_names {
        match *rule {
            RULE_DETERMINISM => out.extend(check_determinism(cleaned)),
            RULE_FLOAT_EQ => out.extend(check_float_eq(cleaned)),
            RULE_NO_PANIC => out.extend(check_no_panic(cleaned)),
            RULE_ERRORS_DOC => out.extend(check_errors_doc(cleaned, &file.fns)),
            other => out.push(Violation {
                line: 0,
                rule: RULE_DIRECTIVE,
                severity: Severity::Error,
                message: format!("unknown rule `{other}`"),
            }),
        }
    }
    out.sort_by_key(|v| v.line);
    out
}
