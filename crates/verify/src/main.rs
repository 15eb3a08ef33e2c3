//! The `grefar-verify` driver: maps rules and passes onto workspace
//! scopes and exits non-zero on errors (and, under `--deny-warnings`,
//! on warnings too).
//!
//! ```text
//! grefar-verify [--format text|json] [--deny-warnings]
//! grefar-verify deps-audit [--format text|json]
//! ```
//!
//! Scopes (rendered by `scope_table()`; a unit test keeps this table,
//! the `SCOPES` array, and DESIGN.md §"Correctness tooling" in sync):
//!
//! | rule | scope |
//! |------|-------|
//! | `determinism` | `crates/{core,convex,lp,sim,report,faults,ingest,metrics,served,soak}/src` |
//! | `float-eq` | `crates/{core,convex,lp,sim,types,cluster,report,faults,ingest,metrics,served,soak}/src` |
//! | `no-panic` | `crates/lp/src`, `crates/core/src/solver` |
//! | `no-panic-strict` | `crates/sim/src/simulation.rs`, `crates/ingest/src/client.rs` |
//! | `errors-doc` | `crates/{core,lp}/src` |
//! | `event-schema` | `crates/{core,convex,lp,sim,ingest,bench,metrics,served}/src`, `crates/obs/src/span.rs` |
//! | `hot-path-alloc` | `crates/{convex,lp}/src`, `crates/core/src/solver` |
//!
//! `deps-audit` runs over the repository manifests (`Cargo.lock` and
//! every `crates/*/Cargo.toml`) rather than source scopes, both in the
//! full run and standalone via the subcommand.
//!
//! Test files (`tests/`, `benches/`, `examples/`, `src/bin`) and
//! `#[cfg(test)]` modules are exempt everywhere.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use grefar_verify::passes::{deps_audit, event_schema, hot_path_alloc};
use grefar_verify::{
    check_determinism, check_directives, check_errors_doc, check_float_eq, check_no_panic,
    check_no_panic_strict, render_json, sort_findings, Finding, Severity, Workspace,
};

/// A rule applied to a set of workspace-relative paths (directories or
/// single `.rs` files).
struct Scope {
    /// The label shown in the scope table (rule name, possibly with a
    /// mode suffix such as `no-panic-strict`).
    label: &'static str,
    paths: &'static [&'static str],
}

const SCOPES: &[Scope] = &[
    Scope {
        label: "determinism",
        paths: &[
            "crates/core/src",
            "crates/convex/src",
            "crates/lp/src",
            "crates/sim/src",
            "crates/report/src",
            "crates/faults/src",
            "crates/ingest/src",
            "crates/metrics/src",
            "crates/served/src",
            "crates/soak/src",
        ],
    },
    Scope {
        label: "float-eq",
        paths: &[
            "crates/core/src",
            "crates/convex/src",
            "crates/lp/src",
            "crates/sim/src",
            "crates/types/src",
            "crates/cluster/src",
            "crates/report/src",
            "crates/faults/src",
            "crates/ingest/src",
            "crates/metrics/src",
            "crates/served/src",
            "crates/soak/src",
        ],
    },
    Scope {
        label: "no-panic",
        paths: &["crates/lp/src", "crates/core/src/solver"],
    },
    Scope {
        label: "no-panic-strict",
        paths: &[
            "crates/sim/src/simulation.rs",
            "crates/ingest/src/client.rs",
        ],
    },
    Scope {
        label: "errors-doc",
        paths: &["crates/core/src", "crates/lp/src"],
    },
    Scope {
        label: "event-schema",
        paths: &[
            "crates/core/src",
            "crates/convex/src",
            "crates/lp/src",
            "crates/sim/src",
            "crates/ingest/src",
            "crates/bench/src",
            "crates/metrics/src",
            "crates/served/src",
            "crates/obs/src/span.rs",
        ],
    },
    Scope {
        label: "hot-path-alloc",
        paths: &[
            "crates/convex/src",
            "crates/lp/src",
            "crates/core/src/solver",
        ],
    },
];

/// Renders the canonical scope table rows — the single source of truth
/// the doc comment above and DESIGN.md must reproduce verbatim (asserted
/// by the sync test below; unused in the non-test binary).
#[cfg_attr(not(test), allow(dead_code))]
fn scope_table() -> Vec<String> {
    SCOPES
        .iter()
        .map(|s| {
            // Compress runs of `crates/<name>/src` into brace shorthand;
            // everything else (single files, subdirectories) verbatim.
            let mut simple: Vec<&str> = Vec::new();
            let mut other: Vec<&str> = Vec::new();
            for p in s.paths {
                match p
                    .strip_prefix("crates/")
                    .and_then(|r| r.strip_suffix("/src"))
                {
                    Some(name) if !name.contains('/') => simple.push(name),
                    _ => other.push(p),
                }
            }
            let mut parts = Vec::new();
            match simple.len() {
                0 => {}
                1 => parts.push(format!("`crates/{}/src`", simple[0])),
                _ => parts.push(format!("`crates/{{{}}}/src`", simple.join(","))),
            }
            for p in other {
                parts.push(format!("`{p}`"));
            }
            format!("| `{}` | {} |", s.label, parts.join(", "))
        })
        .collect()
}

fn scope_paths(label: &str) -> &'static [&'static str] {
    SCOPES
        .iter()
        .find(|s| s.label == label)
        .map(|s| s.paths)
        .unwrap_or(&[])
}

fn workspace_root() -> PathBuf {
    // crates/verify -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn in_scope(rel: &str, paths: &[&str]) -> bool {
    paths
        .iter()
        .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
}

/// Runs the per-line lexical rules over every file in their scopes.
fn run_lexical_rules(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let src = &file.cleaned;
        let mut violations = Vec::new();
        // Malformed directives are a finding wherever any rule applies.
        violations.extend(check_directives(src));
        if in_scope(&file.rel, scope_paths("determinism")) {
            violations.extend(check_determinism(src));
        }
        if in_scope(&file.rel, scope_paths("float-eq")) {
            violations.extend(check_float_eq(src));
        }
        if in_scope(&file.rel, scope_paths("no-panic")) {
            violations.extend(check_no_panic(src));
        }
        if in_scope(&file.rel, scope_paths("no-panic-strict")) {
            violations.extend(check_no_panic_strict(src));
        }
        if in_scope(&file.rel, scope_paths("errors-doc")) {
            violations.extend(check_errors_doc(src, &file.fns));
        }
        out.extend(violations.into_iter().map(|v| Finding {
            file: file.rel.clone(),
            line: v.line,
            rule: v.rule,
            severity: v.severity,
            message: v.message,
        }));
    }
    out
}

fn usage() -> ! {
    eprintln!("usage: grefar-verify [deps-audit] [--format text|json] [--deny-warnings]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut format_json = false;
    let mut deny_warnings = false;
    let mut deps_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "deps-audit" => deps_only = true,
            "--deny-warnings" => deny_warnings = true,
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let root = workspace_root();
    let mut findings: Vec<Finding> = Vec::new();
    let mut files_scanned = 0usize;

    if deps_only {
        findings.extend(deps_audit::check(&root));
    } else {
        // One workspace model over the union of every scope, so each file
        // is read, cleaned, and tokenized exactly once.
        let mut all_paths: Vec<&str> = Vec::new();
        for scope in SCOPES {
            for p in scope.paths {
                if !all_paths.contains(p) {
                    all_paths.push(p);
                }
            }
        }
        let (ws, io_errors) = Workspace::load(&root, &all_paths);
        files_scanned = ws.files.len();
        for err in io_errors {
            eprintln!("grefar-verify: {err}");
            findings.push(Finding {
                file: err,
                line: 0,
                rule: grefar_verify::RULE_DIRECTIVE,
                severity: Severity::Error,
                message: "cannot read file".to_string(),
            });
        }

        findings.extend(run_lexical_rules(&ws));
        findings.extend(event_schema::check(&ws, scope_paths("event-schema")));
        for file in &ws.files {
            if in_scope(&file.rel, scope_paths("hot-path-alloc")) {
                findings.extend(hot_path_alloc::check(file));
            }
        }
        findings.extend(deps_audit::check(&root));
    }

    sort_findings(&mut findings);
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;

    if format_json {
        println!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render_text());
        }
        if findings.is_empty() {
            if deps_only {
                println!("grefar-verify: manifests clean");
            } else {
                println!("grefar-verify: {files_scanned} files clean");
            }
        } else {
            eprintln!("grefar-verify: {errors} error(s), {warnings} warning(s)");
        }
    }

    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAIN_SRC: &str = include_str!("main.rs");
    const DESIGN_MD: &str = include_str!("../../../DESIGN.md");

    /// Satellite check: the scope table is written down in two prose
    /// places (the doc comment above and DESIGN.md §"Correctness
    /// tooling"). Both must carry the rows `scope_table()` renders from
    /// the live `SCOPES` array, so none of the three can drift.
    #[test]
    fn scope_table_is_in_sync_with_docs() {
        let rows = scope_table();
        assert_eq!(rows.len(), SCOPES.len());
        for row in &rows {
            let doc_row = format!("//! {row}");
            assert!(
                MAIN_SRC.contains(&doc_row),
                "main.rs doc comment is missing scope row:\n{row}"
            );
            assert!(
                DESIGN_MD.contains(row.as_str()),
                "DESIGN.md §Correctness tooling is missing scope row:\n{row}"
            );
        }
    }

    #[test]
    fn scope_lookup_and_membership() {
        assert!(in_scope(
            "crates/lp/src/simplex.rs",
            scope_paths("no-panic")
        ));
        assert!(in_scope(
            "crates/core/src/solver/greedy.rs",
            scope_paths("no-panic")
        ));
        assert!(!in_scope(
            "crates/core/src/grefar.rs",
            scope_paths("no-panic")
        ));
        // File-granular scopes match exactly, not as prefixes.
        assert!(in_scope(
            "crates/sim/src/simulation.rs",
            scope_paths("no-panic-strict")
        ));
        assert!(!in_scope(
            "crates/sim/src/simulation_helpers.rs",
            scope_paths("no-panic-strict")
        ));
    }
}
