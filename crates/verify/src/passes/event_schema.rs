//! The `event-schema` pass: the telemetry contract as a compile gate.
//!
//! The [`grefar_obs::schema::EVENTS`] registry declares every event name
//! and its required/optional fields. This pass holds every emission site
//! to it: each `Event::new("…")` in the emit scope must use a registered
//! name, set no undeclared field, and set every required field at least
//! once on some path. Field keys are collected from the builder chain
//! *and*, when the event is bound to a variable
//! (`let mut event = Event::new(…)`), from every later
//! `event.field("…", …)` / `event = event.field(…)` in the enclosing
//! function — so conditionally-attached fields count (they must be
//! declared `optional`). Sites with non-literal names or computed keys are
//! skipped.
//!
//! The consumer side needs no pass: the metrics fold and the report
//! stream both `match` on [`grefar_obs::decode::TelemetryEvent`], which
//! has one variant per registered telemetry event, and both deny wildcard
//! arms through clippy, so the compiler checks coverage.

use grefar_obs::schema;

use crate::findings::{Finding, Severity};
use crate::model::{FileModel, Workspace};
use crate::rules::RULE_EVENT_SCHEMA;
use crate::tokens::{Token, TokenKind};

/// Runs the pass over the construction sites in `emit_scope`
/// (workspace-relative directories or `.rs` files).
pub fn check(ws: &Workspace, emit_scope: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if in_scope(&file.rel, emit_scope) {
            check_emissions(file, &mut out);
        }
    }
    out
}

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|s| rel == *s || (rel.starts_with(s) && rel.as_bytes().get(s.len()) == Some(&b'/')))
}

/// Index one past the `)` matching the `(` at `open`.
fn skip_parens(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Consumes a `.field("key", …)` chain starting at `j`; returns the index
/// after the chain. Literal keys land in `used`; a computed key sets
/// `dynamic`.
fn collect_field_chain(
    toks: &[Token],
    mut j: usize,
    used: &mut Vec<String>,
    dynamic: &mut bool,
) -> usize {
    while j + 2 < toks.len()
        && toks[j].is_punct('.')
        && toks[j + 1].is_ident("field")
        && toks[j + 2].is_punct('(')
    {
        match toks.get(j + 3) {
            Some(t) if t.kind == TokenKind::Str => used.push(t.text.clone()),
            _ => *dynamic = true,
        }
        j = skip_parens(toks, j + 2);
    }
    j
}

fn check_emissions(file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i + 5 < toks.len() {
        if !(toks[i].is_ident("Event")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("new")
            && toks[i + 4].is_punct('('))
        {
            i += 1;
            continue;
        }
        let site = i;
        let line = toks[i].line;
        i += 5;
        if file.cleaned.is_test(line) || file.cleaned.is_allowed(RULE_EVENT_SCHEMA, line) {
            continue;
        }
        let name = match &toks[site + 5] {
            t if t.kind == TokenKind::Str => t.text.clone(),
            // Non-literal name (e.g. `Event::new(schema.name)`): not
            // statically checkable; the synthesize fixture tests cover it.
            _ => continue,
        };
        let Some(event) = schema::lookup(&name) else {
            out.push(Finding {
                file: file.rel.clone(),
                line,
                rule: RULE_EVENT_SCHEMA,
                severity: Severity::Error,
                message: format!(
                    "`Event::new(\"{name}\")` uses a name not in the registry; \
                     declare it in crates/obs/src/schema.rs (EVENTS)"
                ),
            });
            continue;
        };

        // Fields from the immediate builder chain…
        let mut used: Vec<String> = Vec::new();
        let mut dynamic = false;
        let after_new = skip_parens(toks, site + 4);
        let mut after_chain = collect_field_chain(toks, after_new, &mut used, &mut dynamic);

        // …and, when bound to a variable, from later `.field` calls on the
        // binder anywhere in the enclosing function (conditional fields).
        let binder = (site >= 2
            && toks[site - 1].is_punct('=')
            && toks[site - 2].kind == TokenKind::Ident
            && !toks
                .get(site.wrapping_sub(3))
                .is_some_and(|t| t.is_punct('=')))
        .then(|| toks[site - 2].text.clone());
        if let (Some(binder), Some(item)) = (binder, file.enclosing_fn(line)) {
            let end = file.tokens_end_of_line(item.end_line);
            let mut m = after_chain;
            while m + 4 < end {
                if toks[m].is_ident(&binder)
                    && toks[m + 1].is_punct('.')
                    && toks[m + 2].is_ident("field")
                    && toks[m + 3].is_punct('(')
                {
                    match toks.get(m + 4) {
                        Some(t) if t.kind == TokenKind::Str => used.push(t.text.clone()),
                        _ => dynamic = true,
                    }
                    let after = skip_parens(toks, m + 3);
                    m = collect_field_chain(toks, after, &mut used, &mut dynamic);
                } else {
                    m += 1;
                }
            }
            after_chain = after_chain.max(m.min(end));
        }
        let _ = after_chain;
        if dynamic {
            continue; // computed key: runtime fixtures take over
        }

        used.sort_unstable();
        used.dedup();
        let declared: Vec<&str> = event
            .required
            .iter()
            .chain(event.optional)
            .map(|f| f.name)
            .collect();
        for key in &used {
            if !declared.contains(&key.as_str()) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    rule: RULE_EVENT_SCHEMA,
                    severity: Severity::Error,
                    message: format!(
                        "event `{name}` sets undeclared field `{key}`; declare it \
                         (required or optional) in crates/obs/src/schema.rs"
                    ),
                });
            }
        }
        for req in event.required {
            if !used.iter().any(|k| k == req.name) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    rule: RULE_EVENT_SCHEMA,
                    severity: Severity::Error,
                    message: format!(
                        "event `{name}` never sets required field `{}` at this \
                         construction site (demote it to optional if emission is \
                         conditional)",
                        req.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn model(rel: &str, src: &str) -> FileModel {
        FileModel::from_source(rel.to_string(), src.to_string())
    }

    fn check_one(file: FileModel) -> Vec<Finding> {
        let ws = Workspace { files: vec![file] };
        check(&ws, &["crates"])
    }

    #[test]
    fn registered_chain_site_is_clean() {
        let src = r#"
fn emit(obs: &mut dyn Observer) {
    obs.record_event(
        Event::new("sweep.run").field("label", "V=1"),
    );
}
"#;
        let f = check_one(model("crates/sim/src/sweep.rs", src));
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn unregistered_name_and_undeclared_field_fire() {
        let src = r#"
fn emit() {
    let a = Event::new("no.such.event");
    let b = Event::new("sweep.run").field("label", "x").field("bogus", 1_u64);
    let c = Event::new("sweep.run");
}
"#;
        let f = check_one(model("crates/sim/src/x.rs", src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("not in the registry"), "{f:?}");
        assert!(f[1].message.contains("undeclared field `bogus`"), "{f:?}");
        assert!(f[2].message.contains("required field `label`"), "{f:?}");
    }

    #[test]
    fn binder_collects_conditional_fields() {
        let src = r#"
fn emit(dc: Option<u64>) -> Event {
    let mut event = Event::new("feed.quarantine")
        .field("t", 1_u64)
        .field("feed", "price");
    event = event.field("reason", "nan");
    if let Some(dc) = dc {
        event = event.field("dc", dc);
    }
    event
}
"#;
        let f = check_one(model("crates/ingest/src/x.rs", src));
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let e = Event::new(\"bogus\"); }\n}\n";
        let f = check_one(model("crates/sim/src/x.rs", src));
        assert_eq!(f, vec![], "{f:?}");
    }
}
