//! The repo-specific lint rules.
//!
//! Each rule takes a [`CleanedSource`] (and, where doc comments matter,
//! the file's `fn` items) and returns [`Violation`]s. Rules skip
//! `#[cfg(test)]` lines and honor `verify: allow(<rule>): <justification>`
//! directives; which *files* a rule applies to is the driver's decision
//! (see `main.rs` — the scopes mirror DESIGN.md §"Correctness tooling").
//!
//! * [`RULE_DETERMINISM`] — decision-path crates must stay bit-
//!   deterministic: no `HashMap`/`HashSet` (iteration order), no raw
//!   `Instant::now`/`SystemTime` (wall-clock reads belong in `grefar-obs`
//!   behind `Observer::enabled`).
//! * [`RULE_FLOAT_EQ`] — no `==`/`!=` against float literals; route
//!   tolerance comparisons through `grefar_types::approx_eq`.
//! * [`RULE_NO_PANIC`] — hot paths must not `unwrap`/`expect`/`panic!`
//!   or index slices by integer literals.
//! * [`RULE_ERRORS_DOC`] — `pub fn`s returning `Result` document
//!   `# Errors`; `pub fn`s that assert document `# Panics`.

use crate::findings::Severity;
use crate::model::FnItem;
use crate::scanner::CleanedSource;

/// Rule name: determinism of decision-path crates.
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule name: float equality outside the tolerance helper.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// Rule name: panic-free hot paths.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule name: `# Errors` / `# Panics` doc sections on `pub fn`s.
pub const RULE_ERRORS_DOC: &str = "errors-doc";
/// Rule name: telemetry emission sites agree with the
/// `grefar_obs::schema` registry (see `passes::event_schema`).
pub const RULE_EVENT_SCHEMA: &str = "event-schema";
/// Rule name: no heap allocation in the per-slot call tree (see
/// `passes::hot_path_alloc`).
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule name: dependency hygiene (see `passes::deps_audit`).
pub const RULE_DEPS_AUDIT: &str = "deps-audit";
/// Pseudo-rule for malformed `verify:` directives.
pub const RULE_DIRECTIVE: &str = "directive";

/// One finding: file-relative line plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Error or warning (every lexical rule reports errors; the pass
    /// rules grade advisory findings as warnings).
    pub severity: Severity,
    /// What was found.
    pub message: String,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds `needle` in `line` at identifier boundaries (so `HashMap` does
/// not match `MyHashMapLike`). Path-segment needles (`Instant::now`)
/// bound-check their outer identifiers.
fn find_word(line: &str, needle: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        from = at + 1;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

/// Determinism: forbidden identifiers in decision-path code.
pub fn check_determinism(src: &CleanedSource) -> Vec<Violation> {
    const FORBIDDEN: &[(&str, &str)] = &[
        (
            "HashMap",
            "iteration order is not deterministic; use Vec/BTreeMap",
        ),
        (
            "HashSet",
            "iteration order is not deterministic; use Vec/BTreeSet",
        ),
        (
            "Instant::now",
            "raw wall-clock read; use grefar_obs::Timer behind Observer::enabled",
        ),
        (
            "SystemTime",
            "raw wall-clock read; decision paths must be replayable",
        ),
    ];
    let mut out = Vec::new();
    for (idx, line) in src.code.lines().enumerate() {
        let lineno = idx + 1;
        if src.is_test(lineno) {
            continue;
        }
        for (needle, why) in FORBIDDEN {
            if find_word(line, needle).is_some() && !src.is_allowed(RULE_DETERMINISM, lineno) {
                out.push(Violation {
                    line: lineno,
                    rule: RULE_DETERMINISM,
                    severity: Severity::Error,
                    message: format!("`{needle}` in decision-path code: {why}"),
                });
            }
        }
    }
    out
}

/// Does `text` contain a float literal (`1.0`, `.5`, `1e-9`, `f64::NAN`,
/// an `f64`/`f32` suffix)?
fn has_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
        {
            return true;
        }
        // Exponent form without a dot: 1e9, 2E-6 — but not hex (0x1e9).
        if (b == b'e' || b == b'E')
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes
                .get(i + 1)
                .is_some_and(|&c| c.is_ascii_digit() || c == b'-' || c == b'+')
        {
            let mut s = i;
            while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                s -= 1;
            }
            if !text[s..i].starts_with("0x") && !text[s..i].starts_with("0X") {
                return true;
            }
        }
    }
    ["f64::", "f32::", "_f64", "_f32"]
        .iter()
        .any(|t| text.contains(t))
}

/// Float equality: `==` / `!=` where an operand is a float literal.
pub fn check_float_eq(src: &CleanedSource) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in src.code.lines().enumerate() {
        let lineno = idx + 1;
        if src.is_test(lineno) {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0usize;
        while i + 1 < bytes.len() {
            let two = &bytes[i..i + 2];
            let is_eq = two == b"==";
            let is_ne = two == b"!=";
            if !(is_eq || is_ne) {
                i += 1;
                continue;
            }
            // Not part of `<=`, `>=`, `=>`, `===`-like runs or `!=` tail.
            if is_eq {
                let prev = i.checked_sub(1).map(|p| bytes[p]);
                if matches!(prev, Some(b'=') | Some(b'!') | Some(b'<') | Some(b'>')) {
                    i += 2;
                    continue;
                }
                if bytes.get(i + 2) == Some(&b'=') {
                    i += 3;
                    continue;
                }
            }
            // Operands: out to the nearest expression delimiter.
            let left_start = line[..i]
                .rfind(['(', ',', ';', '{', '}', '&', '|', '='])
                .map(|p| p + 1)
                .unwrap_or(0);
            let right_end = i
                + 2
                + line[i + 2..]
                    .find([')', ',', ';', '{', '}', '&', '|'])
                    .unwrap_or(line.len() - i - 2);
            let lhs = &line[left_start..i];
            let rhs = &line[i + 2..right_end];
            if (has_float_literal(lhs) || has_float_literal(rhs))
                && !src.is_allowed(RULE_FLOAT_EQ, lineno)
            {
                let op = if is_eq { "==" } else { "!=" };
                out.push(Violation {
                    line: lineno,
                    rule: RULE_FLOAT_EQ,
                    severity: Severity::Error,
                    message: format!(
                        "float `{op}` comparison; use grefar_types::approx_eq(a, b, tol) \
                         (or allow with a justification for exact-zero skips)"
                    ),
                });
            }
            i += 2;
        }
    }
    out
}

/// Panic-free hot paths: no `unwrap`/`expect`/`panic!`-family macros, no
/// integer-literal slice indexing.
pub fn check_no_panic(src: &CleanedSource) -> Vec<Violation> {
    check_no_panic_mode(src, false)
}

/// The widened `no-panic` variant: additionally flags *every* `[`-index
/// or slice expression (not just integer-literal subscripts), since any
/// out-of-range subscript panics. Applied file-by-file to the queue
/// update (`crates/sim/src/simulation.rs`) and the feed client
/// (`crates/ingest/src/client.rs`).
pub fn check_no_panic_strict(src: &CleanedSource) -> Vec<Violation> {
    check_no_panic_mode(src, true)
}

fn check_no_panic_mode(src: &CleanedSource, strict_index: bool) -> Vec<Violation> {
    const CALLS: &[&str] = &[".unwrap()", ".expect("];
    const MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];
    let mut out = Vec::new();
    for (idx, line) in src.code.lines().enumerate() {
        let lineno = idx + 1;
        if src.is_test(lineno) || src.is_allowed(RULE_NO_PANIC, lineno) {
            continue;
        }
        for needle in CALLS {
            if line.contains(needle) {
                out.push(Violation {
                    line: lineno,
                    rule: RULE_NO_PANIC,
                    severity: Severity::Error,
                    message: format!(
                        "`{}` in a hot path; return a typed error instead",
                        needle.trim_start_matches('.').trim_end_matches('(')
                    ),
                });
            }
        }
        for needle in MACROS {
            if find_word(line, needle.trim_end_matches('!')).is_some() && line.contains(needle) {
                out.push(Violation {
                    line: lineno,
                    rule: RULE_NO_PANIC,
                    severity: Severity::Error,
                    message: format!("`{needle}` in a hot path; return a typed error instead"),
                });
            }
        }
        // ident[...] or )[...] or ][...]: panicking subscript. Base mode
        // flags only integer-literal subscripts; strict mode flags every
        // subscript (variable indices and range slices panic just the
        // same when out of bounds).
        let bytes = line.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'[' || i == 0 {
                continue;
            }
            let prev = bytes[i - 1];
            if !(is_ident_char(prev) || prev == b')' || prev == b']') {
                continue;
            }
            // `vec![`-style macro invocations never reach here: `!`
            // precedes the bracket and is not an identifier char.
            let rest = &bytes[i + 1..];
            let digits = rest.iter().take_while(|c| c.is_ascii_digit()).count();
            let literal_index = digits > 0 && rest.get(digits) == Some(&b']');
            if literal_index {
                out.push(Violation {
                    line: lineno,
                    rule: RULE_NO_PANIC,
                    severity: Severity::Error,
                    message: "integer-literal slice index in a hot path; use .get()/.first() \
                              or prove the bound and allow with a justification"
                        .to_string(),
                });
            } else if strict_index {
                out.push(Violation {
                    line: lineno,
                    rule: RULE_NO_PANIC,
                    severity: Severity::Error,
                    message: "slice subscript in a no-panic scope; use .get()/.get_mut() \
                              or prove the bound and allow with a justification"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// The return type of a `fn` signature: the text after the `->` that
/// follows the parameter list's closing `)`, up to a `where` clause.
/// Parentheses inside the generics (`F: Fn(u32) -> u32`) or the parameters
/// (`g: fn(u32) -> u32`) are not the parameter list's; the `>` of `->` is
/// not a closing angle bracket.
fn return_type(signature: &str) -> Option<&str> {
    let (mut parens, mut angles, mut prev) = (0usize, 0usize, ' ');
    for (i, c) in signature.char_indices() {
        match c {
            '<' => angles += 1,
            '>' if prev != '-' => angles = angles.saturating_sub(1),
            '(' => parens += 1,
            ')' => {
                parens = parens.saturating_sub(1);
                if parens == 0 && angles == 0 {
                    let ret = signature[i + 1..].trim_start().strip_prefix("->")?;
                    return Some(find_word(ret, "where").map_or(ret, |w| &ret[..w]));
                }
            }
            _ => {}
        }
        prev = c;
    }
    None
}

/// `pub fn` documentation: `-> Result` requires `# Errors`; a body that
/// asserts (or unwraps) requires `# Panics`. Reads the file's `fn` items
/// ([`FileModel::fns`](crate::model::FileModel::fns)). Only checked in the
/// crates the driver scopes this rule to (`core`, `lp`).
pub fn check_errors_doc(src: &CleanedSource, fns: &[FnItem]) -> Vec<Violation> {
    let mut out = Vec::new();
    let code_lines: Vec<&str> = src.code.lines().collect();
    for f in fns.iter().filter(|f| f.is_pub) {
        let (line, name) = (f.start_line, &f.name);
        if src.is_test(line) || src.is_allowed(RULE_ERRORS_DOC, line) {
            continue;
        }
        let returns_result = return_type(&f.signature)
            .is_some_and(|ret| ret.contains("Result<") || ret.contains("Result "));
        let body = f.body.as_ref().map_or(&[][..], |b| {
            code_lines.get(b.start() - 1..*b.end()).unwrap_or_default()
        });
        let asserts = body.iter().any(|b| {
            find_word(b, "assert").is_some()
                || find_word(b, "assert_eq").is_some()
                || find_word(b, "assert_ne").is_some()
                || find_word(b, "panic").is_some()
                || b.contains(".expect(")
                || b.contains(".unwrap()")
        });
        if returns_result && !f.docs.contains("# Errors") {
            out.push(Violation {
                line,
                rule: RULE_ERRORS_DOC,
                severity: Severity::Error,
                message: format!(
                    "`pub fn {name}` returns Result but has no `# Errors` doc section"
                ),
            });
        }
        if asserts && !f.docs.contains("# Panics") {
            out.push(Violation {
                line,
                rule: RULE_ERRORS_DOC,
                severity: Severity::Error,
                message: format!("`pub fn {name}` can panic but has no `# Panics` doc section"),
            });
        }
    }
    out
}

/// Malformed `verify:` directives, reported so the allowlist stays honest.
pub fn check_directives(src: &CleanedSource) -> Vec<Violation> {
    src.bad_directives
        .iter()
        .map(|&line| Violation {
            line,
            rule: RULE_DIRECTIVE,
            severity: Severity::Error,
            message: "malformed directive; expected `verify: allow(<rule>): <justification>`"
                .to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::scanner::clean;

    #[test]
    fn determinism_fires_on_hashmap_and_clock() {
        let src = "use std::collections::HashMap;\nlet t = std::time::Instant::now();\n";
        let v = check_determinism(&clean(src));
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn determinism_respects_allow_and_tests() {
        let src =
            "let t = std::time::Instant::now(); // verify: allow(determinism): telemetry only\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(check_determinism(&clean(src)).is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_comparison() {
        let src = "if beta == 0.0 { }\nif n != 1e-9 { }\nif k == 3 { }\n";
        let v = check_float_eq(&clean(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn float_eq_skips_integer_and_allowed() {
        let src =
            "if factor == 0.0 { } // verify: allow(float-eq): exact-zero skip\nif i == 0 { }\n";
        assert!(check_float_eq(&clean(src)).is_empty());
    }

    #[test]
    fn no_panic_fires_on_unwrap_expect_macros_and_index() {
        let src =
            "let a = x.unwrap();\nlet b = y.expect(\"msg\");\npanic!(\"boom\");\nlet c = v[0];\n";
        let v = check_no_panic(&clean(src));
        assert_eq!(v.len(), 4, "{v:?}");
    }

    #[test]
    fn no_panic_skips_variable_index_and_array_literals() {
        let src = "let a = v[i];\nlet b = &[0.0];\nlet t: [f64; 2] = [0.0, 1.0];\n";
        assert!(check_no_panic(&clean(src)).is_empty());
    }

    #[test]
    fn strict_no_panic_flags_any_subscript() {
        let src = "let a = v[i];\nlet s = &xs[1..n];\nlet b: [f64; 2] = [0.0, 1.0];\nlet c = vec![0.0; n];\n";
        let v = check_no_panic_strict(&clean(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        // Array type/literal syntax and vec! macros stay clean.
        let allowed = "let a = v.get(i);\n\
                       // verify: allow(no-panic): i < n by loop bound\n\
                       let b = v[i];\n";
        assert!(check_no_panic_strict(&clean(allowed)).is_empty());
    }

    #[test]
    fn errors_doc_requires_sections() {
        let src = "\
/// Does a thing.\n\
pub fn fallible() -> Result<(), String> { Ok(()) }\n\
/// Checks input.\n\
pub fn checked(x: f64) {\n    assert!(x >= 0.0);\n}\n";
        let m = FileModel::from_source(String::new(), src.to_string());
        let v = check_errors_doc(&m.cleaned, &m.fns);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("# Errors"));
        assert!(v[1].message.contains("# Panics"));
    }

    #[test]
    fn errors_doc_satisfied_by_sections() {
        let src = "\
/// Does a thing.\n\
///\n\
/// # Errors\n\
/// When it fails.\n\
pub fn fallible() -> Result<(), String> { Ok(()) }\n\
/// Checks input.\n\
///\n\
/// # Panics\n\
/// If x is negative.\n\
#[inline]\n\
pub fn checked(x: f64) {\n    assert!(x >= 0.0);\n}\n";
        let m = FileModel::from_source(String::new(), src.to_string());
        let v = check_errors_doc(&m.cleaned, &m.fns);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn errors_doc_reads_the_return_type_after_the_parameters() {
        let src = "\
/// Generic.\n\
pub fn generic<F: Fn(u32) -> u32>(f: F, g: fn(u32) -> u32) -> Result<u32, String>\n\
where\n    F: Copy,\n{\n    Ok(f(g(1)))\n}\n\
/// Takes a fallible callback.\n\
pub fn takes(h: impl Fn() -> Result<(), String>) -> u32 {\n    u32::from(h().is_ok())\n}\n";
        let m = FileModel::from_source(String::new(), src.to_string());
        let v = check_errors_doc(&m.cleaned, &m.fns);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`pub fn generic` returns Result"));
    }

    #[test]
    fn debug_assert_does_not_require_panics_doc() {
        let src = "/// Fast path.\npub fn fast(x: f64) -> f64 {\n    debug_assert!(x.is_finite());\n    x\n}\n";
        let m = FileModel::from_source(String::new(), src.to_string());
        assert!(check_errors_doc(&m.cleaned, &m.fns).is_empty());
    }
}
