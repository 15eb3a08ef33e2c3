//! The `hot-path-alloc` pass: no heap allocation in the per-slot tree.
//!
//! GreFar's per-slot decision (`crates/core/src/solver`, the Frank–Wolfe
//! machinery in `crates/convex`, the simplex in `crates/lp`) runs once
//! per simulated slot — at fleet scale (ROADMAP items 2 and 5) that is
//! millions of calls, and every transient `Vec`/`String`/`Box` there is
//! allocator traffic and cache pollution. This pass flags:
//!
//! * **Errors** — definite transient allocations: `Vec::new()`,
//!   `String::new()`, `Box::new(…)`, `format!`, `.to_string()`,
//!   `.to_owned()`, `.to_vec()`, `.clone()`, and *unsized* `vec![a, b]`
//!   list literals. (`vec![x; n]` and `Vec::with_capacity(n)` are the
//!   sanctioned preallocation forms and stay clean.)
//! * **Warnings** — probable allocations: `.collect(…)` (size hints
//!   usually preallocate, but nothing proves it) and `.push(…)` onto a
//!   receiver not provably preallocated in the same function.
//!
//! `#[cfg(test)]` lines and `#[cfg(...)]`-gated functions (e.g.
//! `strict-invariants` diagnostics) are off the unconditional hot path
//! and exempt. Justify legitimate one-time allocations (setup, error
//! paths) with `verify: allow(hot-path-alloc): <why>`.

use crate::findings::{Finding, Severity};
use crate::model::{FileModel, FnItem};
use crate::rules::RULE_HOT_PATH_ALLOC;

const ERROR_NEEDLES: &[(&str, &str)] = &[
    (
        "Vec::new()",
        "allocates on first push; use Vec::with_capacity or reuse a buffer",
    ),
    (
        "String::new()",
        "allocates on first push; use String::with_capacity or reuse",
    ),
    (
        "Box::new(",
        "heap-allocates per call; store inline or preallocate",
    ),
    (
        "format!",
        "allocates a String per call; write into a reused buffer",
    ),
    (".to_string()", "allocates a String per call"),
    (".to_owned()", "allocates per call"),
    (".to_vec()", "copies into a fresh Vec per call"),
    (
        ".clone()",
        "deep-copies per call; borrow or reuse the existing value",
    ),
];

/// Runs the pass over one file.
pub fn check(file: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    let lines: Vec<&str> = file.cleaned.code.lines().collect();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.cleaned.is_test(lineno)
            || file.cleaned.is_allowed(RULE_HOT_PATH_ALLOC, lineno)
            || file.enclosing_fn(lineno).is_some_and(|f| f.cfg_gated)
        {
            continue;
        }
        for (needle, why) in ERROR_NEEDLES {
            if line.contains(needle) {
                out.push(finding(
                    file,
                    lineno,
                    Severity::Error,
                    format!(
                        "`{}` in the per-slot call tree: {why}",
                        needle.trim_end_matches('(')
                    ),
                ));
            }
        }
        // vec![…]: the sized `vec![x; n]` form is sanctioned preallocation,
        // the list form allocates-and-grows semantics we still accept (it
        // sizes exactly) — but an *empty* `vec![]` is Vec::new in disguise.
        let mut from = 0usize;
        while let Some(rel) = line[from..].find("vec![") {
            let at = from + rel;
            from = at + 5;
            match vec_macro_kind(&lines, idx, at + 5) {
                VecKind::Empty => out.push(finding(
                    file,
                    lineno,
                    Severity::Error,
                    "`vec![]` in the per-slot call tree: allocates on first push; \
                     use Vec::with_capacity or reuse a buffer"
                        .to_string(),
                )),
                VecKind::Sized | VecKind::List => {}
            }
        }
        if line.contains(".collect(") || line.contains(".collect::<") {
            out.push(finding(
                file,
                lineno,
                Severity::Warning,
                "`.collect()` in the per-slot call tree allocates unless the \
                 iterator's size hint preallocates; prefer filling a reused \
                 buffer, or justify with an allow directive"
                    .to_string(),
            ));
        }
        let mut from = 0usize;
        while let Some(rel) = line[from..].find(".push(") {
            let at = from + rel;
            from = at + 6;
            let receiver = receiver_before(line, at);
            let known = receiver.as_deref().is_some_and(|r| {
                file.enclosing_fn(lineno)
                    .is_some_and(|f| fn_preallocates(file, f, r, &lines))
            });
            if !known {
                out.push(finding(
                    file,
                    lineno,
                    Severity::Warning,
                    format!(
                        "`.push()` onto `{}` which is not provably preallocated in \
                         this function; reserve capacity up front or justify with \
                         an allow directive",
                        receiver.as_deref().unwrap_or("<expr>")
                    ),
                ));
            }
        }
    }
    out
}

fn finding(file: &FileModel, line: usize, severity: Severity, message: String) -> Finding {
    Finding {
        file: file.rel.clone(),
        line,
        rule: RULE_HOT_PATH_ALLOC,
        severity,
        message,
    }
}

enum VecKind {
    Empty,
    Sized,
    List,
}

/// Classifies a `vec![` whose contents start at `(line_idx, col)` in the
/// cleaned lines, following the bracket across lines if needed.
fn vec_macro_kind(lines: &[&str], mut line_idx: usize, mut col: usize) -> VecKind {
    let mut depth = 1i32;
    let mut top_semicolon = false;
    let mut any_content = false;
    while let Some(line) = lines.get(line_idx) {
        let bytes = line.as_bytes();
        while col < bytes.len() {
            let b = bytes[col];
            match b {
                b'[' | b'(' | b'{' => depth += 1,
                b']' | b')' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return if !any_content {
                            VecKind::Empty
                        } else if top_semicolon {
                            VecKind::Sized
                        } else {
                            VecKind::List
                        };
                    }
                }
                b';' if depth == 1 => top_semicolon = true,
                b if !(b as char).is_whitespace() => any_content = true,
                _ => {}
            }
            col += 1;
        }
        line_idx += 1;
        col = 0;
    }
    VecKind::List
}

/// The dotted identifier chain ending just before the `.push(` at `at`,
/// when it is a plain chain (`out`, `self.buffer`); `None` for anything
/// with subscripts or calls in the receiver.
fn receiver_before(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut start = at;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    if start == at {
        return None;
    }
    let chain = &line[start..at];
    if chain.is_empty() || chain.starts_with('.') || chain.ends_with('.') {
        return None;
    }
    Some(chain.to_string())
}

/// Does `item` locally declare `receiver` with a preallocated (or
/// already-flagged) constructor? Looks for `let [mut] <receiver> =` lines
/// followed by `with_capacity`, a sized `vec![x; n]`, or the
/// `Vec::new()`/`String::new()` forms (those are already errors at the
/// declaration — the push should not double-report).
fn fn_preallocates(file: &FileModel, item: &FnItem, receiver: &str, lines: &[&str]) -> bool {
    // Dotted receivers (`self.buf`) are never function-local.
    if receiver.contains('.') {
        return false;
    }
    for lineno in item.start_line..=item.end_line {
        let Some(line) = lines.get(lineno - 1) else {
            continue;
        };
        let Some(pos) = find_let_binding(line, receiver) else {
            continue;
        };
        // The initializer: rest of this line, or the next line for
        // `let x =\n    Vec::with_capacity(n);` splits.
        let mut init = line[pos..].to_string();
        if let Some(next) = lines.get(lineno) {
            init.push(' ');
            init.push_str(next);
        }
        if init.contains("with_capacity")
            || init.contains("Vec::new()")
            || init.contains("String::new()")
            || sized_vec_in(&init)
        {
            return true;
        }
    }
    let _ = file;
    false
}

/// Position after `let [mut] <name>` when `line` declares `name`.
fn find_let_binding(line: &str, name: &str) -> Option<usize> {
    let let_pos = line.find("let ")?;
    let rest = &line[let_pos + 4..];
    let rest_trim = rest.trim_start();
    let rest_trim = rest_trim
        .strip_prefix("mut ")
        .unwrap_or(rest_trim)
        .trim_start();
    if rest_trim.starts_with(name) {
        let after = rest_trim.as_bytes().get(name.len());
        let boundary = !after.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        if boundary {
            return Some(line.len() - rest_trim.len() + name.len());
        }
    }
    None
}

fn sized_vec_in(text: &str) -> bool {
    if let Some(at) = text.find("vec![") {
        let inner: Vec<&str> = vec![&text[at + 5..]];
        return matches!(vec_macro_kind(&inner, 0, 0), VecKind::Sized);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run(src: &str) -> Vec<Finding> {
        check(&FileModel::from_source(
            "crates/lp/src/x.rs".to_string(),
            src.to_string(),
        ))
    }

    #[test]
    fn direct_allocations_are_errors() {
        let src = "\
fn hot() {
    let a: Vec<f64> = Vec::new();
    let b = format!(\"x={}\", 1);
    let c = other.clone();
    let d = vec![];
}
";
        let f = run(src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Error));
    }

    #[test]
    fn sized_vec_and_with_capacity_are_clean() {
        let src = "\
fn hot(n: usize) {
    let mut a = vec![0.0; n];
    let mut b = Vec::with_capacity(n);
    for i in 0..n {
        b.push(i);
        a.push(0.0);
    }
}
";
        let f = run(src);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn collect_and_unknown_push_warn() {
        let src = "\
fn hot(xs: &[f64], out: &mut Vec<f64>) {
    let doubled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
    out.push(doubled[0]);
}
";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Warning));
        assert!(f[1].message.contains("`out`"));
    }

    #[test]
    fn cfg_gated_and_test_code_exempt() {
        let src = "\
#[cfg(feature = \"strict-invariants\")]
fn diagnostics() {
    let msg = format!(\"bad: {}\", 1);
}

#[cfg(test)]
mod tests {
    fn t() { let v = vec![]; v.push(1); }
}
";
        let f = run(src);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
fn setup() {
    // verify: allow(hot-path-alloc): one-time setup, not per-slot
    let names: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
}
";
        // The directive covers its own line + the next; to_string/collect
        // both sit on the covered line.
        let f = run(src);
        assert_eq!(f, vec![], "{f:?}");
    }
}
