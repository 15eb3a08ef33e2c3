//! Differential oracle for the lexer: a frozen corpus of Rust source and
//! what `grefar-verify` reads off it, recorded before the scanner's own
//! lexer and the three brace-matching scans gave way to the one tokenizer
//! and item finder. A change in any rule's findings, the `#[cfg(test)]`
//! line marks, the suppression directives or the `fn` items shows here.
//!
//! `corpus.expected` was re-recorded once since, for two declared fixes,
//! and differs from the first recording in two lines: a `;` inside the
//! head's brackets no longer ends an item, so `raw_strings` (returning
//! `[&'static str; 4]`) has a body; and `errors-doc` reads the return type
//! after the parameter list, so `generic` (which takes a `fn(u32) -> u32`
//! and returns `Result`) draws its missing `# Errors` finding.
//!
//! `fixtures/lexer/` holds one hand-written file with every construct the
//! lexer special-cases (nested block comments, raw strings with 0–3
//! hashes, byte and raw byte strings, raw identifiers, lifetimes next to
//! char literals, escaped quotes, line continuations, directives in line
//! and block comments, doc comments holding `fn` and braces, a bodiless
//! `#[cfg(test)]` item, an unterminated literal at EOF) and frozen copies
//! of `crates/obs/src/json.rs` and `crates/served/src/admission.rs`. The
//! `.txt` suffix keeps the dependency audit's source scan off them.
//!
//! Every lexical rule runs unscoped, so each file is checked against all
//! of them wherever the driver would apply them.

use std::fmt::Write as _;
use std::path::Path;

use grefar_verify::passes::{event_schema, hot_path_alloc};
use grefar_verify::{
    check_determinism, check_directives, check_float_eq, check_no_panic, check_no_panic_strict,
    check_source, FileModel, Workspace, RULE_ERRORS_DOC,
};

/// The corpus files, by stem: `<stem>.rs.txt` is read, `<stem>.expected`
/// is the recording.
const CORPUS: &[&str] = &["corpus", "obs_json", "served_admission"];

/// Everything the analysis reads off one file, one fact per line: each
/// rule's findings, the `#[cfg(test)]` lines, the directives and the `fn`
/// items.
fn dump(source: &str) -> String {
    let file = FileModel::from_source("crates/corpus/src/lib.rs".to_string(), source.to_string());
    let cleaned = &file.cleaned;
    let errors_doc = check_source(source, &[RULE_ERRORS_DOC])
        .into_iter()
        .filter(|v| v.rule == RULE_ERRORS_DOC)
        .collect();
    let mut out = String::new();
    for (rule, violations) in [
        ("directive", check_directives(cleaned)),
        ("determinism", check_determinism(cleaned)),
        ("float-eq", check_float_eq(cleaned)),
        ("no-panic", check_no_panic(cleaned)),
        ("no-panic-strict", check_no_panic_strict(cleaned)),
        ("errors-doc", errors_doc),
    ] {
        for v in violations {
            let _ = writeln!(out, "{rule} {}: {}", v.line, v.message);
        }
    }
    let ws = Workspace {
        files: vec![file.clone()],
    };
    for f in hot_path_alloc::check(&file)
        .into_iter()
        .chain(event_schema::check(&ws, &["crates"]))
    {
        let _ = writeln!(
            out,
            "{} {} {}: {}",
            f.rule,
            f.severity.label(),
            f.line,
            f.message
        );
    }
    let _ = writeln!(
        out,
        "lines {} {}",
        cleaned.is_test_line.len(),
        cleaned.allows.len()
    );
    let mut test_lines: Vec<(usize, usize)> = Vec::new();
    for (idx, _) in cleaned.is_test_line.iter().enumerate().filter(|(_, m)| **m) {
        match test_lines.last_mut() {
            Some((_, end)) if *end == idx => *end = idx + 1,
            _ => test_lines.push((idx + 1, idx + 1)),
        }
    }
    for (start, end) in test_lines {
        let _ = writeln!(out, "test lines {start}-{end}");
    }
    for (idx, allows) in cleaned.allows.iter().enumerate() {
        for a in allows {
            let _ = writeln!(out, "allow {} {} from {}", idx + 1, a.rule, a.line);
        }
    }
    for line in &cleaned.bad_directives {
        let _ = writeln!(out, "bad directive {line}");
    }
    for f in &file.fns {
        let gated = if f.cfg_gated { " cfg-gated" } else { "" };
        let _ = writeln!(out, "fn {} {}-{}{gated}", f.name, f.start_line, f.end_line);
    }
    out
}

#[test]
fn the_corpus_reads_as_recorded() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lexer");
    for stem in CORPUS {
        let read = |name: String| {
            std::fs::read_to_string(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let got = dump(&read(format!("{stem}.rs.txt")));
        let want = read(format!("{stem}.expected"));
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        assert!(
            got == want,
            "{stem}: analysis differs from the recording at output line {}:\n  got:  {:?}\n  want: {:?}",
            first_diff + 1,
            got.lines().nth(first_diff),
            want.lines().nth(first_diff),
        );
    }
}

#[test]
fn the_corpus_exercises_every_rule() {
    // A recording with nothing in it would pass vacuously.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lexer");
    let recorded = std::fs::read_to_string(dir.join("corpus.expected")).expect("recording");
    for fact in [
        "directive ",
        "determinism ",
        "float-eq ",
        "no-panic ",
        "no-panic-strict ",
        "errors-doc ",
        "hot-path-alloc ",
        "test lines ",
        "allow ",
        "bad directive ",
        "cfg-gated",
    ] {
        assert!(
            recorded
                .lines()
                .any(|l| l.starts_with(fact) || l.ends_with(fact)),
            "the corpus recording holds no `{fact}` fact"
        );
    }
}
