//! The file model every rule and pass runs over.
//!
//! [`FileModel::from_source`] lexes a file once ([`crate::tokens::lex`])
//! and derives everything else from that one token stream:
//!
//! * the item finder (`find_items`) reads every `fn` item and every
//!   `#[cfg(test)]` extent off it. For a `fn` it records the name,
//!   whether it is `pub`, its lines, its signature, its body lines, and
//!   the doc and attribute lines directly above it (`cfg(...)`-gated
//!   items are off the unconditional hot path);
//! * [`crate::scanner`] projects it onto the blanked [`CleanedSource`]
//!   (line metadata, suppression directives) the line rules read;
//! * its comment-free [`Token`] sequence, string contents retained, is
//!   what the `event-schema` and `hot-path-alloc` passes match on, with
//!   the [`FnItem`] spans bounding their per-function searches.
//!
//! The item finder is the only code that brace-matches item bodies: an
//! item runs from its head to the `}` matching its first `{`, or to the
//! `;` of a bodiless item (outside the head's parentheses and brackets),
//! whichever comes first, and to EOF when the file never closes it.
//! [`Workspace::load`] reads every `.rs` file under the scoped directories
//! once and builds a [`FileModel`] for each.

use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use crate::scanner::{blank, project, CleanedSource};
use crate::tokens::{lex, Token, TokenKind};

/// One `fn` item, as the item finder reads it.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Declared `pub fn` or `pub const fn` (not `pub(crate)`, not
    /// private).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace (or of the `;` of a
    /// bodiless trait method).
    pub end_line: usize,
    /// The blanked source (see [`crate::scanner`]) from `fn` up to the
    /// body's `{` or the `;`.
    pub signature: String,
    /// 1-based lines of the body's `{` through its `}`; `None` for a
    /// bodiless declaration.
    pub body: Option<RangeInclusive<usize>>,
    /// The `///` lines directly above the item, markers stripped, one per
    /// line from the bottom up. Attribute lines in between are skipped; a
    /// plain `//` comment ends them.
    pub docs: String,
    /// An attribute line above the item holds a `cfg(...)` — it is
    /// conditionally compiled (e.g. `strict-invariants` diagnostics) and
    /// therefore not part of the unconditional hot path.
    pub cfg_gated: bool,
}

/// What the item finder reads off one file's tokens.
pub(crate) struct Items {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// The 1-based line extent of every `#[cfg(test)]` item, from its
    /// attribute on.
    pub cfg_test: Vec<RangeInclusive<usize>>,
}

/// The item finder: one walk over a file's full token stream (comments
/// included), as [`crate::tokens::lex`] returns it.
pub(crate) fn find_items(source: &str, tokens: &[Token]) -> Items {
    let last_line = source.lines().count().max(1);
    // Indices of the code tokens, so an item's neighbours across comments
    // are one step away.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let is = |t: Option<&Token>, text: &str| {
        t.is_some_and(|t| t.text == text && matches!(t.kind, TokenKind::Ident | TokenKind::Punct))
    };
    let line_of = |end: Option<usize>| end.map_or(last_line, |e| tokens[e].line);
    let mut items = Items {
        fns: Vec::new(),
        cfg_test: Vec::new(),
    };
    for (k, &i) in code.iter().enumerate() {
        // The code token `d` steps from this one.
        let at = |d: isize| {
            k.checked_add_signed(d)
                .and_then(|j| code.get(j))
                .map(|&j| &tokens[j])
        };
        let line = tokens[i].line;
        if is(at(0), "cfg") && is(at(-1), "[") && is(at(1), "(") && is(at(2), "test") {
            items.cfg_test.push(line..=line_of(extent(tokens, i).1));
        }
        if !is(at(0), "fn") {
            continue;
        }
        let Some(name) = at(1).filter(|n| n.kind == TokenKind::Ident) else {
            continue; // `fn(…)`: a function-pointer type, not an item
        };
        let (open, end) = extent(tokens, i);
        let head_end = open.or(end);
        let (docs, cfg_gated) = lines_above(tokens, line);
        items.fns.push(FnItem {
            name: name.text.clone(),
            is_pub: is(at(-1), "pub") || (is(at(-1), "const") && is(at(-2), "pub")),
            start_line: line,
            end_line: line_of(end),
            signature: blank(
                source,
                &tokens[i..head_end.unwrap_or(tokens.len())],
                tokens[i].span.start..head_end.map_or(source.len(), |e| tokens[e].span.start),
            ),
            body: open.map(|o| tokens[o].line..=line_of(end)),
            docs,
            cfg_gated,
        });
    }
    items
}

/// Walks the item whose head starts at token `from`: the index of its
/// body's `{` (`None` when a `;` ends the item first) and of its last
/// token, that `;` or the matching `}` (`None` when the file ends first).
/// A `;` inside the head's parentheses or brackets, as in `[f64; 6]`,
/// does not end the item.
fn extent(tokens: &[Token], from: usize) -> (Option<usize>, Option<usize>) {
    let (mut open, mut depth, mut nest) = (None, 0usize, 0usize);
    for (i, t) in tokens.iter().enumerate().skip(from) {
        if t.is_punct('{') {
            open = open.or(Some(i));
            depth += 1;
        } else if t.is_punct('}') && open.is_some() {
            depth -= 1;
            if depth == 0 {
                return (open, Some(i));
            }
        } else if open.is_none() {
            if t.is_punct('(') || t.is_punct('[') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                nest = nest.saturating_sub(1);
            } else if t.is_punct(';') && nest == 0 {
                return (None, Some(i));
            }
        }
    }
    (open, None)
}

/// The attribute and comment lines directly above 1-based `line`: their
/// `///` docs (see [`FnItem::docs`]) and whether an attribute holds a
/// `cfg(...)`.
fn lines_above(tokens: &[Token], line: usize) -> (String, bool) {
    let (mut docs, mut in_docs, mut cfg_gated) = (String::new(), true, false);
    for l in (1..line).rev() {
        let on_line = &tokens
            [tokens.partition_point(|t| t.line < l)..tokens.partition_point(|t| t.line <= l)];
        match on_line.first() {
            Some(t) if t.is_punct('#') => {
                cfg_gated |= on_line
                    .windows(2)
                    .any(|w| w[0].is_ident("cfg") && w[1].is_punct('('));
            }
            Some(t) if t.kind == TokenKind::LineComment => match t.text.strip_prefix("///") {
                Some(doc) if in_docs => {
                    docs.push_str(doc);
                    docs.push('\n');
                }
                Some(_) => {}
                None => in_docs = false,
            },
            _ => break,
        }
    }
    (docs, cfg_gated)
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The raw source text.
    pub raw: String,
    /// Lexically cleaned source plus line metadata (see
    /// [`crate::scanner`]).
    pub cleaned: CleanedSource,
    /// The comment-free token stream, string-literal contents retained
    /// (see [`crate::tokens::tokenize`]).
    pub tokens: Vec<Token>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl FileModel {
    /// Builds the model for one file's source, lexing it once.
    pub fn from_source(rel: String, raw: String) -> Self {
        let mut tokens = lex(&raw);
        let Items { fns, cfg_test } = find_items(&raw, &tokens);
        let cleaned = project(&raw, &tokens, &cfg_test);
        tokens.retain(|t| !t.is_comment());
        FileModel {
            rel,
            raw,
            cleaned,
            tokens,
            fns,
        }
    }

    /// The innermost `fn` whose span contains 1-based `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Index one past the last token on or before 1-based `line`
    /// (tokens are in line order).
    pub fn tokens_end_of_line(&self, line: usize) -> usize {
        self.tokens.partition_point(|t| t.line <= line)
    }
}

/// Every file loaded for one verify run, sorted by path.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The file models, sorted by [`FileModel::rel`].
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Loads every `.rs` file under `paths` (directories are walked
    /// recursively; `.rs` entries load directly). Skips `target/` and
    /// integration-test trees (`tests/`, `benches/`, `examples/`,
    /// `src/bin`) — unit `#[cfg(test)]` modules are kept and handled by
    /// per-line exemption. Duplicate paths collapse. Unreadable files are
    /// returned in the error list rather than silently dropped.
    pub fn load(root: &Path, paths: &[&str]) -> (Self, Vec<String>) {
        let mut abs_files: Vec<PathBuf> = Vec::new();
        for rel in paths {
            let full = root.join(rel);
            if full.extension().is_some_and(|e| e == "rs") {
                abs_files.push(full);
            } else {
                walk_rust_files(&full, &mut abs_files);
            }
        }
        abs_files.sort();
        abs_files.dedup();

        let mut errors = Vec::new();
        let mut files = Vec::new();
        for path in abs_files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(&path) {
                Ok(raw) => files.push(FileModel::from_source(rel, raw)),
                Err(e) => errors.push(format!("cannot read {rel}: {e}")),
            }
        }
        (Workspace { files }, errors)
    }

    /// Looks a file up by workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Collects `.rs` files under `dir`, skipping exempt trees.
fn walk_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "bin" | "tests" | "benches" | "examples" | "target"
            ) {
                continue;
            }
            walk_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_enclosing_lookup() {
        let src = "\
fn outer() {
    let x = 1;
    helper(x);
}

fn helper(x: u32) -> u32 {
    x + 1
}
";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "outer");
        assert_eq!((m.fns[0].start_line, m.fns[0].end_line), (1, 4));
        assert_eq!(m.enclosing_fn(2).unwrap().name, "outer");
        assert_eq!(m.enclosing_fn(7).unwrap().name, "helper");
        assert!(m.enclosing_fn(5).is_none());
    }

    #[test]
    fn cfg_attributes_gate_items() {
        let src = "\
#[cfg(feature = \"strict-invariants\")]
fn check_invariants() {
    let detail = format!(\"x\");
}

#[inline]
fn hot() -> u32 { 1 }
";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        assert!(m.fns[0].cfg_gated);
        assert!(!m.fns[1].cfg_gated);
    }

    #[test]
    fn nested_fns_pick_innermost() {
        let src = "\
fn outer() {
    fn inner(a: u32) -> u32 {
        a
    }
    inner(1);
}
";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        assert_eq!(m.enclosing_fn(3).unwrap().name, "inner");
        assert_eq!(m.enclosing_fn(5).unwrap().name, "outer");
    }

    #[test]
    fn item_finder_reads_heads_bodies_and_docs() {
        let src = "\
/// Parses.
///
/// # Errors
// A plain comment ends the docs above it.
/// When it fails.
#[inline]
pub fn parse(s: &str) -> Result<u32, String> // note {
{
    s.parse().map_err(|_| \"{\".into())
}
pub(crate) fn hidden() {}
pub const fn konst() -> u32 { 1 }
trait T {
    fn decl(&self);
}
";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        let f = &m.fns[0];
        assert_eq!((f.name.as_str(), f.is_pub), ("parse", true));
        assert_eq!(
            (f.start_line, f.end_line, f.body.clone()),
            (7, 10, Some(8..=10))
        );
        assert_eq!(
            f.signature,
            "fn parse(s: &str) -> Result<u32, String>          \n"
        );
        assert_eq!(f.docs, " When it fails.\n");
        assert!(!m.fns[1].is_pub);
        assert!(m.fns[2].is_pub);
        let decl = &m.fns[3];
        assert_eq!(
            (decl.start_line, decl.end_line, decl.body.clone()),
            (14, 14, None)
        );
    }

    #[test]
    fn a_semicolon_inside_brackets_does_not_end_the_head() {
        let src = "\
fn numbers(&self) -> [f64; 6] {
    [0.0; 6]
}
trait T {
    fn pair(&self) -> [u8; 2];
}
";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        let f = &m.fns[0];
        assert_eq!(
            (f.start_line, f.end_line, f.body.clone()),
            (1, 3, Some(1..=3))
        );
        let decl = &m.fns[1];
        assert_eq!(
            (decl.start_line, decl.end_line, decl.body.clone()),
            (5, 5, None)
        );
    }

    #[test]
    fn token_line_partition() {
        let src = "fn a() {}\nfn b() {}\n";
        let m = FileModel::from_source("x.rs".to_string(), src.to_string());
        let end1 = m.tokens_end_of_line(1);
        assert!(m.tokens[..end1].iter().all(|t| t.line == 1));
        assert!(m.tokens[end1..].iter().all(|t| t.line == 2));
    }
}
