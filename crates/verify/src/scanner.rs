//! Lexical preprocessing for the line rules: a projection of the token
//! stream.
//!
//! Rust's grammar is too rich for substring matching: `panic!` inside a
//! doc comment, `HashMap` inside a string literal, or `==` inside a
//! `#[cfg(test)]` module must not trip a rule. [`clean`] lexes the file
//! once ([`crate::tokens::lex`]) and projects the tokens onto a blanked
//! copy of the source — every comment, string and char literal token
//! (prefixes, quotes and hashes included) replaced by one space per
//! character, newlines kept — plus per-line metadata:
//!
//! * which lines sit inside `#[cfg(test)]` items (rules skip them), as
//!   the item finder in [`crate::model`] reads them off the tokens,
//! * which `verify: allow(<rule>): <justification>` directives are in
//!   scope for each line, parsed from the line-comment tokens (a directive
//!   suppresses its rule on the directive's own line and the line
//!   immediately below, so it works both as a trailing comment and as a
//!   standalone comment above the site),
//! * malformed directives (missing rule or justification), which the
//!   driver reports as violations so the allowlist cannot silently rot.

use std::ops::{Range, RangeInclusive};

use crate::model::find_items;
use crate::tokens::{lex, Token, TokenKind};

/// One suppression directive parsed from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// 1-based line of the directive comment.
    pub line: usize,
}

/// The result of lexically cleaning one source file.
#[derive(Debug, Clone)]
pub struct CleanedSource {
    /// The source with comments and string/char literals replaced by
    /// spaces. Byte-for-byte the same line structure as the input.
    pub code: String,
    /// `is_test_line[l]` (0-based) — line `l + 1` is inside a
    /// `#[cfg(test)]` item.
    pub is_test_line: Vec<bool>,
    /// Per 0-based line: the allow directives that cover it.
    pub allows: Vec<Vec<Allow>>,
    /// 1-based lines holding a `verify:` directive that failed to parse.
    pub bad_directives: Vec<usize>,
}

impl CleanedSource {
    /// Whether `rule` is suppressed on 1-based line `line`.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .get(line.saturating_sub(1))
            .map(|list| list.iter().any(|a| a.rule == rule || a.rule == "all"))
            .unwrap_or(false)
    }

    /// Whether 1-based line `line` is inside a `#[cfg(test)]` item.
    pub fn is_test(&self, line: usize) -> bool {
        self.is_test_line
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Cleans one file. Never fails: unterminated constructs blank to EOF.
pub fn clean(source: &str) -> CleanedSource {
    let tokens = lex(source);
    project(source, &tokens, &find_items(source, &tokens).cfg_test)
}

/// Projects one file's full token stream (comments included) onto its
/// [`CleanedSource`]; `cfg_test` holds the 1-based line extents of its
/// `#[cfg(test)]` items.
pub(crate) fn project(
    source: &str,
    tokens: &[Token],
    cfg_test: &[RangeInclusive<usize>],
) -> CleanedSource {
    let num_lines = source.lines().count().max(1);
    let mut allows = vec![Vec::new(); num_lines];
    let mut bad_directives = Vec::new();
    for t in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
        parse_directives(&t.text, t.line, &mut allows, &mut bad_directives);
    }
    let mut is_test_line = vec![false; num_lines];
    for extent in cfg_test {
        for mark in is_test_line
            .iter_mut()
            .take(*extent.end())
            .skip(extent.start() - 1)
        {
            *mark = true;
        }
    }
    CleanedSource {
        code: blank(source, tokens, 0..source.len()),
        is_test_line,
        allows,
        bad_directives,
    }
}

/// `source[range]` with the comment and literal `tokens` in it replaced by
/// one space per character, newlines kept. `tokens` must lie in `range`.
pub(crate) fn blank(source: &str, tokens: &[Token], range: Range<usize>) -> String {
    let mut out = String::with_capacity(range.len());
    let mut at = range.start;
    let blanked = |t: &&Token| t.is_comment() || matches!(t.kind, TokenKind::Str | TokenKind::Char);
    for t in tokens.iter().filter(blanked) {
        out.push_str(&source[at..t.span.start]);
        out.extend(
            source[t.span.clone()]
                .chars()
                .map(|c| if c == '\n' { '\n' } else { ' ' }),
        );
        at = t.span.end;
    }
    out.push_str(&source[at..range.end]);
    out
}

/// Parses a `verify: allow(<rule>): <justification>` suppression
/// directive from one comment's text. A directive that fails to parse
/// (empty rule, missing justification, unknown form) is recorded in `bad`
/// instead.
fn parse_directives(comment: &str, line: usize, allows: &mut [Vec<Allow>], bad: &mut Vec<usize>) {
    let Some(pos) = comment.find("verify:") else {
        return;
    };
    let rest = comment[pos + "verify:".len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        bad.push(line);
        return;
    };
    let Some(close) = args.find(')') else {
        bad.push(line);
        return;
    };
    let rule = args[..close].trim();
    let justification = args[close + 1..].trim_start_matches(':').trim();
    if rule.is_empty() || justification.is_empty() {
        bad.push(line);
        return;
    }
    // Covers the directive's own line and the one below it.
    for l in [line, line + 1] {
        if let Some(slot) = allows.get_mut(l.saturating_sub(1)) {
            slot.push(Allow {
                rule: rule.to_string(),
                line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1;\n";
        let c = clean(src);
        assert!(!c.code.contains("HashMap"));
        assert!(c.code.contains("let y = 1;"));
        // Line structure preserved.
        assert_eq!(c.code.lines().count(), src.lines().count());
    }

    #[test]
    fn blanks_raw_strings_and_chars() {
        let src = "let s = r#\"panic!\"#; let c = 'x'; let l: &'static str = s;\n";
        let c = clean(src);
        assert!(!c.code.contains("panic!"));
        assert!(!c.code.contains('x'));
        assert!(c.code.contains("'static"));
    }

    #[test]
    fn marks_cfg_test_blocks() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let c = clean(src);
        assert!(!c.is_test(1));
        assert!(c.is_test(2));
        assert!(c.is_test(4));
        assert!(c.is_test(5));
        assert!(!c.is_test(6));
    }

    #[test]
    fn escaped_quotes_blank_whole() {
        let src = "if c == '\\'' || c == 'x' { q = b'\\''; }\n";
        let c = clean(src);
        assert_eq!(c.code, "if c ==      || c ==     { q =      ; }\n");
    }

    #[test]
    fn marks_bodiless_cfg_test_items() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let c = clean(src);
        assert!(c.is_test(1));
        assert!(c.is_test(2));
        assert!(!c.is_test(3));
    }

    #[test]
    fn parses_allow_directives() {
        let src =
            "let a = 1; // verify: allow(float-eq): exact zero skip\nlet b = 2;\nlet c = 3;\n";
        let c = clean(src);
        assert!(c.is_allowed("float-eq", 1));
        assert!(c.is_allowed("float-eq", 2)); // line below the directive
        assert!(!c.is_allowed("float-eq", 3));
        assert!(!c.is_allowed("no-panic", 1));
        assert!(c.bad_directives.is_empty());
    }

    #[test]
    fn rejects_directive_without_justification() {
        let src = "// verify: allow(no-panic)\nlet a = 1;\n";
        let c = clean(src);
        assert_eq!(c.bad_directives, vec![1]);
        assert!(!c.is_allowed("no-panic", 2));
    }

    #[test]
    fn multiline_block_comment_keeps_lines() {
        let src = "/* a\n b HashMap\n c */\nlet x = 0;\n";
        let c = clean(src);
        assert!(!c.code.contains("HashMap"));
        assert_eq!(c.code.lines().count(), 4);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner panic! */ still comment */ let a = 1;\nx.unwrap();\n";
        let c = clean(src);
        assert!(!c.code.contains("panic"));
        assert!(c.code.contains("let a = 1;"));
        assert!(c.code.contains("x.unwrap();"));
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        let src = "let s = r##\"has \"# inside HashMap\"##; let t = 1;\n";
        let c = clean(src);
        assert!(!c.code.contains("HashMap"));
        assert!(c.code.contains("let t = 1;"));
    }

    #[test]
    fn raw_identifiers_survive_cleaning() {
        // `r#type` is an identifier, not a raw string: it must stay in the
        // cleaned code, and the rest of the line must not be swallowed.
        let src = "let r#type = 3; let after = r#type + 1;\n";
        let c = clean(src);
        assert!(c.code.contains("r#type"), "{:?}", c.code);
        assert!(c.code.contains("let after"));
    }

    #[test]
    fn byte_and_raw_byte_strings_blank_without_escapes() {
        // `br#"..."#` has no escape processing: a trailing backslash before
        // the terminator must not swallow the rest of the file.
        let src = "let a = br#\"raw\\\"#; let b = b\"esc\\\"q\"; panic!();\n";
        let c = clean(src);
        assert!(!c.code.contains("raw"));
        assert!(!c.code.contains("esc"));
        // The code after both literals is still visible to rules.
        assert!(c.code.contains("panic!"), "{:?}", c.code);
        assert_eq!(c.code.lines().count(), src.lines().count());
    }

    #[test]
    fn multiline_string_containing_comment_markers() {
        // A `//` inside a multi-line string is string content, not a
        // comment: the string must still terminate on the later quote and
        // the directive-looking text inside must be inert.
        let src = "let s = \"line one // verify: allow(no-panic): fake\nline two\";\nx.unwrap();\n";
        let c = clean(src);
        assert!(!c.is_allowed("no-panic", 1));
        assert!(!c.is_allowed("no-panic", 3));
        assert!(c.code.contains("x.unwrap();"));
        assert_eq!(c.code.lines().count(), src.lines().count());
    }
}
