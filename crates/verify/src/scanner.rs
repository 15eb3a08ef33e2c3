//! Lexical preprocessing for the lint rules.
//!
//! Rust's grammar is too rich for substring matching: `panic!` inside a
//! doc comment, `HashMap` inside a string literal, or `==` inside a
//! `#[cfg(test)]` module must not trip a rule. [`clean`] produces a
//! blanked copy of the source — comments, string/char literals replaced by
//! spaces, newlines preserved — plus per-line metadata:
//!
//! * which lines sit inside `#[cfg(test)]` items (rules skip them),
//! * which `verify: allow(<rule>): <justification>` directives are in
//!   scope for each line (a directive suppresses its rule on the
//!   directive's own line and the line immediately below, so it works both
//!   as a trailing comment and as a standalone comment above the site),
//! * malformed directives (missing rule or justification), which the
//!   driver reports as violations so the allowlist cannot silently rot.

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
    /// The source with comments and string/char-literal contents replaced
    /// by spaces. Byte-for-byte the same line structure as the input.
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
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let num_lines = source.lines().count().max(1);
    let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); num_lines + 1];
    let mut bad_directives = Vec::new();

    let mut line = 1usize; // current 1-based line
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                // Line comment: scan to end of line, parse directives.
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                parse_directives(&text, line, &mut allows, &mut bad_directives);
                for _ in start..i {
                    out.push(' ');
                }
            }
            '/' if next == Some('*') => {
                // Block comment, nesting allowed.
                let mut depth = 1usize;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        push_blanked(&mut out, chars[i], &mut line);
                        i += 1;
                    }
                }
                continue;
            }
            '"' => {
                // Plain string literal (possibly preceded by b, handled as
                // ordinary chars). Blank the contents, honor escapes.
                out.push(' ');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        out.push_str("  ");
                        if chars[i + 1] == '\n' {
                            out.pop();
                            out.pop();
                            out.push(' ');
                            out.push('\n');
                            line += 1;
                        }
                        i += 2;
                    } else if chars[i] == '"' {
                        out.push(' ');
                        i += 1;
                        break;
                    } else {
                        push_blanked(&mut out, chars[i], &mut line);
                        i += 1;
                    }
                }
                continue;
            }
            'r' if is_raw_string_start(&chars, i) => {
                // r"..." or r#"..."# (any number of #).
                i = blank_raw_string(&chars, i, &mut out, &mut line);
                continue;
            }
            'b' if is_byte_raw_string_start(&chars, i) => {
                // br"..." / br#"..."#: raw semantics — backslashes are NOT
                // escapes, so the plain-string logic must not see them
                // (it would blank past the terminator to EOF).
                out.push(' '); // the `b`
                i = blank_raw_string(&chars, i + 1, &mut out, &mut line);
                continue;
            }
            '\'' => {
                // Char literal vs lifetime. A literal is 'x' or '\..'; a
                // lifetime is ' followed by an identifier with no closing '.
                if chars.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: blank to the closing quote.
                    out.push(' ');
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' {
                        push_blanked(&mut out, chars[i], &mut line);
                        i += 1;
                    }
                    if i < chars.len() {
                        out.push(' ');
                        i += 1;
                    }
                    continue;
                } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                    out.push_str("   ");
                    i += 3;
                    continue;
                } else {
                    out.push('\''); // lifetime marker, keep
                    i += 1;
                    continue;
                }
            }
            _ => {
                if c == '\n' {
                    line += 1;
                }
                out.push(c);
                i += 1;
            }
        }
        if i < chars.len() && chars[i] == '\n' {
            // Line comments stop *at* the newline; emit it here.
            out.push('\n');
            line += 1;
            i += 1;
        }
    }

    let is_test_line = mark_test_lines(&out);
    let line_count = out.lines().count().max(1);
    allows.truncate(line_count.max(num_lines));
    CleanedSource {
        code: out,
        is_test_line,
        allows,
        bad_directives,
    }
}

/// `r` starts a raw string only when followed by `#`* `"` and not part of
/// an identifier (e.g. `for`, `var_r`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// `b` starts a raw byte string when the next char is an `r` that opens a
/// raw string and `b` itself is not part of an identifier.
fn is_byte_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    if chars.get(i + 1) != Some(&'r') {
        return false;
    }
    let mut j = i + 2;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Blanks a raw string whose `r` sits at `i`; returns the index one past
/// the closing delimiter.
fn blank_raw_string(chars: &[char], i: usize, out: &mut String, line: &mut usize) -> usize {
    let mut j = i + 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // The `r`, hashes, and opening quote.
    for _ in i..=j {
        out.push(' ');
    }
    let mut k = j + 1;
    while k < chars.len() {
        if chars[k] == '"' {
            let mut h = 0usize;
            while h < hashes && chars.get(k + 1 + h) == Some(&'#') {
                h += 1;
            }
            if h == hashes {
                for _ in 0..=hashes {
                    out.push(' ');
                }
                return k + 1 + hashes;
            }
        }
        push_blanked(out, chars[k], line);
        k += 1;
    }
    k
}

fn push_blanked(out: &mut String, c: char, line: &mut usize) {
    if c == '\n' {
        out.push('\n');
        *line += 1;
    } else {
        out.push(' ');
    }
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

/// Marks every line belonging to a `#[cfg(test)]` item (usually the
/// `mod tests { ... }` block) by brace-matching on the blanked source.
fn mark_test_lines(code: &str) -> Vec<bool> {
    let bytes = code.as_bytes();
    let num_lines = code.lines().count().max(1);
    let mut marks = vec![false; num_lines];
    // Byte offset -> 0-based line.
    let mut line_of = Vec::with_capacity(bytes.len() + 1);
    let mut l = 0usize;
    for &b in bytes {
        line_of.push(l);
        if b == b'\n' {
            l += 1;
        }
    }
    line_of.push(l);

    let mut search_from = 0usize;
    while let Some(rel) = code[search_from..].find("cfg(test") {
        let at = search_from + rel;
        search_from = at + 1;
        // Must be inside an attribute: look back for `#[` or `#![` with no
        // closing `]` in between (cheap scan over the current line region).
        let mut window_start = at.saturating_sub(160);
        while !code.is_char_boundary(window_start) {
            window_start -= 1;
        }
        let window = &code[window_start..at];
        if !window.contains("#[") && !window.contains("#![") {
            continue;
        }
        // Extent: from the attribute to the end of the annotated item —
        // the matching `}` of its first block, or the first `;` for a
        // block-less item.
        let mut depth = 0usize;
        let mut started = false;
        let mut end = bytes.len();
        for (off, &b) in bytes.iter().enumerate().skip(at) {
            match b {
                b'{' => {
                    depth += 1;
                    started = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        end = off;
                        break;
                    }
                }
                b';' if !started => {
                    end = off;
                    break;
                }
                _ => {}
            }
        }
        let (start_line, end_line) = (line_of[at], line_of[end.min(bytes.len())]);
        for m in marks.iter_mut().take(end_line + 1).skip(start_line) {
            *m = true;
        }
    }
    marks
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
