//! The one lexer of `grefar-verify`: every rule and pass reads a file
//! through its tokens.
//!
//! [`lex`] turns a file into [`Token`]s — identifiers, literals, lifetimes,
//! numbers, punctuation and comments — each tagged with its 1-based line
//! and its byte span in the source. It understands nested block comments,
//! raw strings with any hash count, byte and raw byte strings, raw
//! identifiers (`r#type`), char literals (escaped quotes included) vs
//! lifetimes, and multi-line strings with line-continuation escapes.
//! Everything else is a view of that one stream:
//! [`clean`](crate::scanner::clean) blanks its literal and comment spans
//! for the line rules, the item finder in [`crate::model`] walks it for
//! `fn` items and `#[cfg(test)]` extents, and the cross-file passes match
//! on the comment-free sequence [`tokenize`] returns, where string
//! contents (event names, field keys) survive.
//!
//! It is deliberately not a full Rust lexer: numbers are lexed
//! approximately (good enough to not split `1.5e-3` or glue `0..n`), and
//! multi-char operators are emitted as single-char [`TokenKind::Punct`]
//! tokens (`::` is two `:` tokens). The passes match on token sequences,
//! so neither simplification loses information they need.

use std::ops::Range;

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Event`, `r#type` — raw prefix
    /// stripped, so `text` is `type`).
    Ident,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`); `text`
    /// holds the (basic-unescaped) contents.
    Str,
    /// A char or byte literal (`'x'`, `b'\n'`); `text` holds the
    /// contents, unescaped like a string's.
    Char,
    /// A lifetime (`'a`, `'static`); `text` holds the name without `'`.
    Lifetime,
    /// A numeric literal (`42`, `1.5e-3`, `0xff`, `1_000u64`).
    Number,
    /// A single punctuation character (`{`, `.`, `:`, `=` …).
    Punct,
    /// A `//` comment up to its newline; `text` is the whole comment.
    LineComment,
    /// A `/* … */` comment, nesting honored; `text` is the whole comment.
    BlockComment,
}

/// One token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// Identifier text, literal contents, the punctuation character, or
    /// the comment.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Byte range of the whole token in the source: literal prefixes,
    /// quotes and hashes included.
    pub span: Range<usize>,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Is this a comment? The passes never see one (see [`tokenize`]).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes one file without its comments: the sequence the cross-file
/// passes match on.
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = lex(source);
    tokens.retain(|t| !t.is_comment());
    tokens
}

/// Lexes one file into every token, comments included. Never fails:
/// unterminated constructs run to EOF.
pub fn lex(source: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src: source,
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::with_capacity(source.len() / 4);
    while let Some(c) = lx.char_at(lx.pos) {
        let (start, line) = (lx.pos, lx.line);
        let (kind, text) = match c {
            c if c.is_whitespace() => {
                lx.bump();
                continue;
            }
            '/' if lx.byte(start + 1) == Some(b'/') => {
                lx.pos = source[start..]
                    .find('\n')
                    .map_or(source.len(), |n| start + n);
                (TokenKind::LineComment, source[start..lx.pos].to_string())
            }
            '/' if lx.byte(start + 1) == Some(b'*') => {
                lx.block_comment();
                (TokenKind::BlockComment, source[start..lx.pos].to_string())
            }
            '"' => (TokenKind::Str, lx.quoted('"')),
            '\'' => lx.char_or_lifetime(),
            c if c.is_ascii_digit() => (TokenKind::Number, lx.number()),
            c if is_ident_start(c) => lx
                .prefixed_literal()
                .unwrap_or_else(|| (TokenKind::Ident, lx.ident())),
            c => {
                lx.bump();
                (TokenKind::Punct, c.to_string())
            }
        };
        tokens.push(Token {
            kind,
            text,
            line,
            span: start..lx.pos,
        });
    }
    tokens
}

/// The cursor: a byte offset (always on a char boundary) and its line.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl Lexer<'_> {
    fn byte(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    fn char_at(&self, i: usize) -> Option<char> {
        self.src.get(i..)?.chars().next()
    }

    /// Steps over one char, counting newlines.
    fn bump(&mut self) -> Option<char> {
        let c = self.char_at(self.pos)?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// The run of identifier characters at the cursor.
    fn ident(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.char_at(self.pos).filter(|&c| is_ident_continue(c)) {
            self.pos += c.len_utf8();
        }
        self.src[start..self.pos].to_string()
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.byte(self.pos), self.byte(self.pos + 1)) {
                (None, _) => break,
                (Some(b'/'), Some(b'*')) => depth += 1,
                (Some(b'*'), Some(b'/')) => depth -= 1,
                _ => {
                    self.bump();
                    continue;
                }
            }
            self.pos += 2;
        }
    }

    /// A literal with escapes (`"…"`, `'\…'`) from its opening `quote` at
    /// the cursor through the first unescaped closing one; returns the
    /// contents with the basic escapes decoded.
    fn quoted(&mut self, quote: char) -> String {
        self.pos += 1;
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => match self.bump() {
                    Some('n') => text.push('\n'),
                    Some('t') => text.push('\t'),
                    Some('r') => text.push('\r'),
                    Some(e @ ('"' | '\'' | '\\')) => text.push(e),
                    Some('\n') | None => {} // line-continuation escape
                    Some(other) => {
                        text.push('\\');
                        text.push(other);
                    }
                },
                c if c == quote => break,
                c => text.push(c),
            }
        }
        text
    }

    /// A char literal or a lifetime, from the `'` at the cursor.
    fn char_or_lifetime(&mut self) -> (TokenKind, String) {
        let start = self.pos;
        if self.byte(start + 1) == Some(b'\\') {
            return (TokenKind::Char, self.quoted('\''));
        }
        if let Some(c) = self.char_at(start + 1).filter(|&c| c != '\'' && c != '\n') {
            if self.byte(start + 1 + c.len_utf8()) == Some(b'\'') {
                self.pos += 2 + c.len_utf8();
                return (TokenKind::Char, c.to_string());
            }
        }
        self.pos += 1;
        (TokenKind::Lifetime, self.ident())
    }

    /// A numeric literal: digits plus alphanumeric/underscore
    /// continuation, a fraction part (but not `..`), and a signed exponent
    /// (not in hex, where `e` is a digit).
    fn number(&mut self) -> String {
        let src = self.src;
        let b = src.as_bytes();
        let start = self.pos;
        let word = |i: usize| {
            b.get(i)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        };
        let signed_exponent =
            |i: usize| matches!(b.get(i), Some(b'-' | b'+')) && matches!(b[i - 1], b'e' | b'E');
        let mut j = start;
        while word(j) {
            j += 1;
            if signed_exponent(j) && !b[start..].starts_with(b"0x") {
                j += 1;
            }
        }
        if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
            j += 1;
            while word(j) {
                j += 1;
                if signed_exponent(j) {
                    j += 1;
                }
            }
        }
        self.pos = j;
        src[start..j].to_string()
    }

    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` and the raw identifier
    /// `r#ident`; `None` when the identifier at the cursor is no literal
    /// prefix.
    fn prefixed_literal(&mut self) -> Option<(TokenKind, String)> {
        let at = self.pos;
        let hashes = |i: usize| {
            self.src.as_bytes()[i..]
                .iter()
                .take_while(|&&b| b == b'#')
                .count()
        };
        match (self.byte(at), self.byte(at + 1)) {
            (Some(b'r'), Some(b'#' | b'"')) => {
                let n = hashes(at + 1);
                if self.byte(at + 1 + n) == Some(b'"') {
                    Some(self.raw_string(at + 1, n))
                } else if n == 1 && self.char_at(at + 2).is_some_and(is_ident_start) {
                    self.pos = at + 2;
                    Some((TokenKind::Ident, self.ident()))
                } else {
                    None
                }
            }
            (Some(b'b'), Some(b'"')) => {
                self.pos += 1;
                Some((TokenKind::Str, self.quoted('"')))
            }
            (Some(b'b'), Some(b'\'')) => {
                self.pos += 1;
                Some(self.char_or_lifetime())
            }
            (Some(b'b'), Some(b'r')) => {
                let n = hashes(at + 2);
                (self.byte(at + 2 + n) == Some(b'"')).then(|| self.raw_string(at + 2, n))
            }
            _ => None,
        }
    }

    /// A raw string whose `hashes` hashes start at `hash_start`; backslashes
    /// are not escapes.
    fn raw_string(&mut self, hash_start: usize, hashes: usize) -> (TokenKind, String) {
        let content = hash_start + hashes + 1;
        let close = format!("\"{}", "#".repeat(hashes));
        let end = self.src[content..]
            .find(&close)
            .map_or(self.src.len(), |n| content + n);
        self.line += self.src[content..end].matches('\n').count();
        self.pos = (end + close.len()).min(self.src.len());
        (TokenKind::Str, self.src[content..end].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn basic_stream() {
        let toks = kinds("fn main() { let x = 1.5; }");
        assert!(toks.contains(&(TokenKind::Ident, "fn".into())));
        assert!(toks.contains(&(TokenKind::Number, "1.5".into())));
    }

    #[test]
    fn string_contents_survive() {
        let toks = tokenize("Event::new(\"grefar.decide\")");
        let strs: Vec<&Token> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "grefar.decide");
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = tokenize(r####"let a = r#"one "quoted" two"#; let b = r"plain";"####);
        let strs: Vec<String> = toks
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(
            strs,
            vec!["one \"quoted\" two".to_string(), "plain".to_string()]
        );
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = tokenize("let a = b\"bytes\"; let b = br#\"raw\\bytes\"#;");
        let strs: Vec<String> = toks
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(strs, vec!["bytes".to_string(), "raw\\bytes".to_string()]);
    }

    #[test]
    fn raw_identifier_keeps_name() {
        let toks = tokenize("let r#type = 1;");
        assert!(toks.iter().any(|t| t.is_ident("type")));
        // And `r` alone stays an ordinary identifier.
        let toks = tokenize("let r = 1;");
        assert!(toks.iter().any(|t| t.is_ident("r")));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = tokenize("let c: char = 'x'; fn f<'a>(s: &'a str) {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "x"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let src = "// line one\n/* nested /* deep */ still */\nfn f() {}\n\"multi\nline\"\n";
        let toks = tokenize(src);
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 3);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.line, 4);
        assert_eq!(s.text, "multi\nline");
    }

    #[test]
    fn escaped_quotes_lex_as_one_literal() {
        let toks = kinds("c == '\\'' || c == 'x' || b == b'\\'';");
        let chars: Vec<&(TokenKind, String)> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(
            chars,
            [
                &(TokenKind::Char, "'".to_string()),
                &(TokenKind::Char, "x".to_string()),
                &(TokenKind::Char, "'".to_string()),
            ]
        );
        assert!(
            toks.iter().all(|(k, _)| *k != TokenKind::Lifetime),
            "{toks:?}"
        );
    }

    #[test]
    fn spans_cover_whole_tokens_and_comments_stay_in_lex() {
        let src = "let s = br#\"x\"#; // note\n/* a /* b */ */ c\n";
        let all = lex(src);
        let spans: Vec<&str> = all.iter().map(|t| &src[t.span.clone()]).collect();
        assert_eq!(
            spans,
            [
                "let",
                "s",
                "=",
                "br#\"x\"#",
                ";",
                "// note",
                "/* a /* b */ */",
                "c"
            ]
        );
        assert_eq!(all[5].kind, TokenKind::LineComment);
        assert_eq!((all[6].kind, all[7].line), (TokenKind::BlockComment, 2));
        assert!(tokenize(src).iter().all(|t| !t.is_comment()));
        assert_eq!(tokenize(src).len(), all.len() - 2);
    }

    #[test]
    fn ranges_do_not_glue() {
        let toks = kinds("for i in 0..n { a[i] = 1e-9; }");
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Number, "1e-9".into())));
    }
}
