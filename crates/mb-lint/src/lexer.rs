//! A hand-rolled Rust lexer, just rich enough for contract linting.
//!
//! The rules in this crate match *token sequences*, never raw text, so the
//! one job this lexer must do perfectly is classification: source text that
//! lives inside a string literal, raw string, byte string, char literal, or
//! comment must come out as a `Str`/`CharLit`/`…Comment` token and never as
//! identifiers — otherwise `"std::thread::spawn"` in a log message would trip
//! `no-adhoc-threads`. Comments are kept in the stream (with their text)
//! because two rules read them: `unsafe-needs-safety-comment` looks for
//! `// SAFETY:` blocks and the suppression pragmas live in `//` comments.

/// One lexed token. `line` is 1-based and refers to the token's first line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

/// Token classes. Literal payloads are dropped except where a rule needs
/// them: identifier text drives every pattern match and comment text carries
/// SAFETY markers and pragmas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`unsafe`, `for`, `HashMap`, …).
    Ident(String),
    /// Any single punctuation character (`.`, `:`, `{`, …).
    Punct(char),
    /// String literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`.
    Str,
    /// Character literal: `'x'`, `'\n'`, `b'x'`.
    CharLit,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// Numeric literal (int or float, any base, with suffix).
    Num,
    /// `// …` comment; text excludes the leading slashes.
    LineComment(String),
    /// `/* … */` comment (nesting handled); text excludes the delimiters.
    /// `end_line` lets callers treat every spanned line as commented.
    BlockComment { text: String, end_line: u32 },
}

impl TokenKind {
    /// The identifier text, if this token is an identifier.
    pub(crate) fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }
}

/// Lex `src` into a token stream. Unterminated literals or comments consume
/// the rest of the input as that literal; the lexer never fails.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                cur.bump();
                cur.bump();
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.push(Token {
                    kind: TokenKind::LineComment(text),
                    line,
                });
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut text = String::new();
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            text.push_str("/*");
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                            if depth > 0 {
                                text.push_str("*/");
                            }
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.push(Token {
                    kind: TokenKind::BlockComment {
                        text,
                        end_line: cur.line,
                    },
                    line,
                });
            }
            '"' => {
                lex_escaped_string(&mut cur);
                out.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            '\'' => {
                out.push(lex_quote(&mut cur, line));
            }
            _ if c.is_ascii_digit() => {
                lex_number(&mut cur);
                out.push(Token {
                    kind: TokenKind::Num,
                    line,
                });
            }
            _ if is_ident_start(c) => {
                let mut ident = String::new();
                while let Some(c) = cur.peek(0) {
                    if is_ident_continue(c) {
                        ident.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                // String-literal prefixes: r"", r#""#, b"", br#""#, rb (not
                // Rust, but harmless), and raw identifiers r#name.
                let next = cur.peek(0);
                let is_raw_prefix = matches!(ident.as_str(), "r" | "br")
                    && (next == Some('"') || next == Some('#'));
                let is_byte_prefix = ident == "b" && (next == Some('"') || next == Some('\''));
                if is_raw_prefix && next == Some('#') && !raw_hashes_open_string(&cur) {
                    // `r#ident`: a raw identifier, not a raw string.
                    cur.bump(); // '#'
                    let mut name = String::new();
                    while let Some(c) = cur.peek(0) {
                        if is_ident_continue(c) {
                            name.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    out.push(Token {
                        kind: TokenKind::Ident(name),
                        line,
                    });
                } else if is_raw_prefix {
                    lex_raw_string(&mut cur);
                    out.push(Token {
                        kind: TokenKind::Str,
                        line,
                    });
                } else if is_byte_prefix {
                    if next == Some('"') {
                        lex_escaped_string(&mut cur);
                        out.push(Token {
                            kind: TokenKind::Str,
                            line,
                        });
                    } else {
                        out.push(lex_quote(&mut cur, line));
                    }
                } else {
                    out.push(Token {
                        kind: TokenKind::Ident(ident),
                        line,
                    });
                }
            }
            _ => {
                cur.bump();
                out.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
            }
        }
    }
    out
}

/// After an `r`/`br` prefix, decide whether the `#`s ahead open a raw string
/// (`r##"…"##`) as opposed to a raw identifier (`r#name`).
fn raw_hashes_open_string(cur: &Cursor) -> bool {
    let mut ahead = 0;
    while cur.peek(ahead) == Some('#') {
        ahead += 1;
    }
    cur.peek(ahead) == Some('"')
}

/// Consume a `"…"` string with `\` escapes; the opening quote is at the
/// cursor.
fn lex_escaped_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // the escaped character, whatever it is
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consume `#*"…"#*` with the opening `#`-run or quote at the cursor.
fn lex_raw_string(cur: &mut Cursor) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            Some('"') => {
                let mut seen = 0usize;
                while seen < hashes && cur.peek(0) == Some('#') {
                    seen += 1;
                    cur.bump();
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {}
            None => return,
        }
    }
}

/// Consume a `'…'` char literal or a `'name` lifetime; the quote is at the
/// cursor (or, for `b'x'`, already consumed along with the `b`).
fn lex_quote(cur: &mut Cursor, line: u32) -> Token {
    if cur.peek(0) == Some('\'') {
        cur.bump(); // opening quote
    }
    match (cur.peek(0), cur.peek(1)) {
        // `'a` / `'static` / `'_` — ident char NOT closed by a quote.
        (Some(c), closing) if is_ident_start(c) && closing != Some('\'') => {
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    cur.bump();
                } else {
                    break;
                }
            }
            Token {
                kind: TokenKind::Lifetime,
                line,
            }
        }
        _ => {
            // Char literal: consume (escaped) content to the closing quote.
            while let Some(c) = cur.bump() {
                match c {
                    '\\' => {
                        cur.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            Token {
                kind: TokenKind::CharLit,
                line,
            }
        }
    }
}

/// Consume a numeric literal. Greedy over ident chars (covers `0xFF`, `1_000`,
/// `3f64`), but a `.` is taken only when followed by a digit so tuple-field
/// method chains like `y.1.total_cmp(..)` keep their `.` tokens.
fn lex_number(cur: &mut Cursor) {
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            let at_exponent = (c == 'e' || c == 'E')
                && matches!(cur.peek(1), Some(d) if d.is_ascii_digit() || d == '+' || d == '-');
            cur.bump();
            if at_exponent && matches!(cur.peek(0), Some('+') | Some('-')) {
                cur.bump();
            }
        } else if c == '.' && matches!(cur.peek(1), Some(d) if d.is_ascii_digit()) {
            cur.bump();
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_idents() {
        let src = r##"
            let a = "std::thread::spawn";
            // Instant::now in a comment
            /* partial_cmp in /* a nested */ block */
            let b = r#"unsafe { HashMap::new() }"#;
            let c = '\'';
            let d = b"no idents \" here";
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "let", "d"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'x'; x }";
        let toks = lex(src);
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = toks.iter().filter(|t| t.kind == TokenKind::CharLit).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 1);
    }

    #[test]
    fn tuple_field_chains_keep_dots() {
        let toks = lex("y.1.total_cmp(&x.1)");
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Punct('.'))
            .count();
        assert_eq!(dots, 3);
        assert!(toks.iter().any(|t| t.kind.ident() == Some("total_cmp")));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = lex("let r#type = 1;");
        assert!(toks.iter().any(|t| t.kind.ident() == Some("type")));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "/* a\nb */\nfn f() {}\n";
        let toks = lex(src);
        match &toks[0].kind {
            TokenKind::BlockComment { end_line, .. } => {
                assert_eq!(toks[0].line, 1);
                assert_eq!(*end_line, 2);
            }
            other => panic!("expected block comment, got {other:?}"),
        }
        assert_eq!(toks[1].line, 3); // `fn`
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        lex("let s = \"unclosed");
        lex("let s = r#\"unclosed");
        lex("/* unclosed");
        lex("let c = '");
    }
}
