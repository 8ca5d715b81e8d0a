//! A hand-rolled Rust lexer with exact spans.
//!
//! Substring scans over masked source cannot see *token structure*: an
//! aliased import (`use std::time::Instant as I`), a call split across
//! lines with a comment between name and parenthesis, or a match arm
//! pattern are all invisible to them. This lexer produces the real
//! token stream — identifiers, literals (including raw/byte strings),
//! punctuation, comments — each carrying its byte span and
//! line/column, so rules and the cross-file passes in
//! [`crate::passes`] operate on structure instead of text.
//!
//! Fidelity contract (checked by the round-trip tests in
//! `tests/lint_gate.rs`): the token texts tile the input exactly —
//! concatenating `token.text(src)` over all tokens reproduces `src`
//! byte-for-byte, with no gaps and no overlaps.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// ...` including doc comments (`///`, `//!`), up to the newline.
    LineComment,
    /// `/* ... */`, nested, including doc block comments.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// `'a`, `'static`, loop labels.
    Lifetime,
    /// `'x'`, `'\n'`, `'\''`.
    CharLit,
    /// `b'x'`.
    ByteLit,
    /// `"..."`.
    StrLit,
    /// `r"..."` / `r#"..."#` with any number of hashes.
    RawStrLit,
    /// `b"..."`.
    ByteStrLit,
    /// `br"..."` / `br#"..."#`.
    RawByteStrLit,
    /// Integer or float literal, with suffix if attached (`1_000u64`).
    NumberLit,
    /// A single punctuation byte (`{`, `=`, `>`, ...). Multi-byte
    /// operators are consecutive `Punct` tokens with adjacent spans.
    Punct,
    /// Anything the lexer does not recognize (kept for round-trip).
    Unknown,
}

/// One token: classification plus exact location in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based byte column of `start` within its line.
    pub col: u32,
}

impl Token {
    /// The token's text within its source file.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Whether this token is code (not whitespace or a comment).
    #[must_use]
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into a complete token stream. Never fails: unrecognized
/// bytes become [`TokenKind::Unknown`] tokens so the stream always
/// tiles the input.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            self.push(kind, start);
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        let (line, col) = (self.line, self.col);
        for &b in &self.src[start..self.pos] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.out.push(Token { kind, start, end: self.pos, line, col });
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        match b {
            _ if b.is_ascii_whitespace() => {
                while self.peek(0).is_some_and(|c| c.is_ascii_whitespace()) {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 && self.pos < self.src.len() {
                    if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                        depth += 1;
                        self.pos += 2;
                    } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                        depth -= 1;
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => self.lex_string(),
            b'\'' => self.lex_char_or_lifetime(),
            b'r' | b'b' => self.lex_prefixed(),
            _ if b.is_ascii_digit() => self.lex_number(),
            _ if is_ident_start(b) => self.lex_ident(),
            _ => {
                self.pos += 1;
                TokenKind::Punct
            }
        }
    }

    /// `"..."` with escapes; the opening quote is at `self.pos`.
    fn lex_string(&mut self) -> TokenKind {
        self.pos += 1;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2.min(self.src.len() - self.pos),
                b'"' => {
                    self.pos += 1;
                    return TokenKind::StrLit;
                }
                _ => self.pos += 1,
            }
        }
        TokenKind::StrLit // unterminated; consume to EOF
    }

    /// `'x'`, `'\n'`, `'\''` char literals vs `'a` lifetimes. The
    /// disambiguation rule is the compiler's: a quote followed by an
    /// escape is a char; a quote, one character, and a closing quote is
    /// a char; otherwise an identifier-start begins a lifetime.
    fn lex_char_or_lifetime(&mut self) -> TokenKind {
        let after = self.peek(1);
        if after == Some(b'\\') {
            // Escaped char literal: the byte after the backslash is the
            // escape determinant ('\\', '\'', 'n', 'x', 'u', ...) and is
            // consumed unconditionally so `'\\'` and `'\''` terminate at
            // their real closing quote.
            self.pos += 3.min(self.src.len() - self.pos);
            while let Some(b) = self.peek(0) {
                match b {
                    b'\\' => self.pos += 2.min(self.src.len() - self.pos),
                    b'\'' => {
                        self.pos += 1;
                        return TokenKind::CharLit;
                    }
                    _ => self.pos += 1,
                }
            }
            return TokenKind::CharLit;
        }
        let Some(first) = after else {
            self.pos += 1;
            return TokenKind::Unknown;
        };
        // Width of the (possibly multi-byte) character after the quote.
        let width = utf8_width(first);
        if self.peek(1 + width) == Some(b'\'') && first != b'\'' {
            self.pos += 1 + width + 1;
            return TokenKind::CharLit;
        }
        if is_ident_start(first) {
            self.pos += 1;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.pos += 1;
            }
            return TokenKind::Lifetime;
        }
        self.pos += 1;
        TokenKind::Unknown
    }

    /// Literals starting with `r` or `b`: raw strings, byte strings,
    /// byte literals, raw identifiers — or a plain identifier.
    fn lex_prefixed(&mut self) -> TokenKind {
        let b0 = self.src[self.pos];
        let mut j = 1usize;
        let mut byte = false;
        let mut raw = false;
        if b0 == b'b' {
            byte = true;
            if self.peek(j) == Some(b'r') {
                raw = true;
                j += 1;
            }
        } else {
            raw = true;
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek(j + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(j + hashes) == Some(b'"') {
                self.pos += j + hashes + 1;
                return self.lex_raw_body(hashes, byte);
            }
            // `r#ident` raw identifier (only for bare `r`, one hash).
            if !byte && hashes == 1 && self.peek(j + 1).is_some_and(is_ident_start) {
                self.pos += 2;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.pos += 1;
                }
                return TokenKind::Ident;
            }
        }
        if byte && !raw {
            if self.peek(1) == Some(b'"') {
                self.pos += 1;
                self.lex_string();
                return TokenKind::ByteStrLit;
            }
            if self.peek(1) == Some(b'\'') {
                self.pos += 1;
                self.lex_char_or_lifetime();
                return TokenKind::ByteLit;
            }
        }
        self.lex_ident()
    }

    /// Body of a raw (byte) string after the opening quote: ends at a
    /// quote followed by exactly `hashes` contiguous `#` bytes.
    fn lex_raw_body(&mut self, hashes: usize, byte: bool) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if b == b'"' && (1..=hashes).all(|k| self.peek(k) == Some(b'#')) {
                self.pos += 1 + hashes;
                return if byte { TokenKind::RawByteStrLit } else { TokenKind::RawStrLit };
            }
            self.pos += 1;
        }
        if byte {
            TokenKind::RawByteStrLit
        } else {
            TokenKind::RawStrLit
        }
    }

    fn lex_number(&mut self) -> TokenKind {
        // Digits, underscores, hex/bin/oct bodies, and type suffixes all
        // fall under "alphanumeric or underscore".
        while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        // A fractional part only if the dot is followed by a digit, so
        // `0..10` stays Number / Punct / Punct / Number.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
        }
        TokenKind::NumberLit
    }

    fn lex_ident(&mut self) -> TokenKind {
        self.pos += 1;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        TokenKind::Ident
    }
}

/// Byte width of a UTF-8 character from its first byte.
fn utf8_width(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1, // continuation byte: malformed input, advance one byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    fn roundtrip(src: &str) {
        let tokens = lex(src);
        let mut rebuilt = String::new();
        let mut pos = 0usize;
        for t in &tokens {
            assert_eq!(t.start, pos, "gap or overlap at byte {pos} in {src:?}");
            rebuilt.push_str(t.text(src));
            pos = t.end;
        }
        assert_eq!(rebuilt, src);
    }

    /// Each input hides a pitfall: escaped quotes and backslashes in
    /// char, byte and string literals, raw strings whose body holds a
    /// shorter terminator, lifetimes beside literals, comments across
    /// lines, numbers beside ranges, and non-ASCII characters. Every
    /// literal and comment must come out whole, with its own kind.
    #[test]
    fn literal_edge_cases_lex_to_their_kinds() {
        use TokenKind::*;
        let cases: [(&str, &[(TokenKind, &str)]); 10] = [
            ("let q = '\\''; q.unwrap();", &[(CharLit, "'\\''"), (Ident, "unwrap")]),
            ("let b = '\\\\'; b.unwrap();", &[(CharLit, "'\\\\'"), (Ident, "unwrap")]),
            (
                "let s = r##\"has \"# inside\"##; keep()",
                &[(RawStrLit, "r##\"has \"# inside\"##"), (Ident, "keep")],
            ),
            (
                "let t = br###\"bytes \"## too\"###; keep()",
                &[(RawByteStrLit, "br###\"bytes \"## too\"###"), (Ident, "keep")],
            ),
            (
                "let lt: &'static str = \"x\"; fn f<'a>(v: &'a u8) {}",
                &[(Lifetime, "'static"), (StrLit, "\"x\""), (Lifetime, "'a"), (Lifetime, "'a")],
            ),
            (
                "let c = b'\\''; let d = b'\\\\'; tail()",
                &[(ByteLit, "b'\\''"), (ByteLit, "b'\\\\'"), (Ident, "tail")],
            ),
            (
                "// comment with 'quote and \"string\n/* block\nspans lines */ x",
                &[
                    (LineComment, "// comment with 'quote and \"string"),
                    (BlockComment, "/* block\nspans lines */"),
                    (Ident, "x"),
                ],
            ),
            (
                "let n = 0xff_u32; let r = 0..10; let f = 1.5e3;",
                &[
                    (NumberLit, "0xff_u32"),
                    (NumberLit, "0"),
                    (NumberLit, "10"),
                    (NumberLit, "1.5e3"),
                ],
            ),
            (
                "let multi = '\u{e9}'; let emoji = \"\u{1F600}\"; after()",
                &[(CharLit, "'\u{e9}'"), (StrLit, "\"\u{1F600}\""), (Ident, "after")],
            ),
            (
                "let esc = \"a\\\"b\\\\c\"; let nl = \"line\\\ncontinued\";",
                &[(StrLit, "\"a\\\"b\\\\c\""), (StrLit, "\"line\\\ncontinued\"")],
            ),
        ];
        for (src, want) in cases {
            let got = texts(src);
            // Every literal, lifetime and comment, in order and whole;
            // the listed identifiers prove code after them survives.
            let not_code = |&(k, _): &(TokenKind, &str)| !matches!(k, Whitespace | Punct | Ident);
            let got_literals: Vec<_> = got.iter().copied().filter(not_code).collect();
            let want_literals: Vec<_> = want.iter().copied().filter(not_code).collect();
            assert_eq!(got_literals, want_literals, "{src:?}");
            for ident in want.iter().filter(|(k, _)| *k == Ident) {
                assert!(got.contains(ident), "{ident:?} lost in {src:?}");
            }
            roundtrip(src);
        }
    }

    #[test]
    fn idents_keywords_punct() {
        let got = texts("fn f(x: u8) -> u8 { x }");
        assert!(got.contains(&(TokenKind::Ident, "fn")));
        assert!(got.contains(&(TokenKind::Ident, "u8")));
        assert!(got.contains(&(TokenKind::Punct, "{")));
        roundtrip("fn f(x: u8) -> u8 { x }");
    }

    #[test]
    fn comments_lex_as_comments() {
        let src = "// line\n/* block /* nested */ */ x /// doc\n";
        let got = texts(src);
        assert_eq!(got[0], (TokenKind::LineComment, "// line"));
        assert!(got.contains(&(TokenKind::BlockComment, "/* block /* nested */ */")));
        assert!(got.contains(&(TokenKind::Ident, "x")));
        roundtrip(src);
    }

    #[test]
    fn string_variants() {
        let src = r####"let a = "s"; let b = r#"raw "q" body"#; let c = b"bytes"; let d = br##"rb"##;"####;
        let got = texts(src);
        assert!(got.contains(&(TokenKind::StrLit, "\"s\"")));
        assert!(got.contains(&(TokenKind::RawStrLit, r###"r#"raw "q" body"#"###)));
        assert!(got.contains(&(TokenKind::ByteStrLit, "b\"bytes\"")));
        assert!(got.contains(&(TokenKind::RawByteStrLit, r###"br##"rb"##"###)));
        roundtrip(src);
    }

    #[test]
    fn raw_string_multi_hash_with_inner_terminator_lookalike() {
        // `"#` inside an `r##"..."##` string must not terminate it.
        let src = "r##\"contains \"# inner\"## tail";
        let got = texts(src);
        assert_eq!(got[0], (TokenKind::RawStrLit, "r##\"contains \"# inner\"##"));
        assert!(got.contains(&(TokenKind::Ident, "tail")));
        roundtrip(src);
    }

    #[test]
    fn chars_lifetimes_and_escaped_quote() {
        let src = "fn f<'a>(x: &'a str) { let c = 'y'; let q = '\\''; let n = '\\n'; }";
        let got = texts(src);
        assert!(got.contains(&(TokenKind::Lifetime, "'a")));
        assert!(got.contains(&(TokenKind::CharLit, "'y'")));
        assert!(got.contains(&(TokenKind::CharLit, "'\\''")));
        assert!(got.contains(&(TokenKind::CharLit, "'\\n'")));
        let src2 = "let b = '\\\\'; done()";
        assert!(texts(src2).contains(&(TokenKind::CharLit, "'\\\\'")));
        assert!(texts(src2).contains(&(TokenKind::Ident, "done")));
        roundtrip(src);
    }

    #[test]
    fn multibyte_char_literal_and_static_lifetime() {
        let src = "let c = 'é'; let s: &'static str = \"x\";";
        let got = texts(src);
        assert!(got.contains(&(TokenKind::CharLit, "'é'")));
        assert!(got.contains(&(TokenKind::Lifetime, "'static")));
        roundtrip(src);
    }

    #[test]
    fn raw_identifier() {
        let got = texts("let r#match = 1;");
        assert!(got.contains(&(TokenKind::Ident, "r#match")));
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "let a = 1_000u64; let b = 0x7F; let f = 1.5; for i in 0..10 {}";
        let got = texts(src);
        assert!(got.contains(&(TokenKind::NumberLit, "1_000u64")));
        assert!(got.contains(&(TokenKind::NumberLit, "0x7F")));
        assert!(got.contains(&(TokenKind::NumberLit, "1.5")));
        assert!(got.contains(&(TokenKind::NumberLit, "0")));
        assert!(got.contains(&(TokenKind::NumberLit, "10")));
        roundtrip(src);
    }

    #[test]
    fn line_and_column_positions() {
        let src = "ab\n  cd 'x'\n";
        let tokens: Vec<Token> = lex(src).into_iter().filter(Token::is_code).collect();
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
        assert_eq!((tokens[2].line, tokens[2].col), (2, 6));
    }

    #[test]
    fn unterminated_inputs_still_tile() {
        for src in ["\"open", "r#\"open", "/* open", "'\\", "b'", "let x = 'a"] {
            roundtrip(src);
        }
    }
}
