//! Hand-written lexer for the OpenCL C subset.
//!
//! The lexer handles line (`//`) and block (`/* */`) comments, `#pragma`
//! lines (which are surfaced as [`TokenKind::Pragma`] tokens so the parser
//! can attach them to the following statement), and the usual C numeric
//! literal forms including hex integers and float suffixes.

use crate::error::{FrontendError, Result};
use crate::token::{Keyword, Punct, Span, Token, TokenKind};

/// Converts a source string into a token stream.
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    /// Lexes the entire input, returning the token stream terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::Lex`] on malformed literals, unterminated
    /// comments, or characters outside the accepted subset.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                break;
            }
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(start, self.pos, line, col)
    }

    fn error(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::Lex {
            message: msg.into(),
            span: Span::new(self.pos, self.pos + 1, self.line, self.col),
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start_line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(self.error(format!(
                                    "unterminated block comment starting on line {start_line}"
                                )));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let (start, line, col) = (self.pos, self.line, self.col);
        let Some(b) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, self.span_from(start, line, col)));
        };

        if b == b'#' {
            return self.lex_directive(start, line, col);
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            return Ok(self.lex_ident(start, line, col));
        }
        if b.is_ascii_digit() || (b == b'.' && self.peek2().is_some_and(|c| c.is_ascii_digit())) {
            return self.lex_number(start, line, col);
        }
        self.lex_punct(start, line, col)
    }

    fn lex_directive(&mut self, start: usize, line: u32, col: u32) -> Result<Token> {
        // Consume to end of line; recognise `#pragma`, reject other directives.
        let line_start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = self.src[line_start..self.pos].trim();
        let body = text.strip_prefix('#').map(str::trim_start).unwrap_or(text);
        if let Some(rest) = body.strip_prefix("pragma") {
            Ok(Token::new(
                TokenKind::Pragma(rest.trim().to_string()),
                self.span_from(start, line, col),
            ))
        } else {
            Err(FrontendError::Lex {
                message: format!("unsupported preprocessor directive `{text}`"),
                span: Span::new(start, self.pos, line, col),
            })
        }
    }

    fn lex_ident(&mut self, start: usize, line: u32, col: u32) -> Token {
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let span = self.span_from(start, line, col);
        match Keyword::from_ident(text) {
            Some(kw) => Token::new(TokenKind::Keyword(kw), span),
            None => Token::new(TokenKind::Ident(text.to_string()), span),
        }
    }

    fn lex_number(&mut self, start: usize, line: u32, col: u32) -> Result<Token> {
        // Hex integer.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(self.error("expected hex digits after `0x`"));
            }
            let text = &self.src[digits_start..self.pos];
            let value = i64::from_str_radix(text, 16).map_err(|_| {
                self.error(format!("hex literal `0x{text}` does not fit in 64 bits"))
            })?;
            self.eat_int_suffix();
            return Ok(Token::new(TokenKind::IntLit(value), self.span_from(start, line, col)));
        }

        let mut is_float = false;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.bytes.get(ahead), Some(b'+') | Some(b'-')) {
                ahead += 1;
            }
            if self.bytes.get(ahead).is_some_and(|b| b.is_ascii_digit()) {
                is_float = true;
                self.bump(); // e
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.bump();
                }
            }
        }

        let text = &self.src[start..self.pos];
        let span_end = self.pos;
        if is_float || matches!(self.peek(), Some(b'f') | Some(b'F')) {
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                self.bump();
            }
            let value: f64 = self.src[start..span_end]
                .parse()
                .map_err(|_| self.error(format!("malformed float literal `{text}`")))?;
            Ok(Token::new(TokenKind::FloatLit(value), self.span_from(start, line, col)))
        } else {
            let value: i64 = text.parse().map_err(|_| {
                self.error(format!("integer literal `{text}` does not fit in 64 bits"))
            })?;
            self.eat_int_suffix();
            Ok(Token::new(TokenKind::IntLit(value), self.span_from(start, line, col)))
        }
    }

    fn eat_int_suffix(&mut self) {
        while matches!(self.peek(), Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')) {
            self.bump();
        }
    }

    fn lex_punct(&mut self, start: usize, line: u32, col: u32) -> Result<Token> {
        use Punct::*;
        let b = self.bump().expect("caller checked non-empty");
        let two = self.peek();
        let three = self.peek2();
        let p = match (b, two, three) {
            (b'<', Some(b'<'), Some(b'=')) => {
                self.bump();
                self.bump();
                ShlEq
            }
            (b'>', Some(b'>'), Some(b'=')) => {
                self.bump();
                self.bump();
                ShrEq
            }
            (b'<', Some(b'<'), _) => {
                self.bump();
                Shl
            }
            (b'>', Some(b'>'), _) => {
                self.bump();
                Shr
            }
            (b'<', Some(b'='), _) => {
                self.bump();
                Le
            }
            (b'>', Some(b'='), _) => {
                self.bump();
                Ge
            }
            (b'=', Some(b'='), _) => {
                self.bump();
                EqEq
            }
            (b'!', Some(b'='), _) => {
                self.bump();
                Ne
            }
            (b'&', Some(b'&'), _) => {
                self.bump();
                AmpAmp
            }
            (b'|', Some(b'|'), _) => {
                self.bump();
                PipePipe
            }
            (b'+', Some(b'+'), _) => {
                self.bump();
                PlusPlus
            }
            (b'-', Some(b'-'), _) => {
                self.bump();
                MinusMinus
            }
            (b'-', Some(b'>'), _) => {
                self.bump();
                Arrow
            }
            (b'+', Some(b'='), _) => {
                self.bump();
                PlusEq
            }
            (b'-', Some(b'='), _) => {
                self.bump();
                MinusEq
            }
            (b'*', Some(b'='), _) => {
                self.bump();
                StarEq
            }
            (b'/', Some(b'='), _) => {
                self.bump();
                SlashEq
            }
            (b'%', Some(b'='), _) => {
                self.bump();
                PercentEq
            }
            (b'&', Some(b'='), _) => {
                self.bump();
                AmpEq
            }
            (b'|', Some(b'='), _) => {
                self.bump();
                PipeEq
            }
            (b'^', Some(b'='), _) => {
                self.bump();
                CaretEq
            }
            (b'(', _, _) => LParen,
            (b')', _, _) => RParen,
            (b'{', _, _) => LBrace,
            (b'}', _, _) => RBrace,
            (b'[', _, _) => LBracket,
            (b']', _, _) => RBracket,
            (b';', _, _) => Semi,
            (b',', _, _) => Comma,
            (b'.', _, _) => Dot,
            (b'?', _, _) => Question,
            (b':', _, _) => Colon,
            (b'+', _, _) => Plus,
            (b'-', _, _) => Minus,
            (b'*', _, _) => Star,
            (b'/', _, _) => Slash,
            (b'%', _, _) => Percent,
            (b'&', _, _) => Amp,
            (b'|', _, _) => Pipe,
            (b'^', _, _) => Caret,
            (b'~', _, _) => Tilde,
            (b'!', _, _) => Bang,
            (b'<', _, _) => Lt,
            (b'>', _, _) => Gt,
            (b'=', _, _) => Eq,
            _ => {
                return Err(FrontendError::Lex {
                    message: format!("unexpected character `{}`", b as char),
                    span: Span::new(start, start + 1, line, col),
                })
            }
        };
        Ok(Token::new(TokenKind::Punct(p), self.span_from(start, line, col)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().expect("lex").into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_kernel_header() {
        let ks = kinds("__kernel void add(__global int* a)");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Kernel));
        assert_eq!(ks[1], TokenKind::Keyword(Keyword::Void));
        assert_eq!(ks[2], TokenKind::Ident("add".into()));
        assert_eq!(ks[3], TokenKind::Punct(Punct::LParen));
        assert_eq!(ks[4], TokenKind::Keyword(Keyword::Global));
        assert!(matches!(ks.last(), Some(TokenKind::Eof)));
    }

    #[test]
    fn lexes_numeric_literals() {
        let ks = kinds("42 0x1f 3.5 1e3 2.5f 7u 9L");
        assert_eq!(ks[0], TokenKind::IntLit(42));
        assert_eq!(ks[1], TokenKind::IntLit(31));
        assert_eq!(ks[2], TokenKind::FloatLit(3.5));
        assert_eq!(ks[3], TokenKind::FloatLit(1000.0));
        assert_eq!(ks[4], TokenKind::FloatLit(2.5));
        assert_eq!(ks[5], TokenKind::IntLit(7));
        assert_eq!(ks[6], TokenKind::IntLit(9));
    }

    #[test]
    fn lexes_compound_operators() {
        let ks = kinds("a <<= b >>= c << d >> e <= f >= g == h != i += j");
        assert!(ks.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::ShrEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Shl)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Shr)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Le)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ge)));
        assert!(ks.contains(&TokenKind::Punct(Punct::EqEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ne)));
        assert!(ks.contains(&TokenKind::Punct(Punct::PlusEq)));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("a // line comment\n b /* block\n comment */ c");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn surfaces_pragmas() {
        let ks = kinds("#pragma unroll 4\nfor");
        assert_eq!(ks[0], TokenKind::Pragma("unroll 4".into()));
        assert_eq!(ks[1], TokenKind::Keyword(Keyword::For));
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(Lexer::new("a /* nope").tokenize().is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(Lexer::new("a @ b").tokenize().is_err());
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = Lexer::new("a\nb\n  c").tokenize().expect("lex");
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
        assert_eq!(toks[2].span.col, 3);
    }
}
