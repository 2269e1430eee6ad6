//! Hand-written lexer for LyriC.
//!
//! Notable choices, all aligned with the paper's notation:
//!
//! * `∧` / `∨` / `¬` lex as `AND` / `OR` / `NOT`, so queries can be typed
//!   exactly as printed in §4.1.
//! * `≤` / `≥` / `≠` lex as `<=` / `>=` / `!=`.
//! * `|=` is the entailment operator; a lone `|` is the projection bar of
//!   `((x,y) | φ)`.
//! * Numbers are exact: `0.5` lexes as the rational `1/2`.

use crate::error::LyricError;
use crate::span::Span;
use crate::token::Token;
use lyric_arith::Rational;

/// Tokenize a query string.
pub fn lex(src: &str) -> Result<Vec<Token>, LyricError> {
    lex_spanned(src).map(|(toks, _)| toks)
}

/// Tokenize a query string, also returning the byte span of each token.
///
/// The two vectors are parallel: `spans[i]` covers `toks[i]` in `src`
/// (half-open byte range). The trailing [`Token::Eof`] gets the empty span
/// at the end of the input.
///
/// The scan walks the input's bytes and decodes a `char` only at a
/// non-ASCII byte: the paper's notation (`≤ ≥ ≠ ∧ ∨ ¬ ⊨`) and non-ASCII
/// identifiers. Every token therefore starts and ends on a `char`
/// boundary.
pub fn lex_spanned(src: &str) -> Result<(Vec<Token>, Vec<Span>), LyricError> {
    let bytes = src.as_bytes();
    let at = |k: usize| bytes.get(k).copied();
    let mut out = Vec::new();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let s = i;
        let tok = match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'-' if at(i + 1) == Some(b'-') => {
                // SQL-style line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'(' => single(&mut i, Token::LParen),
            b')' => single(&mut i, Token::RParen),
            b'[' => single(&mut i, Token::LBracket),
            b']' => single(&mut i, Token::RBracket),
            b'.' if !at(i + 1).is_some_and(|d| d.is_ascii_digit()) => single(&mut i, Token::Dot),
            b',' => single(&mut i, Token::Comma),
            b'+' => single(&mut i, Token::Plus),
            b'-' => single(&mut i, Token::Minus),
            b'*' => single(&mut i, Token::Star),
            b'|' if at(i + 1) == Some(b'=') => double(&mut i, Token::Entails),
            b'|' => single(&mut i, Token::Bar),
            b'=' => match (at(i + 1), at(i + 2)) {
                (Some(b'>'), Some(b'>')) => {
                    i += 3;
                    Token::ArrowSet
                }
                (Some(b'>'), _) => double(&mut i, Token::ArrowScalar),
                _ => single(&mut i, Token::Eq),
            },
            b'!' if at(i + 1) == Some(b'=') => double(&mut i, Token::Neq),
            b'<' => match at(i + 1) {
                Some(b'=') => double(&mut i, Token::Le),
                Some(b'>') => double(&mut i, Token::Neq),
                _ => single(&mut i, Token::Lt),
            },
            b'>' if at(i + 1) == Some(b'=') => double(&mut i, Token::Ge),
            b'>' => single(&mut i, Token::Gt),
            b'\'' => {
                let start = i + 1;
                let Some(len) = bytes[start..].iter().position(|&b| b == b'\'') else {
                    return Err(LyricError::lex_at(
                        "unterminated string literal",
                        Span::new(s, src.len()),
                    ));
                };
                i = start + len + 1;
                Token::Str(src[start..start + len].to_string())
            }
            b'0'..=b'9' | b'.' => {
                let mut j = i;
                let mut seen_dot = false;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit() || (bytes[j] == b'.' && !seen_dot))
                {
                    if bytes[j] == b'.' {
                        // A dot not followed by a digit is a path separator.
                        if !at(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                            break;
                        }
                        seen_dot = true;
                    }
                    j += 1;
                }
                let text = &src[s..j];
                i = j;
                Token::Number(number(text).ok_or_else(|| {
                    LyricError::lex_at(format!("bad number literal {text}"), Span::new(s, j))
                })?)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => word(src, &mut i),
            b if b.is_ascii() => {
                return Err(unexpected(b as char, s));
            }
            _ => {
                let c = src[i..]
                    .chars()
                    .next()
                    .expect("a char starts at a token boundary");
                match c {
                    '⊨' => wide(&mut i, c, Token::Entails),
                    '∧' => wide(&mut i, c, Token::And),
                    '∨' => wide(&mut i, c, Token::Or),
                    '¬' => wide(&mut i, c, Token::Not),
                    '≠' => wide(&mut i, c, Token::Neq),
                    '≤' => wide(&mut i, c, Token::Le),
                    '≥' => wide(&mut i, c, Token::Ge),
                    c if c.is_alphabetic() => word(src, &mut i),
                    other => return Err(unexpected(other, s)),
                }
            }
        };
        debug_assert!(src.is_char_boundary(i), "token ends inside a char");
        out.push(tok);
        spans.push(Span::new(s, i));
    }
    out.push(Token::Eof);
    spans.push(Span::new(src.len(), src.len()));
    Ok((out, spans))
}

/// A one-byte token.
fn single(i: &mut usize, tok: Token) -> Token {
    *i += 1;
    tok
}

/// A two-byte token.
fn double(i: &mut usize, tok: Token) -> Token {
    *i += 2;
    tok
}

/// A token written as the one non-ASCII `char` `c`.
fn wide(i: &mut usize, c: char, tok: Token) -> Token {
    *i += c.len_utf8();
    tok
}

fn unexpected(c: char, at: usize) -> LyricError {
    LyricError::lex_at(
        format!("unexpected character {c:?}"),
        Span::new(at, at + c.len_utf8()),
    )
}

/// An identifier or keyword starting at `*i`: letters, digits and `_`.
/// `MAX_POINT` / `MIN_POINT` are single words with an underscore, so
/// [`Token::keyword`] sees the full word.
fn word(src: &str, i: &mut usize) -> Token {
    let bytes = src.as_bytes();
    let start = *i;
    let mut j = start;
    while j < bytes.len() {
        let b = bytes[j];
        if b.is_ascii_alphanumeric() || b == b'_' {
            j += 1;
        } else if b.is_ascii() {
            break;
        } else {
            match src[j..].chars().next() {
                Some(c) if c.is_alphanumeric() => j += c.len_utf8(),
                _ => break,
            }
        }
    }
    *i = j;
    let word = &src[start..j];
    Token::keyword(word).unwrap_or_else(|| Token::Ident(word.to_string()))
}

/// The value of a scanned number literal: ASCII digits with at most one
/// inner `.`. Literals of at most 18 digits, which fit in an `i64`, are
/// read directly; longer ones go through [`Rational`]'s parser.
fn number(text: &str) -> Option<Rational> {
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    if int.len() + frac.len() > 18 {
        return text.parse().ok();
    }
    let digits = |s: &str| {
        s.bytes()
            .fold(0i64, |acc, d| acc * 10 + i64::from(d - b'0'))
    };
    if frac.is_empty() {
        return Some(Rational::from_int(digits(int)));
    }
    let scale = 10i64.pow(frac.len() as u32);
    Some(Rational::from_pair(
        digits(int) * scale + digits(frac),
        scale,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(toks("select")[0], Token::Select);
        assert_eq!(toks("SELECT")[0], Token::Select);
        assert_eq!(toks("Select")[0], Token::Select);
        assert_eq!(toks("max_point")[0], Token::MaxPoint);
    }

    #[test]
    fn idents_and_paths() {
        let t = toks("X.drawer[Y].color['red']");
        assert_eq!(
            t,
            vec![
                Token::Ident("X".into()),
                Token::Dot,
                Token::Ident("drawer".into()),
                Token::LBracket,
                Token::Ident("Y".into()),
                Token::RBracket,
                Token::Dot,
                Token::Ident("color".into()),
                Token::LBracket,
                Token::Str("red".into()),
                Token::RBracket,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers_exact() {
        assert_eq!(toks("0.5")[0], Token::Number(Rational::from_pair(1, 2)));
        assert_eq!(toks("12")[0], Token::Number(Rational::from_int(12)));
        assert_eq!(toks("007")[0], Token::Number(Rational::from_int(7)));
        assert_eq!(toks("2.50")[0], Token::Number(Rational::from_pair(5, 2)));
        // Past 18 digits the literal goes through the `Rational` parser.
        for long in ["1234567890123456789012", "98765432109876543.21"] {
            assert_eq!(toks(long)[0], Token::Number(long.parse().unwrap()));
        }
        // A trailing dot is a path separator, not a decimal point.
        let t = toks("x.y");
        assert_eq!(t[1], Token::Dot);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= < >= > = != <> |= |")[..9],
            [
                Token::Le,
                Token::Lt,
                Token::Ge,
                Token::Gt,
                Token::Eq,
                Token::Neq,
                Token::Neq,
                Token::Entails,
                Token::Bar
            ]
        );
    }

    #[test]
    fn unicode_paper_notation() {
        assert_eq!(
            toks("x ≤ 1 ∧ y ≥ 0 ∨ ¬ z ≠ 2 ⊨ w")[..11],
            [
                Token::Ident("x".into()),
                Token::Le,
                Token::Number(Rational::from_int(1)),
                Token::And,
                Token::Ident("y".into()),
                Token::Ge,
                Token::Number(Rational::from_int(0)),
                Token::Or,
                Token::Not,
                Token::Ident("z".into()),
                Token::Neq,
            ]
        );
    }

    #[test]
    fn strings_and_errors() {
        assert_eq!(
            toks("'standard desk'")[0],
            Token::Str("standard desk".into())
        );
        assert!(lex("'unterminated").is_err());
        assert!(lex("x # y").is_err());
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- a comment\n X");
        assert_eq!(t, vec![Token::Select, Token::Ident("X".into()), Token::Eof]);
    }

    #[test]
    fn signature_arrows() {
        assert_eq!(toks("=>")[0], Token::ArrowScalar);
        assert_eq!(toks("=>>")[0], Token::ArrowSet);
    }
}
