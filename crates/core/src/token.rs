//! Tokens of the LyriC surface syntax.

use lyric_arith::Rational;
use std::fmt;

/// Keywords are case-insensitive (`SELECT`, `select`, `Select` all lex to
/// [`Token::Select`]), matching the paper's SQL heritage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    // Literals and identifiers
    Ident(String),
    Number(Rational),
    Str(String),

    // Keywords
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    Create,
    View,
    As,
    Subclass,
    Of,
    Signature,
    OidKw,
    Function,
    Max,
    Min,
    MaxPoint,
    MinPoint,
    Subject,
    To,
    Contains,
    True,
    False,

    // Punctuation and operators
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Comma,
    Bar,     // |
    Entails, // |=
    Eq,      // =
    Neq,     // != or <>
    Le,      // <=
    Lt,      // <
    Ge,      // >=
    Gt,      // >
    Plus,
    Minus,
    Star,
    ArrowScalar, // =>
    ArrowSet,    // =>>

    Eof,
}

/// The keywords, in their canonical (upper-case) spelling.
static KEYWORDS: [(&str, Token); 23] = [
    ("SELECT", Token::Select),
    ("FROM", Token::From),
    ("WHERE", Token::Where),
    ("AND", Token::And),
    ("OR", Token::Or),
    ("NOT", Token::Not),
    ("CREATE", Token::Create),
    ("VIEW", Token::View),
    ("AS", Token::As),
    ("SUBCLASS", Token::Subclass),
    ("OF", Token::Of),
    ("SIGNATURE", Token::Signature),
    ("OID", Token::OidKw),
    ("FUNCTION", Token::Function),
    ("MAX", Token::Max),
    ("MIN", Token::Min),
    ("MAX_POINT", Token::MaxPoint),
    ("MIN_POINT", Token::MinPoint),
    ("SUBJECT", Token::Subject),
    ("TO", Token::To),
    ("CONTAINS", Token::Contains),
    ("TRUE", Token::True),
    ("FALSE", Token::False),
];

impl Token {
    /// Keyword lookup (case-insensitive in ASCII, without allocating).
    pub fn keyword(word: &str) -> Option<Token> {
        KEYWORDS
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(word))
            .map(|(_, t)| t.clone())
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Select => write!(f, "SELECT"),
            Token::From => write!(f, "FROM"),
            Token::Where => write!(f, "WHERE"),
            Token::And => write!(f, "AND"),
            Token::Or => write!(f, "OR"),
            Token::Not => write!(f, "NOT"),
            Token::Create => write!(f, "CREATE"),
            Token::View => write!(f, "VIEW"),
            Token::As => write!(f, "AS"),
            Token::Subclass => write!(f, "SUBCLASS"),
            Token::Of => write!(f, "OF"),
            Token::Signature => write!(f, "SIGNATURE"),
            Token::OidKw => write!(f, "OID"),
            Token::Function => write!(f, "FUNCTION"),
            Token::Max => write!(f, "MAX"),
            Token::Min => write!(f, "MIN"),
            Token::MaxPoint => write!(f, "MAX_POINT"),
            Token::MinPoint => write!(f, "MIN_POINT"),
            Token::Subject => write!(f, "SUBJECT"),
            Token::To => write!(f, "TO"),
            Token::Contains => write!(f, "CONTAINS"),
            Token::True => write!(f, "TRUE"),
            Token::False => write!(f, "FALSE"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Dot => write!(f, "."),
            Token::Comma => write!(f, ","),
            Token::Bar => write!(f, "|"),
            Token::Entails => write!(f, "|="),
            Token::Eq => write!(f, "="),
            Token::Neq => write!(f, "!="),
            Token::Le => write!(f, "<="),
            Token::Lt => write!(f, "<"),
            Token::Ge => write!(f, ">="),
            Token::Gt => write!(f, ">"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::ArrowScalar => write!(f, "=>"),
            Token::ArrowSet => write!(f, "=>>"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}
