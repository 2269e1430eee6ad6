//! Byte spans into LyriC source text.
//!
//! Spans exist purely for diagnostics: they are carried alongside tokens by
//! the lexer, threaded into the AST by the parser, and rendered by the
//! analyzer's caret printer ([`crate::diag::render`]). To keep them out of
//! the language *semantics*, [`Span`] compares equal to every other span
//! and hashes to nothing — AST equality (tests, proptest round-trips, memo
//! keys) is unaffected by where a node happened to sit in the source.

use std::hash::{Hash, Hasher};

/// A half-open byte range `start..end` into the original query string.
///
/// A `Span` of `0..0` is the *dummy* span, used for synthesized AST nodes
/// (e.g. ones built programmatically rather than parsed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// The dummy span, attached to AST nodes that were never parsed.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// True for the dummy (empty, position-zero) span.
    pub fn is_dummy(&self) -> bool {
        self.start == 0 && self.end == 0
    }

    /// The range as a `(start, end)` tuple for trace attribution; `None`
    /// for the dummy span (synthesized nodes have no source position).
    pub fn byte_range(self) -> Option<(usize, usize)> {
        (!self.is_dummy()).then_some((self.start, self.end))
    }

    /// Smallest span covering both `self` and `other`; dummy spans are
    /// treated as absent rather than as position zero.
    pub fn join(self, other: Span) -> Span {
        if self.is_dummy() {
            other
        } else if other.is_dummy() {
            self
        } else {
            Span::new(self.start.min(other.start), self.end.max(other.end))
        }
    }
}

/// Spans never affect equality: an AST node built in code (dummy span)
/// equals the same node parsed from text (real span).
impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

/// Consistent with the always-true [`PartialEq`]: every span hashes alike.
impl Hash for Span {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_invisible_to_equality() {
        assert_eq!(Span::new(3, 9), Span::DUMMY);
        assert_eq!(Span::new(1, 2), Span::new(7, 8));
    }

    #[test]
    fn join_ignores_dummy() {
        let s = Span::new(4, 10).join(Span::DUMMY);
        assert_eq!((s.start, s.end), (4, 10));
        let s = Span::DUMMY.join(Span::new(2, 5));
        assert_eq!((s.start, s.end), (2, 5));
        let s = Span::new(4, 10).join(Span::new(2, 5));
        assert_eq!((s.start, s.end), (2, 10));
    }
}
