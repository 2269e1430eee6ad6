//! Recursive-descent parser for LyriC (§4.2 syntax, a superset of XSQL).
//!
//! The grammar is parsed with bounded backtracking in two places where the
//! paper's notation overloads parentheses:
//!
//! * a parenthesized group in a WHERE clause is first tried as a CST
//!   predicate (`(φ)` satisfiability or `(φ |= ψ)` entailment — the
//!   paper's own convention is to parenthesize CST predicates) and falls
//!   back to a grouped Boolean condition;
//! * inside formulas, `((x,y) | φ)` (projection) vs `(φ)` (grouping) vs
//!   `(x + 1) * 2 <= y` (parenthesized arithmetic) are tried in that order.

use crate::ast::*;
use crate::error::LyricError;
use crate::lexer::lex_spanned;
use crate::span::Span;
use crate::token::Token;

/// Parse a complete LyriC statement.
pub fn parse_query(src: &str) -> Result<Query, LyricError> {
    parse_tokens(lex_spanned(src)?)
}

/// Parse a statement [`lex_spanned`] already tokenized (the query runner
/// times the two front-end phases apart).
pub(crate) fn parse_tokens((toks, spans): (Vec<Token>, Vec<Span>)) -> Result<Query, LyricError> {
    let mut p = Parser {
        toks,
        spans,
        pos: 0,
    };
    let q = p.query()?;
    p.expect(Token::Eof)?;
    Ok(q)
}

/// Parse a standalone CST formula (used by tests and the library API).
pub fn parse_formula(src: &str) -> Result<Formula, LyricError> {
    let (toks, spans) = lex_spanned(src)?;
    let mut p = Parser {
        toks,
        spans,
        pos: 0,
    };
    let f = p.formula()?;
    p.expect(Token::Eof)?;
    Ok(f)
}

struct Parser {
    toks: Vec<Token>,
    /// Byte spans parallel to `toks`.
    spans: Vec<Span>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    /// Span of the token about to be consumed.
    fn cur_span(&self) -> Span {
        self.spans[self.pos]
    }

    /// Span covering everything consumed since token position `start`.
    fn span_from(&self, start: usize) -> Span {
        let last = self
            .pos
            .saturating_sub(1)
            .max(start)
            .min(self.spans.len() - 1);
        self.spans[start].join(self.spans[last])
    }

    fn peek2(&self) -> &Token {
        self.toks.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), LyricError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(LyricError::parse_at(
                format!("expected {t}, found {}", self.peek()),
                self.cur_span(),
                vec![t.to_string()],
                self.peek().to_string(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, LyricError> {
        self.ident_sp().map(|(s, _)| s)
    }

    /// An identifier together with its span.
    fn ident_sp(&mut self) -> Result<(String, Span), LyricError> {
        let sp = self.cur_span();
        match self.bump() {
            Token::Ident(s) => Ok((s, sp)),
            other => Err(LyricError::parse_at(
                format!("expected identifier, found {other}"),
                sp,
                vec!["identifier".into()],
                other.to_string(),
            )),
        }
    }

    // ------------------------------------------------------------ queries

    fn query(&mut self) -> Result<Query, LyricError> {
        if self.eat(&Token::Create) {
            self.expect(Token::View)?;
            let (name, name_span) = self.ident_sp()?;
            self.expect(Token::As)?;
            self.expect(Token::Subclass)?;
            self.expect(Token::Of)?;
            let (parent, parent_span) = self.ident_sp()?;
            let select = self.select_query()?;
            Ok(Query::CreateView(ViewQuery {
                name,
                name_span,
                parent,
                parent_span,
                select,
            }))
        } else {
            Ok(Query::Select(self.select_query()?))
        }
    }

    fn select_query(&mut self) -> Result<SelectQuery, LyricError> {
        self.expect(Token::Select)?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.select_item()?);
        }
        let mut signature = Vec::new();
        if self.eat(&Token::Signature) {
            signature.push(self.sig_item()?);
            while self.eat(&Token::Comma) {
                signature.push(self.sig_item()?);
            }
        }
        self.expect(Token::From)?;
        let mut from = vec![self.from_item()?];
        while self.eat(&Token::Comma) {
            from.push(self.from_item()?);
        }
        let mut oid_function = None;
        let mut oid_function_spans = Vec::new();
        if self.peek() == &Token::OidKw {
            self.bump();
            self.expect(Token::Function)?;
            self.expect(Token::Of)?;
            let (v0, s0) = self.ident_sp()?;
            let mut vars = vec![v0];
            oid_function_spans.push(s0);
            while self.eat(&Token::Comma) {
                let (v, sp) = self.ident_sp()?;
                vars.push(v);
                oid_function_spans.push(sp);
            }
            oid_function = Some(vars);
        }
        let where_clause = if self.eat(&Token::Where) {
            Some(self.cond()?)
        } else {
            None
        };
        Ok(SelectQuery {
            items,
            signature,
            from,
            oid_function,
            oid_function_spans,
            where_clause,
        })
    }

    fn sig_item(&mut self) -> Result<SigItem, LyricError> {
        let attr = self.ident()?;
        let is_set = match self.bump() {
            Token::ArrowScalar => false,
            Token::ArrowSet => true,
            other => {
                return Err(LyricError::parse(format!(
                    "expected => or =>> in SIGNATURE, found {other}"
                )))
            }
        };
        let (class, class_span) = self.ident_sp()?;
        Ok(SigItem {
            attr,
            is_set,
            class,
            class_span,
        })
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<FromItem, LyricError> {
        let (class, class_span) = self.ident_sp()?;
        let (var, var_span) = self.ident_sp()?;
        Ok(FromItem {
            class,
            class_span,
            var,
            var_span,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, LyricError> {
        let start = self.pos;
        // `label = value` when an identifier is directly followed by `=`
        // and the value is not itself a comparison (select items never
        // are).
        let label = if matches!(self.peek(), Token::Ident(_)) && self.peek2() == &Token::Eq {
            let l = self.ident()?;
            self.bump(); // '='
            Some(l)
        } else {
            None
        };
        let value = self.select_value()?;
        Ok(SelectItem {
            label,
            value,
            span: self.span_from(start),
        })
    }

    fn select_value(&mut self) -> Result<SelectValue, LyricError> {
        match self.peek() {
            Token::Max | Token::Min | Token::MaxPoint | Token::MinPoint => {
                let kind = match self.bump() {
                    Token::Max => OptKind::Max,
                    Token::Min => OptKind::Min,
                    Token::MaxPoint => OptKind::MaxPoint,
                    Token::MinPoint => OptKind::MinPoint,
                    _ => unreachable!(),
                };
                self.expect(Token::LParen)?;
                let objective = self.arith()?;
                self.expect(Token::Subject)?;
                self.expect(Token::To)?;
                let formula = self.formula()?;
                self.expect(Token::RParen)?;
                Ok(SelectValue::Optimize {
                    kind,
                    objective,
                    formula,
                })
            }
            Token::LParen => Ok(SelectValue::Formula(self.formula()?)),
            _ => Ok(SelectValue::Path(self.path_expr()?)),
        }
    }

    // --------------------------------------------------------- conditions

    fn cond(&mut self) -> Result<Cond, LyricError> {
        let mut lhs = self.cond_and()?;
        while self.eat(&Token::Or) {
            let rhs = self.cond_and()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cond_and(&mut self) -> Result<Cond, LyricError> {
        let mut lhs = self.cond_unary()?;
        while self.eat(&Token::And) {
            let rhs = self.cond_unary()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cond_unary(&mut self) -> Result<Cond, LyricError> {
        if self.eat(&Token::Not) {
            Ok(Cond::Not(Box::new(self.cond_unary()?)))
        } else {
            self.cond_primary()
        }
    }

    fn cond_primary(&mut self) -> Result<Cond, LyricError> {
        if self.peek() == &Token::LParen {
            // Try CST predicate first (the paper parenthesizes these),
            // falling back to a grouped Boolean condition.
            let save = self.pos;
            self.bump(); // '('
            if let Ok(f1) = self.formula() {
                if self.eat(&Token::Entails) {
                    if let Ok(f2) = self.formula() {
                        if self.eat(&Token::RParen) {
                            return Ok(Cond::Entails(f1, f2));
                        }
                    }
                } else if self.eat(&Token::RParen) {
                    return Ok(Cond::Sat(f1));
                }
            }
            self.pos = save;
            self.bump(); // '('
            let inner = self.cond()?;
            self.expect(Token::RParen)?;
            return Ok(inner);
        }
        // Comparison or path predicate.
        let lhs = self.cmp_operand()?;
        let op = match self.peek() {
            Token::Eq => Some(CmpOp::Eq),
            Token::Neq => Some(CmpOp::Neq),
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            Token::Contains => Some(CmpOp::Contains),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.cmp_operand()?;
                Ok(Cond::Compare { lhs, op, rhs })
            }
            None => match lhs {
                CmpOperand::Path(p) => Ok(Cond::PathPred(p)),
                _ => Err(LyricError::parse(format!(
                    "literal is not a predicate (found {})",
                    self.peek()
                ))),
            },
        }
    }

    fn cmp_operand(&mut self) -> Result<CmpOperand, LyricError> {
        match self.peek().clone() {
            Token::Number(n) => {
                self.bump();
                Ok(CmpOperand::Num(n))
            }
            Token::Minus => {
                self.bump();
                match self.bump() {
                    Token::Number(n) => Ok(CmpOperand::Num(-n)),
                    other => Err(LyricError::parse(format!(
                        "expected number after '-', found {other}"
                    ))),
                }
            }
            Token::Str(s) => {
                self.bump();
                Ok(CmpOperand::Str(s))
            }
            Token::True => {
                self.bump();
                Ok(CmpOperand::Bool(true))
            }
            Token::False => {
                self.bump();
                Ok(CmpOperand::Bool(false))
            }
            _ => Ok(CmpOperand::Path(self.path_expr()?)),
        }
    }

    // ----------------------------------------------------------- formulas

    pub(crate) fn formula(&mut self) -> Result<Formula, LyricError> {
        let mut lhs = self.formula_and()?;
        while self.eat(&Token::Or) {
            let rhs = self.formula_and()?;
            lhs = Formula::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn formula_and(&mut self) -> Result<Formula, LyricError> {
        let mut lhs = self.formula_unary()?;
        while self.eat(&Token::And) {
            let rhs = self.formula_unary()?;
            lhs = Formula::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn formula_unary(&mut self) -> Result<Formula, LyricError> {
        if self.eat(&Token::Not) {
            Ok(Formula::Not(Box::new(self.formula_unary()?)))
        } else {
            self.formula_primary()
        }
    }

    fn formula_primary(&mut self) -> Result<Formula, LyricError> {
        if self.peek() == &Token::LParen {
            // Projection `((x,y) | φ)`?
            let save = self.pos;
            if let Some(f) = self.try_projection()? {
                return Ok(f);
            }
            self.pos = save;
            // Grouped formula `(φ)`?
            self.bump(); // '('
            if let Ok(inner) = self.formula() {
                if self.eat(&Token::RParen) {
                    // Guard: `(x + 1) <= y` would have parsed `x + 1` as a
                    // 0-relop chain and failed; a successful parse here is
                    // a real formula. But `(x) <= y` parses as grouped
                    // chain... only if a relop follows, it was arithmetic
                    // grouping after all.
                    if !self.peek_is_relop() && !self.peek_is_arith_op() {
                        return Ok(inner);
                    }
                }
            }
            self.pos = save;
            // Parenthesized arithmetic leading a chain.
            return self.chain();
        }
        // Either a chained constraint or a CST predicate reference.
        let save = self.pos;
        match self.chain() {
            Ok(f) => Ok(f),
            Err(_) => {
                self.pos = save;
                self.pred()
            }
        }
    }

    fn peek_is_relop(&self) -> bool {
        matches!(
            self.peek(),
            Token::Eq | Token::Neq | Token::Le | Token::Lt | Token::Ge | Token::Gt
        )
    }

    fn peek_is_arith_op(&self) -> bool {
        matches!(self.peek(), Token::Plus | Token::Minus | Token::Star)
    }

    fn try_projection(&mut self) -> Result<Option<Formula>, LyricError> {
        if self.peek() != &Token::LParen || self.peek2() != &Token::LParen {
            return Ok(None);
        }
        let save = self.pos;
        self.bump(); // outer '('
        self.bump(); // inner '('
        let mut vars = Vec::new();
        loop {
            match self.bump() {
                Token::Ident(v) => vars.push(v),
                _ => {
                    self.pos = save;
                    return Ok(None);
                }
            }
            match self.bump() {
                Token::Comma => continue,
                Token::RParen => break,
                _ => {
                    self.pos = save;
                    return Ok(None);
                }
            }
        }
        if !self.eat(&Token::Bar) {
            self.pos = save;
            return Ok(None);
        }
        let body = self.formula()?;
        self.expect(Token::RParen)?;
        Ok(Some(Formula::Proj {
            vars,
            body: Box::new(body),
            span: self.span_from(save),
        }))
    }

    /// A chained pseudo-linear constraint: `arith (relop arith)+`.
    fn chain(&mut self) -> Result<Formula, LyricError> {
        let start = self.pos;
        let first = self.arith()?;
        let mut rest = Vec::new();
        while let Some(op) = self.crelop() {
            let a = self.arith()?;
            rest.push((op, a));
        }
        if rest.is_empty() {
            return Err(LyricError::parse_at(
                format!("expected relational operator, found {}", self.peek()),
                self.cur_span(),
                ["=", "!=", "<=", "<", ">=", ">"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                self.peek().to_string(),
            ));
        }
        Ok(Formula::Chain {
            first,
            rest,
            span: self.span_from(start),
        })
    }

    fn crelop(&mut self) -> Option<CRelOp> {
        let op = match self.peek() {
            Token::Eq => CRelOp::Eq,
            Token::Neq => CRelOp::Neq,
            Token::Le => CRelOp::Le,
            Token::Lt => CRelOp::Lt,
            Token::Ge => CRelOp::Ge,
            Token::Gt => CRelOp::Gt,
            _ => return None,
        };
        self.bump();
        Some(op)
    }

    /// A CST-object reference: `path` or `path(x1,…,xn)`.
    fn pred(&mut self) -> Result<Formula, LyricError> {
        let path = self.path_expr()?;
        let vars = if self.peek() == &Token::LParen {
            self.bump();
            let mut vs = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                vs.push(self.ident()?);
            }
            self.expect(Token::RParen)?;
            Some(vs)
        } else {
            None
        };
        Ok(Formula::Pred { path, vars })
    }

    // --------------------------------------------------------- arithmetic

    pub(crate) fn arith(&mut self) -> Result<Arith, LyricError> {
        let mut lhs = self.arith_mul()?;
        loop {
            if self.eat(&Token::Plus) {
                let rhs = self.arith_mul()?;
                lhs = Arith::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Token::Minus) {
                let rhs = self.arith_mul()?;
                lhs = Arith::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn arith_mul(&mut self) -> Result<Arith, LyricError> {
        let mut lhs = self.arith_unary()?;
        while self.eat(&Token::Star) {
            let rhs = self.arith_unary()?;
            lhs = Arith::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn arith_unary(&mut self) -> Result<Arith, LyricError> {
        if self.eat(&Token::Minus) {
            Ok(Arith::Neg(Box::new(self.arith_unary()?)))
        } else {
            self.arith_factor()
        }
    }

    fn arith_factor(&mut self) -> Result<Arith, LyricError> {
        match self.peek() {
            Token::Number(n) => {
                let n = n.clone();
                self.bump();
                Ok(Arith::Num(n))
            }
            Token::LParen => {
                self.bump();
                let inner = self.arith()?;
                self.expect(Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(_) => {
                let path = self.path_expr()?;
                if path.steps.is_empty() {
                    match path.root {
                        Selector::Var(name) => Ok(Arith::Var(name)),
                        Selector::Lit(_) => unreachable!("ident roots parse as Var"),
                    }
                } else {
                    Ok(Arith::PathConst(path))
                }
            }
            other => Err(LyricError::parse(format!(
                "expected arithmetic term, found {other}"
            ))),
        }
    }

    // -------------------------------------------------------------- paths

    fn path_expr(&mut self) -> Result<PathExpr, LyricError> {
        let start = self.pos;
        let root_span = self.cur_span();
        let root = match self.bump() {
            Token::Ident(s) => Selector::Var(s),
            Token::Str(s) => Selector::Lit(OidLit::Str(s)),
            other => {
                return Err(LyricError::parse_at(
                    format!("expected path expression, found {other}"),
                    root_span,
                    vec!["identifier".into(), "string literal".into()],
                    other.to_string(),
                ))
            }
        };
        let mut steps = Vec::new();
        while self.eat(&Token::Dot) {
            let step_start = self.pos;
            let attr = self.ident()?;
            let selector = if self.eat(&Token::LBracket) {
                let negative = self.eat(&Token::Minus);
                let sel = match self.bump() {
                    Token::Ident(s) if !negative => Selector::Var(s),
                    Token::Str(s) if !negative => Selector::Lit(OidLit::Str(s)),
                    Token::Number(n) => {
                        let n = if negative { -n } else { n };
                        if n.is_integer() {
                            Selector::Lit(OidLit::Int(n.numer().to_i64().ok_or_else(|| {
                                LyricError::parse("integer selector out of range")
                            })?))
                        } else {
                            return Err(LyricError::parse(
                                "only integer numeric selectors are supported",
                            ));
                        }
                    }
                    Token::True => Selector::Lit(OidLit::Bool(true)),
                    Token::False => Selector::Lit(OidLit::Bool(false)),
                    other => {
                        return Err(LyricError::parse(format!(
                            "expected selector in brackets, found {other}"
                        )))
                    }
                };
                self.expect(Token::RBracket)?;
                Some(sel)
            } else {
                None
            };
            steps.push(Step {
                attr,
                selector,
                span: self.span_from(step_start),
            });
        }
        Ok(PathExpr {
            root,
            steps,
            span: self.span_from(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse_query("SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.from, vec![FromItem::new("Desk", "X")]);
        match s.where_clause.unwrap() {
            Cond::PathPred(p) => {
                assert_eq!(p.root, Selector::Var("X".into()));
                assert_eq!(p.steps.len(), 2);
                assert_eq!(p.steps[0].attr, "drawer");
                assert_eq!(p.steps[0].selector, Some(Selector::Var("Y".into())));
                assert_eq!(
                    p.steps[1].selector,
                    Some(Selector::Lit(OidLit::Str("red".into())))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn labelled_items_and_oid_function() {
        let q = parse_query(
            "SELECT name = X.name, drawer = W FROM Office_Object X OID FUNCTION OF X, W \
             WHERE X.drawer[W]",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.items[0].label.as_deref(), Some("name"));
        assert_eq!(s.items[1].label.as_deref(), Some("drawer"));
        assert_eq!(s.oid_function, Some(vec!["X".into(), "W".into()]));
    }

    #[test]
    fn projection_formula_in_select() {
        let q = parse_query(
            "SELECT CO, ((u,v) | E(w,z) AND D(w,z,x,y,u,v) AND x = 6 AND y = 4) \
             FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        match &s.items[1].value {
            SelectValue::Formula(Formula::Proj { vars, body, .. }) => {
                assert_eq!(vars, &vec!["u".to_string(), "v".to_string()]);
                // body is an AND tree with Pred and Chain leaves
                fn count_preds(f: &Formula) -> usize {
                    match f {
                        Formula::And(a, b) | Formula::Or(a, b) => count_preds(a) + count_preds(b),
                        Formula::Pred { .. } => 1,
                        _ => 0,
                    }
                }
                assert_eq!(count_preds(body), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // WHERE has two path predicates joined by AND.
        match s.where_clause.unwrap() {
            Cond::And(a, b) => {
                assert!(matches!(*a, Cond::PathPred(_)));
                assert!(matches!(*b, Cond::PathPred(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chained_constraint() {
        let f = parse_formula("-4 <= w AND w <= 4").unwrap();
        assert!(matches!(f, Formula::And(..)));
        let f = parse_formula("0 <= x <= 10").unwrap();
        match f {
            Formula::Chain { rest, .. } => assert_eq!(rest.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entailment_predicate() {
        let q = parse_query(
            "SELECT DSK FROM Desk DSK WHERE DSK.color = 'red' AND DSK.drawer_center[C] \
             AND (C(p,q) |= p = 0)",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        fn find_entails(c: &Cond) -> bool {
            match c {
                Cond::And(a, b) | Cond::Or(a, b) => find_entails(a) || find_entails(b),
                Cond::Not(a) => find_entails(a),
                Cond::Entails(..) => true,
                _ => false,
            }
        }
        assert!(find_entails(&s.where_clause.unwrap()));
    }

    #[test]
    fn satisfiability_predicate_vs_grouped_condition() {
        // CST predicate: parses as Sat.
        let q = parse_query(
            "SELECT O FROM Object_In_Room O WHERE O.location[L] AND \
             (L(x,y) AND 0 <= x AND x <= 10)",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        fn find_sat(c: &Cond) -> bool {
            match c {
                Cond::And(a, b) | Cond::Or(a, b) => find_sat(a) || find_sat(b),
                Cond::Not(a) => find_sat(a),
                Cond::Sat(_) => true,
                _ => false,
            }
        }
        assert!(find_sat(&s.where_clause.unwrap()));
        // Grouped Boolean condition with strings: falls back to Cond.
        let q = parse_query("SELECT X FROM Desk X WHERE (X.color = 'red' OR X.color = 'blue')")
            .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(matches!(s.where_clause.unwrap(), Cond::Or(..)));
    }

    #[test]
    fn optimize_operators() {
        let q = parse_query(
            "SELECT MAX(2*x + y SUBJECT TO ((x,y) | C(x,y) AND x >= 0)) FROM Catalog C2",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        match &s.items[0].value {
            SelectValue::Optimize { kind, .. } => assert_eq!(*kind, OptKind::Max),
            other => panic!("unexpected {other:?}"),
        }
        let q = parse_query("SELECT MIN_POINT(x SUBJECT TO (0 <= x)) FROM Desk D").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(matches!(
            &s.items[0].value,
            SelectValue::Optimize {
                kind: OptKind::MinPoint,
                ..
            }
        ));
    }

    #[test]
    fn create_view() {
        let q = parse_query(
            "CREATE VIEW Overlap AS SUBCLASS OF Thing \
             SELECT first = X, second = Y \
             SIGNATURE first => Office_Object, second =>> Office_Object \
             FROM Office_Object X, Office_Object Y \
             OID FUNCTION OF X, Y \
             WHERE X.extent[U] AND Y.extent[V]",
        )
        .unwrap();
        let Query::CreateView(v) = q else { panic!() };
        assert_eq!(v.name, "Overlap");
        assert_eq!(v.parent, "Thing");
        assert_eq!(v.select.signature.len(), 2);
        assert!(!v.select.signature[0].is_set);
        assert!(v.select.signature[1].is_set);
    }

    #[test]
    fn pred_with_and_without_vars() {
        let f = parse_formula("E AND D(w,z,x,y,u,v)").unwrap();
        match f {
            Formula::And(a, b) => {
                assert!(matches!(*a, Formula::Pred { vars: None, .. }));
                match *b {
                    Formula::Pred { vars: Some(vs), .. } => assert_eq!(vs.len(), 6),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pred_on_path() {
        let f = parse_formula("DSK.drawer.extent(w,z) AND z >= w").unwrap();
        match f {
            Formula::And(a, _) => match *a {
                Formula::Pred { path, vars } => {
                    assert_eq!(path.steps.len(), 2);
                    assert_eq!(vars, Some(vec!["w".into(), "z".into()]));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arith_with_paths_and_parens() {
        let f = parse_formula("(x + 1) * 2 <= D.height - 3").unwrap();
        match f {
            Formula::Chain { first, rest, .. } => {
                assert!(matches!(first, Arith::Mul(..)));
                assert_eq!(rest.len(), 1);
                assert!(matches!(rest[0].1, Arith::Sub(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_projection() {
        let f = parse_formula("((u) | ((v) | u = v AND v >= 0))").unwrap();
        match f {
            Formula::Proj { vars, body, .. } => {
                assert_eq!(vars, vec!["u".to_string()]);
                assert!(matches!(*body, Formula::Proj { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT X FROM").is_err());
        assert!(parse_query("SELECT X FROM Desk").is_err());
        assert!(parse_formula("x <=").is_err());
        assert!(parse_query("SELECT X FROM Desk X WHERE 'lit'").is_err());
    }
}
