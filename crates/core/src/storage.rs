//! Textual persistence for constraint-object databases.
//!
//! [`save`] renders a [`Database`] — schema, extents and objects,
//! including every constraint object — as a line-oriented text format;
//! [`load`] reads it back. Constraint values are serialized as LyriC
//! projection formulas (`cst:((u,v) | u >= 0 AND ...)`) and re-parsed
//! with the ordinary LyriC formula parser, so the dump is human-readable
//! and hand-editable.
//!
//! Format sketch:
//!
//! ```text
//! LYRIC-DB 1
//! CLASS Desk
//!   PARENT Office_Object
//!   ATTR drawer SCALAR CLASS Drawer RENAME p,q
//!   ATTR drawer_center SCALAR CST p,q
//! END
//! INSTANCE Color str:'red'
//! OBJECT named:standard_desk CLASS Desk
//!   SET color = str:'red'
//!   SET extent = cst:((w,z) | w >= -4 AND w <= 4 AND z >= -2 AND z <= 2)
//! END
//! ```
//!
//! Round-tripping is exact for everything except CST oid *display names*
//! inside `Func` oids' canonical forms — equality of reloaded databases is
//! asserted at the level of schema, extents, and attribute values.
//!
//! # The load path
//!
//! [`load`] reads the lines, adds each `CLASS` to the schema (which
//! refuses a repeated variable in an interface, a CST attribute or a
//! renaming), and turns each `cst:` value into a constraint oid in four
//! steps, then inserts the objects and checks their references. Per
//! stored 4-atom box (`((u,v) | u >= a AND u <= b AND v >= c AND v <=
//! d)`), on a 2-vCPU host, release build:
//!
//! 1. *lex and parse* (about 1.7 µs, 0.6 µs of it lexing): the lexer scans
//!    bytes and reads short decimal literals as `i64`s;
//! 2. *lower* (about 2.5 µs): each conjunction is one
//!    [`CstObject::product`] of its chains' atom lists, with one [`Var`]
//!    per distinct name;
//! 3. *canonicalize* (about 2.2 µs, nearly all of it the one feasibility
//!    LP per disjunct; `load` runs outside any engine context, so the
//!    interval box is off);
//! 4. *identity* (about 1 µs): the canonical object renamed positionally,
//!    with the `$i` names shared rather than formatted per variable.
//!
//! Loading the benchmark's 5,000 items takes 45–95 ms on that host, 8–11
//! ms of it without their `region` boxes; report experiment E16 times
//! the same path at 10⁵ items.

use crate::ast::{Arith, Formula};
use crate::error::LyricError;
use crate::formula::chain_atoms;
use crate::parser::parse_formula;
use lyric_constraint::{first_repeat, Atom, Conjunction, CstObject, LinExpr, Operand, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use std::fmt::Write as _;

/// Serialize a database to the textual format.
///
/// Fails if a string oid contains a quote or newline (the format is
/// line-oriented and uses single-quoted strings).
pub fn save(db: &Database) -> Result<String, LyricError> {
    let mut out = String::from("LYRIC-DB 1\n\n");
    // ---- schema ----
    for name in db.schema().class_names() {
        let def = db.schema().class(name).expect("listed class exists");
        writeln!(out, "CLASS {name}").expect("string write");
        if !def.interface.is_empty() {
            writeln!(out, "  INTERFACE {}", join_vars(&def.interface)).expect("string write");
        }
        for p in &def.parents {
            writeln!(out, "  PARENT {p}").expect("string write");
        }
        if let Some(d) = def.cst_dim {
            writeln!(out, "  CSTDIM {d}").expect("string write");
        }
        for attr in def.attributes.values() {
            let card = if attr.is_set { "SET" } else { "SCALAR" };
            match &attr.target {
                AttrTarget::Cst { vars } => {
                    writeln!(out, "  ATTR {} {card} CST {}", attr.name, join_vars(vars))
                        .expect("string write");
                }
                AttrTarget::Class { class, actuals } => match actuals {
                    Some(a) => writeln!(
                        out,
                        "  ATTR {} {card} CLASS {class} RENAME {}",
                        attr.name,
                        join_vars(a)
                    )
                    .expect("string write"),
                    None => writeln!(out, "  ATTR {} {card} CLASS {class}", attr.name)
                        .expect("string write"),
                },
            }
        }
        writeln!(out, "END\n").expect("string write");
    }
    // ---- dataless extent members (literal instances, view members) ----
    for class in db.schema().class_names() {
        for oid in db.direct_members(class) {
            let is_object_here = db.object(&oid).map(|d| d.class() == class).unwrap_or(false);
            if !is_object_here {
                writeln!(out, "INSTANCE {class} {}", write_oid(&oid)?).expect("string write");
            }
        }
    }
    writeln!(out).expect("string write");
    // ---- objects ----
    for (oid, data) in db.objects() {
        writeln!(out, "OBJECT {} CLASS {}", write_oid(oid)?, data.class()).expect("string write");
        for (attr, value) in data.attrs() {
            match value {
                Value::Scalar(v) => {
                    writeln!(out, "  SET {attr} = {}", write_oid(v)?).expect("string write")
                }
                Value::Set(s) => {
                    for v in s {
                        writeln!(out, "  ADD {attr} = {}", write_oid(v)?).expect("string write");
                    }
                    if s.is_empty() {
                        writeln!(out, "  EMPTYSET {attr}").expect("string write");
                    }
                }
            }
        }
        writeln!(out, "END\n").expect("string write");
    }
    Ok(out)
}

/// Load a database from the textual format.
pub fn load(text: &str) -> Result<Database, LyricError> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or_else(|| storage_err("empty input"))?;
    if header != "LYRIC-DB 1" {
        return Err(storage_err(format!("bad header {header:?}")));
    }
    type RawObject = (Oid, String, Vec<(String, Value)>);
    let mut schema = Schema::new();
    let mut instances: Vec<(String, Oid)> = Vec::new();
    let mut objects: Vec<RawObject> = Vec::new();

    while let Some(line) = lines.next() {
        if let Some(name) = line.strip_prefix("CLASS ") {
            let mut def = ClassDef::new(name.trim());
            for body in lines.by_ref() {
                if body == "END" {
                    break;
                }
                if let Some(v) = body.strip_prefix("INTERFACE ") {
                    def = def.interface(split_vars(v));
                } else if let Some(p) = body.strip_prefix("PARENT ") {
                    def = def.is_a(p.trim());
                } else if let Some(d) = body.strip_prefix("CSTDIM ") {
                    let dim: usize = d.trim().parse().map_err(|_| storage_err("bad CSTDIM"))?;
                    def = def.cst_class(dim);
                } else if let Some(a) = body.strip_prefix("ATTR ") {
                    def = def.attr(parse_attr(a)?);
                } else {
                    return Err(storage_err(format!("unexpected class line {body:?}")));
                }
            }
            schema.add_class(def).map_err(LyricError::Db)?;
        } else if let Some(rest) = line.strip_prefix("INSTANCE ") {
            let (class, oid_text) = rest
                .split_once(' ')
                .ok_or_else(|| storage_err("INSTANCE needs class and oid"))?;
            instances.push((class.to_string(), parse_oid(oid_text.trim())?));
        } else if let Some(rest) = line.strip_prefix("OBJECT ") {
            let (oid_text, class) = rest
                .rsplit_once(" CLASS ")
                .ok_or_else(|| storage_err("OBJECT needs `CLASS <name>`"))?;
            let oid = parse_oid(oid_text.trim())?;
            let mut attrs: Vec<(String, Value)> = Vec::new();
            for body in lines.by_ref() {
                if body == "END" {
                    break;
                }
                if let Some(rest) = body.strip_prefix("SET ") {
                    let (attr, value) = parse_assignment(rest)?;
                    attrs.push((attr, Value::Scalar(value)));
                } else if let Some(rest) = body.strip_prefix("ADD ") {
                    let (attr, value) = parse_assignment(rest)?;
                    match attrs.iter_mut().find(|(a, _)| *a == attr) {
                        Some((_, Value::Set(s))) => {
                            s.insert(value);
                        }
                        Some(_) => {
                            return Err(storage_err(format!("attribute {attr} mixes SET and ADD")))
                        }
                        None => attrs.push((attr, Value::set([value]))),
                    }
                } else if let Some(attr) = body.strip_prefix("EMPTYSET ") {
                    attrs.push((attr.trim().to_string(), Value::set([])));
                } else {
                    return Err(storage_err(format!("unexpected object line {body:?}")));
                }
            }
            objects.push((oid, class.trim().to_string(), attrs));
        } else {
            return Err(storage_err(format!("unexpected line {line:?}")));
        }
    }

    let mut db = Database::new(schema).map_err(LyricError::Db)?;
    for (class, oid) in instances {
        db.declare_instance(&class, oid).map_err(LyricError::Db)?;
    }
    for (oid, class, attrs) in objects {
        db.insert(oid, &class, attrs).map_err(LyricError::Db)?;
    }
    db.validate_references().map_err(LyricError::Db)?;
    Ok(db)
}

fn storage_err(msg: impl std::fmt::Display) -> LyricError {
    LyricError::parse(format!("storage: {msg}"))
}

fn join_vars(vars: &[Var]) -> String {
    vars.iter().map(Var::name).collect::<Vec<_>>().join(",")
}

fn split_vars(text: &str) -> Vec<Var> {
    text.split(',').map(|v| Var::new(v.trim())).collect()
}

fn parse_attr(text: &str) -> Result<AttrDef, LyricError> {
    // <name> SCALAR|SET CST v,... | CLASS <c> [RENAME v,...]
    let mut parts = text.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| storage_err("ATTR needs a name"))?;
    let card = parts
        .next()
        .ok_or_else(|| storage_err("ATTR needs a cardinality"))?;
    let is_set = match card {
        "SCALAR" => false,
        "SET" => true,
        other => return Err(storage_err(format!("bad cardinality {other:?}"))),
    };
    let kind = parts
        .next()
        .ok_or_else(|| storage_err("ATTR needs a target"))?;
    let target = match kind {
        "CST" => {
            let vars = parts
                .next()
                .ok_or_else(|| storage_err("CST needs variables"))?;
            AttrTarget::Cst {
                vars: split_vars(vars),
            }
        }
        "CLASS" => {
            let class = parts
                .next()
                .ok_or_else(|| storage_err("CLASS needs a name"))?;
            match parts.next() {
                Some("RENAME") => {
                    let vars = parts
                        .next()
                        .ok_or_else(|| storage_err("RENAME needs variables"))?;
                    AttrTarget::class_renamed(class, split_vars(vars))
                }
                Some(other) => return Err(storage_err(format!("unexpected token {other:?}"))),
                None => AttrTarget::class(class),
            }
        }
        other => return Err(storage_err(format!("bad attribute target {other:?}"))),
    };
    Ok(AttrDef {
        name: name.to_string(),
        is_set,
        target,
    })
}

fn parse_assignment(text: &str) -> Result<(String, Oid), LyricError> {
    let (attr, value) = text
        .split_once('=')
        .ok_or_else(|| storage_err("assignment needs `=`"))?;
    Ok((attr.trim().to_string(), parse_oid(value.trim())?))
}

// ------------------------------------------------------------------ oids

fn write_oid(oid: &Oid) -> Result<String, LyricError> {
    Ok(match oid {
        Oid::Int(i) => format!("int:{i}"),
        Oid::Rat(r) => format!("rat:{r}"),
        Oid::Bool(b) => format!("bool:{b}"),
        Oid::Str(s) => {
            if s.contains('\'') || s.contains('\n') {
                return Err(storage_err(format!(
                    "string oid {s:?} contains a quote or newline"
                )));
            }
            format!("str:'{s}'")
        }
        Oid::Named(n) => format!("named:{n}"),
        Oid::Func(name, args) => {
            let parts: Result<Vec<String>, LyricError> = args.iter().map(write_oid).collect();
            format!("func:{name}({})", parts?.join(";"))
        }
        Oid::Cst(c) => format!("cst:{}", write_cst(c.object())),
    })
}

/// Render a constraint object as a parseable LyriC projection formula.
fn write_cst(c: &CstObject) -> String {
    let mut out = format!("(({}) | ", join_vars(c.free()));
    if c.disjuncts().is_empty() {
        out.push_str("1 = 0");
    } else {
        for (i, d) in c.disjuncts().iter().enumerate() {
            if i > 0 {
                out.push_str(" OR ");
            }
            if d.atoms().is_empty() {
                out.push_str("0 = 0");
            } else {
                let atoms: Vec<String> = d.atoms().iter().map(write_atom).collect();
                out.push_str(&atoms.join(" AND "));
            }
        }
    }
    out.push(')');
    out
}

fn write_atom(a: &Atom) -> String {
    // Atom's Display is already parseable LyriC (`x + 2y <= 5`).
    a.to_string()
}

fn parse_oid(text: &str) -> Result<Oid, LyricError> {
    if let Some(i) = text.strip_prefix("int:") {
        return Ok(Oid::Int(i.parse().map_err(|_| storage_err("bad int oid"))?));
    }
    if let Some(r) = text.strip_prefix("rat:") {
        return Ok(Oid::Rat(
            r.parse().map_err(|_| storage_err("bad rational oid"))?,
        ));
    }
    if let Some(b) = text.strip_prefix("bool:") {
        return Ok(Oid::Bool(
            b.parse().map_err(|_| storage_err("bad bool oid"))?,
        ));
    }
    if let Some(s) = text.strip_prefix("str:") {
        let inner = s
            .strip_prefix('\'')
            .and_then(|s| s.strip_suffix('\''))
            .ok_or_else(|| storage_err("string oid must be single-quoted"))?;
        return Ok(Oid::str(inner));
    }
    if let Some(n) = text.strip_prefix("named:") {
        return Ok(Oid::named(n));
    }
    if let Some(f) = text.strip_prefix("func:") {
        let open = f.find('(').ok_or_else(|| storage_err("func oid needs ("))?;
        let name = &f[..open];
        let inner = f[open + 1..]
            .strip_suffix(')')
            .ok_or_else(|| storage_err("func oid needs )"))?;
        let mut args = Vec::new();
        // Split on top-level ';' (func oids nest).
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, ch) in inner.char_indices() {
            match ch {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                ';' if depth == 0 => {
                    args.push(parse_oid(inner[start..i].trim())?);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if !inner.trim().is_empty() {
            args.push(parse_oid(inner[start..].trim())?);
        }
        return Ok(Oid::func(name, args));
    }
    if let Some(c) = text.strip_prefix("cst:") {
        let formula = parse_formula(c.trim())?;
        return Ok(Oid::cst(formula_to_cst(&formula)?));
    }
    Err(storage_err(format!("unknown oid syntax {text:?}")))
}

/// Convert a database-free formula (no path expressions) into a constraint
/// object. The storage format only emits `Proj(Or(And(Chain…)))` shapes,
/// but any path-free formula converts.
///
/// Each conjunction is one [`CstObject::product`]: its chains enter as
/// atom lists over their sorted variables, any other conjunct as an
/// object. That is `and_all` of the lowered conjuncts (same schema, same
/// `Disjuncts` charge), with one normalization per product disjunct and
/// no object per chain. A projection list that names a variable twice is
/// an error.
pub(crate) fn formula_to_cst(f: &Formula) -> Result<CstObject, LyricError> {
    Lowering::default().object(f)
}

pub(crate) fn arith_to_linexpr_pure(a: &Arith) -> Result<LinExpr, LyricError> {
    Lowering::default().linexpr(a)
}

/// The state of one lowering: one [`Var`] per distinct name, so every
/// occurrence of a name shares one string.
#[derive(Default)]
struct Lowering {
    names: Vec<Var>,
}

/// A lowered conjunct of a conjunction.
enum Lowered {
    /// A chain: its sorted variables and its one atom list, or no
    /// variables and no list when an atom is trivially false (the chain
    /// normalizes to the empty object, as `Conjunction::of` would make it).
    Chain(Vec<Var>, Vec<Vec<Atom>>),
    Object(CstObject),
}

impl Lowering {
    fn var(&mut self, name: &str) -> Var {
        if let Some(v) = self.names.iter().find(|v| v.name() == name) {
            return v.clone();
        }
        let v = Var::new(name);
        self.names.push(v.clone());
        v
    }

    fn object(&mut self, f: &Formula) -> Result<CstObject, LyricError> {
        match f {
            Formula::Proj { vars, body, .. } => {
                let schema: Vec<Var> = vars.iter().map(|v| self.var(v)).collect();
                if let Some(v) = first_repeat(&schema) {
                    return Err(storage_err(format!(
                        "variable {v} repeats in the projection list ({})",
                        join_vars(&schema)
                    )));
                }
                Ok(self.object(body)?.into_projection(schema))
            }
            Formula::And(..) => self.conjunction(&f.conjuncts()),
            Formula::Chain { .. } => self.conjunction(&[f]),
            Formula::Or(a, b) => Ok(self.object(a)?.or(&self.object(b)?)),
            Formula::Not(a) => Ok(self.object(a)?.negate()?),
            Formula::Pred { .. } => Err(path_err()),
        }
    }

    fn conjunction(&mut self, conjuncts: &[&Formula]) -> Result<CstObject, LyricError> {
        let mut lowered = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            lowered.push(match c {
                Formula::Chain { first, rest, .. } => {
                    let atoms = chain_atoms(first, rest, |a| self.linexpr(a))?;
                    if atoms.iter().any(|a| a.trivial() == Some(false)) {
                        Lowered::Chain(Vec::new(), Vec::new())
                    } else {
                        let mut schema: Vec<Var> = atoms
                            .iter()
                            .flat_map(|a| a.expr().terms().map(|(v, _)| v.clone()))
                            .collect();
                        schema.sort();
                        schema.dedup();
                        debug_assert!(
                            schema
                                .iter()
                                .eq(&Conjunction::of(atoms.iter().cloned()).vars()),
                            "a chain's schema is its normalized conjunction's variables"
                        );
                        Lowered::Chain(schema, vec![atoms])
                    }
                }
                other => Lowered::Object(self.object(other)?),
            });
        }
        Ok(CstObject::product(lowered.iter().map(|l| match l {
            Lowered::Chain(schema, lists) => Operand::Lists(schema, lists),
            Lowered::Object(o) => Operand::Object(o),
        })))
    }

    fn linexpr(&mut self, a: &Arith) -> Result<LinExpr, LyricError> {
        Ok(match a {
            Arith::Num(n) => LinExpr::constant(n.clone()),
            Arith::Var(v) => LinExpr::var(self.var(v)),
            Arith::Add(x, y) => self.linexpr(x)? + self.linexpr(y)?,
            Arith::Sub(x, y) => self.linexpr(x)? - self.linexpr(y)?,
            Arith::Neg(x) => -self.linexpr(x)?,
            Arith::Mul(x, y) => {
                let l = self.linexpr(x)?;
                let r = self.linexpr(y)?;
                if l.is_constant() {
                    r.scale(l.constant_term())
                } else if r.is_constant() {
                    l.scale(r.constant_term())
                } else {
                    return Err(storage_err("nonlinear product in stored constraint"));
                }
            }
            Arith::PathConst(_) => return Err(path_err()),
        })
    }
}

fn path_err() -> LyricError {
    storage_err("stored constraint formulas cannot reference database paths")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    fn databases_equal(a: &Database, b: &Database) -> bool {
        // Schema classes with full definitions.
        let names_a: Vec<&str> = a.schema().class_names().collect();
        let names_b: Vec<&str> = b.schema().class_names().collect();
        if names_a != names_b {
            return false;
        }
        for n in &names_a {
            if a.schema().class(n) != b.schema().class(n) {
                return false;
            }
        }
        // Extents per class.
        for n in &names_a {
            if a.extent(n) != b.extent(n) {
                return false;
            }
        }
        // Objects and attribute values.
        let objs_a: Vec<_> = a.objects().collect();
        let objs_b: Vec<_> = b.objects().collect();
        objs_a == objs_b
    }

    #[test]
    fn paper_database_roundtrips() {
        let db = paper_example::database();
        let text = save(&db).expect("serializes");
        let reloaded = load(&text).expect("parses");
        assert!(databases_equal(&db, &reloaded), "round-trip drift");
        // Idempotence of the textual form.
        assert_eq!(text, save(&reloaded).expect("serializes again"));
    }

    #[test]
    fn queries_agree_after_reload() {
        let mut db = paper_example::database();
        let text = save(&db).expect("serializes");
        let mut reloaded = load(&text).expect("parses");
        let q = "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
                 FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]";
        let before = crate::execute(&mut db, q).expect("query on original");
        let after = crate::execute(&mut reloaded, q).expect("query on reload");
        assert_eq!(before, after);
    }

    #[test]
    fn func_and_special_oids_roundtrip() {
        let f = Oid::func(
            "pair",
            vec![
                Oid::named("a"),
                Oid::func("inner", vec![Oid::Int(-3), Oid::Bool(true)]),
                Oid::Rat(lyric_arith::Rational::from_pair(7, 3)),
            ],
        );
        let text = write_oid(&f).expect("serializes");
        assert_eq!(parse_oid(&text).expect("parses"), f);
        // Empty-argument function.
        let unit = Oid::func("unit", vec![]);
        assert_eq!(parse_oid(&write_oid(&unit).unwrap()).unwrap(), unit);
    }

    #[test]
    fn empty_and_universal_constraints_roundtrip() {
        let empty = Oid::cst(CstObject::bottom(vec![Var::new("x")]));
        let text = write_oid(&empty).expect("serializes");
        assert_eq!(parse_oid(&text).expect("parses"), empty);
        let top = Oid::cst(CstObject::top(vec![Var::new("x"), Var::new("y")]));
        let text = write_oid(&top).expect("serializes");
        assert_eq!(parse_oid(&text).expect("parses"), top);
    }

    #[test]
    fn quantified_constraints_roundtrip() {
        use lyric_constraint::LinExpr;
        // A stored object with a bound variable: serialized as a formula
        // over free+bound vars under the free projection.
        let obj = CstObject::new(
            vec![Var::new("u")],
            [Conjunction::of([
                Atom::le(
                    LinExpr::var(Var::new("u")),
                    LinExpr::var(Var::new("hidden_a")),
                ),
                Atom::le(
                    LinExpr::var(Var::new("hidden_a")),
                    LinExpr::var(Var::new("hidden_b")),
                ),
                Atom::le(LinExpr::var(Var::new("hidden_b")), LinExpr::from(0)),
                Atom::ge(LinExpr::var(Var::new("hidden_a")), LinExpr::from(-10)),
                Atom::ge(LinExpr::var(Var::new("hidden_b")), LinExpr::from(-10)),
            ])],
        );
        let oid = Oid::cst(obj);
        let text = write_oid(&oid).expect("serializes");
        let back = parse_oid(&text).expect("parses");
        assert_eq!(back, oid);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(load("").is_err());
        assert!(load("NOT-A-HEADER").is_err());
        assert!(load("LYRIC-DB 1\nGARBAGE LINE").is_err());
        assert!(parse_oid("mystery:3").is_err());
        assert!(parse_oid("str:unquoted").is_err());
        assert!(write_oid(&Oid::str("it's quoted")).is_err());
        // Path references are not valid stored constraints.
        assert!(parse_oid("cst:((u) | X.extent(u))").is_err());
    }
}
