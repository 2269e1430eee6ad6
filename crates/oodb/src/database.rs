//! The typed instance store.

use crate::error::DbError;
use crate::oid::Oid;
use crate::schema::{AttrTarget, ClassDef, Schema, BUILTIN_CLASSES};
use crate::value::Value;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// Stored state of one object: its (most specific) class and attribute
/// values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectData {
    class: String,
    attrs: BTreeMap<String, Value>,
}

impl ObjectData {
    /// The class the object was inserted into.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The stored value of an attribute, if set.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.get(name)
    }

    /// Iterate stored (attribute, value) pairs.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A generation-stamped, type-erased cache slot for a derived index over
/// the database (built and downcast by `lyric-store`). The slot lives on
/// the [`Database`] so index reuse survives across queries against the
/// same value, while any mutation — which bumps
/// [`Database::data_generation`] — makes the cached entry unreachable.
///
/// Cloning a database gives the clone a *fresh, empty* slot: the two
/// values mutate independently afterwards, so sharing a slot would make
/// them invalidate each other's caches.
pub struct IndexSlot {
    slot: RwLock<Option<(u64, Arc<dyn Any + Send + Sync>)>>,
}

impl IndexSlot {
    fn new() -> IndexSlot {
        IndexSlot {
            slot: RwLock::new(None),
        }
    }

    /// The cached value, if one was stored for exactly this generation.
    pub fn get(&self, generation: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let guard = self.slot.read().ok()?;
        match &*guard {
            Some((gen, value)) if *gen == generation => Some(Arc::clone(value)),
            _ => None,
        }
    }

    /// Store a value for `generation`, replacing any previous entry.
    pub fn set(&self, generation: u64, value: Arc<dyn Any + Send + Sync>) {
        if let Ok(mut guard) = self.slot.write() {
            *guard = Some((generation, value));
        }
    }
}

impl Clone for IndexSlot {
    fn clone(&self) -> IndexSlot {
        IndexSlot::new()
    }
}

impl Default for IndexSlot {
    fn default() -> IndexSlot {
        IndexSlot::new()
    }
}

impl std::fmt::Debug for IndexSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gen = self
            .slot
            .read()
            .ok()
            .and_then(|g| g.as_ref().map(|(gen, _)| *gen));
        f.debug_struct("IndexSlot")
            .field("generation", &gen)
            .finish()
    }
}

/// An object database: a validated [`Schema`], class extents, and typed
/// per-object attribute values.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    objects: BTreeMap<Oid, ObjectData>,
    /// Direct extents: objects inserted *into* each class (subclass
    /// members are found by walking the hierarchy at read time).
    extents: BTreeMap<String, BTreeSet<Oid>>,
    /// Monotonic mutation counter: bumped by every successful write
    /// (insert, declare, attribute update, schema change). Derived
    /// structures — the store index — stamp themselves with the
    /// generation they were built against and rebuild on mismatch.
    data_generation: u64,
    /// Cache slot for the store index (see [`IndexSlot`]).
    index_slot: IndexSlot,
}

impl Database {
    /// Validate the schema and create an empty database.
    pub fn new(schema: Schema) -> Result<Database, DbError> {
        schema.validate()?;
        Ok(Database {
            schema,
            objects: BTreeMap::new(),
            extents: BTreeMap::new(),
            data_generation: 0,
            index_slot: IndexSlot::new(),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current mutation generation: 0 for a fresh database, bumped by
    /// every successful write.
    pub fn data_generation(&self) -> u64 {
        self.data_generation
    }

    /// The generation-stamped cache slot for the store index.
    pub fn index_slot(&self) -> &IndexSlot {
        &self.index_slot
    }

    /// Record a successful write (data or schema): bump the generation,
    /// which makes every derived structure stamped with an older one
    /// unreachable.
    fn touch(&mut self) {
        self.data_generation += 1;
    }

    /// Insert an object with attribute values. Typechecks cardinality, CST
    /// dimensions and literal classes eagerly; references to not-yet-
    /// inserted objects are deferred to [`Database::validate_references`].
    pub fn insert(
        &mut self,
        oid: Oid,
        class: &str,
        attrs: impl IntoIterator<Item = (impl Into<String>, Value)>,
    ) -> Result<(), DbError> {
        let cst_dim = self
            .schema
            .class(class)
            .ok_or_else(|| DbError::UnknownClass(class.to_string()))?
            .cst_dim;
        if self.objects.contains_key(&oid) {
            return Err(DbError::DuplicateObject(oid.to_string()));
        }
        // CST classes: instances must be constraint oids of the declared
        // dimension (§3.2: CST objects are organized into classes by
        // dimension).
        if let Some(dim) = cst_dim {
            match oid.as_cst() {
                Some(c) if c.arity() == dim => {}
                Some(c) => {
                    return Err(DbError::CstClassInstance {
                        class: class.to_string(),
                        detail: format!("expected dimension {dim}, got {}", c.arity()),
                    })
                }
                None => {
                    return Err(DbError::CstClassInstance {
                        class: class.to_string(),
                        detail: "instance is not a constraint object".into(),
                    })
                }
            }
        }
        let mut stored = BTreeMap::new();
        for (name, value) in attrs {
            let name = name.into();
            let decl =
                self.schema
                    .attribute(class, &name)
                    .ok_or_else(|| DbError::UnknownAttribute {
                        class: class.to_string(),
                        attr: name.clone(),
                    })?;
            if decl.is_set != value.is_set() {
                return Err(DbError::Cardinality {
                    class: class.to_string(),
                    attr: name.clone(),
                    expected_set: decl.is_set,
                });
            }
            for member in value.iter() {
                self.check_target(class, &name, &decl.target, member)?;
            }
            stored.insert(name, value);
        }
        self.objects.insert(
            oid.clone(),
            ObjectData {
                class: class.to_string(),
                attrs: stored,
            },
        );
        self.add_member(class, oid);
        self.touch();
        Ok(())
    }

    /// Add `oid` to the direct extent of `class`.
    fn add_member(&mut self, class: &str, oid: Oid) {
        match self.extents.get_mut(class) {
            Some(extent) => {
                extent.insert(oid);
            }
            None => {
                self.extents
                    .insert(class.to_string(), BTreeSet::from([oid]));
            }
        }
    }

    /// Record class membership for an oid without attribute data — used
    /// for literal instances (`'red'` in `Color`) and for view
    /// materialization.
    pub fn declare_instance(&mut self, class: &str, oid: Oid) -> Result<(), DbError> {
        let def = self
            .schema
            .class(class)
            .ok_or_else(|| DbError::UnknownClass(class.to_string()))?;
        if let Some(dim) = def.cst_dim {
            match oid.as_cst() {
                Some(c) if c.arity() == dim => {}
                _ => {
                    return Err(DbError::CstClassInstance {
                        class: class.to_string(),
                        detail: format!("expected a constraint object of dimension {dim}"),
                    })
                }
            }
        }
        self.add_member(class, oid);
        self.touch();
        Ok(())
    }

    fn check_target(
        &self,
        class: &str,
        attr: &str,
        target: &AttrTarget,
        oid: &Oid,
    ) -> Result<(), DbError> {
        match target {
            AttrTarget::Cst { vars } => match oid.as_cst() {
                Some(c) if c.arity() == vars.len() => Ok(()),
                Some(c) => Err(DbError::CstMismatch {
                    class: class.to_string(),
                    attr: attr.to_string(),
                    detail: format!(
                        "declared {} variables, value has dimension {}",
                        vars.len(),
                        c.arity()
                    ),
                }),
                None => Err(DbError::CstMismatch {
                    class: class.to_string(),
                    attr: attr.to_string(),
                    detail: format!("value {oid} is not a constraint object"),
                }),
            },
            AttrTarget::Class {
                class: target_class,
                ..
            } => {
                // Literals are checked against built-in classes eagerly;
                // object references may be forward references and are
                // checked by validate_references().
                match oid {
                    Oid::Int(_) | Oid::Rat(_) | Oid::Str(_) | Oid::Bool(_) => {
                        if literal_instance_of(oid, target_class)
                            || self.declared_instance(oid, target_class)
                        {
                            Ok(())
                        } else {
                            Err(DbError::NotAnInstance {
                                oid: oid.to_string(),
                                class: target_class.clone(),
                            })
                        }
                    }
                    _ => Ok(()),
                }
            }
        }
    }

    /// Check that every object-valued attribute refers to a known instance
    /// of the declared class. Run after bulk loading.
    pub fn validate_references(&self) -> Result<(), DbError> {
        for data in self.objects.values() {
            for (name, value) in &data.attrs {
                let Some(decl) = self.schema.attribute(&data.class, name) else {
                    continue;
                };
                if let AttrTarget::Class { class: target, .. } = &decl.target {
                    for member in value.iter() {
                        if matches!(member, Oid::Named(_) | Oid::Func(..) | Oid::Cst(_))
                            && !self.is_instance(member, target)
                        {
                            return Err(DbError::NotAnInstance {
                                oid: member.to_string(),
                                class: target.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The stored data of an object, if any.
    pub fn object(&self, oid: &Oid) -> Option<&ObjectData> {
        self.objects.get(oid)
    }

    /// The value of `attr` on `oid`, if stored.
    pub fn attr(&self, oid: &Oid, attr: &str) -> Option<&Value> {
        self.objects.get(oid)?.attrs.get(attr)
    }

    /// Update (or set) an attribute value. The paper is explicit that CST
    /// attributes update like any other ("there is no reason that moving a
    /// desk would be limited in any way", §6).
    pub fn set_attr(&mut self, oid: &Oid, attr: &str, value: Value) -> Result<(), DbError> {
        let class = self
            .objects
            .get(oid)
            .ok_or_else(|| DbError::UnknownObject(oid.to_string()))?
            .class
            .clone();
        let decl =
            self.schema
                .attribute(&class, attr)
                .ok_or_else(|| DbError::UnknownAttribute {
                    class: class.clone(),
                    attr: attr.to_string(),
                })?;
        if decl.is_set != value.is_set() {
            return Err(DbError::Cardinality {
                class,
                attr: attr.to_string(),
                expected_set: decl.is_set,
            });
        }
        let target = decl.target.clone();
        for member in value.iter() {
            self.check_target(&class, attr, &target, member)?;
        }
        self.objects
            .get_mut(oid)
            .expect("checked above")
            .attrs
            .insert(attr.to_string(), value);
        self.touch();
        Ok(())
    }

    /// Direct membership in a class (no hierarchy walk).
    fn declared_instance(&self, oid: &Oid, class: &str) -> bool {
        self.extents.get(class).is_some_and(|e| e.contains(oid))
    }

    /// Is `oid` an instance of `class` (hierarchy- and literal-aware)?
    pub fn is_instance(&self, oid: &Oid, class: &str) -> bool {
        if class == "object" {
            return true;
        }
        if literal_instance_of(oid, class) {
            return true;
        }
        self.schema
            .subclasses_of(class)
            .iter()
            .any(|c| self.declared_instance(oid, c))
    }

    /// All instances of `class`, including subclass members, in oid order.
    /// Built-in literal classes have unenumerable extents and return empty.
    pub fn extent(&self, class: &str) -> Vec<Oid> {
        self.extent_refs(class).into_iter().cloned().collect()
    }

    /// [`extent`](Self::extent) without cloning an oid: the members of
    /// `class` and its subclasses, sorted and without repeats.
    pub fn extent_refs(&self, class: &str) -> Vec<&Oid> {
        let mut direct = self
            .schema
            .subclasses_of(class)
            .into_iter()
            .filter_map(|c| self.extents.get(c))
            .filter(|e| !e.is_empty());
        let Some(first) = direct.next() else {
            return Vec::new();
        };
        let mut out: Vec<&Oid> = first.iter().collect();
        let mut merged = false;
        for e in direct {
            out.extend(e.iter());
            merged = true;
        }
        if merged {
            out.sort();
            out.dedup();
        }
        out
    }

    /// The number of instances of `class`, including subclass members:
    /// always `extent(class).len()`, counted without cloning an oid. An
    /// oid declared into several classes of the cone (a view class
    /// re-declaring members of its parent) counts once. O(1) in the
    /// extent size when at most one direct extent of the cone is
    /// non-empty; otherwise each member outside the largest direct
    /// extent costs one lookup per larger one.
    pub fn extent_len(&self, class: &str) -> usize {
        let mut direct: Vec<&BTreeSet<Oid>> = self
            .schema
            .subclasses_of(class)
            .into_iter()
            .filter_map(|c| self.extents.get(c))
            .filter(|e| !e.is_empty())
            .collect();
        direct.sort_by_key(|e| std::cmp::Reverse(e.len()));
        let Some((largest, rest)) = direct.split_first() else {
            return 0;
        };
        let mut n = largest.len();
        for (i, e) in rest.iter().enumerate() {
            let seen = &direct[..=i];
            n += e
                .iter()
                .filter(|o| !seen.iter().any(|d| d.contains(*o)))
                .count();
        }
        n
    }

    /// Direct members of a class: oids inserted or declared into exactly
    /// this class (no hierarchy walk). Used by persistence.
    pub fn direct_members(&self, class: &str) -> Vec<Oid> {
        self.extents
            .get(class)
            .map(|e| e.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Total number of stored objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Iterate all stored objects.
    pub fn objects(&self) -> impl Iterator<Item = (&Oid, &ObjectData)> {
        self.objects.iter()
    }

    /// Add a class to the schema of a live database (used by view
    /// materialization, which may need attribute declarations from a
    /// query's SIGNATURE clause). Re-validates the schema.
    pub fn add_class(&mut self, def: ClassDef) -> Result<(), DbError> {
        self.schema.add_class(def)?;
        self.schema.validate()?;
        self.touch();
        Ok(())
    }

    /// Create a view class (used by `CREATE VIEW name AS SUBCLASS OF
    /// parent`), then populate it with `members` via
    /// [`declare_instance`](Self::declare_instance). The class is added to
    /// the schema with the given parent.
    pub fn create_view_class(
        &mut self,
        name: &str,
        parent: Option<&str>,
        members: impl IntoIterator<Item = Oid>,
    ) -> Result<(), DbError> {
        if let Some(p) = parent {
            if !self.schema.has_class(p) {
                return Err(DbError::UnknownClass(p.to_string()));
            }
        }
        let mut def = ClassDef::new(name);
        if let Some(p) = parent {
            def = def.is_a(p);
        }
        // Views over CST classes keep the dimension marker so instance
        // checks stay meaningful.
        if let Some(p) = parent {
            if let Some(pd) = self.schema.class(p) {
                def.cst_dim = pd.cst_dim;
            }
        }
        self.schema.add_class(def)?;
        self.touch();
        for m in members {
            self.declare_instance(name, m)?;
        }
        Ok(())
    }
}

/// Literal-class membership: `Int ⊆ int ⊆ real`, `Rat ⊆ real`,
/// `Str ⊆ string`, `Bool ⊆ bool`.
fn literal_instance_of(oid: &Oid, class: &str) -> bool {
    debug_assert!(BUILTIN_CLASSES.contains(&"int"));
    matches!(
        (oid, class),
        (_, "object")
            | (Oid::Int(_), "int" | "real")
            | (Oid::Rat(_), "real")
            | (Oid::Str(_), "string")
            | (Oid::Bool(_), "bool")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;
    use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};

    fn interval(var: &str, lo: i64, hi: i64) -> CstObject {
        CstObject::from_conjunction(
            vec![Var::new(var)],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new(var)), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new(var)), LinExpr::from(hi)),
            ]),
        )
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("Color")).unwrap();
        s.add_class(
            ClassDef::new("Furniture")
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar("color", AttrTarget::class("Color")))
                .attr(AttrDef::scalar("span", AttrTarget::cst(["w"])))
                .attr(AttrDef::set("tags", AttrTarget::class("string"))),
        )
        .unwrap();
        s.add_class(ClassDef::new("Desk").is_a("Furniture"))
            .unwrap();
        s.add_class(ClassDef::new("Region").cst_class(1)).unwrap();
        s
    }

    fn db() -> Database {
        let mut db = Database::new(schema()).unwrap();
        db.declare_instance("Color", Oid::str("red")).unwrap();
        db
    }

    #[test]
    fn insert_and_read_back() {
        let mut db = db();
        db.insert(
            Oid::named("d1"),
            "Desk",
            [
                ("name", Value::Scalar(Oid::str("standard desk"))),
                ("color", Value::Scalar(Oid::str("red"))),
                ("span", Value::Scalar(Oid::cst(interval("w", -4, 4)))),
                ("tags", Value::set([Oid::str("a"), Oid::str("b")])),
            ],
        )
        .unwrap();
        let data = db.object(&Oid::named("d1")).unwrap();
        assert_eq!(data.class(), "Desk");
        assert_eq!(
            db.attr(&Oid::named("d1"), "name"),
            Some(&Value::Scalar(Oid::str("standard desk")))
        );
        assert!(db.validate_references().is_ok());
    }

    #[test]
    fn extent_includes_subclasses() {
        let mut db = db();
        db.insert(Oid::named("f1"), "Furniture", [] as [(&str, Value); 0])
            .unwrap();
        db.insert(Oid::named("d1"), "Desk", [] as [(&str, Value); 0])
            .unwrap();
        assert_eq!(db.extent("Furniture").len(), 2);
        assert_eq!(db.extent_len("Furniture"), 2);
        assert_eq!(db.extent("Desk"), vec![Oid::named("d1")]);
        assert_eq!(db.extent_len("Desk"), 1);
        assert_eq!(db.extent_len("Region"), 0);
        assert!(db.is_instance(&Oid::named("d1"), "Furniture"));
        assert!(db.is_instance(&Oid::named("d1"), "object"));
        assert!(!db.is_instance(&Oid::named("f1"), "Desk"));
    }

    #[test]
    fn typechecking_rejects_bad_inserts() {
        let mut db = db();
        // Unknown class.
        assert!(matches!(
            db.insert(Oid::named("x"), "Chair", [] as [(&str, Value); 0]),
            Err(DbError::UnknownClass(_))
        ));
        // Unknown attribute.
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("wheels", Value::Scalar(Oid::Int(4)))]
            ),
            Err(DbError::UnknownAttribute { .. })
        ));
        // Cardinality.
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("tags", Value::Scalar(Oid::str("a")))]
            ),
            Err(DbError::Cardinality { .. })
        ));
        // CST dimension mismatch (2-d value into 1-d attribute).
        let two_d = CstObject::top(vec![Var::new("a"), Var::new("b")]);
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("span", Value::Scalar(Oid::cst(two_d)))]
            ),
            Err(DbError::CstMismatch { .. })
        ));
        // Non-CST value into CST attribute.
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("span", Value::Scalar(Oid::Int(3)))]
            ),
            Err(DbError::CstMismatch { .. })
        ));
        // Wrong literal class.
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("name", Value::Scalar(Oid::Int(3)))]
            ),
            Err(DbError::NotAnInstance { .. })
        ));
        // Literal not declared in user class.
        assert!(matches!(
            db.insert(
                Oid::named("x"),
                "Desk",
                [("color", Value::Scalar(Oid::str("teal")))]
            ),
            Err(DbError::NotAnInstance { .. })
        ));
    }

    #[test]
    fn duplicate_oid_rejected() {
        let mut db = db();
        db.insert(Oid::named("d1"), "Desk", [] as [(&str, Value); 0])
            .unwrap();
        assert!(matches!(
            db.insert(Oid::named("d1"), "Desk", [] as [(&str, Value); 0]),
            Err(DbError::DuplicateObject(_))
        ));
    }

    #[test]
    fn forward_references_validated_lazily() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("A").attr(AttrDef::scalar("next", AttrTarget::class("A"))))
            .unwrap();
        let mut db = Database::new(s).unwrap();
        // a1 references a2 before a2 exists: insert succeeds...
        db.insert(
            Oid::named("a1"),
            "A",
            [("next", Value::Scalar(Oid::named("a2")))],
        )
        .unwrap();
        // ...but reference validation catches the dangling link...
        assert!(matches!(
            db.validate_references(),
            Err(DbError::NotAnInstance { .. })
        ));
        // ...until the target arrives.
        db.insert(Oid::named("a2"), "A", [] as [(&str, Value); 0])
            .unwrap();
        assert!(db.validate_references().is_ok());
    }

    #[test]
    fn cst_class_instances() {
        let mut db = db();
        let r1 = Oid::cst(interval("x", 0, 10));
        db.declare_instance("Region", r1.clone()).unwrap();
        assert!(db.is_instance(&r1, "Region"));
        assert_eq!(db.extent("Region"), vec![r1]);
        // Wrong dimension rejected.
        let r2 = Oid::cst(CstObject::top(vec![Var::new("a"), Var::new("b")]));
        assert!(matches!(
            db.declare_instance("Region", r2),
            Err(DbError::CstClassInstance { .. })
        ));
        // Non-CST rejected.
        assert!(matches!(
            db.declare_instance("Region", Oid::Int(3)),
            Err(DbError::CstClassInstance { .. })
        ));
    }

    #[test]
    fn cst_objects_can_carry_attributes() {
        // §3: constraints are first-class objects that "can have attributes
        // ... (e.g. names of regions in a GIS)".
        let mut s = schema();
        s = {
            let mut s2 = Schema::new();
            for name in s.class_names().map(str::to_string).collect::<Vec<_>>() {
                s2.add_class(s.class(&name).unwrap().clone()).unwrap();
            }
            s2
        };
        let mut s3 = Schema::new();
        for name in s.class_names().map(str::to_string).collect::<Vec<_>>() {
            if name == "Region" {
                s3.add_class(
                    ClassDef::new("Region")
                        .cst_class(1)
                        .attr(AttrDef::scalar("name", AttrTarget::class("string"))),
                )
                .unwrap();
            } else {
                s3.add_class(s.class(&name).unwrap().clone()).unwrap();
            }
        }
        let mut db = Database::new(s3).unwrap();
        let r = Oid::cst(interval("x", 0, 5));
        db.insert(
            r.clone(),
            "Region",
            [("name", Value::Scalar(Oid::str("lobby")))],
        )
        .unwrap();
        assert_eq!(db.attr(&r, "name"), Some(&Value::Scalar(Oid::str("lobby"))));
    }

    #[test]
    fn set_attr_updates() {
        let mut db = db();
        db.insert(
            Oid::named("d1"),
            "Desk",
            [("span", Value::Scalar(Oid::cst(interval("w", -4, 4))))],
        )
        .unwrap();
        // Moving the desk: completely general CST update (§6).
        db.set_attr(
            &Oid::named("d1"),
            "span",
            Value::Scalar(Oid::cst(interval("w", 0, 8))),
        )
        .unwrap();
        let v = db.attr(&Oid::named("d1"), "span").unwrap();
        let cst = v.as_scalar().unwrap().as_cst().unwrap();
        assert!(cst.contains_point(&[lyric_arith::Rational::from_int(8)]));
        // Bad update rejected.
        assert!(db
            .set_attr(&Oid::named("d1"), "span", Value::Scalar(Oid::Int(1)))
            .is_err());
        assert!(db
            .set_attr(&Oid::named("missing"), "span", Value::Scalar(Oid::Int(1)))
            .is_err());
    }

    #[test]
    fn view_classes() {
        let mut db = db();
        db.insert(Oid::named("d1"), "Desk", [] as [(&str, Value); 0])
            .unwrap();
        db.insert(Oid::named("d2"), "Desk", [] as [(&str, Value); 0])
            .unwrap();
        db.create_view_class("Red_Desk", Some("Desk"), [Oid::named("d1")])
            .unwrap();
        assert!(db.is_instance(&Oid::named("d1"), "Red_Desk"));
        assert!(!db.is_instance(&Oid::named("d2"), "Red_Desk"));
        // The view is part of the Desk extent computation as a subclass;
        // its re-declared member d1 counts once.
        assert_eq!(db.extent("Desk").len(), 2);
        assert_eq!(db.extent_len("Desk"), 2);
        assert_eq!(db.extent_len("Furniture"), 2);
        assert_eq!(db.extent("Red_Desk").len(), 1);
        assert_eq!(db.extent_len("Red_Desk"), 1);
        // Unknown parent rejected.
        assert!(db.create_view_class("V2", Some("Nope"), []).is_err());
    }
}
