//! Database schema: classes, IS-A, attributes, CST interfaces.

use crate::error::DbError;
use lyric_constraint::{first_repeat, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Names of the built-in literal classes. Literal oids are implicit
/// instances of these; any object is an instance of `object`.
pub const BUILTIN_CLASSES: &[&str] = &["int", "real", "string", "bool", "object"];

/// What an attribute ranges over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrTarget {
    /// A class of objects. `actuals`, when present, positionally renames
    /// the target class's interface variables into the owner's variable
    /// space — the paper's `drawer : (p,q)` against `Drawer(x,y)`.
    Class {
        class: String,
        actuals: Option<Vec<Var>>,
    },
    /// A constraint object with the given variable schema: `CST(w,z)`.
    Cst { vars: Vec<Var> },
}

impl AttrTarget {
    /// Attribute over a plain class.
    pub fn class(name: impl Into<String>) -> AttrTarget {
        AttrTarget::Class {
            class: name.into(),
            actuals: None,
        }
    }

    /// Attribute over a class with interface renaming.
    pub fn class_renamed(name: impl Into<String>, actuals: Vec<Var>) -> AttrTarget {
        AttrTarget::Class {
            class: name.into(),
            actuals: Some(actuals),
        }
    }

    /// CST attribute with a declared variable list.
    pub fn cst(vars: impl IntoIterator<Item = impl Into<Var>>) -> AttrTarget {
        AttrTarget::Cst {
            vars: vars.into_iter().map(Into::into).collect(),
        }
    }
}

/// An attribute declaration. Set-valued attributes correspond to the
/// paper's `)) ` signatures / asterisked names (`drawer_center*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    pub name: String,
    pub is_set: bool,
    pub target: AttrTarget,
}

impl AttrDef {
    /// A scalar attribute.
    pub fn scalar(name: impl Into<String>, target: AttrTarget) -> AttrDef {
        AttrDef {
            name: name.into(),
            is_set: false,
            target,
        }
    }

    /// A set-valued attribute.
    pub fn set(name: impl Into<String>, target: AttrTarget) -> AttrDef {
        AttrDef {
            name: name.into(),
            is_set: true,
            target,
        }
    }
}

/// A class definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    pub name: String,
    /// The class interface `C(x₁,…,xₙ)`: variables of this class's CST
    /// attributes that referencing classes may constrain (§3.2).
    pub interface: Vec<Var>,
    /// Direct superclasses (IS-A).
    pub parents: Vec<String>,
    /// Own (non-inherited) attributes by name.
    pub attributes: BTreeMap<String, AttrDef>,
    /// When `Some(n)`, this class is a subclass of the built-in `CST(n)`
    /// superclass: its instances are n-dimensional constraint objects.
    pub cst_dim: Option<usize>,
}

impl ClassDef {
    /// A class with no interface, parents or attributes.
    pub fn new(name: impl Into<String>) -> ClassDef {
        ClassDef {
            name: name.into(),
            interface: Vec::new(),
            parents: Vec::new(),
            attributes: BTreeMap::new(),
            cst_dim: None,
        }
    }

    /// Builder: set the interface variable list.
    pub fn interface(mut self, vars: impl IntoIterator<Item = impl Into<Var>>) -> ClassDef {
        self.interface = vars.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: add a superclass.
    pub fn is_a(mut self, parent: impl Into<String>) -> ClassDef {
        self.parents.push(parent.into());
        self
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, def: AttrDef) -> ClassDef {
        self.attributes.insert(def.name.clone(), def);
        self
    }

    /// Builder: make this a CST class of the given dimension (a subclass of
    /// the abstract `CST(n)` — the paper's Region example).
    pub fn cst_class(mut self, dim: usize) -> ClassDef {
        self.cst_dim = Some(dim);
        self
    }
}

/// A validated collection of class definitions.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    classes: BTreeMap<String, ClassDef>,
}

impl Schema {
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Add a class (validation is deferred to [`Schema::validate`], so
    /// classes may reference classes defined later).
    ///
    /// A variable list that names one variable twice is refused here: the
    /// interface, a CST attribute's schema, or an interface renaming.
    pub fn add_class(&mut self, def: ClassDef) -> Result<(), DbError> {
        if self.classes.contains_key(&def.name) || BUILTIN_CLASSES.contains(&def.name.as_str()) {
            return Err(DbError::DuplicateClass(def.name));
        }
        let lists = std::iter::once(("the interface".to_string(), &def.interface)).chain(
            def.attributes.values().filter_map(|a| match &a.target {
                AttrTarget::Cst { vars } => Some((format!("attribute {}", a.name), vars)),
                AttrTarget::Class {
                    actuals: Some(vars),
                    ..
                } => Some((format!("the renaming of attribute {}", a.name), vars)),
                AttrTarget::Class { actuals: None, .. } => None,
            }),
        );
        for (place, vars) in lists {
            if let Some(v) = first_repeat(vars) {
                return Err(DbError::RepeatedVariable {
                    class: def.name.clone(),
                    place,
                    var: v.name().to_string(),
                });
            }
        }
        self.classes.insert(def.name.clone(), def);
        Ok(())
    }

    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Does the class exist (including built-ins)?
    pub fn has_class(&self, name: &str) -> bool {
        self.classes.contains_key(name) || BUILTIN_CLASSES.contains(&name)
    }

    /// All user-defined class names.
    pub fn class_names(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(String::as_str)
    }

    /// Is `sub` a (possibly transitive, possibly reflexive) subclass of
    /// `sup`? Every class is a subclass of `object`.
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "object" {
            return true;
        }
        let mut stack = vec![sub];
        let mut seen = BTreeSet::new();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            if c == sup {
                return true;
            }
            if let Some(def) = self.classes.get(c) {
                stack.extend(def.parents.iter().map(String::as_str));
            }
        }
        false
    }

    /// Direct and transitive subclasses of `name`, including itself.
    pub fn subclasses_of<'a>(&'a self, name: &'a str) -> Vec<&'a str> {
        let mut out = vec![name];
        // Fixed-point over the (small) class graph.
        loop {
            let before = out.len();
            for (c, def) in &self.classes {
                if out.contains(&c.as_str()) {
                    continue;
                }
                if def.parents.iter().any(|p| out.contains(&p.as_str())) {
                    out.push(c);
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }

    /// The attribute `attr` as visible from `class`: the class's own
    /// declaration if any, otherwise the nearest inherited one
    /// (depth-first over parents, declaration order).
    pub fn attribute<'a>(&'a self, class: &str, attr: &str) -> Option<&'a AttrDef> {
        self.attribute_with_declarer(class, attr).map(|(_, a)| a)
    }

    /// Like [`Schema::attribute`], but also reports which class in the
    /// IS-A chain actually declares the attribute.
    pub fn attribute_with_declarer<'a>(
        &'a self,
        class: &str,
        attr: &str,
    ) -> Option<(&'a str, &'a AttrDef)> {
        let def = self.classes.get(class)?;
        if let Some(a) = def.attributes.get(attr) {
            return Some((def.name.as_str(), a));
        }
        for p in &def.parents {
            if let Some(hit) = self.attribute_with_declarer(p, attr) {
                return Some(hit);
            }
        }
        None
    }

    /// The IS-A chain searched during attribute lookup, starting at
    /// `class` and walking parents depth-first in declaration order
    /// (each class listed once).
    pub fn ancestors(&self, class: &str) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        fn walk<'a>(schema: &'a Schema, class: &str, out: &mut Vec<&'a str>) {
            if out.contains(&class) {
                return;
            }
            let Some(def) = schema.classes.get(class) else {
                return;
            };
            out.push(def.name.as_str());
            for p in &def.parents {
                walk(schema, p, out);
            }
        }
        walk(self, class, &mut out);
        out
    }

    /// All attributes visible from `class`, each resolved as
    /// [`attribute`](Self::attribute) resolves it: own shadowing inherited,
    /// and among parents the first (depth-first, declaration order) that
    /// declares it.
    pub fn attributes_of(&self, class: &str) -> BTreeMap<String, &AttrDef> {
        let mut out = BTreeMap::new();
        fn walk<'a>(schema: &'a Schema, class: &str, out: &mut BTreeMap<String, &'a AttrDef>) {
            if let Some(def) = schema.classes.get(class) {
                for (name, a) in &def.attributes {
                    out.entry(name.clone()).or_insert(a); // the nearest declaration wins
                }
                for p in &def.parents {
                    walk(schema, p, out);
                }
            }
        }
        walk(self, class, &mut out);
        out
    }

    /// Full validation: parents exist, IS-A acyclic, attribute targets
    /// exist, interface renamings arity-match the target class interface.
    pub fn validate(&self) -> Result<(), DbError> {
        // Acyclicity by DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: BTreeMap<&str, Color> = self
            .classes
            .keys()
            .map(|k| (k.as_str(), Color::White))
            .collect();
        fn dfs<'a>(
            schema: &'a Schema,
            node: &'a str,
            color: &mut BTreeMap<&'a str, Color>,
        ) -> Result<(), DbError> {
            match color.get(node) {
                Some(Color::Black) | None => return Ok(()),
                Some(Color::Grey) => return Err(DbError::CyclicIsA(node.to_string())),
                Some(Color::White) => {}
            }
            color.insert(node, Color::Grey);
            let def = schema.classes.get(node).expect("colored node exists");
            for p in &def.parents {
                if !schema.has_class(p) {
                    return Err(DbError::UnknownClass(p.clone()));
                }
                if schema.classes.contains_key(p) {
                    dfs(schema, p, color)?;
                }
            }
            color.insert(node, Color::Black);
            Ok(())
        }
        let names: Vec<&str> = self.classes.keys().map(String::as_str).collect();
        for name in names {
            dfs(self, name, &mut color)?;
        }
        // Attribute targets and renaming arities.
        for def in self.classes.values() {
            for attr in def.attributes.values() {
                if let AttrTarget::Class { class, actuals } = &attr.target {
                    if !self.has_class(class) {
                        return Err(DbError::UnknownClass(class.clone()));
                    }
                    if let Some(actuals) = actuals {
                        let target_iface_len = self
                            .classes
                            .get(class)
                            .map(|c| c.interface.len())
                            .unwrap_or(0);
                        if actuals.len() != target_iface_len {
                            return Err(DbError::InterfaceArityMismatch {
                                class: def.name.clone(),
                                attr: attr.name.clone(),
                                expected: target_iface_len,
                                got: actuals.len(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn office_schema() -> Schema {
        let mut s = Schema::new();
        s.add_class(
            ClassDef::new("Office_Object")
                .interface(["x", "y"])
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar("color", AttrTarget::class("Color")))
                .attr(AttrDef::scalar("extent", AttrTarget::cst(["w", "z"]))),
        )
        .unwrap();
        s.add_class(ClassDef::new("Color")).unwrap();
        s.add_class(
            ClassDef::new("Drawer")
                .interface(["x", "y"])
                .attr(AttrDef::scalar("extent", AttrTarget::cst(["w", "z"]))),
        )
        .unwrap();
        s.add_class(
            ClassDef::new("Desk")
                .is_a("Office_Object")
                .attr(AttrDef::scalar(
                    "drawer_center",
                    AttrTarget::cst(["p", "q"]),
                ))
                .attr(AttrDef::scalar(
                    "drawer",
                    AttrTarget::class_renamed("Drawer", vec!["p".into(), "q".into()]),
                )),
        )
        .unwrap();
        s
    }

    #[test]
    fn builds_and_validates() {
        let s = office_schema();
        assert!(s.validate().is_ok());
        assert!(s.has_class("Desk"));
        assert!(s.has_class("string")); // builtin
        assert!(!s.has_class("Chair"));
    }

    #[test]
    fn repeated_variables_rejected() {
        let repeated = |def: ClassDef, place: &str| {
            let mut s = office_schema();
            assert_eq!(
                s.add_class(def),
                Err(DbError::RepeatedVariable {
                    class: "Chair".into(),
                    place: place.into(),
                    var: "u".into(),
                })
            );
        };
        repeated(
            ClassDef::new("Chair").interface(["u", "v", "u"]),
            "the interface",
        );
        repeated(
            ClassDef::new("Chair").attr(AttrDef::scalar("seat", AttrTarget::cst(["u", "u"]))),
            "attribute seat",
        );
        repeated(
            ClassDef::new("Chair").attr(AttrDef::scalar(
                "drawer",
                AttrTarget::class_renamed("Drawer", vec!["u".into(), "u".into()]),
            )),
            "the renaming of attribute drawer",
        );
    }

    #[test]
    fn attribute_resolves_as_attributes_of() {
        let mut s = office_schema();
        // Two parents declare `k`: both resolve to the first parent's.
        for (parent, var) in [("A", "a"), ("B", "b")] {
            s.add_class(ClassDef::new(parent).attr(AttrDef::scalar("k", AttrTarget::cst([var]))))
                .unwrap();
        }
        s.add_class(ClassDef::new("C").is_a("A").is_a("B")).unwrap();
        assert_eq!(
            s.attribute("C", "k").map(|a| &a.target),
            Some(&AttrTarget::cst(["a"]))
        );
        for class in ["Desk", "C", "Drawer", "Color"] {
            let all = s.attributes_of(class);
            for name in ["extent", "drawer", "color", "k", "missing"] {
                assert_eq!(
                    s.attribute(class, name),
                    all.get(name).copied(),
                    "{class}.{name}"
                );
            }
        }
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut s = office_schema();
        assert_eq!(
            s.add_class(ClassDef::new("Desk")),
            Err(DbError::DuplicateClass("Desk".into()))
        );
        assert_eq!(
            s.add_class(ClassDef::new("string")),
            Err(DbError::DuplicateClass("string".into()))
        );
    }

    #[test]
    fn subclass_relation() {
        let s = office_schema();
        assert!(s.is_subclass("Desk", "Office_Object"));
        assert!(s.is_subclass("Desk", "Desk"));
        assert!(s.is_subclass("Desk", "object"));
        assert!(!s.is_subclass("Office_Object", "Desk"));
        let subs = s.subclasses_of("Office_Object");
        assert!(subs.contains(&"Desk"));
        assert!(subs.contains(&"Office_Object"));
        assert!(!subs.contains(&"Drawer"));
    }

    #[test]
    fn attribute_inheritance_and_shadowing() {
        let mut s = office_schema();
        // Desk inherits extent from Office_Object.
        let a = s.attribute("Desk", "extent").unwrap();
        assert_eq!(a.target, AttrTarget::cst(["w", "z"]));
        // Shadowing: a subclass redefining `color` wins.
        s.add_class(
            ClassDef::new("Painted_Desk")
                .is_a("Desk")
                .attr(AttrDef::scalar("color", AttrTarget::class("string"))),
        )
        .unwrap();
        let shadowed = s.attribute("Painted_Desk", "color").unwrap();
        assert_eq!(shadowed.target, AttrTarget::class("string"));
        let all = s.attributes_of("Painted_Desk");
        assert!(all.contains_key("extent"));
        assert!(all.contains_key("drawer_center"));
        assert_eq!(all["color"].target, AttrTarget::class("string"));
    }

    #[test]
    fn cycle_detection() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("A").is_a("B")).unwrap();
        s.add_class(ClassDef::new("B").is_a("A")).unwrap();
        assert!(matches!(s.validate(), Err(DbError::CyclicIsA(_))));
    }

    #[test]
    fn unknown_parent_and_target() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("A").is_a("Missing")).unwrap();
        assert_eq!(s.validate(), Err(DbError::UnknownClass("Missing".into())));

        let mut s = Schema::new();
        s.add_class(ClassDef::new("A").attr(AttrDef::scalar("b", AttrTarget::class("Missing"))))
            .unwrap();
        assert_eq!(s.validate(), Err(DbError::UnknownClass("Missing".into())));
    }

    #[test]
    fn interface_arity_checked() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("Part").interface(["x", "y"]))
            .unwrap();
        s.add_class(ClassDef::new("Whole").attr(AttrDef::scalar(
            "part",
            AttrTarget::class_renamed("Part", vec!["p".into()]),
        )))
        .unwrap();
        assert!(matches!(
            s.validate(),
            Err(DbError::InterfaceArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn cst_class_marker() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new("Region").cst_class(2)).unwrap();
        assert_eq!(s.class("Region").unwrap().cst_dim, Some(2));
        assert!(s.validate().is_ok());
    }
}
