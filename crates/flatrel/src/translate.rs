//! The §5 translation: an object database as a collection of flat
//! constraint relations.
//!
//! * one **extent relation** `C(obj)` per class, containing the oids of
//!   all instances (subclasses included — the IS-A hierarchy is compiled
//!   away);
//! * one **attribute relation** `C_a(obj, val)` per class and visible
//!   attribute; set-valued attributes are unnested into one tuple per
//!   member (§5: "after unnesting them");
//! * CST attributes become **constraint relations** `C_a(obj; x₁,…,xₙ)`:
//!   one tuple per object per disjunct of the stored object, with the
//!   constraint aligned to the attribute's declared variable list —
//!   [BJM93]'s "constraint tuple = conjunction, relation = disjunction".

use crate::relation::Relation;
use lyric_oodb::{AttrTarget, Database, Oid, Value};
use std::collections::BTreeMap;

/// A flat image of an object database.
#[derive(Debug, Clone)]
pub struct FlatDb {
    extents: BTreeMap<String, Relation>,
    attributes: BTreeMap<(String, String), Relation>,
}

impl FlatDb {
    /// Translate a database. Every user class contributes an extent
    /// relation and one relation per visible attribute.
    pub fn from_database(db: &Database) -> FlatDb {
        let mut extents = BTreeMap::new();
        let mut attributes = BTreeMap::new();
        let class_names: Vec<String> = db.schema().class_names().map(str::to_string).collect();
        for class in &class_names {
            let members = db.extent(class);
            let mut ext = Relation::new(class.clone(), vec!["obj".into()], vec![]);
            for m in &members {
                ext.push(vec![m.clone()], lyric_constraint::Conjunction::top());
            }
            extents.insert(class.clone(), ext);

            for (attr, decl) in db.schema().attributes_of(class) {
                let rel_name = format!("{class}_{attr}");
                let mut rel = match &decl.target {
                    AttrTarget::Cst { vars } => {
                        Relation::new(rel_name, vec!["obj".into()], vars.clone())
                    }
                    AttrTarget::Class { .. } => {
                        Relation::new(rel_name, vec!["obj".into(), "val".into()], vec![])
                    }
                };
                for m in &members {
                    let Some(value) = db.attr(m, &attr) else {
                        continue;
                    };
                    push_attr(&mut rel, m, value, &decl.target);
                }
                attributes.insert((class.clone(), attr.clone()), rel);
            }
        }
        FlatDb {
            extents,
            attributes,
        }
    }

    /// The extent relation of a class.
    pub fn extent(&self, class: &str) -> Option<&Relation> {
        self.extents.get(class)
    }

    /// The attribute relation `class_attr`.
    pub fn attr(&self, class: &str, attr: &str) -> Option<&Relation> {
        self.attributes.get(&(class.to_string(), attr.to_string()))
    }
}

fn push_attr(rel: &mut Relation, obj: &Oid, value: &Value, target: &AttrTarget) {
    match target {
        AttrTarget::Cst { vars } => {
            for member in value.iter() {
                let Some(cst) = member.as_cst() else { continue };
                // Align the stored object's schema to the declared
                // variable list; one flat tuple per disjunct.
                let aligned = cst.align_to(vars);
                for d in aligned.disjuncts() {
                    rel.push(vec![obj.clone()], d.clone());
                }
            }
        }
        AttrTarget::Class { .. } => {
            for member in value.iter() {
                rel.push(
                    vec![obj.clone(), member.clone()],
                    lyric_constraint::Conjunction::top(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric::paper_example;
    use lyric_constraint::{Atom, LinExpr, Var};

    #[test]
    fn translation_shapes() {
        let db = paper_example::database();
        let flat = FlatDb::from_database(&db);
        // Extents include subclass members.
        assert_eq!(flat.extent("Office_Object").unwrap().len(), 2);
        assert_eq!(flat.extent("Desk").unwrap().len(), 1);
        assert_eq!(flat.extent("Object_In_Room").unwrap().len(), 2);
        // Scalar attribute relation.
        let name = flat.attr("Office_Object", "name").unwrap();
        assert_eq!(name.len(), 2);
        assert_eq!(name.columns(), &["obj".to_string(), "val".to_string()]);
        // CST attribute relation carries the declared variables.
        let extent = flat.attr("Desk", "extent").unwrap();
        assert_eq!(extent.cst_vars(), &[Var::new("w"), Var::new("z")]);
        assert_eq!(extent.len(), 1);
        // Set-valued drawer_center unnests to two tuples.
        let centers = flat.attr("File_Cabinet", "drawer_center").unwrap();
        assert_eq!(centers.len(), 2);
    }

    #[test]
    fn inherited_attributes_visible_on_subclass() {
        let db = paper_example::database();
        let flat = FlatDb::from_database(&db);
        // Desk inherits extent from Office_Object; the Desk_extent relation
        // exists and holds the desk's extent.
        let r = flat.attr("Desk", "extent").unwrap();
        assert_eq!(r.len(), 1);
        let c = &r.tuples()[0].constraint;
        assert!(c.implies_atom(&Atom::le(LinExpr::var(Var::new("w")), LinExpr::from(4))));
    }

    #[test]
    fn flat_query_first_paper_example() {
        // §5 flattening of `SELECT Y FROM Desk X WHERE X.drawer.extent[Y]`:
        // Desk(obj) ⋈ Desk_drawer(obj, val) ⋈ Drawer_extent(obj=val).
        let db = paper_example::database();
        let flat = FlatDb::from_database(&db);
        let plan = flat
            .extent("Desk")
            .unwrap()
            .join(flat.attr("Desk", "drawer").unwrap(), &[("obj", "obj")])
            .rename_col("val", "drawer_obj")
            .join(
                &flat
                    .attr("Drawer", "extent")
                    .unwrap()
                    .rename_col("obj", "drawer_obj"),
                &[("drawer_obj", "drawer_obj")],
            );
        assert_eq!(plan.len(), 1);
        let c = &plan.tuples()[0].constraint;
        // −1 ≤ w ≤ 1 ∧ −1 ≤ z ≤ 1
        assert!(c.implies_atom(&Atom::le(LinExpr::var(Var::new("w")), LinExpr::from(1))));
        assert!(c.implies_atom(&Atom::ge(LinExpr::var(Var::new("z")), LinExpr::from(-1))));
    }
}
