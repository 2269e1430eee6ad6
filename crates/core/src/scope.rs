//! Schema-derived implicit equality constraints (§3.2 / §4.1).
//!
//! LyriC's most distinctive semantic rule: CST attributes are declared with
//! variable lists (`drawer_center : CST(p,q)`), classes export a variable
//! *interface* (`Drawer(x,y)`), and attributes ranging over a class may
//! *rename* that interface (`drawer : (p,q)`). When CST attributes are used
//! together inside one query formula, the equalities implied by these
//! declarations are conjoined automatically — the paper's example derives
//! `p = x1 ∧ q = y1` from `DSK.drawer_center[DC]` and
//! `DSK.drawer.translation` renamed to `(w1,z1,x1,y1,u1,v1)`.
//!
//! The implementation models a **scope** per *access path* to an object
//! (the chain of oids from the path root): each CST attribute's declared
//! variables live in its owner's scope, and an interface renaming links
//! `(owner, actualᵢ)` to `(part, interfaceᵢ)`. Keying scopes by access
//! chain rather than bare object identity matters when one catalog object
//! is shared by several in-room objects: each usage has its own coordinate
//! variables, so the two rooms' desks must *not* have their local frames
//! unified merely because they share `standard_desk`. A query formula attaches *query variables* to
//! scope nodes positionally (via the `O(x₁,…,xₙ)` lists, or the schema
//! names when the list is omitted). A union–find over the links then emits
//! one equality atom per pair of distinct query variables that land in the
//! same node class.
//!
//! Which references share a scope depends on the binding, not only on the
//! declarations: in a self-join `FROM Object_In_Room X, Object_In_Room Y`
//! the references reached through `X` and through `Y` alias exactly on the
//! bindings with X = Y. The equalities are therefore derived per binding;
//! each distinct access chain is interned to an index first, so the
//! union–find runs over small integers.

use lyric_constraint::{Atom, LinExpr, Var};
use lyric_oodb::Oid;

/// A scope: the access chain of oids leading to an object.
pub(crate) type ScopeKey = Vec<Oid>;

/// An interface-renaming fact discovered while walking a path:
/// `(parent scope, pairs.i.0) ≡ (child scope, pairs.i.1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScopeLink {
    pub parent: ScopeKey,
    pub child: ScopeKey,
    pub pairs: Vec<(Var, Var)>,
}

/// A CST-object reference of a formula, resolved against a binding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedPred<'a> {
    /// Positional query-variable names.
    pub query_vars: &'a [Var],
    /// The owning scope (access chain) of the declared variables.
    pub owner: &'a [Oid],
    /// The attribute's declared variable list (schema names).
    pub declared: &'a [Var],
}

/// Union–find over `(scope, declared variable)` nodes, each access chain
/// interned to an index on first sight.
#[derive(Default)]
struct UnionFind<'a> {
    scopes: Vec<&'a [Oid]>,
    nodes: Vec<(usize, &'a Var)>,
    parent: Vec<usize>,
}

impl<'a> UnionFind<'a> {
    fn scope(&mut self, chain: &'a [Oid]) -> usize {
        match self.scopes.iter().position(|s| *s == chain) {
            Some(i) => i,
            None => {
                self.scopes.push(chain);
                self.scopes.len() - 1
            }
        }
    }

    fn node(&mut self, chain: &'a [Oid], var: &'a Var) -> usize {
        let scope = self.scope(chain);
        match self.nodes.iter().position(|&(s, v)| s == scope && v == var) {
            Some(i) => i,
            None => {
                self.nodes.push((scope, var));
                self.parent.push(self.parent.len());
                self.nodes.len() - 1
            }
        }
    }

    fn find(&mut self, n: usize) -> usize {
        let p = self.parent[n];
        if p == n {
            return n;
        }
        let root = self.find(p);
        self.parent[n] = root;
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Derive the implicit equality atoms for one formula: `preds` are its
/// resolved CST references, `links` every renaming fact in scope (gathered
/// from all path walks of the query so far). Classes are emitted in the
/// order of their root node's `(access chain, variable)`, each as equalities
/// of its first attached query variable with every later one.
pub(crate) fn implicit_equalities(preds: &[ResolvedPred<'_>], links: &[ScopeLink]) -> Vec<Atom> {
    let mut uf = UnionFind::default();
    for link in links {
        for (pv, cv) in &link.pairs {
            let a = uf.node(&link.parent, pv);
            let b = uf.node(&link.child, cv);
            uf.union(a, b);
        }
    }
    // Attach query variables to node classes.
    let mut attached: Vec<(usize, Vec<&Var>)> = Vec::new();
    for p in preds {
        debug_assert_eq!(p.query_vars.len(), p.declared.len());
        for (decl, qv) in p.declared.iter().zip(p.query_vars) {
            let n = uf.node(p.owner, decl);
            let root = uf.find(n);
            match attached.iter_mut().find(|(r, _)| *r == root) {
                Some((_, qvars)) => {
                    if !qvars.contains(&qv) {
                        qvars.push(qv);
                    }
                }
                None => attached.push((root, vec![qv])),
            }
        }
    }
    attached.sort_by(|(a, _), (b, _)| {
        let ((sa, va), (sb, vb)) = (uf.nodes[*a], uf.nodes[*b]);
        uf.scopes[sa].cmp(uf.scopes[sb]).then_with(|| va.cmp(vb))
    });
    let mut out = Vec::new();
    for (_, qvars) in attached {
        for other in &qvars[1..] {
            out.push(Atom::eq(
                LinExpr::var(qvars[0].clone()),
                LinExpr::var((*other).clone()),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric_constraint::Conjunction;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// An owned reference: `(owner, declared, query vars)`.
    type Owned = (Vec<Oid>, Vec<Var>, Vec<Var>);

    fn pred(owner: &[Oid], declared: &[&str], query: &[&str]) -> Owned {
        (
            owner.to_vec(),
            declared.iter().map(|s| v(s)).collect(),
            query.iter().map(|s| v(s)).collect(),
        )
    }

    fn equalities(preds: &[Owned], links: &[ScopeLink]) -> Vec<Atom> {
        let refs: Vec<ResolvedPred> = preds
            .iter()
            .map(|(owner, declared, query_vars)| ResolvedPred {
                query_vars,
                owner,
                declared,
            })
            .collect();
        implicit_equalities(&refs, links)
    }

    #[test]
    fn paper_desk_drawer_equalities() {
        // DSK.drawer_center declared CST(p,q), queried as DC(p,q);
        // drawer : (p,q) renames Drawer(x,y);
        // drawer.translation declared CST(w,z,x,y,u,v), queried with
        // (w1,z1,x1,y1,u1,v1). Expect p = x1 and q = y1.
        let dsk = vec![Oid::named("dsk")];
        let drw = vec![Oid::named("dsk"), Oid::named("drw")];
        let preds = vec![
            pred(&dsk, &["p", "q"], &["p", "q"]),
            pred(
                &drw,
                &["w", "z", "x", "y", "u", "v"],
                &["w1", "z1", "x1", "y1", "u1", "v1"],
            ),
        ];
        let links = vec![ScopeLink {
            parent: dsk.clone(),
            child: drw.clone(),
            pairs: vec![(v("p"), v("x")), (v("q"), v("y"))],
        }];
        let eqs = equalities(&preds, &links);
        let got = Conjunction::of(eqs);
        let want = Conjunction::of([
            Atom::eq(LinExpr::var(v("p")), LinExpr::var(v("x1"))),
            Atom::eq(LinExpr::var(v("q")), LinExpr::var(v("y1"))),
        ]);
        assert_eq!(got, want);
    }

    #[test]
    fn same_attribute_two_query_names() {
        // The same attribute referenced twice with different query variables
        // forces those variables equal.
        let o = vec![Oid::named("o")];
        let preds = vec![pred(&o, &["w"], &["a"]), pred(&o, &["w"], &["b"])];
        let eqs = equalities(&preds, &[]);
        assert_eq!(
            eqs,
            vec![Atom::eq(LinExpr::var(v("a")), LinExpr::var(v("b")))]
        );
    }

    #[test]
    fn distinct_objects_do_not_unify() {
        // Two different desks' (p,q): no equality even with equal names in
        // the schema (each instance has its own scope).
        let d1 = vec![Oid::named("d1")];
        let d2 = vec![Oid::named("d2")];
        let preds = vec![pred(&d1, &["p"], &["a"]), pred(&d2, &["p"], &["b"])];
        assert!(equalities(&preds, &[]).is_empty());
    }

    #[test]
    fn transitive_links() {
        // room → desk → drawer chain of renamings: query vars at both ends
        // must be equated.
        let room = vec![Oid::named("room")];
        let desk = vec![Oid::named("room"), Oid::named("desk")];
        let drawer = vec![Oid::named("room"), Oid::named("desk"), Oid::named("drawer")];
        let links = vec![
            ScopeLink {
                parent: room.clone(),
                child: desk.clone(),
                pairs: vec![(v("a"), v("b"))],
            },
            ScopeLink {
                parent: desk.clone(),
                child: drawer.clone(),
                pairs: vec![(v("b"), v("c"))],
            },
        ];
        let preds = vec![pred(&room, &["a"], &["qa"]), pred(&drawer, &["c"], &["qc"])];
        let eqs = equalities(&preds, &links);
        assert_eq!(eqs.len(), 1);
        assert_eq!(
            eqs[0],
            Atom::eq(LinExpr::var(v("qa")), LinExpr::var(v("qc")))
        );
    }

    #[test]
    fn same_query_var_attached_twice_emits_nothing() {
        let o = vec![Oid::named("o")];
        let preds = vec![pred(&o, &["w"], &["a"]), pred(&o, &["w"], &["a"])];
        assert!(equalities(&preds, &[]).is_empty());
    }
}
