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
//!
//! An access chain is a shared parent-pointer list ([`ScopeKey`]): a path
//! step extends its parent's chain by one node, and every binding and
//! renaming fact that reaches the same object shares the nodes. Chains
//! compare by content, because the aliasing above is between chains built
//! through different FROM items.

use lyric_constraint::{Atom, LinExpr, Var};
use lyric_oodb::Oid;
use std::cmp::Ordering;
use std::sync::Arc;

/// A scope: the access chain of oids leading to an object, root first.
///
/// A handle to the chain's last node; [`child`](ScopeKey::child) allocates
/// one node and a clone copies a pointer. Equality is by content, with a
/// pointer-equality fast path, and order is root-first lexicographic with a
/// proper prefix first — both those of the same oids as a `Vec<Oid>` —
/// and neither allocates. Ordering compares the same oid pairs a `Vec`
/// comparison does, with no shortcut, because comparing rational oids
/// counts arithmetic work.
#[derive(Clone)]
pub(crate) struct ScopeKey(Arc<ScopeNode>);

struct ScopeNode {
    oid: Oid,
    parent: Option<ScopeKey>,
    /// The number of oids in the chain ending here.
    len: usize,
}

impl ScopeKey {
    /// The one-oid chain of a path root.
    pub(crate) fn root(oid: Oid) -> ScopeKey {
        ScopeKey(Arc::new(ScopeNode {
            oid,
            parent: None,
            len: 1,
        }))
    }

    /// This chain extended by `oid`.
    pub(crate) fn child(&self, oid: Oid) -> ScopeKey {
        ScopeKey(Arc::new(ScopeNode {
            oid,
            parent: Some(self.clone()),
            len: self.0.len + 1,
        }))
    }

    /// The prefix of the chain holding its first `len` oids (`len` at
    /// most the chain's length).
    fn prefix(&self, len: usize) -> &ScopeKey {
        let mut key = self;
        while key.0.len > len {
            key = key
                .0
                .parent
                .as_ref()
                .expect("a chain of two or more oids has a parent");
        }
        key
    }

    /// Compare two chains of equal length, root first.
    fn cmp_same_len(&self, other: &ScopeKey) -> Ordering {
        let parents = match (&self.0.parent, &other.0.parent) {
            (Some(a), Some(b)) => a.cmp_same_len(b),
            _ => Ordering::Equal,
        };
        parents.then_with(|| self.0.oid.cmp(&other.0.oid))
    }
}

impl PartialEq for ScopeKey {
    fn eq(&self, other: &ScopeKey) -> bool {
        if self.0.len != other.0.len {
            return false;
        }
        let (mut a, mut b) = (self, other);
        loop {
            if Arc::ptr_eq(&a.0, &b.0) {
                return true;
            }
            if a.0.oid != b.0.oid {
                return false;
            }
            match (&a.0.parent, &b.0.parent) {
                (Some(pa), Some(pb)) => (a, b) = (pa, pb),
                _ => return true,
            }
        }
    }
}

impl Eq for ScopeKey {}

impl Ord for ScopeKey {
    fn cmp(&self, other: &ScopeKey) -> Ordering {
        let len = self.0.len.min(other.0.len);
        self.prefix(len)
            .cmp_same_len(other.prefix(len))
            .then(self.0.len.cmp(&other.0.len))
    }
}

impl PartialOrd for ScopeKey {
    fn partial_cmp(&self, other: &ScopeKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An interface-renaming fact discovered while walking a path:
/// `(parent scope, actuals[i]) ≡ (child scope, formals[i])`. The two
/// variable lists are the schema's, borrowed.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ScopeLink<'s> {
    pub parent: ScopeKey,
    pub child: ScopeKey,
    pub actuals: &'s [Var],
    pub formals: &'s [Var],
}

/// A CST-object reference of a formula, resolved against a binding.
#[derive(Clone, Copy)]
pub(crate) struct ResolvedPred<'a> {
    /// Positional query-variable names.
    pub query_vars: &'a [Var],
    /// The owning scope (access chain) of the declared variables.
    pub owner: &'a ScopeKey,
    /// The attribute's declared variable list (schema names).
    pub declared: &'a [Var],
}

/// Union–find over `(scope, declared variable)` nodes, each access chain
/// interned to an index on first sight.
#[derive(Default)]
struct UnionFind<'a> {
    scopes: Vec<&'a ScopeKey>,
    nodes: Vec<(usize, &'a Var)>,
    parent: Vec<usize>,
}

impl<'a> UnionFind<'a> {
    fn scope(&mut self, chain: &'a ScopeKey) -> usize {
        match self.scopes.iter().position(|s| *s == chain) {
            Some(i) => i,
            None => {
                self.scopes.push(chain);
                self.scopes.len() - 1
            }
        }
    }

    fn node(&mut self, chain: &'a ScopeKey, var: &'a Var) -> usize {
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
pub(crate) fn implicit_equalities(
    preds: &[ResolvedPred<'_>],
    links: &[ScopeLink<'_>],
) -> Vec<Atom> {
    let mut uf = UnionFind::default();
    for link in links {
        for (pv, cv) in link.actuals.iter().zip(link.formals) {
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
    use proptest::prelude::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn vars(names: &[&str]) -> Vec<Var> {
        names.iter().map(|s| v(s)).collect()
    }

    /// A chain built node by node from `oids`, root first.
    fn chain(oids: &[Oid]) -> ScopeKey {
        let (root, rest) = oids.split_first().expect("a chain has a root");
        rest.iter().fold(ScopeKey::root(root.clone()), |key, oid| {
            key.child(oid.clone())
        })
    }

    fn named(names: &[&str]) -> ScopeKey {
        chain(&names.iter().map(|n| Oid::named(*n)).collect::<Vec<_>>())
    }

    /// An owned reference: `(owner, declared, query vars)`.
    type Owned = (ScopeKey, Vec<Var>, Vec<Var>);

    fn pred(owner: &ScopeKey, declared: &[&str], query: &[&str]) -> Owned {
        (owner.clone(), vars(declared), vars(query))
    }

    fn equalities(preds: &[Owned], links: &[ScopeLink<'_>]) -> Vec<Atom> {
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
        let dsk = named(&["dsk"]);
        let drw = named(&["dsk", "drw"]);
        let preds = vec![
            pred(&dsk, &["p", "q"], &["p", "q"]),
            pred(
                &drw,
                &["w", "z", "x", "y", "u", "v"],
                &["w1", "z1", "x1", "y1", "u1", "v1"],
            ),
        ];
        let (actuals, formals) = (vars(&["p", "q"]), vars(&["x", "y"]));
        let links = vec![ScopeLink {
            parent: dsk.clone(),
            child: drw.clone(),
            actuals: &actuals,
            formals: &formals,
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
        let o = named(&["o"]);
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
        let d1 = named(&["d1"]);
        let d2 = named(&["d2"]);
        let preds = vec![pred(&d1, &["p"], &["a"]), pred(&d2, &["p"], &["b"])];
        assert!(equalities(&preds, &[]).is_empty());
    }

    #[test]
    fn transitive_links() {
        // room → desk → drawer chain of renamings: query vars at both ends
        // must be equated.
        let room = named(&["room"]);
        let desk = named(&["room", "desk"]);
        let drawer = named(&["room", "desk", "drawer"]);
        let (a, b, c) = (vars(&["a"]), vars(&["b"]), vars(&["c"]));
        let links = vec![
            ScopeLink {
                parent: room.clone(),
                child: desk.clone(),
                actuals: &a,
                formals: &b,
            },
            ScopeLink {
                parent: desk.clone(),
                child: drawer.clone(),
                actuals: &b,
                formals: &c,
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
        let o = named(&["o"]);
        let preds = vec![pred(&o, &["w"], &["a"]), pred(&o, &["w"], &["a"])];
        assert!(equalities(&preds, &[]).is_empty());
    }

    /// Oid chains over a small alphabet of mixed oid kinds, so equal
    /// chains and proper prefixes are common.
    fn oids() -> impl Strategy<Value = Vec<Oid>> {
        proptest::collection::vec(
            (0u8..3, 0i64..3).prop_map(|(kind, i)| match kind {
                0 => Oid::Int(i),
                1 => Oid::named(format!("o{i}")),
                _ => Oid::str(format!("s{i}")),
            }),
            1..5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Chains built independently (never pointer-equal) compare
        /// exactly as the same oids as `Vec`s: by content, root first,
        /// a proper prefix before its extensions.
        #[test]
        fn chains_compare_as_oid_vectors(a in oids(), b in oids()) {
            let (ka, kb) = (chain(&a), chain(&b));
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            prop_assert_eq!(kb.cmp(&ka), b.cmp(&a));
            prop_assert_eq!(ka.partial_cmp(&kb), a.partial_cmp(&b));
        }

        /// A link whose chains are the references' own handles derives the
        /// same atoms as one whose chains are rebuilt equal.
        #[test]
        fn shared_and_rebuilt_link_chains_derive_the_same_atoms(
            owner in oids(),
            part in oids(),
        ) {
            let parent = chain(&owner);
            let child = part.iter().fold(parent.clone(), |key, oid| key.child(oid.clone()));
            let rebuilt_child = chain(&[owner.clone(), part.clone()].concat());
            let (actuals, formals) = (vars(&["p", "q"]), vars(&["x", "y"]));
            let preds = vec![
                pred(&parent, &["p", "q"], &["a", "b"]),
                pred(&child, &["x", "y", "w"], &["c", "d", "e"]),
            ];
            let link = |parent: ScopeKey, child: ScopeKey| ScopeLink {
                parent,
                child,
                actuals: &actuals,
                formals: &formals,
            };
            let shared = equalities(&preds, &[link(parent.clone(), child.clone())]);
            let rebuilt = equalities(&preds, &[link(chain(&owner), rebuilt_child)]);
            prop_assert_eq!(shared.len(), 2);
            prop_assert_eq!(shared, rebuilt);
        }
    }
}
