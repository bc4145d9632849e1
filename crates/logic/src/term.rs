//! Multi-sorted first-order terms and formulas.
//!
//! The vocabulary mirrors the paper's §4 axiomatization: uninterpreted
//! function symbols such as `evalExpr`, `getStore`, `select`, `location`
//! are ordinary [`Term::App`] applications, while the interpreted symbols
//! `+`, `-`, `*`, and `neg` are recognized by the arithmetic solver.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use stq_util::Symbol;

/// The sort (logical type) of a term.
///
/// Following the paper we use a logical model of memory in which addresses
/// and C values are integers (`NULL` is the integer 0), so arithmetic is
/// available over all value-sorted terms. The remaining sorts keep the
/// structural vocabulary (states, stores, program syntax) apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Booleans; only predicates have this sort.
    Bool,
    /// Integers — also used for C values and memory addresses.
    Int,
    /// Any other uninterpreted sort, e.g. `State`, `Store`, `Expr`.
    Other(Symbol),
}

impl Sort {
    /// Convenience constructor for an uninterpreted sort.
    pub fn other(name: &str) -> Sort {
        Sort::Other(Symbol::intern(name))
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => f.write_str("Bool"),
            Sort::Int => f.write_str("Int"),
            Sort::Other(s) => write!(f, "{s}"),
        }
    }
}

/// `Bool < Int < Other`, uninterpreted sorts by name.
impl Ord for Sort {
    fn cmp(&self, other: &Sort) -> Ordering {
        match (self, other) {
            (Sort::Other(a), Sort::Other(b)) => a.as_str().cmp(b.as_str()),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Sort {
    fn partial_cmp(&self, other: &Sort) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Sort {
    fn rank(self) -> u8 {
        match self {
            Sort::Bool => 0,
            Sort::Int => 1,
            Sort::Other(_) => 2,
        }
    }
}

/// A first-order term.
///
/// Terms order by content (see the [`Ord`] impl), never by interner id.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A (possibly quantified) variable with its sort.
    Var(Symbol, Sort),
    /// An integer literal.
    Int(i64),
    /// Application of a function symbol. Nullary applications are
    /// uninterpreted constants.
    App(Symbol, Vec<Term>),
}

impl Term {
    /// A variable.
    pub fn var(name: &str, sort: Sort) -> Term {
        Term::Var(Symbol::intern(name), sort)
    }

    /// An uninterpreted constant (nullary application).
    pub fn cnst(name: &str) -> Term {
        Term::App(Symbol::intern(name), Vec::new())
    }

    /// An application `f(args…)`.
    pub fn app(f: &str, args: Vec<Term>) -> Term {
        Term::App(Symbol::intern(f), args)
    }

    /// An integer literal.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Term) -> Term {
        Term::app("+", vec![self.clone(), other.clone()])
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Term) -> Term {
        Term::app("-", vec![self.clone(), other.clone()])
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Term) -> Term {
        Term::app("*", vec![self.clone(), other.clone()])
    }

    /// Unary negation `-self`.
    #[must_use]
    pub fn neg(&self) -> Term {
        Term::app("neg", vec![self.clone()])
    }

    /// The formula `self > 0`.
    pub fn gt0(&self) -> Formula {
        Formula::Lt(Term::int(0), self.clone())
    }

    /// The formula `self < 0`.
    pub fn lt0(&self) -> Formula {
        Formula::Lt(self.clone(), Term::int(0))
    }

    /// The formula `self = other`.
    pub fn eq(&self, other: &Term) -> Formula {
        Formula::Eq(self.clone(), other.clone())
    }

    /// The formula `self ≠ other`.
    pub fn ne(&self, other: &Term) -> Formula {
        Formula::Eq(self.clone(), other.clone()).negate()
    }

    /// The formula `self < other`.
    pub fn lt(&self, other: &Term) -> Formula {
        Formula::Lt(self.clone(), other.clone())
    }

    /// The formula `self ≤ other`.
    pub fn le(&self, other: &Term) -> Formula {
        Formula::Le(self.clone(), other.clone())
    }

    /// Capture-avoiding simultaneous substitution of variables by terms.
    ///
    /// Substitution only ever happens with *ground* replacement terms in
    /// this prover (quantifier instantiation and skolemization), so no
    /// renaming is required.
    #[must_use]
    pub fn subst<T: Borrow<Term>>(&self, map: &[(Symbol, T)]) -> Term {
        match self {
            Term::Var(x, _) => map
                .iter()
                .find(|(y, _)| y == x)
                .map_or_else(|| self.clone(), |(_, t)| t.borrow().clone()),
            Term::Int(_) => self.clone(),
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| a.subst(map)).collect()),
        }
    }

    /// Collects the free variables of the term into `out` (terms have no
    /// binders, so all variables are free).
    pub fn free_vars(&self, out: &mut Vec<(Symbol, Sort)>) {
        match self {
            Term::Var(x, s) => {
                if !out.iter().any(|(y, _)| y == x) {
                    out.push((*x, *s));
                }
            }
            Term::Int(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
        }
    }

    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(..) => false,
            Term::Int(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(x, _) => write!(f, "{x}"),
            Term::Int(v) => write!(f, "{v}"),
            Term::App(g, args) if args.is_empty() => write!(f, "{g}"),
            Term::App(g, args) => {
                write!(f, "{g}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Content order: variables, then integers, then applications; symbols
/// compare by their strings, then sorts and arguments in turn. Interner
/// ids depend on which thread of a process first interned a string, so
/// an id order would orient equality atoms (`pre::literal_of`), and
/// with them countermodels, differently under different `--jobs`.
impl Ord for Term {
    fn cmp(&self, other: &Term) -> Ordering {
        match (self, other) {
            (Term::Var(x, s), Term::Var(y, t)) => x.as_str().cmp(y.as_str()).then_with(|| s.cmp(t)),
            (Term::Int(a), Term::Int(b)) => a.cmp(b),
            (Term::App(f, xs), Term::App(g, ys)) => {
                f.as_str().cmp(g.as_str()).then_with(|| xs.cmp(ys))
            }
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Term) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Term {
    fn rank(&self) -> u8 {
        match self {
            Term::Var(..) => 0,
            Term::Int(_) => 1,
            Term::App(..) => 2,
        }
    }
}

/// The entries of a substitution whose variable `vars` does not rebind.
fn unshadowed<'m, T: Borrow<Term>>(
    map: &'m [(Symbol, T)],
    vars: &[(Symbol, Sort)],
) -> Vec<(Symbol, &'m Term)> {
    map.iter()
        .filter(|(x, _)| !vars.iter().any(|(v, _)| v == x))
        .map(|(x, t)| (*x, t.borrow()))
        .collect()
}

/// A trigger for E-matching: a multi-pattern, i.e. a set of terms that must
/// all match (sharing variable bindings) for the axiom to be instantiated.
pub type Trigger = Vec<Term>;

/// A first-order formula in the prover's input language.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Predicate application `p(args…)`.
    Pred(Symbol, Vec<Term>),
    /// Equality between terms of the same sort.
    Eq(Term, Term),
    /// `lhs ≤ rhs` over integer-sorted terms.
    Le(Term, Term),
    /// `lhs < rhs` over integer-sorted terms.
    Lt(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Universal quantification with E-matching triggers. An empty trigger
    /// list asks the preprocessor to infer one.
    Forall(Vec<(Symbol, Sort)>, Vec<Trigger>, Box<Formula>),
    /// Existential quantification (skolemized away by preprocessing).
    Exists(Vec<(Symbol, Sort)>, Box<Formula>),
}

impl Formula {
    /// Predicate application.
    pub fn pred(name: &str, args: Vec<Term>) -> Formula {
        Formula::Pred(Symbol::intern(name), args)
    }

    /// N-ary conjunction, flattening nested conjunctions and units.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// N-ary disjunction, flattening nested disjunctions and units.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Logical implication `self ⇒ other`.
    #[must_use]
    pub fn implies(self, other: Formula) -> Formula {
        Formula::or(vec![self.negate(), other])
    }

    /// Logical equivalence `self ⇔ other`.
    #[must_use]
    pub fn iff(self, other: Formula) -> Formula {
        Formula::and(vec![
            self.clone().implies(other.clone()),
            other.implies(self),
        ])
    }

    /// Negation, collapsing double negations.
    #[must_use]
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Universal quantification with explicit triggers.
    pub fn forall(vars: Vec<(Symbol, Sort)>, triggers: Vec<Trigger>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, triggers, Box::new(body))
        }
    }

    /// Existential quantification.
    pub fn exists(vars: Vec<(Symbol, Sort)>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    /// Capture-avoiding substitution of free variables by ground terms.
    /// The map may hold the terms or references to them.
    #[must_use]
    pub fn subst<T: Borrow<Term>>(&self, map: &[(Symbol, T)]) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Pred(p, args) => {
                Formula::Pred(*p, args.iter().map(|a| a.subst(map)).collect())
            }
            Formula::Eq(a, b) => Formula::Eq(a.subst(map), b.subst(map)),
            Formula::Le(a, b) => Formula::Le(a.subst(map), b.subst(map)),
            Formula::Lt(a, b) => Formula::Lt(a.subst(map), b.subst(map)),
            Formula::Not(f) => Formula::Not(Box::new(f.subst(map))),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.subst(map)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.subst(map)).collect()),
            Formula::Forall(vars, trs, body) => {
                let map = unshadowed(map, vars);
                Formula::Forall(
                    vars.clone(),
                    trs.iter()
                        .map(|tr| tr.iter().map(|t| t.subst(&map)).collect())
                        .collect(),
                    Box::new(body.subst(&map)),
                )
            }
            Formula::Exists(vars, body) => {
                Formula::Exists(vars.clone(), Box::new(body.subst(&unshadowed(map, vars))))
            }
        }
    }

    /// Collects free variables (variables not bound by a quantifier).
    pub fn free_vars(&self, out: &mut Vec<(Symbol, Sort)>) {
        fn go(f: &Formula, bound: &mut Vec<Symbol>, out: &mut Vec<(Symbol, Sort)>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Pred(_, args) => {
                    for a in args {
                        collect_term(a, bound, out);
                    }
                }
                Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) => {
                    collect_term(a, bound, out);
                    collect_term(b, bound, out);
                }
                Formula::Not(g) => go(g, bound, out),
                Formula::And(gs) | Formula::Or(gs) => {
                    for g in gs {
                        go(g, bound, out);
                    }
                }
                Formula::Forall(vars, _, body) | Formula::Exists(vars, body) => {
                    let n = bound.len();
                    bound.extend(vars.iter().map(|(v, _)| *v));
                    go(body, bound, out);
                    bound.truncate(n);
                }
            }
        }
        fn collect_term(t: &Term, bound: &[Symbol], out: &mut Vec<(Symbol, Sort)>) {
            match t {
                Term::Var(x, s) => {
                    if !bound.contains(x) && !out.iter().any(|(y, _)| y == x) {
                        out.push((*x, *s));
                    }
                }
                Term::Int(_) => {}
                Term::App(_, args) => {
                    for a in args {
                        collect_term(a, bound, out);
                    }
                }
            }
        }
        go(self, &mut Vec::new(), out);
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::Pred(p, args) if args.is_empty() => write!(f, "{p}"),
            Formula::Pred(p, args) => {
                write!(f, "{p}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Formula::Eq(a, b) => write!(f, "({a} = {b})"),
            Formula::Le(a, b) => write!(f, "({a} <= {b})"),
            Formula::Lt(a, b) => write!(f, "({a} < {b})"),
            Formula::Not(g) => write!(f, "!{g}"),
            Formula::And(gs) => {
                f.write_str("(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" && ")?;
                    }
                    write!(f, "{g}")?;
                }
                f.write_str(")")
            }
            Formula::Or(gs) => {
                f.write_str("(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" || ")?;
                    }
                    write!(f, "{g}")?;
                }
                f.write_str(")")
            }
            Formula::Forall(vars, _, body) => {
                f.write_str("(forall ")?;
                for (i, (v, s)) in vars.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{v}:{s}")?;
                }
                write!(f, ". {body})")
            }
            Formula::Exists(vars, body) => {
                f.write_str("(exists ")?;
                for (i, (v, s)) in vars.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{v}:{s}")?;
                }
                write!(f, ". {body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }

    #[test]
    fn substitution_replaces_variables() {
        let t = x().add(&Term::int(1));
        let s = t.subst(&[(Symbol::intern("x"), Term::int(41))]);
        assert_eq!(s, Term::int(41).add(&Term::int(1)));
    }

    #[test]
    fn substitution_leaves_other_vars() {
        let t = Term::var("y", Sort::Int);
        let s = t.subst(&[(Symbol::intern("x"), Term::int(0))]);
        assert_eq!(s, t);
    }

    #[test]
    fn groundness() {
        assert!(Term::int(3).is_ground());
        assert!(Term::cnst("sigma").is_ground());
        assert!(!x().is_ground());
        assert!(!Term::app("f", vec![x()]).is_ground());
    }

    #[test]
    fn and_flattens_and_drops_units() {
        let f = Formula::and(vec![
            Formula::True,
            Formula::and(vec![x().gt0(), Formula::True]),
        ]);
        assert_eq!(f, x().gt0());
    }

    #[test]
    fn or_flattens_and_drops_units() {
        let f = Formula::or(vec![Formula::False, x().gt0(), Formula::False]);
        assert_eq!(f, x().gt0());
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
    }

    #[test]
    fn double_negation_collapses() {
        let f = x().gt0();
        assert_eq!(f.clone().negate().negate(), f);
    }

    #[test]
    fn implication_encodes_as_disjunction() {
        let f = x().gt0().implies(x().lt0());
        match f {
            Formula::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn formula_substitution_respects_binders() {
        let xsym = Symbol::intern("x");
        let inner = Formula::forall(vec![(xsym, Sort::Int)], vec![], x().gt0());
        // x is bound, so substitution must not touch the body.
        let s = inner.subst(&[(xsym, Term::int(5))]);
        match s {
            Formula::Forall(_, _, body) => assert_eq!(*body, x().gt0()),
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn free_vars_excludes_bound() {
        let xsym = Symbol::intern("x");
        let f = Formula::and(vec![
            Formula::forall(vec![(xsym, Sort::Int)], vec![], x().gt0()),
            Term::var("y", Sort::Int).gt0(),
        ]);
        let mut vars = Vec::new();
        f.free_vars(&mut vars);
        assert_eq!(vars, vec![(Symbol::intern("y"), Sort::Int)]);
    }

    #[test]
    fn display_round_trip_smoke() {
        let f = Formula::forall(
            vec![(Symbol::intern("a"), Sort::Int)],
            vec![],
            Term::var("a", Sort::Int)
                .gt0()
                .implies(Formula::pred("p", vec![Term::var("a", Sort::Int)])),
        );
        let shown = f.to_string();
        assert!(shown.contains("forall a:Int"));
        assert!(shown.contains("p(a)"));
    }

    #[test]
    fn forall_with_no_vars_is_body() {
        let body = x().gt0();
        assert_eq!(Formula::forall(vec![], vec![], body.clone()), body);
        assert_eq!(Formula::exists(vec![], body.clone()), body);
    }
}
