//! Linear arithmetic decision procedure.
//!
//! Simplify contains a Simplex-based decision procedure for linear rational
//! arithmetic; this crate uses the older but equally decisive
//! **Fourier–Motzkin elimination**, which is comfortably fast for the small
//! constraint systems that qualifier proof obligations generate (a handful
//! of atoms each, and a few constraints per leaf check).
//!
//! The procedure works over *atoms*: opaque identifiers standing for ground
//! terms whose top symbol is not interpreted (the solver assigns them after
//! canonicalizing terms by congruence-closure representative). All atoms
//! are integer-valued in the paper's logical memory model, so strict
//! inequalities are tightened (`e < 0` becomes `e ≤ -1` after clearing
//! denominators), giving the prover useful integer reasoning on top of the
//! rational core.
//!
//! # Representation
//!
//! A [`LinExpr`] keeps its coefficients in one vector sorted by atom, with
//! no atom twice and no zero coefficient, so every linear expression has
//! exactly one representation, and callers add into an expression in
//! place ([`LinExpr::add_scaled`]) instead of building one per operand. The
//! elimination consumes the constraints it is given: each Gaussian pivot
//! and each Fourier–Motzkin bound rewrites its own constraint's vector.
//! The choices the elimination makes follow the atom order — the pivot of
//! an equality is its smallest atom, the eliminated variable is the
//! smallest atom of the first remaining inequality — so answers and
//! elimination counts do not depend on how an expression was built.

use crate::rat::Rat;
use std::fmt;

/// An opaque arithmetic variable standing for a ground term.
pub type AtomId = u32;

/// A linear expression `konst + Σ coeff·atom`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinExpr {
    /// Coefficients sorted by atom, each atom at most once; zero
    /// coefficients are never stored.
    terms: Vec<(AtomId, Rat)>,
    /// The constant offset.
    pub konst: Rat,
}

impl LinExpr {
    /// The constant expression `v`.
    pub fn constant(v: Rat) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            konst: v,
        }
    }

    /// The expression consisting of a single atom with coefficient one.
    pub fn atom(a: AtomId) -> LinExpr {
        LinExpr {
            terms: vec![(a, Rat::ONE)],
            konst: Rat::ZERO,
        }
    }

    /// The atoms the expression mentions, in ascending order.
    pub fn atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.terms.iter().map(|&(a, _)| a)
    }

    /// Whether the expression mentions `a`.
    pub fn mentions(&self, a: AtomId) -> bool {
        self.position(a).is_ok()
    }

    fn position(&self, a: AtomId) -> Result<usize, usize> {
        self.terms.binary_search_by_key(&a, |&(b, _)| b)
    }

    /// Removes `a` from the expression, returning its coefficient.
    fn take(&mut self, a: AtomId) -> Option<Rat> {
        let i = self.position(a).ok()?;
        Some(self.terms.remove(i).1)
    }

    /// Adds `coeff·atom` into the expression.
    pub fn add_term(&mut self, a: AtomId, coeff: Rat) {
        if coeff.is_zero() {
            return;
        }
        match self.position(a) {
            Ok(i) => {
                let sum = self.terms[i].1 + coeff;
                if sum.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) => self.terms.insert(i, (a, coeff)),
        }
    }

    /// Adds `k·other` into the expression in place.
    pub fn add_scaled(&mut self, other: &LinExpr, k: Rat) {
        if k.is_zero() {
            return;
        }
        self.konst = self.konst + other.konst * k;
        for &(a, c) in &other.terms {
            self.add_term(a, c * k);
        }
    }

    /// Multiplies every coefficient and the constant by `k` in place.
    fn scale_in_place(&mut self, k: Rat) {
        if k.is_zero() {
            self.terms.clear();
            self.konst = Rat::ZERO;
            return;
        }
        for (_, c) in &mut self.terms {
            *c = *c * k;
        }
        self.konst = self.konst * k;
    }

    /// Pointwise sum.
    #[must_use]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, Rat::ONE);
        out
    }

    /// Pointwise difference.
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, -Rat::ONE);
        out
    }

    /// Multiplies every coefficient and the constant by `k`.
    #[must_use]
    pub fn scale(&self, k: Rat) -> LinExpr {
        let mut out = self.clone();
        out.scale_in_place(k);
        out
    }

    /// True if the expression mentions no atoms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the expression mentions no atoms, its value.
    pub fn as_constant(&self) -> Option<Rat> {
        self.is_constant().then_some(self.konst)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.konst)?;
        for (a, c) in &self.terms {
            write!(f, " + {c}·a{a}")?;
        }
        Ok(())
    }
}

/// Relation of a constraint `expr REL 0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr ≤ 0`.
    Le,
    /// `expr < 0`.
    Lt,
    /// `expr = 0`.
    Eq,
}

impl Rel {
    /// Whether the constant `v` satisfies `v REL 0`.
    pub fn holds(self, v: Rat) -> bool {
        match self {
            Rel::Le => v <= Rat::ZERO,
            Rel::Lt => v < Rat::ZERO,
            Rel::Eq => v.is_zero(),
        }
    }
}

/// A single linear constraint `expr REL 0`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Relation to zero.
    pub rel: Rel,
}

impl Constraint {
    /// `expr ≤ 0`.
    pub fn le0(expr: LinExpr) -> Constraint {
        Constraint { expr, rel: Rel::Le }
    }

    /// `expr < 0`.
    pub fn lt0(expr: LinExpr) -> Constraint {
        Constraint { expr, rel: Rel::Lt }
    }

    /// `expr = 0`.
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint { expr, rel: Rel::Eq }
    }
}

/// Tightens a strict constraint over integer-valued atoms in place:
/// after scaling to integer coefficients, `e < 0` is equivalent to
/// `e + 1 ≤ 0`.
fn tighten(c: &mut Constraint) {
    if c.rel != Rel::Lt {
        return;
    }
    // Scale so every coefficient and the constant are integers.
    let dens = c.expr.terms.iter().map(|&(_, r)| r.denom());
    let lcm = dens
        .chain([c.expr.konst.denom()])
        .fold(1, |lcm: i128, d| lcm / gcd(lcm, d) * d);
    c.expr.scale_in_place(Rat::int(lcm));
    c.expr.konst = c.expr.konst + Rat::ONE;
    c.rel = Rel::Le;
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

/// Decides whether a conjunction of linear constraints over integer-valued
/// atoms has a rational solution (after integer tightening of strict
/// inequalities).
///
/// Returns `true` if the system is feasible.
///
/// # Examples
///
/// ```
/// use stq_logic::arith::{Constraint, LinExpr, feasible};
/// use stq_logic::rat::Rat;
///
/// // x > 0 && x < 1 has no integer solution: infeasible after tightening.
/// let x = LinExpr::atom(0);
/// let gt0 = Constraint::lt0(x.scale(-Rat::ONE)); // -x < 0
/// let lt1 = Constraint::lt0(x.add(&LinExpr::constant(-Rat::ONE))); // x - 1 < 0
/// assert!(!feasible(&[gt0, lt1]));
/// ```
pub fn feasible(constraints: &[Constraint]) -> bool {
    feasible_counted(constraints).0
}

/// [`feasible`], additionally reporting how many variables were
/// eliminated (Gaussian pivots on equalities plus Fourier–Motzkin
/// eliminations) — the prover's `fm_eliminations` telemetry counter.
pub fn feasible_counted(constraints: &[Constraint]) -> (bool, u64) {
    eliminate(constraints.iter().cloned())
}

/// Decides the feasibility of the constraints it is given, consuming
/// them, and counts the variables it eliminates.
fn eliminate(constraints: impl Iterator<Item = Constraint>) -> (bool, u64) {
    let mut eliminations: u64 = 0;
    let mut ineqs: Vec<Constraint> = Vec::new();
    let mut eqs: Vec<LinExpr> = Vec::new();
    for mut c in constraints {
        tighten(&mut c);
        match c.rel {
            Rel::Eq => eqs.push(c.expr),
            _ => ineqs.push(c),
        }
    }

    // Gaussian elimination on equalities: solve each for its smallest
    // atom and substitute everywhere.
    while let Some(mut eq) = eqs.pop() {
        let Some(&(pivot, coeff)) = eq.terms.first() else {
            if !eq.konst.is_zero() {
                return (false, eliminations);
            }
            continue;
        };
        eliminations += 1;
        // pivot = -(eq - coeff*pivot) / coeff
        eq.terms.remove(0);
        eq.scale_in_place(-Rat::ONE / coeff);
        let replacement = eq;
        let exprs = eqs.iter_mut().chain(ineqs.iter_mut().map(|c| &mut c.expr));
        for e in exprs {
            if let Some(k) = e.take(pivot) {
                e.add_scaled(&replacement, k);
            }
        }
    }

    // Fourier–Motzkin elimination on the remaining inequalities.
    let mut lowers: Vec<Constraint> = Vec::new(); // var ≥/> bound
    let mut uppers: Vec<Constraint> = Vec::new(); // var ≤/< bound
    let mut others: Vec<Constraint> = Vec::new();
    loop {
        // Trivial constant constraints.
        let violated = ineqs
            .iter()
            .any(|c| c.expr.as_constant().is_some_and(|v| !c.rel.holds(v)));
        if violated {
            return (false, eliminations);
        }
        ineqs.retain(|c| !c.expr.is_constant());
        let Some(var) = ineqs.first().map(|c| c.expr.terms[0].0) else {
            return (true, eliminations);
        };
        eliminations += 1;

        // Partition by the sign of var's coefficient. Each bound rewrites
        // its own constraint: c.expr = coeff*var + rest REL 0  ⇒
        //   coeff > 0: var ≤(REL) -rest/coeff  (upper bound)
        //   coeff < 0: var ≥(REL) -rest/coeff  (lower bound)
        for mut c in ineqs.drain(..) {
            match c.expr.take(var) {
                None => others.push(c),
                Some(coeff) => {
                    c.expr.scale_in_place(-Rat::ONE / coeff);
                    if coeff.is_positive() {
                        uppers.push(c);
                    } else {
                        lowers.push(c);
                    }
                }
            }
        }

        // Combine every lower with every upper: lower ≤/< var ≤/< upper
        // implies lower REL upper, strict iff either side is strict.
        for lo in &lowers {
            for hi in &uppers {
                let mut expr = lo.expr.clone(); // lo - hi REL 0
                expr.add_scaled(&hi.expr, -Rat::ONE);
                let strict = lo.rel == Rel::Lt || hi.rel == Rel::Lt;
                others.push(Constraint {
                    expr,
                    rel: if strict { Rel::Lt } else { Rel::Le },
                });
            }
        }
        lowers.clear();
        uppers.clear();
        std::mem::swap(&mut ineqs, &mut others);
    }
}

/// Decides whether the constraint system *entails* `expr = 0`, by checking
/// that both `expr < 0` and `expr > 0` are infeasible together with the
/// system. Used for exact integer-disequality reasoning: a disequality
/// `a ≠ b` conflicts exactly when `a = b` is entailed.
pub fn entails_eq0(constraints: &[Constraint], expr: &LinExpr) -> bool {
    entails_eq0_counted(constraints, expr).0
}

/// [`entails_eq0`], additionally reporting the variable eliminations the
/// two underlying feasibility checks performed.
pub fn entails_eq0_counted(constraints: &[Constraint], expr: &LinExpr) -> (bool, u64) {
    let with = |extra: LinExpr| constraints.iter().cloned().chain([Constraint::lt0(extra)]);
    let (lt_feasible, lt_elims) = eliminate(with(expr.clone()));
    // Short-circuit like `&&`: the second system is only solved when the
    // first was infeasible, so the count matches the work actually done.
    if lt_feasible {
        return (false, lt_elims);
    }
    let (gt_feasible, gt_elims) = eliminate(with(expr.scale(-Rat::ONE)));
    (!gt_feasible, lt_elims + gt_elims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::atom(0)
    }
    fn y() -> LinExpr {
        LinExpr::atom(1)
    }
    fn k(v: i128) -> LinExpr {
        LinExpr::constant(Rat::int(v))
    }

    #[test]
    fn empty_system_feasible() {
        assert!(feasible(&[]));
    }

    #[test]
    fn constant_contradiction() {
        // 1 ≤ 0 is infeasible.
        assert!(!feasible(&[Constraint::le0(k(1))]));
        assert!(feasible(&[Constraint::le0(k(0))]));
        assert!(!feasible(&[Constraint::lt0(k(0))]));
    }

    #[test]
    fn bounds_conflict() {
        // x ≥ 5 (5 - x ≤ 0) and x ≤ 3 (x - 3 ≤ 0): infeasible.
        let ge5 = Constraint::le0(k(5).sub(&x()));
        let le3 = Constraint::le0(x().sub(&k(3)));
        assert!(!feasible(&[ge5.clone(), le3]));
        // x ≥ 5 alone is fine.
        assert!(feasible(&[ge5]));
    }

    #[test]
    fn strict_cycle_is_infeasible() {
        // x < y and y < x.
        let a = Constraint::lt0(x().sub(&y()));
        let b = Constraint::lt0(y().sub(&x()));
        assert!(!feasible(&[a, b]));
    }

    #[test]
    fn non_strict_cycle_is_feasible() {
        // x ≤ y and y ≤ x: satisfied by x = y.
        let a = Constraint::le0(x().sub(&y()));
        let b = Constraint::le0(y().sub(&x()));
        assert!(feasible(&[a, b]));
    }

    #[test]
    fn equalities_substitute() {
        // x = y, x ≤ 2, y ≥ 5: infeasible.
        let eq = Constraint::eq0(x().sub(&y()));
        let le2 = Constraint::le0(x().sub(&k(2)));
        let ge5 = Constraint::le0(k(5).sub(&y()));
        assert!(!feasible(&[eq.clone(), le2.clone(), ge5]));
        // x = y, x ≤ 2, y ≤ 5: feasible.
        let le5 = Constraint::le0(y().sub(&k(5)));
        assert!(feasible(&[eq, le2, le5]));
    }

    #[test]
    fn inconsistent_constant_equality() {
        assert!(!feasible(&[Constraint::eq0(k(3))]));
        assert!(feasible(&[Constraint::eq0(k(0))]));
    }

    #[test]
    fn integer_tightening_closes_open_interval() {
        // 0 < x < 1 has rational solutions but no integer ones.
        let gt0 = Constraint::lt0(x().scale(-Rat::ONE));
        let lt1 = Constraint::lt0(x().sub(&k(1)));
        assert!(!feasible(&[gt0, lt1]));
    }

    #[test]
    fn integer_tightening_respects_wider_interval() {
        // 0 < x < 2 has the integer solution x = 1.
        let gt0 = Constraint::lt0(x().scale(-Rat::ONE));
        let lt2 = Constraint::lt0(x().sub(&k(2)));
        assert!(feasible(&[gt0, lt2]));
    }

    #[test]
    fn chained_elimination() {
        // x ≤ y, y ≤ z, z ≤ x - 1: infeasible.
        let z = LinExpr::atom(2);
        let c1 = Constraint::le0(x().sub(&y()));
        let c2 = Constraint::le0(y().sub(&z));
        let c3 = Constraint::le0(z.sub(&x()).add(&k(1)));
        assert!(!feasible(&[c1, c2, c3]));
    }

    #[test]
    fn positive_product_shape() {
        // The pos obligation after lemma instantiation: p > 0 as an atom
        // (the product), together with p ≤ 0 from the negated goal.
        let p = LinExpr::atom(7);
        let lemma = Constraint::lt0(p.scale(-Rat::ONE)); // p > 0
        let negated_goal = Constraint::le0(p.clone()); // p ≤ 0
        assert!(!feasible(&[lemma, negated_goal]));
    }

    #[test]
    fn entailment_of_equality() {
        // x ≤ 0 and x ≥ 0 entail x = 0.
        let le = Constraint::le0(x());
        let ge = Constraint::le0(x().scale(-Rat::ONE));
        assert!(entails_eq0(&[le.clone(), ge], &x()));
        assert!(!entails_eq0(&[le], &x()));
    }

    #[test]
    fn linexpr_algebra() {
        let e = x().scale(Rat::int(2)).add(&k(3));
        assert_eq!(e.terms, [(0, Rat::int(2))]);
        assert!(e.mentions(0) && !e.mentions(1));
        assert_eq!(e.konst, Rat::int(3));
        let z = e.sub(&e);
        assert!(z.is_constant());
        assert_eq!(z.as_constant(), Some(Rat::ZERO));
    }

    #[test]
    fn add_term_cancels_to_zero() {
        let mut e = x();
        e.add_term(0, -Rat::ONE);
        assert!(e.is_constant());
    }

    #[test]
    fn feasible_counted_reports_eliminations() {
        // x ≤ y, y ≤ z, z ≤ x - 1 forces FM to eliminate variables
        // before finding the contradiction.
        let z = LinExpr::atom(2);
        let c1 = Constraint::le0(x().sub(&y()));
        let c2 = Constraint::le0(y().sub(&z));
        let c3 = Constraint::le0(z.sub(&x()).add(&k(1)));
        let (ok, elims) = feasible_counted(&[c1, c2, c3]);
        assert!(!ok);
        assert!(elims >= 1, "at least one variable must be eliminated");
        // A constraint-free system does no elimination work.
        assert_eq!(feasible_counted(&[]), (true, 0));
    }

    #[test]
    fn entails_eq0_counted_agrees_with_uncounted() {
        let le = Constraint::le0(x());
        let ge = Constraint::le0(x().scale(-Rat::ONE));
        let (entailed, elims) = entails_eq0_counted(&[le.clone(), ge], &x());
        assert!(entailed);
        assert!(elims >= 2, "both directions must be checked");
        let (not_entailed, _) = entails_eq0_counted(&[le], &x());
        assert!(!not_entailed);
    }
}
