//! Exact rational arithmetic for the linear-arithmetic decision procedure.
//!
//! Fourier–Motzkin elimination multiplies coefficients together, so the
//! numbers can grow; `i128` components give enormous headroom for the small
//! constraint systems that qualifier proof obligations produce. Nearly
//! every value the prover meets is an integer, so `+`, `*` and the
//! comparison take a shortcut when both denominators are one; every
//! path checks for overflow and panics on it.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number, always kept in lowest terms with a positive
/// denominator.
///
/// # Examples
///
/// ```
/// use stq_logic::rat::Rat;
///
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert!(half > third);
/// assert_eq!(Rat::new(2, 4), half);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or on `i128` overflow during normalization.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = num.checked_neg().expect("rational overflow");
            den = den.checked_neg().expect("rational overflow");
        }
        Rat { num, den }
    }

    /// An integer as a rational.
    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    /// The numerator (sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// True if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// True if the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// True if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// The floor of the rational, as an integer.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The ceiling of the rational, as an integer.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_add(rhs.num)
                .expect("rational overflow in add");
            return Rat { num, den: 1 };
        }
        let num = self
            .num
            .checked_mul(rhs.den)
            .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
            .expect("rational overflow in add");
        let den = self
            .den
            .checked_mul(rhs.den)
            .expect("rational overflow in add");
        Rat::new(num, den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_mul(rhs.num)
                .expect("rational overflow in mul");
            return Rat { num, den: 1 };
        }
        let num = self
            .num
            .checked_mul(rhs.num)
            .expect("rational overflow in mul");
        let den = self
            .den
            .checked_mul(rhs.den)
            .expect("rational overflow in mul");
        Rat::new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    // Division by multiplication with the reciprocal is the intended
    // exact-rational algorithm.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: self.num.checked_neg().expect("rational overflow in neg"),
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational overflow in cmp");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational overflow in cmp");
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(i128::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-3, -6), Rat::new(1, 2));
        assert_eq!(Rat::new(3, -6), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 2) < Rat::new(2, 3));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(5) > Rat::new(9, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(4).floor(), 4);
        assert_eq!(Rat::int(4).ceil(), 4);
    }

    #[test]
    #[should_panic(expected = "rational overflow in add")]
    fn integer_add_overflow_panics() {
        let _ = Rat::int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow in mul")]
    fn integer_mul_overflow_panics() {
        let _ = Rat::int(i128::MAX) * Rat::int(2);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_reciprocal_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn predicates() {
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::ONE.is_positive());
        assert!(Rat::int(3).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 4).to_string(), "3/4");
        assert_eq!(Rat::int(-2).to_string(), "-2");
    }
}
