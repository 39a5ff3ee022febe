//! Arithmetic in `GF(q)` for `q` prime or a power of two.

use crate::CodingError;
use serde::{Deserialize, Serialize};

/// A finite field `GF(q)`.
///
/// Supported orders are primes `q < 2^16` and powers of two `q = 2^m ≤ 2^16`.
/// Elements are represented as `u32` values in `0..q`; for `GF(2^m)` the
/// value is the usual polynomial-basis bit representation.
///
/// The type is `Copy` so it can be freely embedded in model parameters.
///
/// # Examples
///
/// ```
/// use netcoding::GaloisField;
/// let f = GaloisField::new(7).unwrap();
/// assert_eq!(f.add(5, 4), 2);
/// assert_eq!(f.mul(3, 5), 1);
/// assert_eq!(f.inv(3).unwrap(), 5);
///
/// let g = GaloisField::new(256).unwrap();
/// // In characteristic two addition is XOR.
/// assert_eq!(g.add(0xa5, 0xa5), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GaloisField {
    order: u32,
    kind: FieldKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum FieldKind {
    /// Prime field GF(p): values mod p.
    Prime,
    /// Binary extension field GF(2^m): values are polynomials over GF(2),
    /// reduced modulo the stored irreducible polynomial.
    Binary {
        /// Extension degree m.
        degree: u32,
        /// Irreducible polynomial (with the leading x^m term included).
        modulus: u32,
    },
}

/// Irreducible polynomials over GF(2) for degrees 1..=16 (leading term set).
const IRREDUCIBLE: [u32; 17] = [
    0,       // unused
    0b11,    // x + 1
    0b111,   // x^2 + x + 1
    0b1011,  // x^3 + x + 1
    0b10011, // x^4 + x + 1
    0b100101,
    0b1000011,
    0b10001001,
    0b100011011, // x^8 + x^4 + x^3 + x + 1 (AES polynomial)
    0b1000010001,
    0b10000001001,
    0b100000000101,
    0b1000001010011,
    0b10000000011011,
    0b100010000000011,
    0b1000000000000011,
    0b10001000000001011,
];

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3u32;
    while (d as u64) * (d as u64) <= n as u64 {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

impl GaloisField {
    /// Creates the field of the given order.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::UnsupportedFieldOrder`] unless `order` is a
    /// prime below `2^16` or a power of two between 2 and `2^16`.
    pub fn new(order: u64) -> Result<Self, CodingError> {
        if !(2..=65_536).contains(&order) {
            return Err(CodingError::UnsupportedFieldOrder { order });
        }
        let order_u32 = order as u32;
        if order.is_power_of_two() {
            let degree = order.trailing_zeros();
            Ok(GaloisField {
                order: order_u32,
                kind: FieldKind::Binary {
                    degree,
                    modulus: IRREDUCIBLE[degree as usize],
                },
            })
        } else if is_prime(order_u32) {
            Ok(GaloisField {
                order: order_u32,
                kind: FieldKind::Prime,
            })
        } else {
            Err(CodingError::UnsupportedFieldOrder { order })
        }
    }

    /// The field order `q`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Returns `true` if `x` is a valid element of the field.
    #[must_use]
    pub fn contains(&self, x: u32) -> bool {
        x < self.order
    }

    /// Validates an element.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::ElementOutOfRange`] if `x ≥ q`.
    pub fn check(&self, x: u32) -> Result<u32, CodingError> {
        if self.contains(x) {
            Ok(x)
        } else {
            Err(CodingError::ElementOutOfRange {
                element: u64::from(x),
                order: u64::from(self.order),
            })
        }
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        match self.kind {
            FieldKind::Prime => (a + b) % self.order,
            FieldKind::Binary { .. } => a ^ b,
        }
    }

    /// Field subtraction (`a − b`).
    #[must_use]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        match self.kind {
            FieldKind::Prime => (a + self.order - b) % self.order,
            FieldKind::Binary { .. } => a ^ b,
        }
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self, a: u32) -> u32 {
        self.sub(0, a)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        match self.kind {
            FieldKind::Prime => ((u64::from(a) * u64::from(b)) % u64::from(self.order)) as u32,
            FieldKind::Binary { degree, modulus } => {
                // Carry-less (polynomial) multiplication followed by reduction.
                let mut acc: u64 = 0;
                let mut x = u64::from(a);
                let mut y = b;
                while y != 0 {
                    if y & 1 != 0 {
                        acc ^= x;
                    }
                    x <<= 1;
                    y >>= 1;
                }
                // Reduce modulo the irreducible polynomial.
                if acc == 0 {
                    return 0;
                }
                let m = u64::from(modulus);
                let deg = degree;
                let mut bit = 63 - acc.leading_zeros();
                while acc >= (1u64 << deg) {
                    if acc & (1u64 << bit) != 0 {
                        acc ^= m << (bit - deg);
                    }
                    if bit == 0 {
                        break;
                    }
                    bit -= 1;
                }
                acc as u32
            }
        }
    }

    /// Field exponentiation `a^e`.
    #[must_use]
    pub fn pow(&self, a: u32, mut e: u64) -> u32 {
        let mut base = a;
        let mut result = 1u32;
        while e > 0 {
            if e & 1 == 1 {
                result = self.mul(result, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        result
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::DivisionByZero`] if `a == 0`.
    pub fn inv(&self, a: u32) -> Result<u32, CodingError> {
        if a == 0 {
            return Err(CodingError::DivisionByZero);
        }
        // a^(q-2) = a^{-1} in any finite field of order q.
        Ok(self.pow(a, u64::from(self.order) - 2))
    }

    /// Field division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::DivisionByZero`] if `b == 0`.
    pub fn div(&self, a: u32, b: u32) -> Result<u32, CodingError> {
        Ok(self.mul(a, self.inv(b)?))
    }

    /// Samples a uniformly random field element.
    pub fn random_element<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.gen_range(0..self.order)
    }
}

impl core::fmt::Display for GaloisField {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GF({})", self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rules() {
        assert!(GaloisField::new(2).is_ok());
        assert!(GaloisField::new(7).is_ok());
        assert!(GaloisField::new(256).is_ok());
        assert!(GaloisField::new(65_536).is_ok());
        assert!(GaloisField::new(1).is_err());
        assert!(GaloisField::new(6).is_err()); // not prime, not power of two
        assert!(GaloisField::new(65_537).is_err()); // too large (even though prime)
        assert!(GaloisField::new(100_000).is_err());
    }

    #[test]
    fn prime_field_arithmetic() {
        let f = GaloisField::new(7).unwrap();
        assert_eq!(f.add(5, 4), 2);
        assert_eq!(f.sub(2, 5), 4);
        assert_eq!(f.mul(3, 5), 1);
        assert_eq!(f.neg(3), 4);
        assert_eq!(f.inv(3).unwrap(), 5);
        assert_eq!(f.div(1, 3).unwrap(), 5);
        assert_eq!(f.pow(3, 6), 1); // Fermat
    }

    #[test]
    fn gf2_is_xor_logic() {
        let f = GaloisField::new(2).unwrap();
        assert_eq!(f.add(1, 1), 0);
        assert_eq!(f.mul(1, 1), 1);
        assert_eq!(f.inv(1).unwrap(), 1);
    }

    #[test]
    fn gf256_known_products() {
        // AES field: 0x53 * 0xCA = 0x01 (known inverse pair).
        let f = GaloisField::new(256).unwrap();
        assert_eq!(f.mul(0x53, 0xCA), 0x01);
        assert_eq!(f.inv(0x53).unwrap(), 0xCA);
        assert_eq!(f.mul(2, 0x80), 0x1B); // x * x^7 = x^8 ≡ x^4+x^3+x+1
    }

    #[test]
    fn division_by_zero_is_error() {
        let f = GaloisField::new(16).unwrap();
        assert_eq!(f.inv(0), Err(CodingError::DivisionByZero));
        assert_eq!(f.div(5, 0), Err(CodingError::DivisionByZero));
    }

    #[test]
    fn element_check() {
        let f = GaloisField::new(5).unwrap();
        assert!(f.check(4).is_ok());
        assert!(f.check(5).is_err());
        assert!(f.contains(0));
        assert!(!f.contains(5));
    }

    fn check_field_axioms(q: u64) {
        let f = GaloisField::new(q).unwrap();
        let n = f.order();
        // Exhaustive for small fields.
        for a in 0..n {
            assert_eq!(f.add(a, 0), a);
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.add(a, f.neg(a)), 0);
            if a != 0 {
                assert_eq!(f.mul(a, f.inv(a).unwrap()), 1, "inverse of {a} in GF({q})");
            }
            for b in 0..n {
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
                assert_eq!(f.sub(f.add(a, b), b), a);
                for c in 0..n {
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn field_axioms_small_prime() {
        check_field_axioms(5);
    }

    #[test]
    fn field_axioms_gf8() {
        check_field_axioms(8);
    }

    #[test]
    fn field_axioms_gf16() {
        check_field_axioms(16);
    }

    #[test]
    fn multiplicative_group_order_gf64() {
        let f = GaloisField::new(64).unwrap();
        for a in 1..f.order() {
            assert_eq!(f.pow(a, 63), 1, "a^63 must be 1 for a = {a}");
        }
    }

    #[test]
    fn random_elements_in_range() {
        use rand::SeedableRng;
        let f = GaloisField::new(64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(f.contains(f.random_element(&mut rng)));
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(GaloisField::new(64).unwrap().to_string(), "GF(64)");
    }
}
