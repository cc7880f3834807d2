//! Product terms in positional-cube notation.

use std::fmt;

/// A product term over `n` boolean variables.
///
/// Each variable takes one of three states: required `1` (positive literal),
/// required `0` (negative literal), or don't-care (absent from the product).
/// Internally two bits per variable are stored — bit0 "allows 0", bit1
/// "allows 1" — so don't-care is `11`, a positive literal `10`… matching the
/// classic positional-cube notation where intersection is bitwise AND.
///
/// ```
/// use modsyn_logic::Cube;
/// let c = Cube::from_literals(3, &[(0, true), (2, false)]); // a · c'
/// assert_eq!(c.literal(0), Some(true));
/// assert_eq!(c.literal(1), None);
/// assert_eq!(c.literal(2), Some(false));
/// assert_eq!(c.literal_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    num_vars: usize,
    /// Two bits per variable, 32 variables per word.
    words: Vec<u64>,
}

const VARS_PER_WORD: usize = 32;
/// The low bit of every two-bit slot.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

impl Cube {
    /// The universal cube (every variable don't-care) over `num_vars`.
    pub fn full(num_vars: usize) -> Self {
        let words = num_vars.div_ceil(VARS_PER_WORD);
        let mut cube = Cube {
            num_vars,
            words: vec![u64::MAX; words],
        };
        cube.mask_tail();
        cube
    }

    fn mask_tail(&mut self) {
        if let Some(last) = self.words.len().checked_sub(1) {
            let slots = self.slot_mask(last);
            self.words[last] &= slots | slots << 1;
        }
    }

    /// Builds a cube from `(variable, polarity)` literals; unmentioned
    /// variables are don't-care.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn from_literals(num_vars: usize, literals: &[(usize, bool)]) -> Self {
        let mut cube = Cube::full(num_vars);
        for &(v, pol) in literals {
            cube.set_literal(v, Some(pol));
        }
        cube
    }

    /// Builds the minterm cube for a complete assignment.
    pub fn from_minterm(values: &[bool]) -> Self {
        let mut cube = Cube::full(values.len());
        for (v, &val) in values.iter().enumerate() {
            cube.set_literal(v, Some(val));
        }
        cube
    }

    /// Number of variables in the cube's universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    fn slot(&self, var: usize) -> (usize, u32) {
        (var / VARS_PER_WORD, (2 * (var % VARS_PER_WORD)) as u32)
    }

    /// The literal on `var`: `Some(true)` positive, `Some(false)` negative,
    /// `None` don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn literal(&self, var: usize) -> Option<bool> {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = self.slot(var);
        match (self.words[w] >> s) & 0b11 {
            0b11 => None,
            0b10 => Some(true),
            0b01 => Some(false),
            _ => None, // empty slot: only in intersections; treated by is_empty
        }
    }

    /// Sets, changes or clears the literal on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_literal(&mut self, var: usize, literal: Option<bool>) {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = self.slot(var);
        let bits: u64 = match literal {
            None => 0b11,
            Some(true) => 0b10,
            Some(false) => 0b01,
        };
        self.words[w] = (self.words[w] & !(0b11 << s)) | (bits << s);
    }

    /// The even bits of word `i` that belong to a variable of the universe:
    /// the low bit of every slot, tail slots excluded.
    fn slot_mask(&self, i: usize) -> u64 {
        let used = self.num_vars - i * VARS_PER_WORD;
        if used >= VARS_PER_WORD {
            LOW_BITS
        } else {
            LOW_BITS & ((1u64 << (2 * used)) - 1)
        }
    }

    /// One bit per literal in word `w` (the low bit of each `01` or `10`
    /// slot). Don't-care (`11`), empty (`00`) and tail slots give none.
    fn literal_mask(w: u64) -> u64 {
        (w ^ (w >> 1)) & LOW_BITS
    }

    /// Whether some variable has the empty state (the cube denotes no
    /// minterm). Only intersections produce empty cubes.
    pub fn is_empty(&self) -> bool {
        self.words
            .iter()
            .enumerate()
            .any(|(i, &w)| (w | w >> 1) & self.slot_mask(i) != self.slot_mask(i))
    }

    /// Number of literals (non-don't-care variables).
    pub fn literal_count(&self) -> usize {
        self.words
            .iter()
            .map(|&w| Self::literal_mask(w).count_ones() as usize)
            .sum()
    }

    /// Bitwise intersection; empty if the cubes conflict on some variable.
    pub fn intersection(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Cube {
            num_vars: self.num_vars,
            words,
        }
    }

    /// Whether the two cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .all(|(i, (a, b))| {
                let w = a & b;
                (w | w >> 1) & self.slot_mask(i) == self.slot_mask(i)
            })
    }

    /// Whether `self` contains `other` (every minterm of `other` is in
    /// `self`).
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// Number of variables where the cubes have disjoint (conflicting)
    /// literal requirements.
    pub fn distance(&self, other: &Cube) -> usize {
        let inter = self.intersection(other);
        let mut count = 0usize;
        for v in 0..self.num_vars {
            let (w, s) = inter.slot(v);
            if (inter.words[w] >> s) & 0b11 == 0 {
                count += 1;
            }
        }
        count
    }

    /// The smallest cube containing both inputs (bitwise OR).
    pub fn supercube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Cube {
            num_vars: self.num_vars,
            words,
        }
    }

    /// Whether the cube contains the given minterm.
    pub fn covers_minterm(&self, values: &[bool]) -> bool {
        debug_assert_eq!(values.len(), self.num_vars);
        (0..self.num_vars).all(|v| match self.literal(v) {
            None => true,
            Some(pol) => pol == values[v],
        })
    }

    /// Variables carrying a literal, with polarity.
    pub fn literals(&self) -> Vec<(usize, bool)> {
        let mut out = Vec::with_capacity(self.literal_count());
        self.for_each_literal(|v, pol| out.push((v, pol)));
        out
    }

    /// Calls `f(variable, polarity)` for every literal, in variable order.
    pub(crate) fn for_each_literal(&self, mut f: impl FnMut(usize, bool)) {
        for (i, &w) in self.words.iter().enumerate() {
            let mut lits = Self::literal_mask(w);
            while lits != 0 {
                let bit = lits.trailing_zeros();
                // A literal slot is `10` (positive) or `01` (negative).
                f(
                    i * VARS_PER_WORD + bit as usize / 2,
                    (w >> (bit + 1)) & 1 == 1,
                );
                lits &= lits - 1;
            }
        }
    }

    /// Whether the cubes agree on every variable except `var`.
    pub(crate) fn equal_except(&self, other: &Cube, var: usize) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let (word, shift) = self.slot(var);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .all(|(i, (a, b))| {
                let ignored = if i == word { 0b11 << shift } else { 0 };
                (a ^ b) & !ignored == 0
            })
    }

    /// Raises to don't-care every variable on which `other` has a literal.
    pub(crate) fn raise_literals_of(&mut self, other: &Cube) {
        debug_assert_eq!(self.num_vars, other.num_vars);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let lits = Self::literal_mask(b);
            *a |= lits | lits << 1;
        }
    }
}

impl fmt::Display for Cube {
    /// PLA-style string: `1` positive, `0` negative, `-` don't-care.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.num_vars {
            let ch = match self.literal(v) {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cube_has_no_literals() {
        let c = Cube::full(40); // spans two words
        assert_eq!(c.literal_count(), 0);
        assert!(!c.is_empty());
        for v in 0..40 {
            assert_eq!(c.literal(v), None);
        }
    }

    #[test]
    fn set_and_get_literals_across_words() {
        let mut c = Cube::full(70);
        c.set_literal(0, Some(true));
        c.set_literal(33, Some(false));
        c.set_literal(69, Some(true));
        assert_eq!(c.literal(0), Some(true));
        assert_eq!(c.literal(33), Some(false));
        assert_eq!(c.literal(69), Some(true));
        assert_eq!(c.literal_count(), 3);
        c.set_literal(33, None);
        assert_eq!(c.literal_count(), 2);
    }

    #[test]
    fn intersection_conflict_is_empty() {
        let a = Cube::from_literals(2, &[(0, true)]);
        let b = Cube::from_literals(2, &[(0, false)]);
        assert!(a.intersection(&b).is_empty());
        assert!(!a.intersects(&b));
        assert_eq!(a.distance(&b), 1);
    }

    #[test]
    fn containment() {
        let big = Cube::from_literals(3, &[(0, true)]);
        let small = Cube::from_literals(3, &[(0, true), (1, false)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn supercube_unions_spans() {
        let a = Cube::from_literals(2, &[(0, true), (1, true)]);
        let b = Cube::from_literals(2, &[(0, true), (1, false)]);
        let s = a.supercube(&b);
        assert_eq!(s.literal(0), Some(true));
        assert_eq!(s.literal(1), None);
    }

    #[test]
    fn minterm_coverage() {
        let c = Cube::from_literals(3, &[(0, true), (2, false)]);
        assert!(c.covers_minterm(&[true, false, false]));
        assert!(c.covers_minterm(&[true, true, false]));
        assert!(!c.covers_minterm(&[true, true, true]));
        assert!(!c.covers_minterm(&[false, true, false]));
    }

    #[test]
    fn display_pla_style() {
        let c = Cube::from_literals(4, &[(0, true), (3, false)]);
        assert_eq!(c.to_string(), "1--0");
    }

    #[test]
    fn from_minterm_fixes_every_variable() {
        let c = Cube::from_minterm(&[true, false, true]);
        assert_eq!(c.literal_count(), 3);
        assert_eq!(c.to_string(), "101");
    }

    #[test]
    fn equal_except_ignores_only_the_given_variable() {
        for n in [1, 31, 32, 33, 37, 64, 65] {
            for var in [0, n / 2, n - 1] {
                let mut a = Cube::from_literals(n, &[(0, true), (n - 1, false)]);
                let mut b = a.clone();
                b.set_literal(var, Some(a.literal(var) != Some(true)));
                assert!(a.equal_except(&b, var), "n={n} var={var}");
                for other in [0, n / 2, n - 1] {
                    if other != var {
                        a.set_literal(other, Some(b.literal(other) != Some(true)));
                        assert!(!a.equal_except(&b, var), "n={n} var={var} other={other}");
                        a.set_literal(other, b.literal(other));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_detection_is_per_slot_and_respects_tail() {
        let mut c = Cube::full(33);
        assert!(!c.is_empty());
        let conflict = Cube::from_literals(33, &[(32, true)]);
        c.set_literal(32, Some(false));
        assert!(c.intersection(&conflict).is_empty());
    }
}
