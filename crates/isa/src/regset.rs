//! Compact register sets as 64-bit masks.

use crate::reg::{Reg, NUM_REGS};
use std::fmt;

/// A set of general registers, stored as a bit mask.
///
/// [`NUM_REGS`] is 64, so one word suffices; the type is `Copy` and all set
/// operations are single instructions, which matters inside the scheduler's
/// dataflow fixed points and the machine's per-cycle wakeup lists and
/// hazard screens.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u64);

const _: () = assert!(NUM_REGS <= 64, "RegSet packs registers into a u64");

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// A singleton set.
    pub fn of(r: Reg) -> RegSet {
        RegSet(1 << r.index())
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Inserts `r`.
    #[inline]
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes `r`.
    #[inline]
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    #[inline]
    #[must_use]
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the members in ascending index order, one
    /// trailing-zeros step per member.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Reg::new(i)
            })
        })
    }

    /// The lowest-numbered register not in the set and not below `min`,
    /// if any — used to pick renaming targets.
    pub fn first_free(self, min: usize) -> Option<Reg> {
        (min..NUM_REGS)
            .find(|i| self.0 & (1 << i) == 0)
            .map(Reg::new)
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Reg::new(3));
        s.insert(Reg::new(40));
        assert!(s.contains(Reg::new(3)));
        assert!(!s.contains(Reg::new(4)));
        assert_eq!(s.len(), 2);
        s.remove(Reg::new(3));
        assert!(!s.contains(Reg::new(3)));
    }

    #[test]
    fn set_algebra() {
        let a: RegSet = [Reg::new(1), Reg::new(2)].into_iter().collect();
        let b: RegSet = [Reg::new(2), Reg::new(3)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersect(b), RegSet::of(Reg::new(2)));
        assert_eq!(a.minus(b), RegSet::of(Reg::new(1)));
    }

    #[test]
    fn iteration_order() {
        let s: RegSet = [Reg::new(5), Reg::new(1), Reg::new(63)]
            .into_iter()
            .collect();
        let v: Vec<usize> = s.iter().map(Reg::index).collect();
        assert_eq!(v, vec![1, 5, 63]);
    }

    #[test]
    fn first_free_respects_min() {
        let s: RegSet = [Reg::new(32), Reg::new(33)].into_iter().collect();
        assert_eq!(s.first_free(32), Some(Reg::new(34)));
        assert_eq!(s.first_free(0), Some(Reg::new(0)));
        let full: RegSet = (0..NUM_REGS).map(Reg::new).collect();
        assert_eq!(full.first_free(0), None);
    }
}
