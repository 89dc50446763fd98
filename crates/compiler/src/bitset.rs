//! A small fixed-capacity bit set used by the dataflow analyses.

/// A dense bit set over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Insert an element; returns whether it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Remove an element.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self |= a - b`; returns whether `self` changed.
    pub fn union_with_difference(&mut self, a: &BitSet, b: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        let mut changed = false;
        for ((s, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            let old = *s;
            *s |= x & !y;
            changed |= *s != old;
        }
        changed
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(s.insert(3));
        assert!(s.insert(130));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.contains(130));
        assert!(!s.contains(4));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 99]);
    }

    #[test]
    fn union_with_difference() {
        let (mut s, mut a, mut b) = (BitSet::new(130), BitSet::new(130), BitSet::new(130));
        s.insert(0);
        for i in [1, 64, 129] {
            a.insert(i);
        }
        b.insert(64);
        assert!(s.union_with_difference(&a, &b));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 129]);
        assert!(!s.union_with_difference(&a, &b));
    }

    #[test]
    fn iter_order_and_empty() {
        let mut s = BitSet::new(300);
        for i in [250, 3, 64, 65] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 250]);
        assert!(!s.is_empty());
        assert!(BitSet::new(10).is_empty());
    }
}
