//! Fixed-capacity bit sets used by the dataflow analyses: one set
//! ([`BitSet`]), or one set per block kept in a single word matrix
//! ([`BitRows`]).

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

    /// Overwrite this set with row `r` of `rows`, which must have the
    /// same capacity.
    pub(crate) fn copy_row(&mut self, rows: &BitRows, r: usize) {
        debug_assert_eq!(self.capacity, rows.capacity);
        self.words.copy_from_slice(rows.row(r));
    }
}

/// A matrix of bit sets over `0..capacity`, one row per index, in one
/// flat word vector: row `r` is the `stride` words from `r * stride`.
/// Building one costs one allocation, whatever the row count.
#[derive(Debug, Clone)]
pub struct BitRows {
    words: Vec<u64>,
    stride: usize,
    capacity: usize,
}

impl BitRows {
    /// `rows` empty sets with room for `capacity` elements each.
    pub(crate) fn new(rows: usize, capacity: usize) -> Self {
        let stride = capacity.div_ceil(64);
        BitRows {
            words: vec![0; rows * stride],
            stride,
            capacity,
        }
    }

    /// Insert element `i` into row `r`.
    pub(crate) fn insert(&mut self, r: usize, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[r * self.stride + i / 64] |= 1u64 << (i % 64);
    }

    /// Whether row `r` contains element `i`.
    pub fn contains(&self, r: usize, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[r * self.stride + i / 64] >> (i % 64) & 1 == 1
    }

    /// Row `r`'s elements in increasing order.
    pub fn iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(wi, &w)| {
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

    /// Row `r`'s words.
    pub(crate) fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r`'s words, mutably.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
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
        assert!(s.contains(130));
    }

    #[test]
    fn rows_are_disjoint_and_iterate_in_order() {
        let mut m = BitRows::new(3, 130);
        for i in [129, 0, 64, 1] {
            m.insert(1, i);
        }
        m.insert(2, 63);
        assert_eq!(m.iter(0).count(), 0);
        assert_eq!(m.iter(1).collect::<Vec<_>>(), vec![0, 1, 64, 129]);
        assert_eq!(m.iter(2).collect::<Vec<_>>(), vec![63]);
        assert!(m.contains(1, 64) && !m.contains(0, 64) && !m.contains(2, 64));
        assert_eq!(m.row(1).len(), 3);

        let mut s = BitSet::new(130);
        s.insert(5);
        s.copy_row(&m, 1);
        assert!(s.contains(129) && !s.contains(5));
    }

    #[test]
    fn zero_capacity_rows_are_empty() {
        let m = BitRows::new(4, 0);
        assert!(m.row(3).is_empty());
        assert_eq!(m.iter(2).count(), 0);
    }
}
