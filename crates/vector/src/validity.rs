//! NULL tracking for vectors: a bitmask with one bit per row.

/// Validity (non-NULL) mask for up to `len` rows, one bit per row.
///
/// The common case — no NULLs at all — is represented without allocating:
/// `bits` stays empty and every row counts as valid. The mask materializes
/// lazily on the first `set_invalid`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidityMask {
    /// One bit per row, 1 = valid. Empty means "all valid".
    bits: Vec<u64>,
    len: usize,
}

impl ValidityMask {
    /// A mask of `len` rows, all valid.
    pub fn new_all_valid(len: usize) -> Self {
        ValidityMask { bits: Vec::new(), len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if no row is NULL (fast path used by the kernels).
    pub fn all_valid(&self) -> bool {
        self.bits.is_empty() || self.count_valid() == self.len
    }

    fn materialize(&mut self) {
        if self.bits.is_empty() {
            self.bits = vec![u64::MAX; self.len.div_ceil(64)];
            self.mask_tail();
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn is_valid(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        if self.bits.is_empty() {
            return true;
        }
        self.bits[row / 64] & (1 << (row % 64)) != 0
    }

    pub fn set_valid(&mut self, row: usize) {
        debug_assert!(row < self.len);
        if self.bits.is_empty() {
            return;
        }
        self.bits[row / 64] |= 1 << (row % 64);
    }

    pub fn set_invalid(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.materialize();
        self.bits[row / 64] &= !(1 << (row % 64));
    }

    pub fn set(&mut self, row: usize, valid: bool) {
        if valid {
            self.set_valid(row);
        } else {
            self.set_invalid(row);
        }
    }

    /// Append one row with the given validity.
    pub fn push(&mut self, valid: bool) {
        let row = self.len;
        self.len += 1;
        if !self.bits.is_empty() {
            if row.is_multiple_of(64) {
                self.bits.push(0);
            }
            if valid {
                self.set_valid(row);
            }
        } else if !valid {
            self.materialize();
            self.set_invalid(row);
        }
    }

    /// Number of valid (non-NULL) rows.
    pub fn count_valid(&self) -> usize {
        if self.bits.is_empty() {
            return self.len;
        }
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn count_invalid(&self) -> usize {
        self.len - self.count_valid()
    }

    /// Extend with `count` rows taken from `other` starting at `offset`.
    pub fn extend_from(&mut self, other: &ValidityMask, offset: usize, count: usize) {
        debug_assert!(offset + count <= other.len);
        if other.bits.is_empty() && self.bits.is_empty() {
            self.len += count;
            return;
        }
        for i in 0..count {
            self.push(other.is_valid(offset + i));
        }
    }

    /// Build the mask that selects `sel[i]` from `self`.
    pub fn select(&self, sel: &[u32]) -> ValidityMask {
        if self.bits.is_empty() {
            return ValidityMask::new_all_valid(sel.len());
        }
        let mut out = ValidityMask::new_all_valid(0);
        for &idx in sel {
            out.push(self.is_valid(idx as usize));
        }
        out
    }

    /// Intersect with another mask of the same length (row NULL if NULL in
    /// either input), the combine rule for binary expression kernels.
    pub fn combine(&mut self, other: &ValidityMask) {
        debug_assert_eq!(self.len, other.len);
        if other.bits.is_empty() {
            return;
        }
        self.materialize();
        for (w, o) in self.bits.iter_mut().zip(other.bits.iter()) {
            *w &= *o;
        }
    }

    /// The mask words, or `None` when no mask is materialized (every row
    /// valid). Bit `r % 64` of word `r / 64` is row `r`, 1 = valid; bits
    /// past `len` are zero. Bulk consumers read whole words instead of
    /// probing row by row.
    pub fn words(&self) -> Option<&[u64]> {
        (!self.bits.is_empty()).then_some(self.bits.as_slice())
    }

    /// Call `f` with every valid row in `[start, end)`, in ascending order,
    /// one mask word at a time (a fully valid word runs as a dense loop).
    #[inline]
    pub fn for_each_valid(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        debug_assert!(start <= end && end <= self.len);
        if self.bits.is_empty() {
            (start..end).for_each(f);
            return;
        }
        let mut row = start;
        while row < end {
            let word_end = ((row / 64 + 1) * 64).min(end);
            let span = word_end - row;
            let mut bits = self.bits[row / 64] >> (row % 64);
            if span < 64 {
                bits &= (1u64 << span) - 1;
            }
            if bits.count_ones() as usize == span {
                (row..word_end).for_each(&mut f);
            } else {
                while bits != 0 {
                    f(row + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            row = word_end;
        }
    }

    /// Iterator over indexes of valid rows.
    pub fn valid_indexes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.is_valid(i))
    }

    /// Truncate to `new_len` rows.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(new_len <= self.len);
        self.len = new_len;
        if !self.bits.is_empty() {
            self.bits.truncate(new_len.div_ceil(64));
            self.mask_tail();
        }
    }

    /// Reset to zero rows, all-valid representation.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_without_allocation() {
        let m = ValidityMask::new_all_valid(1000);
        assert!(m.all_valid());
        assert_eq!(m.count_valid(), 1000);
        assert!(m.is_valid(0) && m.is_valid(999));
        assert_eq!(m.bits.len(), 0);
    }

    #[test]
    fn set_invalid_materializes() {
        let mut m = ValidityMask::new_all_valid(130);
        m.set_invalid(0);
        m.set_invalid(64);
        m.set_invalid(129);
        assert!(!m.is_valid(0));
        assert!(!m.is_valid(64));
        assert!(!m.is_valid(129));
        assert!(m.is_valid(1));
        assert_eq!(m.count_invalid(), 3);
        m.set_valid(64);
        assert_eq!(m.count_invalid(), 2);
    }

    #[test]
    fn push_mixed() {
        let mut m = ValidityMask::default();
        for i in 0..200 {
            m.push(i % 3 != 0);
        }
        assert_eq!(m.len(), 200);
        assert_eq!(m.count_invalid(), (0..200).filter(|i| i % 3 == 0).count());
        for i in 0..200 {
            assert_eq!(m.is_valid(i), i % 3 != 0);
        }
    }

    #[test]
    fn combine_is_intersection() {
        let mut a = ValidityMask::new_all_valid(100);
        let mut b = ValidityMask::new_all_valid(100);
        a.set_invalid(3);
        b.set_invalid(5);
        a.combine(&b);
        assert!(!a.is_valid(3));
        assert!(!a.is_valid(5));
        assert_eq!(a.count_invalid(), 2);
    }

    #[test]
    fn combine_with_all_valid_is_noop() {
        let mut a = ValidityMask::new_all_valid(10);
        a.set_invalid(1);
        let b = ValidityMask::new_all_valid(10);
        a.combine(&b);
        assert_eq!(a.count_invalid(), 1);
    }

    #[test]
    fn select_reorders() {
        let mut m = ValidityMask::new_all_valid(6);
        m.set_invalid(2);
        let s = m.select(&[2, 0, 2, 5]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_valid(0));
        assert!(s.is_valid(1));
        assert!(!s.is_valid(2));
        assert!(s.is_valid(3));
    }

    #[test]
    fn truncate_masks_tail_correctly() {
        let mut m = ValidityMask::new_all_valid(128);
        m.set_invalid(100);
        m.truncate(70);
        assert_eq!(m.len(), 70);
        assert_eq!(m.count_valid(), 70);
        // Growing again after truncation keeps consistent state.
        m.push(false);
        assert_eq!(m.len(), 71);
        assert!(!m.is_valid(70));
    }

    #[test]
    fn for_each_valid_visits_valid_rows_of_a_range() {
        let mut m = ValidityMask::new_all_valid(200);
        for r in [0, 63, 64, 65, 130, 199] {
            m.set_invalid(r);
        }
        for (start, end) in [(0, 200), (1, 64), (60, 70), (64, 128), (129, 199), (5, 5)] {
            let mut got = Vec::new();
            m.for_each_valid(start, end, |r| got.push(r));
            let want: Vec<usize> = (start..end).filter(|&r| m.is_valid(r)).collect();
            assert_eq!(got, want, "[{start}, {end})");
        }
        let mut all = Vec::new();
        ValidityMask::new_all_valid(5).for_each_valid(1, 4, |r| all.push(r));
        assert_eq!(all, [1, 2, 3]);
    }

    #[test]
    fn extend_from_offsets() {
        let mut src = ValidityMask::new_all_valid(10);
        src.set_invalid(4);
        let mut dst = ValidityMask::new_all_valid(2);
        dst.extend_from(&src, 3, 4); // rows 3,4,5,6 -> dst rows 2..6
        assert_eq!(dst.len(), 6);
        assert!(dst.is_valid(2));
        assert!(!dst.is_valid(3));
        assert!(dst.is_valid(4));
    }
}
