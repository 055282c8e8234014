//! Variable-width bitmasks for sample-table membership tagging.
//!
//! Small group sampling tags every sampled row with the set of small group
//! tables that contain it (Section 4.2.1 of the paper: "Each row ... is
//! tagged with an extra bitmask field (of length |S|)"). The paper's SQL
//! formulation uses an integer column and `bitmask & M = 0` filters; since
//! |S| can exceed 64 on wide schemas (the SALES database has 245 columns),
//! this module provides an arbitrary-width [`BitSet`] plus a packed columnar
//! representation, [`BitmaskColumn`], storing one bitmask per row.

/// An arbitrary-width set of bit positions.
///
/// Semantically identical to the paper's integer bitmask, generalised past
/// 64 bits. All bitmasks attached to one sample family share a fixed width.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bitset able to hold bits `0..num_bits`.
    pub fn with_capacity(num_bits: usize) -> Self {
        BitSet {
            words: vec![0; num_bits.div_ceil(64).max(1)],
        }
    }

    /// Build a bitset directly from backing words (low bit of word 0 is
    /// bit 0). Used by the binary table codec.
    pub fn from_raw_words(words: Vec<u64>) -> Self {
        BitSet { words }
    }

    /// Build a bitset from an iterator of bit positions.
    pub fn from_bits<I: IntoIterator<Item = usize>>(num_bits: usize, bits: I) -> Self {
        let mut s = Self::with_capacity(num_bits);
        for b in bits {
            s.set(b);
        }
        s
    }

    /// Number of 64-bit words backing the set.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Set bit `bit`, growing the word vector if needed.
    pub fn set(&mut self, bit: usize) {
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (bit % 64);
    }

    /// Whether bit `bit` is set.
    pub fn contains(&self, bit: usize) -> bool {
        let word = bit / 64;
        word < self.words.len() && (self.words[word] >> (bit % 64)) & 1 == 1
    }

    /// Whether any bit is set in both `self` and `other`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the positions of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Raw backing words (low bit of word 0 is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A packed column of fixed-width bitmasks, one per row.
///
/// This is the storage-side representation of the paper's `bitmask` column
/// on sample tables. Filtering "rows whose bitmask intersects mask M" is a
/// tight loop over `width` words per row.
#[derive(Debug, Clone, Default)]
pub struct BitmaskColumn {
    /// Words per row. Fixed for the lifetime of the column.
    width: usize,
    /// Row-major packed words; `len = width * num_rows`.
    words: Vec<u64>,
}

impl BitmaskColumn {
    /// Create an empty column whose rows can hold bits `0..num_bits`.
    pub fn new(num_bits: usize) -> Self {
        BitmaskColumn {
            width: num_bits.div_ceil(64).max(1),
            words: Vec::new(),
        }
    }

    /// Build a column of `width` words per row straight from row-major
    /// words. Panics if `words` is not a whole number of rows.
    pub fn from_words(width: usize, words: Vec<u64>) -> Self {
        let width = width.max(1);
        assert!(words.len().is_multiple_of(width), "bitmask words are not whole rows");
        BitmaskColumn { width, words }
    }

    /// A new column holding the rows at `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> Self {
        let mut words = Vec::with_capacity(indices.len() * self.width);
        for &i in indices {
            words.extend_from_slice(&self.words[i * self.width..(i + 1) * self.width]);
        }
        BitmaskColumn {
            width: self.width,
            words,
        }
    }

    /// The row-major mask words, [`Self::width`] per row.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Words allocated per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.words.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row's bitmask. The bitset must not have bits beyond the
    /// column width; narrower bitsets are zero-extended.
    pub fn push(&mut self, mask: &BitSet) {
        let mw = mask.words();
        assert!(
            mw.len() <= self.width || mw[self.width..].iter().all(|w| *w == 0),
            "bitmask wider than column"
        );
        for i in 0..self.width {
            self.words.push(mw.get(i).copied().unwrap_or(0));
        }
    }

    /// Append an all-zero bitmask row.
    pub fn push_empty(&mut self) {
        self.words.resize(self.words.len() + self.width, 0);
    }

    /// Whether the bitmask of `row` intersects `mask`.
    pub fn row_intersects(&self, row: usize, mask: &BitSet) -> bool {
        let start = row * self.width;
        let row_words = &self.words[start..start + self.width];
        row_words
            .iter()
            .zip(mask.words().iter())
            .any(|(a, b)| a & b != 0)
    }

    /// The bitmask of `row` as an owned [`BitSet`].
    pub fn row(&self, row: usize) -> BitSet {
        let start = row * self.width;
        BitSet {
            words: self.words[start..start + self.width].to_vec(),
        }
    }

    /// Select the subset of rows whose bitmask does **not** intersect
    /// `mask` — the paper's `WHERE bitmask & M = 0` filter.
    pub fn rows_disjoint_from(&self, mask: &BitSet) -> Vec<usize> {
        (0..self.len())
            .filter(|&r| !self.row_intersects(r, mask))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_contains() {
        let mut s = BitSet::with_capacity(10);
        s.set(0);
        s.set(9);
        s.set(70); // grows
        assert!(s.contains(0) && s.contains(9) && s.contains(70));
        assert!(!s.contains(1) && !s.contains(64));
        assert_eq!(s.count_ones(), 3);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 9, 70]);
    }

    #[test]
    fn intersects() {
        let a = BitSet::from_bits(128, [3, 100]);
        let b = BitSet::from_bits(128, [100]);
        let c = BitSet::from_bits(128, [4, 99]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!BitSet::with_capacity(128).intersects(&a));
        assert!(BitSet::with_capacity(4).is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn different_width_intersects() {
        let narrow = BitSet::from_bits(4, [2]);
        let wide = BitSet::from_bits(200, [2, 150]);
        assert!(narrow.intersects(&wide));
        assert!(wide.intersects(&narrow));
        let wide_only = BitSet::from_bits(200, [150]);
        assert!(!narrow.intersects(&wide_only));
    }

    #[test]
    fn column_push_and_filter() {
        let mut col = BitmaskColumn::new(3);
        assert_eq!(col.width(), 1);
        col.push(&BitSet::from_bits(3, [0]));
        col.push(&BitSet::from_bits(3, [1]));
        col.push(&BitSet::from_bits(3, [0, 2]));
        col.push_empty();
        assert_eq!(col.len(), 4);

        let m0 = BitSet::from_bits(3, [0]);
        assert!(col.row_intersects(0, &m0));
        assert!(!col.row_intersects(1, &m0));
        assert!(col.row_intersects(2, &m0));
        assert!(!col.row_intersects(3, &m0));
        assert_eq!(col.rows_disjoint_from(&m0), vec![1, 3]);
        assert_eq!(col.row(2).iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn gather_and_from_words_equal_pushes() {
        let mut col = BitmaskColumn::new(130);
        for r in 0..5usize {
            col.push(&BitSet::from_bits(130, [r, 64 + r, 128]));
        }
        let picked = col.gather(&[4, 0, 0]);
        let mut pushed = BitmaskColumn::new(130);
        for r in [4usize, 0, 0] {
            pushed.push(&col.row(r));
        }
        assert_eq!(picked.words(), pushed.words());
        assert_eq!(picked.width(), 3);
        let rebuilt = BitmaskColumn::from_words(3, col.words().to_vec());
        assert_eq!(rebuilt.len(), 5);
        assert_eq!(rebuilt.row(2), col.row(2));
        assert!(col.gather(&[]).is_empty());
    }

    #[test]
    fn wide_column() {
        // 130 bits => 3 words per row.
        let mut col = BitmaskColumn::new(130);
        assert_eq!(col.width(), 3);
        col.push(&BitSet::from_bits(130, [129]));
        col.push(&BitSet::from_bits(130, [64]));
        let m = BitSet::from_bits(130, [129]);
        assert_eq!(col.rows_disjoint_from(&m), vec![1]);
    }

    #[test]
    fn empty_mask_matches_nothing() {
        let mut col = BitmaskColumn::new(8);
        col.push(&BitSet::from_bits(8, [1, 2]));
        let empty = BitSet::with_capacity(8);
        assert_eq!(col.rows_disjoint_from(&empty), vec![0]);
    }
}
