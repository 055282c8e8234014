//! Null masks: compact per-row validity tracking.

/// A bit-packed validity mask for a column.
///
/// Bit `i` set means row `i` is **null**. Most columns in the AQP workloads
/// are fully valid, so columns store `Option<NullMask>` and skip the mask
/// entirely in the common case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    null_count: usize,
}

impl NullMask {
    /// Create an empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a mask of `len` rows, all valid (non-null).
    pub fn all_valid(len: usize) -> Self {
        NullMask {
            words: vec![0; len.div_ceil(64)],
            len,
            null_count: 0,
        }
    }

    /// Build a mask over `len` rows from packed words (bit `i % 64` of
    /// word `i / 64` set means row `i` is null). Bits past `len` are
    /// cleared. Panics unless exactly `len.div_ceil(64)` words are given.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "null mask word count");
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let null_count = words.iter().map(|w| w.count_ones() as usize).sum();
        NullMask {
            words,
            len,
            null_count,
        }
    }

    /// The packed words, `len().div_ceil(64)` of them, in the layout
    /// [`Self::from_words`] takes; no bit past `len()` is set.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows covered by this mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Append one row with the given nullness.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.null_count += 1;
        }
        self.len += 1;
    }

    /// Whether row `row` is null. Panics if out of bounds.
    pub fn is_null(&self, row: usize) -> bool {
        assert!(row < self.len, "row {row} out of bounds (len {})", self.len);
        (self.words[row / 64] >> (row % 64)) & 1 == 1
    }

    /// Mark row `row` as null.
    pub fn set_null(&mut self, row: usize) {
        assert!(row < self.len, "row {row} out of bounds (len {})", self.len);
        let w = &mut self.words[row / 64];
        let bit = 1u64 << (row % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.null_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut m = NullMask::new();
        for i in 0..200 {
            m.push(i % 3 == 0);
        }
        assert_eq!(m.len(), 200);
        for i in 0..200 {
            assert_eq!(m.is_null(i), i % 3 == 0, "row {i}");
        }
        assert_eq!(m.null_count(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn all_valid_then_set() {
        let mut m = NullMask::all_valid(100);
        assert_eq!(m.null_count(), 0);
        m.set_null(63);
        m.set_null(64);
        m.set_null(64); // idempotent
        assert_eq!(m.null_count(), 2);
        assert!(m.is_null(63));
        assert!(m.is_null(64));
        assert!(!m.is_null(65));
    }

    #[test]
    fn from_words_equals_pushes_and_drops_tail_bits() {
        let mut pushed = NullMask::new();
        for i in 0..70 {
            pushed.push(i == 3 || i == 69);
        }
        // Bit 70 of the file's last word is past the end and ignored.
        let built = NullMask::from_words(vec![1 << 3, (1 << 5) | (1 << 6)], 70);
        assert_eq!(built, pushed);
        assert_eq!(built.null_count(), 2);
        assert_eq!(NullMask::from_words(Vec::new(), 0), NullMask::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = NullMask::all_valid(10);
        let _ = m.is_null(10);
    }
}
