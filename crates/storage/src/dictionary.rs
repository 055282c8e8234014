//! String dictionaries for dictionary-encoded UTF-8 columns.

use std::collections::HashMap;
use std::sync::Arc;

/// An append-only mapping between strings and dense `u32` codes.
///
/// Used by [`crate::Column::Utf8`] so that string columns store one code per
/// row plus a shared dictionary. Group-by and IN-list predicate evaluation on
/// string columns then operate on integer codes, which is the main reason
/// the AQP runtime stays fast on wide categorical schemas. Codes are `u32`
/// in this API; a column stores them at the narrowest width that holds
/// [`Self::len`] entries ([`crate::Codes`]).
///
/// Each string lives on the heap once: the code → string vector and the
/// string → code index hold the same `Arc<str>`, which is what
/// [`crate::Column::byte_size`] counts.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty dictionary with room for `capacity` strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Dictionary {
            values: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
        }
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        match self.index.get(s) {
            Some(&code) => code,
            None => self.push_new(Arc::from(s)),
        }
    }

    /// [`Self::intern`] for a string another dictionary already holds: a
    /// new entry shares that dictionary's copy instead of allocating one.
    pub fn intern_shared(&mut self, s: &Arc<str>) -> u32 {
        match self.index.get(&**s) {
            Some(&code) => code,
            None => self.push_new(Arc::clone(s)),
        }
    }

    /// Assign the next code to `s`, which must not be present yet.
    fn push_new(&mut self, s: Arc<str>) -> u32 {
        let code = u32::try_from(self.values.len()).expect("dictionary overflow: > u32::MAX distinct strings");
        self.values.push(Arc::clone(&s));
        self.index.insert(s, code);
        code
    }

    /// The shared string for `code`. Panics if the code was never assigned.
    pub fn shared(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Look up the code for `s` without inserting.
    pub fn code(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string for `code`. Panics if the code was never assigned.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The string for `code`, or `None` if unassigned.
    pub fn get(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(|s| &**s)
    }

    /// Iterate over `(code, string)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }
}

/// Old-code → new-code table for copying dictionary-coded rows into a new
/// column: the one primitive under `gather`, `denormalize`, the sample
/// table builders and the file loader.
///
/// Slots are filled lazily, in the order the copied rows first use each
/// source code, with one [`Dictionary::intern`] per *distinct* source code
/// (not per row). The destination dictionary and codes therefore come out
/// exactly as if every row's string had been pushed one at a time: codes in
/// first-appearance order, source entries no copied row uses left out, and
/// source entries spelling the same string folded into one code.
#[derive(Debug)]
pub struct CodeRemap {
    new_codes: Vec<u32>,
}

/// Marks a source code no copied row has used yet. A dictionary cannot
/// assign it: `intern` panics before reaching `u32::MAX` entries.
const UNMAPPED: u32 = u32::MAX;

impl CodeRemap {
    /// A remap for a source dictionary of `source_len` entries.
    pub fn new(source_len: usize) -> Self {
        CodeRemap {
            new_codes: vec![UNMAPPED; source_len],
        }
    }

    /// The destination code for source code `old`; `intern` supplies it —
    /// by interning the source's string for `old` into the destination —
    /// the first time `old` is seen. Panics if `old` is outside the source
    /// dictionary.
    #[inline]
    pub fn remap(&mut self, old: u32, intern: impl FnOnce() -> u32) -> u32 {
        let slot = &mut self.new_codes[old as usize];
        if *slot == UNMAPPED {
            *slot = intern();
        }
        *slot
    }

    /// Whether any source code seen so far maps to a different code.
    pub(crate) fn moved(&self) -> bool {
        self.new_codes
            .iter()
            .enumerate()
            .any(|(old, &new)| new != UNMAPPED && new as usize != old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("apple");
        let b = d.intern("banana");
        assert_ne!(a, b);
        assert_eq!(d.intern("apple"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(a), "apple");
        assert_eq!(d.value(b), "banana");
    }

    #[test]
    fn code_lookup() {
        let mut d = Dictionary::new();
        d.intern("x");
        assert_eq!(d.code("x"), Some(0));
        assert_eq!(d.code("y"), None);
        assert_eq!(d.get(0), Some("x"));
        assert_eq!(d.get(9), None);
    }

    #[test]
    fn iteration_order_is_code_order() {
        let mut d = Dictionary::new();
        for s in ["c", "a", "b"] {
            d.intern(s);
        }
        let collected: Vec<_> = d.iter().map(|(c, s)| (c, s.to_owned())).collect();
        assert_eq!(
            collected,
            vec![(0, "c".to_owned()), (1, "a".to_owned()), (2, "b".to_owned())]
        );
    }

    #[test]
    fn remap_assigns_codes_in_first_use_order() {
        let mut src = Dictionary::new();
        for s in ["a", "b", "c", "d"] {
            src.intern(s);
        }
        let mut dst = Dictionary::new();
        let mut remap = CodeRemap::new(src.len());
        let out: Vec<u32> = [3u32, 1, 3, 0, 1]
            .iter()
            .map(|&c| remap.remap(c, || dst.intern_shared(src.shared(c))))
            .collect();
        assert_eq!(out, vec![0, 1, 0, 2, 1]);
        // "c" was never used and is dropped.
        let strings: Vec<&str> = dst.iter().map(|(_, s)| s).collect();
        assert_eq!(strings, vec!["d", "b", "a"]);
    }

    #[test]
    fn remap_folds_duplicate_source_strings() {
        // A file dictionary may spell one string twice; both codes land on
        // the one destination code, as re-interning each row would.
        let source = ["x", "y", "x"];
        let mut dst = Dictionary::new();
        let mut remap = CodeRemap::new(source.len());
        let out: Vec<u32> = [0u32, 2, 1]
            .iter()
            .map(|&c| remap.remap(c, || dst.intern(source[c as usize])))
            .collect();
        assert_eq!(out, vec![0, 0, 1]);
        assert_eq!(dst.len(), 2);
    }
}
