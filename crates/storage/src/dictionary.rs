//! String dictionaries for dictionary-encoded UTF-8 columns.

use std::collections::HashMap;
use std::sync::Arc;

/// An append-only mapping between strings and dense `u32` codes.
///
/// Used by [`crate::Column::Utf8`] so that string columns store one code per
/// row plus a dictionary. Group-by and IN-list predicate evaluation on
/// string columns then operate on integer codes, which is the main reason
/// the AQP runtime stays fast on wide categorical schemas. Codes are `u32`
/// in this API; a column stores them at the narrowest width that holds
/// [`Self::len`] entries ([`crate::Codes`]).
///
/// One dictionary serves a column and every table cut from it: columns
/// hold it behind an `Arc`, and [`crate::Column::gather`] copies codes and
/// clones the `Arc`, so a code means the same string in a view and in all
/// of its sample tables. Entries no row of a given table uses are left out
/// only when that table is written to a file ([`crate::io`]).
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
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary overflow: > u32::MAX distinct strings");
        let s: Arc<str> = Arc::from(s);
        self.values.push(Arc::clone(&s));
        self.index.insert(s, code);
        code
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
}
