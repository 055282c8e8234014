//! Dictionary codes sized to their dictionary.

/// One dictionary code per row of a [`crate::Column::Utf8`], stored at the
/// narrowest width that holds every code of the column's dictionary: `u8`
/// for up to 256 entries, `u16` for up to 65 536, `u32` beyond.
///
/// **Invariant:** a column's codes are always at the width its dictionary's
/// length calls for. [`crate::Column::push`] widens them in place when an
/// intern crosses 256 or 65 536 entries; `gather` copies codes at the
/// source's width, since it shares the source's dictionary; the AQPT
/// loader fits them to the dictionary its tables share once every table
/// is decoded. The width is storage only: code values — and so group keys,
/// zone-map bitmaps, [`crate::Column::byte_size`] and the AQPT file, which
/// always stores `u32` — are the same at every width.
///
/// Readers either take one code at a time ([`Codes::get`]) or dispatch on
/// the width once per column with [`with_codes!`](crate::with_codes) and
/// run a loop monomorphised per width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codes {
    /// Codes of a dictionary of at most 256 entries.
    U8(Vec<u8>),
    /// Codes of a dictionary of at most 65 536 entries.
    U16(Vec<u16>),
    /// Codes of a larger dictionary.
    U32(Vec<u32>),
}

/// Evaluate `$body` with `$c` bound to the codes (a `&Codes`) as a `&[u8]`,
/// `&[u16]` or `&[u32]`: the width is matched once, outside whatever loop
/// `$body` runs, and `$body` is compiled once per width.
///
/// ```
/// use aqp_storage::{with_codes, Codes};
/// let codes = Codes::U16(vec![7, 300]);
/// let sum: u64 = with_codes!(&codes, c => c.iter().map(|&x| u64::from(x)).sum());
/// assert_eq!(sum, 307);
/// ```
#[macro_export]
macro_rules! with_codes {
    ($codes:expr, $c:ident => $body:expr) => {
        match $codes {
            $crate::Codes::U8(codes) => {
                let $c: &[u8] = codes;
                $body
            }
            $crate::Codes::U16(codes) => {
                let $c: &[u16] = codes;
                $body
            }
            $crate::Codes::U32(codes) => {
                let $c: &[u32] = codes;
                // `$body` is written for every width: its widening to
                // `u32` is a no-op at this one.
                #[allow(clippy::useless_conversion)]
                let out = $body;
                out
            }
        }
    };
}

/// Build [`Codes`] at the width a dictionary of `$entries` entries needs:
/// `$body` is evaluated with `$t` naming that width's code type and must
/// yield a `Vec<$t>`.
macro_rules! codes_for {
    ($entries:expr, $t:ident => $body:expr) => {{
        let entries: usize = $entries;
        if entries <= 1 << 8 {
            type $t = u8;
            $crate::Codes::U8($body)
        } else if entries <= 1 << 16 {
            type $t = u16;
            $crate::Codes::U16($body)
        } else {
            type $t = u32;
            $crate::Codes::U32($body)
        }
    }};
}
pub(crate) use codes_for;

impl Default for Codes {
    fn default() -> Self {
        Codes::U8(Vec::new())
    }
}

impl Codes {
    /// Number of rows.
    pub fn len(&self) -> usize {
        with_codes!(self, c => c.len())
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code of row `row`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        with_codes!(self, c => c[row].into())
    }

    /// The same codes at the width a dictionary of `entries` entries needs
    /// (narrower or wider; unchanged if already there). Every code must be
    /// below `entries`.
    pub fn fit(self, entries: usize) -> Codes {
        let fits = match &self {
            Codes::U8(_) => entries <= 1 << 8,
            Codes::U16(_) => entries > 1 << 8 && entries <= 1 << 16,
            Codes::U32(_) => entries > 1 << 16,
        };
        if fits {
            return self;
        }
        with_codes!(&self, c => {
            codes_for!(entries, T => c.iter().map(|&x| u32::from(x) as T).collect())
        })
    }

    /// Append `code`, first widening every code in place if it does not
    /// fit the current width. Codes are handed out densely, so that
    /// happens exactly when the dictionary crosses 256 or 65 536 entries.
    pub(crate) fn push(&mut self, code: u32) {
        match self {
            Codes::U8(c) if code <= u32::from(u8::MAX) => c.push(code as u8),
            Codes::U16(c) if code <= u32::from(u16::MAX) => c.push(code as u16),
            Codes::U32(c) => c.push(code),
            _ => {
                *self = std::mem::take(self).fit(code as usize + 1);
                self.push(code);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_widens_at_each_boundary_and_keeps_every_code() {
        let mut codes = Codes::default();
        for code in 0..=256u32 {
            codes.push(code);
        }
        assert!(matches!(codes, Codes::U16(_)), "code 256 needs 16 bits");
        for code in 257..=65_536u32 {
            codes.push(code % 300);
        }
        assert!(matches!(codes, Codes::U16(_)), "small codes do not widen");
        codes.push(65_536);
        assert!(matches!(codes, Codes::U32(_)), "code 65 536 needs 32 bits");
        assert_eq!(codes.len(), 65_538);
        assert_eq!(
            (codes.get(255), codes.get(256), codes.get(257)),
            (255, 256, 257)
        );
        assert_eq!(codes.get(65_537), 65_536);
    }

    #[test]
    fn fit_narrows_and_widens_to_the_dictionary() {
        let wide = Codes::U32(vec![0, 5, 255]);
        assert_eq!(wide.clone().fit(256), Codes::U8(vec![0, 5, 255]));
        assert_eq!(wide.clone().fit(257), Codes::U16(vec![0, 5, 255]));
        assert_eq!(wide.clone().fit(1 << 16), Codes::U16(vec![0, 5, 255]));
        assert_eq!(wide.clone().fit((1 << 16) + 1), wide);
        assert_eq!(Codes::U8(vec![9]).fit(70_000), Codes::U32(vec![9]));
        assert_eq!(Codes::default().fit(0), Codes::default());
    }
}
