//! Minimal JSON value model, writer, and linear-time pull reader.
//!
//! The vendored `serde` is an API stub, so trace records, exporter output
//! and wire frames are encoded by hand. This module is the shared
//! mechanism: a small `Value` tree, lossless `f64` formatting, and a
//! strict [`Reader`] that [`parse`] builds trees on and schema-aware
//! decoders drive directly.
//!
//! Numbers are the bulk of an answer frame, so both directions have
//! their own kernels, in safe Rust, with every power table computed from
//! exact integer arithmetic at compile time:
//! - [`write_f64`] finds the shortest round-trip digits with Ryu (Adams,
//!   PLDI 2018) and lays them out as `f64`'s `Display` does, to the byte:
//!   the `ryu_writes_what_display_writes` test compares the two on every
//!   boundary class and 10^6 random bit patterns (optimised builds), and
//!   `tests/codec_wire.rs` compares whole frames with a std-only printer.
//! - The reader checks JSON's number grammar as it folds the digits,
//!   eight at a time, and rounds them with Eisel–Lemire (Lemire 2021),
//!   leaving to std's parser only what that algorithm cannot decide.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers up to 2^53 survive the f64 round trip).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it survives the f64 round
    /// trip without truncation (JSON integers up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// An object with `members` in the given order.
    pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Required member `key`, read by `read`: an `Err` naming the member
    /// when it is missing or `read` finds it is not `kind`. The typed
    /// accessors below are the record decoders' only way into a value;
    /// the public ones also decode the `stats` payload in `aqp top`.
    fn field<'v, T>(
        &'v self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} must be {kind}"))
    }

    /// Required string member.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Value::as_str)
    }

    /// Required boolean member.
    pub(crate) fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a bool", Value::as_bool)
    }

    /// Required integer member (see [`Value::as_u64`]).
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key, "a non-negative integer", Value::as_u64)
    }

    /// Required non-negative number member.
    pub(crate) fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a non-negative number", |v| {
            v.as_f64().filter(|n| *n >= 0.0)
        })
    }

    /// Required array member, every element decoded by `read`; an error
    /// names the element (`key[i]: …`).
    pub fn items<T>(
        &self,
        key: &str,
        mut read: impl FnMut(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.field(key, "an array", Value::as_arr)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| read(item).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }

    /// Serialize this value as a compact JSON document. Numbers use the
    /// same shortest round-trip formatting as [`write_f64`], so
    /// `parse(v.to_json()) == v` for any finite tree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append this value's JSON encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Append a JSON string literal (with escaping) to `out`. Runs between
/// escaped characters are copied whole; a string with nothing to escape
/// (the usual label or key) is found so by one branch-free pass and
/// copied in one piece.
pub fn write_escaped(out: &mut String, s: &str) {
    let plain = !s.bytes().fold(false, |escape, b| escape | (b < 0x20) | (b == b'"') | (b == b'\\'));
    out.reserve(s.len() + 2);
    out.push('"');
    if plain {
        out.push_str(s);
        out.push('"');
        return;
    }
    // Start of the run not yet copied. Every byte that needs an escape is
    // ASCII, so the run always ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        match escape {
            Some(short) => out.push_str(short),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Format an `f64` so it parses back bit-identically; non-finite values
/// become `null` per JSON.
///
/// The text is exactly `format!("{v}")`: the shortest digits that parse
/// back to `v` (the closest such digits when several qualify, rounded up
/// on an exact tie), laid out without an exponent. The digits come from
/// Ryu (Adams, PLDI 2018); an integral value below 2^53 in magnitude
/// (counts, row totals, every exact COUNT) is its own shortest form and
/// skips it. The unit tests `ryu_writes_what_display_writes` (every
/// boundary class, 10^6 random bit patterns when optimised) and
/// `integral_shortcut_writes_what_display_writes` hold the bytes to
/// std's, and `tests/codec_wire.rs` whole answer frames.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // The round trip through `i64` tests integrality without a libm
    // `trunc` call. `-0.0` takes this path too: its sign comes from the
    // bits.
    let (digits, exp) = if v.abs() < 9_007_199_254_740_992.0 && v as i64 as f64 == v {
        ((v as i64).unsigned_abs(), 0)
    } else {
        shortest(v.to_bits())
    };
    write_decimal(out, v.is_sign_negative(), digits, exp);
}

/// Append `±digits × 10^exp` the way `f64`'s `Display` lays it out:
/// no exponent, zeros padding the integer part or leading the fraction.
/// Every layout up to 40 bytes is built in one stack buffer and copied
/// with one `push_str`; only numbers below 1e-20 or above 1e23 in
/// magnitude push their padding zeros separately.
fn write_decimal(out: &mut String, negative: bool, digits: u64, exp: i32) {
    const CAP: usize = 40;
    let mut buf = [b'0'; CAP];
    let sign = usize::from(negative);
    if negative {
        buf[0] = b'-';
    }
    let n = digits.checked_ilog10().map_or(1, |log| log as usize + 1);
    let len = if exp >= 0 {
        // digits, then `exp` zeros
        let zeros = exp as usize;
        if sign + n + zeros > CAP {
            write_digits(&mut buf[sign..sign + n], digits);
            out.push_str(ascii(&buf[..sign + n]));
            push_zeros(out, zeros);
            return;
        }
        write_digits(&mut buf[sign..sign + n], digits);
        sign + n + zeros
    } else if n as i32 + exp > 0 {
        // int.frac: write all digits one place right, then move the
        // integer part back over the point's slot (a short loop beats a
        // `memmove` call)
        let int = (n as i32 + exp) as usize;
        write_digits(&mut buf[sign + 1..sign + 1 + n], digits);
        for k in sign..sign + int {
            buf[k] = buf[k + 1];
        }
        buf[sign + int] = b'.';
        sign + n + 1
    } else {
        // 0.000digits
        let zeros = (-exp) as usize - n;
        buf[sign + 1] = b'.';
        if sign + 2 + zeros + n > CAP {
            out.push_str(ascii(&buf[..sign + 2]));
            push_zeros(out, zeros);
            write_digits(&mut buf[..n], digits);
            out.push_str(ascii(&buf[..n]));
            return;
        }
        let end = sign + 2 + zeros + n;
        write_digits(&mut buf[end - n..end], digits);
        end
    };
    out.push_str(ascii(&buf[..len]));
}

fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: [u8; 64] = [b'0'; 64];
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.push_str(ascii(&ZEROS[..run]));
        n -= run;
    }
}

/// The formatter's buffers hold only ASCII digits, signs and points.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("ASCII digits")
}

/// `"00" "01" … "99"`: two digits per division.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Fill `buf` with the low `buf.len()` decimal digits of `v`: the last
/// eight from a `u32` cut off first, so the two halves' divisions do not
/// wait on each other.
fn write_digits(buf: &mut [u8], v: u64) {
    let n = buf.len();
    if n > 8 {
        let (high, low) = (v / 100_000_000, (v % 100_000_000) as u32);
        let (left, right) = (low / 10_000, low % 10_000);
        for (k, pair) in [left / 100, left % 100, right / 100, right % 100]
            .into_iter()
            .enumerate()
        {
            let at = n - 8 + 2 * k;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair as usize * 2..pair as usize * 2 + 2]);
        }
        write_pairs(&mut buf[..n - 8], high);
    } else {
        write_pairs(buf, v);
    }
}

/// Fill `buf` with the low `buf.len()` decimal digits of `v`, two at a
/// time from the right.
fn write_pairs(buf: &mut [u8], mut v: u64) {
    let mut end = buf.len();
    while end >= 2 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        buf[0] = b'0' + (v % 10) as u8;
    }
}

/// Bits kept of each power of five in Ryu's multiplier tables.
const POW5_BITS: i32 = 125;
/// Ryu's `5^i`, for `i` in `0..326`.
static POW5: [u128; 326] = pow5_table(POW5_BITS, false, usize::MAX);
/// Ryu's `5^-i`, for `i` in `0..342`.
static POW5_INV: [u128; 342] = pow5_table(POW5_BITS, true, usize::MAX);
/// Eisel–Lemire's `5^q`, for `q` in `0..=308`: truncated to 128 bits.
static POW5_128: [u128; 309] = pow5_table(128, false, 0);
/// Eisel–Lemire's `5^-q`, for `q` in `0..=342`: rounded up while `5^q`
/// fits in a `u64` (where the product can be exact), truncated past it.
static POW5_INV_128: [u128; 343] = pow5_table(128, true, 27);

/// Enough 64-bit limbs for `2^922`, the largest dividend [`pow5_table`]
/// needs (`5^342` has 795 bits).
const LIMBS: usize = 15;

/// A table of powers of five cut to `bits` significant bits, computed
/// exactly on little-endian limbs at compile time. Entry `i` of a
/// forward table is `5^i` cut or zero-padded to `bits` bits; of an
/// inverse table, `⌊2^(bits(5^i) - 1 + bits) / 5^i⌋`, plus one for
/// `i ≤ round_up`. The quotient is taken by dividing repeatedly by
/// `5^27`, the largest power of five in a `u64` (`⌊⌊x/a⌋/b⌋ = ⌊x/ab⌋`).
const fn pow5_table<const N: usize>(bits: i32, inverse: bool, round_up: usize) -> [u128; N] {
    let mut table = [0u128; N];
    let mut pow5 = [0u64; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < N {
        let len = big_bits(&pow5) as i32;
        table[i] = if inverse {
            let mut quotient = [0u64; LIMBS];
            let top = (len - 1 + bits) as usize;
            quotient[top / 64] = 1 << (top % 64);
            let mut left = i as u32;
            while left > 0 {
                let step = if left < 27 { left } else { 27 };
                big_div_small(&mut quotient, 5u64.pow(step));
                left -= step;
            }
            big_window(&quotient, 0) + (i <= round_up) as u128
        } else if len < bits {
            big_window(&pow5, 0) << (bits - len)
        } else {
            big_window(&pow5, (len - bits) as u32)
        };
        big_mul_small(&mut pow5, 5);
        i += 1;
    }
    table
}

const fn big_bits(x: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + 64 - x[i].leading_zeros();
        }
    }
    0
}

const fn big_mul_small(x: &mut [u64; LIMBS], m: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let wide = x[i] as u128 * m as u128 + carry;
        x[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
}

const fn big_div_small(x: &mut [u64; LIMBS], d: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let wide = (rem << 64) | x[i] as u128;
        x[i] = (wide / d as u128) as u64;
        rem = wide % d as u128;
    }
}

/// Bits `shift..shift + 128` of `x`. The tables' windows stay below its
/// top limb, so every limb read exists (const evaluation would stop the
/// build otherwise).
const fn big_window(x: &[u64; LIMBS], shift: u32) -> u128 {
    let (limb, bit) = ((shift / 64) as usize, shift % 64);
    let low = (x[limb] as u128 | (x[limb + 1] as u128) << 64) >> bit;
    if bit == 0 {
        low
    } else {
        low | (x[limb + 2] as u128) << (128 - bit)
    }
}

/// `⌊m · mul / 2^j⌋` for a 125-bit table entry `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `e` in `0..=3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊log10 5^e⌋`, for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// Whether `5^p` divides `v`, for `p` in `0..=21` (so `5^p` fits).
fn multiple_of_pow5(v: u64, p: i32) -> bool {
    v.is_multiple_of(5u64.pow(p as u32))
}

/// Ryu's shortest decimal `(digits, exp)` with `digits × 10^exp` the
/// closest of the shortest digit strings that read back as the finite,
/// nonzero double with these bits; an exact tie rounds the digits up.
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: i32 = 52;
    const BIAS: i32 = 1023;
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let biased = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // value = m2 · 2^e2, with two extra bits for the interval's ends
    let (e2, m2) = if biased == 0 {
        (1 - BIAS - MANTISSA_BITS - 2, mantissa)
    } else {
        (
            biased - BIAS - MANTISSA_BITS - 2,
            mantissa | 1 << MANTISSA_BITS,
        )
    };
    // An even mantissa rounds to itself from either end of its interval
    // (round-half-even reading), so the ends are inside.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || biased <= 1);

    // The interval (mm, mp) around mv, scaled to a decimal power.
    let (mut vr, mut vp, mut vm, e10);
    // Whether the exact lower end, scaled, ends in the zeros the loop
    // below drops. (Ryu also tracks this for vr, to round an exact tie
    // to even; `Display` rounds a tie up, which needs no tracking.)
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let j = -e2 + q + k;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q - k;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing zero bit iff
                // mm_shift is 1.
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds two candidates.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // Rare: the lower end is inside and may allow more digits to go.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(outside || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Consume the decimal digits from `pos` on, folding them into
/// `mantissa` (wrapping: past 19 digits the caller does not use it), and
/// return the position after them. Eight digits at a time are checked
/// and combined as one little-endian word (the SWAR step std's parser
/// takes too).
fn fold_digits(bytes: &[u8], mut pos: usize, mantissa: &mut u64) -> usize {
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // Every byte in b'0'..=b'9': neither adding 0x46 nor subtracting
        // 0x30 carries into its top bit.
        let high = (word.wrapping_add(0x4646_4646_4646_4646)
            | word.wrapping_sub(0x3030_3030_3030_3030))
            & 0x8080_8080_8080_8080;
        if high != 0 {
            break;
        }
        // Pairs, then quads, then the eight: 10·d + d', 100·p + p', ...
        let digits = word - 0x3030_3030_3030_3030;
        let pairs = digits * 10 + (digits >> 8);
        let low = (pairs & 0x0000_00FF_0000_00FF).wrapping_mul(100 + (1_000_000 << 32));
        let high = ((pairs >> 16) & 0x0000_00FF_0000_00FF).wrapping_mul(1 + (10_000 << 32));
        let eight = u64::from((low.wrapping_add(high) >> 32) as u32);
        *mantissa = mantissa.wrapping_mul(100_000_000).wrapping_add(eight);
        pos += 8;
    }
    while let Some(d) = bytes
        .get(pos)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|d| *d <= 9)
    {
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d));
        pos += 1;
    }
    pos
}

/// `w × 10^q` correctly rounded, by Eisel–Lemire (Lemire, "Number
/// parsing at a gigabyte per second", 2021, as in std's `dec2flt`):
/// `w`, normalised, times a 128-bit `5^q` gives the double's 54 top bits
/// and whether the bits below could still move them. `None` where they
/// could, or where the value is not a finite double; the caller then
/// asks std. Zero and subnormals round here too.
fn eisel_lemire(w: u64, q: i32) -> Option<f64> {
    const MANTISSA_BITS: i32 = 52;
    if w == 0 || q < -342 {
        return Some(0.0);
    }
    if q > 308 {
        return None;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = if q >= 0 {
        POW5_128[q as usize]
    } else {
        POW5_INV_128[q.unsigned_abs() as usize]
    };
    // The product's top 64 bits, refined by the table entry's low half
    // when the bits that decide rounding are all ones.
    let mask = u64::MAX >> (MANTISSA_BITS + 3);
    let first = u128::from(w) * (pow5 >> 64);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & mask == mask {
        let second_hi = ((u128::from(w) * u128::from(pow5 as u64)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        hi += u64::from(second_hi > lo);
    }
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 64 - MANTISSA_BITS - 3;
    let mut mantissa = hi >> shift;
    // ⌊log2 10^q⌋ + 63, then the bias.
    let mut power2 = ((q * (152_170 + 65_536)) >> 16) + 63 + upper - lz as i32 + 1023;
    if power2 <= 0 {
        if -power2 + 1 >= 64 {
            return Some(0.0);
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding up may carry into the smallest normal exponent.
        let biased = u64::from(mantissa >= 1 << MANTISSA_BITS);
        return Some(f64::from_bits(mantissa | biased << MANTISSA_BITS));
    }
    // An exact halfway product (only possible for small |q|) rounds to
    // even: drop the bit that would round it up.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        power2 += 1;
    }
    if power2 >= 0x7ff {
        return None;
    }
    let fraction = mantissa & !(1 << MANTISSA_BITS);
    Some(f64::from_bits(fraction | (power2 as u64) << MANTISSA_BITS))
}

// The reader's errors, built out of line: its hot paths only test for
// them.
#[cold]
#[inline(never)]
fn end_of_input() -> String {
    "unexpected end of input".into()
}

#[cold]
#[inline(never)]
fn expected(b: u8, at: usize) -> String {
    format!("expected '{}' at offset {at}", char::from(b))
}

/// Containers nested deeper than this are rejected: the reader recurses
/// once per level, and a frame of 16 M `[` must not overflow the stack.
const MAX_DEPTH: usize = 128;

/// A strict pull tokenizer over one JSON document, linear in its length.
///
/// The input is already `&str`, and every cut the reader makes falls on
/// an ASCII byte, so strings and numbers are sliced out without being
/// validated again. [`parse`] builds a [`Value`] tree on it; a decoder
/// that knows its schema drives it directly ([`Reader::try_object`],
/// [`Reader::try_array`], the scalar readers) and allocates only what it
/// keeps. The `try_*` readers consume the next value whatever it is and
/// report a value of another type as `None`/`false`, which is how a
/// lenient decoder says "absent or mistyped means the default".
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader { src: input, pos: 0, depth: 0 }
    }

    /// Skip whitespace and return the first byte of the next value.
    /// Inlined, as every token starts here; the errors are built out of
    /// line.
    #[inline]
    fn peek(&mut self) -> Result<u8, String> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Ok(b);
            }
            self.pos += 1;
        }
        Err(end_of_input())
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.src.as_bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(expected(b, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Nothing but whitespace may follow the document's one value.
    pub fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("trailing bytes at offset {}", self.pos)),
        }
    }

    /// Read the next value as a tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => {
                let mut members = Vec::new();
                self.try_object(|r, key| {
                    members.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.try_array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            b'"' => Ok(Value::Str(self.string()?.into_owned())),
            b't' => self.literal("true").map(|()| Value::Bool(true)),
            b'f' => self.literal("false").map(|()| Value::Bool(false)),
            b'n' => self.literal("null").map(|()| Value::Null),
            _ => self.number().map(Value::Num),
        }
    }

    /// Read the next value and drop it, validated like any other but
    /// building nothing.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            b'{' => self.try_object(|r, _| r.skip()).map(drop),
            b'[' => self.try_array(Self::skip).map(drop),
            b'"' => self.string().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            _ => self.number().map(drop),
        }
    }

    /// The next value if it is a string, borrowed from the input when it
    /// has no escapes; any other value is skipped.
    pub fn try_str(&mut self) -> Result<Option<std::borrow::Cow<'a, str>>, String> {
        match self.peek()? {
            b'"' => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is a number; any other value is skipped.
    pub fn try_f64(&mut self) -> Result<Option<f64>, String> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is a boolean; any other value is skipped.
    pub fn try_bool(&mut self) -> Result<Option<bool>, String> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| Some(true)),
            b'f' => self.literal("false").map(|()| Some(false)),
            _ => self.skip().map(|()| None),
        }
    }

    /// If the next value is an array, call `each` positioned at every
    /// element in turn (it must consume exactly that element) and return
    /// `true`; any other value is skipped and `false` returned.
    pub fn try_array(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.try_container(b'[', b']', each)
    }

    /// If the next value is an object, call `each` with every member's
    /// key, positioned at that member's value (it must consume exactly
    /// that value), and return `true`; any other value is skipped and
    /// `false` returned. Keys without escapes are borrowed from the input.
    pub fn try_object(
        &mut self,
        mut each: impl FnMut(&mut Self, std::borrow::Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.try_container(b'{', b'}', |r| {
            let key = r.string()?;
            r.peek()?;
            r.expect(b':')?;
            each(r, key)
        })
    }

    /// The comma-separated items between `open` and `close`, each read by
    /// `item` (called after leading whitespace); `false`, with the value
    /// skipped, when the next value does not start with `open`.
    fn try_container(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek()? != open {
            return self.skip().map(|()| false);
        }
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                self.peek()?;
                item(self)?;
                let next = self.peek()?;
                self.pos += 1;
                if next == close {
                    break;
                }
                if next != b',' {
                    return Err(format!(
                        "expected ',' or '{}' at offset {}",
                        char::from(close),
                        self.pos - 1
                    ));
                }
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    /// A number token, held to JSON's grammar
    /// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`) as it is read.
    /// The digits are folded into a mantissa on the way, eight at a time
    /// where they run that long; up to 19 of them are rounded to a double
    /// by [`eisel_lemire`]. A longer mantissa, or one that algorithm
    /// cannot round with certainty, goes to std's parser.
    fn number(&mut self) -> Result<f64, String> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let mut mantissa = 0u64;
        let int_start = start + usize::from(negative);
        let mut pos = fold_digits(bytes, int_start, &mut mantissa);
        let int_digits = pos - int_start;
        let mut valid = int_digits == 1 || (int_digits > 1 && bytes[int_start] != b'0');
        let mut frac_digits = 0;
        if valid && bytes.get(pos) == Some(&b'.') {
            let frac_start = pos + 1;
            pos = fold_digits(bytes, frac_start, &mut mantissa);
            frac_digits = pos - frac_start;
            valid = frac_digits > 0;
        }
        let mut exponent = 0i32;
        if valid && matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            let sign = if bytes.get(pos) == Some(&b'-') { -1 } else { 1 };
            pos += usize::from(matches!(bytes.get(pos), Some(b'+' | b'-')));
            let first = pos;
            while let Some(d) = bytes
                .get(pos)
                .map(|b| b.wrapping_sub(b'0'))
                .filter(|d| *d <= 9)
            {
                exponent = (exponent * 10 + i32::from(d)).min(100_000);
                pos += 1;
            }
            valid = pos > first;
            exponent *= sign;
        }
        if !valid {
            // Name the whole run of number characters, as a reader of the
            // message would delimit the token.
            let end = start
                + bytes[start..]
                    .iter()
                    .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                    .count();
            return Err(format!(
                "invalid number {:?} at offset {start}",
                &self.src[start..end]
            ));
        }
        self.pos = pos;
        // Past 19 digits the folded mantissa has wrapped.
        let rounded = (int_digits + frac_digits <= 19)
            .then(|| eisel_lemire(mantissa, exponent - frac_digits as i32))
            .flatten();
        let magnitude = match rounded {
            Some(magnitude) => magnitude,
            None => {
                let text = &self.src[start..pos];
                return match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => Ok(n),
                    _ => Err(format!("invalid number {text:?} at offset {start}")),
                };
            }
        };
        Ok(if negative { -magnitude } else { magnitude })
    }

    /// A string token with escapes resolved. A string without escapes
    /// (every key and label a frame carries) is found in one scan and
    /// borrowed; [`Reader::unescape`] takes the rest.
    #[inline]
    fn string(&mut self) -> Result<std::borrow::Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        match self.src.as_bytes()[start..].iter().position(|&b| b == b'"' || b == b'\\') {
            Some(run) if self.src.as_bytes()[start + run] == b'"' => {
                self.pos = start + run + 1;
                // The stop byte is ASCII, so the run ends on a char boundary.
                Ok(std::borrow::Cow::Borrowed(&self.src[start..start + run]))
            }
            _ => self.unescape(),
        }
    }

    /// The rest of a string token that has an escape, or no end. Each run
    /// up to the next `"` or `\` is taken in one step.
    #[inline(never)]
    fn unescape(&mut self) -> Result<std::borrow::Cow<'a, str>, String> {
        use std::borrow::Cow;
        let bytes = self.src.as_bytes();
        // Allocated at the first escape.
        let mut unescaped: Option<String> = None;
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            // Both stop bytes are ASCII, so the run ends on a char boundary.
            let text = &self.src[self.pos..self.pos + run];
            self.pos += run + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(text);
            let escape = *bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
            });
        }
    }

    /// The scalar of a `\uXXXX` escape whose `\u` is already consumed. A
    /// high surrogate followed by an escaped low surrogate is one scalar
    /// (how every standard encoder writes a character beyond the BMP); a
    /// surrogate without its partner becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
            }
            // Not a low surrogate: leave that escape for the next round.
            self.pos = after_high;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0u32;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a\u{1f600}b");
        // A half without its partner is U+FFFD; what follows is kept.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert!(parse(r#""\ud83d\u12""#).is_err());
        assert!(parse(r#""\u+123""#).is_err(), "sign is not a hex digit");
    }

    #[test]
    fn rejects_numbers_json_does_not_have() {
        assert!(parse("+1").is_err());
        assert!(parse("[+1]").is_err());
        assert!(parse("1e999").is_err(), "parses to infinity");
        assert!(parse("-1e999").is_err());
        assert!(parse("1e+2").is_ok(), "a sign inside the exponent is JSON");
        assert_eq!(parse("-0").unwrap().as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    /// The grammar is JSON's, and every number it admits reads as std's
    /// correctly rounded parser reads it, on either side of the fast path.
    #[test]
    fn numbers_follow_the_grammar_and_read_as_std_reads_them() {
        for bad in [
            "01", "-01", ".5", "-.5", "1.", "-", "1e", "1e+", "1.e3", "0x1", "--1", "1.5.2",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(parse(&format!("[{bad}]")).is_err(), "[{bad}]");
        }
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "0.0",
            "1",
            "9007199254740992",
            "9007199254740993",
            "123.456",
            "1e22",
            "1e23",
            "-2.5e-22",
            "4.9e-324",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "0.30000000000000004",
            "12345678901234567890",
            "0.000001234",
            "1E+2",
            "7e-0",
        ]
        .map(String::from)
        .to_vec();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..20_000 {
            let (a, b) = (next(), next());
            let digits = (a % 10u64.pow((b % 19) as u32 + 1)).to_string();
            let point = (b >> 8) as usize % (digits.len() + 1);
            let (int, frac) = digits.split_at(point);
            let int = if int.is_empty() {
                "0"
            } else {
                int.trim_start_matches('0')
            };
            let int = if int.is_empty() { "0" } else { int };
            let mut text = if frac.is_empty() {
                int.to_string()
            } else {
                format!("{int}.{frac}")
            };
            if b & 1 == 1 {
                text.push_str(&format!("e{}", (b >> 32) as i32 % 40));
            }
            texts.push(text);
            texts.push(format!("{}", f64::from_bits(next())));
        }
        for text in texts {
            let want: f64 = text.parse().unwrap();
            if !want.is_finite() {
                continue;
            }
            let got = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(
                got.as_f64().map(f64::to_bits),
                Some(want.to_bits()),
                "{text}"
            );
        }
    }

    /// Eisel–Lemire rounds as std does wherever it answers, and answers
    /// nearly everywhere: halfway cases, subnormals, both ends of the range.
    #[test]
    fn eisel_lemire_rounds_as_std_does() {
        let mut cases = vec![
            (9_007_199_254_740_993, 0),
            (9_007_199_254_740_995, 0),
            (24_703_282_292_062_327, -340),
            (24_703_282_292_062_328, -340),
            (49_406_564_584_124_654, -340),
            (22_250_738_585_072_014, -324),
            (17_976_931_348_623_157, 292),
            (17_976_931_348_623_159, 292),
            (1, 23),
            (1, -342),
            (1, 308),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..200_000 {
            let w = next() % 10u64.pow((next() % 18) as u32 + 1);
            cases.push((w, (next() % 680) as i32 - 350));
        }
        let mut answered = 0;
        for &(w, q) in &cases {
            let want: f64 = format!("{w}e{q}").parse().unwrap();
            match eisel_lemire(w, q) {
                Some(got) => {
                    answered += 1;
                    assert_eq!(got.to_bits(), want.to_bits(), "{w}e{q}");
                }
                None => assert!(want.is_infinite() || w != 0, "{w}e{q}"),
            }
        }
        assert!(
            answered * 100 > cases.len() * 95,
            "{answered} of {}",
            cases.len()
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err(), "no stack overflow");
    }

    #[test]
    fn reader_streams_a_known_schema() {
        let doc = r#" {"n": 3, "skip": {"deep": [1, "x"]}, "flags": [true, 7, false], "k\n": "v"} "#;
        let mut r = Reader::new(doc);
        let (mut n, mut flags, mut borrowed, mut last) = (None, Vec::new(), 0, String::new());
        let was_object = r
            .try_object(|r, key| {
                borrowed += usize::from(matches!(key, std::borrow::Cow::Borrowed(_)));
                match &*key {
                    "n" => n = r.try_f64()?,
                    "flags" => {
                        r.try_array(|r| {
                            flags.push(r.try_bool()?);
                            Ok(())
                        })?;
                    }
                    other => {
                        last = other.to_string();
                        r.skip()?;
                    }
                }
                Ok(())
            })
            .unwrap();
        r.finish().unwrap();
        assert!(was_object);
        assert_eq!(n, Some(3.0));
        assert_eq!(flags, vec![Some(true), None, Some(false)], "a mistyped element reads as None");
        assert_eq!(borrowed, 3, "keys without escapes are slices of the input");
        assert_eq!(last, "k\n");

        // A value of another type is consumed whole and reported as absent.
        let mut r = Reader::new(r#"[{"a": 1}, "s"]"#);
        let mut seen = Vec::new();
        r.try_array(|r| {
            seen.push(r.try_array(|_| unreachable!("not an array"))?);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![false, false]);
        assert!(Reader::new("[1 2]").try_array(|r| r.skip()).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ unicode: ≈ \u{1}";
        let mut enc = String::new();
        write_escaped(&mut enc, original);
        let back = parse(&enc).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn value_writer_round_trips() {
        let v = Value::Obj(vec![
            ("op".into(), Value::Str("query".into())),
            ("n".into(), Value::Num(2.5)),
            ("flags".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("esc".into(), Value::Str("a\"b\nc".into())),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let enc = v.to_json();
        assert_eq!(parse(&enc).unwrap(), v);
        assert!(enc.starts_with("{\"op\":\"query\""), "{enc}");
        assert_eq!(Value::from(3u64).as_u64(), Some(3));
        assert_eq!(Value::Num(2.5).as_u64(), None);
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn f64_shortest_display_round_trips() {
        let integral = [0.0, -0.0, 1.0, -7.0, 34256.0, 1e15, -1e15, 1e22];
        let fractional = [1.5, 0.1, 123456.789, 1e-9, f64::MAX, 2.2250738585072014e-308, 5e-324];
        for v in integral.into_iter().chain(fractional) {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
    }

    /// `write_f64` against `format!("{v}")` on every boundary class of
    /// the shortest-digits search, then on random bit patterns: 10^6 in
    /// an optimised build, fewer in a debug one.
    #[test]
    fn ryu_writes_what_display_writes() {
        let mut cases = vec![0.0, -0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON];
        // Every power of two and its neighbours, normal and subnormal.
        for e in -1074..=1023 {
            let p = 2f64.powi(e);
            cases.extend([p, p.next_up(), p.next_down()]);
        }
        // Every power of ten a double can hold, and its neighbours.
        for e in -323..=308 {
            let p: f64 = format!("1e{e}").parse().unwrap();
            cases.extend([p, p.next_up(), p.next_down()]);
        }
        // Where the integral shortcut ends, and past 2^53 where doubles
        // skip integers.
        let two53 = 9_007_199_254_740_992.0;
        cases.extend([
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
        ]);
        cases.extend([two53 + 4.0, 2.0 * two53 + 4.0, 1e15 + 0.5, 1e15 - 0.25]);
        // Subnormals with one or all mantissa bits set.
        for k in 0..52 {
            cases.extend([
                f64::from_bits(1 << k),
                f64::from_bits((1u64 << (k + 1)) - 1),
            ]);
        }
        // Exact ties: a quarter or an eighth past an integer where the
        // ulp is that fraction, so two 17-digit strings are equally near.
        for base in [
            1u64 << 50,
            1 << 49,
            (1 << 51) - 7,
            1_125_899_906_842_624 + 12_345,
        ] {
            for frac in [0.25, 0.75, 0.125, 0.375, 0.625, 0.875] {
                cases.push(base as f64 + frac);
            }
        }
        // Shortest forms of 17 digits.
        cases.extend([0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, std::f64::consts::PI, 1e23]);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let random = if cfg!(debug_assertions) {
            50_000
        } else {
            1_000_000
        };
        let mut seventeen = 0;
        for _ in 0..random {
            cases.push(f64::from_bits(next()));
        }
        let mut s = String::new();
        for v in cases.into_iter().filter(|v| v.is_finite()) {
            for v in [v, -v] {
                s.clear();
                write_f64(&mut s, v);
                let want = format!("{v}");
                assert_eq!(s, want, "{v:e} (bits {:#x})", v.to_bits());
                seventeen += usize::from(format!("{v:e}").split('e').next().unwrap().len() == 18);
            }
        }
        assert!(
            seventeen > random / 2,
            "{seventeen} shortest forms of 17 digits"
        );
    }

    #[test]
    fn integral_shortcut_writes_what_display_writes() {
        let two53 = 9_007_199_254_740_992.0;
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e15,
            -1e15,
            1e15 - 1.0,
            1e15 + 1.0,
            -(1e15 - 1.0),
            1e15 - 0.5,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            -two53,
            1e16,
            1e21,
            -1e21,
            5e-324,
            -5e-324,
            2.225_073_858_507_201e-308,
            f64::MIN_POSITIVE,
            0.5,
            -0.5,
            f64::MAX,
            f64::MIN,
        ];
        // xorshift64*: integers of every magnitude below 2^53, and fractions.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..20_000 {
            let bits = next();
            let magnitude = (bits % 54) as u32;
            let int = (next() >> (64 - magnitude.max(1))) as f64;
            let sign = if bits & (1 << 63) != 0 { -1.0 } else { 1.0 };
            cases.push(sign * int);
            cases.push(sign * int / 1024.0);
            cases.push(f64::from_bits(next()));
        }
        for v in cases.into_iter().filter(|v| v.is_finite()) {
            let mut s = String::new();
            write_f64(&mut s, v);
            assert_eq!(s, format!("{v}"), "{v:e}");
        }
        let mut s = String::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.clear();
            write_f64(&mut s, v);
            assert_eq!(s, "null");
        }
    }
}
