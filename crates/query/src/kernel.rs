//! Vectorised morsel kernels: the batch-at-a-time scan executor.
//!
//! [`run_morsel_vectorized`] produces, for one morsel, *exactly* the
//! partial group map the scalar [`crate::exec::Scan::run_range`] loop
//! produces — same keys, bit-identical [`AggState`]s, even the same map
//! layout — but computes it column-at-a-time:
//!
//! 1. **Selection** — [`crate::selection::build_selection`] turns the
//!    bitmask exclusion filter and the compiled predicate into a dense
//!    vector of surviving row numbers (ascending).
//! 2. **Group ids** — every selected row gets a small integer group id.
//!    When *all* group-by columns are dictionary- or boolean-coded (the
//!    small-group sampling case by construction: group-by columns are the
//!    low-cardinality dimension attributes the strata were built over),
//!    the [`DensePlan`] maps the composite key arithmetically — a
//!    mixed-radix number over per-column digits `code` (or `cardinality`
//!    for NULL) — and aggregation lands in a flat epoch-reset array with
//!    **no hashing at all**. Otherwise keys are interned into a
//!    [`FxHashMap`] once per distinct group per morsel, with the per-row
//!    codes extracted by typed columnar kernels.
//! 3. **Aggregation** — one monomorphised kernel per (aggregate input ×
//!    column type × [`Weighting`]) accumulates over the selection with
//!    the function match, `Option` unwrap, and weight dispatch hoisted
//!    out of the loop. All kernels call the one [`AggState::update`]
//!    routine — never a specialised w == 1 shortcut — because the update
//!    arithmetic (`w*(w-1)*x²` and friends) must round identically to the
//!    scalar path for the bit-identical determinism contract to hold.
//!
//! Determinism argument, in full: the selection vector is the exact
//! ascending row set the scalar loop visits; per (group, aggregate) the
//! updates happen in the same ascending-row order (kernels iterate the
//! selection in order, one aggregate at a time — reordering *across*
//! aggregates is harmless because different `AggState`s never interact);
//! morsel boundaries and the morsel-order fold in `exec` are untouched.
//! Every float operation therefore sees the same operands in the same
//! order as the scalar path, and the result is bit-identical — which the
//! differential suites (`tests/diff_parallel.rs`, `tests/prop_kernels.rs`,
//! and the 240-seed regression) verify end to end.

use crate::exec::{AggStep, Scan, Weighting};
use crate::hash::FxHashMap;
use crate::output::AggState;
use crate::selection::build_selection;
use crate::source::{canonical_f64_bits, ResolvedColumn};
use aqp_storage::{Column, NullMask};
use std::cell::RefCell;

/// Maximum grouping columns handled by the compact fixed-size key. Queries
/// with more grouping columns still work via the heap-allocated fallback.
pub(crate) const MAX_FAST_KEY: usize = 6;

/// Cap on dense-path slots (flat accumulator entries = slots × aggregates).
/// Beyond this the hash fallback wins on reset cost and cache footprint.
const DENSE_SLOTS_MAX: usize = 1 << 13;

/// Compact or heap-allocated group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey {
    /// Up to [`MAX_FAST_KEY`] per-column codes plus a null bitmap.
    Fast {
        /// Per-column codes from [`ResolvedColumn::key_code`].
        codes: [u64; MAX_FAST_KEY],
        /// Bit `i` set = column `i` is NULL in this key.
        nulls: u8,
        /// Number of live columns.
        len: u8,
    },
    /// Arbitrary-arity fallback of `(code, is_null)` pairs.
    Slow(Vec<(u64, bool)>),
}

/// A partial (or merged) group map. Keyed by the deterministic
/// [`crate::hash::FxHasher`], so iteration order — not just content — is a
/// pure function of the insertion sequence (see the `hash` module docs).
pub(crate) type GroupMap = FxHashMap<GroupKey, Vec<AggState>>;

/// Arithmetic composite-key → dense-group-id mapping.
///
/// Built once per scan when every group-by column is dictionary-encoded
/// (`Utf8`) or boolean and the total slot count stays under
/// [`DENSE_SLOTS_MAX`]. Column `i` contributes digit
/// `code(row)` (or `cards[i]` for NULL — one extra digit per column) with
/// place value `strides[i]`; the id is the mixed-radix sum. Ungrouped
/// queries get the trivial plan with one slot.
#[derive(Debug, Clone)]
pub(crate) struct DensePlan {
    /// Dictionary cardinality per group column; the NULL digit equals it.
    cards: Vec<u32>,
    /// Place value per group column (`∏ (cards[j]+1)` for `j < i`).
    strides: Vec<u32>,
    /// Total addressable group ids (`∏ (cards[i]+1)`).
    pub(crate) slots: usize,
}

impl DensePlan {
    /// Build a plan if every group column is dense-codable and the slot
    /// product stays within bounds; `None` sends the scan down the
    /// hash-interning fallback.
    pub(crate) fn build(group_cols: &[ResolvedColumn<'_>]) -> Option<DensePlan> {
        if group_cols.len() > MAX_FAST_KEY {
            return None;
        }
        let mut cards = Vec::with_capacity(group_cols.len());
        let mut strides = Vec::with_capacity(group_cols.len());
        let mut slots: usize = 1;
        for col in group_cols {
            let card: u32 = match col.column {
                Column::Utf8 { dict, .. } => u32::try_from(dict.len()).ok()?,
                Column::Bool { .. } => 2,
                _ => return None,
            };
            strides.push(slots as u32);
            slots = slots.checked_mul(card as usize + 1)?;
            if slots > DENSE_SLOTS_MAX {
                return None;
            }
            cards.push(card);
        }
        Some(DensePlan {
            cards,
            strides,
            slots,
        })
    }

    /// Decode a dense group id back into the [`GroupKey`] the scalar path
    /// would have built for the same row — digit `cards[i]` becomes the
    /// NULL bit, any other digit is the dictionary/bool code verbatim.
    fn decode_gid(&self, gid: u32) -> GroupKey {
        let mut codes = [0u64; MAX_FAST_KEY];
        let mut nulls = 0u8;
        for (i, (&card, &stride)) in self.cards.iter().zip(&self.strides).enumerate() {
            let digit = (gid / stride) % (card + 1);
            if digit == card {
                nulls |= 1 << i;
            } else {
                codes[i] = digit as u64;
            }
        }
        GroupKey::Fast {
            codes,
            nulls,
            len: self.cards.len() as u8,
        }
    }
}

/// Reusable per-thread buffers. Workers are scoped threads that process
/// many morsels; keeping the selection vector, group-id lanes, and the
/// dense accumulator (with its epoch-based lazy reset) across morsels is
/// what makes the dense path cheap — the flat state array is only
/// re-initialised slot-by-slot on first touch, never bulk-zeroed.
#[derive(Default)]
struct Scratch {
    sel: Vec<u32>,
    gids: Vec<u32>,
    // Dense path: flat accumulator + epoch tags + first-touch list.
    dense_states: Vec<AggState>,
    dense_epoch: Vec<u64>,
    touched: Vec<u32>,
    epoch: u64,
    // Hash path: per-morsel key interning + flat state blocks.
    intern: FxHashMap<GroupKey, u32>,
    keys: Vec<GroupKey>,
    flat: Vec<AggState>,
    // Column-major staging for batch key-code extraction.
    key_codes: Vec<u64>,
    key_nulls: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run one morsel through the vectorised pipeline. Returns the partial
/// group map (identical to what the scalar loop builds for the same
/// range, map layout included) and the number of rows that survived the
/// filters. With `use_predicate` false — a zone-map `TakeAll` morsel,
/// where every row is proven to satisfy the predicate — the selection is
/// built from the bitmask stage alone, which by the prune contract keeps
/// exactly the rows the predicate stage would have kept.
pub(crate) fn run_morsel_vectorized(
    scan: &Scan<'_>,
    start: usize,
    end: usize,
    num_aggs: usize,
    use_predicate: bool,
) -> (GroupMap, u64) {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let predicate = if use_predicate { scan.predicate.as_ref() } else { None };
        build_selection(&mut s.sel, start, end, scan.bitmask, predicate);
        let matched = s.sel.len() as u64;
        let map = match &scan.dense {
            Some(plan) => run_dense(scan, plan, s, num_aggs),
            None => run_hash(scan, s, num_aggs),
        };
        (map, matched)
    })
}

/// Dense path: arithmetic group ids into a flat accumulator.
fn run_dense(scan: &Scan<'_>, plan: &DensePlan, s: &mut Scratch, num_aggs: usize) -> GroupMap {
    fill_gids_dense(plan, &scan.group_cols, &s.sel, &mut s.gids);

    // Lazy per-slot reset: a slot whose epoch tag is stale was last used
    // by an earlier morsel; re-initialise it on first touch this morsel.
    s.epoch += 1;
    let epoch = s.epoch;
    if s.dense_epoch.len() < plan.slots {
        s.dense_epoch.resize(plan.slots, 0);
    }
    if s.dense_states.len() < plan.slots * num_aggs {
        s.dense_states.resize(plan.slots * num_aggs, AggState::new());
    }
    s.touched.clear();
    for &g in &s.gids {
        let gi = g as usize;
        if s.dense_epoch[gi] != epoch {
            s.dense_epoch[gi] = epoch;
            for st in &mut s.dense_states[gi * num_aggs..(gi + 1) * num_aggs] {
                *st = AggState::new();
            }
            s.touched.push(g);
        }
    }

    accumulate_aggs(scan, &s.sel, &s.gids, &mut s.dense_states, num_aggs);

    // Compact in first-touch (= ascending first-row) order: the exact
    // insertion sequence the scalar path's `entry` calls produce, so even
    // the partial map's iteration order matches.
    let mut map = GroupMap::default();
    for &g in &s.touched {
        let gi = g as usize;
        map.insert(
            plan.decode_gid(g),
            s.dense_states[gi * num_aggs..(gi + 1) * num_aggs].to_vec(),
        );
    }
    map
}

/// Hash fallback: batch key-code extraction + per-morsel interning, then
/// the same flat-array aggregation kernels as the dense path.
fn run_hash(scan: &Scan<'_>, s: &mut Scratch, num_aggs: usize) -> GroupMap {
    s.intern.clear();
    s.keys.clear();
    s.flat.clear();
    s.gids.clear();
    let ncols = scan.group_cols.len();
    let n = s.sel.len();
    if ncols <= MAX_FAST_KEY {
        // Stage per-column codes column-major, typed kernels per column.
        s.key_codes.clear();
        s.key_codes.resize(ncols * n, 0);
        s.key_nulls.clear();
        s.key_nulls.resize(n, 0);
        for (i, col) in scan.group_cols.iter().enumerate() {
            fill_key_codes(
                col,
                &s.sel,
                &mut s.key_codes[i * n..(i + 1) * n],
                &mut s.key_nulls,
                1 << i,
            );
        }
        for k in 0..n {
            let mut codes = [0u64; MAX_FAST_KEY];
            for (i, c) in codes.iter_mut().enumerate().take(ncols) {
                *c = s.key_codes[i * n + k];
            }
            let key = GroupKey::Fast {
                codes,
                nulls: s.key_nulls[k],
                len: ncols as u8,
            };
            intern_key(s, key, num_aggs);
        }
    } else {
        for k in 0..n {
            let row = s.sel[k] as usize;
            let key = GroupKey::Slow(scan.group_cols.iter().map(|c| c.key_code(row)).collect());
            intern_key(s, key, num_aggs);
        }
    }

    accumulate_aggs(scan, &s.sel, &s.gids, &mut s.flat, num_aggs);

    let mut map = GroupMap::default();
    for (j, key) in s.keys.drain(..).enumerate() {
        map.insert(key, s.flat[j * num_aggs..(j + 1) * num_aggs].to_vec());
    }
    s.intern.clear();
    map
}

/// Intern `key`, assigning dense ids in first-occurrence order, and push
/// the id onto the group-id lane.
fn intern_key(s: &mut Scratch, key: GroupKey, num_aggs: usize) {
    let gid = match s.intern.get(&key) {
        Some(&g) => g,
        None => {
            let g = s.keys.len() as u32;
            s.intern.insert(key.clone(), g);
            s.keys.push(key);
            s.flat.extend((0..num_aggs).map(|_| AggState::new()));
            g
        }
    };
    s.gids.push(gid);
}

/// Compute dense group ids for the selection: `gids[k] = Σ digit·stride`.
fn fill_gids_dense(
    plan: &DensePlan,
    group_cols: &[ResolvedColumn<'_>],
    sel: &[u32],
    gids: &mut Vec<u32>,
) {
    gids.clear();
    gids.resize(sel.len(), 0);
    for (i, col) in group_cols.iter().enumerate() {
        let stride = plan.strides[i];
        let card = plan.cards[i];
        let nulls = col.column.nulls();
        match col.column {
            Column::Utf8 { codes, .. } => {
                add_digits(sel, gids, stride, card, nulls, col.row_map, |p| codes[p])
            }
            Column::Bool { data, .. } => {
                add_digits(sel, gids, stride, card, nulls, col.row_map, |p| data[p] as u32)
            }
            _ => unreachable!("dense plan only covers dictionary/bool columns"),
        }
    }
}

/// Add one column's digit contribution to every lane, with null handling
/// and the star-join row map dispatched once per column.
#[inline]
fn add_digits(
    sel: &[u32],
    gids: &mut [u32],
    stride: u32,
    null_digit: u32,
    nulls: Option<&NullMask>,
    row_map: Option<&[u32]>,
    code_at: impl Fn(usize) -> u32,
) {
    match (nulls, row_map) {
        (None, None) => {
            for (g, &r) in gids.iter_mut().zip(sel) {
                *g += code_at(r as usize) * stride;
            }
        }
        (Some(nm), None) => {
            for (g, &r) in gids.iter_mut().zip(sel) {
                let p = r as usize;
                let d = if nm.is_null(p) { null_digit } else { code_at(p) };
                *g += d * stride;
            }
        }
        (None, Some(map)) => {
            for (g, &r) in gids.iter_mut().zip(sel) {
                *g += code_at(map[r as usize] as usize) * stride;
            }
        }
        (Some(nm), Some(map)) => {
            for (g, &r) in gids.iter_mut().zip(sel) {
                let p = map[r as usize] as usize;
                let d = if nm.is_null(p) { null_digit } else { code_at(p) };
                *g += d * stride;
            }
        }
    }
}

/// Batch [`ResolvedColumn::key_code`]: write each selected row's code into
/// `out` and OR `null_bit` into the row's null bitmap on NULL. Typed per
/// column; float codes canonicalise through the same
/// [`canonical_f64_bits`] as the scalar path.
fn fill_key_codes(
    col: &ResolvedColumn<'_>,
    sel: &[u32],
    out: &mut [u64],
    nulls_out: &mut [u8],
    null_bit: u8,
) {
    let nulls = col.column.nulls();
    let map = col.row_map;
    match col.column {
        Column::Int64 { data, .. } => {
            fill_codes(sel, out, nulls_out, null_bit, nulls, map, |p| data[p] as u64)
        }
        Column::Float64 { data, .. } => fill_codes(sel, out, nulls_out, null_bit, nulls, map, |p| {
            canonical_f64_bits(data[p])
        }),
        Column::Utf8 { codes, .. } => {
            fill_codes(sel, out, nulls_out, null_bit, nulls, map, |p| codes[p] as u64)
        }
        Column::Bool { data, .. } => {
            fill_codes(sel, out, nulls_out, null_bit, nulls, map, |p| data[p] as u64)
        }
    }
}

/// The shared monomorphised code-extraction loop behind [`fill_key_codes`].
#[inline]
fn fill_codes(
    sel: &[u32],
    out: &mut [u64],
    nulls_out: &mut [u8],
    null_bit: u8,
    nulls: Option<&NullMask>,
    row_map: Option<&[u32]>,
    code_at: impl Fn(usize) -> u64,
) {
    match (nulls, row_map) {
        (None, None) => {
            for (k, &r) in sel.iter().enumerate() {
                out[k] = code_at(r as usize);
            }
        }
        (Some(nm), None) => {
            for (k, &r) in sel.iter().enumerate() {
                let p = r as usize;
                if nm.is_null(p) {
                    nulls_out[k] |= null_bit;
                } else {
                    out[k] = code_at(p);
                }
            }
        }
        (None, Some(map)) => {
            for (k, &r) in sel.iter().enumerate() {
                out[k] = code_at(map[r as usize] as usize);
            }
        }
        (Some(nm), Some(map)) => {
            for (k, &r) in sel.iter().enumerate() {
                let p = map[r as usize] as usize;
                if nm.is_null(p) {
                    nulls_out[k] |= null_bit;
                } else {
                    out[k] = code_at(p);
                }
            }
        }
    }
}

/// The lanes one aggregation kernel runs over: the selection, the aligned
/// group ids, and the flat state array (`stride` states per group, this
/// kernel updating slot `agg` of each block).
struct Lanes<'s> {
    sel: &'s [u32],
    gids: &'s [u32],
    states: &'s mut [AggState],
    stride: usize,
    agg: usize,
}

/// Run every aggregate's kernel over the selection. One pass per
/// aggregate — column-at-a-time, like the rest of the pipeline — with the
/// input kind (COUNT's constant 1, `f64`/`i64` slices, null mask, row
/// map) and the weighting each dispatched exactly once.
fn accumulate_aggs(
    scan: &Scan<'_>,
    sel: &[u32],
    gids: &[u32],
    states: &mut [AggState],
    num_aggs: usize,
) {
    for (j, step) in scan.aggs.iter().enumerate() {
        let lanes = Lanes {
            sel,
            gids,
            states: &mut *states,
            stride: num_aggs,
            agg: j,
        };
        match step {
            AggStep::CountStar => with_weight(lanes, scan.weight, |_| Some(1.0)),
            AggStep::Column(col) => {
                let nulls = col.column.nulls();
                match col.column {
                    Column::Float64 { data, .. } => {
                        accum_slice(lanes, scan.weight, data, nulls, col.row_map, |v| v)
                    }
                    Column::Int64 { data, .. } => {
                        accum_slice(lanes, scan.weight, data, nulls, col.row_map, |v| v as f64)
                    }
                    // Validation admits only numeric aggregate inputs;
                    // keep a dynamic fallback rather than a panic.
                    _ => with_weight(lanes, scan.weight, |r| col.numeric(r)),
                }
            }
        }
    }
}

/// Typed slice aggregation: hoist the null/row-map dispatch, then hand a
/// plain-load accessor to the weight-monomorphised inner loop. `to_f64`
/// replicates the scalar path's `ValueRef::as_f64` conversion exactly
/// (`i64 as f64` for integers), so inputs are bit-identical.
fn accum_slice<T: Copy>(
    lanes: Lanes<'_>,
    weight: Weighting<'_>,
    data: &[T],
    nulls: Option<&NullMask>,
    row_map: Option<&[u32]>,
    to_f64: impl Fn(T) -> f64,
) {
    match (nulls, row_map) {
        (None, None) => with_weight(lanes, weight, |r| Some(to_f64(data[r]))),
        (Some(nm), None) => with_weight(lanes, weight, |r| {
            if nm.is_null(r) {
                None
            } else {
                Some(to_f64(data[r]))
            }
        }),
        (None, Some(map)) => with_weight(lanes, weight, |r| Some(to_f64(data[map[r] as usize]))),
        (Some(nm), Some(map)) => with_weight(lanes, weight, |r| {
            let p = map[r] as usize;
            if nm.is_null(p) {
                None
            } else {
                Some(to_f64(data[p]))
            }
        }),
    }
}

/// Monomorphise the weight accessor. Per-row weights index the *logical*
/// row, exactly like the scalar loop.
fn with_weight(lanes: Lanes<'_>, weight: Weighting<'_>, x_at: impl Fn(usize) -> Option<f64>) {
    match weight {
        Weighting::Unweighted => accum(lanes, |_| 1.0, x_at),
        Weighting::Constant(c) => accum(lanes, move |_| c, x_at),
        Weighting::PerRow(ws) => accum(lanes, |r| ws[r], x_at),
    }
}

/// The innermost loop every aggregation kernel monomorphises down to:
/// slice load, null test, flat-array indexed [`AggState::update`]. The
/// update arithmetic is shared with the scalar path verbatim — including
/// for weight 1 — because e.g. specialising away `w*x` would turn
/// `0.0 * NaN` (= NaN) into `x` and change bits.
#[inline(always)]
fn accum(lanes: Lanes<'_>, w: impl Fn(usize) -> f64, x_at: impl Fn(usize) -> Option<f64>) {
    let Lanes {
        sel,
        gids,
        states,
        stride,
        agg,
    } = lanes;
    for (k, &r) in sel.iter().enumerate() {
        let row = r as usize;
        if let Some(x) = x_at(row) {
            states[gids[k] as usize * stride + agg].update(x, w(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DataSource;
    use aqp_storage::{DataType, SchemaBuilder, Table, Value};

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.s", DataType::Utf8)
            .field("t.b", DataType::Bool)
            .field("t.i", DataType::Int64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..30i64 {
            let s: Value = if r % 7 == 0 {
                Value::Null
            } else {
                ["x", "y", "z"][(r % 3) as usize].into()
            };
            t.push_row(&[s, (r % 2 == 0).into(), r.into()]).unwrap();
        }
        t
    }

    #[test]
    fn dense_plan_eligibility() {
        let t = table();
        let src = DataSource::Wide(&t);
        let s = src.resolve("t.s").unwrap();
        let b = src.resolve("t.b").unwrap();
        let i = src.resolve("t.i").unwrap();

        // Ungrouped: trivial single-slot plan.
        let p = DensePlan::build(&[]).unwrap();
        assert_eq!(p.slots, 1);
        // Dict × bool: slots = (3+1) × (2+1).
        let p = DensePlan::build(&[s, b]).unwrap();
        assert_eq!(p.slots, 12);
        // Any non-dense column disqualifies.
        assert!(DensePlan::build(&[s, i]).is_none());
        // Too many columns disqualify.
        assert!(DensePlan::build(&[b; 7]).is_none());
        // Slot blow-up disqualifies: 2^13 bool columns would fit, one more
        // multiplication overflows the cap.
        let many = vec![b; 6];
        assert!(DensePlan::build(&many).is_some(), "3^6 = 729 slots fits");
    }

    #[test]
    fn dense_gid_decodes_to_scalar_key() {
        let t = table();
        let src = DataSource::Wide(&t);
        let cols = vec![src.resolve("t.s").unwrap(), src.resolve("t.b").unwrap()];
        let plan = DensePlan::build(&cols).unwrap();

        let sel: Vec<u32> = (0..t.num_rows() as u32).collect();
        let mut gids = Vec::new();
        fill_gids_dense(&plan, &cols, &sel, &mut gids);
        assert_eq!(gids.len(), sel.len());

        for (&r, &g) in sel.iter().zip(&gids) {
            let decoded = plan.decode_gid(g);
            // The scalar path's key for the same row:
            let mut codes = [0u64; MAX_FAST_KEY];
            let mut nulls = 0u8;
            for (i, c) in cols.iter().enumerate() {
                let (code, is_null) = c.key_code(r as usize);
                codes[i] = code;
                if is_null {
                    nulls |= 1 << i;
                }
            }
            let scalar = GroupKey::Fast {
                codes,
                nulls,
                len: 2,
            };
            assert_eq!(decoded, scalar, "row {r} gid {g}");
        }
        // Distinct rows with distinct keys get distinct gids.
        let max_gid = *gids.iter().max().unwrap() as usize;
        assert!(max_gid < plan.slots);
    }
}
