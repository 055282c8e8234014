//! Vectorised morsel kernels: the batch-at-a-time scan executor.
//!
//! [`run_morsel_vectorized`] produces, for one morsel, *exactly* the
//! partial group table a row-at-a-time loop would — same keys in the
//! same first-touch order, bit-identical [`AggState`]s — but computes it
//! column-at-a-time:
//!
//! 1. **Selection** — [`crate::selection::build_selection`] turns the
//!    bitmask exclusion filter and the compiled predicate into a dense
//!    vector of surviving row numbers (ascending).
//! 2. **Group ids** — every selected row gets a small integer group id.
//!    When *all* group-by columns are dictionary- or boolean-coded (the
//!    small-group sampling case by construction: group-by columns are the
//!    low-cardinality dimension attributes the strata were built over),
//!    the scan's [`RadixPlan`] maps the composite key arithmetically — a
//!    mixed-radix number over per-column digits `code` (or `cardinality`
//!    for NULL). Up to [`crate::groups::DENSE_SLOTS_MAX`] keys that
//!    number indexes a flat epoch-reset accumulator directly, with **no
//!    hashing at all**; above it the number — eight bytes, not a
//!    per-column key — is interned once per row. Only plans the radix
//!    cannot carry (an integer/float grouping column, seven or more
//!    columns) intern a [`GroupKey`], its per-row codes extracted by
//!    typed columnar kernels.
//! 3. **Aggregation** — one monomorphised kernel per (aggregate input ×
//!    column type × [`Weighting`]) accumulates over the selection with
//!    the function match, `Option` unwrap, and weight dispatch hoisted
//!    out of the loop. All kernels call the one [`AggState::update`]
//!    routine — never a specialised w == 1 shortcut — because the update
//!    arithmetic (`w*(w-1)*x²` and friends) must round identically to a
//!    row-at-a-time update for the bit-identical determinism contract to
//!    hold.
//!
//! The partial leaves the morsel as a [`Groups`] table — the touched
//! keys and their states copied out of the thread's scratch into two
//! exact-size vectors, nothing per group.
//!
//! Determinism argument, in full: the selection vector is the exact
//! ascending row set a row loop visits; per (group, aggregate) the
//! updates happen in the same ascending-row order (kernels iterate the
//! selection in order, one aggregate at a time — reordering *across*
//! aggregates is harmless because different `AggState`s never interact);
//! group ids are handed out in first-touch order, which is the order a
//! row loop first meets each key; morsel boundaries and the morsel-order
//! fold in `exec` are fixed by the row count and morsel size. Every float
//! operation therefore sees the same operands in the same order as the
//! row-at-a-time reference in `tests/support/reference.rs`, and the
//! differential suites (`tests/diff_parallel.rs`, `tests/prop_kernels.rs`,
//! `tests/prop_merge.rs`, `tests/diff_prune.rs`) hold the result to it
//! bit for bit.

use crate::exec::{AggStep, Scan, Weighting};
use crate::groups::{GroupIndex, GroupKey, GroupTable, Groups, RadixPlan, MAX_FAST_KEY};
use crate::output::AggState;
use crate::selection::build_selection;
use crate::source::{canonical_f64_bits, ResolvedColumn};
use aqp_storage::{Column, NullMask};
use std::cell::RefCell;

/// Reusable per-thread buffers. Workers are scoped threads that process
/// many morsels; keeping the selection vector, group-id lanes, and the
/// dense accumulator (with its epoch-based lazy reset) across morsels is
/// what makes the dense path cheap — the flat state array is only
/// re-initialised slot-by-slot on first touch, never bulk-zeroed.
#[derive(Default)]
struct Scratch {
    sel: Vec<u32>,
    gids: Vec<u32>,
    /// Radix key per selected row.
    lanes: Vec<u64>,
    // Direct-indexed radix: flat accumulator + epoch tags + first-touch list.
    dense_states: Vec<AggState>,
    dense_epoch: Vec<u64>,
    touched: Vec<u64>,
    epoch: u64,
    // Interned keys: the morsel's group table under construction.
    radix: GroupIndex<u64>,
    wide: GroupIndex<GroupKey>,
    // Column-major staging for batch key-code extraction.
    key_codes: Vec<u64>,
    key_nulls: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run one morsel through the vectorised pipeline. Returns the partial
/// group table (identical to what a row-at-a-time loop builds for the
/// same range, group order included) and the number of rows that
/// survived the filters. With `use_predicate` false — a zone-map `TakeAll` morsel,
/// where every row is proven to satisfy the predicate — the selection is
/// built from the bitmask stage alone, which by the prune contract keeps
/// exactly the rows the predicate stage would have kept.
pub(crate) fn run_morsel_vectorized(
    scan: &Scan<'_>,
    start: usize,
    end: usize,
    num_aggs: usize,
    use_predicate: bool,
) -> (Groups, u64) {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let predicate = if use_predicate { scan.predicate.as_ref() } else { None };
        build_selection(&mut s.sel, start, end, scan.bitmask, predicate);
        let matched = s.sel.len() as u64;
        let groups = match &scan.radix {
            Some(plan) if plan.direct() => Groups::Radix(run_direct(scan, plan, s, num_aggs)),
            Some(plan) => Groups::Radix(run_radix(scan, plan, s, num_aggs)),
            None => Groups::Wide(run_wide(scan, s, num_aggs)),
        };
        (groups, matched)
    })
}

/// Direct path: the radix key indexes a flat accumulator.
fn run_direct(
    scan: &Scan<'_>,
    plan: &RadixPlan,
    s: &mut Scratch,
    num_aggs: usize,
) -> GroupTable<u64> {
    fill_lanes(plan, &scan.group_cols, &s.sel, &mut s.lanes);

    // Lazy per-slot reset: a slot whose epoch tag is stale was last used
    // by an earlier morsel; re-initialise it on first touch this morsel.
    s.epoch += 1;
    let epoch = s.epoch;
    let slots = plan.slots as usize;
    if s.dense_epoch.len() < slots {
        s.dense_epoch.resize(slots, 0);
    }
    if s.dense_states.len() < slots * num_aggs {
        s.dense_states.resize(slots * num_aggs, AggState::new());
    }
    s.touched.clear();
    s.gids.clear();
    for &key in &s.lanes {
        let gi = key as usize;
        s.gids.push(key as u32);
        if s.dense_epoch[gi] != epoch {
            s.dense_epoch[gi] = epoch;
            s.dense_states[gi * num_aggs..(gi + 1) * num_aggs].fill(AggState::new());
            s.touched.push(key);
        }
    }

    accumulate_aggs(scan, &s.sel, &s.gids, &mut s.dense_states, num_aggs);

    // Compact in first-touch (= ascending first-row) order: the order
    // a row loop first meets each key.
    let mut states = Vec::with_capacity(s.touched.len() * num_aggs);
    for &g in &s.touched {
        let gi = g as usize;
        states.extend_from_slice(&s.dense_states[gi * num_aggs..(gi + 1) * num_aggs]);
    }
    GroupTable { keys: s.touched.clone(), states }
}

/// Radix plan past the slot cap: intern the eight-byte radix key, then
/// the same flat-array aggregation kernels as the direct path.
fn run_radix(
    scan: &Scan<'_>,
    plan: &RadixPlan,
    s: &mut Scratch,
    num_aggs: usize,
) -> GroupTable<u64> {
    fill_lanes(plan, &scan.group_cols, &s.sel, &mut s.lanes);
    s.radix.clear();
    s.gids.clear();
    for &key in &s.lanes {
        let gid = s.radix.touch(key, num_aggs);
        s.gids.push(gid);
    }
    accumulate_aggs(scan, &s.sel, &s.gids, &mut s.radix.table.states, num_aggs);
    s.radix.table.clone()
}

/// Wide keys: batch key-code extraction + per-morsel interning, then the
/// same flat-array aggregation kernels.
fn run_wide(scan: &Scan<'_>, s: &mut Scratch, num_aggs: usize) -> GroupTable<GroupKey> {
    s.wide.clear();
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
            let gid = s.wide.touch(key, num_aggs);
            s.gids.push(gid);
        }
    } else {
        for k in 0..n {
            let row = s.sel[k] as usize;
            let key = GroupKey::from_digits(scan.group_cols.iter().map(|c| c.key_code(row)));
            let gid = s.wide.touch(key, num_aggs);
            s.gids.push(gid);
        }
    }

    accumulate_aggs(scan, &s.sel, &s.gids, &mut s.wide.table.states, num_aggs);
    s.wide.table.clone()
}

/// Compute the radix key of every selected row: `lanes[k] = Σ digit·stride`.
fn fill_lanes(
    plan: &RadixPlan,
    group_cols: &[ResolvedColumn<'_>],
    sel: &[u32],
    lanes: &mut Vec<u64>,
) {
    lanes.clear();
    lanes.resize(sel.len(), 0);
    for (i, col) in group_cols.iter().enumerate() {
        let stride = plan.strides[i];
        let card = plan.cards[i];
        let nulls = col.column.nulls();
        match col.column {
            Column::Utf8 { codes, .. } => {
                add_digits(sel, lanes, stride, card, nulls, col.row_map, |p| codes[p] as u64)
            }
            Column::Bool { data, .. } => {
                add_digits(sel, lanes, stride, card, nulls, col.row_map, |p| data[p] as u64)
            }
            _ => unreachable!("radix plan only covers dictionary/bool columns"),
        }
    }
}

/// Add one column's digit contribution to every lane, with null handling
/// and the star-join row map dispatched once per column.
#[inline]
fn add_digits(
    sel: &[u32],
    lanes: &mut [u64],
    stride: u64,
    null_digit: u64,
    nulls: Option<&NullMask>,
    row_map: Option<&[u32]>,
    code_at: impl Fn(usize) -> u64,
) {
    match (nulls, row_map) {
        (None, None) => {
            for (g, &r) in lanes.iter_mut().zip(sel) {
                *g += code_at(r as usize) * stride;
            }
        }
        (Some(nm), None) => {
            for (g, &r) in lanes.iter_mut().zip(sel) {
                let p = r as usize;
                let d = if nm.is_null(p) { null_digit } else { code_at(p) };
                *g += d * stride;
            }
        }
        (None, Some(map)) => {
            for (g, &r) in lanes.iter_mut().zip(sel) {
                *g += code_at(map[r as usize] as usize) * stride;
            }
        }
        (Some(nm), Some(map)) => {
            for (g, &r) in lanes.iter_mut().zip(sel) {
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
/// [`canonical_f64_bits`] as [`ResolvedColumn::key_code`].
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
/// replicates `ValueRef::as_f64` exactly (`i64 as f64` for integers).
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
/// row.
fn with_weight(lanes: Lanes<'_>, weight: Weighting<'_>, x_at: impl Fn(usize) -> Option<f64>) {
    match weight {
        Weighting::Unweighted => accum(lanes, |_| 1.0, x_at),
        Weighting::Constant(c) => accum(lanes, move |_| c, x_at),
        Weighting::PerRow(ws) => accum(lanes, |r| ws[r], x_at),
    }
}

/// The innermost loop every aggregation kernel monomorphises down to:
/// slice load, null test, flat-array indexed [`AggState::update`]. The
/// update arithmetic is [`AggState::update`] verbatim — including
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

    #[test]
    fn lanes_equal_the_row_at_a_time_radix_key() {
        let schema = SchemaBuilder::new()
            .field("t.s", DataType::Utf8)
            .field("t.b", DataType::Bool)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..30i64 {
            let s: Value = if r % 7 == 0 {
                Value::Null
            } else {
                ["x", "y", "z"][(r % 3) as usize].into()
            };
            t.push_row(&[s, (r % 2 == 0).into()]).unwrap();
        }
        let src = DataSource::Wide(&t);
        let cols = vec![src.resolve("t.s").unwrap(), src.resolve("t.b").unwrap()];
        let plan = RadixPlan::for_columns(&cols).unwrap();

        let sel: Vec<u32> = (0..t.num_rows() as u32).collect();
        let mut lanes = Vec::new();
        fill_lanes(&plan, &cols, &sel, &mut lanes);
        assert_eq!(lanes.len(), sel.len());
        for (&r, &lane) in sel.iter().zip(&lanes) {
            // The key composed from the row's own digits:
            let want = plan.key(cols.iter().map(|c| c.key_code(r as usize)));
            assert_eq!(lane, want, "row {r}");
            assert!(lane < plan.slots);
        }
    }
}
