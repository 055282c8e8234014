//! The flat, code-keyed group table — the one currency between morsel,
//! scan and plan.
//!
//! A group table is two vectors: the group keys in **first-touch order**
//! and one [`AggState`] array of stride `num_aggs` ([`GroupTable`]). A
//! morsel's partial is such a table; a scan's result is the fold of its
//! morsels' tables in morsel order ([`GroupIndex::merge`], one
//! `FxHashMap<key, u32>` probe per (morsel × group)); a plan's result is
//! the fold of its scans' tables in plan order ([`PlanGroups`]). No step
//! allocates per group, and keys stay *codes* until the caller asks for a
//! surviving group's values.
//!
//! Two key spaces exist ([`Groups`]):
//!
//! * **radix** — when every group column is dictionary- or bool-coded,
//!   at most [`MAX_FAST_KEY`] of them, and the product of their
//!   cardinalities (+1 digit each for NULL) fits a `u64`, the key *is*
//!   the [`RadixPlan`] mixed-radix number: one arithmetic per row, eight
//!   bytes to hash;
//! * **wide** — otherwise (an integer or float grouping column, seven or
//!   more columns, a product past `u64`) the key is a [`GroupKey`] of
//!   per-column codes.
//!
//! A plan's tables share one dictionary per string column — every sample
//! table is gathered from one view, and a loaded family is decoded onto
//! one dictionary per column — so a code means the same string in every
//! scan, and every scan of a plan has the same [`RadixPlan`]. The plan
//! fold ([`PlanGroups`]) therefore merges the scans' keys as they are —
//! taking the first scan's table over whole, so a lone scan costs no fold
//! — and no string is touched before [`PlanGroups::for_each_group`]
//! decodes the finished groups, in key order decided on their codes. It
//! hands each group's digits out beside the decoded key, so a caller can
//! test a key on codes.
//!
//! Determinism: every fold appends unseen keys and merges seen ones in
//! the order its input lists them, so table order — first seen in morsel
//! order within a table, in plan order across tables — and every
//! [`AggState::merge`] sequence are pure functions of the data and the
//! morsel size. The order a plan's groups are finalized in is key order,
//! a function of the keys alone.

use crate::error::{QueryError, QueryResult};
use crate::exec::PreparedScan;
use crate::hash::FxHashMap;
use crate::output::{AggState, GroupResult};
use crate::plan::Query;
use crate::source::ResolvedColumn;
use aqp_storage::{Column, Value};
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;

/// Maximum grouping columns handled by the radix key and the compact
/// fixed-size [`GroupKey::Fast`]. Queries with more grouping columns
/// still work via the heap-allocated [`GroupKey::Slow`].
pub(crate) const MAX_FAST_KEY: usize = 6;

/// Radix plans of at most this many slots are direct-indexed by the
/// vectorised kernels (flat accumulator entries = slots × aggregates).
/// Beyond it interning the radix number wins on reset cost and cache
/// footprint.
pub(crate) const DENSE_SLOTS_MAX: u64 = 1 << 13;

/// One group column's contribution to a key: `(code, is_null)` as
/// [`ResolvedColumn::key_code`] defines it.
pub(crate) type Digit = (u64, bool);

/// Per-column-code group key, for plans the radix key cannot carry.
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
    Slow(Vec<Digit>),
}

impl GroupKey {
    /// The key of one digit per group column.
    pub(crate) fn from_digits(digits: impl ExactSizeIterator<Item = Digit>) -> GroupKey {
        if digits.len() > MAX_FAST_KEY {
            return GroupKey::Slow(digits.collect());
        }
        let len = digits.len() as u8;
        let mut codes = [0u64; MAX_FAST_KEY];
        let mut nulls = 0u8;
        for (i, (code, is_null)) in digits.enumerate() {
            if is_null {
                nulls |= 1 << i;
            } else {
                codes[i] = code;
            }
        }
        GroupKey::Fast { codes, nulls, len }
    }

    fn digits(&self, out: &mut Vec<Digit>) {
        match self {
            GroupKey::Fast { codes, nulls, len } => {
                out.extend((0..*len as usize).map(|i| (codes[i], nulls & (1 << i) != 0)))
            }
            GroupKey::Slow(parts) => out.extend_from_slice(parts),
        }
    }
}

/// Arithmetic composite-key mapping: column `i` contributes digit `code`
/// (or `cards[i]` for NULL — one extra digit per column) with place value
/// `strides[i]`; the key is the mixed-radix sum. Ungrouped queries get
/// the trivial plan whose only key is 0.
#[derive(Debug, Clone)]
pub(crate) struct RadixPlan {
    /// Cardinality per group column; the NULL digit equals it.
    pub(crate) cards: Vec<u64>,
    /// Place value per group column (`∏ (cards[j]+1)` for `j < i`).
    pub(crate) strides: Vec<u64>,
    /// Total addressable keys (`∏ (cards[i]+1)`).
    pub(crate) slots: u64,
}

impl RadixPlan {
    /// The plan over these per-column cardinalities; `None` (the wide
    /// key space) when a column has no dense coding, there are more than
    /// [`MAX_FAST_KEY`] columns, or the key count does not fit a `u64` —
    /// the product is checked, so it falls back rather than wraps.
    pub(crate) fn build(cards: impl ExactSizeIterator<Item = Option<u64>>) -> Option<RadixPlan> {
        if cards.len() > MAX_FAST_KEY {
            return None;
        }
        let mut plan = RadixPlan {
            cards: Vec::with_capacity(cards.len()),
            strides: Vec::with_capacity(cards.len()),
            slots: 1,
        };
        for card in cards {
            let card = card?;
            plan.strides.push(plan.slots);
            plan.slots = plan.slots.checked_mul(card.checked_add(1)?)?;
            plan.cards.push(card);
        }
        Some(plan)
    }

    /// The plan for a scan's group columns.
    pub(crate) fn for_columns(group_cols: &[ResolvedColumn<'_>]) -> Option<RadixPlan> {
        Self::build(group_cols.iter().map(|c| dense_cardinality(c.column)))
    }

    /// Whether the vectorised kernels index a flat accumulator by key.
    pub(crate) fn direct(&self) -> bool {
        self.slots <= DENSE_SLOTS_MAX
    }

    /// Compose a key from one digit per column: the kernels' lanes, one
    /// row at a time (the tests' oracle for them).
    #[cfg(test)]
    pub(crate) fn key(&self, digits: impl Iterator<Item = Digit>) -> u64 {
        digits
            .zip(self.cards.iter().zip(&self.strides))
            .map(|((code, is_null), (&card, &stride))| if is_null { card } else { code } * stride)
            .sum()
    }

    /// Decompose a key into one digit per column.
    fn digits(&self, mut key: u64, out: &mut Vec<Digit>) {
        for &card in &self.cards {
            let digit = key % (card + 1);
            key /= card + 1;
            out.push(if digit == card {
                (0, true)
            } else {
                (digit, false)
            });
        }
    }
}

/// Distinct non-NULL codes of a dictionary/bool column; `None` for
/// columns whose codes are value bit patterns.
fn dense_cardinality(column: &Column) -> Option<u64> {
    match column {
        Column::Utf8 { dict, .. } => Some(dict.len() as u64),
        Column::Bool { .. } => Some(2),
        _ => None,
    }
}

/// Group keys in first-touch order plus their states, `stride` per key.
#[derive(Debug, Clone)]
pub(crate) struct GroupTable<K> {
    pub(crate) keys: Vec<K>,
    pub(crate) states: Vec<AggState>,
}

impl<K> Default for GroupTable<K> {
    fn default() -> Self {
        GroupTable {
            keys: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl<K> GroupTable<K> {
    /// Logical bytes of the two vectors (for the memory ledger).
    fn bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<K>()
            + self.states.len() * std::mem::size_of::<AggState>()) as u64
    }
}

/// A [`GroupTable`] under construction: the table plus the one hash map
/// that finds a key's slot in it.
#[derive(Debug)]
pub(crate) struct GroupIndex<K> {
    slots: FxHashMap<K, u32>,
    pub(crate) table: GroupTable<K>,
}

impl<K> Default for GroupIndex<K> {
    fn default() -> Self {
        GroupIndex {
            slots: FxHashMap::default(),
            table: GroupTable::default(),
        }
    }
}

impl<K: Hash + Eq + Clone> GroupIndex<K> {
    /// Forget every group, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.table.keys.clear();
        self.table.states.clear();
    }

    /// The slot of `key`, appending `stride` fresh states on first touch.
    #[inline]
    pub(crate) fn touch(&mut self, key: K, stride: usize) -> u32 {
        match self.slots.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = self.table.keys.len() as u32;
                self.table.keys.push(e.key().clone());
                self.table
                    .states
                    .resize(self.table.states.len() + stride, AggState::new());
                *e.insert(slot)
            }
        }
    }

    /// Fold one group's partial `states` in: copied verbatim on first
    /// sight (merging into a fresh state would turn `-0.0` into `+0.0`),
    /// [`AggState::merge`]d slot by slot afterwards.
    #[inline]
    pub(crate) fn merge(&mut self, key: K, states: &[AggState]) {
        match self.slots.entry(key) {
            Entry::Occupied(e) => {
                let at = *e.get() as usize * states.len();
                for (a, b) in self.table.states[at..at + states.len()]
                    .iter_mut()
                    .zip(states)
                {
                    a.merge(b);
                }
            }
            Entry::Vacant(e) => {
                self.table.keys.push(e.key().clone());
                self.table.states.extend_from_slice(states);
                e.insert(self.table.keys.len() as u32 - 1);
            }
        }
    }

    /// Fold a whole table in, taking it over as it is when nothing has
    /// been folded yet: [`Self::merge`] would copy every state of a first
    /// table verbatim anyway, and its keys are distinct. The slot index is
    /// built only if a later table arrives.
    fn absorb(&mut self, part: GroupTable<K>, stride: usize) {
        if self.table.keys.is_empty() {
            self.slots.clear();
            self.table = part;
            return;
        }
        if self.slots.len() < self.table.keys.len() {
            self.slots = self.table.keys.iter().cloned().zip(0..).collect();
        }
        self.merge_table(&part, stride);
    }

    /// Fold a whole table in, group by group in its own order.
    fn merge_table(&mut self, part: &GroupTable<K>, stride: usize) {
        self.slots
            .reserve(part.keys.len().saturating_sub(self.slots.len()));
        for (key, states) in part.keys.iter().zip(part.states.chunks_exact(stride)) {
            self.merge(key.clone(), states);
        }
    }

    /// Logical bytes: the table plus one `(key, slot)` entry per group.
    fn bytes(&self) -> u64 {
        self.table.bytes() + (self.slots.len() * (std::mem::size_of::<K>() + 4)) as u64
    }
}

/// A group table in either key space. Every table of one scan — its
/// morsels' partials and their fold — is in the same one.
#[derive(Debug, Clone)]
pub(crate) enum Groups {
    /// Keys are [`RadixPlan`] numbers.
    Radix(GroupTable<u64>),
    /// Keys are per-column codes.
    Wide(GroupTable<GroupKey>),
}

impl Groups {
    /// The empty table in the key space `radix` selects.
    pub(crate) fn empty(radix: bool) -> Groups {
        if radix {
            Groups::Radix(GroupTable::default())
        } else {
            Groups::Wide(GroupTable::default())
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Groups::Radix(t) => t.keys.len(),
            Groups::Wide(t) => t.keys.len(),
        }
    }

    pub(crate) fn bytes(&self) -> u64 {
        match self {
            Groups::Radix(t) => t.bytes(),
            Groups::Wide(t) => t.bytes(),
        }
    }

    fn states(&self) -> &[AggState] {
        match self {
            Groups::Radix(t) => &t.states,
            Groups::Wide(t) => &t.states,
        }
    }
}

/// Fold a scan's morsel partials in morsel order. Returns the folded
/// table and the logical bytes the fold held besides the partials (its
/// table plus index); a single partial *is* the fold and holds nothing.
pub(crate) fn fold_partials(
    mut partials: Vec<Groups>,
    radix: bool,
    stride: usize,
) -> (Groups, u64) {
    if partials.len() == 1 {
        return (partials.pop().expect("one partial"), 0);
    }
    fn fold<'p, K: Hash + Eq + Clone + 'p>(
        tables: impl Iterator<Item = &'p GroupTable<K>>,
        stride: usize,
    ) -> (GroupTable<K>, u64) {
        let mut index = GroupIndex::default();
        for table in tables {
            index.merge_table(table, stride);
        }
        let bytes = index.bytes();
        (index.table, bytes)
    }
    if radix {
        let (table, bytes) = fold(
            partials.iter().map(|p| match p {
                Groups::Radix(t) => t,
                Groups::Wide(_) => unreachable!("a radix scan produced a wide partial"),
            }),
            stride,
        );
        (Groups::Radix(table), bytes)
    } else {
        let (table, bytes) = fold(
            partials.iter().map(|p| match p {
                Groups::Wide(t) => t,
                Groups::Radix(_) => unreachable!("a wide scan produced a radix partial"),
            }),
            stride,
        );
        (Groups::Wide(table), bytes)
    }
}

/// One scan's folded group table, keys still coded: what
/// [`PreparedScan::finish`] returns. Decode it on its own
/// ([`ScanGroups::into_groups`]) or fold it into a plan
/// ([`PlanGroups::absorb`]).
pub struct ScanGroups<'a> {
    pub(crate) group_cols: Vec<ResolvedColumn<'a>>,
    pub(crate) radix: Option<RadixPlan>,
    pub(crate) groups: Groups,
    pub(crate) stride: usize,
    /// Rows the scan covered (its source's, cut by any row limit).
    pub rows_scanned: usize,
    /// Whether a row limit cut the scan short.
    pub truncated: bool,
}

impl ScanGroups<'_> {
    /// Group `g`'s key as one digit per group column.
    fn digits(&self, g: usize, out: &mut Vec<Digit>) {
        out.clear();
        match (&self.groups, &self.radix) {
            (Groups::Radix(t), Some(plan)) => plan.digits(t.keys[g], out),
            (Groups::Wide(t), _) => t.keys[g].digits(out),
            (Groups::Radix(_), None) => unreachable!("radix keys without a radix plan"),
        }
    }

    /// Decode every key through the scan's own columns, in first-touch
    /// order.
    pub fn into_groups(self) -> Vec<GroupResult> {
        let mut digits = Vec::with_capacity(self.group_cols.len());
        (0..self.groups.len())
            .zip(self.groups.states().chunks_exact(self.stride))
            .map(|(g, states)| {
                self.digits(g, &mut digits);
                GroupResult {
                    key: decode(&self.group_cols, &digits),
                    aggs: states.to_vec(),
                }
            })
            .collect()
    }
}

/// A key's digits decoded through its group columns.
fn decode(cols: &[ResolvedColumn<'_>], digits: &[Digit]) -> Vec<Value> {
    (cols.iter().zip(digits))
        .map(|(col, &(code, is_null))| col.decode_key(code, is_null))
        .collect()
}

/// The cross-table fold of a UNION-ALL plan: the scans' group tables
/// merged in plan order, keys as the scans produced them.
///
/// The fold's table is in first-seen order — the first scan's groups in
/// its first-touch order, then each later scan's unseen groups in its own
/// — which [`PlanGroups::groups`] lists; [`PlanGroups::for_each_group`]
/// finalizes the groups in key order. Both are the same on every call.
pub struct PlanGroups<'a> {
    /// The first scan's group columns; they decode every scan's codes.
    cols: Vec<ResolvedColumn<'a>>,
    index: PlanIndex,
    stride: usize,
}

/// The plan's group table in the key space every scan of the plan shares.
enum PlanIndex {
    Radix(RadixPlan, GroupIndex<u64>),
    Wide(GroupIndex<GroupKey>),
}

impl PlanIndex {
    fn states(&self) -> &[AggState] {
        match self {
            PlanIndex::Radix(_, index) => &index.table.states,
            PlanIndex::Wide(index) => &index.table.states,
        }
    }
}

impl<'a> PlanGroups<'a> {
    /// The empty fold for `scans`, which must all run `query`. Fails,
    /// naming the column, when two scans' tables disagree on a group
    /// column's type or hold a string group column on different
    /// dictionaries: their codes would not be comparable.
    pub fn new(query: &Query, scans: &[PreparedScan<'a>]) -> QueryResult<PlanGroups<'a>> {
        let Some(first) = scans.first() else {
            return Ok(PlanGroups {
                cols: Vec::new(),
                index: PlanIndex::Wide(GroupIndex::default()),
                stride: 1,
            });
        };
        for scan in &scans[1..] {
            for ((a, b), name) in first
                .group_cols()
                .iter()
                .zip(scan.group_cols())
                .zip(&query.group_by)
            {
                if a.data_type() != b.data_type() {
                    return Err(QueryError::InvalidQuery(format!(
                        "plan tables disagree on group column {name}'s type: {} vs {}",
                        a.data_type(),
                        b.data_type()
                    )));
                }
                if let (Column::Utf8 { dict: x, .. }, Column::Utf8 { dict: y, .. }) =
                    (a.column, b.column)
                {
                    if !Arc::ptr_eq(x, y) {
                        return Err(QueryError::InvalidQuery(format!(
                            "plan tables hold group column {name} on different dictionaries"
                        )));
                    }
                }
            }
        }
        Ok(PlanGroups {
            cols: first.group_cols().to_vec(),
            index: match RadixPlan::for_columns(first.group_cols()) {
                Some(plan) => PlanIndex::Radix(plan, GroupIndex::default()),
                None => PlanIndex::Wide(GroupIndex::default()),
            },
            stride: first.num_aggs(),
        })
    }

    /// Fold the next scan of the plan in.
    pub fn absorb(&mut self, scan: ScanGroups<'a>) {
        match (&mut self.index, scan.groups) {
            (PlanIndex::Radix(_, index), Groups::Radix(t)) => index.absorb(t, self.stride),
            (PlanIndex::Wide(index), Groups::Wide(t)) => index.absorb(t, self.stride),
            _ => unreachable!("scans on shared dictionaries share one key space"),
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.index.states().len() / self.stride
    }

    /// Group `g`'s key as one digit per group column.
    fn digits(&self, g: usize, out: &mut Vec<Digit>) {
        out.clear();
        match &self.index {
            PlanIndex::Radix(plan, index) => plan.digits(index.table.keys[g], out),
            PlanIndex::Wide(index) => index.table.keys[g].digits(out),
        }
    }

    /// Every group, in first-seen order: its key decoded and its merged
    /// states, one per aggregate. The order the fold built, for holding
    /// the fold itself to a reference.
    pub fn groups(&self) -> impl Iterator<Item = (Vec<Value>, &[AggState])> + '_ {
        let mut digits = Vec::with_capacity(self.cols.len());
        (self.index.states().chunks_exact(self.stride).enumerate()).map(move |(g, states)| {
            self.digits(g, &mut digits);
            (decode(&self.cols, &digits), states)
        })
    }

    /// Every group in key order — the order [`Value`]'s `Ord` gives the
    /// decoded keys, column by column — handed to `visit` with its key
    /// both decoded and as one `(code, is_null)` digit per group column
    /// ([`ResolvedColumn::key_code`]'s codes, which every scan of the plan
    /// shares), so a caller can test the key on codes.
    ///
    /// The order is decided on the digits before any key is decoded: each
    /// column's distinct codes are ranked by value and the groups sorted
    /// on their rank tuples. No two groups share a key value (floats are
    /// keyed on canonical bits, and a dictionary spells each string
    /// once), so the order is total.
    pub fn for_each_group(&self, mut visit: impl FnMut(&[(u64, bool)], Vec<Value>, &[AggState])) {
        let width = self.cols.len();
        let num_groups = self.num_groups();
        let mut digits = Vec::with_capacity(width * num_groups);
        let mut key = Vec::with_capacity(width);
        for g in 0..num_groups {
            self.digits(g, &mut key);
            digits.extend_from_slice(&key);
        }
        let states = self.index.states();
        for g in key_order(&self.cols, &digits, num_groups) {
            let key = &digits[g * width..(g + 1) * width];
            visit(
                key,
                decode(&self.cols, key),
                &states[g * self.stride..(g + 1) * self.stride],
            );
        }
    }
}

/// The permutation that puts `num_groups` keys — `digits`, one row of
/// `cols.len()` digits per group — in key order, ties (if any) in
/// first-seen order.
fn key_order(cols: &[ResolvedColumn<'_>], digits: &[Digit], num_groups: usize) -> Vec<usize> {
    let width = cols.len();
    if width == 0 || num_groups < 2 {
        return (0..num_groups).collect();
    }
    let mut ranks = vec![0u32; digits.len()];
    let radices: Vec<u64> = (cols.iter().enumerate())
        .map(|(c, col)| {
            let top = column_ranks(col, digits.iter().skip(c).step_by(width), |g, rank| {
                ranks[g * width + c] = rank
            });
            u64::from(top) + 1
        })
        .collect();
    // The rank tuple as one mixed-radix number above the group index,
    // which the sorted words hand back and which breaks any tie.
    let index_bits = usize::BITS - (num_groups - 1).leading_zeros();
    let tuples = radices
        .iter()
        .try_fold(1u64, |product, &radix| product.checked_mul(radix));
    if tuples.is_some_and(|t| t <= 1 << (64 - index_bits)) {
        let mut words: Vec<u64> = (ranks.chunks_exact(width).enumerate())
            .map(|(g, row)| {
                let tuple = (row.iter().zip(&radices))
                    .fold(0, |word, (&rank, &radix)| word * radix + u64::from(rank));
                tuple << index_bits | g as u64
            })
            .collect();
        words.sort_unstable();
        let index = (1 << index_bits) - 1;
        words
            .into_iter()
            .map(|word| (word & index) as usize)
            .collect()
    } else {
        let mut order: Vec<usize> = (0..num_groups).collect();
        let row = |g: usize| &ranks[g * width..(g + 1) * width];
        order.sort_by(|&a, &b| row(a).cmp(row(b)));
        order
    }
}

/// Rank one group column's digits in value order: `set(g, rank)` for the
/// `g`-th digit that is not NULL, `1..=top` over its distinct values
/// (NULL's rank is 0). Returns `top`.
///
/// Strings rank as their dictionary strings, compared as `&str`; a
/// dictionary spells each string once, so distinct codes are distinct
/// values. Other columns rank as an order-preserving map of their codes:
/// signed order for integers, `f64::total_cmp` of the canonical bits for
/// floats, `false` before `true`.
fn column_ranks<'d>(
    col: &ResolvedColumn<'_>,
    digits: impl Iterator<Item = &'d Digit> + Clone,
    mut set: impl FnMut(usize, u32),
) -> u32 {
    let present = || {
        (digits.clone().enumerate())
            .filter_map(|(g, &(code, is_null))| (!is_null).then_some((g, code)))
    };
    match col.column {
        Column::Utf8 { dict, .. } => {
            let mut rank = vec![0u32; dict.len()];
            let mut distinct = Vec::new();
            for (_, code) in present() {
                if rank[code as usize] == 0 {
                    rank[code as usize] = 1;
                    distinct.push(code as u32);
                }
            }
            let mut by_text: Vec<(&str, u32)> = distinct
                .iter()
                .map(|&code| (dict.value(code), code))
                .collect();
            by_text.sort_unstable();
            for (at, &(_, code)) in by_text.iter().enumerate() {
                rank[code as usize] = at as u32 + 1;
            }
            present().for_each(|(g, code)| set(g, rank[code as usize]));
            distinct.len() as u32
        }
        _ => {
            let word = |code: u64| match col.column {
                Column::Int64 { .. } => code ^ (1 << 63),
                Column::Float64 { .. } if code >> 63 == 1 => !code,
                Column::Float64 { .. } => code | (1 << 63),
                _ => code,
            };
            let mut words: Vec<u64> = present().map(|(_, code)| word(code)).collect();
            words.sort_unstable();
            words.dedup();
            present().for_each(|(g, code)| {
                let at = words.binary_search(&word(code)).expect("a present word");
                set(g, at as u32 + 1)
            });
            words.len() as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DataSource;
    use aqp_storage::{DataType, SchemaBuilder, Table};

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
    fn radix_plan_eligibility() {
        let t = table();
        let src = DataSource::Wide(&t);
        let s = src.resolve("t.s").unwrap();
        let b = src.resolve("t.b").unwrap();
        let i = src.resolve("t.i").unwrap();

        // Ungrouped: the trivial single-key plan.
        assert_eq!(RadixPlan::for_columns(&[]).unwrap().slots, 1);
        // Dict × bool: slots = (3+1) × (2+1).
        let p = RadixPlan::for_columns(&[s, b]).unwrap();
        assert_eq!(p.slots, 12);
        assert!(p.direct());
        // Any non-dense column disqualifies; so do too many columns.
        assert!(RadixPlan::for_columns(&[s, i]).is_none());
        assert!(RadixPlan::for_columns(&[b; 6]).is_some(), "3^6 = 729 keys");
        assert!(RadixPlan::for_columns(&[b; 7]).is_none());
        // Past the slot cap the plan stays, interned instead of indexed.
        let cap = RadixPlan::build([Some(DENSE_SLOTS_MAX - 1)].into_iter()).unwrap();
        assert!(cap.direct());
        let over = RadixPlan::build([Some(DENSE_SLOTS_MAX)].into_iter()).unwrap();
        assert!(!over.direct());
        // A key count past u64 falls back instead of wrapping.
        assert!(RadixPlan::build([Some(u32::MAX as u64 - 1); 2].into_iter()).is_some());
        assert!(
            RadixPlan::build([Some(u32::MAX as u64); 2].into_iter()).is_none(),
            "2^64 keys"
        );
        assert!(RadixPlan::build([Some(u64::MAX)].into_iter()).is_none());
    }

    #[test]
    fn radix_key_roundtrips_row_digits() {
        let t = table();
        let src = DataSource::Wide(&t);
        let cols = [src.resolve("t.s").unwrap(), src.resolve("t.b").unwrap()];
        let plan = RadixPlan::for_columns(&cols).unwrap();
        let mut digits = Vec::new();
        for row in 0..t.num_rows() {
            let want: Vec<Digit> = cols.iter().map(|c| c.key_code(row)).collect();
            let key = plan.key(want.iter().copied());
            assert!(key < plan.slots);
            digits.clear();
            plan.digits(key, &mut digits);
            assert_eq!(digits, want, "row {row}");
            // The wide key carries the same digits.
            digits.clear();
            GroupKey::from_digits(want.iter().copied()).digits(&mut digits);
            assert_eq!(digits, want, "row {row}");
        }
    }

    /// `key_order` against a stable sort of the decoded keys, for every
    /// column of `t` grouped alone and for `sets` of columns.
    fn assert_key_order(t: &Table, sets: &[&[&str]]) {
        let src = DataSource::Wide(t);
        let names: Vec<String> = t.schema().fields().iter().map(|f| f.name.clone()).collect();
        let singles: Vec<Vec<&str>> = names.iter().map(|n| vec![n.as_str()]).collect();
        for set in singles
            .iter()
            .map(Vec::as_slice)
            .chain(sets.iter().copied())
        {
            let cols: Vec<_> = set.iter().map(|n| src.resolve(n).unwrap()).collect();
            // One group per distinct key, in first-touch order.
            let mut index = GroupIndex::<GroupKey>::default();
            for row in 0..t.num_rows() {
                index.touch(
                    GroupKey::from_digits(cols.iter().map(|c| c.key_code(row))),
                    0,
                );
            }
            let mut digits = Vec::new();
            for key in &index.table.keys {
                key.digits(&mut digits);
            }
            let n = index.table.keys.len();
            let keys: Vec<Vec<Value>> = digits
                .chunks(cols.len())
                .map(|d| decode(&cols, d))
                .collect();
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            assert_ne!(
                want,
                (0..n).collect::<Vec<_>>(),
                "{set:?}: first touch is key order"
            );
            assert_eq!(key_order(&cols, &digits, n), want, "{set:?}");
        }
    }

    #[test]
    fn key_order_is_value_order_decided_on_codes() {
        let schema = SchemaBuilder::new()
            .field("s", DataType::Utf8)
            .field("i", DataType::Int64)
            .field("f", DataType::Float64)
            .field("b", DataType::Bool)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        let strings = ["z", "a", "m", "", "ab", "Z", "é"];
        let floats = [
            1.5,
            -0.0,
            f64::NAN,
            -2.25,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::NAN,
            5e-324,
        ];
        let ints = [7, -3, i64::MIN, 0, i64::MAX, -1];
        for r in 0..60usize {
            let null = |every: usize| r % every == every - 1;
            t.push_row(&[
                if null(5) {
                    Value::Null
                } else {
                    strings[r % strings.len()].into()
                },
                if null(7) {
                    Value::Null
                } else {
                    ints[r % ints.len()].into()
                },
                if null(4) {
                    Value::Null
                } else {
                    floats[r % floats.len()].into()
                },
                if null(6) {
                    Value::Null
                } else {
                    (r % 3 == 0).into()
                },
            ])
            .unwrap();
        }
        assert_key_order(&t, &[&["s", "b"], &["b", "f", "s"], &["i", "s", "f", "b"]]);
    }

    #[test]
    fn key_order_past_a_u64_rank_tuple() {
        // 2000 groups of five columns of 2000 distinct values each:
        // 2001^5 × 2000 rank tuples do not fit a u64.
        let mut b = SchemaBuilder::new();
        for c in 0..5 {
            b = b.field(format!("c{c}"), DataType::Int64);
        }
        let mut t = Table::empty("t", b.build().unwrap());
        for r in 0..2000i64 {
            let row: Vec<Value> = (0..5)
                .map(|c| ((r * 7919 + c * 104_729) % 2000 - 1000).into())
                .collect();
            t.push_row(&row).unwrap();
        }
        assert_key_order(
            &t,
            &[
                &["c0", "c1", "c2", "c3", "c4"],
                &["c4", "c3", "c2", "c1", "c0"],
            ],
        );
    }

    #[test]
    fn index_copies_first_sight_and_merges_later_ones() {
        let a = AggState {
            rows: 1,
            sum_wx: -0.0,
            ..AggState::new()
        };
        let mut b = AggState::new();
        b.update(5.0, 1.0);
        let mut index = GroupIndex::<u64>::default();
        index.merge(7, &[a]);
        assert_eq!(
            index.table.states[0].sum_wx.to_bits(),
            (-0.0f64).to_bits(),
            "copied, not merged"
        );
        index.merge(9, &[b]);
        index.merge(7, &[b]);
        assert_eq!(index.table.keys, vec![7, 9], "first-touch order");
        assert_eq!(index.table.states[0].rows, 2);
        assert_eq!(index.table.states[0].max, 5.0);
        assert_eq!(index.table.states[1].rows, 1);
        // touch() hands out the same slots and appends fresh states.
        assert_eq!(index.touch(9, 1), 1);
        assert_eq!(index.touch(11, 1), 2);
        assert_eq!(index.table.states[2], AggState::new());
    }
}
