//! Predicate expressions.
//!
//! The workload class of the paper (Section 5.2.3) uses conjunctions of
//! per-column predicates whose most common form is "column value belongs to
//! a randomly-chosen subset of its distinct values" — an IN-list. [`Expr`]
//! covers that plus ordinary comparisons and boolean combinators, which is
//! everything the select–project–join–group-by class needs.
//!
//! `CompiledExpr` is the executable form: an [`Expr`] bound to a concrete
//! [`DataSource`], with names resolved to column accessors and literals
//! pre-coerced into the column's native domain (dictionary codes for
//! strings, sorted `i64` lists for integer IN-lists). Both the scalar
//! per-row `CompiledExpr::eval` and the vectorised batch filters in
//! `selection` run over this one representation, so the two paths
//! cannot disagree about predicate semantics.

use crate::error::QueryResult;
use crate::source::{DataSource, ResolvedColumn};
use aqp_storage::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering outcome.
    pub fn evaluate(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate expression over named columns.
///
/// NULL semantics are SQL-like for the supported fragment: a comparison or
/// IN-list over a NULL cell is false (not unknown-propagating three-valued
/// logic — `Not` is plain negation — which is sufficient because the
/// workload generator never wraps nullable comparisons in NOT).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// `column op literal`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// `column IN (v1, v2, ...)` — the workload's dominant predicate form.
    InSet {
        /// Column name.
        column: String,
        /// The accepted values.
        values: Vec<Value>,
    },
    /// Conjunction; empty = TRUE.
    And(Vec<Expr>),
    /// Disjunction; empty = FALSE.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Convenience: `column = literal`.
    pub fn eq(column: impl Into<String>, literal: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            literal: literal.into(),
        }
    }

    /// Convenience: `column IN (values)`.
    pub fn in_set(column: impl Into<String>, values: Vec<Value>) -> Expr {
        Expr::InSet {
            column: column.into(),
            values,
        }
    }

    /// Convenience: comparison with an arbitrary operator.
    pub fn cmp(column: impl Into<String>, op: CmpOp, literal: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    /// Semantics-preserving canonical form, for plan-cache keys and any
    /// other consumer that needs "same predicate" to mean "same value":
    ///
    /// * nested `And`/`Or` of the same kind are flattened one level at a
    ///   time into a single n-ary node;
    /// * `And`/`Or` children are sorted by canonical encoding and
    ///   deduplicated (conjunction and disjunction commute and are
    ///   idempotent); single-child nodes unwrap;
    /// * `Not(Not(e))` collapses to `e`;
    /// * IN-list values are sorted and deduplicated (bitwise for floats —
    ///   membership is type-strict, so no cross-type coercion here);
    /// * integral `Float64` comparison literals become `Int64` (`x >= 10.0`
    ///   ≡ `x >= 10`: every comparison path coerces numerics), except
    ///   `-0.0`, which IEEE total order distinguishes from `0`.
    pub fn canonicalize(&self) -> Expr {
        match self {
            Expr::Cmp { column, op, literal } => Expr::Cmp {
                column: column.clone(),
                op: *op,
                literal: canon_cmp_literal(literal),
            },
            Expr::InSet { column, values } => {
                let mut values = values.clone();
                values.sort_unstable();
                values.dedup();
                Expr::InSet {
                    column: column.clone(),
                    values,
                }
            }
            Expr::And(es) => canon_nary(es, true),
            Expr::Or(es) => canon_nary(es, false),
            Expr::Not(e) => match e.canonicalize() {
                Expr::Not(inner) => *inner,
                other => Expr::Not(Box::new(other)),
            },
        }
    }

    /// A stable, unambiguous text encoding of the expression, used to
    /// order [`Expr::canonicalize`]'s n-ary children and as the predicate
    /// component of plan-cache keys. Strings are length-prefixed and
    /// floats encoded by bit pattern, so distinct expressions cannot
    /// collide and the encoding is identical on every platform.
    pub fn canonical_encoding(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Expr::Cmp { column, op, literal } => {
                out.push_str("cmp(");
                write_canon_str(out, column);
                out.push(',');
                out.push_str(match op {
                    CmpOp::Eq => "eq",
                    CmpOp::Ne => "ne",
                    CmpOp::Lt => "lt",
                    CmpOp::Le => "le",
                    CmpOp::Gt => "gt",
                    CmpOp::Ge => "ge",
                });
                out.push(',');
                write_canon_value(out, literal);
                out.push(')');
            }
            Expr::InSet { column, values } => {
                out.push_str("in(");
                write_canon_str(out, column);
                out.push_str(",[");
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_canon_value(out, v);
                }
                out.push_str("])");
            }
            Expr::And(es) => {
                out.push_str("and(");
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    e.write_canonical(out);
                }
                out.push(')');
            }
            Expr::Or(es) => {
                out.push_str("or(");
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    e.write_canonical(out);
                }
                out.push(')');
            }
            Expr::Not(e) => {
                out.push_str("not(");
                e.write_canonical(out);
                out.push(')');
            }
        }
    }

    /// All column names referenced by the expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Cmp { column, .. } | Expr::InSet { column, .. } => out.push(column),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_columns(out);
                }
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }
}

/// Flatten, canonicalize, sort, and dedupe the children of an n-ary
/// boolean node (`and` when `conj`, else `or`), unwrapping singletons.
fn canon_nary(es: &[Expr], conj: bool) -> Expr {
    let mut children: Vec<Expr> = Vec::with_capacity(es.len());
    for e in es {
        match (e.canonicalize(), conj) {
            (Expr::And(inner), true) | (Expr::Or(inner), false) => children.extend(inner),
            (other, _) => children.push(other),
        }
    }
    let mut keyed: Vec<(String, Expr)> = children
        .into_iter()
        .map(|e| (e.canonical_encoding(), e))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let mut children: Vec<Expr> = keyed.into_iter().map(|(_, e)| e).collect();
    if children.len() == 1 {
        return children.pop().expect("one child");
    }
    if conj {
        Expr::And(children)
    } else {
        Expr::Or(children)
    }
}

/// Comparison literals coerce numerics on every execution path, so an
/// integral float literal is the same comparison as the integer one.
/// `-0.0` stays a float (IEEE total order puts it strictly below `0`),
/// and anything beyond 2^53 stays a float (no longer exactly integral).
fn canon_cmp_literal(v: &Value) -> Value {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    match v {
        Value::Float64(f)
            if f.fract() == 0.0
                && f.abs() <= EXACT
                && !(*f == 0.0 && f.is_sign_negative()) =>
        {
            Value::Int64(*f as i64)
        }
        other => other.clone(),
    }
}

/// Length-prefixed string: unambiguous regardless of content.
fn write_canon_str(out: &mut String, s: &str) {
    out.push_str(&s.len().to_string());
    out.push(':');
    out.push_str(s);
}

fn write_canon_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push('n'),
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Int64(i) => {
            out.push('i');
            out.push_str(&i.to_string());
        }
        Value::Float64(f) => {
            out.push('f');
            out.push_str(&format!("{:016x}", f.to_bits()));
        }
        Value::Utf8(s) => {
            out.push('s');
            write_canon_str(out, s);
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Cmp { column, op, literal } => write!(f, "{column} {op} {literal}"),
            Expr::InSet { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            Expr::And(es) => {
                if es.is_empty() {
                    return f.write_str("TRUE");
                }
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "({e})")?;
                }
                Ok(())
            }
            Expr::Or(es) => {
                if es.is_empty() {
                    return f.write_str("FALSE");
                }
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    write!(f, "({e})")?;
                }
                Ok(())
            }
            Expr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

/// A dense membership bitmap over dictionary codes `0..len`.
///
/// An IN-list over a dictionary column compiles to one bit per dictionary
/// entry, so the per-row test is a shift and a mask — no hashing, and the
/// same O(1) whether the scalar or the batch filter runs it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CodeBitmap {
    words: Vec<u64>,
}

impl CodeBitmap {
    /// Build from the accepted codes of a dictionary with `dict_len` entries.
    pub(crate) fn from_codes(dict_len: usize, codes: impl IntoIterator<Item = u32>) -> Self {
        let mut words = vec![0u64; dict_len.div_ceil(64)];
        for code in codes {
            words[code as usize / 64] |= 1u64 << (code % 64);
        }
        CodeBitmap { words }
    }

    /// Whether `code` is in the set.
    #[inline]
    pub(crate) fn contains(&self, code: u32) -> bool {
        self.words
            .get(code as usize / 64)
            .is_some_and(|w| (w >> (code % 64)) & 1 == 1)
    }

    /// Whether any code set in `words` (a presence bitmap over the same
    /// dictionary, e.g. a zone-map block summary) is accepted. Missing
    /// trailing words on either side read as zero.
    pub(crate) fn intersects_words(&self, words: &[u64]) -> bool {
        self.words.iter().zip(words).any(|(a, b)| a & b != 0)
    }

    /// Whether every code set in `words` is accepted — i.e. the presence
    /// set is a subset of this IN-list, so every non-null row matches.
    pub(crate) fn superset_of_words(&self, words: &[u64]) -> bool {
        words
            .iter()
            .enumerate()
            .all(|(i, w)| w & !self.words.get(i).copied().unwrap_or(0) == 0)
    }
}

/// A predicate compiled against a concrete data source.
///
/// Leaves carry resolved columns and natively-typed literals; the batch
/// filters in [`crate::selection`] pattern-match these variants to pick a
/// monomorphised kernel, and fall back to [`Self::eval`] per row for the
/// generic forms.
pub(crate) enum CompiledExpr<'a> {
    /// IN-list over a dictionary column, resolved to a code bitmap. Values
    /// absent from the dictionary can never match and are dropped at
    /// compile time.
    DictInSet {
        /// The string column.
        col: ResolvedColumn<'a>,
        /// Accepted dictionary codes.
        codes: CodeBitmap,
    },
    /// IN-list over an integer column, sorted and deduplicated so the
    /// per-row test is a branch-free binary search (and deterministic —
    /// no hash-set iteration anywhere).
    IntInSet {
        /// The integer column.
        col: ResolvedColumn<'a>,
        /// Accepted values, ascending and unique.
        values: Vec<i64>,
    },
    /// Comparison over an integer column.
    IntCmp {
        /// The integer column.
        col: ResolvedColumn<'a>,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        literal: i64,
    },
    /// Comparison over a float column (integer literals coerce). Ordering
    /// is IEEE `total_cmp`, in both the scalar and batch kernels.
    FloatCmp {
        /// The float column.
        col: ResolvedColumn<'a>,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        literal: f64,
    },
    /// Generic fallback comparison via dynamic values.
    GenericCmp {
        /// The column.
        col: ResolvedColumn<'a>,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        literal: Value,
    },
    /// Generic fallback IN-list.
    GenericInSet {
        /// The column.
        col: ResolvedColumn<'a>,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Conjunction.
    And(Vec<CompiledExpr<'a>>),
    /// Disjunction.
    Or(Vec<CompiledExpr<'a>>),
    /// Negation.
    Not(Box<CompiledExpr<'a>>),
}

impl CompiledExpr<'_> {
    /// Scalar per-row evaluation. NULL cells fail every leaf.
    pub(crate) fn eval(&self, row: usize) -> bool {
        match self {
            CompiledExpr::DictInSet { col, codes } => {
                let prow = col.physical_row(row);
                if col.column.is_null(prow) {
                    return false;
                }
                match col.column.as_utf8() {
                    Some((col_codes, _)) => codes.contains(col_codes.get(prow)),
                    None => false,
                }
            }
            CompiledExpr::IntInSet { col, values } => {
                let prow = col.physical_row(row);
                if col.column.is_null(prow) {
                    return false;
                }
                match col.column.as_int64() {
                    Some(data) => values.binary_search(&data[prow]).is_ok(),
                    None => false,
                }
            }
            CompiledExpr::IntCmp { col, op, literal } => {
                let prow = col.physical_row(row);
                if col.column.is_null(prow) {
                    return false;
                }
                match col.column.as_int64() {
                    Some(data) => op.evaluate(data[prow].cmp(literal)),
                    None => false,
                }
            }
            CompiledExpr::FloatCmp { col, op, literal } => {
                let prow = col.physical_row(row);
                if col.column.is_null(prow) {
                    return false;
                }
                match col.column.as_float64() {
                    Some(data) => op.evaluate(data[prow].total_cmp(literal)),
                    None => false,
                }
            }
            CompiledExpr::GenericCmp { col, op, literal } => {
                let v = col.value(row);
                if v.is_null() {
                    return false;
                }
                op.evaluate(v.cmp(&literal.as_ref()))
            }
            CompiledExpr::GenericInSet { col, values } => {
                let v = col.value(row);
                if v.is_null() {
                    return false;
                }
                values.iter().any(|lit| v == lit.as_ref())
            }
            CompiledExpr::And(es) => es.iter().all(|e| e.eval(row)),
            CompiledExpr::Or(es) => es.iter().any(|e| e.eval(row)),
            CompiledExpr::Not(e) => !e.eval(row),
        }
    }
}

/// Compile an [`Expr`] against `source`, resolving names and coercing
/// literals into typed fast-path forms where the column type allows.
pub(crate) fn compile<'a>(expr: &Expr, source: &DataSource<'a>) -> QueryResult<CompiledExpr<'a>> {
    Ok(match expr {
        Expr::InSet { column, values } => {
            let col = source.resolve(column)?;
            match col.data_type() {
                DataType::Utf8 => {
                    let (_, dict) = col.column.as_utf8().expect("utf8 column");
                    let codes = CodeBitmap::from_codes(
                        dict.len(),
                        values
                            .iter()
                            .filter_map(|v| v.as_str().and_then(|s| dict.code(s))),
                    );
                    CompiledExpr::DictInSet { col, codes }
                }
                DataType::Int64 => {
                    // Coerce integral float literals (IN (2.0) must match
                    // an Int64 2, consistently with `= 2.0`); non-integral
                    // floats can never match an integer and are dropped.
                    let ints: Option<Vec<i64>> = values
                        .iter()
                        .filter(|v| !matches!(v, Value::Float64(f) if f.fract() != 0.0))
                        .map(|v| match v {
                            Value::Float64(f) => Some(*f as i64),
                            other => other.as_i64(),
                        })
                        .collect();
                    match ints {
                        Some(mut values) => {
                            values.sort_unstable();
                            values.dedup();
                            CompiledExpr::IntInSet { col, values }
                        }
                        None => CompiledExpr::GenericInSet {
                            col,
                            values: values.clone(),
                        },
                    }
                }
                _ => CompiledExpr::GenericInSet {
                    col,
                    values: values.clone(),
                },
            }
        }
        Expr::Cmp { column, op, literal } => {
            let col = source.resolve(column)?;
            match (col.data_type(), literal) {
                (DataType::Int64, Value::Int64(l)) => CompiledExpr::IntCmp {
                    col,
                    op: *op,
                    literal: *l,
                },
                (DataType::Float64, lit) if lit.as_f64().is_some() => CompiledExpr::FloatCmp {
                    col,
                    op: *op,
                    literal: lit.as_f64().expect("checked"),
                },
                _ => CompiledExpr::GenericCmp {
                    col,
                    op: *op,
                    literal: literal.clone(),
                },
            }
        }
        Expr::And(es) => CompiledExpr::And(
            es.iter()
                .map(|e| compile(e, source))
                .collect::<QueryResult<_>>()?,
        ),
        Expr::Or(es) => CompiledExpr::Or(
            es.iter()
                .map(|e| compile(e, source))
                .collect::<QueryResult<_>>()?,
        ),
        Expr::Not(e) => CompiledExpr::Not(Box::new(compile(e, source)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_bitmap_membership() {
        let bm = CodeBitmap::from_codes(130, [0u32, 63, 64, 129]);
        for c in [0u32, 63, 64, 129] {
            assert!(bm.contains(c));
        }
        for c in [1u32, 62, 65, 128, 130, 1000] {
            assert!(!bm.contains(c), "{c}");
        }
        assert!(!CodeBitmap::from_codes(0, []).contains(0));
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.evaluate(Equal));
        assert!(!CmpOp::Eq.evaluate(Less));
        assert!(CmpOp::Ne.evaluate(Greater));
        assert!(CmpOp::Lt.evaluate(Less));
        assert!(CmpOp::Le.evaluate(Equal));
        assert!(!CmpOp::Le.evaluate(Greater));
        assert!(CmpOp::Gt.evaluate(Greater));
        assert!(CmpOp::Ge.evaluate(Equal));
    }

    #[test]
    fn referenced_columns_deduped_sorted() {
        let e = Expr::And(vec![
            Expr::eq("b", 1i64),
            Expr::Or(vec![Expr::eq("a", 2i64), Expr::in_set("b", vec![3i64.into()])]),
            Expr::Not(Box::new(Expr::eq("c", 4i64))),
        ]);
        assert_eq!(e.referenced_columns(), vec!["a", "b", "c"]);
    }

    #[test]
    fn canonicalize_commutes_flattens_and_dedupes() {
        let a = Expr::eq("a", 1i64);
        let b = Expr::in_set("b", vec![3i64.into(), 1i64.into(), 2i64.into(), 3i64.into()]);
        let left = Expr::And(vec![a.clone(), Expr::And(vec![b.clone(), a.clone()])]);
        let right = Expr::And(vec![b.clone(), a.clone()]);
        assert_eq!(left.canonicalize(), right.canonicalize());
        assert_eq!(
            left.canonicalize().canonical_encoding(),
            right.canonicalize().canonical_encoding()
        );
        // IN-list values sorted and deduped.
        match right.canonicalize() {
            Expr::And(es) => match &es[1] {
                Expr::InSet { values, .. } => {
                    assert_eq!(values, &vec![1i64.into(), 2i64.into(), 3i64.into()])
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // Or commutes too; And vs Or stay distinct.
        let o1 = Expr::Or(vec![a.clone(), b.clone()]).canonicalize();
        let o2 = Expr::Or(vec![b.clone(), a.clone()]).canonicalize();
        assert_eq!(o1, o2);
        assert_ne!(
            o1.canonical_encoding(),
            Expr::And(vec![a.clone(), b.clone()]).canonicalize().canonical_encoding()
        );
        // Singletons unwrap; double negation collapses.
        assert_eq!(Expr::And(vec![a.clone()]).canonicalize(), a);
        assert_eq!(
            Expr::Not(Box::new(Expr::Not(Box::new(a.clone())))).canonicalize(),
            a
        );
    }

    #[test]
    fn canonicalize_normalizes_cmp_literals_but_not_in_lists() {
        // x >= 10.0 and x >= 10 are the same comparison everywhere.
        let float = Expr::cmp("x", CmpOp::Ge, 10.0f64).canonicalize();
        let int = Expr::cmp("x", CmpOp::Ge, 10i64).canonicalize();
        assert_eq!(float, int);
        // -0.0 and 0 are NOT the same under IEEE total order.
        assert_ne!(
            Expr::cmp("x", CmpOp::Lt, -0.0f64).canonicalize(),
            Expr::cmp("x", CmpOp::Lt, 0i64).canonicalize()
        );
        // IN-list membership is type-strict: 2.0 must stay a float.
        let e = Expr::in_set("x", vec![2.0f64.into()]).canonicalize();
        match e {
            Expr::InSet { ref values, .. } => assert_eq!(values[0], 2.0f64.into()),
            other => panic!("{other:?}"),
        }
        assert_ne!(
            e.canonical_encoding(),
            Expr::in_set("x", vec![2i64.into()]).canonical_encoding()
        );
    }

    #[test]
    fn canonical_encoding_is_injective_on_tricky_strings() {
        // Length prefixes keep adversarial strings from colliding.
        let a = Expr::eq("c", "x),cmp(");
        let b = Expr::eq("c", "y");
        assert_ne!(a.canonical_encoding(), b.canonical_encoding());
        let c = Expr::in_set("c", vec!["a,b".into()]);
        let d = Expr::in_set("c", vec!["a".into(), "b".into()]);
        assert_ne!(c.canonical_encoding(), d.canonical_encoding());
    }

    #[test]
    fn display_renders_sql_like() {
        let e = Expr::And(vec![
            Expr::cmp("price", CmpOp::Ge, 10.0f64),
            Expr::in_set("brand", vec!["X".into(), "Y".into()]),
        ]);
        let s = e.to_string();
        assert!(s.contains("price >= 10"));
        assert!(s.contains("brand IN (X, Y)"));
        assert_eq!(Expr::And(vec![]).to_string(), "TRUE");
        assert_eq!(Expr::Or(vec![]).to_string(), "FALSE");
    }
}
