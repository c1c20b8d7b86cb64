//! Tile programs: the engine's vectorized expression evaluator.
//!
//! Every operator compiles each bound [`Expr`] it evaluates — its filter,
//! group key, and aggregate, semijoin, groupjoin and window inputs — once
//! per execution against the operator's pinned table. Compilation resolves
//! each column name to its position in the table, narrows literals to the
//! column's native type, and picks a specialised `swole_kernels` loop for
//! every shape it recognises:
//!
//! * `col ⋈ lit` at the column's own width. A literal outside the column
//!   type's range folds to a constant mask.
//! * Bounds on one column conjoined in an `AND` (`col >= lo AND col < hi`,
//!   `BETWEEN`) intersect into one interval test: `cmp_between`, or
//!   `cmp_le`/`cmp_ge`/`cmp_eq` when one side is open or the interval is a
//!   single value. Integer bounds make the fusion exact.
//! * `AND`/`OR` (flattened to n-ary) and `NOT`, folded into the output tile
//!   with one stack scratch tile per n-ary node.
//! * Dictionary `IN`/`LIKE`: the per-entry match table is built at compile
//!   time; each tile is one `in_code_table` pass.
//!
//! Value programs widen columns straight into the caller's `i64` tile and
//! fold `+ − × ÷` with a column or literal operand in place. `CASE` runs
//! both branches and blends them by the mask (value masking, § III-A).
//! Arithmetic wraps exactly as in [`Expr::eval_row`], and `÷` by zero still
//! panics: the worker's isolation domain turns that into a typed error and
//! the engine retries under the interpreter.
//!
//! Every other shape becomes a generic `i64` node of the same program. A
//! tile allocates nothing: temporaries are fixed `[_; TILE]` arrays on the
//! worker's stack. To bound that stack, a subtree nested deeper than
//! [`MAX_SCRATCH_DEPTH`] scratch frames is evaluated row by row with
//! [`Expr::eval_row`] — the interpreter oracle every program is tested
//! against.

use std::sync::Arc;

use crate::expr::{AggFunc, CmpOp, Expr};
use crate::logical::AggSpec;
use swole_kernels::{predicate, AsI64, TILE};
use swole_storage::{like_match, ColumnData, Table};

/// Scratch frames (about one `i64` tile each; a generic comparison takes
/// two) a program may nest before the rest of its subtree runs row by row.
const MAX_SCRATCH_DEPTH: usize = 16;

/// A compiled predicate over one pinned table.
pub(crate) struct MaskProgram {
    table: Arc<Table>,
    root: MaskNode,
}

impl MaskProgram {
    /// Compile a validated boolean expression against `table`.
    pub(crate) fn compile(expr: &Expr, table: &Arc<Table>) -> MaskProgram {
        MaskProgram {
            root: Compiler { table }.mask(expr, MAX_SCRATCH_DEPTH),
            table: Arc::clone(table),
        }
    }

    /// The 0/1 mask of rows `[start, start + out.len())`.
    #[inline]
    pub(crate) fn eval(&self, start: usize, out: &mut [u8]) {
        self.root.eval(&self.table, start, out);
    }
}

/// A compiled value expression over one pinned table.
pub(crate) struct ValueProgram {
    table: Arc<Table>,
    root: ValNode,
}

impl ValueProgram {
    /// Compile a validated expression against `table`.
    pub(crate) fn compile(expr: &Expr, table: &Arc<Table>) -> ValueProgram {
        ValueProgram {
            root: Compiler { table }.value(expr, MAX_SCRATCH_DEPTH),
            table: Arc::clone(table),
        }
    }

    /// The values of rows `[start, start + out.len())`, widened to `i64`.
    #[inline]
    pub(crate) fn eval(&self, start: usize, out: &mut [i64]) {
        self.root.eval(&self.table, start, out);
    }
}

/// One aggregate with its input compiled: what the tile bodies fold.
pub(crate) struct AggProgram {
    pub(crate) func: AggFunc,
    /// The input values (never evaluated for `count(*)`).
    pub(crate) input: ValueProgram,
}

/// Compile every aggregate input of an operator against its table.
pub(crate) fn compile_aggs(aggs: &[AggSpec], table: &Arc<Table>) -> Arc<[AggProgram]> {
    aggs.iter()
        .map(|a| AggProgram {
            func: a.func,
            input: ValueProgram::compile(&a.expr, table),
        })
        .collect()
}

/// One tile of a column at its native width; dictionary columns give their
/// `u32` codes.
#[derive(Clone, Copy)]
enum Slice<'a> {
    I8(&'a [i8]),
    I16(&'a [i16]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    U32(&'a [u32]),
}

/// Run `$body` with `$s` bound to the tile's native-width slice: one match
/// per tile, then a monomorphized loop.
macro_rules! native {
    ($slice:expr, $s:ident => $body:expr) => {
        match $slice {
            Slice::I8($s) => $body,
            Slice::I16($s) => $body,
            Slice::I32($s) => $body,
            Slice::I64($s) => $body,
            Slice::U32($s) => $body,
        }
    };
}

/// A column's storage type, as the kernels see it.
trait Native: AsI64 + PartialOrd {
    /// `v` in this type; compilation proved it lies in the type's range.
    fn narrow(v: i64) -> Self;
}

macro_rules! impl_native {
    ($($t:ty),*) => {
        $(impl Native for $t {
            #[inline(always)]
            fn narrow(v: i64) -> $t {
                v as $t
            }
        })*
    };
}

impl_native!(i8, i16, i32, u32);

impl Native for i64 {
    #[inline(always)]
    fn narrow(v: i64) -> i64 {
        v
    }
}

/// A column resolved at compile time to its position in the pinned table.
#[derive(Clone, Copy, Debug)]
struct Col(usize);

impl Col {
    /// Rows `[start, start + len)` at the column's native width.
    #[inline]
    fn tile(self, table: &Table, start: usize, len: usize) -> Slice<'_> {
        let rows = start..start + len;
        match table.column_at(self.0) {
            ColumnData::I8(v) => Slice::I8(&v[rows]),
            ColumnData::I16(v) => Slice::I16(&v[rows]),
            ColumnData::I32(v) => Slice::I32(&v[rows]),
            ColumnData::I64(v) => Slice::I64(&v[rows]),
            ColumnData::U32(v) => Slice::U32(&v[rows]),
            ColumnData::Dict(d) => Slice::U32(&d.codes()[rows]),
        }
    }
}

/// The value range of a column's native type (codes for dictionaries).
fn type_range(col: &ColumnData) -> (i64, i64) {
    match col {
        ColumnData::I8(_) => (i8::MIN.into(), i8::MAX.into()),
        ColumnData::I16(_) => (i16::MIN.into(), i16::MAX.into()),
        ColumnData::I32(_) => (i32::MIN.into(), i32::MAX.into()),
        ColumnData::I64(_) => (i64::MIN, i64::MAX),
        ColumnData::U32(_) | ColumnData::Dict(_) => (0, u32::MAX.into()),
    }
}

/// `a ⋈ b` rewritten as `b ⋈' a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// The values `lo ..= hi` a `col ⋈ lit` bound admits (empty when
/// `lo > hi`). `i128` keeps `lit ± 1` exact at the `i64` edges.
#[derive(Clone, Copy)]
struct Interval {
    lo: i128,
    hi: i128,
}

impl Interval {
    /// The bound `col op lit`; `None` for `<>`, which is no interval.
    fn of(op: CmpOp, lit: i64) -> Option<Interval> {
        let (l, min, max) = (i128::from(lit), i128::from(i64::MIN), i128::from(i64::MAX));
        let (lo, hi) = match op {
            CmpOp::Lt => (min, l - 1),
            CmpOp::Le => (min, l),
            CmpOp::Gt => (l + 1, max),
            CmpOp::Ge => (l, max),
            CmpOp::Eq => (l, l),
            CmpOp::Ne => return None,
        };
        Some(Interval { lo, hi })
    }

    fn intersect(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// The test for this interval on a column whose type spans
    /// `min ..= max`: constant when the type decides it, else the tightest
    /// kernel.
    fn lower(self, col: Col, (min, max): (i64, i64)) -> MaskNode {
        let (tmin, tmax) = (i128::from(min), i128::from(max));
        let (lo, hi) = (self.lo.max(tmin), self.hi.min(tmax));
        if lo > hi {
            return MaskNode::Const(0);
        }
        // Clamped into the column type's range, so both fit in i64.
        let (l, h) = (lo as i64, hi as i64);
        let test = match (lo == tmin, hi == tmax) {
            (true, true) => return MaskNode::Const(1),
            (true, false) => LitTest::Le(h),
            (false, true) => LitTest::Ge(l),
            (false, false) if l == h => LitTest::Eq(l),
            (false, false) => LitTest::Between(l, h),
        };
        MaskNode::Lit(col, test)
    }
}

/// A `col ⋈ lit` kernel, its literals inside the column type's range.
#[derive(Clone, Copy, Debug)]
enum LitTest {
    Le(i64),
    Ge(i64),
    Eq(i64),
    Ne(i64),
    Between(i64, i64),
}

impl LitTest {
    #[inline]
    fn run<T: Native>(self, data: &[T], out: &mut [u8]) {
        match self {
            LitTest::Le(v) => predicate::cmp_le(data, T::narrow(v), out),
            LitTest::Ge(v) => predicate::cmp_ge(data, T::narrow(v), out),
            LitTest::Eq(v) => predicate::cmp_eq(data, T::narrow(v), out),
            LitTest::Ne(v) => predicate::cmp_ne(data, T::narrow(v), out),
            LitTest::Between(lo, hi) => {
                predicate::cmp_between(data, T::narrow(lo), T::narrow(hi), out)
            }
        }
    }
}

/// A node producing a 0/1 mask tile.
#[derive(Debug)]
enum MaskNode {
    Const(u8),
    Lit(Col, LitTest),
    /// Dictionary membership: `matches[code]`.
    Codes(Col, Box<[bool]>),
    And(Vec<MaskNode>),
    Or(Vec<MaskNode>),
    Not(Box<MaskNode>),
    /// Generic comparison over widened values.
    Cmp(CmpOp, Box<ValNode>, Box<ValNode>),
    /// A value read as a boolean: nonzero is true.
    NonZero(Box<ValNode>),
    /// Past the scratch-depth budget: row-wise evaluation.
    Row(Expr),
}

/// A node producing an `i64` value tile.
#[derive(Debug)]
enum ValNode {
    Lit(i64),
    Col(Col),
    /// `left op right`: `left` into the output tile, `right` folded in.
    Arith(Arith, Box<ValNode>, Operand),
    /// `case when _ then _ else _ end`, both branches evaluated.
    Case(Box<MaskNode>, Box<ValNode>, Box<ValNode>),
    /// A boolean read as 0/1.
    Mask(Box<MaskNode>),
    /// Past the scratch-depth budget: row-wise evaluation.
    Row(Expr),
}

/// The right operand of a fold: literals and columns are read in place;
/// anything else needs a scratch tile.
#[derive(Debug)]
enum Operand {
    Lit(i64),
    Col(Col),
    Node(Box<ValNode>),
}

#[derive(Clone, Copy, Debug)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
}

/// Lowers bound expressions against one table. `depth` counts the scratch
/// frames still allowed below the node being compiled: a child evaluated
/// while a helper's scratch tiles are live compiles with less.
struct Compiler<'t> {
    table: &'t Table,
}

impl Compiler<'_> {
    fn col(&self, name: &str) -> Col {
        Col(self
            .table
            .column_index(name)
            .unwrap_or_else(|| panic!("validated column {name} is missing")))
    }

    fn range(&self, col: Col) -> (i64, i64) {
        type_range(self.table.column_at(col.0))
    }

    /// `(col, op, lit)` when `a op b` compares a column with a literal,
    /// the literal on either side.
    fn col_lit(&self, op: CmpOp, a: &Expr, b: &Expr) -> Option<(Col, CmpOp, i64)> {
        match (a, b) {
            (Expr::Col(c), Expr::Lit(l)) => Some((self.col(c), op, *l)),
            (Expr::Lit(l), Expr::Col(c)) => Some((self.col(c), flip(op), *l)),
            _ => None,
        }
    }

    fn mask(&self, e: &Expr, depth: usize) -> MaskNode {
        match e {
            Expr::And(..) => self.conjunction(e, depth),
            Expr::Or(..) => {
                let mut terms = Vec::new();
                flatten(e, &mut terms, |e| match e {
                    Expr::Or(a, b) => Some((a, b)),
                    _ => None,
                });
                if depth == 0 {
                    return MaskNode::Row(e.clone());
                }
                MaskNode::Or(terms.iter().map(|t| self.mask(t, depth - 1)).collect())
            }
            Expr::Not(a) => match self.mask(a, depth) {
                MaskNode::Const(c) => MaskNode::Const(c ^ 1),
                m => MaskNode::Not(Box::new(m)),
            },
            Expr::Cmp(op, a, b) => self.comparison(e, *op, a, b, depth),
            Expr::Like { col, pattern } => self.codes(col, |v| like_match(pattern, v)),
            Expr::InList { col, values } => self.codes(col, |v| values.iter().any(|x| x == v)),
            Expr::Lit(v) => MaskNode::Const((*v != 0) as u8),
            Expr::Param(_) => MaskNode::Const(0),
            Expr::Col(name) => MaskNode::Lit(self.col(name), LitTest::Ne(0)),
            _ if depth == 0 => MaskNode::Row(e.clone()),
            _ => MaskNode::NonZero(Box::new(self.value(e, depth - 1))),
        }
    }

    /// Dictionary membership, matched once per dictionary entry.
    fn codes(&self, name: &str, matches: impl Fn(&str) -> bool) -> MaskNode {
        let col = self.col(name);
        let dict = self
            .table
            .column_at(col.0)
            .as_dict()
            .expect("validated dictionary column");
        MaskNode::Codes(col, dict.matching_codes(matches).into_boxed_slice())
    }

    /// An n-ary `AND`: literal bounds on the same column intersect into one
    /// interval test; the other conjuncts compile on their own.
    fn conjunction(&self, e: &Expr, depth: usize) -> MaskNode {
        if depth == 0 {
            return MaskNode::Row(e.clone());
        }
        let mut terms = Vec::new();
        flatten(e, &mut terms, |e| match e {
            Expr::And(a, b) => Some((a, b)),
            _ => None,
        });
        let mut bounds: Vec<(Col, Interval)> = Vec::new();
        let mut rest = Vec::new();
        for t in terms {
            let bound = match t {
                Expr::Cmp(op, a, b) => self
                    .col_lit(*op, a, b)
                    .and_then(|(col, op, lit)| Some((col, Interval::of(op, lit)?))),
                _ => None,
            };
            match bound {
                Some((col, iv)) => match bounds.iter_mut().find(|(c, _)| c.0 == col.0) {
                    Some((_, acc)) => *acc = acc.intersect(iv),
                    None => bounds.push((col, iv)),
                },
                None => rest.push(t),
            }
        }
        let mut nodes: Vec<MaskNode> = bounds
            .into_iter()
            .map(|(col, iv)| iv.lower(col, self.range(col)))
            .chain(rest.into_iter().map(|t| self.mask(t, depth - 1)))
            .filter(|n| !matches!(n, MaskNode::Const(1)))
            .collect();
        match nodes.len() {
            0 => MaskNode::Const(1),
            1 => nodes.pop().expect("one node"),
            _ => MaskNode::And(nodes),
        }
    }

    fn comparison(&self, e: &Expr, op: CmpOp, a: &Expr, b: &Expr, depth: usize) -> MaskNode {
        if let Some((col, op, lit)) = self.col_lit(op, a, b) {
            let (min, max) = self.range(col);
            return match Interval::of(op, lit) {
                Some(iv) => iv.lower(col, (min, max)),
                None if lit < min || lit > max => MaskNode::Const(1),
                None => MaskNode::Lit(col, LitTest::Ne(lit)),
            };
        }
        // A literal on the left folds in place once it is on the right.
        let (op, a, b) = if matches!(a, Expr::Lit(_)) && !leaf(b) {
            (flip(op), b, a)
        } else {
            (op, a, b)
        };
        // Both operands run inside `compare`, whose frame holds two
        // `i64` tiles.
        if depth < 2 {
            return MaskNode::Row(e.clone());
        }
        MaskNode::Cmp(
            op,
            Box::new(self.value(a, depth - 2)),
            Box::new(self.value(b, depth - 2)),
        )
    }

    fn operand(&self, e: &Expr, depth: usize) -> Operand {
        match e {
            Expr::Lit(v) => Operand::Lit(*v),
            Expr::Param(_) => Operand::Lit(0),
            Expr::Col(name) => Operand::Col(self.col(name)),
            _ => Operand::Node(Box::new(self.value(e, depth))),
        }
    }

    fn value(&self, e: &Expr, depth: usize) -> ValNode {
        match e {
            Expr::Col(name) => ValNode::Col(self.col(name)),
            Expr::Lit(v) => ValNode::Lit(*v),
            Expr::Param(_) => ValNode::Lit(0),
            Expr::Add(a, b) => self.arith(e, Arith::Add, a, b, depth),
            Expr::Sub(a, b) => self.arith(e, Arith::Sub, a, b, depth),
            Expr::Mul(a, b) => self.arith(e, Arith::Mul, a, b, depth),
            Expr::Div(a, b) => self.arith(e, Arith::Div, a, b, depth),
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                // All three parts run inside `case`, whose frame holds its
                // mask and `else` tiles.
                if depth == 0 {
                    return ValNode::Row(e.clone());
                }
                ValNode::Case(
                    Box::new(self.mask(when, depth - 1)),
                    Box::new(self.value(then, depth - 1)),
                    Box::new(self.value(otherwise, depth - 1)),
                )
            }
            _ if depth == 0 => ValNode::Row(e.clone()),
            _ => ValNode::Mask(Box::new(self.mask(e, depth - 1))),
        }
    }

    fn arith(&self, e: &Expr, op: Arith, a: &Expr, b: &Expr, depth: usize) -> ValNode {
        // Wrapping `+` and `×` commute: keep the leaf on the right, where
        // it folds in place.
        let (a, b) = match op {
            Arith::Add | Arith::Mul if leaf(a) && !leaf(b) => (b, a),
            _ => (a, b),
        };
        if !leaf(b) && depth == 0 {
            return ValNode::Row(e.clone());
        }
        ValNode::Arith(
            op,
            Box::new(self.value(a, depth)),
            self.operand(b, depth.saturating_sub(1)),
        )
    }
}

/// An expression read in place, without a tile of its own.
fn leaf(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_) | Expr::Col(_) | Expr::Param(_))
}

/// The operands of a chain of one associative operator, left to right.
fn flatten<'e, F>(e: &'e Expr, out: &mut Vec<&'e Expr>, split: F)
where
    F: Fn(&'e Expr) -> Option<(&'e Expr, &'e Expr)> + Copy,
{
    match split(e) {
        Some((a, b)) => {
            flatten(a, out, split);
            flatten(b, out, split);
        }
        None => out.push(e),
    }
}

impl MaskNode {
    fn eval(&self, t: &Table, start: usize, out: &mut [u8]) {
        let len = out.len();
        match self {
            MaskNode::Const(c) => out.fill(*c),
            MaskNode::Lit(col, test) => native!(col.tile(t, start, len), s => test.run(s, out)),
            MaskNode::Codes(col, matches) => match col.tile(t, start, len) {
                Slice::U32(codes) => predicate::in_code_table(codes, matches, out),
                _ => unreachable!("validated dictionary column"),
            },
            MaskNode::And(terms) => fold_terms(terms, t, start, out, predicate::and_into),
            MaskNode::Or(terms) => fold_terms(terms, t, start, out, predicate::or_into),
            MaskNode::Not(m) => {
                m.eval(t, start, out);
                predicate::not_inplace(out);
            }
            MaskNode::Cmp(op, a, b) => compare(*op, a, b, t, start, out),
            MaskNode::NonZero(v) => nonzero(v, t, start, out),
            MaskNode::Row(e) => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = (e.eval_row(t, start + j) != 0) as u8;
                }
            }
        }
    }
}

impl ValNode {
    fn eval(&self, t: &Table, start: usize, out: &mut [i64]) {
        let len = out.len();
        match self {
            ValNode::Lit(v) => out.fill(*v),
            ValNode::Col(col) => native!(col.tile(t, start, len), s => widen(s, out)),
            ValNode::Arith(op, left, right) => {
                left.eval(t, start, out);
                right.fold_into(*op, t, start, out);
            }
            ValNode::Case(when, then, otherwise) => case(when, then, otherwise, t, start, out),
            ValNode::Mask(m) => mask_values(m, t, start, out),
            ValNode::Row(e) => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = e.eval_row(t, start + j);
                }
            }
        }
    }
}

impl Operand {
    /// `out[j] = out[j] op self[j]`.
    fn fold_into(&self, op: Arith, t: &Table, start: usize, out: &mut [i64]) {
        match self {
            Operand::Lit(v) => op.lit_right(out, *v),
            Operand::Col(col) => native!(col.tile(t, start, out.len()), s => op.zip(out, s)),
            Operand::Node(n) => fold_node(op, n, t, start, out),
        }
    }
}

impl Arith {
    /// `out[j] = out[j] op rhs[j]`, wrapping (and panicking on `÷ 0`)
    /// exactly as [`Expr::eval_row`] does.
    #[inline]
    fn zip<T: AsI64>(self, out: &mut [i64], rhs: &[T]) {
        match self {
            Arith::Add => zip_apply(out, rhs, i64::wrapping_add),
            Arith::Sub => zip_apply(out, rhs, i64::wrapping_sub),
            Arith::Mul => zip_apply(out, rhs, i64::wrapping_mul),
            Arith::Div => zip_apply(out, rhs, i64::wrapping_div),
        }
    }

    /// `out[j] = out[j] op lit`.
    #[inline]
    fn lit_right(self, out: &mut [i64], lit: i64) {
        match self {
            Arith::Add => map_apply(out, |x| x.wrapping_add(lit)),
            Arith::Sub => map_apply(out, |x| x.wrapping_sub(lit)),
            Arith::Mul => map_apply(out, |x| x.wrapping_mul(lit)),
            Arith::Div => map_apply(out, |x| x.wrapping_div(lit)),
        }
    }
}

#[inline(always)]
fn zip_apply<T: AsI64>(out: &mut [i64], rhs: &[T], f: impl Fn(i64, i64) -> i64) {
    assert_eq!(out.len(), rhs.len());
    for (o, &r) in out.iter_mut().zip(rhs) {
        *o = f(*o, r.widen());
    }
}

#[inline(always)]
fn map_apply(out: &mut [i64], f: impl Fn(i64) -> i64) {
    for o in out {
        *o = f(*o);
    }
}

/// Widen a native tile into the caller's `i64` tile.
#[inline]
fn widen<T: AsI64>(data: &[T], out: &mut [i64]) {
    assert_eq!(data.len(), out.len());
    for (o, &x) in out.iter_mut().zip(data) {
        *o = x.widen();
    }
}

/// `out[j] = (a[j] op b[j])` over two `i64` tiles.
#[inline]
fn cmp_cols(op: CmpOp, a: &[i64], b: &[i64], out: &mut [u8]) {
    match op {
        CmpOp::Lt => predicate::cmp_lt_cols(a, b, out),
        CmpOp::Gt => predicate::cmp_lt_cols(b, a, out),
        // Integers are totally ordered: `a >= b` is exactly `!(a < b)`.
        CmpOp::Ge => {
            predicate::cmp_lt_cols(a, b, out);
            predicate::not_inplace(out);
        }
        CmpOp::Le => {
            predicate::cmp_lt_cols(b, a, out);
            predicate::not_inplace(out);
        }
        CmpOp::Eq => zip_test(a, b, out, |x, y| x == y),
        CmpOp::Ne => zip_test(a, b, out, |x, y| x != y),
    }
}

/// `out[j] = (a[j] op lit)` over an `i64` tile.
#[inline]
fn cmp_lit(op: CmpOp, a: &[i64], lit: i64, out: &mut [u8]) {
    match op {
        CmpOp::Lt => predicate::cmp_lt(a, lit, out),
        CmpOp::Le => predicate::cmp_le(a, lit, out),
        CmpOp::Gt => predicate::cmp_gt(a, lit, out),
        CmpOp::Ge => predicate::cmp_ge(a, lit, out),
        CmpOp::Eq => predicate::cmp_eq(a, lit, out),
        CmpOp::Ne => predicate::cmp_ne(a, lit, out),
    }
}

#[inline(always)]
fn zip_test(a: &[i64], b: &[i64], out: &mut [u8], f: impl Fn(i64, i64) -> bool) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y) as u8;
    }
}

// The helpers below own the stack scratch tiles. They stay out of line so
// that only the frames a program actually nests take stack space.

/// The first term into `out`, each further term through one scratch tile.
#[inline(never)]
fn fold_terms(
    terms: &[MaskNode],
    t: &Table,
    start: usize,
    out: &mut [u8],
    combine: fn(&mut [u8], &[u8]),
) {
    let mut scratch = [0u8; TILE];
    let scratch = &mut scratch[..out.len()];
    let (first, rest) = terms.split_first().expect("n-ary node has terms");
    first.eval(t, start, out);
    for term in rest {
        term.eval(t, start, scratch);
        combine(out, scratch);
    }
}

#[inline(never)]
fn compare(op: CmpOp, a: &ValNode, b: &ValNode, t: &Table, start: usize, out: &mut [u8]) {
    let len = out.len();
    let mut av = [0i64; TILE];
    let av = &mut av[..len];
    a.eval(t, start, av);
    if let ValNode::Lit(v) = b {
        return cmp_lit(op, av, *v, out);
    }
    let mut bv = [0i64; TILE];
    let bv = &mut bv[..len];
    b.eval(t, start, bv);
    cmp_cols(op, av, bv, out);
}

#[inline(never)]
fn nonzero(v: &ValNode, t: &Table, start: usize, out: &mut [u8]) {
    let mut vals = [0i64; TILE];
    let vals = &mut vals[..out.len()];
    v.eval(t, start, vals);
    for (o, &x) in out.iter_mut().zip(vals.iter()) {
        *o = (x != 0) as u8;
    }
}

#[inline(never)]
fn mask_values(m: &MaskNode, t: &Table, start: usize, out: &mut [i64]) {
    let mut mask = [0u8; TILE];
    let mask = &mut mask[..out.len()];
    m.eval(t, start, mask);
    widen(mask, out);
}

#[inline(never)]
fn fold_node(op: Arith, n: &ValNode, t: &Table, start: usize, out: &mut [i64]) {
    let mut rhs = [0i64; TILE];
    let rhs = &mut rhs[..out.len()];
    n.eval(t, start, rhs);
    op.zip(out, rhs);
}

/// Value masking (§ III-A): both branches run for every row and the 0/1
/// mask picks one; neither product of the blend can overflow.
#[inline(never)]
fn case(
    when: &MaskNode,
    then: &ValNode,
    otherwise: &ValNode,
    t: &Table,
    start: usize,
    out: &mut [i64],
) {
    let len = out.len();
    then.eval(t, start, out);
    let mut mask = [0u8; TILE];
    let mask = &mut mask[..len];
    when.eval(t, start, mask);
    let mut other = [0i64; TILE];
    let other = &mut other[..len];
    otherwise.eval(t, start, other);
    for ((o, &m), &x) in out.iter_mut().zip(mask.iter()).zip(other.iter()) {
        let m = m as i64;
        *o = *o * m + x * (1 - m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swole_storage::DictColumn;

    fn table() -> Arc<Table> {
        Arc::new(
            Table::new("t")
                .with_column("x", ColumnData::I32(vec![1, 5, 13, 20, -3]))
                .with_column("a", ColumnData::I64(vec![10, 20, 30, 40, 50]))
                .with_column(
                    "s",
                    ColumnData::Dict(DictColumn::encode(&[
                        "PROMO A", "STD", "PROMO B", "STD", "X",
                    ])),
                )
                .with_column("n", ColumnData::I8(vec![-128, -1, 0, 100, 127]))
                .with_column("h", ColumnData::I16(vec![-300, 0, 7, 300, 32767]))
                .with_column("u", ColumnData::U32(vec![0, 1, 7, 9, u32::MAX]))
                .with_column("y", ColumnData::I32(vec![2, 5, 1, 30, -4])),
        )
    }

    fn mask_of(e: &Expr, t: &Arc<Table>) -> Vec<u8> {
        let mut out = vec![0u8; t.len()];
        MaskProgram::compile(e, t).eval(0, &mut out);
        out
    }

    fn values_of(e: &Expr, t: &Arc<Table>) -> Vec<i64> {
        let mut out = vec![0i64; t.len()];
        ValueProgram::compile(e, t).eval(0, &mut out);
        out
    }

    /// The mask and the values agree with the interpreter oracle.
    fn assert_matches_oracle(e: &Expr, t: &Arc<Table>) {
        let rows: Vec<i64> = (0..t.len()).map(|r| e.eval_row(t, r)).collect();
        assert_eq!(values_of(e, t), rows, "{e:?}");
        let truth: Vec<u8> = rows.iter().map(|&v| (v != 0) as u8).collect();
        assert_eq!(mask_of(e, t), truth, "{e:?}");
    }

    fn cmp(col: &str, op: CmpOp, lit: i64) -> Expr {
        Expr::col(col).cmp(op, Expr::lit(lit))
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let t = table();
        let e = cmp("x", CmpOp::Lt, 13);
        assert_eq!(mask_of(&e, &t), vec![1, 1, 0, 0, 1]);
        let e2 = e.clone().and(cmp("x", CmpOp::Gt, 0));
        assert_eq!(mask_of(&e2, &t), vec![1, 1, 0, 0, 0]);
        let e3 = Expr::Not(Box::new(e2.clone()));
        assert_eq!(mask_of(&e3, &t), vec![0, 0, 1, 1, 1]);
        let e4 = e2.or(cmp("x", CmpOp::Eq, 13));
        assert_eq!(mask_of(&e4, &t), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn arithmetic_and_case() {
        let t = table();
        let e = Expr::col("a").mul(Expr::lit(2));
        assert_eq!(values_of(&e, &t), vec![20, 40, 60, 80, 100]);
        let case = Expr::Case {
            when: Box::new(cmp("x", CmpOp::Lt, 13)),
            then: Box::new(Expr::col("a")),
            otherwise: Box::new(Expr::lit(0)),
        };
        assert_eq!(values_of(&case, &t), vec![10, 20, 0, 0, 50]);
    }

    #[test]
    fn like_and_in_over_dictionary() {
        let t = table();
        let like = Expr::Like {
            col: "s".into(),
            pattern: "PROMO%".into(),
        };
        assert_eq!(mask_of(&like, &t), vec![1, 0, 1, 0, 0]);
        let inlist = Expr::InList {
            col: "s".into(),
            values: vec!["STD".into(), "X".into()],
        };
        assert_eq!(mask_of(&inlist, &t), vec![0, 1, 0, 1, 1]);
    }

    #[test]
    fn row_eval_matches_vectorized() {
        let t = table();
        let exprs = vec![
            cmp("x", CmpOp::Ge, 5),
            Expr::col("a").mul(Expr::col("x")),
            Expr::Case {
                when: Box::new(cmp("x", CmpOp::Lt, 10)),
                then: Box::new(Expr::col("a").mul(Expr::lit(3))),
                otherwise: Box::new(Expr::Sub(Box::new(Expr::col("a")), Box::new(Expr::lit(1)))),
            },
        ];
        for e in exprs {
            let vec = values_of(&e, &t);
            for (row, v) in vec.iter().enumerate() {
                assert_eq!(*v, e.eval_row(&t, row), "{e:?} row {row}");
            }
        }
    }

    #[test]
    fn tiled_evaluation_with_offset() {
        let t = table();
        let mut out = vec![0i64; 2];
        ValueProgram::compile(&Expr::col("a"), &t).eval(2, &mut out);
        assert_eq!(out, vec![30, 40]);
        let mut m = vec![0u8; 2];
        MaskProgram::compile(&cmp("x", CmpOp::Lt, 13), &t).eval(3, &mut m);
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn out_of_range_literals_fold_to_constants() {
        let t = table();
        for (e, expect) in [
            (cmp("n", CmpOp::Lt, 300), 1),
            (cmp("n", CmpOp::Gt, 300), 0),
            (cmp("n", CmpOp::Ge, -200), 1),
            (cmp("n", CmpOp::Eq, -200), 0),
            (cmp("n", CmpOp::Ne, 200), 1),
            (cmp("n", CmpOp::Le, 127), 1),
            (cmp("u", CmpOp::Gt, -1), 1),
            (cmp("u", CmpOp::Lt, -1), 0),
            (cmp("h", CmpOp::Lt, 40000), 1),
            (cmp("h", CmpOp::Gt, 40000), 0),
            (cmp("a", CmpOp::Lt, i64::MIN), 0),
            (cmp("a", CmpOp::Le, i64::MAX), 1),
            (Expr::lit(300).cmp(CmpOp::Gt, Expr::col("n")), 1),
        ] {
            let p = MaskProgram::compile(&e, &t);
            assert!(matches!(p.root, MaskNode::Const(c) if c == expect), "{e:?}");
            assert_matches_oracle(&e, &t);
        }
        // In range at the type's edge: a real test, not a constant.
        let edge = cmp("n", CmpOp::Lt, 127);
        assert!(matches!(
            MaskProgram::compile(&edge, &t).root,
            MaskNode::Lit(_, LitTest::Le(126))
        ));
        assert_matches_oracle(&edge, &t);
    }

    #[test]
    fn bounds_on_one_column_fuse_into_one_test() {
        let t = table();
        let between = cmp("x", CmpOp::Ge, 5).and(cmp("x", CmpOp::Lt, 20));
        assert!(matches!(
            MaskProgram::compile(&between, &t).root,
            MaskNode::Lit(_, LitTest::Between(5, 19))
        ));
        let point = cmp("x", CmpOp::Ge, 5).and(cmp("x", CmpOp::Le, 5));
        assert!(matches!(
            MaskProgram::compile(&point, &t).root,
            MaskNode::Lit(_, LitTest::Eq(5))
        ));
        let empty = cmp("x", CmpOp::Ge, 7).and(cmp("x", CmpOp::Le, 3));
        assert!(matches!(
            MaskProgram::compile(&empty, &t).root,
            MaskNode::Const(0)
        ));
        // Bounds on two columns, plus a non-bound conjunct, stay an AND of
        // one test per column and the rest.
        let mixed = Expr::lit(0)
            .cmp(CmpOp::Lt, Expr::col("x"))
            .and(cmp("a", CmpOp::Le, 40))
            .and(cmp("x", CmpOp::Le, 13))
            .and(cmp("x", CmpOp::Ne, 5));
        match MaskProgram::compile(&mixed, &t).root {
            MaskNode::And(terms) => assert_eq!(terms.len(), 3, "{terms:?}"),
            other => panic!("expected a conjunction, got {other:?}"),
        }
        for e in [between, point, empty, mixed] {
            assert_matches_oracle(&e, &t);
        }
    }

    #[test]
    fn columns_compare_through_widened_tiles() {
        let t = table();
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            // One width or two: both sides widen to `i64` tiles.
            for (a, b) in [("x", "y"), ("x", "n"), ("h", "u"), ("a", "s"), ("n", "x")] {
                let e = Expr::col(a).cmp(op, Expr::col(b));
                assert!(matches!(
                    MaskProgram::compile(&e, &t).root,
                    MaskNode::Cmp(..)
                ));
                assert_matches_oracle(&e, &t);
            }
        }
    }

    #[test]
    fn arithmetic_wraps_like_the_oracle() {
        let t = Arc::new(
            Table::new("w")
                .with_column("m", ColumnData::I64(vec![i64::MAX, i64::MIN, -1, 3]))
                .with_column("d", ColumnData::I8(vec![2, -1, 7, -3])),
        );
        let m = || Box::new(Expr::col("m"));
        let d = || Box::new(Expr::col("d"));
        for e in [
            Expr::Add(m(), m()),
            Expr::Sub(m(), d()),
            Expr::Sub(Box::new(Expr::lit(i64::MIN)), m()),
            Expr::Mul(m(), Box::new(Expr::lit(3))),
            Expr::Mul(Box::new(Expr::lit(-7)), Box::new(Expr::Add(m(), d()))),
            Expr::Div(m(), d()),
            Expr::Div(Box::new(Expr::lit(100)), d()),
            Expr::Add(m(), Box::new(Expr::Mul(m(), d()))),
            Expr::Case {
                when: Box::new(Expr::col("d").cmp(CmpOp::Gt, Expr::lit(0))),
                then: Box::new(Expr::Mul(m(), d())),
                otherwise: Box::new(Expr::Sub(d(), m())),
            },
        ] {
            assert_matches_oracle(&e, &t);
        }
    }

    #[test]
    fn division_by_zero_still_panics() {
        let t = table();
        let e = Expr::Div(
            Box::new(Expr::col("a")),
            Box::new(Expr::Sub(
                Box::new(Expr::col("x")),
                Box::new(Expr::col("x")),
            )),
        );
        let p = ValueProgram::compile(&e, &t);
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0i64; t.len()];
            p.eval(0, &mut out);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn deep_nesting_falls_back_to_row_evaluation() {
        let t = table();
        // Right-deep arithmetic needs one scratch tile per level.
        let mut v = Expr::col("x");
        for i in 0..3 * MAX_SCRATCH_DEPTH as i64 {
            v = Expr::Sub(Box::new(Expr::col("a").mul(Expr::lit(i))), Box::new(v));
        }
        let root = ValueProgram::compile(&v, &t).root;
        assert!(format!("{root:?}").contains("Row("));
        assert_matches_oracle(&v, &t);
        // So does a boolean nesting of alternating AND and OR.
        let mut p = cmp("x", CmpOp::Lt, 13);
        for i in 0..3 * MAX_SCRATCH_DEPTH as i64 {
            let leaf = cmp("a", CmpOp::Gt, i * 3);
            p = if i % 2 == 0 { leaf.and(p) } else { leaf.or(p) };
        }
        assert!(format!("{:?}", MaskProgram::compile(&p, &t).root).contains("Row("));
        assert_matches_oracle(&p, &t);
        // And CASE nested in its `then` branch, which runs inside the
        // enclosing CASE's frame.
        let mut c = Expr::col("a");
        for i in 0..3 * MAX_SCRATCH_DEPTH as i64 {
            c = Expr::Case {
                when: Box::new(cmp("x", CmpOp::Ne, i)),
                then: Box::new(c),
                otherwise: Box::new(Expr::lit(i)),
            };
        }
        assert!(format!("{:?}", ValueProgram::compile(&c, &t).root).contains("Row("));
        assert_matches_oracle(&c, &t);
    }
}
