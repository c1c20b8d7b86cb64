//! Window functions over a filtered scan.

use std::sync::Arc;

use super::program::ValueProgram;
use super::{tile_mask, Exec, Input, Worker};
use crate::engine::QueryResult;
use crate::error::PlanError;
use crate::expr::Expr;
use crate::logical::{FrameSpec, SortKey, WindowFnSpec, WindowFunc};
use crate::metrics::OpMetrics;
use swole_cost::WindowStrategy;
use swole_kernels::{selvec, tiles, AccessCounters, TILE};
use swole_runtime::{charge_or_panic, MemGauge};
use swole_storage::Table;

/// A planned window pipeline: partitioning, order, frame, functions,
/// projected columns and the frame strategy.
pub(crate) struct Window<'a> {
    pub(crate) partition_by: Option<&'a str>,
    pub(crate) order_by: &'a [SortKey],
    pub(crate) frame: FrameSpec,
    pub(crate) funcs: &'a [WindowFnSpec],
    pub(crate) select: &'a [String],
    pub(crate) strategy: WindowStrategy,
}

/// Thread-local state for the window operator's parallel filter phase:
/// the qualifying row ids of every tile this worker claimed.
struct WinScan {
    rows: Vec<u32>,
    ctr: AccessCounters,
    cmp: Vec<u8>,
}

impl Worker for WinScan {
    fn counters(&mut self) -> &mut AccessCounters {
        &mut self.ctr
    }
}

/// Evaluate `expr` for the (ascending) qualifying row ids, tile at a time,
/// through the same tile program as the aggregate paths, so dictionary
/// codes, decimals and CASE expressions behave exactly as they do there.
fn gather_expr(table: &Arc<Table>, expr: &Expr, row_ids: &[u32]) -> Vec<i64> {
    let program = ValueProgram::compile(expr, table);
    let mut out = Vec::with_capacity(row_ids.len());
    let mut buf = [0i64; TILE];
    let mut i = 0;
    for (start, len) in tiles(table.len()) {
        if i >= row_ids.len() {
            break;
        }
        let end = start + len;
        if (row_ids[i] as usize) >= end {
            continue;
        }
        program.eval(start, &mut buf[..len]);
        while i < row_ids.len() && (row_ids[i] as usize) < end {
            out.push(buf[row_ids[i] as usize - start]);
            i += 1;
        }
    }
    out
}

/// True when two qualifying rows are window-order peers (equal on every
/// order key; direction is irrelevant for equality).
fn order_peers(ord: &[Vec<i64>], a: usize, b: usize) -> bool {
    ord.iter().all(|k| k[a] == k[b])
}

/// Execute a window pipeline: parallel filter to a selection vector, then
/// a deterministic sequential sort + frame pass. Frame sums use wrapping
/// arithmetic, and the sequential frame scan's subtract-on-evict is the
/// exact inverse of its add (mod 2^64), so both strategies produce
/// bit-identical outputs at any thread count.
pub(crate) fn exec_window(
    exec: Exec<'_>,
    scan: Input<'_>,
    spec: Window<'_>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let Window {
        partition_by,
        order_by,
        frame,
        funcs,
        select,
        strategy,
    } = spec;
    let table = scan.table;
    let n = table.len();
    let counting = exec.counting();
    let timer = exec.timer();
    // Phase 1: qualifying-row selection vector, produced on morsel workers.
    // Sorting the workers' row ids gives exactly a sequential scan's
    // order, regardless of who claimed what.
    exec.gauge().try_charge(n.saturating_mul(4))?;
    let init = |g: &MemGauge| {
        charge_or_panic(g, TILE);
        WinScan {
            rows: Vec::new(),
            ctr: AccessCounters::default(),
            cmp: vec![0u8; TILE],
        }
    };
    let body = {
        let filter = scan.filter_program();
        move |w: &mut WinScan, start: usize, len: usize| {
            tile_mask(filter.as_ref(), start, &mut w.cmp[..len]);
            let before = w.rows.len();
            selvec::append_nobranch(&w.cmp[..len], start as u32, &mut w.rows);
            if counting {
                w.ctr.rows_out += (w.rows.len() - before) as u64;
            }
        }
    };
    let mut partials = exec.tiles(n, scan.filter.is_some(), init, body)?;
    let mut op = exec.op(scan.op, timer, &mut partials);
    let mut row_ids: Vec<u32> = partials.into_iter().flat_map(|p| p.rows).collect();
    row_ids.sort_unstable();
    let m = row_ids.len();

    // Phase 2: materialize partition key, order keys, projected columns and
    // function inputs for the qualifying rows (charged up front).
    let n_mat = 1 + order_by.len() + select.len() + funcs.len();
    exec.gauge()
        .try_charge(m.saturating_mul(8).saturating_mul(n_mat))?;
    let part: Vec<i64> = match partition_by {
        Some(p) => gather_expr(table, &Expr::col(p), &row_ids),
        None => vec![0; m],
    };
    let ord: Vec<Vec<i64>> = order_by
        .iter()
        .map(|k| gather_expr(table, &Expr::col(&k.column), &row_ids))
        .collect();
    let sel_cols: Vec<Vec<i64>> = select
        .iter()
        .map(|c| gather_expr(table, &Expr::col(c), &row_ids))
        .collect();
    let inputs: Vec<Vec<i64>> = funcs
        .iter()
        .map(|f| match &f.expr {
            Some(e) => gather_expr(table, e, &row_ids),
            None => vec![1; m],
        })
        .collect();

    // Phase 3: the window order — (partition, order keys, row id). The
    // trailing row id breaks every tie, so the permutation is unique and
    // the comparator total: `sort_unstable` is deterministic here.
    let mut perm: Vec<u32> = (0..m as u32).collect();
    perm.sort_unstable_by(|&ai, &bi| {
        let (a, b) = (ai as usize, bi as usize);
        let mut o = part[a].cmp(&part[b]);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
        for (k, key) in order_by.iter().zip(&ord) {
            o = key[a].cmp(&key[b]);
            if k.desc {
                o = o.reverse();
            }
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        row_ids[a].cmp(&row_ids[b])
    });

    // Phase 4: frame computation per partition run, in window order.
    // `extra_touches` counts frame-state reads beyond one sequential pass —
    // the window analogue of wasted lanes (re-evaluation re-reads, and the
    // sliding frame's evictions), reported deterministically.
    let mut outputs: Vec<Vec<i64>> = funcs.iter().map(|_| vec![0i64; m]).collect();
    let mut extra_touches: u64 = 0;
    let mut run_start = 0usize;
    while run_start < m {
        let mut run_end = run_start + 1;
        while run_end < m && part[perm[run_end] as usize] == part[perm[run_start] as usize] {
            run_end += 1;
        }
        let len = run_end - run_start;
        for (fi, f) in funcs.iter().enumerate() {
            let val = |i: usize| -> i64 {
                match f.func {
                    WindowFunc::Sum => inputs[fi][perm[run_start + i] as usize],
                    _ => 1,
                }
            };
            match f.func {
                WindowFunc::RowNumber => {
                    for i in 0..len {
                        outputs[fi][run_start + i] = (i + 1) as i64;
                    }
                }
                WindowFunc::Rank => {
                    let mut rank = 1i64;
                    for i in 0..len {
                        if i > 0
                            && !order_peers(
                                &ord,
                                perm[run_start + i - 1] as usize,
                                perm[run_start + i] as usize,
                            )
                        {
                            rank = (i + 1) as i64;
                        }
                        outputs[fi][run_start + i] = rank;
                    }
                }
                WindowFunc::Sum | WindowFunc::Count => match strategy {
                    WindowStrategy::SequentialFrameScan => match frame {
                        FrameSpec::WholePartition => {
                            let mut total = 0i64;
                            for i in 0..len {
                                total = total.wrapping_add(val(i));
                            }
                            for i in 0..len {
                                outputs[fi][run_start + i] = total;
                            }
                        }
                        FrameSpec::UnboundedPreceding => {
                            let mut acc = 0i64;
                            for i in 0..len {
                                acc = acc.wrapping_add(val(i));
                                outputs[fi][run_start + i] = acc;
                            }
                        }
                        FrameSpec::Preceding(k) => {
                            let mut acc = 0i64;
                            for i in 0..len {
                                acc = acc.wrapping_add(val(i));
                                if i > k {
                                    // Exact inverse of the add (mod 2^64):
                                    // evicting restores the k-row frame sum
                                    // bit-for-bit.
                                    acc = acc.wrapping_sub(val(i - k - 1));
                                    extra_touches += 1;
                                }
                                outputs[fi][run_start + i] = acc;
                            }
                        }
                    },
                    WindowStrategy::ConditionalReeval => {
                        for i in 0..len {
                            let lo = match frame {
                                FrameSpec::WholePartition => 0,
                                FrameSpec::UnboundedPreceding => 0,
                                FrameSpec::Preceding(k) => i.saturating_sub(k),
                            };
                            let hi = match frame {
                                FrameSpec::WholePartition => len - 1,
                                _ => i,
                            };
                            let mut acc = 0i64;
                            for j in lo..=hi {
                                acc = acc.wrapping_add(val(j));
                            }
                            extra_touches += (hi - lo) as u64;
                            outputs[fi][run_start + i] = acc;
                        }
                    }
                },
            }
        }
        run_start = run_end;
    }

    // Phase 5: assemble rows in window order (itself deterministic).
    let mut rows = Vec::with_capacity(m);
    for i in 0..m {
        let src = perm[i] as usize;
        let mut row = Vec::with_capacity(select.len() + funcs.len());
        for c in &sel_cols {
            row.push(c[src]);
        }
        for out in &outputs {
            row.push(out[i]);
        }
        rows.push(row);
    }
    let mut columns: Vec<String> = select.to_vec();
    columns.extend(funcs.iter().map(|f| f.name.clone()));
    let key_dict = select
        .first()
        .and_then(|c| table.column(c))
        .and_then(|c| c.as_dict())
        .map(|d| Arc::new(d.dictionary().to_vec()));
    if let Some(op) = op.as_mut() {
        op.access.wasted_lanes += extra_touches;
        op.wall_nanos = timer.nanos();
    }
    Ok((
        QueryResult {
            columns,
            rows,
            metrics: None,
            key_dict,
        },
        op.into_iter().collect(),
    ))
}
