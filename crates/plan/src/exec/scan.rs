//! Table scans: scalar and group-by aggregation.

use std::sync::Arc;

use super::acc::{merge_groups, rows_from_table, scalar_result, GroupAcc, ScalarAcc};
use super::program::{compile_aggs, ValueProgram};
use super::{tile_mask, Exec, Input};
use crate::engine::QueryResult;
use crate::error::PlanError;
use crate::expr::{AggFunc, Expr};
use crate::logical::AggSpec;
use crate::metrics::OpMetrics;
use swole_cost::AggStrategy;
use swole_kernels::{predicate, selvec};
use swole_runtime::MemGauge;

pub(crate) fn exec_scalar_agg(
    exec: Exec<'_>,
    scan: Input<'_>,
    aggs: &[AggSpec],
    strategy: AggStrategy,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let counting = exec.counting();
    let timer = exec.timer();
    let programs = compile_aggs(aggs, scan.table);
    let init = {
        let aggs = Arc::clone(&programs);
        move |g: &MemGauge| ScalarAcc::charged(g, &aggs, 0)
    };
    let body = {
        let filter = scan.filter_program();
        let aggs = programs;
        move |w: &mut ScalarAcc, start: usize, len: usize| {
            tile_mask(filter.as_ref(), start, &mut w.cmp[..len]);
            match strategy {
                // VM aggregates every lane; the non-qualifying ones are
                // the pullup's wasted work (§ III-A).
                AggStrategy::ValueMasking => w.fold_masked(&aggs, start, len, counting),
                // Scalar aggregation has no key to mask; hybrid covers both.
                AggStrategy::Hybrid | AggStrategy::KeyMasking => {
                    let k = selvec::fill_nobranch(&w.cmp[..len], start as u32, &mut w.idx[..len]);
                    w.fold_selected(&aggs, start, len, k, counting);
                }
            }
        }
    };
    let mut partials = exec.tiles(scan.table.len(), scan.filter.is_some(), init, body)?;
    let ops = exec.op(scan.op, timer, &mut partials).into_iter().collect();
    // Provably-safe site: the bounds pass's value-range analysis covers
    // exactly this accumulator (`AggInput` lowering). When the input
    // column's statistics bound `|value| * rows` within i64, the site is
    // counted in `PlanCertificate::overflow_safe_sites` and this overflow
    // is statically unreachable — `query_leveled` debug-asserts that.
    let res = scalar_result(aggs, partials, || {
        format!("scalar aggregation under {}", strategy.name())
    })?;
    Ok((res, ops))
}

pub(crate) fn exec_groupby_agg(
    exec: Exec<'_>,
    scan: Input<'_>,
    group_by: &str,
    aggs: &[AggSpec],
    strategy: AggStrategy,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let table = scan.table;
    let n_aggs = aggs.len();
    let counting = exec.counting();
    let timer = exec.timer();
    let init = move |g: &MemGauge| GroupAcc::new(g, n_aggs);
    let body = {
        let filter = scan.filter_program();
        let key = ValueProgram::compile(&Expr::col(group_by), table);
        let aggs = compile_aggs(aggs, table);
        move |w: &mut GroupAcc, start: usize, len: usize| {
            tile_mask(filter.as_ref(), start, &mut w.cmp[..len]);
            key.eval(start, &mut w.keys[..len]);
            let h = &mut w.h;
            for (i, a) in aggs.iter().enumerate() {
                if a.func != AggFunc::Count {
                    a.input.eval(start, &mut h.vals[i][..len]);
                }
            }
            if counting && strategy != AggStrategy::Hybrid {
                // Masked strategies probe every lane. The one counter their
                // kernels do not already produce is the qualifying-lane
                // count (the budgeted extra mask_count per tile).
                let m = predicate::mask_count(&w.cmp[..len]);
                h.ctr.rows_out += m as u64;
                h.ctr.wasted_lanes += (len - m) as u64;
                h.ctr.ht_probes += len as u64;
            }
            match strategy {
                AggStrategy::Hybrid => {
                    let k = selvec::fill_nobranch(&w.cmp[..len], start as u32, &mut w.idx[..len]);
                    if counting {
                        h.ctr.rows_out += k as u64;
                        h.ctr.ht_probes += k as u64;
                    }
                    for &j in &w.idx[..k] {
                        let j = j as usize - start;
                        let off = h.ht.entry(w.keys[j]);
                        let fresh = !h.ht.is_valid(off);
                        for (i, a) in aggs.iter().enumerate() {
                            let v = h.vals[i][j];
                            match a.func {
                                // add() detects wraparound in the table's
                                // overflow flag.
                                AggFunc::Sum => h.ht.add(off, i, v),
                                AggFunc::Count => h.ht.add(off, i, 1),
                                AggFunc::Min => {
                                    let s = &mut h.ht.states_mut()[off + i];
                                    *s = if fresh { v } else { (*s).min(v) };
                                }
                                AggFunc::Max => {
                                    let s = &mut h.ht.states_mut()[off + i];
                                    *s = if fresh { v } else { (*s).max(v) };
                                }
                            }
                        }
                        h.ht.set_valid(off);
                    }
                }
                AggStrategy::ValueMasking => {
                    for j in 0..len {
                        let off = h.ht.entry(w.keys[j]);
                        let m = w.cmp[j] as i64;
                        for (i, a) in aggs.iter().enumerate() {
                            let add = match a.func {
                                AggFunc::Sum => h.vals[i][j] * m,
                                AggFunc::Count => m,
                                AggFunc::Min | AggFunc::Max => {
                                    unreachable!("planner invariant")
                                }
                            };
                            h.ht.add(off, i, add);
                        }
                        h.ht.or_valid(off, w.cmp[j]);
                    }
                }
                AggStrategy::KeyMasking => {
                    swole_kernels::groupby::mask_keys(
                        &w.keys[..len],
                        &w.cmp[..len],
                        &mut w.masked[..len],
                    );
                    for j in 0..len {
                        let off = h.ht.entry(w.masked[j]);
                        h.add_row(off, &aggs, j);
                        // Branch-free: the throwaway entry's flag is ignored by
                        // the result iterator, so set it unconditionally.
                        h.ht.or_valid(off, w.cmp[j]);
                    }
                }
            }
        }
    };
    let mut partials = exec.tiles(table.len(), scan.filter.is_some(), init, body)?;
    let mut op = exec.op(scan.op, timer, &mut partials);
    let ht = merge_groups(
        aggs,
        partials.into_iter().map(|w| w.h).collect(),
        op.as_mut(),
    )?;
    if ht.overflow_detected() {
        // Masked strategies aggregate filtered-out tuples too (wasted work,
        // § III-A), so the wraparound may be spurious — the caller retries
        // under the data-centric strategy.
        return Err(PlanError::Overflow(format!(
            "group-by aggregation under {}",
            strategy.name()
        )));
    }
    if let Some(op) = op.as_mut() {
        // Per-worker insert counts depend on the morsel partition (several
        // workers insert the same key); the merged table's final key count
        // is the deterministic figure the analyze output reports.
        op.ht.inserts = ht.len() as u64;
        op.wall_nanos = timer.nanos();
    }
    let key_dict = table
        .column(group_by)
        .and_then(|c| c.as_dict())
        .map(|d| Arc::new(d.dictionary().to_vec()));
    Ok((
        rows_from_table(group_by, aggs, &ht, key_dict),
        op.into_iter().collect(),
    ))
}
