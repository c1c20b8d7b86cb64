//! Execution: the morsel driver and the physical operators it runs.
//!
//! `mod.rs` holds the driver ([`Exec`]) and the operator timer; `acc.rs`
//! the per-worker accumulators, their merges and result building;
//! `program.rs` the tile programs every operator compiles its expressions
//! into; then one file per operator family: `scan.rs` (scalar and group-by
//! aggregation), `join.rs` (semijoin, multi-way join, groupjoin and their
//! build sides) and `window.rs`.

mod acc;
mod join;
mod program;
mod scan;
mod window;

pub(crate) use join::{
    exec_groupjoin_agg, exec_multijoin_agg, exec_semijoin_agg, BoundEdge, FkSource,
};
pub(crate) use scan::{exec_groupby_agg, exec_scalar_agg};
pub(crate) use window::{exec_window, Window};

use std::sync::Arc;
use std::time::Instant;

use crate::error::PlanError;
use crate::expr::Expr;
use crate::metrics::{MetricsLevel, OpMetrics};
use program::MaskProgram;
use swole_kernels::{tiles_in, AccessCounters};
use swole_runtime::{ExecCtx, Executor, MemGauge};
use swole_storage::Table;

/// Wall-clock timer for one operator phase; it reads the clock only at
/// [`MetricsLevel::Timings`] and above.
#[derive(Clone, Copy)]
pub(crate) struct Timer(Option<Instant>);

impl Timer {
    pub(crate) fn start(level: MetricsLevel) -> Timer {
        Timer(level.timing().then(Instant::now))
    }

    /// Nanoseconds since [`Timer::start`], or 0 when not timing.
    pub(crate) fn nanos(self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

/// Per-worker operator state the driver can count for.
pub(crate) trait Worker: Send + 'static {
    /// The worker's access counters.
    fn counters(&mut self) -> &mut AccessCounters;

    /// Settle the gauge for memory grown during the morsel just finished
    /// (hash tables grow inside the infallible tile loop).
    fn end_morsel(&mut self, _gauge: &MemGauge) {}
}

/// One input of an operator: a pinned table, its optional filter, and the
/// name of the operator that scans it.
#[derive(Clone, Copy)]
pub(crate) struct Input<'a> {
    op: &'a str,
    table: &'a Arc<Table>,
    filter: Option<&'a Expr>,
}

impl<'a> Input<'a> {
    pub(crate) fn new(op: &'a str, table: &'a Arc<Table>, filter: Option<&'a Expr>) -> Input<'a> {
        Input { op, table, filter }
    }

    /// The filter compiled against the input's table, once per execution.
    fn filter_program(&self) -> Option<MaskProgram> {
        self.filter.map(|f| MaskProgram::compile(f, self.table))
    }
}

/// The morsel driver every operator runs on: where morsels execute, how
/// big they are, how much the query measures, and the query's context.
///
/// Contract: [`Exec::tiles`] runs a per-tile body over `0..n` on the
/// executor's workers. Each worker starts from `init`, which receives the
/// query's gauge and charges the worker's scratch there. With counters on,
/// every morsel first bumps the worker's `morsels`, `rows_in` and (for a
/// filtered input) `predicate_evals`; after its last tile the worker
/// settles its growth charge. The per-worker states come back unmerged,
/// and [`Exec::op`] folds their counters into the operator's metrics.
#[derive(Clone, Copy)]
pub(crate) struct Exec<'a> {
    executor: &'a Executor,
    morsel_rows: usize,
    level: MetricsLevel,
    ctx: &'a Arc<ExecCtx>,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(
        executor: &'a Executor,
        morsel_rows: usize,
        level: MetricsLevel,
        ctx: &'a Arc<ExecCtx>,
    ) -> Exec<'a> {
        Exec {
            executor,
            morsel_rows,
            level,
            ctx,
        }
    }

    /// The query's memory gauge.
    fn gauge(&self) -> &'a MemGauge {
        &self.ctx.gauge
    }

    /// True when access counters are collected.
    fn counting(&self) -> bool {
        self.level.counting()
    }

    /// Start an operator timer.
    fn timer(&self) -> Timer {
        Timer::start(self.level)
    }

    /// Run `body(worker, morsel_start, morsel_len)` over every morsel of
    /// `0..n`, with no counting: for passes that report their own metrics.
    fn morsels<T, I, B>(&self, n: usize, init: I, body: B) -> Result<Vec<T>, PlanError>
    where
        T: Send + 'static,
        I: Fn() -> T + Send + Sync + 'static,
        B: Fn(&mut T, usize, usize) + Send + Sync + 'static,
    {
        Ok(self
            .executor
            .run_morsels(self.ctx, n, self.morsel_rows, init, body)?)
    }

    /// Run `body(worker, tile_start, tile_len)` over every tile of `0..n`
    /// under the driver contract (see [`Exec`]).
    fn tiles<W, I, B>(
        &self,
        n: usize,
        filtered: bool,
        init: I,
        body: B,
    ) -> Result<Vec<W>, PlanError>
    where
        W: Worker,
        I: Fn(&MemGauge) -> W + Send + Sync + 'static,
        B: Fn(&mut W, usize, usize) + Send + Sync + 'static,
    {
        let counting = self.counting();
        let init = {
            let ctx = Arc::clone(self.ctx);
            move || init(&ctx.gauge)
        };
        let ctx = Arc::clone(self.ctx);
        self.morsels(n, init, move |w: &mut W, m_start: usize, m_len: usize| {
            if counting {
                let c = w.counters();
                c.morsels += 1;
                c.rows_in += m_len as u64;
                if filtered {
                    c.predicate_evals += m_len as u64;
                }
            }
            for (start, len) in tiles_in(m_start, m_len) {
                body(w, start, len);
            }
            w.end_morsel(&ctx.gauge);
        })
    }

    /// The operator's metrics with every worker's counters folded in,
    /// timed up to now; `None` below [`MetricsLevel::Counters`].
    fn op<W: Worker>(
        &self,
        name: impl Into<String>,
        timer: Timer,
        workers: &mut [W],
    ) -> Option<OpMetrics> {
        self.counting().then(|| {
            let mut op = OpMetrics::named(name);
            for w in workers {
                op.access.merge(w.counters());
            }
            op.wall_nanos = timer.nanos();
            op
        })
    }
}

/// Evaluate the filter (or all-ones) mask for one tile.
fn tile_mask(filter: Option<&MaskProgram>, start: usize, cmp: &mut [u8]) {
    match filter {
        Some(f) => f.eval(start, cmp),
        None => cmp.fill(1),
    }
}

/// The metrics of a pass over every row of `table`: rows in, and one
/// predicate evaluation per row when filtered.
fn full_scan_op(name: impl Into<String>, table: &Table, filtered: bool) -> OpMetrics {
    let mut op = OpMetrics::named(name);
    op.access.rows_in = table.len() as u64;
    if filtered {
        op.access.predicate_evals = table.len() as u64;
    }
    op
}
