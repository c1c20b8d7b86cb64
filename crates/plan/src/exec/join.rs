//! FK joins: semijoin, multi-way join, groupjoin and their build sides.

use std::sync::Arc;

use super::acc::{merge_groups, rows_from_table, scalar_result, GroupJoinAcc, ScalarAcc};
use super::program::{compile_aggs, MaskProgram};
use super::{full_scan_op, tile_mask, Exec, Input, Worker};
use crate::engine::QueryResult;
use crate::error::PlanError;
use crate::expr::{AggFunc, Expr};
use crate::logical::AggSpec;
use crate::metrics::OpMetrics;
use swole_bitmap::PositionalBitmap;
use swole_cost::{BitmapBuild, GroupJoinStrategy, SemiJoinStrategy};
use swole_ht::KeySet;
use swole_kernels::{predicate, selvec, tiles, tiles_in, AccessCounters};
use swole_runtime::MemGauge;
use swole_storage::{FkIndex, Table};

/// The positional FK mapping, pinned as owned data so shared-pool worker
/// closures (which outlive the submitting call stack) can read it without
/// borrowing from the database guard.
#[derive(Clone)]
pub(crate) enum FkSource {
    /// A registered FK index.
    Index(Arc<FkIndex>),
    /// The raw `u32` FK column of the (pinned, immutable) child table —
    /// validated at construction, so `slice` cannot fail.
    Column(Arc<Table>, String),
}

impl FkSource {
    fn slice(&self) -> &[u32] {
        match self {
            FkSource::Index(idx) => idx.positions(),
            FkSource::Column(t, col) => t
                .column(col)
                .and_then(|c| c.as_u32())
                .expect("validated u32 FK column on an immutable table"),
        }
    }
}

/// The semijoin build side, shared read-only across probe workers.
enum BuildSide {
    Set(KeySet),
    Bitmap(PositionalBitmap),
}

impl BuildSide {
    /// Materialize the structure `strategy` names from the parent table's
    /// qualifying mask. Each pullup temporary (key-set storage, selection
    /// vector, bitmap words) is charged to the gauge before it is built.
    fn new(
        strategy: SemiJoinStrategy,
        mask: &[u8],
        gauge: &MemGauge,
    ) -> Result<BuildSide, PlanError> {
        let n = mask.len();
        let bitmap_bytes = n.div_ceil(64) * 8;
        Ok(match strategy {
            SemiJoinStrategy::Hash => {
                let mut set = KeySet::with_capacity(n / 2 + 4);
                let before = set.size_bytes();
                gauge.try_charge(before)?;
                for (pos, &c) in mask.iter().enumerate() {
                    if c != 0 {
                        set.insert(pos as i64);
                    }
                }
                if set.size_bytes() > before {
                    gauge.try_charge(set.size_bytes() - before)?;
                }
                BuildSide::Set(set)
            }
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => {
                gauge.try_charge(bitmap_bytes)?;
                BuildSide::Bitmap(PositionalBitmap::from_predicate_bytes(mask))
            }
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector) => {
                let mut sel = Vec::new();
                for (start, len) in tiles(n) {
                    selvec::append_nobranch(&mask[start..start + len], start as u32, &mut sel);
                }
                gauge.try_charge(sel.len() * 4 + bitmap_bytes)?;
                BuildSide::Bitmap(PositionalBitmap::from_selection(n, &sel))
            }
        })
    }

    /// Record the structure on its build op: its qualifying rows and its
    /// footprint.
    fn record(&self, op: &mut OpMetrics) {
        match self {
            BuildSide::Set(set) => {
                // Build positions are distinct, so the set's key count is
                // exactly the qualifying build rows.
                op.access.rows_out = set.len() as u64;
                op.ht.inserts = set.len() as u64;
                op.ht.bytes_allocated = set.size_bytes() as u64;
            }
            BuildSide::Bitmap(bm) => {
                op.access.rows_out = bm.count_ones() as u64;
                op.bitmap_bits_set = bm.count_ones() as u64;
                op.bitmap_words = bm.word_count() as u64;
            }
        }
    }

    /// Membership of parent position `pos`, as 0/1.
    #[inline(always)]
    fn hit(&self, pos: usize) -> u64 {
        match self {
            BuildSide::Set(set) => set.contains(pos as i64) as u64,
            BuildSide::Bitmap(bm) => bm.get_bit(pos),
        }
    }
}

/// One multi-way join edge with its tables and FK column pinned as `Arc`
/// snapshots, so execution cannot drift from the catalog mid-query.
pub(crate) struct BoundEdge {
    pub(crate) parent: String,
    pub(crate) parent_t: Arc<Table>,
    pub(crate) parent_filter: Option<Expr>,
    /// FK on the *child* side of this edge (the fact for direct edges, the
    /// intermediate parent for chain edges).
    pub(crate) fk: FkSource,
    pub(crate) strategy: SemiJoinStrategy,
    pub(crate) children: Vec<BoundEdge>,
}

/// Evaluate the build-side predicate mask over the whole build table on
/// morsel workers. Each worker produces `(offset, bytes)` segments for the
/// morsels it claimed; the segments form an exact disjoint cover of the
/// table, so stitching them back is byte-identical to a sequential
/// evaluation regardless of which worker claimed what.
fn build_mask(
    exec: Exec<'_>,
    build: &Arc<Table>,
    build_filter: Option<&Expr>,
) -> Result<Vec<u8>, PlanError> {
    let n = build.len();
    exec.gauge().try_charge(n)?;
    let body = {
        let filter = build_filter.map(|f| MaskProgram::compile(f, build));
        move |segs: &mut Vec<(usize, Vec<u8>)>, m_start: usize, m_len: usize| {
            let mut seg = vec![0u8; m_len];
            for (start, len) in tiles_in(m_start, m_len) {
                tile_mask(
                    filter.as_ref(),
                    start,
                    &mut seg[start - m_start..start - m_start + len],
                );
            }
            segs.push((m_start, seg));
        }
    };
    let partials = exec.morsels(n, Vec::new, body)?;
    let mut mask = vec![0u8; n];
    for (start, seg) in partials.into_iter().flatten() {
        mask[start..start + seg.len()].copy_from_slice(&seg);
    }
    Ok(mask)
}

pub(crate) fn exec_semijoin_agg(
    exec: Exec<'_>,
    probe: Input<'_>,
    build: Input<'_>,
    fk: &FkSource,
    aggs: &[AggSpec],
    strategy: SemiJoinStrategy,
    probe_masked: bool,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let counting = exec.counting();
    let build_timer = exec.timer();
    let build_cmp = build_mask(exec, build.table, build.filter)?;
    let side = BuildSide::new(strategy, &build_cmp, exec.gauge())?;
    let build_op = counting.then(|| {
        let mut op = full_scan_op(build.op, build.table, build.filter.is_some());
        side.record(&mut op);
        op.wall_nanos = build_timer.nanos();
        op
    });
    // Probe phase: scalar accumulation on morsel workers sharing the
    // read-only build side.
    let probe_timer = exec.timer();
    let programs = compile_aggs(aggs, probe.table);
    let init = {
        let aggs = Arc::clone(&programs);
        move |g: &MemGauge| ScalarAcc::charged(g, &aggs, 0)
    };
    let body = {
        let filter = probe.filter_program();
        let aggs = programs;
        let fk_src = fk.clone();
        move |w: &mut ScalarAcc, start: usize, len: usize| {
            let fk = fk_src.slice();
            tile_mask(filter.as_ref(), start, &mut w.cmp[..len]);
            // Fold the join bit into the mask, per build structure.
            match (&side, probe_masked) {
                (BuildSide::Bitmap(bm), true) => {
                    for j in 0..len {
                        w.cmp[j] &= bm.get_bit(fk[start + j] as usize) as u8;
                    }
                    if counting {
                        // Every lane probes the bitmap and is
                        // aggregated; non-matching lanes are wasted.
                        w.ctr.ht_probes += len as u64;
                    }
                    w.fold_masked(&aggs, start, len, counting);
                }
                (side, _) => {
                    let k = selvec::fill_nobranch(&w.cmp[..len], start as u32, &mut w.idx[..len]);
                    if counting {
                        // Only filter-qualifying rows reach the probe;
                        // join-missed ones still aggregate a zero.
                        w.ctr.ht_probes += k as u64;
                    }
                    for (i, a) in aggs.iter().enumerate() {
                        if a.func != AggFunc::Count {
                            a.input.eval(start, &mut w.val[..len]);
                        }
                        for t in 0..k {
                            let j = w.idx[t] as usize;
                            let hit = side.hit(fk[j] as usize) as i64;
                            match a.func {
                                // hit is 0/1, so the product cannot overflow.
                                AggFunc::Sum => w.add_sum(i, w.val[j - start] * hit),
                                AggFunc::Count => w.acc[i] = w.acc[i].wrapping_add(hit),
                                _ => unreachable!("planner invariant"),
                            }
                            if i == 0 {
                                w.matched += hit as usize;
                                if counting {
                                    w.ctr.rows_out += hit as u64;
                                    w.ctr.wasted_lanes += (1 - hit) as u64;
                                }
                            }
                        }
                    }
                }
            }
        }
    };
    let mut partials = exec.tiles(probe.table.len(), probe.filter.is_some(), init, body)?;
    let probe_op = exec.op(probe.op, probe_timer, &mut partials);
    let ops = build_op.into_iter().chain(probe_op).collect();
    let res = scalar_result(aggs, partials, || "semijoin aggregation".into())?;
    Ok((res, ops))
}

/// Qualifying mask of a join edge's parent: the parent's own filter ANDed
/// with every nested child edge's mask, folded through the child's FK
/// gather. Pushes one `multijoin-build(<parent>)` op for this edge, then
/// the nested edges' ops in order.
fn edge_parent_mask(
    exec: Exec<'_>,
    e: &BoundEdge,
    ops: &mut Vec<OpMetrics>,
) -> Result<Vec<u8>, PlanError> {
    let timer = exec.timer();
    let mut mask = build_mask(exec, &e.parent_t, e.parent_filter.as_ref())?;
    let mut nested_ops = Vec::new();
    for c in &e.children {
        let child_mask = edge_parent_mask(exec, c, &mut nested_ops)?;
        let fk = c.fk.slice();
        // The fold runs over the parent (dimension) table, which the cost
        // model already priced into the edge's build cost.
        for (i, m) in mask.iter_mut().enumerate() {
            *m &= child_mask[fk[i] as usize];
        }
    }
    if exec.counting() {
        let name = format!("multijoin-build({})", e.parent);
        let mut op = full_scan_op(name, &e.parent_t, e.parent_filter.is_some());
        op.access.rows_out = predicate::mask_count(&mask) as u64;
        op.wall_nanos = timer.nanos();
        ops.push(op);
        ops.append(&mut nested_ops);
    }
    Ok(mask)
}

/// Thread-local state for multi-way join probing: the scalar accumulator
/// plus per-edge survivor counters for the `multijoin-probe(<parent>)` ops.
struct MultiJoinAcc {
    s: ScalarAcc,
    edge_in: Vec<u64>,
    edge_out: Vec<u64>,
}

impl Worker for MultiJoinAcc {
    fn counters(&mut self) -> &mut AccessCounters {
        &mut self.s.ctr
    }
}

/// Execute a multi-way FK join + scalar aggregation: build one membership
/// structure per direct edge (chains folded into the parent mask first),
/// then narrow each fact tile's selection vector edge-by-edge in the
/// planned probe order and aggregate the survivors.
///
/// The surviving row *set* per tile is order-independent (each edge is a
/// pure membership filter), so results are bit-identical across probe
/// orders and thread counts.
pub(crate) fn exec_multijoin_agg(
    exec: Exec<'_>,
    fact: Input<'_>,
    edges: &[BoundEdge],
    aggs: &[AggSpec],
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let counting = exec.counting();
    let n_edges = edges.len();
    let mut op_list = Vec::new();
    let mut sides = Vec::with_capacity(n_edges);
    for e in edges {
        // The edge's own build op comes first; it gains the footprint of
        // the structure built from its fully chain-restricted mask.
        let self_op_at = op_list.len();
        let mask = edge_parent_mask(exec, e, &mut op_list)?;
        let side = BuildSide::new(e.strategy, &mask, exec.gauge())?;
        if let Some(op) = op_list.get_mut(self_op_at) {
            side.record(op);
        }
        sides.push(side);
    }
    let probe_timer = exec.timer();
    let programs = compile_aggs(aggs, fact.table);
    let init = {
        let aggs = Arc::clone(&programs);
        move |g: &MemGauge| MultiJoinAcc {
            s: ScalarAcc::charged(g, &aggs, n_edges * 16),
            edge_in: vec![0u64; n_edges],
            edge_out: vec![0u64; n_edges],
        }
    };
    let body = {
        let filter = fact.filter_program();
        let aggs = programs;
        let fks: Vec<FkSource> = edges.iter().map(|e| e.fk.clone()).collect();
        move |w: &mut MultiJoinAcc, start: usize, len: usize| {
            tile_mask(filter.as_ref(), start, &mut w.s.cmp[..len]);
            let mut k = selvec::fill_nobranch(&w.s.cmp[..len], start as u32, &mut w.s.idx[..len]);
            let filtered = k;
            for (ei, side) in sides.iter().enumerate() {
                if k == 0 {
                    // Later edges see zero rows; skipping their zero
                    // counter increments leaves identical totals.
                    break;
                }
                if counting {
                    w.edge_in[ei] += k as u64;
                    w.s.ctr.ht_probes += k as u64;
                }
                let fk = fks[ei].slice();
                let mut kk = 0usize;
                // In-place compaction: kk trails t, so reads never see
                // an overwritten slot.
                for t in 0..k {
                    let j = w.s.idx[t] as usize;
                    let hit = side.hit(fk[j] as usize) as usize;
                    w.s.idx[kk] = w.s.idx[t];
                    kk += hit;
                }
                if counting {
                    w.edge_out[ei] += kk as u64;
                }
                k = kk;
            }
            if counting {
                w.s.ctr.wasted_lanes += (filtered - k) as u64;
            }
            // Survivors are fully narrowed before accumulation, so min/max
            // see only real qualifying rows.
            w.s.fold_selected(&aggs, start, len, k, counting);
        }
    };
    let mut partials = exec.tiles(fact.table.len(), fact.filter.is_some(), init, body)?;
    if let Some(agg_op) = exec.op(fact.op, probe_timer, &mut partials) {
        for (ei, e) in edges.iter().enumerate() {
            let mut op = OpMetrics::named(format!("multijoin-probe({})", e.parent));
            for p in &partials {
                op.access.rows_in += p.edge_in[ei];
                op.access.rows_out += p.edge_out[ei];
            }
            op.ht.probes = op.access.rows_in;
            op.wall_nanos = agg_op.wall_nanos;
            op_list.push(op);
        }
        op_list.push(agg_op);
    }
    let res = scalar_result(aggs, partials.into_iter().map(|p| p.s), || {
        "multi-way join aggregation".into()
    })?;
    Ok((res, op_list))
}

/// Execute a groupjoin: group the probe side by its FK, keeping only
/// groups whose parent qualifies. The probe side carries no filter.
pub(crate) fn exec_groupjoin_agg(
    exec: Exec<'_>,
    probe: Input<'_>,
    build: Input<'_>,
    fk: &FkSource,
    fk_col: &str,
    aggs: &[AggSpec],
    strategy: GroupJoinStrategy,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    debug_assert!(probe.filter.is_none(), "groupjoin probe is unfiltered");
    let n_aggs = aggs.len();
    let counting = exec.counting();
    let build_timer = exec.timer();
    let build_cmp = Arc::new(build_mask(exec, build.table, build.filter)?);
    let build_op = counting.then(|| {
        let mut op = full_scan_op(build.op, build.table, build.filter.is_some());
        op.access.rows_out = predicate::mask_count(&build_cmp) as u64;
        op.wall_nanos = build_timer.nanos();
        op
    });
    let probe_timer = exec.timer();
    let capacity = (build.table.len() / 2).max(16);
    let init = move |g: &MemGauge| {
        GroupJoinAcc::new(g, n_aggs, capacity, GroupJoinAcc::scratch_bytes(n_aggs))
    };
    let body = {
        let aggs = compile_aggs(aggs, probe.table);
        let build_cmp = Arc::clone(&build_cmp);
        let fk_src = fk.clone();
        move |w: &mut GroupJoinAcc, start: usize, len: usize| {
            let fk = fk_src.slice();
            for (i, a) in aggs.iter().enumerate() {
                if a.func != AggFunc::Count {
                    a.input.eval(start, &mut w.vals[i][..len]);
                }
            }
            match strategy {
                GroupJoinStrategy::GroupJoin => {
                    for j in 0..len {
                        let pos = fk[start + j] as usize;
                        // Membership via the build mask: equivalent to
                        // probing a table pre-populated with qualifying
                        // keys, but sharable read-only across workers.
                        if build_cmp[pos] != 0 {
                            if counting {
                                w.ctr.rows_out += 1;
                                w.ctr.ht_probes += 1;
                            }
                            let off = w.ht.entry(pos as i64);
                            w.add_row(off, &aggs, j);
                            w.ht.set_valid(off);
                        }
                    }
                }
                GroupJoinStrategy::EagerAggregation => {
                    for j in 0..len {
                        let pos = fk[start + j] as usize;
                        if counting {
                            // Eager aggregation touches every probe row
                            // (§ III-E); rows whose parent fails the build
                            // filter are aggregated then deleted — wasted.
                            let q = (build_cmp[pos] != 0) as u64;
                            w.ctr.rows_out += q;
                            w.ctr.wasted_lanes += 1 - q;
                            w.ctr.ht_probes += 1;
                        }
                        let off = w.ht.entry(pos as i64);
                        w.add_row(off, &aggs, j);
                        w.ht.set_valid(off);
                    }
                }
            }
        }
    };
    let mut partials = exec.tiles(probe.table.len(), false, init, body)?;
    let mut probe_op = exec.op(probe.op, probe_timer, &mut partials);
    let mut ht = merge_groups(aggs, partials, probe_op.as_mut())?;
    if strategy == GroupJoinStrategy::EagerAggregation {
        // Inverted predicate deletes non-qualifying keys (§ III-E) — after
        // the merge, so the reconciliation happens exactly once.
        for (pos, &c) in build_cmp.iter().enumerate() {
            if c == 0 {
                ht.delete(pos as i64);
            }
        }
    }
    if ht.overflow_detected() {
        // Eager aggregation sums non-qualifying groups before deleting
        // them, so the wraparound may be spurious — retried data-centric.
        return Err(PlanError::Overflow("groupjoin aggregation".into()));
    }
    let mut op_list = Vec::new();
    if let (Some(build_op), Some(mut probe_op)) = (build_op, probe_op) {
        // Post-deletion key count: the deterministic number of surviving
        // groups, regardless of how workers partitioned the probe side.
        probe_op.ht.inserts = ht.len() as u64;
        probe_op.wall_nanos = probe_timer.nanos();
        op_list.push(build_op);
        op_list.push(probe_op);
    }
    Ok((rows_from_table(fk_col, aggs, &ht, None), op_list))
}
