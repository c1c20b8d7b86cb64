//! Per-worker accumulators, their merges and result building.

use std::sync::Arc;

use super::program::AggProgram;
use super::Worker;
use crate::engine::QueryResult;
use crate::error::PlanError;
use crate::expr::AggFunc;
use crate::logical::AggSpec;
use crate::metrics::OpMetrics;
use swole_ht::{AggTable, MergeOp};
use swole_kernels::{predicate, AccessCounters, TILE};
use swole_runtime::{charge_or_panic, MemGauge};

/// Thread-local state for scalar aggregation (also the join probes):
/// accumulator slots plus per-tile scratch buffers.
pub(crate) struct ScalarAcc {
    pub(crate) acc: Vec<i64>,
    pub(crate) matched: usize,
    /// Set when a sum accumulation wrapped; surfaced as
    /// [`PlanError::Overflow`] after the merge.
    overflow: bool,
    /// Access-pattern counters (only touched at `MetricsLevel::Counters`+).
    pub(crate) ctr: AccessCounters,
    pub(crate) cmp: Vec<u8>,
    pub(crate) idx: Vec<u32>,
    pub(crate) val: Vec<i64>,
}

impl ScalarAcc {
    /// Worker init: charge the scratch buffers, plus `extra` bytes of
    /// operator state in the same charge, then build the accumulator.
    pub(crate) fn charged(gauge: &MemGauge, aggs: &[AggProgram], extra: usize) -> ScalarAcc {
        charge_or_panic(gauge, ScalarAcc::scratch_bytes(aggs.len()) + extra);
        ScalarAcc {
            acc: aggs
                .iter()
                .map(|a| match a.func {
                    AggFunc::Min => i64::MAX,
                    AggFunc::Max => i64::MIN,
                    AggFunc::Sum | AggFunc::Count => 0,
                })
                .collect(),
            matched: 0,
            overflow: false,
            ctr: AccessCounters::default(),
            cmp: vec![0u8; TILE],
            idx: vec![0u32; TILE],
            val: vec![0i64; TILE],
        }
    }

    /// Bytes of the per-worker scratch buffers, charged at worker init.
    pub(crate) fn scratch_bytes(n_aggs: usize) -> usize {
        TILE * (1 + 4 + 8) + n_aggs * 8
    }

    /// Accumulate a sum term with overflow detection.
    #[inline]
    pub(crate) fn add_sum(&mut self, i: usize, v: i64) {
        let (s, wrapped) = self.acc[i].overflowing_add(v);
        self.acc[i] = s;
        self.overflow |= wrapped;
    }

    /// Value-masked fold of one tile (§ III-A): every lane aggregates,
    /// weighted by its 0/1 byte in `cmp`, so lanes that do not qualify add
    /// zero and count as wasted. Sums and counts only.
    #[inline(always)]
    pub(crate) fn fold_masked(
        &mut self,
        aggs: &[AggProgram],
        start: usize,
        len: usize,
        counting: bool,
    ) {
        let m = predicate::mask_count(&self.cmp[..len]);
        self.matched += m;
        if counting {
            self.ctr.rows_out += m as u64;
            self.ctr.wasted_lanes += (len - m) as u64;
        }
        for (i, a) in aggs.iter().enumerate() {
            match a.func {
                AggFunc::Sum => {
                    a.input.eval(start, &mut self.val[..len]);
                    for j in 0..len {
                        // cmp is 0/1, so the product cannot overflow.
                        self.add_sum(i, self.val[j] * self.cmp[j] as i64);
                    }
                }
                AggFunc::Count => {
                    for &c in &self.cmp[..len] {
                        self.acc[i] = self.acc[i].wrapping_add(c as i64);
                    }
                }
                // Planner never sends min/max down the masked path.
                AggFunc::Min | AggFunc::Max => unreachable!("planner invariant"),
            }
        }
    }

    /// Fold the `k` selected rows of one tile, whose row ids are in
    /// `idx[..k]`: only they reach sum, min, max and count.
    #[inline(always)]
    pub(crate) fn fold_selected(
        &mut self,
        aggs: &[AggProgram],
        start: usize,
        len: usize,
        k: usize,
        counting: bool,
    ) {
        self.matched += k;
        if counting {
            self.ctr.rows_out += k as u64;
        }
        for (i, a) in aggs.iter().enumerate() {
            match a.func {
                AggFunc::Count => self.acc[i] = self.acc[i].wrapping_add(k as i64),
                _ => {
                    a.input.eval(start, &mut self.val[..len]);
                    for t in 0..k {
                        let v = self.val[self.idx[t] as usize - start];
                        match a.func {
                            AggFunc::Sum => self.add_sum(i, v),
                            AggFunc::Min => self.acc[i] = self.acc[i].min(v),
                            AggFunc::Max => self.acc[i] = self.acc[i].max(v),
                            AggFunc::Count => unreachable!(),
                        }
                    }
                }
            }
        }
    }
}

impl Worker for ScalarAcc {
    fn counters(&mut self) -> &mut AccessCounters {
        &mut self.ctr
    }
}

/// Fold per-worker scalar partials into the one-row result. Zero matches
/// anywhere flattens min/max identities to the documented all-zero row. A
/// sum that wrapped in any worker or in the fold fails with
/// [`PlanError::Overflow`] naming `what`.
pub(crate) fn scalar_result(
    aggs: &[AggSpec],
    partials: impl IntoIterator<Item = ScalarAcc>,
    what: impl FnOnce() -> String,
) -> Result<QueryResult, PlanError> {
    let mut iter = partials.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| PlanError::ExecutionFailed("no worker partials to merge".into()))?;
    let (mut acc, mut matched, mut overflow) = (first.acc, first.matched, first.overflow);
    for p in iter {
        matched += p.matched;
        overflow |= p.overflow;
        for (i, a) in aggs.iter().enumerate() {
            match a.func {
                AggFunc::Sum | AggFunc::Count => {
                    let (s, wrapped) = acc[i].overflowing_add(p.acc[i]);
                    acc[i] = s;
                    overflow |= wrapped;
                }
                AggFunc::Min => acc[i] = acc[i].min(p.acc[i]),
                AggFunc::Max => acc[i] = acc[i].max(p.acc[i]),
            }
        }
    }
    if overflow {
        return Err(PlanError::Overflow(what()));
    }
    if matched == 0 {
        acc.iter_mut().for_each(|v| *v = 0);
    }
    Ok(QueryResult {
        columns: aggs.iter().map(|a| a.name.clone()).collect(),
        rows: vec![acc],
        metrics: None,
        key_dict: None,
    })
}

/// Thread-local hash aggregation: a private [`AggTable`], the bytes
/// charged for it, counters, and one value tile per aggregate.
pub(crate) struct HashAcc {
    pub(crate) ht: AggTable,
    /// Scratch bytes charged alongside the table.
    scratch: usize,
    /// Bytes already charged to the gauge for this worker (scratch + table).
    charged: usize,
    /// Access-pattern counters (only touched at `MetricsLevel::Counters`+).
    pub(crate) ctr: AccessCounters,
    pub(crate) vals: Vec<Vec<i64>>,
}

/// The groupjoin probe's worker: the hash core alone, with no mask or key
/// scratch.
pub(crate) type GroupJoinAcc = HashAcc;

impl HashAcc {
    /// Worker init: a table sized for `capacity` groups, charged together
    /// with `scratch` bytes.
    pub(crate) fn new(gauge: &MemGauge, n_aggs: usize, capacity: usize, scratch: usize) -> HashAcc {
        let ht = AggTable::with_capacity(n_aggs, capacity);
        let charged = scratch + ht.size_bytes();
        charge_or_panic(gauge, charged);
        HashAcc {
            ht,
            scratch,
            charged,
            ctr: AccessCounters::default(),
            vals: vec![vec![0i64; TILE]; n_aggs],
        }
    }

    /// Bytes of the value tiles.
    pub(crate) fn scratch_bytes(n_aggs: usize) -> usize {
        n_aggs * 8 * TILE
    }

    /// Add row `j` of the value tiles to the group at `off`: sums add the
    /// value, counts add one.
    #[inline(always)]
    pub(crate) fn add_row(&mut self, off: usize, aggs: &[AggProgram], j: usize) {
        for (i, a) in aggs.iter().enumerate() {
            let add = match a.func {
                AggFunc::Sum => self.vals[i][j],
                AggFunc::Count => 1,
                AggFunc::Min | AggFunc::Max => unreachable!("planner invariant"),
            };
            self.ht.add(off, i, add);
        }
    }
}

impl Worker for HashAcc {
    fn counters(&mut self) -> &mut AccessCounters {
        &mut self.ctr
    }

    /// Charge hash-table growth since the last morsel boundary. `AggTable`
    /// grows inside the (infallible) tile loop, so the charge is settled at
    /// morsel granularity; a failed charge panics with the typed error and
    /// is caught by the worker's isolation domain.
    fn end_morsel(&mut self, gauge: &MemGauge) {
        let now_bytes = self.scratch + self.ht.size_bytes();
        if now_bytes > self.charged {
            charge_or_panic(gauge, now_bytes - self.charged);
            self.charged = now_bytes;
        }
    }
}

/// Thread-local state for group-by aggregation: the hash core plus the
/// mask, selection and key tiles of the scan.
pub(crate) struct GroupAcc {
    pub(crate) h: HashAcc,
    pub(crate) cmp: Vec<u8>,
    pub(crate) idx: Vec<u32>,
    pub(crate) keys: Vec<i64>,
    pub(crate) masked: Vec<i64>,
}

impl GroupAcc {
    pub(crate) fn new(gauge: &MemGauge, n_aggs: usize) -> GroupAcc {
        GroupAcc {
            h: HashAcc::new(gauge, n_aggs, 64, GroupAcc::scratch_bytes(n_aggs)),
            cmp: vec![0u8; TILE],
            idx: vec![0u32; TILE],
            keys: vec![0i64; TILE],
            masked: vec![0i64; TILE],
        }
    }

    pub(crate) fn scratch_bytes(n_aggs: usize) -> usize {
        TILE * (1 + 4 + 8 + 8) + HashAcc::scratch_bytes(n_aggs)
    }
}

impl Worker for GroupAcc {
    fn counters(&mut self) -> &mut AccessCounters {
        self.h.counters()
    }

    fn end_morsel(&mut self, gauge: &MemGauge) {
        self.h.end_morsel(gauge);
    }
}

/// Merge per-worker group tables into one. The workers' table counters go
/// into `op` first: `merge_from` probes through `entry()`, which would
/// pollute them with merge traffic that never touched base data. Every
/// merge operator is commutative and associative, so the thread count and
/// the pool's morsel interleaving are invisible in the result.
pub(crate) fn merge_groups(
    aggs: &[AggSpec],
    parts: Vec<HashAcc>,
    op: Option<&mut OpMetrics>,
) -> Result<AggTable, PlanError> {
    if let Some(op) = op {
        for p in &parts {
            op.ht.merge(&p.ht.counters());
        }
    }
    let ops: Vec<MergeOp> = aggs
        .iter()
        .map(|a| match a.func {
            AggFunc::Sum | AggFunc::Count => MergeOp::Add,
            AggFunc::Min => MergeOp::Min,
            AggFunc::Max => MergeOp::Max,
        })
        .collect();
    let mut iter = parts.into_iter();
    let mut ht = iter
        .next()
        .ok_or_else(|| PlanError::ExecutionFailed("no worker partials to merge".into()))?
        .ht;
    for p in iter {
        ht.merge_from(&p.ht, &ops);
    }
    Ok(ht)
}

/// The result rows of a merged group table, sorted by key.
pub(crate) fn rows_from_table(
    key_name: &str,
    aggs: &[AggSpec],
    ht: &AggTable,
    key_dict: Option<Arc<Vec<String>>>,
) -> QueryResult {
    let mut rows: Vec<Vec<i64>> = ht
        .iter()
        .filter(|&(_, _, valid)| valid)
        .map(|(key, state, _)| {
            let mut row = Vec::with_capacity(1 + aggs.len());
            row.push(key);
            row.extend_from_slice(state);
            row
        })
        .collect();
    rows.sort_unstable();
    let mut columns = vec![key_name.to_string()];
    columns.extend(aggs.iter().map(|a| a.name.clone()));
    QueryResult {
        columns,
        rows,
        metrics: None,
        key_dict,
    }
}

#[cfg(test)]
mod bounds_drift_tests {
    //! Drift guard between the bounds pass's sizing formulas
    //! ([`swole_verify::bounds::sizing`]) and the engine's actual charge
    //! sites. The certificate's soundness argument (DESIGN.md §15) rests on
    //! the formulas *dominating* what execution charges — if someone
    //! resizes a scratch buffer or changes a hash-table growth policy
    //! without touching the verifier, these tests fail before the
    //! end-to-end soundness harness does.

    use super::{GroupAcc, GroupJoinAcc, ScalarAcc};
    use swole_ht::{AggTable, KeySet};
    use swole_kernels::TILE;
    use swole_verify::bounds::sizing;

    #[test]
    fn scratch_formulas_match_engine_accumulators() {
        for n_aggs in 1..=8usize {
            assert_eq!(
                sizing::scalar_scratch(TILE as u64, n_aggs as u64),
                ScalarAcc::scratch_bytes(n_aggs) as u64,
                "scalar scratch drifted at n_aggs={n_aggs}"
            );
            assert_eq!(
                sizing::group_scratch(TILE as u64, n_aggs as u64),
                GroupAcc::scratch_bytes(n_aggs) as u64,
                "group scratch drifted at n_aggs={n_aggs}"
            );
            assert_eq!(
                sizing::groupjoin_scratch(TILE as u64, n_aggs as u64),
                GroupJoinAcc::scratch_bytes(n_aggs) as u64,
                "groupjoin scratch drifted at n_aggs={n_aggs}"
            );
        }
    }

    #[test]
    fn agg_table_formula_matches_initial_capacity() {
        for n_aggs in [1usize, 2, 5] {
            for expected in [0u64, 1, 4, 16, 63, 64, 65, 1000] {
                let t = AggTable::with_capacity(n_aggs, expected as usize);
                let cap = sizing::agg_table_cap0(expected);
                assert_eq!(t.capacity() as u64, cap, "cap0 drifted at {expected}");
                assert_eq!(
                    t.size_bytes() as u64,
                    sizing::agg_table_bytes(cap, n_aggs as u64),
                    "size drifted at expected={expected} n_aggs={n_aggs}"
                );
            }
        }
    }

    #[test]
    fn agg_table_growth_stays_under_grown_cap_bound() {
        // The bound must dominate the *final* table size after any number
        // of doubling grows, including the throwaway NULL entry.
        for n_aggs in [1usize, 3] {
            for expected in [4u64, 64] {
                for keys in [1u64, 10, 100, 500, 3000] {
                    let mut t = AggTable::with_capacity(n_aggs, expected as usize);
                    for k in 0..keys {
                        let off = t.entry(k as i64);
                        t.add(off, 0, 1);
                    }
                    let cap0 = sizing::agg_table_cap0(expected);
                    let bound =
                        sizing::agg_table_bytes(sizing::grown_cap(cap0, keys), n_aggs as u64);
                    assert!(
                        (t.size_bytes() as u64) <= bound,
                        "grown table {} B exceeds bound {bound} B \
                         (expected={expected}, keys={keys}, n_aggs={n_aggs})",
                        t.size_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn key_set_growth_stays_under_bound() {
        // The semijoin build sizes its KeySet at `n/2 + 4` expected keys
        // and may insert up to every one of the n build rows.
        for n in [0u64, 5, 100, 1000, 5000] {
            let mut ks = KeySet::with_capacity((n / 2 + 4) as usize);
            for k in 0..n {
                ks.insert(k as i64);
            }
            let bound = sizing::key_set_bytes(n);
            assert!(
                (ks.size_bytes() as u64) <= bound,
                "key set {} B exceeds bound {bound} B at n={n}",
                ks.size_bytes()
            );
        }
    }

    #[test]
    fn bitmap_formula_matches_positional_bitmap_charge() {
        use swole_bitmap::PositionalBitmap;
        for rows in [0u64, 1, 63, 64, 65, 4096, 5000] {
            let bm = PositionalBitmap::new(rows as usize);
            assert_eq!(
                bm.size_bytes() as u64,
                sizing::bitmap_bytes(rows),
                "bitmap size drifted at rows={rows}"
            );
        }
    }
}
