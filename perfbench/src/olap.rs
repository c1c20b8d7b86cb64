//! `olap_tpch`: the eight TPC-H renditions of the conformance corpus as
//! prepared statements on one session, one client, at SF 0.2.
//!
//! Execution dominates every query here, so operators, expressions and
//! kernels show; planning and caching hardly register. The same data also
//! feeds the engine-floor probe: each query's `Engine::execute` time per
//! base-table row, the kernels the strategies are built from on the
//! lineitem columns, and the hand-coded Q6.

use std::hint::black_box;
use std::time::{Duration, Instant};

use swole::bitmap::PositionalBitmap;
use swole::ht::AggTable;
use swole::kernels::agg::{sum_op_masked, Mul};
use swole::kernels::groupby::{groupby_key_masked, groupby_value_masked, mask_keys};
use swole::kernels::join::semijoin_sum_bitmap_masked;
use swole::kernels::{predicate, selvec, tiles, TILE};
use swole::plan::parse_sql;
use swole::prelude::*;
use swole_tpch::{catalog, queries::q6, TpchDb};

use crate::harness::{closed_loop, time_median, time_ok, Done, LoopOut, Report};
use crate::probe::{self, Answer, Stmt};
use crate::{host, Workload};

/// TPC-H scale factor: about 1.2 M lineitem rows.
pub const SF: f64 = 0.2;

/// Idle reloads of lineitem timed per run.
const RELOADS: usize = 21;

/// The renditions of `tests/conformance/tpch_*.slt`.
pub const QUERIES: [(&str, &str); 8] = [
    (
        "q1",
        "select l_returnflag, sum(l_quantity) as sum_qty, count(*) as n from lineitem \
         where l_shipdate <= 10471 group by l_returnflag",
    ),
    (
        "q3",
        "select sum(lineitem.l_extendedprice) as revenue, count(*) as n from lineitem, orders \
         where lineitem.l_orderkey = orders.rowid and lineitem.l_shipdate > 9204 \
         and orders.o_orderdate < 9204",
    ),
    (
        "q4",
        "select sum(lineitem.l_extendedprice) as s, count(*) as n from lineitem, orders \
         where lineitem.l_orderkey = orders.rowid and orders.o_orderdate >= 8582 \
         and orders.o_orderdate < 8674",
    ),
    (
        "q5",
        "select sum(lineitem.l_extendedprice) as revenue from lineitem, supplier \
         where lineitem.l_suppkey = supplier.rowid and lineitem.l_shipdate >= 8766 \
         and lineitem.l_shipdate < 9131 and supplier.s_nationkey < 5",
    ),
    (
        "q6",
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= 8766 and l_shipdate < 9131 and l_discount between 5 and 7 \
         and l_quantity < 24",
    ),
    (
        "q13",
        "select orders.o_custkey, count(*) as n from orders, customer \
         where orders.o_custkey = customer.rowid and customer.c_mktsegment in ('BUILDING') \
         group by orders.o_custkey",
    ),
    (
        "q14",
        "select sum(case when l_discount > 5 then l_extendedprice else 0 end) as promo, \
         sum(l_extendedprice) as total from lineitem \
         where l_shipdate >= 9374 and l_shipdate < 9404",
    ),
    (
        "q19",
        "select sum(lineitem.l_extendedprice) as revenue from lineitem, part \
         where lineitem.l_partkey = part.rowid and part.p_container in ('SM CASE', 'SM BOX') \
         and lineitem.l_quantity < 11",
    ),
];

/// Generated data, the engine over it, and the prepared statements.
pub struct Olap {
    tpch: TpchDb,
    session: Session,
    stmts: Vec<PreparedStatement>,
}

impl Workload for Olap {
    const TAIL_BP: u32 = 9500;
    const SETUP_REPS: usize = 5;
    type Answers = Vec<Answer>;

    /// Generate the data, build the database and the engine, prepare
    /// every query and run each once.
    fn setup(seed: u64) -> Result<Olap, String> {
        let tpch = swole_tpch::generate(SF, seed);
        let engine = Engine::builder(catalog::to_database(&tpch))
            .worker_pool(host::nproc())
            .build();
        let session = engine.session();
        let stmts = QUERIES
            .iter()
            .map(|(_, sql)| session.prepare_sql(sql))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for s in &stmts {
            s.execute().map_err(|e| e.to_string())?;
        }
        Ok(Olap {
            tpch,
            session,
            stmts,
        })
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn describe(&self, report: &mut Report) {
        report.note("scale_factor", SF);
        report.note("lineitem_rows", self.tpch.lineitem.len());
        report.note("orders_rows", self.tpch.orders.len());
        report.note("clients", 1);
    }

    /// The interpreter's answer to every query, with Q6 also checked
    /// against the hand-coded strategy.
    fn answers(&self, report: &mut Report) -> Result<Vec<Answer>, String> {
        let answers = self
            .stmts
            .iter()
            .map(|s| probe::oracle(self.session.engine(), s.template()))
            .collect::<Result<Vec<_>, _>>()?;
        report.check(
            "q6 interpreter answer equals q6::swole",
            answers[q6_index()].scalar() == Some(q6::swole(&self.tpch)),
        );
        Ok(answers)
    }

    fn run_loop(
        &self,
        expected: &Vec<Answer>,
        _seed: u64,
        run_for: Duration,
        traced: bool,
    ) -> LoopOut {
        closed_loop(
            1,
            run_for,
            traced,
            |c| {
                let i = (c.n % self.stmts.len() as u64) as usize;
                let bound = c
                    .call("bind", || self.stmts[i].bind(&Params::new()))
                    .map_err(|e| e.to_string())?;
                let result = c
                    .call("execute", || bound.execute())
                    .map_err(|e| e.to_string())?;
                Ok(Done::Read((i, result)))
            },
            |_, (i, result)| expected[i].check(&result),
        )
    }

    /// Idle reloads of lineitem (and its foreign keys).
    fn idle_reloads(&self) -> Vec<u64> {
        let engine = self.session.engine();
        let table = engine
            .database()
            .table("lineitem")
            .expect("lineitem")
            .clone();
        (0..RELOADS)
            .map(|_| {
                let copy = table.clone();
                let t0 = Instant::now();
                engine.load_table(copy);
                let ns = t0.elapsed().as_nanos() as u64;
                for (fk, parent) in [
                    ("l_orderkey", "orders"),
                    ("l_partkey", "part"),
                    ("l_suppkey", "supplier"),
                ] {
                    engine.register_fk("lineitem", fk, parent).expect("fk");
                }
                ns
            })
            .collect()
    }

    fn probe_stmts(&self, expected: &Vec<Answer>) -> Vec<Stmt> {
        QUERIES
            .iter()
            .zip(expected)
            .map(|((_, sql), answer)| Stmt {
                sql: sql.to_string(),
                params: Params::new(),
                expected: answer.clone(),
            })
            .collect()
    }

    fn floor(&self, report: &mut Report, expected: &Vec<Answer>, _seed: u64) -> Result<(), String> {
        engine_floor(report, self, expected)
    }
}

fn q6_index() -> usize {
    QUERIES
        .iter()
        .position(|(q, _)| *q == "q6")
        .expect("q6 is listed")
}

/// The engine floor: each query's `Engine::execute` time on a plan made
/// beforehand, the kernels on the lineitem columns and the hand-coded Q6.
fn engine_floor(report: &mut Report, o: &Olap, expected: &[Answer]) -> Result<(), String> {
    let engine = o.session.engine();
    let mut q6_exec_ns = f64::NAN;
    for ((q, sql), answer) in QUERIES.iter().zip(expected) {
        let logical = parse_sql(sql).map_err(|e| e.to_string())?.plan;
        let physical = engine.plan(&logical).map_err(|e| e.to_string())?;
        let (ns, out) = time_median(|| engine.execute(&physical)).map_err(|e| e.to_string())?;
        report.check(
            &format!("{q} executed from its physical plan"),
            answer.check(&out).is_ok(),
        );
        let rows = engine
            .database()
            .table(logical.base_table())
            .map_err(|e| e.to_string())?
            .len() as f64;
        report.metric(format!("exec.{q}.execute_ms"), ns / 1e6, "ms");
        report.metric(format!("exec.{q}.ns_per_row"), ns / rows, "ns");
        if *q == "q6" {
            q6_exec_ns = ns;
        }
    }
    kernels(report, &o.tpch);
    let (q6_ns, revenue) = time_ok(|| q6::swole(&o.tpch));
    report.check(
        "q6::swole answer",
        expected[q6_index()].scalar() == Some(revenue),
    );
    report.metric("handcoded.q6_ms", q6_ns / 1e6, "ms");
    report.metric("exec.q6_over_handcoded", q6_exec_ns / q6_ns, "ratio");
    Ok(())
}

/// The masked-strategy kernels over full lineitem columns, tile by tile
/// as the strategies run them, each checked against a plain loop.
fn kernels(report: &mut Report, tpch: &TpchDb) {
    let l = &tpch.lineitem;
    let n = l.len();
    let (disc, price, qty) = (&l.discount, &l.extended_price, &l.quantity);
    let keys = l.return_flag.codes();
    let mut cmp = vec![0u8; n];
    predicate::cmp_between(disc, 5, 7, &mut cmp);
    let passing = cmp.iter().filter(|&&c| c == 1).count();
    let naive_sum: i64 = (0..n)
        .map(|j| price[j] * disc[j] as i64 * cmp[j] as i64)
        .sum();
    let mut naive_groups = std::collections::BTreeMap::new();
    for j in (0..n).filter(|&j| cmp[j] == 1) {
        *naive_groups.entry(keys[j] as i64).or_insert(0i64) += qty[j] as i64 * price[j];
    }
    let naive_groups: Vec<(i64, i64)> = naive_groups.into_iter().collect();
    let order_ok: Vec<u8> = tpch
        .orders
        .order_date
        .iter()
        .map(|&d| (d < 9204) as u8)
        .collect();
    let bitmap = PositionalBitmap::from_predicate_bytes(&order_ok);
    let naive_semi: i64 = (0..n)
        .map(|j| price[j] * disc[j] as i64 * (cmp[j] & order_ok[l.order_key[j] as usize]) as i64)
        .sum();

    let mut put = |name: &str, ns: f64, ok: bool| {
        report.check(name, ok);
        report.metric(format!("{name}.ns_per_row"), ns / n as f64, "ns");
    };
    let (ns, _) = time_ok(|| {
        let mut out = [0u8; TILE];
        for (s, len) in tiles(n) {
            predicate::cmp_between(&disc[s..s + len], 5, 7, &mut out[..len]);
            black_box(&mut out);
        }
    });
    put("kernels.cmp_between", ns, true);

    let (ns, count) = time_ok(|| {
        let mut idx = [0u32; TILE];
        let mut count = 0;
        for (s, len) in tiles(n) {
            count += selvec::fill_nobranch(&cmp[s..s + len], s as u32, &mut idx[..len]);
            black_box(&mut idx);
        }
        count
    });
    put("kernels.selvec_fill_nobranch", ns, count == passing);

    let (ns, sum) = time_ok(|| {
        let mut sum = 0i64;
        for (s, len) in tiles(n) {
            let r = s..s + len;
            sum = sum.wrapping_add(sum_op_masked::<i64, i8, Mul>(
                &price[r.clone()],
                &disc[r.clone()],
                &cmp[r],
            ));
        }
        sum
    });
    put("kernels.sum_op_masked", ns, sum == naive_sum);

    let (ns, ht) = time_ok(|| {
        let mut ht = AggTable::with_capacity(1, 8);
        for (s, len) in tiles(n) {
            let r = s..s + len;
            groupby_value_masked::<u32, i8, i64, Mul>(
                &keys[r.clone()],
                &qty[r.clone()],
                &price[r.clone()],
                &cmp[r],
                &mut ht,
            );
        }
        ht
    });
    let groups = swole::kernels::groupby::collect_groups(&ht);
    put("kernels.groupby_value_masked", ns, groups == naive_groups);

    let (ns, ht) = time_ok(|| {
        let mut ht = AggTable::with_capacity(1, 8);
        let mut masked = [0i64; TILE];
        for (s, len) in tiles(n) {
            let r = s..s + len;
            mask_keys(&keys[r.clone()], &cmp[r.clone()], &mut masked[..len]);
            groupby_key_masked::<i8, i64, Mul>(&masked[..len], &qty[r.clone()], &price[r], &mut ht);
        }
        ht
    });
    let groups = swole::kernels::groupby::collect_groups(&ht);
    put("kernels.groupby_key_masked", ns, groups == naive_groups);

    let (ns, sum) = time_ok(|| {
        let mut sum = 0i64;
        for (s, len) in tiles(n) {
            let r = s..s + len;
            sum = sum.wrapping_add(semijoin_sum_bitmap_masked::<i64, i8, Mul>(
                &l.order_key[r.clone()],
                &price[r.clone()],
                &disc[r.clone()],
                &cmp[r],
                &bitmap,
            ));
        }
        sum
    });
    put("kernels.semijoin_sum_bitmap_masked", ns, sum == naive_semi);

    let (ns, bm) = time_ok(|| PositionalBitmap::from_predicate_bytes(&cmp));
    put(
        "bitmap.from_predicate_bytes",
        ns,
        bm.count_ones() == passing,
    );
}

/// The engine floor on this workload's data for a traced run of another
/// workload, so that every traced run reports the same metrics.
pub fn floor_probe(report: &mut Report, seed: u64) -> Result<(), String> {
    let o = Olap::setup(seed)?;
    let expected = o.answers(report)?;
    engine_floor(report, &o, &expected)
}
