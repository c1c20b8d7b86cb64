//! Result checking and the per-statement layer probe.
//!
//! The probe times, outside any closed loop, the engine's public entry
//! points that each layer sits behind, one statement at a time:
//! `parse_sql` (sql), `Engine::plan` (planner, cost, stats),
//! `Engine::certificate` (bounds certification on top of a plan),
//! `Engine::verify_plan` (full verification on top of a plan),
//! `Engine::execute` on a pre-planned physical plan (operators, runtime)
//! and a cached prepared execution (bind, cache lookup, admission and
//! execution).

use swole::plan::interp;
use swole::plan::parse_sql;
use swole::prelude::*;

use crate::harness::{time_median, Report};
use crate::stats;

/// A query result in comparable form: rows sorted, so that group order
/// does not matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    columns: Vec<String>,
    rows: Vec<Vec<i64>>,
}

impl Answer {
    pub fn of(result: &QueryResult) -> Answer {
        let mut rows = result.rows.clone();
        rows.sort_unstable();
        Answer {
            columns: result.columns.clone(),
            rows,
        }
    }

    /// `Ok` when `result` holds this answer.
    pub fn check(&self, result: &QueryResult) -> Result<(), String> {
        if self.columns == result.columns && self.rows.len() == result.rows.len() {
            let got = Answer::of(result);
            if got.rows == self.rows {
                return Ok(());
            }
        }
        Err(format!(
            "wrong result: {} rows {:?}..., expected {} rows {:?}...",
            result.rows.len(),
            result.rows.first(),
            self.rows.len(),
            self.rows.first()
        ))
    }

    /// The single value of a one-row, one-column answer.
    pub fn scalar(&self) -> Option<i64> {
        match self.rows.as_slice() {
            [row] if row.len() == 1 => Some(row[0]),
            _ => None,
        }
    }
}

/// The interpreter oracle's answer for `plan` on the engine's current
/// data.
pub fn oracle(engine: &Engine, plan: &LogicalPlan) -> Result<Answer, String> {
    let db = engine.database();
    interp::run(&db, plan)
        .map(|r| Answer::of(&r))
        .map_err(|e| format!("oracle: {e}"))
}

/// A statement the probe times: SQL text, its parameters and its answer.
pub struct Stmt {
    pub sql: String,
    pub params: Params,
    pub expected: Answer,
}

/// Time every layer entry point on each statement, check every output,
/// and report the per-layer means of the per-statement medians.
pub fn layer_probe(report: &mut Report, session: &Session, stmts: &[Stmt]) {
    let engine = session.engine();
    let mut cols: [Vec<f64>; 6] = Default::default();
    for (i, st) in stmts.iter().enumerate() {
        let run = || -> Result<[f64; 6], String> {
            let e = |e: PlanError| e.to_string();
            let (parse, _) = time_median(|| parse_sql(&st.sql)).map_err(|e| e.to_string())?;
            let bound = session
                .prepare_sql(&st.sql)
                .and_then(|p| p.bind(&st.params))
                .map_err(e)?;
            let logical = bound.plan().clone();
            let (plan, physical) = time_median(|| engine.plan(&logical)).map_err(e)?;
            let (certify, _) = time_median(|| engine.certificate(&logical)).map_err(e)?;
            let (full, _) = time_median(|| engine.verify_plan(&logical)).map_err(e)?;
            let (execute, executed) = time_median(|| engine.execute(&physical)).map_err(e)?;
            let (cached, cached_out) = time_median(|| bound.execute()).map_err(e)?;
            st.expected.check(&executed)?;
            st.expected.check(&cached_out)?;
            Ok([parse, plan, certify, full, execute, cached])
        };
        match run() {
            Ok(t) => {
                report.check("probe", true);
                for (col, v) in cols.iter_mut().zip(t) {
                    col.push(v);
                }
            }
            Err(e) => {
                report.check(&format!("probe statement {i}: {e}"), false);
            }
        }
    }
    if cols[0].is_empty() {
        return;
    }
    let [parse, plan, certify, full, execute, cached] = cols;
    let diff = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    report.metric("sql.parse_us", stats::mean(&parse) / 1e3, "us");
    report.metric("plan.plan_us", stats::mean(&plan) / 1e3, "us");
    report.metric(
        "verify.certify_us",
        stats::mean(&diff(&certify, &plan)) / 1e3,
        "us",
    );
    report.metric(
        "verify.full_us",
        stats::mean(&diff(&full, &plan)) / 1e3,
        "us",
    );
    report.metric("exec.execute_us", stats::mean(&execute) / 1e3, "us");
    report.metric(
        "exec.fixed_us",
        stats::mean(&diff(&cached, &execute)) / 1e3,
        "us",
    );
}
