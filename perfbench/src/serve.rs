//! `serve_cached`: small R/S tables that stay in the CPU caches, one
//! closed-loop client session per core, each cycling through the three
//! statement shapes as prepared statements with fixed parameters. Every
//! execution after the first is a plan-cache hit, so the fixed cost of a
//! query dominates: bind, fingerprint, cache lookup, certificate,
//! admission, context set-up, pool dispatch and result building.

use std::time::{Duration, Instant};

use swole::prelude::*;

use crate::harness::{closed_loop, Done, LoopOut, Report};
use crate::probe::{self, Answer, Stmt};
use crate::{host, rs, Workload};

const R_ROWS: usize = 1024;
const S_ROWS: usize = 256;

/// Idle reloads of R timed per run.
const RELOADS: usize = 201;

/// Fixed literals: `R.x < X_LIT`, and for the semijoin `S.y < Y_LIT`.
const X_LIT: i64 = 60;
const Y_LIT: i64 = 50;

pub struct Serve {
    engine: Engine,
    /// One session per client with its prepared statements, one per shape.
    clients: Vec<(Session, Vec<PreparedStatement>)>,
    seed: u64,
}

fn params(shape: usize) -> Params {
    match shape {
        2 => Params::new().int(X_LIT).int(Y_LIT),
        _ => Params::new().int(X_LIT),
    }
}

impl Workload for Serve {
    const TAIL_BP: u32 = 9900;
    const SETUP_REPS: usize = 9;
    type Answers = Vec<Answer>;

    fn setup(seed: u64) -> Result<Serve, String> {
        let db = rs::database(
            rs::r_table(seed, 0, R_ROWS, S_ROWS),
            rs::s_table(seed, S_ROWS),
        );
        let engine = Engine::builder(db).worker_pool(host::nproc()).build();
        let clients = (0..host::nproc())
            .map(|_| {
                let session = engine.session();
                let stmts = (0..rs::SHAPES)
                    .map(|k| session.prepare_sql(&rs::sql(k, "?", "?")))
                    .collect::<Result<Vec<_>, _>>()?;
                for (k, s) in stmts.iter().enumerate() {
                    s.bind(&params(k))?.execute()?;
                }
                Ok((session, stmts))
            })
            .collect::<Result<Vec<_>, PlanError>>()
            .map_err(|e| e.to_string())?;
        Ok(Serve {
            engine,
            clients,
            seed,
        })
    }

    fn session(&self) -> &Session {
        &self.clients[0].0
    }

    fn describe(&self, report: &mut Report) {
        report.note("r_rows", R_ROWS);
        report.note("s_rows", S_ROWS);
        report.note("clients", self.clients.len());
    }

    fn answers(&self, _report: &mut Report) -> Result<Vec<Answer>, String> {
        (0..rs::SHAPES)
            .map(|k| {
                let bound = self.clients[0].1[k]
                    .bind(&params(k))
                    .map_err(|e| e.to_string())?;
                probe::oracle(&self.engine, bound.plan())
            })
            .collect()
    }

    fn run_loop(
        &self,
        expected: &Vec<Answer>,
        _seed: u64,
        run_for: Duration,
        traced: bool,
    ) -> LoopOut {
        let params: Vec<Params> = (0..rs::SHAPES).map(params).collect();
        closed_loop(
            self.clients.len(),
            run_for,
            traced,
            |c| {
                let k = ((c.id as u64 + c.n) % rs::SHAPES as u64) as usize;
                let stmt = &self.clients[c.id].1[k];
                let bound = c
                    .call("bind", || stmt.bind(&params[k]))
                    .map_err(|e| e.to_string())?;
                let result = c
                    .call("execute", || bound.execute())
                    .map_err(|e| e.to_string())?;
                Ok(Done::Read((k, result)))
            },
            |_, (k, result)| expected[k].check(&result),
        )
    }

    /// Idle reloads of R with its own contents.
    fn idle_reloads(&self) -> Vec<u64> {
        let table = rs::r_table(self.seed, 0, R_ROWS, S_ROWS);
        (0..RELOADS)
            .map(|_| {
                let copy = table.clone();
                let t0 = Instant::now();
                self.engine.load_table(copy);
                let ns = t0.elapsed().as_nanos() as u64;
                self.engine.register_fk("R", "fk", "S").expect("fk");
                ns
            })
            .collect()
    }

    fn probe_stmts(&self, expected: &Vec<Answer>) -> Vec<Stmt> {
        (0..rs::SHAPES)
            .map(|k| Stmt {
                sql: rs::sql(k, "?", "?"),
                params: params(k),
                expected: expected[k].clone(),
            })
            .collect()
    }
}
