//! `adhoc_reload`: the three R/S statement shapes on a 65,536-row R, sent
//! as SQL text through `Session::query_sql` with fresh random literals, so
//! most queries miss the plan cache and are parsed, planned, stats-sampled
//! and certified each time. Client 0 also replaces R through
//! `Engine::load_table` every [`RELOAD_EVERY`] queries, alternating
//! between two pre-generated versions; each reload takes the database
//! write lock while readers wait and invalidates every cached plan on R.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use swole::plan::parse_sql;
use swole::prelude::*;

use crate::harness::{closed_loop, Client, Done, LoopOut, Report};
use crate::probe::{Answer, Stmt};
use crate::{host, rs, Workload};

const R_ROWS: usize = 65_536;
const S_ROWS: usize = 256;

/// Client 0 reloads R after every this many of its queries.
const RELOAD_EVERY: u64 = 128;

/// Literal domain: `R.x < x` for `x` in `X_MIN..=X_MAX`, and for the
/// semijoin `S.y < y` for `y` in [`Y_LITS`].
const X_MIN: i64 = 1;
const X_MAX: i64 = 100;
const Y_LITS: [i64; 5] = [20, 40, 60, 80, 100];

/// Idle reloads timed for `storage.load_table_ms`.
const RELOADS: usize = 9;

/// One query drawn from the literal domain.
#[derive(Debug, Clone, Copy)]
struct Query {
    shape: usize,
    x: i64,
    y: i64,
}

impl Query {
    /// Deterministic draw from `(seed, client, n)`.
    fn draw(seed: u64, client: usize, n: u64) -> Query {
        let h = splitmix64(seed ^ splitmix64(((client as u64) << 40) ^ n));
        let span = (X_MAX - X_MIN + 1) as u64;
        Query {
            shape: (h % rs::SHAPES as u64) as usize,
            x: X_MIN + ((h >> 8) % span) as i64,
            y: Y_LITS[((h >> 32) % Y_LITS.len() as u64) as usize],
        }
    }

    fn sql(&self) -> String {
        rs::sql(self.shape, &self.x.to_string(), &self.y.to_string())
    }

    /// Position of this query's answer in [`Oracle::answers`].
    fn slot(&self) -> usize {
        let xi = (self.x - X_MIN) as usize;
        let n_x = (X_MAX - X_MIN + 1) as usize;
        match self.shape {
            0 | 1 => self.shape * n_x + xi,
            _ => {
                let yi = Y_LITS
                    .iter()
                    .position(|&y| y == self.y)
                    .expect("y in domain");
                2 * n_x + xi * Y_LITS.len() + yi
            }
        }
    }

    /// Every query of the domain, in [`Query::slot`] order.
    fn domain() -> Vec<Query> {
        let xs = X_MIN..=X_MAX;
        let single = |shape| xs.clone().map(move |x| Query { shape, x, y: 0 });
        let semi = xs
            .clone()
            .flat_map(|x| Y_LITS.iter().map(move |&y| Query { shape: 2, x, y }));
        single(0).chain(single(1)).chain(semi).collect()
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The interpreter's answers to every query of the domain, per R version.
pub struct Oracle {
    answers: [Vec<Answer>; 2],
}

impl Oracle {
    fn compute(versions: &[Table; 2], s: &Table) -> Result<Oracle, String> {
        let domain = Query::domain();
        let per_version = |r: &Table| -> Result<Vec<Answer>, String> {
            let db = rs::database(r.clone(), s.clone());
            domain
                .iter()
                .map(|q| {
                    let plan = parse_sql(&q.sql()).map_err(|e| e.to_string())?.plan;
                    swole::plan::interp::run(&db, &plan)
                        .map(|r| Answer::of(&r))
                        .map_err(|e| format!("oracle: {e}"))
                })
                .collect()
        };
        Ok(Oracle {
            answers: [per_version(&versions[0])?, per_version(&versions[1])?],
        })
    }
}

pub struct Adhoc {
    engine: Engine,
    sessions: Vec<Session>,
    /// R after an even and after an odd number of reloads.
    versions: [Table; 2],
    s: Table,
    /// Reloads begun and finished; only one thread reloads at a time.
    started: AtomicU64,
    finished: AtomicU64,
    seed: u64,
}

impl Adhoc {
    /// Replace R with the version that follows the current one; returns
    /// the `Engine::load_table` time in nanoseconds.
    fn reload(&self, c: Option<&mut Client>) -> u64 {
        let next = self.started.load(SeqCst) + 1;
        let table = self.versions[(next % 2) as usize].clone();
        self.started.store(next, SeqCst);
        let t0 = Instant::now();
        let load = || self.engine.load_table(table);
        match c {
            Some(c) => c.call("storage.load_table", load),
            None => load(),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.engine.register_fk("R", "fk", "S").expect("fk");
        self.finished.store(next, SeqCst);
        ns
    }
}

/// A query's result with the reload counts around it: it may have read
/// any version from `finished_before` to `started_after` reloads.
struct Read {
    query: Query,
    finished_before: u64,
    started_after: u64,
    result: QueryResult,
}

impl Workload for Adhoc {
    const TAIL_BP: u32 = 9900;
    const SETUP_REPS: usize = 9;
    const RELOADS_IN_LOOP: bool = true;
    type Answers = Oracle;

    fn setup(seed: u64) -> Result<Adhoc, String> {
        let versions = [0, 1].map(|v| rs::r_table(seed, v, R_ROWS, S_ROWS));
        let s = rs::s_table(seed, S_ROWS);
        let db = rs::database(versions[0].clone(), s.clone());
        let engine = Engine::builder(db).worker_pool(host::nproc()).build();
        let sessions: Vec<Session> = (0..host::nproc()).map(|_| engine.session()).collect();
        for shape in 0..rs::SHAPES {
            let q = Query {
                shape,
                x: 50,
                y: 50,
            };
            sessions[0]
                .query_sql(&q.sql(), &Params::new())
                .map_err(|e| e.to_string())?;
        }
        Ok(Adhoc {
            engine,
            sessions,
            versions,
            s,
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            seed,
        })
    }

    fn session(&self) -> &Session {
        &self.sessions[0]
    }

    fn describe(&self, report: &mut Report) {
        report.note("r_rows", R_ROWS);
        report.note("s_rows", S_ROWS);
        report.note("clients", self.sessions.len());
        report.note("reload_every", RELOAD_EVERY);
    }

    fn answers(&self, _report: &mut Report) -> Result<Oracle, String> {
        Oracle::compute(&self.versions, &self.s)
    }

    fn run_loop(&self, oracle: &Oracle, seed: u64, run_for: Duration, traced: bool) -> LoopOut {
        closed_loop(
            self.sessions.len(),
            run_for,
            traced,
            |c| {
                if c.id == 0 && c.n % (RELOAD_EVERY + 1) == RELOAD_EVERY {
                    return Ok(Done::Write {
                        ns: self.reload(Some(c)),
                    });
                }
                let query = Query::draw(seed, c.id, c.n);
                let sql = query.sql();
                let session = &self.sessions[c.id];
                let finished_before = self.finished.load(SeqCst);
                let result = if c.traced() {
                    // The steps of `Session::query_sql`, one span each.
                    let parsed = c
                        .call("sql.parse", || parse_sql(&sql))
                        .map_err(|e| e.to_string())?;
                    let prepared = c.call("session.prepare", || session.prepare(&parsed.plan));
                    let bound = c.call("bind", || prepared?.bind(&Params::new()));
                    c.call("execute", || bound?.execute())
                } else {
                    session.query_sql(&sql, &Params::new())
                }
                .map_err(|e| e.to_string())?;
                Ok(Done::Read(Read {
                    query,
                    finished_before,
                    started_after: self.started.load(SeqCst),
                    result,
                }))
            },
            |_, read| {
                let slot = read.query.slot();
                let mut versions = read.finished_before..=read.started_after;
                if versions.any(|v| {
                    oracle.answers[(v % 2) as usize][slot]
                        .check(&read.result)
                        .is_ok()
                }) {
                    Ok(())
                } else {
                    Err(format!(
                        "{:?} matches no R version it could have read: {:?}",
                        read.query, read.result.rows
                    ))
                }
            },
        )
    }

    fn idle_reloads(&self) -> Vec<u64> {
        (0..RELOADS).map(|_| self.reload(None)).collect()
    }

    /// Twelve ad-hoc statements checked against the current R version.
    fn probe_stmts(&self, oracle: &Oracle) -> Vec<Stmt> {
        let current = (self.finished.load(SeqCst) % 2) as usize;
        (0..12)
            .map(|i| {
                let q = Query::draw(self.seed ^ 2, 0, i);
                Stmt {
                    sql: q.sql(),
                    params: Params::new(),
                    expected: oracle.answers[current][q.slot()].clone(),
                }
            })
            .collect()
    }
}
