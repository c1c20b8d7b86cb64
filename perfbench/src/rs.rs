//! The R/S schema shared by `serve_cached` and `adhoc_reload`:
//! R(x, a, b, c, fk) with `fk` → S(y), and three statement shapes over it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::prelude::*;

/// Statement shapes: scalar aggregate, group-by, FK semijoin.
pub const SHAPES: usize = 3;

/// SQL of `shape` with `x_lit` bounding `R.x` and, for the semijoin,
/// `y_lit` bounding `S.y`. Literals are text so that `?` placeholders and
/// numbers share one definition.
pub fn sql(shape: usize, x_lit: &str, y_lit: &str) -> String {
    match shape {
        0 => format!("select sum(a * b) as s, count(*) as n from R where x < {x_lit}"),
        1 => {
            format!("select c, sum(a * b) as s, count(*) as n from R where x < {x_lit} group by c")
        }
        2 => format!(
            "select sum(R.a * R.b) as s, count(*) as n from R, S \
             where R.fk = S.rowid and R.x < {x_lit} and S.y < {y_lit}"
        ),
        _ => unreachable!("shape {shape}"),
    }
}

/// R with `rows` rows whose `fk` points into an S of `s_rows` rows; the
/// stream `version` gives differently drawn contents from one seed.
pub fn r_table(seed: u64, version: u64, rows: usize, s_rows: usize) -> Table {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x5eed_0000 + version));
    let mut col =
        |lo: i32, hi: i32| -> Vec<i32> { (0..rows).map(|_| rng.gen_range(lo..hi)).collect() };
    let x = col(0, 100).into_iter().map(|v| v as i8).collect();
    let a = col(1, 50);
    let b = col(1, 50);
    let c = col(0, 32).into_iter().map(|v| v as i16).collect();
    let fk = col(0, s_rows as i32)
        .into_iter()
        .map(|v| v as u32)
        .collect();
    Table::new("R")
        .with_column("x", ColumnData::I8(x))
        .with_column("a", ColumnData::I32(a))
        .with_column("b", ColumnData::I32(b))
        .with_column("c", ColumnData::I16(c))
        .with_column("fk", ColumnData::U32(fk))
}

/// S with `rows` rows of `y` in `0..100`.
pub fn s_table(seed: u64, rows: usize) -> Table {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5);
    Table::new("S").with_column(
        "y",
        ColumnData::I8((0..rows).map(|_| rng.gen_range(0i8..100)).collect()),
    )
}

/// A database holding `r` and `s` with the FK index `R.fk → S`.
pub fn database(r: Table, s: Table) -> Database {
    let mut db = Database::new();
    db.add_table(r);
    db.add_table(s);
    db.add_fk("R", "fk", "S")
        .expect("fk values are drawn below the S row count");
    db
}
