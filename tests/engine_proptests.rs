//! Randomized engine validation: for randomly generated tables and randomly
//! composed (supported-shape) plans, the access-aware engine must agree with
//! the naive interpreter — regardless of which strategies the cost model
//! happens to pick.
//!
//! Formerly written with `proptest`; the offline build replaces it with
//! seeded `SmallRng` case generation (deterministic, seed printed on
//! failure).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::interp;
use swole::prelude::*;

const CASES: u64 = 64;

/// Random database: R(x, a, b, c, fk) and S(y), sizes and domains drawn
/// from the seeded generator.
#[derive(Debug, Clone)]
struct RandomDb {
    x: Vec<i8>,
    a: Vec<i32>,
    b: Vec<i32>,
    c: Vec<i16>,
    fk: Vec<u32>,
    s_y: Vec<i8>,
}

impl RandomDb {
    fn generate(rng: &mut SmallRng) -> RandomDb {
        let n_r = rng.gen_range(1usize..3000);
        let n_s = rng.gen_range(1usize..200);
        RandomDb {
            x: (0..n_r).map(|_| rng.gen_range(0i8..100)).collect(),
            a: (0..n_r).map(|_| rng.gen_range(1i32..50)).collect(),
            b: (0..n_r).map(|_| rng.gen_range(1i32..50)).collect(),
            c: (0..n_r).map(|_| rng.gen_range(0i16..24)).collect(),
            fk: (0..n_r).map(|_| rng.gen_range(0u32..n_s as u32)).collect(),
            s_y: (0..n_s).map(|_| rng.gen_range(0i8..100)).collect(),
        }
    }

    fn build(&self) -> Database {
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("x", ColumnData::I8(self.x.clone()))
                .with_column("a", ColumnData::I32(self.a.clone()))
                .with_column("b", ColumnData::I32(self.b.clone()))
                .with_column("c", ColumnData::I16(self.c.clone()))
                .with_column("fk", ColumnData::U32(self.fk.clone())),
        );
        db.add_table(Table::new("S").with_column("y", ColumnData::I8(self.s_y.clone())));
        db.add_fk("R", "fk", "S").expect("valid by construction");
        db
    }
}

/// A random predicate over R's integer columns: random comparison leaves
/// composed with And/Or/Not up to the given depth.
fn random_pred(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        let col = ["x", "a", "c"][rng.gen_range(0usize..3)];
        let op = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ][rng.gen_range(0usize..6)];
        let lit = rng.gen_range(i8::MIN..=i8::MAX) as i64;
        return Expr::col(col).cmp(op, Expr::lit(lit));
    }
    match rng.gen_range(0u32..3) {
        0 => random_pred(rng, depth - 1).and(random_pred(rng, depth - 1)),
        1 => random_pred(rng, depth - 1).or(random_pred(rng, depth - 1)),
        _ => Expr::Not(Box::new(random_pred(rng, depth - 1))),
    }
}

/// A random aggregate list (sum/count/min/max over simple expressions).
fn random_aggs(rng: &mut SmallRng) -> Vec<AggSpec> {
    (0..rng.gen_range(1usize..4))
        .map(|i| {
            let expr = match rng.gen_range(0usize..3) {
                0 => Expr::col("a"),
                1 => Expr::col("a").mul(Expr::col("b")),
                _ => Expr::Add(Box::new(Expr::col("a")), Box::new(Expr::col("c"))),
            };
            let name = format!("v{i}");
            match rng.gen_range(0usize..4) {
                0 => AggSpec::sum(expr, name.as_str()),
                1 => AggSpec::count(name.as_str()),
                2 => AggSpec::min(expr, name.as_str()),
                _ => AggSpec::max(expr, name.as_str()),
            }
        })
        .collect()
}

#[test]
fn scan_agg_engine_equals_interp() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1000 + seed);
        let db = RandomDb::generate(&mut rng);
        let mut builder = QueryBuilder::scan("R");
        if rng.gen_bool(0.7) {
            builder = builder.filter(random_pred(&mut rng, 2));
        }
        let group = rng.gen_bool(0.5);
        let aggs = random_aggs(&mut rng);
        let plan = builder.aggregate(if group { Some("c") } else { None }, aggs);
        let database = db.build();
        let expected = interp::run(&database, &plan).expect("interp");
        let engine = Engine::builder(database).threads(2).build();
        let got = engine.query(&plan).expect("engine");
        assert_eq!(got, expected, "seed={seed}");
    }
}

#[test]
fn semijoin_engine_equals_interp() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x2000 + seed);
        let db = RandomDb::generate(&mut rng);
        let group = rng.gen_bool(0.5);
        let build_sel = rng.gen_range(0i8..100);
        let mut builder = QueryBuilder::scan("R");
        if !group && rng.gen_bool(0.7) {
            let probe_sel = rng.gen_range(0i8..100);
            builder = builder.filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(probe_sel as i64)));
        }
        let plan = builder
            .semijoin(
                QueryBuilder::scan("S")
                    .filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(build_sel as i64))),
                "fk",
            )
            .aggregate(
                if group { Some("fk") } else { None },
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        let database = db.build();
        let expected = interp::run(&database, &plan).expect("interp");
        let engine = Engine::builder(database).threads(2).build();
        let got = engine.query(&plan).expect("engine");
        assert_eq!(got, expected, "seed={seed}");
    }
}

/// Random table over every `ColumnData` variant: `id` (unique i64 row id),
/// `p`/`p2` (i8), `q` (i16), `r`/`r2` (i32), `w` (i64, with values near the
/// type's edges so arithmetic wraps), `u` (u32, with values above
/// `i32::MAX`) and `d` (dictionary strings).
fn random_wide_table(rng: &mut SmallRng) -> Table {
    let n = rng.gen_range(1usize..5000);
    let words = ["PROMO A", "PROMO B", "STD", "ECONOMY", "SM BOX", "LG CASE"];
    let w = (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => i64::MAX - rng.gen_range(0i64..1000),
            1 => i64::MIN + rng.gen_range(0i64..1000),
            _ => rng.gen_range(-1_000_000i64..1_000_000),
        })
        .collect();
    let d: Vec<&str> = (0..n)
        .map(|_| words[rng.gen_range(0usize..words.len())])
        .collect();
    Table::new("T")
        .with_column("id", ColumnData::I64((0..n as i64).collect()))
        .with_column(
            "p",
            ColumnData::I8((0..n).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect()),
        )
        .with_column(
            "p2",
            ColumnData::I8((0..n).map(|_| rng.gen_range(-20i8..20)).collect()),
        )
        .with_column(
            "q",
            ColumnData::I16((0..n).map(|_| rng.gen_range(i16::MIN..=i16::MAX)).collect()),
        )
        .with_column(
            "r",
            ColumnData::I32(
                (0..n)
                    .map(|_| rng.gen_range(-100_000i32..100_000))
                    .collect(),
            ),
        )
        .with_column(
            "r2",
            ColumnData::I32((0..n).map(|_| rng.gen_range(-50i32..50)).collect()),
        )
        .with_column("w", ColumnData::I64(w))
        .with_column(
            "u",
            ColumnData::U32((0..n).map(|_| rng.gen_range(0u32..=u32::MAX)).collect()),
        )
        .with_column("d", ColumnData::Dict(DictColumn::encode(&d)))
}

/// Integer columns of [`random_wide_table`] with their value types' ranges
/// (dictionary codes compare as `u32`).
const WIDE_COLS: [(&str, i64, i64); 9] = [
    ("p", i8::MIN as i64, i8::MAX as i64),
    ("p2", i8::MIN as i64, i8::MAX as i64),
    ("q", i16::MIN as i64, i16::MAX as i64),
    ("r", i32::MIN as i64, i32::MAX as i64),
    ("r2", i32::MIN as i64, i32::MAX as i64),
    ("w", i64::MIN, i64::MAX),
    ("u", 0, u32::MAX as i64),
    ("d", 0, u32::MAX as i64),
    ("id", i64::MIN, i64::MAX),
];

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// A literal for a column of range `min ..= max`: often near the data,
/// sometimes at or just past the type's edges (out-of-range literals fold
/// to constants in the tile program).
fn random_lit(rng: &mut SmallRng, min: i64, max: i64) -> i64 {
    match rng.gen_range(0u32..6) {
        0 => min.saturating_sub(rng.gen_range(0i64..300)),
        1 => max.saturating_add(rng.gen_range(0i64..300)),
        2 => [min, max, 0, -1, 40_000, -200, 200][rng.gen_range(0usize..7)],
        _ => rng.gen_range(-120i64..120),
    }
}

fn random_col(rng: &mut SmallRng) -> (&'static str, i64, i64) {
    WIDE_COLS[rng.gen_range(0usize..WIDE_COLS.len())]
}

/// A column that may feed arithmetic: any but the dictionary.
fn random_value_col(rng: &mut SmallRng) -> (&'static str, i64, i64) {
    let c = random_col(rng);
    if c.0 == "d" {
        WIDE_COLS[0]
    } else {
        c
    }
}

/// A random boolean tree: literal bounds (including fused `BETWEEN`-style
/// pairs and out-of-range literals), column-vs-column comparisons across
/// mixed widths, dictionary `IN`/`LIKE`, comparisons of arithmetic, and
/// `AND`/`OR`/`NOT`.
fn random_mask_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    let leaf = depth == 0 || rng.gen_bool(0.35);
    match rng.gen_range(0u32..if leaf { 5 } else { 9 }) {
        0 | 1 => {
            let (c, min, max) = random_col(rng);
            let op = OPS[rng.gen_range(0usize..6)];
            let lit = Expr::lit(random_lit(rng, min, max));
            if rng.gen_bool(0.2) {
                lit.cmp(op, Expr::col(c))
            } else {
                Expr::col(c).cmp(op, lit)
            }
        }
        2 => {
            let (c, min, max) = random_col(rng);
            let (lo, hi) = (random_lit(rng, min, max), random_lit(rng, min, max));
            let lo_op = [CmpOp::Ge, CmpOp::Gt][rng.gen_range(0usize..2)];
            let hi_op = [CmpOp::Le, CmpOp::Lt][rng.gen_range(0usize..2)];
            Expr::col(c)
                .cmp(lo_op, Expr::lit(lo))
                .and(Expr::col(c).cmp(hi_op, Expr::lit(hi)))
        }
        3 => {
            let (a, _, _) = random_col(rng);
            let (b, _, _) = random_col(rng);
            Expr::col(a).cmp(OPS[rng.gen_range(0usize..6)], Expr::col(b))
        }
        4 => {
            if rng.gen_bool(0.5) {
                Expr::Like {
                    col: "d".into(),
                    pattern: ["PROMO%", "%BOX", "S_D", "%"][rng.gen_range(0usize..4)].into(),
                }
            } else {
                Expr::InList {
                    col: "d".into(),
                    values: vec!["STD".into(), "SM BOX".into(), "missing".into()]
                        [..rng.gen_range(1usize..4)]
                        .to_vec(),
                }
            }
        }
        5 => random_mask_expr(rng, depth - 1).and(random_mask_expr(rng, depth - 1)),
        6 => random_mask_expr(rng, depth - 1).or(random_mask_expr(rng, depth - 1)),
        7 => Expr::Not(Box::new(random_mask_expr(rng, depth - 1))),
        _ => random_value_expr(rng, depth - 1).cmp(
            OPS[rng.gen_range(0usize..6)],
            random_value_expr(rng, depth - 1),
        ),
    }
}

/// A random value tree: columns and literals combined with wrapping
/// `+ − ×`, division by a nonzero literal, `CASE`, and booleans read as
/// 0/1.
fn random_value_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    let b = |e: Expr| Box::new(e);
    match rng.gen_range(0u32..if leaf { 2 } else { 8 }) {
        0 => Expr::col(random_value_col(rng).0),
        1 => {
            let (_, min, max) = random_value_col(rng);
            Expr::lit(random_lit(rng, min, max))
        }
        2 => Expr::Add(
            b(random_value_expr(rng, depth - 1)),
            b(random_value_expr(rng, depth - 1)),
        ),
        3 => Expr::Sub(
            b(random_value_expr(rng, depth - 1)),
            b(random_value_expr(rng, depth - 1)),
        ),
        4 => Expr::Mul(
            b(random_value_expr(rng, depth - 1)),
            b(random_value_expr(rng, depth - 1)),
        ),
        5 => Expr::Div(
            b(random_value_expr(rng, depth - 1)),
            b(Expr::lit([1, 2, 7, -3, -1][rng.gen_range(0usize..5)])),
        ),
        6 => Expr::Case {
            when: b(random_mask_expr(rng, depth - 1)),
            then: b(random_value_expr(rng, depth - 1)),
            otherwise: b(random_value_expr(rng, depth - 1)),
        },
        _ => random_mask_expr(rng, depth - 1),
    }
}

/// Every random filter and aggregate input the engine compiles into a tile
/// program must agree with `Expr::eval_row`, row by row: grouping on the
/// unique `id` makes each output row one input row's values. Morsel sizes
/// that are not multiples of the tile put tiles at arbitrary offsets, and
/// most tables end in a short tile.
#[test]
fn tile_program_agrees_with_eval_row() {
    let strategies = [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ];
    let mut retried = 0;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3000 + seed);
        let table = random_wide_table(&mut rng);
        let pred = random_mask_expr(&mut rng, 3);
        let values = [
            random_value_expr(&mut rng, 3),
            random_mask_expr(&mut rng, 2),
        ];
        let expected: Vec<Vec<i64>> = (0..table.len())
            .filter(|&r| pred.eval_row(&table, r) != 0)
            .map(|r| {
                let mut row = vec![r as i64];
                row.extend(values.iter().map(|v| v.eval_row(&table, r)));
                row.push(1);
                row
            })
            .collect();
        let plan = QueryBuilder::scan("T").filter(pred.clone()).aggregate(
            Some("id"),
            vec![
                AggSpec::sum(values[0].clone(), "v0"),
                AggSpec::sum(values[1].clone(), "v1"),
                AggSpec::count("n"),
            ],
        );
        let mut db = Database::new();
        db.add_table(table);
        let strategy = strategies[seed as usize % strategies.len()];
        let engine = Engine::builder(db)
            .threads(2)
            .tile_rows([700, 1024, 1500, 2500][rng.gen_range(0usize..4)])
            .strategies(StrategyOverrides::pin_agg(strategy))
            .metrics(MetricsLevel::Counters)
            .build();
        let got = engine.query(&plan).expect("engine");
        // A wrapped sum in key masking's throwaway group (or a division by
        // zero) retries under the interpreter; the answer must still match.
        retried += got.metrics().map_or(0, |m| m.retries);
        assert_eq!(
            got.rows, expected,
            "seed={seed} strategy={strategy:?}\npred={pred:?}\nvalues={values:?}"
        );
    }
    assert!(
        retried <= CASES as u32 / 8,
        "{retried} of {CASES} cases fell back: the tile program went untested"
    );
}
