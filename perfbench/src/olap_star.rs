//! `olap_star`: scan/join/aggregate analytics over an in-memory star
//! schema that fits the engine's memory budget.
//!
//! `orders` (Zipf-skewed `cid`), `customers` and the 49-row `buckets`
//! dimension are loaded through the public `Appender`. One operation is
//! one query of a fixed rotation over six query classes; results are a
//! few rows, so nearly all the time is spent in the executor.

use crate::host::{Delivered, Host};
use crate::trace::SpanId;
use crate::{close_enough, extra, Config, Measured, Phase, Scale, Workload};
use eider_client::Appender;
use eider_core::{DataChunk, Database, LogicalType, Value};
use eider_vector::VectorData;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The query classes, named as the per-class layer metrics
/// (`exec.q.<class>_ms`) report them.
pub const CLASSES: [&str; 6] =
    ["filter_agg", "join_agg", "multi_join", "group_topn", "date_group", "selective_join_topn"];

/// `multi_join` filters the dimension (`tier < 3`). Without a filter the
/// cost model's estimates for its two join orders tie to within one row,
/// and the order it picks, one of two that differ by about a quarter in
/// time, changes with the seed. The filter makes joining `buckets` first
/// clearly cheapest for every seed.
const SQL: [&str; 6] = [
    "SELECT count(*), sum(qty), sum(amount) FROM orders WHERE amount > 100.0 AND qty < 25",
    "SELECT segment, count(*), sum(amount) FROM orders \
     JOIN customers ON orders.cid = customers.cid GROUP BY segment",
    "SELECT tier, count(*), sum(amount) FROM buckets \
     JOIN orders ON orders.qty = buckets.qty \
     JOIN customers ON orders.cid = customers.cid WHERE tier < 3 GROUP BY tier",
    "SELECT cid, count(*) AS n, sum(qty) AS q FROM orders GROUP BY cid ORDER BY q DESC, cid LIMIT 10",
    "SELECT order_date, count(*), sum(amount) FROM orders \
     WHERE order_date BETWEEN DATE '2020-03-01' AND DATE '2020-05-31' GROUP BY order_date",
    "SELECT name, count(*) AS n, sum(qty) AS q FROM orders \
     JOIN customers ON orders.cid = customers.cid WHERE amount > 495.0 \
     GROUP BY name ORDER BY q DESC, name LIMIT 10",
];

/// The rotation: every class once, `filter_agg` (the cheap dashboard
/// tile) twice, so that the median operation falls inside one class
/// rather than on the boundary between two.
const ROTATION: [usize; 7] = [0, 1, 2, 0, 3, 4, 5];

/// Days since 1970-01-01 of 2020-03-01 and 2020-05-31.
const DATE_LO: i32 = 18_322;
const DATE_HI: i32 = 18_413;

pub struct StarInput {
    pub orders: Vec<DataChunk>,
    pub customers: Vec<DataChunk>,
    pub buckets: Vec<DataChunk>,
}

pub fn sizes(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (300_000, 15_000),
        Scale::Tiny => (20_000, 1_000),
    }
}

/// Generate the star schema from `seed` (before any database opens).
pub fn generate(seed: u64, orders: usize, customers: u64) -> Result<StarInput, String> {
    let mut w = eider_workload::Workload::new(seed);
    let o = w.orders_chunks(orders, customers).map_err(|e| e.to_string())?;
    let c = w.customers_chunks(customers).map_err(|e| e.to_string())?;
    let rows: Vec<Vec<Value>> =
        (1..50).map(|q| vec![Value::Integer(q), Value::Integer(q / 10)]).collect();
    let b = DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows)
        .map_err(|e| e.to_string())?;
    Ok(StarInput { orders: o, customers: c, buckets: vec![b] })
}

pub const DDL: [&str; 3] = [
    "CREATE TABLE orders (oid BIGINT, cid BIGINT, amount DOUBLE, qty INTEGER, order_date DATE)",
    "CREATE TABLE customers (cid BIGINT, name VARCHAR, segment VARCHAR)",
    "CREATE TABLE buckets (qty INTEGER, tier INTEGER)",
];

/// Load `chunks` into `table` through the public `Appender` in one
/// transaction.
pub fn append(db: &Arc<Database>, table: &str, chunks: Vec<DataChunk>) -> Result<(), String> {
    let entry = db.catalog().get_table(table).map_err(|e| e.to_string())?;
    let txn = Arc::new(db.txn_manager().begin());
    let mut appender = Appender::new(entry, Arc::clone(&txn));
    for chunk in chunks {
        appender.append_chunk(chunk).map_err(|e| e.to_string())?;
    }
    appender.finish().map_err(|e| e.to_string())?;
    let txn = Arc::try_unwrap(txn).map_err(|_| "appender kept its transaction".to_string())?;
    db.commit_transaction(txn).map_err(|e| e.to_string())?;
    Ok(())
}

/// Expected value of one result cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Want {
    Int(i64),
    Float(f64),
    Str(String),
    Date(i32),
}

fn matches(got: &Value, want: &Want) -> bool {
    match (got, want) {
        (Value::Date(g), Want::Date(w)) => g == w,
        (Value::Varchar(g), Want::Str(w)) => g == w,
        (g, Want::Int(w)) => g.as_i64() == Some(*w),
        (g, Want::Float(w)) => g.as_f64().is_some_and(|g| close_enough(g, *w)),
        _ => false,
    }
}

/// Compare a delivered result with the oracle's rows. `sorted`: the query
/// orders its output; otherwise rows are compared sorted by their first
/// column (group keys are unique).
pub fn compare(got: &Delivered, want: &[Vec<Want>], sorted: bool) -> Result<(), String> {
    let mut rows = got.to_rows();
    if !sorted {
        let key = |v: &Value| match v {
            Value::Varchar(s) => (0, s.clone()),
            Value::Date(d) => (i64::from(*d), String::new()),
            v => (v.as_i64().unwrap_or(0), String::new()),
        };
        rows.sort_by_key(|r| key(&r[0]));
    }
    if rows.len() != want.len() {
        return Err(format!("{} rows, oracle has {}", rows.len(), want.len()));
    }
    for (i, (g, w)) in rows.iter().zip(want).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(g, w)| matches(g, w)) {
            return Err(format!("row {i}: got {g:?}, oracle {w:?}"));
        }
    }
    Ok(())
}

fn col(chunk: &DataChunk, i: usize) -> &VectorData {
    chunk.column(i).data()
}

/// The oracle: each class's result computed in plain Rust from the inputs.
pub fn oracle(input: &StarInput) -> Vec<Vec<Vec<Want>>> {
    let mut names = Vec::new();
    let mut segments = Vec::new();
    for c in &input.customers {
        let (VectorData::Str(n), VectorData::Str(s)) = (col(c, 1), col(c, 2)) else {
            unreachable!("customers columns are varchar")
        };
        names.extend(n.iter().cloned());
        segments.extend(s.iter().cloned());
    }
    let mut filter = (0i64, 0i64, 0f64);
    let mut by_segment: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    let mut by_tier: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    let mut by_cid: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    let mut by_date: BTreeMap<i32, (i64, f64)> = BTreeMap::new();
    let mut by_name: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for o in &input.orders {
        let (
            VectorData::I64(cid),
            VectorData::F64(amount),
            VectorData::I32(qty),
            VectorData::I32(date),
        ) = (col(o, 1), col(o, 2), col(o, 3), col(o, 4))
        else {
            unreachable!("orders columns have fixed types")
        };
        for i in 0..o.len() {
            let (cid, amount, qty, date) = (cid[i], amount[i], i64::from(qty[i]), date[i]);
            if amount > 100.0 && qty < 25 {
                filter = (filter.0 + 1, filter.1 + qty, filter.2 + amount);
            }
            let seg = by_segment.entry(segments[cid as usize].clone()).or_default();
            *seg = (seg.0 + 1, seg.1 + amount);
            // Every qty in 1..50 has its bucket row; tier = qty / 10.
            if qty / 10 < 3 {
                let tier = by_tier.entry(qty / 10).or_default();
                *tier = (tier.0 + 1, tier.1 + amount);
            }
            let c = by_cid.entry(cid).or_default();
            *c = (c.0 + 1, c.1 + qty);
            if (DATE_LO..=DATE_HI).contains(&date) {
                let d = by_date.entry(date).or_default();
                *d = (d.0 + 1, d.1 + amount);
            }
            if amount > 495.0 {
                let n = by_name.entry(names[cid as usize].clone()).or_default();
                *n = (n.0 + 1, n.1 + qty);
            }
        }
    }
    let top = |groups: Vec<(Want, i64, i64)>| -> Vec<Vec<Want>> {
        let mut g = groups;
        // ORDER BY q DESC, key; ties on q fall to the key, ascending.
        g.sort_by(|a, b| {
            b.2.cmp(&a.2).then_with(|| match (&a.0, &b.0) {
                (Want::Int(x), Want::Int(y)) => x.cmp(y),
                (Want::Str(x), Want::Str(y)) => x.cmp(y),
                _ => std::cmp::Ordering::Equal,
            })
        });
        g.into_iter().take(10).map(|(k, n, q)| vec![k, Want::Int(n), Want::Int(q)]).collect()
    };
    vec![
        vec![vec![Want::Int(filter.0), Want::Int(filter.1), Want::Float(filter.2)]],
        by_segment
            .into_iter()
            .map(|(s, (n, a))| vec![Want::Str(s), Want::Int(n), Want::Float(a)])
            .collect(),
        by_tier
            .into_iter()
            .map(|(t, (n, a))| vec![Want::Int(t), Want::Int(n), Want::Float(a)])
            .collect(),
        top(by_cid.into_iter().map(|(c, (n, q))| (Want::Int(c), n, q)).collect()),
        by_date
            .into_iter()
            .map(|(d, (n, a))| vec![Want::Date(d), Want::Int(n), Want::Float(a)])
            .collect(),
        top(by_name.into_iter().map(|(s, (n, q))| (Want::Str(s), n, q)).collect()),
    ]
}

struct Star {
    want: Vec<Vec<Vec<Want>>>,
}

impl Workload for Star {
    fn round(&self) -> u64 {
        ROTATION.len() as u64
    }

    fn op(
        &mut self,
        host: &mut Host,
        op: u64,
        span: SpanId,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let class = ROTATION[(op % ROTATION.len() as u64) as usize];
        let got = host.read(span, op, SQL[class])?;
        phase.rows += got.rows;
        // Per-class executor time: the read just pushed its sample.
        if let Some(&exec) = host.samples.values.get("exec.self_ms").and_then(|v| v.last()) {
            host.samples.push(format!("exec.q.{}_ms", CLASSES[class]), exec);
        }
        let sorted = matches!(class, 3 | 5);
        let (checked, _) =
            host.span("host.consume", span, op, |_| compare(&got, &self.want[class], sorted));
        checked.map_err(|e| format!("{}: {e}", CLASSES[class]))
    }
}

/// Open a database, load the schema and run one warm-up round; the
/// returned host is ready for the timed phase.
fn setup(
    input: &StarInput,
    w: &mut Star,
    m: &mut Measured,
    next_op: &mut u64,
) -> Result<Host, String> {
    // Inputs are copied before the clock starts: set-up times the load.
    let (orders, customers, buckets) =
        (input.orders.clone(), input.customers.clone(), input.buckets.clone());
    let start = Instant::now();
    let db = Database::in_memory().map_err(|e| e.to_string())?;
    let mut host = Host::new(db, 0, false);
    host.execute(0, 0, &format!("PRAGMA threads = {}", crate::pinned_threads()))?;
    for ddl in DDL {
        host.execute(0, 0, ddl)?;
    }
    append(&host.db, "orders", orders)?;
    append(&host.db, "customers", customers)?;
    append(&host.db, "buckets", buckets)?;
    let load_s = start.elapsed().as_secs_f64();
    crate::run_round(w, &mut host, next_op, &mut m.checks);
    m.setup_s.push(start.elapsed().as_secs_f64());
    let rows =
        input.orders.iter().chain(&input.customers).chain(&input.buckets).map(DataChunk::len);
    m.extras.push(extra("client.appender_rows_per_s", rows.sum::<usize>() as f64 / load_s, "1/s"));
    Ok(host)
}

pub fn run(cfg: &Config) -> Result<Measured, String> {
    let (orders, customers) = sizes(cfg.scale);
    let input = generate(cfg.seed, orders, customers)?;
    let mut w = Star { want: oracle(&input) };
    let mut m = Measured {
        sizes: vec![("orders", orders as u64), ("customers", customers), ("buckets", 49)],
        ..Measured::default()
    };
    crate::measure(cfg, &mut w, &mut m, &mut 0, |w, m, op| setup(&input, w, m, op))?;
    Ok(m)
}
