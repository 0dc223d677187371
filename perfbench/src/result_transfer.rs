//! `result_transfer`: the paper's §5 workload, result sets larger than the
//! engine's memory budget handed to the host.
//!
//! `orders` is loaded as in `olap_star`. Each operation pulls a filtered
//! half-table projection (five columns) through `query_stream`; three of
//! every four go over the wire encoding, the fourth through
//! `export_arrow_ipc`. `PRAGMA memory_limit` sits well below one result's
//! size, so results can only be delivered by streaming. The host consumes
//! the decoded columns into checksums that the oracle predicts.

use crate::host::{Delivered, Host};
use crate::olap_star::{append, generate};
use crate::trace::SpanId;
use crate::{extra, Config, Measured, Phase, Scale, Workload};
use eider_core::{DataChunk, Database};
use eider_vector::VectorData;
use std::time::Instant;

const SQL: &str = "SELECT oid, cid, amount, qty, order_date FROM orders WHERE amount < 250.5";

/// One read in four goes through Arrow IPC.
pub const ARROW_EVERY: u64 = 4;

/// The engine's memory budget: a quarter of one result's wire frames.
pub const MEMORY_LIMIT: usize = 2 << 20;

pub fn orders(scale: Scale) -> usize {
    match scale {
        Scale::Full => 400_000,
        Scale::Tiny => 20_000,
    }
}

/// Order-independent checksums of the five result columns: row count and
/// wrapping sums (doubles by their bit patterns, so the check is exact).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    pub sums: [u64; 5],
}

impl Checksum {
    fn add(&mut self, col: usize, data: &VectorData) {
        let s = &mut self.sums[col];
        match data {
            VectorData::I64(v) => *s = v.iter().fold(*s, |a, &x| a.wrapping_add(x as u64)),
            VectorData::I32(v) => *s = v.iter().fold(*s, |a, &x| a.wrapping_add(x as u64)),
            VectorData::F64(v) => *s = v.iter().fold(*s, |a, &x| a.wrapping_add(x.to_bits())),
            _ => unreachable!("result columns are BIGINT, DOUBLE, INTEGER or DATE"),
        }
    }

    /// Consume a delivered result column-wise, as a host would.
    pub fn of(chunks: &[DataChunk]) -> Checksum {
        let mut c = Checksum::default();
        for chunk in chunks {
            c.rows += chunk.len() as u64;
            for i in 0..5 {
                c.add(i, chunk.column(i).data());
            }
        }
        c
    }
}

/// The oracle: the checksums of `amount < 250.5` over the inputs.
pub fn oracle(orders: &[DataChunk]) -> Checksum {
    let mut c = Checksum::default();
    for chunk in orders {
        let VectorData::F64(amount) = chunk.column(2).data() else {
            unreachable!("amount is DOUBLE")
        };
        let keep: Vec<u32> =
            (0..chunk.len() as u32).filter(|&i| amount[i as usize] < 250.5).collect();
        let selected = chunk.select(&eider_vector::SelectionVector::from_indexes(keep));
        c.rows += selected.len() as u64;
        for i in 0..5 {
            c.add(i, selected.column(i).data());
        }
    }
    c
}

struct Transfer {
    want: Checksum,
}

impl Workload for Transfer {
    fn round(&self) -> u64 {
        ARROW_EVERY
    }

    fn op(
        &mut self,
        host: &mut Host,
        op: u64,
        span: SpanId,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let got: Delivered = host.read(span, op, SQL)?;
        let (sum, _) = host.span("host.consume", span, op, |_| Checksum::of(&got.chunks));
        phase.rows += got.rows;
        if sum != self.want {
            return Err(format!("checksums {sum:?}, oracle {:?}", self.want));
        }
        Ok(())
    }
}

fn setup(
    orders: &[DataChunk],
    w: &mut Transfer,
    m: &mut Measured,
    next_op: &mut u64,
) -> Result<Host, String> {
    let chunks = orders.to_vec();
    let start = Instant::now();
    let db = Database::in_memory().map_err(|e| e.to_string())?;
    let mut host = Host::new(db, ARROW_EVERY, false);
    host.execute(0, 0, &format!("PRAGMA threads = {}", crate::pinned_threads()))?;
    host.execute(0, 0, &format!("PRAGMA memory_limit = {MEMORY_LIMIT}"))?;
    host.execute(0, 0, crate::olap_star::DDL[0])?;
    append(&host.db, "orders", chunks)?;
    let load_s = start.elapsed().as_secs_f64();
    crate::run_round(w, &mut host, next_op, &mut m.checks);
    m.setup_s.push(start.elapsed().as_secs_f64());
    let rows: usize = orders.iter().map(DataChunk::len).sum();
    m.extras.push(extra("client.appender_rows_per_s", rows as f64 / load_s, "1/s"));
    Ok(host)
}

pub fn run(cfg: &Config) -> Result<Measured, String> {
    let n = orders(cfg.scale);
    let input = generate(cfg.seed, n, n as u64 / 20)?;
    let mut w = Transfer { want: oracle(&input.orders) };
    let mut m = Measured {
        sizes: vec![
            ("orders", n as u64),
            ("result_rows", w.want.rows),
            ("memory_limit_bytes", MEMORY_LIMIT as u64),
        ],
        ..Measured::default()
    };
    let host =
        crate::measure(cfg, &mut w, &mut m, &mut 0, |w, m, op| setup(&input.orders, w, m, op))?;
    let t = host.transfer;
    if t.arrow_rows > 0 {
        m.extras.push(extra(
            "etl.arrow_bytes_per_row",
            t.arrow_bytes as f64 / t.arrow_rows as f64,
            "B",
        ));
    }
    Ok(m)
}
