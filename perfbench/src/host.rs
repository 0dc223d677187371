//! The host side of every workload: one connection in a closed loop,
//! results delivered the way an analytics host takes them.
//!
//! Every SELECT streams through `Connection::query_stream`. Its chunks are
//! encoded with `ChunkWriter` into an in-memory buffer and decoded with
//! `ChunkReader::read_result`, or, for a fixed share of reads, exported
//! with `ResultCursor::export_arrow_ipc` into memory and decoded by the
//! host's own Arrow reader. The workload then consumes the decoded columns.
//!
//! With tracing on, each statement first runs the frontend's public
//! functions (`parse_statements`, `Binder::bind_statement`,
//! `optimizer::optimize`, and `planner::lower_parallel` for a SELECT or
//! `planner::lower` for DML) on the same SQL, and every call into a layer
//! is recorded as a span.

use crate::arrow_read;
use crate::trace::{SpanId, Tracer};
use eider_client::wire::{ChunkReader, ChunkWriter};
use eider_core::planner::{self, PlanCtx};
use eider_core::{Connection, DataChunk, Database};
use eider_sql::{optimizer, Binder, LogicalPlan};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A decoded result as the host holds it.
pub struct Delivered {
    pub chunks: Vec<DataChunk>,
    pub rows: u64,
}

impl Delivered {
    /// Rows as values (for the few-row results the oracles compare).
    pub fn to_rows(&self) -> Vec<Vec<eider_core::Value>> {
        self.chunks.iter().flat_map(DataChunk::to_rows).collect()
    }
}

/// Layer samples of the traced run: per metric name, one sample per call.
#[derive(Default)]
pub struct Samples {
    pub values: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.entry(name.into()).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| crate::stats::median(v))
    }
}

/// Frontend timings of one statement (traced run only), in nanoseconds.
#[derive(Default, Clone, Copy)]
struct Frontend {
    total_ns: u64,
}

/// Byte and row counts of the two delivery paths.
#[derive(Default, Clone, Copy)]
pub struct Transfer {
    pub wire_bytes: u64,
    pub wire_rows: u64,
    pub arrow_bytes: u64,
    pub arrow_rows: u64,
}

/// What the traced phase recorded, detached from its connection.
pub struct Traced {
    pub phase: crate::Phase,
    pub tracer: Tracer,
    pub samples: Samples,
    pub transfer: Transfer,
    pub lowered_queries: u64,
    pub parallel_queries: u64,
}

pub struct Host {
    pub db: Arc<Database>,
    pub conn: Connection,
    pub tracer: Option<Tracer>,
    pub samples: Samples,
    pub transfer: Transfer,
    /// Every `arrow_every`-th read goes through Arrow IPC (0: never).
    pub arrow_every: u64,
    reads: u64,
    /// SELECTs lowered by the traced frontend, and how many of them
    /// `lower_parallel` accepted.
    pub lowered_queries: u64,
    pub parallel_queries: u64,
}

fn err(e: eider_core::EiderError) -> String {
    e.to_string()
}

impl Host {
    pub fn new(db: Arc<Database>, arrow_every: u64, traced: bool) -> Host {
        let conn = db.connect();
        Host {
            db,
            conn,
            tracer: traced.then(Tracer::default),
            samples: Samples::default(),
            transfer: Transfer::default(),
            arrow_every,
            reads: 0,
            lowered_queries: 0,
            parallel_queries: 0,
        }
    }

    /// Detach the traced phase's records (drops the connection).
    pub fn into_traced(self, phase: crate::Phase) -> Traced {
        Traced {
            phase,
            tracer: self.tracer.unwrap_or_default(),
            samples: self.samples,
            transfer: self.transfer,
            lowered_queries: self.lowered_queries,
            parallel_queries: self.parallel_queries,
        }
    }

    /// Continue an earlier traced phase's records on this (traced) host;
    /// returns that phase.
    pub fn resume(&mut self, earlier: Traced) -> crate::Phase {
        self.tracer = Some(earlier.tracer);
        self.samples = earlier.samples;
        self.transfer = earlier.transfer;
        self.lowered_queries = earlier.lowered_queries;
        self.parallel_queries = earlier.parallel_queries;
        earlier.phase
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Open a span (a no-op returning 0 when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        self.tracer.as_mut().map_or(0, |t| t.open(name, parent, op))
    }

    /// Close a span and return its duration in nanoseconds (0 when off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        match (&mut self.tracer, id) {
            (Some(t), id) if id > 0 => t.close(id),
            _ => 0,
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds (0 when tracing is off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(&mut Host) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, op);
        let out = f(self);
        let ns = self.close(id);
        (out, ns as f64 / 1e6)
    }

    /// Time the frontend's public functions on `sql` (traced run only):
    /// parse, bind, optimize and lower, as the connection will run them.
    fn frontend(&mut self, parent: SpanId, op: u64, sql: &str) -> Result<Frontend, String> {
        if !self.traced() {
            return Ok(Frontend::default());
        }
        let s = self.open("sql.parse", parent, op);
        let statements = eider_sql::parse_statements(sql).map_err(err)?;
        let parse = self.close(s);
        let last = statements.last().ok_or("empty statement")?;
        let s = self.open("sql.bind", parent, op);
        let plan = Binder::new(Arc::clone(self.db.catalog())).bind_statement(last).map_err(err)?;
        let bind = self.close(s);
        let s = self.open("sql.optimize", parent, op);
        let plan = optimizer::optimize(plan).map_err(err)?;
        let optimize = self.close(s);
        self.samples.push("sql.parse_us", parse as f64 / 1e3);
        self.samples.push("sql.bind_us", bind as f64 / 1e3);
        self.samples.push("sql.optimize_us", optimize as f64 / 1e3);
        // DML lowers its input serially, plain queries try the pipeline
        // DAG first; everything else executes without an operator tree.
        let (target, query) = match &plan {
            LogicalPlan::Update { input, .. }
            | LogicalPlan::Delete { input, .. }
            | LogicalPlan::Insert { input, .. } => (Some(input.as_ref()), false),
            LogicalPlan::Begin
            | LogicalPlan::Commit
            | LogicalPlan::Rollback
            | LogicalPlan::Checkpoint
            | LogicalPlan::Pragma { .. }
            | LogicalPlan::Explain { .. }
            | LogicalPlan::ShowTables
            | LogicalPlan::CopyFrom { .. }
            | LogicalPlan::CopyTo { .. }
            | LogicalPlan::CreateTable { .. }
            | LogicalPlan::DropTable { .. }
            | LogicalPlan::CreateView { .. }
            | LogicalPlan::DropView { .. } => (None, false),
            query => (Some(query), true),
        };
        let mut lower = 0;
        if let Some(target) = target {
            let txn = Arc::new(self.db.txn_manager().begin());
            let db = Arc::clone(&self.db);
            let ctx = PlanCtx::root(&db);
            let s = self.open("core.lower", parent, op);
            // A SELECT that `lower_parallel` declines is lowered serially
            // inside the cursor, and that lowering already builds eligible
            // hash-join build sides: execution, so it is left to the
            // cursor's time (`exec.self_ms`) rather than timed here.
            let parallel = if query {
                planner::lower_parallel(&ctx, &txn, target).map_err(err)?.is_some()
            } else {
                planner::lower(&ctx, &txn, target).map(|_| false).map_err(err)?
            };
            lower = self.close(s);
            if let Ok(txn) = Arc::try_unwrap(txn) {
                txn.rollback().map_err(err)?;
            }
            self.samples.push("core.lower_us", lower as f64 / 1e3);
            if query {
                self.lowered_queries += 1;
                self.parallel_queries += u64::from(parallel);
            }
        }
        Ok(Frontend { total_ns: parse + bind + optimize + lower })
    }

    /// Run a statement that returns no rows to the host (DDL, DML,
    /// transaction control); returns the affected-row count.
    pub fn execute(&mut self, parent: SpanId, op: u64, sql: &str) -> Result<u64, String> {
        let stmt = self.open("stmt.execute", parent, op);
        let out = self.frontend(stmt, op, sql).and_then(|_| {
            let s = self.open("core.execute", stmt, op);
            let n = self.conn.execute(sql).map_err(err);
            self.close(s);
            n
        });
        self.close(stmt);
        out
    }

    /// Run a SELECT and deliver its result to the host.
    pub fn read(&mut self, parent: SpanId, op: u64, sql: &str) -> Result<Delivered, String> {
        let stmt = self.open("stmt.read", parent, op);
        let arrow = self.arrow_every > 0 && self.reads % self.arrow_every == self.arrow_every - 1;
        self.reads += 1;
        let out = self.frontend(stmt, op, sql).and_then(|front| {
            if arrow {
                self.via_arrow(stmt, op, sql)
            } else {
                self.via_wire(stmt, op, sql, front)
            }
        });
        self.close(stmt);
        out
    }

    fn via_wire(
        &mut self,
        stmt: SpanId,
        op: u64,
        sql: &str,
        front: Frontend,
    ) -> Result<Delivered, String> {
        let s = self.open("core.first_chunk", stmt, op);
        let first = self.conn.query_stream(sql).and_then(|mut c| Ok((c.next_chunk()?, c)));
        let first_ns = self.close(s);
        let (mut next, mut cursor) = first.map_err(err)?;
        let s = self.open("client.wire_encode", stmt, op);
        let mut writer = ChunkWriter::new(Vec::new());
        let header = writer.write_header(cursor.column_names(), cursor.column_types());
        let mut encode_ns = self.close(s);
        header.map_err(err)?;
        let mut drain_ns = 0;
        while let Some(chunk) = next {
            let s = self.open("client.wire_encode", stmt, op);
            let written = writer.write_chunk(&chunk);
            encode_ns += self.close(s);
            written.map_err(err)?;
            let s = self.open("core.drain", stmt, op);
            let pulled = cursor.next_chunk();
            drain_ns += self.close(s);
            next = pulled.map_err(err)?;
        }
        drop(cursor);
        let s = self.open("client.wire_encode", stmt, op);
        let finished = writer.finish();
        encode_ns += self.close(s);
        finished.map_err(err)?;
        let buf = writer.into_inner();
        let s = self.open("client.wire_decode", stmt, op);
        let decoded = ChunkReader::new(&buf[..]).read_result();
        let decode_ns = self.close(s);
        let result = decoded.map_err(err)?;
        self.transfer.wire_bytes += buf.len() as u64;
        self.transfer.wire_rows += result.rows;
        if self.traced() {
            let ms = |ns: u64| ns as f64 / 1e6;
            self.samples.push("core.first_chunk_ms", ms(first_ns));
            self.samples.push("core.drain_ms", ms(drain_ns));
            self.samples.push("client.wire_encode_ms", ms(encode_ns));
            self.samples.push("client.wire_decode_ms", ms(decode_ns));
            // The cursor re-runs the frontend inside `query_stream`; the
            // executor's share is the cursor time minus the frontend's.
            let exec_ns = (first_ns + drain_ns).saturating_sub(front.total_ns);
            self.samples.push("exec.self_ms", ms(exec_ns));
        }
        Ok(Delivered { chunks: result.chunks, rows: result.rows })
    }

    fn via_arrow(&mut self, stmt: SpanId, op: u64, sql: &str) -> Result<Delivered, String> {
        let (cursor, _) = self.span("core.query_stream", stmt, op, |h| h.conn.query_stream(sql));
        let cursor = cursor.map_err(err)?;
        let mut buf = Vec::new();
        let (exported, export_ms) =
            self.span("etl.arrow_export", stmt, op, |_| cursor.export_arrow_ipc(&mut buf));
        let rows = exported.map_err(err)?;
        let (decoded, _) = self.span("host.arrow_decode", stmt, op, |_| arrow_read::decode(&buf));
        let (_, chunks) = decoded?;
        let decoded_rows: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        if decoded_rows != rows {
            return Err(format!("arrow export wrote {rows} rows, host decoded {decoded_rows}"));
        }
        self.transfer.arrow_bytes += buf.len() as u64;
        self.transfer.arrow_rows += rows;
        if self.traced() {
            self.samples.push("etl.arrow_export_ms", export_ms);
        }
        Ok(Delivered { chunks, rows })
    }
}
