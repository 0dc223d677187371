//! `etl_dashboard`: the §2 wrangling and dashboard mix on a persistent
//! database, the only workload that writes.
//!
//! Set-up writes the wrangling table (25% `-999` sentinels) to a CSV file
//! and loads it with `COPY ... FROM`. One operation is one cycle of a fixed
//! script: four autocommit single-row UPDATEs (each a WAL commit with
//! fsync), four point lookups, one transaction that nulls the sentinels
//! and deletes the outliers of a fresh id range, and a whole-table
//! aggregate; every tenth cycle ends with a checkpoint. A model of every
//! acknowledged write checks each read, and after the timed phases the
//! database is abandoned without closing (a crash), reopened from its files
//! and compared with the model row by row.

use crate::host::Host;
use crate::trace::SpanId;
use crate::{close_enough, extra, ms_since, Config, Measured, Phase, Scale, Workload};
use eider_core::{Database, Value};
use eider_vector::VectorData;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cycles per round; the last cycle of a round checkpoints.
pub const CHECKPOINT_EVERY: u64 = 10;
const POINT_WRITES: usize = 4;
const POINT_READS: usize = 4;
/// Bulk ranges advance by `rows / RANGES` ids per cycle, so each cycle
/// cleans a range no earlier cycle touched (until the ids wrap around).
const RANGES: usize = 2_000;

const SCAN: &str = "SELECT count(*), count(d), sum(d), sum(v) FROM t";

pub fn rows(scale: Scale) -> usize {
    match scale {
        Scale::Full => 200_000,
        Scale::Tiny => 10_000,
    }
}

/// The input table as CSV text `id,d,v` with a header line.
pub fn input_csv(seed: u64, rows: usize) -> Result<String, String> {
    let chunks = eider_workload::Workload::new(seed)
        .wrangling_chunks(rows, 0.25)
        .map_err(|e| e.to_string())?;
    let mut csv = String::from("id,d,v\n");
    for chunk in &chunks {
        let (VectorData::I32(id), VectorData::I32(d), VectorData::F64(v)) =
            (chunk.column(0).data(), chunk.column(1).data(), chunk.column(2).data())
        else {
            unreachable!("wrangling columns are INTEGER, INTEGER, DOUBLE")
        };
        for i in 0..chunk.len() {
            // `{}` prints the shortest text that parses back to the same
            // double, so the database holds exactly the model's values.
            csv.push_str(&format!("{},{},{}\n", id[i], d[i], v[i]));
        }
    }
    Ok(csv)
}

/// Every acknowledged write, applied to a plain-Rust copy of the table.
#[derive(Clone)]
pub struct Model {
    pub d: Vec<Option<i32>>,
    pub v: Vec<f64>,
    pub alive: Vec<bool>,
}

impl Model {
    pub fn parse(csv: &str) -> Model {
        let mut m = Model { d: Vec::new(), v: Vec::new(), alive: Vec::new() };
        for line in csv.lines().skip(1) {
            let mut f = line.split(',');
            let _id = f.next();
            m.d.push(f.next().and_then(|d| d.parse().ok()));
            m.v.push(f.next().and_then(|v| v.parse().ok()).unwrap_or(f64::NAN));
            m.alive.push(true);
        }
        m
    }

    fn lookup(&self, id: usize) -> Vec<Vec<Value>> {
        if !self.alive[id] {
            return Vec::new();
        }
        let d = self.d[id].map_or(Value::Null, Value::Integer);
        vec![vec![Value::Integer(id as i32), d, Value::Double(self.v[id])]]
    }

    /// `count(*), count(d), sum(d), sum(v)` over the live rows.
    fn scan(&self) -> (i64, i64, i64, f64) {
        let mut out = (0, 0, 0, 0.0);
        for id in (0..self.alive.len()).filter(|&i| self.alive[i]) {
            out.0 += 1;
            if let Some(d) = self.d[id] {
                out.1 += 1;
                out.2 += i64::from(d);
            }
            out.3 += self.v[id];
        }
        out
    }

    fn range(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        (lo..hi.min(self.alive.len())).filter(|&i| self.alive[i])
    }
}

struct Etl {
    model: Model,
    rng: StdRng,
    width: usize,
    /// WAL bytes and rows of writes not split by a checkpoint.
    wal_bytes: u64,
    wal_rows: u64,
}

fn err(e: eider_core::EiderError) -> String {
    e.to_string()
}

impl Etl {
    /// One write statement group: runs `f`, then credits its WAL growth
    /// to the `rows` it modified (skipped if a checkpoint reset the WAL).
    fn logged<T>(&mut self, host: &mut Host, rows: u64, f: impl FnOnce(&mut Host) -> T) -> T {
        let before = host.db.wal_size();
        let out = f(host);
        let after = host.db.wal_size();
        if after >= before && rows > 0 {
            self.wal_bytes += after - before;
            self.wal_rows += rows;
        }
        out
    }

    fn point_write(
        &mut self,
        host: &mut Host,
        span: SpanId,
        op: u64,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let id = self.rng.gen_range(0..self.model.alive.len());
        let v = f64::from(self.rng.gen_range(0..8_000u32)) / 8.0;
        let sql = format!("UPDATE t SET v = {v:?} WHERE id = {id}");
        let want = u64::from(self.model.alive[id]);
        let t = Instant::now();
        let n = self.logged(host, want, |h| h.execute(span, op, &sql))?;
        let ms = ms_since(t);
        phase.write_ms.push(ms);
        host.samples.push("txn.point_update_ms", ms);
        if n != want {
            return Err(format!("{sql}: {n} rows updated, model has {want}"));
        }
        if want == 1 {
            self.model.v[id] = v;
        }
        Ok(())
    }

    fn point_read(
        &mut self,
        host: &mut Host,
        span: SpanId,
        op: u64,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let id = self.rng.gen_range(0..self.model.alive.len());
        let sql = format!("SELECT id, d, v FROM t WHERE id = {id}");
        let t = Instant::now();
        let got = host.read(span, op, &sql)?;
        phase.read_ms.push(ms_since(t));
        phase.rows += got.rows;
        let want = self.model.lookup(id);
        if got.to_rows() != want {
            return Err(format!("{sql}: got {:?}, model {want:?}", got.to_rows()));
        }
        Ok(())
    }

    /// The wrangling transaction over ids `[lo, hi)`.
    fn bulk(
        &mut self,
        host: &mut Host,
        span: SpanId,
        op: u64,
        lo: usize,
        hi: usize,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let sentinels: Vec<usize> =
            self.model.range(lo, hi).filter(|&i| self.model.d[i] == Some(-999)).collect();
        let outliers: Vec<usize> =
            self.model.range(lo, hi).filter(|&i| self.model.v[i] > 990.0).collect();
        let update = format!("UPDATE t SET d = NULL WHERE d = -999 AND id >= {lo} AND id < {hi}");
        let delete = format!("DELETE FROM t WHERE v > 990.0 AND id >= {lo} AND id < {hi}");
        let rows = (sentinels.len() + outliers.len()) as u64;
        let t = Instant::now();
        let counts = self.logged(host, rows, |h| -> Result<(u64, u64), String> {
            h.execute(span, op, "BEGIN")?;
            let s = Instant::now();
            let updated = h.execute(span, op, &update)?;
            h.samples.push("txn.bulk_update_ms", ms_since(s));
            let s = Instant::now();
            let deleted = h.execute(span, op, &delete)?;
            h.samples.push("txn.bulk_delete_ms", ms_since(s));
            let s = Instant::now();
            h.execute(span, op, "COMMIT")?;
            h.samples.push("storage.commit_ms", ms_since(s));
            Ok((updated, deleted))
        });
        phase.write_ms.push(ms_since(t));
        let (updated, deleted) = match counts {
            Ok(c) => c,
            Err(e) => {
                // Leave no transaction open for the next cycle.
                if host.conn.in_transaction() {
                    let _ = host.conn.execute("ROLLBACK");
                }
                return Err(e);
            }
        };
        if (updated, deleted) != (sentinels.len() as u64, outliers.len() as u64) {
            return Err(format!(
                "ids {lo}..{hi}: {updated} nulled, {deleted} deleted; model has {}, {}",
                sentinels.len(),
                outliers.len()
            ));
        }
        for i in sentinels {
            self.model.d[i] = None;
        }
        for i in outliers {
            self.model.alive[i] = false;
        }
        Ok(())
    }

    fn scan(
        &mut self,
        host: &mut Host,
        span: SpanId,
        op: u64,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let t = Instant::now();
        let got = host.read(span, op, SCAN)?;
        phase.read_ms.push(ms_since(t));
        phase.rows += got.rows;
        let (n, nd, sd, sv) = self.model.scan();
        let row = got.to_rows();
        let ok = match row.as_slice() {
            [r] if r.len() == 4 => {
                r[0].as_i64() == Some(n)
                    && r[1].as_i64() == Some(nd)
                    && r[2].as_i64() == Some(sd)
                    && r[3].as_f64().is_some_and(|v| close_enough(v, sv))
            }
            _ => false,
        };
        if !ok {
            return Err(format!("scan: got {row:?}, model ({n}, {nd}, {sd}, {sv})"));
        }
        Ok(())
    }
}

impl Workload for Etl {
    fn round(&self) -> u64 {
        CHECKPOINT_EVERY
    }

    fn op(
        &mut self,
        host: &mut Host,
        op: u64,
        span: SpanId,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let rows = self.model.alive.len();
        let lo = (op as usize * self.width) % rows;
        // Every statement runs even after a failure, so each cycle does
        // the same work; the first failure is reported.
        let mut first = Ok(());
        let mut keep = |r: Result<(), String>| {
            if first.is_ok() {
                first = r;
            }
        };
        for _ in 0..POINT_WRITES {
            keep(self.point_write(host, span, op, phase));
        }
        for _ in 0..POINT_READS {
            keep(self.point_read(host, span, op, phase));
        }
        keep(self.bulk(host, span, op, lo, lo + self.width, phase));
        keep(self.scan(host, span, op, phase));
        if op % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            let t = Instant::now();
            let (done, _) = host.span("storage.checkpoint", span, op, |h| h.db.checkpoint());
            host.samples.push("storage.checkpoint_ms", ms_since(t));
            keep(done.map_err(err));
        }
        first
    }
}

/// Removes the run's directory (database, WAL, input CSV) on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(path: &Path) -> Result<Host, String> {
    let db = Database::open(path).map_err(err)?;
    let mut host = Host::new(db, 0, false);
    host.execute(0, 0, &format!("PRAGMA threads = {}", crate::pinned_threads()))?;
    Ok(host)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn setup(
    csv: &Path,
    db_path: &Path,
    w: &mut Etl,
    model: &Model,
    m: &mut Measured,
    next_op: &mut u64,
) -> Result<Host, String> {
    for p in [db_path.to_path_buf(), db_path.with_extension("db.wal")] {
        if p.exists() {
            std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        }
    }
    w.model = model.clone();
    let start = Instant::now();
    let mut host = open(db_path)?;
    host.execute(0, 0, "CREATE TABLE t (id INTEGER, d INTEGER, v DOUBLE)")?;
    let copy = Instant::now();
    let loaded = host.execute(0, 0, &format!("COPY t FROM '{}' (HEADER)", csv.display()))?;
    let copy_s = copy.elapsed().as_secs_f64();
    if loaded as usize != model.alive.len() {
        return Err(format!("COPY loaded {loaded} rows of {}", model.alive.len()));
    }
    crate::run_round(w, &mut host, next_op, &mut m.checks);
    m.setup_s.push(start.elapsed().as_secs_f64());
    m.extras.push(extra("etl.csv_copy_rows_per_s", loaded as f64 / copy_s, "1/s"));
    Ok(host)
}

/// Compare the whole reopened table with the model.
fn verify(host: &Host, model: &Model) -> Result<(), String> {
    let result = host.conn.query("SELECT id, d, v FROM t").map_err(err)?;
    let mut seen = vec![false; model.alive.len()];
    for chunk in result.chunks() {
        let (VectorData::I32(id), VectorData::I32(d), VectorData::F64(v)) =
            (chunk.column(0).data(), chunk.column(1).data(), chunk.column(2).data())
        else {
            return Err("reopened table has unexpected column types".into());
        };
        let dv = chunk.column(1).validity();
        for i in 0..chunk.len() {
            let r = id[i] as usize;
            let d = dv.is_valid(i).then_some(d[i]);
            if r >= seen.len() || seen[r] || !model.alive[r] {
                return Err(format!("reopened table has unexpected row id {r}"));
            }
            seen[r] = true;
            if d != model.d[r] || v[i].to_bits() != model.v[r].to_bits() {
                return Err(format!(
                    "row {r}: ({d:?}, {}) after reopen, model ({:?}, {})",
                    v[i], model.d[r], model.v[r]
                ));
            }
        }
    }
    match (0..seen.len()).find(|&r| model.alive[r] && !seen[r]) {
        Some(r) => Err(format!("acknowledged row {r} missing after reopen")),
        None => Ok(()),
    }
}

pub fn run(cfg: &Config) -> Result<Measured, String> {
    let n = rows(cfg.scale);
    let dir = cfg.out_dir.join(format!("etl-{}-{}", cfg.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = TempDir(dir);
    let csv_text = input_csv(cfg.seed, n)?;
    let csv = dir.0.join("input.csv");
    std::fs::write(&csv, &csv_text).map_err(|e| format!("{}: {e}", csv.display()))?;
    let model = Model::parse(&csv_text);
    let db_path = dir.0.join("etl.db");
    let mut w = Etl {
        model: model.clone(),
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED_E71D),
        width: (n / RANGES).max(1),
        wal_bytes: 0,
        wal_rows: 0,
    };
    let mut m = Measured {
        sizes: vec![("rows", n as u64), ("csv_bytes", csv_text.len() as u64)],
        ..Measured::default()
    };
    let mut next_op = 0;
    let mut host = crate::measure(cfg, &mut w, &mut m, &mut next_op, |w, m, op| {
        setup(&csv, &db_path, w, &model, m, op)
    })?;

    // Space after the final checkpoint, then one more round of writes that
    // only the WAL holds when the process "crashes".
    host.db.checkpoint().map_err(err)?;
    let db_bytes = file_len(&db_path);
    let blocks = host.db.block_count();
    let mut after = Phase::default();
    crate::run_round(&mut w, &mut host, &mut next_op, &mut after);
    m.checks.absorb(after);
    // A crash: no close, no checkpoint; only what was flushed survives.
    std::mem::forget(host);
    let t = Instant::now();
    let reopened = open(&db_path);
    let reopen_s = t.elapsed().as_secs_f64();
    let durable = reopened.and_then(|h| verify(&h, &w.model));
    m.checks.check(durable.map_err(|e| format!("durability: {e}")));

    m.extras.extend([
        extra("write_p50_ms", crate::stats::median(&m.phase.write_ms), "ms"),
        extra("read_p50_ms", crate::stats::median(&m.phase.read_ms), "ms"),
        extra("db_bytes_per_input_byte", db_bytes as f64 / csv_text.len() as f64, "B/B"),
        extra("storage.block_count", blocks as f64, "count"),
        extra("core.reopen_s", reopen_s, "s"),
    ]);
    if w.wal_rows > 0 {
        m.extras.push(extra(
            "storage.wal_bytes_per_modified_row",
            w.wal_bytes as f64 / w.wal_rows as f64,
            "B",
        ));
    }
    Ok(m)
}
