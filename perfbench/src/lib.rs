//! End-to-end and per-layer benchmark of eider's embedding API.
//!
//! Three seeded, single-process, closed-loop workloads run through the
//! public API (`Database`, `Connection`, `ResultCursor`, `Appender`,
//! `eider_client::wire`), each checked against an oracle computed in
//! plain Rust from the generated inputs:
//!
//! * [`olap_star`]: scan/join/aggregate queries over an in-memory star
//!   schema (the paper's §2 analytics);
//! * [`result_transfer`]: half-table results streamed to the host under a
//!   memory limit below one result (§5);
//! * [`etl_dashboard`]: wrangling updates, point reads and checkpoints on a
//!   persistent database, with a durability check on reopen (§2, §3).
//!
//! See `perfbench/README.md` for the metrics and what each should move.

pub mod arrow_read;
pub mod etl_dashboard;
pub mod host;
pub mod olap_star;
pub mod report;
pub mod result_transfer;
pub mod stats;
pub mod trace;

use host::Host;
use std::path::PathBuf;
use std::time::Instant;
use trace::SpanId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OlapStar,
    ResultTransfer,
    EtlDashboard,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OlapStar, Kind::ResultTransfer, Kind::EtlDashboard];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OlapStar => "olap_star",
            Kind::ResultTransfer => "result_transfer",
            Kind::EtlDashboard => "etl_dashboard",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Data sizes: the benchmark's own, or the smoke test's tiny ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Add a traced phase beside the untraced one and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Where the spans and the persistent database's files go.
    pub out_dir: PathBuf,
}

/// `PRAGMA threads` for every workload: `min(2, nproc)`, pinned so that
/// neither `EIDER_THREADS` nor the host's core count changes the fan-out.
pub fn pinned_threads() -> usize {
    host_cpus().min(2)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every operation.
    pub op_ms: Vec<f64>,
    /// Latency of every read and every write (`etl_dashboard` only).
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Result rows delivered to and consumed by the host.
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Duration of every whole round (the phase runs whole rounds).
    pub round_s: Vec<f64>,
    pub failures: Vec<String>,
}

impl Phase {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one checked operation; a failure counts toward `failed`.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Operations per second: a round's operations over the median round
    /// time, so a burst of host noise moves one round, not the metric.
    pub fn throughput(&self) -> f64 {
        let per_round = self.attempted as f64 / self.round_s.len().max(1) as f64;
        per_round / stats::median(&self.round_s)
    }

    /// Result rows delivered per second, at the throughput above.
    pub fn rows_per_s(&self) -> f64 {
        self.throughput() * self.rows as f64 / self.attempted.max(1) as f64
    }

    /// Append a later phase's operations to this one's.
    pub fn absorb(&mut self, other: Phase) {
        self.op_ms.extend(other.op_ms);
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.round_s.extend(other.round_s);
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// A workload's operations. An operation is one query (`olap_star`,
/// `result_transfer`) or one cycle (`etl_dashboard`); a round is the
/// shortest sequence that runs every statement of the workload.
pub trait Workload {
    fn round(&self) -> u64;

    /// Run operation `op` under span `span`, recording reads, writes and
    /// rows into `phase`; an error is a failed or mismatched operation.
    fn op(
        &mut self,
        host: &mut Host,
        op: u64,
        span: SpanId,
        phase: &mut Phase,
    ) -> Result<(), String>;
}

/// Closed loop: run whole rounds until `seconds` have passed.
pub fn run_phase(w: &mut dyn Workload, host: &mut Host, seconds: f64, next_op: &mut u64) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let round = Instant::now();
        run_round(w, host, next_op, &mut phase);
        phase.round_s.push(round.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase
}

/// One round of operations (also the set-up's warm-up pass).
pub fn run_round(w: &mut dyn Workload, host: &mut Host, next_op: &mut u64, phase: &mut Phase) {
    for _ in 0..w.round() {
        let op = *next_op;
        *next_op += 1;
        let span = host.open("op", 0, op);
        let t = Instant::now();
        let outcome = w.op(host, op, span, phase);
        phase.op_ms.push(ms_since(t));
        host.close(span);
        phase.check(outcome.map_err(|e| format!("op {op}: {e}")));
    }
}

/// A workload-specific metric, reported beside the gated ones.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn extra(name: impl Into<String>, value: f64, unit: &'static str) -> Extra {
    Extra { name: name.into(), value, unit }
}

/// Everything a workload run measured, before it is reported.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub phase: Phase,
    /// The traced phase (trace runs only).
    pub traced: Option<host::Traced>,
    /// Checked operations outside the timed phases (warm-up, durability).
    pub checks: Phase,
    /// Workload-specific end-to-end and layer metrics.
    pub extras: Vec<Extra>,
    pub sizes: Vec<(&'static str, u64)>,
    /// `BufferManager::peak_memory` over the timed phases, in bytes.
    pub buffer_peak_bytes: usize,
}

/// Run the configured workload.
pub fn run(cfg: &Config) -> Result<Measured, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    match cfg.kind {
        Kind::OlapStar => olap_star::run(cfg),
        Kind::ResultTransfer => result_transfer::run(cfg),
        Kind::EtlDashboard => etl_dashboard::run(cfg),
    }
}

/// Set up `cfg.setup_reps` times and spread the timed phase across the
/// set-ups: after each set-up, one equal slice of the timed phase runs on
/// the database it set up, so set-up and timed phase sample the same host
/// states, and every run measures for `cfg.seconds` in all. A trace run
/// gives each slice an untraced half and a traced half on the same
/// database. Fills `setup_s` (through `setup`), `phase`, `traced` and
/// `buffer_peak_bytes`, and returns the last set-up's host. `next_op`
/// numbers the operations.
pub fn measure<W: Workload>(
    cfg: &Config,
    w: &mut W,
    m: &mut Measured,
    next_op: &mut u64,
    mut setup: impl FnMut(&mut W, &mut Measured, &mut u64) -> Result<Host, String>,
) -> Result<Host, String> {
    let reps = cfg.setup_reps.max(1);
    let halves = if cfg.trace { 2.0 } else { 1.0 };
    let slice = cfg.seconds / halves / reps as f64;
    let mut host = None;
    for _ in 0..reps {
        drop(host.take());
        let mut h = setup(w, m, next_op)?;
        h.db.buffers().reset_peak();
        m.phase.absorb(run_phase(w, &mut h, slice, next_op));
        if cfg.trace {
            let mut traced = Host::new(std::sync::Arc::clone(&h.db), h.arrow_every, true);
            let mut phase = m.traced.take().map(|t| traced.resume(t)).unwrap_or_default();
            phase.absorb(run_phase(w, &mut traced, slice, next_op));
            m.traced = Some(traced.into_traced(phase));
        }
        m.buffer_peak_bytes = m.buffer_peak_bytes.max(h.db.buffers().peak_memory());
        host = Some(h);
    }
    Ok(host.expect("at least one set-up"))
}

/// Compare a float the engine computed with the oracle's: parallel
/// aggregation sums in another order, so allow a relative 1e-9.
pub fn close_enough(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}
