//! Turning a run's measurements into the printed metrics.
//!
//! The last line of a run is the gated result: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with tracing the
//! per-layer ones). The line before it is the run's detail: metadata, the
//! tail percentile, workload-specific metrics, every layer sample, self
//! time per span and the tracing overhead. Neither line is gated on its
//! detail.

use crate::stats::{median, percentile, Percentile};
use crate::{Config, Measured};
use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (untraced run), reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_mem_mb", "MiB"),
];

/// Per-layer metrics (traced run), reported by every workload. Layer
/// metrics that only some workloads have are in the detail line.
pub const PER_LAYER: [(&str, &str); 12] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.optimize_us", "us"),
    ("core.lower_us", "us"),
    ("core.parallel_share", "share"),
    ("core.first_chunk_ms", "ms"),
    ("core.drain_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("client.wire_encode_ms", "ms"),
    ("client.wire_decode_ms", "ms"),
    ("client.wire_bytes_per_row", "B"),
    ("storage.buffer_peak_mb", "MiB"),
];

/// The latency percentile every workload reports as its tail. Fixed, so
/// runs compare like with like; at this benchmark's sizes and run length a
/// run has several hundred operations for each trial's ten samples beyond
/// it (a smaller run reports a lower percentile).
pub const TAIL_PERCENTILE: f64 = 95.0;

/// Host facts measured around the workload, outside `Measured`.
pub struct HostFacts {
    pub calibration_before_ms: f64,
    pub calibration_after_ms: f64,
    /// Share of the host's CPU time the hypervisor stole during the run.
    pub steal_share: f64,
    pub peak_rss_mb: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The detail line (a JSON object).
    pub detail: String,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_obj<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", string(n), num(v), string(u))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn obj(fields: &[(&str, String)]) -> String {
    let f: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", f.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &Report) -> String {
    obj(&[
        ("correct", r.correct.to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        ("metrics", metric_obj(r.metrics.iter().map(|&(n, v, u)| (n, v, u)))),
    ])
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else {
        "count"
    }
}

pub fn build(cfg: &Config, m: &Measured, host: &HostFacts) -> Result<Report, String> {
    let phase = &m.phase;
    let p50 = percentile(&phase.op_ms, 50.0);
    let t = percentile(&phase.op_ms, TAIL_PERCENTILE);
    let end_to_end = [
        median(&m.setup_s),
        phase.throughput(),
        phase.rows_per_s(),
        p50.value,
        t.value,
        host.peak_rss_mb,
    ];

    let mut attempted = phase.attempted + m.checks.attempted;
    let mut failed = phase.failed + m.checks.failed;
    let mut failures: Vec<String> =
        m.checks.failures.iter().chain(&phase.failures).cloned().collect();

    // Workload-specific metrics: medians over set-up repetitions.
    let mut extras: BTreeMap<String, (Vec<f64>, &str)> = BTreeMap::new();
    for e in &m.extras {
        extras.entry(e.name.clone()).or_insert_with(|| (Vec::new(), e.unit)).0.push(e.value);
    }
    let mut workload_metrics: Vec<(String, f64, &str)> =
        extras.iter().map(|(n, (v, u))| (n.clone(), median(v), *u)).collect();
    workload_metrics.push((
        "failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
        "share",
    ));

    let mut detail: Vec<(&str, String)> = vec![("workload", string(cfg.kind.name()))];
    let sizes: Vec<(&str, String)> = m.sizes.iter().map(|(k, v)| (*k, v.to_string())).collect();
    detail.push((
        "meta",
        obj(&[
            ("seed", cfg.seed.to_string()),
            ("seconds", num(cfg.seconds)),
            ("host_cpus", crate::host_cpus().to_string()),
            ("threads", crate::pinned_threads().to_string()),
            ("calibration_before_ms", num(host.calibration_before_ms)),
            ("calibration_after_ms", num(host.calibration_after_ms)),
            ("host_steal_share", num(host.steal_share)),
            ("setup_reps", m.setup_s.len().to_string()),
            (
                "setup_each_s",
                format!("[{}]", m.setup_s.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", ")),
            ),
            ("sizes", obj(&sizes)),
        ]),
    ));
    let trials = |p: &Percentile| {
        obj(&[
            ("percentile", num(p.percentile)),
            ("samples", p.samples.to_string()),
            ("trials", p.trials.to_string()),
            ("beyond", p.beyond.to_string()),
        ])
    };
    detail.push(("latency_p50", trials(&p50)));
    detail.push(("latency_tail", trials(&t)));

    let metrics: Vec<(&'static str, f64, &'static str)> = match &m.traced {
        None => END_TO_END.iter().zip(end_to_end).map(|(&(n, u), v)| (n, v, u)).collect(),
        Some(tr) => {
            attempted += tr.phase.attempted;
            failed += tr.phase.failed;
            failures.extend(tr.phase.failures.iter().cloned());
            let s = &tr.samples;
            let get = |name: &str| s.median(name).unwrap_or(f64::NAN);
            let wire = tr.transfer;
            let values = [
                get("sql.parse_us"),
                get("sql.bind_us"),
                get("sql.optimize_us"),
                get("core.lower_us"),
                tr.parallel_queries as f64 / tr.lowered_queries.max(1) as f64,
                get("core.first_chunk_ms"),
                get("core.drain_ms"),
                get("exec.self_ms"),
                get("client.wire_encode_ms"),
                get("client.wire_decode_ms"),
                wire.wire_bytes as f64 / wire.wire_rows.max(1) as f64,
                m.buffer_peak_bytes as f64 / (1u64 << 20) as f64,
            ];
            let gated: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            for (name, v) in &s.values {
                if !gated.contains(&name.as_str()) {
                    workload_metrics.push((name.clone(), median(v), unit_of(name)));
                }
            }
            // Tracing overhead: the traced phase against the untraced one.
            let tp = &tr.phase;
            let traced_tput = tp.throughput();
            let traced_p50 = percentile(&tp.op_ms, 50.0).value;
            detail.push((
                "tracing_overhead",
                obj(&[
                    ("untraced_throughput_per_s", num(end_to_end[1])),
                    ("traced_throughput_per_s", num(traced_tput)),
                    ("untraced_latency_p50_ms", num(end_to_end[3])),
                    ("traced_latency_p50_ms", num(traced_p50)),
                    ("latency_p50_share", num(traced_p50 / end_to_end[3] - 1.0)),
                ]),
            ));
            let self_times: Vec<(&str, String)> = tr
                .tracer
                .self_times()
                .into_iter()
                .map(|(name, st)| {
                    (
                        name,
                        obj(&[
                            ("count", st.count.to_string()),
                            ("total_ms", num(st.total_ns as f64 / 1e6)),
                            ("self_ms", num(st.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect();
            detail.push(("span_self_time", obj(&self_times)));
            PER_LAYER.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
        }
    };
    detail.push((
        "workload_metrics",
        metric_obj(workload_metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
    ));
    let failures: Vec<String> = failures.iter().map(|f| string(f)).collect();
    detail.push(("failures", format!("[{}]", failures.join(", "))));

    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} was not measured"));
    }
    Ok(Report { correct: failed == 0, attempted, failed, metrics, detail: obj(&detail) })
}
