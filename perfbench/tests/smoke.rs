//! The benchmark's own smoke test: every workload at tiny sizes, in a few
//! seconds. It checks that the oracles pass, that the printed metric names
//! are the ones `BENCHMARK.json` declares, and that a seed generates
//! byte-identical inputs.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use eider_perfbench::{etl_dashboard, olap_star, report, run, stats, Config, Kind, Scale};
use eider_storage::serde::{write_chunk, BinWriter};
use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `name`s listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list closes")];
    list.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn tiny(kind: Kind, trace: bool) -> report::Report {
    sized(kind, trace, Scale::Tiny)
}

fn sized(kind: Kind, trace: bool, scale: Scale) -> report::Report {
    let cfg = Config {
        kind,
        seed: 7,
        seconds: 0.2,
        trace,
        scale,
        setup_reps: 1,
        out_dir: manifest_dir().join("out").join(format!("smoke-{}-{trace}", kind.name())),
    };
    let measured = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let host = report::HostFacts {
        calibration_before_ms: 1.0,
        calibration_after_ms: 1.0,
        steal_share: 0.0,
        peak_rss_mb: stats::peak_rss_mb().expect("VmHWM"),
    };
    let r = report::build(&cfg, &measured, &host).expect("report");
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    r
}

/// Every workload at tiny sizes. The tiny `etl_dashboard` table fits one
/// row group, so its pass here does not cover the engine defect that fails
/// the full-size workload; `etl_dashboard_at_full_size_passes_its_oracle`
/// does.
#[test]
fn every_workload_passes_its_oracle_and_prints_the_declared_metrics() {
    let workloads = declared("workloads");
    assert!(!workloads.is_empty());
    for w in &workloads {
        assert!(Kind::parse(w).is_some(), "BENCHMARK.json names unknown workload {w}");
    }
    for kind in Kind::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = tiny(kind, trace);
            assert!(r.correct, "{} trace={trace}: {}", kind.name(), r.detail);
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
            let printed: Vec<String> = r.metrics.iter().map(|(n, _, _)| n.to_string()).collect();
            assert_eq!(printed, declared(key), "{} trace={trace}", kind.name());
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()));
            let line = report::result_line(&r);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

/// At full size the table spans several row groups, and a filtered
/// point lookup whose zone map prunes the first one ends its result stream
/// early (`result stream ended before every batch arrived`), so the
/// benchmark reports this workload as failing. Run it with `--ignored`
/// once the engine is fixed, then add the workload to `BENCHMARK.json`.
#[test]
#[ignore = "fails on this engine: a pruned first row group ends the parallel result stream early"]
fn etl_dashboard_at_full_size_passes_its_oracle() {
    let r = sized(Kind::EtlDashboard, false, Scale::Full);
    assert!(r.correct, "{}", r.detail);
}

fn star_bytes(seed: u64) -> Vec<u8> {
    let input = olap_star::generate(seed, 5_000, 300).expect("inputs");
    let mut w = BinWriter::new();
    for chunk in input.orders.iter().chain(&input.customers).chain(&input.buckets) {
        write_chunk(&mut w, chunk);
    }
    w.into_bytes()
}

#[test]
fn a_seed_generates_byte_identical_inputs() {
    assert_eq!(star_bytes(3), star_bytes(3));
    assert_ne!(star_bytes(3), star_bytes(4));
    let csv = |seed| etl_dashboard::input_csv(seed, 5_000).expect("csv");
    assert_eq!(csv(3), csv(3));
    assert_ne!(csv(3), csv(4));
}
