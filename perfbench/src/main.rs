//! `perfbench`: run one workload and print its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_star --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it is the run's
//! detail. With `--trace 1` the spans are also written to
//! `<out>/<workload>-<seed>.spans.jsonl`. The exit code is 1 when any
//! result disagrees with its oracle, 2 on a usage error or a failed run.

use eider_perfbench::{report, run, stats, Config, Kind, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <olap_star|result_transfer|etl_dashboard> \
    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        kind: Kind::OlapStar,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        setup_reps: 15,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut kind = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.kind = kind.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The engine writes spill files to the system temp directory; keep
    // them inside the run's own directory, which `run` creates.
    std::env::set_var("TMPDIR", &cfg.out_dir);
    let calibration_before_ms = stats::calibration_ms();
    let ticks_before = stats::CpuTicks::now();
    let measured = match run(&cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{} failed: {e}", cfg.kind.name());
            return ExitCode::from(2);
        }
    };
    let host = report::HostFacts {
        calibration_before_ms,
        calibration_after_ms: stats::calibration_ms(),
        // Metadata only: a host without `/proc/stat` reports null.
        steal_share: match (ticks_before, stats::CpuTicks::now()) {
            (Ok(before), Ok(after)) => after.steal_share_since(&before),
            _ => f64::NAN,
        },
        peak_rss_mb: match stats::peak_rss_mb() {
            Ok(mb) => mb,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
    };
    if let Some(traced) = &measured.traced {
        let path = cfg.out_dir.join(format!("{}-{}.spans.jsonl", cfg.kind.name(), cfg.seed));
        if let Err(e) = traced.tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let r = match report::build(&cfg, &measured, &host) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", r.detail);
    println!("{}", report::result_line(&r));
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
