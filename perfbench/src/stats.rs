//! Sample statistics, the host calibration kernel and process memory.

use std::hint::black_box;
use std::time::Instant;

/// Median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile of a latency sample: the `preferred` percentile, or the
/// highest lower step of a fixed ladder, that still has at least
/// [`BEYOND`] samples above it, taken as the median of repeated trials.
/// The samples, in the order they were taken, are cut into as many equal
/// windows as keep [`BEYOND`] samples beyond the percentile in each; the
/// value is the median of the windows' percentiles, so one slow stretch
/// of the host moves one trial, not the metric.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub trials: usize,
    /// Samples beyond the percentile in each trial (at least).
    pub beyond: usize,
}

pub const BEYOND: usize = 10;
const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

fn percentile_of(window: &[f64], p: f64) -> f64 {
    let mut v = window.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

pub fn percentile(samples: &[f64], preferred: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile { percentile: 50.0, value: 0.0, samples: 0, trials: 0, beyond: 0 };
    }
    let beyond = |w: usize, p: f64| w - rank(w, p);
    // Tiny samples (smoke runs) support no ladder step: fall back to p50.
    let percentile = std::iter::once(preferred)
        .chain(LADDER.iter().copied().filter(|&p| p < preferred))
        .find(|&p| beyond(n, p) >= BEYOND)
        .unwrap_or(50.0);
    let min_window = (1..=n).find(|&w| beyond(w, percentile) >= BEYOND).unwrap_or(n);
    let trials = n / min_window;
    let per = n / trials;
    let values: Vec<f64> = (0..trials)
        .map(|t| {
            let end = if t + 1 == trials { n } else { (t + 1) * per };
            percentile_of(&samples[t * per..end], percentile)
        })
        .collect();
    Percentile {
        percentile,
        value: median(&values),
        samples: n,
        trials,
        beyond: beyond(per, percentile),
    }
}

/// The fixed calibration kernel: an integer xorshift spin whose time
/// depends only on the core it runs on. Reported (never gated) before and
/// after each workload, it keys a run to its host class and shows drift
/// of the host between runs. Median of five trials, in milliseconds.
pub fn calibration_ms() -> f64 {
    const ITERS: u64 = 40_000_000;
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..black_box(ITERS) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&trials)
}

/// The host's CPU time counters from `/proc/stat`, in ticks: time stolen
/// by the hypervisor for other guests, and all time. The steal share over
/// a run is the host-load figure that tracks this benchmark's drift on a
/// shared VM, where the calibration kernel above barely moves.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    pub fn now() -> Result<CpuTicks, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or("no cpu line in /proc/stat")?
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().map_err(|_| format!("unparsable /proc/stat field {v:?}")))
            .collect::<Result<_, _>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user and nice.
        let steal = *fields.get(7).ok_or("no steal field in /proc/stat")?;
        Ok(CpuTicks { steal, total: fields.iter().take(8).sum() })
    }

    /// Share of all CPU time since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = percentile(&v, 99.9);
        assert_eq!((t.percentile, t.trials, t.value, t.beyond), (99.0, 1, 990.0, 10));
        let t = percentile(&v[..400], 99.0);
        assert_eq!((t.percentile, t.trials, t.beyond), (95.0, 2, 10));
        // The windows 1..=200 and 201..=400 have p95 190 and 390.
        assert_eq!(t.value, 290.0);
    }

    #[test]
    fn tail_is_the_median_of_windowed_trials() {
        // A slow stretch fills the first of five 200-sample windows.
        let v: Vec<f64> = (0..1000).map(|i| if i < 200 { 100.0 } else { 1.0 }).collect();
        let t = percentile(&v, 95.0);
        assert_eq!((t.trials, t.value), (5, 1.0));
        // The median takes windows of 20, ten samples beyond it.
        let t = percentile(&v, 50.0);
        assert_eq!((t.trials, t.beyond, t.value), (50, 10, 1.0));
    }
}
