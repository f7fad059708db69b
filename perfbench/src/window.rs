//! Windowed measurement of the timed runs.
//!
//! The host runs at two speeds (other tenants share its cores): the
//! same network pair takes about 28 ms in its fast phase and about
//! 46 ms in its slow one, all of it user time, and the phases switch
//! every few seconds to minutes. Any statistic that sits between the
//! two phases — a run-wide median, a mean, the best window — lands in
//! whichever phase the run happened to favour, so it flips from run to
//! run. The slow phase holds most of the time and shows up in almost
//! every run. Each closed-loop run is therefore cut into windows of
//! about a second; every host metric is computed per window (the median
//! operation time, the window's rate) and the run reports its
//! slow-decile window: the p90 of the window times and the p10 of the
//! window rates. That value stays in the slow phase as long as the
//! slow phase holds more than a tenth of the run. The first window
//! warms caches and allocators and is left out. Set-up is timed
//! [`SETUPS`] times per window, each window keeps their median, and
//! `setup_s` is the p90 of those. Exact metrics need none of this.

use crate::report::Metrics;
use crate::stats::{median, percentile};
use std::time::Instant;

/// Target length of one window, seconds.
pub const WINDOW_S: f64 = 1.0;
/// Set-ups timed per window.
pub const SETUPS: usize = 3;

/// Set-up times and per-window operation times of one closed loop.
#[derive(Debug, Default)]
pub struct Loop {
    /// Per window, the median of its [`SETUPS`] set-ups, seconds.
    pub setups: Vec<f64>,
    /// Per window, the time of each operation, seconds.
    pub windows: Vec<Vec<f64>>,
}

/// Runs a closed loop for `seconds` (at least one window): each window
/// times [`SETUPS`] calls of `setup`, then times `op` on the last
/// result back to back for at least `min(WINDOW_S, seconds)` (at least
/// one operation).
pub fn closed_loop<S>(seconds: f64, mut setup: impl FnMut() -> S, mut op: impl FnMut(&S)) -> Loop {
    let window_s = WINDOW_S.min(seconds);
    let mut l = Loop::default();
    let t = Instant::now();
    while l.windows.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut state = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            state = Some(setup());
            setups.push(start.elapsed().as_secs_f64());
        }
        l.setups.push(median(&setups));
        let state = state.expect("at least one set-up");
        let mut times = Vec::new();
        let w = Instant::now();
        while times.is_empty() || w.elapsed().as_secs_f64() < window_s {
            let start = Instant::now();
            op(&state);
            times.push(start.elapsed().as_secs_f64());
        }
        l.windows.push(times);
    }
    l
}

/// Logs one per-window series on stderr (`window <name>: v1 v2 …`), so
/// a run's window-to-window spread can be inspected after the fact.
pub fn log_windows(name: &str, values: &[f64]) {
    let joined: Vec<String> = values.iter().map(|v| format!("{v:.6e}")).collect();
    eprintln!("window {name}: {}", joined.join(" "));
}

/// The slow-decile value of a per-window series of times (its p90).
pub fn slow_time(times: &[f64]) -> f64 {
    percentile(times, 90.0)
}

/// The slow-decile value of a per-window series of rates (its p10).
pub fn slow_rate(rates: &[f64]) -> f64 {
    percentile(rates, 10.0)
}

/// `series` without its first, warm-up element (kept when it is the
/// only one).
pub fn warm<T>(series: &[T]) -> &[T] {
    if series.len() > 1 {
        &series[1..]
    } else {
        series
    }
}

/// The end-to-end metrics of a closed loop whose every operation
/// simulates `cycles` cycles and `macs` MACs.
pub fn closed_loop_metrics(l: &Loop, cycles: u64, macs: u64) -> Metrics {
    let windows = warm(&l.windows);
    let setups = warm(&l.setups);
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    let p50: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    for (name, series) in [
        ("setup_s", setups),
        ("ops_per_s", &rates[..]),
        ("p50_s", &p50[..]),
    ] {
        log_windows(name, series);
    }
    let mut m = Metrics::default();
    m.put("setup_s", slow_time(setups), "s");
    m.put("ops_per_s", slow_rate(&rates), "1/s");
    m.put("p50_ms", slow_time(&p50) * 1e3, "ms");
    m.put(
        "host_mcps",
        slow_rate(&rates) * cycles as f64 / 1e6,
        "Mcycles/s",
    );
    m.put("sim_cycles", cycles as f64, "cycles");
    m.put("macs_per_cycle", macs as f64 / cycles as f64, "MAC/cycle");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_loop_has_one_window_of_one_op() {
        let (mut setups, mut ops) = (0, 0);
        let l = closed_loop(
            0.0,
            || {
                setups += 1;
                3
            },
            |s| ops += *s,
        );
        assert_eq!(
            (l.setups.len(), l.windows.len(), l.windows[0].len()),
            (1, 1, 1)
        );
        assert_eq!((setups, ops), (SETUPS, 3));
        let m = closed_loop_metrics(&l, 100, 50);
        assert_eq!(m.get("sim_cycles"), Some(100.0));
        assert_eq!(m.get("macs_per_cycle"), Some(0.5));
    }

    #[test]
    fn slow_decile_window_after_warm_up() {
        // A slow warm-up window, then one fast and one slow window.
        let l = Loop {
            setups: vec![9.0, 1.0, 1.0],
            windows: vec![vec![9.0], vec![1.0, 1.0], vec![2.0, 2.0]],
        };
        let m = closed_loop_metrics(&l, 100, 50);
        assert_eq!(m.get("setup_s"), Some(1.0));
        assert_eq!(m.get("p50_ms"), Some(2000.0));
        assert_eq!(m.get("ops_per_s"), Some(0.5));
        assert_eq!(m.get("host_mcps"), Some(50.0 / 1e6));
    }
}
