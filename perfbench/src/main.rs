//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the named workload, checks every output and prints
//! the end-to-end metrics. `--trace 1` runs the
//! traced per-layer replays (every layer group, the named workload's
//! group for half the time) and writes the spans to
//! `perfbench/out/`. The last line of stdout is always one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; any failed check
//! makes the exit code 1. See `perfbench/README.md`.

mod network;
mod paper;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod window;

use report::{Gate, Metrics};
use std::process::ExitCode;
use trace::Tracer;

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Measured seconds (each loop runs at least once).
    pub seconds: f64,
    /// Requests in the `serve-mix` stream.
    pub stream: u64,
}

/// Requests in the `serve-mix` stream of a full run.
const STREAM: u64 = 2000;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-mix", "network", "paper-layer"];

/// A well-mixed 64-bit value from `(seed, salt)` (SplitMix64), so each
/// input the benchmark generates has its own stream.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ salt
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x6a09_e667_f3bc_c909);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve-mix|network|paper-layer> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// End-to-end metrics of one untraced workload run.
pub fn run_workload(workload: &str, seed: u64, size: Size, gate: &mut Gate) -> Metrics {
    let mut m = match workload {
        "serve-mix" => serve_mix::run(seed, size, gate),
        "network" => network::run(seed, size, gate),
        "paper-layer" => paper::run(seed, size, gate),
        other => unreachable!("workload {other} was validated"),
    };
    m.put("verified_ratio", gate.verified_ratio(), "ratio");
    m.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    m
}

/// Per-layer metrics of one traced run: every group runs, the named
/// workload's group for half of `size.seconds`, the others for a
/// quarter each.
pub fn run_traced(
    workload: &str,
    seed: u64,
    size: Size,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Metrics {
    let share = |w: &str| Size {
        seconds: size.seconds * if w == workload { 0.5 } else { 0.25 },
        ..size
    };
    let mut m = serve_mix::traced(seed, share("serve-mix"), tr, gate);
    m.extend(network::traced(seed, share("network"), tr, gate));
    m.extend(paper::traced(seed, share("paper-layer"), tr, gate));
    m
}

fn write_trace(workload: &str, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = Size {
        seconds: args.seconds as f64,
        stream: STREAM,
    };
    // Host timings depend on how many threads the host can run at once.
    eprintln!(
        "host threads available: {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    let mut gate = Gate::default();
    let metrics = if args.trace {
        let mut tr = Tracer::new(true);
        let m = run_traced(&args.workload, args.seed, size, &mut tr, &mut gate);
        write_trace(&args.workload, args.seed, &tr);
        m
    } else {
        run_workload(&args.workload, args.seed, size, &mut gate)
    };
    for (name, value, unit) in metrics.entries() {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for msg in &gate.messages {
        eprintln!("check failed: {msg}");
    }
    let (correct, line) = report::result_line(&gate, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed in one section of
    /// `BENCHMARK.json` (one metric object per line).
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body[1..].find("]").map_or(body.len(), |e| e + 1);
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[at..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        body[..end]
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn emitted(m: &Metrics) -> Vec<(String, String)> {
        m.entries()
            .iter()
            .map(|(n, _, u)| (n.clone(), (*u).to_string()))
            .collect()
    }

    const TINY: Size = Size {
        seconds: 0.0,
        stream: 24,
    };

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload network --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("network", 3, 5, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload network --seed x --seconds 1 --trace 0",
            "--workload network --seed 1 --seconds 1 --trace 2",
            "--workload network --seed 1 --seconds 1",
            "--workload network --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        assert_eq!(listed("end_to_end").len(), 8);
    }

    /// A tiny untraced run of each workload passes every check and
    /// emits exactly the end-to-end metrics, with their units.
    #[test]
    fn smoke_every_workload_emits_end_to_end_metrics() {
        let want = listed("end_to_end");
        for w in WORKLOADS {
            let mut gate = Gate::default();
            let m = run_workload(w, 7, TINY, &mut gate);
            assert!(
                gate.failed == 0 && gate.attempted > 0,
                "{w}: {:?}",
                gate.messages
            );
            assert_eq!(emitted(&m), want, "{w}");
            let (correct, line) = report::result_line(&gate, &m);
            assert!(correct && line.starts_with("{\"correct\": true"), "{w}");
        }
    }

    /// A tiny traced run emits exactly the per-layer metrics, with
    /// their units, and records spans for every layer group.
    #[test]
    fn smoke_traced_run_emits_per_layer_metrics() {
        let mut gate = Gate::default();
        let mut tr = Tracer::new(true);
        let m = run_traced("network", 7, TINY, &mut tr, &mut gate);
        assert!(gate.failed == 0, "{:?}", gate.messages);
        assert_eq!(emitted(&m), listed("per_layer"));
        let totals = tr.totals();
        for span in [
            "serve.request",
            "serve.exec",
            "net.inference",
            "net.exec",
            "paper.layer",
            "paper.exec",
        ] {
            assert!(totals.get(span).is_some_and(|t| t.count > 0), "{span}");
        }
        // Exact counters do not depend on the host.
        assert_eq!(m.get("net.lenet.L1.sim_cycles"), Some(236_956.0));
        assert_eq!(m.get("paper.simd.ledger.dotp.n"), Some(589_824.0));
        assert_eq!(m.get("net.degraded_layers"), Some(0.0));
    }
}
