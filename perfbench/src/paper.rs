//! `paper-layer`: the paper's Fig. 8 layer (16×16×32→64, 3×3, 4-bit,
//! `pv.qnt`) on each backend through its public entry point —
//! `ConvTestbench::run` for XpulpNN SIMD and for Xrvv at VLEN 128, and
//! `ClusterConvTestbench::run(2)` for the 8-core cluster. One operation
//! is one run of each.
//!
//! The traced group replays each backend through the calls `run`
//! composes (stage, execute, collect), one span each, and adds the
//! single-host-thread cluster run, the XpulpV2 baseline and timings of
//! testbench construction and of the golden model.

use crate::report::{Gate, Metrics};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::window::{closed_loop, closed_loop_metrics};
use crate::{derive, Size};
use std::cell::RefCell;
use std::time::Instant;
use xpulpnn::experiments::PAPER_SPEEDUP_W4;
use xpulpnn::pulp_cluster::{ClusterConvTestbench, ClusterRunResult};
use xpulpnn::pulp_kernels::ConvRunResult;
use xpulpnn::{BitWidth, ConvKernelConfig, ConvTestbench, KernelIsa};

/// Exact cycles of the SIMD (XpulpNN) layer.
pub const SIMD_CYCLES: u64 = 1_440_804;
/// Exact cycles of the vector (Xrvv, VLEN 128) layer.
pub const VECTOR_CYCLES: u64 = 1_387_556;
/// Exact cycles of the 8-core cluster layer.
pub const CLUSTER_CYCLES: u64 = 190_138;
/// Harts of the cluster backend.
const HARTS: usize = 8;
/// Host threads driving the cluster in the timed path.
const HOST_THREADS: usize = 2;

/// The ledger classes reported for the SIMD layer (its eight largest).
pub const SIMD_LEDGER: [&str; 8] = [
    "load",
    "dotp.n",
    "alu",
    "qnt",
    "branch",
    "store",
    "jump",
    "simd_alu.h",
];
/// The ledger classes reported for the vector layer (its eight largest).
pub const VECTOR_LEDGER: [&str; 8] = [
    "vec_load", "alu", "vec_dot", "branch", "vec_qnt", "vec_cfg", "vec_alu", "store",
];

fn simd_cfg() -> ConvKernelConfig {
    ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true)
}

/// The three testbenches of one operation.
struct Benches {
    simd: ConvTestbench,
    vector: ConvTestbench,
    cluster: ClusterConvTestbench,
}

fn build(seed: u64) -> Benches {
    let s = derive(seed, 1);
    Benches {
        simd: ConvTestbench::new(simd_cfg(), s).expect("the paper layer builds"),
        vector: ConvTestbench::new(
            ConvKernelConfig::paper(BitWidth::W4, KernelIsa::vector(128), true),
            s,
        )
        .expect("the vector paper layer builds"),
        cluster: ClusterConvTestbench::new(simd_cfg(), HARTS, s)
            .expect("the cluster paper layer builds"),
    }
}

fn check_single(
    gate: &mut Gate,
    what: &str,
    r: &Result<ConvRunResult, xpulpnn::riscv_core::Trap>,
    pin: u64,
) {
    gate.check(
        r.as_ref().is_ok_and(|r| r.matches() && r.cycles() == pin),
        || match r {
            Ok(r) => format!(
                "paper {what}: {} cycles (pin {pin}), matches={}",
                r.cycles(),
                r.matches()
            ),
            Err(t) => format!("paper {what}: trap {t}"),
        },
    );
}

fn check_cluster(
    gate: &mut Gate,
    r: &Result<ClusterRunResult, xpulpnn::pulp_cluster::ClusterError>,
) {
    gate.check(
        r.as_ref()
            .is_ok_and(|r| r.matches() && r.cycles == CLUSTER_CYCLES),
        || match r {
            Ok(r) => format!(
                "paper cluster: {} cycles (pin {CLUSTER_CYCLES}), matches={}",
                r.cycles,
                r.matches()
            ),
            Err(e) => format!("paper cluster: {e}"),
        },
    );
}

/// Verified results of one operation.
struct Round {
    secs: [f64; 3],
    simd: Option<ConvRunResult>,
    vector: Option<ConvRunResult>,
    cluster: Option<ClusterRunResult>,
}

/// One operation through the public entry points, each call timed.
fn round(b: &Benches, gate: &mut Gate) -> Round {
    let t = Instant::now();
    let simd = b.simd.run();
    let t1 = t.elapsed().as_secs_f64();
    check_single(gate, "simd", &simd, SIMD_CYCLES);
    let t = Instant::now();
    let vector = b.vector.run();
    let t2 = t.elapsed().as_secs_f64();
    check_single(gate, "vector", &vector, VECTOR_CYCLES);
    let t = Instant::now();
    let cluster = b.cluster.run(HOST_THREADS);
    let t3 = t.elapsed().as_secs_f64();
    check_cluster(gate, &cluster);
    Round {
        secs: [t1, t2, t3],
        simd: simd.ok(),
        vector: vector.ok(),
        cluster: cluster.ok(),
    }
}

/// The untraced run: end-to-end metrics of `paper-layer`. Each
/// window's set-up builds the three testbenches.
pub fn run(seed: u64, size: Size, gate: &mut Gate) -> Metrics {
    let g = RefCell::new(Gate::default());
    let l = closed_loop(
        size.seconds,
        || build(seed),
        |b| {
            round(b, &mut g.borrow_mut());
        },
    );
    gate.merge(g.into_inner());
    closed_loop_metrics(
        &l,
        SIMD_CYCLES + VECTOR_CYCLES + CLUSTER_CYCLES,
        3 * simd_cfg().shape.macs(),
    )
}

/// Replays one operation through stage / execute / collect, one span
/// per call under a `paper.layer` span per backend.
fn replay(b: &Benches, tr: &mut Tracer, gate: &mut Gate) {
    for (id, tb, what, pin) in [
        (0, &b.simd, "simd", SIMD_CYCLES),
        (1, &b.vector, "vector", VECTOR_CYCLES),
    ] {
        let op = tr.begin("paper.layer", id);
        let mut soc = tr.span("paper.stage", id, || tb.stage());
        let report = tr.span("paper.exec", id, || soc.run(tb.cycle_budget()));
        let r = report.map(|rep| tr.span("paper.collect", id, || tb.collect(&soc, rep)));
        tr.end(op);
        check_single(gate, what, &r, pin);
    }
    let op = tr.begin("paper.layer", 2);
    let mut sim = tr.span("paper.stage", 2, || {
        let mut sim = b.cluster.stage();
        sim.set_host_threads(HOST_THREADS);
        sim
    });
    let driven = tr.span("paper.exec", 2, || b.cluster.drive(&mut sim));
    let r = driven.map(|()| tr.span("paper.collect", 2, || b.cluster.collect(&sim)));
    tr.end(op);
    check_cluster(gate, &r);
}

/// The traced group: the XpulpV2 baseline once, then untraced rounds,
/// traced replays, single-thread cluster runs, builds and golden-model
/// calls, alternated until `size.seconds`.
pub fn traced(seed: u64, size: Size, tr: &mut Tracer, gate: &mut Gate) -> Metrics {
    let baseline = ConvTestbench::new(
        ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpV2, false),
        derive(seed, 1),
    )
    .expect("the baseline layer builds")
    .run();
    gate.check(baseline.as_ref().is_ok_and(ConvRunResult::matches), || {
        "paper baseline: XpulpV2 layer did not verify".to_string()
    });
    let baseline_cycles = baseline.map_or(0, |r| r.cycles());

    let b = build(seed);
    let (mut secs, mut plain, mut traced_s) = ([vec![], vec![], vec![]], 0.0, 0.0);
    let (mut one_thread, mut builds, mut goldens) = (vec![], vec![], vec![]);
    let mut last: Option<Round> = None;
    let t = Instant::now();
    while last.is_none() || t.elapsed().as_secs_f64() < size.seconds {
        let r = round(&b, gate);
        for (v, s) in secs.iter_mut().zip(r.secs) {
            v.push(s);
        }
        plain += r.secs.iter().sum::<f64>();
        let start = Instant::now();
        replay(&b, tr, gate);
        traced_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let one = b.cluster.run(1);
        one_thread.push(start.elapsed().as_secs_f64());
        check_cluster(gate, &one);
        let start = Instant::now();
        let fresh = build(seed);
        builds.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let golden = fresh.simd.golden();
        goldens.push(start.elapsed().as_secs_f64());
        gate.check(r.simd.as_ref().is_some_and(|s| s.golden == golden), || {
            "paper: golden model differs between identical builds".to_string()
        });
        last = Some(r);
    }
    let r = last.expect("at least one round");

    let mut m = Metrics::default();
    for (i, (name, pin)) in [
        ("simd", SIMD_CYCLES),
        ("vector", VECTOR_CYCLES),
        ("cluster", CLUSTER_CYCLES),
    ]
    .into_iter()
    .enumerate()
    {
        let ms = median(&secs[i]) * 1e3;
        m.put(format!("paper.{name}_ms"), ms, "ms");
        m.put(
            format!("paper.{name}.mcps"),
            ratio(pin as f64, ms * 1e3),
            "Mcycles/s",
        );
    }
    for (name, classes, res) in [
        ("simd", SIMD_LEDGER, &r.simd),
        ("vector", VECTOR_LEDGER, &r.vector),
    ] {
        let perf = res.as_ref().map(|r| r.report.perf).unwrap_or_default();
        m.put_ledger(&format!("paper.{name}"), &classes, &perf.ledger);
        m.put(format!("paper.{name}.ipc"), perf.ipc(), "ratio");
    }
    let (stall, barrier, exposed, min_util) = r.cluster.as_ref().map_or((0, 0, 0, 0.0), |c| {
        let util = (0..c.stats.busy.len())
            .map(|h| c.utilization(h))
            .fold(f64::INFINITY, f64::min);
        (
            c.stats.conflict_stalls,
            c.stats.barrier_wait.iter().sum(),
            c.stats.dma_exposed,
            util,
        )
    });
    m.put(
        "paper.cluster.conflict_stall_cycles",
        stall as f64,
        "cycles",
    );
    m.put(
        "paper.cluster.barrier_wait_cycles",
        barrier as f64,
        "cycles",
    );
    m.put("paper.cluster.dma_exposed_cycles", exposed as f64, "cycles");
    m.put("paper.cluster.min_utilization", min_util, "ratio");
    m.put(
        "paper.cluster.thread_scaling",
        ratio(median(&one_thread), median(&secs[2])),
        "ratio",
    );
    m.put("paper.build_us", median(&builds) * 1e6, "us");
    m.put("paper.golden_us", median(&goldens) * 1e6, "us");
    let speedup = ratio(baseline_cycles as f64, SIMD_CYCLES as f64);
    m.put(
        "paper.speedup_err",
        (speedup - PAPER_SPEEDUP_W4) / PAPER_SPEEDUP_W4,
        "ratio",
    );
    m.put(
        "paper.trace_overhead_frac",
        ratio(traced_s, plain) - 1.0,
        "ratio",
    );
    m.put(
        "paper.attributed_frac",
        tr.attributed_frac("paper.layer"),
        "ratio",
    );
    m
}
