//! Benchmark artifacts for `xpulpnn bench`: one machine-readable record
//! per configuration — simulated cycles, MACs/cycle, the stall/conflict
//! breakdown and per-core utilization — for the paper's Fig. 8 4-bit
//! layer on the seed single core and on the 8-core cluster.
//!
//! JSON is emitted by hand, same as [`crate::report`]: the offline
//! build carries no serde, and the records are small flat structures.

use crate::measure::{measure, Error};
use crate::report::escape_json;
use pulp_cluster::{ClusterConvTestbench, ClusterError};
use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
use qnn::BitWidth;
use std::time::Instant;

/// One core's share of a benchmark run.
#[derive(Debug, Clone)]
pub struct CoreActivity {
    /// Hart index.
    pub hart: usize,
    /// Instructions the hart retired.
    pub instret: u64,
    /// Cycles the hart was executing or stalled on a bank conflict.
    pub busy: u64,
    /// Cycles the hart idled at barriers waiting for slower harts.
    pub barrier_wait: u64,
    /// `busy / total cycles`.
    pub utilization: f64,
}

/// A self-contained benchmark record, serializable with
/// [`BenchRecord::to_json`].
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Artifact label (`"single_core"`, `"cluster8"`, ...); the CLI
    /// writes the record to `BENCH_<label>.json`.
    pub label: String,
    /// Kernel configuration name.
    pub kernel: String,
    /// Cores the run used.
    pub cores: usize,
    /// Total simulated cycles (for the cluster: DMA prologue + compute
    /// regions + write-back).
    pub cycles: u64,
    /// Multiply-accumulates in the layer.
    pub macs: u64,
    /// Named cycle/stall breakdown. Single-core records carry the
    /// per-class cycle ledger; cluster records carry conflict and DMA
    /// accounting.
    pub breakdown: Vec<(String, u64)>,
    /// Per-core activity, one entry per hart.
    pub per_core: Vec<CoreActivity>,
}

impl BenchRecord {
    /// Multiply-accumulates per cycle; 0 when no cycles were recorded.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// Benchmarks `cfg` on the seed single-core SoC (verified against
    /// the golden model) and records its cycle-ledger breakdown.
    pub fn single_core(
        label: &str,
        cfg: ConvKernelConfig,
        seed: u64,
    ) -> Result<BenchRecord, Error> {
        let m = measure(cfg, seed)?;
        let breakdown = m
            .perf
            .ledger
            .entries()
            .map(|(class, cycles)| (class.name().to_string(), cycles))
            .collect();
        Ok(BenchRecord {
            label: label.to_string(),
            kernel: m.cfg.name(),
            cores: 1,
            cycles: m.cycles,
            macs: m.macs,
            breakdown,
            per_core: vec![CoreActivity {
                hart: 0,
                instret: m.perf.instret,
                busy: m.cycles,
                barrier_wait: 0,
                utilization: 1.0,
            }],
        })
    }

    /// Benchmarks `cfg` on an `cores`-hart cluster (verified bit-exact
    /// against the golden model) and records the conflict/DMA breakdown
    /// plus per-hart utilization.
    pub fn cluster(
        label: &str,
        cfg: ConvKernelConfig,
        cores: usize,
        seed: u64,
    ) -> Result<BenchRecord, Error> {
        let tb =
            ClusterConvTestbench::new(cfg, cores, seed).map_err(|e| Error::Build(e.to_string()))?;
        let r = tb.run(cores).map_err(|e| match e {
            ClusterError::Trap { trap, .. } => Error::Trap(trap),
        })?;
        if !r.matches() {
            return Err(Error::Mismatch { config: cfg.name() });
        }
        let breakdown = vec![
            ("bank_conflicts".to_string(), r.stats.conflicts),
            ("conflict_stall_cycles".to_string(), r.stats.conflict_stalls),
            (
                "barrier_wait_cycles".to_string(),
                r.stats.barrier_wait.iter().sum(),
            ),
            ("dma_prologue_cycles".to_string(), r.stats.dma_prologue),
            ("dma_hidden_cycles".to_string(), r.stats.dma_hidden),
            ("dma_exposed_cycles".to_string(), r.stats.dma_exposed),
            ("dma_writeback_cycles".to_string(), r.stats.dma_writeback),
        ];
        let cycles = r.cycles;
        let per_core = (0..cores)
            .map(|h| CoreActivity {
                hart: h,
                instret: r.per_hart[h].instret,
                busy: r.stats.busy[h],
                barrier_wait: r.stats.barrier_wait[h],
                utilization: r.utilization(h),
            })
            .collect();
        Ok(BenchRecord {
            label: label.to_string(),
            kernel: cfg.name(),
            cores,
            cycles,
            macs: cfg.shape.macs(),
            breakdown,
            per_core,
        })
    }

    /// Serializes the record as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"label\": \"{}\",\n", escape_json(&self.label)));
        s.push_str(&format!(
            "  \"kernel\": \"{}\",\n",
            escape_json(&self.kernel)
        ));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        s.push_str(&format!("  \"macs\": {},\n", self.macs));
        s.push_str(&format!(
            "  \"macs_per_cycle\": {:.4},\n",
            self.macs_per_cycle()
        ));
        s.push_str("  \"breakdown\": {\n");
        for (i, (name, cycles)) in self.breakdown.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {}{}\n",
                escape_json(name),
                cycles,
                if i + 1 < self.breakdown.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"per_core\": [\n");
        for (i, c) in self.per_core.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"hart\": {}, \"instret\": {}, \"busy\": {}, \"barrier_wait\": {}, \
                 \"utilization\": {:.4}}}{}\n",
                c.hart,
                c.instret,
                c.busy,
                c.barrier_wait,
                c.utilization,
                if i + 1 < self.per_core.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}");
        s
    }
}

/// Host-side throughput of the simulator itself on one kernel, driven
/// by `Core::reference_step` alone vs. decoded-block replay
/// (`Soc::run`), on this machine.
///
/// Simulated results are bit-exact between the two runs (that identity
/// is asserted before the record is built); only host wall-clock
/// differs, so the record is about the *simulator*, not the kernel.
#[derive(Debug, Clone)]
pub struct HostThroughputRecord {
    /// Kernel configuration name.
    pub kernel: String,
    /// Simulated cycles of the layer (identical on both paths).
    pub cycles: u64,
    /// Instructions retired (identical on both paths).
    pub instret: u64,
    /// Wall-clock seconds of the reference-step run.
    pub reference_secs: f64,
    /// Wall-clock seconds of the block-replay run.
    pub replay_secs: f64,
    /// Block-cache hit rate of the replay run (hits / lookups).
    pub hit_rate: f64,
    /// Decoded-block cache lookups that missed and forced a translation
    /// or a reference step.
    pub misses: u64,
    /// Blocks translated during the run.
    pub translations: u64,
    /// Steps replay punted to a reference step (untranslatable PC).
    pub interp_fallbacks: u64,
    /// Whole-cache invalidations (restore, host writes, SMC).
    pub invalidations: u64,
}

impl HostThroughputRecord {
    /// Simulated cycles per wall-clock second, reference steps.
    pub fn reference_cps(&self) -> f64 {
        self.cycles as f64 / self.reference_secs.max(1e-9)
    }

    /// Simulated cycles per wall-clock second, block replay.
    pub fn replay_cps(&self) -> f64 {
        self.cycles as f64 / self.replay_secs.max(1e-9)
    }

    /// Wall-clock speedup of block replay over reference steps.
    pub fn speedup(&self) -> f64 {
        self.reference_secs / self.replay_secs.max(1e-9)
    }

    /// Serializes the record as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!("{{\n{}\n}}", self.json_fields(""))
    }

    /// The record's JSON members, one per line, each key prefixed with
    /// `prefix` so several records can share one object.
    fn json_fields(&self, prefix: &str) -> String {
        format!(
            "  \"{prefix}kernel\": \"{}\",\n  \"{prefix}cycles\": {},\n  \"{prefix}instret\": {},\n  \
             \"{prefix}reference_secs\": {:.6},\n  \"{prefix}replay_secs\": {:.6},\n  \
             \"{prefix}reference_cycles_per_sec\": {:.0},\n  \
             \"{prefix}replay_cycles_per_sec\": {:.0},\n  \"{prefix}speedup\": {:.2},\n  \
             \"{prefix}block_cache_hit_rate\": {:.6},\n  \"{prefix}block_cache_misses\": {},\n  \
             \"{prefix}blocks_translated\": {},\n  \"{prefix}interp_fallbacks\": {},\n  \
             \"{prefix}invalidations\": {}",
            escape_json(&self.kernel),
            self.cycles,
            self.instret,
            self.reference_secs,
            self.replay_secs,
            self.reference_cps(),
            self.replay_cps(),
            self.speedup(),
            self.hit_rate,
            self.misses,
            self.translations,
            self.interp_fallbacks,
            self.invalidations,
        )
    }
}

/// Measures host throughput on `cfg`: one run by reference steps, one
/// block-replay run, both verified against the golden model and against
/// each other (every counter bit-exact) before timing is reported.
pub fn host_throughput_for(
    cfg: ConvKernelConfig,
    seed: u64,
) -> Result<HostThroughputRecord, Error> {
    let tb = ConvTestbench::new(cfg, seed).map_err(|e| Error::Build(e.to_string()))?;

    let mut soc = tb.stage();
    let t0 = Instant::now();
    while !soc.core.reference_step(&mut soc.mem).map_err(Error::Trap)? {}
    let reference_secs = t0.elapsed().as_secs_f64();
    let reference = soc.core.perf;

    let mut soc = tb.stage();
    let t0 = Instant::now();
    let report = soc.run(tb.cycle_budget()).map_err(Error::Trap)?;
    let replay_secs = t0.elapsed().as_secs_f64();
    let stats = soc.core.fastpath_stats().unwrap_or_default();
    let replay = tb.collect(&soc, report);
    if !replay.matches() {
        return Err(Error::Mismatch { config: cfg.name() });
    }
    assert_eq!(
        reference, replay.report.perf,
        "block replay must be bit-exact with reference steps"
    );

    Ok(HostThroughputRecord {
        kernel: cfg.name(),
        cycles: replay.report.perf.cycles,
        instret: replay.report.perf.instret,
        reference_secs,
        replay_secs,
        hit_rate: stats.hit_rate(),
        misses: stats.misses,
        translations: stats.translations,
        interp_fallbacks: stats.interp_fallbacks,
        invalidations: stats.invalidations,
    })
}

/// One more timed run of a [`HostThroughputRecord`]'s layer under
/// another driver, verified against the golden model and bit-exact in
/// cycles and instructions with the record's runs.
#[derive(Debug, Clone)]
pub struct HostRunRow {
    /// Simulated cycles of the layer.
    pub cycles: u64,
    /// Wall-clock seconds of the run.
    pub secs: f64,
}

impl HostRunRow {
    /// Simulated cycles per wall-clock second.
    pub fn cps(&self) -> f64 {
        self.cycles as f64 / self.secs.max(1e-9)
    }

    /// Wall-clock ratio of this run to the block-replay run of `replay`.
    pub fn slowdown(&self, replay: &HostThroughputRecord) -> f64 {
        self.secs / replay.replay_secs.max(1e-9)
    }

    /// The row's JSON members, keys prefixed with `prefix`.
    fn json_fields(&self, prefix: &str, replay: &HostThroughputRecord) -> String {
        format!(
            "  \"{prefix}secs\": {:.6},\n  \"{prefix}cycles_per_sec\": {:.0},\n  \
             \"{prefix}slowdown\": {:.2}",
            self.secs,
            self.cps(),
            self.slowdown(replay),
        )
    }
}

/// Times one run of `tb` driven by `drive` (given the staged SoC and
/// the layer's cycle budget) and checks it against `replay`.
fn timed_row(
    tb: &ConvTestbench,
    replay: &HostThroughputRecord,
    drive: impl FnOnce(&mut pulp_soc::Soc, u64) -> Result<pulp_soc::RunReport, riscv_core::Trap>,
) -> Result<HostRunRow, Error> {
    let mut soc = tb.stage();
    let t0 = Instant::now();
    let report = drive(&mut soc, tb.cycle_budget()).map_err(Error::Trap)?;
    let secs = t0.elapsed().as_secs_f64();
    let run = tb.collect(&soc, report);
    if !run.matches() {
        return Err(Error::Mismatch {
            config: tb.cfg.name(),
        });
    }
    assert_eq!(
        (run.report.perf.cycles, run.report.perf.instret),
        (replay.cycles, replay.instret),
        "every driver must be bit-exact with block replay"
    );
    Ok(HostRunRow {
        cycles: replay.cycles,
        secs,
    })
}

/// The `xpulpnn bench --host` measurement (`BENCH_host_throughput.json`):
/// the paper's Fig. 8 4-bit hardware-quantized layer on the XpulpNN
/// SIMD backend and on the Xrvv vector backend at VLEN 128, plus the
/// SIMD layer through the fault-armed driver and under the tracer.
#[derive(Debug, Clone)]
pub struct HostThroughputReport {
    /// The SIMD layer; its members keep the unprefixed keys.
    pub simd: HostThroughputRecord,
    /// The vector layer; its members carry a `vector_` key prefix.
    pub vector: HostThroughputRecord,
    /// The SIMD layer through `faultsim::run_armed` with an empty plan
    /// and a 64-entry trace depth (`armed_` keys). A run that does not
    /// trap never uses the depth, so this is what `Network::run` pays
    /// for a clean layer.
    pub armed: HostRunRow,
    /// The SIMD layer by `Core::run` with a 64-entry tracer attached
    /// (`traced_` keys).
    pub traced: HostRunRow,
}

impl HostThroughputReport {
    /// Measures `simd` and `vector` as [`host_throughput_for`] does and
    /// adds the armed and traced rows of `simd`.
    pub(crate) fn measure(
        simd: ConvKernelConfig,
        vector: ConvKernelConfig,
        seed: u64,
    ) -> Result<HostThroughputReport, Error> {
        let simd_row = host_throughput_for(simd, seed)?;
        let vector = host_throughput_for(vector, seed)?;
        let tb = ConvTestbench::new(simd, seed).map_err(|e| Error::Build(e.to_string()))?;
        let armed = timed_row(&tb, &simd_row, |soc, budget| {
            let run = faultsim::run_armed(
                soc,
                &faultsim::FaultPlan::none(),
                &faultsim::ArmConfig {
                    budget,
                    checkpoint_interval: budget,
                    trace_depth: 64,
                },
            );
            run.exit.map(|exit| pulp_soc::RunReport {
                exit,
                perf: run.perf,
            })
        })?;
        let traced = timed_row(&tb, &simd_row, |soc, budget| {
            soc.core.attach_tracer(64);
            soc.run(budget)
        })?;
        Ok(HostThroughputReport {
            simd: simd_row,
            vector,
            armed,
            traced,
        })
    }

    /// Serializes every row as one self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n{},\n{},\n{},\n{}\n}}",
            self.simd.json_fields(""),
            self.vector.json_fields("vector_"),
            self.armed.json_fields("armed_", &self.simd),
            self.traced.json_fields("traced_", &self.simd)
        )
    }
}

/// Runs the `xpulpnn bench --host` measurement.
pub fn host_throughput(seed: u64) -> Result<HostThroughputReport, Error> {
    let paper = |isa| ConvKernelConfig::paper(BitWidth::W4, isa, true);
    HostThroughputReport::measure(
        paper(KernelIsa::XpulpNN),
        paper(KernelIsa::vector(128)),
        seed,
    )
}

/// The serving benchmark artifact (`BENCH_serving.json`): one seeded
/// loadgen run through the snapshot-forked worker pool, with p50/p99
/// latency in simulated cycles (deterministic) and host microseconds
/// (wall clock), sustained requests/sec, outcome counts and the
/// scheduling-independent response digest.
#[derive(Debug)]
pub struct ServingRecord {
    /// The loadgen report the record summarizes.
    pub report: serve::LoadReport,
}

impl ServingRecord {
    /// Runs one seeded loadgen campaign and wraps the report.
    ///
    /// # Errors
    ///
    /// [`serve::ServeError`] when the pool cannot start.
    pub fn run(cfg: serve::LoadgenConfig) -> Result<ServingRecord, serve::ServeError> {
        Ok(ServingRecord {
            report: serve::run_loadgen(cfg)?,
        })
    }

    /// Serializes the record as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let mut s = String::from("{\n");
        s.push_str("  \"label\": \"serving\",\n");
        s.push_str(&format!("  \"seed\": {},\n", r.cfg.seed));
        s.push_str(&format!("  \"workers\": {},\n", r.cfg.workers));
        s.push_str(&format!("  \"requests\": {},\n", r.responses.len()));
        s.push_str(&format!("  \"digest\": \"{:016x}\",\n", r.digest));
        for label in ["ok", "masked", "recovered", "degraded"] {
            s.push_str(&format!("  \"{label}\": {},\n", r.count(label)));
        }
        s.push_str(&format!(
            "  \"sim_cycles_p50\": {},\n  \"sim_cycles_p99\": {},\n  \"sim_cycles_max\": {},\n",
            r.sim_cycles.p50, r.sim_cycles.p99, r.sim_cycles.max
        ));
        s.push_str(&format!(
            "  \"host_us_p50\": {},\n  \"host_us_p99\": {},\n  \"host_us_max\": {},\n",
            r.host_us.p50, r.host_us.p99, r.host_us.max
        ));
        s.push_str(&format!(
            "  \"total_sim_cycles\": {},\n",
            r.total_sim_cycles
        ));
        s.push_str(&format!("  \"wall_secs\": {:.6},\n", r.wall_secs));
        s.push_str(&format!(
            "  \"sustained_req_per_sec\": {:.2},\n",
            r.req_per_sec
        ));
        s.push_str(&format!(
            "  \"cold_forks\": {},\n  \"warm_runs\": {}\n}}",
            r.stats.cold_forks, r.stats.warm_runs
        ));
        s
    }
}

/// The soak benchmark artifact (`BENCH_soak.json`): one seeded
/// multi-phase resilience campaign through the supervisor (overload →
/// fault storm → hang injection → template corruption → recovery),
/// with the resilience counters and the scheduling-independent digest.
#[derive(Debug)]
pub struct SoakRecord {
    /// The soak report the record summarizes.
    pub report: serve::SoakReport,
}

impl SoakRecord {
    /// Runs one seeded soak campaign and wraps the report.
    ///
    /// # Errors
    ///
    /// [`serve::ServeError`] when the pool cannot start.
    pub fn run(cfg: serve::SoakConfig) -> Result<SoakRecord, serve::ServeError> {
        Ok(SoakRecord {
            report: serve::run_soak(cfg)?,
        })
    }

    /// Serializes the record as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let c = &r.counters;
        let mut s = String::from("{\n");
        s.push_str("  \"label\": \"soak\",\n");
        s.push_str(&format!("  \"seed\": {},\n", r.cfg.seed));
        s.push_str(&format!("  \"workers\": {},\n", r.cfg.workers));
        s.push_str(&format!("  \"scale\": {},\n", r.cfg.scale));
        s.push_str(&format!("  \"requests\": {},\n", r.responses.len()));
        s.push_str(&format!("  \"digest\": \"{:016x}\",\n", r.digest));
        s.push_str(&format!("  \"shed_queue_full\": {},\n", c.shed_queue_full));
        s.push_str(&format!("  \"shed_pressure\": {},\n", c.shed_pressure));
        s.push_str(&format!("  \"retried\": {},\n", c.retried));
        s.push_str(&format!("  \"timed_out\": {},\n", c.timed_out));
        s.push_str(&format!("  \"breaker_trips\": {},\n", c.breaker_trips));
        s.push_str(&format!("  \"breaker_closes\": {},\n", c.breaker_closes));
        s.push_str(&format!("  \"fallback_served\": {},\n", c.fallback_served));
        s.push_str(&format!("  \"reaps\": {},\n", r.pool_stats.reaps));
        s.push_str(&format!(
            "  \"quarantines\": {},\n",
            r.pool_stats.quarantines
        ));
        s.push_str(&format!("  \"breakers_closed\": {},\n", r.breakers_closed));
        s.push_str("  \"phases\": [\n");
        for (i, p) in r.phases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"phase\": \"{}\", \"requests\": {}, \"shed\": {}, \"retried\": {}, \
                 \"timed_out\": {}, \"breaker_trips\": {}, \"fallback_served\": {}}}{}\n",
                p.phase.name(),
                p.requests,
                p.shed,
                p.retried,
                p.timed_out,
                p.breaker_trips,
                p.fallback_served,
                if i + 1 < r.phases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"wall_secs\": {:.6}\n}}", r.wall_secs));
        s
    }
}

/// The benchmark suite `xpulpnn bench` runs: the paper's Fig. 8 4-bit
/// hardware-quantized layer on the seed single core, on the 8-core
/// cluster, and on the single-core Xrvv vector backend (VLEN 128) —
/// the third point of the XpulpV2 / XpulpNN-SIMD / vector comparison.
pub fn paper_bench_suite(seed: u64) -> Result<Vec<BenchRecord>, Error> {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let vec_cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::vector(128), true);
    Ok(vec![
        BenchRecord::single_core("single_core", cfg, seed)?,
        BenchRecord::cluster("cluster8", cfg, 8, seed)?,
        BenchRecord::single_core("vector", vec_cfg, seed)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::conv::ConvShape;

    fn small_cfg() -> ConvKernelConfig {
        let mut cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        cfg.shape = ConvShape {
            in_h: 4,
            in_w: 4,
            in_c: 16,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        cfg
    }

    #[test]
    fn single_core_record_carries_the_cycle_ledger() {
        let r = BenchRecord::single_core("single_core", small_cfg(), 42).unwrap();
        assert_eq!(r.cores, 1);
        assert!(r.cycles > 0);
        assert!(r.macs_per_cycle() > 0.0);
        let ledger_total: u64 = r.breakdown.iter().map(|(_, c)| c).sum();
        assert_eq!(ledger_total, r.cycles, "ledger must account every cycle");
        assert_eq!(r.per_core.len(), 1);
        assert!((r.per_core[0].utilization - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cluster_record_accounts_conflicts_and_dma() {
        let r = BenchRecord::cluster("cluster4", small_cfg(), 4, 42).unwrap();
        assert_eq!(r.cores, 4);
        assert_eq!(r.per_core.len(), 4);
        let get = |name: &str| {
            r.breakdown
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert!(get("dma_prologue_cycles") > 0);
        assert!(get("dma_writeback_cycles") > 0);
        for c in &r.per_core {
            assert!(c.utilization > 0.0 && c.utilization <= 1.0);
        }
    }

    #[test]
    fn host_throughput_record_is_verified_and_balanced() {
        let r = host_throughput_for(small_cfg(), 42).unwrap();
        assert!(r.cycles > 0 && r.instret > 0);
        assert!(r.reference_secs > 0.0 && r.replay_secs > 0.0);
        // The small layer still caches well; the hot loops dominate.
        assert!(r.hit_rate > 0.9, "hit rate {:.3}", r.hit_rate);
        assert_eq!(r.interp_fallbacks, 0);
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        for key in [
            "\"speedup\"",
            "\"block_cache_hit_rate\"",
            "\"replay_cycles_per_sec\"",
            "\"interp_fallbacks\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn host_throughput_report_adds_a_prefixed_vector_row() {
        let mut vec_cfg = small_cfg();
        vec_cfg.isa = KernelIsa::vector(128);
        let r = HostThroughputReport::measure(small_cfg(), vec_cfg, 42).unwrap();
        assert_eq!(r.vector.interp_fallbacks, 0);
        for row in [&r.armed, &r.traced] {
            assert_eq!(row.cycles, r.simd.cycles);
            assert!(row.secs > 0.0);
        }
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        // CI's 2x floor greps the one unprefixed `"speedup"` key.
        assert_eq!(j.matches("\"speedup\"").count(), 1, "{j}");
        for key in [
            "\"vector_kernel\"",
            "\"vector_reference_cycles_per_sec\"",
            "\"vector_replay_cycles_per_sec\"",
            "\"vector_speedup\"",
            "\"armed_cycles_per_sec\"",
            "\"armed_slowdown\"",
            "\"traced_cycles_per_sec\"",
            "\"traced_slowdown\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn serving_record_json_is_balanced_and_sane() {
        let rec = ServingRecord::run(serve::LoadgenConfig {
            requests: 8,
            workers: 2,
            ..serve::LoadgenConfig::default()
        })
        .unwrap();
        let r = &rec.report;
        assert_eq!(r.responses.len(), 8);
        assert!(r.sim_cycles.p50 <= r.sim_cycles.p99);
        assert!(r.sim_cycles.p99 <= r.sim_cycles.max);
        let j = rec.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        for key in [
            "\"label\": \"serving\"",
            "\"requests\": 8",
            "\"digest\"",
            "\"sim_cycles_p50\"",
            "\"sim_cycles_p99\"",
            "\"host_us_p99\"",
            "\"sustained_req_per_sec\"",
            "\"degraded\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn soak_record_json_is_balanced_and_sane() {
        let rec = SoakRecord::run(serve::SoakConfig {
            seed: 1,
            workers: 2,
            scale: 4,
            ..serve::SoakConfig::default()
        })
        .unwrap();
        let r = &rec.report;
        assert_eq!(r.responses.len(), 32);
        assert!(r.lost_ids().is_empty());
        assert_eq!(r.phases.len(), 5);
        let j = rec.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"label\": \"soak\"",
            "\"requests\": 32",
            "\"digest\"",
            "\"shed_queue_full\"",
            "\"shed_pressure\"",
            "\"retried\"",
            "\"timed_out\"",
            "\"breaker_trips\"",
            "\"reaps\"",
            "\"quarantines\"",
            "\"phase\": \"overload\"",
            "\"phase\": \"recovery\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn json_is_balanced_and_carries_the_fields() {
        let r = BenchRecord::cluster("cluster2", small_cfg(), 2, 42).unwrap();
        let j = r.to_json();
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"label\": \"cluster2\"",
            "\"cores\": 2",
            "\"macs_per_cycle\"",
            "\"bank_conflicts\"",
            "\"per_core\"",
            "\"utilization\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }
}
