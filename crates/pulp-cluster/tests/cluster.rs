//! Cluster-level acceptance tests: bit-exact equivalence against the
//! golden model across the full kernel matrix and every cluster size,
//! host-schedule invariance of simulated time, and the pinned
//! relationship between the single-hart cluster and the single-core
//! Fig. 8 measurement.

use pulp_cluster::{ClusterConvTestbench, ClusterRunResult};
use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
use qnn::conv::ConvShape;
use qnn::BitWidth;
use riscv_core::Core;

/// The testbench's schedule (`ClusterConvTestbench::drive`) with every
/// hart advanced by `Core::reference_step` alone: the uncached oracle
/// block replay is held to.
fn reference_run(tb: &ClusterConvTestbench, host_threads: usize) -> ClusterRunResult {
    let l2 = &tb.bench.layout;
    let mut sim = tb.stage();
    sim.set_host_threads(host_threads);
    for t in &tb.plan.prologue_transfers(l2) {
        sim.stats.dma_prologue += sim.dma_blocking(t);
    }
    let mut region = 0;
    loop {
        let band = tb.plan.band_transfer(l2, region);
        let step = Core::reference_step;
        match sim.run_region_with(tb.bench.cycle_budget(), band.as_ref(), step) {
            Ok(true) => break,
            Ok(false) => region += 1,
            Err(e) => panic!("reference run: {e}"),
        }
    }
    sim.stats.dma_writeback += sim.dma_blocking(&tb.plan.writeback(l2));
    tb.collect(&sim)
}

/// The same small layer the fault campaigns sweep: padding, several
/// channel blocks, multiple pixel pairs, word-aligned at every width.
fn small_shape(bits: BitWidth) -> ConvShape {
    ConvShape {
        in_h: 4,
        in_w: 4,
        in_c: (32 / bits.bits() as usize) * 2,
        out_c: 8,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    }
}

/// The eight-variant kernel matrix (the one Figs. 6/7 sweep), on the
/// small shape.
fn variants() -> Vec<ConvKernelConfig> {
    let mk = |bits, isa, hw| {
        let mut cfg = ConvKernelConfig::paper(bits, isa, hw);
        cfg.shape = small_shape(bits);
        cfg
    };
    vec![
        mk(BitWidth::W8, KernelIsa::XpulpV2, false),
        mk(BitWidth::W8, KernelIsa::XpulpNN, false),
        mk(BitWidth::W4, KernelIsa::XpulpV2, false),
        mk(BitWidth::W4, KernelIsa::XpulpNN, false),
        mk(BitWidth::W4, KernelIsa::XpulpNN, true),
        mk(BitWidth::W2, KernelIsa::XpulpV2, false),
        mk(BitWidth::W2, KernelIsa::XpulpNN, false),
        mk(BitWidth::W2, KernelIsa::XpulpNN, true),
    ]
}

/// Every kernel variant, on every supported cluster size, produces the
/// golden tensor bit-exactly — the parallel split, the DMA staging and
/// the TCDM-resident addressing change *where* bytes live and *when*
/// they are computed, never *what* they are.
#[test]
fn equivalence_matrix_all_variants_all_cluster_sizes() {
    for cfg in variants() {
        for n in [1, 2, 4, 8] {
            let tb = ClusterConvTestbench::new(cfg, n, 42)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", cfg.name()));
            let r = tb
                .run(2)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", cfg.name()));
            assert_eq!(r.exit_codes, vec![0; n], "{} n={n}", cfg.name());
            assert!(
                r.matches(),
                "{} n={n}: cluster output diverged from golden",
                cfg.name()
            );
            // The dynamic race detector agrees with the static SPMD
            // verifier: every shipped cluster kernel is write-disjoint
            // within each barrier region and never overlaps a band
            // transfer with bytes its region touches.
            assert_eq!(
                r.stats.conflict_bytes(),
                0,
                "{} n={n}: merge detected a cross-hart conflict",
                cfg.name()
            );
        }
    }
}

/// Block replay is a pure host-side accelerator: for every kernel
/// variant and every cluster size the replayed run reports cycles,
/// stats, per-hart counters and output bit-identical to a run driven
/// by reference steps alone.
#[test]
fn equivalence_matrix_is_bit_exact_under_fastpath() {
    for cfg in variants() {
        for n in [1, 2, 4, 8] {
            let tb = ClusterConvTestbench::new(cfg, n, 42)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", cfg.name()));
            let reference = reference_run(&tb, 2);
            let replay = tb
                .run(2)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", cfg.name()));
            assert!(reference.matches(), "{} n={n}", cfg.name());
            assert_eq!(reference.cycles, replay.cycles, "{} n={n}", cfg.name());
            assert_eq!(reference.stats, replay.stats, "{} n={n}", cfg.name());
            assert_eq!(reference.output, replay.output, "{} n={n}", cfg.name());
            assert_eq!(
                reference.exit_codes,
                replay.exit_codes,
                "{} n={n}",
                cfg.name()
            );
            assert_eq!(reference.per_hart, replay.per_hart, "{} n={n}", cfg.name());
        }
    }
}

/// The cluster pins: the 1-hart paper layer at 1,444,386 cycles and
/// the 8-hart paper layer at 190,138 cycles (EXPERIMENTS.md
/// cluster-scaling table), bit-exact under block replay and, for the
/// 8-hart layer, under reference steps alone.
#[test]
fn cluster_pins_hold_under_fastpath() {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let one = ClusterConvTestbench::new(cfg, 1, 42)
        .unwrap()
        .run(1)
        .unwrap();
    assert!(one.matches());
    assert_eq!(one.cycles, 1_444_386);
    assert_eq!(one.stats.conflict_bytes(), 0);
    let tb = ClusterConvTestbench::new(cfg, 8, 42).unwrap();
    let eight = tb.run(8).unwrap();
    assert!(eight.matches());
    assert_eq!(eight.cycles, 190_138);
    let reference = reference_run(&tb, 8);
    assert_eq!(reference.cycles, 190_138);
    assert_eq!(reference.per_hart, eight.per_hart);
    // Conflict detection is always on: the pins hold with it enabled
    // and the paper layer is race-clean on both cluster sizes.
    assert_eq!(eight.stats.conflict_bytes(), 0);
}

/// Simulated time is a pure function of architectural state: the
/// 8-hart paper layer reports bit-identical cycles, stats, counters and
/// output whether the harts are simulated on 1, 2 or 8 host threads.
#[test]
fn cluster_cycles_are_host_schedule_invariant() {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let tb = ClusterConvTestbench::new(cfg, 8, 42).unwrap();
    let runs: Vec<_> = [1, 2, 8]
        .iter()
        .map(|&threads| tb.run(threads).unwrap())
        .collect();
    for r in &runs[1..] {
        assert_eq!(runs[0].cycles, r.cycles);
        assert_eq!(runs[0].output, r.output);
        assert_eq!(runs[0].stats, r.stats);
        assert_eq!(runs[0].exit_codes, r.exit_codes);
        for h in 0..8 {
            assert_eq!(runs[0].per_hart[h], r.per_hart[h]);
        }
    }
    assert!(runs[0].matches());
}

/// The single-hart cluster against the single-core Fig. 8 pin
/// (1,440,804 cycles, `faultsim::disarmed_runs_cost_nothing`). The
/// delta is fully accounted:
///
/// * **+7,605** blocking DMA the single-core run does not model —
///   5,541 prologue (dispatch tables, descriptors, weights,
///   thresholds, input band 0) + 2,064 output write-back;
/// * **−4,023** compute — the parallel kernel receives its im2col base
///   from the dispatch record in `tp` (1-cycle `mv` per im2col/matmul
///   call instead of the single-core 2-cycle `li`), which outweighs
///   the added dispatch prologue and barrier stores;
/// * net **+3,582**: 1,444,386 total.
///
/// A change to either builder's per-pair code moves this pin — that is
/// the point: the two instruction streams are otherwise locked.
#[test]
fn single_hart_cluster_matches_the_fig8_pin() {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let tb = ClusterConvTestbench::new(cfg, 1, 42).unwrap();
    let r = tb.run(1).unwrap();
    assert!(r.matches());
    assert_eq!(r.cycles, 1_444_386);
    assert_eq!(r.stats.dma_prologue, 5_541);
    assert_eq!(r.stats.dma_writeback, 2_064);
    let compute = r.cycles - r.stats.dma_prologue - r.stats.dma_writeback;
    assert_eq!(compute, 1_440_804 - 4_023);
    // One hart never conflicts with itself — neither in the bank
    // arbiter nor in the merge's race detector.
    assert_eq!(r.stats.conflicts, 0);
    assert_eq!(r.stats.conflict_bytes(), 0);
    // Single-hart cluster output equals the single-core device output.
    let single = ConvTestbench::new(cfg, 42).unwrap().run().unwrap();
    assert_eq!(r.output, single.output);
}

/// The acceptance bar: the 8-hart cluster runs the Fig. 8 4-bit layer
/// at ≥ 6× the single-core cycle count, bit-exactly. (Measured: 7.58×
/// — sub-linear because of bank conflicts, the serial DMA prologue and
/// write-back, and barrier skew; see EXPERIMENTS.md.)
#[test]
fn eight_hart_paper_layer_speedup() {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let tb = ClusterConvTestbench::new(cfg, 8, 42).unwrap();
    let r = tb.run(8).unwrap();
    assert!(r.matches());
    let speedup = 1_440_804.0 / r.cycles as f64;
    assert!(
        speedup >= 6.0,
        "8-hart speedup {speedup:.2}x below the 6x acceptance bar ({} cycles)",
        r.cycles
    );
    // The banked TCDM is genuinely contended — conflicts exist and are
    // accounted — yet every hart stays busy most of the run.
    assert!(r.stats.conflicts > 0);
    assert!(r.stats.conflict_stalls >= r.stats.conflicts);
    for h in 0..8 {
        assert!(
            r.utilization(h) > 0.85,
            "hart {h} utilization {:.2} too low",
            r.utilization(h)
        );
    }
}

/// Input-band DMA genuinely overlaps compute on the paper layer: the
/// layer splits into 4 tiles and every band transfer hides completely
/// under its region.
#[test]
fn paper_layer_band_dma_is_fully_hidden() {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    for n in [1, 8] {
        let tb = ClusterConvTestbench::new(cfg, n, 42).unwrap();
        assert_eq!(tb.plan.tcdm.tiles, 4);
        let r = tb.run(2).unwrap();
        assert!(r.stats.dma_hidden > 0, "n={n}: no overlapped DMA");
        assert_eq!(r.stats.dma_exposed, 0, "n={n}: band DMA leaked");
    }
}
