//! Host-side testbench: generates a layer's tensors, builds the kernel,
//! loads the SoC, runs, and checks the device output against the golden
//! model.

use crate::config::{ConvKernelConfig, KernelIsa, QuantMode};
use crate::descriptors::{encode_descriptors, im2col_descriptors};
use crate::emit::build_conv_program;
use crate::layout::LayerLayout;
use pulp_asm::{AsmError, Program};
use pulp_soc::{RunReport, Soc};
use qnn::quantizer::{Quantizer, ThresholdSet};
use qnn::rng::TensorRng;
use qnn::tensor::QuantTensor;
use riscv_core::quant::{eytzinger, tree_stride};
use riscv_core::{IsaConfig, Trap};
use std::fmt;

/// Failed to construct (or, for one-shot helpers, run) a testbench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The kernel configuration is invalid.
    Config(crate::config::ConfigError),
    /// The generator produced un-assemblable code (a generator bug).
    Asm(AsmError),
    /// The simulator trapped while running a one-shot helper.
    Trap(Trap),
    /// A caller-supplied tensor does not fit the configuration (wrong
    /// length, width, out-of-range values, or a missing/superfluous
    /// threshold set).
    Tensor {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => e.fmt(f),
            BuildError::Asm(e) => e.fmt(f),
            BuildError::Trap(t) => t.fmt(f),
            BuildError::Tensor { what } => write!(f, "tensor mismatch: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Result of one verified kernel run.
#[derive(Debug, Clone)]
pub struct ConvRunResult {
    /// Exit status and performance counters.
    pub report: RunReport,
    /// Device output, unpacked to logical values.
    pub output: Vec<i16>,
    /// Golden output from [`qnn::conv::conv2d_quantized`].
    pub golden: Vec<i16>,
    /// Forensic tail of the instruction stream, captured by a traced
    /// re-run when the output mismatches the golden model (`None` on a
    /// clean run).
    pub trace: Option<String>,
}

impl ConvRunResult {
    /// True when the device output matches the golden model bit-exactly.
    pub fn matches(&self) -> bool {
        self.output == self.golden
    }

    /// Total kernel cycles.
    pub fn cycles(&self) -> u64 {
        self.report.perf.cycles
    }

    /// Multiply-accumulates per cycle achieved by the kernel; 0 when no
    /// cycles were recorded (e.g. an immediately-trapping run).
    pub fn macs_per_cycle(&self, cfg: &ConvKernelConfig) -> f64 {
        if self.report.perf.cycles == 0 {
            0.0
        } else {
            cfg.shape.macs() as f64 / self.report.perf.cycles as f64
        }
    }
}

/// A ready-to-run convolution layer: program + synthetic tensors.
#[derive(Debug, Clone)]
pub struct ConvTestbench {
    /// The kernel configuration.
    pub cfg: ConvKernelConfig,
    /// The L2 layout in use.
    pub layout: LayerLayout,
    /// The generated program (inspect `program.listing()` for the code).
    pub program: Program,
    input: QuantTensor,
    weights: QuantTensor,
    thresholds: Option<ThresholdSet>,
    quantizer: Quantizer,
}

impl ConvTestbench {
    /// Builds the kernel and deterministic synthetic tensors for `cfg`.
    ///
    /// # Errors
    ///
    /// [`BuildError`] if the configuration is invalid or the generator
    /// emits un-assemblable code.
    pub fn new(cfg: ConvKernelConfig, seed: u64) -> Result<ConvTestbench, BuildError> {
        cfg.validate().map_err(BuildError::Config)?;
        let layout = LayerLayout::default_for_l2();
        let program = build_conv_program(&cfg, &layout)?;
        let mut rng = TensorRng::new(seed);
        let input = rng.activations(cfg.bits, cfg.shape.input_len());
        let weights = rng.weights(cfg.bits, cfg.shape.weight_len());
        let (thresholds, quantizer) = match cfg.quant {
            QuantMode::Shift8 { shift } => (
                None,
                Quantizer::Shift8 {
                    shift,
                    bias: vec![],
                },
            ),
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => {
                let t = rng.thresholds(cfg.out_bits, cfg.shape.out_c, -2000, 2000);
                (Some(t.clone()), Quantizer::Thresholds(t))
            }
        };
        Ok(ConvTestbench {
            cfg,
            layout,
            program,
            input,
            weights,
            thresholds,
            quantizer,
        })
    }

    /// Builds a testbench around caller-supplied tensors (e.g. to chain
    /// layers: feed one layer's output in as the next layer's input).
    ///
    /// # Errors
    ///
    /// [`BuildError`] for invalid configurations, and
    /// [`BuildError::Tensor`] if tensor lengths or widths do not match
    /// the shape, or if a threshold set is missing/superfluous for the
    /// quantization mode.
    pub fn from_parts(
        cfg: ConvKernelConfig,
        input: QuantTensor,
        weights: QuantTensor,
        thresholds: Option<ThresholdSet>,
    ) -> Result<ConvTestbench, BuildError> {
        cfg.validate().map_err(BuildError::Config)?;
        let tensor_err = |what| Err(BuildError::Tensor { what });
        if input.len() != cfg.shape.input_len() {
            return tensor_err("input length mismatch");
        }
        if weights.len() != cfg.shape.weight_len() {
            return tensor_err("weight length mismatch");
        }
        if input.bits() != cfg.bits {
            return tensor_err("input width mismatch");
        }
        if weights.bits() != cfg.bits {
            return tensor_err("weight width mismatch");
        }
        let layout = LayerLayout::default_for_l2();
        let program = build_conv_program(&cfg, &layout)?;
        let quantizer = match cfg.quant {
            QuantMode::Shift8 { shift } => {
                if thresholds.is_some() {
                    return tensor_err("8-bit kernels take no thresholds");
                }
                Quantizer::Shift8 {
                    shift,
                    bias: vec![],
                }
            }
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => {
                let Some(t) = thresholds.clone() else {
                    return tensor_err("sub-byte kernels need thresholds");
                };
                if t.channels() != cfg.shape.out_c {
                    return tensor_err("threshold channel mismatch");
                }
                Quantizer::Thresholds(t)
            }
        };
        Ok(ConvTestbench {
            cfg,
            layout,
            program,
            input,
            weights,
            thresholds,
            quantizer,
        })
    }

    /// The input tensor this testbench will load.
    pub fn input(&self) -> &QuantTensor {
        &self.input
    }

    /// The packed input image, exactly as staged at `layout.input`.
    pub fn packed_input(&self) -> Vec<u8> {
        self.input.pack()
    }

    /// The packed weight image, exactly as staged at `layout.weights`.
    pub fn packed_weights(&self) -> Vec<u8> {
        self.weights.pack()
    }

    /// The threshold-tree memory image: `channels · stride` bytes with
    /// channel `ch`'s Eytzinger heap at offset `ch · stride` — the same
    /// bytes [`ConvTestbench::stage`] writes at `layout.thresholds`.
    /// `None` for shift-quantized (8-bit) kernels.
    pub fn threshold_image(&self) -> Option<Vec<u8>> {
        let t = self.thresholds.as_ref()?;
        let stride = tree_stride(crate::emit::simd_fmt(self.cfg.out_bits)) as usize;
        let mut image = vec![0u8; t.channels() * stride];
        for ch in 0..t.channels() {
            let heap = eytzinger(t.channel(ch));
            let bytes: Vec<u8> = heap.iter().flat_map(|v| v.to_le_bytes()).collect();
            image[ch * stride..ch * stride + bytes.len()].copy_from_slice(&bytes);
        }
        Some(image)
    }

    /// The core configuration this kernel requires.
    pub fn isa_config(&self) -> IsaConfig {
        match self.cfg.isa {
            KernelIsa::XpulpV2 => IsaConfig::xpulpv2(),
            KernelIsa::XpulpNN => IsaConfig::xpulpnn(),
            KernelIsa::Vector { .. } => IsaConfig::vector(),
        }
    }

    /// Loads program and data into a fresh SoC (carrying a vector unit
    /// of the configured VLEN for the vector backend).
    pub fn stage(&self) -> Soc {
        let mut soc = match self.cfg.isa.vlen_bits() {
            Some(vlen) => Soc::with_vlen(self.isa_config(), vlen),
            None => Soc::new(self.isa_config()),
        };
        soc.load(&self.program);
        soc.mem.write_bytes(self.layout.input, &self.input.pack());
        soc.mem
            .write_bytes(self.layout.weights, &self.weights.pack());
        let descs = im2col_descriptors(&self.cfg, self.layout.input);
        soc.mem
            .write_bytes(self.layout.descriptors, &encode_descriptors(&descs));
        if let Some(t) = &self.thresholds {
            let stride = tree_stride(crate::emit::simd_fmt(self.cfg.out_bits));
            for ch in 0..t.channels() {
                let heap = eytzinger(t.channel(ch));
                let bytes: Vec<u8> = heap.iter().flat_map(|v| v.to_le_bytes()).collect();
                soc.mem
                    .write_bytes(self.layout.thresholds + ch as u32 * stride, &bytes);
            }
        }
        soc
    }

    /// The watchdog budget [`ConvTestbench::run`] uses: generous (every
    /// variant runs well under 40 cycles/MAC), so exhausting it means a
    /// runaway kernel, not a slow one. Public so external drivers (fault
    /// injection, network recovery) apply the same contract.
    pub fn cycle_budget(&self) -> u64 {
        10_000_000 + self.cfg.shape.macs() * 40
    }

    /// Runs the kernel to completion and verifies against the golden
    /// model.
    ///
    /// Failures come with forensics: the simulation is deterministic, so
    /// on a trap or a golden-model mismatch the kernel is re-run with an
    /// execution tracer attached and the tail of the instruction stream
    /// is reported — on stderr for a trap, in [`ConvRunResult::trace`]
    /// for a mismatch. The first (hot) run itself is never traced.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps (a trap always indicates a kernel or
    /// model bug).
    pub fn run(&self) -> Result<ConvRunResult, Trap> {
        let mut soc = self.stage();
        let report = match soc.run(self.cycle_budget()) {
            Ok(r) => r,
            Err(trap) => {
                eprintln!(
                    "kernel {} trapped: {trap}\n{}",
                    self.cfg.name(),
                    self.trace_tail()
                );
                return Err(trap);
            }
        };
        Ok(self.collect(&soc, report))
    }

    /// Runs like [`ConvTestbench::run`] but with an execution tracer
    /// attached for the whole run, returning the tracer alongside the
    /// verified result — the input to hotspot profiling.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps, after dumping the trace tail to
    /// stderr.
    pub fn run_profiled(
        &self,
        ring: usize,
    ) -> Result<(ConvRunResult, Box<riscv_core::ExecTracer>), Trap> {
        let mut soc = self.stage();
        soc.core.attach_tracer(ring);
        let outcome = soc.run(self.cycle_budget());
        let tracer = soc.core.take_tracer().expect("tracer was attached");
        match outcome {
            Ok(report) => Ok((self.collect(&soc, report), tracer)),
            Err(trap) => {
                eprintln!(
                    "kernel {} trapped: {trap}\n{}",
                    self.cfg.name(),
                    tracer.dump_tail()
                );
                Err(trap)
            }
        }
    }

    /// The layer's golden output from the software model — what the
    /// device must produce, and what graceful degradation falls back to.
    pub fn golden(&self) -> Vec<i16> {
        qnn::conv::conv2d_quantized(
            &self.cfg.shape,
            self.input.values(),
            self.weights.values(),
            &self.quantizer,
        )
    }

    /// The golden output for a *caller-supplied* input under this
    /// testbench's weights and quantizer — what a serving worker must
    /// produce for a request carrying that input. The values must
    /// already be range-valid for `cfg.bits` (the serving layer
    /// validates at submit time).
    pub fn golden_for(&self, input: &[i16]) -> Vec<i16> {
        qnn::conv::conv2d_quantized(
            &self.cfg.shape,
            input,
            self.weights.values(),
            &self.quantizer,
        )
    }

    /// Unpacks the device output, runs the golden model, and flags a
    /// mismatch with a forensic re-run. Public so external drivers
    /// (fault injection) can run a staged SoC themselves and still get
    /// a verified result.
    pub fn collect(&self, soc: &Soc, report: RunReport) -> ConvRunResult {
        let out_len = self.cfg.shape.output_len();
        let out_bytes = qnn::tensor::packed_len(self.cfg.out_bits, out_len);
        let packed = soc.mem.read_bytes(self.layout.output, out_bytes);
        let output = qnn::tensor::unpack(self.cfg.out_bits, false, packed, out_len);
        let golden = self.golden();
        let mut result = ConvRunResult {
            report,
            output,
            golden,
            trace: None,
        };
        if !result.matches() {
            result.trace = Some(self.trace_tail());
        }
        result
    }

    /// Re-runs the kernel with an execution tracer attached and returns
    /// the dump of the last retired instructions (plus the trap, if the
    /// run ends in one). The simulator is deterministic, so this
    /// reproduces a failing run exactly.
    pub fn trace_tail(&self) -> String {
        const RING: usize = 64;
        let mut soc = self.stage();
        soc.core.attach_tracer(RING);
        let outcome = soc.run(self.cycle_budget());
        let tracer = soc.core.take_tracer().expect("tracer was attached");
        let mut s = tracer.dump_tail();
        if let Err(trap) = outcome {
            s.push_str(&format!("run ended in trap: {trap}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::conv::ConvShape;
    use qnn::BitWidth;

    /// A small layer exercising padding, multiple channel blocks and
    /// several pixel pairs, sized so in_c·bits is word-aligned at every
    /// width.
    fn small_shape(bits: BitWidth) -> ConvShape {
        let in_c = (32 / bits.bits() as usize) * 2;
        ConvShape {
            in_h: 4,
            in_w: 4,
            in_c,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    /// The kernel driven by `Core::reference_step` alone: the uncached
    /// oracle block replay is held to.
    fn reference_run(tb: &ConvTestbench) -> ConvRunResult {
        let mut soc = tb.stage();
        let before = soc.core.perf;
        while !soc.core.reference_step(&mut soc.mem).expect("trap") {}
        let exit = riscv_core::ExitStatus {
            halted: true,
            exit_code: soc.core.reg(pulp_isa::Reg::A0),
            pc: soc.core.pc,
        };
        let perf = soc.core.perf.delta_since(&before);
        tb.collect(&soc, RunReport { exit, perf })
    }

    fn check(cfg: ConvKernelConfig, seed: u64) -> ConvRunResult {
        let tb = ConvTestbench::new(cfg, seed).unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        let r = tb.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        assert!(r.report.exit.halted, "{} did not halt", cfg.name());
        assert_eq!(r.report.exit.exit_code, 0, "{}", cfg.name());
        if !r.matches() {
            let diffs: Vec<_> = r
                .output
                .iter()
                .zip(&r.golden)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .take(8)
                .collect();
            panic!(
                "{}: output mismatch, first diffs {:?}\n{}",
                cfg.name(),
                diffs,
                r.trace.as_deref().unwrap_or("")
            );
        }
        r
    }

    #[test]
    fn trace_tail_reproduces_the_run() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 12).unwrap();
        let tail = tb.trace_tail();
        // The dump ends at the halt and carries disassembly + pc columns.
        assert!(tail.contains("ecall"), "missing halt in:\n{tail}");
        assert!(tail.contains("retired instructions"));
        // A clean run attaches no trace to the result.
        let r = tb.run().unwrap();
        assert!(r.matches());
        assert!(r.trace.is_none());
        // And the per-run ledger balances.
        assert_eq!(r.report.perf.ledger.total(), r.report.perf.cycles);
    }

    #[test]
    fn block_replay_is_bit_exact_with_reference_step() {
        for (bits, quant) in [
            (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
            (BitWidth::W4, QuantMode::HardwareQnt),
            (BitWidth::W4, QuantMode::SoftwareTree),
            (BitWidth::W2, QuantMode::HardwareQnt),
        ] {
            let cfg = ConvKernelConfig {
                shape: small_shape(bits),
                bits,
                out_bits: bits,
                isa: KernelIsa::XpulpNN,
                quant,
            };
            let tb = ConvTestbench::new(cfg, 21).unwrap();
            let reference = reference_run(&tb);
            let burst = tb.run().unwrap();
            let (per_op, _) = tb.run_profiled(16).unwrap();
            assert!(burst.matches(), "{}", cfg.name());
            for r in [&burst, &per_op] {
                assert_eq!(reference.report, r.report, "{}", cfg.name());
                assert_eq!(reference.output, r.output, "{}", cfg.name());
            }
        }
    }

    /// The Fig. 8 pinned cycle count (4-bit hardware-quantized layer,
    /// standard seed) must hold bit-exactly under burst block replay
    /// and under reference steps alone; `faultsim`'s
    /// `disarmed_runs_cost_nothing` pins the same constants for per-op
    /// replay.
    #[test]
    fn block_replay_pins_fig8_cycle_count() {
        let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        let tb = ConvTestbench::new(cfg, 42).unwrap();
        let r = tb.run().unwrap();
        assert!(r.matches());
        assert_eq!(r.report.perf.cycles, 1_440_804);
        assert_eq!(r.report.perf.instret, 1_337_750);
        assert_eq!(r.report.perf.ledger.total(), r.report.perf.cycles);
        assert_eq!(reference_run(&tb).report, r.report);
    }

    /// The Fig. 8 4-bit layer on the Xrvv backend (EXPERIMENTS.md
    /// three-way table): pinned at VLEN 128 and 256, bit-exact between
    /// burst block replay and reference steps, golden-matched, ledger
    /// balanced.
    #[test]
    fn block_replay_pins_fig8_vector_cycle_count() {
        for (vlen, cycles) in [(128, 1_387_556), (256, 1_092_644)] {
            let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::vector(vlen), true);
            let tb = ConvTestbench::new(cfg, 42).unwrap();
            let r = tb.run().unwrap();
            assert!(r.matches(), "VLEN {vlen}");
            assert_eq!(r.report.perf.cycles, cycles, "VLEN {vlen}");
            assert_eq!(r.report.perf.ledger.total(), r.report.perf.cycles);
            let reference = reference_run(&tb);
            assert_eq!(reference.report, r.report, "VLEN {vlen}");
            assert_eq!(reference.output, r.output, "VLEN {vlen}");
        }
    }

    #[test]
    fn trace_tail_rerun_never_perturbs_caller_observed_counters() {
        // The auto-dump re-run (`trace_tail`) must stage a *fresh* SoC:
        // the perf counters and cycle ledger a caller observes from
        // `run()` have to be identical whether or not a forensic dump
        // fired in between.
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 12).unwrap();
        let r1 = tb.run().unwrap();
        let _ = tb.trace_tail(); // simulate a trap-triggered dump
        let r2 = tb.run().unwrap();
        assert_eq!(r1.report.perf, r2.report.perf);
        assert_eq!(r1.report.perf.ledger, r2.report.perf.ledger);
        assert_eq!(r1.report.perf.ledger.total(), r1.report.perf.cycles);
        // And the counters are the reference step's.
        assert_eq!(reference_run(&tb).report.perf, r1.report.perf);
    }

    #[test]
    fn native_w8_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W8,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        check(cfg, 11);
    }

    #[test]
    fn native_w4_hwquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        check(cfg, 12);
    }

    #[test]
    fn native_w4_swquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 13);
    }

    #[test]
    fn native_w2_hwquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W2),
            bits: BitWidth::W2,
            out_bits: BitWidth::W2,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        check(cfg, 14);
    }

    /// Every vector-backend variant, at both comparison VLENs, must be
    /// bit-identical to the golden `qnn` reference — the same contract
    /// the SIMD kernels hold.
    #[test]
    fn vector_small_layers_match_golden_at_both_vlens() {
        for vlen in [128u32, 256] {
            for (bits, quant) in [
                (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
                (BitWidth::W4, QuantMode::HardwareQnt),
                (BitWidth::W4, QuantMode::SoftwareTree),
                (BitWidth::W2, QuantMode::HardwareQnt),
                (BitWidth::W2, QuantMode::SoftwareTree),
            ] {
                let cfg = ConvKernelConfig {
                    shape: small_shape(bits),
                    bits,
                    out_bits: bits,
                    isa: KernelIsa::vector(vlen),
                    quant,
                };
                check(cfg, 31);
            }
        }
    }

    #[test]
    fn vector_and_simd_backends_agree_bit_exactly() {
        // Same data, same quantizer semantics: the two backends differ
        // only in cycles.
        for bits in [BitWidth::W4, BitWidth::W2] {
            let mk = |isa| ConvKernelConfig {
                shape: small_shape(bits),
                bits,
                out_bits: bits,
                isa,
                quant: QuantMode::HardwareQnt,
            };
            let r_nn = check(mk(KernelIsa::XpulpNN), 33);
            let r_vec = check(mk(KernelIsa::vector(128)), 33);
            assert_eq!(r_nn.output, r_vec.output, "{bits}");
        }
    }

    #[test]
    fn wider_vlen_never_costs_more_cycles() {
        let mk = |vlen| ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::vector(vlen),
            quant: QuantMode::HardwareQnt,
        };
        let r128 = check(mk(128), 35);
        let r256 = check(mk(256), 35);
        assert_eq!(r128.output, r256.output);
        assert!(
            r256.cycles() < r128.cycles(),
            "doubling VLEN must shorten the strip loop: {} vs {}",
            r256.cycles(),
            r128.cycles()
        );
    }

    #[test]
    fn vector_run_charges_the_vector_ledger_buckets() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::vector(128),
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 36).unwrap();
        let r = tb.run().unwrap();
        assert!(r.matches());
        use riscv_core::perf::CycleClass;
        let ledger = r.report.perf.ledger;
        assert!(ledger.get(CycleClass::VecDot) > 0, "vdot cycles");
        assert!(ledger.get(CycleClass::VecQnt) > 0, "vqnt cycles");
        assert!(ledger.get(CycleClass::VecLoad) > 0, "vle cycles");
        assert!(ledger.get(CycleClass::VecCfg) > 0, "vsetvli cycles");
        assert!(r.report.perf.vec_macs > 0, "vector MACs counted");
        assert_eq!(ledger.total(), r.report.perf.cycles);
        // And reference steps reproduce the run bit-exactly.
        let reference = reference_run(&tb);
        assert_eq!(reference.report, r.report);
        assert_eq!(reference.output, r.output);
    }

    #[test]
    fn baseline_w4_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 15);
    }

    #[test]
    fn baseline_w2_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W2),
            bits: BitWidth::W2,
            out_bits: BitWidth::W2,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 16);
    }

    #[test]
    fn baseline_w8_equals_native_w8_cycles() {
        // The 8-bit kernel is identical on both cores (XpulpNN adds
        // nothing at 8 bits).
        let mk = |isa| ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W8,
            isa,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        let r_v2 = check(mk(KernelIsa::XpulpV2), 17);
        let r_nn = check(mk(KernelIsa::XpulpNN), 17);
        assert_eq!(r_v2.cycles(), r_nn.cycles());
        assert_eq!(r_v2.output, r_nn.output);
    }

    #[test]
    fn hw_and_sw_quant_agree_bit_exactly() {
        // Fig. 6's two variants must produce identical tensors — only
        // the cycle count differs.
        let mk = |quant| ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant,
        };
        let hw = check(mk(QuantMode::HardwareQnt), 18);
        let sw = check(mk(QuantMode::SoftwareTree), 18);
        assert_eq!(hw.output, sw.output);
        assert!(
            hw.cycles() < sw.cycles(),
            "pv.qnt must beat the software tree ({} vs {})",
            hw.cycles(),
            sw.cycles()
        );
    }

    /// Mixed precision (per-layer quantization, the introduction's
    /// motivating use-case): every operand-width → output-width
    /// combination verifies against the golden model.
    #[test]
    fn mixed_precision_all_combinations_match_golden() {
        for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
            for out_bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
                if bits == out_bits {
                    continue; // homogeneous cases covered elsewhere
                }
                let cfg = ConvKernelConfig::mixed(small_shape(bits), bits, out_bits);
                check(cfg, 60 + out_bits.bits() as u64);
            }
        }
    }

    /// Mixed precision with the software tree (works on the baseline ISA
    /// too: thresholding needs no XpulpNN instruction).
    #[test]
    fn mixed_precision_sw_tree_on_baseline() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 61);
    }

    #[test]
    fn strided_and_rectangular_shapes_match_golden() {
        for bits in [BitWidth::W4, BitWidth::W2] {
            let in_c = (32 / bits.bits() as usize) * 2;
            let shape = ConvShape {
                in_h: 6,
                in_w: 5,
                in_c,
                out_c: 4,
                k_h: 3,
                k_w: 3,
                stride: 2,
                pad: 1,
            };
            // 3×3 output = 9 pixels (odd) -> bump width for even pixels.
            let shape = ConvShape { in_w: 7, ..shape }; // 3×4 = 12 pixels
            let cfg = ConvKernelConfig {
                shape,
                bits,
                out_bits: bits,
                isa: KernelIsa::XpulpNN,
                quant: QuantMode::HardwareQnt,
            };
            check(cfg, 19);
        }
    }
}
