//! The armed execution driver: checkpoints, injects, and classifies.
//!
//! Fault injection is deliberately *external* to the core: the driver
//! runs the core in bursts of [`Core::run`] between scheduling points
//! (the next flip, the next checkpoint, the watchdog) and applies due
//! flips at those retire boundaries, directly on the architectural
//! state (`core.regs`) or through the host-side memory API (which
//! bypasses the bus and so never perturbs the perf counters). The core
//! itself carries **no hooks at all**, so a disarmed run is the
//! unmodified hot path by construction — the `disarmed_runs_cost_nothing`
//! test pins the Fig. 8 benchmark layer to its exact pre-faultsim cycle
//! count.
//!
//! The armed run is never traced. When it traps and diagnostics are
//! asked for ([`ArmConfig::trace_depth`]), the driver restores the
//! run's initial state, attaches the tracer and drives the same plan
//! again; the deterministic re-run retires the same instructions, so
//! its trace tail and hot PCs are the trapped run's.
//!
//! The driver also keeps a rolling checkpoint ([`Soc::snapshot`]) up to
//! the first injection. Under the transient (soft-error) fault model,
//! restoring that pre-fault checkpoint and re-running *without* the
//! plan is a complete recovery — that is what the network layer's
//! retry path and the campaign replay build on.

use crate::plan::{FaultEvent, FaultPlan, FaultTarget};
use pulp_soc::{Soc, SocMem, SocSnapshot};
use riscv_core::{Core, ExecTracer, ExitStatus, PerfCounters, Trap};
use std::fmt;

/// Knobs of one armed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmConfig {
    /// Watchdog cycle budget (flips can turn kernels into hangs).
    pub budget: u64,
    /// Cycles between rolling pre-fault checkpoints.
    pub checkpoint_interval: u64,
    /// Execution-tracer ring size of the diagnostics on a trap; 0
    /// disables them. The armed run itself is never traced: a run that
    /// traps is re-run from its initial state with the tracer attached.
    pub trace_depth: usize,
}

impl Default for ArmConfig {
    fn default() -> ArmConfig {
        ArmConfig {
            budget: 100_000_000,
            checkpoint_interval: 10_000,
            trace_depth: 64,
        }
    }
}

/// One flip as actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The scheduled event.
    pub event: FaultEvent,
    /// Cycle count at the moment of injection (first retire boundary at
    /// or after `event.cycle`).
    pub at_cycle: u64,
    /// PC of the next instruction at injection time.
    pub pc: u32,
    /// Value before the flip (register word, or byte widened).
    pub before: u32,
    /// Value after the flip.
    pub after: u32,
}

impl fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (applied at cycle {}, pc {:#010x}: {:#x} -> {:#x})",
            self.event, self.at_cycle, self.pc, self.before, self.after
        )
    }
}

/// Everything one armed run produced.
#[derive(Debug, Clone)]
pub struct ArmedRun {
    /// Halt status, or the trap (watchdog included) that ended the run.
    pub exit: Result<ExitStatus, Trap>,
    /// Perf-counter delta for this run only.
    pub perf: PerfCounters,
    /// Flips applied, in order.
    pub injections: Vec<InjectionRecord>,
    /// The newest checkpoint taken *before* the first injection (the
    /// initial state if the first flip lands before the first
    /// checkpoint interval elapses). Restoring it and re-running
    /// disarmed recovers from any transient fault.
    pub pre_fault: SocSnapshot,
    /// Checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Last retired instructions of a run that trapped with
    /// `trace_depth > 0`, from its traced re-run; empty otherwise.
    pub trace_tail: String,
    /// Hottest PCs of that traced re-run; empty otherwise.
    pub hot_pcs: String,
}

impl ArmedRun {
    /// The trap that ended the run, if any.
    pub fn trap(&self) -> Option<&Trap> {
        self.exit.as_ref().err()
    }
}

/// A machine whose memory a fault flip strikes behind the bus.
pub(crate) trait FlipMem {
    /// The byte at `addr`.
    fn byte(&self, addr: u32) -> u8;
    /// Overwrites the byte at `addr` and drops the decoded blocks of
    /// every core whose fetched code covers it.
    fn set_byte(&mut self, addr: u32, value: u8);
}

impl FlipMem for (&mut Core, &mut SocMem) {
    fn byte(&self, addr: u32) -> u8 {
        self.1.read_bytes(addr, 1)[0]
    }

    fn set_byte(&mut self, addr: u32, value: u8) {
        self.1.write_bytes(addr, &[value]);
        self.0.invalidate_code(addr, 1);
    }
}

/// The one memory-flip path of every fault driver: flips `bit` of the
/// byte at `addr`, dropping covering decoded blocks so a flip into an
/// instruction takes effect at the very next fetch. Returns the byte
/// before and after.
pub(crate) fn flip_mem_bit(m: &mut impl FlipMem, addr: u32, bit: u32) -> (u32, u32) {
    let before = m.byte(addr);
    let after = before ^ (1 << bit);
    m.set_byte(addr, after);
    (u32::from(before), u32::from(after))
}

/// Applies one flip to the SoC, recording old and new values.
fn apply(soc: &mut Soc, event: &FaultEvent) -> InjectionRecord {
    let (before, after) = match event.target {
        FaultTarget::Register { reg, bit } => {
            let before = soc.core.regs[reg];
            // `x0` is never generated, but guard anyway: flipping it
            // would model a physically absent flop.
            let after = if reg == 0 {
                before
            } else {
                before ^ (1 << bit)
            };
            soc.core.regs[reg] = after;
            (before, after)
        }
        FaultTarget::Memory { addr, bit } => {
            flip_mem_bit(&mut (&mut soc.core, &mut soc.mem), addr, bit)
        }
    };
    InjectionRecord {
        event: *event,
        at_cycle: soc.core.perf.cycles,
        pc: soc.core.pc,
        before,
        after,
    }
}

/// Runs `soc` to completion under `plan`.
///
/// Semantics match [`Soc::run`] exactly when the plan is empty; with
/// events, each flip is applied at the first instruction boundary where
/// the cycle counter has reached its scheduled cycle. A run that traps
/// with `cfg.trace_depth > 0` is re-run from its initial state with the
/// tracer attached, for [`ArmedRun::trace_tail`] and
/// [`ArmedRun::hot_pcs`]; `soc` ends in the same state either way.
pub fn run_armed(soc: &mut Soc, plan: &FaultPlan, cfg: &ArmConfig) -> ArmedRun {
    let before = soc.core.perf;
    if cfg.trace_depth > 0 {
        // The diagnostics replace any tracer the caller attached.
        soc.core.take_tracer();
    }
    let mut pre_fault = soc.snapshot();
    // The run's initial state, kept for the diagnostic re-run once a
    // later checkpoint replaces it as `pre_fault`.
    let mut initial: Option<SocSnapshot> = None;
    let mut checkpoints = 1u64;
    let (exit, injections) = drive(soc, plan, cfg, |soc| {
        let older = std::mem::replace(&mut pre_fault, soc.snapshot());
        if cfg.trace_depth > 0 && initial.is_none() {
            initial = Some(older);
        }
        checkpoints += 1;
    });

    let (trace_tail, hot_pcs) = if exit.is_err() && cfg.trace_depth > 0 {
        soc.restore(initial.as_ref().unwrap_or(&pre_fault));
        soc.core.attach_tracer(cfg.trace_depth);
        let (rerun, _) = drive(soc, plan, cfg, |_| {});
        debug_assert_eq!(rerun, exit, "the diagnostic re-run is deterministic");
        diagnostics(
            &soc.core
                .take_tracer()
                .expect("tracer attached for the re-run"),
        )
    } else {
        (String::new(), String::new())
    };
    ArmedRun {
        exit,
        perf: soc.core.perf.delta_since(&before),
        injections,
        pre_fault,
        checkpoints,
        trace_tail,
        hot_pcs,
    }
}

/// The trace tail and the five hottest PCs of a traced run.
fn diagnostics(t: &ExecTracer) -> (String, String) {
    let hot = t
        .hotspots(5)
        .iter()
        .map(|h| {
            format!(
                "  {:#010x}  {:>8} cycles  {:>6}x  {}",
                h.pc, h.cycles, h.count, h.instr
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    (t.dump_tail(), hot)
}

/// Drives `soc` under `plan` until it halts or traps (the watchdog
/// included), calling `checkpoint` at every checkpoint boundary before
/// the first injection.
///
/// Between scheduling points the core runs one [`Core::run`] burst
/// whose budget ends at the next of: the next pending flip, the next
/// checkpoint and the watchdog limit. `Core::run` stops at the first
/// retire boundary where the cycle counter reaches that stop, so flips,
/// checkpoints and the watchdog land on exactly the boundaries a
/// one-op-at-a-time loop would give them.
fn drive(
    soc: &mut Soc,
    plan: &FaultPlan,
    cfg: &ArmConfig,
    mut checkpoint: impl FnMut(&Soc),
) -> (Result<ExitStatus, Trap>, Vec<InjectionRecord>) {
    let interval = cfg.checkpoint_interval.max(1);
    let mut next_ckpt = soc.core.perf.cycles.saturating_add(interval);
    let limit = soc.core.perf.cycles.saturating_add(cfg.budget);
    let mut injections: Vec<InjectionRecord> = Vec::new();
    let mut pending = plan.events.iter().peekable();

    let exit = loop {
        let now = soc.core.perf.cycles;
        while let Some(ev) = pending.next_if(|ev| now >= ev.cycle) {
            injections.push(apply(soc, ev));
        }
        if injections.is_empty() && now >= next_ckpt {
            checkpoint(soc);
            next_ckpt = next_ckpt.saturating_add(interval);
        }
        if now >= limit {
            break Err(Trap::Watchdog {
                pc: soc.core.pc,
                budget: cfg.budget,
            });
        }
        let mut stop = limit;
        if let Some(ev) = pending.peek() {
            stop = stop.min(ev.cycle);
        }
        if injections.is_empty() {
            stop = stop.min(next_ckpt);
        }
        // At least one op per burst: a checkpoint still due right after
        // one was taken (an interval shorter than one op) waits for the
        // next boundary instead of firing twice at this one.
        let stop = stop.max(now + 1);
        match soc.core.run(&mut soc.mem, stop - now) {
            Ok(exit) => break Ok(exit),
            // The burst reached its stop: the next scheduling point.
            Err(Trap::Watchdog { .. }) => {}
            Err(t) => break Err(t),
        }
    };
    (exit, injections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultDomain, TargetSpace};
    use pulp_isa::Reg;
    use pulp_kernels::{ConvKernelConfig, ConvTestbench, LayerLayout};
    use qnn::conv::ConvShape;
    use qnn::BitWidth;

    /// The one-op-at-a-time driver the burst segments replaced, kept as
    /// their oracle: a [`Core::step`] per retire boundary, with the
    /// tracer attached for the whole run.
    fn run_armed_per_op(soc: &mut Soc, plan: &FaultPlan, cfg: &ArmConfig) -> ArmedRun {
        let before = soc.core.perf;
        if cfg.trace_depth > 0 {
            soc.core.attach_tracer(cfg.trace_depth);
        }
        let mut pre_fault = soc.snapshot();
        let mut checkpoints = 1u64;
        let interval = cfg.checkpoint_interval.max(1);
        let mut next_ckpt = soc.core.perf.cycles.saturating_add(interval);
        let mut injections: Vec<InjectionRecord> = Vec::new();
        let mut pending = plan.events.iter().peekable();
        let limit = soc.core.perf.cycles.saturating_add(cfg.budget);
        let exit = loop {
            while let Some(ev) = pending.next_if(|ev| soc.core.perf.cycles >= ev.cycle) {
                injections.push(apply(soc, ev));
            }
            if injections.is_empty() && soc.core.perf.cycles >= next_ckpt {
                pre_fault = soc.snapshot();
                checkpoints += 1;
                next_ckpt = next_ckpt.saturating_add(interval);
            }
            if soc.core.perf.cycles >= limit {
                break Err(Trap::Watchdog {
                    pc: soc.core.pc,
                    budget: cfg.budget,
                });
            }
            match soc.core.step(&mut soc.mem) {
                Ok(true) => {
                    break Ok(ExitStatus {
                        halted: true,
                        exit_code: soc.core.reg(Reg::A0),
                        pc: soc.core.pc,
                    })
                }
                Ok(false) => {}
                Err(t) => break Err(t),
            }
        };
        let (trace_tail, hot_pcs) = match (&exit, soc.core.take_tracer()) {
            (Err(_), Some(t)) => diagnostics(&t),
            _ => (String::new(), String::new()),
        };
        ArmedRun {
            exit,
            perf: soc.core.perf.delta_since(&before),
            injections,
            pre_fault,
            checkpoints,
            trace_tail,
            hot_pcs,
        }
    }

    /// Burst segments against the per-op oracle over plans × checkpoint
    /// intervals × budgets × trace depths: every observable of the run
    /// must be identical, the final machine state included.
    #[test]
    fn burst_segments_match_the_per_op_driver() {
        let tb = small_bench();
        let mut soc = tb.stage();
        soc.core.attach_tracer(1);
        let report = soc.run(100_000_000).expect("clean run");
        let clean = report.perf.cycles;
        // The hottest instruction: fetched (and cached) long before
        // mid-run.
        let hot = soc.core.take_tracer().unwrap().hotspots(1)[0].pc;
        let layout = LayerLayout::default_for_l2();
        let reg = |cycle, reg, bit| FaultEvent {
            cycle,
            domain: FaultDomain::RegisterFile,
            target: FaultTarget::Register { reg, bit },
        };
        let mem = |cycle, addr, bit| FaultEvent {
            cycle,
            domain: FaultDomain::DataMemory,
            target: FaultTarget::Memory { addr, bit },
        };
        let plans = [
            ("empty", vec![]),
            (
                "registers",
                vec![reg(clean / 4, 10, 3), reg(clean / 2, 15, 31)],
            ),
            (
                "tensors",
                vec![
                    mem(clean / 5, layout.input + 3, 1),
                    mem(clean / 3, layout.weights + 5, 6),
                    mem(clean / 2, layout.output, 0),
                ],
            ),
            ("fetched code", vec![mem(clean / 2, hot, 4)]),
            (
                "same cycle",
                vec![
                    reg(clean / 3, 8, 0),
                    mem(clean / 3, layout.input + 1, 2),
                    mem(clean / 3, hot + 2, 2),
                ],
            ),
        ];
        let (mut halted, mut trapped, mut watchdogs) = (0, 0, 0);
        for (name, events) in plans {
            let plan = FaultPlan { seed: 0, events };
            for budget in [clean * 4 + 10_000, clean * 2 / 3] {
                for interval in [1, 7, clean / 8, budget] {
                    for trace_depth in [0, 64] {
                        let cfg = ArmConfig {
                            budget,
                            checkpoint_interval: interval,
                            trace_depth,
                        };
                        let case = format!("{name}, {cfg:?}");
                        let mut burst_soc = tb.stage();
                        let burst = run_armed(&mut burst_soc, &plan, &cfg);
                        let mut oracle_soc = tb.stage();
                        let oracle = run_armed_per_op(&mut oracle_soc, &plan, &cfg);
                        assert_eq!(burst.exit, oracle.exit, "{case}: exit");
                        assert_eq!(burst.injections, oracle.injections, "{case}: injections");
                        assert_eq!(burst.checkpoints, oracle.checkpoints, "{case}: checkpoints");
                        assert_eq!(
                            (burst.pre_fault.cycles(), burst.pre_fault.pc()),
                            (oracle.pre_fault.cycles(), oracle.pre_fault.pc()),
                            "{case}: pre-fault checkpoint"
                        );
                        assert!(
                            burst.pre_fault == oracle.pre_fault,
                            "{case}: pre-fault checkpoint state (L2 included)"
                        );
                        assert_eq!(burst.perf, oracle.perf, "{case}: perf delta");
                        assert!(
                            burst_soc.snapshot() == oracle_soc.snapshot(),
                            "{case}: final state (L2 included)"
                        );
                        assert_eq!(burst.trace_tail, oracle.trace_tail, "{case}: trace tail");
                        assert_eq!(burst.hot_pcs, oracle.hot_pcs, "{case}: hot PCs");
                        assert!(burst_soc.core.tracer().is_none(), "{case}: tracer left");
                        match burst.exit {
                            Ok(_) => halted += 1,
                            Err(Trap::Watchdog { .. }) => watchdogs += 1,
                            Err(_) => trapped += 1,
                        }
                    }
                }
            }
        }
        // Every exit kind, diagnostics included, is exercised.
        assert!(
            halted > 0 && trapped > 0 && watchdogs > 0,
            "{halted} {trapped} {watchdogs}"
        );
    }

    fn small_bench() -> ConvTestbench {
        let shape = ConvShape {
            in_h: 4,
            in_w: 4,
            in_c: 16,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        ConvTestbench::new(
            ConvKernelConfig::mixed(shape, BitWidth::W4, BitWidth::W4),
            11,
        )
        .expect("valid config")
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run");
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &FaultPlan::none(), &ArmConfig::default());
        let exit = armed.exit.expect("halts");
        assert!(exit.halted);
        assert_eq!(armed.perf, clean.report.perf);
        assert!(armed.injections.is_empty());
        assert!(tb
            .collect(
                &soc,
                pulp_soc::RunReport {
                    exit,
                    perf: armed.perf
                }
            )
            .matches());
    }

    #[test]
    fn armed_flip_into_fetched_code_takes_effect_at_the_next_fetch() {
        // `patchme` is decoded (and cached) on the first pass; the flip
        // lands between passes and turns `addi a0, a0, 1` into
        // `addi a0, a0, 3` (immediate bit 21). The second pass must
        // execute the flipped word, not the cached block.
        let mut a = pulp_asm::Asm::new(pulp_soc::CODE_BASE);
        a.li(Reg::A0, 0);
        a.li(Reg::T1, 2);
        a.j("patchme"); // so a block starts at `patchme`
        a.label("patchme");
        a.addi(Reg::A0, Reg::A0, 1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::Zero, "patchme");
        a.ecall();
        let prog = a.assemble().unwrap();
        let run = |plan: &FaultPlan| {
            let mut soc = Soc::new(riscv_core::IsaConfig::xpulpnn());
            soc.load(&prog);
            run_armed(&mut soc, plan, &ArmConfig::default())
        };
        let clean = run(&FaultPlan::none());
        assert_eq!(clean.exit.unwrap().exit_code, 2);
        // Fires at the first boundary after the first pass's branch.
        let at = clean.perf.cycles - 4;
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: at,
                domain: FaultDomain::DataMemory,
                target: FaultTarget::Memory {
                    addr: pulp_soc::CODE_BASE + 14, // `patchme` bits 16..24
                    bit: 5,
                },
            }],
        };
        let armed = run(&plan);
        assert_eq!(armed.injections[0].pc, pulp_soc::CODE_BASE + 12);
        assert_eq!(armed.exit.unwrap().exit_code, 1 + 3);
    }

    #[test]
    fn injections_are_recorded_and_deterministic() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run").report.perf.cycles;
        let space = TargetSpace::conv_layer(
            &ConvKernelConfig::mixed(
                ConvShape {
                    in_h: 4,
                    in_w: 4,
                    in_c: 16,
                    out_c: 8,
                    k_h: 3,
                    k_w: 3,
                    stride: 1,
                    pad: 1,
                },
                BitWidth::W4,
                BitWidth::W4,
            ),
            &LayerLayout::default_for_l2(),
            clean,
        );
        let plan = FaultPlan::generate(5, &space, 3);
        let run_once = || {
            let mut soc = tb.stage();
            run_armed(&mut soc, &plan, &ArmConfig::default())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.injections.len(), 3);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.exit.is_ok(), b.exit.is_ok());
        for i in &a.injections {
            assert!(i.at_cycle >= i.event.cycle);
            assert_ne!(
                i.before, i.after,
                "a flip must change the value (target {})",
                i.event.target
            );
        }
    }

    #[test]
    fn rollback_from_pre_fault_checkpoint_recovers() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run");
        // A violent flip: stack pointer high bit mid-kernel.
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: clean.report.perf.cycles / 2,
                domain: FaultDomain::RegisterFile,
                target: FaultTarget::Register { reg: 2, bit: 31 },
            }],
        };
        let cfg = ArmConfig {
            checkpoint_interval: 1_000,
            ..ArmConfig::default()
        };
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &plan, &cfg);
        assert_eq!(armed.injections.len(), 1);
        assert!(
            armed.checkpoints > 1,
            "interval must have produced checkpoints"
        );
        assert!(
            armed.pre_fault.cycles() < armed.injections[0].at_cycle,
            "pre-fault checkpoint must predate the injection"
        );
        // Transient fault: restore + disarmed re-run completes cleanly
        // with the exact clean-run results.
        let mut retry = tb.stage();
        retry.restore(&armed.pre_fault);
        let report = retry.run(100_000_000).expect("recovered run halts");
        assert!(tb.collect(&retry, report).matches());
        assert_eq!(
            soc_total(&retry),
            clean.report.perf.cycles,
            "deterministic re-execution"
        );
    }

    fn soc_total(soc: &Soc) -> u64 {
        soc.core.perf.cycles
    }

    #[test]
    fn traps_dump_the_tracer_tail() {
        let tb = small_bench();
        // Flipping the stack pointer's top bit just before the epilogue
        // reliably sends a load outside L2.
        let clean = tb.run().expect("clean run").report.perf.cycles;
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: clean / 2,
                domain: FaultDomain::RegisterFile,
                target: FaultTarget::Register { reg: 2, bit: 31 },
            }],
        };
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &plan, &ArmConfig::default());
        if armed.exit.is_err() {
            assert!(
                !armed.trace_tail.is_empty(),
                "trap must dump the trace tail"
            );
            assert!(!armed.hot_pcs.is_empty());
        }
    }
}
