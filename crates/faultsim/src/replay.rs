//! Single-case replay: re-run one campaign trial from its seed and
//! pinpoint where the flip became architecturally visible.
//!
//! Replay rebuilds the trial deterministically (same tensor seed, same
//! derived fault seed), re-runs it armed to recover the pre-fault
//! checkpoint, then restores that checkpoint into *two* SoCs and steps
//! them in lock-step — re-applying the flip on one side only — using
//! [`conformance::lockstep_with`]. The first PC/register disagreement
//! is exactly where the corrupted bit entered live architectural state;
//! for a detected fault the report shows the trap and the tracer's
//! last-retired window instead.

use crate::campaign::{self, trial_seed, Trial, TENSOR_SEED};
use crate::exec::flip_mem_bit;
use crate::plan::FaultTarget;
use conformance::lockstep::{lockstep_with, LockstepEnd};
use pulp_kernels::ConvTestbench;
use std::fmt;

/// Everything a replayed case produced.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Variant index and name.
    pub variant: usize,
    /// Variant name (`ConvKernelConfig::name()`).
    pub name: String,
    /// Trial index.
    pub trial: u64,
    /// Derived fault seed.
    pub seed: u64,
    /// The classified trial, exactly as the campaign saw it.
    pub outcome: Trial,
    /// Cycle the pre-fault checkpoint was taken at.
    pub checkpoint_cycle: u64,
    /// First architectural divergence between the faulted and a clean
    /// re-execution from the checkpoint (absent for masked faults that
    /// never touched live state, or when the flip traps before any
    /// state comparison difference).
    pub divergence: Option<conformance::Divergence>,
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replay: variant {} ({}), trial {}, fault seed {:#x}",
            self.variant, self.name, self.trial, self.seed
        )?;
        for i in &self.outcome.run.injections {
            writeln!(f, "injected: {i}")?;
        }
        writeln!(f, "class: {}", self.outcome.class)?;
        if let Some(t) = &self.outcome.trap {
            writeln!(f, "trap: {t}")?;
        }
        writeln!(
            f,
            "checkpoint: cycle {} (restored for deterministic re-execution)",
            self.checkpoint_cycle
        )?;
        match &self.divergence {
            Some(d) => {
                writeln!(f, "first architectural divergence: {d}")?;
                if !d.context.is_empty() {
                    writeln!(f, "{}", d.context.trim_end())?;
                }
            }
            None => writeln!(
                f,
                "no architectural divergence (flip never reached live state)"
            )?,
        }
        if !self.outcome.run.trace_tail.is_empty() {
            writeln!(f, "last retired instructions:")?;
            writeln!(f, "{}", self.outcome.run.trace_tail.trim_end())?;
        }
        if !self.outcome.run.hot_pcs.is_empty() {
            writeln!(f, "hot PCs:")?;
            writeln!(f, "{}", self.outcome.run.hot_pcs.trim_end())?;
        }
        Ok(())
    }
}

/// Replays campaign trial `trial` of variant `variant_index` under
/// `master` seed.
///
/// # Errors
///
/// A message for unknown variants or broken clean runs.
pub fn replay(master: u64, variant_index: usize, trial: u64) -> Result<ReplayReport, String> {
    let variants = campaign::variants();
    let variant = variants
        .get(variant_index)
        .ok_or_else(|| format!("no variant {variant_index} (have 0..{})", variants.len()))?;
    let tb = ConvTestbench::new(variant.cfg, TENSOR_SEED)
        .map_err(|e| format!("variant {} failed to build: {e}", variant.cfg.name()))?;
    let clean = tb.run().map_err(|t| format!("clean run trapped: {t}"))?;
    let fault_seed = trial_seed(master, variant_index as u64, trial);
    let outcome = campaign::run_trial(variant, &tb, clean.report.perf.cycles, fault_seed, trial);

    // Lock-step the faulted execution against a clean one from the
    // pre-fault checkpoint. The flip is re-applied (by cycle count) on
    // side A only.
    let mut faulted = tb.stage();
    faulted.restore(&outcome.run.pre_fault);
    faulted.core.attach_tracer(32);
    let mut clean_soc = tb.stage();
    clean_soc.restore(&outcome.run.pre_fault);
    let events = outcome
        .run
        .injections
        .iter()
        .map(|i| i.event)
        .collect::<Vec<_>>();
    let mut next = 0usize;
    let max_steps = clean.report.perf.instret * 2 + 1_000;
    let end = lockstep_with(
        &mut faulted.core,
        &mut faulted.mem,
        &mut clean_soc.core,
        &mut clean_soc.mem,
        max_steps,
        ("faulted", "clean"),
        |_, a, abus, _, _| {
            while next < events.len() && a.perf.cycles >= events[next].cycle {
                match events[next].target {
                    FaultTarget::Register { reg, bit } => {
                        if reg != 0 {
                            a.regs[reg] ^= 1 << bit;
                        }
                    }
                    FaultTarget::Memory { addr, bit } => {
                        flip_mem_bit(&mut (&mut *a, &mut *abus), addr, bit);
                    }
                }
                next += 1;
            }
        },
    );
    // A flip into memory the program never loads again produces no
    // PC/register divergence — the corruption lives only in SRAM. Scan
    // the two L2 images so those cases are pinpointed too.
    let divergence = match end {
        LockstepEnd::Agreed { steps } => {
            let fa = faulted
                .mem
                .read_bytes(pulp_soc::L2_BASE, pulp_soc::L2_SIZE as usize);
            let cl = clean_soc
                .mem
                .read_bytes(pulp_soc::L2_BASE, pulp_soc::L2_SIZE as usize);
            fa.iter()
                .zip(cl.iter())
                .position(|(a, b)| a != b)
                .map(|i| conformance::Divergence {
                    step: steps,
                    pc: faulted.core.pc,
                    detail: format!(
                        "memory byte at {:#010x}: faulted {:#04x} clean {:#04x}",
                        pulp_soc::L2_BASE + i as u32,
                        fa[i],
                        cl[i]
                    ),
                    context: String::new(),
                })
        }
        LockstepEnd::Diverged(d) => Some(*d),
    };

    Ok(ReplayReport {
        variant: variant_index,
        name: variant.cfg.name(),
        trial,
        seed: fault_seed,
        checkpoint_cycle: outcome.run.pre_fault.cycles(),
        outcome,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FaultClass;

    /// Scan a few trials of the hardware-quantized 4-bit variant until
    /// one of each interesting class shows up, and replay it.
    #[test]
    fn replay_reproduces_the_campaign_classification() {
        let master = 1u64;
        let report = campaign::run_campaign(master, 6).expect("campaign");
        // Replay every SDC the small campaign found plus trial 0 of
        // variant 0; classification must be identical on replay.
        let mut cases: Vec<(usize, u64)> = vec![(0, 0)];
        cases.extend(report.sdc_cases.iter().copied().take(2));
        for (v, t) in cases {
            let r = replay(master, v, t).expect("replay");
            let again = replay(master, v, t).expect("replay");
            assert_eq!(
                r.outcome.class, again.outcome.class,
                "replay must be deterministic"
            );
            if r.outcome.class == FaultClass::Sdc {
                assert!(
                    r.divergence.is_some(),
                    "an SDC must show an architectural divergence: {r}"
                );
            }
            let text = r.to_string();
            assert!(text.contains("class:"), "report must classify: {text}");
            assert!(text.contains("checkpoint: cycle"));
        }
    }

    #[test]
    fn unknown_variant_is_an_error() {
        assert!(replay(1, 99, 0).is_err());
    }
}
