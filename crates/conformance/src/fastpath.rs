//! Lock-step oracle for decoded-block replay.
//!
//! [`diff`](crate::diff) pits `riscv-core` against an independent
//! reference interpreter; this module pits `riscv-core` against
//! *itself*: the same fuzzer corpus runs on a core driven by
//! [`Core::reference_step`] (fetch, decode, check, execute — no block
//! cache) and on a core driven by [`Core::step`] (per-op cached
//! replay) over identical memory images, with PC, registers and perf
//! counters compared before every step and the full memory image at
//! the halt. Replay shares its execution semantics with the reference
//! step by construction, so the only code this suite can catch is the
//! part that differs — block formation, cache lookup, specialization,
//! invalidation, and the fallback decisions. That is exactly the part
//! that needs an oracle.
//!
//! Per-step lockstep alone never enters the *batched* burst executor
//! ([`Core::run`]) — stepping resolves one op at a time. So every case
//! that reaches agreement is replayed a third time, whole-program
//! through `run()`, and the final registers, perf counters and memory
//! image are held to the reference side's. Halting replays get a cycle
//! budget of *exactly* the reference side's final cycle count, which
//! additionally pins the watchdog boundary: a replay that over- or
//! under-charges even one cycle trips the budget.
//!
//! Divergences feed the same ddmin shrinker as the reference diff
//! (via [`shrink_with`]) and print a `--fastpath` replay command.

use crate::diff::{reg_delta, CaseOutcome, Divergence, Failure, SuiteReport};
use crate::gen::{self, GenConfig, ProgramSpec, CODE_BASE, DATA_BASE, MEM_LEN};
use crate::shrink::shrink_with;
use crate::{case_seed, diff};
use riscv_core::{Core, FastBug, IsaConfig, SliceMem, Trap};

/// Configuration of a block-replay lockstep run.
#[derive(Debug, Clone)]
pub struct FastDiffConfig {
    /// Program-generator knobs (same corpus as the reference diff).
    pub gen: GenConfig,
    /// Bug injected into block replay (testing only).
    pub bug: FastBug,
    /// Per-case step budget; exceeding it is reported as a divergence.
    pub max_steps: u64,
}

impl Default for FastDiffConfig {
    fn default() -> FastDiffConfig {
        FastDiffConfig {
            gen: GenConfig::default(),
            bug: FastBug::None,
            max_steps: 100_000,
        }
    }
}

/// The exact command that replays one block-replay lockstep case.
pub fn fast_replay_command(case_seed: u64) -> String {
    format!("xpulpnn conformance --fastpath --cases 1 --seed {case_seed}")
}

fn staged_mem(spec: &ProgramSpec) -> SliceMem {
    let lowered = gen::lower(spec);
    let mut mem = SliceMem::new(CODE_BASE, MEM_LEN as usize);
    let bytes = mem.as_bytes_mut();
    bytes[..lowered.code.len()].copy_from_slice(&lowered.code);
    let doff = (DATA_BASE - CODE_BASE) as usize;
    bytes[doff..doff + spec.data.len()].copy_from_slice(&spec.data);
    mem
}

/// The first difference of `replay`'s state from `oracle`'s: pc,
/// registers, then perf counters.
fn core_delta(replay: &Core, oracle: &Core) -> Option<String> {
    if replay.pc != oracle.pc {
        Some(format!(
            "pc: replay {:#010x} reference {:#010x}",
            replay.pc, oracle.pc
        ))
    } else if replay.regs != oracle.regs {
        Some(format!(
            "registers: {}",
            reg_delta(&replay.regs, &oracle.regs)
        ))
    } else if replay.perf != oracle.perf {
        Some(format!(
            "perf: replay {:?} reference {:?}",
            replay.perf, oracle.perf
        ))
    } else {
        None
    }
}

/// The first byte where `replay`'s memory image differs from `oracle`'s.
fn mem_delta(replay: &SliceMem, oracle: &SliceMem) -> Option<String> {
    let (r, o) = (replay.as_bytes(), oracle.as_bytes());
    let i = r.iter().zip(o).position(|(a, b)| a != b)?;
    Some(format!(
        "memory byte at {:#010x}: replay {:#04x} reference {:#04x}",
        CODE_BASE + i as u32,
        r[i],
        o[i]
    ))
}

/// Replays the whole program on a third core via [`Core::run`] — the
/// burst executor the per-step lockstep never enters — and diffs its
/// final architectural state against the reference side's.
/// `expected_trap` is the trap the reference side ended on, if any; a
/// halting program instead runs under a cycle budget of exactly the
/// reference side's final cycle count, so any replay cycle drift
/// surfaces as a spurious watchdog.
fn bulk_delta(
    spec: &ProgramSpec,
    bug: FastBug,
    oracle: &Core,
    mem_o: &SliceMem,
    expected_trap: Option<&Trap>,
) -> Option<String> {
    let mut mem_b = staged_mem(spec);
    let mut bulk = Core::new(IsaConfig::xpulpnn());
    bulk.set_fastpath_bug(bug);
    bulk.pc = CODE_BASE;
    let budget = match expected_trap {
        // Traps end mid-op; leave headroom so the watchdog cannot
        // preempt the trap we are trying to reproduce.
        Some(_) => oracle.perf.cycles + 8,
        None => oracle.perf.cycles,
    };
    match (expected_trap, bulk.run(&mut mem_b, budget)) {
        (None, Ok(_)) => {}
        (Some(ti), Err(tb)) if *ti == tb => {}
        (None, Err(tb)) => return Some(format!("bulk run trapped: {tb}")),
        (Some(ti), Ok(_)) => return Some(format!("bulk run halted instead of trapping ({ti})")),
        (Some(ti), Err(tb)) => return Some(format!("bulk trap: replay {tb} reference {ti}")),
    }
    core_delta(&bulk, oracle)
        .or_else(|| mem_delta(&mem_b, mem_o))
        .map(|d| format!("bulk {d}"))
}

/// Runs one already-generated program on a reference-step core and a
/// cached-step core in lock-step, comparing architectural state *and*
/// perf counters before every step.
pub fn run_fast_spec(spec: &ProgramSpec, bug: FastBug, max_steps: u64) -> CaseOutcome {
    let mut mem_o = staged_mem(spec);
    let mut mem_f = staged_mem(spec);

    // The reference side carries the tracer for divergence context.
    let mut oracle = Core::new(IsaConfig::xpulpnn());
    oracle.attach_tracer(32);
    oracle.pc = CODE_BASE;
    let mut fast = Core::new(IsaConfig::xpulpnn());
    fast.set_fastpath_bug(bug);
    fast.pc = CODE_BASE;

    let diverge = |step: u64, pc: u32, detail: String, oracle: &Core| {
        CaseOutcome::Diverged(Box::new(Divergence {
            step,
            pc,
            detail,
            context: oracle
                .tracer()
                .map(riscv_core::ExecTracer::dump_tail)
                .unwrap_or_default(),
        }))
    };

    for step in 0..max_steps {
        if let Some(detail) = core_delta(&fast, &oracle) {
            return diverge(step, oracle.pc, detail, &oracle);
        }
        let pc = oracle.pc;
        let ri = oracle.reference_step(&mut mem_o);
        let rf = fast.step(&mut mem_f);
        match (ri, rf) {
            (Err(ti), Err(tf)) if ti == tf => {
                // An identical trap at identical state is agreement —
                // replay must surface the reference step's trap
                // exactly, nothing more.
                if let Some(detail) = core_delta(&fast, &oracle) {
                    return diverge(step + 1, oracle.pc, format!("at trap, {detail}"), &oracle);
                }
                return match bulk_delta(spec, bug, &oracle, &mem_o, Some(&ti)) {
                    Some(detail) => diverge(step + 1, oracle.pc, detail, &oracle),
                    None => CaseOutcome::Pass { steps: step + 1 },
                };
            }
            (Err(ti), rf) => {
                let detail = match rf {
                    Err(tf) => format!("trap: replay {tf} reference {ti}"),
                    Ok(_) => format!("trap on reference side only: {ti}"),
                };
                return diverge(step, pc, detail, &oracle);
            }
            (Ok(_), Err(tf)) => {
                return diverge(step, pc, format!("trap on replay side only: {tf}"), &oracle)
            }
            (Ok(hi), Ok(hf)) => {
                if hi != hf {
                    return diverge(
                        step,
                        pc,
                        format!("halt: replay {hf} reference {hi} (ecall seen on one side only)"),
                        &oracle,
                    );
                }
                if hi {
                    let end = core_delta(&fast, &oracle)
                        .or_else(|| mem_delta(&mem_f, &mem_o))
                        .map(|d| format!("final {d}"))
                        .or_else(|| bulk_delta(spec, bug, &oracle, &mem_o, None));
                    return match end {
                        Some(detail) => diverge(step + 1, oracle.pc, detail, &oracle),
                        None => CaseOutcome::Pass { steps: step + 1 },
                    };
                }
            }
        }
    }
    diverge(
        max_steps,
        oracle.pc,
        format!("step budget ({max_steps}) exhausted: program did not halt"),
        &oracle,
    )
}

/// Generates the program for `seed` and runs it through the
/// block-replay lockstep check.
pub fn run_fast_case(seed: u64, cfg: &FastDiffConfig) -> (ProgramSpec, CaseOutcome) {
    let spec = gen::generate(seed, &cfg.gen);
    let outcome = run_fast_spec(&spec, cfg.bug, cfg.max_steps);
    (spec, outcome)
}

/// Runs `cases` block-replay lockstep cases seeded from `master`,
/// stopping at (and shrinking) the first divergence.
pub fn run_fast_suite(master: u64, cases: u64, cfg: &FastDiffConfig) -> SuiteReport {
    for index in 0..cases {
        let seed = case_seed(master, index);
        let (spec, outcome) = run_fast_case(seed, cfg);
        if let CaseOutcome::Diverged(d) = outcome {
            let small = shrink_with(&spec, |cand| {
                matches!(
                    run_fast_spec(cand, cfg.bug, cfg.max_steps),
                    CaseOutcome::Diverged(_)
                )
            });
            return SuiteReport {
                cases_run: index + 1,
                failure: Some(Failure {
                    case_index: index,
                    case_seed: seed,
                    divergence: *d,
                    shrunk_listing: diff::listing(&small),
                    shrunk_instrs: gen::instr_count(&small),
                    replay: fast_replay_command(seed),
                }),
            };
        }
    }
    SuiteReport {
        cases_run: cases,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Real block replay survives the fuzzer corpus: a healthy slice
    /// of the same generated programs the reference diff runs, in
    /// lockstep, with perf counters held bit-exact at every step.
    #[test]
    fn fast_path_agrees_with_interpreter_over_the_corpus() {
        let report = run_fast_suite(0xFA57_C0DE, 200, &FastDiffConfig::default());
        if let Some(f) = &report.failure {
            panic!("block replay diverged:\n{f}");
        }
        assert_eq!(report.cases_run, 200);
    }

    /// Proof that the oracle has teeth: deliberately buggy block
    /// replay (redirects squashed to sequential execution) is caught, and the shrinker lands a repro of at most 8
    /// instructions with the exact `--fastpath` replay command.
    #[test]
    fn shrinker_minimizes_an_injected_fast_path_bug() {
        let cfg = FastDiffConfig {
            bug: FastBug::SquashRedirects,
            ..FastDiffConfig::default()
        };
        let report = run_fast_suite(0xFA57_C0DE, 200, &cfg);
        let f = report.failure.expect("SquashRedirects must diverge");
        assert!(
            f.shrunk_instrs <= 8,
            "shrunk repro too large: {} instructions\n{}",
            f.shrunk_instrs,
            f.shrunk_listing
        );
        assert_eq!(
            f.replay,
            format!(
                "xpulpnn conformance --fastpath --cases 1 --seed {}",
                f.case_seed
            )
        );
        // The shrunk program still diverges standalone — the repro is
        // genuinely self-contained.
        assert!(!f.shrunk_listing.is_empty());
    }

    /// A divergence report names the first bad step; for the squashed
    /// redirect that must be a control-flow boundary, and replaying the
    /// shrunk listing under clean block replay passes.
    #[test]
    fn clean_fast_path_passes_the_case_the_bug_fails() {
        let cfg = FastDiffConfig {
            bug: FastBug::SquashRedirects,
            ..FastDiffConfig::default()
        };
        let report = run_fast_suite(0xFA57_C0DE, 200, &cfg);
        let f = report.failure.expect("SquashRedirects must diverge");
        let spec = gen::generate(f.case_seed, &cfg.gen);
        assert!(matches!(
            run_fast_spec(&spec, FastBug::None, cfg.max_steps),
            CaseOutcome::Pass { .. }
        ));
    }
}
