//! Raw SPMD program execution on the cluster — the multi-core
//! counterpart of running an arbitrary program on the single-core SoC.
//! Every hart starts at the program's entry point; `csrr mhartid`
//! diverges their paths.

use crate::sim::{ClusterSim, ClusterStats};
use crate::ClusterError;
use pulp_asm::Program;
use pulp_soc::cluster::ClusterMem;
use riscv_core::{IsaConfig, PerfCounters};

/// Outcome of a raw SPMD run.
#[derive(Debug, Clone)]
pub struct RawRunReport {
    /// Total simulated cluster cycles.
    pub clock: u64,
    /// Per-hart exit codes (`a0` at `ecall`).
    pub exit_codes: Vec<u32>,
    /// Merged console output (hart order at each region boundary).
    pub console: String,
    /// Cluster-level accounting.
    pub stats: ClusterStats,
    /// Per-hart core counters.
    pub per_hart: Vec<PerfCounters>,
}

/// Loads `prog` and runs it SPMD on `n_harts` harts until every hart
/// halts, spreading regions over `host_threads` host threads.
///
/// # Errors
///
/// [`ClusterError::Trap`] if any hart traps (including watchdog
/// exhaustion at `budget` cycles).
pub fn run_spmd(
    isa: IsaConfig,
    n_harts: usize,
    prog: &Program,
    budget: u64,
    host_threads: usize,
) -> Result<RawRunReport, ClusterError> {
    let mut mem = ClusterMem::new();
    mem.load(prog);
    let mut sim = ClusterSim::new(isa, n_harts, mem);
    sim.set_host_threads(host_threads);
    sim.start(prog.base);
    while !sim.run_region(budget, None)? {}
    Ok(RawRunReport {
        clock: sim.clock(),
        exit_codes: sim.exit_codes().to_vec(),
        console: String::from_utf8_lossy(&sim.console).into_owned(),
        stats: sim.stats.clone(),
        per_hart: (0..n_harts).map(|h| sim.hart(h).perf).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_asm::Asm;
    use pulp_isa::Reg;
    use pulp_soc::CONSOLE_ADDR;

    #[test]
    fn spmd_hello_prints_in_hart_order() {
        // Each hart prints ('A' + id) then exits with its id.
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.i(pulp_isa::instr::Instr::Csr {
            op: 1,
            rd: Reg::T0,
            rs1: Reg::Zero,
            csr: pulp_isa::csr::MHARTID,
        });
        a.addi(Reg::T1, Reg::T0, 'A' as i32);
        a.li(Reg::T2, CONSOLE_ADDR as i32);
        a.sb(Reg::T1, 0, Reg::T2);
        a.mv(Reg::A0, Reg::T0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let r = run_spmd(IsaConfig::xpulpnn(), 4, &prog, 10_000, 2).unwrap();
        assert_eq!(r.console, "ABCD");
        assert_eq!(r.exit_codes, vec![0, 1, 2, 3]);
        assert!(r.clock > 0);
    }

    /// An access whose range wraps past 2^32 is a typed bus error on
    /// every hart, never an out-of-bounds index into the memory image.
    #[test]
    fn wrapping_accesses_trap_with_a_bus_error() {
        let load = |a: &mut Asm| {
            a.li(Reg::T1, -2);
            a.lw(Reg::T0, 0, Reg::T1);
        };
        let store = |a: &mut Asm| {
            a.li(Reg::T1, -1);
            a.sb(Reg::T0, 0, Reg::T1);
        };
        for (access, addr) in [
            (&load as &dyn Fn(&mut Asm), 0xffff_fffe_u32),
            (&store, 0xffff_ffff),
        ] {
            let mut a = Asm::new(pulp_soc::CODE_BASE);
            access(&mut a);
            a.ecall();
            let prog = a.assemble().unwrap();
            let err = run_spmd(IsaConfig::xpulpnn(), 2, &prog, 10_000, 1).unwrap_err();
            let ClusterError::Trap { hart, trap } = err;
            assert_eq!(hart, 0);
            assert!(
                matches!(trap, riscv_core::Trap::Bus { error, .. } if error.addr == addr),
                "{trap}"
            );
        }
    }
}
