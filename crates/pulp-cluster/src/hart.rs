//! The per-hart memory port and region execution.
//!
//! Between two barriers (a *region*) every hart executes against a
//! **private copy** of the shared memory image, recording an ordered
//! write log and a TCDM access trace. Regions are therefore completely
//! independent of host scheduling: the cluster runner merges the logs
//! in hart-id order and replays the traces through the deterministic
//! bank arbiter afterwards, so simulated time and memory contents are
//! bit-identical whether harts run sequentially or on eight host
//! threads.
//!
//! The privacy is sound because the kernels follow the PULP-NN
//! ownership discipline: within a region, harts only write TCDM ranges
//! they own (their output chunk, their im2col buffer, their cursor
//! word) and only read shared ranges that no one writes (weights,
//! thresholds, descriptors, the input band). Cross-hart communication
//! happens exclusively across barriers, where the logs have been
//! merged.

use pulp_soc::cluster::{l2_offset, tcdm_bank, tcdm_offset, ClusterMem, EU_BARRIER};
use pulp_soc::CONSOLE_ADDR;
use riscv_core::{Bus, BusError, Core, Trap};

/// One TCDM request in a hart's per-region access trace.
///
/// At most one event is recorded per retired instruction — RI5CY has a
/// single LSU port, so a core issues at most one TCDM request per
/// cycle. (`pv.qnt`'s internal threshold-tree walk reads through the
/// quantization unit's private port and is deliberately *not* traced:
/// modelling each tree level as an interconnect request would make the
/// instruction conflict with itself.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankEvent {
    /// Issue cycle, relative to the region start (all harts leave the
    /// barrier at the same cluster time, so offsets are comparable
    /// across harts).
    pub offset: u32,
    /// The word-interleaved bank index.
    pub bank: u8,
}

/// One logged write: replayed into the shared image at the region
/// merge, in hart-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// Byte address (TCDM or L2).
    pub addr: u32,
    /// Access size in bytes (1, 2 or 4).
    pub size: u32,
    /// The value's low `size` bytes.
    pub value: u32,
}

/// Applies a logged write to the shared image.
pub fn apply_write(mem: &mut ClusterMem, w: &WriteRec) {
    let bytes = w.value.to_le_bytes();
    mem.write_bytes(w.addr, &bytes[..w.size as usize]);
}

/// How a region ended for one hart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionEnd {
    /// The hart stored to the event unit's barrier register.
    Barrier,
    /// The hart executed `ecall`; the payload is `a0` (exit code).
    Halted(u32),
}

/// A hart's private view of cluster memory for one region.
#[derive(Debug, Clone)]
pub struct HartPort {
    l2: Vec<u8>,
    tcdm: Vec<u8>,
    /// Console bytes this region (merged in hart order).
    pub console: Vec<u8>,
    /// Ordered write log.
    pub writes: Vec<WriteRec>,
    /// Ordered read log (`(addr, size)`), populated only when
    /// [`HartPort::log_reads`] is set — the debug-replay input for the
    /// merge's cross-hart read-after-unmerged-write detector.
    pub reads: Vec<(u32, u32)>,
    /// Enables the read log. Off by default: the conflict detector
    /// only needs it for read/write replay, and the log is hot-path
    /// overhead otherwise.
    pub log_reads: bool,
    /// TCDM access trace for the bank arbiter.
    pub trace: Vec<BankEvent>,
    region_start: u64,
    now: u64,
    traced_this_step: bool,
    barrier: bool,
}

impl HartPort {
    /// Clones the shared image for one region starting at the hart's
    /// current cycle count.
    pub fn new(mem: &ClusterMem, region_start: u64) -> HartPort {
        HartPort {
            l2: mem.l2.clone(),
            tcdm: mem.tcdm.clone(),
            console: Vec::new(),
            writes: Vec::new(),
            reads: Vec::new(),
            log_reads: false,
            trace: Vec::new(),
            region_start,
            now: region_start,
            traced_this_step: false,
            barrier: false,
        }
    }

    fn note_tcdm(&mut self, addr: u32) {
        if !self.traced_this_step {
            self.trace.push(BankEvent {
                offset: (self.now - self.region_start) as u32,
                bank: tcdm_bank(addr) as u8,
            });
            self.traced_this_step = true;
        }
    }
}

fn le_read(bytes: &[u8], off: usize, size: u32) -> u32 {
    let mut v = 0u32;
    for i in (0..size as usize).rev() {
        v = (v << 8) | u32::from(bytes[off + i]);
    }
    v
}

fn le_write(bytes: &mut [u8], off: usize, size: u32, value: u32) {
    for i in 0..size as usize {
        bytes[off + i] = (value >> (8 * i)) as u8;
    }
}

impl Bus for HartPort {
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, BusError> {
        if let Some(off) = tcdm_offset(addr, size) {
            self.note_tcdm(addr);
            if self.log_reads {
                self.reads.push((addr, size));
            }
            return Ok(le_read(&self.tcdm, off, size));
        }
        if let Some(off) = l2_offset(addr, size) {
            if self.log_reads {
                self.reads.push((addr, size));
            }
            return Ok(le_read(&self.l2, off, size));
        }
        Err(BusError {
            addr,
            size,
            write: false,
        })
    }

    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), BusError> {
        if addr == EU_BARRIER {
            self.barrier = true;
            return Ok(());
        }
        if addr == CONSOLE_ADDR {
            self.console.push(value as u8);
            return Ok(());
        }
        if let Some(off) = tcdm_offset(addr, size) {
            self.note_tcdm(addr);
            le_write(&mut self.tcdm, off, size, value);
        } else if let Some(off) = l2_offset(addr, size) {
            le_write(&mut self.l2, off, size, value);
        } else {
            return Err(BusError {
                addr,
                size,
                write: true,
            });
        }
        self.writes.push(WriteRec { addr, size, value });
        Ok(())
    }
}

/// How a hart retires one instruction: [`Core::step`] (block replay,
/// what every cluster run uses) or [`Core::reference_step`] (the
/// uncached oracle equivalence tests compare against).
pub type HartStep = fn(&mut Core, &mut HartPort) -> Result<bool, Trap>;

/// Runs one hart, one `step` at a time, until its next barrier arrival
/// or halt, whichever comes first. `budget` caps the hart's
/// *cumulative* cycle counter — the same absolute-watchdog contract as
/// [`riscv_core::Core::run`].
///
/// # Errors
///
/// Propagates core traps; budget exhaustion is [`Trap::Watchdog`].
pub fn run_region(
    core: &mut Core,
    port: &mut HartPort,
    budget: u64,
    step: HartStep,
) -> Result<RegionEnd, Trap> {
    loop {
        if core.perf.cycles >= budget {
            return Err(Trap::Watchdog {
                pc: core.pc,
                budget,
            });
        }
        port.now = core.perf.cycles;
        port.traced_this_step = false;
        if step(core, port)? {
            return Ok(RegionEnd::Halted(core.reg(pulp_isa::Reg::A0)));
        }
        if port.barrier {
            port.barrier = false;
            return Ok(RegionEnd::Barrier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_asm::Asm;
    use pulp_isa::Reg;
    use pulp_soc::cluster::TCDM_BASE;
    use pulp_soc::L2_BASE;
    use riscv_core::IsaConfig;

    #[test]
    fn port_traces_one_event_per_instruction_and_logs_writes() {
        let mem = ClusterMem::new();
        let mut port = HartPort::new(&mem, 100);
        port.now = 107;
        // A misaligned word access is one LSU request: one trace event.
        port.write(TCDM_BASE + 4, 4, 0xdead_beef).unwrap();
        assert_eq!(port.trace, vec![BankEvent { offset: 7, bank: 1 }]);
        port.traced_this_step = false;
        port.now = 108;
        assert_eq!(port.read(TCDM_BASE + 4, 4).unwrap(), 0xdead_beef);
        assert_eq!(port.trace.len(), 2);
        assert_eq!(port.writes.len(), 1);
        // L2 traffic is not bank traffic.
        port.traced_this_step = false;
        port.write(L2_BASE, 1, 0x55).unwrap();
        assert_eq!(port.trace.len(), 2);
        assert_eq!(port.writes.len(), 2);
        // The shared image is untouched until the merge applies the log.
        let mut shared = ClusterMem::new();
        assert_eq!(shared.read_u32(TCDM_BASE + 4), 0);
        for w in &port.writes {
            apply_write(&mut shared, w);
        }
        assert_eq!(shared.read_u32(TCDM_BASE + 4), 0xdead_beef);
        assert_eq!(shared.read_bytes(L2_BASE, 1), &[0x55]);
    }

    #[test]
    fn barrier_store_ends_a_region() {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.li(Reg::T0, EU_BARRIER as i32);
        a.sw(Reg::Zero, 0, Reg::T0);
        a.li(Reg::A0, 9);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut core = Core::with_hartid(IsaConfig::xpulpnn(), 3);
        core.pc = prog.base;
        let mut port = HartPort::new(&mem, 0);
        assert_eq!(
            run_region(&mut core, &mut port, 1000, Core::step).unwrap(),
            RegionEnd::Barrier
        );
        let mut port = HartPort::new(&mem, core.perf.cycles);
        assert_eq!(
            run_region(&mut core, &mut port, 1000, Core::step).unwrap(),
            RegionEnd::Halted(9)
        );
        // The event-unit store is neither logged nor traced.
        assert!(port.writes.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_a_watchdog() {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.label("spin");
        a.j("spin");
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;
        let mut port = HartPort::new(&mem, 0);
        assert!(matches!(
            run_region(&mut core, &mut port, 50, Core::step),
            Err(Trap::Watchdog { budget: 50, .. })
        ));
    }
}
