//! The cluster simulator: N harts, shared banked TCDM, event-unit
//! barriers, cluster DMA — with deterministic simulated time.
//!
//! Execution advances in barrier-delimited *regions*. Within a region
//! every live hart runs independently on a private memory clone (see
//! [`crate::hart`]); the region then closes with:
//!
//! 1. **trap check** — the lowest-hart trap aborts the run;
//! 2. **bank arbitration** — the recorded TCDM traces replay through
//!    [`crate::arbiter::arbitrate`], yielding per-hart conflict delays;
//! 3. **time merge** — the region lasts as long as its slowest hart
//!    (execution + conflict delay), max-plus semantics;
//! 4. **state merge** — write logs and console bytes apply to the
//!    shared image in hart-id order. Before the logs apply, the merge
//!    cross-checks them: bytes written by more than one hart in the
//!    same region (and, under [`ClusterSim::set_read_replay`], bytes
//!    one hart read while another hart's unmerged write to them was
//!    pending) are *races* the hart-order replay would silently
//!    resolve lowest-hart-last — they are counted in
//!    [`ClusterStats::write_conflicts`] / `read_conflicts` /
//!    `dma_conflicts` and recorded as typed [`ConflictRec`]s instead
//!    of being masked;
//! 5. **DMA overlap** — an optional background transfer (the next
//!    input band) costs `max(region, dma)` instead of `region + dma`,
//!    the double-buffering payoff; its bytes land at the merge.
//!
//! Every step is a pure function of architectural state, so cycle
//! counts and memory images are bit-identical for any `host_threads`.

use crate::hart::{apply_write, run_region, HartPort, HartStep, RegionEnd};
use crate::ClusterError;
use pulp_soc::cluster::{ClusterMem, DmaModel, DmaTransfer};
use pulp_soc::STACK_TOP;
use riscv_core::{Core, IsaConfig, Snapshot};

/// Cluster-level accounting, all in simulated cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-hart active cycles (execution + own conflict stalls).
    pub busy: Vec<u64>,
    /// Per-hart cycles parked at barriers waiting for stragglers.
    pub barrier_wait: Vec<u64>,
    /// TCDM requests that lost an arbitration round.
    pub conflicts: u64,
    /// Total cycles lost to bank conflicts (summed over harts).
    pub conflict_stalls: u64,
    /// Blocking DMA before the first region (tables + tensors + band 0).
    pub dma_prologue: u64,
    /// Background DMA cycles hidden under compute.
    pub dma_hidden: u64,
    /// Background DMA cycles that outlived their region (exposed).
    pub dma_exposed: u64,
    /// Blocking output write-back after the last region.
    pub dma_writeback: u64,
    /// Barrier-delimited regions executed.
    pub regions: u64,
    /// Cross-hart same-region write/write collision bytes: for every
    /// unordered hart pair, the bytes both harts wrote between the
    /// same two barriers. Zero for every race-free kernel; nonzero
    /// means the hart-order merge silently picked the higher hart's
    /// value (the dynamic counterpart of static rule DRF-01).
    pub write_conflicts: u64,
    /// Cross-hart same-region read-of-unmerged-write bytes, counted
    /// only when read replay is enabled via
    /// [`ClusterSim::set_read_replay`] (the dynamic counterpart of
    /// DRF-02): the reader observed its private pre-merge clone, not
    /// the peer's write.
    pub read_conflicts: u64,
    /// Bytes an overlapped background DMA transfer landed on that some
    /// hart read or wrote within the overlapped region (the dynamic
    /// counterpart of DRF-03): the transfer applies after the merge,
    /// so the hart raced the engine.
    pub dma_conflicts: u64,
}

impl ClusterStats {
    fn new(n_harts: usize) -> ClusterStats {
        ClusterStats {
            busy: vec![0; n_harts],
            barrier_wait: vec![0; n_harts],
            conflicts: 0,
            conflict_stalls: 0,
            dma_prologue: 0,
            dma_hidden: 0,
            dma_exposed: 0,
            dma_writeback: 0,
            regions: 0,
            write_conflicts: 0,
            read_conflicts: 0,
            dma_conflicts: 0,
        }
    }

    /// Total conflict bytes across all three detectors.
    pub fn conflict_bytes(&self) -> u64 {
        self.write_conflicts + self.read_conflicts + self.dma_conflicts
    }

    /// Total background DMA cycles (hidden + exposed).
    pub fn dma_overlapped(&self) -> u64 {
        self.dma_hidden + self.dma_exposed
    }
}

/// What kind of same-region collision the merge detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two harts wrote the same bytes (DRF-01's dynamic counterpart).
    WriteWrite,
    /// `hart_a` read bytes `hart_b` wrote in the same region, so it
    /// saw its pre-merge private clone (DRF-02's counterpart; only
    /// detected under [`ClusterSim::set_read_replay`]).
    ReadWrite,
    /// An overlapped DMA transfer landed on bytes `hart_a` touched in
    /// the overlapped region (DRF-03's counterpart).
    DmaOverlap,
}

/// One detected same-region collision, `[lo, hi)` bytes wide. The
/// merge records at most [`CONFLICT_LOG_CAP`] of these (the counters
/// in [`ClusterStats`] keep exact totals); records are deterministic —
/// harts ascending, then address ascending — for any `host_threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRec {
    /// Zero-based region index ([`ClusterStats::regions`] at detection
    /// time).
    pub region: u64,
    /// Which detector fired.
    pub kind: ConflictKind,
    /// First colliding byte.
    pub lo: u32,
    /// One past the last colliding byte.
    pub hi: u32,
    /// The first party (the reader for [`ConflictKind::ReadWrite`]).
    pub hart_a: usize,
    /// The second party; `None` is the DMA engine.
    pub hart_b: Option<usize>,
}

impl ConflictRec {
    /// True when `addr` falls inside the colliding byte range — how
    /// the conformance cross-validation matches a dynamic report
    /// against a static DRF finding's address range.
    pub fn contains(&self, addr: u32) -> bool {
        self.lo <= addr && addr < self.hi
    }
}

impl std::fmt::Display for ConflictRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ConflictKind::WriteWrite => "write/write",
            ConflictKind::ReadWrite => "read/write",
            ConflictKind::DmaOverlap => "dma-overlap",
        };
        let peer = match self.hart_b {
            Some(h) => format!("hart {h}"),
            None => "dma".to_string(),
        };
        write!(
            f,
            "region {}: {} conflict [{:#010x},{:#010x}) hart {} vs {}",
            self.region, kind, self.lo, self.hi, self.hart_a, peer
        )
    }
}

/// Upper bound on retained [`ConflictRec`]s; see
/// [`ClusterSim::conflict_log`].
pub const CONFLICT_LOG_CAP: usize = 64;

/// Coalesces `(lo, hi)` byte intervals into sorted disjoint form.
fn coalesce(mut spans: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    spans.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in spans {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Sweeps two sorted disjoint interval lists, invoking `on_hit` per
/// overlapping sub-range and returning the total overlapping bytes.
fn overlap_bytes(a: &[(u32, u32)], b: &[(u32, u32)], mut on_hit: impl FnMut(u32, u32)) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut bytes = 0u64;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            bytes += u64::from(hi - lo);
            on_hit(lo, hi);
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    bytes
}

/// A checkpoint of the complete cluster state: every hart's
/// architectural snapshot, the shared memory image, console, clock,
/// halt flags and statistics. Restoring and re-running is
/// deterministic — the multi-core analogue of
/// [`pulp_soc::SocSnapshot`], and what fault-injection rollback
/// recovery builds on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    harts: Vec<Snapshot>,
    mem: ClusterMem,
    console: Vec<u8>,
    clock: u64,
    halted: Vec<bool>,
    exit_codes: Vec<u32>,
    stats: ClusterStats,
    conflicts: Vec<ConflictRec>,
}

impl ClusterSnapshot {
    /// Cluster clock at the checkpoint.
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

/// The cluster: harts + shared memory + DMA engine + clock.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    /// The shared memory image (host-stageable).
    pub mem: ClusterMem,
    /// The DMA cost model.
    pub dma: DmaModel,
    /// Cluster-level accounting.
    pub stats: ClusterStats,
    /// Console bytes, merged in hart order at each region boundary.
    pub console: Vec<u8>,
    /// Typed records of detected same-region collisions, capped at
    /// [`CONFLICT_LOG_CAP`] (the [`ClusterStats`] counters stay exact
    /// past the cap).
    pub conflict_log: Vec<ConflictRec>,
    harts: Vec<Core>,
    halted: Vec<bool>,
    exit_codes: Vec<u32>,
    clock: u64,
    host_threads: usize,
    replay_reads: bool,
}

impl ClusterSim {
    /// Creates a cluster of `n_harts` harts (ids 0..n) over `mem`.
    pub fn new(isa: IsaConfig, n_harts: usize, mem: ClusterMem) -> ClusterSim {
        assert!((1..=8).contains(&n_harts), "1..=8 harts");
        ClusterSim {
            mem,
            dma: DmaModel::default(),
            stats: ClusterStats::new(n_harts),
            console: Vec::new(),
            conflict_log: Vec::new(),
            harts: (0..n_harts)
                .map(|h| Core::with_hartid(isa, h as u32))
                .collect(),
            halted: vec![false; n_harts],
            exit_codes: vec![0; n_harts],
            clock: 0,
            host_threads: 1,
            replay_reads: false,
        }
    }

    /// Number of harts.
    pub fn n_harts(&self) -> usize {
        self.harts.len()
    }

    /// A hart's core (counters, registers).
    pub fn hart(&self, h: usize) -> &Core {
        &self.harts[h]
    }

    /// Mutable hart access (fault injection flips registers here).
    pub fn hart_mut(&mut self, h: usize) -> &mut Core {
        &mut self.harts[h]
    }

    /// Host threads regions are spread over (1 = sequential). Purely a
    /// host-side knob: simulated results are identical for any value.
    pub fn set_host_threads(&mut self, n: usize) {
        self.host_threads = n.max(1);
    }

    /// Enables debug read replay: harts log their reads and the merge
    /// additionally detects cross-hart read-after-unmerged-write
    /// ([`ClusterStats::read_conflicts`], [`ConflictKind::ReadWrite`]).
    /// Off by default — read logging is hot-path overhead and the
    /// write/write and DMA detectors do not need it. The knob never
    /// changes simulated time or memory contents.
    pub fn set_read_replay(&mut self, on: bool) {
        self.replay_reads = on;
    }

    /// Drops the decoded blocks of every hart whose fetched code
    /// overlaps `len` bytes at `addr`. Writes to the shared image bypass
    /// the harts' own store filters: the region merge and DMA call this
    /// themselves; host writes to [`ClusterSim::mem`] (staging, fault
    /// flips) that may touch code must call it too.
    pub fn invalidate_code(&mut self, addr: u32, len: u32) {
        for core in &mut self.harts {
            core.invalidate_code(addr, len);
        }
    }

    /// Points every hart at `entry` SPMD-style, with per-hart stacks
    /// descending from the top of L2 (4 kB apart; the generated QNN
    /// kernels are stackless, this is for raw SPMD programs).
    pub fn start(&mut self, entry: u32) {
        for (h, core) in self.harts.iter_mut().enumerate() {
            core.pc = entry;
            core.set_reg(pulp_isa::Reg::Sp, STACK_TOP - (h as u32) * 4096);
        }
    }

    /// The cluster clock: simulated cycles including conflict stalls,
    /// barrier waits and DMA time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// True once every hart has executed `ecall`.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|&h| h)
    }

    /// Per-hart halt flags.
    pub fn halted(&self) -> &[bool] {
        &self.halted
    }

    /// Per-hart exit codes (valid once halted).
    pub fn exit_codes(&self) -> &[u32] {
        &self.exit_codes
    }

    /// Runs a *blocking* DMA transfer (prologue staging, write-back):
    /// the transfer applies immediately and the clock advances by its
    /// full cost. Returns the cycles charged, for the caller's stats
    /// bucket.
    pub fn dma_blocking(&mut self, t: &DmaTransfer) -> u64 {
        t.apply(&mut self.mem);
        self.invalidate_code(t.dst, t.bytes);
        let cycles = t.cycles(&self.dma);
        self.clock += cycles;
        cycles
    }

    /// Executes one region on every live hart, with an optional
    /// background DMA transfer overlapped under it. Returns `true`
    /// when all harts have halted.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Trap`] carrying the lowest-id trapping hart.
    pub fn run_region(
        &mut self,
        budget: u64,
        overlap: Option<&DmaTransfer>,
    ) -> Result<bool, ClusterError> {
        self.run_region_with(budget, overlap, Core::step)
    }

    /// [`ClusterSim::run_region`] with every hart advanced by `step`;
    /// [`Core::reference_step`] gives the uncached oracle run.
    ///
    /// # Errors
    ///
    /// As [`ClusterSim::run_region`].
    pub fn run_region_with(
        &mut self,
        budget: u64,
        overlap: Option<&DmaTransfer>,
        step: HartStep,
    ) -> Result<bool, ClusterError> {
        let n = self.harts.len();
        let mem = &self.mem;
        let halted = &self.halted;
        let replay_reads = self.replay_reads;
        let mut tasks: Vec<(usize, &mut Core, HartPort)> = Vec::new();
        for (h, core) in self.harts.iter_mut().enumerate() {
            if !halted[h] {
                let mut port = HartPort::new(mem, core.perf.cycles);
                port.log_reads = replay_reads;
                tasks.push((h, core, port));
            }
        }

        // Host-side parallelism only: each task is independent (private
        // memory clone), bucketed round-robin and reassembled in hart
        // order, so the merge below never observes scheduling.
        let run_task = |(h, core, mut port): (usize, &mut Core, HartPort)| {
            let before = core.perf.cycles;
            let end = run_region(core, &mut port, budget, step);
            let exec = core.perf.cycles - before;
            (h, end, port, exec)
        };
        let threads = self.host_threads.min(tasks.len().max(1));
        let mut results = if threads <= 1 {
            tasks.into_iter().map(run_task).collect::<Vec<_>>()
        } else {
            let mut buckets: Vec<Vec<(usize, &mut Core, HartPort)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for t in tasks {
                buckets[t.0 % threads].push(t);
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|b| s.spawn(move || b.into_iter().map(run_task).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("hart thread panicked"))
                    .collect::<Vec<_>>()
            })
        };
        results.sort_by_key(|r| r.0);

        for (h, end, _, _) in &results {
            if let Err(trap) = end {
                return Err(ClusterError::Trap {
                    hart: *h,
                    trap: *trap,
                });
            }
        }

        let mut traces: Vec<&[crate::hart::BankEvent]> = vec![&[]; n];
        for (h, _, port, _) in &results {
            traces[*h] = &port.trace;
        }
        let arb = crate::arbiter::arbitrate(&traces);

        let mut region_time = 0u64;
        for (h, _, _, exec) in &results {
            region_time = region_time.max(exec + arb.delay[*h]);
        }

        // Conflict detection: pure observation over the write (and,
        // under read replay, read) logs *before* they merge — the
        // merge below is byte-identical with or without it. Results
        // are already in hart-id order, so counters and records are
        // deterministic for any host_threads.
        let region_idx = self.stats.regions;
        // (hart, write spans, read spans) per port, hart-id ordered.
        type HartFoot = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);
        let foot: Vec<HartFoot> = results
            .iter()
            .map(|(h, _, port, _)| {
                let w = coalesce(
                    port.writes
                        .iter()
                        .map(|w| (w.addr, w.addr + w.size))
                        .collect(),
                );
                let r = coalesce(port.reads.iter().map(|&(a, s)| (a, a + s)).collect());
                (*h, w, r)
            })
            .collect();
        let mut recs: Vec<ConflictRec> = Vec::new();
        for x in 0..foot.len() {
            for y in x + 1..foot.len() {
                let (ha, wa, ra) = &foot[x];
                let (hb, wb, rb) = &foot[y];
                self.stats.write_conflicts += overlap_bytes(wa, wb, |lo, hi| {
                    recs.push(ConflictRec {
                        region: region_idx,
                        kind: ConflictKind::WriteWrite,
                        lo,
                        hi,
                        hart_a: *ha,
                        hart_b: Some(*hb),
                    });
                });
                self.stats.read_conflicts += overlap_bytes(ra, wb, |lo, hi| {
                    recs.push(ConflictRec {
                        region: region_idx,
                        kind: ConflictKind::ReadWrite,
                        lo,
                        hi,
                        hart_a: *ha,
                        hart_b: Some(*hb),
                    });
                });
                self.stats.read_conflicts += overlap_bytes(rb, wa, |lo, hi| {
                    recs.push(ConflictRec {
                        region: region_idx,
                        kind: ConflictKind::ReadWrite,
                        lo,
                        hi,
                        hart_a: *hb,
                        hart_b: Some(*ha),
                    });
                });
            }
        }
        if let Some(t) = overlap {
            let band = [(t.dst, t.dst + t.bytes)];
            for (h, w, r) in &foot {
                for spans in [w, r] {
                    self.stats.dma_conflicts += overlap_bytes(spans, &band, |lo, hi| {
                        recs.push(ConflictRec {
                            region: region_idx,
                            kind: ConflictKind::DmaOverlap,
                            lo,
                            hi,
                            hart_a: *h,
                            hart_b: None,
                        });
                    });
                }
            }
        }
        let room = CONFLICT_LOG_CAP.saturating_sub(self.conflict_log.len());
        self.conflict_log.extend(recs.into_iter().take(room));

        for (h, end, port, exec) in results {
            let active = exec + arb.delay[h];
            self.stats.busy[h] += active;
            self.stats.barrier_wait[h] += region_time - active;
            for w in &port.writes {
                apply_write(&mut self.mem, w);
            }
            self.console.extend_from_slice(&port.console);
            if let Ok(RegionEnd::Halted(code)) = end {
                self.halted[h] = true;
                self.exit_codes[h] = code;
            }
        }
        // Another hart's merged stores may land in code a hart has
        // already decoded; only the writer's own store filter saw them.
        for (_, writes, _) in &foot {
            for &(lo, hi) in writes {
                self.invalidate_code(lo, hi - lo);
            }
        }
        self.stats.conflicts += arb.conflicts;
        self.stats.conflict_stalls += arb.stall_cycles;
        self.stats.regions += 1;

        let dma_cycles = overlap.map_or(0, |t| t.cycles(&self.dma));
        self.clock += region_time.max(dma_cycles);
        self.stats.dma_hidden += dma_cycles.min(region_time);
        self.stats.dma_exposed += dma_cycles.saturating_sub(region_time);
        if let Some(t) = overlap {
            t.apply(&mut self.mem);
            self.invalidate_code(t.dst, t.bytes);
        }
        Ok(self.all_halted())
    }

    /// Captures a checkpoint of the complete cluster state.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            harts: self.harts.iter().map(Core::snapshot).collect(),
            mem: self.mem.clone(),
            console: self.console.clone(),
            clock: self.clock,
            halted: self.halted.clone(),
            exit_codes: self.exit_codes.clone(),
            stats: self.stats.clone(),
            conflicts: self.conflict_log.clone(),
        }
    }

    /// Restores a checkpoint taken with [`ClusterSim::snapshot`].
    pub fn restore(&mut self, snap: &ClusterSnapshot) {
        assert_eq!(snap.harts.len(), self.harts.len(), "cluster size mismatch");
        for (core, s) in self.harts.iter_mut().zip(&snap.harts) {
            core.restore(s);
        }
        self.mem = snap.mem.clone();
        self.console.clone_from(&snap.console);
        self.clock = snap.clock;
        self.halted.clone_from(&snap.halted);
        self.exit_codes.clone_from(&snap.exit_codes);
        self.stats = snap.stats.clone();
        self.conflict_log.clone_from(&snap.conflicts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_asm::Asm;
    use pulp_isa::Reg;
    use pulp_soc::cluster::{EU_BARRIER, TCDM_BASE};
    use pulp_soc::L2_BASE;

    /// Each hart stores its id into its own TCDM word, barriers, then
    /// reads its right neighbour's word (wrapping) — classic cross-hart
    /// communication that only works if the merge is real.
    fn neighbour_prog(n: usize) -> pulp_asm::Program {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.i(pulp_isa::instr::Instr::Csr {
            op: 1,
            rd: Reg::T0,
            rs1: Reg::Zero,
            csr: pulp_isa::csr::MHARTID,
        });
        a.slli(Reg::T1, Reg::T0, 2);
        a.li(Reg::T2, TCDM_BASE as i32);
        a.add(Reg::T1, Reg::T1, Reg::T2);
        a.sw(Reg::T0, 0, Reg::T1); // mine[id] = id
        a.li(Reg::T3, EU_BARRIER as i32);
        a.sw(Reg::Zero, 0, Reg::T3); // barrier
        a.addi(Reg::T4, Reg::T0, 1); // neighbour = (id + 1) % n
        a.li(Reg::T5, n as i32);
        a.bne(Reg::T4, Reg::T5, "no_wrap");
        a.li(Reg::T4, 0);
        a.label("no_wrap");
        a.slli(Reg::T4, Reg::T4, 2);
        a.add(Reg::T4, Reg::T4, Reg::T2);
        a.lw(Reg::A0, 0, Reg::T4); // a0 = neighbour's id
        a.ecall();
        a.assemble().unwrap()
    }

    fn run_neighbour(n: usize, host_threads: usize) -> ClusterSim {
        let prog = neighbour_prog(n);
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), n, mem);
        sim.set_host_threads(host_threads);
        sim.start(prog.base);
        while !sim.run_region(100_000, None).unwrap() {}
        sim
    }

    #[test]
    fn barrier_makes_neighbour_writes_visible() {
        let sim = run_neighbour(4, 1);
        assert_eq!(sim.exit_codes(), &[1, 2, 3, 0]);
        assert_eq!(sim.stats.regions, 2);
        // Properly barrier-separated communication is conflict-free.
        assert_eq!(sim.stats.conflict_bytes(), 0);
        assert!(sim.conflict_log.is_empty());
    }

    /// `neighbour_prog` with the barrier removed: each hart reads its
    /// neighbour's slot in the *same* region the neighbour writes it,
    /// so it sees its private pre-merge clone (a zero). The write/write
    /// detector stays silent (slots are disjoint); only read replay
    /// catches the missing barrier.
    #[test]
    fn read_replay_flags_read_of_unmerged_neighbour_write() {
        let n = 2usize;
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.i(pulp_isa::instr::Instr::Csr {
            op: 1,
            rd: Reg::T0,
            rs1: Reg::Zero,
            csr: pulp_isa::csr::MHARTID,
        });
        a.slli(Reg::T1, Reg::T0, 2);
        a.li(Reg::T2, TCDM_BASE as i32);
        a.add(Reg::T1, Reg::T1, Reg::T2);
        a.sw(Reg::T0, 0, Reg::T1); // mine[id] = id — no barrier!
        a.addi(Reg::T4, Reg::T0, 1);
        a.li(Reg::T5, n as i32);
        a.bne(Reg::T4, Reg::T5, "no_wrap");
        a.li(Reg::T4, 0);
        a.label("no_wrap");
        a.slli(Reg::T4, Reg::T4, 2);
        a.add(Reg::T4, Reg::T4, Reg::T2);
        a.lw(Reg::A0, 0, Reg::T4);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), n, mem);
        sim.set_read_replay(true);
        sim.start(prog.base);
        while !sim.run_region(100_000, None).unwrap() {}
        // The race is real: both harts read stale zeros.
        assert_eq!(sim.exit_codes(), &[0, 0]);
        // Writes are disjoint; the reads race. Hart 0 reads slot 1
        // (written by hart 1) and vice versa: 2 × 4 bytes.
        assert_eq!(sim.stats.write_conflicts, 0);
        assert_eq!(sim.stats.read_conflicts, 8);
        let rw: Vec<&ConflictRec> = sim
            .conflict_log
            .iter()
            .filter(|r| r.kind == ConflictKind::ReadWrite)
            .collect();
        assert_eq!(rw.len(), 2);
        assert!(rw
            .iter()
            .any(|r| r.hart_a == 0 && r.contains(TCDM_BASE + 4)));
        assert!(rw.iter().any(|r| r.hart_a == 1 && r.contains(TCDM_BASE)));
        // Replay is observation only: a replica without it computes
        // the identical clock and memory image.
        let prog2 = prog.clone();
        let mut mem2 = ClusterMem::new();
        mem2.load(&prog2);
        let mut plain = ClusterSim::new(IsaConfig::xpulpnn(), n, mem2);
        plain.start(prog2.base);
        while !plain.run_region(100_000, None).unwrap() {}
        assert_eq!(plain.clock(), sim.clock());
        assert_eq!(plain.mem, sim.mem);
        assert_eq!(plain.stats.read_conflicts, 0);
    }

    #[test]
    fn simulated_time_and_state_independent_of_host_threads() {
        let a = run_neighbour(8, 1);
        let b = run_neighbour(8, 2);
        let c = run_neighbour(8, 8);
        for other in [&b, &c] {
            assert_eq!(a.clock(), other.clock());
            assert_eq!(a.exit_codes(), other.exit_codes());
            assert_eq!(a.mem, other.mem);
            assert_eq!(a.stats, other.stats);
            for h in 0..8 {
                assert_eq!(a.hart(h).perf, other.hart(h).perf);
            }
        }
    }

    #[test]
    fn same_word_stores_serialize_through_the_arbiter() {
        // All harts hammer the same TCDM word: the kernel is identical
        // on each, so every store issues in the same cycle and the
        // bank must serialize n-1 losers.
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.li(Reg::T1, TCDM_BASE as i32);
        a.sw(Reg::T1, 0, Reg::T1);
        a.li(Reg::A0, 0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 4, mem);
        sim.start(prog.base);
        sim.run_region(10_000, None).unwrap();
        assert_eq!(sim.stats.conflicts, 3);
        assert_eq!(sim.stats.conflict_stalls, 1 + 2 + 3);
        // Lowest hart wins: zero delay for hart 0.
        assert_eq!(sim.stats.busy[0] + 3, sim.stats.busy[3]);
        // The arbiter serializes the *timing*, but the stores still
        // collide in the merge: every unordered pair of the 4 harts
        // overlaps on the same 4-byte word — C(4,2) × 4 = 24 bytes.
        assert_eq!(sim.stats.write_conflicts, 24);
        assert_eq!(
            sim.conflict_log[0],
            ConflictRec {
                region: 0,
                kind: ConflictKind::WriteWrite,
                lo: TCDM_BASE,
                hi: TCDM_BASE + 4,
                hart_a: 0,
                hart_b: Some(1),
            }
        );
        assert_eq!(sim.conflict_log.len(), 6);
    }

    /// An overlapped band transfer that lands on bytes a hart writes in
    /// the overlapped region races the DMA engine (the transfer applies
    /// after the merge, clobbering the hart's value).
    #[test]
    fn overlap_dma_into_written_range_is_flagged() {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.li(Reg::T1, (TCDM_BASE + 0x400) as i32);
        a.sw(Reg::T1, 0, Reg::T1);
        a.li(Reg::A0, 0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.write_bytes(L2_BASE, &[7; 64]);
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 1, mem);
        sim.start(prog.base);
        let t = DmaTransfer {
            src: L2_BASE,
            dst: TCDM_BASE + 0x400,
            bytes: 64,
        };
        sim.run_region(100_000, Some(&t)).unwrap();
        assert_eq!(sim.stats.dma_conflicts, 4);
        assert_eq!(
            sim.conflict_log[0],
            ConflictRec {
                region: 0,
                kind: ConflictKind::DmaOverlap,
                lo: TCDM_BASE + 0x400,
                hi: TCDM_BASE + 0x404,
                hart_a: 0,
                hart_b: None,
            }
        );
        // And the race is real: the DMA engine overwrote the store.
        assert_eq!(sim.mem.read_bytes(TCDM_BASE + 0x400, 4), &[7; 4]);
    }

    #[test]
    fn overlapped_dma_is_hidden_under_compute() {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        for _ in 0..100 {
            a.nop();
        }
        a.li(Reg::T3, EU_BARRIER as i32);
        a.sw(Reg::Zero, 0, Reg::T3);
        a.li(Reg::A0, 0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = ClusterMem::new();
        mem.write_bytes(L2_BASE, &[7; 64]);
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 2, mem);
        sim.start(prog.base);
        let t = DmaTransfer {
            src: L2_BASE,
            dst: TCDM_BASE + 0x400,
            bytes: 64,
        };
        let clock_before = sim.clock();
        sim.run_region(100_000, Some(&t)).unwrap();
        // 16 setup + 16 streaming = 32 cycles, fully hidden under the
        // ~100-cycle region.
        assert_eq!(sim.stats.dma_hidden, 32);
        assert_eq!(sim.stats.dma_exposed, 0);
        // Double-buffered correctly: the band lands outside anything
        // the compute region touched.
        assert_eq!(sim.stats.dma_conflicts, 0);
        assert!(sim.clock() - clock_before > 100);
        assert_eq!(sim.mem.read_bytes(TCDM_BASE + 0x400, 64), &[7; 64]);
        while !sim.run_region(100_000, None).unwrap() {}
    }

    /// Serving-template audit pin: restoring a [`ClusterSnapshot`] of
    /// a *different* program staged at the same base must never replay
    /// decoded blocks of the previous one on any hart —
    /// `ClusterSim::restore` goes through `Core::restore`, which
    /// flushes each hart's block cache unconditionally.
    #[test]
    fn restore_of_another_template_cannot_replay_stale_blocks() {
        let prog = |k: i32| {
            let mut a = Asm::new(pulp_soc::CODE_BASE);
            a.li(Reg::A0, k);
            a.ecall();
            a.assemble().unwrap()
        };
        let (prog_a, prog_b) = (prog(11), prog(22));
        let template = |p: &pulp_asm::Program| {
            let mut mem = ClusterMem::new();
            mem.load(p);
            let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 4, mem);
            sim.start(p.base);
            sim.snapshot()
        };
        let (template_a, template_b) = (template(&prog_a), template(&prog_b));

        let mut mem = ClusterMem::new();
        mem.load(&prog_a);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 4, mem);
        sim.start(prog_a.base);
        // Warm every hart's block cache on program A.
        while !sim.run_region(100_000, None).unwrap() {}
        assert_eq!(sim.exit_codes(), &[11; 4]);
        // Re-fork the whole cluster onto template B at the same
        // addresses: stale blocks from A must not survive on any hart.
        sim.restore(&template_b);
        while !sim.run_region(100_000, None).unwrap() {}
        assert_eq!(sim.exit_codes(), &[22; 4]);
        // And back to A, still exact.
        sim.restore(&template_a);
        while !sim.run_region(100_000, None).unwrap() {}
        assert_eq!(sim.exit_codes(), &[11; 4]);
    }

    /// Hart 1 patches an instruction both harts have already decoded;
    /// after the barrier merges the store, hart 0 must execute the new
    /// instruction, not its stale cached block — exactly like a run
    /// driven by reference steps alone.
    #[test]
    fn cross_hart_code_patch_invalidates_after_the_barrier() {
        let mut a = Asm::new(pulp_soc::CODE_BASE);
        a.i(pulp_isa::instr::Instr::Csr {
            op: 1,
            rd: Reg::T0,
            rs1: Reg::Zero,
            csr: pulp_isa::csr::MHARTID,
        });
        a.li(Reg::A0, 0);
        a.j("patchme"); // so a block starts at `patchme`
        a.label("patchme");
        a.addi(Reg::A0, Reg::A0, 1);
        a.bne(Reg::T1, Reg::Zero, "done"); // second pass: finish
        a.li(Reg::T1, 1);
        a.beq(Reg::T0, Reg::Zero, "barrier"); // only hart 1 patches
        a.li(Reg::T3, 0x0405_0513); // addi a0, a0, 64
        a.la(Reg::T4, "patchme");
        a.sw(Reg::T3, 0, Reg::T4);
        a.label("barrier");
        a.li(Reg::T5, EU_BARRIER as i32);
        a.sw(Reg::Zero, 0, Reg::T5);
        a.j("patchme");
        a.label("done");
        a.ecall();
        let prog = a.assemble().unwrap();
        let run = |step: HartStep| {
            let mut mem = ClusterMem::new();
            mem.load(&prog);
            let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 2, mem);
            sim.start(prog.base);
            while !sim.run_region_with(10_000, None, step).unwrap() {}
            sim
        };
        let replay = run(Core::step);
        let reference = run(Core::reference_step);
        assert_eq!(reference.exit_codes(), &[65, 65]);
        assert_eq!(replay.exit_codes(), reference.exit_codes());
        assert_eq!(replay.clock(), reference.clock());
        assert_eq!(replay.mem, reference.mem);
        for h in 0..2 {
            assert_eq!(replay.hart(h).perf, reference.hart(h).perf);
        }
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let prog = neighbour_prog(4);
        let mut mem = ClusterMem::new();
        mem.load(&prog);
        let mut sim = ClusterSim::new(IsaConfig::xpulpnn(), 4, mem);
        sim.start(prog.base);
        sim.run_region(100_000, None).unwrap(); // up to the barrier
        let snap = sim.snapshot();

        let mut straight = sim.clone();
        while !straight.run_region(100_000, None).unwrap() {}

        // Perturb, roll back, re-run: must match the straight run.
        sim.hart_mut(2).regs[13] = 0xdead;
        sim.mem.write_u32(TCDM_BASE + 0x40, 99);
        sim.restore(&snap);
        assert_eq!(sim.snapshot(), snap);
        while !sim.run_region(100_000, None).unwrap() {}
        assert_eq!(sim.clock(), straight.clock());
        assert_eq!(sim.exit_codes(), straight.exit_codes());
        assert_eq!(sim.mem, straight.mem);
    }
}
