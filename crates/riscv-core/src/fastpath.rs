//! Decoded-basic-block replay: the core's one execution engine.
//!
//! Fetch → decode → extension check costs more than executing most
//! instructions, and PULP-NN kernels retire millions of instructions
//! from a few dozen static addresses (tight hardware-loop bodies). So
//! every core decodes straight-line spans **once** into compact [`Op`]
//! runs ([`Block`]s), caches them by start PC, and replays them through
//! execution routines that share `Core::exec_decoded`'s side-effect
//! order. Only the fetch/decode work is elided — never the execution or
//! cycle-accounting code — so architectural state, the
//! `cycles == Σ buckets` ledger invariant, and every pinned cycle count
//! match `Core::reference_step`, the uncached path, bit-exactly.
//!
//! # Block formation
//!
//! Translation walks forward from a PC, decoding until it reaches:
//!
//! * a control-flow instruction (`jal`, `jalr`, a branch, `ecall`,
//!   `ebreak`) — **included** as the block's final op, since it executes
//!   from its pre-decoded form just fine;
//! * an instruction that fails to fetch, decode, or pass the extension
//!   check — **excluded**, so the trap (if execution ever gets there)
//!   is raised by a reference step with its exact PC and state;
//! * the block size cap.
//!
//! Hardware-loop back-edges need no special casing: the executor
//! follows the core's *actual* next PC after every op, so a back-edge
//! (or any other redirect) simply ends the block replay and the next
//! lookup starts at the loop head.
//!
//! # Two replay granularities
//!
//! * **burst** — untraced `Core::run` retires runs of simple
//!   single-cycle ops with counters batched in registers;
//! * **per-op** — `Core::step`, and `Core::run` with a tracer attached,
//!   retire one op at a time and record each retire's trace entry.
//!
//! # Coherence
//!
//! | event | behaviour |
//! |---|---|
//! | PC untranslatable | one `Core::reference_step` |
//! | store hits fetched code | store executes, then the cache flushes |
//! | `restore()` / `reset()` | cache flushes |
//! | write bypassing the bus | caller calls `Core::invalidate_code` or `Core::invalidate_fastpath` |
//! | ISA config changed | cache flushes on the next lookup |

use crate::bus::Bus;
use crate::core::{missing_extension, Core, IsaConfig};
use crate::perf::fmt_index;
use pulp_isa::instr::{AluOp, BranchCond, Instr, LoadKind, SimdOperand};
use pulp_isa::simd::{DotSign, SimdFmt};
use pulp_isa::Reg;

/// Longest block the translator will form, in instructions. Long
/// enough to swallow any kernel loop body whole, short enough that a
/// mid-block budget exhaustion re-checks promptly.
const MAX_BLOCK_OPS: usize = 64;

/// Direct-mapped block-table size (slots, power of two). Indexed by
/// `(pc >> 1) & (BLOCK_SLOTS - 1)`, so starts within an 8 kB code
/// window never alias; a colliding start simply evicts the old block.
const BLOCK_SLOTS: usize = 4096;

/// Ops the pool reserves up front: every shipped kernel translates
/// fewer, so its runs allocate nothing after the core is built.
const POOL_RESERVE: usize = 256;

/// Pool size at which translation flushes the cache first, bounding
/// the ops that evicted blocks leave behind.
const POOL_LIMIT: usize = 1 << 14;

/// One pre-decoded instruction: everything `Core::exec_decoded` needs,
/// plus the translate-time specialization (see [`USpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// Encoded length in bytes (2 for RVC, 4 otherwise).
    pub ilen: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Translate-time specialization for the execution hot path.
    pub(crate) spec: USpec,
}

/// The second operand of a specialized dot product, with `.sci`
/// immediates already replicated across lanes at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DotOp2 {
    /// `.v`: full vector register.
    Vector(Reg),
    /// `.sc`: lane 0 of the register, replicated at execution time.
    Scalar(Reg),
    /// `.sci`: the replicated immediate, precomputed.
    Replicated(u32),
}

/// Translate-time specialization of one instruction.
///
/// `Core::exec_decoded` pays for generality on every
/// retire: a 50-way match, runtime-`fmt` SIMD lane loops, dynamic
/// load/store sizing. The profiled QNN kernels spend >90 % of retires
/// in a handful of shapes (post-increment word loads, `pv.sdot*`,
/// scalar ALU, branches), so the translator resolves those shapes
/// *once* into compact pre-specialized variants that
/// `Core::exec_spec` executes with the exact same architectural,
/// counter and trap side effects — verified op-for-op by the
/// `conformance --fastpath` lockstep oracle and the pinned cycle
/// counts. Everything else stays [`USpec::Generic`] and runs through
/// `exec_decoded` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum USpec {
    /// No specialization: execute via `Core::exec_decoded`.
    Generic,
    /// `lui`.
    Lui { rd: Reg, imm: u32 },
    /// `auipc`.
    Auipc { rd: Reg, imm: u32 },
    /// Register-register ALU op.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-immediate ALU op (immediate pre-cast).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    /// Base+offset word load (`lw`): the dominant load shape, with the
    /// access width a compile-time constant so the bus access inlines
    /// to a single 32-bit read.
    LoadW { rd: Reg, rs1: Reg, offset: u32 },
    /// Post-increment word load (`p.lw rd, off(rs1!)`), the QNN
    /// kernels' hottest memory shape.
    LoadWPostInc { rd: Reg, rs1: Reg, offset: u32 },
    /// Base+offset load of any other width.
    Load {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    /// Post-increment load of any other width.
    LoadPostInc {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    /// Base+offset word store (`sw`).
    StoreW { rs1: Reg, rs2: Reg, offset: u32 },
    /// Post-increment word store (`p.sw`).
    StoreWPostInc { rs1: Reg, rs2: Reg, offset: u32 },
    /// Base+offset store of any other width (size pre-resolved).
    Store {
        size: u32,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// Post-increment store of any other width.
    StorePostInc {
        size: u32,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// Conditional branch (target offset pre-cast).
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// `pv.dot*` / `pv.sdot*` with the lane math monomorphized per
    /// `(fmt, sign)` (dispatched through [`dot_eval`]) and the ledger
    /// index precomputed.
    Dot {
        acc: bool,
        fmt: SimdFmt,
        sign: DotSign,
        fi: u8,
        rd: Reg,
        rs1: Reg,
        op2: DotOp2,
    },
}

impl USpec {
    /// True for the specs the counter-batched burst executor handles:
    /// every single-cycle shape that only redirects control through
    /// the hardware-loop rule. `Generic` (arbitrary side effects),
    /// branches and jumps always go through the general per-op path.
    #[inline]
    pub(crate) fn burst_eligible(&self) -> bool {
        !matches!(self, USpec::Generic | USpec::Branch { .. })
    }
}

/// Dot product with lane width and operand signedness fixed at compile
/// time: the const generics let the compiler fully unroll the lane loop
/// and drop every per-lane branch the runtime-`fmt` reference pays.
/// Semantics are lane-for-lane those of [`pulp_isa::simd::dotp`].
fn dot_mono<const BITS: u32, const SA: bool, const SB: bool>(a: u32, b: u32) -> u32 {
    let lanes = (32 / BITS) as usize;
    let mask = (1u32 << BITS) - 1;
    let ext = 32 - BITS;
    let mut acc = 0u32;
    let mut i = 0;
    while i < lanes {
        let ua = (a >> (i as u32 * BITS)) & mask;
        let ub = (b >> (i as u32 * BITS)) & mask;
        let x: i64 = if SA {
            (((ua << ext) as i32) >> ext) as i64
        } else {
            ua as i64
        };
        let y: i64 = if SB {
            (((ub << ext) as i32) >> ext) as i64
        } else {
            ub as i64
        };
        acc = acc.wrapping_add((x * y) as u32);
        i += 1;
    }
    acc
}

/// Dispatches to the monomorphized dot kernel for a `(fmt, sign)`
/// pair. The twelve-way match compiles to a jump table whose arms
/// inline the fully unrolled kernels, so a kernel loop (always the
/// same pair) pays one predicted indirect branch per retire instead of
/// the reference implementation's per-lane loop and sign matches.
#[inline]
pub(crate) fn dot_eval(fmt: SimdFmt, sign: DotSign, a: u32, b: u32) -> u32 {
    macro_rules! pick {
        ($bits:expr) => {
            match sign {
                DotSign::UnsignedUnsigned => dot_mono::<$bits, false, false>(a, b),
                DotSign::UnsignedSigned => dot_mono::<$bits, false, true>(a, b),
                DotSign::SignedSigned => dot_mono::<$bits, true, true>(a, b),
            }
        };
    }
    match fmt {
        SimdFmt::Half => pick!(16),
        SimdFmt::Byte => pick!(8),
        SimdFmt::Nibble => pick!(4),
        SimdFmt::Crumb => pick!(2),
    }
}

fn dot_spec(fmt: SimdFmt, sign: DotSign, rd: Reg, rs1: Reg, op2: SimdOperand, acc: bool) -> USpec {
    let op2 = match op2 {
        SimdOperand::Vector(r) => DotOp2::Vector(r),
        SimdOperand::Scalar(r) => DotOp2::Scalar(r),
        SimdOperand::Imm(i) => DotOp2::Replicated(pulp_isa::simd::replicate(fmt, i as i32 as u32)),
    };
    USpec::Dot {
        acc,
        fmt,
        sign,
        fi: fmt_index(fmt) as u8,
        rd,
        rs1,
        op2,
    }
}

/// Classifies one decoded instruction into its specialized execution
/// form (or [`USpec::Generic`]). Pure function of the instruction —
/// no ISA-config dependence, so cached blocks stay valid per config.
pub(crate) fn specialize(instr: &Instr) -> USpec {
    match *instr {
        Instr::Lui { rd, imm } => USpec::Lui { rd, imm },
        Instr::Auipc { rd, imm } => USpec::Auipc { rd, imm },
        Instr::Alu { op, rd, rs1, rs2 } => USpec::Alu { op, rd, rs1, rs2 },
        Instr::AluImm { op, rd, rs1, imm } => USpec::AluImm {
            op,
            rd,
            rs1,
            imm: imm as u32,
        },
        Instr::Load {
            kind: LoadKind::Word,
            rd,
            rs1,
            offset,
        } => USpec::LoadW {
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::Load {
            kind,
            rd,
            rs1,
            offset,
        } => USpec::Load {
            kind,
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::LoadPostInc {
            kind: LoadKind::Word,
            rd,
            rs1,
            offset,
        } => USpec::LoadWPostInc {
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::LoadPostInc {
            kind,
            rd,
            rs1,
            offset,
        } => USpec::LoadPostInc {
            kind,
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::Store {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            if kind.size() == 4 {
                USpec::StoreW {
                    rs1,
                    rs2,
                    offset: offset as u32,
                }
            } else {
                USpec::Store {
                    size: kind.size(),
                    rs1,
                    rs2,
                    offset: offset as u32,
                }
            }
        }
        Instr::StorePostInc {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            if kind.size() == 4 {
                USpec::StoreWPostInc {
                    rs1,
                    rs2,
                    offset: offset as u32,
                }
            } else {
                USpec::StorePostInc {
                    size: kind.size(),
                    rs1,
                    rs2,
                    offset: offset as u32,
                }
            }
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => USpec::Branch {
            cond,
            rs1,
            rs2,
            offset: offset as u32,
        },
        Instr::PvDot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        } => dot_spec(fmt, sign, rd, rs1, op2, false),
        Instr::PvSdot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        } => dot_spec(fmt, sign, rd, rs1, op2, true),
        _ => USpec::Generic,
    }
}

/// A decoded straight-line span: `len` ops (never zero) from `first`
/// in the cache's op pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block {
    /// PC of the first op (the cache key).
    pub(crate) start: u32,
    first: u32,
    len: u32,
}

impl Block {
    /// The block's ops in `pool`.
    #[inline]
    pub(crate) fn ops(self, pool: &[Op]) -> &[Op] {
        &pool[self.first as usize..(self.first + self.len) as usize]
    }
}

/// Block-cache event counters (host-side instrumentation; these never
/// influence simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Ops served from cache (cursor or map hit).
    pub hits: u64,
    /// Ops served by a fresh translation's first instruction.
    pub misses: u64,
    /// Blocks translated.
    pub translations: u64,
    /// Total ops across all translations.
    pub translated_ops: u64,
    /// Steps that fell back to a reference step (untranslatable PC).
    pub interp_fallbacks: u64,
    /// Whole-cache flushes (restore/reset/SMC/ISA change/capacity).
    pub invalidations: u64,
}

impl FastPathStats {
    /// Fraction of replayed steps served from the cache, in `0..=1`
    /// (`1.0` for an idle cache, so a fresh core reads as "no misses").
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.interp_fallbacks;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A deliberate, switchable block-replay defect.
///
/// Test-only by convention (mirrors `conformance`'s `RefBug`): the
/// lockstep oracle and the divergence shrinker are themselves validated
/// by arming a known bug and proving they catch and minimize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastBug {
    /// No defect: block replay is faithful.
    #[default]
    None,
    /// Drops every PC redirect after a cached op retires (taken
    /// branches, jumps and hardware-loop back-edges all fall through
    /// sequentially). Any control transfer diverges, so the shrinker
    /// should land a repro of just a few instructions.
    SquashRedirects,
}

/// The per-core decoded-block cache.
///
/// Lookup is a direct-mapped table rather than a hash map: the hot
/// path — a hardware-loop back-edge redirecting to the head of the
/// block currently on the cursor — never touches the table at all,
/// and a genuine table probe is one masked index plus a tag compare.
#[derive(Debug, Clone)]
pub struct BlockCache {
    /// Index into `blocks` plus one per slot; 0 is empty.
    slots: Vec<u32>,
    /// Every block translated since the last flush.
    blocks: Vec<Block>,
    /// The ops of every block, back to back. Reserved when the core is
    /// built and only cleared by a flush, so translation does not
    /// allocate while a run's caller holds other buffers (an
    /// allocation mid-run would pin the heap above them).
    pub(crate) pool: Vec<Op>,
    /// The block being replayed and the index of the *next* op —
    /// consecutive ops (and back-edges to the block head) are served
    /// without touching the table.
    cursor: Option<(Block, usize)>,
    isa: IsaConfig,
    /// Byte span covered by every fetch the translator has performed
    /// (`lo > hi` ⇒ empty). Stores intersecting it are self-modifying.
    code_lo: u32,
    code_hi: u32,
    /// Event counters.
    pub stats: FastPathStats,
    /// Armed defect (test-only; see [`FastBug`]).
    pub(crate) bug: FastBug,
}

impl BlockCache {
    /// An empty cache for a core configured with `isa`.
    pub(crate) fn new(isa: IsaConfig) -> BlockCache {
        BlockCache {
            slots: vec![0; BLOCK_SLOTS],
            blocks: Vec::with_capacity(POOL_RESERVE / 4),
            pool: Vec::with_capacity(POOL_RESERVE),
            cursor: None,
            isa,
            code_lo: u32::MAX,
            code_hi: 0,
            stats: FastPathStats::default(),
            bug: FastBug::None,
        }
    }

    /// Drops every cached block and the covered-code span.
    pub(crate) fn flush(&mut self) {
        self.slots.fill(0);
        self.blocks.clear();
        self.pool.clear();
        self.cursor = None;
        self.code_lo = u32::MAX;
        self.code_hi = 0;
        self.stats.invalidations += 1;
    }

    /// True when a `size`-byte access at `addr` intersects any region
    /// the translator has fetched instructions from.
    pub(crate) fn covers_code(&self, addr: u32, size: u32) -> bool {
        addr < self.code_hi && addr.saturating_add(size) > self.code_lo
    }

    /// Points the cursor at the op for `pc` — cursor hit, back-edge
    /// wrap, table probe, then fresh translation — for a core
    /// configured with `isa`. Returns whether the block is a fresh
    /// translation (its first op already counted as the miss); `None`
    /// means no block can be formed there (the very first instruction
    /// fails to fetch/decode/extension-check) and the caller must take
    /// one reference step.
    fn seek<B: Bus>(&mut self, pc: u32, isa: IsaConfig, bus: &mut B) -> Option<bool> {
        if isa != self.isa {
            // Extension checks run at translation time, so blocks
            // from another configuration are unusable.
            self.flush();
            self.isa = isa;
        }
        if let Some((block, idx)) = &mut self.cursor {
            if block
                .ops(&self.pool)
                .get(*idx)
                .is_some_and(|op| op.pc == pc)
            {
                return Some(false);
            }
            // Back-edge to the head of the very block on the cursor
            // (the hardware-loop steady state): rewind in place, no
            // table probe.
            if block.start == pc {
                *idx = 0;
                return Some(false);
            }
        }
        if let Some(block) = self.lookup(pc) {
            self.cursor = Some((block, 0));
            return Some(false);
        }
        self.translate(bus, pc)?;
        Some(true)
    }

    /// The pre-decoded op at `pc` for single-op replay (`Core::step`),
    /// advancing the cursor past it. `None` as for [`BlockCache::seek`].
    pub(crate) fn next_op<B: Bus>(&mut self, pc: u32, isa: IsaConfig, bus: &mut B) -> Option<Op> {
        let fresh = self.seek(pc, isa, bus)?;
        self.stats.hits += u64::from(!fresh);
        let (block, idx) = self.cursor.as_mut()?;
        *idx += 1;
        Some(block.ops(&self.pool)[*idx - 1])
    }

    /// The block and op index at `pc` for a bulk replay (`Core::run`),
    /// plus whether the block is fresh. The caller owns hit accounting
    /// for the ops it actually replays. `None` as for
    /// [`BlockCache::seek`].
    pub(crate) fn current_run<B: Bus>(
        &mut self,
        pc: u32,
        isa: IsaConfig,
        bus: &mut B,
    ) -> Option<(Block, usize, bool)> {
        let fresh = self.seek(pc, isa, bus)?;
        let (block, idx) = self.cursor?;
        Some((block, idx, fresh))
    }

    /// Hands back the op pool a replay took out (`Core::run` executes
    /// from it while the cache stays mutable). A flush during the
    /// replay emptied `blocks`, so the pool's ops are stale then.
    pub(crate) fn return_pool(&mut self, mut pool: Vec<Op>) {
        if self.blocks.is_empty() {
            pool.clear();
        }
        self.pool = pool;
    }

    /// The cached block starting exactly at `pc`, if any.
    fn lookup(&self, pc: u32) -> Option<Block> {
        let slot = self.slots[Self::slot_of(pc)] as usize;
        let block = *self.blocks.get(slot.checked_sub(1)?)?;
        (block.start == pc).then_some(block)
    }

    /// Direct-mapped slot of a block start. Instructions are at least
    /// 2-byte aligned, so `pc >> 1` spreads starts densely.
    #[inline]
    fn slot_of(pc: u32) -> usize {
        ((pc >> 1) as usize) & (BLOCK_SLOTS - 1)
    }

    /// Decodes a fresh block starting at `pc`, caches it, and points
    /// the cursor at its first op.
    fn translate<B: Bus>(&mut self, bus: &mut B, start: u32) -> Option<()> {
        if self.pool.len() + MAX_BLOCK_OPS > POOL_LIMIT {
            self.flush();
        }
        let first = self.pool.len();
        let mut pc = start;
        while self.pool.len() - first < MAX_BLOCK_OPS {
            let Ok((instr, ilen)) = Core::fetch_decode_at(bus, pc) else {
                break;
            };
            if missing_extension(self.isa, &instr).is_some() {
                break;
            }
            let ends_block = matches!(
                instr,
                Instr::Jal { .. }
                    | Instr::Jalr { .. }
                    | Instr::Branch { .. }
                    | Instr::Ecall
                    | Instr::Ebreak
            );
            self.pool.push(Op {
                pc,
                ilen,
                instr,
                spec: specialize(&instr),
            });
            self.code_lo = self.code_lo.min(pc);
            self.code_hi = self.code_hi.max(pc.wrapping_add(ilen));
            if ends_block {
                break;
            }
            pc = pc.wrapping_add(ilen);
        }
        let len = self.pool.len() - first;
        if len == 0 {
            self.cursor = None;
            self.stats.interp_fallbacks += 1;
            return None;
        }
        self.stats.translations += 1;
        self.stats.translated_ops += len as u64;
        self.stats.misses += 1;
        let block = Block {
            start,
            first: first as u32,
            len: len as u32,
        };
        self.blocks.push(block);
        // Direct-mapped: a colliding start simply evicts the old block
        // (it re-translates if re-entered); its ops stay in the pool
        // until `POOL_LIMIT` forces a flush.
        self.slots[Self::slot_of(start)] = self.blocks.len() as u32;
        self.cursor = Some((block, 0));
        Some(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bus::SliceMem;
    use crate::core::{Core, ExitStatus, IsaConfig, Trap};
    use pulp_asm::Asm;
    use pulp_isa::Reg;

    /// Reference steps only, under `Core::run`'s cycle budget contract:
    /// the uncached oracle every replay test compares against.
    pub(crate) fn reference_run<B: Bus>(
        core: &mut Core,
        bus: &mut B,
        max_cycles: u64,
    ) -> Result<ExitStatus, Trap> {
        let limit = core.perf.cycles.saturating_add(max_cycles);
        while core.perf.cycles < limit {
            if core.reference_step(bus)? {
                return Ok(ExitStatus {
                    halted: true,
                    exit_code: core.reg(Reg::A0),
                    pc: core.pc,
                });
            }
        }
        Err(Trap::Watchdog {
            pc: core.pc,
            budget: max_cycles,
        })
    }

    /// Assembles, then runs the program three ways — traced reference
    /// steps, traced per-op replay and burst replay — and asserts full
    /// architectural, counter and trace identity. Returns the reference
    /// core and the burst core.
    fn assert_paths_agree(build: impl Fn(&mut Asm)) -> (Core, Core) {
        let mut a = Asm::new(0);
        build(&mut a);
        let prog = a.assemble().expect("assembly failed");

        let run = |reference: bool, traced: bool| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpnn());
            core.pc = prog.base;
            if traced {
                core.attach_tracer(256);
            }
            let exit = if reference {
                reference_run(&mut core, &mut mem, 1_000_000)
            } else {
                core.run(&mut mem, 1_000_000)
            };
            assert!(exit.expect("trap").halted);
            (core, mem)
        };
        let (reference, rmem) = run(true, true);
        let (per_op, pmem) = run(false, true);
        let (burst, bmem) = run(false, false);
        let trace = |c: &Core| c.tracer().unwrap().entries().copied().collect::<Vec<_>>();
        assert_eq!(trace(&reference), trace(&per_op));
        for (core, mem) in [(&per_op, &pmem), (&burst, &bmem)] {
            assert_eq!(reference.regs, core.regs);
            assert_eq!(reference.pc, core.pc);
            assert_eq!(reference.perf, core.perf);
            assert_eq!(rmem.as_bytes(), mem.as_bytes());
        }
        (reference, burst)
    }

    #[test]
    fn straight_line_and_branches_are_bit_exact() {
        assert_paths_agree(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::A1, 10);
            a.label("loop");
            a.addi(Reg::A0, Reg::A0, 3);
            a.addi(Reg::A1, Reg::A1, -1);
            a.bne(Reg::A1, Reg::Zero, "loop");
            a.ecall();
        });
    }

    #[test]
    fn hardware_loops_are_bit_exact_and_mostly_cached() {
        let (_, fast) = assert_paths_agree(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 100);
            a.lp_setup(pulp_isa::instr::LoopIdx::L0, Reg::T0, "end");
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::A0, Reg::A0, 1);
            a.label("end");
            a.nop();
            a.ecall();
        });
        assert_eq!(fast.reg(Reg::A0), 200);
        let stats = fast.fastpath_stats().expect("block cache");
        assert!(
            stats.hit_rate() > 0.9,
            "loop body should be cache-served: {stats:?}"
        );
        assert_eq!(stats.interp_fallbacks, 0);
    }

    #[test]
    fn aliasing_blocks_retranslate_within_a_bounded_pool() {
        // `f1` and `f2` start 8 kB apart, so they share a table slot and
        // evict each other on every call; each re-translation appends
        // their ops to the pool until `POOL_LIMIT` forces a flush.
        let calls = (POOL_LIMIT / 4 + 10) as i32;
        let (_, burst) = assert_paths_agree(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, calls);
            a.label("loop");
            a.jal("f1");
            a.jal("f2");
            a.addi(Reg::T0, Reg::T0, -1);
            a.bne(Reg::T0, Reg::Zero, "loop");
            a.ecall();
            a.label("f1");
            a.addi(Reg::A0, Reg::A0, 1);
            a.ret();
            for _ in 0..2046 {
                a.nop();
            }
            a.label("f2");
            a.addi(Reg::A0, Reg::A0, 2);
            a.ret();
        });
        assert_eq!(burst.reg(Reg::A0), 3 * calls as u32);
        let stats = burst.fastpath_stats().expect("block cache");
        assert!(stats.invalidations >= 1, "pool limit must flush: {stats:?}");
    }

    #[test]
    fn run_is_resumable_in_one_cycle_chunks_under_fastpath() {
        // Chunked budget-1 runs must land on exactly the same state as
        // one big run: block replay checks the budget before every op,
        // like a reference step loop.
        let mut a = Asm::new(0);
        a.li(Reg::A0, 5);
        a.li(Reg::A1, 3);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, 7);
        a.addi(Reg::A1, Reg::A1, -1);
        a.bne(Reg::A1, Reg::Zero, "loop");
        a.ecall();
        let prog = a.assemble().unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut one = Core::new(IsaConfig::xpulpnn());
        one.pc = prog.base;
        let exit_one = one.run(&mut mem, 10_000).unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut chunked = Core::new(IsaConfig::xpulpnn());
        chunked.pc = prog.base;
        let exit_chunked = loop {
            match chunked.run(&mut mem, 1) {
                Ok(exit) => break exit,
                Err(Trap::Watchdog { .. }) => {}
                Err(t) => panic!("unexpected trap {t}"),
            }
        };
        assert_eq!(exit_one, exit_chunked);
        assert_eq!(one.regs, chunked.regs);
        assert_eq!(one.perf, chunked.perf);
    }

    #[test]
    fn extension_fault_pc_matches_interpreter() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 1);
        a.i(Instr::PvAlu {
            op: pulp_isa::instr::SimdAluOp::Add,
            fmt: pulp_isa::simd::SimdFmt::Nibble,
            rd: Reg::A1,
            rs1: Reg::A0,
            op2: pulp_isa::instr::SimdOperand::Vector(Reg::A0),
        });
        a.ecall();
        let prog = a.assemble().unwrap();

        let trap_of = |replay: bool| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpv2());
            core.pc = prog.base;
            let trap = if replay {
                core.run(&mut mem, 1000)
            } else {
                reference_run(&mut core, &mut mem, 1000)
            }
            .unwrap_err();
            (trap, core.pc, core.perf)
        };
        assert_eq!(trap_of(false), trap_of(true));
        let (trap, _, _) = trap_of(true);
        assert!(matches!(
            trap,
            Trap::ExtensionFault {
                required: "xpulpnn",
                ..
            }
        ));
    }

    #[test]
    fn self_modifying_store_invalidates_cached_blocks() {
        // The program patches the instruction at `patchme` from
        // `addi a0, a0, 1` to `addi a0, a0, 64` *after* block replay
        // has already fetched and cached it, then loops back through it.
        let build = |a: &mut Asm| {
            a.li(Reg::A0, 0);
            a.li(Reg::T1, 2); // outer trip count
            a.label("loop");
            a.label("patchme");
            a.addi(Reg::A0, Reg::A0, 1);
            // Patch: addi a0, a0, 64 == 0x04050513
            a.li(Reg::T0, 0x0405_0513);
            a.la(Reg::T2, "patchme");
            a.sw(Reg::T0, 0, Reg::T2);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bne(Reg::T1, Reg::Zero, "loop");
            a.ecall();
        };
        let (reference, fast) = assert_paths_agree(build);
        // First pass adds 1, second pass executes the patched add.
        assert_eq!(reference.reg(Reg::A0), 65);
        assert_eq!(fast.reg(Reg::A0), 65);
        let stats = fast.fastpath_stats().unwrap();
        assert!(stats.invalidations >= 1, "SMC must flush: {stats:?}");
    }

    #[test]
    fn restore_after_self_modification_does_not_replay_stale_blocks() {
        // Regression for the snapshot/rollback coherence invariant:
        // checkpoint *before* a store to fetched code, let the store
        // land (cache flushed), roll the core *and* memory back, and
        // make sure the re-run still executes the original instruction
        // rather than a stale decoded copy — and vice versa: a restore
        // must also drop blocks decoded from pre-patch code when the
        // restorer rewrites memory underneath the core.
        let mut a = Asm::new(0);
        a.label("patchme");
        a.addi(Reg::A0, Reg::A0, 1);
        a.ecall();
        let prog = a.assemble().unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;

        // Run once: `patchme` is now decoded and cached.
        let snap = core.snapshot();
        let mem_snap = mem.as_bytes().to_vec();
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(exit.exit_code, 1);

        // Host-side patch (simulates the restorer replaying a different
        // memory image): addi a0, a0, 64.
        mem.as_bytes_mut()[0..4].copy_from_slice(&0x0405_0513u32.to_le_bytes());
        core.restore(&snap);
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(
            exit.exit_code, 64,
            "restore must not replay the stale decoded block"
        );

        // Roll memory back too and confirm reference-step identity.
        mem.as_bytes_mut().copy_from_slice(&mem_snap);
        core.restore(&snap);
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(exit.exit_code, 1);

        let mut reference = Core::new(IsaConfig::xpulpnn());
        reference.restore(&snap);
        let mut rmem = SliceMem::new(0, 1 << 16);
        rmem.as_bytes_mut().copy_from_slice(&mem_snap);
        let rexit = reference_run(&mut reference, &mut rmem, 1000).unwrap();
        assert_eq!(rexit, exit);
        assert_eq!(reference.regs, core.regs);
        assert_eq!(reference.perf, core.perf);
    }

    #[test]
    fn squash_redirects_bug_diverges_on_a_taken_branch() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 1);
        a.bne(Reg::A1, Reg::Zero, "skip"); // taken
        a.li(Reg::A0, 99); // must be skipped
        a.label("skip");
        a.ecall();
        let prog = a.assemble().unwrap();

        let run = |bug: FastBug| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpnn());
            core.set_fastpath_bug(bug);
            core.pc = prog.base;
            core.run(&mut mem, 1000).map(|e| e.exit_code)
        };
        assert_eq!(run(FastBug::None), Ok(0));
        assert_eq!(run(FastBug::SquashRedirects), Ok(99));
    }
}
