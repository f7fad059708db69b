//! Vector memory faults at the end of L2: `vle`, `vse` and `vlse`
//! whose beats run off mapped memory must trap at the first unmapped
//! byte, keep the beats performed before the fault, and leave the same
//! trap, registers, vector registers, perf counters and memory under
//! reference steps, per-op replay and burst replay.

use pulp_asm::Asm;
use pulp_isa::vec::{VReg, VecSew};
use pulp_isa::Reg;
use pulp_soc::{Soc, SocMem, CODE_BASE, L2_BASE, L2_SIZE};
use riscv_core::{BusError, IsaConfig, Trap};

const L2_END: u32 = L2_BASE + L2_SIZE;
/// An in-range staging area the programs fill `v1` from first, so a
/// faulting load visibly clears the bytes it did not reach.
const NOISE: u32 = L2_BASE + 0x7_0000;

fn v(idx: usize) -> VReg {
    VReg::new(idx).expect("vector register index")
}

/// Assembles `vsetvli` at `sew` over `avl` elements, a unit-stride load
/// of `v1` from [`NOISE`], then `body`, then `ecall`. Returns the SoC
/// staged with fixed byte patterns at [`NOISE`] and below the end of
/// L2, and the pc of the last `body` instruction.
fn stage(avl: i32, sew: VecSew, body: impl FnOnce(&mut Asm)) -> (Soc, u32) {
    let mut a = Asm::new(CODE_BASE);
    a.li(Reg::T0, avl);
    a.vsetvli(Reg::A0, Reg::T0, sew);
    a.li(Reg::A2, NOISE as i32);
    a.vle(v(1), Reg::A2);
    body(&mut a);
    a.ecall();
    let prog = a.assemble().expect("fault-edge program assembles");
    let mut soc = Soc::with_vlen(IsaConfig::vector(), 128);
    soc.load(&prog);
    let noise: Vec<u8> = (0..32u8).map(|i| 0xa0 ^ i.wrapping_mul(37)).collect();
    soc.mem.write_bytes(NOISE, &noise);
    let edge: Vec<u8> = (1..=8u8).map(|i| i * 0x11).collect();
    soc.mem.write_bytes(L2_END - 8, &edge);
    let fault_pc = prog.base + 4 * (prog.words.len() as u32 - 2);
    (soc, fault_pc)
}

fn l2(mem: &SocMem) -> &[u8] {
    mem.read_bytes(L2_BASE, L2_SIZE as usize)
}

/// Runs `soc` to its trap three ways and checks they agree on every
/// piece of architectural state; returns the trap and the final SoC.
fn trap_three_ways(soc: &Soc) -> (Trap, Soc) {
    let to_trap = |soc: &mut Soc, step: fn(&mut riscv_core::Core, &mut SocMem) -> _| loop {
        match step(&mut soc.core, &mut soc.mem) {
            Ok(false) => {}
            Ok(true) => panic!("program halted instead of trapping"),
            Err(t) => break t,
        }
    };
    let mut reference = soc.clone();
    let t_ref = to_trap(&mut reference, riscv_core::Core::reference_step);
    let mut per_op = soc.clone();
    let t_per_op = to_trap(&mut per_op, riscv_core::Core::step);
    let mut burst = soc.clone();
    let t_burst = burst.run(100_000).expect_err("burst replay traps");
    for (name, t, s) in [("per-op", t_per_op, &per_op), ("burst", t_burst, &burst)] {
        assert_eq!(t, t_ref, "{name} trap");
        assert_eq!(s.core.snapshot(), reference.core.snapshot(), "{name} state");
        assert!(l2(&s.mem) == l2(&reference.mem), "{name} L2 image");
    }
    (t_ref, reference)
}

fn vreg(soc: &Soc, idx: usize) -> [u8; 16] {
    let bytes = soc.core.vector_unit().expect("vector unit").vreg_bytes(idx);
    bytes[..16].try_into().expect("VLEN 128 is 16 bytes")
}

fn bus(pc: u32, addr: u32, size: u32, write: bool) -> Trap {
    Trap::Bus {
        pc,
        error: BusError { addr, size, write },
    }
}

#[test]
fn vle_straddling_l2_end_keeps_the_loaded_prefix() {
    // 16 e8 bytes from L2_END - 5: five beats land, the sixth faults.
    let (soc, pc) = stage(16, VecSew::E8, |a| {
        a.li(Reg::A1, (L2_END - 5) as i32);
        a.vle(v(1), Reg::A1);
    });
    let (trap, end) = trap_three_ways(&soc);
    assert_eq!(trap, bus(pc, L2_END, 1, false));
    let mut want = [0u8; 16];
    want[..5].copy_from_slice(soc.mem.read_bytes(L2_END - 5, 5));
    assert_eq!(vreg(&end, 1), want);
}

#[test]
fn vse_straddling_l2_end_writes_the_mapped_prefix() {
    let (soc, pc) = stage(16, VecSew::E8, |a| {
        a.li(Reg::A1, (L2_END - 3) as i32);
        a.vse(v(1), Reg::A1);
    });
    let (trap, end) = trap_three_ways(&soc);
    assert_eq!(trap, bus(pc, L2_END, 1, true));
    assert_eq!(
        end.mem.read_bytes(L2_END - 3, 3),
        soc.mem.read_bytes(NOISE, 3),
        "the three mapped beats are stored"
    );
    assert_eq!(
        end.mem.read_bytes(L2_END - 8, 5),
        soc.mem.read_bytes(L2_END - 8, 5),
        "bytes below the store are untouched"
    );
}

#[test]
fn vlse_straddling_l2_end_keeps_the_loaded_elements() {
    // e8, stride 1: byte beats, the first unmapped byte faults. e16,
    // stride 2 from L2_END - 6: three halfword beats land, the fourth
    // starts at L2_END.
    for (sew, base, stride, loaded) in [
        (VecSew::E8, L2_END - 4, 1, 4),
        (VecSew::E16, L2_END - 6, 2, 6),
    ] {
        let (soc, pc) = stage(8, sew, |a| {
            a.li(Reg::A1, base as i32);
            a.li(Reg::A3, stride);
            a.vlse(v(1), Reg::A1, Reg::A3);
        });
        let (trap, end) = trap_three_ways(&soc);
        assert_eq!(trap, bus(pc, L2_END, sew.bits() / 8, false), "{sew}");
        let mut want = [0u8; 16];
        want[..loaded].copy_from_slice(soc.mem.read_bytes(base, loaded));
        assert_eq!(vreg(&end, 1), want, "{sew}");
    }
}
