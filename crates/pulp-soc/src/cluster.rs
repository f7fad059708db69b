//! Cluster-side memory primitives: the banked L1 TCDM, the unified
//! L2+L1 address space, and the cluster DMA cost model.
//!
//! The paper's single-core PULPissimo story is a stepping stone to the
//! PULP cluster deployment (PULP-NN): N RI5CY cores sharing a
//! word-interleaved multi-banked L1 scratchpad (TCDM) through a
//! single-cycle logarithmic interconnect, with a cluster DMA moving
//! tiles between L2 and L1 in the background. This module provides the
//! *memory* half of that model — address map, banking arithmetic, the
//! shared image, and DMA transfer costs — while `pulp-cluster` provides
//! the harts, arbitration and event unit on top.
//!
//! Address map (in addition to the single-core map in the crate root):
//!
//! | range | contents |
//! |---|---|
//! | `0x1000_0000 .. +128 kB` | L1 TCDM, word-interleaved over 16 banks |
//! | `0x1020_0000` | event-unit barrier register (write = arrive) |
//! | `0x1c00_0000 .. +512 kB` | L2 (code + source/destination tensors) |

use pulp_asm::Program;

/// Base address of the cluster's L1 TCDM.
pub const TCDM_BASE: u32 = 0x1000_0000;
/// TCDM size: 128 kB, PULP-cluster class.
pub const TCDM_SIZE: u32 = 128 * 1024;
/// Number of word-interleaved TCDM banks.
pub const TCDM_BANKS: usize = 16;
/// Event-unit base address (outside the TCDM range).
pub const EU_BASE: u32 = 0x1020_0000;
/// Barrier-arrival register: a store here means "this hart reached the
/// barrier"; the cluster runner releases all harts once every one has
/// stored.
pub const EU_BARRIER: u32 = EU_BASE;

/// The TCDM bank a word-aligned address maps to (word-interleaved:
/// consecutive words live in consecutive banks).
#[inline]
pub fn tcdm_bank(addr: u32) -> usize {
    ((addr >> 2) as usize) % TCDM_BANKS
}

/// The offset of `addr..addr+size` inside the region of `len` bytes at
/// `base`, or `None` unless every byte lies inside it (a range that
/// wraps past 2^32 lies inside nothing).
#[inline]
fn region_offset(addr: u32, size: u32, base: u32, len: u32) -> Option<usize> {
    let off = addr.checked_sub(base)?;
    (u64::from(off) + u64::from(size) <= u64::from(len)).then_some(off as usize)
}

/// The TCDM offset of `addr..addr+size`, when it lies entirely inside
/// the TCDM.
#[inline]
pub fn tcdm_offset(addr: u32, size: u32) -> Option<usize> {
    region_offset(addr, size, TCDM_BASE, TCDM_SIZE)
}

/// The L2 offset of `addr..addr+size`, when it lies entirely inside L2.
#[inline]
pub fn l2_offset(addr: u32, size: u32) -> Option<usize> {
    region_offset(addr, size, crate::L2_BASE, crate::L2_SIZE)
}

/// The cluster's shared memory image: L2 plus the banked L1 TCDM, with
/// host-side accessors over the unified address space. Bus-level access
/// (with bank accounting and write logging) is layered on top by the
/// per-hart ports in `pulp-cluster`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMem {
    /// The L2 image (same base/size as the single-core SoC).
    pub l2: Vec<u8>,
    /// The L1 TCDM image.
    pub tcdm: Vec<u8>,
}

impl ClusterMem {
    /// Creates a zeroed memory image.
    pub fn new() -> ClusterMem {
        ClusterMem {
            l2: vec![0; crate::L2_SIZE as usize],
            tcdm: vec![0; TCDM_SIZE as usize],
        }
    }

    /// Resolves an address range to (is_tcdm, offset), or `None` when it
    /// falls outside both memories.
    fn resolve(&self, addr: u32, len: u32) -> Option<(bool, usize)> {
        tcdm_offset(addr, len)
            .map(|off| (true, off))
            .or_else(|| l2_offset(addr, len).map(|off| (false, off)))
    }

    /// Host-side bulk write (L2 or TCDM).
    ///
    /// # Panics
    ///
    /// Panics when the range leaves both memories; host staging bugs
    /// should fail loudly.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        match self.resolve(addr, bytes.len() as u32) {
            Some((true, off)) => self.tcdm[off..off + bytes.len()].copy_from_slice(bytes),
            Some((false, off)) => self.l2[off..off + bytes.len()].copy_from_slice(bytes),
            None => panic!("host write outside L2/TCDM: {addr:#010x}"),
        }
    }

    /// Host-side bulk read (L2 or TCDM).
    ///
    /// # Panics
    ///
    /// Panics when the range leaves both memories.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        match self.resolve(addr, len as u32) {
            Some((true, off)) => &self.tcdm[off..off + len],
            Some((false, off)) => &self.l2[off..off + len],
            None => panic!("host read outside L2/TCDM: {addr:#010x}"),
        }
    }

    /// Host-side 32-bit little-endian read helper.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let b = self.read_bytes(addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Host-side 32-bit little-endian write helper.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Loads a program's code and data segments into the image (the
    /// cluster boots from L2, like the single-core SoC).
    ///
    /// # Panics
    ///
    /// Panics when a segment falls outside L2/TCDM.
    pub fn load(&mut self, prog: &Program) {
        for (i, w) in prog.words.iter().enumerate() {
            self.write_bytes(prog.base + (i as u32) * 4, &w.to_le_bytes());
        }
        for (addr, bytes) in &prog.data {
            self.write_bytes(*addr, bytes);
        }
    }

    /// An internal copy over the unified address space — what a DMA
    /// transfer does functionally.
    ///
    /// # Panics
    ///
    /// Panics when either range leaves L2/TCDM.
    pub fn copy(&mut self, src: u32, dst: u32, len: usize) {
        let data = self.read_bytes(src, len).to_vec();
        self.write_bytes(dst, &data);
    }
}

impl Default for ClusterMem {
    fn default() -> Self {
        ClusterMem::new()
    }
}

/// Cost model of the cluster DMA engine.
///
/// The functional side of a transfer is an ordinary memory copy (the
/// DMA has its own TCDM ports, so it never contends with the cores for
/// banks); the timing side charges a fixed programming/setup overhead
/// plus one word per cycle, which is the mchan-class behaviour PULP
/// clusters ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaModel {
    /// Cycles to program one transfer (descriptor write + arbitration).
    pub setup_cycles: u64,
    /// Payload bytes moved per cycle once streaming.
    pub bytes_per_cycle: u64,
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel {
            setup_cycles: 16,
            bytes_per_cycle: 4,
        }
    }
}

impl DmaModel {
    /// Cycles one transfer of `bytes` payload bytes takes. Zero-byte
    /// transfers are free (no descriptor is programmed).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle)
        }
    }
}

/// One scheduled DMA transfer: functional copy + cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Source address (L2 or TCDM).
    pub src: u32,
    /// Destination address (L2 or TCDM).
    pub dst: u32,
    /// Payload length in bytes.
    pub bytes: u32,
}

impl DmaTransfer {
    /// Applies the transfer to the shared image.
    pub fn apply(&self, mem: &mut ClusterMem) {
        if self.bytes > 0 {
            mem.copy(self.src, self.dst, self.bytes as usize);
        }
    }

    /// The transfer's cost under `model`.
    pub fn cycles(&self, model: &DmaModel) -> u64 {
        model.transfer_cycles(u64::from(self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banking_is_word_interleaved() {
        assert_eq!(tcdm_bank(TCDM_BASE), 0);
        assert_eq!(tcdm_bank(TCDM_BASE + 4), 1);
        assert_eq!(tcdm_bank(TCDM_BASE + 4 * TCDM_BANKS as u32), 0);
        // Sub-word accesses within one word hit the same bank.
        assert_eq!(tcdm_bank(TCDM_BASE + 1), tcdm_bank(TCDM_BASE));
    }

    #[test]
    fn unified_address_space_round_trip() {
        let mut m = ClusterMem::new();
        m.write_bytes(TCDM_BASE + 64, &[1, 2, 3, 4]);
        m.write_bytes(crate::L2_BASE + 64, &[5, 6, 7, 8]);
        assert_eq!(m.read_u32(TCDM_BASE + 64), 0x0403_0201);
        assert_eq!(m.read_u32(crate::L2_BASE + 64), 0x0807_0605);
        m.copy(crate::L2_BASE + 64, TCDM_BASE + 128, 4);
        assert_eq!(m.read_u32(TCDM_BASE + 128), 0x0807_0605);
    }

    #[test]
    #[should_panic(expected = "outside L2/TCDM")]
    fn host_access_outside_the_map_panics() {
        let mut m = ClusterMem::new();
        m.write_bytes(EU_BARRIER, &[0]);
    }

    #[test]
    fn dma_cost_is_setup_plus_streaming() {
        let d = DmaModel::default();
        assert_eq!(d.transfer_cycles(0), 0);
        assert_eq!(d.transfer_cycles(4), 16 + 1);
        assert_eq!(d.transfer_cycles(1024), 16 + 256);
        assert_eq!(d.transfer_cycles(5), 16 + 2, "partial words round up");
    }

    #[test]
    fn dma_transfer_applies_and_costs() {
        let mut m = ClusterMem::new();
        m.write_bytes(crate::L2_BASE + 0x100, &[9, 9, 9, 9, 9, 9, 9, 9]);
        let t = DmaTransfer {
            src: crate::L2_BASE + 0x100,
            dst: TCDM_BASE,
            bytes: 8,
        };
        t.apply(&mut m);
        assert_eq!(m.read_bytes(TCDM_BASE, 8), &[9; 8]);
        assert_eq!(t.cycles(&DmaModel::default()), 16 + 2);
    }
}
