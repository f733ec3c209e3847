//! The reference workload that rescales wall time to a nominal machine
//! speed.
//!
//! The machines this benchmark runs on are shared: over a few seconds the
//! same code can run anywhere from 1x to 2x slower, and a whole run can
//! land in a slow spell. A stack's wall time alone then says more about
//! the neighbours than about the stack. So the run loop times a slice of
//! this fixed, benchmark-owned work next to every slice of stack work,
//! and every reported time is rescaled by `NOMINAL_OP_NS / measured ns
//! per reference op` — the time the stack work would have taken on a
//! machine where one reference op takes `NOMINAL_OP_NS`. The kernel
//! mixes what the stacks spend their time on: allocating and freeing
//! frame buffers, copying and checksumming them, ordered-map updates and
//! dependent loads through a table larger than the L2 cache. It never
//! changes with the program, so it tracks only how fast the machine is.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Reference ops per slice (about half a millisecond).
const SLICE_OPS: u32 = 400;
/// The nominal cost of one reference op: rescaled times read as wall
/// times on a machine this fast. Close to an unloaded 2-vCPU Xeon VM.
pub const NOMINAL_OP_NS: f64 = 1000.0;

const TABLE: usize = 1 << 20; // 4 MiB of u32 links
const FRAME: usize = 1460;
const CHASE: usize = 6;

/// The reference workload's state.
pub struct RefKernel {
    next: Vec<u32>,
    map: BTreeMap<u32, u32>,
    ring: VecDeque<Vec<u8>>,
    src: Vec<u8>,
    x: u64,
    p: usize,
}

impl RefKernel {
    /// The kernel in its fixed start state.
    pub fn new() -> RefKernel {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            x = xorshift(x);
            next.swap(i, (x % (i as u64 + 1)) as usize);
        }
        RefKernel {
            next,
            map: (0..1024u32).map(|k| (k.wrapping_mul(2_654_435_761) & 0xFFFF, k)).collect(),
            ring: (0..64).map(|_| vec![0; FRAME]).collect(),
            src: (0..FRAME * 2).map(|i| (i * 7 + 3) as u8).collect(),
            x,
            p: 0,
        }
    }

    fn op(&mut self) -> u64 {
        self.x = xorshift(self.x);
        let off = (self.x % FRAME as u64) as usize;
        let mut frame = Vec::with_capacity(FRAME);
        frame.extend_from_slice(&self.src[off..off + FRAME]);
        let mut sum = 0u32;
        for w in frame.chunks_exact(2) {
            sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
        }
        self.ring.pop_front();
        self.ring.push_back(frame);
        let key = (self.x >> 20) as u32 & 0xFFFF;
        if self.map.remove(&key).is_none() {
            self.map.insert(key, sum);
            if let Some((&first, _)) = self.map.iter().next() {
                self.map.remove(&first);
            }
        }
        for _ in 0..CHASE {
            self.p = self.next[self.p] as usize;
        }
        u64::from(sum) ^ self.p as u64
    }

    /// Runs one slice; returns the machine's slowness factor right now:
    /// measured ns per reference op over `NOMINAL_OP_NS`.
    pub fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0;
        for _ in 0..SLICE_OPS {
            acc ^= self.op();
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64 / f64::from(SLICE_OPS) / NOMINAL_OP_NS
    }

    /// The median slowness over a few slices: steadier than one slice,
    /// for brackets around longer stretches of work such as a set-up.
    pub fn slowness(&mut self) -> f64 {
        let mut s = [self.slice(), self.slice(), self.slice(), self.slice(), self.slice()];
        s.sort_by(f64::total_cmp);
        s[2]
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
