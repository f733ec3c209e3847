//! A counting global allocator.
//!
//! Every allocation is credited to the current *slot*: one (cell, layer)
//! pair, where a cell is one stack pair under test. The run loop sets the
//! slot to the cell's `app` layer while the cell runs; the span recorder
//! narrows it to the innermost open span's layer. Live bytes and their
//! peak are kept per cell.
//!
//! The benchmark is single-threaded, so counters use plain
//! load-then-store on relaxed atomics (no locked read-modify-write): the
//! counting costs the same few instructions in every cell and mode.

use crate::trace::{LayerId, NLAYERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Cells the benchmark can run at once (two stacks, untraced and traced).
pub const NCELLS: usize = 4;
/// The cell index of everything outside the cells under test.
pub const OUTSIDE_CELL: usize = NCELLS;
const OUTSIDE: usize = OUTSIDE_CELL * NLAYERS;
const NSLOTS: usize = (NCELLS + 1) * NLAYERS;

static SLOT: AtomicUsize = AtomicUsize::new(OUTSIDE);
static ALLOCS: [AtomicU64; NSLOTS] = [const { AtomicU64::new(0) }; NSLOTS];
static BYTES: [AtomicU64; NSLOTS] = [const { AtomicU64::new(0) }; NSLOTS];
static LIVE: [AtomicI64; NCELLS + 1] = [const { AtomicI64::new(0) }; NCELLS + 1];
static PEAK: [AtomicI64; NCELLS + 1] = [const { AtomicI64::new(0) }; NCELLS + 1];

fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Relaxed).wrapping_add(by), Relaxed);
}

fn credit_alloc(size: usize) {
    let slot = SLOT.load(Relaxed);
    bump(&ALLOCS[slot], 1);
    bump(&BYTES[slot], size as u64);
    let cell = slot / NLAYERS;
    let live = LIVE[cell].load(Relaxed) + size as i64;
    LIVE[cell].store(live, Relaxed);
    if live > PEAK[cell].load(Relaxed) {
        PEAK[cell].store(live, Relaxed);
    }
}

fn credit_free(size: usize) {
    let cell = SLOT.load(Relaxed) / NLAYERS;
    LIVE[cell].store(LIVE[cell].load(Relaxed) - size as i64, Relaxed);
}

/// The counting allocator: [`System`] plus the counters above.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates touch only atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        credit_alloc(layout.size());
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        credit_alloc(layout.size());
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        credit_free(layout.size());
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one allocation of the new size and a free
        // of the old one: it may move, and it is a call into the allocator.
        credit_free(layout.size());
        credit_alloc(new_size);
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The slot for `layer` of `cell`.
pub fn slot(cell: usize, layer: LayerId) -> usize {
    cell * NLAYERS + layer as usize
}

/// Credits allocations from now on to `slot`; returns the previous slot.
pub fn enter_slot(slot: usize) -> usize {
    let prev = SLOT.load(Relaxed);
    SLOT.store(slot, Relaxed);
    prev
}

/// Credits allocations from now on to the outside slot.
pub fn leave_cells() {
    SLOT.store(OUTSIDE, Relaxed);
}

/// Runs `f` with allocations credited to `cell`'s app layer.
pub fn in_cell<T>(cell: usize, f: impl FnOnce() -> T) -> T {
    let prev = enter_slot(slot(cell, LayerId::App));
    let out = f();
    SLOT.store(prev, Relaxed);
    out
}

/// Allocation counts and bytes of one cell, per layer.
#[derive(Copy, Clone, Debug, Default)]
pub struct AllocSnap {
    /// Allocations per layer.
    pub allocs: [u64; NLAYERS],
    /// Bytes allocated per layer.
    pub bytes: [u64; NLAYERS],
}

impl AllocSnap {
    /// Current totals of `cell`.
    pub fn of(cell: usize) -> AllocSnap {
        let mut s = AllocSnap::default();
        for l in 0..NLAYERS {
            s.allocs[l] = ALLOCS[cell * NLAYERS + l].load(Relaxed);
            s.bytes[l] = BYTES[cell * NLAYERS + l].load(Relaxed);
        }
        s
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &AllocSnap) -> AllocSnap {
        let mut d = AllocSnap::default();
        for l in 0..NLAYERS {
            d.allocs[l] = self.allocs[l] - earlier.allocs[l];
            d.bytes[l] = self.bytes[l] - earlier.bytes[l];
        }
        d
    }

    /// Allocations across all layers.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().sum()
    }
}

/// Forgets `cell`'s live-heap history: a fresh cell starts at zero.
pub fn reset_live(cell: usize) {
    LIVE[cell].store(0, Relaxed);
    PEAK[cell].store(0, Relaxed);
}

/// Restarts `cell`'s peak at its current live bytes.
pub fn reset_peak(cell: usize) {
    PEAK[cell].store(LIVE[cell].load(Relaxed), Relaxed);
}

/// `cell`'s peak live bytes since the last reset.
pub fn peak(cell: usize) -> i64 {
    PEAK[cell].load(Relaxed)
}
