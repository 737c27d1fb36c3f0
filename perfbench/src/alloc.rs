//! Heap-allocation counter: a global allocator that forwards every call to
//! the system allocator and counts, per thread, the allocations made and
//! the bytes they asked for. Frees are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations and requested bytes made by the current thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
}

impl std::ops::Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, rhs: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, rhs: AllocCount) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

impl std::ops::SubAssign for AllocCount {
    fn sub_assign(&mut self, rhs: AllocCount) {
        *self = *self - rhs;
    }
}

thread_local! {
    // Const-initialised and without `Drop`: reading it never allocates and
    // never fails, which an allocator requires.
    static COUNT: Cell<AllocCount> = const {
        Cell::new(AllocCount { allocs: 0, bytes: 0 })
    };
}

fn note(size: usize) {
    let _ = COUNT.try_with(|c| {
        let mut n = c.get();
        n.allocs += 1;
        n.bytes += size as u64;
        c.set(n);
    });
}

/// The current thread's running totals.
pub fn snapshot() -> AllocCount {
    COUNT.try_with(Cell::get).unwrap_or_default()
}

/// The counting allocator; installed as `#[global_allocator]` in `lib.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each pointer and layout satisfies `System`'s contract exactly when the
// caller satisfies `GlobalAlloc`'s. Counting touches a thread-local `Cell`
// only and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(16);
        let after = snapshot() - before;
        assert_eq!(after.allocs, 1);
        assert_eq!(after.bytes, 128);
        drop(v);
    }
}
