//! A counting global allocator, so the traced pass can report heap
//! allocations per classified window from outside the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter that only
/// ticks inside [`count_allocs`] on that thread. Outside it, an
/// allocation pays one thread-local flag read.
pub struct CountingAlloc;

thread_local! {
    // `const` initialisers with no destructor: reading them never
    // allocates, so the allocator cannot recurse into itself.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the counter
// is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the number of allocations
/// (reallocations included) the calling thread made meanwhile.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, COUNT.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_closure_on_this_thread() {
        let (v, n) = count_allocs(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert_eq!(n, 1);
        let (_, none) = count_allocs(|| std::hint::black_box(3) + 4);
        assert_eq!(none, 0);
    }
}
