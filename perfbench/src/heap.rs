//! The system allocator, counting the bytes live at once so that a run can
//! report its heap high-water mark.
//!
//! The resident-set high-water mark (`VmHWM`) also counts memory glibc
//! keeps after it is freed, and where glibc places a join's large result
//! buffers (mapped apart or in the heap) changes with their exact sizes:
//! over ten seeds of one workload its interquartile range was 27% of its
//! median, and that of the bytes held live 2%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] with a count of live bytes and their high-water mark. A
/// `realloc` counts the change in size only, also when it moves the block.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is passed on to `System` unchanged; the counters only
// observe the sizes of the blocks it returns and takes back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// The most bytes live at once so far, in MB (2²⁰ bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / f64::from(1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_holds_a_freed_block() {
        let before = peak_mb();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let held = peak_mb();
        drop(block);
        // Other tests allocate concurrently, so only lower bounds hold.
        assert!(held >= 64.0, "{held}");
        assert!(peak_mb() >= held && held >= before);
    }
}
