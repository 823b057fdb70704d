//! Simulated device-global atomics.
//!
//! The WORKQUEUE optimization replaces static thread→point assignment with a
//! global counter incremented atomically: each thread (or each cooperative
//! group's leader, when `k > 1`) obtains the index of the next query point
//! from the head of the workload-sorted array. [`DeviceCounter`] is that
//! counter: functionally an `AtomicU64`, with the cycle cost of the atomic
//! accounted by the lane programs through
//! [`crate::config::CostModel::atomic_op`].

use std::sync::atomic::{AtomicU64, Ordering};

/// A device-global monotonically increasing counter (the work-queue head).
#[derive(Debug, Default)]
pub struct DeviceCounter {
    value: AtomicU64,
}

impl DeviceCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a counter starting at `start` (used when a kernel resumes the
    /// queue from a previous batch's position).
    pub fn starting_at(start: u64) -> Self {
        Self {
            value: AtomicU64::new(start),
        }
    }

    /// Atomically reserves `n` consecutive values, returning the first
    /// (`atomicAdd(head, n)` in CUDA terms).
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed)
    }

    /// The current counter value.
    pub fn load(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrites the counter (`cudaMemcpy` of a fresh head value in CUDA
    /// terms) — the host-side repair used after a detected counter fault.
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_are_consecutive_and_disjoint() {
        let c = DeviceCounter::new();
        let a = c.fetch_add(4);
        let b = c.fetch_add(2);
        let d = c.fetch_add(1);
        assert_eq!(a, 0);
        assert_eq!(b, 4);
        assert_eq!(d, 6);
        assert_eq!(c.load(), 7);
    }

    #[test]
    fn starting_offset_respected() {
        let c = DeviceCounter::starting_at(100);
        assert_eq!(c.fetch_add(5), 100);
        assert_eq!(c.load(), 105);
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        let c = DeviceCounter::new();
        let ranges = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        for _ in 0..1000 {
                            got.push(c.fetch_add(3));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<u64>>()
        });
        let mut sorted = ranges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            ranges.len(),
            "every reservation start is unique"
        );
        assert_eq!(c.load(), 8 * 1000 * 3);
    }
}
