//! Host-clock instruments: a counting allocator, user-mode CPU time, peak
//! resident set, and the [`Meter`] that snapshots all of them around a
//! measured window.
//!
//! Wall time on a shared box drifts by 10–20 %; user CPU time and heap
//! allocation counts do not, which is why they sit beside wall time among
//! the end-to-end metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// The system allocator with two counters in front of it. Installed as
/// the global allocator by `lib.rs`, so every `Box`, `Vec` and `String`
/// the program under test creates is counted.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: statistics only, they publish no other data.
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink counts as one allocation of the new size.
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations made by the process so far: (count, bytes).
pub fn alloc_counters() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage_self() -> RUsage {
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills on 64-bit Linux (checked at compile time above), and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    ru
}

/// User-mode CPU time consumed by the process so far, µs.
pub fn user_cpu_us() -> u64 {
    let ru = rusage_self();
    ru.utime.sec as u64 * 1_000_000 + ru.utime.usec as u64
}

/// Peak resident set of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kib as f64 / 1024.0
}

/// Host cost between [`Meter::start`] and [`Meter::stop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    /// Wall seconds.
    pub wall_s: f64,
    /// User-mode CPU µs.
    pub user_cpu_us: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes requested.
    pub alloc_bytes: u64,
}

/// Snapshot of every host counter, taken at the start of a window.
pub struct Meter {
    wall: Instant,
    cpu_us: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Meter {
    pub fn start() -> Self {
        let (allocs, alloc_bytes) = alloc_counters();
        Self {
            wall: Instant::now(),
            cpu_us: user_cpu_us(),
            allocs,
            alloc_bytes,
        }
    }

    /// Wall seconds since the start (the window keeps running).
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn stop(self) -> HostCost {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let (allocs, alloc_bytes) = alloc_counters();
        HostCost {
            wall_s,
            user_cpu_us: user_cpu_us() - self.cpu_us,
            allocs: allocs - self.allocs,
            alloc_bytes: alloc_bytes - self.alloc_bytes,
        }
    }
}
