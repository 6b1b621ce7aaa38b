//! Process counters and the counting allocator — the only `unsafe` in the
//! tree.
//!
//! CPU time, context switches and peak RSS come from `getrusage(2)`, not
//! from `/proc/self/{stat,status}` as the issue proposed: the `status`
//! switch counters cover the main thread only (the wire workload's switches
//! happen on client and daemon threads, most of which have exited by the
//! time anyone could read them), and `stat` ticks at 10 ms. `RUSAGE_SELF`
//! sums every live and reaped thread at microsecond resolution.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whole-process resource usage at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_us: u64,
    pub sys_us: u64,
    pub voluntary_switches: u64,
    pub peak_rss_kb: u64,
}

impl Usage {
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }

    /// What the process spent between `earlier` and this reading.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            peak_rss_kb: self.peak_rss_kb,
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _unused: [i64; 11],
    nvcsw: i64,
    _nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("proc.rs declares the 64-bit Linux layout of struct rusage");

pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout this
    // target's libc defines (the compile_error above pins it: 18 eight-byte
    // words), and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let us = |tv: [i64; 2]| (tv[0] * 1_000_000 + tv[1]) as u64;
    Usage {
        user_us: us(ru.utime),
        sys_us: us(ru.stime),
        voluntary_switches: ru.nvcsw as u64,
        peak_rss_kb: ru.maxrss as u64,
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics, counted only while armed (the
/// fixed-work passes of a traced run), so measured runs pay one relaxed
/// load per allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters publish no other data,
// so relaxed ordering suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Runs `f`, counting the allocations every thread makes meanwhile when
/// `armed`; returns `f`'s value, the allocation count and the bytes asked.
pub fn count_allocs<T>(armed: bool, f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    ARMED.store(armed, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - before.0,
        ALLOC_BYTES.load(Ordering::Relaxed) - before.1,
    )
}
