//! Pins the benchmark to one CPU.
//!
//! On a host of a few shared cores, a pipeline whose threads hand work to
//! each other across cores measures cross-core wake-ups and the
//! hypervisor's scheduling as much as the program: runs of one seed
//! differ by 10–15%. On one core every hand-off is a local context
//! switch, and the step times are the program's own cost along the
//! critical path. The analyzer then sees one available core, so its
//! refresh runs on one worker.

/// CPUs the process may run on, and the one it was pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinning {
    /// CPUs allowed before pinning.
    pub allowed: usize,
    /// The CPU the process now runs on; `None` where pinning failed or
    /// the platform has no affinity call.
    pub cpu: Option<usize>,
}

/// Restricts the calling thread, and so every thread it spawns later, to
/// the highest-numbered CPU it may run on. Call it first in `main`,
/// before any thread exists.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Pinning {
    // A mask of 1,024 CPUs, as glibc's `cpu_set_t`.
    type Mask = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = std::mem::size_of::<Mask>();
    let mut allowed: Mask = [0; 16];
    // SAFETY: the pointer and size describe `allowed`, which outlives the
    // call; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Pinning {
            allowed: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: None,
        };
    }
    let is_set = |cpu: usize| allowed[cpu / 64] >> (cpu % 64) & 1 == 1;
    let count = (0..size * 8).filter(|&c| is_set(c)).count();
    let Some(cpu) = (0..size * 8).rev().find(|&c| is_set(c)) else {
        return Pinning {
            allowed: count,
            cpu: None,
        };
    };
    let mut one: Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, for `one`.
    let pinned = unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0;
    Pinning {
        allowed: count,
        cpu: pinned.then_some(cpu),
    }
}

/// Without an affinity call the process is left as it is.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Pinning {
    Pinning {
        allowed: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: None,
    }
}
