//! Keep the whole run on one CPU.
//!
//! Every request is a ping-pong between a client thread and a server
//! thread. With the two on different CPUs of a virtual machine, each
//! hop wakes an idle virtual CPU, and how long that takes depends on
//! the host's load, so latency medians moved by up to 2x between sets
//! of runs. On one CPU a hop is a local context switch.

/// Pin this process (the calling thread, and every thread it starts
/// afterwards) to the lowest-numbered CPU it may run on. Returns that
/// CPU, or `None` where the system does not allow it.
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Option<usize> {
    // The kernel's `cpu_set_t`: one bit per CPU.
    const BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; BYTES];
    // SAFETY: `mask` is a writable buffer of `BYTES` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of `BYTES` bytes.
    (unsafe { sched_setaffinity(0, BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Option<usize> {
    None
}
