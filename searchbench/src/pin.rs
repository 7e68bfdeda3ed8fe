//! Pins the benchmark to one CPU.
//!
//! The machine the benchmark was tuned on is a 2-vCPU virtual machine on a
//! shared host. Each vCPU's speed drifts with the load its host core
//! carries for other tenants, by ±25% over seconds, and the two vCPUs
//! drift independently (their speeds, read every 200 ms, correlated by
//! −0.1 to 0.26). A step that waits on another vCPU (an executor batch on
//! a second worker thread, a thread migrated between vCPUs) waits for the
//! host to run that vCPU: unpinned, a 2-worker `cnn-ckpt` step's p90 read
//! 0.79 ms in one run and 2.34 ms in the next.
//!
//! A pinned workload runs each round on one CPU, the one whose reference
//! work (see `speed`) ran fastest just before the round. Threads inherit
//! the mask when they are created, so an executor's per-batch workers run
//! on the round's CPU too, and so do node-worker processes spawned in the
//! round.

/// `cpu_set_t` from `<sched.h>`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on; empty if the kernel refused.
pub fn allowed_cpus() -> Vec<usize> {
    let mut allowed = CpuSet { bits: [0; 16] };
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Vec::new();
    }
    (0..allowed.bits.len() * 64)
        .filter(|&cpu| allowed.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread, and so every thread it creates afterwards, to
/// `cpus`. Returns whether the kernel accepted.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = CpuSet { bits: [0; 16] };
    for &cpu in cpus {
        mask.bits[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and the size passed
    // is its size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// The reference time (see `speed`) on each of `cpus`, measured pinned to
/// it; a CPU the kernel refused is left out. Leaves the calling thread
/// pinned to the last CPU measured.
pub fn reference_on_each(cpus: &[usize]) -> Vec<(usize, f64)> {
    cpus.iter()
        .filter(|&&cpu| pin_to(&[cpu]))
        .map(|&cpu| (cpu, crate::speed::reference_ms()))
        .collect()
}
