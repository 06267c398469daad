//! The processor time this process has consumed, all threads together.
//!
//! A library op computes on one thread and neither sleeps nor does I/O, so on
//! an idle core its wall time and its processor time are the same number. On
//! a shared host they are not: the wall clock also counts the time the thread
//! was runnable but descheduled, inside this machine or by the hypervisor
//! (the kernel keeps stolen time out of a task's run time). The library
//! workloads therefore time each op on this clock and print the wall median
//! beside it.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Processor time consumed by the process so far.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (glibc, which std already links) writes one
    // `timespec` (two 64-bit fields on 64-bit Linux) through the pointer,
    // which is to a live value of that layout, and touches nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn spinning_consumes_processor_time() {
        // (Other tests run beside this one, so only a lower bound holds.)
        let before = process_cpu_time();
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        let used = process_cpu_time() - before;
        assert!(used >= Duration::from_millis(10), "{used:?}");
    }
}
