//! The process CPU clock.
//!
//! On a shared host the hypervisor takes vCPUs away from the guest (steal
//! time) for stretches of seconds to minutes, and wall time counts those
//! stretches while CPU time does not. The gated throughput and set-up
//! metrics are therefore timed on this clock.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time used so far by every thread of this process, in seconds.
///
/// # Panics
/// If the clock cannot be read.
#[must_use]
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn advances_with_work() {
        let a = super::process_s();
        let mut x = 1u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        let b = super::process_s();
        assert!(b > a, "{a} -> {b}");
    }
}
