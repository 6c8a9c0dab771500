//! CPU clocks of this process and of the calling thread, and the probe
//! that scales CPU time to a reference host speed.
//!
//! On a shared VM the same code costs more CPU time when the host is
//! busy: co-tenants on sibling hyperthreads and lower clocks slow every
//! instruction, and none of it shows as steal. A fixed scalar loop, timed
//! on this thread's CPU clock between measurement windows, tracks that
//! slowdown; `cpu_ms_per_op` is CPU time per op divided by the loop's
//! slowdown against a reference host.

use std::os::raw::{c_int, c_long};

use crate::stats::median;

/// `clockid_t` values of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec`; `time_t` is a C `long` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

fn seconds_of(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`, the only memory the
    // call writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of this process so far, at nanosecond
/// resolution. It sums every thread, live or exited, so the in-process
/// daemons and executor workers are counted; hypervisor steal is not.
pub fn process_s() -> f64 {
    seconds_of(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread so far.
pub fn thread_s() -> f64 {
    seconds_of(CLOCK_THREAD_CPUTIME_ID)
}

/// Steps of one probe: about 5 ms of CPU.
const PROBE_STEPS: u32 = 2_000_000;

/// CPU seconds one probe takes on the reference host (an idle host of
/// the 2-vCPU Xeon VM this benchmark was written on).
const REFERENCE_PROBE_S: f64 = 0.005;

/// Probes taken over one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probe_s: Vec<f64>,
}

impl HostSpeed {
    /// Run the probe once on this thread: a xorshift stream folded into
    /// a checksum, a dependent chain of scalar operations with no memory
    /// traffic. Returns the CPU seconds it took.
    pub fn probe(&mut self) -> f64 {
        let t0 = thread_s();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut sum = 0u64;
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(x);
        }
        std::hint::black_box(sum);
        let secs = thread_s() - t0;
        self.probe_s.push(secs);
        secs
    }

    /// Median probe time over the run, in ms.
    pub fn probe_ms(&self) -> f64 {
        median(&self.probe_s) * 1e3
    }

    /// Scale that takes a CPU time measured in this run to the reference
    /// host: the reference probe time over the run's median probe time.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_S * 1e3 / self.probe_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut speed = HostSpeed::default();
        let spent = speed.probe();
        assert!(spent > 0.0);
        assert!(thread_s() - t0 >= spent);
        assert!(process_s() - p0 >= spent);
    }

    #[test]
    fn scale_is_reference_over_median_probe() {
        let speed = HostSpeed {
            probe_s: vec![0.004, 0.010, 0.005],
        };
        assert_eq!(speed.probe_ms(), 5.0);
        assert_eq!(speed.scale(), 1.0);
        let slow = HostSpeed {
            probe_s: vec![0.008, 0.0125, 0.010],
        };
        assert_eq!(slow.scale(), 0.5);
    }
}
