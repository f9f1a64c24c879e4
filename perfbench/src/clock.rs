//! Wall and CPU clocks.
//!
//! The gated timings are CPU time: the client thread's for each call, all
//! threads' for set-up and for the total cost per operation. On a shared
//! host the wall clock also counts the time the host runs something else
//! on our vCPUs; Linux leaves that time (steal, and waiting behind other
//! processes) out of a thread's CPU clock, so CPU time moves with the work
//! the program does rather than with the host's load.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks assume 64-bit Linux's `struct timespec`");

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is one Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process: every thread, user and system.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Wall time and calling-thread CPU time of one call, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct Took {
    pub wall: u64,
    pub cpu: u64,
}

/// Started before a call; [`Lap::took`] after it gives its [`Took`].
pub struct Lap {
    wall: Instant,
    cpu: Duration,
}

impl Lap {
    pub fn start() -> Self {
        Lap {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    pub fn took(&self) -> Took {
        let cpu = thread_cpu() - self.cpu;
        Took {
            wall: self.wall.elapsed().as_nanos() as u64,
            cpu: cpu.as_nanos() as u64,
        }
    }
}

/// The clocks at a phase boundary: wall, the calling thread's CPU and
/// the process's CPU.
#[derive(Clone, Copy)]
pub struct Mark {
    pub wall: Instant,
    pub thread: Duration,
    pub process: Duration,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            wall: Instant::now(),
            thread: thread_cpu(),
            process: process_cpu(),
        }
    }
}

/// The clocks' advance between two marks.
#[derive(Clone, Copy, Default)]
pub struct Interval {
    pub wall: Duration,
    /// CPU time of the thread that took both marks.
    pub thread: Duration,
    /// CPU time every other thread of the process spent meanwhile.
    pub others: Duration,
}

impl Mark {
    pub fn since(&self, earlier: &Mark) -> Interval {
        let thread = self.thread - earlier.thread;
        Interval {
            wall: self.wall - earlier.wall,
            thread,
            others: (self.process - earlier.process).saturating_sub(thread),
        }
    }
}
