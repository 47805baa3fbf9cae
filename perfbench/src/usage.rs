//! Process resource usage: CPU time of every thread and the memory
//! high-water mark, from `getrusage(RUSAGE_SELF)`. The call counts threads
//! that have already exited, so it covers every simulator thread a
//! finished run spawned.

/// What `getrusage` reports that the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// User plus system CPU time of the whole process, in nanoseconds.
    pub cpu_ns: u64,
    /// Peak resident set size of the process, in KiB.
    pub max_rss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The process's usage so far.
pub fn now() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (`Rusage` above mirrors it field for field), and `RUSAGE_SELF`
    // is a valid `who`, so the call writes only within `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
    Usage { cpu_ns: ns(&ru.utime) + ns(&ru.stime), max_rss_kib: ru.maxrss as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_the_peak_is_positive() {
        let before = now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = now();
        assert!(after.cpu_ns > before.cpu_ns, "{x}");
        assert!(after.max_rss_kib > 0);
        assert!(after.max_rss_kib >= before.max_rss_kib);
    }
}
