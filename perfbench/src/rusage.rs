//! Peak resident set of this process, from `getrusage(2)`.

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system
/// time, two longs each) followed by fourteen longs, `ru_maxrss` first.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

const RUSAGE_SELF: i32 = 0;
const MAXRSS: usize = 4;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size in KiB.
pub fn max_rss_kib() -> u64 {
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a properly aligned, writable buffer of the size
    // of the C `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a
    // valid `who`; the call writes only within that buffer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.fields[MAXRSS] as u64
}
