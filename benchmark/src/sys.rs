//! What the operating system knows about this process: CPU seconds
//! consumed, peak resident memory, cores available.

/// `struct rusage` of x86-64 and aarch64 Linux: two `timeval`s, then
/// fourteen `long`s this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of every thread of this process so far.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage { utime_sec: 0, utime_usec: 0, stime_sec: 0, stime_usec: 0, rest: [0; 14] };
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for the 64-bit Linux targets this crate builds on
    // (checked below), and `getrusage` writes nothing beyond it. 0 is
    // RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    (ru.utime_sec + ru.stime_sec) as f64 + (ru.utime_usec + ru.stime_usec) as f64 * 1e-6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and struct rusage as laid out on 64-bit Linux");

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_seconds() - c0;
        assert!(spent > 0.02 && spent < 1.0, "50 ms of spinning cost {spent} CPU s");
        assert!(peak_rss_mb() > 0.5);
    }
}
