//! Host-ledger readings of the benchmark process itself.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second behind the `/proc/self/stat` times. Linux
/// reports 100 on every mainstream architecture, and without libc there is
/// no `sysconf` to ask; a different value would scale `host_cpu_ms_per_req`
/// on both sides of a comparison alike.
const CLK_TCK: f64 = 100.0;

/// Iterations of one calibration spin (a dependent multiply chain, so the
/// loop cannot be vectorised or shortened).
const SPIN_ITERS: u64 = 12_000_000;

/// User + system CPU milliseconds this process has used, all threads,
/// including threads that have already exited.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (ticks() + ticks()) * 1000.0 / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The noise guard's reading: the median wall time of five fixed integer
/// spin loops, in milliseconds. The work never changes, so two readings
/// differ only by what else the machine is doing.
pub fn calibration_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..SPIN_ITERS {
                x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(23);
            }
            black_box(x);
            started.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    crate::stats::median(&mut runs)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
