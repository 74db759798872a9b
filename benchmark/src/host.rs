//! What the benchmark reads from the machine it runs on: the run-time
//! guards, the process CPU clock, and the two roofline probes that let
//! results from different hosts be compared honestly.

use crate::stats::median_secs;
use std::hint::black_box;

/// Kernel clock ticks per second in `/proc/<pid>/stat`: `USER_HZ`, which
/// Linux fixes at 100 in its user-space ABI whatever the kernel's own `HZ`.
const USER_HZ: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU seconds of the whole process, all threads.
///
/// # Panics
/// Panics where `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report `cpu_ms_per_token` on such a host.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_seconds_of(&stat).expect("parse /proc/self/stat")
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`: utime and stime are the 12th and 13th after it.
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// One-minute load average, when the host reports one.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` in a checkout that is not a repository.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Peak multiply-add rate of one core as this build compiles it, GFLOP/s:
/// 64 independent f32 chains of `x·a + b`, two FLOPs each, all in registers
/// or L1. The ceiling the `*_gflops` probes are read against.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let secs = median_secs(5, || {
        let mut acc = [1.0f32; LANES];
        let (a, b) = (black_box(0.999_999f32), black_box(1e-6f32));
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(acc);
    });
    (2 * LANES * ITERS) as f64 / secs / 1e9
}

/// Sustained memory bandwidth of one core, GB/s: the STREAM triad
/// `a = b + s·c` over three 32 MiB arrays, counted as three streams.
pub fn stream_gbps() -> f64 {
    const N: usize = 8 << 20;
    let mut a = vec![0.0f32; N];
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let secs = median_secs(5, || {
        let s = black_box(3.0f32);
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
    });
    (3 * N * 4) as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_skip_a_hostile_command_name() {
        let stat = "42 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(cpu_seconds_of(stat), Some(3.0));
        assert_eq!(cpu_seconds_of("42 (x) S 1 2"), None);
    }

    #[test]
    fn process_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > before);
    }
}
