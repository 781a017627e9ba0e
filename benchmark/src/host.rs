//! What the benchmark reads from the host: processor count, the
//! process's CPU time and page faults, the scratch file system, the
//! wall clock, and a noise guard that times two fixed pieces of work at
//! both ends of a run.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Threads the benchmark may use: the processors available to it.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds and minor faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl ProcStat {
    /// Read `/proc/self/stat`; zeros where the file is absent (not Linux).
    pub fn now() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Clock ticks per second of `utime`/`stime`: `USER_HZ`, fixed at 100 on
/// every Linux ABI.
const USER_HZ: f64 = 100.0;

fn parse_stat(stat: &str) -> Option<ProcStat> {
    // Field 2 is "(comm)" and may contain spaces: count from its end.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    // rest[0] is field 3 (state); minflt is field 10, utime 14, stime 15.
    Some(ProcStat {
        minor_faults: f.get(7)?.parse().ok()?,
        user_s: f.get(11)?.parse::<f64>().ok()? / USER_HZ,
        sys_s: f.get(12)?.parse::<f64>().ok()? / USER_HZ,
    })
}

/// Type of the file system holding `dir`, from the longest mount point in
/// `/proc/mounts` that prefixes it ("unknown" off Linux).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), ty))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, ty)| ty.to_string())
}

/// Iterations of the noise guard's spin.
const SPIN_ITERS: u64 = 20_000_000;

/// A fixed integer dependency chain: nothing to cache, predict or
/// vectorise, so its duration tracks the core's speed and nothing else.
fn spin(iters: u64) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Run `f` and return its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Bytes each memcpy probe moves. The copy is cache-resident on a host
/// whose last-level cache is larger (the sandbox reports 260 MiB), so
/// the number is a copy rate, not a DRAM bandwidth; no roofline ratio is
/// derived from it.
pub const MEMCPY_BYTES: usize = 64 << 20;

/// One reading of the noise guard's two fixed pieces of work.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSample {
    pub spin_s: f64,
    pub memcpy_s: f64,
}

impl NoiseSample {
    /// Best of three, so a single preemption does not raise the flag.
    pub fn take() -> NoiseSample {
        let src = vec![1u8; MEMCPY_BYTES];
        let mut dst = vec![0u8; MEMCPY_BYTES];
        let mut best = NoiseSample {
            spin_s: f64::INFINITY,
            memcpy_s: f64::INFINITY,
        };
        for _ in 0..3 {
            best.spin_s = best.spin_s.min(spin(SPIN_ITERS));
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            best.memcpy_s = best.memcpy_s.min(t.elapsed().as_secs_f64());
        }
        best
    }

    pub fn memcpy_gbps(&self) -> f64 {
        MEMCPY_BYTES as f64 / self.memcpy_s / 1e9
    }

    /// True when either piece of work took over 10 % longer or shorter
    /// at the other end of the run: the host changed under the benchmark.
    pub fn disagrees_with(&self, other: &NoiseSample) -> bool {
        let off = |a: f64, b: f64| (a / b - 1.0).abs() > 0.10;
        off(self.spin_s, other.spin_s) || off(self.memcpy_s, other.memcpy_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_name() {
        let line = "4242 (north up) bench) S 1 4242 4242 0 -1 4194304 1234 0 0 0 250 50 0 0 20 0 3 0 100 1000 10";
        let s = parse_stat(line).unwrap();
        assert_eq!((s.minor_faults, s.user_s, s.sys_s), (1234.0, 2.5, 0.5));
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn noise_guard_flags_a_ten_percent_shift_either_way() {
        let a = NoiseSample {
            spin_s: 1.0,
            memcpy_s: 1.0,
        };
        let near = NoiseSample {
            spin_s: 1.05,
            memcpy_s: 0.95,
        };
        let slow = NoiseSample {
            spin_s: 1.0,
            memcpy_s: 1.2,
        };
        assert!(!a.disagrees_with(&near));
        assert!(a.disagrees_with(&slow) && slow.disagrees_with(&a));
    }

    #[test]
    fn this_process_has_a_stat_and_a_file_system() {
        if Path::new("/proc/self/stat").exists() {
            assert!(ProcStat::now().minor_faults > 0.0);
            assert_ne!(fs_type(Path::new("/proc")), "unknown");
        }
    }
}
