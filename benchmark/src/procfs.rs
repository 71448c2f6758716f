//! Process-wide counters from `/proc/self`.

fn read(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// `struct timespec` of the 64-bit Linux C ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process, every thread included,
/// to the nanosecond (`/proc/self/stat` counts in 10 ms ticks, a tenth of a
/// slice).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the 64-bit
    // Linux C ABI defines, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn keyed_kb(file: &str, key: &str) -> f64 {
    read(file)
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set so far, MiB.
pub fn peak_rss_mb() -> f64 {
    keyed_kb("status", "VmHWM:") / 1024.0
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Bytes passed to write syscalls.
    pub write_chars: f64,
    /// Write syscalls.
    pub write_syscalls: f64,
}

pub fn io() -> Io {
    Io {
        write_chars: keyed_kb("io", "wchar:"),
        write_syscalls: keyed_kb("io", "syscw:"),
    }
}
