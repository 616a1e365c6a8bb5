//! Host-side measurements read from outside the program: CPU time of this
//! process and its reaped children, peak resident set, bytes written, and
//! the size of a directory tree. Linux only (`getrusage` and `/proc`).

use std::os::raw::c_int;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux struct rusage");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn syncfs(fd: c_int) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

fn rusage_seconds(who: c_int) -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the 64-bit Linux
    // `struct rusage` layout (the compile_error above rejects any other
    // target), and getrusage writes exactly one such struct through it.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Writes back everything pending on the filesystem holding `dir`, so the
/// untimed file work between passes (restoring a store, removing a cache)
/// is not flushed during the next timed pass.
pub fn settle_disk(dir: &Path) {
    use std::os::fd::AsRawFd;
    let dir = std::fs::File::open(dir).expect("open the scratch directory");
    // SAFETY: syncfs takes any open file descriptor and only reads it; `dir`
    // stays open for the duration of the call.
    let rc = unsafe { syncfs(dir.as_raw_fd()) };
    assert_eq!(rc, 0, "syncfs failed: {}", std::io::Error::last_os_error());
}

/// User plus system CPU seconds of this process and of every child it has
/// waited for (process-isolated workers are reaped by the engine).
pub fn cpu_seconds() -> f64 {
    rusage_seconds(RUSAGE_SELF) + rusage_seconds(RUSAGE_CHILDREN)
}

fn proc_field(path: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or_else(|| panic!("{path} has no {key} field"))
}

/// Resets this process's peak resident set to its current resident set.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("cannot reset the peak RSS");
}

/// Peak resident set of this process since the last [`reset_peak_rss`], in
/// MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

/// Bytes this process has passed to write-type system calls (`wchar`).
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar")
}

/// Total size in bytes of the regular files under `dir` (0 when absent).
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Copies every regular file of `from` into `to` (created), flat.
pub fn copy_flat(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
