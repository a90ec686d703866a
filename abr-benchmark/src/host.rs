//! The provenance stamp on every result record, and the process's peak
//! memory.

use crate::api::{obj, Json};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest cache level cpu0 reports, e.g. `"300M"`.
fn llc_size() -> String {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .rev()
        .find_map(|i| std::fs::read_to_string(dir.join(format!("index{i}/size"))).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `target-cpu` from the `RUSTFLAGS` the binary was built with.
fn target_cpu(rustflags: &str) -> String {
    rustflags
        .split_whitespace()
        .find_map(|f| {
            f.strip_prefix("target-cpu=")
                .or_else(|| f.strip_prefix("-Ctarget-cpu="))
        })
        .unwrap_or("default")
        .to_string()
}

/// The commit of the checkout the benchmark runs in. Only asked when the
/// working directory is a repository root: git would otherwise answer
/// for whatever repository happens to enclose an exported tree.
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// Host, toolchain, build and input provenance for one result record.
pub fn stamp(seed: u64) -> Json {
    let rustflags = option_env!("RUSTFLAGS").unwrap_or("");
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("llc", Json::Str(llc_size())),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("rustflags", Json::Str(rustflags.into())),
        ("target_cpu", Json::Str(target_cpu(rustflags))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Live heap bytes, counted by [`CountingAlloc`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The benchmark binary's global allocator: the system allocator, with a
/// count of live heap bytes and their peak. Unlike the resident set, the
/// peak does not depend on which of the C library's per-thread arenas
/// served an allocation, so it repeats from run to run.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    // sync: Relaxed — both counters are statistics and publish no data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    // sync: Relaxed — a statistic, as in `grew`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returned, so the caller's contract with this
// allocator is exactly its contract with `System`; the counters only add
// and subtract sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from `System` with
        // `layout` and that `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Peak live heap of this process, in MiB; 0 unless the binary's global
/// allocator is [`CountingAlloc`].
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_is_read_from_either_flag_spelling() {
        assert_eq!(target_cpu("-C target-cpu=native -C opt-level=3"), "native");
        assert_eq!(target_cpu("-Ctarget-cpu=skylake"), "skylake");
        assert_eq!(target_cpu(""), "default");
    }
}
