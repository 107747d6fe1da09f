//! Profiling probes: a counting global allocator and a host fingerprint.
//!
//! [`PeakAllocTracker`] promotes the bench harnesses' hand-rolled
//! counting allocator into one shared, const-constructible wrapper around
//! [`std::alloc::System`] — install it with `#[global_allocator]` and
//! read live/peak bytes at any point. [`HostInfo`] probes the machine the
//! run happened on (physical cores, `available_parallelism`, page size,
//! OS) so committed BENCH baselines are self-describing instead of
//! "an opaque 1-core container".

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `GlobalAlloc` wrapper over the system allocator that tracks live and
/// peak heap bytes.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sper_obs::PeakAllocTracker = sper_obs::PeakAllocTracker::new();
/// // … workload …
/// let peak = ALLOC.peak_bytes();
/// ```
///
/// Counting is two relaxed atomic ops per allocation plus a CAS loop on
/// new peaks; `realloc` is counted as the size delta.
#[derive(Debug)]
pub struct PeakAllocTracker {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAllocTracker {
    /// A zeroed tracker, usable in `static` position.
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes since process start (or the last
    /// [`reset_peak`](Self::reset_peak)).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Rebases the peak to the current live size, so per-phase peaks can
    /// be measured in one process.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    #[inline]
    fn on_alloc(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    #[inline]
    fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }
}

impl Default for PeakAllocTracker {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every allocation to `System`, only adding relaxed
// counter updates around it.
unsafe impl GlobalAlloc for PeakAllocTracker {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.on_alloc(new_size - layout.size());
            } else {
                self.on_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

/// A fingerprint of the machine a run executed on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostInfo {
    /// Physical/logical CPU count from `/proc/cpuinfo` (0 if unreadable).
    pub cores: usize,
    /// `std::thread::available_parallelism()` — what the scheduler
    /// actually grants, which in a constrained container can be far below
    /// `cores`.
    pub host_parallelism: usize,
    /// Memory page size in bytes from the auxiliary vector (0 off-Linux).
    pub page_size: usize,
    /// Operating system, as compiled for (`std::env::consts::OS`).
    pub os: &'static str,
    /// SIMD instruction-set extensions detected at runtime (empty off
    /// x86_64), so a host stamp names the vector units its run had.
    pub cpu_features: Vec<&'static str>,
}

impl HostInfo {
    /// Probes the current host. Never fails: unreadable probes report 0.
    pub fn probe() -> Self {
        Self {
            cores: cpuinfo_cores(),
            host_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(0),
            page_size: auxv_page_size(),
            os: std::env::consts::OS,
            cpu_features: cpu_features(),
        }
    }
}

/// The SIMD extensions the host stamp reports, in ascending capability
/// order; empty off x86_64.
fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            features.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            features.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Provenance of a run: when it happened and what code produced it.
/// Stamped into every committed artifact (bench baselines, run reports)
/// so a number on disk can always be traced back to a commit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RunStamp {
    /// UTC wall-clock time, ISO-8601 (`2026-08-07T12:34:56Z`).
    pub timestamp: String,
    /// Short git revision of the working tree, `"unknown"` outside a
    /// checkout.
    pub git_rev: String,
}

impl RunStamp {
    /// Captures the current time and revision. Never fails: a missing
    /// `git` binary or a non-repo directory yields `git_rev: "unknown"`.
    pub fn capture() -> Self {
        Self {
            timestamp: iso8601_utc_now(),
            git_rev: git_rev(),
        }
    }
}

/// The current UTC time as `YYYY-MM-DDThh:mm:ssZ`, from `SystemTime`
/// alone (no time-zone database needed for UTC).
fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

/// Days-since-epoch to (year, month, day), proleptic Gregorian — the
/// standard era-based civil-calendar conversion.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The working tree's short revision: `git rev-parse`, falling back to
/// reading `.git/HEAD` directly, else `"unknown"`.
fn git_rev() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
    {
        if out.status.success() {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    git_rev_from_dot_git().unwrap_or_else(|| "unknown".to_string())
}

/// Resolves HEAD by hand for environments without a `git` binary: walks
/// up from the current directory to a `.git/HEAD`, follows one level of
/// `ref:` indirection through loose refs and `packed-refs`.
fn git_rev_from_dot_git() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = if let Some(reference) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(git.join(reference)) {
            Ok(loose) => loose.trim().to_string(),
            Err(_) => {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())?
                    .to_string()
            }
        }
    } else {
        head.to_string()
    };
    (hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| hash[..12].to_string())
}

/// Counts `processor` entries in `/proc/cpuinfo`; 0 when unavailable.
fn cpuinfo_cores() -> usize {
    let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") else {
        return 0;
    };
    text.lines().filter(|l| l.starts_with("processor")).count()
}

/// Reads `AT_PAGESZ` from `/proc/self/auxv`; 0 when unavailable.
fn auxv_page_size() -> usize {
    const AT_PAGESZ: u64 = 6;
    let Ok(bytes) = std::fs::read("/proc/self/auxv") else {
        return 0;
    };
    for pair in bytes.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().unwrap());
        let value = u64::from_ne_bytes(pair[8..].try_into().unwrap());
        if key == AT_PAGESZ {
            return value as usize;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_and_peaks() {
        let t = PeakAllocTracker::new();
        t.on_alloc(100);
        t.on_alloc(50);
        assert_eq!(t.live_bytes(), 150);
        assert_eq!(t.peak_bytes(), 150);
        t.on_dealloc(120);
        assert_eq!(t.live_bytes(), 30);
        assert_eq!(t.peak_bytes(), 150);
        t.reset_peak();
        assert_eq!(t.peak_bytes(), 30);
        t.on_alloc(10);
        assert_eq!(t.peak_bytes(), 40);
    }

    #[test]
    fn host_probe_is_sane_on_linux() {
        let host = HostInfo::probe();
        if host.os == "linux" {
            assert!(host.cores >= 1);
            assert!(host.host_parallelism >= 1);
            assert!(host.page_size >= 4096);
        }
    }

    #[test]
    fn run_stamp_has_iso_timestamp_and_a_rev() {
        let stamp = RunStamp::capture();
        let t = stamp.timestamp.as_bytes();
        assert_eq!(t.len(), 20, "{}", stamp.timestamp);
        assert_eq!(t[4], b'-');
        assert_eq!(t[10], b'T');
        assert_eq!(t[19], b'Z');
        assert!(!stamp.git_rev.is_empty());
    }

    #[test]
    fn civil_conversion_hits_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1), "leap-adjacent");
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
    }

    #[test]
    fn cpu_features_include_the_x86_64_baseline() {
        let host = HostInfo::probe();
        #[cfg(target_arch = "x86_64")]
        assert!(
            host.cpu_features.contains(&"sse2"),
            "{:?}",
            host.cpu_features
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(host.cpu_features.is_empty());
    }
}
