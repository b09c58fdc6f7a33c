//! What the benchmark reads from the operating system and the allocator:
//! process CPU time, heap bytes, and the host facts every result records.
//! Linux only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, including threads that already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `clock`'s reading in nanoseconds.
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all `clock_gettime` writes to.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The benchmark's allocator: the system allocator, plus live and peak
/// byte counts that are only kept while armed, so timed rounds pay one
/// relaxed load per allocation.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics and never influence what memory is handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.alloc(layout) };
        if ARMED.load(Ordering::Relaxed) && !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            count(-(layout.size() as i64));
        }
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ARMED.load(Ordering::Relaxed) && !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` with the heap counted on every thread: returns the net bytes
/// it left allocated, the most bytes it held allocated at once, and its
/// result.
pub fn heap_growth<T>(f: impl FnOnce() -> T) -> (i64, i64, T) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        LIVE.load(Ordering::SeqCst),
        PEAK.load(Ordering::SeqCst),
        out,
    )
}

/// Random keys the calibration kernel sorts.
const CAL_SORT_KEYS: usize = 1 << 16;

/// Keys the calibration kernel inserts into a `BTreeMap`; it then looks
/// up twice as many.
const CAL_MAP_KEYS: usize = 1 << 14;

/// Keys are reduced into `0..CAL_KEY_SPACE`, so about half the lookups hit.
const CAL_KEY_SPACE: u64 = 100_000;

/// One pass of the host-speed calibration kernel, in nanoseconds of the
/// calling thread's CPU time: sort
/// 64 Ki fixed random `u64`s, then build a `BTreeMap` of 16 Ki of them
/// and look up 32 Ki more. The kernel is the benchmark's own code and
/// input, never the program's, so no change to the program moves it.
/// Branchy, cache-resident work like this slows down with the host the
/// way the serving path does; the calibration-adjusted metrics in
/// `main.rs` divide that out.
pub fn calibration_ns() -> f64 {
    let mut rng = crate::workload::SplitMix::new(0xCA11_B8A7, 0);
    let keys: Vec<u64> = (0..CAL_SORT_KEYS).map(|_| rng.next_u64()).collect();
    let mut sorted = keys.clone();
    let t0 = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
    sorted.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for (i, &key) in keys[..CAL_MAP_KEYS].iter().enumerate() {
        map.insert(key.rotate_left(17) % CAL_KEY_SPACE, i);
    }
    let hits = keys[CAL_MAP_KEYS..3 * CAL_MAP_KEYS]
        .iter()
        .filter(|&&key| map.contains_key(&(key % CAL_KEY_SPACE)))
        .count();
    let elapsed = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID) - t0;
    std::hint::black_box((sorted, hits));
    elapsed as f64
}

/// CPU time the hypervisor took from the host's virtual CPUs, summed
/// over them, in `/proc/stat` ticks (100 per second).
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .expect("/proc/stat cpu line has a steal field")
}

/// What `nproc` prints: the CPUs this process may run on.
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("/proc/self/status lists the allowed CPUs");
    list.trim()
        .split(',')
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => {
                hi.parse::<usize>().expect("cpu number") + 1
                    - lo.parse::<usize>().expect("cpu number")
            }
            None => 1,
        })
        .sum()
}

/// Watches the host over a run, for the facts every result records: core
/// counts, so a two-core number is never read as a scaling result, and the
/// share of CPU time the hypervisor took, so a disturbed run shows.
pub struct HostWatch {
    started: Instant,
    steal: u64,
}

impl HostWatch {
    /// Starts watching.
    pub fn start() -> Self {
        HostWatch {
            started: Instant::now(),
            steal: steal_ticks(),
        }
    }

    /// The host-facts line for a run whose scans dispatched to `backend`.
    pub fn line(&self, backend: &str) -> String {
        let nproc = nproc();
        let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
        let stolen_s = (steal_ticks() - self.steal) as f64 / 100.0;
        let steal_pct =
            100.0 * stolen_s / (self.started.elapsed().as_secs_f64() * nproc.max(1) as f64);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        format!(
            "host: nproc={nproc} available_parallelism={parallelism} scan_backend={backend} \
             build_profile={profile} steal_pct={steal_pct:.1}"
        )
    }
}
