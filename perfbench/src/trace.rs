//! Measurement plumbing: the counting allocator, in-memory spans, and
//! host counters read from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Wraps the system allocator and counts allocations, allocated bytes,
/// live bytes and the peak of live bytes. The counters are statistics
/// that publish no other data, so every access is `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters afterwards, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Live heap, in bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// One timed call. Spans of one operation share `req`; `parent` is the
/// index of the enclosing span plus one (0 for a root).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Work counters read at the same layer boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counters {
    /// Script nodes of each propagation.
    pub script_nodes: Vec<f64>,
    /// Changed nodes (per `script_footprint`) of each propagation.
    pub changed_nodes: Vec<f64>,
    /// Allocations and allocated bytes over each edit's propagate and
    /// commit calls.
    pub edit_allocs: Vec<f64>,
    pub edit_bytes: Vec<f64>,
    /// `Session::cache_stats` deltas summed over propagate and commit.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub invalidated: u64,
    pub commits: u64,
    /// Nodes of every document at the end of the last library replay.
    pub doc_nodes: usize,
    /// Daemon `stats` at the end of each replay, summed.
    pub evictions: u64,
    pub server_cache_hits: u64,
    pub server_cache_misses: u64,
    pub server_shared_hits: u64,
    pub server_shared_misses: u64,
    pub queue_max: u64,
    pub rejected_writes: u64,
    pub retries: u64,
}

/// Spans and counters kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counters: Counters,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            counters: Counters::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span and returns its handle (index plus one), to pass as
    /// `parent` to children and to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, handle: u32) {
        let end = self.ns(Instant::now());
        self.spans[handle as usize - 1].end_ns = end;
    }

    /// Records a span from timestamps already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
    }
}

/// Times `f`; with a tracer, also records the call as a span.
pub fn timed<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    parent: u32,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    if let Some(t) = tr.as_deref_mut() {
        t.record(name, req, parent, start, end);
    }
    (r, end - start)
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // 100 ticks per second on Linux
    (ticks(11) + ticks(12)) / 100.0
}

/// Involuntary context switches of the calling thread, from
/// `/proc/thread-self/status`: how often the host preempted the client.
pub fn nonvoluntary_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
