//! Fine-grained timing of one long call without touching the program.
//!
//! A whole-deck screen takes seconds. On a shared host, load from other
//! tenants slows the machine by up to about 1.8x in stretches from
//! milliseconds to minutes, so the time of a whole call lands on
//! whichever state dominated it. Faster moments inside a call show at
//! millisecond scale, and this module makes them visible.
//!
//! The benchmark installs a global allocator that counts the heap
//! allocations made on the measuring thread and reads the clock at every
//! [`STRIDE`]-th one. With one worker the program is deterministic, so
//! the k-th stamp of one repetition of a call marks the same point of
//! the program as the k-th stamp of the next: the stamps cut every
//! repetition into the same segments. [`FastestSegments`] adds up each
//! segment's fastest repetition. A slower program slows every
//! repetition of some segment, so a regression still shows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Allocations between two clock reads.
const STRIDE: u64 = 64;

/// Stamps kept per call; later allocations fall into the last segment.
const MAX_STAMPS: usize = 1 << 18;

// Neither needs a destructor, so touching them from inside the allocator
// registers nothing and allocates nothing.
thread_local! {
    /// Whether this thread is inside [`segmented`].
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made inside [`segmented`].
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Clock stamps of the call in progress; its capacity is reserved
/// before the call starts.
static STAMPS: Mutex<Vec<Instant>> = Mutex::new(Vec::new());

/// Stamps the clock on every [`STRIDE`]-th allocation of a thread that
/// is inside [`segmented`]; otherwise the system allocator unchanged.
pub struct Marking;

impl Marking {
    fn mark() {
        if !ACTIVE.try_with(Cell::get).unwrap_or(false) {
            return;
        }
        let due = COUNT
            .try_with(|c| {
                let n = c.get() + 1;
                c.set(n);
                n % STRIDE == 0
            })
            .unwrap_or(false);
        if due {
            // Only the measuring thread locks while it is active; a
            // failed `try_lock` skips one stamp rather than wait.
            if let Ok(mut stamps) = STAMPS.try_lock() {
                // Within capacity, so pushing never allocates.
                if stamps.len() < stamps.capacity() {
                    stamps.push(Instant::now());
                }
            }
        }
    }
}

// SAFETY: every call forwards to `System` with the same arguments. The
// bookkeeping around it reads destructor-free thread-locals, takes an
// uncontended lock without blocking and pushes within reserved capacity,
// so it never allocates, blocks or unwinds.
unsafe impl GlobalAlloc for Marking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::mark();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::mark();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::mark();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Runs `f` on this thread and returns its result with the durations
/// (s) of the segments between consecutive stamps, the call's start and
/// end included; the segments add up to the call's wall time. Calls
/// must not nest or overlap.
pub fn segmented<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    {
        let mut stamps = STAMPS.lock().unwrap_or_else(|e| e.into_inner());
        stamps.clear();
        stamps.reserve_exact(MAX_STAMPS);
    }
    COUNT.with(|c| c.set(0));
    ACTIVE.with(|a| a.set(true));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    ACTIVE.with(|a| a.set(false));
    let stamps = std::mem::take(&mut *STAMPS.lock().unwrap_or_else(|e| e.into_inner()));
    let mut segments = Vec::with_capacity(stamps.len() + 1);
    let mut last = start;
    for t in stamps.into_iter().chain([end]) {
        segments.push(t.duration_since(last).as_secs_f64());
        last = t;
    }
    (out, segments)
}

/// Each segment's fastest time over the repetitions of one call, kept
/// as a running minimum so memory does not grow with the repetitions.
#[derive(Default)]
pub struct FastestSegments {
    mins: Vec<f64>,
    /// Fastest whole repetition among those cut into a different number
    /// of segments than the first.
    other: Option<f64>,
    reps: usize,
}

impl FastestSegments {
    pub fn add(&mut self, segments: &[f64]) {
        if self.reps == 0 {
            self.mins = segments.to_vec();
        } else if segments.len() == self.mins.len() {
            for (m, s) in self.mins.iter_mut().zip(segments) {
                *m = m.min(*s);
            }
        } else {
            let whole: f64 = segments.iter().sum();
            self.other = Some(self.other.map_or(whole, |o| o.min(whole)));
        }
        self.reps += 1;
    }

    /// Repetitions added.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Wall time (s) of the call made of each segment's fastest
    /// repetition, or of a differently cut repetition when that is
    /// faster still.
    pub fn total(&self) -> f64 {
        let composite: f64 = self.mins.iter().sum();
        self.other.map_or(composite, |o| composite.min(o))
    }
}
