//! Spans recorded by the benchmark around its own calls into gila, and
//! the clock every benchmark time is read from.
//!
//! Tracing is off in the end-to-end runs: [`span`] then only times its
//! closure. In a traced run every span is kept in memory (name, start,
//! end, parent, request id) and written out once at exit, so recording
//! costs one `Vec` push per call boundary and no I/O while measuring.
//!
//! Times are CPU time of the whole process (`CLOCK_PROCESS_CPUTIME_ID`),
//! summed over its threads: the pool workers of a proof, and the daemon
//! threads as well as the client of a served request. On a shared host
//! wall time also counts the time the host gives the process's CPUs to
//! others (steal), which comes and goes in phases longer than a run;
//! process CPU time leaves it out (the kernel subtracts steal time from
//! the task clock).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit
    // fields on the 64-bit Linux targets this runner builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process CPU seconds `f` takes, and its result.
pub fn cpu_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_ns();
    let out = f();
    (out, (cpu_ns() - t0) as f64 / 1e9)
}

struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        })
    };
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name`; returns its result and its CPU
/// time in seconds (measured whether or not tracing is on). Span start
/// and end are process CPU nanoseconds.
pub fn span<T>(name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> (T, f64) {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = cpu_ns();
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        r.open.push(idx);
        Some(idx)
    });
    let t0 = cpu_ns();
    let out = f();
    let end_ns = cpu_ns();
    let secs = (end_ns - t0) as f64 / 1e9;
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end_ns = end_ns;
            r.open.pop();
        });
    }
    (out, secs)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Summed duration in milliseconds of every span called `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + s.ms())
}

/// Per span name: (count, total ms, self ms), where self time is a
/// span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total as f64 / 1e6;
        e.2 += total.saturating_sub(child) as f64 / 1e6;
    }
    out
}

/// The spans as JSON lines: one object per span, in start order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}\n");
    }
    out
}
