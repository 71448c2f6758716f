//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (the driver's `execute` call, [`crate::sut::TracedStore`]'s
//! forwarding methods). Each thread appends to its own buffer; nothing is
//! written until the run ends. A span names its request when it was taken on
//! the thread that issued the request; store calls made on the program's
//! fan-out workers carry no request and are attributed afterwards by time
//! containment, which is exact because the traced replay has one client.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// JSONL files stop after this many spans; the metrics use every span.
const MAX_SPANS_WRITTEN: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the driver request this span belongs to; 0 = not
    /// known on the recording thread.
    pub request: u64,
    /// Layer-specific count: response cardinality for engine spans, value
    /// bytes for store writes.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Request spans are the driver's own calls into the engine, named
    /// `engine.<op class>`; every other span is a layer below.
    pub fn is_request(&self) -> bool {
        self.name.starts_with("engine.")
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Vec<Span>>>>> = const { RefCell::new(None) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn push(span: Span) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer = Arc::new(Mutex::new(Vec::new()));
            BUFFERS
                .lock()
                .expect("no recorder thread panics while registering")
                .push(Arc::clone(&buffer));
            buffer
        });
        buffer
            .lock()
            .expect("a span buffer is only locked to push or drain")
            .push(span);
    });
}

/// Time `f` as a span named `name` when tracing is on; `count` is read from
/// the result so it costs nothing when tracing is off.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T, count: impl FnOnce(&T) -> u64) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    push(Span {
        name,
        start_ns,
        end_ns,
        request: REQUEST.with(Cell::get),
        count: count(&out),
    });
    out
}

/// As [`span`], for the driver's own call: the span and every span taken on
/// this thread while `f` runs belong to `request`.
pub fn request_span<T>(
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
    count: impl FnOnce(&T) -> u64,
) -> T {
    REQUEST.with(|r| r.set(request));
    let out = span(name, f, count);
    REQUEST.with(|r| r.set(0));
    out
}

/// Take every span recorded so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in BUFFERS
        .lock()
        .expect("no recorder thread panics while registering")
        .iter()
    {
        all.append(
            &mut buffer
                .lock()
                .expect("a span buffer is only locked to push or drain"),
        );
    }
    all.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    all
}

/// Give every request-less span the request whose span contains it. Callers
/// guarantee request spans do not overlap (one client), so containment is
/// unambiguous. `spans` must be ordered by start time.
pub fn attribute(spans: &mut [Span]) {
    let mut current: Option<(u64, u64)> = None; // (request, end_ns)
    for span in spans.iter_mut() {
        if span.is_request() {
            current = Some((span.request, span.end_ns));
        } else if span.request == 0 {
            if let Some((request, end_ns)) = current {
                if span.end_ns <= end_ns {
                    span.request = request;
                }
            }
        }
    }
}

/// Nanoseconds of `[start_ns, end_ns]` covered by the union of `children`
/// (ordered by start time). Fan-out children overlap each other, so their
/// durations cannot simply be added.
pub fn covered_ns(start_ns: u64, end_ns: u64, children: &[Span]) -> u64 {
    let mut covered = 0;
    let mut cursor = start_ns;
    for child in children {
        let from = child.start_ns.max(cursor);
        let to = child.end_ns.min(end_ns);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    covered
}

/// Write spans as one JSON object per line: name, start, end, parent (the
/// request span's line number, 0 for a request span), request.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut parent_line = std::collections::HashMap::new();
    for (i, span) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        let line = i as u64 + 1;
        let parent = if span.is_request() {
            parent_line.insert(span.request, line);
            0
        } else {
            parent_line.get(&span.request).copied().unwrap_or(0)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.request
        )?;
    }
    out.flush()
}
