//! Tracing from the outside: spans recorded only from the benchmark's own
//! files, at the seams the stack already exposes as traits.
//!
//! * front-door spans around `try_build`, `Session::plan`, `Plan::execute`
//!   and `Server::submit` ([`span`], [`submit_span`]);
//! * [`TracedBackend`] around each `SimBackend`, behind the `Backend` trait;
//! * [`TracedModel`] around the `SimulatedLlm`, behind `LanguageModel`.
//!
//! Spans go to a per-thread buffer that is flushed into one sink when the
//! thread ends (the engine's workers are scoped threads, so they end with
//! the call that spawned them) and written to a file when the run ends.
//! Each span names the front-door span that caused it: the op for the
//! `Query` door, the submit running on the same thread for the serve door.
//! The backend wrapper also keeps the requests and responses it sees, which
//! the probes replay into the layers that have no seam.
//!
//! A traced process wraps the roster once and switches recording on and off
//! per op, so the same process measures what recording costs; an untraced
//! process has no wrapper at all.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crowdprompt_oracle::backend::{Backend, CancelToken};
use crowdprompt_oracle::pricing::Pricing;
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt_oracle::LlmError;

/// At most this many request/response pairs are kept for the probes.
const CAPTURE_CAP: usize = 20_000;

/// How a span ended; only backend spans use anything but `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Failed,
    Cancelled,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the process's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// This span's id if it is a front-door span, else 0.
    pub id: u64,
    /// The front-door span that caused this one (0 = none).
    pub parent: u64,
    pub status: Status,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The op this span belongs to: a submit id carries its op in the high
    /// half, an op id is small.
    pub fn op(&self) -> u64 {
        if self.parent >> 32 != 0 {
            self.parent >> 32
        } else {
            self.parent
        }
    }
}

pub type Capture = (CompletionRequest, CompletionResponse);

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static CAPTURED: AtomicUsize = AtomicUsize::new(0);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<(Vec<Span>, Vec<Capture>)> = Mutex::new((Vec::new(), Vec::new()));

#[derive(Default)]
struct ThreadBuf {
    spans: Vec<Span>,
    captures: Vec<Capture>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.spans.is_empty() && self.captures.is_empty() {
            return;
        }
        // A poisoned sink means another thread panicked mid-flush; the run
        // is failing anyway, so dropping this buffer loses nothing.
        if let Ok(mut sink) = SINK.lock() {
            sink.0.append(&mut self.spans);
            sink.1.append(&mut self.captures);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
    /// The `Server::submit` running on this thread (0 = none).
    static SUBMIT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn record(span: Span) {
    BUF.with(|buf| buf.borrow_mut().spans.push(span));
}

/// Switch recording on or off and name the op that spans belong to from
/// now on. Called between ops, when no worker thread is alive.
pub fn begin_op(op: u64, traced: bool) {
    now_ns();
    CURRENT_OP.store(op, Ordering::Relaxed);
    ENABLED.store(traced, Ordering::Relaxed);
}

/// A front-door span on the `Query` door, child of the current op.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    record(Span {
        name,
        start_ns,
        end_ns: now_ns(),
        id: 0,
        parent: CURRENT_OP.load(Ordering::Relaxed),
        status: Status::Ok,
    });
    out
}

/// The serve door's front-door span: everything the stack does on this
/// thread until `f` returns is caused by submit number `seq` of this op.
pub fn submit_span<T>(seq: u32, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let op = CURRENT_OP.load(Ordering::Relaxed);
    let id = (op << 32) | u64::from(seq);
    SUBMIT.with(|s| s.set(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    SUBMIT.with(|s| s.set(0));
    record(Span {
        name: "submit",
        start_ns,
        end_ns,
        id,
        parent: op,
        status: Status::Ok,
    });
    out
}

fn cause() -> u64 {
    match SUBMIT.with(Cell::get) {
        0 => CURRENT_OP.load(Ordering::Relaxed),
        submit => submit,
    }
}

/// Flush the calling thread's buffer; the main thread and the serve
/// workload's client threads call this before the spans are read.
pub fn flush_thread() {
    BUF.with(|buf| buf.borrow_mut().flush());
}

/// Everything recorded so far (spans stay in the sink for the final dump).
pub fn spans() -> Vec<Span> {
    flush_thread();
    SINK.lock().expect("trace sink").0.clone()
}

/// The request/response pairs the backend wrappers saw.
pub fn take_captures() -> Vec<Capture> {
    flush_thread();
    std::mem::take(&mut SINK.lock().expect("trace sink").1)
}

/// Write every span out as tab-separated text.
pub fn dump(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    flush_thread();
    let sink = SINK.lock().expect("trace sink");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\tstatus")?;
    for s in &sink.0 {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:?}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.status
        )?;
    }
    out.flush()
}

/// A `Backend` that records one span per call and keeps what it saw.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
}

impl TracedBackend {
    pub fn wrap(inner: Arc<dyn Backend>) -> Arc<dyn Backend> {
        Arc::new(TracedBackend { inner })
    }
}

impl Backend for TracedBackend {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn tier(&self) -> &str {
        self.inner.tier()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }
    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn complete(
        &self,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        if !enabled() {
            return self.inner.complete(request, cancel);
        }
        let start_ns = now_ns();
        let result = self.inner.complete(request, cancel);
        let end_ns = now_ns();
        let status = match &result {
            Ok(_) => Status::Ok,
            Err(LlmError::Cancelled) => Status::Cancelled,
            Err(_) => Status::Failed,
        };
        BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.spans.push(Span {
                name: "backend",
                start_ns,
                end_ns,
                id: 0,
                parent: cause(),
                status,
            });
            if let Ok(response) = &result {
                if CAPTURED.fetch_add(1, Ordering::Relaxed) < CAPTURE_CAP {
                    buf.captures.push((request.clone(), response.clone()));
                }
            }
        });
        result
    }
}

/// A `LanguageModel` that records one span per call: the simulator's own
/// CPU, which a real deployment would not spend.
pub struct TracedModel {
    inner: Arc<dyn LanguageModel>,
}

impl TracedModel {
    pub fn wrap(inner: Arc<dyn LanguageModel>) -> Arc<dyn LanguageModel> {
        Arc::new(TracedModel { inner })
    }
}

impl LanguageModel for TracedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        if !enabled() {
            return self.inner.complete(request);
        }
        let start_ns = now_ns();
        let result = self.inner.complete(request);
        record(Span {
            name: "model",
            start_ns,
            end_ns: now_ns(),
            id: 0,
            parent: cause(),
            status: if result.is_ok() {
                Status::Ok
            } else {
                Status::Failed
            },
        });
        result
    }
}
