//! Probes: layers that are concrete types with no seam to wrap are measured
//! by replaying what the traced backends saw, single-threaded, into each
//! layer's public functions and timing the calls. One probe per file, so a
//! later change to one layer's API touches one small file here.
//!
//! A probe yields a unit cost (nanoseconds per call); `layers` multiplies it
//! by the count observed in the traced ops to attribute CPU to the layer.

pub mod blocking;
pub mod budget;
pub mod client;
pub mod engine;
pub mod extract;
pub mod feed;
pub mod hash;
pub mod lease;
pub mod route;
pub mod store;
pub mod template;
pub mod tokenizer;

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt_oracle::backend::{Backend, CancelToken};
use crowdprompt_oracle::pricing::Pricing;
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt_oracle::LlmError;

use crate::trace::Capture;
use crate::workloads::ProbeCtx;

/// What every probe gets.
pub struct ProbeInput<'a> {
    /// Request/response pairs the traced backends saw (never empty).
    pub captures: &'a [Capture],
    pub ctx: &'a ProbeCtx<'a>,
    /// A directory the probes may create files in.
    pub scratch: &'a Path,
}

/// Unit costs and levels the probes measured.
#[derive(Debug, Default)]
pub struct Probed {
    pub render_ns: f64,
    pub fingerprint_ns: f64,
    pub count_ns: f64,
    pub parse_ns: f64,
    pub admit_record_ns: f64,
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub store: store::StoreCosts,
    pub select_ns: f64,
    pub push_claim_ns: f64,
    pub lease_cycle_ns: f64,
    pub blocking_build_s: f64,
    pub blocking_neighbors_s: f64,
    pub dispatch_ns: f64,
}

pub fn run_all(input: &ProbeInput<'_>) -> Probed {
    let (blocking_build_s, blocking_neighbors_s) = blocking::probe(input);
    let (hit_ns, miss_ns) = client::probe(input);
    Probed {
        render_ns: template::probe(input),
        fingerprint_ns: hash::probe(input),
        count_ns: tokenizer::probe(input),
        parse_ns: extract::probe(input),
        admit_record_ns: budget::probe(input),
        hit_ns,
        miss_ns,
        store: store::probe(input),
        select_ns: route::probe(input),
        push_claim_ns: feed::probe(),
        lease_cycle_ns: lease::probe(),
        blocking_build_s,
        blocking_neighbors_s,
        dispatch_ns: engine::probe(input),
    }
}

/// Mean nanoseconds per call of `f` over `items`: whole passes, repeated
/// until the measurement is long enough to trust the clock.
pub fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    const LONG_ENOUGH: Duration = Duration::from_millis(20);
    const MAX_PASSES: usize = 50;
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0;
    while passes < MAX_PASSES && (passes == 0 || started.elapsed() < LONG_ENOUGH) {
        for item in items {
            f(std::hint::black_box(item));
        }
        passes += 1;
    }
    started.elapsed().as_nanos() as f64 / (passes * items.len()) as f64
}

/// Answers a request with the response captured for its fingerprint: a
/// model and a backend that cost a map lookup, so a layer stacked on it is
/// timed alone.
pub struct Replay {
    by_fingerprint: HashMap<u64, CompletionResponse>,
    id: String,
}

impl Replay {
    pub fn new(id: &str, captures: &[Capture]) -> Arc<Replay> {
        Arc::new(Replay {
            by_fingerprint: captures
                .iter()
                .map(|(request, response)| (request.fingerprint(), response.clone()))
                .collect(),
            id: id.to_owned(),
        })
    }

    fn answer(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        self.by_fingerprint
            .get(&request.fingerprint())
            .cloned()
            .ok_or_else(|| LlmError::InvalidRequest("request was never captured".into()))
    }
}

impl LanguageModel for Replay {
    fn name(&self) -> &str {
        "replay"
    }
    fn context_window(&self) -> u32 {
        u32::MAX
    }
    fn pricing(&self) -> Pricing {
        Pricing::free()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        self.answer(request)
    }
}

impl Backend for Replay {
    fn id(&self) -> &str {
        &self.id
    }
    fn tier(&self) -> &str {
        "replay"
    }
    fn context_window(&self) -> u32 {
        u32::MAX
    }
    fn pricing(&self) -> Pricing {
        Pricing::free()
    }
    fn slots(&self) -> usize {
        0
    }
    fn complete(
        &self,
        request: &CompletionRequest,
        _cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        self.answer(request)
    }
}
