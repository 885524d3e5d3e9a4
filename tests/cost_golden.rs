//! Golden for counted work: the exact number of heap allocations, and the
//! bytes they asked for, that a few fixed steps of the stack cost.
//!
//! Wall clock on a shared two-core host cannot tell a few percent apart;
//! an allocation count repeats exactly, in debug and release codegen
//! alike. Every step runs on this test's thread (the client has no router
//! threads, and the self-join and the query nodes are asked at one
//! worker), after a warm-up that leaves the process-wide one-time state
//! (the model-name table, the simulator's answer pools) built, so the
//! counts are the step's own.
//!
//! A failure means a step allocates differently. If the change meant to
//! move it, re-record the constant in the same commit and say why beside
//! it; otherwise the change costs what it did not claim.
//!
//! The counting allocator is this binary's `#[global_allocator]`, and it
//! counts only what the thread inside [`counted`] allocates: the test
//! harness's own threads allocate while a test starts, and on a busy host
//! that overlapped the first step. The binary still holds this one test.
//!
//! The counts are those of the default build. Under `--cfg
//! lock_diagnostics` every lock acquire runs the shim's detectors, which
//! allocate (a copy of the held-lock stack, a registry entry per new lock),
//! so that build compiles this file empty.
//!
//! The constants were recorded with Rust 1.95. They follow std's growth
//! and `format!` capacity choices, so another toolchain may read other
//! counts; re-record there, do not widen the comparison.
#![cfg(not(lock_diagnostics))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowdprompt::core::{Corpus, Engine, RunSpec, ServerBuilder, Session, TenantSpec};
use crowdprompt::embed::{BruteForceIndex, Metric, Queries, VectorStore};
use crowdprompt::oracle::{
    CompletionRequest, CompletionResponse, FinishReason, LlmClient, ModelProfile, Pricing,
    ResponseStore, SimulatedLlm, StoreConfig, TaskDescriptor, Usage, WorldModel,
};
use crowdprompt::prelude::{FilterStrategy, ImputeStrategy, Query};

/// `(allocations, bytes)` of a `CheckPredicate` miss through `LlmClient`.
/// Re-recorded from `(13, 424)` when `WorldModel::flag` stopped building
/// an owned key: one allocation of the 8-byte predicate name fewer.
/// Re-recorded from `(12, 416)` when the shards began keeping answers as
/// records in blocks: the miss is the first answer in its shard, which
/// allocates that shard's block lists, first text block (256 B), first
/// record block (eight records, 256 B) and list of schedules, five
/// allocations and 768 bytes once a shard.
/// Re-recorded from `(17, 1_184)` when a shard began keeping each text
/// once: its table of recent texts, 256 slots of 8 bytes, is one more
/// allocation of 2 048 bytes with the shard's first blocks.
const CHECK_MISS: (u64, u64) = (18, 3_232);
/// The same request asked again: an in-memory cache hit.
const CHECK_HIT: (u64, u64) = (1, 3);
/// `(allocations, bytes)` of an `Impute` miss through `LlmClient`.
/// Re-recorded from `(16, 610)` when `WorldModel::attr` stopped building
/// an owned key: one allocation of the 4-byte attribute name fewer.
/// Re-recorded from `(15, 606)` with [`CHECK_MISS`], for the same
/// shard's first blocks, and from `(20, 1_374)` with it for the table of
/// recent texts.
const IMPUTE_MISS: (u64, u64) = (21, 3_422);
/// The same request asked again: an in-memory cache hit.
const IMPUTE_HIT: (u64, u64) = (1, 43);
/// `(allocations, bytes)` of the 4 000-row self-join, `k = 2`, one worker.
/// The count follows the rows and `k`, not the width: 64 dimensions keep
/// the debug run short and read the same as 256.
/// Re-recorded from `(4_505, 628_008)` when `triangle_share` kept a tile's
/// rows and norms in two fixed arrays: 250 tiles' two `Vec`s fewer; what
/// is left is one ranking heap per row and five lists.
const SELF_JOIN: (u64, u64) = (4_005, 548_008);
/// `(allocations, bytes)` of a packed filter node over 256 items at width
/// 8 and one worker, answered from the client's cache by the same node's
/// cold run before it.
/// Re-recorded from `(1_537, 126_247)` when the packed round began building
/// each pack's tasks where it renders the pack: the operator's list of 256
/// tasks, and every task's clone into its pack, went.
/// Re-recorded from `(1_283, 108_687)` when a packed answer list that does
/// not parse stopped being copied into an error nobody reads: the round's
/// two unparseable packs' response copies, 102 bytes, went.
/// Re-recorded from `(1_281, 108_585)` when the round began reading each
/// answer as a `bool` off a line borrowed from its pack's response: every
/// item's owned line, its lowercase copy and its list of words went, three
/// allocations an item.
/// Re-recorded from `(496, 96_961)` when a packed round began settling its
/// cache hits where it renders them: a warm round queues no job, so each
/// pump round's list of queued slots and its job handles went.
/// Re-recorded from `(483, 94_737)` when a round began probing each pack by
/// its task key before rendering it: a hit's prompt is never rendered, so
/// each settled pack's prompt went, one allocation a pack at every
/// bisection level.
const FILTER_ROUND: (u64, u64) = (447, 76_881);
/// The same shape as a keep-label node over three labels.
/// Re-recorded from `(3_067, 159_578)` with [`FILTER_ROUND`]: a `Classify`
/// task is four allocations (its label list and three labels), so the
/// saving is four times the filter's. Re-recorded again from
/// `(2_048, 120_040)` with it: one unparseable pack's copy, 81 bytes.
/// Re-recorded from `(2_047, 119_959)` when the round began reading each
/// answer as the label's index off a borrowed line: every item's owned
/// line, the copy of its extracted value and the clone of its label went.
/// Re-recorded from `(1_272, 118_466)` with [`FILTER_ROUND`], for the same
/// queueing. Re-recorded from `(1_259, 116_290)` with [`FILTER_ROUND`],
/// for the same prompts.
const KEEP_LABEL_ROUND: (u64, u64) = (1_225, 99_426);
/// The same shape as an impute node, `LlmOnly` with two shots, over the
/// same 256 records labelled with their cities (each record's examples
/// are its two nearest other records): the pool build, the neighbour
/// query, the packed round with its examples, and settling.
/// Re-recorded from `(1_033, 200_142)`, the node less its `KnnOnly
/// { k: 2 }` twin, when the blocking index began splitting its pool build
/// and neighbour query over the engine's threads rather than the
/// machine's cores: at one worker the whole node reads the same on any
/// machine, so the twin, which read 1 096 allocations on two cores and
/// 1 594 on one while the blocking layer took every core, is no longer
/// subtracted.
/// Re-recorded from `(2_352, 609_375)` with [`FILTER_ROUND`], for the same
/// queueing, and from `(2_343, 607_415)` when the embedder began
/// lowercasing short ASCII text in a stack buffer: the pool build's 256
/// lowercase copies of the records went.
/// Re-recorded from `(2_087, 600_503)` with [`FILTER_ROUND`], for the same
/// prompts (an impute pack's, with its examples, grows past its first
/// block, so most are two allocations).
const IMPUTE_ROUND: (u64, u64) = (1_991, 486_327);
/// `(allocations, bytes)` of `Session::blocking_index` over the same 256
/// records at parallelism 1: their texts embedded into one flat store and
/// the exact index over it.
const BLOCKING_BUILD: (u64, u64) = (5, 278_032);
/// `(allocations, bytes)` of sixteen `CheckPredicate` tasks through
/// `Engine::run_outcome` at one worker, each answered from the client's
/// cache by the same run cold before it.
/// Re-recorded from `(65, 18_768)` when a per-item run became a round of
/// width one, whose hits are settled where they are rendered: the run
/// queues no job, so its list of queued slots, its job handles and the
/// worker's claim list went, less the round's own lists (its packs as
/// ranges, the packs it keeps, their parsed answers); the calls are
/// collected once, straight into the slots the round takes them from.
/// Re-recorded from `(61, 18_568)` when a round began probing each call by
/// its task key before rendering it: the sixteen prompts went, and so did
/// the round's list of parsed answers, which a round of width one no
/// longer builds (one `None` a call, 384 bytes); the round's list of
/// settled calls grew by the request's task key, 16 bytes a call.
const RUN_OUTCOME_WARM: (u64, u64) = (44, 10_248);
/// The same sixteen tasks through `Server::submit` for one tenant of a
/// server over the same client.
/// Re-recorded from `(35, 12_716)` when a request began carrying its task
/// key: the submit still renders every task before any cache is asked, and
/// its list of rendered calls is 16 bytes a call larger.
const SUBMIT_WARM: (u64, u64) = (35, 12_972);
/// `(allocations, bytes)` of one `ResponseStore::open` of a fresh copy of
/// `tests/fixtures/store-v2.log` (six records): the lock's path, the
/// file's contents, each record's text and `Arc`, the index and the
/// store's path.
/// Re-recorded from `(18, 2_534)` when the open began presizing its index
/// from the file's length: the index's first table, grown once, went.
const STORE_OPEN_FIXTURE: (u64, u64) = (17, 2_450);
/// The same of a 256-record store of packed yes/no answers, eight to a
/// record with their newlines escaped, the shape `pipeline_warm` reopens.
/// Re-recorded from `(524, 99_109)` with [`STORE_OPEN_FIXTURE`]: the
/// index's seven smaller tables, grown from four buckets to 512, went.
const STORE_OPEN_PACKED: (u64, u64) = (517, 90_361);

/// [`System`], counting every allocation a counting thread makes and the
/// bytes it asked for. A `realloc` counts as one allocation of its new
/// size.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const`-initialised
    /// and without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees on `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` that `step` cost on this thread, and its result.
fn counted<T>(step: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (a0, b0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.set(true);
    let out = step();
    COUNTING.set(false);
    let cost = (
        ALLOCATIONS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    );
    (cost, out)
}

fn world() -> (WorldModel, Vec<crowdprompt::oracle::ItemId>) {
    let mut w = WorldModel::new();
    let items = (0..8)
        .map(|i| {
            let id = w.add_item(format!("record number {i} of the catalog"));
            w.set_flag(id, "in_stock", i % 3 == 0);
            w.set_attr(id, "city", ["berkeley", "oakland", "alameda"][i % 3]);
            id
        })
        .collect();
    (w, items)
}

fn check(item: crowdprompt::oracle::ItemId) -> CompletionRequest {
    CompletionRequest::new(
        format!("Is record {} in stock? Yes or No?\nAnswer:", item.0),
        TaskDescriptor::CheckPredicate {
            item,
            predicate: "in_stock".to_owned(),
        },
    )
}

fn impute(item: crowdprompt::oracle::ItemId) -> CompletionRequest {
    CompletionRequest::new(
        format!("Record {}. What is its city?\nAnswer:", item.0),
        TaskDescriptor::Impute {
            item,
            attribute: "city".to_owned(),
            examples: Vec::new(),
        },
    )
}

/// An engine at pack width 8 and one worker over 256 catalog records, each
/// with an `in_stock` flag and a `city`; and the records.
fn round_engine() -> (Engine, Vec<crowdprompt::oracle::ItemId>) {
    let mut w = WorldModel::new();
    let items: Vec<_> = (0..256)
        .map(|i| {
            let id = w.add_item(format!("catalog record {i:03} vendor {}", i % 7));
            w.set_flag(id, "in_stock", i % 3 == 0);
            w.set_attr(id, "city", ["berkeley", "oakland", "alameda"][i % 3]);
            id
        })
        .collect();
    let corpus = Corpus::from_world(&w, &items);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w), 5);
    let engine = Engine::new(Arc::new(LlmClient::new(Arc::new(llm))), corpus)
        .with_pack_width(8)
        .with_parallelism(1);
    (engine, items)
}

/// Deterministic rows in `[-1, 1)` (SplitMix64), flat row-major: the
/// corpus `examples/selfjoin` times.
fn corpus(rows: usize, dims: usize) -> Vec<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..rows * dims)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Scratch paths for the store opens, all of one byte length: an open
/// copies its path (and its lock's), so a longer temp directory or process
/// id would read as more bytes.
struct StorePaths {
    dir: PathBuf,
    made: usize,
}

impl StorePaths {
    /// The length every path has.
    const LEN: usize = 160;

    fn new() -> StorePaths {
        let dir = std::env::temp_dir().join(format!("crowdprompt-cost-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the scratch directory is made");
        StorePaths { dir, made: 0 }
    }

    /// A path no store has used, [`StorePaths::LEN`] bytes long.
    fn fresh(&mut self) -> PathBuf {
        self.made += 1;
        let name = format!("store-{:04}-", self.made);
        let used = self.dir.as_os_str().len() + 1 + name.len() + ".log".len();
        assert!(used <= Self::LEN, "temp directory {:?} too long", self.dir);
        let path = self
            .dir
            .join(format!("{name}{}.log", "x".repeat(Self::LEN - used)));
        assert_eq!(path.as_os_str().len(), Self::LEN);
        path
    }

    /// A fresh copy of `source`.
    fn copy_of(&mut self, source: &Path) -> PathBuf {
        let path = self.fresh();
        std::fs::copy(source, &path).expect("the store file copies");
        path
    }
}

impl Drop for StorePaths {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A store of 256 packed yes/no answers, eight to a record, as a run of
/// packed filter rounds leaves it.
fn packed_store(path: &Path) {
    let store = ResponseStore::open(path, StoreConfig::default()).expect("the store opens");
    for i in 0..256u64 {
        let text = (1..=8)
            .map(|k| format!("{k}. {}", if (i * 8 + k) % 3 == 0 { "Yes" } else { "No" }))
            .collect::<Vec<_>>()
            .join("\n");
        let response = CompletionResponse {
            text,
            usage: Usage {
                prompt_tokens: 180 + (i % 40) as u32,
                completion_tokens: 24,
            },
            finish_reason: FinishReason::Stop,
            model: "sim-gpt-3.5-turbo".into(),
            cached: false,
            pricing: Pricing::new(0.0015, 0.002),
            confidence: Some(0.5 + (i % 50) as f64 / 100.0),
        };
        let fingerprint = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert!(store.record(fingerprint, &Arc::new(response)));
    }
}

/// `(allocations, bytes)` of opening a fresh copy of `source` as a store,
/// and how many answers it serves.
fn open_cost(paths: &mut StorePaths, source: &Path) -> ((u64, u64), usize) {
    let path = paths.copy_of(source);
    let (cost, store) =
        counted(|| ResponseStore::open(&path, StoreConfig::default()).expect("the store opens"));
    (cost, store.len())
}

#[test]
fn each_step_allocates_what_it_was_recorded_to() {
    let (w, items) = world();
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w), 5);
    let client = LlmClient::new(Arc::new(llm));
    // Warm-up: one miss and one hit of each kind on other items.
    for request in [check(items[0]), impute(items[0])] {
        client.complete(&request).expect("a simulated miss answers");
        client.complete(&request).expect("a cached request answers");
    }

    let mut got = Vec::new();
    for (name, request) in [("check", check(items[1])), ("impute", impute(items[1]))] {
        let calls = client.stats().calls();
        let (miss, _) = counted(|| client.complete(&request).expect("a simulated miss answers"));
        let (hit, _) = counted(|| client.complete(&request).expect("a cached request answers"));
        assert_eq!(client.stats().calls(), calls + 1, "{name}: one paid call");
        got.push((format!("{name} miss"), miss));
        got.push((format!("{name} hit"), hit));
    }

    let (rows, dims) = (4_000, 64);
    let index =
        BruteForceIndex::from_store(VectorStore::from_flat(corpus(rows, dims), dims), Metric::L2);
    let every_row: Vec<usize> = (0..rows).collect();
    let (join, answers) = counted(|| index.search_with_workers(Queries::Rows(&every_row), 2, 1));
    assert_eq!(answers.len(), rows);
    got.push(("self-join".to_owned(), join));

    let (engine, items) = round_engine();
    let cities = ["berkeley", "oakland", "alameda"].map(str::to_owned);
    let labels = cities.to_vec();
    let pool: Vec<_> = items
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, cities[i % 3].clone()))
        .collect();
    let impute = |strategy| Query::over(&items).impute_with("city", pool.clone(), strategy);
    // Each node with how many items it answers: the items it keeps (the
    // simulator errs on a few), or one value per record.
    let nodes = [
        (
            "filter round",
            Query::over(&items).filter_with("in_stock", FilterStrategy::Single),
            97,
        ),
        (
            "keep-label round",
            Query::over(&items).keep_label(labels, "berkeley"),
            96,
        ),
        (
            "impute round",
            impute(ImputeStrategy::LlmOnly { shots: 2 }),
            256,
        ),
    ];
    let mut warm_costs = Vec::new();
    for (name, query, answered) in nodes {
        let plan = query.plan_on(&engine).expect("the node plans");
        plan.execute_on(&engine).expect("the cold node runs");
        let calls = engine.client().ledger().calls();
        let (warm, run) = counted(|| plan.execute_on(&engine).expect("the warm node runs"));
        let output = &run.output;
        let len = output
            .items()
            .map(<[_]>::len)
            .or(output.values().map(<[_]>::len));
        assert_eq!(len, Some(answered), "{name}");
        assert_eq!(
            engine.client().ledger().calls(),
            calls,
            "{name}: no paid call"
        );
        warm_costs.push((name.to_owned(), warm));
    }
    got.extend(warm_costs);

    let session = Session::builder()
        .client(Arc::clone(engine.client()))
        .corpus(engine.corpus().clone())
        .parallelism(1)
        .build();
    let (build, index) = counted(|| session.blocking_index(&items).expect("the index builds"));
    assert_eq!(index.len(), items.len());
    got.push(("blocking build".to_owned(), build));

    // Sixteen per-item tasks the engine's client answers from its cache:
    // once through the engine, once through the serve door.
    let tasks: Vec<TaskDescriptor> = items[..16]
        .iter()
        .map(|&item| TaskDescriptor::CheckPredicate {
            item,
            predicate: "in_stock".to_owned(),
        })
        .collect();
    let per_item =
        Engine::new(Arc::clone(engine.client()), engine.corpus().clone()).with_parallelism(1);
    let outcome = per_item
        .run_outcome(RunSpec::tasks(tasks.clone()))
        .expect("the cold run answers");
    assert!(outcome.is_complete());
    let calls = engine.client().ledger().calls();
    let spec = RunSpec::tasks(tasks.clone());
    let (warm, outcome) = counted(|| per_item.run_outcome(spec).expect("the warm run answers"));
    assert!(outcome.is_complete() && outcome.responses.iter().all(|r| r.cached));
    got.push(("run_outcome warm".to_owned(), warm));
    let server = ServerBuilder::new()
        .engine(per_item)
        .tenant(TenantSpec::new("t"))
        .try_build()
        .expect("the server builds");
    let (warm, run) = counted(|| server.submit("t", tasks).expect("the submit is admitted"));
    assert!(run.is_complete());
    assert_eq!(engine.client().ledger().calls(), calls, "no paid call");
    got.push(("submit warm".to_owned(), warm));

    // Each open is of a fresh copy, after one warm-up open that interns the
    // model name.
    let mut paths = StorePaths::new();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v2.log");
    let packed = paths.fresh();
    packed_store(&packed);
    open_cost(&mut paths, &fixture);
    for (name, source, entries) in [("fixture open", &fixture, 6), ("packed open", &packed, 256)] {
        let (cost, len) = open_cost(&mut paths, source);
        assert_eq!(len, entries, "{name}");
        got.push((format!("store {name}"), cost));
    }

    let want = [
        CHECK_MISS,
        CHECK_HIT,
        IMPUTE_MISS,
        IMPUTE_HIT,
        SELF_JOIN,
        FILTER_ROUND,
        KEEP_LABEL_ROUND,
        IMPUTE_ROUND,
        BLOCKING_BUILD,
        RUN_OUTCOME_WARM,
        SUBMIT_WARM,
        STORE_OPEN_FIXTURE,
        STORE_OPEN_PACKED,
    ];
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, (n, b))| format!("{name}: ({n}, {b})"))
        .collect();
    let got: Vec<(u64, u64)> = got.into_iter().map(|(_, cost)| cost).collect();
    assert_eq!(got, want, "got:\n{}", rendered.join("\n"));
}
