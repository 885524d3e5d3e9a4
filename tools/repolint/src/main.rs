//! Repo-invariant lint driver.
//!
//! A deny-by-default source scanner for invariants that rustc and clippy
//! cannot express, because they are *repo policies*, not language rules:
//!
//! | rule          | invariant                                                        |
//! |---------------|------------------------------------------------------------------|
//! | `sync-facade` | no direct `std::sync` lock types outside the `parking_lot` shim  |
//! | `no-unwrap`   | no `.unwrap()` / `.expect(..)` in non-test library code          |
//! | `clock`       | no `Instant::now` / `SystemTime::now` outside approved sites     |
//! | `money-eq`    | money-valued f64s compare via bit-pattern helpers, never `==`    |
//! | `one-baseline`| no `BENCH_*.json` outside `benchmark/`; no shim knob that writes one|
//! | `no-deprecated`| no `#[deprecated]` items and no `allow(deprecated)`, tests included|
//! | `one-pump`    | `crates/core/src` starts threads in `exec.rs` (pump, share helper) and nowhere else|
//! | `one-retry`   | `crates/oracle/src` reads `.max_retries` in `route.rs`'s loop and nowhere else|
//! | `one-engine`  | `crates/core/src` calls `Engine::new` in `session.rs` (and `exec.rs`) and nowhere else|
//! | `one-judge`   | `crates/core/src/ops` calls `run_many` in `judge.rs`'s strict step and nowhere else|
//! | `one-bill`    | `plan/estimate.rs` names no `*Strategy::` variant; `crates/core/src/ops` defines no `estimated_calls`/`packed_calls`|
//! | `one-count`   | `crates/core/src/exec.rs` calls `count_tokens` in `render_and_estimate` and nowhere else; its `run_packs` renders no call before it probes one|
//! | `no-format-push`| no `push_str(&format!(..))` in `crates/core/src/template.rs`: a prompt is written into one buffer|
//! | `one-layout`  | no nested `Vec<Vec<f32>>` / `[Vec<f32>]` in library code under `crates/{embed,core,oracle}/src`; `crates/embed/src` defines no `fn nearest*`|
//! | `no-spawn-per-call`| `crates/oracle/src/route.rs` starts threads in `start_helper` and `launch_twin` and nowhere else|
//! | `one-fingerprint`| `crates/oracle/src/client.rs` calls `.fingerprint()` in `probe` and nowhere else; `crates/core/src/{exec,serve}.rs` call it only in `exec.rs`'s `task_key` (the task's), which is also the one place `crates/core/src` reads a text's fingerprint (`.text_key(..)`)|
//! | `one-settle`  | `crates/core/src` calls `.probe(..)` in `exec.rs`'s `settle_hit` and `.probe_key(..)` in its `execute`, and nowhere else|
//! | `pub-has-caller`| a `pub` item under `crates/{core,embed,oracle,metrics,data}/src` is named by non-test code outside its crate's `src/` (no `tests/` tree, no `#[cfg(test)]` item), or by a doc-test|
//! | `one-door`    | `crates/core/src/session.rs` names no `ops::` function; no file in `crates/core/src/ops` declares a top-level `pub fn`|
//! | `one-plan-ir` | `crates/core/src` declares no enum with a `Filter` variant but `PhysicalNode`|
//! | `answers-not-prompts`| `crates/oracle/src/store.rs` names no `.prompt`; no file under `crates/oracle/src` names `crowdprompt_embed`|
//!
//! Pure std, no crates.io: scanning is lexical but *mask-accurate* — a small
//! lexer blanks out comments, strings, and char literals first, so a banned
//! token inside a doc comment or a format string never fires, and a brace
//! tracker excludes `#[cfg(test)]` items and `tests/`/`benches/` trees from
//! the library-only rules.
//!
//! Every rule is deny-by-default. The only escape hatch is an inline pragma
//! on the same or the preceding line, which is intentionally greppable:
//!
//! ```text
//! let started = Instant::now(); // lint: allow(clock) — bench harness timing
//! ```
//!
//! Exit status: 0 when clean, 1 on any finding, 2 on I/O errors.
//!
//! `repolint --counts [root]` lints nothing and prints, per library crate
//! (the five of `pub-has-caller`), its non-test lines, the code lines among
//! them and its `pub` declarations — the size numbers a change reports.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Lock types whose `std::sync` spelling is banned outside the shim facade.
const FACADE_LOCKS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Vendored third-party shims: stand-ins for crates.io code, not ours to
/// police. The `parking_lot` shim is deliberately absent — it is first-party
/// and subject to every rule except `sync-facade` (it IS the facade).
const VENDORED: &[&str] = &[
    "crates/shims/rand/",
    "crates/shims/rand_chacha/",
    "crates/shims/proptest/",
    "crates/shims/criterion/",
];

/// The paths allowed to name `std::sync` lock types: the facade itself, and
/// the interleaving explorer — a *scheduler* that implements model-checked
/// locks on top of raw primitives, necessarily below the facade.
const FACADE_PATHS: &[&str] = &["crates/shims/parking_lot/", "crates/shims/interleave/"];

/// Stand-ins for published crates may mirror an upstream deprecation;
/// first-party code deletes the old path instead of keeping a shim.
const DEPRECATED_EXEMPT: &str = "crates/shims/";

/// The one file under [`ONE_PUMP_SCOPE`] allowed to start threads: the
/// engine's pump is the crate's only worker loop, and every other door
/// (`core::serve` included) runs on it.
const ONE_PUMP_SCOPE: &str = "crates/core/src/";
const ONE_PUMP_HOME: &str = "crates/core/src/exec.rs";

/// The one file under [`ONE_RETRY_SCOPE`] allowed to read a retry
/// allowance ([`ONE_RETRY_FIELD`]): the router's loop is the crate's only
/// transport retry loop, and every client dispatches through it. Any second
/// loop has to consume the allowance, so the read is what gives it away.
const ONE_RETRY_SCOPE: &str = "crates/oracle/src/";
const ONE_RETRY_HOME: &str = "crates/oracle/src/route.rs";
const ONE_RETRY_FIELD: &str = "max_retries";

/// The files under [`ONE_ENGINE_SCOPE`] allowed to construct an engine: the
/// type's own module and the session builder. A strategy that builds a
/// private engine runs outside its caller's budget, failure policy, trace
/// and leases; it borrows the caller's engine instead.
const ONE_ENGINE_SCOPE: &str = "crates/core/src/";
const ONE_ENGINE_HOMES: &[&str] = &["crates/core/src/exec.rs", "crates/core/src/session.rs"];

/// The one file under [`ONE_JUDGE_SCOPE`] allowed a strict batch dispatch:
/// the ranking and matching operators ask, meter and parse through
/// `ops::judge` (votes go through `Poll::round` on `run_outcome`; the two
/// list prompts are single `Engine::run` calls).
const ONE_JUDGE_SCOPE: &str = "crates/core/src/ops/";
const ONE_JUDGE_HOME: &str = "crates/core/src/ops/judge.rs";

/// What a strategy asks is stated once, as its `bill(..)` beside its run
/// code under [`ONE_BILL_OPS`]; the estimator in [`ONE_BILL_ESTIMATOR`]
/// prices and folds bill lines and knows no strategy. A strategy variant
/// named in the estimator, or a call-count function beside a bill, is the
/// second copy of a cost formula coming back.
const ONE_BILL_ESTIMATOR: &str = "crates/core/src/plan/estimate.rs";
const ONE_BILL_OPS: &str = "crates/core/src/ops/";
const ONE_BILL_COUNTERS: &[&str] = &["estimated_calls", "packed_calls"];

/// Vectors have one layout — the flat `VectorStore`, row-major `f32`s — and
/// an index one query method, `search(Queries, k)`. A nested-rows spelling in
/// a library signature under [`ONE_LAYOUT_SCOPES`] is the second layout
/// coming back (the tests' `VectorStore::from_rows` fixture builder is
/// `#[cfg(test)]`); a `fn nearest*` under
/// [`ONE_LAYOUT_INDEXES`], tests included, is a second way to ask an index.
const ONE_LAYOUT_SCOPES: &[&str] = &[
    "crates/embed/src/",
    "crates/core/src/",
    "crates/oracle/src/",
];
const ONE_LAYOUT_INDEXES: &str = "crates/embed/src/";
const ONE_LAYOUT_NESTED: &[&str] = &["Vec<Vec<f32>>", "[Vec<f32>]"];

/// A prompt's tokens are counted once, where it is rendered: the one
/// function in [`ONE_COUNT_HOME`] allowed to call `count_tokens` carries the
/// count on the work item, and whoever needs it later (context fitting)
/// reads it there instead of tokenizing the prompt again. And only a miss
/// is rendered: in the round loop ([`ONE_COUNT_ROUND`]) every call of a
/// render ([`ONE_COUNT_RENDERS`]) follows the round's probe
/// (`.settle_hit(..)`), so a hit is settled before any prompt exists.
const ONE_COUNT_HOME: &str = "crates/core/src/exec.rs";
const ONE_COUNT_FN: &str = "render_and_estimate";
const ONE_COUNT_ROUND: &str = "run_packs";
const ONE_COUNT_RENDERS: &[&str] = &["render_and_estimate", "render_work", "render_call"];

/// A prompt is written line by line into one `String` with `write!`; a
/// `push_str(&format!(..))` in the renderer allocates a temporary per line.
const NO_FORMAT_PUSH_HOME: &str = "crates/core/src/template.rs";

/// A dispatch runs on its caller's thread. The two functions in
/// [`NO_SPAWN_HOME`] allowed to start one are the hedge helper's start (one
/// thread per router, on its first hedged dispatch) and the twin launch (one
/// per straggler, after its deadline has passed); a thread started anywhere
/// else in the router is a thread per call coming back.
const NO_SPAWN_HOME: &str = "crates/oracle/src/route.rs";
const NO_SPAWN_FNS: &[&str] = &["start_helper", "launch_twin"];

/// A request in flight is hashed once: the client's probe, the one function
/// in [`ONE_FINGERPRINT_HOME`] allowed to call `.fingerprint()`, returns the
/// hit or the key, and the key rides with the work into the call. A second
/// call in the client, or any in the dispatcher and the serve door
/// ([`ONE_FINGERPRINT_CALLERS`]) but the task's own fingerprint in the one
/// key site ([`ONE_KEY_FN`]), hashes the same request again.
const ONE_FINGERPRINT_HOME: &str = "crates/oracle/src/client.rs";
const ONE_FINGERPRINT_FN: &str = "probe";
const ONE_FINGERPRINT_CALLERS: &[&str] = &["crates/core/src/exec.rs", "crates/core/src/serve.rs"];
/// The content half of an engine's request key, its task key, is computed
/// in one function ([`ONE_KEY_FN`] in [`ONE_KEY_HOME`]): only a task key
/// reads an item text's fingerprint, so a `.text_key(..)` anywhere else in
/// the crate ([`ONE_KEY_SCOPE`]) is a second key site, whose keys could
/// miss an input the first folds in and serve one prompt's answer for
/// another.
const ONE_KEY_SCOPE: &str = "crates/core/src/";
const ONE_KEY_HOME: &str = "crates/core/src/exec.rs";
const ONE_KEY_FN: &str = "task_key";

/// A hit found before its call is queued is settled by one rule: the
/// engine's settle helper probes by the call's task key — on the round
/// loop, before its prompt is rendered — then bills and traces the hit or
/// hands back the key a miss is dispatched under, and the worker body only
/// re-checks the key a queued call carries. A probe anywhere else in the crate is a second settle
/// rule, whose hits another path would bill, trace or admit differently.
const ONE_SETTLE_SCOPE: &str = "crates/core/src/";
const ONE_SETTLE_HOME: &str = "crates/core/src/exec.rs";
/// Each probe with the one function of [`ONE_SETTLE_HOME`] it may be
/// called in.
const ONE_SETTLE_CALLS: &[(&str, &str)] = &[("probe", "settle_hit"), ("probe_key", "execute")];

/// An operator runs through `Query` and nothing else: the session module
/// ([`ONE_DOOR_SESSION`]) names no function of an operator module, and no
/// file under [`ONE_DOOR_OPS`] declares a top-level `pub fn` (strategy types
/// and their methods stay public). `pub-has-caller` cannot see a second
/// door that non-test code outside the crate calls.
const ONE_DOOR_SESSION: &str = "crates/core/src/session.rs";
const ONE_DOOR_OPS: &str = "crates/core/src/ops/";

/// A query is a chain of physical nodes: `crates/core/src` declares one
/// operator enum, [`ONE_PLAN_IR_NODE`], and a second enum with a
/// [`ONE_PLAN_IR_VARIANT`] variant is a second IR the planner would copy
/// into the first arm by arm.
const ONE_PLAN_IR_SCOPE: &str = "crates/core/src/";
const ONE_PLAN_IR_NODE: &str = "PhysicalNode";
const ONE_PLAN_IR_VARIANT: &str = "Filter";

/// A stored record is an answer keyed by its request's fingerprint and
/// nothing else. A `.prompt` read in [`ANSWERS_HOME`] is a prompt about to be
/// written to disk or embedded again, and [`ANSWERS_EMBEDDER`] named under
/// [`ANSWERS_SCOPE`] is the embedder a prompt-similarity tier needs.
const ANSWERS_HOME: &str = "crates/oracle/src/store.rs";
const ANSWERS_FIELD: &str = "prompt";
const ANSWERS_SCOPE: &str = "crates/oracle/src/";
const ANSWERS_EMBEDDER: &str = "crowdprompt_embed";

/// The library crates whose public items must each be named by non-test
/// code outside the crate's own `src/` (another crate, an example, a bench,
/// `benchmark/`, the facade) or by a doc-test; a file under a `tests/` tree
/// and a `#[cfg(test)]` item are no callers. A `pub` item nothing
/// outside names is crate-private in all but spelling, and every one is
/// surface the next reader must account for. A type a kept public signature
/// exposes cannot be demoted (rustc's `private_interfaces`), so its pragma
/// must say `exposed by `Item``, and `Item` must itself have a caller.
const PUB_CALLER_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/embed/src/",
    "crates/oracle/src/",
    "crates/metrics/src/",
    "crates/data/src/",
];
const PUB_CALLER_EXPOSED: &str = "exposed by `";

/// `BENCHMARK.json` and `benchmark/` are the repository's one checked-in
/// measurement. A `BENCH_*.json` anywhere else is a second baseline that
/// nothing re-records, and the criterion shim's JSON knob (spelled in
/// pieces here so this file does not name it) is what wrote them.
const ONE_BASELINE_HOME: &str = "benchmark/";
const ONE_BASELINE_KNOB: &str = concat!("CRITERION", "_JSON");

#[derive(Debug, Clone)]
struct Finding {
    rule: &'static str,
    message: String,
    path: String,
    line: usize,
    col: usize,
    help: &'static str,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let counts = args.first().is_some_and(|a| a == "--counts");
    if counts {
        args.remove(0);
    }
    let root = PathBuf::from(args.first().map_or(".", String::as_str));
    if counts {
        match count_crates(&root) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("repolint: error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    match run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("repolint: clean");
        }
        Ok(mut findings) => {
            findings.sort_by(|a, b| {
                (a.path.as_str(), a.line, a.col, a.rule).cmp(&(
                    b.path.as_str(),
                    b.line,
                    b.col,
                    b.rule,
                ))
            });
            for f in &findings {
                eprintln!("error[{}]: {}", f.rule, f.message);
                eprintln!("  --> {}:{}:{}", f.path, f.line, f.col);
                eprintln!("  = help: {}", f.help);
            }
            eprintln!("repolint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("repolint: error: {e}");
            std::process::exit(2);
        }
    }
}

fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let mut rust_files = Vec::new();
    let mut bench_jsons = Vec::new();
    walk(root, Path::new(""), &mut rust_files, &mut bench_jsons)?;
    rust_files.sort();
    bench_jsons.sort();

    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for rel in &rust_files {
        let rel_str = unix_path(rel);
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel_str}: {e}"))?;
        // Vendored shims are held to this one rule only: the knob lived in
        // the criterion shim.
        findings.extend(lint_baseline_knob(&rel_str, &src));
        if VENDORED.iter().any(|v| rel_str.starts_with(v)) {
            continue;
        }
        findings.extend(lint_rust_source(&rel_str, &src));
        sources.push((rel_str, src));
    }
    findings.extend(lint_pub_callers(&sources));
    findings.extend(lint_baseline_files(&bench_jsons));
    Ok(findings)
}

fn unix_path(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn walk(
    root: &Path,
    rel: &Path,
    rust: &mut Vec<PathBuf>,
    jsons: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let sub = rel.join(&name);
        let ftype = entry
            .file_type()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if ftype.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | "node_modules") {
                continue;
            }
            walk(root, &sub, rust, jsons)?;
        } else if name.ends_with(".rs") {
            rust.push(sub);
        } else if name.starts_with("BENCH_") && name.ends_with(".json") {
            jsons.push(sub);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lexical masking
// ---------------------------------------------------------------------------

/// Returns `src` with the *contents* of comments, string literals, and char
/// literals replaced by spaces (newlines preserved, so line/col arithmetic
/// still works). String delimiter quotes are kept; everything between them
/// is blanked. Handles nested block comments, escapes, raw strings with any
/// `#` count, byte strings, and the char-literal-vs-lifetime ambiguity.
fn mask_source(src: &str) -> Vec<char> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = chars.clone();
    let n = chars.len();
    let mut i = 0;
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    while i < n {
        let c = chars[i];
        let prev_is_ident = i > 0 && is_ident(chars[i - 1]);
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                out[i] = ' ';
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            out[i] = ' ';
            out[i + 1] = ' ';
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    i += 2;
                } else {
                    if chars[i] != '\n' {
                        out[i] = ' ';
                    }
                    i += 1;
                }
            }
        } else if c == '"' {
            i = mask_plain_string(&chars, &mut out, i);
        } else if (c == 'r' || c == 'b') && !prev_is_ident {
            if let Some(next) = try_mask_prefixed_string(&chars, &mut out, i) {
                i = next;
            } else {
                i += 1;
            }
        } else if c == '\'' {
            i = mask_char_or_lifetime(&chars, &mut out, i);
        } else {
            i += 1;
        }
    }
    out
}

/// Masks a `"..."` string starting at the opening quote; returns the index
/// one past the closing quote (or end of input if unterminated).
fn mask_plain_string(chars: &[char], out: &mut [char], start: usize) -> usize {
    let n = chars.len();
    let mut i = start + 1;
    while i < n {
        match chars[i] {
            '\\' => {
                out[i] = ' ';
                if i + 1 < n && chars[i + 1] != '\n' {
                    out[i + 1] = ' ';
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => i += 1,
            _ => {
                out[i] = ' ';
                i += 1;
            }
        }
    }
    n
}

/// Handles `r"..."`, `r#"..."#` (any `#` count), `b"..."`, `br#"..."#`, and
/// `b'x'`. Returns `None` when `start` is just an identifier beginning with
/// `r`/`b`, leaving the caller to advance normally.
fn try_mask_prefixed_string(chars: &[char], out: &mut [char], start: usize) -> Option<usize> {
    let n = chars.len();
    let mut i = start + 1;
    if chars[start] == 'b' {
        if i < n && chars[i] == '\'' {
            return Some(mask_char_or_lifetime(chars, out, i));
        }
        if i < n && chars[i] == '"' {
            return Some(mask_plain_string(chars, out, i));
        }
        if i < n && chars[i] == 'r' {
            i += 1;
        } else {
            return None;
        }
    }
    // At this point we are past `r` / `br`; count `#`s then expect `"`.
    let hashes_start = i;
    while i < n && chars[i] == '#' {
        i += 1;
    }
    let hashes = i - hashes_start;
    if i >= n || chars[i] != '"' {
        return None;
    }
    i += 1; // past opening quote
    while i < n {
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == '#')
                .count()
                == hashes
        {
            return Some(i + 1 + hashes);
        }
        if chars[i] != '\n' {
            out[i] = ' ';
        }
        i += 1;
    }
    Some(n)
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes; masks the
/// former, leaves the latter untouched.
fn mask_char_or_lifetime(chars: &[char], out: &mut [char], start: usize) -> usize {
    let n = chars.len();
    if start + 1 >= n {
        return start + 1;
    }
    if chars[start + 1] == '\\' {
        // Escaped char literal: mask through the closing quote.
        let mut i = start + 1;
        while i < n && chars[i] != '\'' {
            out[i] = ' ';
            i += 1;
        }
        return (i + 1).min(n);
    }
    if start + 2 < n && chars[start + 2] == '\'' {
        out[start + 1] = ' ';
        return start + 3;
    }
    // Lifetime: leave as-is.
    start + 1
}

// ---------------------------------------------------------------------------
// Pragmas, positions, test regions
// ---------------------------------------------------------------------------

/// Inline allow pragmas: `// lint: allow(rule)` or `// lint: allow(a, b)`.
/// Keyed by 1-indexed line; a pragma covers its own line and the next.
fn collect_pragmas(src: &str) -> HashMap<usize, HashSet<String>> {
    let mut map: HashMap<usize, HashSet<String>> = HashMap::new();
    for (idx, raw) in src.lines().enumerate() {
        let Some(pos) = raw.find("// lint: allow(") else {
            continue;
        };
        let rest = &raw[pos + "// lint: allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let rules = map.entry(idx + 1).or_default();
        for rule in rest[..end].split(',') {
            rules.insert(rule.trim().to_string());
        }
    }
    map
}

fn allowed(pragmas: &HashMap<usize, HashSet<String>>, line: usize, rule: &str) -> bool {
    let hit = |l: usize| pragmas.get(&l).is_some_and(|s| s.contains(rule));
    hit(line) || (line > 1 && hit(line - 1))
}

/// Char-index → (1-indexed line, 1-indexed column).
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(chars: &[char]) -> Self {
        let mut starts = vec![0];
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    fn locate(&self, offset: usize) -> (usize, usize) {
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.starts[line] + 1)
    }
}

/// Char ranges covered by `#[cfg(test)]`-gated items (attribute through the
/// end of the following item, tracked brace-aware).
fn test_regions(masked: &[char]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    let n = masked.len();
    while i < n {
        if masked[i] != '#' || i + 1 >= n || masked[i + 1] != '[' {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching(masked, i + 1, '[', ']') else {
            break;
        };
        let attr: String = masked[i + 2..attr_end].iter().collect();
        let is_test_cfg = attr.trim_start().starts_with("cfg")
            && attr
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == "test");
        i = attr_end + 1;
        if !is_test_cfg {
            continue;
        }
        // Skip whitespace and any further attributes, then swallow the item:
        // it ends at the first top-level `;` or the close of its first block.
        let mut j = i;
        loop {
            while j < n && masked[j].is_whitespace() {
                j += 1;
            }
            if j + 1 < n && masked[j] == '#' && masked[j + 1] == '[' {
                match matching(masked, j + 1, '[', ']') {
                    Some(end) => j = end + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        let mut end = n;
        let mut k = j;
        while k < n {
            match masked[k] {
                ';' => {
                    end = k + 1;
                    break;
                }
                '{' => {
                    end = matching(masked, k, '{', '}').map_or(n, |e| e + 1);
                    break;
                }
                _ => k += 1,
            }
        }
        regions.push((attr_start, end));
        i = end;
    }
    regions
}

/// Index of the delimiter closing the `open` at `start`, honoring nesting.
fn matching(chars: &[char], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in chars.iter().enumerate().skip(start) {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn in_regions(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset < e)
}

/// Integration-test trees: the workspace's `tests/` and each crate's.
fn is_test_tree(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Whole files outside library scope for the library-only rules: test and
/// bench trees, examples, and `src/bin/` CLI entrypoints (table-regeneration
/// binaries fail loudly by design — `main` is the top of the call stack).
fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.ends_with("build.rs")
}

// ---------------------------------------------------------------------------
// Rule scanners
// ---------------------------------------------------------------------------

fn lint_rust_source(rel: &str, src: &str) -> Vec<Finding> {
    let masked = mask_source(src);
    let index = LineIndex::new(&masked);
    let pragmas = collect_pragmas(src);
    let regions = test_regions(&masked);
    let file_is_test = is_test_path(rel);

    let mut findings = Vec::new();
    let mut push = |rule: &'static str, message: String, help: &'static str, offset: usize| {
        let (line, col) = index.locate(offset);
        if !allowed(&pragmas, line, rule) {
            findings.push(Finding {
                rule,
                message,
                path: rel.to_string(),
                line,
                col,
                help,
            });
        }
    };
    let library_code = |offset: usize| -> bool { !file_is_test && !in_regions(&regions, offset) };

    if !FACADE_PATHS.iter().any(|p| rel.starts_with(p)) {
        for (offset, name) in find_std_sync_locks(&masked) {
            if library_code(offset) {
                push(
                    "sync-facade",
                    format!("direct `std::sync::{name}` bypasses the workspace sync facade"),
                    "import the lock from the `parking_lot` shim so lock-order diagnostics cover this site",
                    offset,
                );
            }
        }
    }

    for offset in find_method_call(&masked, "unwrap", true)
        .into_iter()
        .chain(find_method_call(&masked, "expect", false))
    {
        if library_code(offset) {
            push(
                "no-unwrap",
                "`.unwrap()`/`.expect(..)` in non-test library code".to_string(),
                "return a typed error or recover; if the invariant truly holds, justify with `// lint: allow(no-unwrap)`",
                offset,
            );
        }
    }

    for needle in ["Instant::now", "SystemTime::now"] {
        for offset in find_token(&masked, needle) {
            if library_code(offset) {
                push(
                    "clock",
                    format!("raw `{needle}` outside an approved clock site"),
                    "thread a deadline/now parameter in from the caller, or approve the site with `// lint: allow(clock)`",
                    offset,
                );
            }
        }
    }

    // Unlike the rules above this one covers test, bench and example code
    // too: a test that needs `allow(deprecated)` is a test of a shim.
    if !rel.starts_with(DEPRECATED_EXEMPT) {
        for offset in find_deprecated_attrs(&masked) {
            push(
                "no-deprecated",
                "`#[deprecated]` / `allow(deprecated)` keeps a superseded path alive".to_string(),
                "delete the old item and move its callers in the same change instead of keeping a shim",
                offset,
            );
        }
    }

    if rel.starts_with(ONE_PUMP_SCOPE) && rel != ONE_PUMP_HOME {
        for needle in ["thread::scope", "thread::spawn", "thread::Builder"] {
            for offset in find_path(&masked, needle) {
                if library_code(offset) {
                    push(
                        "one-pump",
                        format!("`{needle}` starts a second worker loop beside the engine's pump"),
                        "run the work on `Engine::pump` (a tenant-scoped handle shares its feed and gate) instead of a private thread",
                        offset,
                    );
                }
            }
        }
    }

    if rel.starts_with(ONE_RETRY_SCOPE) && rel != ONE_RETRY_HOME {
        for offset in find_member(&masked, ONE_RETRY_FIELD) {
            if library_code(offset) {
                push(
                    "one-retry",
                    format!("`.{ONE_RETRY_FIELD}` read: a second transport retry loop beside the router's"),
                    "dispatch through `Router::complete` (every `LlmClient` owns a router) instead of retrying here",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_ENGINE_SCOPE) && !ONE_ENGINE_HOMES.contains(&rel) {
        for offset in find_token(&masked, "Engine::new") {
            if library_code(offset) {
                push(
                    "one-engine",
                    "`Engine::new(..)` builds a private engine beside the caller's".to_string(),
                    "borrow the caller's `&Engine` (a session's, or a tenant handle from `Server::engine_for`) so its budget, policy, trace and leases apply",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_JUDGE_SCOPE) && rel != ONE_JUDGE_HOME {
        for offset in find_token(&masked, "run_many") {
            if library_code(offset) {
                push(
                    "one-judge",
                    "`run_many(..)` dispatches, meters and parses a strict batch beside `ops::judge`".to_string(),
                    "hand the pairs or items to `judge::{compare, same_entity, rate, rank_repaired}` so orientation, metering and parsing stay in one place",
                    offset,
                );
            }
        }
    }

    if rel == ONE_BILL_ESTIMATOR {
        for offset in find_strategy_variants(&masked) {
            if library_code(offset) {
                push(
                    "one-bill",
                    "a `*Strategy::` variant in the estimator restates what that strategy asks".to_string(),
                    "state it in the strategy's `bill(..)` beside its run code; the estimator only prices `Ask` shapes and folds the lines",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_BILL_OPS) {
        for name in ONE_BILL_COUNTERS {
            for offset in find_path(&masked, name) {
                if library_code(offset) && follows_fn(&masked, offset) {
                    push(
                        "one-bill",
                        format!("`fn {name}` counts a strategy's calls beside its `bill(..)`"),
                        "a call count is the sum of the bill's lines; add or change a line there instead",
                        offset,
                    );
                }
            }
        }
    }

    if rel == ONE_COUNT_HOME {
        let home = find_fn_body(&masked, ONE_COUNT_FN);
        for offset in find_token(&masked, "count_tokens") {
            let at_home = home.is_some_and(|(open, close)| open < offset && offset < close);
            if library_code(offset) && !at_home {
                push(
                    "one-count",
                    format!("`count_tokens(..)` tokenizes a prompt again outside `{ONE_COUNT_FN}`"),
                    "read the count the render took (`Work::prompt_tokens`) instead of counting the prompt a second time",
                    offset,
                );
            }
        }
        if let Some((open, close)) = find_fn_body(&masked, ONE_COUNT_ROUND) {
            let probed = find_method_call(&masked, "settle_hit", false)
                .into_iter()
                .find(|&offset| open < offset && offset < close);
            for name in ONE_COUNT_RENDERS {
                for offset in find_method_call(&masked, name, false) {
                    let in_round = open < offset && offset < close;
                    let after_probe = probed.is_some_and(|probe| probe < offset);
                    if library_code(offset) && in_round && !after_probe {
                        push(
                            "one-count",
                            format!("`.{name}(..)` renders a call in `{ONE_COUNT_ROUND}` before the round probes it"),
                            "key the call (`Engine::keyed`), settle it with `.settle_hit(..)`, and render only a miss",
                            offset,
                        );
                    }
                }
            }
        }
    }

    if rel == NO_FORMAT_PUSH_HOME {
        for offset in find_method_call(&masked, "push_str", false) {
            if library_code(offset) && argument_is_format(&masked, offset) {
                push(
                    "no-format-push",
                    "`push_str(&format!(..))` builds a temporary `String` for one line of a prompt"
                        .to_string(),
                    "`write!(out, ..)` the line straight into the prompt's buffer",
                    offset,
                );
            }
        }
    }

    if rel == NO_SPAWN_HOME {
        let homes: Vec<(usize, usize)> = NO_SPAWN_FNS
            .iter()
            .filter_map(|name| find_fn_body(&masked, name))
            .collect();
        for needle in ["thread::scope", "thread::spawn", "thread::Builder"] {
            for offset in find_path(&masked, needle) {
                let at_home = homes
                    .iter()
                    .any(|&(open, close)| open < offset && offset < close);
                if library_code(offset) && !at_home {
                    push(
                        "no-spawn-per-call",
                        format!("`{needle}` starts a thread on the router's dispatch path"),
                        "run the attempt on the caller (`Core::attempt`); only `start_helper` (once per router) and `launch_twin` (once per straggler, after its deadline) start threads",
                        offset,
                    );
                }
            }
        }
    }

    if rel == ONE_FINGERPRINT_HOME || ONE_FINGERPRINT_CALLERS.contains(&rel) {
        // The client's probe hashes a request; the engine's key site takes
        // its task's structural fingerprint, one part of the task key.
        let home = match rel {
            ONE_FINGERPRINT_HOME => find_fn_body(&masked, ONE_FINGERPRINT_FN),
            ONE_KEY_HOME => find_fn_body(&masked, ONE_KEY_FN),
            _ => None,
        };
        for offset in find_method_call(&masked, "fingerprint", true) {
            let at_home = home.is_some_and(|(open, close)| open < offset && offset < close);
            if library_code(offset) && !at_home {
                push(
                    "one-fingerprint",
                    format!("`.fingerprint()` hashes a request again outside `LlmClient::{ONE_FINGERPRINT_FN}`"),
                    "probe once (`LlmClient::probe` returns the hit or the key) and carry the key: `Work::key`, `complete_keyed`, `probe_key`",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_KEY_SCOPE) {
        let home = (rel == ONE_KEY_HOME)
            .then(|| find_fn_body(&masked, ONE_KEY_FN))
            .flatten();
        for offset in find_method_call(&masked, "text_key", false) {
            let at_home = home.is_some_and(|(open, close)| open < offset && offset < close);
            if library_code(offset) && !at_home {
                push(
                    "one-fingerprint",
                    format!("`.text_key(..)` computes a task key outside `Engine::{ONE_KEY_FN}`"),
                    "key a call with `Engine::keyed`, which folds every input a prompt is rendered from in one place",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_SETTLE_SCOPE) {
        for &(name, home) in ONE_SETTLE_CALLS {
            let home = (rel == ONE_SETTLE_HOME)
                .then(|| find_fn_body(&masked, home))
                .flatten();
            for offset in find_method_call(&masked, name, false) {
                let at_home = home.is_some_and(|(open, close)| open < offset && offset < close);
                if library_code(offset) && !at_home {
                    push(
                        "one-settle",
                        format!("`.{name}(..)` probes the client outside the one settle rule"),
                        "settle a call before it is queued through `Engine::settle_hit` (probe, then settle the hit or leave the key); the worker only re-checks that key, with `.probe_key(..)` in `Engine::execute`",
                        offset,
                    );
                }
            }
        }
    }

    if ONE_LAYOUT_SCOPES.iter().any(|scope| rel.starts_with(scope)) {
        for spelling in ONE_LAYOUT_NESTED {
            let needle: Vec<char> = spelling.chars().collect();
            let mut from = 0;
            while let Some(offset) = find_chars_from(&masked, &needle, from) {
                from = offset + 1;
                if library_code(offset) {
                    push(
                        "one-layout",
                        format!("`{spelling}` is a second vector layout beside the flat `VectorStore`"),
                        "take or return flat row-major `f32`s (`Embedder::embed_all_flat`, `VectorStore::from_flat`, `Queries::Flat`)",
                        offset,
                    );
                }
            }
        }
    }

    if rel.starts_with(ONE_LAYOUT_INDEXES) {
        for offset in find_fn_definitions(&masked, "nearest") {
            push(
                "one-layout",
                "`fn nearest*` is a second way to ask an index for neighbours".to_string(),
                "ask through `search(Queries::Rows(..) | Queries::Flat(..), k)`: a single vector is a one-row batch",
                offset,
            );
        }
    }

    if rel == ONE_DOOR_SESSION {
        for offset in find_ops_functions(&masked) {
            if library_code(offset) {
                push(
                    "one-door",
                    "the session names an operator's function: a second door beside `Query`".to_string(),
                    "run the operator as a `Query` node (`session.plan(session.query(..).<op>_with(..))`) instead of a `Session` method",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_DOOR_OPS) {
        for (offset, kind, name) in pub_items(&masked) {
            if kind == "fn" && library_code(offset) && brace_depth(&masked, offset) == 0 {
                push(
                    "one-door",
                    format!("top-level `pub fn {name}` runs an operator beside `Query`"),
                    "write `pub(crate)`: the plan executor is its one caller, and a caller outside the crate builds a `Query` node",
                    offset,
                );
            }
        }
    }

    if rel.starts_with(ONE_PLAN_IR_SCOPE) {
        for (offset, name) in find_enum_variants(&masked, ONE_PLAN_IR_VARIANT) {
            if name != ONE_PLAN_IR_NODE && library_code(offset) {
                push(
                    "one-plan-ir",
                    format!("`enum {name}` declares operators beside `{ONE_PLAN_IR_NODE}`"),
                    "build the `PhysicalNode` the planner starts from and mark the step pinned or not, instead of a second operator enum lowered arm by arm",
                    offset,
                );
            }
        }
    }

    // Tests included: a test that reads a request's prompt in the store is
    // testing a prompt the store keeps.
    if rel == ANSWERS_HOME {
        for offset in find_member(&masked, ANSWERS_FIELD) {
            push(
                "answers-not-prompts",
                format!("the store reads a request's `.{ANSWERS_FIELD}`"),
                "a record is an answer keyed by `fingerprint()`: key by the fingerprint and keep no part of the prompt",
                offset,
            );
        }
    }
    if rel.starts_with(ANSWERS_SCOPE) {
        for offset in find_path(&masked, ANSWERS_EMBEDDER) {
            push(
                "answers-not-prompts",
                format!("the oracle crate names `{ANSWERS_EMBEDDER}`"),
                "the store answers by fingerprint only: nothing in the oracle crate embeds a prompt",
                offset,
            );
        }
    }

    for offset in find_money_eq(&masked, &index) {
        if library_code(offset) {
            push(
                "money-eq",
                "raw f64 equality on a money value".to_string(),
                "compare via `.to_bits()` (exact identity) or an explicit tolerance, never `==` on money f64s",
                offset,
            );
        }
    }

    findings
}

/// Occurrences of `std::sync::<Lock>` or a lock name inside a
/// `use std::sync::{...}` group. Returns (offset-of-lock-name, lock-name).
fn find_std_sync_locks(masked: &[char]) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = find_from(masked, "std::sync::", from) {
        from = pos + 1;
        if pos > 0 && is_ident(masked[pos - 1]) {
            continue; // e.g. `mystd::sync::`
        }
        let after = pos + "std::sync::".len();
        if after >= masked.len() {
            break;
        }
        if masked[after] == '{' {
            // Group import: flag each lock identifier inside the braces.
            let end = matching(masked, after, '{', '}').unwrap_or(masked.len());
            let mut i = after + 1;
            while i < end {
                if is_ident(masked[i]) && (i == 0 || !is_ident(masked[i - 1])) {
                    let start = i;
                    while i < end && is_ident(masked[i]) {
                        i += 1;
                    }
                    let word: String = masked[start..i].iter().collect();
                    if let Some(name) = FACADE_LOCKS.iter().find(|&&l| l == word) {
                        hits.push((start, *name));
                    }
                } else {
                    i += 1;
                }
            }
        } else {
            let start = after;
            let mut i = after;
            while i < masked.len() && is_ident(masked[i]) {
                i += 1;
            }
            let word: String = masked[start..i].iter().collect();
            if let Some(name) = FACADE_LOCKS.iter().find(|&&l| l == word) {
                hits.push((start, *name));
            }
        }
    }
    hits
}

/// Offsets of `.name()` (when `require_empty_args`) or `.name(` calls.
/// `.unwrap_or(..)` does not match `.unwrap` because the token is
/// boundary-checked.
fn find_method_call(masked: &[char], name: &str, require_empty_args: bool) -> Vec<usize> {
    let mut hits = Vec::new();
    let needle: Vec<char> = format!(".{name}").chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let n = masked.len();
    let mut from = 0;
    while let Some(pos) = find_chars_from(masked, &needle, from) {
        from = pos + 1;
        let mut i = pos + needle.len();
        if i < n && is_ident(masked[i]) {
            continue; // `.unwrap_or`, `.expect_err`, ...
        }
        while i < n && masked[i].is_whitespace() {
            i += 1;
        }
        if i >= n || masked[i] != '(' {
            continue;
        }
        if require_empty_args {
            let mut j = i + 1;
            while j < n && masked[j].is_whitespace() {
                j += 1;
            }
            if j >= n || masked[j] != ')' {
                continue;
            }
        }
        hits.push(pos);
    }
    hits
}

/// Offsets of `.name` member accesses, fields or methods; `.name_more`
/// does not match `.name`.
fn find_member(masked: &[char], name: &str) -> Vec<usize> {
    let needle: Vec<char> = format!(".{name}").chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_chars_from(masked, &needle, from) {
        from = pos + 1;
        let after = pos + needle.len();
        if after >= masked.len() || !is_ident(masked[after]) {
            hits.push(pos);
        }
    }
    hits
}

/// Boundary-checked occurrences of a path token like `Instant::now`,
/// required to be followed by a call `(`.
fn find_token(masked: &[char], token: &str) -> Vec<usize> {
    let n = masked.len();
    find_path(masked, token)
        .into_iter()
        .filter(|&pos| {
            let mut i = pos + token.chars().count();
            while i < n && masked[i].is_whitespace() {
                i += 1;
            }
            i < n && masked[i] == '('
        })
        .collect()
}

/// Boundary-checked occurrences of a path token like `thread::Builder`,
/// called or not.
fn find_path(masked: &[char], token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let needle: Vec<char> = token.chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = find_chars_from(masked, &needle, from) {
        from = pos + 1;
        let after = pos + needle.len();
        let bounded_before = pos == 0 || !is_ident(masked[pos - 1]);
        let bounded_after = after >= masked.len() || !is_ident(masked[after]);
        if bounded_before && bounded_after {
            hits.push(pos);
        }
    }
    hits
}

/// Whether the identifier at `offset` is being defined (`fn name`), not
/// called.
fn follows_fn(masked: &[char], offset: usize) -> bool {
    masked[..offset]
        .iter()
        .rev()
        .skip_while(|c| c.is_whitespace())
        .take(2)
        .eq(['n', 'f'].iter())
}

/// Offsets of the names of `fn` items whose name starts with `prefix`.
fn find_fn_definitions(masked: &[char], prefix: &str) -> Vec<usize> {
    let needle: Vec<char> = prefix.chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_chars_from(masked, &needle, from) {
        from = pos + 1;
        let starts_ident = pos == 0 || !is_ident(masked[pos - 1]);
        if starts_ident && pos > 0 && masked[pos - 1].is_whitespace() && follows_fn(masked, pos) {
            hits.push(pos);
        }
    }
    hits
}

/// The `{`..`}` offsets of the body of the first `fn` named exactly `name`.
fn find_fn_body(masked: &[char], name: &str) -> Option<(usize, usize)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let after = name.chars().count();
    let at = find_fn_definitions(masked, name)
        .into_iter()
        .find(|&pos| masked.get(pos + after).is_some_and(|&c| !is_ident(c)))?;
    let open = at + masked[at..].iter().position(|&c| c == '{')?;
    Some((open, matching(masked, open, '{', '}')?))
}

/// Whether the `.push_str` call at `offset` is handed `&format!(..)`.
fn argument_is_format(masked: &[char], offset: usize) -> bool {
    let Some(open) = masked[offset..].iter().position(|&c| c == '(') else {
        return false;
    };
    let argument: String = masked[offset + open + 1..]
        .iter()
        .filter(|c| !c.is_whitespace())
        .take("&format!".len())
        .collect();
    argument == "&format!"
}

/// How many `{` blocks enclose `offset` (strings and comments are masked).
fn brace_depth(masked: &[char], offset: usize) -> usize {
    masked[..offset].iter().fold(0, |depth, &c| match c {
        '{' => depth + 1,
        '}' => depth.saturating_sub(1),
        _ => depth,
    })
}

/// Offsets of functions named through an `ops::` path: a lowercase segment
/// past the operator module (`ops::sort::sort`, `ops::filter::{filter, ..}`)
/// or an operator-level name called directly (`ops::filter(..)`). Module
/// names (`ops::filter::FilterStrategy`, `ops::{self, sort}`) are not.
fn find_ops_functions(masked: &[char]) -> Vec<usize> {
    let mut hits = Vec::new();
    for at in find_path(masked, "ops") {
        if masked[at + 3..].starts_with(&[':', ':']) {
            ops_path(masked, at + 5, 1, &mut hits);
        }
    }
    hits
}

/// Walk the path or `{..}` group at `i`, `depth` segments past `ops::`.
fn ops_path(masked: &[char], mut i: usize, depth: usize, hits: &mut Vec<usize>) {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let skip_space = |mut i: usize| {
        while masked.get(i).is_some_and(|c| c.is_whitespace()) {
            i += 1;
        }
        i
    };
    i = skip_space(i);
    if masked.get(i) == Some(&'{') {
        let Some(close) = matching(masked, i, '{', '}') else {
            return;
        };
        let (mut member, mut level) = (i + 1, 0usize);
        for j in i + 1..close {
            match masked[j] {
                '{' => level += 1,
                '}' => level -= 1,
                ',' if level == 0 => {
                    ops_path(masked, member, depth, hits);
                    member = j + 1;
                }
                _ => {}
            }
        }
        ops_path(masked, member, depth, hits);
        return;
    }
    let start = i;
    while masked.get(i).is_some_and(|&c| is_ident(c)) {
        i += 1;
    }
    let word: String = masked[start..i].iter().collect();
    if word.is_empty() {
        return;
    }
    let next = skip_space(i);
    let lowercase = word.starts_with(|c: char| c.is_lowercase()) && word != "self";
    if lowercase && (depth >= 2 || masked.get(next) == Some(&'(')) {
        hits.push(start);
    } else if masked[next..].starts_with(&[':', ':']) {
        ops_path(masked, next + 2, depth + 1, hits);
    }
}

/// `(offset of the variant, enum name)` for every `enum` declaring a
/// variant named exactly `variant`: an identifier at the body's top level
/// that opens the body or follows a `,` or an attribute's `]`.
fn find_enum_variants(masked: &[char], variant: &str) -> Vec<(usize, String)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let idents = identifiers(masked);
    let mut hits = Vec::new();
    for pair in idents.windows(2) {
        let [(_, keyword), (name_at, name)] = pair else {
            continue;
        };
        if keyword != "enum" {
            continue;
        }
        let Some(open) = find_from(masked, "{", *name_at) else {
            continue;
        };
        let Some(close) = matching(masked, open, '{', '}') else {
            continue;
        };
        let (mut level, mut prev, mut i) = (0usize, '{', open + 1);
        while i < close {
            let c = masked[i];
            if level == 0 && is_ident(c) {
                let start = i;
                while is_ident(masked[i]) {
                    i += 1;
                }
                let word: String = masked[start..i].iter().collect();
                if word == variant && matches!(prev, '{' | ',' | ']') {
                    hits.push((start, name.clone()));
                }
                prev = 'a';
                continue;
            }
            match c {
                '{' | '(' | '[' => level += 1,
                '}' | ')' | ']' => level = level.saturating_sub(1),
                _ => {}
            }
            if !c.is_whitespace() {
                prev = c;
            }
            i += 1;
        }
    }
    hits
}

/// Offsets of `<Something>Strategy::` paths (the start of the type name).
fn find_strategy_variants(masked: &[char]) -> Vec<usize> {
    let needle: Vec<char> = "Strategy::".chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_chars_from(masked, &needle, from) {
        from = pos + 1;
        let start = masked[..pos]
            .iter()
            .rposition(|&c| !is_ident(c))
            .map_or(0, |i| i + 1);
        hits.push(start);
    }
    hits
}

/// Offsets of attributes (`#[..]` / `#![..]`) that mention the word
/// `deprecated`: the marker itself, `allow(deprecated)`, or either wrapped
/// in `cfg_attr`. Strings are already masked, so a `note = ".."` cannot
/// match.
fn find_deprecated_attrs(masked: &[char]) -> Vec<usize> {
    let mut hits = Vec::new();
    let n = masked.len();
    let mut i = 0;
    while i + 1 < n {
        let open = match (masked[i], masked[i + 1]) {
            ('#', '[') => i + 1,
            ('#', '!') if i + 2 < n && masked[i + 2] == '[' => i + 2,
            _ => {
                i += 1;
                continue;
            }
        };
        let Some(close) = matching(masked, open, '[', ']') else {
            break;
        };
        let attr: String = masked[open + 1..close].iter().collect();
        if attr
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == "deprecated")
        {
            hits.push(i);
        }
        i = close + 1;
    }
    hits
}

/// Lines where an `==`/`!=` operator shares a line with an identifier
/// containing `usd` and no `.to_bits(` call: money f64s must compare by bit
/// pattern or explicit tolerance.
fn find_money_eq(masked: &[char], index: &LineIndex) -> Vec<usize> {
    let mut hits = Vec::new();
    for (li, &start) in index.starts.iter().enumerate() {
        let end = index
            .starts
            .get(li + 1)
            .map_or(masked.len(), |&next| next - 1);
        let line: String = masked[start..end].iter().collect();
        let has_eq = line.char_indices().any(|(i, c)| {
            let bytes = line.as_bytes();
            let prev = i.checked_sub(1).map(|p| bytes[p] as char);
            let next2 = line[i..].chars().nth(2);
            match c {
                '=' if line[i..].starts_with("==") => {
                    !matches!(prev, Some('=' | '!' | '<' | '>')) && next2 != Some('=')
                }
                '!' if line[i..].starts_with("!=") => next2 != Some('='),
                _ => false,
            }
        });
        if !has_eq || line.contains(".to_bits(") {
            continue;
        }
        let mentions_money = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|w| w.to_ascii_lowercase().contains("usd"));
        if mentions_money {
            // Anchor the finding at the first operator on the line.
            let op = line.find("==").or_else(|| line.find("!=")).unwrap_or(0);
            hits.push(start + line[..op].chars().count());
        }
    }
    hits
}

fn find_from(hay: &[char], needle: &str, from: usize) -> Option<usize> {
    let needle: Vec<char> = needle.chars().collect();
    find_chars_from(hay, &needle, from)
}

fn find_chars_from(hay: &[char], needle: &[char], from: usize) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| hay[i..i + needle.len()] == *needle)
}

// ---------------------------------------------------------------------------
// pub-has-caller
// ---------------------------------------------------------------------------

/// Every `pub` item of a [`PUB_CALLER_CRATES`] crate must be named outside
/// that crate's `src/`: by non-test code in any other file, or by a doc-test
/// (which rustdoc compiles as a crate of its own). A test is no caller: a
/// file under a `tests/` tree and a `#[cfg(test)]` item name nothing. Matching
/// is by identifier over masked code, so a name in another crate's comment or
/// string is no caller, and a name shared with an unrelated item can only
/// hide a finding.
fn lint_pub_callers(sources: &[(String, String)]) -> Vec<Finding> {
    const OUTSIDE: u8 = 1 << PUB_CALLER_CRATES.len();
    let owner = |rel: &str| PUB_CALLER_CRATES.iter().position(|c| rel.starts_with(c));
    let mut mentions: HashMap<String, u8> = HashMap::new();
    let masked: Vec<Vec<char>> = sources.iter().map(|(_, src)| mask_source(src)).collect();
    for ((rel, src), masked) in sources.iter().zip(&masked) {
        if is_test_tree(rel) {
            continue;
        }
        let bit = owner(rel).map_or(OUTSIDE, |i| 1 << i);
        let regions = test_regions(masked);
        for (offset, ident) in identifiers(masked) {
            if !in_regions(&regions, offset) {
                *mentions.entry(ident).or_default() |= bit;
            }
        }
        for (_, ident) in identifiers(&mask_source(&doc_test_code(src))) {
            *mentions.entry(ident).or_default() |= OUTSIDE;
        }
    }
    let called_outside =
        |name: &str, own: u8| mentions.get(name).is_some_and(|&bits| bits & !own != 0);

    let mut findings = Vec::new();
    for ((rel, src), masked) in sources.iter().zip(&masked) {
        let Some(crate_idx) = owner(rel) else {
            continue;
        };
        if is_test_path(rel) {
            continue;
        }
        let own = 1 << crate_idx;
        let index = LineIndex::new(masked);
        let regions = test_regions(masked);
        let pragmas = collect_pragmas(src);
        let lines: Vec<&str> = src.lines().collect();
        for (offset, kind, name) in pub_items(masked) {
            if in_regions(&regions, offset) || called_outside(&name, own) {
                continue;
            }
            let (line, col) = index.locate(offset);
            // A pragma on the item's line or the one before, naming an
            // exposing item that itself has a caller.
            let exposed = [line, line - 1].into_iter().any(|l| {
                pragmas
                    .get(&l)
                    .is_some_and(|rules| rules.contains("pub-has-caller"))
                    && exposer(lines[l - 1]).is_some_and(|item| called_outside(item, own))
            });
            if !exposed {
                findings.push(Finding {
                    rule: "pub-has-caller",
                    message: format!("`pub {kind} {name}` is named by nothing outside its crate"),
                    path: rel.clone(),
                    line,
                    col,
                    help: "delete it, demote it to `pub(crate)`, or give it a doc-test; a type a kept public signature exposes takes `// lint: allow(pub-has-caller) — exposed by `Item``",
                });
            }
        }
    }
    findings
}

/// The last path segment named after [`PUB_CALLER_EXPOSED`] in a pragma.
fn exposer(pragma: &str) -> Option<&str> {
    let rest = &pragma[pragma.find(PUB_CALLER_EXPOSED)? + PUB_CALLER_EXPOSED.len()..];
    let path = &rest[..rest.find('`')?];
    path.rsplit("::").next().map(|s| s.trim_end_matches("()"))
}

/// `(offset, ident)` for every identifier in masked source.
fn identifiers(masked: &[char]) -> Vec<(usize, String)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < masked.len() {
        if is_ident(masked[i]) {
            let start = i;
            while i < masked.len() && is_ident(masked[i]) {
                i += 1;
            }
            if !masked[start].is_ascii_digit() {
                out.push((start, masked[start..i].iter().collect()));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// `(offset of the name, keyword, name)` for every `pub` fn, struct, enum,
/// trait, type, const or static — not `pub(crate)`, `pub use`, `pub mod` or
/// a field.
fn pub_items(masked: &[char]) -> Vec<(usize, &'static str, String)> {
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let idents = identifiers(masked);
    let mut items = Vec::new();
    for (at, (offset, word)) in idents.iter().enumerate() {
        if word != "pub" || !masked.get(offset + 3).is_some_and(|c| c.is_whitespace()) {
            continue;
        }
        let mut rest = idents[at + 1..].iter().map(|(o, w)| (*o, w.as_str()));
        let mut token = rest.next();
        // `pub const fn` and `pub unsafe fn` are fns; `pub const X` is a const.
        while let Some((_, w)) = token {
            let qualifier = w == "unsafe"
                || (w == "const"
                    && rest
                        .clone()
                        .next()
                        .is_some_and(|(_, n)| n == "fn" || n == "unsafe"));
            if !qualifier {
                break;
            }
            token = rest.next();
        }
        let Some(kind) = token.and_then(|(_, w)| KINDS.iter().find(|&&k| k == w)) else {
            continue;
        };
        let mut name = rest.next();
        if *kind == "static" && name.is_some_and(|(_, w)| w == "mut") {
            name = rest.next();
        }
        if let Some((name_at, name)) = name {
            items.push((name_at, *kind, name.to_string()));
        }
    }
    items
}

/// The code of every doc-test in `src`: fenced blocks in `///` and `//!`
/// comments whose info string rustdoc compiles as Rust.
fn doc_test_code(src: &str) -> String {
    let mut code = String::new();
    let mut fence: Option<bool> = None;
    for line in src.lines() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            fence = None;
            continue;
        };
        let doc = doc.trim_start();
        if let Some(info) = doc.strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|tag| {
                    matches!(tag, "" | "rust" | "no_run" | "should_panic")
                        || tag.starts_with("edition")
                })),
            };
        } else if fence == Some(true) {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

// ---------------------------------------------------------------------------
// --counts
// ---------------------------------------------------------------------------

/// The `--counts` table: for each of [`PUB_CALLER_CRATES`], over its library
/// files' lines outside `#[cfg(test)]` items, how many there are, how many
/// hold code once comments and string contents are masked, and how many
/// declare a `pub` item.
fn count_crates(root: &Path) -> Result<String, String> {
    let mut rust_files = Vec::new();
    walk(root, Path::new(""), &mut rust_files, &mut Vec::new())?;
    let mut rows = [[0usize; 3]; PUB_CALLER_CRATES.len()];
    for rel in &rust_files {
        let rel_str = unix_path(rel);
        let Some(krate) = PUB_CALLER_CRATES
            .iter()
            .position(|c| rel_str.starts_with(c))
        else {
            continue;
        };
        if is_test_path(&rel_str) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel_str}: {e}"))?;
        let masked = mask_source(&src);
        let regions = test_regions(&masked);
        let mut start = 0;
        for line in masked.split(|&c| c == '\n') {
            let indent = line.iter().take_while(|c| c.is_whitespace()).count();
            let code: String = line[indent..].iter().collect();
            let at = start + indent;
            start += line.len() + 1;
            if at >= masked.len() || in_regions(&regions, at) {
                continue;
            }
            let row = &mut rows[krate];
            row[0] += 1;
            row[1] += usize::from(!code.trim_end().is_empty());
            row[2] += usize::from(declares_pub(&code));
        }
    }
    let mut table = format!("{:<8} {:>7} {:>7} {:>5}\n", "crate", "lines", "code", "pub");
    let mut total = [0usize; 3];
    for (krate, row) in PUB_CALLER_CRATES.iter().zip(&rows) {
        let name = krate
            .trim_start_matches("crates/")
            .trim_end_matches("/src/");
        table += &format!("{name:<8} {:>7} {:>7} {:>5}\n", row[0], row[1], row[2]);
        for (sum, n) in total.iter_mut().zip(row) {
            *sum += n;
        }
    }
    table += &format!(
        "{:<8} {:>7} {:>7} {:>5}\n",
        "total", total[0], total[1], total[2]
    );
    Ok(table)
}

/// Whether a masked, indent-stripped line matches
/// `pub (const |unsafe )*(fn|struct|enum|trait|type|const|static) `.
fn declares_pub(line: &str) -> bool {
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let Some(mut rest) = line.strip_prefix("pub ") else {
        return false;
    };
    loop {
        let word = rest.split(' ').next().unwrap_or_default();
        if KINDS.contains(&word) && rest[word.len()..].starts_with(' ') {
            return true;
        }
        match rest
            .strip_prefix("const ")
            .or_else(|| rest.strip_prefix("unsafe "))
        {
            Some(next) => rest = next,
            None => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// one-baseline
// ---------------------------------------------------------------------------

/// A `BENCH_*.json` outside `benchmark/` is a second checked-in measurement.
fn lint_baseline_files(baselines: &[PathBuf]) -> Vec<Finding> {
    baselines
        .iter()
        .map(|rel| unix_path(rel))
        .filter(|rel| !rel.starts_with(ONE_BASELINE_HOME))
        .map(|rel| Finding {
            rule: "one-baseline",
            message: "a bench baseline outside `benchmark/` is a second measurement nothing re-records".to_string(),
            path: rel,
            line: 1,
            col: 1,
            help: "delete it; report the number from `benchmark/` (gated by `BENCHMARK.json`), or assert it in the bench on a fresh run",
        })
        .collect()
}

/// Every spelling of the shim's JSON knob, comments and strings included:
/// it exists only to write the baselines [`lint_baseline_files`] forbids.
fn lint_baseline_knob(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (li, line) in src.lines().enumerate() {
        let mut from = 0;
        while let Some(pos) = line[from..].find(ONE_BASELINE_KNOB) {
            findings.push(Finding {
                rule: "one-baseline",
                message: format!("`{ONE_BASELINE_KNOB}` writes a bench baseline outside `benchmark/`"),
                path: rel.to_string(),
                line: li + 1,
                col: line[..from + pos].chars().count() + 1,
                help: "delete the knob; benches print their numbers and assert their ratios on a fresh run",
            });
            from += pos + ONE_BASELINE_KNOB.len();
        }
    }
    findings
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn sync_facade_flags_direct_and_grouped_imports() {
        let src = "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock};\n";
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec!["sync-facade", "sync-facade"]);
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn sync_facade_ignores_arc_mpsc_and_facade_path() {
        let src = "use std::sync::{Arc, mpsc};\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint_rust_source("crates/core/src/x.rs", src).is_empty());
        let lock = "use std::sync::Mutex;\n";
        assert!(lint_rust_source("crates/shims/parking_lot/src/lib.rs", lock).is_empty());
    }

    #[test]
    fn no_unwrap_flags_unwrap_and_expect_but_not_unwrap_or() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\nfn h(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec!["no-unwrap", "no-unwrap"]);
    }

    #[test]
    fn clock_flags_raw_now_calls() {
        let src = "fn t() { let a = Instant::now(); let b = std::time::SystemTime::now(); }\n";
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec!["clock", "clock"]);
    }

    #[test]
    fn money_eq_flags_raw_equality_but_not_bit_pattern() {
        let flagged = "fn c(a: f64, spend_usd: f64) -> bool { a == spend_usd }\n";
        assert_eq!(
            codes(&lint_rust_source("crates/core/src/x.rs", flagged)),
            vec!["money-eq"]
        );
        let ok = "fn c(a: f64, spend_usd: f64) -> bool { a.to_bits() == spend_usd.to_bits() }\n";
        assert!(lint_rust_source("crates/core/src/x.rs", ok).is_empty());
        let unrelated = "fn c(a: u64, b: u64) -> bool { a == b }\n";
        assert!(lint_rust_source("crates/core/src/x.rs", unrelated).is_empty());
    }

    #[test]
    fn no_deprecated_flags_markers_and_allows_everywhere_but_shims() {
        let src = concat!(
            "#![allow(deprecated)]\n",
            "#[deprecated(note = \"use new\")]\n",
            "pub fn old() {}\n",
            "#[cfg_attr(feature = \"x\", allow(unused, deprecated))]\n",
            "pub fn new() {}\n",
        );
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(
            codes(&f),
            vec!["no-deprecated", "no-deprecated", "no-deprecated"]
        );
        assert_eq!((f[0].line, f[1].line, f[2].line), (1, 2, 4));
        // Test trees are not exempt; vendored and first-party shims are.
        assert_eq!(codes(&lint_rust_source("tests/t.rs", src)).len(), 3);
        assert_eq!(codes(&lint_rust_source("examples/e.rs", src)).len(), 3);
        assert!(lint_rust_source("crates/shims/parking_lot/src/lib.rs", src).is_empty());
        // Only attributes count: prose, strings and identifiers do not.
        let ok = "/// deprecated in prose\nfn deprecated() -> &'static str { \"#[deprecated]\" }\n";
        assert!(lint_rust_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn one_pump_flags_thread_starts_in_core_outside_exec() {
        let src = concat!(
            "fn drive() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
            "fn detach() { let _ = std::thread::spawn(|| ()); }\n",
            "fn named() { let _ = std::thread::Builder::new(); }\n",
            "fn fine() { std::thread::sleep(d); std::thread::yield_now(); }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { std::thread::scope(|_| ()); } }\n",
        );
        let f = lint_rust_source("crates/core/src/serve.rs", src);
        assert_eq!(codes(&f), vec!["one-pump", "one-pump", "one-pump"]);
        assert_eq!((f[0].line, f[1].line, f[2].line), (1, 2, 3));
        // The pump's home, other crates, and test trees are out of scope.
        assert!(lint_rust_source("crates/core/src/exec.rs", src).is_empty());
        assert!(lint_rust_source("crates/oracle/src/client.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/tests/prop.rs", src).is_empty());
    }

    #[test]
    fn one_retry_flags_max_retries_reads_in_oracle_outside_route() {
        let src = concat!(
            "fn again(p: &RoutePolicy) -> u32 { p.max_retries + 1 }\n",
            "const P: RoutePolicy = RoutePolicy { max_retries: 2 }; // p.max_retries\n",
            "fn more(p: &Policy) -> u32 { p.max_retries_total }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(p: &RoutePolicy) { let _ = p.max_retries; } }\n",
        );
        let f = lint_rust_source("crates/oracle/src/client.rs", src);
        assert_eq!(codes(&f), vec!["one-retry"]);
        assert_eq!((f[0].line, f[0].col), (1, 37));
        // A field initializer (line 2) and a longer name (line 3) are not
        // reads; the loop's home, other crates, and test trees are out of
        // scope.
        assert!(lint_rust_source("crates/oracle/src/route.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/src/exec.rs", src).is_empty());
        assert!(lint_rust_source("crates/oracle/tests/prop.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let same = "fn t() { let a = Instant::now(); } // lint: allow(clock)\n";
        assert!(lint_rust_source("crates/core/src/x.rs", same).is_empty());
        let next = "// lint: allow(clock) -- harness timing\nfn t() { let a = Instant::now(); }\n";
        assert!(lint_rust_source("crates/core/src/x.rs", next).is_empty());
        let wrong_rule = "fn t() { let a = Instant::now(); } // lint: allow(no-unwrap)\n";
        assert_eq!(
            codes(&lint_rust_source("crates/core/src/x.rs", wrong_rule)),
            vec!["clock"]
        );
    }

    #[test]
    fn masking_hides_strings_and_comments_from_rules() {
        let src = concat!(
            "// std::sync::Mutex in a comment\n",
            "/* Instant::now() in a block\n   comment */\n",
            "fn t() -> &'static str { \".unwrap() and std::sync::Mutex\" }\n",
            "fn r() -> &'static str { r#\"Instant::now()\"# }\n",
        );
        assert!(lint_rust_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_confuse_the_masker() {
        let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }\nfn g() { let _ = Instant::now(); }\n";
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec!["clock"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cfg_test_items_and_test_paths_are_exempt() {
        let src = concat!(
            "fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { Some(1).unwrap(); let _ = Instant::now(); }\n",
            "}\n",
        );
        assert!(lint_rust_source("crates/core/src/x.rs", src).is_empty());
        let bad = "fn lib(x: Option<u8>) { x.unwrap(); }\n";
        assert!(lint_rust_source("crates/core/tests/t.rs", bad).is_empty());
        assert!(lint_rust_source("crates/bench/benches/b.rs", bad).is_empty());
        assert_eq!(
            codes(&lint_rust_source("crates/core/src/lib.rs", bad)),
            vec!["no-unwrap"]
        );
    }

    #[test]
    fn one_engine_flags_engine_construction_in_core_outside_session() {
        let src = concat!(
            "fn tier(c: Arc<LlmClient>, corpus: Corpus) -> Engine { Engine::new(c, corpus) }\n",
            "fn fine(e: &Engine) -> Engine { e.fork() } // Engine::new in a comment\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { let _ = Engine::new(client(), corpus()); } }\n",
        );
        let f = lint_rust_source("crates/core/src/cascade.rs", src);
        assert_eq!(codes(&f), vec!["one-engine"]);
        assert_eq!((f[0].line, f[0].col), (1, 56));
        // The type's module, the session builder, other crates, and test
        // trees are out of scope.
        assert!(lint_rust_source("crates/core/src/exec.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/src/session.rs", src).is_empty());
        assert!(lint_rust_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/tests/prop.rs", src).is_empty());
    }

    #[test]
    fn one_judge_flags_strict_batches_in_ops_outside_judge() {
        let src = concat!(
            "fn playoff(e: &Engine, tasks: Vec<Task>) -> R { let r = e.run_many(tasks)?; tally(r) }\n",
            "fn list(e: &Engine, t: Task) -> R { e.run(t) } // run_many in a comment\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { let _ = engine().run_many(tasks()); } }\n",
        );
        let f = lint_rust_source("crates/core/src/ops/max.rs", src);
        assert_eq!(codes(&f), vec!["one-judge"]);
        assert_eq!((f[0].line, f[0].col), (1, 59));
        // The judgement step itself, the rest of the crate, and test trees
        // are out of scope.
        assert!(lint_rust_source("crates/core/src/ops/judge.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/src/plan/execute.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/tests/prop.rs", src).is_empty());
    }

    #[test]
    fn answers_not_prompts_flags_a_prompt_read_in_the_store_and_the_embedder() {
        let src = concat!(
            "fn line(r: &Request) -> &str { &r.prompt }\n",
            "fn tokens(u: &Usage) -> u32 { u.prompt_tokens } // r.prompt\n",
            "fn text(r: &Request) -> String { format!(\"{}\", \".prompt\") }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(r: &Request) { let _ = r.prompt.len(); } }\n",
        );
        let f = lint_rust_source("crates/oracle/src/store.rs", src);
        assert_eq!(codes(&f), vec!["answers-not-prompts"; 2]);
        assert_eq!((f[0].line, f[0].col), (1, 34));
        assert_eq!((f[1].line, f[1].col), (5, 42));
        // The client and the renderer read prompts.
        assert!(lint_rust_source("crates/oracle/src/client.rs", src).is_empty());
        let src = concat!(
            "use crowdprompt_embed::Embedder; // not crowdprompt_embed\n",
            "fn f() -> &'static str { \"crowdprompt_embed\" }\n",
            "fn g(my_crowdprompt_embed: u8) {}\n",
        );
        let f = lint_rust_source("crates/oracle/src/similar.rs", src);
        assert_eq!(codes(&f), vec!["answers-not-prompts"]);
        assert_eq!((f[0].line, f[0].col), (1, 5));
        // The session builds the embedder.
        assert!(lint_rust_source("crates/core/src/session.rs", src).is_empty());
    }

    #[test]
    fn one_plan_ir_flags_a_second_enum_with_a_filter_variant() {
        let src = concat!(
            "pub enum PhysicalNode { Filter { p: String }, Take { k: usize } }\n",
            "pub enum LogicalOp {\n",
            "    Sort { by: [u8; 2] },\n",
            "    #[doc(hidden)]\n",
            "    Filter { p: Option<String> },\n",
            "}\n",
            "enum Stage { Map(Filter), Reduce { filter: Filter } }\n",
            "enum Kind { FilterCall, Other } // enum Old { Filter }\n",
            "#[cfg(test)]\n",
            "mod tests { enum Fixture { Filter } }\n",
        );
        let f = lint_rust_source("crates/core/src/plan/ir.rs", src);
        assert_eq!(codes(&f), vec!["one-plan-ir"]);
        assert_eq!((f[0].line, f[0].col), (5, 5));
        // Other crates may name their own filters.
        assert!(lint_rust_source("crates/oracle/src/task.rs", src).is_empty());
    }

    #[test]
    fn one_door_flags_operator_functions_in_the_session_and_public_ones_in_ops() {
        let session = concat!(
            "use crate::ops::sort::{sort, SortStrategy};\n",
            "use crate::ops::{self, filter::FilterStrategy};\n",
            "fn f(e: &Engine) { ops::topk::top_k(e); ops::filter(e); }\n",
            "fn fine(s: ops::sort::SortStrategy) {} // ops::sort::sort in a comment\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { crate::ops::count::count(); } }\n",
        );
        let f = lint_rust_source("crates/core/src/session.rs", session);
        assert_eq!(codes(&f), vec!["one-door"; 3]);
        let at: Vec<(usize, usize)> = f.iter().map(|f| (f.line, f.col)).collect();
        assert_eq!(at, vec![(1, 24), (3, 31), (3, 46)]);
        // Only the session module is barred from naming them.
        assert!(lint_rust_source("crates/core/src/plan/execute.rs", session).is_empty());

        let ops = concat!(
            "pub fn sort(e: &Engine) {}\n",
            "pub(crate) fn filter(e: &Engine) {}\n",
            "impl SortStrategy { pub fn name(&self) -> String { String::new() } }\n",
            "#[cfg(test)]\n",
            "pub fn helper() {}\n",
        );
        let f = lint_rust_source("crates/core/src/ops/sort.rs", ops);
        assert_eq!(codes(&f), vec!["one-door"]);
        assert_eq!((f[0].line, f[0].col), (1, 8));
        assert!(lint_rust_source("crates/core/src/plan/mod.rs", ops).is_empty());
    }

    #[test]
    fn one_bill_flags_strategy_variants_in_the_estimator_and_counters_in_ops() {
        let estimator = concat!(
            "fn cost(s: &SortStrategy, n: usize) -> u64 { match s { SortStrategy::Pairwise => 1, _ => 0 } }\n",
            "fn fold(node: &PhysicalNode) -> u64 { node.bill(3).len() as u64 } // MaxStrategy::Tournament in a comment\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { let _ = FilterStrategy::Single; } }\n",
        );
        let f = lint_rust_source("crates/core/src/plan/estimate.rs", estimator);
        assert_eq!(codes(&f), vec!["one-bill"]);
        assert_eq!((f[0].line, f[0].col), (1, 56));
        // The planner resolves strategies; only the estimator is barred.
        assert!(lint_rust_source("crates/core/src/plan/planner.rs", estimator).is_empty());

        let ops = concat!(
            "impl MaxStrategy { pub fn estimated_calls(&self, n: usize) -> u64 { n as u64 } }\n",
            "impl MaxStrategy { fn packed_calls(&self, n: usize) -> u64 { self.bill(n).len() as u64 } }\n",
            "fn fine(plan: &Plan) -> u64 { plan.estimated_calls() }\n",
        );
        let f = lint_rust_source("crates/core/src/ops/max.rs", ops);
        assert_eq!(codes(&f), vec!["one-bill", "one-bill"]);
        assert_eq!((f[0].line, f[0].col), (1, 27));
        assert_eq!(f[1].line, 2);
        // `Plan::estimated_calls` lives outside `ops/`.
        assert!(lint_rust_source("crates/core/src/plan/mod.rs", ops).is_empty());
    }

    #[test]
    fn one_layout_flags_nested_rows_in_library_code_and_nearest_fns_in_embed() {
        let src = concat!(
            "pub fn embed_all(texts: &[&str]) -> Vec<Vec<f32>> { Vec::new() }\n",
            "pub fn many(queries: &[Vec<f32>]) -> Vec<Vec<Neighbor>> { Vec::new() } // a Vec<Vec<f32>> in a comment\n",
            "// lint: allow(one-layout) — the one validated conversion\n",
            "pub fn from_rows(rows: Vec<Vec<f32>>) -> Store { pack(rows) }\n",
            "pub fn flat(data: Vec<f32>, ids: &[Vec<u8>]) -> Store { Store(data) }\n",
            "#[cfg(test)]\n",
            "mod tests { fn grid() -> Vec<Vec<f32>> { Vec::new() } }\n",
        );
        for scope in [
            "crates/embed/src/x.rs",
            "crates/core/src/blocking.rs",
            "crates/oracle/src/store.rs",
        ] {
            let f = lint_rust_source(scope, src);
            assert_eq!(codes(&f), vec!["one-layout", "one-layout"], "{scope}");
            assert_eq!((f[0].line, f[0].col), (1, 37));
            assert_eq!((f[1].line, f[1].col), (2, 23));
        }
        // Other crates, and test trees of these ones, may hold nested rows.
        assert!(lint_rust_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(lint_rust_source("crates/embed/tests/prop.rs", src).is_empty());

        let asks = concat!(
            "impl Index { pub fn nearest(&self, q: &[f32]) -> Hits { self.search(q) } }\n",
            "fn nearest_many(i: &Index) -> Hits { i.search(&[]) }\n",
            "fn closest(i: &Index) -> Hits { i.nearest_rows(&[]) } // a call, not a definition\n",
            "#[cfg(test)]\n",
            "mod tests { fn nearest_one() {} }\n",
        );
        let f = lint_rust_source("crates/embed/src/knn.rs", asks);
        assert_eq!(codes(&f), vec!["one-layout"; 3]);
        assert_eq!((f[0].line, f[0].col), (1, 21));
        assert_eq!(f[1].line, 2);
        assert_eq!(f[2].line, 5);
        // `BlockingIndex::nearest_texts` lives outside the index crate.
        assert!(lint_rust_source("crates/core/src/blocking.rs", asks).is_empty());
    }

    #[test]
    fn one_count_flags_count_tokens_in_exec_outside_render_and_estimate() {
        let src = concat!(
            "use oracle::tokenizer::count_tokens;\n",
            "fn render_and_estimate(&self, t: Task) -> Result<(Req, Usage), E> {\n",
            "    let prompt = render(&t)?; if x { y } Ok((req, count_tokens(&prompt)))\n",
            "}\n",
            "fn render_and_estimate_twice(p: &str) -> u32 { count_tokens(p) }\n",
            "fn fits(w: &Work, window: u32) -> bool { count_tokens(&w.request.prompt) <= window }\n",
            "fn reads(w: &Work, window: u32) -> bool { w.prompt_tokens <= window } // count_tokens(..) in prose\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { count_tokens(\"x\"); } }\n",
        );
        let f = lint_rust_source("crates/core/src/exec.rs", src);
        assert_eq!(codes(&f), vec!["one-count", "one-count"]);
        assert_eq!((f[0].line, f[0].col), (5, 48));
        assert_eq!((f[1].line, f[1].col), (6, 42));
        // The planner's estimator and the simulator count what they like.
        assert!(lint_rust_source("crates/core/src/plan/estimate.rs", src).is_empty());
        assert!(lint_rust_source("crates/oracle/src/sim/mod.rs", src).is_empty());
    }

    #[test]
    fn one_count_flags_a_render_in_the_round_loop_before_its_probe() {
        let src = concat!(
            "fn run_packs(&self) -> Out {\n",
            "    let early = |c: Call| { let w = self.render_call(c, mode)?; self.settle_hit(&b, &w.request) };\n",
            "    let render = |c: Call| { let r = self.keyed(c)?; if x { y }\n",
            "        match self.settle_hit(&b, &r) { Probe::Hit(h) => h, Probe::Miss(k) => self.render_work(r, mode) } };\n",
            "}\n",
            "fn render_call(&self, c: Call) -> Work { self.render_work(self.keyed(c), m) } // .render_work(..) in prose\n",
            "fn estimate_task(&self) { self.render_and_estimate(&mut r); }\n",
            "#[cfg(test)]\n",
            "mod tests { fn run_packs() { e.render_call(c, m); e.settle_hit(b, r); } }\n",
        );
        let f = lint_rust_source("crates/core/src/exec.rs", src);
        assert_eq!(codes(&f), vec!["one-count"]);
        assert_eq!((f[0].line, f[0].col), (2, 41));
        // Only the engine's round loop is held to probe-then-render.
        assert!(lint_rust_source("crates/core/src/serve.rs", src).is_empty());
    }

    #[test]
    fn no_spawn_per_call_flags_thread_starts_in_the_router_outside_its_two_homes() {
        let src = concat!(
            "fn spawn_attempt(&self, tx: Sender) { std::thread::spawn(move || { let _ = tx.send(1); }); }\n",
            "fn start_helper(shared: Arc<Shared>) -> JoinHandle<()> { std::thread::spawn(move || shared.run()) }\n",
            "impl HedgedCall { fn launch_twin(self: Arc<Self>) { if x { y } std::thread::spawn(move || self.run()); } }\n",
            "fn launch_twin_early(call: Arc<Call>) { let _ = std::thread::Builder::new(); std::thread::scope(|_| ()); }\n",
            "fn fine() { std::thread::sleep(d); } // thread::spawn in a comment\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { std::thread::spawn(|| ()); } }\n",
        );
        let f = lint_rust_source("crates/oracle/src/route.rs", src);
        assert_eq!(codes(&f), vec!["no-spawn-per-call"; 3]);
        let mut at: Vec<(usize, usize)> = f.iter().map(|f| (f.line, f.col)).collect();
        at.sort_unstable();
        assert_eq!(at, vec![(1, 44), (4, 54), (4, 83)]);
        // The rest of the crate (and the engine's pump) start threads under
        // their own rules.
        assert!(lint_rust_source("crates/oracle/src/client.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/src/exec.rs", src).is_empty());
    }

    #[test]
    fn one_fingerprint_flags_a_second_hashing_in_the_client_and_any_in_the_dispatcher() {
        let src = concat!(
            "pub fn probe(&self, r: &Req) -> Probe { if x { y } let key = r.fingerprint(); self.look(key) }\n",
            "pub fn probe_key(&self, r: &Req) -> Option<Resp> { self.shard(r.fingerprint()) }\n",
            "pub fn complete(&self, r: &Req) -> Resp { self.call(r, r.fingerprint()) }\n",
            "fn keyed(&self, r: &Req, key: u64) -> Resp { self.call(r, key) } // .fingerprint() in prose\n",
            "// lint: allow(one-fingerprint) — seeding is not a request in flight\n",
            "pub fn seed(&self, r: &Req) { self.insert(r.fingerprint()) }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(r: &Req) { r.fingerprint(); } }\n",
        );
        let f = lint_rust_source("crates/oracle/src/client.rs", src);
        assert_eq!(codes(&f), vec!["one-fingerprint", "one-fingerprint"]);
        assert_eq!((f[0].line, f[0].col), (2, 64));
        assert_eq!((f[1].line, f[1].col), (3, 57));
        // The dispatcher and the serve door have no home: every call fires.
        for caller in ["crates/core/src/exec.rs", "crates/core/src/serve.rs"] {
            let f = lint_rust_source(caller, src);
            assert_eq!(codes(&f), vec!["one-fingerprint"; 3], "{caller}");
            assert_eq!(f[0].line, 1);
        }
        // The store, the simulator and the planner hash what they like.
        assert!(lint_rust_source("crates/oracle/src/store.rs", src).is_empty());
        assert!(lint_rust_source("crates/core/src/plan/planner.rs", src).is_empty());
    }

    #[test]
    fn one_fingerprint_flags_a_second_task_key_site() {
        let src = concat!(
            "fn task_key(&self, t: &Task) -> Result<u64, E> { if x { y } let k = self.corpus.text_key(id); k }\n",
            "fn quick_key(&self, id: ItemId) -> u64 { combine(self.render_key, self.corpus.text_key(id)) }\n",
            "fn keyed(&self, c: Call) -> Req { Req { task_key: Some(self.task_key(&c.0)) } } // .text_key(..) in prose\n",
            "fn task_key_again(&self, t: &Task) -> u64 { t.fingerprint() }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(c: &Corpus) { c.text_key(ItemId(1)); } }\n",
        );
        let f = lint_rust_source("crates/core/src/exec.rs", src);
        assert_eq!(codes(&f), vec!["one-fingerprint"; 2]);
        let mut at: Vec<(usize, usize)> = f.iter().map(|f| (f.line, f.col)).collect();
        at.sort_unstable();
        // The second key site's text fingerprint, and a task fingerprint
        // outside the one key site.
        assert_eq!(at, vec![(2, 78), (4, 46)]);
        // Elsewhere in the crate there is no key site: every text
        // fingerprint fires (and the planner hashes what it likes).
        let f = lint_rust_source("crates/core/src/plan/estimate.rs", src);
        assert_eq!(codes(&f), vec!["one-fingerprint"; 2]);
        // The store and the tests read what they like.
        assert!(lint_rust_source("crates/oracle/src/store.rs", src).is_empty());
        assert!(lint_rust_source("tests/task_key.rs", src).is_empty());
    }

    #[test]
    fn one_settle_flags_a_client_probe_in_core_outside_the_settle_helper_and_the_worker() {
        let src = concat!(
            "fn settle_hit(&self, w: Work) -> Rendered { if x { y } match self.client.probe(&w.request) { _ => z } }\n",
            "fn execute(&self, job: &Job) -> Item { if let Some(k) = key { self.client.probe_key(k) } else { self.client.probe(r) } }\n",
            "fn enqueue(&self, w: Work) { let hit = self.client.probe(&w.request); }\n",
            "fn settle_hit_early(&self, k: u64) { self.client.probe_key(k); self.probe_count(); }\n",
            "fn fine(&self) { self.client.stats(); } // .probe(..) in prose\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(c: &Client) { c.probe(&r); c.probe_key(1); } }\n",
        );
        let f = lint_rust_source("crates/core/src/exec.rs", src);
        assert_eq!(codes(&f), vec!["one-settle"; 3]);
        let mut at: Vec<(usize, usize)> = f.iter().map(|f| (f.line, f.col)).collect();
        at.sort_unstable();
        // The worker's `.probe(r)` fires: it only re-checks a key.
        assert_eq!(at, vec![(2, 108), (3, 51), (4, 49)]);
        // Elsewhere in the crate there is no home: every probe fires.
        let f = lint_rust_source("crates/core/src/serve.rs", src);
        assert_eq!(codes(&f), vec!["one-settle"; 5]);
        // The client and the benchmark probe what they like.
        assert!(lint_rust_source("crates/oracle/src/client.rs", src).is_empty());
        assert!(lint_rust_source("benchmark/src/bin/e2e/main.rs", src).is_empty());
    }

    #[test]
    fn no_format_push_flags_formatted_temporaries_in_the_renderer() {
        let src = concat!(
            "fn lines(out: &mut String) {\n",
            "    out.push_str(&format!(\"{}. {}\\n\", 1, \"x\"));\n",
            "    out.push_str(\n        &format!(\"{}\", 2),\n    );\n",
            "    out.push_str(\"push_str(&format!(..)) in a string\"); out.push_str(label);\n",
            "    let _ = write!(out, \"{}\", 3);\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(o: &mut String) { o.push_str(&format!(\"{}\", 4)); } }\n",
        );
        let f = lint_rust_source("crates/core/src/template.rs", src);
        assert_eq!(codes(&f), vec!["no-format-push", "no-format-push"]);
        assert_eq!((f[0].line, f[0].col), (2, 8));
        assert_eq!(f[1].line, 3);
        // Only the renderer is held to it.
        assert!(lint_rust_source("crates/core/src/plan/explain.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_fn_item_is_exempt_but_following_code_is_not() {
        let src = concat!(
            "#[cfg(test)]\n",
            "fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "fn lib(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let f = lint_rust_source("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec!["no-unwrap"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn one_baseline_flags_baselines_outside_benchmark_and_every_knob_spelling() {
        let files: Vec<PathBuf> = [
            "BENCH_exec.json",
            "crates/bench/BENCH_x.json",
            "benchmark/BENCH_y.json",
        ]
        .iter()
        .map(PathBuf::from)
        .collect();
        let f = lint_baseline_files(&files);
        assert_eq!(codes(&f), vec!["one-baseline"; 2]);
        assert_eq!(f[0].path, "BENCH_exec.json");
        assert_eq!(f[1].path, "crates/bench/BENCH_x.json");

        let knob = ONE_BASELINE_KNOB;
        let src = format!(
            "let p = std::env::var(\"{knob}\");\n// run with {knob}=out.json; {knob} again\nlet q = 1;\n"
        );
        let f = lint_baseline_knob("crates/shims/criterion/src/lib.rs", &src);
        assert_eq!(codes(&f), vec!["one-baseline"; 3]);
        let at: Vec<(usize, usize)> = f.iter().map(|f| (f.line, f.col)).collect();
        assert_eq!(at, vec![(1, 24), (2, 13), (2, 38)]);
        assert!(lint_baseline_knob(
            "crates/shims/criterion/src/lib.rs",
            "env_ms(\"CRITERION_MEASURE_MS\", 200)\n"
        )
        .is_empty());
    }

    /// `(path, line, col)` of every `pub-has-caller` finding over `files`.
    fn uncalled(files: &[(&str, &str)]) -> Vec<(String, usize, usize)> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        lint_pub_callers(&sources)
            .into_iter()
            .map(|f| (f.path, f.line, f.col))
            .collect()
    }

    fn at(path: &str, line: usize, col: usize) -> Vec<(String, usize, usize)> {
        vec![(path.to_string(), line, col)]
    }

    #[test]
    fn pub_has_caller_flags_a_pub_item_nothing_outside_its_crate_names() {
        let lib = concat!(
            "pub fn orphan() {}\n",
            "pub fn called() {}\n",
            "pub(crate) fn internal() {}\n",
            "fn private() { orphan(); internal(); }\n",
        );
        let f = uncalled(&[
            ("crates/core/src/x.rs", lib),
            ("crates/core/src/y.rs", "fn same_crate() { orphan(); }\n"),
            ("crates/oracle/src/z.rs", "fn other_crate() { called(); }\n"),
        ]);
        assert_eq!(f, at("crates/core/src/x.rs", 1, 8));
        // Only the five library crates are held to it.
        for rel in [
            "crates/bench/src/lib.rs",
            "tools/repolint/src/main.rs",
            "tests/t.rs",
        ] {
            assert!(uncalled(&[(rel, lib)]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn pub_has_caller_counts_examples_benches_benchmark_the_facade_and_doc_tests_not_tests() {
        let lib = "pub fn item() {}\n";
        let use_it = "fn use_it() { crowdprompt_core::x::item(); }\n";
        for caller in [
            "examples/e.rs",
            "crates/core/benches/b.rs",
            "crates/bench/src/bin/table1.rs",
            "benchmark/src/bin/e2e/main.rs",
            "crates/facade/src/lib.rs",
        ] {
            let f = uncalled(&[("crates/core/src/x.rs", lib), (caller, use_it)]);
            assert!(f.is_empty(), "{caller} is a caller: {f:?}");
        }
        // A test is no caller: neither an integration-test tree nor a
        // `#[cfg(test)]` module in another crate's `src`.
        for caller in ["tests/t.rs", "crates/core/tests/prop.rs"] {
            let f = uncalled(&[("crates/core/src/x.rs", lib), (caller, use_it)]);
            assert_eq!(f, at("crates/core/src/x.rs", 1, 8), "{caller} is a test");
        }
        let unit_test = format!("#[cfg(test)]\nmod tests {{\n    {use_it}}}\n");
        let f = uncalled(&[
            ("crates/core/src/x.rs", lib),
            ("crates/oracle/src/y.rs", &unit_test),
        ]);
        assert_eq!(f, at("crates/core/src/x.rs", 1, 8), "a unit test is a test");
        let documented = "/// ```\n/// crowdprompt_core::x::item();\n/// ```\npub fn item() {}\n";
        assert!(uncalled(&[("crates/core/src/x.rs", documented)]).is_empty());
        // A block rustdoc does not compile is prose, not a caller.
        for tag in ["text", "ignore", "rust,ignore", "sh"] {
            let prose = format!("/// ```{tag}\n/// item();\n/// ```\npub fn item() {{}}\n");
            let f = uncalled(&[("crates/core/src/x.rs", &prose)]);
            assert_eq!(f, at("crates/core/src/x.rs", 4, 8), "{tag}");
        }
    }

    #[test]
    fn pub_has_caller_ignores_names_in_another_crates_comments_and_strings() {
        let lib = "pub struct Lonely;\n";
        let prose = "// Lonely, in a comment\nfn f() -> &'static str { \"Lonely\" }\n";
        let f = uncalled(&[
            ("crates/metrics/src/x.rs", lib),
            ("crates/embed/src/y.rs", prose),
            ("examples/e.rs", "/* Lonely */ fn e() {}\n"),
        ]);
        assert_eq!(f, at("crates/metrics/src/x.rs", 1, 12));
    }

    #[test]
    fn pub_has_caller_pragma_names_an_exposing_item_that_has_a_caller() {
        let caller = ("examples/e.rs", "fn e() { let _ = stats(); }\n");
        let bare = "pub struct Stats;\npub fn stats() -> Stats { Stats }\n";
        let f = uncalled(&[("crates/oracle/src/x.rs", bare), caller]);
        assert_eq!(f, at("crates/oracle/src/x.rs", 1, 12));
        let exposed = concat!(
            "#[derive(Debug)]\n",
            "// lint: allow(pub-has-caller) — exposed by `Client::stats`\n",
            "pub struct Stats;\n",
            "pub fn stats() -> Stats { Stats }\n",
        );
        assert!(uncalled(&[("crates/oracle/src/x.rs", exposed), caller]).is_empty());
        // A pragma that names no exposer, or one nothing outside calls,
        // holds nothing.
        for pragma in [
            "// lint: allow(pub-has-caller) — needed\n",
            "// lint: allow(pub-has-caller) — exposed by `hidden`\n",
        ] {
            let src =
                format!("{pragma}pub struct Stats;\npub(crate) fn hidden() -> Stats {{ Stats }}\n");
            let f = uncalled(&[("crates/oracle/src/x.rs", &src), caller]);
            assert_eq!(f, at("crates/oracle/src/x.rs", 2, 12), "{pragma}");
        }
    }

    #[test]
    fn pub_has_caller_never_fires_on_trait_impl_methods_or_test_code() {
        let lib = concat!(
            "pub struct Shown;\n",
            "impl std::fmt::Display for Shown {\n",
            "    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n",
            "}\n",
            "pub trait Render { fn render(&self) -> String; }\n",
            "impl Render for Shown { fn render(&self) -> String { String::new() } }\n",
            "#[cfg(test)]\n",
            "mod tests { pub fn helper() {} }\n",
        );
        let caller = (
            "crates/data/src/y.rs",
            "fn y(r: &dyn Render) { let _ = Shown; }\n",
        );
        assert!(uncalled(&[("crates/core/src/x.rs", lib), caller]).is_empty());
    }

    #[test]
    fn pub_items_reads_qualifiers_and_skips_restricted_visibility() {
        let src = concat!(
            "pub const fn a() {}\npub unsafe fn b() {}\npub const C: u8 = 1;\n",
            "pub static mut D: u8 = 0;\npub(crate) fn e() {}\npub use x::F;\npub mod g;\n",
            "struct H { pub field: u8 }\npub trait I {}\npub type J = u8;\npub enum K {}\n",
        );
        let items: Vec<(&str, String)> = pub_items(&mask_source(src))
            .into_iter()
            .map(|(_, kind, name)| (kind, name))
            .collect();
        let want = [
            ("fn", "a"),
            ("fn", "b"),
            ("const", "C"),
            ("static", "D"),
            ("trait", "I"),
            ("type", "J"),
            ("enum", "K"),
        ];
        assert_eq!(
            items,
            want.map(|(kind, name)| (kind, name.to_string())).to_vec()
        );
    }

    #[test]
    fn self_reacquire_of_rules_on_own_source_is_clean() {
        // Dogfood: repolint's own main.rs must pass its own rules.
        let src = include_str!("main.rs");
        let f = lint_rust_source("tools/repolint/src/main.rs", src);
        assert!(f.is_empty(), "repolint fails its own lints: {f:?}");
    }
}
