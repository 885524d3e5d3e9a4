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
//! | `bench-keys`  | every `BENCH_*.json` series key is guarded by the baseline script|
//! | `no-deprecated`| no `#[deprecated]` items and no `allow(deprecated)`, tests included|
//! | `one-pump`    | `crates/core/src` starts threads in `exec.rs`'s pump and nowhere else|
//! | `one-retry`   | `crates/oracle/src` calls `retry_delay` in `route.rs`'s loop and nowhere else|
//! | `one-engine`  | `crates/core/src` calls `Engine::new` in `session.rs` (and `exec.rs`) and nowhere else|
//! | `one-judge`   | `crates/core/src/ops` calls `run_many` in `judge.rs`'s strict step and nowhere else|
//! | `one-bill`    | `plan/estimate.rs` names no `*Strategy::` variant; `crates/core/src/ops` defines no `estimated_calls`/`packed_calls`|
//! | `one-count`   | `crates/core/src/exec.rs` calls `count_tokens` in `render_and_estimate` and nowhere else|
//! | `no-format-push`| no `push_str(&format!(..))` in `crates/core/src/template.rs`: a prompt is written into one buffer|
//! | `one-layout`  | no nested `Vec<Vec<f32>>` / `[Vec<f32>]` in library code under `crates/{embed,core,oracle}/src` but `VectorStore::from_rows`; `crates/embed/src` defines no `fn nearest*`|
//! | `no-spawn-per-call`| `crates/oracle/src/route.rs` starts threads in `start_helper` and `launch_twin` and nowhere else|
//! | `one-fingerprint`| `crates/oracle/src/client.rs` calls `.fingerprint()` in `probe` and nowhere else; `crates/core/src/{exec,serve}.rs` never do|
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

/// The one file under [`ONE_RETRY_SCOPE`] allowed to schedule a retry
/// sleep: the router's loop is the crate's only transport retry loop, and
/// every client dispatches through it.
const ONE_RETRY_SCOPE: &str = "crates/oracle/src/";
const ONE_RETRY_HOME: &str = "crates/oracle/src/route.rs";

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
/// coming back (`VectorStore::from_rows`, the one validated conversion from
/// nested rows, carries the pragma); a `fn nearest*` under
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
/// reads it there instead of tokenizing the prompt again.
const ONE_COUNT_HOME: &str = "crates/core/src/exec.rs";
const ONE_COUNT_FN: &str = "render_and_estimate";

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
/// ([`ONE_FINGERPRINT_CALLERS`]), hashes the same prompt again.
const ONE_FINGERPRINT_HOME: &str = "crates/oracle/src/client.rs";
const ONE_FINGERPRINT_FN: &str = "probe";
const ONE_FINGERPRINT_CALLERS: &[&str] = &["crates/core/src/exec.rs", "crates/core/src/serve.rs"];

const BASELINE_GUARD: &str = "ci/check_bench_baselines.sh";

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
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = PathBuf::from(root);
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
    for rel in &rust_files {
        let rel_str = unix_path(rel);
        if VENDORED.iter().any(|v| rel_str.starts_with(v)) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel_str}: {e}"))?;
        findings.extend(lint_rust_source(&rel_str, &src));
    }
    findings.extend(lint_bench_keys(root, &bench_jsons)?);
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
        for offset in find_token(&masked, "retry_delay") {
            // A call, not the definition in `retry.rs`.
            if library_code(offset) && !follows_fn(&masked, offset) {
                push(
                    "one-retry",
                    "`retry_delay(..)` schedules a second transport retry loop beside the router's".to_string(),
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
        let home = (rel == ONE_FINGERPRINT_HOME)
            .then(|| find_fn_body(&masked, ONE_FINGERPRINT_FN))
            .flatten();
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
                        "take or return flat row-major `f32`s (`Embedder::embed_all_flat`, `VectorStore::from_flat`, `Queries::Flat`); `VectorStore::from_rows` is the one conversion from nested rows",
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
// bench-keys
// ---------------------------------------------------------------------------

/// Every `"name": "<key>"` series in a `BENCH_*.json` baseline must appear in
/// `ci/check_bench_baselines.sh` — otherwise a renamed or added series
/// silently escapes the regression guard.
fn lint_bench_keys(root: &Path, jsons: &[PathBuf]) -> Result<Vec<Finding>, String> {
    if jsons.is_empty() {
        return Ok(Vec::new());
    }
    let guard = std::fs::read_to_string(root.join(BASELINE_GUARD)).unwrap_or_default();
    let mut findings = Vec::new();
    for rel in jsons {
        let rel_str = unix_path(rel);
        let text =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel_str}: {e}"))?;
        for (key, line, col) in bench_series_keys(&text) {
            if guard.is_empty() {
                findings.push(Finding {
                    rule: "bench-keys",
                    message: format!(
                        "bench series `{key}` has no baseline guard ({BASELINE_GUARD} missing)"
                    ),
                    path: rel_str.clone(),
                    line,
                    col,
                    help: "add the guard script and a `require` line for this series",
                });
            } else if !guard.contains(&key) {
                findings.push(Finding {
                    rule: "bench-keys",
                    message: format!("bench series `{key}` is not guarded by {BASELINE_GUARD}"),
                    path: rel_str.clone(),
                    line,
                    col,
                    help: "add this series to the guard script's `require` list so regressions fail CI",
                });
            }
        }
    }
    Ok(findings)
}

/// Extracts `"name": "<key>"` values with their 1-indexed positions.
fn bench_series_keys(text: &str) -> Vec<(String, usize, usize)> {
    let mut keys = Vec::new();
    for (li, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut consumed = 0;
        while let Some(pos) = rest.find("\"name\"") {
            let after = &rest[pos + "\"name\"".len()..];
            let trimmed = after.trim_start();
            if let Some(value) = trimmed.strip_prefix(':') {
                let value = value.trim_start();
                if let Some(stripped) = value.strip_prefix('"') {
                    if let Some(end) = stripped.find('"') {
                        keys.push((stripped[..end].to_string(), li + 1, consumed + pos + 1));
                    }
                }
            }
            consumed += pos + 1;
            rest = &rest[pos + 1..];
        }
    }
    keys
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
    fn one_retry_flags_retry_delay_calls_in_oracle_outside_route() {
        let src = concat!(
            "fn again() { let _ = crate::retry::retry_delay(0, 1, None, 7, None, now); }\n",
            "pub fn retry_delay(backoff_ms: u64) -> u64 { let retry_delay_ms = backoff_ms; retry_delay_ms }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { let _ = retry_delay(0, 1, None, 7, None, now); } }\n",
        );
        let f = lint_rust_source("crates/oracle/src/client.rs", src);
        assert_eq!(codes(&f), vec!["one-retry"]);
        assert_eq!((f[0].line, f[0].col), (1, 36));
        // The definition (line 2) is not a call; the loop's home, other
        // crates, and test trees are out of scope.
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
    fn bench_keys_extracts_series_names() {
        let json = "[{\"name\":\"exec_cold\",\"ns\":1},\n {\"name\": \"exec_warm\", \"ns\": 2}]\n";
        let keys = bench_series_keys(json);
        assert_eq!(
            keys.iter().map(|(k, _, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["exec_cold", "exec_warm"]
        );
        assert_eq!(keys[0].1, 1);
        assert_eq!(keys[1].1, 2);
    }

    #[test]
    fn self_reacquire_of_rules_on_own_source_is_clean() {
        // Dogfood: repolint's own main.rs must pass its own rules.
        let src = include_str!("main.rs");
        let f = lint_rust_source("tools/repolint/src/main.rs", src);
        assert!(f.is_empty(), "repolint fails its own lints: {f:?}");
    }
}
