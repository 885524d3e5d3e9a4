//! End-to-end negative tests: seed a synthetic repo with one violation of
//! every rule, run the real `repolint` binary over it, and assert each rule
//! fires with rustc-style positions — then prove the pragma escape hatch and
//! the clean-tree exit code. Finally, dogfood: the binary must run clean on
//! this repository itself (that is the CI invariant this tool exists for).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

struct TempRepo {
    root: PathBuf,
}

impl TempRepo {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("repolint-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp repo");
        TempRepo { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create parent dirs");
        }
        std::fs::write(path, contents).expect("write fixture");
    }
}

impl Drop for TempRepo {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn run_repolint(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repolint"))
        .arg(root)
        .output()
        .expect("spawn repolint")
}

/// A synthetic repo with one violation of every rule.
fn seeded_repo(tag: &str) -> TempRepo {
    let repo = TempRepo::new(tag);
    repo.write(
        "crates/core/src/bad_sync.rs",
        "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock, Condvar};\n",
    );
    repo.write(
        "crates/core/src/bad_unwrap.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\npub fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n",
    );
    repo.write(
        "crates/core/src/bad_clock.rs",
        "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    repo.write(
        "crates/core/src/bad_money.rs",
        "pub fn same(spend_usd: f64, budget_usd: f64) -> bool { spend_usd == budget_usd }\n",
    );
    repo.write(
        "crates/core/src/bad_loop.rs",
        "pub fn drive() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
    );
    repo.write(
        "crates/core/src/exec.rs",
        concat!(
            "pub fn pump() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
            "fn render_and_estimate(p: &str) -> u32 { count_tokens(p) }\n",
            "fn fits(p: &str, window: u32) -> bool { count_tokens(p) <= window }\n",
            "fn execute(r: &Request) -> u64 { r.fingerprint() }\n",
        ),
    );
    repo.write(
        "crates/oracle/src/client.rs",
        concat!(
            "pub fn probe(r: &Request) -> u64 { r.fingerprint() }\n",
            "pub fn complete(r: &Request) -> u64 { r.fingerprint() }\n",
        ),
    );
    repo.write(
        "crates/core/src/template.rs",
        "pub fn line(out: &mut String, n: usize) { out.push_str(&format!(\"{n}.\\n\")); }\n",
    );
    repo.write(
        "crates/oracle/src/bad_retry.rs",
        "pub fn again(d: Option<std::time::Instant>) { let _ = crate::retry::retry_delay(0, 1, None, 7, d, d); }\n",
    );
    repo.write(
        "crates/oracle/src/route.rs",
        concat!(
            "pub fn complete(d: Option<std::time::Instant>) { let _ = crate::retry::retry_delay(0, 1, None, 7, d, d); }\n",
            "fn start_helper() { let _ = std::thread::spawn(|| ()); }\n",
            "fn spawn_attempt() { let _ = std::thread::spawn(|| ()); }\n",
        ),
    );
    repo.write(
        "crates/oracle/src/retry.rs",
        "pub fn retry_delay(backoff_ms: u64) -> u64 { backoff_ms }\n",
    );
    repo.write(
        "crates/core/src/bad_engine.rs",
        "pub fn tier(c: Client, corpus: Corpus) -> Engine { Engine::new(c, corpus) }\n",
    );
    repo.write(
        "crates/core/src/session.rs",
        "pub fn build(c: Client, corpus: Corpus) -> Engine { Engine::new(c, corpus) }\n",
    );
    repo.write(
        "crates/core/src/ops/bad_judge.rs",
        "pub fn playoff(e: &Engine, tasks: Vec<Task>) -> R { e.run_many(tasks) }\n",
    );
    repo.write(
        "crates/core/src/ops/judge.rs",
        "pub fn ask(e: &Engine, tasks: Vec<Task>) -> R { e.run_many(tasks) }\n",
    );
    repo.write(
        "crates/core/src/plan/estimate.rs",
        "pub fn cost(s: &SortStrategy) -> u64 { match s { SortStrategy::Pairwise => 1, _ => 0 } }\n",
    );
    repo.write(
        "crates/core/src/ops/bad_bill.rs",
        "pub fn estimated_calls(n: usize) -> u64 { n as u64 }\n",
    );
    repo.write(
        "crates/embed/src/bad_layout.rs",
        "pub fn embed_all(texts: &[&str]) -> Vec<Vec<f32>> { Vec::new() }\npub fn nearest(q: &[f32]) {}\n",
    );
    repo.write(
        "crates/embed/src/store.rs",
        "// lint: allow(one-layout) — the one validated conversion from nested rows\npub fn from_rows(rows: Vec<Vec<f32>>) {}\n",
    );
    repo.write(
        "tests/bad_shim.rs",
        "#![allow(deprecated)]\n\n#[deprecated(note = \"old\")]\nfn old() {}\n",
    );
    repo.write(
        "crates/shims/vendored/src/lib.rs",
        "#[deprecated]\npub fn upstream_old() {}\n",
    );
    // A baseline beside the crates, one inside `benchmark/`, and the shim
    // knob that wrote them, in a vendored shim.
    repo.write(
        "crates/bench/BENCH_seeded.json",
        "{\"name\":\"group/series\",\"ns\":1}\n",
    );
    repo.write(
        "benchmark/BENCH_kept.json",
        "{\"name\":\"group/series\",\"ns\":1}\n",
    );
    let knob = concat!("CRITERION", "_JSON");
    repo.write(
        "crates/shims/criterion/src/lib.rs",
        &format!("pub fn out() -> Option<String> {{ std::env::var(\"{knob}\").ok() }}\n"),
    );
    // Every public fixture above has a caller; the four below test the
    // caller rule itself: one nothing names, one named only in another
    // crate's comment and string, and an exposed type without and with the
    // pragma that names what exposes it.
    repo.write(
        "tests/seeded_callers.rs",
        concat!(
            "fn call_them() {\n",
            "    (f, g, t, same, drive, pump, probe, complete, line, again, retry_delay);\n",
            "    (tier, build, playoff, ask, cost, estimated_calls, embed_all, nearest, from_rows);\n",
            "    (mentions, bare, covered, documented);\n",
            "}\n",
        ),
    );
    repo.write("crates/data/src/orphan.rs", "pub fn orphan() {}\n");
    repo.write(
        "crates/metrics/src/lonely.rs",
        "pub struct Lonely;\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
    );
    repo.write(
        "crates/embed/src/mentions.rs",
        "// Lonely\npub fn mentions() -> &'static str { \"Lonely\" }\n",
    );
    repo.write(
        "crates/oracle/src/exposed.rs",
        concat!(
            "pub struct Bare;\n",
            "pub fn bare() -> Bare { Bare }\n",
            "// lint: allow(pub-has-caller) — exposed by `covered`\n",
            "pub struct Covered;\n",
            "pub fn covered() -> Covered { Covered }\n",
        ),
    );
    repo.write(
        "crates/core/src/documented.rs",
        "/// ```\n/// crowdprompt_core::documented::documented();\n/// ```\npub fn documented() {}\n",
    );
    repo.write("crates/core/src/frozen.rs", "pub fn frozen_caller() {}\n");
    repo.write("benchmark/src/main.rs", "fn main() { frozen_caller(); }\n");
    repo
}

#[test]
fn seeded_violations_of_every_rule_fail_with_positions() {
    let repo = seeded_repo("seeded");
    let out = run_repolint(&repo.root);
    assert_eq!(out.status.code(), Some(1), "seeded violations must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "error[sync-facade]",
        "error[no-unwrap]",
        "error[clock]",
        "error[money-eq]",
        "error[one-baseline]",
        "error[no-deprecated]",
        "error[one-pump]",
        "error[one-retry]",
        "error[one-engine]",
        "error[one-judge]",
        "error[one-bill]",
        "error[one-layout]",
        "error[one-count]",
        "error[no-format-push]",
        "error[no-spawn-per-call]",
        "error[one-fingerprint]",
        "error[pub-has-caller]",
        "--> crates/data/src/orphan.rs:1:8",
        "--> crates/metrics/src/lonely.rs:1:12",
        "--> crates/oracle/src/exposed.rs:1:12",
        "--> crates/oracle/src/client.rs:2:40",
        "--> crates/core/src/exec.rs:4:35",
        "--> crates/oracle/src/route.rs:3:35",
        "--> crates/core/src/exec.rs:3:41",
        "--> crates/core/src/template.rs:1:46",
        "--> crates/embed/src/bad_layout.rs:1:37",
        "--> crates/embed/src/bad_layout.rs:2:8",
        "--> crates/core/src/ops/bad_judge.rs:1:55",
        "--> crates/core/src/plan/estimate.rs:1:50",
        "--> crates/core/src/ops/bad_bill.rs:1:8",
        "--> crates/core/src/bad_engine.rs:1:52",
        "--> crates/core/src/bad_loop.rs:1:23",
        "--> crates/oracle/src/bad_retry.rs:1:69",
        "--> tests/bad_shim.rs:1:1",
        "--> tests/bad_shim.rs:3:1",
        "--> crates/core/src/bad_sync.rs:1:16",
        "--> crates/core/src/bad_clock.rs:1:47",
        "--> crates/bench/BENCH_seeded.json:1:1",
        "--> crates/shims/criterion/src/lib.rs:1:49",
    ] {
        assert!(stderr.contains(needle), "missing {needle:?} in:\n{stderr}");
    }
    assert!(
        !stderr.contains("crates/shims/vendored"),
        "shims may mirror upstream deprecations:\n{stderr}"
    );
    assert!(
        !stderr.contains("benchmark/BENCH_kept.json"),
        "`benchmark/` is where the one measurement lives:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/core/src/exec.rs:1:"),
        "the pump's own scope is the one allowed:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/core/src/exec.rs:2:"),
        "the render is where a prompt's tokens are counted:\n{stderr}"
    );
    for home in [
        "crates/oracle/src/route.rs:1:",
        "crates/oracle/src/retry.rs",
    ] {
        assert!(
            !stderr.contains(home),
            "the router's loop and the definition are not findings:\n{stderr}"
        );
    }
    assert!(
        !stderr.contains("crates/oracle/src/route.rs:2:"),
        "the hedge helper's start is where the router starts a thread:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/oracle/src/client.rs:1:"),
        "the probe is where a request is hashed:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/core/src/session.rs"),
        "the session builder is where engines are made:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/core/src/ops/judge.rs"),
        "the judgement step is where strict batches are dispatched:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/embed/src/store.rs"),
        "`from_rows` is the one conversion from nested rows:\n{stderr}"
    );
    for called in [
        "crates/oracle/src/exposed.rs:4:",
        "crates/core/src/documented.rs",
        "crates/core/src/frozen.rs",
        "crates/embed/src/mentions.rs",
    ] {
        assert!(
            !stderr.contains(called),
            "a pragma'd exposure, a doc-test and `benchmark/` are callers:\n{stderr}"
        );
    }
    // Three lock names across the two imports, two unwrap forms, two
    // deprecation attributes, two copies of a bill, a second layout and a
    // second query, a second count, a formatted temporary, a thread per
    // call, a second hashing in the client and one in the dispatcher, three
    // public items without a caller, a baseline and a knob, one each of the
    // rest:
    // 3 + 2 + 2 + 2 + 2 + 2 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 3 + 2.
    assert!(
        stderr.contains("27 finding(s)"),
        "unexpected total in:\n{stderr}"
    );
}

#[test]
fn counts_report_lines_code_and_pub_items_per_library_crate() {
    let repo = seeded_repo("counts");
    let out = Command::new(env!("CARGO_BIN_EXE_repolint"))
        .arg("--counts")
        .arg(&repo.root)
        .output()
        .expect("spawn repolint");
    assert_eq!(out.status.code(), Some(0), "--counts lints nothing");
    // Test files, `#[cfg(test)]` items and the vendored shim are not
    // counted; comment lines count as lines but not as code.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            "crate      lines    code   pub\n",
            "core          23      20    15\n",
            "embed          6       4     4\n",
            "oracle        12      11     9\n",
            "metrics        1       1     1\n",
            "data           1       1     1\n",
            "total         43      37    30\n",
        )
    );
}

#[test]
fn pragmas_suppress_and_clean_tree_exits_zero() {
    let repo = TempRepo::new("clean");
    repo.write(
        "crates/core/src/lib.rs",
        concat!(
            "pub fn t() -> std::time::Instant {\n",
            "    std::time::Instant::now() // lint: allow(clock) — approved site\n",
            "}\n",
            "// lint: allow(no-unwrap) — invariant: caller checked\n",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn free_for_all() { None::<u8>.unwrap(); }\n",
            "}\n",
        ),
    );
    repo.write(
        "crates/core/tests/integration.rs",
        "fn t() { let _ = std::time::Instant::now(); Some(1).unwrap(); f(None); }\n",
    );
    let out = run_repolint(&repo.root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "expected clean, got:\n{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("repolint: clean"));
}

#[test]
fn this_repository_is_clean() {
    // The repo root is two levels above this crate's manifest dir. This is
    // the deny-by-default contract: adding an unjustified unwrap, raw clock
    // read, direct std::sync lock, raw money equality, or a bench baseline
    // outside `benchmark/` anywhere in the tree fails the test suite, not just the CI
    // lint job. The same goes for a `#[deprecated]` shim or an
    // `allow(deprecated)`, in tests and examples too, for a thread
    // started in `crates/core/src` outside `exec.rs`'s pump, for a
    // `retry_delay` call in `crates/oracle/src` outside `route.rs`'s loop,
    // for an `Engine::new` in `crates/core/src` outside `session.rs`, for a
    // `run_many` in `crates/core/src/ops` outside `judge.rs`, and for a
    // `*Strategy::` variant in `plan/estimate.rs` or an `estimated_calls` /
    // `packed_calls` definition in `crates/core/src/ops`, and for a nested
    // `Vec<Vec<f32>>` in library code under `crates/{embed,core,oracle}/src`
    // or a `fn nearest*` under `crates/embed/src`, for a `count_tokens`
    // call in `exec.rs` outside `render_and_estimate`, for a
    // `push_str(&format!(..))` in `template.rs`, for a thread started in
    // `route.rs` outside the hedge helper's start and the twin launch, and
    // for a `.fingerprint()` in `client.rs` outside `probe` or anywhere in
    // `exec.rs` and `serve.rs`, and for a `pub` item of a library crate
    // that nothing outside the crate names.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_repolint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "repolint findings:\n{stderr}");
}
