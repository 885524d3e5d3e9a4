//! A journal writer killed mid-run needs no cleanup before the resume.
//!
//! Alone in its binary: the test spawns a child process, and between fork
//! and exec the child holds a copy of every descriptor the parent has open,
//! including another test's `<journal>.lock`. A kernel advisory lock lives
//! until its last copy closes, so a journal test running beside the spawn
//! could find its own lock still held by the child and fail to reopen.
//! Cargo runs test binaries one at a time, so nothing else is open here.

mod common;

use std::path::PathBuf;

use crowdprompt::core::ops::filter::FilterStrategy;

use common::*;

const KILLED_WRITER_ENV: &str = "CROWDPROMPT_KILLED_WRITER_JOURNAL";

/// Child half of `resume_after_a_killed_writer_needs_no_cleanup` (a no-op
/// in an ordinary run): journal a run to the path in the environment, then
/// die holding the journal, without running any `Drop`.
#[test]
fn killed_writer_child() {
    let Some(path) = std::env::var_os(KILLED_WRITER_ENV).map(PathBuf::from) else {
        return;
    };
    let (w, items) = keep_world(20);
    let session = journaled_session(&w, &items, 17, &path);
    run_filter(&session, &items, FilterStrategy::Single);
    std::process::abort();
}

#[test]
fn resume_after_a_killed_writer_needs_no_cleanup() {
    // SIGKILL, OOM, abort and power loss run no `Drop`, so the dead
    // writer's `<journal>.lock` sidecar is still on disk. The lock proper
    // is a kernel advisory lock that died with the process: the resume
    // opens the same path unattended.
    let (w, items) = keep_world(20);
    let path = temp_path("killed");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "killed_writer_child"])
        .env(KILLED_WRITER_ENV, &path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "the child must die, not exit: {status}");
    assert!(lock_path(&path).exists(), "no Drop ran; the sidecar stays");

    let reference_path = temp_path("killed-reference");
    let reference = run_filter(
        &journaled_session(&w, &items, 17, &reference_path),
        &items,
        FilterStrategy::Single,
    );
    let resumed = journaled_session(&w, &items, 17, &path);
    assert_eq!(
        run_filter(&resumed, &items, FilterStrategy::Single),
        reference
    );
    assert_eq!(resumed.engine().client().stats().calls(), 0);

    // While the resumed session lives, the lock is held for real.
    let err = journaled_builder(&w, &items, 17, &path)
        .try_build()
        .err()
        .expect("a live writer must refuse a second one");
    assert!(err.to_string().contains("already has a writer"), "{err}");
    cleanup(&path);
    cleanup(&reference_path);
}
