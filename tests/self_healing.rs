//! Blackbox exit-code audit for the self-healing persistence paths,
//! driven through the real `sper` binary: degraded-but-recovered
//! situations (salvage with losses, `.prev`-fallback resume, stale tmp
//! cleanup) exit 0 with a warning; unrecoverable corruption exits 1
//! with a typed error; a malformed failpoint spec or a value flag
//! without its value is a usage error (exit 2). Operators script against
//! these codes — they are contract.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sper() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sper"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sper-heal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Streams a small dataset with a per-epoch checkpoint so the rotation
/// has produced both `ckpt` and `ckpt.prev` when it returns.
fn stream_with_checkpoints(ckpt: &Path, extra: &[&str]) -> Output {
    sper()
        .args(["stream", "census", "--scale", "0.2", "--batches", "3"])
        .args(["--epoch-budget", "40", "--threads", "1"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every", "1"])
        .args(extra)
        .output()
        .expect("spawn sper stream")
}

/// Flips one payload byte near the end of the file: container framing
/// still parses, the section CRC does not.
fn corrupt_tail(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read store");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(path, &bytes).expect("write corrupted store");
}

/// A corrupt primary with an intact `.prev`: resume succeeds from the
/// rotated generation, exits 0, and says so on stderr.
#[test]
fn resume_from_prev_fallback_exits_zero_with_a_warning() {
    let d = tmp_dir("prev-fallback");
    let ckpt = d.join("run.sper");
    let out = stream_with_checkpoints(&ckpt, &[]);
    assert!(
        out.status.success(),
        "seed stream failed: {}",
        stderr_of(&out)
    );
    assert!(
        ckpt.with_extension("sper.prev").exists(),
        "rotation produced no .prev"
    );

    corrupt_tail(&ckpt);
    let out = sper()
        .args(["resume", ckpt.to_str().unwrap(), "--epoch-budget", "40"])
        .output()
        .expect("spawn sper resume");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fallback resume must exit 0: {}",
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains(".prev"),
        "fallback must be announced: {}",
        stderr_of(&out)
    );
}

/// Both generations corrupt: resume exits 1 with the primary's typed
/// error on stderr — not a panic, not a stack trace.
#[test]
fn resume_with_both_generations_corrupt_exits_one() {
    let d = tmp_dir("both-torn");
    let ckpt = d.join("run.sper");
    let out = stream_with_checkpoints(&ckpt, &[]);
    assert!(
        out.status.success(),
        "seed stream failed: {}",
        stderr_of(&out)
    );

    corrupt_tail(&ckpt);
    corrupt_tail(&ckpt.with_extension("sper.prev"));
    let out = sper()
        .args(["resume", ckpt.to_str().unwrap()])
        .output()
        .expect("spawn sper resume");
    assert_eq!(
        out.status.code(),
        Some(1),
        "unrecoverable corruption is exit 1"
    );
    let err = stderr_of(&out);
    assert!(err.contains("checksum"), "typed CRC error expected: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

/// Salvage on a store with one rotted section: exit 0, the loss named
/// on stderr, the recovered sections written out and loadable.
#[test]
fn salvage_with_losses_exits_zero_and_recovers_the_rest() {
    let d = tmp_dir("salvage");
    let snap = d.join("snap.sper");
    let out = sper()
        .args(["snapshot", "census", "--scale", "0.2"])
        .args(["--out", snap.to_str().unwrap()])
        .output()
        .expect("spawn sper snapshot");
    assert!(
        out.status.success(),
        "seed snapshot failed: {}",
        stderr_of(&out)
    );

    corrupt_tail(&snap);
    let rec = d.join("recovered.sper");
    let out = sper()
        .args(["snapshot", snap.to_str().unwrap(), "--salvage"])
        .args(["--out", rec.to_str().unwrap()])
        .output()
        .expect("spawn sper snapshot --salvage");
    assert_eq!(
        out.status.code(),
        Some(0),
        "partial salvage is exit 0: {}",
        stderr_of(&out)
    );
    assert!(
        stdout_of(&out).contains("recovered"),
        "summary on stdout: {}",
        stdout_of(&out)
    );
    assert!(
        stderr_of(&out).contains("lost section"),
        "losses warned on stderr: {}",
        stderr_of(&out)
    );
    // The recovered store is a valid container: salvaging it again
    // reports zero losses.
    let out = sper()
        .args(["snapshot", rec.to_str().unwrap(), "--salvage"])
        .output()
        .expect("re-salvage recovered store");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        !stderr_of(&out).contains("lost section"),
        "recovered store must be clean: {}",
        stderr_of(&out)
    );
}

/// A smashed header leaves nothing to salvage: exit 1 with a typed
/// container error.
#[test]
fn salvage_of_a_smashed_header_exits_one() {
    let d = tmp_dir("salvage-fatal");
    let junk = d.join("junk.sper");
    std::fs::write(&junk, b"not a sper store at all").unwrap();
    let out = sper()
        .args(["snapshot", junk.to_str().unwrap(), "--salvage"])
        .output()
        .expect("spawn sper snapshot --salvage");
    assert_eq!(out.status.code(), Some(1), "header damage is unrecoverable");
    assert!(
        !stderr_of(&out).contains("panicked"),
        "typed error, not a panic"
    );
}

/// A stale `.sper.tmp` from a killed writer is purged when the store is
/// next opened, and does not affect the resume.
#[test]
fn stale_tmp_is_purged_on_resume() {
    let d = tmp_dir("stale-tmp");
    let ckpt = d.join("run.sper");
    let out = stream_with_checkpoints(&ckpt, &[]);
    assert!(
        out.status.success(),
        "seed stream failed: {}",
        stderr_of(&out)
    );

    let tmp = ckpt.with_extension("sper.tmp");
    std::fs::write(&tmp, b"half-written garbage from a dead process").unwrap();
    let out = sper()
        .args(["resume", ckpt.to_str().unwrap(), "--epoch-budget", "40"])
        .output()
        .expect("spawn sper resume");
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume failed: {}",
        stderr_of(&out)
    );
    assert!(!tmp.exists(), "opening the store must purge the stale tmp");
}

/// An injected checkpoint outage under `--on-checkpoint-failure
/// continue` degrades gracefully (exit 0, warning); the default abort
/// policy turns the same outage into exit 1.
#[test]
fn checkpoint_failure_policy_controls_the_exit_code() {
    let d = tmp_dir("policy");
    // err fires on every attempt — retries cannot absorb it.
    let outage = "stream.checkpoint=err(io)";

    let ckpt = d.join("continue.sper");
    let out = stream_with_checkpoints(
        &ckpt,
        &[
            "--on-checkpoint-failure",
            "continue",
            "--failpoints",
            outage,
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "continue policy: {}",
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains("warning"),
        "degradation must be announced: {}",
        stderr_of(&out)
    );

    let ckpt = d.join("abort.sper");
    let out = stream_with_checkpoints(&ckpt, &["--failpoints", outage]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "abort policy: {}",
        stderr_of(&out)
    );
}

/// A malformed `--failpoints` spec is a usage error: exit 2, before any
/// work happens.
#[test]
fn malformed_failpoint_spec_is_a_usage_error() {
    let out = sper()
        .args(["stream", "census", "--failpoints", "store.rename=banana"])
        .output()
        .expect("spawn sper stream");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad spec is exit 2: {}",
        stderr_of(&out)
    );
}

/// A value flag followed by another flag has no value: exit 2, and
/// nothing is written — not the profiles to a file named `--truth`.
#[test]
fn value_flag_followed_by_a_flag_is_a_usage_error() {
    let d = tmp_dir("flag-then-flag");
    let out = sper()
        .current_dir(&d)
        .args(["generate", "census", "--scale", "0.1"])
        .args(["--out", "--truth", "t.csv"])
        .output()
        .expect("spawn sper generate");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--out without a value is exit 2: {}",
        stderr_of(&out)
    );
    assert!(!d.join("--truth").exists(), "profiles went to `--truth`");
    assert!(!d.join("t.csv").exists(), "truth written despite the error");
    let _ = std::fs::remove_dir_all(&d);
}

/// A value flag last on the line is a usage error (exit 2), not silently
/// dropped: a stream asked for `--emit-pairs` or `--trace` must not run
/// without writing them.
#[test]
fn trailing_value_flag_is_a_usage_error() {
    for name in ["--emit-pairs", "--trace"] {
        let out = sper()
            .args(["stream", "census", "--scale", "0.1", "--batches", "2"])
            .arg(name)
            .output()
            .expect("spawn sper stream");
        assert_eq!(
            out.status.code(),
            Some(2),
            "trailing {name} is exit 2: {}",
            stderr_of(&out)
        );
    }
}
