//! `mhm2rs assemble` with a k it cannot assemble with must exit non-zero
//! with a one-line message, never a panic and backtrace.

use std::path::PathBuf;
use std::process::Command;

/// Run `mhm2rs assemble --k <k>` on inputs that are never read (the k check
/// comes first), with backtraces on so a panic would show one. Returns the
/// exit code and stderr.
fn assemble_with_k(k: &str, iterative: bool) -> (Option<i32>, String) {
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("mhm2rs-cli-errors-{}-{k}-{iterative}", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mhm2rs"));
    cmd.args(["assemble", "--r1", "missing_1.fastq", "--r2", "missing_2.fastq", "--out"])
        .arg(&dir)
        .args(["--k", k])
        .env("RUST_BACKTRACE", "1");
    if iterative {
        cmd.arg("--iterative");
    }
    let out = cmd.output().expect("mhm2rs runs");
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(k: &str, iterative: bool, expect: &str) {
    let (code, stderr) = assemble_with_k(k, iterative);
    assert_eq!(code, Some(1), "--k {k}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "--k {k}: want one line, got {stderr:?}");
    assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
    assert!(stderr.contains("invalid configuration") && stderr.contains(expect), "{stderr}");
}

#[test]
fn k_zero_is_rejected() {
    assert_rejected("0", false, "k=0 is below the minimum");
}

#[test]
fn k_above_max_is_rejected() {
    assert_rejected("200", false, "k=200 is above the maximum");
}

#[test]
fn k_below_minimum_is_rejected() {
    assert_rejected("2", false, "k=2 is below the minimum");
    assert_rejected("2", true, "k=2 is below the minimum");
}

#[test]
fn even_k_is_rejected() {
    assert_rejected("32", false, "k=32 is even");
}
