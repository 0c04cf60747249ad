//! `mhm2rs assemble` with a k it cannot assemble with, or with a flag it does
//! not know, must exit non-zero with a one-line message, never a panic and
//! backtrace, and never a run that ignores the flag.

use std::path::PathBuf;
use std::process::Command;

/// Run `mhm2rs assemble` with `extra` flags on inputs that are never read
/// (flags and k are checked first), with backtraces on so a panic would
/// show one. Asserts exit 1 with one line on stderr and no panic, and
/// returns that line.
fn assemble_fails(extra: &[&str]) -> String {
    let tag: String = extra.concat().chars().filter(char::is_ascii_alphanumeric).collect();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mhm2rs-cli-errors-{}-{tag}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_mhm2rs"))
        .args(["assemble", "--r1", "missing_1.fastq", "--r2", "missing_2.fastq", "--out"])
        .arg(&dir)
        .args(extra)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("mhm2rs runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{extra:?}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{extra:?}: want one line, got {stderr:?}");
    assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
    stderr
}

fn assert_rejected(k: &str, iterative: bool, expect: &str) {
    let mut extra = vec!["--k", k];
    if iterative {
        extra.push("--iterative");
    }
    let stderr = assemble_fails(&extra);
    assert!(stderr.contains("invalid configuration") && stderr.contains(expect), "{stderr}");
}

fn assert_unknown_flag(extra: &[&str], flag: &str) {
    let stderr = assemble_fails(extra);
    assert_eq!(stderr.trim_end(), format!("error: unknown flag {flag}"), "{extra:?}");
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

#[test]
fn misspelled_flag_is_rejected() {
    assert_unknown_flag(&["--iteratve", "--kk", "45"], "--iteratve");
}

#[test]
fn removed_scheduler_flags_are_rejected() {
    assert_unknown_flag(&["--overlap", "--calibrate"], "--calibrate");
    assert_unknown_flag(&["--per-bin-rates"], "--per-bin-rates");
    assert_unknown_flag(&["--cpu-words-per-s", "1e6"], "--cpu-words-per-s");
}
