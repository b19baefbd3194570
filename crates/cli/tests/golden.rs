//! Golden byte-identity: the checked-in job file and serialized-model
//! mapping in `tests/golden/` must reproduce their recorded outputs
//! byte for byte. The expected files were generated before the
//! refinement kernel was last rewritten; a performance change that
//! alters any mapping result fails here. Regenerate them only for a
//! change that is meant to move results, and say so in its notes.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Run the `mimd` binary and return its stdout, asserting success.
fn stdout_of(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("mimd binary spawns");
    assert!(
        output.status.success(),
        "mimd {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

fn expected(name: &str) -> String {
    std::fs::read_to_string(golden(name)).expect("golden file readable")
}

#[test]
fn batch_output_matches_golden() {
    let jobs = golden("jobs.jsonl");
    let got = stdout_of(&["batch", jobs.to_str().unwrap(), "--threads", "2"]);
    assert_eq!(got, expected("batch.expected.jsonl"));
}

#[test]
fn serialized_map_output_matches_golden() {
    let got = stdout_of(&[
        "map",
        "--tasks",
        "256",
        "--spec",
        "torus:8x8",
        "--serialized",
        "--seed",
        "17",
        "--reps",
        "4",
    ]);
    assert_eq!(got, expected("map_serialized.expected.txt"));
}
