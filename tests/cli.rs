//! The shipped binaries, run the way a shell runs them.

use std::process::{Command, Stdio};

/// `experiments --jobs 1` prints, after its leading blank line, exactly
/// the `text` block under "Measured tables" in EXPERIMENTS.md, so the
/// document cannot drift from the binary that regenerates it.
#[test]
fn experiments_regenerates_the_measured_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--jobs", "1"])
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let got = stdout.strip_prefix('\n').expect("a leading blank line");
    let doc = include_str!("../EXPERIMENTS.md");
    let (_, tables) = doc.split_once("\n## Measured tables\n").expect("heading");
    let (_, block) = tables.split_once("```text\n").expect("text fence");
    let (want, _) = block.split_once("```").expect("closing fence");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the measured tables", i + 1);
    }
    assert_eq!(got, want, "the measured tables differ in length");
}

/// A reader that has gone away before the first write (`<bin> | true`)
/// ends each printing binary quietly, with no `failed printing to stdout`
/// panic: status 0, except `fuzz`, for which a campaign it cannot report
/// is not a pass, and `bench-diff`, which keeps its verdict's status (1 for
/// a label at twice its baseline).
#[test]
fn a_closed_stdout_ends_each_binary_quietly() {
    let base = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/baseline.json");
    let dir = std::env::temp_dir().join(format!("twq-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let slower = dir.join("current.json");
    std::fs::write(&slower, one_label_doubled(base)).expect("write current");
    let slower = slower.to_str().expect("utf-8 temp path");
    let bench_diff = env!("CARGO_BIN_EXE_bench-diff");
    let runs: [(&str, &[&str], i32); 6] = [
        (env!("CARGO_BIN_EXE_experiments"), &["--jobs", "1"], 0),
        (env!("CARGO_BIN_EXE_lint"), &["--jobs", "1"], 0),
        (env!("CARGO_BIN_EXE_explain"), &["--jobs", "1"], 0),
        (
            env!("CARGO_BIN_EXE_fuzz"),
            &["--cases", "4", "--jobs", "1"],
            1,
        ),
        (bench_diff, &["--baseline", base, "--current", base], 0),
        (bench_diff, &["--baseline", base, "--current", slower], 1),
    ];
    for (bin, args, status) in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(status), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The baseline report at `path` with its first label's median doubled.
fn one_label_doubled(path: &str) -> String {
    let text = std::fs::read_to_string(path).expect("read the baseline");
    let (head, rest) = text.split_once(": ").expect("a first label");
    let (ns, tail) = rest.split_once(',').expect("a second label");
    let ns: u64 = ns.trim().parse().expect("nanoseconds");
    format!("{head}: {},{tail}", 2 * ns)
}
