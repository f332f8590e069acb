//! Drives the built `repro` binary: the ablation studies print their
//! tables deterministically, and every malformed command line exits 2 with
//! the subcommand's usage line — never a panic (exit 101).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("repro prints UTF-8")
}

/// Every study's name and its EXPERIMENTS.md number, in print order.
const STUDIES: [(&str, &str); 6] = [
    ("pcie", "A1"),
    ("fpga-mem", "A2"),
    ("gpu", "A3"),
    ("split-depth", "A5"),
    ("gpu-cache", "A6"),
    ("integration", "A7"),
];

#[test]
fn every_ablation_prints_its_header() {
    for (name, study) in STUDIES {
        let out = repro(&["ablation", name]);
        assert_eq!(out.status.code(), Some(0), "repro ablation {name}");
        let header = format!("--- Ablation {study}: ");
        assert!(stdout(&out).contains(&header), "{name} lacks '{header}'");
        assert_eq!(stdout(&out).matches("--- Ablation ").count(), 1, "{name}");
    }
}

#[test]
fn all_ablations_are_deterministic_and_concatenate_the_studies() {
    let first = repro(&["ablation"]);
    let second = repro(&["ablation"]);
    assert_eq!(first.status.code(), Some(0));
    assert_eq!(first.stdout, second.stdout, "two runs differ");
    let each: Vec<u8> = STUDIES
        .iter()
        .flat_map(|(name, _)| repro(&["ablation", name]).stdout)
        .collect();
    assert_eq!(first.stdout, each);
}

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &["ablation", "nope"],
        &["ablation", "pcie", "gpu"],
        &["ablation", "--out"],
        &["trace", "--out"],
        &["trace", "--frob"],
        &["trace", "nope"],
        &["bench", "--out"],
        &["bench", "--frob"],
        &["bench", "--diff", "a"],
        &["bench", "--tolerance", "1.5", "--diff", "a", "b"],
        &["bench", "--tolerance", "NaN", "--diff", "a", "b"],
        &["bench", "--tolerance", "0.1"],
        &["bench", "--tolerance", "0.1", "--check", "a"],
        &["serve", "--out"],
        &["serve", "--frob"],
        &["serve", "--trace-out"],
        &["fleet", "--out"],
        &["fleet", "--frob"],
        &["fleet", "--check"],
        &["report", "--out"],
        &["report", "--frob"],
        &["report", "--top", "0"],
        &["report", "--top", "x"],
    ];
    for args in cases {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {}", args.join(" "));
        let usage = format!("usage: repro {}", args[0]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&usage),
            "repro {}: {stderr}",
            args.join(" ")
        );
        assert!(out.stdout.is_empty(), "repro {}", args.join(" "));
    }
}

#[test]
fn help_keeps_description_indentation() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    // The description under `trace` sits in the description column, not
    // at the start of the line.
    let trace_line = "\n                   export a Perfetto trace of one simulated query\n";
    assert!(stdout(&out).contains(trace_line), "{}", stdout(&out));
    let out = repro(&["trace", "--frob"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\n       backends: cpu"), "{stderr}");
}

#[test]
fn unreadable_files_exit_1() {
    for args in [
        &["bench", "--check", "no/such/file.json"][..],
        &["serve", "--check", "no/such/file.json"],
        &["fleet", "--check", "no/such/file.json"],
        &["bench", "--diff", "no/such/a.json", "no/such/b.json"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "repro {}", args.join(" "));
        assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    }
}
