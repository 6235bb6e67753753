//! The smoke mode: every workload on tiny inputs, untraced and traced,
//! with every output check on.

use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

#[test]
fn smoke_runs_every_workload_with_checks_on() {
    let out = perfbench(&["--smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}");
    for line in &lines {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
    // Only serve-mixed fails operations: its overflow bodies, every pass.
    assert!(lines[0].contains("\"failed\": 0,"));
    assert!(lines[2].contains("\"failed\": 0,"));
    assert!(!lines[4].contains("\"failed\": 0,"), "{}", lines[4]);
    assert!(lines[1].contains("\"core.trials_1t_ms\""));
    assert!(lines[5].contains("\"serve.overflow_failures\""));
    assert_eq!(stderr.matches("lowest coverage").count(), 3, "{stderr}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let full = [
        "--workload",
        "kernel-rdp",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let mut cases: Vec<Vec<&str>> = vec![
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "kernel-rdp",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--smoke", "--seed", "1"],
        vec![],
    ];
    // Every flag is required outside --smoke.
    for drop in (0..full.len()).step_by(2) {
        let mut args = full.to_vec();
        args.drain(drop..drop + 2);
        cases.push(args);
    }
    for args in cases {
        let out = perfbench(&args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
