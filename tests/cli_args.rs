//! Argument validation of the `earsim` binary: values that would make a
//! command run forever or silently do nothing are refused with exit code 2
//! (usage) before any work starts.

use std::process::Command;

fn earsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_earsim"))
        .args(args)
        .output()
        .expect("run earsim")
}

#[test]
fn serve_refuses_a_nonsense_max_seconds_before_binding() {
    for value in ["nan", "inf", "-1", "0"] {
        let sock = std::env::temp_dir().join(format!(
            "earsim-cli-serve-{}-{value}.sock",
            std::process::id()
        ));
        let sock_arg = sock.to_str().expect("utf-8 temp path");
        let out = earsim(&["serve", "--socket", sock_arg, "--max-seconds", value]);
        assert_eq!(out.status.code(), Some(2), "--max-seconds {value}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--max-seconds expects"),
            "--max-seconds {value}: no usage message"
        );
        assert!(!sock.exists(), "--max-seconds {value} created the socket");
    }
}

#[test]
fn run_refuses_a_run_count_that_is_not_a_positive_integer() {
    for value in ["0", "-1", "nan", "2.5"] {
        let out = earsim(&["run", "--app", "DGEMM", "--runs", value]);
        assert_eq!(out.status.code(), Some(2), "--runs {value}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--runs expects"),
            "--runs {value}: no usage message"
        );
        assert!(out.stdout.is_empty(), "--runs {value} simulated anyway");
    }
}
