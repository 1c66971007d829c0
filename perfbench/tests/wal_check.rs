//! The `serve` correctness checks fail the one command: a WAL with one
//! record dropped no longer rebuilds the served catalog, so the run
//! reports `correct: false` and exits non-zero.

use std::process::Command;

fn serve(extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hyppo-perfbench"))
        .args(["--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", "0"])
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    (out.status.code().expect("exited normally"), String::from_utf8_lossy(&out.stdout).into())
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn intact_wal_replays_to_the_served_catalog() {
    let (code, stdout) = serve(&[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(last_line(&stdout).starts_with("{\"correct\": true, "), "{stdout}");
}

#[test]
fn dropping_one_wal_record_fails_the_run() {
    let (code, stdout) = serve(&["--inject-fault", "drop-wal-record"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(last_line(&stdout).starts_with("{\"correct\": false, "), "{stdout}");
    assert!(stdout.contains("does not rebuild the served catalog"), "{stdout}");
}
