//! `hummer-serve`'s command line: flags it does not know fail loudly with
//! the usage text, before anything binds.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `hummer-serve` with `args` on an ephemeral port; returns (exit
/// status, stdout, stderr). A server that is still running after a few
/// seconds — it accepted the flags and started serving — is killed and
/// reported as `None`.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hummer-serve"))
        .args(["--addr", "127.0.0.1:0", "--no-trace"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hummer-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for hummer-serve") {
            break status.code();
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child
        .wait_with_output()
        .expect("collect hummer-serve output");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (status, text(out.stdout), text(out.stderr))
}

/// Flags `hummer-serve` no longer has, by name, each with the value it
/// used to take: the shard tier's four and the structured event log's.
const REMOVED_FLAGS: [(&str, Option<&str>); 5] = [
    ("coordinator", Some("workers=127.0.0.1:9")),
    ("shards", Some("4")),
    ("worker-timeout-ms", Some("5")),
    ("no-fallback", None),
    ("log-json", Some("/tmp/hummer-events.jsonl")),
];

#[test]
fn removed_flags_exit_with_usage() {
    for (name, value) in REMOVED_FLAGS {
        let flag = format!("--{name}");
        let args: Vec<&str> = std::iter::once(flag.as_str()).chain(value).collect();
        let (status, _, stderr) = run(&args);
        assert_eq!(status, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains("usage: hummer-serve"),
            "{args:?} must print the usage text; stderr: {stderr}"
        );
        assert!(
            !stderr.contains("listening on"),
            "{args:?} must not start serving; stderr: {stderr}"
        );
    }
}

#[test]
fn help_names_no_shard_tier() {
    let (status, stdout, stderr) = run(&["--help"]);
    assert_eq!(status, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("usage: hummer-serve"), "{stdout}");
    let help = stdout.to_ascii_lowercase();
    for word in ["coordinator", "shard", "log-json", "event log"] {
        assert!(
            !help.contains(word),
            "--help still names `{word}`:\n{stdout}"
        );
    }
}
