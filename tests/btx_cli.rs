//! `btx` argument errors: every malformed command line prints a message and
//! exits 2 — never a panic with a backtrace.

use std::process::Command;

fn btx(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_btx"))
        .args(args)
        .output()
        .expect("btx spawns");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn argument_errors_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 4] = [
        (&["flops", "--batch", "abc"], "btx: --batch: invalid value 'abc'"),
        (&["serve", "--load", "fast"], "btx: --load: invalid value 'fast'"),
        (&["flops", "--batch"], "missing value for --batch"),
        (&["flops", "--no-such-flag", "1"], "unknown flag --no-such-flag"),
    ];
    for (args, message) in cases {
        let (code, stderr) = btx(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}
