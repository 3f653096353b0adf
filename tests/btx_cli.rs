//! `btx` argument errors: every malformed command line prints a message and
//! exits 2 — never a panic with a backtrace. A malformed environment knob
//! fails the run and names the variable.

use std::process::Command;

fn btx(args: &[&str]) -> (Option<i32>, String) {
    btx_env(&[], args)
}

fn btx_env(env: &[(&str, &str)], args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_btx"))
        .envs(env.iter().copied())
        .args(args)
        .output()
        .expect("btx spawns");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn argument_errors_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 6] = [
        (&["flops", "--batch", "abc"], "btx: --batch: invalid value 'abc'"),
        (&["serve", "--load", "fast"], "btx: --load: invalid value 'fast'"),
        (&["decode", "--block", "0"], "btx: --block: invalid value '0'"),
        (&["decode", "--blocks", "0"], "btx: --blocks: invalid value '0'"),
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

#[test]
fn unparsable_pool_width_fails_naming_the_variable() {
    let (code, stderr) = btx_env(
        &[("BYTE_POOL_THREADS", "two")],
        &["profile", "--batch", "1", "--seq", "16"],
    );
    assert_ne!(code, Some(0), "{stderr}");
    assert!(stderr.contains("BYTE_POOL_THREADS: invalid value `two`"), "{stderr}");
}

#[test]
fn serve_runs_with_more_shards_than_requests() {
    // A small model keeps the capacity calibration cheap in debug builds.
    let args: Vec<&str> = "serve --requests 16 --shards 513 --seq 16 --heads 2 --head-size 16"
        .split(' ')
        .collect();
    let (code, stderr) = btx(&args);
    assert_eq!(code, Some(0), "{stderr}");
}
