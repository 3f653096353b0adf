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
    let cases: [(&[&str], &str); 16] = [
        (&["flops", "--batch", "abc"], "btx: --batch: invalid value 'abc'"),
        (&["serve", "--load", "fast"], "btx: --load: invalid value 'fast'"),
        (&["decode", "--block", "0"], "btx: --block: invalid value '0'"),
        (&["decode", "--blocks", "0"], "btx: --blocks: invalid value '0'"),
        // Zero counts and out-of-range reals, each of which once reached an
        // assertion or a division deep in the command.
        (&["attention", "--seq", "0"], "btx: --seq: invalid value '0'"),
        (&["decode", "--prompt", "0"], "btx: --prompt: invalid value '0'"),
        (&["decode", "--sessions", "0"], "btx: --sessions: invalid value '0'"),
        (&["serve", "--queue", "0"], "btx: --queue: invalid value '0'"),
        (&["serve", "--load", "0"], "btx: --load: invalid value '0'"),
        (&["serve", "--load", "-1"], "btx: --load: invalid value '-1'"),
        (&["compare", "--heads", "0"], "btx: --heads: invalid value '0'"),
        (&["compare", "--head-size", "0"], "btx: --head-size: invalid value '0'"),
        (&["attention", "--alpha", "0.3"], "btx: --alpha: invalid value '0.3'"),
        (&["profile", "--alpha", "2"], "btx: --alpha: invalid value '2'"),
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
