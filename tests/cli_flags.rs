//! Subcommands reject flags they do not know, with the usage text and
//! exit code 2, instead of silently running with defaults.

use std::process::Command;

#[test]
fn bad_flags_exit_with_usage() {
    for args in [
        &["bench-all", "--jsn"][..],
        &["bench-all", "--csv", "--json"],
        &["cache-model", "--machne", "mn4"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cluster-eval"))
            .args(args)
            .output()
            .expect("run cluster-eval");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
