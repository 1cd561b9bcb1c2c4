//! CLI contract of the `reproduce` binary: an unknown subcommand must list
//! every available artifact (including `serve`) and exit nonzero, so a typo
//! never silently runs the wrong thing — and never exits 0 under CI.

use std::process::Command;

#[test]
fn unknown_subcommands_list_artifacts_and_exit_nonzero() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("definitely-not-an-artifact")
        .output()
        .expect("run reproduce");
    assert!(!output.status.success(), "unknown artifact must exit nonzero");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown artifact"), "{stderr}");
    for artifact in [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "eq2",
        "fig2",
        "lossless",
        "conclusions",
        "perfjson",
        "tiled",
        "dwt-line",
        "fixed-codec",
        "serve",
        "volume",
        "corpus",
        "all",
    ] {
        assert!(stderr.contains(artifact), "artifact {artifact} missing from listing:\n{stderr}");
    }
}

#[test]
fn known_fast_subcommands_exit_zero() {
    // table2 is the cheapest artifact (pure arithmetic, exact-match print).
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce")).arg("table2").output().expect("run");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("matches the paper exactly: yes"), "{stdout}");
}
