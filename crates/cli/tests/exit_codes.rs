//! Process-level exit codes of the `xpulpnn` binary: usage errors exit 2
//! with an `error: …` line and the usage text; runtime failures exit 1
//! with an `error: …` line alone, never 101 from a panic.

use std::process::Command;

/// A load or store whose range wraps past 2^32 is a bus error on one
/// core and on the cluster alike.
#[test]
fn wrapping_accesses_exit_1_with_a_bus_error_on_any_core_count() {
    let dir = std::env::temp_dir().join(format!("xpulpnn-exit-wrap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src, addr) in [
        ("load.s", "li t1, -2\nlw t0, 0(t1)\necall\n", "0xfffffffe"),
        ("store.s", "li t1, -1\nsb t0, 0(t1)\necall\n", "0xffffffff"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        for cores in ["1", "2"] {
            let out = Command::new(env!("CARGO_BIN_EXE_xpulpnn"))
                .arg("run")
                .arg(&path)
                .args(["--cores", cores])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{name}, {cores} core(s): {stderr}"
            );
            assert!(stderr.contains("error: "), "{stderr}");
            assert!(stderr.contains("bus error"), "{stderr}");
            assert!(stderr.contains(addr), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed invocation exits 2 and prints the usage text after its
/// error; a runtime failure exits 1 and keeps its diagnostic unburied.
#[test]
fn usage_errors_exit_2_with_usage_and_runtime_failures_exit_1_without() {
    let out = Command::new(env!("CARGO_BIN_EXE_xpulpnn"))
        .args(["run", "p.s", "--bogus"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(
        stderr.contains("\nusage:\n  xpulpnn run <file.s>"),
        "{stderr}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_xpulpnn"))
        .args(["run", "/nonexistent/xpulpnn-exit-codes.s"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: cannot read"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
