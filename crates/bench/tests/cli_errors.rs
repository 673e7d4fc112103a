//! One CLI error policy for the experiment binaries: a malformed
//! argument prints the parse error, prefixed with the binary's name, and
//! exits with status 2 — never a panic (status 101) and never a silent
//! fall-back to the option's default.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_with_the_error() {
    let cases: [(&str, &str, &[&str], &str); 10] = [
        (
            "exp_characterization",
            env!("CARGO_BIN_EXE_exp_characterization"),
            &["--threads", "many"],
            "--threads",
        ),
        (
            "exp_characterization",
            env!("CARGO_BIN_EXE_exp_characterization"),
            &["--vldp", "-1"],
            "--vldp",
        ),
        (
            "exp_pp2d",
            env!("CARGO_BIN_EXE_exp_pp2d"),
            &["stray"],
            "\"stray\"",
        ),
        (
            "exp_pp2d",
            env!("CARGO_BIN_EXE_exp_pp2d"),
            &["--size", "big"],
            "--size",
        ),
        (
            "exp_pfl",
            env!("CARGO_BIN_EXE_exp_pfl"),
            &["--threads", "x"],
            "--threads",
        ),
        ("exp_rl", env!("CARGO_BIN_EXE_exp_rl"), &["stray"], "stray"),
        (
            "exp_srec",
            env!("CARGO_BIN_EXE_exp_srec"),
            &["--threads", "1.5"],
            "--threads",
        ),
        (
            "exp_pp3d",
            env!("CARGO_BIN_EXE_exp_pp3d"),
            &["--size", "big"],
            "--size",
        ),
        (
            "exp_arm_planners",
            env!("CARGO_BIN_EXE_exp_arm_planners"),
            &["--seeds", "five"],
            "--seeds",
        ),
        (
            "exp_librarycomp",
            env!("CARGO_BIN_EXE_exp_librarycomp"),
            &["--max-scale", "huge"],
            "--max-scale",
        ),
    ];
    for (name, binary, args, mentions) in cases {
        let out = Command::new(binary)
            .args(args)
            .output()
            .expect("experiment binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} {args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.starts_with(&format!("{name}: ")) && stderr.contains(mentions),
            "{name} {args:?}: stderr should name the binary and {mentions:?}, got: {stderr}"
        );
    }
}
