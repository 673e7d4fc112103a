//! Records the provenance the benchmark prints with every result: the
//! compiler version, the git commit when built inside a git work tree of
//! this repository, and a digest of the sources the benchmark builds.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("benchmark lives in the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Only trust git when the repository root is the work tree's top.
    let toplevel = run(Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--show-toplevel"]));
    let inside = toplevel
        .and_then(|t| Path::new(&t).canonicalize().ok())
        .is_some_and(|t| Some(t) == root.canonicalize().ok());
    let commit = if inside {
        run(Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"]))
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "none".into())
    );

    let mut files = Vec::new();
    for dir in [root.join("crates"), manifest.join("src")] {
        collect_sources(&dir, &mut files);
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let contents = std::fs::read(file).unwrap_or_default();
        for byte in rel.to_string_lossy().bytes().chain(contents) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.toml").display()
    );
}

/// Trimmed stdout of a successful command.
fn run(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Every `.rs` file and `Cargo.toml` below `dir`.
fn collect_sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            files.push(path);
        }
    }
}
