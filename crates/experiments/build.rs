//! Computes the source hash that identifies the models this build
//! enrolls and trains: FNV-1a 64 over every file (relative path and
//! contents, sorted by path) of the crates that synthesise, enroll, train
//! and score — this crate, its workspace dependencies and the vendored
//! `rand`.  Set-up bundles carry it (`crate::setup`), so a bundle written
//! by a build whose models may differ is rejected instead of loaded.

use std::path::{Path, PathBuf};

/// Model-defining package directories, relative to the workspace root.
const SOURCES: &[&str] = &[
    "crates/dsp",
    "crates/acoustics",
    "crates/speech",
    "crates/attack",
    "crates/defense",
    "crates/room",
    "crates/core",
    "crates/experiments",
    "vendor/rand",
];

fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, files);
        } else {
            files.push(path);
        }
    }
}

fn main() {
    let manifest_dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let root = manifest_dir
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut files = Vec::new();
    for source in SOURCES {
        let package = root.join(source);
        files.push(package.join("Cargo.toml"));
        collect(&package.join("src"), &mut files);
        println!("cargo:rerun-if-changed={}", package.join("src").display());
        println!(
            "cargo:rerun-if-changed={}",
            package.join("Cargo.toml").display()
        );
    }
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let name = path
                .strip_prefix(root)
                .expect("under the workspace root")
                .to_string_lossy()
                .replace('\\', "/");
            (name, path)
        })
        .collect();
    named.sort();

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in &(bytes.len() as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, path) in &named {
        let contents =
            std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        feed(name.as_bytes());
        feed(&contents);
    }
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("cargo sets it")).join("source_hash");
    std::fs::write(&out, format!("0x{hash:016x}_u64\n")).expect("writing the source hash");
}
