//! Source-hygiene guard: no Rust file in any workspace crate's `src`
//! (`crates/*/src` and the root `src/`) may exceed 1,200 lines.
//!
//! The `Cluster` god object the simulator was refactored out of grew one
//! handler at a time; each addition was locally reasonable and the sum
//! was a 2,000-line module nothing could be tested apart from. This
//! guard is the pressure valve: when a module approaches the limit,
//! split it along a seam (for the simulator, an engine seam; see
//! `docs/ARCHITECTURE.md`) instead of raising the number.

use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1_200;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("read dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_exceeds_the_line_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates dir") {
        let src = krate.expect("read dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    let expected = ["crates/rtds-sim/src/cluster.rs", "crates/rtds-arm/src/manager.rs", "src/lib.rs"];
    for expected in expected {
        assert!(
            files.contains(&root.join(expected)),
            "walker failed to find {expected} — wrong directory?"
        );
    }
    let oversized: Vec<String> = files
        .iter()
        .filter_map(|p| {
            let lines = std::fs::read_to_string(p).expect("read source file").lines().count();
            let shown = p.strip_prefix(&root).unwrap_or(p).display();
            (lines > MAX_LINES).then(|| format!("{shown} ({lines} lines)"))
        })
        .collect();
    assert!(
        oversized.is_empty(),
        "source files over the {MAX_LINES}-line budget — split along a seam \
         (docs/ARCHITECTURE.md) rather than raising the limit:\n  {}",
        oversized.join("\n  ")
    );
}
