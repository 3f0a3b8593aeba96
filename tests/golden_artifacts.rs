//! Golden-snapshot regression harness: every paper artifact's canonical
//! CSV is checked byte-for-byte against a snapshot under `tests/golden/`,
//! and every extension experiment's against one under `tests/golden/ext/`.
//!
//! The artifacts are deterministic by construction (see
//! `tests/determinism.rs`), so any diff here is a *model change* — either
//! an intended recalibration or an accidental regression. After an
//! intended change, regenerate the snapshots and review the diff like any
//! other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_artifacts
//! git diff tests/golden/
//! ```

use cluster_eval::engine::Ctx;
use cluster_eval::experiments::{all_experiments, Experiment};
use cluster_eval::extensions::extension_experiments;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Diff every experiment's CSV against `dir/<id>.csv` (or rewrite the
/// snapshots under `UPDATE_GOLDEN`), returning one line per mismatch.
fn snapshot_mismatches(dir: &Path, experiments: &[Experiment]) -> Vec<String> {
    let ctx = Ctx::new();
    let mut mismatches = Vec::new();
    for exp in experiments {
        let got = (exp.run)(&ctx).to_csv();
        let path = dir.join(format!("{}.csv", exp.id));
        if updating() {
            fs::create_dir_all(dir).expect("create golden dir");
            fs::write(&path, &got).expect("write snapshot");
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => {
                let first_diff = want
                    .lines()
                    .zip(got.lines())
                    .enumerate()
                    .find(|(_, (w, g))| w != g)
                    .map(|(i, (w, g))| format!("line {}: golden `{w}` vs got `{g}`", i + 1))
                    .unwrap_or_else(|| {
                        format!(
                            "line counts differ: {} vs {}",
                            want.lines().count(),
                            got.lines().count()
                        )
                    });
                mismatches.push(format!("{}: {first_diff}", exp.id));
            }
            Err(e) => mismatches.push(format!("{}: snapshot unreadable ({e})", exp.id)),
        }
    }
    mismatches
}

#[test]
fn every_artifact_matches_its_golden_snapshot() {
    let mismatches = snapshot_mismatches(&golden_dir(), &all_experiments());
    assert!(
        mismatches.is_empty(),
        "golden snapshots diverged (run `UPDATE_GOLDEN=1 cargo test --test \
         golden_artifacts` after an intended model change):\n{}",
        mismatches.join("\n")
    );
}

/// The extensions run through the same `mpisim` paths as the paper's
/// application figures (`ext_pop` traces jobs, `ext_weak` drives halos),
/// so they are pinned too, in `tests/golden/ext/`.
#[test]
fn every_extension_matches_its_golden_snapshot() {
    let mismatches = snapshot_mismatches(&golden_dir().join("ext"), &extension_experiments());
    assert!(
        mismatches.is_empty(),
        "extension snapshots diverged (run `UPDATE_GOLDEN=1 cargo test --test \
         golden_artifacts` after an intended model change):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_directory_covers_the_whole_registry_exactly() {
    if updating() {
        return; // snapshots are being rewritten by the other test
    }
    let dir = golden_dir();
    // Subdirectories (e.g. `faults/` with the F-series campaign goldens)
    // belong to other harnesses — only loose files are paper artifacts.
    let mut on_disk: Vec<String> = fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().expect("file type").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = all_experiments()
        .iter()
        .map(|e| format!("{}.csv", e.id))
        .collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "tests/golden/ must hold exactly one snapshot per registered experiment"
    );
}
