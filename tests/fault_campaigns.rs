//! F-series campaign harness: golden snapshots, fingerprint guarantees,
//! and `--jobs` independence for the fault-injection subsystem.
//!
//! Campaign tables live under `tests/golden/faults/` (one CSV per
//! campaign), separate from the paper artifacts in `tests/golden/`.
//! Regenerate after an intended model change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test fault_campaigns
//! git diff tests/golden/faults/
//! ```

use cluster_eval::engine::Ctx;
use cluster_eval::faults::{campaign, campaigns, paper_plan, run_campaign};
use interconnect::topology::NodeId;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/faults")
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn every_campaign_matches_its_golden_snapshot() {
    let dir = golden_dir();
    let mut mismatches = Vec::new();
    for c in campaigns() {
        let ctx = Ctx::new();
        let got = run_campaign(&ctx, &c, 1).table.to_csv();
        let path = dir.join(format!("fseries_{}.csv", c.name));
        if updating() {
            fs::create_dir_all(&dir).expect("create golden dir");
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
                mismatches.push(format!("{}: {first_diff}", c.name));
            }
            Err(e) => mismatches.push(format!("{}: snapshot unreadable ({e})", c.name)),
        }
    }
    assert!(
        mismatches.is_empty(),
        "campaign goldens diverged (run `UPDATE_GOLDEN=1 cargo test --test \
         fault_campaigns` after an intended model change):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_faults_directory_covers_every_campaign_exactly() {
    if updating() {
        return; // snapshots are being rewritten by the other test
    }
    let mut on_disk: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden/faults exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = campaigns()
        .iter()
        .map(|c| format!("fseries_{}.csv", c.name))
        .collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "tests/golden/faults/ must hold exactly one snapshot per campaign"
    );
}

/// The inverted paper methodology is the acceptance criterion: in every
/// trial of every campaign, the outlier ranking must fingerprint exactly
/// the injected (network-visible) nodes.
#[test]
fn detector_fingerprints_the_injected_nodes_in_every_trial() {
    for c in campaigns() {
        let ctx = Ctx::new();
        let report = run_campaign(&ctx, &c, 2);
        assert!(!report.trials.is_empty());
        for (i, t) in report.trials.iter().enumerate() {
            assert!(
                t.fingerprint_hit,
                "{} trial {i} ({}): detected {:?} != injected {:?}",
                c.name, t.plan.label, t.detected, t.injected
            );
            assert_eq!(report.table.cell(i, "fingerprint"), Some("HIT"));
            // Faults never make the network look *better*.
            assert!(t.net_max_slowdown >= 1.0);
            assert!(t.drain_slowdown >= 1.0);
            assert!(t.job_slowdown >= 1.0 - 1e-12, "job ran faster under faults");
        }
    }
}

/// The degraded campaign's trial 0 replays the paper's measured fault:
/// node 18 = `arms0b1-11c`, receive bandwidth at 8 % ⇒ a 12.5× slowdown
/// signature that the detector must pin to that exact hostname.
#[test]
fn degraded_campaign_reproduces_the_papers_fig4_signature() {
    let ctx = Ctx::new();
    let c = campaign("degraded").expect("registered");
    let report = run_campaign(&ctx, &c, 1);
    let t0 = &report.trials[0];
    assert_eq!(t0.plan.label, paper_plan().label);
    assert_eq!(t0.injected, vec![NodeId(18)]);
    assert_eq!(report.table.cell(0, "injected"), Some("arms0b1-11c"));
    assert_eq!(report.table.cell(0, "detected"), Some("arms0b1-11c"));
    // rx at 8% of healthy ⇒ measured bandwidth ratio exactly 1/0.08.
    assert_eq!(report.table.cell(0, "net max slowdown"), Some("12.5000"));
}

/// Campaign artifacts are byte-identical no matter how many workers run
/// the trials — the determinism contract of `engine::run_indexed`.
#[test]
fn campaign_csv_is_byte_identical_across_jobs() {
    for c in campaigns() {
        let csv = |jobs: usize| {
            let ctx = Ctx::new();
            run_campaign(&ctx, &c, jobs).table.to_csv()
        };
        let one = csv(1);
        assert_eq!(one, csv(2), "{}: --jobs 2 diverged", c.name);
        assert_eq!(one, csv(8), "{}: --jobs 8 diverged", c.name);
    }
}

/// Each trial re-prices only its faulted nodes' rows and columns, so the
/// pricing work is pinned exactly: the two 192 × 191 baseline tables
/// (73,344 messages) once per fresh context, plus 2 × 2 × 191 = 764 per
/// network-visible faulted node per trial, at any `--jobs`.
#[test]
fn campaign_message_counts_are_pinned_at_any_jobs() {
    let want = [("smoke", 75_636), ("degraded", 77_928), ("multi", 85_568)];
    for (name, priced) in want {
        let c = campaign(name).expect("registered");
        for jobs in [1, 2, 8] {
            let report = run_campaign(&Ctx::new(), &c, jobs);
            assert_eq!(report.messages_priced, priced, "{name} at --jobs {jobs}");
        }
    }
    // A context that already holds the baseline tables prices only the
    // trials' faulted nodes.
    let ctx = Ctx::new();
    let c = campaign("smoke").expect("registered");
    run_campaign(&ctx, &c, 1);
    assert_eq!(run_campaign(&ctx, &c, 1).messages_priced, 75_636 - 73_344);
}
