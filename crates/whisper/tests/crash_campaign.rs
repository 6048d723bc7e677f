//! Crash-injection campaign gates: every Table 1 app must recover at
//! every swept crash point under the full crash-spec lattice, and the
//! campaign itself must be deterministic whatever its parallelism.

use whisper::crashtest::{crash_json, run_campaign, summary_table, total_failures, CampaignConfig};
use whisper::suite::SuiteConfig;

/// The acceptance gate: the quick campaign — every app, ≥3 points,
/// drop-volatile + persist-all + ≥8 adversarial seeds — is failure-free.
#[test]
fn quick_campaign_recovers_every_app() {
    let cfg = CampaignConfig::quick();
    assert!(cfg.points >= 3);
    assert!(cfg.adversarial_seeds >= 8);
    let reports = run_campaign(&cfg);
    assert_eq!(reports.len(), 11);
    for r in &reports {
        assert!(
            r.points.len() >= 3,
            "{}: swept only {} points across {} fences",
            r.name,
            r.points.len(),
            r.fence_events
        );
        assert_eq!(
            r.images,
            r.points.len() * (2 + cfg.adversarial_seeds as usize)
        );
    }
    assert_eq!(
        total_failures(&reports),
        0,
        "campaign failures:\n{}",
        summary_table(&reports, &cfg)
    );
}

/// Each row is a self-contained seeded machine, so the campaign's
/// summary and JSON must be byte-identical whatever the worker count.
#[test]
fn campaign_is_parallelism_invariant() {
    let serial = CampaignConfig {
        points: 2,
        adversarial_seeds: 2,
        parallelism: 1,
        worker_threads: 4,
    };
    let fanned = CampaignConfig {
        parallelism: 4,
        ..serial
    };
    let a = run_campaign(&serial);
    let b = run_campaign(&fanned);
    assert_eq!(summary_table(&a, &serial), summary_table(&b, &serial));
    assert_eq!(
        crash_json(&a, &serial).to_pretty(),
        crash_json(&b, &serial).to_pretty()
    );
}

/// Pin the campaign summary's shape: the header, one row per Table 1
/// app in order, and a zero-failure total line.
#[test]
fn summary_table_is_pinned() {
    let cfg = CampaignConfig {
        points: 2,
        adversarial_seeds: 2,
        parallelism: 4,
        worker_threads: 4,
    };
    let reports = run_campaign(&cfg);
    let table = summary_table(&reports, &cfg);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(
        lines[0],
        "Crash-recovery campaign (2 point(s) x [drop-volatile persist-all 2 seed(s)])"
    );
    let apps: Vec<&str> = lines[2..13]
        .iter()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(
        apps,
        [
            "echo",
            "nstore-ycsb",
            "nstore-tpcc",
            "redis",
            "ctree",
            "hashmap",
            "vacation",
            "memcached",
            "nfs",
            "exim",
            "mysql"
        ]
    );
    assert!(
        lines[13].starts_with("total: 0 failure(s) across"),
        "unexpected total line: {}",
        lines[13]
    );
}

/// `--threads` reaches the crash workloads: at one logical client every
/// row still recovers, the three scheduler-interleaved rows run a
/// different schedule, and the other eight rows are untouched.
#[test]
fn the_campaign_runs_at_the_suites_worker_count() {
    let suite = SuiteConfig {
        worker_threads: 1,
        ..SuiteConfig::default()
    };
    let one = CampaignConfig::from_suite(&suite);
    assert_eq!(one.worker_threads, 1);
    let four = CampaignConfig {
        worker_threads: 4,
        ..one
    };
    let (a, b) = (run_campaign(&one), run_campaign(&four));
    assert_eq!(
        total_failures(&a),
        0,
        "campaign failures at one worker:\n{}",
        summary_table(&a, &one)
    );
    for (x, y) in a.iter().zip(&b) {
        if ["redis", "memcached", "vacation"].contains(&x.name) {
            assert_ne!(x.fence_events, y.fence_events, "{}", x.name);
        } else {
            assert_eq!(x, y);
        }
    }
}
