//! Forking a set-up application is invisible in its results: for every
//! Table 1 row, at quick ops and at four workers and one, two forks of
//! one setup driven with two seeds — and then the setup itself — give
//! exactly the runs (events, counters, simulated duration) that fresh
//! setups give. The serving sweep calibrates every shard but the last
//! from such forks.

use whisper::apps::{AppRun, APPS};
use whisper::suite::SuiteConfig;

fn assert_same_run(got: &AppRun, want: &AppRun, what: &str) {
    assert_eq!(got.name, want.name, "{what}");
    assert_eq!(got.threads, want.threads, "{what}: threads");
    assert_eq!(got.stats, want.stats, "{what}: MemStats");
    assert_eq!(got.duration_ns, want.duration_ns, "{what}: simulated clock");
    assert!(got.events == want.events, "{what}: trace differs");
}

fn forks_match_fresh_runs(workers: u32) {
    let cfg = SuiteConfig::quick();
    let seeds = [cfg.seed, cfg.seed ^ 0x5eed];
    for app in &APPS {
        let ops = cfg.effective_ops(app.name).expect("a Table 1 row");
        let mut setup = (app.setup)(ops, workers);
        let forks = [setup.fork(), setup.fork()];
        for (fork, seed) in forks.into_iter().zip(seeds) {
            let what = format!("{} fork, seed {seed}, {workers} workers", app.name);
            assert_same_run(&fork.drive(seed, true), &app.run(ops, seed, workers), &what);
        }
        let what = format!("{} after two forks, {workers} workers", app.name);
        assert_same_run(
            &setup.drive(seeds[0], true),
            &app.run(ops, seeds[0], workers),
            &what,
        );
    }
}

#[test]
fn forked_setups_drive_like_fresh_ones_at_four_workers() {
    forks_match_fresh_runs(4);
}

#[test]
fn forked_setups_drive_like_fresh_ones_at_one_worker() {
    forks_match_fresh_runs(1);
}

/// The unpaced gem5 drive shares the setup too.
#[test]
fn a_fork_drives_the_unpaced_run_like_a_fresh_setup() {
    let cfg = SuiteConfig::quick();
    for app in APPS.iter().filter(|app| app.unpaced) {
        let ops = cfg.effective_ops(app.name).expect("a Table 1 row") / 2;
        let mut setup = (app.setup)(ops, 4);
        let fork = setup.fork();
        // The parent runs first this time: its writes must not reach
        // the fork's pages either.
        let parent = setup.drive(cfg.seed, true);
        assert_same_run(&parent, &app.run(ops, cfg.seed, 4), app.name);
        assert_same_run(
            &fork.drive(cfg.seed, false),
            &app.run_unpaced(ops, cfg.seed),
            app.name,
        );
    }
}
