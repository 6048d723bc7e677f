//! Byte-identity pins for the *text* report and the gate documents.
//!
//! The JSON report has a golden (`ci/golden_quick_report.json`); the
//! text `whisper-report` prints had none. FNV-1a digests are compared
//! against constants generated on the commit *before* the per-name
//! tables in `suite`/`report`/`crashtest` became projections of
//! `whisper::apps::APPS` (the first four) and on the commit before
//! every figure and gate became one report `Section` (the rest): the
//! full experiment text over the quick suite (seed 42, four scheduler
//! workers); every gate's table at `CampaignConfig::quick()` (serve at
//! two shards, to keep the sweep cheap); and every gate's standalone
//! `--<gate>-json` document, pretty-printed. A mismatch means a
//! refactor leaked into what the user reads.
//!
//! To regenerate after an *intended* output change:
//! `cargo test --test text_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use pmcheck::RuleSet;
use whisper::crashtest::{self, CampaignConfig};
use whisper::crossval::run_crossval;
use whisper::serve::{self, ServeConfig};
use whisper::suite::{run_suite, SuiteConfig};
use whisper::{check, hbgraph, optimize, profile, report};

/// `(what the digest covers, FNV-1a of its bytes)`.
#[rustfmt::skip]
const PINS: [(&str, u64); 15] = [
    ("report", 0x7d5aec3ae73cd073),
    ("crash", 0x3efb15001f0f60ff),
    ("crossval", 0xb06219d5ecb3582d),
    ("optimize", 0xdf5e55c82e858498),
    ("check", 0xdff64a08edb55d21),
    ("hbgraph", 0x7a5ea27a43cf9f10),
    ("serve", 0xd5ba2d5f70796bcc),
    ("profile", 0xa50b5e8851ea632b),
    ("violations.json", 0x23c401e5dbea4902),
    ("crash.json", 0xbd9990ddec12e9f1),
    ("crossval.json", 0x3e3ad3fb77eb98e9),
    ("optimize.json", 0x779ae0451354efd8),
    ("serve.json", 0x8199695b6c0a145c),
    ("profile.json", 0x7b2d77bcc78de92a),
    ("hb.graph.json", 0x72eb581862f76e7e),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The texts, in [`PINS`] order.
fn texts() -> [String; 15] {
    let cfg = SuiteConfig {
        scale: 0.05,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    let campaign = CampaignConfig::quick();
    let scfg = ServeConfig {
        shards: 2,
        ..ServeConfig::from_suite(&cfg)
    };
    let results = run_suite(&cfg);
    let crash = crashtest::run_campaign(&campaign);
    let crossval = run_crossval(&campaign);
    let optimized = optimize::optimize_results(&results, &campaign, campaign.parallelism);
    let checks = check::check_results(&results);
    let graphs = hbgraph::build_graphs(&results);
    let (served, profiles) = serve::run_serve_profiled(&scfg);
    [
        report::all(&results),
        crashtest::summary_table(&crash, &campaign),
        crossval.summary_table(),
        optimize::summary_table(&optimized),
        check::summary_table(&checks),
        hbgraph::summary_table(&graphs),
        report::serve_table(&served, scfg.arrival),
        profile::profile_table(&profiles),
        check::violations_json(&checks, RuleSet::all()).to_pretty(),
        crashtest::crash_json(&crash, &campaign).to_pretty(),
        crossval.to_json().to_pretty(),
        optimize::optimize_json(&optimized).to_pretty(),
        serve::serve_json(&served, &scfg).to_pretty(),
        profile::profile_json(&profiles, &scfg).to_pretty(),
        hbgraph::stats_json(&graphs).to_pretty(),
    ]
}

#[test]
fn report_text_is_byte_identical_to_the_pinned_commit() {
    for ((what, pinned), text) in PINS.into_iter().zip(texts()) {
        let got = fnv1a(&text);
        assert_eq!(
            got, pinned,
            "{what} text digest {got:#018x} != pinned {pinned:#018x}:\n{text}"
        );
    }
}

/// Prints the [`PINS`] table for the current commit.
#[test]
#[ignore = "generator: prints the PINS table, asserts nothing"]
fn print_pins() {
    for ((what, _), text) in PINS.into_iter().zip(texts()) {
        println!("    ({what:?}, {:#018x}),", fnv1a(&text));
    }
}
