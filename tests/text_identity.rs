//! Byte-identity pins for the *text* report.
//!
//! The JSON report has a golden (`ci/golden_quick_report.json`); the
//! text `whisper-report` prints had none. Four FNV-1a digests are
//! compared against constants generated on the commit *before* the
//! per-name tables in `suite`/`report`/`crashtest` became projections
//! of `whisper::apps::APPS`: the full experiment text over the quick
//! suite (seed 42, four scheduler workers), and the crash, crossval and
//! optimize tables at `CampaignConfig::quick()`. A mismatch means a
//! table refactor leaked into what the user reads.
//!
//! To regenerate after an *intended* output change:
//! `cargo test --test text_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use whisper::crashtest::{self, CampaignConfig};
use whisper::crossval::run_crossval;
use whisper::optimize;
use whisper::report;
use whisper::suite::{run_suite, SuiteConfig};

/// `(what the digest covers, FNV-1a of its bytes)`.
#[rustfmt::skip]
const PINS: [(&str, u64); 4] = [
    ("report", 0x7d5aec3ae73cd073),
    ("crash", 0x3efb15001f0f60ff),
    ("crossval", 0xb06219d5ecb3582d),
    ("optimize", 0xdf5e55c82e858498),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four texts, in [`PINS`] order.
fn texts() -> [String; 4] {
    let cfg = SuiteConfig {
        scale: 0.05,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    let campaign = CampaignConfig::quick();
    let results = run_suite(&cfg);
    [
        report::all(&results),
        crashtest::summary_table(&crashtest::run_campaign(&campaign), &campaign),
        run_crossval(&campaign).summary_table(),
        optimize::summary_table(&optimize::optimize_results(
            &results,
            &campaign,
            campaign.parallelism,
        )),
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
