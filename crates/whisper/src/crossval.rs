//! Happens-before vs. crash-image cross-validation
//! (`whisper-report --crossval`).
//!
//! The HB analysis (`pmcheck::hb`) and the crash campaign
//! (`crate::crashtest`) model durability from opposite ends: the
//! analysis *proves* order from the trace, the campaign *materializes*
//! states the machine could actually expose. This module pits them
//! against each other, both ways:
//!
//! * **Soundness gate** — for every Table 1 row of the crash campaign
//!   ([`crate::crashtest`]), ask [`pmcheck::hb::durable_lines_at_fences`]
//!   which lines the row's traced probe makes *spec-invariant durable*
//!   at each swept crash point, and judge every point of the row's
//!   capture under the whole crash-spec lattice.
//!   No image may disagree with the `DropVolatile` reference on a
//!   proven line: such an image would exhibit a state the HB analysis
//!   declares order-impossible, i.e. either the analysis over-claims
//!   or the trace/machine fence ordinals have drifted apart. The
//!   reference lands no in-flight line, so a spec's image departs from
//!   it exactly on the lines [`memsim::CrashState::landed`] returns:
//!   the check is `landed ∩ proven = ∅`, and no image is built.
//!
//! * **Positive control** — a deliberately seeded `P-EPOCH-RACE`
//!   (two happens-before-concurrent persists of one line) must do
//!   *both* of the things the rule claims: the checker flags it on the
//!   machine's own trace, and the adversarial crash specs materialize
//!   divergent images from the same crash state. A gate that can never
//!   fire proves nothing; this one is shown live ammunition.
//!
//! Both run under the campaign's quick shape by default: 11 apps ×
//! 4 points × 10 specs = 440 images.

use crate::crashtest::{campaign, spec_name, specs, CampaignConfig, CrashRun};
use crate::driver::Gate::Crossval;
use crate::section::{arr, count, plain, rows, sum, Col, Section};
use memsim::{CrashCounter, CrashPlan, CrashSpec, CrashState, Machine, MachineConfig};
use pmcheck::hb::durable_lines_at_fences;
use pmem::Line;
use pmobs::Json;
use pmtrace::{Category, Event, Tid};

/// One image that disagreed with the HB proof: which app and point,
/// which spec materialized it, and the proven-durable lines it flipped.
#[derive(Debug, Clone)]
pub struct CrossvalViolation {
    /// Fence ordinal of the crash point.
    pub at: u64,
    /// The crash spec that produced the impossible image.
    pub spec: String,
    /// Proven-durable lines whose bytes differ from the reference.
    pub lines: Vec<u64>,
}

/// One Table 1 row's cross-validation outcome.
#[derive(Debug, Clone)]
pub struct AppCrossval {
    /// Table 1 name.
    pub name: &'static str,
    /// The swept crash points (1-based fence ordinals).
    pub points: Vec<u64>,
    /// Images compared (`points × specs`).
    pub images: usize,
    /// Per point, how many lines the HB analysis proved
    /// spec-invariant durable (the teeth of the gate).
    pub proven_lines: Vec<usize>,
    /// Every order-impossible image (empty on a sound row).
    pub violations: Vec<CrossvalViolation>,
}

/// The positive control's outcome (see module docs).
#[derive(Debug, Clone)]
pub struct ControlReport {
    /// `P-EPOCH-RACE` errors the checker found on the control trace
    /// (must be ≥ 1).
    pub epoch_race_errors: usize,
    /// Distinct values the racing line held across the adversarial
    /// images (must be ≥ 2 — the race is observable).
    pub distinct_images: usize,
    /// Adversarial seeds tried.
    pub seeds: u64,
}

impl ControlReport {
    /// Did the seeded race both get flagged and materialize divergent
    /// images?
    pub fn passed(&self) -> bool {
        self.epoch_race_errors >= 1 && self.distinct_images >= 2
    }
}

/// The whole cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossvalReport {
    /// Per-app soundness results, Table 1 order.
    pub apps: Vec<AppCrossval>,
    /// The positive control.
    pub control: ControlReport,
}

impl CrossvalReport {
    /// A campaign's crossval view `apps` at `cfg`, plus the positive
    /// control.
    pub(crate) fn new(apps: Vec<AppCrossval>, cfg: &CampaignConfig) -> CrossvalReport {
        let control = positive_control(cfg.adversarial_seeds);
        CrossvalReport { apps, control }
    }

    /// Images materialized across all rows (excluding the control).
    pub fn total_images(&self) -> usize {
        self.apps.iter().map(|a| a.images).sum()
    }

    /// Order-impossible images across all rows.
    pub fn total_violations(&self) -> usize {
        self.apps.iter().map(|a| a.violations.len()).sum()
    }

    /// Lines proven durable across all rows and points (a zero here
    /// would make the gate vacuous).
    pub fn total_proven(&self) -> usize {
        self.apps
            .iter()
            .map(|a| a.proven_lines.iter().sum::<usize>())
            .sum()
    }

    /// The gate: no order-impossible image anywhere, a non-vacuous
    /// proof, and a live positive control.
    pub fn passed(&self) -> bool {
        self.total_violations() == 0 && self.total_proven() > 0 && self.control.passed()
    }

    /// The `hb.crossval` section of the report and the table
    /// `--crossval` prints.
    pub fn section(&self) -> Section {
        let c = &self.control;
        let (images, proven) = (self.total_images(), self.total_proven());
        let violations = self.total_violations();
        let control = Json::obj()
            .field("epoch_race_errors", c.epoch_race_errors)
            .field("distinct_images", c.distinct_images)
            .field("seeds", c.seeds)
            .field("passed", c.passed());
        let verdict = if self.passed() { "sound" } else { "UNSOUND" };
        Section::new("hb.crossval", "HB / crash-image cross-validation")
            .table(&self.apps, &COLS)
            .footer(format!(
                "control: {} epoch-race error(s), {} distinct image(s) over {} seed(s) — {}",
                c.epoch_race_errors,
                c.distinct_images,
                c.seeds,
                if c.passed() { "ok" } else { "FAILED" }
            ))
            .footer(format!(
                "total: {images} image(s), {proven} proven line-point(s), {violations} violation(s) — {verdict}"
            ))
            .rows_in("apps")
            .field("control", control)
            .field("total_images", images)
            .field("total_violations", violations)
            .field("total_proven_lines", proven)
            .field("passed", self.passed())
    }

    /// The `hb.crossval` section of the JSON report ([`section`](Self::section)).
    pub fn to_json(&self) -> Json {
        self.section().json()
    }

    /// The `--crossval` table ([`section`](Self::section)).
    pub fn summary_table(&self) -> String {
        self.section().text()
    }
}

#[rustfmt::skip]
const VIOLATION: [Col<CrossvalViolation>; 3] = [
    Col::json("at", |v| v.at.into()),
    Col::json("spec", |v| v.spec.as_str().into()),
    Col::json("lines", |v| arr(&v.lines)),
];

#[rustfmt::skip]
const COLS: [Col<AppCrossval>; 5] = [
    Col("name", "app", "<14", |a| a.name.into(), plain),
    Col("points", "points", " >6", |a| arr(&a.points), count),
    Col("images", "images", " >7", |a| a.images.into(), plain),
    Col("proven_lines", "proven lines", " >13", |a| arr(&a.proven_lines), sum),
    Col("violations", "violations", " >11", |a| rows(&a.violations, &VIOLATION).into(), count),
];

/// Cross-validate one campaign row: the HB durability proof over the
/// probe's `trace` at the points of the capture `run`, then every
/// point × spec's landed lines checked against the proven ones.
pub(crate) fn check_row(
    name: &'static str,
    trace: &[Event],
    run: &CrashRun,
    cfg: &CampaignConfig,
) -> AppCrossval {
    let points: Vec<u64> = run.states.iter().map(CrashState::at).collect();
    let proven = durable_lines_at_fences(trace, &points);
    let mut images = 0usize;
    let mut violations = Vec::new();
    for (state, proven_here) in run.states.iter().zip(&proven) {
        for spec in specs(cfg.adversarial_seeds) {
            images += 1;
            // The DropVolatile reference lands nothing, so the lines
            // where a spec's image departs from it are exactly the
            // lines it lands — no image needs building.
            let flipped: Vec<u64> = state
                .landed(spec)
                .into_iter()
                .map(|(l, _)| l)
                .filter(|l| proven_here.binary_search(l).is_ok())
                .map(|l| l.0)
                .collect();
            if !flipped.is_empty() {
                violations.push(CrossvalViolation {
                    at: state.at(),
                    spec: spec_name(spec),
                    lines: flipped,
                });
            }
        }
    }
    pmobs::count!("crossval.images", images as u64);
    pmobs::count!("crossval.violations", violations.len() as u64);
    AppCrossval {
        name,
        points,
        images,
        proven_lines: proven.iter().map(Vec::len).collect(),
        violations,
    }
}

/// The positive control: drive the machine through a two-thread epoch
/// race (two happens-before-concurrent persists of one line with
/// different snapshots), crash at the first fence, and check that the
/// checker flags `P-EPOCH-RACE` on the machine's own trace *and* the
/// adversarial specs materialize divergent images.
pub fn positive_control(seeds: u64) -> ControlReport {
    let (t0, t1) = (Tid(0), Tid(1));
    let mut m = Machine::new(MachineConfig::tiny_for_tests());
    let base = m.config().map.pm.base;
    let line = Line::containing(base);
    // A fresh machine records its trace from the start.
    m.set_crash_plan(CrashPlan::at_points(CrashCounter::Fences, vec![1]));
    // T0 writes A; T1 flushes the dirty line, parking snapshot A in its
    // pending set; T0 overwrites with B and persists it. At T0's fence
    // the durable bytes are B while T1's stale snapshot A is still in
    // flight — two concurrent persists, exactly what P-EPOCH-RACE
    // claims a crash can expose.
    m.store_u64(t0, base, 0xAAAA_AAAA, Category::UserData);
    m.clwb(t1, base);
    m.store_u64(t0, base, 0xBBBB_BBBB, Category::UserData);
    m.clwb(t0, base);
    m.sfence(t0);

    let report = pmcheck::check_events(m.trace_mut().events());
    let epoch_race_errors = report
        .findings
        .iter()
        .filter(|f| f.rule == pmcheck::Rule::EpochRace)
        .count();

    let states = m.take_crash_states();
    let state = states.first().expect("crash point 1 captured");
    // What the racing line lands as under each seed; `None` keeps its
    // durable bytes, and a landed value always differs from those.
    let mut values: Vec<Option<[u8; 64]>> = (1..=seeds)
        .map(|seed| {
            state
                .landed(CrashSpec::Adversarial { seed })
                .into_iter()
                .find_map(|(l, data)| (l == line).then_some(data))
        })
        .collect();
    values.sort();
    values.dedup();
    ControlReport {
        epoch_race_errors,
        distinct_images: values.len(),
        seeds,
    }
}

/// The crossval view alone: all eleven campaign rows plus the positive
/// control.
pub fn run_crossval(cfg: &CampaignConfig) -> CrossvalReport {
    CrossvalReport::new(campaign(cfg, |gate| gate == Crossval).crossval, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crashtest::Arm;

    #[test]
    fn positive_control_is_live_ammunition() {
        let control = positive_control(8);
        assert!(
            control.epoch_race_errors >= 1,
            "seeded race not flagged: {control:?}"
        );
        assert!(
            control.distinct_images >= 2,
            "adversarial images did not diverge: {control:?}"
        );
        assert!(control.passed());
    }

    #[test]
    fn echo_row_is_sound_and_non_vacuous() {
        let cfg = CampaignConfig {
            points: 3,
            adversarial_seeds: 4,
            parallelism: 1,
            worker_threads: 4,
        };
        let echo = &crate::apps::echo::APP;
        let probe = echo.crash(cfg.worker_threads, &Arm::default());
        let run = crate::crashtest::capture(echo, &cfg, &probe, None);
        let row = check_row(echo.name, &probe.trace, &run, &cfg);
        assert_eq!(row.images, row.points.len() * 6); // 2 corners + 4 seeds
        assert!(
            row.violations.is_empty(),
            "order-impossible images: {:?}",
            row.violations
        );
        assert!(
            row.proven_lines.iter().sum::<usize>() > 0,
            "vacuous proof: {:?}",
            row.proven_lines
        );
    }

    #[test]
    fn report_json_shape_and_gate() {
        let report = CrossvalReport {
            apps: vec![AppCrossval {
                name: "echo",
                points: vec![2, 4],
                images: 20,
                proven_lines: vec![3, 7],
                violations: Vec::new(),
            }],
            control: ControlReport {
                epoch_race_errors: 1,
                distinct_images: 2,
                seeds: 8,
            },
        };
        assert!(report.passed());
        let doc = report.to_json();
        assert_eq!(doc.get("passed").and_then(Json::as_f64), None); // bool, not number
        assert_eq!(doc.get("total_images").and_then(Json::as_f64), Some(20.0));
        assert_eq!(
            doc.get("total_proven_lines").and_then(Json::as_f64),
            Some(10.0)
        );
        let table = report.summary_table();
        assert!(table.contains("echo"), "{table}");
        assert!(table.contains("sound"), "{table}");

        // One flipped line anywhere fails the gate.
        let mut bad = report.clone();
        bad.apps[0].violations.push(CrossvalViolation {
            at: 2,
            spec: "adversarial:3".into(),
            lines: vec![7],
        });
        assert!(!bad.passed());
        assert!(bad.summary_table().contains("UNSOUND"));
    }
}
