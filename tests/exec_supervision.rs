//! Parallel-sweep integration tests over the real harness.
//!
//! The executor moves *scheduling*, never *results*, and a panicking cell
//! degrades instead of aborting:
//!
//! * an experiment grid run at `--jobs 1` and `--jobs 8` produces
//!   bit-identical `SimResult`s,
//! * the `specmt bench --metrics json` report is identical at `--jobs 1`
//!   and `--jobs 4`, rows in benchmark × scheme order,
//! * a panicking cell among real simulation cells comes back from
//!   `run_supervised` as `HarnessError::Supervised` at any width, and a
//!   panicking figure builder is recorded by `figures::run_defs` while its
//!   neighbours still build.

use std::sync::{Arc, OnceLock};

use specmt::bench::figures::{self, FigureDef, FigureGroup};
use specmt::bench::{run_supervised, ExperimentSpec, Harness, HarnessError, Variant};
use specmt::exec::{CellOutcome, ExecConfig, Executor, Task};
use specmt::sim::SimConfig;
use specmt::spawn::BUILTIN_SCHEME_NAMES;
use specmt::store::Store;
use specmt::workloads::Scale;

/// The tiny suite, loaded once for the whole test binary.
fn tiny() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| Harness::load_at(Scale::Tiny).expect("tiny suite loads"))
}

#[test]
fn grid_results_bit_identical_across_jobs() {
    let spec = ExperimentSpec::new(
        SimConfig::paper(4),
        vec![
            Variant::speedup("profile", "profile", vec![]),
            Variant::speedup("heuristics", "heuristics", vec![]),
        ],
    );
    let run_at = |jobs: usize| {
        let mut h = Harness::load_at(Scale::Tiny).expect("tiny suite loads");
        h.exec.jobs = jobs;
        spec.run(&h).expect("grid runs")
    };
    let serial = run_at(1);
    let wide = run_at(8);
    assert_eq!(
        serial.results, wide.results,
        "SimResults must not depend on --jobs"
    );
    assert_eq!(serial.values, wide.values);
    assert_eq!(serial.means, wide.means);
}

#[test]
fn metrics_report_identical_across_jobs() {
    // A disabled store, so the wide run re-simulates every cell instead of
    // reading the narrow run's results back.
    let report_at = |jobs: usize| {
        let mut h =
            Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("tiny suite loads");
        h.exec.jobs = jobs;
        let report =
            specmt::bench::metrics_report(&h, &SimConfig::paper(16), &BUILTIN_SCHEME_NAMES)
                .expect("metrics report builds");
        (
            h.benches.iter().map(|c| c.bench.name()).collect::<Vec<_>>(),
            report,
        )
    };
    let (benches, serial) = report_at(1);
    let (_, wide) = report_at(4);
    assert_eq!(serial, wide, "metrics report must not depend on --jobs");

    let Some(serde_json::Value::Array(rows)) = serial.get("rows") else {
        panic!("report has no rows array");
    };
    let text = |row: &serde_json::Value, key: &str| match row.get(key) {
        Some(serde_json::Value::Str(s)) => s.clone(),
        other => panic!("row {key} is not a string: {other:?}"),
    };
    let n = BUILTIN_SCHEME_NAMES.len();
    assert_eq!(rows.len(), benches.len() * n);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(text(row, "bench"), benches[i / n], "row {i} bench");
        assert_eq!(
            text(row, "scheme"),
            BUILTIN_SCHEME_NAMES[i % n],
            "row {i} scheme"
        );
    }
}

#[test]
fn panicking_sim_cell_becomes_a_supervised_error_at_any_width() {
    let h = tiny();
    let poisoned = 3;
    let cells = |jobs: usize| {
        let tasks = h
            .benches
            .iter()
            .enumerate()
            .map(|(i, ctx)| {
                let ctx = Arc::clone(ctx);
                let variant = if i == poisoned { "poisoned" } else { "paper4" };
                let label = format!("{}/{variant}", ctx.bench.name());
                Task::new(label, move || {
                    if i == poisoned {
                        panic!("injected panic in {}", ctx.bench.name());
                    }
                    ctx.sim(SimConfig::paper(4), &ctx.profile.table)
                })
            })
            .collect();
        run_supervised(&Executor::new(ExecConfig { jobs }), tasks)
    };
    let name = h.benches[poisoned].bench.name();
    for jobs in [1, 4] {
        match cells(jobs) {
            Err(HarnessError::Supervised { label, outcome }) => {
                assert_eq!(label, format!("{name}/poisoned"), "jobs {jobs}");
                assert_eq!(
                    outcome,
                    CellOutcome::Panicked {
                        message: format!("injected panic in {name}")
                    },
                    "jobs {jobs}"
                );
            }
            other => panic!("jobs {jobs}: expected a supervised error, got {other:?}"),
        }
    }
}

#[test]
fn panicking_figure_is_recorded_and_its_neighbours_still_build() {
    let h = Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("tiny suite loads");
    let boom = FigureDef {
        id: "boom",
        summary: "always panics (test-only)",
        group: FigureGroup::Extra,
        build: |_| panic!("figure builder exploded"),
    };
    let fig2 = figures::by_id("fig2").expect("fig2 is registered");
    let fig3 = figures::by_id("fig3").expect("fig3 is registered");
    let outcome = figures::run_defs(&h, &[fig2, &boom, fig3], false);

    let built: Vec<&str> = outcome.figures.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(
        built,
        ["fig2", "fig3"],
        "both neighbours of the panicking figure build"
    );
    assert_eq!(outcome.summary.len(), 3);
    match outcome.summary[1].get("error") {
        Some(serde_json::Value::Str(e)) => {
            assert_eq!(e, "cell `boom` degraded: panicked: figure builder exploded");
        }
        other => panic!("the panicking figure's entry has no error string: {other:?}"),
    }
    assert_eq!(outcome.errors.len(), 1);
    let (id, err) = &outcome.errors[0];
    assert_eq!(id, "boom");
    assert!(
        matches!(
            err,
            HarnessError::Supervised { label, outcome: CellOutcome::Panicked { message } }
                if label == "boom" && message == "figure builder exploded"
        ),
        "unexpected error: {err:?}"
    );
}
