//! The figure pipeline is deterministic end to end: trace generation,
//! pair selection, and the timing model are all integer/f64 computations
//! over seeded synthetic workloads, so every figure's rendered table is
//! reproducible bit for bit. This test pins the full tiny-scale output of
//! every paper figure against a committed golden file, guarding the whole
//! stack — the scheme registry, the `ExperimentSpec` runner, and the
//! figure builders — against silent behavioural drift.
//!
//! The golden file was captured from the pre-registry per-figure binaries,
//! so it also certifies that the consolidated `specmt bench` path
//! reproduces the original binaries' tables exactly.
//!
//! To regenerate after an *intentional* protocol change:
//!
//! ```text
//! cargo run --release -p specmt --bin specmt -- bench all --scale tiny \
//!     > tests/golden/figures_tiny.txt
//! ```
//!
//! (stdout carries only the figure blocks; progress lines go to stderr).

use std::collections::BTreeMap;

use specmt::bench::{figures, Harness};
use specmt::store::Store;
use specmt::workloads::Scale;

const GOLDEN: &str = include_str!("golden/figures_tiny.txt");

/// Splits concatenated `render_block` output into per-figure blocks keyed
/// by id. Order-insensitive so the registry may reorder figures without
/// invalidating the capture.
fn blocks(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for raw in text.split("=== ") {
        if raw.trim().is_empty() {
            continue;
        }
        let id = raw
            .split_whitespace()
            .next()
            .expect("block starts with an id")
            .to_owned();
        out.insert(id, format!("=== {raw}"));
    }
    out
}

#[test]
fn every_paper_figure_matches_golden_output() {
    // Run against a disabled store so this test neither depends on nor
    // pollutes shared state (tests/store_golden_differential.rs covers the
    // store-on path against the same capture).
    let h = Harness::load_at_with(Scale::Tiny, Store::disabled())
        .expect("suite loads at tiny scale");
    let figs = figures::all(&h).expect("all figures build");

    let golden = blocks(GOLDEN);
    let mut rendered = BTreeMap::new();
    for fig in &figs {
        rendered.insert(fig.id.clone(), fig.render_block());
    }

    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        rendered.keys().collect::<Vec<_>>(),
        "figure ids must match the golden capture"
    );
    for (id, want) in &golden {
        let got = &rendered[id];
        assert_eq!(
            got, want,
            "{id} diverged from the golden capture; if intentional, regenerate \
             tests/golden/figures_tiny.txt (see the module docs)"
        );
    }
}

// ---------------------------------------------------------------------------
// The adaptation drift study (Extra group, so `bench all` skips it)
// ---------------------------------------------------------------------------

const ADAPT_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fig_adaptation_tiny.txt"
);
const ADAPT_GOLDEN: &str = include_str!("golden/fig_adaptation_tiny.txt");

fn num(v: &serde_json::Value) -> f64 {
    match v {
        serde_json::Value::Float(f) => *f,
        serde_json::Value::Int(i) => *i as f64,
        serde_json::Value::UInt(u) => *u as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Pins the online-adaptation figure to its own committed capture — its
/// claim (an online scheme recovers a drifted input that static profile
/// pairs mishandle) is exactly the kind of number that must not move
/// silently — and asserts the claim itself from the structured payload.
///
/// To regenerate after an intentional change:
///
/// ```text
/// SPECMT_REGEN_ADAPT_GOLDEN=1 cargo test --release --test figure_golden adaptation
/// ```
#[test]
fn adaptation_figure_matches_golden_and_wins_under_drift() {
    let h = Harness::load_at_with(Scale::Tiny, Store::disabled())
        .expect("suite loads at tiny scale");
    let figs = figures::fig_adaptation(&h).expect("adaptation figure builds");
    let rendered: String = figs.iter().map(|f| f.render_block()).collect();

    if std::env::var_os("SPECMT_REGEN_ADAPT_GOLDEN").is_some() {
        std::fs::write(ADAPT_GOLDEN_PATH, &rendered).expect("golden written");
        panic!("regenerated {ADAPT_GOLDEN_PATH}; rerun without SPECMT_REGEN_ADAPT_GOLDEN");
    }
    assert_eq!(
        rendered, ADAPT_GOLDEN,
        "fig_adaptation diverged from its capture; if intentional, regenerate \
         tests/golden/fig_adaptation_tiny.txt (see the test docs)"
    );

    // The committed capture shows at least one drifted input where an
    // adaptive scheme beats static profile by a real margin (>5 %).
    let json = &figs[0].json;
    let Some(serde_json::Value::Array(rows)) = json.get("rows") else {
        panic!("fig_adaptation json carries a rows array");
    };
    assert!(rows.len() >= 4, "the drift study must cover >= 4 cross-input pairs");
    let wins = rows
        .iter()
        .filter(|row| {
            let profile = num(row.get("profile").expect("profile column"));
            let best = num(row.get("scoreboard").expect("scoreboard column"))
                .max(num(row.get("conf_gated").expect("conf_gated column")));
            best > 1.05 * profile
        })
        .count();
    assert!(wins >= 1, "no adaptive scheme beat static profile on any drifted input");
}

// ---------------------------------------------------------------------------
// Cross-input validation (Extra group)
// ---------------------------------------------------------------------------

const CROSS_GOLDEN: &str = include_str!("golden/crossinput_tiny.txt");

/// Pins the cross-input validation figure (train-selected pairs run on the
/// reference input) to its committed capture.
///
/// To regenerate after an intentional change:
///
/// ```text
/// SPECMT_CACHE=off cargo run --release -p specmt --bin specmt -- \
///     bench crossinput --scale tiny > tests/golden/crossinput_tiny.txt
/// ```
#[test]
fn crossinput_figure_matches_golden() {
    let h = Harness::load_at_with(Scale::Tiny, Store::disabled())
        .expect("suite loads at tiny scale");
    let figs = figures::crossinput(&h).expect("cross-input figure builds");
    let rendered: String = figs.iter().map(|f| f.render_block()).collect();
    assert_eq!(
        rendered, CROSS_GOLDEN,
        "crossinput diverged from its capture; if intentional, regenerate \
         tests/golden/crossinput_tiny.txt (see the test docs)"
    );
}

// ---------------------------------------------------------------------------
// Parameter ablations (Extra group)
// ---------------------------------------------------------------------------

const ABLATIONS_GOLDEN: &str = include_str!("golden/ablations_tiny.txt");

/// Pins the parameter ablations (selection thresholds, hardware
/// parameters, predictor kinds, policy shootout) to their committed
/// capture.
///
/// To regenerate after an intentional change:
///
/// ```text
/// SPECMT_CACHE=off cargo run --release -p specmt --bin specmt -- \
///     bench ablations --scale tiny > tests/golden/ablations_tiny.txt
/// ```
#[test]
fn ablations_figure_matches_golden() {
    let h = Harness::load_at_with(Scale::Tiny, Store::disabled())
        .expect("suite loads at tiny scale");
    let figs = figures::ablations(&h).expect("ablations build");
    let rendered: String = figs.iter().map(|f| f.render_block()).collect();
    assert_eq!(
        rendered, ABLATIONS_GOLDEN,
        "ablations diverged from their capture; if intentional, regenerate \
         tests/golden/ablations_tiny.txt (see the test docs)"
    );
}
