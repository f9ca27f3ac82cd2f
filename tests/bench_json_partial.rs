//! Regression test for `specmt bench --json` partial results: a figure
//! definition that fails must not abort the run or silently vanish from
//! the JSON summary — it stays in the summary as an `"error"` entry and
//! every later definition still runs.
//!
//! (The original bug: `bench all --json` built figures through a
//! fail-fast path, so one aborting figure dropped *all* entries — its own
//! and every later one — from the written summary.)

use serde_json::Value;
use specmt::bench::figures::{self, FigureDef, FigureGroup};
use specmt::bench::{Harness, HarnessError};
use specmt::store::Store;
use specmt::workloads::Scale;

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

#[test]
fn failing_figure_keeps_partial_results_in_the_summary() {
    // Run against a disabled store so this test neither depends on nor
    // pollutes shared state.
    let h =
        Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("suite loads at tiny scale");

    let boom = FigureDef {
        id: "boom",
        summary: "always fails (test-only)",
        group: FigureGroup::Extra,
        build: |_| {
            Err(HarnessError::Scale {
                value: "synthetic failure".to_owned(),
            })
        },
    };
    let fig2 = figures::by_id("fig2").expect("fig2 is registered");
    let fig3 = figures::by_id("fig3").expect("fig3 is registered");
    let outcome = figures::run_defs(&h, &[fig2, &boom, fig3], false);

    // Definitions after the failure still ran.
    let built: Vec<&str> = outcome.figures.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(built, ["fig2", "fig3"], "later figures must still run");

    // The summary covers every *attempted* definition, in order, with the
    // failure recorded rather than omitted.
    assert_eq!(
        outcome.summary.len(),
        3,
        "one summary entry per attempted figure"
    );
    assert_eq!(str_field(&outcome.summary[0], "id"), "fig2");
    assert_eq!(str_field(&outcome.summary[1], "id"), "boom");
    assert_eq!(str_field(&outcome.summary[2], "id"), "fig3");
    assert!(
        str_field(&outcome.summary[1], "error").contains("synthetic failure"),
        "failed entry must carry the error message"
    );
    for ok in [&outcome.summary[0], &outcome.summary[2]] {
        assert!(
            ok.get("error").is_none(),
            "successful entries carry no error field"
        );
        assert!(
            ok.get("data").is_some(),
            "successful entries carry their figure data"
        );
    }

    // And the failure is surfaced to the caller so the CLI can still exit
    // non-zero after writing the partial summary.
    assert_eq!(outcome.errors.len(), 1);
    assert_eq!(outcome.errors[0].0, "boom");

    // The document the CLI writes from this summary round-trips with the
    // error entry intact.
    let doc = serde_json::json!({ "scale": "tiny", "figures": outcome.summary.clone() });
    let s = serde_json::to_string(&doc).expect("serialise");
    let back: Value = serde_json::from_str(&s).expect("reparse");
    let Some(Value::Array(entries)) = back.get("figures") else {
        panic!("figures array survives serialisation");
    };
    assert_eq!(entries.len(), 3);
    assert!(entries[1].get("error").is_some());
}
