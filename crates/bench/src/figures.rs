//! The figure registry: one entry per figure of the paper's evaluation.
//!
//! Each paper figure is a declarative [`ExperimentSpec`] (benchmarks ×
//! scheme variants) whose grid the figure builder formats; the few figures
//! with derived columns (Figure 8's ratio, Figure 11's slow-down, Figure
//! 12's means-only table) post-process the same grid. Paper reference
//! values quoted in the notes come from §4 of Marcuello & González
//! (HPCA 2002).
//!
//! [`registry`] lists every figure the `specmt bench` CLI can run; the
//! `all` target is the [`FigureGroup::Paper`] group in paper order. The
//! [`FigureGroup::Extra`] entries are this reproduction's own studies (the
//! parameter ablations and the cross-input validation), formerly separate
//! binaries.
//!
//! All builders take the already-loaded [`Harness`] — they never regenerate
//! traces or spawn tables themselves, so running every figure in one
//! process does the expensive pipeline work exactly once. The cross-input
//! studies load the reference input through [`Harness::on_input`]. Every
//! batch of simulations is an [`ExperimentSpec`].

use serde_json::json;

use specmt_predict::ValuePredictorKind;
use specmt_sim::{ConfigDelta, RemovalPolicy, SimConfig, SimResult};
use specmt_spawn::{ProfileConfig, SchemeParams};
use specmt_stats::{arithmetic_mean, Table};
use specmt_workloads::InputSet;

use crate::{
    f2, pct, standard_removal, ExperimentSpec, Figure, Harness, HarnessError, Metric, Variant,
};

/// The Figure 7b minimum-size enforcement as a delta.
const MIN32: ConfigDelta = ConfigDelta::MinObservedSize(Some(32));
const STRIDE: ConfigDelta = ConfigDelta::ValuePredictor(ValuePredictorKind::Stride);
const FCM: ConfigDelta = ConfigDelta::ValuePredictor(ValuePredictorKind::Fcm);
const OVH8: ConfigDelta = ConfigDelta::InitOverhead(8);

fn removal(alone_cycles: u64, occurrences: u32) -> ConfigDelta {
    ConfigDelta::Removal(Some(RemovalPolicy {
        alone_cycles,
        occurrences,
    }))
}

/// The paper's per-benchmark removal scheme (200 cycles for compress) as a
/// [`Variant::per_bench`] hook.
fn std_removal(bench_name: &str) -> Vec<ConfigDelta> {
    vec![ConfigDelta::Removal(Some(standard_removal(bench_name)))]
}

/// Figure 2: number of selected basic-block pairs and number of distinct
/// spawning points per benchmark.
///
/// # Errors
///
/// Returns the first benchmark's simulation failure, if any.
pub fn fig2(h: &Harness) -> Result<Figure, HarnessError> {
    let mut table = Table::new(&[
        "bench",
        "selected pairs",
        "distinct SPs",
        "kept blocks",
        "coverage",
    ]);
    let mut pairs = Vec::new();
    let mut sps = Vec::new();
    let mut json_rows = Vec::new();
    for ctx in &h.benches {
        let p = &ctx.profile;
        table.row_owned(vec![
            ctx.bench.name().into(),
            p.selected_pairs.to_string(),
            p.distinct_sps.to_string(),
            p.kept_blocks.to_string(),
            pct(p.coverage),
        ]);
        pairs.push(p.selected_pairs as f64);
        sps.push(p.distinct_sps as f64);
        json_rows.push(json!({
            "bench": ctx.bench.name(),
            "selected_pairs": p.selected_pairs,
            "distinct_sps": p.distinct_sps,
            "kept_blocks": p.kept_blocks,
            "coverage": p.coverage,
        }));
    }
    table.row_owned(vec![
        "Amean".into(),
        f2(arithmetic_mean(&pairs)),
        f2(arithmetic_mean(&sps)),
    ]);
    Ok(Figure {
        id: "fig2".into(),
        title: "Selected spawning pairs (min prob 0.95, min distance 32)".into(),
        table,
        notes: vec![
            "Paper (SpecInt95): 6218 pairs / 499 distinct SPs on average — real programs".into(),
            "have orders of magnitude more hot basic blocks than the synthetic suite.".into(),
        ],
        json: json!({"rows": json_rows}),
    })
}

/// Figure 3: speed-up over single-threaded execution, 16 thread units,
/// profile-based policy, perfect value prediction.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig3(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![Variant::speedup("speed-up", "profile", vec![])],
    )
    .run(h)?;
    let hm = grid.means[0];
    Ok(Figure {
        id: "fig3".into(),
        title: "Speed-up, 16 TUs, profile-based spawning, perfect value prediction".into(),
        table: grid.table_with(f2),
        notes: vec![format!(
            "Paper: Hmean 7.2, ijpeg 11.9 (highest). Measured Hmean {}.",
            f2(hm)
        )],
        json: json!({"speedups": grid.bench_names.iter().zip(&grid.values[0]).map(|(n, s)| json!({"bench": n, "speedup": s})).collect::<Vec<_>>(), "hmean": hm}),
    })
}

/// Figure 4: average number of active threads for the Figure 3 runs.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig4(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![Variant::speedup("active threads", "profile", vec![])
            .with_metric(Metric::ActiveThreads)],
    )
    .amean()
    .run(h)?;
    let am = grid.means[0];
    Ok(Figure {
        id: "fig4".into(),
        title: "Average active threads, 16 TUs, profile-based spawning".into(),
        notes: vec![format!(
            "Paper: Amean 7.5, ijpeg 9.0. Measured Amean {}.",
            f2(am)
        )],
        table: grid.table_with(f2),
        json: json!({"active": grid.bench_names.iter().zip(&grid.values[0]).map(|(n, a)| json!({"bench": n, "active": a})).collect::<Vec<_>>(), "amean": am}),
    })
}

/// Figure 5a: spawning-pair removal after executing alone — never, 50
/// cycles, 200 cycles (first occurrence removes, the paper's protocol).
///
/// # Errors
///
/// As [`fig2`].
pub fn fig5a(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("no removal", "profile", vec![]),
            Variant::speedup("removal 50", "profile", vec![removal(50, 1)]),
            Variant::speedup("removal 200", "profile", vec![removal(200, 1)]),
        ],
    )
    .run(h)?;
    Ok(Figure {
        id: "fig5a".into(),
        title: "Pair removal after executing alone (1 occurrence removes)".into(),
        table: grid.table_with(f2),
        notes: vec![
            "Paper: 200-cycle removal ~10% over no removal; compress collapses at 50".into(),
            "cycles (too few pairs). With our small synthetic tables, first-occurrence".into(),
            "removal collapses more benchmarks — Figure 5b's delayed removal recovers them.".into(),
        ],
        json: json!({"hmeans": {"none": grid.means[0], "alone50": grid.means[1], "alone200": grid.means[2]}}),
    })
}

/// Figure 5b: delaying removal until 1/8/16 occurrences (50-cycle scheme).
///
/// # Errors
///
/// As [`fig2`].
pub fn fig5b(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("1 occurrence", "profile", vec![removal(50, 1)]),
            Variant::speedup("8 occurrences", "profile", vec![removal(50, 8)]),
            Variant::speedup("16 occurrences", "profile", vec![removal(50, 16)]),
        ],
    )
    .run(h)?;
    Ok(Figure {
        id: "fig5b".into(),
        title: "Delayed pair removal: occurrences before cancelling (50-cycle scheme)".into(),
        table: grid.table_with(f2),
        notes: vec![
            "Paper: delaying mostly helps compress (hugely) and slightly hurts the rest.".into(),
            "Measured: the delay rescues every benchmark that collapsed at 1 occurrence.".into(),
        ],
        json: json!({"hmeans": {"occ1": grid.means[0], "occ8": grid.means[1], "occ16": grid.means[2]}}),
    })
}

/// Figure 6: the reassign policy (fall back to the next CQIP) compared with
/// the standard removal scheme.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig6(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("removal", "profile", vec![]).with_per_bench(std_removal),
            Variant::speedup("reassign", "profile", vec![ConfigDelta::Reassign(true)])
                .with_per_bench(std_removal),
        ],
    )
    .run(h)?;
    let (h1, h2) = (grid.means[0], grid.means[1]);
    Ok(Figure {
        id: "fig6".into(),
        title: "Reassign policy vs the 50-cycle removal scheme (200 for compress)".into(),
        table: grid.table_with(f2),
        notes: vec![format!(
            "Paper: reassign is slightly worse (falls back to too-close CQIPs). Measured: {} vs {}.",
            f2(h1),
            f2(h2)
        )],
        json: json!({"removal": h1, "reassign": h2}),
    })
}

/// Figure 7a: average committed thread size under the standard removal
/// scheme.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig7a(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("mean size", "profile", vec![])
                .with_metric(Metric::MeanThreadSize)
                .with_per_bench(std_removal),
            Variant::speedup("median size", "profile", vec![])
                .with_metric(Metric::MedianThreadSize)
                .with_per_bench(std_removal),
        ],
    )
    .amean()
    .run(h)?;
    Ok(Figure {
        id: "fig7a".into(),
        title: "Committed thread size (instructions), standard removal".into(),
        table: grid.table_with(f2),
        notes: vec![
            "Paper: most benchmarks below the 32-instruction selection minimum — the".into(),
            "overlapped spawning of later pairs cuts threads short. The *median* shows".into(),
            "it here too; the mean is skewed by a few giant threads.".into(),
        ],
        json: json!({"amean": grid.means[0], "median_amean": grid.means[1], "sizes": grid.values[0].clone(), "medians": grid.values[1].clone()}),
    })
}

/// Figure 7b: enforcing a minimum observed thread size of 32.
///
/// Protocol note: the paper layers the minimum on top of the alone-removal
/// scheme; with our small pair tables the two removal mechanisms compound
/// destructively, so the minimum is applied to the base policy here (see
/// EXPERIMENTS.md).
///
/// # Errors
///
/// As [`fig2`].
pub fn fig7b(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("no minimum", "profile", vec![]),
            Variant::speedup("minimum 32", "profile", vec![MIN32]),
        ],
    )
    .run(h)?;
    let (h1, h2) = (grid.means[0], grid.means[1]);
    Ok(Figure {
        id: "fig7b".into(),
        title: "Enforcing a minimum observed thread size of 32".into(),
        table: grid.table_with(f2),
        notes: vec![format!(
            "Paper: ~10% improvement. Measured: {} -> {} ({:+.1}%).",
            f2(h1),
            f2(h2),
            (h2 / h1 - 1.0) * 100.0
        )],
        json: json!({"no_min": h1, "min32": h2}),
    })
}

/// Figure 8: the profile-based policy (with its dynamic mechanisms) against
/// the combined construct heuristics.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig8(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("profile", "profile", vec![MIN32]),
            Variant::speedup("heuristics", "heuristics", vec![]),
        ],
    )
    .run(h)?;
    let mut table = Table::new(&["bench", "profile", "heuristics", "ratio"]);
    let mut ratios = Vec::new();
    for (bi, name) in grid.bench_names.iter().enumerate() {
        let (sp, sh) = (grid.values[0][bi], grid.values[1][bi]);
        let ratio = sp / sh;
        ratios.push(ratio);
        table.row_owned(vec![(*name).into(), f2(sp), f2(sh), f2(ratio)]);
    }
    let (hp, hh) = (grid.means[0], grid.means[1]);
    table.row_owned(vec!["Hmean".into(), f2(hp), f2(hh), f2(hp / hh)]);
    Ok(Figure {
        id: "fig8".into(),
        title: "Profile-based policy vs combined heuristics (speed-up ratio)".into(),
        table,
        notes: vec![format!(
            "Paper: ~20% overall win, >10% on most, perl an 8% loss (work imbalance). Measured overall: {:+.1}%.",
            (hp / hh - 1.0) * 100.0
        )],
        json: json!({"profile": hp, "heuristics": hh, "ratios": ratios}),
    })
}

/// Figure 9a: live-in value-prediction accuracy for stride and context
/// (FCM) predictors under both spawning policies.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig9a(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("stride+profile", "profile", vec![MIN32, STRIDE])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("fcm+profile", "profile", vec![MIN32, FCM])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("stride+heur", "heuristics", vec![STRIDE])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("fcm+heur", "heuristics", vec![FCM])
                .with_metric(Metric::ValueHitRatio),
        ],
    )
    .amean()
    .run(h)?;
    let means = &grid.means;
    Ok(Figure {
        id: "fig9a".into(),
        title: "Value-prediction hit ratio (16 KB tables, thread live-ins only)".into(),
        table: grid.table_with(pct),
        notes: vec![format!(
            "Paper: ~70% for all four combinations. Measured means: {} / {} / {} / {}.",
            pct(means[0]),
            pct(means[1]),
            pct(means[2]),
            pct(means[3])
        )],
        json: json!({"amean": {"stride_profile": means[0], "fcm_profile": means[1], "stride_heur": means[2], "fcm_heur": means[3]}}),
    })
}

/// Figure 9b: speed-ups with perfect vs stride value prediction, both
/// policies.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig9b(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("perfect+profile", "profile", vec![MIN32]),
            Variant::speedup("stride+profile", "profile", vec![MIN32, STRIDE]),
            Variant::speedup("perfect+heur", "heuristics", vec![]),
            Variant::speedup("stride+heur", "heuristics", vec![STRIDE]),
        ],
    )
    .run(h)?;
    let hmeans = &grid.means;
    Ok(Figure {
        id: "fig9b".into(),
        title: "Speed-ups with a realistic stride value predictor".into(),
        table: grid.table_with(f2),
        notes: vec![
            format!(
                "Paper: profile 7.2 -> >6 with stride (-34%), heuristics -> ~5.5 (-30%), gap narrows to 13%."
            ),
            format!(
                "Measured: profile {} -> {} ({:+.1}%), heuristics {} -> {} ({:+.1}%).",
                f2(hmeans[0]),
                f2(hmeans[1]),
                (hmeans[1] / hmeans[0] - 1.0) * 100.0,
                f2(hmeans[2]),
                f2(hmeans[3]),
                (hmeans[3] / hmeans[2] - 1.0) * 100.0
            ),
        ],
        json: json!({"hmeans": {"perfect_profile": hmeans[0], "stride_profile": hmeans[1], "perfect_heur": hmeans[2], "stride_heur": hmeans[3]}}),
    })
}

/// Figure 10a: prediction accuracy when CQIPs are chosen by the
/// *independent* / *predictable* criteria.
///
/// The alternative-criterion tables come from the `profile-independent` /
/// `profile-predictable` schemes; the per-benchmark memo means fig10a and
/// fig10b share one selection per process.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig10a(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("stride+indep", "profile-independent", vec![MIN32, STRIDE])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("fcm+indep", "profile-independent", vec![MIN32, FCM])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("stride+pred", "profile-predictable", vec![MIN32, STRIDE])
                .with_metric(Metric::ValueHitRatio),
            Variant::speedup("fcm+pred", "profile-predictable", vec![MIN32, FCM])
                .with_metric(Metric::ValueHitRatio),
        ],
    )
    .amean()
    .run(h)?;
    let means = &grid.means;
    Ok(Figure {
        id: "fig10a".into(),
        title: "Prediction accuracy for the independent / predictable CQIP criteria".into(),
        table: grid.table_with(pct),
        notes: vec![
            "Paper: the predictable-oriented policy reaches the best hit ratio (~75%).".into(),
        ],
        json: json!({"amean": {"stride_indep": means[0], "fcm_indep": means[1], "stride_pred": means[2], "fcm_pred": means[3]}}),
    })
}

/// Figure 10b: speed-ups of the independent / predictable criteria with a
/// stride predictor.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig10b(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(16),
        vec![
            Variant::speedup("max-distance", "profile", vec![MIN32, STRIDE]),
            Variant::speedup("independent", "profile-independent", vec![MIN32, STRIDE]),
            Variant::speedup("predictable", "profile-predictable", vec![MIN32, STRIDE]),
        ],
    )
    .run(h)?;
    let hmeans = &grid.means;
    Ok(Figure {
        id: "fig10b".into(),
        title: "Speed-up of the independent / predictable criteria (stride predictor)".into(),
        table: grid.table_with(f2),
        notes: vec![format!(
            "Paper: both ~35% below max-distance (smaller threads). Measured: {:+.1}% / {:+.1}%.",
            (hmeans[1] / hmeans[0] - 1.0) * 100.0,
            (hmeans[2] / hmeans[0] - 1.0) * 100.0
        )],
        json: json!({"hmeans": {"max_distance": hmeans[0], "independent": hmeans[1], "predictable": hmeans[2]}}),
    })
}

/// Figure 11: slow-down from an 8-cycle thread-initialisation overhead
/// (stride predictor).
///
/// # Errors
///
/// As [`fig2`].
pub fn fig11(h: &Harness) -> Result<Figure, HarnessError> {
    // Four policy/predictor combinations, each simulated with and without
    // the overhead; the grid's raw cycle counts yield the slow-downs.
    let combos: [(&'static str, &'static str, &'static [ConfigDelta]); 4] = [
        ("profile (stride)", "profile", &[MIN32, STRIDE]),
        ("heur (stride)", "heuristics", &[STRIDE]),
        ("profile (perfect)", "profile", &[MIN32]),
        ("heur (perfect)", "heuristics", &[]),
    ];
    let mut variants = Vec::new();
    for (label, scheme, deltas) in combos {
        variants.push(Variant::speedup(label, scheme, deltas.to_vec()).with_metric(Metric::Cycles));
        let mut with_ovh = deltas.to_vec();
        with_ovh.push(OVH8);
        variants.push(Variant::speedup(label, scheme, with_ovh).with_metric(Metric::Cycles));
    }
    let grid = ExperimentSpec::new(SimConfig::paper(16), variants).run(h)?;
    let mut table = Table::new(&[
        "bench",
        "profile (stride)",
        "heur (stride)",
        "profile (perfect)",
        "heur (perfect)",
    ]);
    let mut sums = vec![Vec::new(); 4];
    for (bi, name) in grid.bench_names.iter().enumerate() {
        let mut cells = vec![(*name).to_string()];
        for (ci, s) in sums.iter_mut().enumerate() {
            let c0 = grid.values[2 * ci][bi];
            let c8 = grid.values[2 * ci + 1][bi];
            let v = 1.0 - c0 / c8;
            s.push(v);
            cells.push(pct(v));
        }
        table.row_owned(cells);
    }
    let means: Vec<f64> = sums.iter().map(|s| arithmetic_mean(s)).collect();
    table.row_owned(
        std::iter::once("Amean".to_string())
            .chain(means.iter().map(|&v| pct(v)))
            .collect(),
    );
    Ok(Figure {
        id: "fig11".into(),
        title: "Slow-down from an 8-cycle thread-initialisation overhead".into(),
        table,
        notes: vec![
            format!("Paper (stride predictor): 12% average for both policies (8-16% range)."),
            format!(
                "Measured: stride {} / {}; perfect-VP columns added because stride-regime",
                pct(means[0]),
                pct(means[1])
            ),
            format!(
                "spawn dynamics are chaotic at this scale: perfect {} / {}.",
                pct(means[2]),
                pct(means[3])
            ),
        ],
        json: json!({"stride": {"profile": means[0], "heuristics": means[1]}, "perfect": {"profile": means[2], "heuristics": means[3]}}),
    })
}

/// Figure 12: average speed-ups with 4 thread units.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig12(h: &Harness) -> Result<Figure, HarnessError> {
    let grid = ExperimentSpec::new(
        SimConfig::paper(4),
        vec![
            Variant::speedup("profile/perfect", "profile", vec![MIN32]),
            Variant::speedup("profile/stride", "profile", vec![MIN32, STRIDE]),
            Variant::speedup("profile/stride+ovh8", "profile", vec![MIN32, STRIDE, OVH8]),
            Variant::speedup("heuristics/perfect", "heuristics", vec![]),
            Variant::speedup("heuristics/stride", "heuristics", vec![STRIDE]),
            Variant::speedup("heuristics/stride+ovh8", "heuristics", vec![STRIDE, OVH8]),
        ],
    )
    .run(h)?;
    let mut table = Table::new(&["configuration", "Hmean speed-up"]);
    for (label, v) in grid.labels.iter().zip(&grid.means) {
        table.row_owned(vec![label.clone(), f2(*v)]);
    }
    Ok(Figure {
        id: "fig12".into(),
        title: "Average speed-ups with 4 thread units".into(),
        table,
        notes: vec![
            "Paper: profile 2.75 (perfect) / ~2.05 (stride) / ~1.9 (stride + 8-cycle overhead),"
                .into(),
            "heuristics slightly lower in each case.".into(),
        ],
        json: json!(grid
            .labels
            .iter()
            .zip(&grid.means)
            .map(|(n, v)| json!({"config": n, "hmean": v}))
            .collect::<Vec<_>>()),
    })
}

// ---------------------------------------------------------------------------
// Extra studies (formerly the `ablations` and `crossinput` binaries)
// ---------------------------------------------------------------------------

/// An ablation figure: a table of sweep points plus their JSON rows.
fn ablation(id: &str, title: &str, table: Table, rows: Vec<serde_json::Value>) -> Figure {
    Figure {
        id: id.into(),
        title: title.into(),
        table,
        notes: vec![],
        json: json!({ "rows": rows }),
    }
}

/// Mean live-in value-prediction hit ratio of one grid column.
fn mean_hit_ratio(results: &[SimResult]) -> f64 {
    let hits: Vec<f64> = results.iter().map(SimResult::value_hit_ratio).collect();
    arithmetic_mean(&hits)
}

/// The default selection parameters with the profile configuration
/// changed by `edit` (one point of a selection-threshold sweep).
fn profile_params(edit: impl FnOnce(&mut ProfileConfig)) -> SchemeParams {
    let mut params = SchemeParams::default();
    edit(&mut params.profile);
    params
}

/// The parameter ablations: selection thresholds, hardware parameters,
/// value-predictor kinds, and a four-way policy shootout including the
/// related-work MEM-slicing and return-pair schemes. Each sweep is one
/// [`ExperimentSpec`] over the best-profile configuration.
///
/// # Errors
///
/// As [`fig2`], plus [`HarnessError::Scheme`] for selection failures.
pub fn ablations(h: &Harness) -> Result<Vec<Figure>, HarnessError> {
    let base = crate::best_profile_config(16);
    let mut figs = Vec::new();

    // --- Selection thresholds: each point selects its own tables --------
    let thresholds = [
        (
            "abl-min-prob",
            "Ablation: minimum reaching probability (paper fixes 0.95)",
            "min probability",
            "min_prob",
            [0.5, 0.8, 0.9, 0.95, 0.99]
                .map(|p| {
                    (
                        format!("{p:.2}"),
                        json!(p),
                        profile_params(|c| c.min_prob = p),
                    )
                })
                .to_vec(),
        ),
        (
            "abl-min-distance",
            "Ablation: minimum spawning distance (paper fixes 32)",
            "min distance",
            "min_distance",
            [8.0, 16.0, 32.0, 64.0, 128.0]
                .map(|d| {
                    (
                        format!("{d}"),
                        json!(d),
                        profile_params(|c| c.min_distance = d),
                    )
                })
                .to_vec(),
        ),
        (
            "abl-max-distance",
            "Ablation: maximum spawning distance",
            "max distance",
            "max_distance",
            [Some(100.0), Some(200.0), Some(300.0), Some(600.0), None]
                .map(|d| {
                    let label = d.map_or_else(|| "unbounded".into(), |d: f64| format!("{d}"));
                    (label, json!(d), profile_params(|c| c.max_distance = d))
                })
                .to_vec(),
        ),
        (
            "abl-coverage",
            "Ablation: CFG execution coverage (paper fixes 90%)",
            "CFG coverage",
            "coverage",
            [0.5, 0.7, 0.9, 0.99]
                .map(|c| {
                    (
                        format!("{c:.2}"),
                        json!(c),
                        profile_params(|p| p.coverage = c),
                    )
                })
                .to_vec(),
        ),
    ];
    for (id, title, header, key, points) in thresholds {
        let variants = points
            .iter()
            .map(|(label, _, params)| {
                Variant::speedup(format!("{key} {label}"), "profile", vec![])
                    .with_params(params.clone())
            })
            .collect();
        let grid = ExperimentSpec::new(base.clone(), variants).run(h)?;
        let mut t = Table::new(&[header, "hmean"]);
        let mut rows = Vec::new();
        for ((label, value, _), &hm) in points.into_iter().zip(&grid.means) {
            t.row_owned(vec![label, f2(hm)]);
            rows.push(json!({ key: value, "hmean": hm }));
        }
        figs.push(ablation(id, title, t, rows));
    }

    // --- Hardware parameters --------------------------------------------
    // Each point runs perfect and stride value prediction side by side:
    // columns 2i and 2i+1 of the grid.
    let paired = |label: &str, delta: ConfigDelta| {
        [
            Variant::speedup(format!("{label} perfect"), "profile", vec![delta]),
            Variant::speedup(format!("{label} stride"), "profile", vec![delta, STRIDE]),
        ]
    };
    let tus = [2usize, 4, 8, 16, 32];
    let variants = tus
        .iter()
        .flat_map(|&n| paired(&format!("{n} TUs"), ConfigDelta::ThreadUnits(n)))
        .collect();
    let grid = ExperimentSpec::new(base.clone(), variants).run(h)?;
    let mut t = Table::new(&["thread units", "perfect", "stride"]);
    let mut rows = Vec::new();
    for (i, n) in tus.into_iter().enumerate() {
        let (p, s) = (grid.means[2 * i], grid.means[2 * i + 1]);
        t.row_owned(vec![format!("{n}"), f2(p), f2(s)]);
        rows.push(json!({"thread_units": n, "perfect": p, "stride": s}));
    }
    let title = "Ablation: thread-unit count";
    figs.push(ablation("abl-thread-units", title, t, rows));

    let kbs = [1usize, 4, 16, 64];
    let variants = kbs
        .iter()
        .map(|&kb| {
            let budget = ConfigDelta::PredictorBudget(kb * 1024);
            Variant::speedup(format!("{kb} KB"), "profile", vec![STRIDE, budget])
        })
        .collect();
    let grid = ExperimentSpec::new(base.clone(), variants).run(h)?;
    let mut t = Table::new(&["predictor budget", "hmean (stride)", "accuracy"]);
    let mut rows = Vec::new();
    for (i, kb) in kbs.into_iter().enumerate() {
        let (hm, acc) = (grid.means[i], mean_hit_ratio(&grid.results[i]));
        t.row_owned(vec![
            format!("{kb} KB"),
            f2(hm),
            format!("{:.1}%", 100.0 * acc),
        ]);
        rows.push(json!({"budget_kb": kb, "hmean": hm, "accuracy": acc}));
    }
    figs.push(ablation(
        "abl-predictor-budget",
        "Ablation: value-predictor budget (paper fixes 16 KB)",
        t,
        rows,
    ));

    let fwds = [0u64, 1, 3, 6, 10];
    let variants = fwds
        .iter()
        .flat_map(|&fwd| paired(&format!("fwd {fwd}"), ConfigDelta::ForwardLatency(fwd)))
        .collect();
    let grid = ExperimentSpec::new(base.clone(), variants).run(h)?;
    let mut t = Table::new(&["forward latency", "perfect", "stride"]);
    let mut rows = Vec::new();
    for (i, fwd) in fwds.into_iter().enumerate() {
        let (p, s) = (grid.means[2 * i], grid.means[2 * i + 1]);
        t.row_owned(vec![format!("{fwd}"), f2(p), f2(s)]);
        rows.push(json!({"forward_latency": fwd, "perfect": p, "stride": s}));
    }
    figs.push(ablation(
        "abl-forward-latency",
        "Ablation: inter-unit forward latency (paper fixes 3 cycles)",
        t,
        rows,
    ));

    // --- Value-predictor kinds -------------------------------------------
    let kinds = [
        ValuePredictorKind::Perfect,
        ValuePredictorKind::Stride,
        ValuePredictorKind::Fcm,
        ValuePredictorKind::Hybrid,
        ValuePredictorKind::LastValue,
        ValuePredictorKind::None,
    ];
    let variants = kinds
        .iter()
        .map(|&kind| {
            Variant::speedup(
                kind.to_string(),
                "profile",
                vec![ConfigDelta::ValuePredictor(kind)],
            )
        })
        .collect();
    let grid = ExperimentSpec::new(base.clone(), variants).run(h)?;
    let mut t = Table::new(&["predictor", "hmean", "accuracy"]);
    let mut rows = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let (hm, acc) = (grid.means[i], mean_hit_ratio(&grid.results[i]));
        t.row_owned(vec![
            kind.to_string(),
            f2(hm),
            format!("{:.1}%", 100.0 * acc),
        ]);
        rows.push(json!({"predictor": kind.to_string(), "hmean": hm, "accuracy": acc}));
    }
    figs.push(ablation(
        "abl-predictors",
        "Ablation: value-predictor kinds",
        t,
        rows,
    ));

    // --- Policy shootout via the scheme registry ------------------------
    let schemes = ["profile", "heuristics", "memslice", "return-pairs"];
    let grid = ExperimentSpec::new(
        base,
        schemes
            .iter()
            .map(|&s| Variant::speedup(s, s, vec![]))
            .collect(),
    )
    .run(h)?;
    figs.push(Figure {
        id: "abl-policies".into(),
        title: "Policy shootout: every registered spawning scheme".into(),
        table: grid.table_with(f2),
        notes: vec![
            "(all policies run with the minimum-size mechanism enabled)".into(),
        ],
        json: json!({"hmeans": schemes.iter().zip(&grid.means).map(|(s, m)| json!({"scheme": s, "hmean": m})).collect::<Vec<_>>()}),
    });

    Ok(figs)
}

/// Cross-input validation of the profile-based spawning scheme: pairs are
/// selected on the training input and evaluated on the reference input
/// against self-profiled pairs (the upper bound).
///
/// # Errors
///
/// As [`fig2`].
pub fn crossinput(h: &Harness) -> Result<Vec<Figure>, HarnessError> {
    let reference = h.on_input(InputSet::Ref)?;
    let spec = ExperimentSpec::new(
        crate::best_profile_config(16),
        vec![Variant::speedup("profile", "profile", vec![])],
    );
    let cross = spec.run_on(h, &reference)?;
    let selfp = spec.run(&reference)?;
    let mut table = Table::new(&[
        "bench",
        "train-profiled",
        "self-profiled",
        "transfer",
        "pair overlap",
    ]);
    let mut rows = Vec::new();
    for (bi, (train, refc)) in h.benches.iter().zip(&reference.benches).enumerate() {
        let name = train.bench.name();
        // Memo hits: the grids above selected both tables.
        let train_pairs = train.table_for("profile", &h.registry, &SchemeParams::default())?;
        let ref_pairs = refc.table_for("profile", &reference.registry, &SchemeParams::default())?;
        let (with_train, with_self) = (cross.values[0][bi], selfp.values[0][bi]);

        // Structural overlap: (sp, cqip) pairs found by both profiles.
        let in_ref: std::collections::HashSet<(u32, u32)> =
            ref_pairs.iter().map(|p| (p.sp.0, p.cqip.0)).collect();
        let shared = train_pairs
            .iter()
            .filter(|p| in_ref.contains(&(p.sp.0, p.cqip.0)))
            .count();
        table.row_owned(vec![
            name.into(),
            f2(with_train),
            f2(with_self),
            format!("{:.0}%", 100.0 * with_train / with_self),
            format!("{}/{}", shared, ref_pairs.num_pairs()),
        ]);
        rows.push(json!({
            "bench": name,
            "train_profiled": with_train,
            "self_profiled": with_self,
            "shared_pairs": shared,
            "ref_pairs": ref_pairs.num_pairs(),
        }));
    }
    let (hc, hs) = (cross.means[0], selfp.means[0]);
    table.row_owned(vec![
        "Hmean".into(),
        f2(hc),
        f2(hs),
        format!("{:.0}%", 100.0 * hc / hs),
    ]);
    Ok(vec![Figure {
        id: "crossinput".into(),
        title: "Cross-input validation: training-selected pairs on the reference input".into(),
        table,
        notes: vec![
            "transfer = speed-up with training-selected pairs relative to self-profiled pairs"
                .into(),
            "on the reference input; overlap = training pairs also selected by a reference".into(),
            "profile. High transfer validates the paper's profile-once methodology.".into(),
        ],
        json: json!({"rows": rows, "hmean_train": hc, "hmean_self": hs}),
    }])
}

/// Adaptation under input drift: spawn tables selected on the *training*
/// input and evaluated on the *reference* input, with the online schemes
/// (`scoreboard`, `conf-gated`) racing the static profile baseline they
/// wrap.
///
/// The static scheme keeps firing stale pairs on the drifted input; the
/// scoreboard demotes the ones whose threads keep squashing, and the
/// confidence gate suppresses spawns from control-unstable regions. Where
/// the training pairs transfer poorly, at least one adaptive scheme should
/// recover part of the lost speed-up.
///
/// # Errors
///
/// As [`fig2`].
pub fn fig_adaptation(h: &Harness) -> Result<Vec<Figure>, HarnessError> {
    const SCHEMES: [&str; 3] = ["profile", "scoreboard", "conf-gated"];
    let reference = h.on_input(InputSet::Ref)?;
    // Tables are selected on the TRAIN input. Their store keys carry each
    // scheme's cache identity, so a change to an adaptive gate parameter
    // re-keys the adaptive tables without touching the base scheme's.
    let grid = ExperimentSpec::new(
        crate::best_profile_config(16),
        SCHEMES
            .iter()
            .map(|&s| Variant::speedup(s, s, vec![]))
            .collect(),
    )
    .run_on(h, &reference)?;
    let mut table = Table::new(&["bench", "profile", "scoreboard", "conf-gated", "best gain"]);
    let mut rows = Vec::new();
    for (bi, name) in grid.bench_names.iter().enumerate() {
        let speeds: Vec<f64> = grid.values.iter().map(|col| col[bi]).collect();
        let best = speeds[1].max(speeds[2]);
        table.row_owned(vec![
            (*name).into(),
            f2(speeds[0]),
            f2(speeds[1]),
            f2(speeds[2]),
            format!("{:+.1}%", 100.0 * (best / speeds[0] - 1.0)),
        ]);
        rows.push(json!({
            "bench": name,
            "profile": speeds[0],
            "scoreboard": speeds[1],
            "conf_gated": speeds[2],
        }));
    }
    let hmeans = &grid.means;
    table.row_owned(vec![
        "Hmean".into(),
        f2(hmeans[0]),
        f2(hmeans[1]),
        f2(hmeans[2]),
        format!(
            "{:+.1}%",
            100.0 * (hmeans[1].max(hmeans[2]) / hmeans[0] - 1.0)
        ),
    ]);
    Ok(vec![Figure {
        id: "fig_adaptation".into(),
        title: "Online adaptation under input drift (train-selected pairs, ref input)".into(),
        table,
        notes: vec![
            "All schemes run the same train-selected profile pairs on the reference".into(),
            "input; scoreboard demotes squash-heavy pairs at runtime, conf-gated".into(),
            "suppresses spawns while branch confidence is low.".into(),
        ],
        json: json!({
            "rows": rows,
            "hmean_profile": hmeans[0],
            "hmean_scoreboard": hmeans[1],
            "hmean_conf_gated": hmeans[2],
        }),
    }])
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Whether a registry entry reproduces a paper figure or is an extra study
/// of this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureGroup {
    /// A figure of the paper's §4 evaluation; `specmt bench all` runs
    /// these, in paper order.
    Paper,
    /// An additional study (ablations, cross-input validation); run
    /// explicitly by id.
    Extra,
}

/// One runnable entry of the figure registry.
pub struct FigureDef {
    /// The id used on the command line (`fig3`, `ablations`, ...).
    pub id: &'static str,
    /// One-line description for `specmt bench --list`.
    pub summary: &'static str,
    /// Paper figure or extra study.
    pub group: FigureGroup,
    /// Builds the figure(s) from a loaded harness.
    pub build: fn(&Harness) -> Result<Vec<Figure>, HarnessError>,
}

impl std::fmt::Debug for FigureDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigureDef")
            .field("id", &self.id)
            .field("group", &self.group)
            .finish_non_exhaustive()
    }
}

static REGISTRY: [FigureDef; 18] = [
    FigureDef {
        id: "fig2",
        summary: "selected spawning pairs and distinct spawning points",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig2(h)?]),
    },
    FigureDef {
        id: "fig3",
        summary: "speed-up, 16 TUs, profile-based spawning, perfect value prediction",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig3(h)?]),
    },
    FigureDef {
        id: "fig4",
        summary: "average active threads for the Figure 3 runs",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig4(h)?]),
    },
    FigureDef {
        id: "fig5a",
        summary: "pair removal after executing alone (never / 50 / 200 cycles)",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig5a(h)?]),
    },
    FigureDef {
        id: "fig5b",
        summary: "delayed pair removal (1/8/16 occurrences)",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig5b(h)?]),
    },
    FigureDef {
        id: "fig6",
        summary: "reassign policy vs the standard removal scheme",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig6(h)?]),
    },
    FigureDef {
        id: "fig7a",
        summary: "committed thread size under standard removal",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig7a(h)?]),
    },
    FigureDef {
        id: "fig7b",
        summary: "enforcing a minimum observed thread size of 32",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig7b(h)?]),
    },
    FigureDef {
        id: "fig8",
        summary: "profile-based policy vs combined construct heuristics",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig8(h)?]),
    },
    FigureDef {
        id: "fig9a",
        summary: "live-in value-prediction hit ratios (stride / FCM)",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig9a(h)?]),
    },
    FigureDef {
        id: "fig9b",
        summary: "speed-ups with a realistic stride value predictor",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig9b(h)?]),
    },
    FigureDef {
        id: "fig10a",
        summary: "prediction accuracy for the independent / predictable criteria",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig10a(h)?]),
    },
    FigureDef {
        id: "fig10b",
        summary: "speed-up of the independent / predictable criteria",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig10b(h)?]),
    },
    FigureDef {
        id: "fig11",
        summary: "slow-down from an 8-cycle thread-initialisation overhead",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig11(h)?]),
    },
    FigureDef {
        id: "fig12",
        summary: "average speed-ups with 4 thread units",
        group: FigureGroup::Paper,
        build: |h| Ok(vec![fig12(h)?]),
    },
    FigureDef {
        id: "ablations",
        summary: "parameter ablations + policy shootout (extra study)",
        group: FigureGroup::Extra,
        build: ablations,
    },
    FigureDef {
        id: "crossinput",
        summary: "cross-input validation of profile-selected pairs (extra study)",
        group: FigureGroup::Extra,
        build: crossinput,
    },
    FigureDef {
        id: "fig_adaptation",
        summary: "online adaptive schemes vs static profile under input drift (extra study)",
        group: FigureGroup::Extra,
        build: fig_adaptation,
    },
];

/// Every registered figure, paper figures first in paper order.
pub fn registry() -> &'static [FigureDef] {
    &REGISTRY
}

/// Looks up a figure by its CLI id.
pub fn by_id(id: &str) -> Option<&'static FigureDef> {
    REGISTRY.iter().find(|d| d.id == id)
}

/// Every paper figure, in paper order (what `specmt bench all` runs).
///
/// # Errors
///
/// The first figure's failure, if any.
pub fn all(h: &Harness) -> Result<Vec<Figure>, HarnessError> {
    let mut figs = Vec::new();
    for def in REGISTRY.iter().filter(|d| d.group == FigureGroup::Paper) {
        figs.extend((def.build)(h)?);
    }
    Ok(figs)
}

/// What [`run_defs`] collected: the figures that built, a JSON summary
/// entry per attempted figure (successes record `saved` + `data`, failures
/// record an `"error"` string), and the failures themselves.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Successfully built figures, in definition order.
    pub figures: Vec<Figure>,
    /// One JSON object per *attempted* figure id — failed ids stay in the
    /// summary with an `"error"` field instead of vanishing.
    pub summary: Vec<serde_json::Value>,
    /// `(figure id, error)` for every definition that failed.
    pub errors: Vec<(String, HarnessError)>,
}

/// Runs a set of figure definitions to completion, never aborting early: a
/// definition that fails is recorded in [`RunOutcome::errors`] (and as an
/// `"error"` summary entry) and the remaining definitions still run. A
/// builder that *panics* is isolated the same way — caught at this
/// boundary and recorded as a degraded [`HarnessError::Supervised`] entry
/// rather than aborting the batch. With `save` set, each built figure is
/// persisted via [`Figure::save`]; a failed save counts as that figure's
/// failure.
pub fn run_defs(h: &Harness, defs: &[&FigureDef], save: bool) -> RunOutcome {
    let mut out = RunOutcome::default();
    for def in defs {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (def.build)(h)))
            .unwrap_or_else(|payload| {
                Err(HarnessError::Supervised {
                    label: def.id.to_string(),
                    outcome: specmt_exec::CellOutcome::Panicked {
                        message: specmt_exec::panic_message(payload.as_ref()),
                    },
                })
            });
        match built {
            Ok(figs) => {
                for fig in figs {
                    let entry = if save {
                        match fig.save_or_fail() {
                            Ok(path) => serde_json::json!({
                                "id": fig.id,
                                "title": fig.title,
                                "saved": path.display().to_string(),
                                "data": fig.json.clone(),
                            }),
                            Err(e) => {
                                let entry = serde_json::json!({
                                    "id": fig.id,
                                    "title": fig.title,
                                    "error": e.to_string(),
                                });
                                out.errors.push((fig.id.clone(), e));
                                entry
                            }
                        }
                    } else {
                        serde_json::json!({
                            "id": fig.id,
                            "title": fig.title,
                            "data": fig.json.clone(),
                        })
                    };
                    out.summary.push(entry);
                    out.figures.push(fig);
                }
            }
            Err(e) => {
                out.summary.push(serde_json::json!({
                    "id": def.id,
                    "error": e.to_string(),
                }));
                out.errors.push((def.id.to_string(), e));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let mut ids: Vec<_> = REGISTRY.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len());
    }

    #[test]
    fn by_id_resolves_every_entry() {
        for def in registry() {
            assert!(by_id(def.id).is_some(), "{} must resolve", def.id);
        }
        assert!(by_id("fig1").is_none());
    }
}
