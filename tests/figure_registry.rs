//! The figure registry must stay complete and honest: every figure of the
//! paper resolves by name, ids are unique, and `specmt bench --list`
//! reports exactly the registry — no stale entries, nothing missing.

use std::process::Command;

use specmt::bench::figures::{self, FigureGroup};

/// Every figure of the paper's §4 evaluation (5 and 7 have two panels, 9
/// and 10 two parts).
const PAPER_FIGURES: [&str; 15] = [
    "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
    "fig10a", "fig10b", "fig11", "fig12",
];

#[test]
fn every_paper_figure_resolves_by_name() {
    for id in PAPER_FIGURES {
        let def = figures::by_id(id).unwrap_or_else(|| panic!("{id} must be registered"));
        assert_eq!(def.id, id);
        assert_eq!(
            def.group,
            FigureGroup::Paper,
            "{id} must be in the paper group"
        );
        assert!(!def.summary.is_empty(), "{id} needs a --list summary");
    }
}

#[test]
fn registry_ids_are_unique_and_paper_group_is_exactly_the_paper() {
    let mut ids: Vec<&str> = figures::registry().iter().map(|d| d.id).collect();
    let total = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "registry ids must be unique");

    let paper: Vec<&str> = figures::registry()
        .iter()
        .filter(|d| d.group == FigureGroup::Paper)
        .map(|d| d.id)
        .collect();
    assert_eq!(paper, PAPER_FIGURES, "paper group must list §4 in order");
}

#[test]
fn unknown_ids_do_not_resolve() {
    for id in ["fig1", "fig13", "all", "", "FIG3"] {
        assert!(figures::by_id(id).is_none(), "{id:?} must not resolve");
    }
}

#[test]
fn bench_list_output_matches_registry_exactly() {
    let out = Command::new(env!("CARGO_BIN_EXE_specmt"))
        .args(["bench", "--list"])
        .output()
        .expect("specmt bench --list runs");
    assert!(
        out.status.success(),
        "--list must exit 0, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let listed: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().next().expect("id column"))
        .collect();
    let registered: Vec<&str> = figures::registry().iter().map(|d| d.id).collect();
    assert_eq!(
        listed, registered,
        "--list must report exactly the registry, in order"
    );
    // Each line also carries the group and the summary.
    for (line, def) in stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .zip(figures::registry())
    {
        let group = match def.group {
            FigureGroup::Paper => "paper",
            FigureGroup::Extra => "extra",
        };
        assert!(
            line.contains(group),
            "line {line:?} must name the {group} group"
        );
        let first_word = def.summary.split_whitespace().next().expect("summary");
        assert!(
            line.contains(first_word),
            "line {line:?} must carry the summary"
        );
    }
}

#[test]
fn bench_rejects_unknown_figures() {
    let out = Command::new(env!("CARGO_BIN_EXE_specmt"))
        .args(["bench", "fig99"])
        .output()
        .expect("specmt bench fig99 runs");
    assert!(!out.status.success(), "unknown figure must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fig99") && stderr.contains("--list"),
        "error must name the id and point at --list, got: {stderr}"
    );
}

#[test]
fn malformed_numeric_flags_name_the_flag_and_value() {
    let cases = [
        ("bench", "fig3", "--jobs", "-1"),
        ("simulate", "compress", "--tus", "four"),
        ("simulate", "compress", "--tus", "65"),
        ("simulate", "compress", "--overhead", "1.5"),
        ("simulate", "compress", "--min-size", "x9"),
    ];
    for (command, target, flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_specmt"))
            .args([command, target, "--scale", "tiny", flag, value])
            .output()
            .expect("specmt runs");
        assert!(!out.status.success(), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid {flag} `{value}`")),
            "error must name {flag} and `{value}`, got: {stderr}"
        );
    }
}
