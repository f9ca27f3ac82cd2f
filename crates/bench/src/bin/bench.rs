//! Measures the pipeline's hot kernels and persists `BENCH_pipeline.json`
//! at the repo root, tracking the perf trajectory across PRs.
//!
//! Kernels, per scale (`SPECMT_SCALE`):
//!
//! * `reach_naive_ms` / `reach_word_parallel_ms` — the §3.1 reaching
//!   analysis on gcc, scalar reference vs the optimized implementation;
//! * `trace_generate_gcc_ms` — functional emulation of the largest
//!   workload;
//! * `block_stream_ms`, `profile_pairs_ms` — trace → analysis stages;
//! * `sim_paper16_gcc_ms` — a full paper-configuration simulation;
//! * `suite_load_cold_ms` / `suite_load_warm_ms` — [`Harness::load_at`]
//!   with an empty vs populated disk cache (what `specmt bench` pays at
//!   startup). A warm load reads each trace's stored manifest but does
//!   not generate the trace: generation waits for the trace's first use,
//!   which this kernel never makes.
//!
//! The JSON is merged per scale, so tiny (CI) and medium (headline)
//! sections coexist. A `throughput` section records
//! `sim_instructions_per_sec` (dynamic instructions the paper-config
//! simulation retires per wall-second). Derived ratios are measured
//! within one run: `reach_speedup` (naive / word-parallel, interleaved
//! samples) and `warm_cache_speedup` (cold / warm suite load).
//!
//! Flags:
//!
//! * `--check` — compare against the committed JSON instead of rewriting
//!   it; exit nonzero if any kernel regressed more than 2x, or if engine
//!   throughput fell below half the committed instructions/sec (the CI
//!   gate).
//! * `--out PATH` — write somewhere other than `BENCH_pipeline.json`.

use std::process::ExitCode;
use std::time::Instant;

use serde_json::json;
use specmt_analysis::{BasicBlocks, BlockStream, ReachingAnalysis};
use specmt_bench::{scale_from_env, Harness};
use specmt_sim::SimConfig;
use specmt_spawn::{profile_pairs, ProfileConfig};
use specmt_trace::Trace;
use specmt_workloads as workloads;

/// Best (minimum) wall-clock milliseconds over `runs` calls, after one
/// warm-up call. The minimum is the standard microbenchmark statistic on a
/// shared machine: every sample carries non-negative scheduling noise, so
/// the smallest one is the closest to the kernel's true cost.
fn time_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            ms
        })
        .fold(f64::MAX, f64::min)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut check = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out" => out_path = args.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }

    let scale = scale_from_env()?;
    let scale_key = format!("{scale:?}").to_lowercase();
    let runs = match scale_key.as_str() {
        "tiny" | "small" => 9,
        _ => 7,
    };
    eprintln!("measuring at {scale_key} scale (best of {runs} runs per kernel)");

    // --- Kernel measurements -------------------------------------------
    let w = workloads::gcc(scale);
    let trace = Trace::generate(w.program.clone(), w.step_budget)?;
    let bbs = BasicBlocks::of(trace.program());
    let stream = BlockStream::new(&trace, &bbs);
    let tracked: Vec<u32> = (0..bbs.num_blocks() as u32).collect();
    eprintln!(
        "  gcc: {} dyn insts, {} block events, {} tracked blocks",
        trace.len(),
        stream.events().len(),
        tracked.len()
    );

    // Interleave the two reach implementations' samples so machine-load
    // fluctuations hit both equally and the before/after ratio stays fair.
    let (reach_naive, reach_word) = {
        let (mut naive, mut word) = (f64::MAX, f64::MAX);
        let _ = std::hint::black_box(ReachingAnalysis::compute_naive(&stream, &tracked));
        let _ = std::hint::black_box(ReachingAnalysis::compute(&stream, &tracked));
        for _ in 0..2 * runs {
            let t = Instant::now();
            std::hint::black_box(ReachingAnalysis::compute_naive(&stream, &tracked));
            naive = naive.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(ReachingAnalysis::compute(&stream, &tracked));
            word = word.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (naive, word)
    };
    let tracegen = time_ms(runs, || {
        Trace::generate(w.program.clone(), w.step_budget).expect("traces")
    });
    let blockstream = time_ms(runs, || BlockStream::new(&trace, &bbs));
    let profile = time_ms(runs, || profile_pairs(&trace, &ProfileConfig::default()));

    let bench = specmt_bench::Bench::from_workload(workloads::gcc(scale))?;
    let table = bench.profile_table(&ProfileConfig::default()).table;
    // The headline kernel gets extra samples: the minimum converges to the
    // true cost with sample count, and this is the number the throughput
    // gate and the perf tables are built on.
    let sim = time_ms(5 * runs, || {
        bench
            .run(SimConfig::paper(16), &table)
            .expect("simulation")
    });
    // Engine throughput: dynamic instructions the paper-configuration
    // simulation retires per wall-clock second.
    let sim_insts = bench.trace().len() as u64;
    let sim_ips = sim_insts as f64 / (sim / 1e3);

    // Suite load, cold vs warm, in a private store dir.
    let dir = std::env::temp_dir().join(format!("specmt-benchbin-cache-{}", std::process::id()));
    let load_cold = time_ms(runs.min(3), || {
        let _ = std::fs::remove_dir_all(&dir);
        let store = specmt_store::Store::open(specmt_store::StoreConfig::at(&dir));
        Harness::load_at_with(scale, store).expect("suite loads")
    });
    let _ = std::fs::remove_dir_all(&dir);
    let populate = specmt_store::Store::open(specmt_store::StoreConfig::at(&dir));
    let _ = Harness::load_at_with(scale, populate)?;
    let load_warm = time_ms(runs.min(3), || {
        let store = specmt_store::Store::open(specmt_store::StoreConfig::at(&dir));
        Harness::load_at_with(scale, store).expect("suite loads")
    });
    let _ = std::fs::remove_dir_all(&dir);

    let kernels: Vec<(&str, f64)> = vec![
        ("reach_naive_ms", reach_naive),
        ("reach_word_parallel_ms", reach_word),
        ("trace_generate_gcc_ms", tracegen),
        ("block_stream_ms", blockstream),
        ("profile_pairs_ms", profile),
        ("sim_paper16_gcc_ms", sim),
        ("suite_load_cold_ms", load_cold),
        ("suite_load_warm_ms", load_warm),
    ];
    let reach_speedup = reach_naive / reach_word;
    let warm_speedup = load_cold / load_warm;
    for (name, ms) in &kernels {
        println!("{name:<26} {ms:>10.3} ms");
    }
    println!("sim_instructions_per_sec   {:>10.0} /s ({sim_insts} dyn insts)", sim_ips);
    println!("reach_speedup              {reach_speedup:>10.2} x (naive / word-parallel)");
    println!("warm_cache_speedup         {warm_speedup:>10.2} x (cold / warm suite load)");

    // --- Compare or persist --------------------------------------------
    let committed: Option<serde_json::Value> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());

    if check {
        let Some(section) = committed
            .as_ref()
            .and_then(|v| v.get("scales"))
            .and_then(|v| v.get(&scale_key))
        else {
            println!("no committed numbers for `{scale_key}` in {out_path}; check passes vacuously");
            return Ok(ExitCode::SUCCESS);
        };
        let mut regressed = false;
        if let Some(prev) = section.get("kernels") {
            for (name, ms) in &kernels {
                let Some(old) = prev.get(name).and_then(|v| <f64 as serde::Deserialize>::from_value(v).ok()) else {
                    continue;
                };
                if *ms > 2.0 * old {
                    eprintln!("REGRESSION: {name} {old:.3} ms -> {ms:.3} ms (>2x)");
                    regressed = true;
                }
            }
        }
        // Engine throughput gates like the latency kernels do: dropping
        // below half the committed instructions/sec fails the check.
        if let Some(old) = section
            .get("throughput")
            .and_then(|t| t.get("sim_instructions_per_sec"))
            .and_then(|v| <f64 as serde::Deserialize>::from_value(v).ok())
        {
            if sim_ips < 0.5 * old {
                eprintln!(
                    "REGRESSION: sim_instructions_per_sec {old:.0} /s -> {sim_ips:.0} /s (<0.5x)"
                );
                regressed = true;
            }
        }
        if regressed {
            return Ok(ExitCode::FAILURE);
        }
        println!("all kernels within the 2x gate vs {out_path}");
        return Ok(ExitCode::SUCCESS);
    }

    // Merge this scale's section into the committed JSON.
    let kernels_json =
        serde_json::Value::Object(kernels.iter().map(|(k, v)| ((*k).to_string(), json!(v))).collect());
    let section = json!({
        "kernels": kernels_json,
        "throughput": {
            "sim_instructions_per_sec": sim_ips,
            "sim_dynamic_instructions": sim_insts,
        },
        "derived": {
            "reach_speedup": reach_speedup,
            "warm_cache_speedup": warm_speedup,
        },
    });
    let mut scales: Vec<(String, serde_json::Value)> = match committed.as_ref().and_then(|v| v.get("scales")) {
        Some(serde_json::Value::Object(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    match scales.iter_mut().find(|(k, _)| *k == scale_key) {
        Some((_, v)) => *v = section,
        None => scales.push((scale_key.clone(), section)),
    }
    let doc = json!({
        "schema": "specmt-pipeline-bench/v1",
        "note": "best (minimum) wall-clock ms per kernel; regenerate with `cargo run --release -p specmt-bench --bin bench` (SPECMT_SCALE selects the section)",
        "scales": serde_json::Value::Object(scales),
    });
    std::fs::write(&out_path, serde_json::to_string_pretty(&doc)? + "\n")?;
    println!("wrote {out_path} ({scale_key} section)");
    Ok(ExitCode::SUCCESS)
}
