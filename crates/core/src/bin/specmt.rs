//! The `specmt` command-line tool: run the paper pipeline from a shell.
//!
//! ```text
//! specmt list [--scale tiny|small|medium|large]
//! specmt disasm  <workload|file.s>
//! specmt pairs   <workload|file.s> [--policy <scheme>|none]
//! specmt simulate <workload|file.s> [--policy P] [--tus N]
//!                 [--vp perfect|stride|fcm|hybrid|last|none] [--overhead N] [--min-size N]
//!                 [--faults seed=N,squash=R,drop=R,corrupt=R,jitter=N,remove=R]
//! specmt bench   <figure-id|all> [--scale S] [--json PATH] [--metrics json|chrome] [--jobs N]
//! specmt bench   --list
//! specmt cache   stats|clear
//! specmt run     <file.s>
//! ```
//!
//! Inputs are resolved by suffix: `.s` or `.asm` parses assembly text,
//! anything else names a suite workload. Either way the trace is generated
//! afresh; an assembly file is untrusted input, so its emulated memory and
//! its recorded trace are each capped at 64 MiB (`PROGRAM_MEMORY_LIMIT`).
//!
//! `--policy` accepts any spawning scheme registered in
//! [`specmt::spawn::SchemeRegistry`] (see `specmt pairs --policy help`), or
//! `none` for an empty table. `bench` runs the figure registry: every
//! entry of the paper's evaluation plus the extra studies; `bench all`
//! regenerates every paper figure and persists machine-readable results
//! under `target/specmt-results/`.
//!
//! `cache` manages the content-addressed artifact store `bench` runs
//! against (`SPECMT_CACHE` / `SPECMT_CACHE_DIR` configure it, resolved once
//! at startup): `stats` prints disk usage and the previous run's hit/miss
//! counters, `clear` empties it (including the per-entry `.json`,
//! `.key.json` and `.smtr` files older builds left behind).

use std::process::ExitCode;

use specmt::bench::figures::{self, FigureGroup};
use specmt::bench::Harness;
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, SimConfig, Simulator};
use specmt::spawn::{SchemeParams, SchemeRegistry, SpawnTable, BUILTIN_SCHEME_NAMES};
use specmt::store::Store;
use specmt::trace::Trace;
use specmt::workloads::{Scale, SUITE_NAMES};

type CliError = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specmt: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["list"];

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if BOOL_FLAGS.contains(&name) {
                    String::new()
                } else {
                    it.next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Rejects any flag a command does not understand, so a typo'd flag
    /// errors out instead of silently doing nothing.
    fn check_flags(&self, allowed: &[&str]) -> Result<(), CliError> {
        for (name, _) in &self.flags {
            if allowed.is_empty() {
                return Err(format!("unknown flag --{name} (this command takes no flags)").into());
            }
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag --{name} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
                .into());
            }
        }
        Ok(())
    }

    /// The value of the numeric flag `--name`, if given. A value that
    /// does not parse errors with the flag, the value and what was
    /// `expected`.
    fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &str,
    ) -> Result<Option<T>, CliError> {
        self.flag(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid --{name} `{raw}` (expected {expected})").into())
            })
            .transpose()
    }

    fn scale(&self) -> Result<Scale, CliError> {
        Ok(match self.flag("scale").unwrap_or("medium") {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            "large" => Scale::Large,
            other => return Err(format!("unknown scale `{other}`").into()),
        })
    }
}

/// Memory cap for `.s`/`.asm` input: 64 MiB of emulated memory (2,048 of
/// the emulator's 32 KiB pages) and, separately, 64 MiB of recorded trace
/// columns (4 bytes per step, 8 more per load or store, 4 more per result
/// that does not fit in 32 signed bits, 4 more per return, and 40 per 64
/// steps: about 14.5 M steps without memory operations, wide results or
/// returns, 4.0 M if every step loads or stores a wide value). An assembly file is untrusted, so one
/// that touches more memory, or runs long enough to outgrow its trace cap
/// within the 100 M step budget, fails with a limit error instead of
/// exhausting the host. Suite workloads are trusted and run uncapped.
const PROGRAM_MEMORY_LIMIT: u64 = 64 << 20;

/// The trace of `input`: a suite workload at `scale`, or an `.s`/`.asm`
/// file run under [`PROGRAM_MEMORY_LIMIT`] for both its emulated memory
/// and its trace columns.
fn load_trace(input: &str, scale: Scale) -> Result<Trace, CliError> {
    if input.ends_with(".s") || input.ends_with(".asm") {
        let text = std::fs::read_to_string(input)?;
        let program = specmt::isa::parse_program(&text)?;
        return Ok(Trace::generate_bounded(
            program,
            100_000_000,
            PROGRAM_MEMORY_LIMIT,
        )?);
    }
    let w = specmt::workloads::by_name(input, scale)
        .ok_or_else(|| format!("unknown workload `{input}` (try `specmt list`)"))?;
    Ok(Trace::generate(w.program, w.step_budget)?)
}

fn build_table(args: &Args, trace: &Trace) -> Result<SpawnTable, CliError> {
    let policy = args.flag("policy").unwrap_or("profile");
    match policy {
        "none" => Ok(SpawnTable::empty()),
        "help" => Err(format!("registered schemes: {}", BUILTIN_SCHEME_NAMES.join(", ")).into()),
        name => Ok(SchemeRegistry::builtin().select(name, trace, &SchemeParams::default())?),
    }
}

fn run(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    let Some(command) = args.positional.first().map(String::as_str) else {
        print_usage();
        return Ok(());
    };
    let input = args.positional.get(1).map(String::as_str);
    let scale = args.scale()?;

    args.check_flags(match command {
        "list" | "disasm" | "run" => &["scale"][..],
        "pairs" => &["scale", "policy"],
        "simulate" => &[
            "scale", "policy", "tus", "vp", "overhead", "min-size", "faults",
        ],
        "bench" => &["scale", "json", "list", "metrics", "jobs"],
        _ => &[],
    })?;

    match command {
        "list" => {
            println!(
                "{:10} {:>8} {:>12} {:>10}",
                "workload", "static", "dynamic", "pairs"
            );
            let registry = SchemeRegistry::builtin();
            for name in SUITE_NAMES {
                let w = specmt::workloads::by_name(name, scale)
                    .ok_or_else(|| format!("suite workload `{name}` missing at scale {scale:?}"))?;
                let trace = Trace::generate(w.program.clone(), w.step_budget)?;
                let pairs = registry.select("profile", &trace, &SchemeParams::default())?;
                println!(
                    "{:10} {:>8} {:>12} {:>10}",
                    name,
                    w.program.len(),
                    trace.len(),
                    pairs.num_pairs()
                );
            }
        }
        "disasm" => {
            let input = input.ok_or("disasm needs an input")?;
            let trace = load_trace(input, scale)?;
            print!("{}", trace.program().disassemble());
        }
        "pairs" => {
            let input = input.ok_or("pairs needs an input")?;
            let trace = load_trace(input, scale)?;
            let table = build_table(&args, &trace)?;
            println!(
                "{} pairs over {} spawning points:",
                table.num_pairs(),
                table.num_spawning_points()
            );
            for p in table.iter() {
                println!(
                    "  {:>6} -> {:<6} prob {:>6.3}  distance {:>8.1}  score {:>10.1}  {:?}",
                    p.sp.to_string(),
                    p.cqip.to_string(),
                    p.prob,
                    p.avg_dist,
                    p.score,
                    p.origin
                );
            }
        }
        "simulate" => {
            let input = input.ok_or("simulate needs an input")?;
            let tus = args.number("tus", "a thread-unit count")?.unwrap_or(16);
            // Only the unit count varies here, so any rejection is --tus's.
            SimConfig::paper(tus)
                .validate()
                .map_err(|e| format!("invalid --tus `{tus}` ({e})"))?;
            let trace = load_trace(input, scale)?;
            let table = build_table(&args, &trace)?;
            let vp = match args.flag("vp").unwrap_or("perfect") {
                "perfect" => ValuePredictorKind::Perfect,
                "stride" => ValuePredictorKind::Stride,
                "fcm" => ValuePredictorKind::Fcm,
                "hybrid" => ValuePredictorKind::Hybrid,
                "last" => ValuePredictorKind::LastValue,
                "none" => ValuePredictorKind::None,
                other => return Err(format!("unknown predictor `{other}`").into()),
            };
            let mut cfg = SimConfig::paper(tus).with_value_predictor(vp);
            if let Some(o) = args.number("overhead", "a cycle count")? {
                cfg = cfg.with_init_overhead(o);
            }
            if let Some(m) = args.number("min-size", "an instruction count")? {
                cfg.min_observed_size = Some(m);
            }
            if let Some(spec) = args.flag("faults") {
                cfg = cfg.with_faults(FaultPlan::parse(spec)?);
            }
            let baseline = Simulator::new(&trace, SimConfig::single_threaded()).run()?;
            let r = Simulator::with_table(&trace, cfg.clone(), &table).run()?;
            println!("instructions    {:>12}", r.committed_instructions);
            println!("baseline cycles {:>12}", baseline.cycles);
            println!("cycles          {:>12}", r.cycles);
            println!(
                "speed-up        {:>12.2}",
                baseline.cycles as f64 / r.cycles as f64
            );
            println!("ipc             {:>12.2}", r.ipc());
            println!("active threads  {:>12.2}", r.avg_active_threads());
            println!("threads         {:>12}", r.threads_committed);
            println!(
                "spawned/squashed{:>9}/{}",
                r.threads_spawned, r.threads_squashed
            );
            println!("avg thread size {:>12.1}", r.avg_thread_size());
            if r.value_predictions > 0 {
                println!("vp accuracy     {:>11.1}%", 100.0 * r.value_hit_ratio());
            }
            println!("branch accuracy {:>11.1}%", 100.0 * r.branch_hit_ratio());
            println!("violations      {:>12}", r.violations);
            if cfg.faults.is_some_and(|p| p.is_active()) {
                println!("-- injected faults --");
                println!("dropped spawns  {:>12}", r.fault_dropped_spawns);
                println!("forced squashes {:>12}", r.fault_forced_squashes);
                println!("corrupted vals  {:>12}", r.fault_corrupted_values);
                println!("jitter cycles   {:>12}", r.fault_jitter_cycles);
                println!("forced removals {:>12}", r.fault_forced_removals);
            }
        }
        "bench" => {
            if args.flag("list").is_some() {
                for def in figures::registry() {
                    let group = match def.group {
                        FigureGroup::Paper => "paper",
                        FigureGroup::Extra => "extra",
                    };
                    println!("{:<12} {:<6} {}", def.id, group, def.summary);
                }
                return Ok(());
            }
            let target = input.ok_or("bench needs a figure id or `all` (try --list)")?;
            let defs: Vec<&figures::FigureDef> = if target == "all" {
                figures::registry()
                    .iter()
                    .filter(|d| d.group == FigureGroup::Paper)
                    .collect()
            } else {
                vec![figures::by_id(target)
                    .ok_or_else(|| format!("unknown figure `{target}` (try --list)"))?]
            };
            // --scale wins; otherwise SPECMT_SCALE (default medium), so the
            // subcommand composes with the env var the harness already uses.
            let scale = match args.flag("scale") {
                Some(_) => args.scale()?,
                None => specmt::bench::scale_from_env()?,
            };
            // Pool width for the figure sweeps (0 or absent: one thread
            // per CPU).
            let jobs = args.number("jobs", "a thread count")?;
            let start = std::time::Instant::now();
            let mut h = Harness::load_at(scale)?;
            if let Some(jobs) = jobs {
                h.exec.jobs = jobs;
            }
            eprintln!(
                "suite loaded at {:?} scale in {:.1}s",
                h.scale,
                start.elapsed().as_secs_f64()
            );
            // Figures run to completion even when one fails: partial
            // results (and the failures, as "error" entries) still reach
            // the --json summary instead of vanishing with an early abort.
            let outcome = figures::run_defs(&h, &defs, true);
            for fig in &outcome.figures {
                fig.print();
            }
            eprintln!("total {:.1}s", start.elapsed().as_secs_f64());
            let store_metrics = h.store.metrics();
            if h.store.enabled() {
                let sum = |suffix: &str| -> u64 {
                    store_metrics
                        .counters
                        .iter()
                        .filter(|c| c.name.ends_with(suffix))
                        .map(|c| c.value)
                        .sum()
                };
                eprintln!(
                    "store: {} hits, {} misses, {} writes, {} invalidations ({})",
                    sum("_hits"),
                    sum("_misses"),
                    sum("_stores"),
                    sum("_invalidations"),
                    h.store.config().dir.display()
                );
                // Make this run's counters readable by `specmt cache stats`.
                h.store.persist_last_run();
            }
            if let Some(mode) = args.flag("metrics") {
                write_metrics(&h, mode)?;
            }
            if let Some(path) = args.flag("json") {
                // Fault-injected simulations bypass the store entirely, and
                // a disabled store is never consulted: in either case an
                // all-zero counter object would read as "ran against an
                // empty store", so the embed says "bypassed" instead.
                let store_embed = if store_metrics.counters.iter().all(|c| c.value == 0) {
                    serde::Value::Str("bypassed".to_owned())
                } else {
                    serde::Serialize::to_value(&store_metrics)
                };
                let doc = serde_json::json!({
                    "scale": format!("{:?}", h.scale).to_lowercase(),
                    "target": target,
                    "figures": outcome.summary,
                    "store": store_embed,
                });
                std::fs::write(path, serde_json::to_string_pretty(&doc)? + "\n")?;
                eprintln!("wrote {path}");
            }
            // A lost result is still an error — but only after everything
            // that could be produced was produced and recorded.
            if let Some((id, e)) = outcome.errors.into_iter().next() {
                return Err(format!("figure `{id}` failed: {e}").into());
            }
        }
        "cache" => {
            let action = input.ok_or("cache needs an action: stats or clear")?;
            let store = Store::default_handle();
            match action {
                "stats" => {
                    let cfg = store.config();
                    println!(
                        "store {} ({})",
                        cfg.dir.display(),
                        if cfg.enabled { "enabled" } else { "disabled" }
                    );
                    println!("{:<12} {:>8} {:>14}", "namespace", "entries", "bytes");
                    let (mut entries, mut bytes) = (0u64, 0u64);
                    for u in store.usage() {
                        entries += u.entries;
                        bytes += u.bytes;
                        println!("{:<12} {:>8} {:>14}", u.namespace, u.entries, u.bytes);
                    }
                    println!("{:<12} {:>8} {:>14}", "total", entries, bytes);
                    match store.load_last_run() {
                        Some(run) => {
                            println!("last run:");
                            for c in &run.metrics.counters {
                                if c.value > 0 {
                                    println!("  {:<36} {:>8}", c.name, c.value);
                                }
                            }
                            for r in &run.invalidations {
                                println!(
                                    "  invalidated {}/{} at stage `{}`: changed {}",
                                    r.namespace,
                                    r.name,
                                    r.stage,
                                    r.changed.join(", ")
                                );
                            }
                        }
                        None => println!("last run: no recorded stats (run `specmt bench` first)"),
                    }
                }
                "clear" => {
                    store.clear()?;
                    println!("cleared {}", store.config().dir.display());
                }
                other => {
                    return Err(
                        format!("unknown cache action `{other}` (expected stats or clear)").into(),
                    )
                }
            }
        }
        "run" => {
            let input = input.ok_or("run needs a .s file")?;
            let trace = load_trace(input, scale)?;
            println!("halted after {} instructions", trace.len());
            for r in specmt::isa::Reg::all() {
                let v = trace.final_reg(r);
                if v != 0 {
                    println!("  {r:>4} = {v:#x} ({v})");
                }
            }
        }
        other => {
            print_usage();
            return Err(format!("unknown command `{other}`").into());
        }
    }
    Ok(())
}

/// The `--metrics json|chrome` exports, written under
/// `target/specmt-results/` next to the figure payloads.
///
/// `json` aggregates a [`specmt::obs::Metrics`] snapshot per benchmark ×
/// built-in scheme (the paper-16 configuration); `chrome` replays each
/// benchmark's profile-table run through an event log and writes one
/// Chrome `trace_event` timeline per benchmark, viewable in
/// `chrome://tracing` or Perfetto.
fn write_metrics(h: &Harness, mode: &str) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from("target/specmt-results");
    std::fs::create_dir_all(&dir)?;
    match mode {
        "json" => {
            let doc =
                specmt::bench::metrics_report(h, &SimConfig::paper(16), &BUILTIN_SCHEME_NAMES)?;
            let path = dir.join("metrics.json");
            std::fs::write(&path, serde_json::to_string_pretty(&doc)? + "\n")?;
            eprintln!("wrote {}", path.display());
        }
        "chrome" => {
            for ctx in &h.benches {
                let mut log = specmt::obs::EventLog::new();
                let table = ctx.table_for("profile", &h.registry, &SchemeParams::default())?;
                ctx.bench
                    .run_observed(SimConfig::paper(16), &table, &mut log)?;
                let path = dir.join(format!("trace_{}.json", ctx.bench.name()));
                std::fs::write(
                    &path,
                    specmt::obs::chrome::trace_string(log.events())? + "\n",
                )?;
                eprintln!("wrote {} ({} events)", path.display(), log.len());
            }
        }
        other => return Err(format!("--metrics wants json or chrome, got `{other}`").into()),
    }
    Ok(())
}

fn print_usage() {
    eprintln!(
        "usage:\n  specmt list [--scale S]\n  specmt disasm <input>\n  specmt pairs <input> [--policy <scheme>|none]\n  specmt simulate <input> [--policy P] [--tus N] [--vp V] [--overhead N] [--min-size N] [--faults seed=N,squash=R,...]\n  specmt bench <figure-id|all> [--scale S] [--json PATH] [--metrics json|chrome] [--jobs N]\n  specmt bench --list\n  specmt cache stats|clear\n  specmt run <file.s>\n\ninputs: a suite workload name or an .s assembly file\nschemes: {}",
        BUILTIN_SCHEME_NAMES.join(", ")
    );
}
