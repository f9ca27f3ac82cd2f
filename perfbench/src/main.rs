//! `perfbench`: the measured process behind `perfbench/run.py`.
//!
//! ```text
//! perfbench sample --store DIR [--observe] [--spans FILE]
//! perfbench replay --inputs train|ref --seed N --scratch DIR --spans FILE
//! ```
//!
//! `sample` runs one end-to-end figure pass at `medium` scale against the
//! store in `DIR`; `replay` runs the per-layer grid. Each prints one JSON
//! object on stdout and exits 0, or prints an error on stderr and exits 1.
//! `run.py` starts a fresh process per sample, prepares the store before
//! it, and aggregates what the processes report.

mod replay;
mod sample;
mod span;

use std::path::Path;
use std::process::ExitCode;

use specmt_workloads::InputSet;

fn usage() -> String {
    "usage: perfbench sample --store DIR [--observe] [--spans FILE]\n       \
     perfbench replay --inputs train|ref --seed N --scratch DIR --spans FILE"
        .to_owned()
}

/// The value following flag `name`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}\n{}", usage()))
}

fn run(args: &[String]) -> Result<serde_json::Value, String> {
    match args.first().map(String::as_str) {
        Some("sample") => sample::run(
            required(args, "--store")?,
            args.iter().any(|a| a == "--observe"),
            flag(args, "--spans"),
        ),
        Some("replay") => {
            let input = match required(args, "--inputs")? {
                "train" => InputSet::Train,
                "ref" => InputSet::Ref,
                other => return Err(format!("unknown input set `{other}` (train|ref)")),
            };
            let seed = required(args, "--seed")?
                .parse::<u64>()
                .map_err(|e| format!("bad --seed: {e}"))?;
            let spans = required(args, "--spans")?;
            let report = replay::run(input, seed, Path::new(required(args, "--scratch")?))?;
            span::global()
                .write(spans)
                .map_err(|e| format!("could not write spans to {spans}: {e}"))?;
            Ok(report)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args).and_then(|v| serde_json::to_string(&v).map_err(|e| e.to_string())) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
