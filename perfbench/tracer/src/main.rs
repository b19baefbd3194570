//! `perfbench-tracer`: the benchmark's in-process half.
//!
//! * `gen-sessions` writes the seeded session inputs the load generator
//!   sends (one open line plus the churn events per session).
//! * `check-sessions` replays every served session in-process through
//!   `IncrementalMapper::begin` / `OnlineSession::apply` and demands the
//!   served response lines byte for byte.
//! * `trace` re-executes a plan of served requests twice: once through
//!   the program's own entry points untraced, once decomposed into the
//!   public call of each layer with a span around every call. Both must
//!   reproduce the served output exactly. Spans stay in memory and are
//!   written out as JSONL when the plan is done.
//!
//! Every subcommand exits non-zero on the first mismatch.

mod gen;
mod plan;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> String {
    "usage: perfbench-tracer gen-sessions --seed S --count N --tasks T --events E --out FILE\n\
     \x20      perfbench-tracer check-sessions --seed S --tasks T --events E --served FILE [--threads N]\n\
     \x20      perfbench-tracer trace --plan FILE --spans FILE"
        .to_string()
}

/// `--key value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    flags
        .get(name)
        .ok_or_else(|| format!("missing --{name}"))?
        .parse()
        .map_err(|_| format!("bad --{name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    let flags = flags(rest)?;
    match cmd.as_str() {
        "gen-sessions" => gen::write_sessions(
            &gen::SessionShape {
                seed: get(&flags, "seed")?,
                tasks: get(&flags, "tasks")?,
                events: get(&flags, "events")?,
            },
            get(&flags, "count")?,
            &get::<String>(&flags, "out")?,
        ),
        "check-sessions" => gen::check_sessions(
            &gen::SessionShape {
                seed: get(&flags, "seed")?,
                tasks: get(&flags, "tasks")?,
                events: get(&flags, "events")?,
            },
            &get::<String>(&flags, "served")?,
            flags
                .get("threads")
                .map(|t| t.parse().map_err(|_| "bad --threads".to_string()))
                .transpose()?
                .unwrap_or(2),
        ),
        "trace" => plan::run_plan(
            &get::<String>(&flags, "plan")?,
            &get::<String>(&flags, "spans")?,
        ),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
