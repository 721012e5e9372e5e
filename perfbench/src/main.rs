//! # trajdp-perfbench
//!
//! The repository's benchmark: three closed-loop wire workloads against
//! the release `trajdp serve` binary, and a traced run that breaks each
//! op down by layer. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload transfer --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload; `--trace
//! 1` traces all three workloads and prints the per-layer metrics, each
//! prefixed with its workload's name. The last line of stdout is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is non-zero when any op failed or any correctness gate tripped.
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod replay;
mod server;
mod stats;
mod trace;
mod traced;
mod workloads;

use stats::{median, percentile, Tally};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trajdp_server::Json;
use workloads::{Workload, PIECE_BYTES};

/// Scratch space for server state and trace output, relative to the
/// checkout root the benchmark runs in.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing --{name}"));
    let workload = take("workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// A run's result: metrics by name as `(value, unit)`, outcome counts,
/// and the first failures.
struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    tally: Tally,
    errors: Vec<String>,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::AnonymizeHandle => 3,
        _ => 5,
    }
}

/// The untraced run of one workload: the end-to-end metrics.
fn end_to_end(args: &Args, bin: &Path, dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setup_secs = Vec::new();
    let mut env = None;
    for i in 0..setup_repeats(w) {
        // The previous set-up's server stops before the next one starts.
        drop(env.take());
        let started = Instant::now();
        let e = workloads::setup(w, args.seed, bin, dir.join(format!("server-{i}")))?;
        setup_secs.push(started.elapsed().as_secs_f64());
        // The last set-up serves the timed ops.
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let (size, len) = w.world_shape();
    println!(
        "workload {}: {} trajectories x {} points ({} x {} requested), {} CSV bytes, \
         {PIECE_BYTES}-byte pieces, {} closed-loop client(s), server: serve --workers {} \
         --state-dir <fresh>",
        w.name(),
        env.inputs.trajectories,
        env.inputs.points,
        size,
        len,
        env.inputs.csv.len(),
        w.clients(),
        server::SERVER_WORKERS,
    );
    let mut pass = workloads::run_pass(&env, Duration::from_secs(args.seconds));
    let rss = env.server.peak_rss_mib()?;
    workloads::check_releases(&mut pass, &env.inputs.csv);
    workloads::check_ledger(&env, &mut pass);
    drop(env);

    let lat = &pass.latencies_ms;
    let p90 = percentile(lat, 0.9)?;
    let p50 = median(lat).expect("p90 passed, so there are samples");
    println!(
        "{} timed ops in {:.2} s; p90 has {} samples beyond it",
        lat.len(),
        pass.wall.as_secs_f64(),
        p90.beyond
    );
    // Printed, not gated: it is 0 on a correct tree (see the README).
    println!("failed_frac = {} ratio", pass.tally.failed_frac());
    let metrics = BTreeMap::from([
        ("setup_s".to_string(), (median(&setup_secs).expect("set-ups ran"), "s")),
        ("op_p50_ms".to_string(), (p50, "ms")),
        ("op_p90_ms".to_string(), (p90.value, "ms")),
        ("ops_per_s".to_string(), (lat.len() as f64 / pass.wall.as_secs_f64(), "1/s")),
        ("server_rss_peak_mb".to_string(), (rss, "MiB")),
    ]);
    Ok(Outcome { metrics, tally: pass.tally, errors: pass.errors })
}

/// The traced run: every workload, per-layer metrics prefixed with the
/// workload's name. Spans are written to `<dir>/../trace-s<seed>.jsonl`.
fn traced_run(args: &Args, bin: &Path, dir: &Path) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut outcome = Outcome { metrics: BTreeMap::new(), tally: Tally::default(), errors: vec![] };
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let t = traced::trace_workload(w, args.seed, bin, dir, origin)?;
        for (name, value, unit) in t.figures {
            outcome.metrics.insert(format!("{}.{name}", w.name()), (value, unit));
        }
        outcome.tally.merge(t.tally);
        outcome.errors.extend(t.errors);
        for (thread, spans) in t.spans.iter().enumerate() {
            lines.extend(spans.iter().map(|s| trace::span_line(s, w.name(), thread)));
        }
    }
    let path = Path::new(RUN_DIR).join(format!("trace-s{}.jsonl", args.seed));
    std::fs::write(&path, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} spans written to {}", lines.len(), path.display());
    Ok(outcome)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let bin = server::build_release_binary()?;
    let dir = PathBuf::from(RUN_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result =
        if args.trace { traced_run(args, &bin, &dir) } else { end_to_end(args, &bin, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, (value, unit)) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    for e in &outcome.errors {
        eprintln!("perfbench: failed op: {e}");
    }
    let correct = outcome.tally.failed() == 0 && outcome.tally.attempted() > 0;
    let metrics = outcome
        .metrics
        .into_iter()
        .map(|(name, (value, unit))| {
            (name, Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]))
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.tally.attempted())),
        ("failed", Json::from(outcome.tally.failed())),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    let _ = std::io::stdout().flush();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
