//! The with+ measurement spine. See README.md for the metric and workload
//! dictionary; `BENCHMARK.json` at the repository root fixes the bounds.
//!
//! ```text
//! aio-benchmark --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's form)
//! aio-benchmark run   [--seed N] [--workload W] [--seconds S]   every metric of every workload
//! aio-benchmark trace [--seed N] [--workload W]                 per-layer metrics + out/trace.jsonl
//! aio-benchmark check                                           1/20 scale, 3 ops: oracles + determinism
//! aio-benchmark aa    [--sets 2] [--seed N]                     same build twice, compared to the bounds
//! ```

mod engine;
mod gen;
mod measure;
mod stats;
mod steady;
mod trace;
mod workloads;

use engine::{JsonArr, JsonObj};
use measure::{Mode, Plan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, NAMES};

/// Seed used unless `--seed` is given. 1009 is the hold-out seed: never
/// used while the workload sizes were chosen.
const DEFAULT_SEED: u64 = 53;

/// `benchmark/out`: the durable database directory and the trace artifact
/// live here, inside the checkout (the root `.gitignore` lists it).
fn out_dir() -> Result<PathBuf, String> {
    let built_in = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let dir = if built_in.is_dir() {
        built_in.join("out")
    } else {
        PathBuf::from("benchmark").join("out")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    detail: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: measure::RUN_SECONDS,
        trace: false,
        detail: false,
        sets: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--detail" => args.detail = value("--detail")? == "1",
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            c if !c.starts_with('-') && args.command.is_none() => args.command = Some(a),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {}", NAMES.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    steady::keep_heap();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee the header of benchmark/src/main.rs or benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        None => measured_run(&args),
        Some("run") => run_all(&args, &[Mode::Timed, Mode::Traced]),
        Some("trace") => run_all(&args, &[Mode::Traced]),
        Some("check") => check(),
        Some("aa") => aa(&args),
        Some(other) => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn config(seed: u64, scale_div: usize) -> Result<Config, String> {
    Ok(Config {
        seed,
        scale_div,
        out_dir: out_dir()?,
        batches: 0,
    })
}

/// One workload, one mode, in this process: the form the driver calls.
/// The last line of standard output is the result object.
fn measured_run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let mode = if args.trace {
        Mode::Traced
    } else {
        Mode::Timed
    };
    let cfg = config(args.seed, 1)?;
    let m = measure::run(name, &cfg, mode, &Plan::for_seconds(name, args.seconds))?;
    print!("{}", m.render_text());
    if let Some(jsonl) = &m.trace_jsonl {
        let path = cfg.out_dir.join(format!("trace-{name}.jsonl"));
        std::fs::write(&path, jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            jsonl.lines().count(),
            path.display()
        );
    }
    println!("{}", m.result_json(args.detail));
    Ok(true)
}

/// What a child process reported.
struct Child {
    /// The result object as printed (with the `--detail` keys).
    result: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    /// Counts that must repeat exactly between runs of one build.
    exact: BTreeMap<String, f64>,
}

/// Run one workload in a child process (so `peak_rss_mb` is the workload's
/// own), echo its report, and parse the result object on its last line.
fn child(name: &str, seed: u64, seconds: f64, mode: Mode, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args([
            "--trace",
            if mode == Mode::Traced { "1" } else { "0" },
            "--detail",
            "1",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        for l in &lines {
            println!("{l}");
        }
    }
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let doc = engine::parse_json(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(engine::Json::Obj(fields)) = doc.get("metrics") {
        for (k, v) in fields {
            let value = v.get("value").and_then(|x| x.as_num()).unwrap_or(f64::NAN);
            metrics.insert(k.clone(), value);
        }
    }
    let mut exact = BTreeMap::new();
    if let Some(engine::Json::Obj(fields)) = doc.get("exact") {
        for (k, v) in fields {
            exact.insert(k.clone(), v.as_num().unwrap_or(f64::NAN));
        }
    }
    Ok(Child {
        result: last.to_string(),
        correct: matches!(doc.get("correct"), Some(engine::Json::Bool(true))),
        metrics,
        exact,
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    NAMES
        .iter()
        .copied()
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// `run` / `trace`: every selected workload in its own child process, then
/// one JSON document with everything, ending in `"claim": null`.
fn run_all(args: &Args, modes: &[Mode]) -> Result<bool, String> {
    let dir = out_dir()?;
    let (mut all_ok, mut docs, mut trace_all) = (true, JsonArr::new(), String::new());
    for name in selected(args) {
        let mut doc = JsonObj::new().str("workload", name);
        for &mode in modes {
            println!("== {name} ({}) seed {} ==", mode.label(), args.seed);
            let c = child(name, args.seed, args.seconds, mode, true)?;
            all_ok &= c.correct;
            doc = doc.raw(mode.label(), &c.result);
            if mode == Mode::Traced {
                let part = dir.join(format!("trace-{name}.jsonl"));
                trace_all.push_str(&std::fs::read_to_string(&part).unwrap_or_default());
            }
        }
        docs.push_raw(&doc.finish());
    }
    if modes.contains(&Mode::Traced) {
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, trace_all).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace of every workload: {}", path.display());
    }
    let summary = JsonObj::new()
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .u64(
            "host_threads",
            std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        )
        .str(
            "flush_policy",
            "engine default: fsync at every commit point",
        )
        .raw("workloads", &docs.finish())
        .raw("claim", "null")
        .finish();
    let path = dir.join("summary.json");
    std::fs::write(&path, format!("{summary}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{summary}");
    Ok(all_ok)
}

/// `check`: every workload at 1/20 scale with 3 operations per pass, twice
/// from the same seed; oracles must agree and every seed-determined count
/// must repeat exactly.
fn check() -> Result<bool, String> {
    let cfg = config(DEFAULT_SEED, 20)?;
    let plan = Plan {
        best_ops: 3,
        paper_ops: 3,
        setups: 1,
        traced_ops: 3,
    };
    let mut ok = true;
    for name in NAMES {
        let timed = measure::run(name, &cfg, Mode::Timed, &plan)?;
        let first = measure::run(name, &cfg, Mode::Traced, &plan)?;
        let second = measure::run(name, &cfg, Mode::Traced, &plan)?;
        let wrong = timed.failed + first.failed + second.failed;
        let same = first.exact == second.exact && first.input_hash == timed.input_hash;
        println!(
            "{name:<17} oracle {} ({} checked)  determinism {}  input {:016x}",
            if wrong == 0 { "ok" } else { "MISMATCH" },
            timed.attempted + first.attempted + second.attempted,
            if same { "ok" } else { "MISMATCH" },
            first.input_hash,
        );
        if !same {
            for (k, v) in &first.exact {
                if second.exact.get(k) != Some(v) {
                    println!("  {k}: {v} then {:?}", second.exact.get(k));
                }
            }
        }
        ok &= wrong == 0 && same;
    }
    println!("check: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = engine::parse_json(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_arr())
        .ok_or("BENCHMARK.json: end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect())
}

/// `aa`: the full benchmark `--sets` times on one build, alternating the
/// workload order; every end-to-end metric must agree within its bound and
/// every exact-repeat count must be identical.
fn aa(args: &Args) -> Result<bool, String> {
    if args.sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let bounds = bounds()?;
    let names = selected(args);
    let mut timed: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..args.sets {
        let mut order = names.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        for name in order {
            eprintln!("aa: set {} {name}", set + 1);
            let t = child(name, args.seed, args.seconds, Mode::Timed, false)?;
            let l = child(name, args.seed, args.seconds, Mode::Traced, false)?;
            ok &= t.correct && l.correct;
            for (k, v) in t.metrics {
                timed.entry((name, k)).or_default().push(v);
            }
            for (k, v) in l.exact {
                exact.entry((name, k)).or_default().push(v);
            }
        }
    }
    println!(
        "{:<17} {:<18} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "worst", "diff", "bound"
    );
    for ((name, metric), values) in &timed {
        let Some((_, bound, lower)) = bounds.iter().find(|(n, _, _)| n == metric) else {
            continue;
        };
        let first = values[0];
        // the later set that is worst relative to the first
        let worst = values[1..]
            .iter()
            .copied()
            .fold(first, |w, v| if (v > w) == *lower { v } else { w });
        let diff = if *lower {
            worst / first - 1.0
        } else {
            1.0 - worst / first
        };
        let flag = if diff > *bound { "  EXCEEDS" } else { "" };
        println!(
            "{name:<17} {metric:<18} {first:>12.4} {worst:>12.4} {:>7.2}% {:>6.1}%{flag}",
            diff * 100.0,
            bound * 100.0
        );
        ok &= diff <= *bound;
    }
    for ((name, count), values) in &exact {
        if values.iter().any(|v| *v != values[0]) {
            println!("{name:<17} {count:<34} not exact: {values:?}");
            ok = false;
        }
    }
    println!(
        "aa: {}",
        if ok {
            "within bounds, exact counts identical"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}
