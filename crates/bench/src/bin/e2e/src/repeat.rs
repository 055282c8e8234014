//! `--repeat K`: K full runs of one workload in fresh processes, and the
//! run-to-run spread of every end-to-end metric beside its bound.

use crate::report::{median, quartiles};
use crate::Args;
use aqp::obs::json::{self, Value as Json};
use std::process::Command;

/// `(name, bound)` of every end-to-end metric, from `BENCHMARK.json` in
/// the working directory — the one place the bounds are written down.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = json::parse(&text)?;
    let metrics = manifest.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The one metric whose spread is printed but does not decide the exit
/// code. A run sets up once, four seconds that a slow phase of the host can
/// cover whole, and the check this benchmark is accepted by exempts its
/// spread as well: later changes are compared by its median over runs.
const SPREAD_NOT_GATED: &str = "setup_s";

/// The metrics object of a run's result line.
fn run_once(args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = json::parse(last)?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run failed:\n{stdout}"));
    }
    result.get("metrics").cloned().ok_or_else(|| "result line has no metrics".to_string())
}

/// Run the workload `k` times and print, per end-to-end metric, the
/// median, the quartiles, the interquartile range ÷ median (what the
/// benchmark is accepted by) and (max − min) ÷ median beside its bound.
/// False when any (max − min) ÷ median but that of `setup_s` exceeds its bound.
pub fn run(args: &Args, k: usize) -> bool {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("e2e --repeat: {e}");
            return false;
        }
    };
    let mut runs = Vec::with_capacity(k);
    for i in 0..k {
        match run_once(args) {
            Ok(metrics) => runs.push(metrics),
            Err(e) => {
                eprintln!("e2e --repeat: run {} of {k}: {e}", i + 1);
                return false;
            }
        }
        eprintln!("e2e --repeat: run {} of {k} done", i + 1);
    }

    println!("{} x {k}, seed {}, {} s per run", args.workload.name(), args.seed, args.seconds);
    println!("| metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for (name, bound) in &bounds {
        let values: Vec<f64> =
            runs.iter().filter_map(|m| m.get(name).and_then(|v| v.get("value")).and_then(Json::as_f64)).collect();
        if values.len() != k {
            println!("| {name} | missing from {} of {k} runs | | | | | {bound} | FAIL |", k - values.len());
            within = false;
            continue;
        }
        let mid = median(&values);
        let (q1, q3) = quartiles(&values);
        let (min, max) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = (max - min) / mid;
        let gated = name != SPREAD_NOT_GATED;
        let ok = spread <= *bound;
        within &= ok || !gated;
        let iqr = (q3 - q1) / mid;
        let verdict = match (ok, gated) {
            (true, _) => "ok",
            (false, true) => "FAIL",
            (false, false) => "over (not gated)",
        };
        println!("| {name} | {mid:.4} | {q1:.4} | {q3:.4} | {iqr:.4} | {spread:.4} | {bound} | {verdict} |");
    }
    within
}
