//! `e2e` — the repo's wire-level benchmark.
//!
//! Starts the real `aqp_serving::Server` in-process on a loopback port,
//! drives it closed-loop with the repo's own `aqp_serving::Client`, checks
//! every answer against an oracle, and prints every metric by name with
//! its unit. The program under test receives only generated SQL and wire
//! requests. See `README.md` beside this package for every definition.
//!
//! ```text
//! e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--repeat K]
//! ```

mod load;
mod oracle;
mod repeat;
mod report;
mod run;
mod setup;
mod templates;
mod trace;

use templates::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

fn usage(problem: &str) -> ! {
    eprintln!("e2e: {problem}");
    eprintln!("usage: e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--repeat K]");
    eprintln!("workloads: {}", Workload::ALL.map(Workload::name).join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: Workload::SampledNarrow, seed: 1, seconds: 20.0, trace: false, repeat: None };
    let mut workload = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                workload = Some(Workload::parse(&name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))));
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed takes a whole number")),
            "--seconds" => {
                args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage("--seconds takes a number"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                args.repeat = Some(value("--repeat").parse().unwrap_or_else(|_| usage("--repeat takes a whole number")))
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    let args = parse_args();
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a debug build; run with --release");
        std::process::exit(2);
    }
    let ok = match args.repeat {
        Some(k) => repeat::run(&args, k),
        None if args.trace => run::traced(&args),
        None => run::timed(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
