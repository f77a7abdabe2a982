//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <market-scan|deep-flow|daemon-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --flowdroid <path> --workdir <dir>
//! ```
//!
//! Prints progress on stderr and, as the last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 on any wrong verdict, traced/untraced report
//! divergence or deterministic-counter mismatch. See `README.md`.

mod alloc;
mod daemon;
mod gen;
mod inproc;
mod ladder;
mod layers;
mod pipeline;
mod stats;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// What one run measured.
pub struct Outcome {
    pub metrics: stats::Metrics,
    /// Figures measured in the same run but not printed in its result
    /// line; shown on stderr only.
    pub also: stats::Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Reports a fatal benchmark error and exits without a result line.
pub fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    flowdroid: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).unwrap_or_else(|| die(&format!("missing {flag}")));
    let num = |flag: &str| -> f64 {
        need(flag)
            .parse()
            .unwrap_or_else(|_| die(&format!("{flag} needs a number")))
    };
    let seconds = num("--seconds");
    if !(seconds > 0.0 && seconds <= 600.0) {
        die("--seconds must lie in (0, 600]");
    }
    Args {
        workload: need("--workload").to_string(),
        seed: need("--seed")
            .parse()
            .unwrap_or_else(|_| die("--seed needs an unsigned integer")),
        seconds,
        trace: match need("--trace") {
            "0" => false,
            "1" => true,
            _ => die("--trace must be 0 or 1"),
        },
        // Absolute: the daemon child runs in its own directory.
        flowdroid: std::fs::canonicalize(need("--flowdroid"))
            .unwrap_or_else(|e| die(&format!("--flowdroid {}: {e}", need("--flowdroid")))),
        workdir: PathBuf::from(need("--workdir")),
    }
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.workdir)
        .unwrap_or_else(|e| die(&format!("{}: {e}", args.workdir.display())));
    let trace_path = args.workdir.join(format!("trace-{}.jsonl", args.workload));
    let plan = match args.workload.as_str() {
        "market-scan" => Some(&inproc::MARKET_SCAN),
        "deep-flow" => Some(&inproc::DEEP_FLOW),
        "daemon-mix" => None,
        other => die(&format!("unknown workload `{other}`")),
    };
    let out = match (plan, args.trace) {
        (Some(plan), false) => inproc::run(plan, args.seed, args.seconds),
        (Some(plan), true) => inproc::run_traced(plan, args.seed, args.seconds, &trace_path),
        (None, trace) => daemon::run(
            &args.flowdroid,
            &args.workdir,
            args.seed,
            args.seconds,
            trace,
            &trace_path,
        ),
    };
    eprintln!(
        "available_cores {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in &out.metrics.0 {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &out.also.0 {
        eprintln!("  ({:<32} {:>14.4} {})", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        out.metrics
            .result_line(out.correct, out.attempted, out.failed)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
