//! The in-process workloads, `market-scan` and `deep-flow`: one thread
//! analyses generated apps, first in a closed loop, then open loop at
//! fixed rates.

use crate::gen::{deep_input, seed_self_test, Input, MarketGen, DEEP_CYCLE, MARKET_CYCLE};
use crate::ladder::{Ladder, Search};
use crate::layers::{per_layer, InProc, Service};
use crate::pipeline::{analyze, analyze_traced, Counters, Env, Tracer, Verdict};
use crate::stats::{median, proc_status_mb, reset_peak_rss, setup_figure, setup_support, EndToEnd};
use crate::Outcome;
use std::time::{Duration, Instant};

/// Fixed load settings of one in-process workload.
pub struct Plan {
    pub name: &'static str,
    /// The two reported open-loop arrival rates (apps/s).
    pub lo: f64,
    pub hi: f64,
    pub ladder: Ladder,
}

pub const MARKET_SCAN: Plan = Plan {
    name: "market-scan",
    lo: 400.0,
    hi: 900.0,
    ladder: Ladder {
        base: 600.0,
        step: 1.04,
        rungs: 40,
        slo_ms: 50.0,
    },
};

pub const DEEP_FLOW: Plan = Plan {
    name: "deep-flow",
    lo: 10.0,
    hi: 20.0,
    ladder: Ladder {
        base: 20.0,
        step: 1.04,
        rungs: 40,
        slo_ms: 500.0,
    },
};

/// Verdicts of a run's first closed-loop block analysed a second time.
const HEAD: usize = 20;

/// Rounds per run. Every round measures each figure once; a run reports
/// the median over its rounds, so a stall of the host that spans less
/// than half the run cannot move it.
pub const ROUNDS: usize = 4;

/// The seeded input stream of a workload.
enum Stream {
    Market(MarketGen),
    Deep(u64),
}

impl Stream {
    fn new(plan: &Plan, seed: u64) -> Stream {
        if plan.name == "deep-flow" {
            Stream::Deep(seed)
        } else {
            Stream::Market(MarketGen::new(seed))
        }
    }

    fn input(&mut self, i: u64) -> Input {
        match self {
            Stream::Market(g) => g.input(i),
            Stream::Deep(seed) => deep_input(*seed, i),
        }
    }

    /// Apps per cycle of the stream: nine market apps hold the fixed mix,
    /// fifteen deep-flow programs every size once.
    fn cycle(&self) -> u64 {
        match self {
            Stream::Market(_) => MARKET_CYCLE,
            Stream::Deep(_) => DEEP_CYCLE,
        }
    }

    /// At least `n` inputs from `*next` on, rounded out to whole cycles
    /// so every open-loop block holds the same mix of kinds and sizes.
    fn take(&mut self, next: &mut u64, n: u64) -> Vec<Input> {
        let cycle = self.cycle();
        let start = next.div_ceil(cycle) * cycle;
        let end = start + n.div_ceil(cycle) * cycle;
        *next = end;
        (start..end).map(|i| self.input(i)).collect()
    }
}

/// Set-up samples per batch: one batch before the run and one after
/// each block of every round, so the samples span the run.
const SETUP_BATCH: usize = 4;
/// The run reports the fastest set-up sample. Set-up here is the same
/// computation every time, in one process; its fastest repeat is its
/// cost without interference from the host, and it repeated between
/// runs better than the lower quintile did (`RECORD.json`).
const SETUP_QUANTILE: f64 = 0.0;

/// Platform snapshot build plus first-use initialisation: the first
/// analysis in a fresh environment, [`SETUP_BATCH`] times. Returns the
/// last environment built.
fn measure_setup(warm: &Input, samples: &mut Vec<f64>) -> Env {
    let mut env = None;
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let e = Env::new();
        let v = analyze(&e, &warm.bytes);
        samples.push(t.elapsed().as_secs_f64());
        if !v.is_ok_and(|v| v.matches(&warm.expect)) {
            crate::die(&format!("warm-up app {} misreported", warm.name));
        }
        env = Some(e);
    }
    env.expect("at least one setup")
}

/// One open-loop step at a fixed rate.
pub struct Step {
    /// Per job: completion minus due time, ms; infinite for a failed job.
    pub latency_ms: Vec<f64>,
    /// Per job that found the analyser idle: how late it started, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Completed jobs per second, first due time to last completion.
    pub achieved: f64,
    pub failed: u64,
}

/// Runs `inputs` open loop at `rate`: app `j` is due `j / rate` after
/// the start, and its latency counts from when it was due. The thread
/// spins while idle, so a due app starts without a wake-up delay.
fn open_step(env: &Env, rate: f64, inputs: &[Input]) -> Step {
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut step = Step {
        latency_ms: Vec::with_capacity(inputs.len()),
        gen_lag_ms: Vec::new(),
        achieved: 0.0,
        failed: 0,
    };
    let mut end = t0;
    for (j, inp) in inputs.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
        if Instant::now() < due {
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            step.gen_lag_ms
                .push((Instant::now() - due).as_secs_f64() * 1e3);
        }
        let ok = analyze(env, &inp.bytes).is_ok_and(|v| v.matches(&inp.expect));
        end = Instant::now();
        step.failed += u64::from(!ok);
        step.latency_ms.push(if ok {
            (end - due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
    }
    step.achieved = inputs.len() as f64 / (end - t0).as_secs_f64();
    step
}

/// Apps in a step at `rate` lasting `secs`.
fn jobs(rate: f64, secs: f64) -> u64 {
    (rate * secs).ceil().max(1.0) as u64
}

/// What the untraced rounds of a run measured.
struct Measured {
    env: Env,
    e2e: EndToEnd,
    max_rate: f64,
    peak_rss_mb: f64,
    setup_s: f64,
    gen_lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    deterministic: bool,
}

/// The untraced run: end-to-end metrics.
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Outcome {
    let r = measure(plan, seed, seconds);
    Outcome {
        metrics: EndToEnd::metrics(r.peak_rss_mb, r.setup_s),
        also: r.e2e.load_metrics(r.max_rate),
        attempted: r.attempted,
        failed: r.failed,
        correct: r.failed == 0 && r.deterministic,
    }
}

/// Closed-loop blocks, open-loop blocks at the two rates and the ladder
/// search, in [`ROUNDS`] rounds.
fn measure(plan: &Plan, seed: u64, seconds: f64) -> Measured {
    seed_self_test(plan.name, seed).unwrap_or_else(|e| crate::die(&e));
    let mut stream = Stream::new(plan, seed);
    // The same small malware-like app for every workload and seed: the
    // first analysis initialises, it does not measure a deep chain.
    let warm = MarketGen::new(0).input(4);
    let mut setup = Vec::new();
    let env = measure_setup(&warm, &mut setup);
    let mut gen_lag_ms = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut deterministic = true;
    let mut next = 0u64;
    let mut e2e = EndToEnd::default();
    let mut peak_rss_mb = Vec::new();
    let mut search = Search::new(&plan.ladder);
    let round_s = seconds / ROUNDS as f64;

    for round in 0..ROUNDS {
        // Closed loop: apps_per_s, verdict percentiles, peak RSS.
        reset_peak_rss();
        let budget = Duration::from_secs_f64(round_s * 0.35);
        let started = Instant::now();
        let first = next;
        let mut times = Vec::new();
        // Only the head is kept, for the re-run below: keeping every
        // verdict would make the block's peak RSS grow with the number
        // of apps the host got through.
        let mut head: Vec<Option<Verdict>> = Vec::new();
        // Whole cycles only, so the block's mix is the same every round.
        while started.elapsed() < budget || !next.is_multiple_of(stream.cycle()) {
            let inp = stream.input(next);
            next += 1;
            let t = Instant::now();
            let v = analyze(&env, &inp.bytes);
            times.push(t.elapsed().as_secs_f64());
            match &v {
                Ok(v) if v.matches(&inp.expect) => {}
                Ok(v) => {
                    failed += 1;
                    eprintln!(
                        "wrong verdict on {}: {:?}, expected {:?}",
                        inp.name, v.lines, inp.expect
                    );
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("analysis error on {}: {e}", inp.name);
                }
            }
            if head.len() < HEAD {
                head.push(v.ok());
            }
        }
        attempted += times.len() as u64;
        peak_rss_mb.push(proc_status_mb(None, "VmHWM").unwrap_or(0.0));
        e2e.apps_per_s
            .push(times.len() as f64 / times.iter().sum::<f64>());
        e2e.verdict_ms.extend(times.iter().map(|t| t * 1e3));

        if round == 0 {
            // Same seed, same counts and reports: re-run the head.
            let mut again = Stream::new(plan, seed);
            for (i, v) in head.iter().enumerate() {
                let inp = again.input(first + i as u64);
                if analyze(&env, &inp.bytes).ok() != *v {
                    eprintln!(
                        "propagation counts or report differ on a re-run of {}",
                        inp.name
                    );
                    deterministic = false;
                }
            }
        }
        measure_setup(&warm, &mut setup);

        // Open loop at the two reported rates, then two steps of the
        // ladder search.
        let mut open = |rate: f64, secs: f64| {
            let inputs = stream.take(&mut next, jobs(rate, secs));
            let step = open_step(&env, rate, &inputs);
            attempted += inputs.len() as u64;
            failed += step.failed;
            gen_lag_ms.extend(&step.gen_lag_ms);
            step
        };
        e2e.lo_ms.extend(open(plan.lo, round_s * 0.2).latency_ms);
        measure_setup(&warm, &mut setup);
        e2e.hi_ms.extend(open(plan.hi, round_s * 0.2).latency_ms);
        measure_setup(&warm, &mut setup);
        for _ in 0..2 {
            let Some(rung) = search.next() else { break };
            let rate = plan.ladder.rate(rung);
            let step = open(rate, round_s * 0.125);
            let met = plan.ladder.meets(rate, &step.latency_ms, step.achieved);
            search.record(rung, met, step.achieved);
        }
        measure_setup(&warm, &mut setup);
    }
    let max_rate = search.best.unwrap_or_else(|| {
        let rate = plan.ladder.rate(0);
        let inputs = stream.take(&mut next, jobs(rate, round_s * 0.125));
        let step = open_step(&env, rate, &inputs);
        attempted += inputs.len() as u64;
        failed += step.failed;
        eprintln!(
            "{}: no rung met the limit; reporting the lowest rung's rate",
            plan.name
        );
        step.achieved
    });
    eprintln!("{}: {}", plan.name, setup_support(&setup));
    eprintln!(
        "{}: {ROUNDS} rounds; {}; highest passing rung {} ({:.1}/s); per-round apps/s {:?}",
        plan.name,
        e2e.support(),
        search.highest(),
        plan.ladder.rate(search.highest()),
        e2e.apps_per_s.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    Measured {
        env,
        e2e,
        max_rate,
        peak_rss_mb: median(&peak_rss_mb),
        setup_s: setup_figure(&setup, SETUP_QUANTILE),
        gen_lag_ms,
        attempted,
        failed,
        deterministic,
    }
}

/// What [`trace_inputs`] saw.
pub struct Traced {
    /// Counters of each app whose traced analysis succeeded.
    pub counters: Vec<Counters>,
    /// Untraced seconds of the same apps.
    pub untraced_s: f64,
    /// Inputs analysed, and how many of them failed a check.
    pub attempted: u64,
    pub failed: u64,
}

/// Analyses each input untraced, traced and untraced again, checking
/// that the verdicts are identical and match the known answer.
pub fn trace_inputs(
    env: &Env,
    inputs: &mut dyn Iterator<Item = Input>,
    tracer: &mut Tracer,
) -> Traced {
    let mut t = Traced {
        counters: Vec::new(),
        untraced_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    for (i, inp) in inputs.enumerate() {
        t.attempted += 1;
        // Untraced, traced, untraced: the core's process-wide field-path
        // arena allocates only for paths it has not seen, so the traced
        // run always follows an untraced one of the same app and its
        // allocation counts repeat; the untraced time is the mean of
        // the runs before and after it, so warm caches favour neither
        // side of the tracing overhead.
        let mut timed = || {
            let start = Instant::now();
            let v = analyze(env, &inp.bytes);
            t.untraced_s += start.elapsed().as_secs_f64() / 2.0;
            v
        };
        let plain = timed();
        let traced = analyze_traced(env, &inp.bytes, i as u32, tracer);
        let plain = plain.and_then(|p| {
            if timed().as_ref() == Ok(&p) {
                Ok(p)
            } else {
                Err("two untraced runs differ".into())
            }
        });
        match (plain, traced) {
            (Ok(p), Ok((v, c))) => {
                if p != v {
                    eprintln!("traced and untraced reports differ on {}", inp.name);
                    t.failed += 1;
                } else if !p.matches(&inp.expect) {
                    eprintln!(
                        "wrong verdict on {}: {:?}, expected {:?}",
                        inp.name, p.lines, inp.expect
                    );
                    t.failed += 1;
                }
                t.counters.push(c);
            }
            (p, v) => {
                eprintln!(
                    "analysis error on {}: {:?} / {:?}",
                    inp.name,
                    p.err(),
                    v.err()
                );
                t.failed += 1;
            }
        }
    }
    t
}

/// Whether a second traced pass over `inputs` repeats `first` exactly.
pub fn counters_repeat(
    env: &Env,
    inputs: &mut dyn Iterator<Item = Input>,
    first: &[Counters],
) -> bool {
    let mut tracer = Tracer::new();
    let again: Result<Vec<Counters>, String> = inputs
        .enumerate()
        .map(|(i, inp)| analyze_traced(env, &inp.bytes, i as u32, &mut tracer).map(|r| r.1))
        .collect();
    match again {
        Ok(again) if again.len() <= first.len() && again[..] == first[..again.len()] => true,
        Ok(again) => {
            if let Some((i, (a, b))) = again
                .iter()
                .zip(first)
                .enumerate()
                .find(|(_, (a, b))| a != b)
            {
                eprintln!("app {i}: first {b:?}\n again {a:?}");
            }
            eprintln!("deterministic counters differ between two passes over the same inputs");
            false
        }
        Err(e) => {
            eprintln!("second traced pass failed: {e}");
            false
        }
    }
}

/// The traced run: per-layer metrics. Half the time repeats the
/// untraced rounds for the open-loop figures, half goes to the traced
/// pass.
pub fn run_traced(plan: &Plan, seed: u64, seconds: f64, trace_path: &std::path::Path) -> Outcome {
    let r = measure(plan, seed, seconds * 0.5);
    let env = &r.env;

    // Untraced and traced verdicts of the same apps, interleaved per
    // app so drift cannot bias the tracing overhead.
    let budget = Duration::from_secs_f64(seconds * 0.45);
    let started = Instant::now();
    let mut stream = Stream::new(plan, seed);
    let mut next = 0u64;
    let mut tracer = Tracer::new();
    let cycle = stream.cycle();
    let mut apps = std::iter::from_fn(|| {
        (started.elapsed() < budget || !next.is_multiple_of(cycle)).then(|| {
            next += 1;
            stream.input(next - 1)
        })
    });
    let traced = trace_inputs(env, &mut apps, &mut tracer);

    // Deterministic counters: a second pass over the head of the stream.
    let mut again = Stream::new(plan, seed);
    let head = (traced.counters.len() as u64).min(40);
    let repeat = counters_repeat(
        env,
        &mut (0..head).map(|i| again.input(i)),
        &traced.counters,
    );

    if let Err(e) = tracer.write(trace_path) {
        eprintln!("cannot write spans to {}: {e}", trace_path.display());
    }
    let attempted = r.attempted + traced.attempted;
    let failed = r.failed + traced.failed;
    let layers = InProc {
        tracer: &tracer,
        counters: &traced.counters,
        untraced_s: traced.untraced_s,
    };
    let mut m = r.e2e.load_metrics(r.max_rate);
    per_layer(
        &mut m,
        &layers,
        &Service::default(),
        &r.gen_lag_ms,
        failed,
        attempted,
    );
    Outcome {
        metrics: m,
        also: Default::default(),
        attempted,
        failed,
        correct: repeat && r.deterministic && failed == 0,
    }
}
