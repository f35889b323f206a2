//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Runs one workload (see `plan.rs` for the three and why each was
//! chosen) as a closed loop with one client. The plan replays from a
//! fresh engine, corpus and daemon in rounds until `--seconds` have
//! passed; every reply is checked against the fingerprint recorded from a
//! direct `Session` while the plan was generated. Each metric is the
//! median over rounds.
//!
//! With `--trace 0` the last line of stdout holds the end-to-end metrics.
//! With `--trace 1` the run spends half its time untraced and half traced
//! on the workload's own path, then replays the plan once on the other
//! path, and the last line holds the per-layer metrics; spans go to
//! `DIR/trace-<workload>-seed<N>.jsonl`. Any failed operation makes the
//! run exit 1 with `"correct": false` and no metrics.

mod exec;
mod plan;
mod report;
mod trace;

use exec::Round;
use plan::{Bench, Path};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// A run always measures at least this many rounds, so every metric is a
/// median.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--out" => args.out = value.clone().into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Replays `bench` on `path` in rounds until `budget` has passed.
fn run(
    bench: &Bench,
    path: Path,
    budget: Duration,
    tr: &mut Option<&mut Tracer>,
    req: &mut u64,
) -> Vec<Round> {
    let deadline = Instant::now() + budget;
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = match path {
            Path::Library => exec::library_round(bench, tr, req),
            Path::Daemon => exec::daemon_round(bench, tr, req),
        };
        let failed = !round.failures.is_empty();
        rounds.push(round);
        if failed {
            break;
        }
    }
    rounds
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::generate(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            plan::WORKLOADS
        );
        return ExitCode::from(2);
    };
    eprintln!(
        "perfbench: {} seed {}: {} operations per round, {} documents",
        bench.name,
        args.seed,
        bench.plan.ops.len(),
        bench.plan.docs.len()
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let mut req = 0u64;
    let other = match bench.path {
        Path::Library => Path::Daemon,
        Path::Daemon => Path::Library,
    };

    let (all, metrics) = if !args.trace {
        let rounds = run(&bench, bench.path, budget, &mut None, &mut req);
        let e2e = report::end_to_end(&rounds);
        report::print_spread(bench.name, args.seed, &rounds, &e2e);
        (rounds, e2e.into_iter().map(|m| m.metric).collect())
    } else {
        let plain = run(&bench, bench.path, budget / 2, &mut None, &mut req);
        let mut tracer = Tracer::new();
        let traced = run(
            &bench,
            bench.path,
            budget / 2,
            &mut Some(&mut tracer),
            &mut req,
        );
        let crossed = run_once(&bench, other, &mut tracer, &mut req);
        report::print_spread(bench.name, args.seed, &plain, &report::end_to_end(&plain));
        report::print_spread(bench.name, args.seed, &traced, &report::end_to_end(&traced));
        let layers = report::per_layer(&plain, &traced, &tracer);
        report::print_per_layer(bench.name, args.seed, &layers);
        if let Err(e) = report::write_spans(&args.out, bench.name, args.seed, &tracer) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        let mut all = plain;
        all.extend(traced);
        all.push(crossed);
        (all, layers)
    };

    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failures: Vec<&String> = all.iter().flat_map(|r| &r.failures).collect();
    for f in failures.iter().take(10) {
        eprintln!("perfbench: FAILED {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        report::result_line(correct, attempted, failures.len() as u64, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One traced replay on `path`.
fn run_once(bench: &Bench, path: Path, tracer: &mut Tracer, req: &mut u64) -> Round {
    let mut tr = Some(tracer);
    match path {
        Path::Library => exec::library_round(bench, &mut tr, req),
        Path::Daemon => exec::daemon_round(bench, &mut tr, req),
    }
}
