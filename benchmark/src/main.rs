//! End-to-end benchmark of the sops sweep runtime, adaptive engine and
//! job service.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sweep|adaptive|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run repeats rounds of the workload,
//! each on fresh inputs derived from the seed, until `--seconds` have
//! passed. `--trace 0` reports the end-to-end metrics of untraced
//! rounds; `--trace 1` alternates untraced and traced rounds on the same
//! inputs, reports the per-layer metrics of the traced ones, and checks
//! that tracing left every final state unchanged. The last line of
//! standard output is one JSON object; `BENCHMARK.json` lists the
//! metrics and NOTES.md explains them. The exit code is non-zero when
//! any output check failed.

mod adaptive;
mod memfs;
mod metrics;
mod report;
mod round;
mod service;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metric;
use round::{mix, Round};
use stats::Tail;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Adaptive,
    Service,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::Adaptive, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Adaptive => "adaptive",
            Workload::Service => "service",
        }
    }

    fn round(self, seed: u64, dir: &Path, traced: bool) -> Round {
        match self {
            Workload::Sweep => sweep::round(seed, dir, traced),
            Workload::Adaptive => adaptive::round(seed, dir, traced),
            Workload::Service => service::round(seed, dir, traced),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Rounds of the workload until `seconds` have passed: untraced ones,
/// and with `trace` a traced twin of each on the same inputs.
fn run_rounds(args: &Args, work: &Path) -> (Vec<Round>, Vec<Round>) {
    // Enough untraced rounds that every latency tail has twenty samples.
    let min_rounds = if args.trace { 1 } else { 2 };
    let limit = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0u64.. {
        if k >= min_rounds && start.elapsed() >= limit {
            break;
        }
        let seed = mix(args.seed, k);
        let dir = work.join(format!("round-{k}"));
        untraced.push(args.workload.round(seed, &dir, false));
        let _ = std::fs::remove_dir_all(&dir);
        if args.trace {
            traced.push(args.workload.round(seed, &dir, true));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    (untraced, traced)
}

/// Failures where a traced unit's final state differs from its
/// untraced twin's.
fn digest_mismatches(untraced: &[Round], traced: &[Round]) -> (u64, Vec<String>) {
    let mut compared = 0;
    let mut failures = Vec::new();
    for (k, (u, t)) in untraced.iter().zip(traced).enumerate() {
        compared += u.units.len().max(t.units.len()) as u64;
        if u.units.len() != t.units.len() {
            failures.push(format!(
                "round {k}: {} untraced units, {} traced",
                u.units.len(),
                t.units.len()
            ));
            continue;
        }
        for (i, (a, b)) in u.units.iter().zip(&t.units).enumerate() {
            if a.digest != b.digest {
                failures.push(format!(
                    "round {k} unit {i}: traced digest {:016x} != untraced {:016x}",
                    b.digest, a.digest
                ));
            }
        }
    }
    (compared, failures)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <sweep|adaptive|service> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = report::Host::probe();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let (untraced, traced) = run_rounds(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");

    let mut attempted: u64 = untraced.iter().chain(&traced).map(Round::attempted).sum();
    let mut failures: Vec<String> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|r| r.failures.clone())
        .collect();
    // Traced twins repeat their untraced round's inputs, so only the
    // untraced rounds vote.
    let (voted, vote_failures) = round::tally_votes(&untraced);
    attempted += voted;
    failures.extend(vote_failures);
    let (metrics, latency_tail): (Vec<Metric>, Option<Tail>) = if args.trace {
        let (compared, mismatches) = digest_mismatches(&untraced, &traced);
        attempted += compared;
        failures.extend(mismatches);
        (metrics::per_layer(&untraced, &traced, host.cores()), None)
    } else {
        metrics::end_to_end(&untraced)
    };

    println!(
        "workload {} seed {} trace {}: {} untraced and {} traced rounds",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        traced.len()
    );
    println!("host: {host}");
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = latency_tail {
        print!(
            "  job_latency_tail_ms is p{} over {} samples ({} beyond it)",
            t.pct, t.samples, t.beyond
        );
        match t.rounds {
            Some(rounds) => println!(" in each round, the median over {rounds} rounds"),
            None => println!(", pooled over the rounds"),
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let summary = report::summary_json(attempted, failures.len() as u64, &metrics);
    if let Err(e) = report::write_record(&args, &host, &summary, latency_tail, &traced) {
        eprintln!("warning: could not write the run record: {e}");
    }
    println!("{summary}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
