//! CI perf-regression guard over the `BENCH_chain.json` baseline.
//!
//! Compares a freshly measured chain-step throughput against the committed
//! baseline and fails (exit code 1) when a reference row — `n = 100` with
//! swaps enabled, the paper's Figure 2 working point — regresses by more
//! than the tolerance. The sequential, batched, and sharded-parallel
//! kernel rows are all guarded: each kernel (and, for the parallel
//! kernel, each thread count — rows are keyed `parallel[t=2]`) present in
//! *both* files is compared independently, and any of them regressing
//! fails the run. Baselines predating the batched engine carry no
//! `"kernel"` field; such rows are treated as sequential, so old
//! baselines keep guarding the sequential kernel and simply skip the
//! newer comparisons (likewise for pre-parallel baselines without
//! `"threads"`). Rows are keyed on the chain's γ as well (`sequential[γ=1]`
//! is the accept-heavy integrated-regime row); a row without a `"gamma"`
//! field predates it and reads as γ = 4, the bias every older row used.
//! Both numbers are printed either way, so every CI run logs the current
//! and recorded throughput side by side.
//!
//! ```text
//! perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]
//! ```
//!
//! The tolerance defaults to 25%: wide enough to absorb smoke-mode noise on
//! shared CI runners, tight enough to catch a hot-path change that, e.g.,
//! reintroduces a per-proposal allocation (which costs well over 25%).

use std::process::ExitCode;

/// The guarded rows: `n = 100`, swaps enabled, one per kernel and γ.
const GUARD_N: u64 = 100;

/// The γ of a row without a `"gamma"` field.
const DEFAULT_GAMMA: f64 = 4.0;

/// Extracts `kernel → steps_per_sec` for the guarded rows from
/// `BENCH_chain.json` text. The file is written line-per-row by the
/// microbench harness, so a line-oriented scan is exact for its own output
/// (and tolerant of reformatting, since it keys on the `"n"`/`"swaps"`/
/// `"kernel"`/`"threads"`/`"gamma"` fields, not position). A row without a
/// `"kernel"` field is a pre-batching sequential row; multi-thread rows
/// are keyed `kernel[t=threads]` and rows at γ ≠ 4 `kernel[γ=gamma]`, so
/// each thread count and bias is guarded as its own row.
fn throughput_rows(json: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in json.lines() {
        let Some(n) = field(line, "\"n\":") else {
            continue;
        };
        if n != GUARD_N.to_string() {
            continue;
        }
        if field(line, "\"swaps\":") != Some("true") {
            continue;
        }
        let mut kernel = field(line, "\"kernel\":")
            .map_or("sequential", |k| k.trim_matches('"'))
            .to_string();
        if let Some(threads) = field(line, "\"threads\":") {
            if threads != "1" {
                kernel = format!("{kernel}[t={threads}]");
            }
        }
        let gamma = match field(line, "\"gamma\":") {
            None => DEFAULT_GAMMA,
            Some(g) => match g.parse::<f64>() {
                Ok(g) => g,
                Err(_) => continue,
            },
        };
        if gamma != DEFAULT_GAMMA {
            kernel = format!("{kernel}[γ={gamma}]");
        }
        if let Some(sps) = field(line, "\"steps_per_sec\":").and_then(|v| v.parse().ok()) {
            rows.push((kernel, sps));
        }
    }
    rows
}

/// The trimmed text after `key` up to the next comma or closing brace.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows = throughput_rows(&text);
    if rows.is_empty() {
        return Err(format!(
            "{path}: no throughput row with n={GUARD_N}, swaps=true"
        ));
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]");
        return ExitCode::FAILURE;
    };
    let mut tolerance_pct = 25.0_f64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tolerance-pct" => match args.next().as_deref().map(str::parse) {
                Some(Ok(pct)) => tolerance_pct = pct,
                _ => {
                    eprintln!("--tolerance-pct needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (baseline_rows, fresh_rows) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perf_guard: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut compared = 0usize;
    let mut failed = false;
    for (kernel, baseline) in &baseline_rows {
        let Some((_, fresh)) = fresh_rows.iter().find(|(k, _)| k == kernel) else {
            println!("perf guard: {kernel} kernel absent from fresh run, skipping");
            continue;
        };
        compared += 1;
        let change_pct = (fresh / baseline - 1.0) * 100.0;
        println!("perf guard: chain_step n={GUARD_N} swaps=true kernel={kernel}");
        println!("  baseline  {baseline:>14.0} steps/sec  ({baseline_path})");
        println!("  fresh     {fresh:>14.0} steps/sec  ({fresh_path})");
        println!("  change    {change_pct:>+13.1}%   (tolerance −{tolerance_pct}%)");
        if *fresh < baseline * (1.0 - tolerance_pct / 100.0) {
            eprintln!(
                "perf_guard: FAIL — {kernel} throughput regressed {:.1}% \
                 (> {tolerance_pct}% allowed)",
                -change_pct
            );
            failed = true;
        }
    }
    if compared == 0 {
        eprintln!("perf_guard: FAIL — no kernel present in both baseline and fresh run");
        return ExitCode::FAILURE;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("perf guard: OK ({compared} kernel(s) within tolerance)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::throughput_rows;

    #[test]
    fn rows_are_keyed_on_kernel_threads_and_gamma() {
        let json = r#"
    {"n": 100, "swaps": true, "kernel": "sequential", "threads": 1, "ns_per_step": 20.0, "steps_per_sec": 50000000.0},
    {"n": 100, "swaps": true, "gamma": 4.0, "kernel": "parallel", "threads": 2, "ns_per_step": 40.0, "steps_per_sec": 25000000.0},
    {"n": 100, "swaps": true, "gamma": 1.0, "kernel": "sequential", "threads": 1, "ns_per_step": 80.0, "steps_per_sec": 12500000.0},
    {"n": 100, "swaps": false, "gamma": 1.0, "kernel": "sequential", "threads": 1, "ns_per_step": 80.0, "steps_per_sec": 12500000.0},
    {"n": 25, "swaps": true, "gamma": 1.0, "kernel": "sequential", "threads": 1, "ns_per_step": 80.0, "steps_per_sec": 12500000.0}
"#;
        let rows = throughput_rows(json);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        // A row without "gamma" reads as γ = 4 and keeps its old key, so an
        // older baseline still guards the same rows.
        assert_eq!(keys, ["sequential", "parallel[t=2]", "sequential[γ=1]"]);
        assert_eq!(rows[2].1, 12_500_000.0);
    }
}
