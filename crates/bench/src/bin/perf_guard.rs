//! CI perf-regression guard over the `BENCH_chain.json` baseline.
//!
//! Compares a freshly measured chain-step throughput against the committed
//! baseline and fails (exit code 1) when a reference row — `n = 100` with
//! swaps enabled, the paper's Figure 2 working point — regresses by more
//! than the tolerance. Rows are keyed on the chain's γ (`γ=1` is the
//! accept-heavy integrated-regime row); a row without a `"gamma"` field
//! predates it and reads as γ = 4, the bias every older row used. Every
//! guarded baseline row must appear in the fresh run: a bench row that was
//! renamed or dropped fails the guard instead of silently losing it. Both
//! numbers are printed either way, so every CI run logs the current and
//! recorded throughput side by side.
//!
//! ```text
//! perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]
//! ```
//!
//! The tolerance defaults to 25%: wide enough to absorb smoke-mode noise on
//! shared CI runners, tight enough to catch a hot-path change that, e.g.,
//! reintroduces a per-proposal allocation (which costs well over 25%).

use std::process::ExitCode;

/// The guarded rows: `n = 100`, swaps enabled, one per γ.
const GUARD_N: u64 = 100;

/// The γ of a row without a `"gamma"` field.
const DEFAULT_GAMMA: f64 = 4.0;

/// Extracts `γ=gamma → steps_per_sec` for the guarded rows from
/// `BENCH_chain.json` text. The file is written line-per-row by the
/// microbench harness, so a line-oriented scan is exact for its own output
/// (and tolerant of reformatting, since it keys on the `"n"`/`"swaps"`/
/// `"gamma"` fields, not position).
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
        let gamma = match field(line, "\"gamma\":") {
            None => DEFAULT_GAMMA,
            Some(g) => match g.parse::<f64>() {
                Ok(g) => g,
                Err(_) => continue,
            },
        };
        if let Some(sps) = field(line, "\"steps_per_sec\":").and_then(|v| v.parse().ok()) {
            rows.push((format!("γ={gamma}"), sps));
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

    println!("perf guard: baseline {baseline_path}, fresh {fresh_path}");
    let failures = guard(&baseline_rows, &fresh_rows, tolerance_pct);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("perf_guard: FAIL — {failure}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "perf guard: OK ({} row(s) within tolerance)",
        baseline_rows.len()
    );
    ExitCode::SUCCESS
}

/// Compares every guarded baseline row with the same row of the fresh run,
/// printing both numbers, and returns one message per failing row: a row
/// whose throughput fell by more than `tolerance_pct`, or a row the fresh
/// run does not have.
fn guard(baseline: &[(String, f64)], fresh: &[(String, f64)], tolerance_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, baseline) in baseline {
        let Some((_, fresh)) = fresh.iter().find(|(k, _)| k == key) else {
            failures.push(format!("row {key} is absent from the fresh run"));
            continue;
        };
        let change_pct = (fresh / baseline - 1.0) * 100.0;
        println!("perf guard: chain_step n={GUARD_N} swaps=true {key}");
        println!("  baseline  {baseline:>14.0} steps/sec");
        println!("  fresh     {fresh:>14.0} steps/sec");
        println!("  change    {change_pct:>+13.1}%   (tolerance −{tolerance_pct}%)");
        if *fresh < baseline * (1.0 - tolerance_pct / 100.0) {
            failures.push(format!(
                "{key} throughput regressed {:.1}% (> {tolerance_pct}% allowed)",
                -change_pct
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::{guard, throughput_rows};

    #[test]
    fn rows_are_keyed_on_gamma() {
        let json = r#"
    {"n": 100, "swaps": true, "ns_per_step": 20.0, "steps_per_sec": 50000000.0},
    {"n": 100, "swaps": true, "gamma": 1.0, "ns_per_step": 80.0, "steps_per_sec": 12500000.0},
    {"n": 100, "swaps": false, "gamma": 1.0, "ns_per_step": 80.0, "steps_per_sec": 12500000.0},
    {"n": 25, "swaps": true, "gamma": 1.0, "ns_per_step": 80.0, "steps_per_sec": 12500000.0}
"#;
        let rows = throughput_rows(json);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        // A row without "gamma" reads as γ = 4, so an older baseline still
        // guards the same row.
        assert_eq!(keys, ["γ=4", "γ=1"]);
        assert_eq!(rows[1].1, 12_500_000.0);
    }

    #[test]
    fn a_baseline_row_absent_from_the_fresh_run_fails() {
        let baseline = [("γ=4".to_string(), 4.0e7), ("γ=1".to_string(), 1.0e7)];
        let both = [("γ=1".to_string(), 1.0e7), ("γ=4".to_string(), 4.0e7)];
        assert!(guard(&baseline, &both, 25.0).is_empty());
        let failures = guard(&baseline, &both[1..], 25.0);
        assert_eq!(failures, ["row γ=1 is absent from the fresh run"]);
        // A fresh row the baseline lacks is new, not a regression.
        assert!(guard(&baseline[..1], &both, 25.0).is_empty());
    }

    #[test]
    fn a_regression_beyond_the_tolerance_fails() {
        let baseline = [("γ=4".to_string(), 4.0e7)];
        assert!(guard(&baseline, &[("γ=4".to_string(), 3.1e7)], 25.0).is_empty());
        assert_eq!(
            guard(&baseline, &[("γ=4".to_string(), 2.9e7)], 25.0).len(),
            1
        );
    }
}
