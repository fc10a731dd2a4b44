//! Order statistics, the process CPU-time reader and the ledger
//! arithmetic, kept free of workload code so they can be unit-tested.

use std::time::Duration;

/// The median of `values` (mean of the middle two for an even count),
/// or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Percentiles a tail may be reported at, in per mille, highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that has at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank), or the median of
    /// the rounds' samples there ([`round_tail`]).
    pub value: f64,
    /// How many samples the percentile was taken over (in each round,
    /// for a [`round_tail`]).
    pub samples: usize,
    /// How many of them lie beyond it.
    pub beyond: usize,
    /// For a [`round_tail`], how many rounds the median is over.
    pub rounds: Option<usize>,
}

/// Samples a reported tail percentile must have beyond it.
const MIN_BEYOND: usize = 10;

/// The lowest percentile a [`round_tail`] may be taken at.
const MIN_ROUND_PER_MILLE: usize = 900;

/// The `per_mille` percentile of the sorted `v` by the nearest-rank rule
/// (rank ⌈p·n/1000⌉), or `None` when that rank is 0.
fn at(v: &[f64], per_mille: usize) -> Option<Tail> {
    let n = v.len();
    let rank = (per_mille * n).div_ceil(1000);
    (rank >= 1).then(|| Tail {
        pct: per_mille as f64 / 10.0,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
        rounds: None,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, by the nearest-rank rule (rank ⌈p·n/100⌉). `None` when
/// even the median has fewer than that many beyond it (n < 20).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    TAIL_LADDER
        .iter()
        .find_map(|&per_mille| at(&v, per_mille).filter(|t| t.beyond >= MIN_BEYOND))
}

/// The tail taken within each round, at the highest ladder percentile
/// that has [`MIN_BEYOND`] samples beyond it in every round, and the
/// median over rounds of the samples there. `None` unless that
/// percentile is p90 or higher: rounds of a few units need their samples
/// pooled ([`tail`]). Pooled, the slowest round alone would fill a high
/// tail; this way a tail is as steady as a round's wall time.
pub fn round_tail(rounds: &[Vec<f64>]) -> Option<Tail> {
    let rounds: Vec<Vec<f64>> = rounds.iter().map(|r| sorted(r)).collect();
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .take_while(|&p| p >= MIN_ROUND_PER_MILLE)
        .find(|&p| {
            rounds
                .iter()
                .all(|r| at(r, p).is_some_and(|t| t.beyond >= MIN_BEYOND))
        })?;
    let tails: Vec<Tail> = rounds.iter().filter_map(|r| at(r, per_mille)).collect();
    let fewest = tails.iter().min_by_key(|t| t.samples)?;
    Some(Tail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?,
        rounds: Some(tails.len()),
        ..*fewest
    })
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 in its user-space ABI.
const USER_HZ: f64 = 100.0;

/// Where [`cpu_time`] read the process CPU time from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuSource {
    /// `utime + stime` of every thread of the process, 10 ms ticks.
    ProcStat,
    /// `/proc/self/schedstat`: on-CPU nanoseconds of the main thread
    /// only, so it undercounts worker threads.
    SchedStat,
}

impl CpuSource {
    pub fn name(self) -> &'static str {
        match self {
            CpuSource::ProcStat => "/proc/self/stat",
            CpuSource::SchedStat => "/proc/self/schedstat (main thread only)",
        }
    }
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_proc_stat(line: &str) -> Option<Duration> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the command come state (field 3) … utime (14), stime (15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// Parses the on-CPU nanoseconds (first field) of a `schedstat` line.
fn parse_schedstat(line: &str) -> Option<Duration> {
    line.split_whitespace()
        .next()?
        .parse()
        .ok()
        .map(Duration::from_nanos)
}

/// The process's CPU time so far, from `/proc/self/stat`, falling back
/// to `/proc/self/schedstat`; `None` when neither is readable.
pub fn cpu_time() -> Option<(Duration, CpuSource)> {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    read("/proc/self/stat")
        .and_then(|s| parse_proc_stat(&s))
        .map(|d| (d, CpuSource::ProcStat))
        .or_else(|| {
            read("/proc/self/schedstat")
                .and_then(|s| parse_schedstat(&s))
                .map(|d| (d, CpuSource::SchedStat))
        })
}

/// The share of cell busy time no layer span accounts for:
/// `1 − Σ layer busy / cell busy`. Negative when layer spans overlap
/// each other (double counting); `None` without cell time.
pub fn unattributed_frac(cell_busy_ns: u64, layer_busy_ns: &[u64]) -> Option<f64> {
    if cell_busy_ns == 0 {
        return None;
    }
    let layers: u64 = layer_busy_ns.iter().sum();
    Some(1.0 - layers as f64 / cell_busy_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 has only 5 samples beyond it; p90 has exactly 10.
        let t = tail(&v).unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        // 99 samples: p90 is rank 90 (9 beyond), so p75 at rank 75.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (75.0, 75.0, 99, 24));
    }

    #[test]
    fn tail_ignores_input_order_and_needs_twenty_samples() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn round_tail_is_the_median_of_per_round_tails() {
        let round = |scale: f64| (1..=320).map(|x| f64::from(x) * scale).collect::<Vec<_>>();
        // 320 samples: p99 has 3 beyond it, p95 has 16.
        let rounds = [round(1.0), round(1.1), round(1.2)];
        let t = round_tail(&rounds).unwrap();
        assert_eq!(
            (t.pct, t.samples, t.beyond, t.rounds),
            (95.0, 320, 16, Some(3))
        );
        assert!((t.value - 304.0 * 1.1).abs() < 1e-9);
        // One slow round does not move it; pooled, it would set the tail.
        let slow = [round(1.0), round(1.0), round(3.0)];
        assert_eq!(round_tail(&slow).unwrap().value, 304.0);
        assert!(tail(&slow.concat()).unwrap().value > 304.0 * 2.0);
        // The percentile is one every round can carry.
        let t = round_tail(&[round(1.0), (1..=100).map(f64::from).collect()]).unwrap();
        assert_eq!((t.pct, t.samples, t.beyond), (90.0, 100, 10));
        // Rounds of a few units pool instead.
        assert_eq!(round_tail(&[round(1.0), vec![1.0; 30]]), None);
        assert_eq!(round_tail(&[]), None);
    }

    #[test]
    fn proc_stat_sums_user_and_system_ticks() {
        // comm with a space and a parenthesis, utime 250, stime 30 ticks.
        let line = "4242 (bench (x) y) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0";
        assert_eq!(parse_proc_stat(line), Some(Duration::from_millis(2800)));
    }

    #[test]
    fn proc_stat_rejects_malformed_lines() {
        assert_eq!(parse_proc_stat(""), None);
        assert_eq!(parse_proc_stat("12 (x) R 1 2"), None);
        assert_eq!(parse_proc_stat("12 (x) R 1 2 3 4 5 6 7 8 9 10 abc 3"), None);
    }

    #[test]
    fn schedstat_fallback_reads_nanoseconds() {
        assert_eq!(
            parse_schedstat("1500000000 2000 17\n"),
            Some(Duration::from_millis(1500))
        );
        assert_eq!(parse_schedstat("x"), None);
    }

    #[test]
    fn cpu_time_is_monotone_under_work() {
        let Some((before, _)) = cpu_time() else {
            return; // no procfs: nothing to read
        };
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (after, _) = cpu_time().unwrap();
        assert!(after > before, "{before:?} -> {after:?}");
    }

    #[test]
    fn unattributed_is_one_minus_layer_share() {
        let close = |got: Option<f64>, want: f64| (got.unwrap() - want).abs() < 1e-12;
        assert!(close(unattributed_frac(1_000, &[600, 300]), 0.1));
        assert!(close(unattributed_frac(1_000, &[]), 1.0));
        // Overlapping layer spans show up as a negative share.
        assert!(close(unattributed_frac(1_000, &[700, 500]), -0.2));
        assert_eq!(unattributed_frac(0, &[5]), None);
    }
}
