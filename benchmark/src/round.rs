//! What one round of a workload produces, and the helpers every
//! workload shares: input seeding, final-state digests and timing.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use sops_chains::{SnapshotRng as _, StateCodec as _};
use sops_core::Configuration;

use crate::stats::cpu_time;
use crate::trace::{Layer, Span};

/// One unit of work: a sweep or adaptive cell, or a service job.
#[derive(Clone, Debug)]
pub struct Unit {
    /// When the unit was due, from the round's start (0 for cells).
    pub due: Duration,
    /// When its result was seen, from the round's start; `None` if never.
    pub done: Option<Duration>,
    /// Chain steps it ran.
    pub steps: u64,
    /// Whether it stopped on its own criterion rather than the step cap:
    /// the convergence monitor for adaptive cells, the requested step
    /// count for fixed-length cells and jobs.
    pub converged: bool,
    /// Digest of its final state and RNG ([`digest`]); 0 if it failed.
    pub digest: u64,
}

/// The submission side of one service job (times from the round start).
#[derive(Clone, Copy, Debug)]
pub struct JobTimes {
    pub due: Duration,
    pub submitted: Duration,
    /// Queued jobs right after this one was admitted.
    pub queue_depth: usize,
}

/// One round of a workload.
#[derive(Debug, Default)]
pub struct Round {
    /// Each timed set-up of the round: building its inputs and opening
    /// its stores or service, before the clock started.
    pub setup: Vec<Duration>,
    pub wall: Duration,
    /// Process CPU time over the round, when readable.
    pub cpu: Option<Duration>,
    pub units: Vec<Unit>,
    /// Output checks made (besides one per unit).
    pub checks: u64,
    /// One line per failed, degraded or rejected unit and failed check.
    pub failures: Vec<String>,
    /// Trials of statistical output checks, decided over all of a run's
    /// rounds rather than per round.
    pub votes: Vec<Vote>,
    /// The ledger's spans; only `Cell` spans unless the round was traced.
    pub spans: Vec<Span>,
    /// Per-job submission times (service only).
    pub jobs: Vec<JobTimes>,
}

impl Round {
    /// A round whose set-up failed: one failed check, nothing run.
    pub fn setup_failed(setup: Vec<Duration>, error: &dyn std::fmt::Display) -> Round {
        Round {
            setup,
            checks: 1,
            failures: vec![format!("set-up failed: {error}")],
            ..Round::default()
        }
    }

    /// Units plus output checks.
    pub fn attempted(&self) -> u64 {
        self.units.len() as u64 + self.checks
    }

    /// When unit `cell`'s work ended, from its `Cell` span.
    pub fn cell_end(&self, cell: u32) -> Option<Duration> {
        self.spans
            .iter()
            .find(|s| s.layer == Layer::Cell && s.cell == cell)
            .map(|s| Duration::from_nanos(s.end))
    }
}

/// One trial of a statistical output check: the check holds for a run
/// when more than `need` of its trials over the run's rounds passed.
#[derive(Clone, Debug)]
pub struct Vote {
    pub check: String,
    pub passed: bool,
    pub need: f64,
}

impl Vote {
    pub fn new(check: String, passed: bool, need: f64) -> Vote {
        Vote {
            check,
            passed,
            need,
        }
    }
}

/// Decides each statistical check over `rounds`. Returns how many checks
/// there were and a line per failed one.
pub fn tally_votes(rounds: &[Round]) -> (u64, Vec<String>) {
    let mut tally: std::collections::BTreeMap<&str, (u64, u64, f64)> = Default::default();
    for vote in rounds.iter().flat_map(|r| &r.votes) {
        let (yes, all, need) = tally.entry(&vote.check).or_insert((0, 0, vote.need));
        *yes += u64::from(vote.passed);
        *all += 1;
        *need = vote.need;
    }
    let failures = tally
        .iter()
        .filter(|(_, &(yes, all, need))| yes as f64 <= need * all as f64)
        .map(|(check, (yes, all, _))| format!("{check}: held in {yes} of {all} trials"))
        .collect();
    (tally.len() as u64, failures)
}

/// Measures `work`'s wall and process CPU time.
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Duration, Option<Duration>) {
    let cpu0 = cpu_time();
    let start = Instant::now();
    let out = work();
    let wall = start.elapsed();
    let cpu = match (cpu0, cpu_time()) {
        (Some((a, _)), Some((b, _))) => Some(b.saturating_sub(a)),
        _ => None,
    };
    (out, wall, cpu)
}

/// Set-up runs this many times per round, each timed; set-up is short,
/// so one sample per round would leave its median to noise.
const SETUP_REPEATS: usize = 9;

/// Runs `setup` [`SETUP_REPEATS`] times, handing all but the last result
/// to `discard` (untimed). Returns the last result and every timing.
pub fn repeat_setup<T, E>(
    mut setup: impl FnMut() -> Result<T, E>,
    mut discard: impl FnMut(T),
) -> (Result<T, E>, Vec<Duration>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let start = Instant::now();
        let out = setup();
        times.push(start.elapsed());
        match out {
            Ok(done) => discard(done),
            Err(e) => return (Err(e), times),
        }
    }
    let start = Instant::now();
    let out = setup();
    times.push(start.elapsed());
    (out, times)
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a final state's codec bytes and its RNG's state: equal
/// digests mean the same trajectory ended in the same place.
pub fn digest(config: &Configuration, rng: &StdRng) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in config.encode_state().into_iter().chain(rng.rng_state()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voted(votes: &[(&str, bool)], need: f64) -> Round {
        Round {
            votes: votes
                .iter()
                .map(|&(c, p)| Vote::new(c.to_string(), p, need))
                .collect(),
            ..Round::default()
        }
    }

    #[test]
    fn majority_votes_need_more_than_half() {
        let rounds = [
            voted(&[("a", true), ("b", false), ("c", true)], 0.5),
            voted(&[("a", false), ("b", false), ("c", false)], 0.5),
            voted(&[("a", true), ("b", true), ("c", false)], 0.5),
        ];
        let (checks, failures) = tally_votes(&rounds);
        assert_eq!(checks, 3);
        assert_eq!(
            failures,
            ["b: held in 1 of 3 trials", "c: held in 1 of 3 trials"]
        );
        // A tie is not a majority.
        let (_, failures) = tally_votes(&rounds[..2]);
        assert_eq!(failures.len(), 3);
    }

    #[test]
    fn pooled_votes_compare_the_pass_share_with_need() {
        let trials = |passes: usize, fails: usize| {
            let mut v = vec![("p", true); passes];
            v.extend(vec![("p", false); fails]);
            voted(&v, 0.8)
        };
        assert!(tally_votes(&[trials(9, 1)]).1.is_empty());
        assert!(tally_votes(&[trials(8, 1), trials(9, 1)]).1.is_empty());
        assert_eq!(
            tally_votes(&[trials(8, 2)]).1,
            ["p: held in 8 of 10 trials"]
        );
    }
}
