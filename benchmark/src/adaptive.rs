//! `adaptive`: the `fig3 --adaptive` base grid (λ ∈ {0.5, 1, 2, 4, 6} ×
//! γ ∈ {0.5, 1, 81/79, 2, 4, 6}) at the `--smoke` budget fig3's
//! committed cells report was made with: every cell starts from one seed
//! configuration and runs `run_chain_monitored` under fig3's rule stack
//! (plateau, ESS, split-R̂, a phase-classification streak as the
//! certificate) until it converges or spends 500,000 steps.
//!
//! Analysis- and monitor-bound: `classify` runs once per 2,000-step
//! chunk, so this workload moves with `sops-analysis` and
//! `chains::convergence` and uses the kernel too little to show kernel
//! gains. Its answer is the converged phase diagram.

use std::ops::ControlFlow;
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_analysis::{classify, Phase, PhaseThresholds};
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_chain_monitored, CellStatus, CertificateRule, ChainJob, ConvergenceMonitor, EssRule,
    JobContext, JobError, PlateauRule, RHatRule, Runtime, StopReason, StoppingRule, SweepOptions,
};

use crate::round::{digest, measure, mix, repeat_setup, Round, Unit, Vote};
use crate::trace::{timed, Layer, Ledger, Probe, ProbedChain, ProbedRule, ProbedState};

const LAMBDAS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 6.0];
const GAMMAS: [f64; 6] = [0.5, 1.0, 81.0 / 79.0, 2.0, 4.0, 6.0];
const N: usize = 100;
/// fig3's `--smoke` step budget, and its chunk length
/// `max(budget / 256, 2000)`.
const ITERATIONS: u64 = 500_000;
const EVERY: u64 = 2_000;

/// The base-grid phases of the committed `results/fig3-cells.json`
/// (rows λ, columns γ), against which cells far from a phase boundary
/// are checked.
const REFERENCE: [[Phase; 6]; 5] = {
    use Phase::{
        CompressedIntegrated as CI, CompressedSeparated as CS, ExpandedIntegrated as EI,
        ExpandedSeparated as ES,
    };
    [
        [EI, ES, ES, ES, ES, ES],
        [EI, ES, ES, ES, ES, CS],
        [EI, ES, ES, CS, CS, CS],
        [EI, CI, CI, CS, CS, CS],
        [CI, CI, CI, CS, CS, CS],
    ]
};

/// Whether the reference cell (row, col) is far from every phase
/// boundary: all of its grid neighbours carry its label.
fn far_from_boundary(row: usize, col: usize) -> bool {
    let label = REFERENCE[row][col];
    let neighbours = [
        (row.wrapping_sub(1), col),
        (row + 1, col),
        (row, col.wrapping_sub(1)),
        (row, col + 1),
    ];
    neighbours.iter().all(|&(r, c)| {
        REFERENCE
            .get(r)
            .and_then(|cells| cells.get(c))
            .is_none_or(|&other| other == label)
    })
}

/// fig3's adaptive rule stack, each rule wrapped so its calls are timed.
fn fig3_monitor(probe: &Probe) -> ConvergenceMonitor {
    let rules: [Box<dyn StoppingRule + Send>; 4] = [
        Box::new(PlateauRule::new(16, 0.05)),
        Box::new(EssRule::new(12.0, 48, 24)),
        Box::new(RHatRule::new(1.05, 24)),
        Box::new(CertificateRule::new(8)),
    ];
    rules
        .into_iter()
        .zip(0u8..)
        .fold(ConvergenceMonitor::new(48), |monitor, (rule, index)| {
            monitor.with_rule(ProbedRule::boxed(rule, index, probe))
        })
}

struct Inputs {
    seed_config: Configuration,
    seeds: Vec<u64>,
}

struct CellResult {
    phase: Phase,
    converged: bool,
    steps: u64,
    digest: u64,
}

fn cells() -> impl Iterator<Item = (usize, usize)> {
    (0..LAMBDAS.len()).flat_map(|row| (0..GAMMAS.len()).map(move |col| (row, col)))
}

fn setup(seed: u64) -> Result<Inputs, JobError> {
    // One initial configuration for every cell, as fig3 does.
    let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
    let nodes = construct::random_blob(N, &mut rng);
    let seed_config = Configuration::new(construct::bicolor_random(nodes, N / 2, &mut rng))
        .map_err(|e| JobError::app(e.to_string()))?;
    let seeds = (0..LAMBDAS.len() * GAMMAS.len())
        .map(|i| mix(seed, i as u64))
        .collect();
    Ok(Inputs { seed_config, seeds })
}

/// One phase-diagram cell, following fig3's `phase_cell` under
/// `--adaptive`.
fn cell(
    i: usize,
    (row, col): (usize, usize),
    inputs: &Inputs,
    ctx: &JobContext<'_>,
    probe: &Probe,
) -> Result<CellResult, JobError> {
    let (lambda, gamma) = (LAMBDAS[row], GAMMAS[col]);
    let mut rng = StdRng::seed_from_u64(inputs.seeds[i]);
    let mut state = ProbedState::new(inputs.seed_config.clone(), probe.clone());
    let bias = Bias::new(lambda, gamma).map_err(|e| JobError::app(e.to_string()))?;
    let chain = ProbedChain::new(SeparationChain::new(bias), gamma, probe.clone());
    let job = ChainJob {
        steps: ITERATIONS,
        every: EVERY,
        store: None,
        audit_every: None,
    };
    let phase_of = |s: &ProbedState| {
        timed(probe, Layer::Classify, 1, || {
            classify(&s.config, PhaseThresholds::default())
        })
    };
    let mut monitor = fig3_monitor(probe);
    let mut prev_phase: Option<Phase> = None;
    let (run, stop) = run_chain_monitored(
        ctx,
        &chain,
        &mut state,
        &mut rng,
        job,
        &mut monitor,
        |s| timed(probe, Layer::Observe, 1, || s.config.perimeter() as f64),
        |s| {
            let phase = phase_of(s);
            let stable = prev_phase == Some(phase);
            prev_phase = Some(phase);
            stable
        },
        |_, _| ControlFlow::Continue(()),
    )?;
    Ok(CellResult {
        phase: phase_of(&state),
        converged: matches!(stop, Some(StopReason::Converged { .. })),
        steps: run.steps,
        digest: digest(&state.config, &rng),
    })
}

/// Sets up and runs one round; `traced` records layer spans.
pub fn round(seed: u64, _dir: &Path, traced: bool) -> Round {
    let ledger = Ledger::new();
    let probe: Probe = traced.then(|| ledger.clone());
    let (inputs, setup) = repeat_setup(|| setup(seed), drop);
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => return Round::setup_failed(setup, &e),
    };
    let runtime = Runtime::new(SweepOptions::default());
    let grid: Vec<(usize, usize)> = cells().collect();
    ledger.restart();
    let (outcomes, wall, cpu) = measure(|| {
        runtime.run_cells((0..grid.len()).collect(), |&i, ctx| {
            let _cell = ledger.enter(i as u32);
            cell(i, grid[i], &inputs, ctx, &probe)
        })
    });
    let spans = ledger.take();

    let mut round = Round {
        setup,
        wall,
        cpu,
        spans,
        ..Round::default()
    };
    for (i, (outcome, &(row, col))) in outcomes.iter().zip(&grid).enumerate() {
        let name = format!("l={},g={:.4}", LAMBDAS[row], GAMMAS[col]);
        let result = outcome
            .result
            .as_ref()
            .filter(|_| outcome.status == CellStatus::Ok);
        round.units.push(Unit {
            due: Duration::ZERO,
            done: round.cell_end(i as u32),
            steps: result.map_or(0, |r| r.steps),
            converged: result.is_some_and(|r| r.converged),
            digest: result.map_or(0, |r| r.digest),
        });
        let Some(result) = result else {
            round.failures.push(format!(
                "{name}: {} {:?}",
                outcome.status.as_str(),
                outcome.error
            ));
            continue;
        };
        // A cell can stop on a settled-looking metastable state and take
        // the wrong label now and then; a systematic mislabel is what
        // the check must catch, so it is decided by majority over the
        // run's rounds. Single misses are reported, not failed.
        if far_from_boundary(row, col) {
            let matched = result.phase == REFERENCE[row][col];
            if !matched {
                eprintln!(
                    "note: {name}: phase {:?}, reference {:?}",
                    result.phase, REFERENCE[row][col]
                );
            }
            let check = format!("{name}: reference phase");
            round.votes.push(Vote::new(check, matched, 0.5));
        }
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The embedded reference is the committed fig3 cells report.
    #[test]
    fn reference_matches_committed_fig3_cells() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig3-cells.json");
        let report = std::fs::read_to_string(path).expect("committed fig3 cells report");
        for (row, col) in cells() {
            let cell = format!("\"cell\": \"l={},g={:.4}\"", LAMBDAS[row], GAMMAS[col]);
            let line = report
                .lines()
                .find(|l| l.contains(&cell))
                .unwrap_or_else(|| panic!("{cell} missing"));
            let phase = format!("phase: {:?},", REFERENCE[row][col]);
            assert!(line.contains(&phase), "{cell}: expected {phase} in {line}");
        }
    }

    #[test]
    fn far_cells_exclude_every_boundary_neighbour() {
        let far: Vec<(usize, usize)> = cells().filter(|&(r, c)| far_from_boundary(r, c)).collect();
        assert_eq!(
            far,
            [
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 1),
                (4, 4),
                (4, 5)
            ]
        );
    }
}
