//! `sweep`: the `separation` γ-grid (n = 100, λ = 4, ten γ from 0.8 to
//! 8) on the production path: `Runtime::run_cells` → `run_chain` with a
//! checkpoint store, audits and the standard telemetry instrument, then
//! the separation bin's sampling loop, all for a fixed step count.
//!
//! Kernel-bound: the four cells of the integration window accept 40–44%
//! of proposals and cost several times more per step than the separated
//! ones. It writes two checkpoints per cell, so I/O work bypasses it.
//! Ten cells on `available_parallelism` cores oversubscribe the way
//! every real sweep does.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_analysis::{is_separated, metrics};
use sops_bench::instrument_chain;
use sops_chains::telemetry::series_record_json;
use sops_chains::{Auditable as _, CheckpointStore, MarkovChain as _, RunManifest};
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_chain, sanitize, CellStatus, ChainJob, JobContext, JobError, Runtime, SweepOptions,
};

use crate::round::{digest, measure, mix, repeat_setup, Round, Unit, Vote};
use crate::trace::{timed, Layer, Ledger, Probe, ProbedChain, ProbedState, ProbedVfs};

/// The `separation` bin's γ grid.
pub const GAMMAS: [f64; 10] = [
    0.8,
    79.0 / 81.0,
    1.0,
    81.0 / 79.0,
    1.5,
    2.0,
    3.0,
    4.0,
    5.657,
    8.0,
];
const N: usize = 100;
const LAMBDA: f64 = 4.0;
const BURN_IN: u64 = 1_000_000;
/// Chunk length of the burn-in, and the audit interval of both phases.
const EVERY: u64 = 500_000;
const SAMPLES: u64 = 20;
const SAMPLE_GAP: u64 = 50_000;
const STEPS_PER_CELL: u64 = BURN_IN + SAMPLES * SAMPLE_GAP;

/// The share of samples that must show the expected separation state
/// (P[separated] > 0.8 at γ = 8, < 0.2 in the integration window).
const SHARE: f64 = 0.8;

struct Inputs {
    configs: Vec<Configuration>,
    seeds: Vec<u64>,
    stores: Vec<CheckpointStore>,
    opts: SweepOptions,
    logs: PathBuf,
}

struct CellResult {
    /// Samples (of [`SAMPLES`]) that were (4, 0.2)-separated.
    separated: u64,
    digest: u64,
}

fn setup(seed: u64, dir: &Path, probe: &Probe) -> Result<Inputs, JobError> {
    let opts = SweepOptions {
        checkpoint_dir: Some(dir.join("checkpoints")),
        audit_every: Some(EVERY),
        ..SweepOptions::default()
    };
    let retain = opts.budget.checkpoint_retention(opts.retain);
    let logs = dir.join("logs");
    std::fs::create_dir_all(&logs)?;
    let mut inputs = Inputs {
        configs: Vec::new(),
        seeds: Vec::new(),
        stores: Vec::new(),
        opts,
        logs,
    };
    for (i, &gamma) in GAMMAS.iter().enumerate() {
        let cell_seed = mix(seed, i as u64);
        let mut rng = StdRng::seed_from_u64(cell_seed);
        let nodes = construct::hexagonal_spiral(N);
        let config = Configuration::new(construct::bicolor_random(nodes, N / 2, &mut rng))
            .map_err(|e| JobError::app(e.to_string()))?;
        // `SweepOptions::store_for` with the timed VFS underneath: clear
        // stale state, then open.
        let cell_dir = dir.join("checkpoints").join(sanitize(&label(gamma)));
        if cell_dir.exists() {
            std::fs::remove_dir_all(&cell_dir)?;
        }
        let store = CheckpointStore::open_with(cell_dir, retain, ProbedVfs::real(probe.clone()))?;
        inputs.configs.push(config);
        inputs.seeds.push(mix(cell_seed, 1));
        inputs.stores.push(store);
    }
    Ok(inputs)
}

fn label(gamma: f64) -> String {
    format!("gamma={gamma:.4}")
}

/// One γ-cell, following `separation`'s `sweep_cell`.
fn cell(
    i: usize,
    inputs: &Inputs,
    ctx: &JobContext<'_>,
    probe: &Probe,
) -> Result<CellResult, JobError> {
    let gamma = GAMMAS[i];
    let mut rng = StdRng::seed_from_u64(inputs.seeds[i]);
    let mut state = ProbedState::new(inputs.configs[i].clone(), probe.clone());
    let bare = SeparationChain::new(Bias::new(LAMBDA, gamma).expect("valid bias"));
    let chain =
        ProbedChain::new(instrument_chain(bare, true), gamma, probe.clone()).with_shadow(bare);
    let observe = |s: &ProbedState| {
        timed(probe, Layer::Observe, 1, || {
            metrics::hetero_fraction(&s.config)
        })
    };

    let job = ChainJob {
        steps: BURN_IN,
        every: EVERY,
        store: Some(&inputs.stores[i]),
        audit_every: inputs.opts.audit_every,
    };
    let run = run_chain(ctx, &chain, &mut state, &mut rng, job, observe, |_, _| {
        ControlFlow::Continue(())
    })?;
    if !run.completed || ctx.degraded().is_some() {
        return Err(JobError::app("burn-in stopped early"));
    }

    let manifest = RunManifest {
        run: format!("sweep/{}", label(gamma)),
        seed: inputs.seeds[i],
        lambda: LAMBDA,
        gamma,
        n: N as u64,
        steps: STEPS_PER_CELL,
    };
    let mut sink = inputs
        .opts
        .telemetry_sink(&inputs.logs, "sweep", &label(gamma), &manifest, None)?
        .expect("telemetry is on");
    sink.record_metrics(0, &chain.inner().report())?;

    let mut separated = 0u64;
    let mut since_audit = 0;
    for sample in 1..=SAMPLES {
        chain.run(&mut state, SAMPLE_GAP, &mut rng);
        let step = BURN_IN + sample * SAMPLE_GAP;
        ctx.heartbeat.beat(step);
        since_audit += SAMPLE_GAP;
        if since_audit >= EVERY {
            since_audit = 0;
            let violations = state.audit_violations();
            if !violations.is_empty() {
                return Err(JobError::AuditFailed { step, violations });
            }
        }
        let is_sep = timed(probe, Layer::Observe, 1, || {
            is_separated(&state.config, 4.0, 0.2).is_some()
        });
        separated += u64::from(is_sep);
        observe(&state);
    }
    let report = chain.inner().report();
    sink.record_metrics(0, &report)?;
    sink.record_line(&series_record_json(0, &report))?;
    for line in ctx.event_lines() {
        sink.record_line(&line)?;
    }
    Ok(CellResult {
        separated,
        digest: digest(&state.config, &rng),
    })
}

/// Sets up and runs one round; `traced` records layer spans.
pub fn round(seed: u64, dir: &Path, traced: bool) -> Round {
    let ledger = Ledger::new();
    let probe: Probe = traced.then(|| ledger.clone());
    let (inputs, setup) = repeat_setup(|| setup(seed, dir, &probe), drop);
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => return Round::setup_failed(setup, &e),
    };
    let runtime = Runtime::new(inputs.opts.clone());
    ledger.restart();
    let (outcomes, wall, cpu) = measure(|| {
        runtime.run_cells((0..GAMMAS.len()).collect(), |&i, ctx| {
            let _cell = ledger.enter(i as u32);
            cell(i, &inputs, ctx, &probe)
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
    for (i, outcome) in outcomes.iter().enumerate() {
        let gamma = GAMMAS[i];
        let result = outcome
            .result
            .as_ref()
            .filter(|_| outcome.status == CellStatus::Ok);
        round.units.push(Unit {
            due: Duration::ZERO,
            done: round.cell_end(i as u32),
            steps: if result.is_some() { STEPS_PER_CELL } else { 0 },
            converged: result.is_some(),
            digest: result.map_or(0, |r| r.digest),
        });
        let Some(result) = result else {
            round.failures.push(format!(
                "{}: {} {:?}",
                label(gamma),
                outcome.status.as_str(),
                outcome.error
            ));
            continue;
        };
        // `separation`'s expected shape: P[separated] ≈ 0 through the
        // integration window (γ ≤ 81/79, including 81/79 > 1) and ≈ 1 at
        // γ = 8. Twenty samples of one round estimate it roughly, and a
        // cell can linger in a two-cluster state, so the estimate pools
        // every round's samples: each sample is one trial.
        let expected = if gamma <= 81.0 / 79.0 {
            Some(false)
        } else if gamma >= 8.0 {
            Some(true)
        } else {
            None
        };
        if let Some(separated) = expected {
            let bound = if separated { "> 0.8" } else { "< 0.2" };
            let check = format!("{}: P[separated] {bound}", label(gamma));
            for sample in 0..SAMPLES {
                let was_separated = sample < result.separated;
                round
                    .votes
                    .push(Vote::new(check.clone(), was_separated == separated, SHARE));
            }
        }
    }
    round
}
