//! `service`: a batch of jobs into `JobService`, shaped like the
//! `service_soak` bin's default load. Each round, one submitter thread
//! hands 8 tenants × 40 sessions = 320 jobs, interleaved across tenants
//! and all due at the round's start, through `submit_wait` to a service
//! with a queue of capacity 32 (tenant quota 32), so the bounded queue
//! pushes back on it. Like `service_soak`, each job runs 20,000 steps
//! with a checkpoint every 5,000; `service_soak` runs four workers and a
//! toy walk, this runs one worker per core and a real
//! `chain_payload(SeparationChain, …)` session at n = 100, λ = 4, each γ
//! of the `separation` grid on 32 jobs. Every save goes through tmp
//! file, fsync, rename and directory fsync, as do the session manifests
//! the service writes around each job, on an in-memory file system with
//! tmpfs semantics ([`crate::memfs::MemFs`]).
//!
//! It is bound by the worker pool, queueing and admission, with the
//! checkpoint path on every job. Latency runs from a job's due time to
//! when its ticket resolves: the job's payload signals when it returns,
//! and a collector thread then blocks on that ticket. The submitter's
//! own delay under backpressure is reported as the generator's lateness.
//! NOTES.md explains why this is neither the fixed-rate open loop first
//! planned nor on the real disk.

use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_chains::Auditable as _;
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::CancelToken;
use sops_service::{
    chain_payload, JobPayload, JobService, JobSpec, JobTicket, QueueConfig, ServiceConfig,
    TerminalStatus,
};

use crate::round::{digest, measure, mix, repeat_setup, JobTimes, Round, Unit};
use crate::sweep::GAMMAS;
use crate::trace::{Layer, Ledger, Probe, ProbedChain, ProbedState, ProbedVfs, Stamp, NO_CELL};

const TENANTS: usize = 8;
const SESSIONS: usize = 40;
const JOBS: usize = TENANTS * SESSIONS;
const CAPACITY: usize = 32;
const N: usize = 100;
const LAMBDA: f64 = 4.0;
const STEPS: u64 = 20_000;
const EVERY: u64 = 5_000;
/// How long the collector waits for the next event before calling the
/// jobs it has not seen resolve lost.
const COLLECT_LIMIT: Duration = Duration::from_secs(20);

struct JobInput {
    tenant: String,
    session: String,
    gamma: f64,
    seed: u64,
    config: Configuration,
}

fn setup(seed: u64, dir: &Path, probe: &Probe) -> std::io::Result<(JobService, Vec<JobInput>)> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = ServiceConfig {
        workers,
        queue: QueueConfig {
            capacity: CAPACITY,
            tenant_quota: CAPACITY,
            ..QueueConfig::default()
        },
        ..ServiceConfig::default()
    };
    // The disk of a shared host swings several-fold within minutes and
    // would set this workload's figures; `sweep` measures the disk.
    let service = JobService::open_with(dir, cfg, ProbedVfs::in_memory(probe.clone()))?;
    // A fresh root recovers nothing, but start-up pays for the scan.
    service.recover_sessions()?;
    let mut jobs = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let (session, tenant) = (i / TENANTS, i % TENANTS);
        let job_seed = mix(seed, i as u64);
        let mut rng = StdRng::seed_from_u64(job_seed);
        let nodes = construct::hexagonal_spiral(N);
        let config = Configuration::new(construct::bicolor_random(nodes, N / 2, &mut rng))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        jobs.push(JobInput {
            tenant: format!("tenant-{tenant}"),
            session: format!("tenant-{tenant}/s-{session}"),
            gamma: GAMMAS[i % GAMMAS.len()],
            seed: mix(job_seed, 1),
            config,
        });
    }
    Ok((service, jobs))
}

/// What a completed job's `on_done` saw: its digest and whether its
/// final state passed the audit.
type Finals = Arc<Mutex<Vec<Option<(u64, bool)>>>>;

/// What the collector hears about job `i`.
enum Event {
    /// The submitter's verdict.
    Admitted(usize, JobTicket),
    Refused,
    /// The job's payload returned or unwound on a worker.
    Returned(usize),
}

/// Sends [`Event::Returned`] when the payload ends, however it ends.
struct OnReturn {
    job: usize,
    events: Sender<Event>,
}

impl Drop for OnReturn {
    fn drop(&mut self) {
        let _ = self.events.send(Event::Returned(self.job));
    }
}

/// The job's `chain_payload`, inside a closure that marks the worker
/// thread as running unit `i` (the unit's `Cell` span) and tells the
/// collector when it ends.
fn payload(
    i: usize,
    job: JobInput,
    ledger: &Arc<Ledger>,
    probe: &Probe,
    finals: &Finals,
    events: &Sender<Event>,
) -> JobPayload {
    let bias = Bias::new(LAMBDA, job.gamma).expect("valid bias");
    let chain = ProbedChain::new(SeparationChain::new(bias), job.gamma, probe.clone());
    let finals = Arc::clone(finals);
    let inner = chain_payload(
        chain,
        ProbedState::new(job.config, probe.clone()),
        job.seed,
        STEPS,
        EVERY,
        move |state: &ProbedState, rng: &StdRng| {
            let audit_ok = state.config.audit_violations().is_empty();
            finals.lock().expect("finals lock")[i] = Some((digest(&state.config, rng), audit_ok));
        },
    );
    let ledger = Arc::clone(ledger);
    let events = events.clone();
    Box::new(move |ctx| {
        // Dropped in reverse order: the `Cell` span ends, then the
        // collector hears of it.
        let _returned = OnReturn { job: i, events };
        let _cell = ledger.enter(i as u32);
        inner(ctx)
    })
}

/// What the collector saw of one job.
#[derive(Default)]
struct Seen {
    status: Option<TerminalStatus>,
    at: Option<Duration>,
    finish_count: u32,
}

/// The collector: once a job's payload has returned and its ticket is
/// known, blocks on that ticket, which the worker classifies right after
/// the terminal manifest, and records when it resolved. Stops when every
/// job is refused or seen, or when no event came for [`COLLECT_LIMIT`].
fn collect(events: &Receiver<Event>, epoch: Instant, jobs: usize) -> Vec<Seen> {
    let mut seen: Vec<Seen> = (0..jobs).map(|_| Seen::default()).collect();
    let mut tickets: Vec<Option<JobTicket>> = (0..jobs).map(|_| None).collect();
    let mut returned = vec![false; jobs];
    let mut open = jobs;
    while open > 0 {
        let Ok(event) = events.recv_timeout(COLLECT_LIMIT) else {
            break;
        };
        let i = match event {
            Event::Admitted(i, ticket) => {
                tickets[i] = Some(ticket);
                i
            }
            Event::Refused => {
                open -= 1;
                continue;
            }
            Event::Returned(i) => {
                returned[i] = true;
                i
            }
        };
        if let (true, Some(ticket)) = (returned[i], &tickets[i]) {
            let status = ticket.wait_timeout(COLLECT_LIMIT);
            seen[i] = Seen {
                at: status.as_ref().map(|_| epoch.elapsed()),
                status,
                finish_count: ticket.finish_count(),
            };
            tickets[i] = None;
            open -= 1;
        }
    }
    // A job classified without running (or a lost one) never returned.
    for (i, ticket) in tickets.iter().enumerate() {
        if let Some(ticket) = ticket {
            seen[i].status = ticket.status();
            seen[i].finish_count = ticket.finish_count();
        }
    }
    seen
}

/// Sets up and runs one round; `traced` records layer spans.
pub fn round(seed: u64, dir: &Path, traced: bool) -> Round {
    let ledger = Ledger::new();
    let probe: Probe = traced.then(|| ledger.clone());
    let (prepared, setup) = repeat_setup(
        || setup(seed, dir, &probe),
        |(service, _)| {
            service.shutdown(Duration::ZERO);
        },
    );
    let (service, jobs) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => return Round::setup_failed(setup, &e),
    };
    let n = jobs.len();
    let finals: Finals = Arc::new(Mutex::new(vec![None; n]));
    let mut times = Vec::with_capacity(n);
    let mut refused: Vec<Option<String>> = vec![None; n];
    let never = CancelToken::new();

    let epoch = ledger.restart();
    let (seen, wall, cpu) = measure(|| {
        let (events, heard) = mpsc::channel();
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || collect(&heard, epoch, n));
            for (i, job) in jobs.into_iter().enumerate() {
                let (tenant, session) = (job.tenant.clone(), job.session.clone());
                let payload = payload(i, job, &ledger, &probe, &finals, &events);
                let spec = JobSpec::new(&tenant, &session, payload);
                let submitted = epoch.elapsed();
                let start = Stamp::start();
                let admission = service.submit_wait(spec, &never);
                if traced {
                    ledger.record(Layer::Submit, NO_CELL, start, Stamp::end(), 1, 0);
                }
                times.push(JobTimes {
                    due: Duration::ZERO,
                    submitted,
                    queue_depth: service.queue_depth(),
                });
                let event = match admission {
                    Ok(ticket) => Event::Admitted(i, ticket),
                    Err(e) => {
                        refused[i] = Some(e.to_string());
                        Event::Refused
                    }
                };
                events.send(event).expect("collector is running");
            }
            collector.join().expect("collector thread panicked")
        })
    });
    let drain = service.shutdown(Duration::from_secs(10));
    let spans = ledger.take();

    let finals = finals.lock().expect("finals lock").clone();
    let mut round = Round {
        setup,
        wall,
        cpu,
        spans,
        jobs: times,
        ..Round::default()
    };
    round.checks += 1;
    if !drain.drained_clean {
        round
            .failures
            .push(format!("service did not drain clean: {drain:?}"));
    }
    for (i, seen) in seen.iter().enumerate() {
        let completed = matches!(seen.status, Some(TerminalStatus::Completed { .. }));
        let final_state = finals[i].filter(|_| completed);
        round.units.push(Unit {
            due: Duration::ZERO,
            done: seen.at,
            steps: if completed { STEPS } else { 0 },
            converged: completed,
            digest: final_state.map_or(0, |(d, _)| d),
        });
        match (&seen.status, final_state) {
            (None, _) => round.failures.push(match &refused[i] {
                Some(error) => format!("job {i}: not admitted ({error})"),
                None => format!("job {i}: unclassified"),
            }),
            (Some(TerminalStatus::Completed { .. }), Some((_, audit_ok))) => {
                round.checks += 1;
                if !audit_ok || seen.finish_count != 1 {
                    round.failures.push(format!(
                        "job {i}: final audit passed {audit_ok}, classified {} times",
                        seen.finish_count
                    ));
                }
            }
            (Some(status), _) => round.failures.push(format!("job {i}: {}", status.code())),
        }
    }
    round
}
