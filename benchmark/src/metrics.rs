//! Turns rounds into the reported metrics: end-to-end figures from the
//! untraced rounds, per-layer figures from the traced ones.

use crate::round::Round;
use crate::stats::{median, round_tail, tail, unattributed_frac, Tail};
use crate::trace::{Layer, Regime, Span, VfsOp};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
            unit,
        });
    }
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// Every unit's latency in ms: from when it was due to when its result
/// was seen. Units that never finished are left out; they count as
/// failures.
fn latencies_ms(round: &Round) -> Vec<f64> {
    round
        .units
        .iter()
        .filter_map(|u| Some(secs(u.done?.saturating_sub(u.due)) * 1e3))
        .collect()
}

/// The end-to-end metrics of the untraced rounds, and the tail the
/// latency tail was taken at.
pub fn end_to_end(rounds: &[Round]) -> (Vec<Metric>, Option<Tail>) {
    let per_round = |f: &dyn Fn(&Round) -> Option<f64>| {
        median(&rounds.iter().filter_map(f).collect::<Vec<_>>())
    };
    let units: Vec<_> = rounds.iter().flat_map(|r| &r.units).collect();
    let attempted: u64 = rounds.iter().map(Round::attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failures.len() as u64).sum();
    let round_latencies: Vec<Vec<f64>> = rounds.iter().map(latencies_ms).collect();
    let latencies = round_latencies.concat();
    let latency_tail = round_tail(&round_latencies).or_else(|| tail(&latencies));

    let mut m = Sheet(Vec::new());
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup.iter().copied().map(secs))
        .collect();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", per_round(&|r| Some(secs(r.wall))), "s");
    m.put("cpu_s", per_round(&|r| r.cpu.map(secs)), "s");
    m.put(
        "ok_frac",
        (attempted > 0).then(|| 1.0 - failed as f64 / attempted as f64),
        "fraction",
    );
    m.put(
        "steps_per_s",
        per_round(&|r| Some(r.units.iter().map(|u| u.steps).sum::<u64>() as f64 / secs(r.wall))),
        "1/s",
    );
    m.put(
        "cell_done_p50_s",
        per_round(&|r| {
            median(
                &r.units
                    .iter()
                    .filter_map(|u| u.done.map(secs))
                    .collect::<Vec<_>>(),
            )
        }),
        "s",
    );
    m.put(
        "converged_frac",
        (!units.is_empty())
            .then(|| units.iter().filter(|u| u.converged).count() as f64 / units.len() as f64),
        "fraction",
    );
    m.put(
        "jobs_per_s",
        per_round(&|r| {
            Some(r.units.iter().filter(|u| u.done.is_some()).count() as f64 / secs(r.wall))
        }),
        "1/s",
    );
    m.put("job_latency_p50_ms", median(&latencies), "ms");
    m.put("job_latency_tail_ms", latency_tail.map(|t| t.value), "ms");
    (m.0, latency_tail)
}

/// Sums over spans.
#[derive(Default)]
struct Totals {
    /// Wall time.
    ns: u64,
    /// Thread CPU time.
    cpu: u64,
    /// [`busy`] time.
    busy: u64,
    count: u64,
    aux: u64,
    calls: u64,
}

fn totals<'a>(spans: impl Iterator<Item = &'a Span>) -> Totals {
    spans.fold(Totals::default(), |t, s| Totals {
        ns: t.ns + s.ns(),
        cpu: t.cpu + s.cpu,
        busy: t.busy + busy(s),
        count: t.count + s.count,
        aux: t.aux + s.aux,
        calls: t.calls + 1,
    })
}

/// The time a span kept its unit busy: blocked in the file system for a
/// VFS call, on a CPU for everything else. Wall time would also count
/// the time a thread waited for a core, which in an oversubscribed sweep
/// is most of it, and lands wherever the scheduler happened to switch.
fn busy(span: &Span) -> u64 {
    match span.layer {
        Layer::Vfs(_) => span.ns(),
        _ => span.cpu,
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Spans of one traced round, with the round they came from.
fn spans_of(rounds: &[Round]) -> impl Iterator<Item = (&Round, &Span)> + Clone {
    rounds
        .iter()
        .flat_map(|r| r.spans.iter().map(move |s| (r, s)))
}

/// The per-layer metrics of the traced rounds. `untraced` are the
/// untraced rounds run on the same inputs, for the tracing overhead;
/// `cores` is `available_parallelism`.
#[allow(clippy::too_many_lines)]
pub fn per_layer(untraced: &[Round], traced: &[Round], cores: usize) -> Vec<Metric> {
    let rounds = traced.len().max(1) as f64;
    let all = spans_of(traced);
    let of = |pred: &dyn Fn(&Span) -> bool| totals(all.clone().map(|(_, s)| s).filter(|s| pred(s)));
    let in_cell = |s: &Span| s.cell != crate::trace::NO_CELL;
    let cells = of(&|s| s.layer == Layer::Cell);
    let shadow = of(&|s| matches!(s.layer, Layer::Shadow(_)));
    let vfs = of(&|s| matches!(s.layer, Layer::Vfs(_)) && in_cell(s));
    // A unit is busy on a CPU or blocked in a VFS call. Shadow bursts run
    // inside units but are not the workload's work.
    let cell_busy = (cells.cpu + vfs.ns)
        .saturating_sub(vfs.cpu)
        .saturating_sub(shadow.cpu);

    let mut m = Sheet(Vec::new());

    // Kernel, per regime: bare CPU cost per step from the shadow bursts
    // where the chain is instrumented, from the bursts themselves where
    // it is bare; acceptance from the bursts the workload ran.
    let mut kernel_cpu = 0;
    let mut kernel_bare_cpu = 0.0;
    let mut kernel_steps = 0;
    let mut rates = Vec::new();
    for regime in Regime::ALL {
        let run = of(&|s| s.layer == Layer::Kernel(regime));
        let bare = of(&|s| s.layer == Layer::Shadow(regime));
        let ns_per_step = if bare.count > 0 {
            ratio(bare.cpu as f64, bare.count as f64)
        } else {
            ratio(run.cpu as f64, run.count as f64)
        };
        kernel_cpu += run.cpu;
        kernel_bare_cpu += ns_per_step.unwrap_or(0.0) * run.count as f64;
        kernel_steps += run.count;
        rates.push((regime, ns_per_step, ratio(run.aux as f64, run.count as f64)));
    }
    for (regime, ns_per_step, _) in &rates {
        m.put(
            format!("core.kernel.ns_per_step.{}", regime.name()),
            *ns_per_step,
            "ns",
        );
    }
    for (regime, _, accept) in &rates {
        m.put(
            format!("core.kernel.accept_frac.{}", regime.name()),
            *accept,
            "fraction",
        );
    }
    // The bare kernel's share of the bursts; the rest is the telemetry
    // wrapper's.
    m.put(
        "core.kernel.busy_frac",
        ratio(kernel_bare_cpu.min(kernel_cpu as f64), cell_busy as f64),
        "fraction",
    );
    let telemetry_ns = if shadow.calls > 0 {
        ratio(kernel_cpu as f64 - kernel_bare_cpu, kernel_steps as f64)
    } else {
        Some(0.0) // the workload's chain is bare
    };
    m.put("chains.telemetry.ns_per_step", telemetry_ns, "ns");

    let audit = of(&|s| s.layer == Layer::Audit);
    m.put(
        "chains.audit.us_per_call",
        ratio(audit.cpu as f64 / 1e3, audit.calls as f64),
        "us",
    );
    m.put(
        "chains.audit.calls",
        Some(audit.calls as f64 / rounds),
        "count/round",
    );

    let encode = of(&|s| s.layer == Layer::Encode);
    m.put(
        "chains.checkpoint.encode_us",
        ratio(encode.cpu as f64 / 1e3, encode.calls as f64),
        "us",
    );
    m.put(
        "chains.checkpoint.bytes",
        ratio(encode.count as f64, encode.calls as f64),
        "bytes",
    );

    for op in [VfsOp::Write, VfsOp::Sync, VfsOp::Rename, VfsOp::SyncDir] {
        let us: Vec<f64> = all
            .clone()
            .filter(|(_, s)| s.layer == Layer::Vfs(op))
            .map(|(_, s)| s.ns() as f64 / 1e3)
            .collect();
        m.put(
            format!("chains.vfs.{}_us_p50", op.name()),
            median(&us),
            "us",
        );
        m.put(
            format!("chains.vfs.{}_count", op.name()),
            Some(us.len() as f64 / rounds),
            "count/round",
        );
    }
    m.put(
        "chains.vfs.busy_frac",
        ratio(vfs.busy as f64, cell_busy as f64),
        "fraction",
    );

    let convergence = of(&|s| matches!(s.layer, Layer::Convergence { .. }));
    let checks = of(&|s| {
        s.layer
            == (Layer::Convergence {
                rule: 0,
                observe: true,
            })
    })
    .calls;
    m.put(
        "chains.convergence.us_per_check",
        ratio(convergence.cpu as f64 / 1e3, checks as f64),
        "us",
    );
    m.put(
        "chains.convergence.checks",
        Some(checks as f64 / rounds),
        "count/round",
    );

    let observe = of(&|s| s.layer == Layer::Observe);
    let classify = of(&|s| s.layer == Layer::Classify);
    m.put(
        "analysis.observe.us_per_call",
        ratio(observe.cpu as f64 / 1e3, observe.calls as f64),
        "us",
    );
    m.put(
        "analysis.classify.us_per_call",
        ratio(classify.cpu as f64 / 1e3, classify.calls as f64),
        "us",
    );
    m.put(
        "analysis.classify.calls",
        Some(classify.calls as f64 / rounds),
        "count/round",
    );
    m.put(
        "analysis.busy_frac",
        ratio((observe.busy + classify.busy) as f64, cell_busy as f64),
        "fraction",
    );

    // Runtime: how long each unit waited to start, how many ran at once,
    // and the wall time between a cell's chunk boundaries.
    let cell_spans: Vec<(&Round, &Span)> = all
        .clone()
        .filter(|(_, s)| s.layer == Layer::Cell)
        .collect();
    let start_wait_ms: Vec<f64> = cell_spans
        .iter()
        .filter_map(|(r, s)| {
            let due = r.units.get(s.cell as usize)?.due.as_nanos() as f64;
            Some((s.start as f64 - due).max(0.0) / 1e6)
        })
        .collect();
    m.put(
        "runtime.cell_start_wait_ms_p50",
        median(&start_wait_ms),
        "ms",
    );
    m.put(
        "runtime.cell_start_wait_ms_max",
        start_wait_ms.iter().copied().reduce(f64::max),
        "ms",
    );
    let live: Vec<f64> = traced
        .iter()
        .filter_map(|r| {
            let cells: Vec<&Span> = r.spans.iter().filter(|s| s.layer == Layer::Cell).collect();
            let first = cells.iter().map(|s| s.start).min()?;
            let last = cells.iter().map(|s| s.end).max()?;
            let busy: u64 = cells.iter().map(|s| s.ns()).sum();
            ratio(busy as f64, (last - first) as f64)
        })
        .collect();
    m.put(
        "runtime.oversubscription",
        median(&live).map(|l| l / cores.max(1) as f64),
        "ratio",
    );
    let mut chunk_ms = Vec::new();
    for round in traced {
        let mut ends: Vec<(u32, u64)> = round
            .spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::Kernel(_)))
            .map(|s| (s.cell, s.end))
            .collect();
        ends.sort_unstable();
        chunk_ms.extend(
            ends.windows(2)
                .filter(|w| w[0].0 == w[1].0)
                .map(|w| (w[1].1 - w[0].1) as f64 / 1e6),
        );
    }
    m.put("runtime.chunk_ms", median(&chunk_ms), "ms");

    // Service: the submission side from the submitter's timestamps, the
    // execution side from each payload's `Cell` span.
    let submit = of(&|s| s.layer == Layer::Submit);
    m.put(
        "service.submit_us",
        ratio(submit.cpu as f64 / 1e3, submit.calls as f64),
        "us",
    );
    let mut queue_wait_ms = Vec::new();
    let mut finish_lag_ms = Vec::new();
    let mut run_ms = Vec::new();
    for (round, span) in cell_spans.iter().filter(|(r, _)| !r.jobs.is_empty()) {
        let i = span.cell as usize;
        run_ms.push(span.ns() as f64 / 1e6);
        if let Some(job) = round.jobs.get(i) {
            queue_wait_ms.push((span.start as f64 - job.submitted.as_nanos() as f64) / 1e6);
        }
        if let Some(done) = round.units.get(i).and_then(|u| u.done) {
            finish_lag_ms.push((done.as_nanos() as f64 - span.end as f64) / 1e6);
        }
    }
    m.put("service.queue_wait_ms_p50", median(&queue_wait_ms), "ms");
    m.put(
        "service.queue_wait_ms_tail",
        tail(&queue_wait_ms).map(|t| t.value),
        "ms",
    );
    m.put("service.run_ms_p50", median(&run_ms), "ms");
    m.put("service.finish_lag_ms_p50", median(&finish_lag_ms), "ms");
    let jobs: Vec<_> = traced.iter().flat_map(|r| &r.jobs).collect();
    m.put(
        "service.queue_depth_p50",
        median(
            &jobs
                .iter()
                .map(|j| j.queue_depth as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    m.put(
        "service.generator_late_ms_max",
        jobs.iter()
            .map(|j| secs(j.submitted.saturating_sub(j.due)) * 1e3)
            .reduce(f64::max),
        "ms",
    );

    // The ledger: what share of cell time no layer span covers, and what
    // tracing cost.
    let layers = of(&|s| {
        in_cell(s)
            && matches!(
                s.layer,
                Layer::Kernel(_)
                    | Layer::Audit
                    | Layer::Encode
                    | Layer::Vfs(_)
                    | Layer::Observe
                    | Layer::Classify
                    | Layer::Convergence { .. }
            )
    });
    m.put(
        "unattributed_frac",
        unattributed_frac(cell_busy, &[layers.busy]),
        "fraction",
    );
    let wall = |rs: &[Round]| median(&rs.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    m.put(
        "trace.overhead_frac",
        wall(traced)
            .zip(wall(untraced))
            .and_then(|(t, u)| ratio(t, u))
            .map(|r| r - 1.0),
        "fraction",
    );
    m.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one metric array of
    /// `BENCHMARK.json`, in order.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let field = |entry: &str, key: &str| {
            let key = format!("\"{key}\": \"");
            let start = entry.find(&key).expect("field present") + key.len();
            entry[start..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        let body = &json[json
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let array = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        array
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(emitted(&end_to_end(&[]).0), declared(&json, "end_to_end"));
        assert_eq!(
            emitted(&per_layer(&[], &[], 2)),
            declared(&json, "per_layer")
        );
    }

    #[test]
    fn empty_input_reports_zeros_not_nan() {
        let all = end_to_end(&[]).0.into_iter().chain(per_layer(&[], &[], 2));
        for m in all {
            assert!(m.value == 0.0, "{} = {}", m.name, m.value);
        }
    }
}
