//! The run's host-and-build line, its JSON output and the record it
//! leaves under `.bench_out/`.

use std::fmt::{self, Write as _};
use std::path::Path;

use crate::metrics::Metric;
use crate::round::Round;
use crate::stats::{self, Tail};
use crate::trace;
use crate::Args;

/// The host and build every result is recorded with.
pub struct Host {
    cores: usize,
    cpu_model: String,
    caches: String,
    rustc: &'static str,
    commit: String,
    cpu_time_source: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut caches = Vec::new();
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string())
            };
            if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
                let kind = match kind.as_str() {
                    "Data" => "d",
                    "Instruction" => "i",
                    _ => "",
                };
                caches.push(format!("L{level}{kind} {size}"));
            }
        }
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            caches: if caches.is_empty() {
                "unknown".into()
            } else {
                caches.join(", ")
            },
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: git_commit(Path::new(".git")),
            cpu_time_source: stats::cpu_time().map_or("unavailable", |(_, s)| s.name()),
        }
    }

    /// `available_parallelism`.
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"caches\": {}, \"rustc\": {}, \
             \"git_commit\": {}, \"cpu_time_source\": {}}}",
            self.cores,
            json_str(&self.cpu_model),
            json_str(&self.caches),
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(self.cpu_time_source),
        )
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "available_parallelism {}, cpu {}, caches [{}], {}, commit {}, cpu time from {}",
            self.cores, self.cpu_model, self.caches, self.rustc, self.commit, self.cpu_time_source
        )
    }
}

/// The commit checked out at `git_dir`, read without running git.
fn git_commit(git_dir: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git_dir.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git_dir.join(reference))
        .or_else(|| {
            read(&git_dir.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: the JSON object the benchmark ends its output with.
pub fn summary_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        fields.join(", ")
    )
}

/// Writes the run's record (host, build, result, latency tail) and, for
/// a traced run, its spans, under `.bench_out/`.
pub fn write_record(
    args: &Args,
    host: &Host,
    summary: &str,
    tail: Option<Tail>,
    traced: &[Round],
) -> std::io::Result<()> {
    let out = Path::new(".bench_out");
    std::fs::create_dir_all(out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let tail = tail.map_or_else(
        || "null".to_string(),
        |t| {
            format!(
                "{{\"percentile\": {}, \"samples\": {}, \"beyond\": {}, \"rounds\": {}}}",
                t.pct,
                t.samples,
                t.beyond,
                t.rounds
                    .map_or_else(|| "null".to_string(), |r| r.to_string())
            )
        },
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"job_latency_tail\": {tail}, \"result\": {summary}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        host.json(),
    );
    std::fs::write(out.join(format!("{stem}.json")), record)?;
    if args.trace {
        let mut lines = String::new();
        for (r, round) in traced.iter().enumerate() {
            for s in &round.spans {
                let cell = match s.cell {
                    trace::NO_CELL => "null".to_string(),
                    cell => cell.to_string(),
                };
                let _ = writeln!(
                    lines,
                    "{{\"round\": {r}, \"layer\": {}, \"cell\": {cell}, \"start_ns\": {}, \
                     \"end_ns\": {}, \"cpu_ns\": {}, \"count\": {}, \"aux\": {}}}",
                    json_str(&s.layer.name()),
                    s.start,
                    s.end,
                    s.cpu,
                    s.count,
                    s.aux
                );
            }
        }
        std::fs::write(out.join(format!("{stem}.spans.jsonl")), lines)?;
    }
    Ok(())
}
