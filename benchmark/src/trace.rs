//! The benchmark's span ledger and the wrappers that feed it.
//!
//! Every layer is timed from outside, at the boundary where the workload
//! calls into it: a chain wrapper times each `run` burst, a state newtype
//! times `encode_state` and `audit_violations`, a [`Vfs`] wrapper times
//! the store's file operations, and closures and [`StoppingRule`]
//! wrappers time the analysis and convergence calls. Spans stay in
//! memory and are written out when the benchmark ends.
//!
//! A wrapper holds an `Option<Arc<Ledger>>`: `None` (untraced) takes no
//! timestamps at all, so the untraced run executes the same code with
//! only a branch per call added.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng as _};
use sops_chains::{Auditable, MarkovChain, RealVfs, Repairable, StateCodec, StoppingRule, Vfs};
use sops_core::{Configuration, SeparationChain};

use crate::memfs::MemFs;

/// The γ regime a kernel burst ran in: the integration window
/// (γ ≤ 81/79, accept-heavy), the separated side (γ ≥ 2) or between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// γ ≤ 81/79.
    Integrated,
    /// 81/79 < γ < 2.
    Transition,
    /// γ ≥ 2.
    Separated,
}

impl Regime {
    /// Every regime, in report order.
    pub const ALL: [Regime; 3] = [Regime::Integrated, Regime::Transition, Regime::Separated];

    /// The regime of a swap bias γ.
    pub fn of(gamma: f64) -> Regime {
        if gamma <= 81.0 / 79.0 {
            Regime::Integrated
        } else if gamma < 2.0 {
            Regime::Transition
        } else {
            Regime::Separated
        }
    }

    /// The metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Integrated => "integrated",
            Regime::Transition => "transition",
            Regime::Separated => "separated",
        }
    }
}

/// The checkpoint-store file operations the VFS wrapper times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VfsOp {
    Create,
    Write,
    Sync,
    Rename,
    SyncDir,
    Read,
    List,
    Remove,
    CreateDirAll,
}

impl VfsOp {
    pub fn name(self) -> &'static str {
        match self {
            VfsOp::Create => "create",
            VfsOp::Write => "write",
            VfsOp::Sync => "sync",
            VfsOp::Rename => "rename",
            VfsOp::SyncDir => "sync_dir",
            VfsOp::Read => "read",
            VfsOp::List => "list",
            VfsOp::Remove => "remove",
            VfsOp::CreateDirAll => "create_dir_all",
        }
    }
}

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One unit of work: a sweep or adaptive cell, or a service job's
    /// payload. Every other span of the unit is its child.
    Cell,
    /// A `MarkovChain::run` burst of the chain the workload drives
    /// (`count` = steps, `aux` = accepted).
    Kernel(Regime),
    /// A bare-kernel burst on a cloned state, run only when tracing to
    /// price the telemetry wrapper; not part of the workload.
    Shadow(Regime),
    /// `Auditable::audit_violations`.
    Audit,
    /// `StateCodec::encode_state` (`count` = bytes).
    Encode,
    /// One VFS operation.
    Vfs(VfsOp),
    /// An observable sample (perimeter, hetero fraction, separation test).
    Observe,
    /// A phase classification (the adaptive certificate).
    Classify,
    /// One call into stopping rule `rule` of the convergence monitor:
    /// `observe` or, when `observe` is false, `satisfied`.
    Convergence { rule: u8, observe: bool },
    /// One `JobService::submit_wait` call, backpressure included.
    Submit,
}

impl Layer {
    pub fn name(self) -> String {
        match self {
            Layer::Cell => "cell".into(),
            Layer::Kernel(r) => format!("core.kernel.{}", r.name()),
            Layer::Shadow(r) => format!("trace.shadow_kernel.{}", r.name()),
            Layer::Audit => "chains.audit".into(),
            Layer::Encode => "chains.checkpoint.encode".into(),
            Layer::Vfs(op) => format!("chains.vfs.{}", op.name()),
            Layer::Observe => "analysis.observe".into(),
            Layer::Classify => "analysis.classify".into(),
            Layer::Convergence { rule, observe } => format!(
                "chains.convergence.rule{rule}.{}",
                if observe { "observe" } else { "satisfied" }
            ),
            Layer::Submit => "service.submit".into(),
        }
    }
}

/// CPU time this thread has run, in ns, or 0 where the clock is
/// unavailable. Spans record it beside wall time: a span's wall time
/// includes the time its thread sat descheduled, which in an
/// oversubscribed sweep is most of it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on
    // Linux), `ts` is a live, writable `timespec` with the 64-bit layout
    // the cfg above selects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    0
}

/// A wall-clock and thread-CPU timestamp.
///
/// Reading the CPU clock is a system call, and a thread whose time slice
/// ran out is switched away on its way back from one; the clocks are read
/// in the order that leaves such a wait outside the span's wall time.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    wall: Instant,
    cpu: u64,
}

impl Stamp {
    /// A span's start: CPU clock, then wall clock.
    pub fn start() -> Stamp {
        let cpu = thread_cpu_ns();
        Stamp {
            wall: Instant::now(),
            cpu,
        }
    }

    /// A span's end: wall clock, then CPU clock.
    pub fn end() -> Stamp {
        let wall = Instant::now();
        Stamp {
            wall,
            cpu: thread_cpu_ns(),
        }
    }
}

/// Cell id of spans recorded outside any unit (service manifest writes,
/// submissions).
pub const NO_CELL: u32 = u32::MAX;

/// A span not yet placed on its ledger's clock.
struct RawSpan {
    layer: Layer,
    cell: u32,
    start: Stamp,
    end: Stamp,
    count: u64,
    aux: u64,
}

/// The unit this thread is working for, and the spans it recorded for
/// that unit. They reach the ledger in one batch when the unit ends:
/// taking the ledger's lock per span lets a preempted lock holder stall
/// every other unit, and that stall would land between spans as
/// unattributed time.
struct ThreadUnit {
    cell: u32,
    pending: Vec<RawSpan>,
}

thread_local! {
    static UNIT: RefCell<ThreadUnit> = const {
        RefCell::new(ThreadUnit {
            cell: NO_CELL,
            pending: Vec::new(),
        })
    };
}

/// One recorded interval. Times are nanoseconds since the ledger's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// The unit whose work caused the span ([`NO_CELL`] outside units).
    pub cell: u32,
    pub start: u64,
    pub end: u64,
    /// Thread CPU time spent inside the span, in ns.
    pub cpu: u64,
    pub count: u64,
    pub aux: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span store of one round.
pub struct Ledger {
    inner: Mutex<LedgerInner>,
}

struct LedgerInner {
    epoch: Instant,
    spans: Vec<Span>,
}

impl LedgerInner {
    fn push(&mut self, raw: &RawSpan) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            layer: raw.layer,
            cell: raw.cell,
            start: at(raw.start.wall),
            end: at(raw.end.wall),
            cpu: raw.end.cpu.saturating_sub(raw.start.cpu),
            count: raw.count,
            aux: raw.aux,
        };
        self.spans.push(span);
    }
}

impl Ledger {
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            inner: Mutex::new(LedgerInner {
                epoch: Instant::now(),
                spans: Vec::new(),
            }),
        })
    }

    // A push leaves the ledger valid at every step, so a lock poisoned by
    // a panicking unit is safe to keep using (and the drop guard below
    // must not panic).
    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts the round's clock now and drops the spans recorded during
    /// set-up. Returns the new epoch.
    pub fn restart(&self) -> Instant {
        let mut inner = self.lock();
        inner.epoch = Instant::now();
        inner.spans.clear();
        inner.epoch
    }

    /// Records a span; inside a unit it waits on the thread until the
    /// unit ends.
    pub fn record(&self, layer: Layer, cell: u32, start: Stamp, end: Stamp, count: u64, aux: u64) {
        let raw = RawSpan {
            layer,
            cell,
            start,
            end,
            count,
            aux,
        };
        let raw = UNIT.with(|unit| {
            let mut unit = unit.borrow_mut();
            if unit.cell == NO_CELL {
                Some(raw)
            } else {
                unit.pending.push(raw);
                None
            }
        });
        if let Some(raw) = raw {
            self.lock().push(&raw);
        }
    }

    /// Records a span, ending now, for the unit running on this thread.
    pub fn record_here(&self, layer: Layer, start: Stamp, count: u64, aux: u64) {
        let end = Stamp::end();
        let cell = UNIT.with(|unit| unit.borrow().cell);
        self.record(layer, cell, start, end, count, aux);
    }

    /// Marks this thread as working for `cell` until the guard drops;
    /// the guard records the unit's [`Layer::Cell`] span and hands the
    /// unit's spans to the ledger.
    pub fn enter(self: &Arc<Self>, cell: u32) -> CellGuard {
        UNIT.with(|unit| unit.borrow_mut().cell = cell);
        CellGuard {
            ledger: Arc::clone(self),
            cell,
            start: Stamp::start(),
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Records a unit's [`Layer::Cell`] span when dropped.
pub struct CellGuard {
    ledger: Arc<Ledger>,
    cell: u32,
    start: Stamp,
}

impl Drop for CellGuard {
    fn drop(&mut self) {
        let end = Stamp::end();
        let pending = UNIT
            .try_with(|unit| {
                unit.try_borrow_mut().map_or_else(
                    |_| Vec::new(),
                    |mut unit| {
                        unit.cell = NO_CELL;
                        std::mem::take(&mut unit.pending)
                    },
                )
            })
            .unwrap_or_default();
        let mut inner = self.ledger.lock();
        for raw in &pending {
            inner.push(raw);
        }
        inner.push(&RawSpan {
            layer: Layer::Cell,
            cell: self.cell,
            start: self.start,
            end,
            count: 0,
            aux: 0,
        });
    }
}

/// A wrapper's handle on the ledger: `Some` only in traced rounds.
pub type Probe = Option<Arc<Ledger>>;

/// Runs `f`, recording a span for it when traced.
pub fn timed<T>(probe: &Probe, layer: Layer, count: u64, f: impl FnOnce() -> T) -> T {
    match probe {
        None => f(),
        Some(ledger) => {
            let start = Stamp::start();
            let out = f();
            ledger.record_here(layer, start, count, 0);
            out
        }
    }
}

/// A shadow burst runs this share of its real burst's steps.
const SHADOW_DIVISOR: u64 = 16;

/// Times each `run` burst of the chain a workload drives. The state is
/// [`ProbedState`], so the checkpoint and audit layers are timed too.
///
/// With a `shadow` kernel (the bare chain inside an `Instrumented` one),
/// a traced burst is followed by a bare burst a sixteenth as long on
/// a cloned state with its own RNG: the difference prices the telemetry
/// wrapper without touching the workload's state or random stream.
pub struct ProbedChain<C> {
    inner: C,
    regime: Regime,
    shadow: Option<SeparationChain>,
    probe: Probe,
}

impl<C: MarkovChain<State = Configuration>> ProbedChain<C> {
    pub fn new(inner: C, gamma: f64, probe: Probe) -> Self {
        ProbedChain {
            inner,
            regime: Regime::of(gamma),
            shadow: None,
            probe,
        }
    }

    pub fn with_shadow(mut self, bare: SeparationChain) -> Self {
        self.shadow = Some(bare);
        self
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: MarkovChain<State = Configuration>> MarkovChain for ProbedChain<C> {
    type State = ProbedState;

    fn step<R: Rng + ?Sized>(&self, state: &mut ProbedState, rng: &mut R) -> bool {
        self.inner.step(&mut state.config, rng)
    }

    fn run<R: Rng + ?Sized>(&self, state: &mut ProbedState, steps: u64, rng: &mut R) -> u64 {
        let Some(ledger) = &self.probe else {
            return self.inner.run(&mut state.config, steps, rng);
        };
        let start = Stamp::start();
        let accepted = self.inner.run(&mut state.config, steps, rng);
        ledger.record_here(Layer::Kernel(self.regime), start, steps, accepted);
        if let Some(bare) = &self.shadow {
            let shadow_steps = (steps / SHADOW_DIVISOR).max(1);
            let mut copy = state.config.clone();
            let mut shadow_rng = StdRng::seed_from_u64(steps ^ accepted);
            let start = Stamp::start();
            let accepted = bare.run(&mut copy, shadow_steps, &mut shadow_rng);
            ledger.record_here(Layer::Shadow(self.regime), start, shadow_steps, accepted);
        }
        accepted
    }
}

/// A configuration whose codec and audit calls are timed.
#[derive(Clone)]
pub struct ProbedState {
    pub config: Configuration,
    pub probe: Probe,
}

impl ProbedState {
    pub fn new(config: Configuration, probe: Probe) -> Self {
        ProbedState { config, probe }
    }
}

impl StateCodec for ProbedState {
    fn encode_state(&self) -> Vec<u8> {
        let Some(ledger) = &self.probe else {
            return self.config.encode_state();
        };
        let start = Stamp::start();
        let bytes = self.config.encode_state();
        ledger.record_here(Layer::Encode, start, bytes.len() as u64, 0);
        bytes
    }

    /// Decoded states are untraced: decoding happens only on resume or
    /// rollback, which the workloads never trigger.
    fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        Configuration::decode_state(bytes).map(|config| ProbedState::new(config, None))
    }
}

impl Auditable for ProbedState {
    fn audit_violations(&self) -> Vec<String> {
        timed(&self.probe, Layer::Audit, 1, || {
            self.config.audit_violations()
        })
    }
}

impl Repairable for ProbedState {
    fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
        self.config.repair_state()
    }
}

/// A [`Vfs`] with every operation timed.
pub struct ProbedVfs {
    inner: Arc<dyn Vfs>,
    probe: Probe,
}

impl ProbedVfs {
    /// The real file system ([`RealVfs`]).
    pub fn real(probe: Probe) -> Arc<dyn Vfs> {
        Arc::new(ProbedVfs {
            inner: Arc::new(RealVfs),
            probe,
        })
    }

    /// A fresh in-memory file system with tmpfs semantics ([`MemFs`]),
    /// so nothing reaches a disk.
    pub fn in_memory(probe: Probe) -> Arc<dyn Vfs> {
        Arc::new(ProbedVfs {
            inner: Arc::new(MemFs::default()),
            probe,
        })
    }

    fn op<T>(&self, op: VfsOp, bytes: usize, f: impl FnOnce(&dyn Vfs) -> T) -> T {
        timed(
            &self.probe,
            Layer::Vfs(op),
            bytes as u64,
            || f(&*self.inner),
        )
    }
}

impl Vfs for ProbedVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.op(VfsOp::Create, 0, |vfs| vfs.create(path))
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.op(VfsOp::Write, data.len(), |vfs| vfs.write(path, data))
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.op(VfsOp::Sync, 0, |vfs| vfs.sync(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op(VfsOp::Rename, 0, |vfs| vfs.rename(from, to))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.op(VfsOp::SyncDir, 0, |vfs| vfs.sync_dir(dir))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op(VfsOp::Read, 0, |vfs| vfs.read(path))
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.op(VfsOp::List, 0, |vfs| vfs.list(dir))
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op(VfsOp::Remove, 0, |vfs| vfs.remove(path))
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op(VfsOp::CreateDirAll, 0, |vfs| vfs.create_dir_all(dir))
    }
}

/// A stopping rule whose `observe` and `satisfied` calls are timed.
pub struct ProbedRule {
    inner: Box<dyn StoppingRule + Send>,
    rule: u8,
    probe: Probe,
}

impl ProbedRule {
    pub fn boxed(
        inner: Box<dyn StoppingRule + Send>,
        rule: u8,
        probe: &Probe,
    ) -> Box<dyn StoppingRule + Send> {
        Box::new(ProbedRule {
            inner,
            rule,
            probe: probe.clone(),
        })
    }
}

impl StoppingRule for ProbedRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn observe(&mut self, step: u64, value: f64, certified: bool) {
        let ProbedRule { inner, rule, probe } = self;
        let layer = Layer::Convergence {
            rule: *rule,
            observe: true,
        };
        timed(probe, layer, 1, || inner.observe(step, value, certified));
    }
    fn satisfied(&self) -> bool {
        let layer = Layer::Convergence {
            rule: self.rule,
            observe: false,
        };
        timed(&self.probe, layer, 1, || self.inner.satisfied())
    }
    fn diagnostics(&self, out: &mut Vec<(String, f64)>) {
        self.inner.diagnostics(out);
    }
    fn encode_state(&self) -> Vec<u8> {
        self.inner.encode_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}
