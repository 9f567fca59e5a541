//! The long-running engine service: bounded admission in front of a fixed
//! number of execution slots, with graceful drain.
//!
//! [`Engine::run`](crate::Engine::run) is a one-shot fan-out: it owns its
//! workers for the duration of one batch and returns when the whole corpus
//! is done. A serving front end (see the `rlc-serve` crate) instead needs
//! jobs to arrive one at a time, forever, from many producers — which
//! raises two problems `run` never has:
//!
//! * **Overload.** Producers can outrun the engine. An unbounded queue
//!   turns that into unbounded memory and unbounded latency;
//!   [`EngineService`] instead bounds *outstanding* work (waiting +
//!   executing) and rejects at admission with a typed
//!   [`EngineError::Overloaded`].
//! * **Shutdown.** A service must stop without dropping accepted work.
//!   [`EngineService::drain`] stops admission (late submissions get
//!   [`EngineError::ShuttingDown`]) and waits until every accepted job has
//!   delivered its result; [`EngineService::shutdown`] additionally joins
//!   the pool threads and returns the final [`ServiceStats`].
//!
//! # Two ways in, one execution body
//!
//! * **Caller-runs** ([`call_spec`](EngineService::call_spec) and its
//!   couple/synth siblings): the job runs on the calling thread. A caller
//!   that must wait for its answer anyway gains nothing from handing the
//!   job to another thread — the handoff would cost two sleep/wake pairs
//!   for work that often takes a microsecond. This is the path `rlc-serve`
//!   uses for every engine verb.
//! * **Submit** ([`submit_spec`](EngineService::submit_spec) and its
//!   siblings): the job is queued for a pool of worker threads and its
//!   result comes back through a per-job [`JobTicket`], so concurrent
//!   submitters never contend on a shared report. The pool is started by
//!   the first submission; a service used only through the caller path
//!   never spawns a thread.
//!
//! Both paths share one admission policy, one set of counters and
//! histograms, and the same `workers` execution slots: at most `workers`
//! jobs execute at once, whichever path admitted them. A caller that finds
//! every slot busy waits for one, and that wait is its
//! [`JobTiming::queue_ns`] — exactly as a queued job's wait for a worker
//! is. Deadlines, holds, telemetry and delivery run in one function for
//! both paths.
//!
//! # Examples
//!
//! ```
//! use rlc_engine::{EngineService, JobSpec, ServiceConfig};
//!
//! let service = EngineService::start(ServiceConfig {
//!     workers: 2,
//!     capacity: 8,
//!     ..ServiceConfig::default()
//! });
//! // Runs on this thread; the outer `Result` is the admission verdict.
//! let (result, _timing) = service
//!     .call_spec(JobSpec::deck("line", "R1 in n1 25\nC1 n1 0 0.5p\n"))
//!     .expect("service has room");
//! assert_eq!(result.expect("analyzes fine").sections, 1);
//! // Queued for the pool; redeem the ticket later.
//! let ticket = service
//!     .submit("line", "R1 in n1 25\nC1 n1 0 0.5p\n")
//!     .expect("queue has room");
//! let timing = ticket.wait().expect("analyzes fine");
//! assert_eq!(timing.sections, 1);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 2);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

// Under `--cfg loom` the admission-slot protocol routes its primitives
// through the `loom` crate so `tests/loom_service.rs` can model-check the
// submit/call/drain/shutdown handoff (see that test and `vendor/loom`).
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::mpsc;
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(loom)]
use loom::thread;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::mpsc;
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::thread;

use rlc_couple::{CoupleScratch, GroupTiming};
use rlc_obs::{Histogram, HistogramSnapshot, TimeSource};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::synth::SynthDeck;
use rlc_tree::RlcTree;

use rlc_synth::{SynthConfig, SynthTiming};

use crate::batch::{analyze_one, NetScratch, NetSource, NetTiming, TimingModel};
use crate::couple::{analyze_one_couple, CoupleSource};
use crate::synth::{optimize_one, SynthSource};
use crate::EngineError;

/// Sizing of an [`EngineService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Execution slots: the most jobs that run at once, on either path
    /// (and the pool size once a submission starts the pool); `0` sizes
    /// to `std::thread::available_parallelism`.
    pub workers: usize,
    /// Bound on *outstanding* jobs — waiting plus executing. Admission
    /// counts a job from `submit`/`call` until its result is delivered, so
    /// the bound is independent of how fast slots free up (and overload
    /// behaviour is deterministic for any worker count).
    pub capacity: usize,
    /// Reported-duration source for the service's always-on telemetry.
    /// [`TimeSource::Wall`] in production; [`TimeSource::Logical`] makes
    /// the latency histograms byte-deterministic for a given job sequence
    /// at any worker count (DESIGN.md §13).
    pub time: TimeSource,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            capacity: 64,
            time: TimeSource::Wall,
        }
    }
}

/// Raw per-job wall timings, delivered alongside every result. These are
/// *unquantized* nanoseconds for flight-recorder use; the service's own
/// histograms (see [`EngineService::telemetry`]) apply the configured
/// [`TimeSource`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Admission to the start of execution — a worker's pickup, or the
    /// caller getting a free slot — raw wall nanoseconds.
    pub queue_ns: u64,
    /// Start of execution to result delivery (including any injected
    /// hold), raw wall nanoseconds.
    pub exec_ns: u64,
    /// Outstanding jobs (waiting + executing) at admission, this job
    /// included. Counted at admission rather than at the start of
    /// execution, so the value does not depend on how quickly slots free.
    pub depth: u64,
}

/// Always-on service telemetry: latency and depth histograms recorded by
/// the admission path and the execution body.
#[derive(Debug)]
struct ServiceTelemetry {
    time: TimeSource,
    queue_wait: Histogram,
    exec: Histogram,
    depth: Histogram,
}

/// A point-in-time copy of the service histograms (already quantized by
/// the configured [`TimeSource`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetrySnapshot {
    /// Admission-to-execution wait per job, nanoseconds.
    pub queue_wait: HistogramSnapshot,
    /// Execution-to-delivery time per job, nanoseconds.
    pub exec: HistogramSnapshot,
    /// Outstanding jobs observed at each admission (unitless).
    pub depth: HistogramSnapshot,
}

/// What one job analyzes, and under which policy knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    name: String,
    source: NetSource,
    model: TimingModel,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl JobSpec {
    /// A job that parses and analyzes a netlist deck.
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: NetSource::Deck(deck.into()),
            model: TimingModel::Eed,
            deadline: None,
            hold: None,
        }
    }

    /// A job over an already-built tree (no parsing in the job).
    pub fn tree(name: impl Into<String>, tree: RlcTree) -> Self {
        Self {
            name: name.into(),
            source: NetSource::Tree(tree),
            model: TimingModel::Eed,
            deadline: None,
            hold: None,
        }
    }

    /// Selects the timing model (default [`TimingModel::Eed`]).
    pub fn model(mut self, model: TimingModel) -> Self {
        self.model = model;
        self
    }

    /// Sets an absolute deadline. A job that starts executing after this
    /// instant skips the analysis and reports
    /// [`EngineError::DeadlineExceeded`] — waiting time counts against the
    /// request, so a backlog sheds stale work instead of burning CPU on
    /// answers nobody is waiting for.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hook: the job sleeps for `hold`, holding its
    /// execution slot, before analyzing.
    ///
    /// Like [`Batch::push_panicking`](crate::Batch::push_panicking), this
    /// exists so scheduling contracts can be proven deterministically:
    /// held jobs pin slots and fill the admission bound on demand, which
    /// is how the overload and drain tests (and the `rlc-serve` smoke)
    /// force the admission paths without racing the real analysis speed.
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// What one coupled-group job analyzes: the crosstalk analogue of
/// [`JobSpec`]. Coupled jobs share the same slots, admission bound, and
/// telemetry as single-net jobs — a group is simply a larger unit of work.
#[derive(Debug, Clone)]
pub struct CoupleSpec {
    name: String,
    source: CoupleSource,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl CoupleSpec {
    /// A job that parses and analyzes a coupled deck
    /// (see [`rlc_tree::coupled`]).
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: CoupleSource::Deck(deck.into()),
            deadline: None,
            hold: None,
        }
    }

    /// A job over an already-parsed group (no parsing in the job).
    pub fn group(name: impl Into<String>, group: CoupledGroup) -> Self {
        Self {
            name: name.into(),
            source: CoupleSource::Group(group),
            deadline: None,
            hold: None,
        }
    }

    /// Sets an absolute deadline; see [`JobSpec::deadline`].
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hold; see [`JobSpec::hold`].
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// What one synthesis job optimizes: the buffer-insertion analogue of
/// [`JobSpec`]. Synthesis jobs share the same slots, admission bound, and
/// telemetry as the other kinds — they are simply a heavier unit of work.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    name: String,
    source: SynthSource,
    config: SynthConfig,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl SynthSpec {
    fn new(name: String, source: SynthSource) -> Self {
        Self {
            name,
            source,
            config: SynthConfig::default(),
            deadline: None,
            hold: None,
        }
    }

    /// A job that parses and optimizes a synthesis deck
    /// (see [`rlc_tree::synth`]).
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self::new(name.into(), SynthSource::Deck(deck.into()))
    }

    /// A job over an already-parsed synthesis deck (no parsing in the
    /// job).
    pub fn parsed(name: impl Into<String>, deck: SynthDeck) -> Self {
        Self::new(name.into(), SynthSource::Parsed(Box::new(deck)))
    }

    /// Replaces the synthesis configuration (default [`SynthConfig::default`]).
    pub fn config(mut self, config: SynthConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets an absolute deadline; see [`JobSpec::deadline`].
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hold; see [`JobSpec::hold`].
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// Monotonic counters describing a service's lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted at admission.
    pub submitted: u64,
    /// Jobs whose result was delivered (ok or per-net error).
    pub completed: u64,
    /// Completed jobs that delivered an error result.
    pub failed: u64,
    /// Submissions rejected because the service was at capacity.
    pub rejected_overload: u64,
    /// Submissions rejected because the service was draining.
    pub rejected_shutdown: u64,
}

struct QueueState {
    /// Submitted jobs waiting for a pool worker.
    jobs: VecDeque<Job>,
    /// Admitted callers waiting for a free execution slot.
    waiting: usize,
    /// Jobs holding an execution slot, on either path; never more than
    /// [`Shared::slots`].
    in_flight: usize,
    accepting: bool,
}

impl QueueState {
    /// Admitted jobs whose result is not yet delivered.
    fn outstanding(&self) -> usize {
        self.jobs.len() + self.waiting + self.in_flight
    }
}

/// The kind-agnostic half of an admitted job: its label, policy knobs,
/// and admission record.
struct JobHead {
    name: String,
    deadline: Option<Instant>,
    hold: Option<Duration>,
    admitted: Instant,
    /// Outstanding jobs at admission, this one included.
    depth: u64,
}

/// A submitted job waiting in the queue for a pool worker.
struct Job {
    head: JobHead,
    payload: Payload,
}

/// The job-kind-specific half of a queued [`Job`]: what to analyze and
/// where the typed result goes. Each kind delivers through its own channel
/// type, so tickets stay strongly typed while the queue, slots, and
/// admission policy are shared.
enum Payload {
    Net {
        source: NetSource,
        model: TimingModel,
        tx: mpsc::Sender<(Result<NetTiming, EngineError>, JobTiming)>,
    },
    Couple {
        source: CoupleSource,
        tx: mpsc::Sender<(Result<GroupTiming, EngineError>, JobTiming)>,
    },
    Synth {
        source: SynthSource,
        config: SynthConfig,
        tx: mpsc::Sender<(Result<SynthTiming, EngineError>, JobTiming)>,
    },
}

/// Reusable analysis buffers, one set per thread that executes jobs (pool
/// worker or caller). Every analysis fully rewrites them before reading,
/// so reuse across jobs is purely an allocation-count optimization.
#[derive(Default)]
struct JobScratch {
    net: NetScratch,
    couple: CoupleScratch,
}

thread_local! {
    static SCRATCH: RefCell<JobScratch> = RefCell::new(JobScratch::default());
}

struct Shared {
    telemetry: ServiceTelemetry,
    state: Mutex<QueueState>,
    /// Signals pool workers that a job arrived, a slot freed with jobs
    /// queued, or admission closed.
    job_ready: Condvar,
    /// Signals waiting callers that an execution slot freed.
    slot_free: Condvar,
    /// Signals drainers that the service went idle.
    idle: Condvar,
    capacity: usize,
    /// Execution slots: the bound on `in_flight`.
    slots: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
}

impl Shared {
    /// The admission policy, shared by every job kind and both paths:
    /// reject when draining or at capacity, otherwise count the job as
    /// admitted. The caller records the job in `state` before unlocking.
    fn admit(
        &self,
        state: &QueueState,
        name: String,
        deadline: Option<Instant>,
        hold: Option<Duration>,
    ) -> Result<JobHead, EngineError> {
        if !state.accepting {
            self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            rlc_obs::counter!("engine.service.rejected.shutdown");
            return Err(EngineError::ShuttingDown { net: name });
        }
        let outstanding = state.outstanding();
        if outstanding >= self.capacity {
            self.rejected_overload.fetch_add(1, Ordering::Relaxed);
            rlc_obs::counter!("engine.service.rejected.overload");
            return Err(EngineError::Overloaded {
                net: name,
                capacity: self.capacity,
            });
        }
        let depth = (outstanding + 1) as u64;
        self.telemetry.depth.record(depth);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("engine.service.submitted");
        Ok(JobHead {
            name,
            deadline,
            hold,
            admitted: self.telemetry.time.now(),
            depth,
        })
    }

    /// Runs one admitted job that holds an execution slot, then frees the
    /// slot and hands the result to `deliver` — the one execution body
    /// behind both the pool and the caller path: the injected hold, the
    /// deadline check, the job itself (`work`, given the job name and
    /// this thread's scratch), telemetry, counters, and delivery.
    fn execute<T, R>(
        &self,
        head: &JobHead,
        work: impl FnOnce(&str, &mut JobScratch) -> Result<T, EngineError>,
        deliver: impl FnOnce(Result<T, EngineError>, JobTiming) -> R,
    ) -> R {
        let _span = rlc_obs::span!("engine.service/job");
        let time = self.telemetry.time;
        let picked = time.now();
        let queue_ns = saturating_ns(picked.duration_since(head.admitted));
        if let Some(hold) = head.hold {
            thread::sleep(hold);
        }
        let expired = matches!(head.deadline, Some(deadline) if time.now() > deadline);
        let result = if expired {
            Err(EngineError::DeadlineExceeded {
                net: head.name.clone(),
            })
        } else {
            SCRATCH.with_borrow_mut(|scratch| work(&head.name, scratch))
        };
        let exec_ns = saturating_ns(picked.elapsed());
        self.telemetry.queue_wait.record(time.measured_ns(queue_ns));
        self.telemetry.exec.record(time.measured_ns(exec_ns));
        let timing = JobTiming {
            queue_ns,
            exec_ns,
            depth: head.depth,
        };
        self.completed.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("engine.service.completed");
        if result.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
            rlc_obs::counter!("engine.service.failed");
        }
        let mut state = self.state.lock().expect("service lock");
        state.in_flight -= 1;
        // Deliver while still holding the state lock (channel sends never
        // block): the slot frees *atomically* with delivery, so a
        // submitter unblocked by this result can never be rejected on a
        // stale count. A submitter may also have given up on its ticket;
        // a closed channel still counts as delivery.
        let delivered = deliver(result, timing);
        if state.waiting > 0 {
            self.slot_free.notify_one();
        }
        if !state.jobs.is_empty() {
            self.job_ready.notify_one();
        }
        if state.outstanding() == 0 {
            self.idle.notify_all();
        }
        delivered
    }
}

/// Bounded admission in front of a fixed number of execution slots, with
/// graceful drain.
///
/// A job runs either on the calling thread
/// ([`call_spec`](Self::call_spec) and its siblings) or on a worker pool
/// that the first submission starts ([`submit_spec`](Self::submit_spec)
/// and its siblings). Both paths share the admission bound, the
/// `workers` execution slots, the counters and the histograms.
pub struct EngineService {
    shared: Arc<Shared>,
    /// The pool threads behind the submit path; empty until the first
    /// submission starts them.
    pool: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("workers", &self.shared.slots)
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl EngineService {
    /// Starts the service. No thread is spawned until the first
    /// submission.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero (a service that can accept
    /// nothing is a misconfiguration, not a policy).
    pub fn start(config: ServiceConfig) -> Self {
        assert!(
            config.capacity > 0,
            "service needs capacity for at least one job"
        );
        let slots = if config.workers == 0 {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            telemetry: ServiceTelemetry {
                time: config.time,
                queue_wait: Histogram::new(),
                exec: Histogram::new(),
                depth: Histogram::new(),
            },
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                waiting: 0,
                in_flight: 0,
                accepting: true,
            }),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            idle: Condvar::new(),
            capacity: config.capacity,
            slots,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
        });
        Self {
            shared,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The execution-slot count: the most jobs that run at once (and the
    /// pool size once a submission starts the pool).
    pub fn workers(&self) -> usize {
        self.shared.slots
    }

    /// The configured bound on outstanding jobs.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs currently outstanding (waiting + executing).
    pub fn outstanding(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .outstanding()
    }

    /// Jobs currently holding an execution slot; never more than
    /// [`workers`](Self::workers).
    pub fn executing(&self) -> usize {
        self.shared.state.lock().expect("service lock").in_flight
    }

    /// Analyzes a job on the calling thread, applying the admission
    /// policy: the caller-runs counterpart of
    /// [`submit_spec`](Self::submit_spec) followed by
    /// [`JobTicket::wait_timed`], with the same result, timings, counters
    /// and telemetry. If every execution slot is busy the call blocks
    /// until one frees; that wait is the job's
    /// [`queue_ns`](JobTiming::queue_ns).
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun. Per-job
    /// failures are the inner `Result`.
    pub fn call_spec(
        &self,
        spec: JobSpec,
    ) -> Result<(Result<NetTiming, EngineError>, JobTiming), EngineError> {
        let JobSpec {
            name,
            source,
            model,
            deadline,
            hold,
        } = spec;
        self.call(name, deadline, hold, |name, scratch| {
            analyze_one(name, &source, model, &mut scratch.net)
        })
    }

    /// Analyzes a coupled group on the calling thread; the crosstalk
    /// analogue of [`call_spec`](Self::call_spec).
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn call_couple_spec(
        &self,
        spec: CoupleSpec,
    ) -> Result<(Result<GroupTiming, EngineError>, JobTiming), EngineError> {
        let CoupleSpec {
            name,
            source,
            deadline,
            hold,
        } = spec;
        self.call(name, deadline, hold, |name, scratch| {
            analyze_one_couple(name, &source, &mut scratch.couple)
        })
    }

    /// Optimizes a synthesis deck on the calling thread; the
    /// buffer-insertion analogue of [`call_spec`](Self::call_spec).
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn call_synth_spec(
        &self,
        spec: SynthSpec,
    ) -> Result<(Result<SynthTiming, EngineError>, JobTiming), EngineError> {
        let SynthSpec {
            name,
            source,
            config,
            deadline,
            hold,
        } = spec;
        self.call(name, deadline, hold, |name, _| {
            optimize_one(name, &source, &config)
        })
    }

    /// The caller path: admit, wait for a free slot, execute here.
    fn call<T>(
        &self,
        name: String,
        deadline: Option<Instant>,
        hold: Option<Duration>,
        work: impl FnOnce(&str, &mut JobScratch) -> Result<T, EngineError>,
    ) -> Result<(Result<T, EngineError>, JobTiming), EngineError> {
        let head = {
            let mut state = self.shared.state.lock().expect("service lock");
            let head = self.shared.admit(&state, name, deadline, hold)?;
            state.waiting += 1;
            while state.in_flight >= self.shared.slots {
                state = self.shared.slot_free.wait(state).expect("service lock");
            }
            state.waiting -= 1;
            state.in_flight += 1;
            head
        };
        Ok(self
            .shared
            .execute(&head, work, |result, timing| (result, timing)))
    }

    /// Submits a netlist deck under the default model; shorthand for
    /// [`submit_spec`](Self::submit_spec) with [`JobSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<JobTicket, EngineError> {
        self.submit_spec(JobSpec::deck(name, deck))
    }

    /// Queues a job for the pool, applying the admission policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_spec(&self, spec: JobSpec) -> Result<JobTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.enqueue(
            spec.name,
            spec.deadline,
            spec.hold,
            Payload::Net {
                source: spec.source,
                model: spec.model,
                tx,
            },
        )?;
        Ok(JobTicket { name, rx })
    }

    /// Submits a coupled deck; shorthand for
    /// [`submit_couple_spec`](Self::submit_couple_spec) with
    /// [`CoupleSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_couple(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<CoupleTicket, EngineError> {
        self.submit_couple_spec(CoupleSpec::deck(name, deck))
    }

    /// Queues a coupled-group job, applying the same admission policy as
    /// [`submit_spec`](Self::submit_spec) — all kinds share one bound.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_couple_spec(&self, spec: CoupleSpec) -> Result<CoupleTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.enqueue(
            spec.name,
            spec.deadline,
            spec.hold,
            Payload::Couple {
                source: spec.source,
                tx,
            },
        )?;
        Ok(CoupleTicket { name, rx })
    }

    /// Submits a synthesis deck under the default [`SynthConfig`];
    /// shorthand for [`submit_synth_spec`](Self::submit_synth_spec) with
    /// [`SynthSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_synth(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<SynthTicket, EngineError> {
        self.submit_synth_spec(SynthSpec::deck(name, deck))
    }

    /// Queues a synthesis job, applying the same admission policy as
    /// [`submit_spec`](Self::submit_spec) — all kinds share one bound.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the service is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_synth_spec(&self, spec: SynthSpec) -> Result<SynthTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.enqueue(
            spec.name,
            spec.deadline,
            spec.hold,
            Payload::Synth {
                source: spec.source,
                config: spec.config,
                tx,
            },
        )?;
        Ok(SynthTicket { name, rx })
    }

    /// The submit path: start the pool on first use, admit, queue, and
    /// wake one worker.
    fn enqueue(
        &self,
        name: String,
        deadline: Option<Instant>,
        hold: Option<Duration>,
        payload: Payload,
    ) -> Result<(), EngineError> {
        {
            let mut pool = self.pool.lock().expect("pool lock");
            if pool.is_empty() {
                pool.extend((0..self.shared.slots).map(|_| {
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || worker_loop(&shared))
                }));
            }
        }
        {
            let mut state = self.shared.state.lock().expect("service lock");
            let head = self.shared.admit(&state, name, deadline, hold)?;
            state.jobs.push_back(Job { head, payload });
            rlc_obs::value!("engine.service.queue.depth", state.jobs.len() as f64);
        }
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Stops admission without waiting: subsequent submissions and calls
    /// are rejected with [`EngineError::ShuttingDown`], but accepted jobs
    /// keep running. Idempotent.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("service lock");
        state.accepting = false;
        // Wake every idle worker so pools with nothing queued notice the
        // closure (they re-check `accepting` and exit their wait).
        self.shared.job_ready.notify_all();
    }

    /// Graceful drain: [`close`](Self::close)s admission, then blocks
    /// until every accepted job — queued, waiting for a slot, or
    /// executing on either path — has delivered its result.
    pub fn drain(&self) {
        self.close();
        let mut state = self.shared.state.lock().expect("service lock");
        while state.outstanding() > 0 {
            state = self.shared.idle.wait(state).expect("service lock");
        }
    }

    /// Drains and joins the pool threads, returning the final stats.
    pub fn shutdown(self) -> ServiceStats {
        self.drain();
        self.join_pool();
        self.stats()
    }

    fn join_pool(&self) {
        // Runs from `Drop`, so it must not panic: a poisoned pool lock
        // still guards a list of valid handles.
        let workers = match self.pool.lock() {
            Ok(mut pool) => std::mem::take(&mut *pool),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// A point-in-time copy of the service histograms, quantized by the
    /// configured [`TimeSource`].
    pub fn telemetry(&self) -> EngineTelemetrySnapshot {
        EngineTelemetrySnapshot {
            queue_wait: self.shared.telemetry.queue_wait.snapshot(),
            exec: self.shared.telemetry.exec.snapshot(),
            depth: self.shared.telemetry.depth.snapshot(),
        }
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            rejected_overload: self.shared.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.shared.rejected_shutdown.load(Ordering::Relaxed),
        }
    }
}

impl Drop for EngineService {
    fn drop(&mut self) {
        // A dropped service still honours accepted work: drain, then join.
        self.drain();
        self.join_pool();
    }
}

/// Receipt for one accepted job; redeem it with [`wait`](Self::wait).
#[derive(Debug)]
pub struct JobTicket {
    name: String,
    rx: mpsc::Receiver<(Result<NetTiming, EngineError>, JobTiming)>,
}

impl JobTicket {
    /// The submitted net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this job's result.
    pub fn wait(self) -> Result<NetTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<NetTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

/// Receipt for one accepted coupled-group job; the crosstalk analogue of
/// [`JobTicket`].
#[derive(Debug)]
pub struct CoupleTicket {
    name: String,
    rx: mpsc::Receiver<(Result<GroupTiming, EngineError>, JobTiming)>,
}

impl CoupleTicket {
    /// The submitted group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this group's result.
    pub fn wait(self) -> Result<GroupTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<GroupTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

/// Receipt for one accepted synthesis job; the buffer-insertion analogue
/// of [`JobTicket`].
#[derive(Debug)]
pub struct SynthTicket {
    name: String,
    rx: mpsc::Receiver<(Result<SynthTiming, EngineError>, JobTiming)>,
}

impl SynthTicket {
    /// The submitted net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this job's result.
    pub fn wait(self) -> Result<SynthTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<SynthTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

fn saturating_ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// One pool worker: take a queued job when a slot is free, run it through
/// [`Shared::execute`], deliver on its ticket's channel; exit once
/// admission is closed and the queue is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let Job { head, payload } = {
            let mut state = shared.state.lock().expect("service lock");
            loop {
                if state.in_flight < shared.slots {
                    if let Some(job) = state.jobs.pop_front() {
                        state.in_flight += 1;
                        break job;
                    }
                }
                if !state.accepting && state.jobs.is_empty() {
                    return;
                }
                state = shared.job_ready.wait(state).expect("service lock");
            }
        };
        match payload {
            Payload::Net { source, model, tx } => shared.execute(
                &head,
                |name, scratch| analyze_one(name, &source, model, &mut scratch.net),
                |result, timing| {
                    let _ = tx.send((result, timing));
                },
            ),
            Payload::Couple { source, tx } => shared.execute(
                &head,
                |name, scratch| analyze_one_couple(name, &source, &mut scratch.couple),
                |result, timing| {
                    let _ = tx.send((result, timing));
                },
            ),
            Payload::Synth { source, config, tx } => shared.execute(
                &head,
                |name, _| optimize_one(name, &source, &config),
                |result, timing| {
                    let _ = tx.send((result, timing));
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\n";

    #[test]
    fn submit_and_wait_round_trip() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let ticket = service.submit("line", DECK).expect("capacity free");
        assert_eq!(ticket.name(), "line");
        let timing = ticket.wait().expect("analyzes fine");
        assert_eq!(timing.name, "line");
        assert_eq!(timing.sections, 1);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn per_job_failures_are_typed_results() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service.submit("bad", "R1 in n1 oops\n").expect("admitted");
        let good = service.submit("good", DECK).expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        assert!(good.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn elmore_model_reports_first_order_sinks() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        });
        let ticket = service
            .submit_spec(JobSpec::deck("line", DECK).model(TimingModel::Elmore))
            .expect("admitted");
        let timing = ticket.wait().expect("analyzes fine");
        assert_eq!(timing.sinks.len(), 1);
        let sink = &timing.sinks[0];
        assert!(sink.zeta.is_infinite());
        // T_RC = 25 Ω · 0.5 pF = 12.5 ps → delay = ln 2 · 12.5 ps.
        let expected_ps = 12.5 * core::f64::consts::LN_2;
        assert!((sink.delay_50.as_picoseconds() - expected_ps).abs() < 1e-9);
        drop(service);
    }

    #[test]
    fn expired_deadline_is_reported_at_pickup() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        });
        let ticket = service
            .submit_spec(
                JobSpec::deck("stale", DECK).deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            ticket.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        drop(service);
    }

    #[test]
    fn model_ids_round_trip() {
        for model in [TimingModel::Eed, TimingModel::Elmore] {
            assert_eq!(TimingModel::from_id(model.id()), Some(model));
        }
        assert_eq!(TimingModel::from_id("spice"), None);
        assert_eq!(TimingModel::default(), TimingModel::Eed);
    }

    #[test]
    fn telemetry_counts_jobs_and_quantizes_logically() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            time: TimeSource::Logical { quantum_ns: 16 },
        });
        for _ in 0..3 {
            let (result, timing) = service
                .submit("line", DECK)
                .expect("capacity free")
                .wait_timed();
            assert!(result.is_ok());
            assert_eq!(timing.depth, 1, "serial submissions never queue");
        }
        let telemetry = service.telemetry();
        assert_eq!(telemetry.queue_wait.count(), 3);
        assert_eq!(telemetry.exec.count(), 3);
        // Logical time maps every measurement into the quantum's bucket.
        let quantum_bucket = rlc_obs::telemetry::bucket_index(16);
        assert_eq!(telemetry.exec.buckets[quantum_bucket], 3);
        assert_eq!(telemetry.queue_wait.buckets[quantum_bucket], 3);
        // Depth is unitless and unaffected by the time source.
        assert_eq!(telemetry.depth.count(), 3);
        assert_eq!(
            telemetry.depth.buckets[rlc_obs::telemetry::bucket_index(1)],
            3
        );
        drop(service);
    }

    #[test]
    fn couple_jobs_share_the_pool_with_net_jobs() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 8,
            ..ServiceConfig::default()
        });
        let net = service.submit("line", DECK).expect("admitted");
        let couple = service
            .submit_couple(
                "bus",
                ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n.net a\nR1 in m1 25\nC1 m1 0 0.5p\nK1 v.n1 a.m1 0.1p\n",
            )
            .expect("admitted");
        assert_eq!(couple.name(), "bus");
        assert!(net.wait().is_ok());
        let timing = couple.wait().expect("analyzes fine");
        assert_eq!(timing.name, "bus");
        assert_eq!(timing.victims.len(), 2);
        assert_eq!(timing.couplings, 1);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn couple_failures_and_deadlines_are_typed() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service
            .submit_couple("bad", ".net v\nR1 in n1 oops\n")
            .expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        let stale = service
            .submit_couple_spec(
                CoupleSpec::deck("stale", ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n")
                    .deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            stale.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    fn synth_jobs_share_the_pool_with_net_jobs() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 8,
            ..ServiceConfig::default()
        });
        let net = service.submit("line", DECK).expect("admitted");
        let synth = service
            .submit_synth(
                "clock",
                "R1 in n1 900\nC1 n1 0 0.9p\nR2 n1 n2 900\nC2 n2 0 0.9p\n\
                 R3 n2 n3 900\nC3 n3 0 0.9p\n.lib bufx r=120 cin=5f tin=15p\n.driver 100\n",
            )
            .expect("admitted");
        assert_eq!(synth.name(), "clock");
        assert!(net.wait().is_ok());
        let timing = synth.wait().expect("optimizes fine");
        assert_eq!(timing.name, "clock");
        assert!(!timing.buffers.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn synth_failures_and_deadlines_are_typed() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service
            .submit_synth("bad", "R1 in n1 25\nC1 n1 0 0.5p\n")
            .expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        let stale = service
            .submit_synth_spec(
                SynthSpec::deck(
                    "stale",
                    "R1 in n1 25\nC1 n1 0 0.5p\n.lib b r=100 cin=4f tin=1p\n",
                )
                .config(SynthConfig::default())
                .deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            stale.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    fn calls_run_on_the_calling_thread_and_never_start_the_pool() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 4,
            time: TimeSource::Logical { quantum_ns: 16 },
        });
        let (result, timing) = service
            .call_spec(JobSpec::deck("line", DECK))
            .expect("capacity free");
        assert_eq!(result.expect("analyzes fine").sections, 1);
        assert_eq!(timing.depth, 1);
        let (result, _) = service
            .call_couple_spec(CoupleSpec::deck(
                "bus",
                ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n.net a\nR1 in m1 25\nC1 m1 0 0.5p\nK1 v.n1 a.m1 0.1p\n",
            ))
            .expect("capacity free");
        assert_eq!(result.expect("analyzes fine").couplings, 1);
        let (result, _) = service
            .call_synth_spec(SynthSpec::deck(
                "clock",
                "R1 in n1 900\nC1 n1 0 0.9p\nR2 n1 n2 900\nC2 n2 0 0.9p\n\
                 R3 n2 n3 900\nC3 n3 0 0.9p\n.lib bufx r=120 cin=5f tin=15p\n.driver 100\n",
            ))
            .expect("capacity free");
        assert!(!result.expect("optimizes fine").buffers.is_empty());
        assert!(
            service.pool.lock().unwrap().is_empty(),
            "the caller path spawns no thread"
        );
        assert_eq!((service.outstanding(), service.executing()), (0, 0));
        // The same histograms as the submit path, one sample per job.
        let telemetry = service.telemetry();
        assert_eq!(telemetry.queue_wait.count(), 3);
        assert_eq!(telemetry.exec.count(), 3);
        assert_eq!(telemetry.depth.count(), 3);
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (3, 3, 0));
    }

    #[test]
    fn call_failures_and_deadlines_are_typed_results() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let (bad, _) = service
            .call_spec(JobSpec::deck("bad", "R1 in n1 oops\n"))
            .expect("admitted");
        assert!(matches!(bad.unwrap_err(), EngineError::Netlist { .. }));
        let stale = Instant::now() - Duration::from_millis(1);
        let (net, _) = service
            .call_spec(JobSpec::deck("stale", DECK).deadline(stale))
            .expect("admitted");
        let (group, _) = service
            .call_couple_spec(CoupleSpec::deck("stale", ".net v\nR1 in n1 25\n").deadline(stale))
            .expect("admitted");
        let (synth, _) = service
            .call_synth_spec(SynthSpec::deck("stale", DECK).deadline(stale))
            .expect("admitted");
        assert!(matches!(
            net.unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        assert!(matches!(
            group.unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        assert!(matches!(
            synth.unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        let stats = service.shutdown();
        assert_eq!((stats.completed, stats.failed), (4, 4));
    }

    #[test]
    fn calls_and_submissions_share_the_admission_bound() {
        let service = Arc::new(EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        }));
        let ticket = service
            .submit_spec(JobSpec::deck("queued", DECK).hold(Duration::from_millis(150)))
            .expect("admitted");
        while service.executing() < 1 {
            thread::yield_now();
        }
        let caller = {
            let service = Arc::clone(&service);
            thread::spawn(move || service.call_spec(JobSpec::deck("called", DECK)))
        };
        while service.outstanding() < 2 {
            thread::yield_now();
        }
        let err = service
            .call_spec(JobSpec::deck("overflow", DECK))
            .expect_err("third outstanding job is over capacity");
        assert!(
            matches!(err, EngineError::Overloaded { capacity: 2, .. }),
            "{err}"
        );
        let (called, timing) = caller
            .join()
            .unwrap()
            .expect("admitted before the overflow");
        assert!(called.is_ok());
        assert!(
            timing.queue_ns >= 100_000_000,
            "one slot: the call waited out the held job ({} ns)",
            timing.queue_ns
        );
        assert!(ticket.wait().is_ok());
        assert_eq!(service.stats().rejected_overload, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 0,
            ..ServiceConfig::default()
        });
    }
}
