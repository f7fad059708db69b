//! The worker pool: N snapshot-forked SoC workers draining a bounded
//! MPMC queue, watched over by a heartbeat monitor.
//!
//! Each worker owns one `Soc` machine forked from a per-variant
//! [`WorkerTemplate`]. Batching coalesces adjacent same-variant
//! requests so a staged machine serves them warm (entry re-arm, no L2
//! restore); a variant switch or any unclean outcome cold re-forks
//! from the template. Every request runs under the per-request
//! watchdog budget and the `run_with_policy`-style ladder: verified ok
//! → masked → cold-retry recovered → golden-software degraded. A
//! poisoned request never kills its worker.
//!
//! Robustness machinery (PR 8):
//!
//! * **Template integrity** — every cold fork re-verifies the
//!   template's FNV checksum ([`WorkerTemplate::verify`]); a corrupted
//!   template is quarantined and rebuilt from scratch before any
//!   worker forks from it (`quarantines` in [`PoolStats`]).
//! * **Heartbeats** — a monitor thread watches per-worker busy
//!   timestamps; a worker stuck past the watchdog horizon is *reaped*:
//!   its wedged machine is torn down and re-forked from the template,
//!   and the request it was holding is still served (`reaps` in
//!   [`PoolStats`]). [`HangFaults`] injects deterministic wedges to
//!   exercise exactly this path.
//! * **Poison recovery** — all pool locks go through [`crate::sync`]:
//!   one panicking worker can no longer cascade-poison the queue, the
//!   response sink or the final report.
//!
//! Determinism: a request's deterministic fields (output, outcome,
//! simulated cycles, ledger) are a pure function of the request and
//! the pool's template/fault configuration. Chaos-armed requests
//! always run on a fresh cold fork (cycle counter 0), so a fault
//! plan's absolute-cycle schedule lands identically no matter which
//! worker picks the request up; warm reruns are bit-exact with cold
//! forks (pinned); a reaped worker re-forks cold, so a hang-armed
//! request's response is bit-identical to a clean cold serve. Hence
//! any (seed, request-trace) pair replays bit-identically across
//! 1/2/8 workers.

use crate::queue::{BoundedQueue, PushError};
use crate::request::{Detection, Outcome, Request, Response, SubmitError, Variant};
use crate::sync;
use crate::template::{ServeError, WorkerTemplate};
use faultsim::{run_armed, ArmConfig, FaultPlan, TemplateStrike};
use pulp_soc::Soc;
use riscv_core::{PerfCounters, Trap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use xrand::Rng;

/// Seeded chaos mode: per-request fault arming through `faultsim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFaults {
    /// Campaign seed; a request's plan depends only on this and its id.
    pub seed: u64,
    /// Percentage of eligible requests that get one flip (0–100).
    pub rate_percent: u8,
    /// Only requests with `armed_from <= id < armed_below` are
    /// eligible — lets a test bracket a chaos wave between clean waves
    /// on one pool (the soak's fault-storm phase).
    pub armed_from: u64,
    /// Exclusive upper bound of the armed id range.
    pub armed_below: u64,
}

impl ServeFaults {
    /// Arms every request with one flip.
    pub fn always(seed: u64) -> ServeFaults {
        ServeFaults {
            seed,
            rate_percent: 100,
            armed_from: 0,
            armed_below: u64::MAX,
        }
    }

    /// The fault plan for request `id`, if it is armed.
    fn plan_for(&self, template: &WorkerTemplate, id: u64) -> Option<FaultPlan> {
        if id < self.armed_from || id >= self.armed_below {
            return None;
        }
        let mut rng = Rng::new(self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if rng.below(100) >= u64::from(self.rate_percent) {
            return None;
        }
        Some(template.fault_plan(rng.next_u64()))
    }
}

/// Seeded hang injection: requests whose id is armed wedge their
/// worker mid-serve (the worker parks on its hang gate) until the
/// heartbeat monitor reaps it. Which ids hang is a pure function of
/// `(seed, id)`, so reap counts replay exactly; the reaped worker
/// re-forks cold and still serves the request, so response content is
/// bit-identical to a clean cold serve on any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangFaults {
    /// Campaign seed.
    pub seed: u64,
    /// Percentage of eligible requests that wedge (0–100).
    pub rate_percent: u8,
    /// Only ids in `lo..hi` are eligible.
    pub lo: u64,
    /// Exclusive upper bound of the eligible id range.
    pub hi: u64,
}

impl HangFaults {
    /// Wedges every request in `lo..hi`.
    pub fn range(seed: u64, lo: u64, hi: u64) -> HangFaults {
        HangFaults {
            seed,
            rate_percent: 100,
            lo,
            hi,
        }
    }

    /// True when request `id` is armed to hang.
    pub fn armed(&self, id: u64) -> bool {
        if id < self.lo || id >= self.hi {
            return false;
        }
        let mut rng = Rng::new(self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.below(100) < u64::from(self.rate_percent)
    }
}

/// Pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; `try`-submits beyond it return
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Max same-variant requests a worker coalesces per queue pop.
    pub batch_max: usize,
    /// Seed for the per-variant template weights/thresholds.
    pub weight_seed: u64,
    /// Cold-retry attempts before degrading to the golden fallback.
    pub max_retries: u32,
    /// Serve consecutive same-variant requests warm (entry re-arm
    /// without an L2 restore). Off forces a cold fork per request;
    /// results are bit-identical either way (pinned).
    pub warm_reruns: bool,
    /// Chaos mode; `None` serves cleanly.
    pub faults: Option<ServeFaults>,
    /// Hang injection; `None` never wedges. Setting this implicitly
    /// enables the heartbeat monitor (a 50 ms horizon is used when
    /// [`PoolConfig::heartbeat_horizon_ms`] is 0).
    pub hangs: Option<HangFaults>,
    /// Watchdog horizon in host milliseconds: a worker busy on one
    /// request for longer is reaped by the monitor thread. 0 disables
    /// the monitor (unless hang injection forces it on). Pick a value
    /// far above the per-request host cost; reaping is for wedged
    /// workers, not slow ones.
    pub heartbeat_horizon_ms: u64,
    /// Re-verify the template checksum before every cold fork and
    /// quarantine-and-rebuild corrupted templates. Verification never
    /// changes response content, only whether corruption is caught at
    /// fork time or by the (golden-checked) degradation ladder.
    pub verify_forks: bool,
    /// Start workers parked until [`ServePool::release`] — lets tests
    /// fill the queue deterministically. `shutdown` releases
    /// implicitly, so held work always drains.
    pub hold_workers: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            queue_capacity: 64,
            batch_max: 8,
            weight_seed: 42,
            max_retries: 1,
            warm_reruns: true,
            faults: None,
            hangs: None,
            heartbeat_horizon_ms: 0,
            verify_forks: true,
            hold_workers: false,
        }
    }
}

/// Aggregate pool counters (observability; not part of any digest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served (one response each).
    pub served: u64,
    /// Cold forks/re-forks from a template.
    pub cold_forks: u64,
    /// Requests served on a warm machine.
    pub warm_runs: u64,
    /// Responses by outcome.
    pub ok: u64,
    /// Masked responses.
    pub masked: u64,
    /// Recovered responses.
    pub recovered: u64,
    /// Degraded responses.
    pub degraded: u64,
    /// Workers reaped by the heartbeat monitor (wedged past the
    /// horizon, torn down and re-forked from their template).
    pub reaps: u64,
    /// Corrupted templates quarantined and rebuilt from scratch.
    pub quarantines: u64,
}

/// Everything a finished pool hands back. When
/// [`ServePool::drain_responses`] was used mid-run (the supervisor's
/// windowed mode), `responses` holds only what was recorded after the
/// last drain — the drainer owns the rest.
#[derive(Debug)]
pub struct PoolReport {
    /// Responses not yet drained, sorted by request id.
    pub responses: Vec<Response>,
    /// Aggregate counters over the pool's whole life.
    pub stats: PoolStats,
}

struct Job {
    req: Request,
    enqueued: Instant,
}

/// Per-worker health record for the heartbeat monitor.
///
/// Every SoC run is bounded by the per-request watchdog budget, so a
/// busy-but-progressing worker is provably live; the only way a worker
/// can stall forever is a wedge on its hang gate. The monitor
/// therefore reaps exactly the workers that are *wedged* past the
/// horizon (the horizon models detection latency) — a merely slow
/// request is never reaped, which keeps reap counts a pure function of
/// the hang configuration instead of host scheduling.
struct Health {
    /// `now_ms + 1` when the worker started its current request;
    /// 0 = idle. The `+1` keeps 0 unambiguous.
    busy_since_ms: AtomicU64,
    /// True while the worker is parked on its hang gate.
    wedged: AtomicBool,
    /// Set by the monitor when it reaps the worker; cleared by the
    /// worker after it re-forks.
    reaped: AtomicBool,
    /// Hang-injection gate: an armed request parks here until reaped.
    gate: Mutex<()>,
    gate_cv: Condvar,
}

impl Health {
    fn new() -> Health {
        Health {
            busy_since_ms: AtomicU64::new(0),
            wedged: AtomicBool::new(false),
            reaped: AtomicBool::new(false),
            gate: Mutex::new(()),
            gate_cv: Condvar::new(),
        }
    }
}

struct Shared {
    queue: BoundedQueue<Job>,
    /// One slot per variant; the `Arc` is swapped atomically under the
    /// slot lock when a corrupted template is quarantined and rebuilt.
    templates: Vec<Mutex<Arc<WorkerTemplate>>>,
    cfg: PoolConfig,
    /// Effective heartbeat horizon (0 = monitor off).
    horizon_ms: u64,
    responses: Mutex<Vec<Response>>,
    stats: Mutex<PoolStats>,
    gate: Mutex<bool>,
    gate_cv: Condvar,
    /// Cumulative responses recorded over the pool's life (never reset
    /// by drains) + its condvar, for [`ServePool::wait_completed`].
    done: Mutex<u64>,
    done_cv: Condvar,
    health: Vec<Health>,
    monitor_stop: AtomicBool,
    t0: Instant,
}

impl Shared {
    fn wait_released(&self) {
        let mut released = sync::lock(&self.gate);
        while !*released {
            released = sync::wait(&self.gate_cv, released);
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The current template for `variant` (cheap `Arc` clone).
    fn template_arc(&self, variant: Variant) -> Arc<WorkerTemplate> {
        Arc::clone(&sync::lock(&self.templates[variant.index()]))
    }

    /// The template for `variant`, integrity-checked when the pool is
    /// configured to verify forks. A corrupted template is quarantined
    /// and rebuilt under the slot lock; the first worker to notice
    /// pays the rebuild, later workers see the fresh template.
    fn checked_template(&self, variant: Variant) -> Arc<WorkerTemplate> {
        let t = self.template_arc(variant);
        if !self.cfg.verify_forks || t.verify().is_ok() {
            return t;
        }
        let mut slot = sync::lock(&self.templates[variant.index()]);
        // Re-check under the lock: another worker may have rebuilt
        // the slot between our verify and our lock.
        if slot.verify().is_ok() {
            return Arc::clone(&slot);
        }
        match WorkerTemplate::build(variant, self.cfg.weight_seed) {
            Ok(fresh) => {
                // The rebuild is a pure function of (variant, seed):
                // the fresh template is bit-identical to the one the
                // pool started with, so responses are unaffected.
                *slot = Arc::new(fresh);
                sync::lock(&self.stats).quarantines += 1;
                Arc::clone(&slot)
            }
            // A rebuild can only fail if startup would have failed;
            // keep the quarantined template — the golden-checked
            // degradation ladder still guarantees correct outputs.
            Err(_) => Arc::clone(&slot),
        }
    }

    /// Records a finished response and wakes completion waiters.
    fn record(&self, response: Response) {
        let mut stats = sync::lock(&self.stats);
        stats.served += 1;
        if response.warm {
            stats.warm_runs += 1;
        }
        match response.outcome {
            Outcome::Ok => stats.ok += 1,
            Outcome::Masked { .. } => stats.masked += 1,
            Outcome::Recovered { .. } => stats.recovered += 1,
            Outcome::Degraded { .. } => stats.degraded += 1,
        }
        drop(stats);
        sync::lock(&self.responses).push(response);
        let mut done = sync::lock(&self.done);
        *done += 1;
        drop(done);
        self.done_cv.notify_all();
    }
}

/// The serving pool. Dropping it without [`ServePool::shutdown`]
/// closes the queue and joins workers (in-flight work still drains).
pub struct ServePool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl ServePool {
    /// Builds all variant templates (health-checked), spawns the
    /// worker threads and — when a heartbeat horizon or hang injection
    /// is configured — the monitor thread.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when misconfigured or a template fails to build
    /// or verify.
    pub fn start(cfg: PoolConfig) -> Result<ServePool, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::NoWorkers);
        }
        let templates = Variant::ALL
            .into_iter()
            .map(|v| {
                Ok(Mutex::new(Arc::new(WorkerTemplate::build(
                    v,
                    cfg.weight_seed,
                )?)))
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        // Hang injection needs the monitor to make progress; give it a
        // default horizon when none was configured.
        let horizon_ms = if cfg.heartbeat_horizon_ms == 0 && cfg.hangs.is_some() {
            50
        } else {
            cfg.heartbeat_horizon_ms
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            templates,
            cfg,
            horizon_ms,
            responses: Mutex::new(Vec::new()),
            stats: Mutex::new(PoolStats::default()),
            gate: Mutex::new(!cfg.hold_workers),
            gate_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            health: (0..cfg.workers).map(|_| Health::new()).collect(),
            monitor_stop: AtomicBool::new(false),
            t0: Instant::now(),
        });
        let handles = (0..cfg.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, idx))
            })
            .collect();
        let monitor = (horizon_ms > 0).then(|| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || monitor_loop(&shared))
        });
        Ok(ServePool {
            shared,
            handles,
            monitor,
        })
    }

    /// Validates and enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on a bad payload,
    /// [`SubmitError::Overloaded`] when the bounded queue is full,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, req: Request) -> Result<(), SubmitError> {
        let job = self.validate(req)?;
        match self.shared.queue.try_push(job) {
            Ok(()) => Ok(()),
            Err(PushError::Full(_)) => Err(SubmitError::Overloaded {
                capacity: self.shared.queue.capacity(),
            }),
            Err(PushError::Closed(_) | PushError::TimedOut(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Validates and enqueues, waiting for queue space (the loadgen's
    /// lossless submit discipline).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] or [`SubmitError::ShuttingDown`].
    pub fn submit_blocking(&self, req: Request) -> Result<(), SubmitError> {
        let job = self.validate(req)?;
        self.shared
            .queue
            .push_blocking(job)
            .map_err(|_| SubmitError::ShuttingDown)
    }

    /// Validates and enqueues with a bounded wait for queue space —
    /// the liveness-safe submit discipline: a wedged or gone consumer
    /// side costs the submitter at most `timeout`, never forever.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`], [`SubmitError::ShuttingDown`], or
    /// [`SubmitError::Timeout`] when no slot freed up in time.
    pub fn submit_timeout(&self, req: Request, timeout: Duration) -> Result<(), SubmitError> {
        let job = self.validate(req)?;
        match self.shared.queue.push_timeout(job, timeout) {
            Ok(()) => Ok(()),
            Err(PushError::Closed(_)) => Err(SubmitError::ShuttingDown),
            Err(PushError::TimedOut(_) | PushError::Full(_)) => Err(SubmitError::Timeout {
                waited_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
            }),
        }
    }

    fn validate(&self, req: Request) -> Result<Job, SubmitError> {
        let template = self.shared.template_arc(req.variant);
        template
            .validate(&req.input)
            .map_err(|error| SubmitError::Invalid { id: req.id, error })?;
        Ok(Job {
            req,
            enqueued: Instant::now(),
        })
    }

    /// Unparks held workers (see [`PoolConfig::hold_workers`]).
    pub fn release(&self) {
        let mut released = sync::lock(&self.shared.gate);
        *released = true;
        drop(released);
        self.shared.gate_cv.notify_all();
    }

    /// Requests currently queued (not yet picked up).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Responses completed over the pool's life (cumulative; not reset
    /// by [`ServePool::drain_responses`]).
    pub fn completed(&self) -> usize {
        usize::try_from(*sync::lock(&self.shared.done)).unwrap_or(usize::MAX)
    }

    /// Blocks until at least `n` responses have been recorded over the
    /// pool's life. The supervisor's window barrier.
    pub fn wait_completed(&self, n: u64) {
        let mut done = sync::lock(&self.shared.done);
        while *done < n {
            done = sync::wait(&self.shared.done_cv, done);
        }
    }

    /// Takes every response recorded so far (sorted by request id),
    /// leaving the sink empty for the next window. Used by the
    /// supervisor; a pool driven only through [`ServePool::shutdown`]
    /// never needs it.
    pub fn drain_responses(&self) -> Vec<Response> {
        let mut responses = std::mem::take(&mut *sync::lock(&self.shared.responses));
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// Aggregate counters so far (a consistent snapshot).
    pub fn stats(&self) -> PoolStats {
        *sync::lock(&self.shared.stats)
    }

    /// The template serving `variant` (for request construction).
    pub fn template(&self, variant: Variant) -> Arc<WorkerTemplate> {
        self.shared.template_arc(variant)
    }

    /// Fault-injection hook: applies a seeded [`TemplateStrike`] to
    /// the stored template for `variant`, leaving its build-time
    /// checksum untouched. The next verified cold fork must detect
    /// the corruption and quarantine-and-rebuild the template.
    pub fn corrupt_template(&self, variant: Variant, strike_seed: u64) {
        let mut slot = sync::lock(&self.shared.templates[variant.index()]);
        let mut t = (**slot).clone();
        t.corrupt(TemplateStrike::generate(strike_seed));
        *slot = Arc::new(t);
    }

    /// Stops intake, drains in-flight requests, joins the workers and
    /// the monitor, and returns every undrained response (sorted by
    /// id) plus the counters.
    ///
    /// The shutdown path is loss-free by construction: responses are
    /// taken only after *every* worker thread has exited — including
    /// workers that were reaped and re-forked mid-shutdown — and a
    /// panicked worker costs its own in-flight request at most, never
    /// the report (joins ignore panics; locks recover from poison).
    pub fn shutdown(mut self) -> PoolReport {
        self.shared.queue.close();
        self.release();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.shared.monitor_stop.store(true, Ordering::Release);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        let mut responses = std::mem::take(&mut *sync::lock(&self.shared.responses));
        responses.sort_by_key(|r| r.id);
        let stats = *sync::lock(&self.shared.stats);
        PoolReport { responses, stats }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shared.queue.close();
        self.release();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.shared.monitor_stop.store(true, Ordering::Release);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }
}

/// The heartbeat monitor: reaps workers wedged past the horizon (see
/// [`Health`] for why only wedged — never slow — workers qualify). A
/// reap is one atomic flag flip + wakeup; the wedged worker itself
/// tears down its machine and re-forks from the template, so the
/// monitor can never race a healthy worker's machine state.
fn monitor_loop(shared: &Shared) {
    let poll = Duration::from_millis((shared.horizon_ms / 4).clamp(1, 10));
    while !shared.monitor_stop.load(Ordering::Acquire) {
        let now = shared.now_ms();
        for h in &shared.health {
            let since = h.busy_since_ms.load(Ordering::Acquire);
            if h.wedged.load(Ordering::Acquire)
                && since != 0
                && now.saturating_sub(since - 1) >= shared.horizon_ms
                && !h.reaped.swap(true, Ordering::AcqRel)
            {
                sync::lock(&shared.stats).reaps += 1;
                // Take the gate lock before notifying so a worker
                // between its reaped-check and its wait cannot miss
                // the wakeup.
                drop(sync::lock(&h.gate));
                h.gate_cv.notify_all();
            }
        }
        thread::sleep(poll);
    }
}

/// Parks a hang-armed worker on its gate until the monitor reaps it,
/// then restarts its horizon clock and clears the reap flag so the
/// recovery serve is not re-reaped.
fn hang_until_reaped(shared: &Shared, worker: usize) {
    let h = &shared.health[worker];
    let mut g = sync::lock(&h.gate);
    h.wedged.store(true, Ordering::Release);
    while !h.reaped.load(Ordering::Acquire) {
        g = sync::wait(&h.gate_cv, g);
    }
    drop(g);
    h.wedged.store(false, Ordering::Release);
    h.busy_since_ms
        .store(shared.now_ms() + 1, Ordering::Release);
    h.reaped.store(false, Ordering::Release);
}

/// One worker's staged machine.
struct Machine {
    soc: Soc,
    variant: Variant,
    /// True only after a clean, disarmed run — the precondition for a
    /// warm rerun.
    clean: bool,
}

fn worker_loop(shared: &Shared, worker: usize) {
    shared.wait_released();
    let mut machine: Option<Machine> = None;
    while let Some(batch) = shared
        .queue
        .pop_batch(shared.cfg.batch_max, |a, b| a.req.variant == b.req.variant)
    {
        for job in batch {
            let h = &shared.health[worker];
            h.busy_since_ms
                .store(shared.now_ms() + 1, Ordering::Release);
            let response = serve_one(shared, worker, &mut machine, job);
            h.busy_since_ms.store(0, Ordering::Release);
            shared.record(response);
        }
    }
    // A stale reap flag from the last served request must not leak
    // into a future life of this worker slot.
    shared.health[worker].reaped.store(false, Ordering::Release);
}

enum Attempt {
    // Boxed: PerfCounters dwarfs the trap variant otherwise.
    Halt {
        output: Vec<i16>,
        perf: Box<PerfCounters>,
    },
    Trapped(Trap),
}

fn serve_one(shared: &Shared, worker: usize, machine: &mut Option<Machine>, job: Job) -> Response {
    let Job { req, enqueued } = job;

    // Hang injection: an armed request wedges this worker until the
    // monitor reaps it. The wedged machine is torn down; the request
    // is then served on a fresh cold fork, so its response content is
    // bit-identical to a clean cold serve.
    if shared.cfg.hangs.is_some_and(|hf| hf.armed(req.id)) {
        *machine = None;
        hang_until_reaped(shared, worker);
    }

    let template = shared.checked_template(req.variant);
    let golden = template.golden(&req.input);
    let plan = shared
        .cfg
        .faults
        .as_ref()
        .and_then(|f| f.plan_for(&template, req.id));

    // Stage the machine. Armed requests must start from the template's
    // cycle counter (0): the fault plan schedules flips on absolute
    // cycles. Warm reruns are only taken on a clean machine of the
    // same variant, and only disarmed.
    let warm = plan.is_none()
        && shared.cfg.warm_reruns
        && machine
            .as_ref()
            .is_some_and(|m| m.variant == req.variant && m.clean);
    let mut m = match machine.take() {
        Some(mut m) if warm => {
            template.rearm_entry(&mut m.soc);
            m
        }
        Some(mut m) => {
            template.refork(&mut m.soc);
            sync::lock(&shared.stats).cold_forks += 1;
            m.variant = req.variant;
            m
        }
        None => {
            sync::lock(&shared.stats).cold_forks += 1;
            Machine {
                soc: template.fork(),
                variant: req.variant,
                clean: false,
            }
        }
    };
    template.stage_input(&mut m.soc, &req.input);

    // First attempt: armed (burst segments between flips) or plain
    // (one burst run). Both run under the per-request watchdog budget.
    let mut total_cycles;
    let mut flips = 0usize;
    let attempt = if let Some(plan) = &plan {
        let armed = run_armed(
            &mut m.soc,
            plan,
            &ArmConfig {
                budget: template.budget(),
                checkpoint_interval: 10_000,
                trace_depth: 0,
            },
        );
        flips = armed.injections.len();
        total_cycles = armed.perf.cycles;
        match armed.exit {
            Ok(_) => Attempt::Halt {
                output: template.collect_output(&m.soc),
                perf: Box::new(armed.perf),
            },
            Err(trap) => Attempt::Trapped(trap),
        }
    } else {
        let before = m.soc.core.perf;
        match m.soc.run(template.budget()) {
            Ok(report) => {
                total_cycles = report.perf.cycles;
                Attempt::Halt {
                    output: template.collect_output(&m.soc),
                    perf: Box::new(report.perf),
                }
            }
            Err(trap) => {
                // `Soc::run` returns no report on a trap; the delta
                // against the pre-run counters is the attempt's cost.
                let perf = m.soc.core.perf.delta_since(&before);
                total_cycles = perf.cycles;
                Attempt::Trapped(trap)
            }
        }
    };

    // Classification ladder.
    let detection = match attempt {
        Attempt::Halt { output, perf } if output == golden => {
            let outcome = if flips > 0 {
                // Flips landed but the verified output survived.
                m.clean = false;
                Outcome::Masked { flips }
            } else {
                m.clean = true;
                Outcome::Ok
            };
            let response = Response {
                id: req.id,
                variant: req.variant,
                outcome,
                output,
                perf: *perf,
                cycles: total_cycles,
                worker,
                warm,
                host_us: elapsed_us(enqueued),
            };
            *machine = Some(m);
            return response;
        }
        Attempt::Halt { .. } => Detection::Sdc,
        Attempt::Trapped(trap) => Detection::Trap(trap),
    };

    // Detected: bounded cold-retry from the template. Transient-fault
    // model — a disarmed re-run from the pristine template is a full
    // recovery; the loop exists for policy parity with the network
    // layer (and guards against template-level SDC, which the
    // health check already rules out).
    for retry in 1..=shared.cfg.max_retries {
        template.refork(&mut m.soc);
        sync::lock(&shared.stats).cold_forks += 1;
        template.stage_input(&mut m.soc, &req.input);
        match m.soc.run(template.budget()) {
            Ok(report) => {
                total_cycles += report.perf.cycles;
                let output = template.collect_output(&m.soc);
                if output == golden {
                    m.clean = true;
                    let response = Response {
                        id: req.id,
                        variant: req.variant,
                        outcome: Outcome::Recovered {
                            detection,
                            retries: retry,
                        },
                        output,
                        perf: report.perf,
                        cycles: total_cycles,
                        worker,
                        warm,
                        host_us: elapsed_us(enqueued),
                    };
                    *machine = Some(m);
                    return response;
                }
            }
            Err(_) => {
                m.clean = false;
            }
        }
    }

    // Retries exhausted: golden software fallback; the worker machine
    // is marked unclean and will cold re-fork before its next request.
    m.clean = false;
    let response = Response {
        id: req.id,
        variant: req.variant,
        outcome: Outcome::Degraded { detection },
        output: golden,
        perf: PerfCounters::new(),
        cycles: total_cycles,
        worker,
        warm,
        host_us: elapsed_us(enqueued),
    };
    *machine = Some(m);
    response
}

fn elapsed_us(enqueued: Instant) -> u64 {
    u64::try_from(enqueued.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestError;

    fn valid_request(pool: &ServePool, id: u64, variant: Variant, fill: i16) -> Request {
        Request {
            id,
            variant,
            input: vec![fill; pool.template(variant).input_len()],
        }
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let cfg = PoolConfig {
            workers: 0,
            ..PoolConfig::default()
        };
        assert_eq!(ServePool::start(cfg).err(), Some(ServeError::NoWorkers));
    }

    #[test]
    fn invalid_payloads_are_rejected_typed_at_submit() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        })
        .unwrap();
        // Zero-size payload.
        let r = pool.submit(Request {
            id: 1,
            variant: Variant::W4,
            input: vec![],
        });
        assert_eq!(
            r,
            Err(SubmitError::Invalid {
                id: 1,
                error: RequestError::Empty
            })
        );
        // Oversized payload.
        let want = pool.template(Variant::W4).input_len();
        let r = pool.submit(Request {
            id: 2,
            variant: Variant::W4,
            input: vec![0; want * 2],
        });
        assert_eq!(
            r,
            Err(SubmitError::Invalid {
                id: 2,
                error: RequestError::WrongLength {
                    got: want * 2,
                    want
                }
            })
        );
        // Out-of-range activation.
        let mut input = vec![0i16; want];
        input[0] = 99;
        let r = pool.submit(Request {
            id: 3,
            variant: Variant::W4,
            input,
        });
        assert!(matches!(
            r,
            Err(SubmitError::Invalid {
                id: 3,
                error: RequestError::OutOfRange { index: 0, .. }
            })
        ));
        // Nothing reached the queue; shutdown returns no responses.
        let report = pool.shutdown();
        assert!(report.responses.is_empty());
    }

    #[test]
    fn overload_is_typed_and_held_work_still_drains() {
        // Held workers make the overload deterministic: the queue
        // cannot drain until release.
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            queue_capacity: 2,
            hold_workers: true,
            ..PoolConfig::default()
        })
        .unwrap();
        pool.submit(valid_request(&pool, 0, Variant::W4, 1))
            .unwrap();
        pool.submit(valid_request(&pool, 1, Variant::W4, 2))
            .unwrap();
        let r = pool.submit(valid_request(&pool, 2, Variant::W4, 3));
        assert_eq!(r, Err(SubmitError::Overloaded { capacity: 2 }));
        // A bounded-wait submit times out typed instead of blocking
        // forever on the held (wedged) pool.
        let r = pool.submit_timeout(
            valid_request(&pool, 3, Variant::W4, 3),
            Duration::from_millis(15),
        );
        assert_eq!(r, Err(SubmitError::Timeout { waited_ms: 15 }));
        // Shutdown releases the held workers and drains in-flight
        // requests: exactly the two accepted responses come back.
        let report = pool.shutdown();
        assert_eq!(report.responses.len(), 2);
        assert_eq!(
            report.responses.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(report.responses.iter().all(|r| r.outcome == Outcome::Ok));
    }

    #[test]
    fn submit_after_shutdown_began_is_shutting_down() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        })
        .unwrap();
        let req = valid_request(&pool, 0, Variant::W8, 0);
        pool.shared.queue.close();
        assert_eq!(pool.submit(req), Err(SubmitError::ShuttingDown));
        let report = pool.shutdown();
        assert!(report.responses.is_empty());
    }

    #[test]
    fn warm_rerun_is_bit_exact_with_cold_fork() {
        // The same trace served twice — warm reruns allowed vs forced
        // cold forks — must produce identical deterministic fields.
        // This pins the warm-path contract (entry re-arm only, no L2
        // restore) against the cold-path ground truth.
        let serve = |warm_reruns: bool| {
            let pool = ServePool::start(PoolConfig {
                workers: 1,
                warm_reruns,
                ..PoolConfig::default()
            })
            .unwrap();
            let mut rng = Rng::new(7);
            for id in 0..12u64 {
                // Same-variant stretches so warm reruns actually occur.
                let variant = if id < 6 { Variant::W4 } else { Variant::W2 };
                let max = u64::from(pool.template(variant).max_activation() as u16);
                let input: Vec<i16> = (0..pool.template(variant).input_len())
                    .map(|_| rng.below(max + 1) as i16)
                    .collect();
                pool.submit_blocking(Request { id, variant, input })
                    .unwrap();
            }
            pool.shutdown()
        };
        let warm = serve(true);
        let cold = serve(false);
        assert!(warm.stats.warm_runs > 0, "warm path never exercised");
        assert_eq!(cold.stats.warm_runs, 0);
        for (w, c) in warm.responses.iter().zip(&cold.responses) {
            assert_eq!(w.id, c.id);
            assert_eq!(w.outcome, c.outcome, "request {}", w.id);
            assert_eq!(w.output, c.output, "request {}", w.id);
            assert_eq!(w.cycles, c.cycles, "request {}", w.id);
            assert_eq!(w.perf, c.perf, "request {}", w.id);
        }
    }

    #[test]
    fn hang_armed_request_is_reaped_and_still_served() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            hangs: Some(HangFaults::range(3, 1, 2)),
            heartbeat_horizon_ms: 20,
            ..PoolConfig::default()
        })
        .unwrap();
        for id in 0..4u64 {
            pool.submit_blocking(valid_request(&pool, id, Variant::W4, 2))
                .unwrap();
        }
        let report = pool.shutdown();
        // No request lost, the hang-armed one included; exactly one
        // reap was recorded.
        assert_eq!(report.responses.len(), 4);
        assert!(report.responses.iter().all(|r| r.outcome == Outcome::Ok));
        assert_eq!(report.stats.reaps, 1);
    }

    #[test]
    fn hang_injection_does_not_change_response_content() {
        // The same 6-request trace with and without a hang on id 2:
        // every deterministic response field must be identical — a
        // reaped worker re-forks cold, which is bit-exact with any
        // other cold serve.
        let serve = |hangs: Option<HangFaults>| {
            let pool = ServePool::start(PoolConfig {
                workers: 1,
                hangs,
                heartbeat_horizon_ms: if hangs.is_some() { 15 } else { 0 },
                ..PoolConfig::default()
            })
            .unwrap();
            for id in 0..6u64 {
                pool.submit_blocking(valid_request(&pool, id, Variant::W2, 1))
                    .unwrap();
            }
            pool.shutdown()
        };
        let wedged = serve(Some(HangFaults::range(9, 2, 3)));
        let clean = serve(None);
        assert_eq!(wedged.stats.reaps, 1);
        assert_eq!(clean.stats.reaps, 0);
        assert_eq!(wedged.responses.len(), clean.responses.len());
        for (a, b) in wedged.responses.iter().zip(&clean.responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.outcome, b.outcome, "request {}", a.id);
            assert_eq!(a.output, b.output, "request {}", a.id);
            assert_eq!(a.cycles, b.cycles, "request {}", a.id);
            assert_eq!(a.perf, b.perf, "request {}", a.id);
        }
    }

    #[test]
    fn corrupted_template_is_quarantined_rebuilt_and_serves_clean() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        })
        .unwrap();
        pool.corrupt_template(Variant::W4, 77);
        // The first cold fork after the corruption must catch it,
        // rebuild the template, and serve every request cleanly.
        for id in 0..3u64 {
            pool.submit_blocking(valid_request(&pool, id, Variant::W4, 3))
                .unwrap();
        }
        let report = pool.shutdown();
        assert_eq!(report.responses.len(), 3);
        assert!(report.responses.iter().all(|r| r.outcome == Outcome::Ok));
        assert_eq!(report.stats.quarantines, 1);
    }

    #[test]
    fn unverified_forks_still_serve_golden_via_the_ladder() {
        // With fork verification off, a corrupted template is NOT
        // caught at fork time — the degradation ladder is the
        // backstop: outputs still verify against the golden model
        // (possibly as Recovered/Degraded), no worker dies, and no
        // quarantine is recorded.
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            verify_forks: false,
            ..PoolConfig::default()
        })
        .unwrap();
        pool.corrupt_template(Variant::W4, 77);
        let template = pool.template(Variant::W4);
        let input = vec![3i16; template.input_len()];
        let golden = template.golden(&input);
        pool.submit_blocking(Request {
            id: 0,
            variant: Variant::W4,
            input,
        })
        .unwrap();
        let report = pool.shutdown();
        assert_eq!(report.responses.len(), 1);
        assert_eq!(report.responses[0].output, golden);
        assert_eq!(report.stats.quarantines, 0);
    }

    /// Satellite pin: responses recorded between `close()` and the
    /// final drain survive a worker re-fork mid-shutdown. The worker
    /// is wedged on request 0 when shutdown begins; the monitor reaps
    /// it *during* shutdown, the worker re-forks and serves 0..3, and
    /// the report must carry all of them.
    #[test]
    fn mid_shutdown_refork_loses_no_response() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            hangs: Some(HangFaults::range(11, 0, 1)),
            heartbeat_horizon_ms: 30,
            ..PoolConfig::default()
        })
        .unwrap();
        for id in 0..3u64 {
            pool.submit_blocking(valid_request(&pool, id, Variant::W8, 1))
                .unwrap();
        }
        // Shutdown begins while the worker is still wedged on id 0.
        let report = pool.shutdown();
        assert_eq!(
            report.responses.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(report.responses.iter().all(|r| r.outcome == Outcome::Ok));
        assert_eq!(report.stats.reaps, 1);
    }

    #[test]
    fn drain_responses_and_wait_completed_window_the_stream() {
        let pool = ServePool::start(PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        })
        .unwrap();
        for id in 0..4u64 {
            pool.submit_blocking(valid_request(&pool, id, Variant::W8, 1))
                .unwrap();
        }
        pool.wait_completed(4);
        let first = pool.drain_responses();
        assert_eq!(
            first.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // completed() is cumulative: the drain did not reset it.
        assert_eq!(pool.completed(), 4);
        for id in 4..6u64 {
            pool.submit_blocking(valid_request(&pool, id, Variant::W8, 1))
                .unwrap();
        }
        pool.wait_completed(6);
        let second = pool.drain_responses();
        assert_eq!(second.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4, 5]);
        // Shutdown returns only what was recorded after the last drain.
        let report = pool.shutdown();
        assert!(report.responses.is_empty());
        assert_eq!(report.stats.served, 6);
    }
}
