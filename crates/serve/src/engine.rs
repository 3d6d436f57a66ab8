//! The persistent explain engine: one trained forest, one warm scratch
//! pool, one eval cache — many requests.
//!
//! An [`Engine`] owns everything expensive: the dataset split, the
//! trained DaRE forest, and the cross-request [`EvalCache`]. Calling
//! [`Engine::serve`] brings up a bounded work queue drained by a fixed
//! worker pool (threads come from [`fume_tabular::workers`], the
//! workspace's single threading choke point) and hands the caller an
//! [`EngineHandle`] to submit jobs through. Every job funnels through
//! [`fume_core::Fume::run`] with [`RemovalSpec::Shared`], so the server
//! executes the exact same code path as the library and the CLI.
//!
//! Admission control is strict: a full queue rejects with
//! [`ServeError::Busy`] immediately — submission never blocks and never
//! hangs. Shutdown is a graceful drain: jobs already queued complete,
//! new submissions are refused, and `serve` returns only after every
//! worker has exited.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fume_obs::clock::Duration;
use fume_obs::sync::{Counter, TrackedCondvar, TrackedGuard, TrackedMutex};

use fume_core::checkpoint;
use fume_core::{
    DareRemoval, ExplainRequest, Fume, FumeConfig, FumeError, FumeReport, Prepared, RemovalSpec,
};
use fume_fairness::FairnessMetric;
use fume_forest::DareForest;
use fume_lattice::SupportRange;
use fume_obs::clock::Stopwatch;
use fume_tabular::{workers, Dataset, GroupSpec};

use crate::cache::{rho_scope, CacheStats, EvalCache, ScopedMemo};

/// Sizing and placement knobs for an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads draining the job queue (concurrent jobs).
    pub workers: usize,
    /// Maximum number of *queued* (not yet running) jobs before
    /// submissions are rejected with [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Eval-parallelism *within* one job (`FumeConfig::n_jobs` of the
    /// per-job config). Keep at 1 when `workers > 1`: cross-job
    /// parallelism already saturates the scratch pool.
    pub job_jobs: usize,
    /// Entry capacity of the cross-request eval cache; 0 disables it.
    pub cache_capacity: usize,
    /// When set, every job checkpoints its search into its own directory
    /// (`<root>/job-<id>`), resumable with `fume-cli explain --resume`;
    /// no forest is persisted, and the reports do not change.
    pub checkpoint_root: Option<std::path::PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            job_jobs: 1,
            cache_capacity: 4096,
            checkpoint_root: None,
        }
    }
}

/// Per-request overrides of the engine's base [`FumeConfig`]. Only the
/// search-shaping knobs are overridable per request; the dataset, the
/// forest, and the worker layout are engine-lifetime decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainOverrides {
    /// Fairness metric to explain (engine default when `None`).
    pub metric: Option<FairnessMetric>,
    /// Support range `(min, max)` for pruning rule 2.
    pub support: Option<(f64, f64)>,
    /// Interpretability cap on literals per subset.
    pub max_literals: Option<usize>,
    /// How many subsets to report.
    pub top_k: Option<usize>,
    /// Debug-build-only test facility: sleep this long before running
    /// the search, to make queue-full and shutdown windows reachable
    /// deterministically from tests. Ignored in release builds.
    pub sleep_ms: u64,
}

/// What a job asks the engine to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Run the FUME search with the given overrides.
    Explain(ExplainOverrides),
    /// Snapshot the engine's counters (queued like any job, so the
    /// snapshot orders after previously submitted work).
    Stats,
}

/// A successful job's payload.
#[derive(Debug, Clone)]
pub enum JobReply {
    /// The explain report.
    Report(FumeReport),
    /// The counter snapshot.
    Stats(EngineStats),
}

/// How a job failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The queue was full; try again later. Carries the configured
    /// depth so clients can size their backoff.
    Busy {
        /// The engine's configured queue depth.
        queue_depth: usize,
    },
    /// The engine is draining and accepts no new work.
    ShuttingDown,
    /// The request itself was malformed (bad support range, unknown
    /// metric tag, ...).
    BadRequest(String),
    /// The underlying FUME run failed.
    Fume(FumeError),
    /// The job panicked; the worker survived and the engine keeps
    /// serving.
    JobPanicked,
}

impl ServeError {
    /// A stable machine-readable discriminant (the protocol's
    /// `error.kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Busy { .. } => "busy",
            Self::ShuttingDown => "shutting_down",
            Self::BadRequest(_) => "bad_request",
            Self::Fume(_) => "fume",
            Self::JobPanicked => "job_panicked",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Busy { queue_depth } => {
                write!(f, "engine busy: queue full at depth {queue_depth}")
            }
            Self::ShuttingDown => f.write_str("engine is shutting down"),
            Self::BadRequest(why) => write!(f, "bad request: {why}"),
            Self::Fume(e) => write!(f, "explain failed: {e}"),
            Self::JobPanicked => f.write_str("job panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FumeError> for ServeError {
    fn from(e: FumeError) -> Self {
        Self::Fume(e)
    }
}

/// The result a [`Ticket`] resolves to.
pub type JobOutcome = Result<JobReply, ServeError>;

/// Monotonic engine counters plus the cache's view, as of one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Jobs executed (including failed ones).
    pub jobs: u64,
    /// Jobs that returned an error or panicked.
    pub jobs_failed: u64,
    /// Submissions refused because the queue was full.
    pub busy_rejections: u64,
    /// The eval cache's counters.
    pub cache: CacheStats,
}

struct Slot {
    result: TrackedMutex<Option<JobOutcome>>,
    done: TrackedCondvar,
}

/// A claim on one submitted job's eventual outcome. Every accepted
/// submission resolves — drained, failed, and panicked jobs all fill
/// their ticket.
#[must_use = "a ticket that is never waited on discards the job's outcome"]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the job finishes and takes its outcome.
    pub fn wait(self) -> JobOutcome {
        let mut guard = self.slot.result.lock();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.slot.done.wait(guard);
        }
    }
}

struct Job {
    id: u64,
    spec: JobSpec,
    slot: Arc<Slot>,
    enqueued: Stopwatch,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared<'e> {
    engine: &'e Engine,
    removal: DareRemoval<'e>,
    /// The model's snapshot, level 1 and (under a checkpoint root)
    /// fingerprint, attached to every job.
    prepared: Result<Prepared, FumeError>,
    state: TrackedMutex<QueueState>,
    work: TrackedCondvar,
    next_id: Counter,
}

impl Shared<'_> {
    fn lock(&self) -> TrackedGuard<'_, QueueState> {
        self.state.lock()
    }

    fn execute(&self, id: u64, spec: &JobSpec) -> JobOutcome {
        match spec {
            JobSpec::Stats => Ok(JobReply::Stats(self.engine.stats())),
            JobSpec::Explain(overrides) => {
                let _span = fume_obs::span!("fume.serve.job", job = id);
                fume_obs::fault::fault_point("serve-mid-job");
                if overrides.sleep_ms > 0 && cfg!(debug_assertions) {
                    std::thread::sleep(Duration::from_millis(overrides.sleep_ms));
                }
                let engine = self.engine;
                let cfg = engine.job_config(id, overrides)?;
                let prepared = self.prepared.as_ref().map_err(|e| ServeError::Fume(e.clone()))?;
                let scope = rho_scope(engine.fingerprint, cfg.metric, &cfg.forest);
                let memo = ScopedMemo::new(&engine.cache, scope);
                let fume = Fume::new(cfg);
                let request = engine
                    .request()
                    .with_removal(RemovalSpec::Shared(&self.removal))
                    .with_memo(&memo)
                    .with_prepared(prepared);
                let report = fume.run(&request)?;
                Ok(JobReply::Report(report))
            }
        }
    }
}

fn worker_loop(shared: &Shared<'_>, _index: usize) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.work.wait(state);
            }
        };
        fume_obs::histogram!("fume.serve.queue_wait_ns", job.enqueued.elapsed_nanos());
        shared.engine.jobs.add(1);
        fume_obs::counter!("fume.serve.jobs", 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| shared.execute(job.id, &job.spec)))
            .unwrap_or(Err(ServeError::JobPanicked));
        if outcome.is_err() {
            shared.engine.jobs_failed.add(1);
            fume_obs::counter!("fume.serve.jobs_failed", 1);
        }
        // fume-lint: allow(F010) -- lock-order: serve.engine.queue < serve.engine.slot (the queue guard is released before a slot result is filled)
        let mut result = job.slot.result.lock();
        *result = Some(outcome);
        job.slot.done.notify_all();
    }
}

/// The submission surface handed to [`Engine::serve`]'s closure. Copy
/// it freely into client threads; all methods are `&self` and
/// non-blocking except [`Ticket::wait`].
#[derive(Clone, Copy)]
pub struct EngineHandle<'s, 'e> {
    shared: &'s Shared<'e>,
}

impl EngineHandle<'_, '_> {
    /// Submits a job. Returns immediately: either a [`Ticket`] or a
    /// typed refusal ([`ServeError::Busy`] / [`ServeError::ShuttingDown`]).
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, ServeError> {
        let engine = self.shared.engine;
        let mut state = self.shared.lock();
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= engine.opts.queue_depth {
            drop(state);
            engine.busy_rejections.add(1);
            fume_obs::counter!("fume.serve.busy_rejections", 1);
            return Err(ServeError::Busy { queue_depth: engine.opts.queue_depth });
        }
        let slot = Arc::new(Slot {
            result: TrackedMutex::new("serve.engine.slot", None),
            done: TrackedCondvar::new(),
        });
        let job = Job {
            id: self.shared.next_id.add(1),
            spec,
            slot: Arc::clone(&slot),
            enqueued: Stopwatch::start(),
        };
        state.queue.push_back(job);
        drop(state);
        self.shared.work.notify_one();
        Ok(Ticket { slot })
    }

    /// Convenience: submit an explain job.
    pub fn explain(&self, overrides: ExplainOverrides) -> Result<Ticket, ServeError> {
        self.submit(JobSpec::Explain(overrides))
    }

    /// The engine's counters right now (unordered with queued work; for
    /// an ordered snapshot submit [`JobSpec::Stats`]).
    pub fn stats(&self) -> EngineStats {
        self.shared.engine.stats()
    }

    /// Begins the graceful drain: refuses new work, wakes idle workers,
    /// lets queued jobs finish.
    pub fn shutdown(&self) {
        let mut state = self.shared.lock();
        state.shutting_down = true;
        drop(state);
        self.shared.work.notify_all();
    }

    /// Whether [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.lock().shutting_down
    }

    /// Jobs currently waiting in the queue (not yet picked up).
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

/// A persistent FUME explain engine: dataset + trained forest + eval
/// cache, amortized across every request it serves.
pub struct Engine {
    config: FumeConfig,
    opts: EngineOptions,
    train: Dataset,
    test: Dataset,
    group: GroupSpec,
    forest: DareForest,
    fingerprint: u64,
    cache: EvalCache,
    jobs: Counter,
    jobs_failed: Counter,
    busy_rejections: Counter,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("train_rows", &self.train.num_rows())
            .field("test_rows", &self.test.num_rows())
            .field("group", &self.group)
            .field("opts", &self.opts)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl Engine {
    /// Trains the forest from `config` and builds the engine around it.
    pub fn new(
        config: FumeConfig,
        train: Dataset,
        test: Dataset,
        group: GroupSpec,
        opts: EngineOptions,
    ) -> Result<Self, FumeError> {
        if train.is_empty() || test.is_empty() {
            return Err(FumeError::EmptyData);
        }
        let forest = {
            let _span = fume_obs::span!("fume.phase.train");
            DareForest::fit(&train, config.forest.clone())
        };
        Self::with_forest(config, train, test, group, forest, opts)
    }

    /// Builds the engine around an already-trained forest (which must
    /// have been fitted on exactly the rows of `train`).
    pub fn with_forest(
        config: FumeConfig,
        train: Dataset,
        test: Dataset,
        group: GroupSpec,
        forest: DareForest,
        opts: EngineOptions,
    ) -> Result<Self, FumeError> {
        if train.is_empty() || test.is_empty() {
            return Err(FumeError::EmptyData);
        }
        let fingerprint = checkpoint::fingerprint(&train, &test, group);
        let cache = EvalCache::new(opts.cache_capacity);
        Ok(Self {
            config,
            opts,
            train,
            test,
            group,
            forest,
            fingerprint,
            cache,
            jobs: Counter::new(0),
            jobs_failed: Counter::new(0),
            busy_rejections: Counter::new(0),
        })
    }

    /// The engine's base configuration (per-request overrides layer on
    /// top of this).
    pub fn config(&self) -> &FumeConfig {
        &self.config
    }

    /// The engine's sizing options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The dataset fingerprint every cache scope is derived from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The trained forest being explained.
    pub fn forest(&self) -> &DareForest {
        &self.forest
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            jobs: self.jobs.get(),
            jobs_failed: self.jobs_failed.get(),
            busy_rejections: self.busy_rejections.get(),
            cache: self.cache.stats(),
        }
    }

    /// A request for the engine's data and forest.
    fn request(&self) -> ExplainRequest<'_> {
        ExplainRequest::new(&self.train, &self.test, self.group).with_model(&self.forest)
    }

    /// The per-job config: base config + request overrides + engine
    /// placement (worker layout, per-job checkpoint directory). A config
    /// the search would refuse is a bad request.
    fn job_config(&self, id: u64, overrides: &ExplainOverrides) -> Result<FumeConfig, ServeError> {
        let mut cfg = self.config.clone();
        if let Some(metric) = overrides.metric {
            cfg.metric = metric;
        }
        if let Some((min, max)) = overrides.support {
            cfg.support = SupportRange::new(min, max)
                .map_err(|e| ServeError::BadRequest(format!("support range: {e}")))?;
        }
        if let Some(eta) = overrides.max_literals {
            cfg.max_literals = eta;
        }
        if let Some(k) = overrides.top_k {
            cfg.top_k = k;
        }
        cfg.search_params().map_err(|e| ServeError::BadRequest(e.to_string()))?;
        cfg.n_jobs = Some(self.opts.job_jobs.max(1));
        cfg.checkpoint_dir =
            self.opts.checkpoint_root.as_ref().map(|root| root.join(format!("job-{id}")));
        Ok(cfg)
    }

    /// What every job of a session shares: the model's fairness
    /// snapshot, level 1 under the base config's literal configuration
    /// (no override changes it), and, under a checkpoint root, the
    /// fingerprint every job checkpoints under.
    fn prepare(&self) -> Result<Prepared, FumeError> {
        let mut config = self.config.clone();
        config.checkpoint_dir.clone_from(&self.opts.checkpoint_root);
        Prepared::new(&self.request(), &config)
    }

    /// Runs the engine: brings up the worker pool around a warm scratch
    /// pool and the session's [`Prepared`] value, calls `f` with a
    /// submission handle, then drains and joins.
    ///
    /// Jobs submitted by `f` (from any thread `f` fans out to — the
    /// handle is `Copy + Sync`) execute on the pool concurrently.
    /// `serve` returns `f`'s value after the queue is drained and every
    /// worker has exited; if `f` panics, the drain still completes
    /// before the panic resumes.
    pub fn serve<T: Send>(&self, f: impl FnOnce(EngineHandle<'_, '_>) -> T + Send) -> T {
        // Warming builds the leaf routes once per session; building them
        // in `with_forest` would add to the setup of every engine.
        let removal = DareRemoval::new(&self.forest, &self.train).with_test(&self.test);
        {
            use fume_core::RemovalMethod;
            removal.warm(self.opts.workers.max(1) * self.opts.job_jobs.max(1));
        }
        let shared = Shared {
            engine: self,
            removal,
            prepared: self.prepare(),
            state: TrackedMutex::new("serve.engine.queue", QueueState::default()),
            work: TrackedCondvar::new(),
            next_id: Counter::new(0),
        };
        workers::scoped_workers(
            self.opts.workers.max(1),
            |i| worker_loop(&shared, i),
            || {
                let handle = EngineHandle { shared: &shared };
                let out = catch_unwind(AssertUnwindSafe(|| f(handle)));
                handle.shutdown();
                match out {
                    Ok(v) => v,
                    Err(payload) => resume_unwind(payload),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    /// Engine tests share the process-global fault-injection state and
    /// spin up competing worker pools, so they run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn small_engine(opts: EngineOptions) -> Engine {
        let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
        let config = FumeConfig::default()
            .with_forest(fume_forest::DareConfig::small(3))
            .with_support(SupportRange::new(0.02, 0.25).unwrap());
        Engine::new(config, train, test, group, opts).unwrap()
    }

    #[test]
    fn serves_one_explain_job() {
        let _g = serial();
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let reply = engine
            .serve(|h| h.explain(ExplainOverrides::default()).unwrap().wait())
            .unwrap();
        let JobReply::Report(report) = reply else {
            panic!("expected a report");
        };
        assert!(!report.top_k.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.jobs_failed, 0);
        assert!(stats.cache.misses > 0, "cold run must miss the cache");
    }

    #[test]
    fn repeated_job_is_served_from_cache() {
        let _g = serial();
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let (first, second) = engine.serve(|h| {
            let first = h.explain(ExplainOverrides::default()).unwrap().wait().unwrap();
            let second = h.explain(ExplainOverrides::default()).unwrap().wait().unwrap();
            (first, second)
        });
        let (JobReply::Report(a), JobReply::Report(b)) = (first, second) else {
            panic!("expected two reports");
        };
        assert_eq!(a.to_json(), b.to_json(), "cache hit must not change the report");
        let stats = engine.stats();
        assert!(stats.cache.hits >= stats.cache.misses, "warm run should hit, not re-miss");
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn queue_full_rejects_with_busy() {
        let _g = serial();
        if !cfg!(debug_assertions) {
            return; // needs the debug-only sleep_ms facility
        }
        let engine = small_engine(EngineOptions {
            workers: 1,
            queue_depth: 1,
            ..EngineOptions::default()
        });
        let outcome = engine.serve(|h| {
            // Occupy the single worker long enough to fill the queue.
            let blocker = h
                .explain(ExplainOverrides { sleep_ms: 300, ..ExplainOverrides::default() })
                .unwrap();
            // Wait until the worker has actually dequeued the blocker.
            while h.queue_len() > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let queued = h.explain(ExplainOverrides::default()).unwrap();
            let rejected = h.explain(ExplainOverrides::default());
            let rejected2 = h.submit(JobSpec::Stats);
            let kinds = (
                rejected.err().map(|e| e.kind()),
                rejected2.err().map(|e| e.kind()),
            );
            blocker.wait().unwrap();
            queued.wait().unwrap();
            kinds
        });
        assert_eq!(outcome, (Some("busy"), Some("busy")));
        assert_eq!(engine.stats().busy_rejections, 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let _g = serial();
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let (queued_ok, refused_kind) = engine.serve(|h| {
            let queued = h
                .explain(ExplainOverrides { sleep_ms: 100, ..ExplainOverrides::default() })
                .unwrap();
            h.shutdown();
            let refused = h.explain(ExplainOverrides::default());
            (queued.wait().is_ok(), refused.err().map(|e| e.kind()))
        });
        assert!(queued_ok, "jobs queued before shutdown must drain to completion");
        assert_eq!(refused_kind, Some("shutting_down"));
    }

    #[test]
    fn panicking_job_fails_its_ticket_but_engine_survives() {
        let _g = serial();
        if !cfg!(debug_assertions) {
            return; // fault injection only exists in debug builds
        }
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let (first_kind, second_ok) = engine.serve(|h| {
            fume_obs::fault::arm("serve-mid-job", 1);
            let doomed = h.explain(ExplainOverrides::default()).unwrap();
            let first = doomed.wait();
            fume_obs::fault::disarm();
            let survivor = h.explain(ExplainOverrides::default()).unwrap();
            (first.err().map(|e| e.kind()), survivor.wait().is_ok())
        });
        assert_eq!(first_kind, Some("job_panicked"));
        assert!(second_ok, "engine must keep serving after a job panic");
        assert_eq!(engine.stats().jobs_failed, 1);
    }

    #[test]
    fn stats_job_orders_after_prior_explains() {
        let _g = serial();
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let stats = engine.serve(|h| {
            let explain = h.explain(ExplainOverrides::default()).unwrap();
            let stats = h.submit(JobSpec::Stats).unwrap();
            explain.wait().unwrap();
            stats.wait().unwrap()
        });
        let JobReply::Stats(stats) = stats else {
            panic!("expected stats");
        };
        assert!(stats.cache.misses > 0, "stats job ran after the explain");
    }

    #[test]
    fn bad_support_range_is_a_bad_request() {
        let _g = serial();
        let engine = small_engine(EngineOptions { workers: 1, ..EngineOptions::default() });
        let kind = engine.serve(|h| {
            h.explain(ExplainOverrides {
                support: Some((0.9, 0.1)),
                ..ExplainOverrides::default()
            })
            .unwrap()
            .wait()
            .err()
            .map(|e| e.kind())
        });
        assert_eq!(kind, Some("bad_request"));
    }
}
