//! The engine proper: submission API, admission control and worker pool.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hfad_index::{BackgroundExecutor, SubmitError};

use crate::error::{EngineError, Result};
use crate::op::{Completion, CompletionState, Priority};
use crate::sched::Core;
use crate::stats::EngineStats;

/// Admission control for one priority class.
///
/// At capacity, [`Priority::ReadAhead`] submitters are refused with
/// [`EngineError::QueueFull`]; every other class blocks its submitter
/// until a slot frees up.
#[derive(Debug, Clone, Copy)]
pub struct ClassConfig {
    /// Maximum in-flight jobs (admitted, not yet completed).
    pub capacity: usize,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads draining the scheduler (minimum 1).
    pub workers: usize,
    /// Queue wait after which a lower-priority job is served ahead of
    /// higher classes (the starvation bound).
    pub aging: Duration,
    /// Per-class admission control, in [`Priority::ALL`] order.
    pub classes: [ClassConfig; 3],
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            aging: Duration::from_millis(5),
            classes: [
                // Write-behind backpressure keeps dirty pages bounded.
                ClassConfig { capacity: 1024 },
                // Speculative prefetch is the first thing to drop.
                ClassConfig { capacity: 256 },
                // Lazy indexing blocks its producer (bounded backlog).
                ClassConfig { capacity: 1024 },
            ],
        }
    }
}

struct Shared {
    config: EngineConfig,
    core: Mutex<Core>,
    /// Single condvar for all scheduler events (work arrival, completion,
    /// admission vacancy, idle, shutdown); notified broadly. Simpler than
    /// three condvars and plenty for single-digit worker counts.
    cv: Condvar,
}

/// A priority job executor: background jobs tagged with a [`Priority`]
/// class are admitted under per-class capacity limits and drained by a
/// worker pool, highest class first with aging. Each submission returns
/// a [`Completion`] token that carries the job's error, if any.
///
/// ```
/// use hfad_engine::{Engine, Priority};
///
/// let engine = Engine::new();
/// let token = engine
///     .submit_job(Priority::Index, Box::new(|| Ok(())))
///     .unwrap();
/// token.wait().unwrap();
/// engine.wait_idle();
/// assert_eq!(engine.stats().class(Priority::Index).completed, 1);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts an engine with [`EngineConfig::default`].
    pub fn new() -> Arc<Engine> {
        Engine::with_config(EngineConfig::default())
    }

    /// Starts an engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Arc<Engine> {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            core: Mutex::new(Core::new()),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Arc::new(Engine {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// Submits a background job at `class` and returns its completion
    /// token. The job's error (if any) lands on the token. At capacity a
    /// [`Priority::ReadAhead`] job is refused with
    /// [`EngineError::QueueFull`]; other classes block until admitted.
    pub fn submit_job(
        &self,
        class: Priority,
        job: Box<dyn FnOnce() -> hfad_storage::Result<()> + Send>,
    ) -> Result<Completion> {
        let shared = &self.shared;
        let capacity = shared.config.classes[class.index()].capacity;
        let mut core = shared.core.lock().unwrap();
        loop {
            if core.shutdown {
                return Err(EngineError::Shutdown);
            }
            if core.depth_of(class) < capacity {
                break;
            }
            if class.sheds_load() {
                core.stats.classes[class.index()].rejected += 1;
                return Err(EngineError::QueueFull);
            }
            core = shared.cv.wait(core).unwrap();
        }
        let state = CompletionState::new();
        core.admit(class, job, Arc::clone(&state));
        drop(core);
        shared.cv.notify_all();
        Ok(Completion { state })
    }

    /// Blocks until every admitted job has completed. New submissions
    /// arriving while waiting extend the wait.
    pub fn wait_idle(&self) {
        let mut core = self.shared.core.lock().unwrap();
        while core.total_pending() > 0 {
            core = self.shared.cv.wait(core).unwrap();
        }
    }

    /// Snapshot of the per-class counters.
    ///
    /// Counters are updated when a worker retires a job, which can lag
    /// the job's own completion token by a scheduling instant — after
    /// `token.wait()` the matching counter increment may not be
    /// visible yet. Call [`Engine::wait_idle`] first for an exact
    /// quiescent snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.core.lock().unwrap().stats
    }

    /// A [`BackgroundExecutor`] handle that submits jobs at `class`.
    ///
    /// The engine itself implements [`BackgroundExecutor`] at
    /// [`Priority::Index`] for lazy indexing; this adapter lets other
    /// consumers ride a different class — the OSD's journal checkpointer
    /// drains through [`Priority::WriteBehind`], so checkpoint I/O is
    /// scheduled (and admission-bounded) exactly like dirty-page
    /// writeback.
    pub fn executor(self: &Arc<Engine>, class: Priority) -> Arc<dyn BackgroundExecutor> {
        Arc::new(ClassExecutor {
            engine: Arc::clone(self),
            class,
        })
    }

    /// Stops accepting work, drains every job already admitted and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut core = self.shared.core.lock().unwrap();
            core.shutdown = true;
        }
        self.shared.cv.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Runs an infallible [`BackgroundExecutor`] job at `class`.
    fn submit_background_at(
        &self,
        class: Priority,
        job: Box<dyn FnOnce() + Send>,
    ) -> std::result::Result<(), SubmitError> {
        self.submit_job(
            class,
            Box::new(move || {
                job();
                Ok(())
            }),
        )
        .map(|_| ())
        .map_err(|e| match e {
            EngineError::QueueFull => SubmitError::Full,
            _ => SubmitError::Stopped,
        })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lazy indexing rides the [`Priority::Index`] class: the engine is the
/// executor behind [`hfad_index::LazyIndexer::with_executor`], so index
/// maintenance shares one scheduler with read-ahead and write-behind and
/// is bounded by the Index class's admission control.
impl BackgroundExecutor for Engine {
    fn submit_background(
        &self,
        job: Box<dyn FnOnce() + Send>,
    ) -> std::result::Result<(), SubmitError> {
        self.submit_background_at(Priority::Index, job)
    }
}

/// [`Engine::executor`]'s handle: a [`BackgroundExecutor`] pinned to one
/// priority class.
struct ClassExecutor {
    engine: Arc<Engine>,
    class: Priority,
}

impl BackgroundExecutor for ClassExecutor {
    fn submit_background(
        &self,
        job: Box<dyn FnOnce() + Send>,
    ) -> std::result::Result<(), SubmitError> {
        self.engine.submit_background_at(self.class, job)
    }
}

fn worker_loop(shared: &Shared) {
    let mut core = shared.core.lock().unwrap();
    loop {
        if let Some(pending) = core.pop_next(shared.config.aging) {
            drop(core);

            let started = Instant::now();
            let result = (pending.job)().map_err(EngineError::Storage);
            let service = started.elapsed();
            let succeeded = result.is_ok();
            pending.completion.fulfil(result);

            core = shared.core.lock().unwrap();
            core.retire(pending.class, succeeded, service);
            // Completion frees admission capacity and may make the engine
            // idle; wake submitters and waiters.
            drop(core);
            shared.cv.notify_all();
            core = shared.core.lock().unwrap();
            continue;
        }
        if core.shutdown && core.total_pending() == 0 {
            drop(core);
            // Last one out wakes any thread stuck in wait_idle/shutdown.
            shared.cv.notify_all();
            return;
        }
        core = shared.cv.wait(core).unwrap();
    }
}
