//! Scheduler internals: one FIFO queue per priority class, with aging.
//!
//! One mutex guards all of this (`Engine` holds `Mutex<Core>`); workers
//! take the lock only to pick or retire a job, never while running one.
//!
//! The scheduler normally serves the highest-priority non-empty queue,
//! but a lower-class job whose queue wait exceeds the aging threshold is
//! served first, so sustained high-priority load cannot starve background
//! classes indefinitely.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::op::{CompletionState, Priority};
use crate::stats::EngineStats;

/// An opaque background job (prefetch population, write-behind batch,
/// checkpoint, lazy-index item).
pub(crate) type Job = Box<dyn FnOnce() -> hfad_storage::Result<()> + Send>;

/// One admitted job waiting to run.
pub(crate) struct Pending {
    pub(crate) class: Priority,
    enqueued: Instant,
    pub(crate) job: Job,
    pub(crate) completion: Arc<CompletionState>,
}

pub(crate) struct Core {
    /// Runnable jobs per class, FIFO within a class.
    runnable: [VecDeque<Pending>; 3],
    /// In-flight jobs per class (admitted, not completed) for admission
    /// control.
    depth: [usize; 3],
    /// Jobs currently running on a worker.
    executing: usize,
    pub(crate) shutdown: bool,
    pub(crate) stats: EngineStats,
}

impl Core {
    pub(crate) fn new() -> Core {
        Core {
            runnable: Default::default(),
            depth: [0; 3],
            executing: 0,
            shutdown: false,
            stats: EngineStats::default(),
        }
    }

    /// Jobs queued or running. Zero means the engine is idle.
    pub(crate) fn total_pending(&self) -> usize {
        self.runnable.iter().map(VecDeque::len).sum::<usize>() + self.executing
    }

    pub(crate) fn depth_of(&self, class: Priority) -> usize {
        self.depth[class.index()]
    }

    /// Admits `job` at `class`. Caller has already applied admission
    /// control (capacity check) under the same lock.
    pub(crate) fn admit(&mut self, class: Priority, job: Job, completion: Arc<CompletionState>) {
        self.depth[class.index()] += 1;
        let stats = &mut self.stats.classes[class.index()];
        stats.submitted += 1;
        stats.max_depth = stats.max_depth.max(self.depth[class.index()] as u64);
        self.runnable[class.index()].push_back(Pending {
            class,
            enqueued: Instant::now(),
            job,
            completion,
        });
    }

    /// Picks the next job to run, or `None` if nothing is queued.
    /// Increments `executing` for a returned job.
    pub(crate) fn pop_next(&mut self, aging: Duration) -> Option<Pending> {
        let now = Instant::now();
        // Aging pass: among lower-class queue heads that have waited past
        // the threshold, serve the longest-waiting one first.
        let mut aged: Option<usize> = None;
        for class in 1..3 {
            if let Some(head) = self.runnable[class].front() {
                if now.duration_since(head.enqueued) >= aging
                    && aged.is_none_or(|a| head.enqueued < self.runnable[a][0].enqueued)
                {
                    aged = Some(class);
                }
            }
        }
        let class = match aged {
            Some(class) => {
                self.stats.classes[class].aged += 1;
                class
            }
            None => (0..3).find(|&c| !self.runnable[c].is_empty())?,
        };
        let job = self.runnable[class].pop_front().unwrap();
        self.executing += 1;
        self.stats.classes[class].wait_us += now.duration_since(job.enqueued).as_micros() as u64;
        Some(job)
    }

    /// Retires a finished job: frees its admission slot and updates the
    /// class counters.
    pub(crate) fn retire(&mut self, class: Priority, succeeded: bool, service: Duration) {
        self.executing -= 1;
        self.depth[class.index()] -= 1;
        let stats = &mut self.stats.classes[class.index()];
        if succeeded {
            stats.completed += 1;
        } else {
            stats.failed += 1;
        }
        stats.service_us += service.as_micros() as u64;
    }
}
