//! Lazy, background full-text indexing.
//!
//! The paper: "we use background threads to perform lazy full-text
//! indexing" (§3.4). [`LazyIndexer`] accepts `(object, text)` work and
//! processes it in the background; callers continue immediately.
//! Experiment E4 compares the ingest throughput of this lazy path against
//! synchronous (eager) indexing.
//!
//! Two execution backends are supported:
//!
//! * **Own pool** ([`LazyIndexer::new`] / [`LazyIndexer::with_config`]) —
//!   worker threads fed by a **bounded** channel. The seed design used an
//!   unbounded queue, so a producer faster than the indexer grew memory
//!   without limit; now [`LazyConfig::capacity`] bounds the backlog and
//!   [`OverflowPolicy`] picks between blocking the producer and rejecting
//!   the item (rejections are counted in [`LazyStats::rejected`]).
//! * **Shared executor** ([`LazyIndexer::with_executor`]) — no private
//!   threads; each work item is submitted to a [`BackgroundExecutor`]
//!   (in practice the background job engine's `Index` priority class), so
//!   indexing shares one scheduler with read-ahead and write-behind and
//!   inherits the executor's bounded admission as its backpressure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Sender, TrySendError};

use hfad_osd::ObjectId;

use crate::error::{IndexError, Result};
use crate::fulltext::FullTextIndex;

/// What a producer experiences when the lazy-index queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the producer until the queue has room (default: ingest slows
    /// to the indexer's pace instead of growing memory).
    #[default]
    Block,
    /// Fail the enqueue with [`IndexError::QueueFull`]; the caller decides
    /// whether to retry, drop, or index synchronously.
    Reject,
}

/// Configuration for a [`LazyIndexer`] running its own worker pool.
#[derive(Debug, Clone, Copy)]
pub struct LazyConfig {
    /// Background worker threads (minimum 1).
    pub workers: usize,
    /// Maximum queued work items; `0` means unbounded (the seed
    /// behaviour, kept for ablation only).
    pub capacity: usize,
    /// Producer behaviour at capacity.
    pub policy: OverflowPolicy,
}

impl Default for LazyConfig {
    fn default() -> Self {
        LazyConfig {
            workers: 1,
            capacity: DEFAULT_LAZY_CAPACITY,
            policy: OverflowPolicy::Block,
        }
    }
}

/// Default bound on the lazy-index backlog.
pub const DEFAULT_LAZY_CAPACITY: usize = 4096;

// The executor abstraction lives in `hfad_storage` at the bottom of the
// dependency graph (the OSD's journal checkpointer shares it); re-export
// it so existing `hfad_index::BackgroundExecutor` consumers keep working.
pub use hfad_storage::{BackgroundExecutor, SubmitError};

enum WorkItem {
    Index { oid: ObjectId, text: String },
    Remove { oid: ObjectId },
    Shutdown,
}

/// Counters describing the indexer's progress.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LazyStats {
    /// Work items accepted.
    pub enqueued: u64,
    /// Work items fully processed.
    pub completed: u64,
    /// Work items that failed (the error is recorded and the worker moves
    /// on; failures never take the pipeline down).
    pub failed: u64,
    /// Work items refused at the queue boundary ([`OverflowPolicy::Reject`]
    /// or a full [`BackgroundExecutor`]); never counted in `enqueued`.
    pub rejected: u64,
}

/// Item counters shared with the workers or jobs, plus the wake-up
/// [`LazyIndexer::drain`] blocks on.
///
/// The counters are `SeqCst` so that of two items finishing at once, the
/// later one sees both increments and notifies. `enqueued` grows only after
/// an item is handed off, so it may briefly trail `completed + failed`.
#[derive(Default)]
struct Progress {
    enqueued: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Number of threads blocked in `drain`.
    drainers: Mutex<usize>,
    drained: Condvar,
}

impl Progress {
    fn is_drained(&self) -> bool {
        let done = self.completed.load(Ordering::SeqCst) + self.failed.load(Ordering::SeqCst);
        done >= self.enqueued.load(Ordering::SeqCst)
    }

    /// Counts one processed item. Only the item that catches the counters
    /// up with `enqueued` takes the lock, and it notifies only when a
    /// drainer is waiting.
    fn finish<T, E>(&self, outcome: std::result::Result<T, E>) {
        let counter = if outcome.is_ok() {
            &self.completed
        } else {
            &self.failed
        };
        counter.fetch_add(1, Ordering::SeqCst);
        // The lock guards a plain count, valid at every step, so a
        // poisoned one is still usable.
        if self.is_drained() && *self.drainers.lock().unwrap_or_else(PoisonError::into_inner) > 0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut drainers = self.drainers.lock().unwrap_or_else(PoisonError::into_inner);
        *drainers += 1;
        while !self.is_drained() {
            drainers = self
                .drained
                .wait(drainers)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *drainers -= 1;
    }
}

enum Backend {
    Pool {
        sender: Option<Sender<WorkItem>>,
        workers: Vec<JoinHandle<()>>,
        policy: OverflowPolicy,
    },
    Executor {
        executor: Arc<dyn BackgroundExecutor>,
        stopped: AtomicBool,
    },
}

/// Background lazy indexing over a shared [`FullTextIndex`].
pub struct LazyIndexer {
    index: Arc<FullTextIndex>,
    backend: Backend,
    progress: Arc<Progress>,
    rejected: AtomicU64,
}

impl LazyIndexer {
    /// Spawns `workers` background threads indexing into `index`, with the
    /// default bounded queue ([`DEFAULT_LAZY_CAPACITY`], blocking).
    pub fn new(index: Arc<FullTextIndex>, workers: usize) -> Self {
        Self::with_config(
            index,
            LazyConfig {
                workers,
                ..Default::default()
            },
        )
    }

    /// Spawns a worker pool with explicit queue capacity and overflow
    /// policy.
    pub fn with_config(index: Arc<FullTextIndex>, config: LazyConfig) -> Self {
        let workers = config.workers.max(1);
        let (sender, receiver) = if config.capacity == 0 {
            unbounded::<WorkItem>()
        } else {
            // Room for the per-worker shutdown sentinels on top of the
            // configured work capacity, so `shutdown` never blocks.
            bounded::<WorkItem>(config.capacity + workers)
        };
        let progress = Arc::new(Progress::default());
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let receiver = receiver.clone();
            let index = Arc::clone(&index);
            let progress = Arc::clone(&progress);
            handles.push(std::thread::spawn(move || {
                while let Ok(item) = receiver.recv() {
                    match item {
                        WorkItem::Index { oid, text } => {
                            progress.finish(index.index_document(oid, &text))
                        }
                        WorkItem::Remove { oid } => progress.finish(index.remove_document(oid)),
                        WorkItem::Shutdown => break,
                    }
                }
            }));
        }
        LazyIndexer {
            index,
            backend: Backend::Pool {
                sender: Some(sender),
                workers: handles,
                policy: config.policy,
            },
            progress,
            rejected: AtomicU64::new(0),
        }
    }

    /// Creates an indexer with **no threads of its own**: every work item
    /// becomes a job on `executor` (the async engine's `Index` class).
    /// Backpressure is the executor's bounded admission — a refused job
    /// surfaces as [`IndexError::QueueFull`] and a rejection count.
    pub fn with_executor(index: Arc<FullTextIndex>, executor: Arc<dyn BackgroundExecutor>) -> Self {
        LazyIndexer {
            index,
            backend: Backend::Executor {
                executor,
                stopped: AtomicBool::new(false),
            },
            progress: Arc::new(Progress::default()),
            rejected: AtomicU64::new(0),
        }
    }

    /// The full-text index the workers feed.
    pub fn index(&self) -> &Arc<FullTextIndex> {
        &self.index
    }

    /// Routes one work item to the backend, keeping the accounting
    /// invariant: exactly one of `enqueued`/`rejected` grows per call.
    fn dispatch(&self, item: WorkItem) -> Result<()> {
        match &self.backend {
            Backend::Pool { sender, policy, .. } => {
                let sender = sender.as_ref().ok_or(IndexError::IndexerStopped)?;
                match policy {
                    OverflowPolicy::Block => {
                        sender.send(item).map_err(|_| IndexError::IndexerStopped)?
                    }
                    OverflowPolicy::Reject => sender.try_send(item).map_err(|e| match e {
                        TrySendError::Full(_) => {
                            self.rejected.fetch_add(1, Ordering::Relaxed);
                            IndexError::QueueFull
                        }
                        TrySendError::Disconnected(_) => IndexError::IndexerStopped,
                    })?,
                }
            }
            Backend::Executor { executor, stopped } => {
                if stopped.load(Ordering::Acquire) {
                    return Err(IndexError::IndexerStopped);
                }
                let index = Arc::clone(&self.index);
                let progress = Arc::clone(&self.progress);
                let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let outcome = match item {
                        WorkItem::Index { oid, text } => {
                            index.index_document(oid, &text).map(|_| ())
                        }
                        WorkItem::Remove { oid } => index.remove_document(oid).map(|_| ()),
                        WorkItem::Shutdown => Ok(()),
                    };
                    progress.finish(outcome);
                });
                executor.submit_background(job).map_err(|e| match e {
                    SubmitError::Full => {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        IndexError::QueueFull
                    }
                    SubmitError::Stopped => IndexError::IndexerStopped,
                })?;
            }
        }
        self.progress.enqueued.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Enqueues a document for indexing and returns immediately (or, at a
    /// full bounded queue under [`OverflowPolicy::Block`], once there is
    /// room).
    pub fn enqueue(&self, oid: ObjectId, text: impl Into<String>) -> Result<()> {
        self.dispatch(WorkItem::Index {
            oid,
            text: text.into(),
        })
    }

    /// Enqueues removal of every posting for `oid`.
    pub fn enqueue_remove(&self, oid: ObjectId) -> Result<()> {
        self.dispatch(WorkItem::Remove { oid })
    }

    /// Number of items accepted but not yet processed.
    pub fn backlog(&self) -> u64 {
        let s = self.stats();
        // An item can finish before its `enqueued` increment lands.
        s.enqueued.saturating_sub(s.completed + s.failed)
    }

    /// Blocks (without spinning) until every item enqueued so far has been
    /// processed, successfully or not.
    pub fn drain(&self) {
        self.progress.wait_drained();
    }

    /// Progress counters.
    pub fn stats(&self) -> LazyStats {
        let p = &self.progress;
        LazyStats {
            enqueued: p.enqueued.load(Ordering::SeqCst),
            completed: p.completed.load(Ordering::SeqCst),
            failed: p.failed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work. Pool mode joins the worker threads after the
    /// current backlog is processed; executor mode leaves already-submitted
    /// jobs to finish on the shared executor.
    pub fn shutdown(&mut self) {
        match &mut self.backend {
            Backend::Pool {
                sender, workers, ..
            } => {
                if let Some(sender) = sender.take() {
                    for _ in 0..workers.len() {
                        let _ = sender.send(WorkItem::Shutdown);
                    }
                }
                for handle in workers.drain(..) {
                    let _ = handle.join();
                }
            }
            Backend::Executor { stopped, .. } => {
                stopped.store(true, Ordering::Release);
            }
        }
    }
}

impl Drop for LazyIndexer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hfad_btree::TreeContext;
    use hfad_storage::{BlockDevice, BuddyAllocator, DeviceCounters, MemDevice, StorageError};

    use super::*;

    fn fulltext() -> Arc<FullTextIndex> {
        let device = Arc::new(MemDevice::new(65536, 512));
        let allocator = Arc::new(BuddyAllocator::new(1, 65535));
        Arc::new(FullTextIndex::new(TreeContext::new(device, allocator), 4).unwrap())
    }

    #[test]
    fn background_indexing_eventually_visible() {
        let indexer = LazyIndexer::new(fulltext(), 2);
        for i in 0..50u64 {
            indexer
                .enqueue(ObjectId(i), format!("document {i} about lazy indexing"))
                .unwrap();
        }
        indexer.drain();
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, 50);
        assert_eq!(stats.completed, 50);
        assert_eq!(stats.failed, 0);
        assert_eq!(indexer.index().lookup_term("lazy").unwrap().len(), 50);
        assert_eq!(indexer.index().documents_indexed(), 50);
    }

    #[test]
    fn enqueue_remove_deletes_postings() {
        let indexer = LazyIndexer::new(fulltext(), 1);
        indexer.enqueue(ObjectId(1), "transient content").unwrap();
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("transient").unwrap().len(), 1);
        indexer.enqueue_remove(ObjectId(1)).unwrap();
        indexer.drain();
        assert!(indexer.index().lookup_term("transient").unwrap().is_empty());
    }

    #[test]
    fn shutdown_then_enqueue_fails() {
        let mut indexer = LazyIndexer::new(fulltext(), 1);
        indexer.enqueue(ObjectId(1), "before shutdown").unwrap();
        indexer.shutdown();
        assert!(matches!(
            indexer.enqueue(ObjectId(2), "after shutdown"),
            Err(IndexError::IndexerStopped)
        ));
        // Work submitted before shutdown was still completed.
        assert_eq!(indexer.index().lookup_term("before").unwrap().len(), 1);
    }

    #[test]
    fn many_producers_one_pool() {
        let indexer = Arc::new(LazyIndexer::new(fulltext(), 4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let indexer = Arc::clone(&indexer);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    indexer
                        .enqueue(ObjectId(t * 100 + i), format!("thread {t} item {i} shared"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("shared").unwrap().len(), 100);
    }

    #[test]
    fn reject_policy_counts_rejections() {
        // One worker parked on a slow-to-index first document cannot drain
        // the queue, so with capacity 2 and Reject the producer sees
        // QueueFull once the queue is at capacity.
        let indexer = LazyIndexer::with_config(
            fulltext(),
            LazyConfig {
                workers: 1,
                capacity: 2,
                policy: OverflowPolicy::Reject,
            },
        );
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..64u64 {
            match indexer.enqueue(ObjectId(i), format!("burst item {i}")) {
                Ok(()) => accepted += 1,
                Err(IndexError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "a burst of 64 into capacity 2 must overflow");
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, accepted);
        assert_eq!(stats.rejected, rejected);
        indexer.drain();
        assert_eq!(indexer.stats().completed, accepted);
    }

    #[test]
    fn block_policy_bounds_backlog_without_losing_work() {
        let indexer = LazyIndexer::with_config(
            fulltext(),
            LazyConfig {
                workers: 1,
                capacity: 4,
                policy: OverflowPolicy::Block,
            },
        );
        for i in 0..200u64 {
            indexer
                .enqueue(ObjectId(i), format!("steady item {i} bounded"))
                .unwrap();
            // The producer may stall waiting for room, but work is never
            // dropped and the in-flight backlog never exceeds the bound,
            // the per-worker shutdown-sentinel headroom, and the item the
            // worker already pulled off the queue.
            assert!(indexer.backlog() <= 4 + 1 + 1);
        }
        indexer.drain();
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, 200);
        assert_eq!(stats.completed, 200);
        assert_eq!(stats.rejected, 0);
    }

    /// Executor that runs jobs inline until told to refuse them.
    struct ToggleExecutor {
        full: std::sync::atomic::AtomicBool,
    }

    impl BackgroundExecutor for ToggleExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            if self.full.load(Ordering::Relaxed) {
                return Err(SubmitError::Full);
            }
            job();
            Ok(())
        }
    }

    #[test]
    fn executor_mode_runs_jobs_and_surfaces_backpressure() {
        let executor = Arc::new(ToggleExecutor {
            full: std::sync::atomic::AtomicBool::new(false),
        });
        let mut indexer = LazyIndexer::with_executor(
            fulltext(),
            Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
        );
        indexer.enqueue(ObjectId(1), "executor run").unwrap();
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("executor").unwrap().len(), 1);

        executor.full.store(true, Ordering::Relaxed);
        assert!(matches!(
            indexer.enqueue(ObjectId(2), "refused"),
            Err(IndexError::QueueFull)
        ));
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);

        indexer.shutdown();
        executor.full.store(false, Ordering::Relaxed);
        assert!(matches!(
            indexer.enqueue(ObjectId(3), "after stop"),
            Err(IndexError::IndexerStopped)
        ));
    }

    /// Executor that runs each job on a fresh thread, so `drain` really
    /// has to wait for it.
    #[derive(Default)]
    struct ThreadExecutor {
        threads: std::sync::Mutex<Vec<JoinHandle<()>>>,
    }

    impl BackgroundExecutor for ThreadExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            self.threads.lock().unwrap().push(std::thread::spawn(job));
            Ok(())
        }
    }

    /// Device whose writes, once `failing` is set, park until the gate
    /// opens and then fail: it holds an item in flight while `drain`
    /// waits for it.
    struct FailGateDevice {
        inner: MemDevice,
        failing: AtomicBool,
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl FailGateDevice {
        fn new() -> Self {
            FailGateDevice {
                inner: MemDevice::new(65536, 512),
                failing: AtomicBool::new(false),
                open: Mutex::new(false),
                opened: Condvar::new(),
            }
        }

        fn open_gate(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl BlockDevice for FailGateDevice {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> hfad_storage::Result<()> {
            self.inner.read_block(block, buf)
        }
        fn write_block(&self, block: u64, buf: &[u8]) -> hfad_storage::Result<()> {
            if !self.failing.load(Ordering::SeqCst) {
                return self.inner.write_block(block, buf);
            }
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            Err(StorageError::Io("injected write failure".into()))
        }
        fn flush(&self) -> hfad_storage::Result<()> {
            self.inner.flush()
        }
        fn counters(&self) -> DeviceCounters {
            self.inner.counters()
        }
    }

    /// `drain` must wake when the backlog empties through a failure, in
    /// both backends: the last item is held in flight while `drain`
    /// blocks, then fails and is counted as `failed`, not `completed`.
    #[test]
    fn drain_wakes_when_the_last_item_fails() {
        for use_executor in [false, true] {
            let device = Arc::new(FailGateDevice::new());
            let allocator = Arc::new(BuddyAllocator::new(1, 65535));
            let ctx = TreeContext::new(Arc::clone(&device) as Arc<dyn BlockDevice>, allocator);
            let index = Arc::new(FullTextIndex::new(ctx, 4).unwrap());
            let executor = Arc::new(ThreadExecutor::default());
            let indexer = Arc::new(if use_executor {
                LazyIndexer::with_executor(
                    index,
                    Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
                )
            } else {
                LazyIndexer::new(index, 2)
            });
            for i in 0..10u64 {
                indexer
                    .enqueue(ObjectId(i), format!("healthy item {i}"))
                    .unwrap();
            }
            indexer.drain();
            device.failing.store(true, Ordering::SeqCst);
            indexer.enqueue(ObjectId(10), "doomed item").unwrap();

            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let drainer = Arc::clone(&indexer);
            let drainer = std::thread::spawn(move || {
                drainer.drain();
                let _ = done_tx.send(());
            });
            // The doomed item is parked in the device, so drain must block.
            let wait = |ms| done_rx.recv_timeout(std::time::Duration::from_millis(ms));
            assert!(wait(50).is_err(), "drain returned with an item in flight");
            device.open_gate();
            assert!(
                wait(10_000).is_ok(),
                "drain never woke after a failed last item (executor: {use_executor})"
            );
            let stats = indexer.stats();
            assert_eq!(stats.enqueued, 11);
            assert_eq!(stats.completed, 10);
            assert_eq!(stats.failed, 1);
            assert_eq!(indexer.backlog(), 0);
            drainer.join().unwrap();
            for job in executor.threads.lock().unwrap().drain(..) {
                job.join().unwrap();
            }
        }
    }

    #[test]
    fn drop_performs_clean_shutdown() {
        let index = fulltext();
        {
            let indexer = LazyIndexer::new(Arc::clone(&index), 2);
            indexer.enqueue(ObjectId(9), "cleanup on drop").unwrap();
            // Dropped here; the destructor must flush or at least join
            // without panicking.
        }
        // After drop, the document may or may not be indexed depending on
        // scheduling, but the process must not hang or crash. Give the
        // absent case a definitive check by re-indexing synchronously.
        index
            .index_document(ObjectId(10), "cleanup finished")
            .unwrap();
        assert!(!index.lookup_term("cleanup").unwrap().is_empty());
    }
}
