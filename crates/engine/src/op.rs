//! Submission-side types: priority classes and completion tokens.

use std::sync::{Arc, Condvar, Mutex};

use crate::error::EngineError;

/// Priority class of a submitted job, highest first.
///
/// The scheduler serves classes in this order, with aging (see
/// [`EngineConfig::aging`](crate::EngineConfig::aging)) promoting jobs that
/// have waited too long so sustained high-priority load cannot starve the
/// background classes forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Priority {
    /// Dirty-page trickle flushing and journal checkpoints.
    WriteBehind = 0,
    /// Speculative sequential prefetch; the only class that sheds load
    /// at capacity ([`EngineError::QueueFull`]) instead of blocking.
    ReadAhead = 1,
    /// Lazy full-text indexing and other deferred maintenance.
    Index = 2,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::WriteBehind, Priority::ReadAhead, Priority::Index];

    /// Queue index of this class.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable class name (used in stats dumps and experiments).
    pub fn name(self) -> &'static str {
        match self {
            Priority::WriteBehind => "write-behind",
            Priority::ReadAhead => "read-ahead",
            Priority::Index => "index",
        }
    }

    /// Whether a submitter at capacity is refused rather than blocked.
    /// Prefetch is speculative, so shedding it is always safe;
    /// write-behind and index producers block (bounded backlog).
    pub(crate) fn sheds_load(self) -> bool {
        self == Priority::ReadAhead
    }
}

/// Result delivered through a [`Completion`]: the job's own error, or
/// `Ok(())`.
pub type CompletionResult = Result<(), EngineError>;

pub(crate) struct CompletionState {
    result: Mutex<Option<CompletionResult>>,
    done: Condvar,
}

impl CompletionState {
    pub(crate) fn new() -> Arc<CompletionState> {
        Arc::new(CompletionState {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn fulfil(&self, result: CompletionResult) {
        let mut slot = self.result.lock().unwrap();
        *slot = Some(result);
        drop(slot);
        self.done.notify_all();
    }
}

/// Handle to one submitted job. Wait (blocking) or poll for the outcome;
/// dropping the token abandons the result without cancelling the job.
pub struct Completion {
    pub(crate) state: Arc<CompletionState>,
}

impl Completion {
    /// Blocks until the job completes and returns its result. Subsequent
    /// calls return the same result again.
    pub fn wait(&self) -> CompletionResult {
        let mut slot = self.state.result.lock().unwrap();
        while slot.is_none() {
            slot = self.state.done.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }

    /// Returns the result if the job has completed, without blocking.
    pub fn poll(&self) -> Option<CompletionResult> {
        self.state.result.lock().unwrap().clone()
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.state.result.lock().unwrap().is_some()
    }
}
