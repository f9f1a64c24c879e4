//! # hfad-engine
//!
//! The background job executor of the hFAD reproduction ("Hierarchical
//! File Systems Are Dead", Seltzer & Murphy, HotOS 2009).
//!
//! The paper's OSD performs its background work — lazy full-text indexing
//! (§3.4), cache write-back, speculative read-ahead — on ad-hoc threads.
//! This crate replaces them with one shared worker pool:
//!
//! * [`Engine`] — callers submit opaque jobs tagged with a [`Priority`]
//!   class (`WriteBehind > ReadAhead > Index`) and get a [`Completion`]
//!   token to wait or poll; workers serve the highest non-empty class,
//!   with aging so background work never starves. Per-class admission
//!   control ([`ClassConfig`]) sheds read-ahead at capacity and blocks
//!   the other classes' submitters, and [`EngineStats`] counts every
//!   stage. Jobs run exactly once; a job that wants retries owns them.
//! * [`EnginePrefetcher`] — bridges the block cache's sequential-run
//!   detector to [`Priority::ReadAhead`] prefetch jobs.
//! * [`WriteBehind`] — watermark-driven dirty-page trickle flusher at
//!   [`Priority::WriteBehind`].
//! * Lazy indexing — [`Engine`] implements
//!   [`hfad_index::BackgroundExecutor`], so a
//!   [`LazyIndexer`](hfad_index::LazyIndexer) built `with_executor` rides
//!   the [`Priority::Index`] class with bounded backpressure;
//!   [`Engine::executor`] pins the same seam to another class (the
//!   journal checkpointer uses `WriteBehind`).
//!
//! Experiment E10 (`hfad_bench`) measures the engine against the
//! synchronous baseline: cold sequential scans with read-ahead and
//! query-during-ingest with lazy indexing on the Index class.

pub mod engine;
pub mod error;
pub mod op;
mod sched;
pub mod services;
pub mod stats;

pub use engine::{ClassConfig, Engine, EngineConfig};
pub use error::{EngineError, Result};
pub use op::{Completion, CompletionResult, Priority};
pub use services::{EnginePrefetcher, WriteBehind, WriteBehindConfig};
pub use stats::{ClassStats, EngineStats};
