//! Configuration for an hFAD instance.

use std::time::Duration;

use hfad_osd::{AllocatorKind, StoreConfig, DEFAULT_MAX_EXTENT_BYTES};
use hfad_storage::{GroupCommitConfig, RetryPolicy};

/// How full-text content indexing is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexingMode {
    /// Content is indexed by background threads ("lazy full-text indexing",
    /// §3.4). Queries may briefly lag writes.
    #[default]
    Lazy,
    /// Content is indexed synchronously on write.
    Eager,
}

/// Configuration for [`Hfad`](crate::fs::Hfad).
///
/// [`HfadConfig::default()`] is the **full modern stack**: background
/// job engine, write-behind, background checkpointing at a 50% journal
/// watermark, and both cache tiers. The pre-engine baseline lives on as
/// [`HfadConfig::seed()`] and is what every experiment's ablation column
/// measures against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HfadConfig {
    /// Maximum bytes covered by a single object extent.
    pub max_extent_bytes: u64,
    /// Blocks reserved for the write-ahead journal (0 disables it).
    pub journal_blocks: u64,
    /// Maximum transactions a group-commit batch may contain when a
    /// transactional store is layered on top (see
    /// [`hfad_osd::TxnStore::with_config`]). `0` disables batching and
    /// reproduces the sync-per-commit baseline measured by the E8
    /// ablation.
    pub journal_batch: usize,
    /// Microseconds a group-commit leader waits for more committers
    /// before flushing an underfull batch. `0` (the default) flushes
    /// whatever is queued immediately; batches then form only while a
    /// previous flush is in flight, adding no latency for lone
    /// committers.
    pub journal_batch_wait_us: u64,
    /// Data-area allocator.
    pub allocator: AllocatorKind,
    /// Number of lock shards for the OSD object table and open-object map
    /// (`0` auto-sizes to the machine's available parallelism; see
    /// [`StoreConfig::shards`]). Set to `1` to reproduce a
    /// single-global-lock store, the E2/E6 contention baseline.
    pub store_shards: usize,
    /// Block-cache capacity in blocks. `0` runs directly on the device;
    /// any other value fronts it with the storage layer's sharded
    /// write-back block cache (see [`StoreConfig::cache_blocks`]). The
    /// default is 4096 blocks (16 MiB at the default block size); the
    /// [`seed()`](Self::seed) ablation runs uncached.
    pub cache_blocks: usize,
    /// Lock shards for the block cache (`0` auto-sizes; `1` reproduces
    /// the single-global-lock cache, the E9 contention baseline).
    pub cache_shards: usize,
    /// Decoded B-tree node cache capacity in pages shared by the object
    /// table and every extent map. `0` decodes nodes on every read — the
    /// E9 ablation baseline, and the [`seed()`](Self::seed) behaviour.
    /// Defaults to 1024 pages.
    pub node_cache_pages: usize,
    /// Number of shards in the key/value and full-text indices.
    pub index_shards: usize,
    /// Number of background indexing threads (only used in lazy mode, and
    /// ignored when [`engine`](Self::engine) is on — the engine's worker
    /// pool drains index jobs instead).
    pub lazy_workers: usize,
    /// Eager or lazy full-text indexing.
    pub indexing: IndexingMode,
    /// Runs the background job engine and routes background work through
    /// it: cache read-ahead rides the `ReadAhead` class, lazy indexing the
    /// `Index` class, and journal checkpoints the `WriteBehind` class.
    /// On by default; `false` (the [`seed()`](Self::seed) baseline)
    /// reproduces the seed's ad-hoc-thread behaviour exactly.
    pub engine: bool,
    /// Starts the watermark-driven dirty-page trickle flusher over the
    /// block cache. Requires [`engine`](Self::engine) and
    /// [`cache_blocks`](Self::cache_blocks) `> 0`; otherwise ignored. It
    /// is also skipped on persistent (file-backed) stores, where home
    /// pages are written only by doublewrite-protected checkpoint
    /// installs and a trickle flusher would have nothing safe to do.
    pub write_behind: bool,
    /// Journal live-extent percentage at which the background
    /// checkpointer starts reclaiming (1–99). `0` runs no checkpointer:
    /// a full journal checkpoints inline on the committing thread, the
    /// seed's stop-the-world behaviour. Defaults to 50. Only meaningful
    /// with [`journal_blocks`](Self::journal_blocks) `> 0`.
    pub checkpoint_watermark_pct: u8,
    /// Milliseconds a committer blocked on a full journal waits for the
    /// background checkpointer to reclaim space before falling back to an
    /// inline stop-the-world checkpoint. `0` (the default) auto-scales
    /// with the device's measured flush cost: 200 ms on an in-memory
    /// device, proportionally more on a slow-fsync `FileDevice` (see
    /// [`hfad_osd::TxnStore::backpressure_patience`]).
    pub backpressure_patience_ms: u64,
    /// Attempt budget for transient device faults (`StorageError::
    /// TransientIo`), applied uniformly to group-commit journal flushes,
    /// checkpoints and block-cache read fills. `0` (the default)
    /// keeps each layer's standard policy
    /// ([`hfad_storage::RetryPolicy::standard`]: 5 attempts, exponential
    /// backoff from 1 ms); `1` disables retries; larger values deepen the
    /// budget — what the chaos soak uses to statistically outlast high
    /// injected fault rates.
    pub retry_attempts: u32,
}

impl Default for HfadConfig {
    /// The full stack. Set the environment variable
    /// `HFAD_DEFAULT_CONFIG=seed` to make `default()` return
    /// [`seed()`](Self::seed) instead — the switch the CI matrix uses to
    /// run the whole tier-1 sweep against the ablation baseline.
    fn default() -> Self {
        if default_is_seed() {
            return HfadConfig::seed();
        }
        HfadConfig {
            cache_blocks: 4096,
            node_cache_pages: 1024,
            engine: true,
            write_behind: true,
            checkpoint_watermark_pct: 50,
            ..HfadConfig::seed()
        }
    }
}

/// Whether `HFAD_DEFAULT_CONFIG=seed` is set (checked once per process).
pub fn default_is_seed() -> bool {
    static SEED_DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SEED_DEFAULT.get_or_init(|| {
        std::env::var("HFAD_DEFAULT_CONFIG").is_ok_and(|v| v.eq_ignore_ascii_case("seed"))
    })
}

impl HfadConfig {
    /// The seed baseline: no engine, no caches, no background
    /// checkpointer — background work on ad-hoc threads and a full
    /// journal checkpointed inline by the committing thread. This is the
    /// ablation configuration every experiment compares the defaults
    /// against.
    pub fn seed() -> Self {
        HfadConfig {
            max_extent_bytes: DEFAULT_MAX_EXTENT_BYTES,
            journal_blocks: 0,
            journal_batch: GroupCommitConfig::default().max_batch,
            journal_batch_wait_us: 0,
            allocator: AllocatorKind::Buddy,
            store_shards: 0,
            cache_blocks: 0,
            cache_shards: 0,
            node_cache_pages: 0,
            index_shards: 16,
            lazy_workers: 2,
            indexing: IndexingMode::Lazy,
            engine: false,
            write_behind: false,
            checkpoint_watermark_pct: 0,
            backpressure_patience_ms: 0,
            retry_attempts: 0,
        }
    }

    /// The transient-fault retry policy implied by
    /// [`retry_attempts`](Self::retry_attempts): `None` when `0` (each
    /// layer keeps its own default).
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        (self.retry_attempts > 0).then(|| RetryPolicy {
            max_attempts: self.retry_attempts,
            ..RetryPolicy::standard()
        })
    }

    /// Derives the OSD store configuration.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            max_extent_bytes: self.max_extent_bytes,
            journal_blocks: self.journal_blocks,
            allocator: self.allocator,
            shards: self.store_shards,
            cache_blocks: self.cache_blocks,
            cache_shards: self.cache_shards,
            node_cache_pages: self.node_cache_pages,
        }
    }

    /// Derives the group-commit policy for a transactional store layered
    /// over this instance's object store.
    pub fn group_commit_config(&self) -> GroupCommitConfig {
        GroupCommitConfig {
            max_batch: self.journal_batch,
            max_wait: Duration::from_micros(self.journal_batch_wait_us),
            retry: self.retry_policy().unwrap_or_default(),
        }
    }

    /// A configuration with synchronous full-text indexing, used by tests
    /// and the eager/lazy ablation. Inherits everything else from
    /// [`default()`](Self::default) — i.e. the full stack.
    pub fn eager() -> Self {
        HfadConfig {
            indexing: IndexingMode::Eager,
            ..Default::default()
        }
    }

    /// Derives the background-checkpoint policy, when one is enabled.
    pub fn checkpoint_config(&self) -> Option<hfad_osd::CheckpointConfig> {
        (self.checkpoint_watermark_pct > 0).then(|| hfad_osd::CheckpointConfig {
            watermark_pct: self.checkpoint_watermark_pct,
            retry: self.retry_policy().unwrap_or_default(),
            ..Default::default()
        })
    }

    /// The configured backpressure patience, or `None` when `0` (let the
    /// transactional store auto-scale it from measured flush cost).
    pub fn backpressure_patience(&self) -> Option<Duration> {
        (self.backpressure_patience_ms > 0)
            .then(|| Duration::from_millis(self.backpressure_patience_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_full_stack() {
        let c = HfadConfig::default();
        if default_is_seed() {
            // CI's ablation matrix leg: `HFAD_DEFAULT_CONFIG=seed` makes
            // default() reproduce the seed baseline exactly.
            assert_eq!(c, HfadConfig::seed());
            return;
        }
        assert_eq!(c.indexing, IndexingMode::Lazy);
        assert!(c.index_shards >= 1);
        assert!(c.lazy_workers >= 1);
        assert_eq!(c.store_config().max_extent_bytes, c.max_extent_bytes);
        assert_eq!(c.store_config().journal_blocks, 0);
        assert_eq!(c.store_config().shards, c.store_shards);
        // Both cache tiers default on.
        assert!(c.store_config().cache_blocks > 0);
        assert!(c.store_config().node_cache_pages > 0);
        // Group commit defaults: batching on, zero leader wait.
        assert!(c.journal_batch > 0);
        assert_eq!(c.group_commit_config().max_batch, c.journal_batch);
        assert_eq!(c.group_commit_config().max_wait, Duration::ZERO);
        // Engine-routed background work is the default path.
        assert!(c.engine);
        assert!(c.write_behind);
        assert_eq!(c.checkpoint_watermark_pct, 50);
        let cc = c.checkpoint_config().expect("watermark > 0 enables it");
        assert_eq!(cc.watermark_pct, 50);
        // Patience auto-scales with device flush cost by default.
        assert_eq!(c.backpressure_patience_ms, 0);
        assert!(c.backpressure_patience().is_none());
    }

    #[test]
    fn seed_reproduces_the_pre_engine_baseline() {
        let c = HfadConfig::seed();
        assert_eq!(c.indexing, IndexingMode::Lazy);
        assert_eq!(c.journal_blocks, 0);
        // Both cache tiers off: the seed behaviour.
        assert_eq!(c.store_config().cache_blocks, 0);
        assert_eq!(c.store_config().node_cache_pages, 0);
        // Engine and background checkpointing off: the seed path.
        assert!(!c.engine);
        assert!(!c.write_behind);
        assert_eq!(c.checkpoint_watermark_pct, 0);
        assert!(c.checkpoint_config().is_none());
        assert_eq!(c.backpressure_patience_ms, 0);
        // The two configurations differ only in the flipped knobs.
        let full = HfadConfig {
            cache_blocks: 4096,
            node_cache_pages: 1024,
            engine: true,
            write_behind: true,
            checkpoint_watermark_pct: 50,
            ..c
        };
        if !default_is_seed() {
            assert_eq!(full, HfadConfig::default());
        }
    }

    #[test]
    fn checkpoint_watermark_maps_to_checkpoint_config() {
        let c = HfadConfig {
            checkpoint_watermark_pct: 65,
            ..Default::default()
        };
        let cc = c.checkpoint_config().expect("watermark > 0 enables it");
        assert_eq!(cc.watermark_pct, 65);
        // The cadence knobs keep the checkpointer's defaults.
        let d = hfad_osd::CheckpointConfig::default();
        assert_eq!(cc.max_age, d.max_age);
        assert_eq!(cc.interval, d.interval);
    }

    #[test]
    fn journal_batch_knobs_map_to_group_commit_config() {
        let c = HfadConfig {
            journal_batch: 0,
            journal_batch_wait_us: 250,
            ..Default::default()
        };
        let gc = c.group_commit_config();
        assert_eq!(gc.max_batch, 0, "0 must mean the unbatched baseline");
        assert_eq!(gc.max_wait, Duration::from_micros(250));
    }

    #[test]
    fn eager_configuration() {
        assert_eq!(HfadConfig::eager().indexing, IndexingMode::Eager);
    }

    #[test]
    fn cache_knobs_map_to_store_config() {
        let c = HfadConfig {
            cache_blocks: 8192,
            cache_shards: 8,
            node_cache_pages: 2048,
            ..Default::default()
        };
        let sc = c.store_config();
        assert_eq!(sc.cache_blocks, 8192);
        assert_eq!(sc.cache_shards, 8);
        assert_eq!(sc.node_cache_pages, 2048);
    }

    #[test]
    fn backpressure_patience_maps_through() {
        let c = HfadConfig {
            backpressure_patience_ms: 750,
            ..Default::default()
        };
        assert_eq!(c.backpressure_patience(), Some(Duration::from_millis(750)));
    }

    #[test]
    fn retry_attempts_maps_onto_every_retry_site() {
        // 0 leaves each layer on its own default policy.
        let c = HfadConfig {
            retry_attempts: 0,
            checkpoint_watermark_pct: 50,
            ..Default::default()
        };
        assert_eq!(c.retry_policy(), None);
        assert_eq!(c.group_commit_config().retry, RetryPolicy::standard());
        assert_eq!(
            c.checkpoint_config().unwrap().retry,
            RetryPolicy::standard()
        );

        // A non-zero budget overrides only the attempt count, everywhere.
        let c = HfadConfig {
            retry_attempts: 12,
            checkpoint_watermark_pct: 50,
            ..Default::default()
        };
        let expected = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::standard()
        };
        assert_eq!(c.retry_policy(), Some(expected));
        assert_eq!(c.group_commit_config().retry, expected);
        assert_eq!(c.checkpoint_config().unwrap().retry, expected);
    }
}
