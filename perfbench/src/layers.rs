//! Per-layer measurement: spans recorded around the benchmark's calls into
//! each layer's public functions, and deltas of the public stats
//! snapshots taken around a round's measured phase.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hfad_core::HfadStats;
use hfad_engine::{ClassStats, Priority};

use crate::clock::Mark;

/// Every per-layer metric a traced run prints: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("osd.create_object_us", "us", "lower"),
    ("osd.write_us", "us", "lower"),
    ("osd.read_us", "us", "lower"),
    ("osd.blocks_per_object", "blocks", "lower"),
    ("index.add_tags_us", "us", "lower"),
    ("index.index_content_us", "us", "lower"),
    ("index.drain_ms", "ms", "lower"),
    ("index.lookup_us", "us", "lower"),
    ("index.search_text_us", "us", "lower"),
    ("index.postings", "count", "lower"),
    ("index.fulltext_documents", "count", "higher"),
    ("index.results_per_query", "count", "lower"),
    ("engine.index.completed", "count", "higher"),
    ("engine.index.wait_ms", "ms", "lower"),
    ("engine.index.service_ms", "ms", "lower"),
    ("engine.index.max_depth", "count", "lower"),
    ("engine.writeback.completed", "count", "lower"),
    ("engine.writeback.service_ms", "ms", "lower"),
    ("engine.readahead.submitted", "count", "lower"),
    ("engine.readahead.rejected", "count", "lower"),
    ("engine.retried", "count", "lower"),
    ("storage.prefetch_hits", "count", "higher"),
    ("storage.retried", "count", "lower"),
    ("storage.cache_hit_ratio", "ratio", "higher"),
    ("storage.cache_evictions", "count", "lower"),
    ("storage.device_reads_per_op", "1/op", "lower"),
    ("storage.device_writes_per_op", "1/op", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("proc.cpu_util", "ratio", "higher"),
    ("client.p99_cpu_us", "us", "lower"),
    ("ledger.untraced_us_per_op", "us", "lower"),
    ("ledger.traced_us_per_op", "us", "lower"),
    ("ledger.closure", "ratio", "higher"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
];

/// Per-layer metrics of the journal, group-commit, checkpoint and reopen
/// path, which only the `durable` workload drives; its traced runs print
/// them after [`PER_LAYER`].
pub const DURABLE_LAYER: &[(&str, &str, &str)] = &[
    ("osd.commit_us", "us", "lower"),
    ("osd.commit_stalls", "count", "lower"),
    ("osd.checkpoints", "count", "lower"),
    ("osd.open_s", "s", "lower"),
    ("storage.flushes_per_commit", "ratio", "lower"),
    ("storage.commits_per_batch", "ratio", "higher"),
    ("storage.journal_full", "count", "lower"),
];

/// The per-layer metrics a traced run of `workload` prints.
pub fn layer_list(
    workload: &str,
) -> impl Iterator<Item = &'static (&'static str, &'static str, &'static str)> {
    let extra: &[_] = if workload == "durable" {
        DURABLE_LAYER
    } else {
        &[]
    };
    PER_LAYER.iter().chain(extra)
}

/// The layer calls a traced round times, named after the per-layer
/// metric each one feeds (`<name>_us`, mean microseconds per call).
pub const SPANS: &[&str] = &[
    "osd.create_object",
    "osd.write",
    "osd.read",
    "osd.commit",
    "index.add_tags",
    "index.index_content",
    "index.lookup",
    "index.search_text",
];

/// Wraps layer calls in spans when tracing is on; a pass-through when off.
pub struct Tracer {
    spans: Option<BTreeMap<&'static str, (Duration, u64)>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            spans: on.then(BTreeMap::new),
        }
    }

    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f`, charging its duration to `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(SPANS.contains(&name), "unknown span {name}");
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let entry = spans.entry(name).or_default();
        entry.0 += start.elapsed();
        entry.1 += 1;
        out
    }

    /// Total microseconds and calls of `name`.
    pub fn total_us(&self, name: &str) -> (f64, u64) {
        self.spans
            .as_ref()
            .and_then(|s| s.get(name))
            .map_or((0.0, 0), |&(total, calls)| {
                (total.as_secs_f64() * 1e6, calls)
            })
    }

    /// Mean microseconds per call of `name` (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (total, calls) = self.total_us(name);
        total / calls.max(1) as f64
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A stats snapshot plus the process clock, taken at a phase boundary.
pub struct Snapshot {
    stats: HfadStats,
    at: Mark,
}

impl Snapshot {
    pub fn take(stats: HfadStats) -> Self {
        Snapshot {
            stats,
            at: Mark::now(),
        }
    }
}

/// What one phase did, for normalising the stats deltas.
pub struct Work {
    /// Operations in the phase.
    pub ops: u64,
    /// User content bytes written in the phase.
    pub user_bytes: u64,
}

/// The stats-delta half of the per-layer metrics between two snapshots.
pub fn deltas(before: &Snapshot, after: &Snapshot, work: &Work) -> BTreeMap<&'static str, f64> {
    let (a, b) = (&before.stats, &after.stats);
    let ops = work.ops.max(1) as f64;
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        debug_assert!(layer_list("durable").any(|(n, ..)| *n == name), "{name}");
        m.insert(name, value);
    };

    let (ca, cb) = (
        a.checkpoint.unwrap_or_default(),
        b.checkpoint.unwrap_or_default(),
    );
    put(
        "osd.commit_stalls",
        (cb.commit_stalls - ca.commit_stalls) as f64,
    );
    put(
        "osd.checkpoints",
        (cb.checkpoints_completed - ca.checkpoints_completed) as f64,
    );
    put(
        "osd.blocks_per_object",
        b.store.allocator.allocated_blocks as f64 / b.store.objects.max(1) as f64,
    );

    put(
        "index.postings",
        b.indices.iter().map(|(_, s)| s.postings).sum::<u64>() as f64,
    );
    put("index.fulltext_documents", b.fulltext_documents as f64);

    let class = |s: &HfadStats, p: Priority| {
        s.engine
            .as_ref()
            .map_or_else(ClassStats::default, |e| *e.class(p))
    };
    // Queue wait and service time are per completed job, in ms.
    let per_job = |us: u64, jobs: u64| us as f64 / 1e3 / jobs.max(1) as f64;
    let (ia, ib) = (class(a, Priority::Index), class(b, Priority::Index));
    let jobs = ib.completed - ia.completed;
    put("engine.index.completed", jobs as f64);
    put(
        "engine.index.wait_ms",
        per_job(ib.wait_us - ia.wait_us, jobs),
    );
    put(
        "engine.index.service_ms",
        per_job(ib.service_us - ia.service_us, jobs),
    );
    put("engine.index.max_depth", ib.max_depth as f64);
    let (wa, wb) = (
        class(a, Priority::WriteBehind),
        class(b, Priority::WriteBehind),
    );
    let jobs = wb.completed - wa.completed;
    put("engine.writeback.completed", jobs as f64);
    put(
        "engine.writeback.service_ms",
        per_job(wb.service_us - wa.service_us, jobs),
    );
    let (ra, rb) = (class(a, Priority::ReadAhead), class(b, Priority::ReadAhead));
    put(
        "engine.readahead.submitted",
        (rb.submitted - ra.submitted) as f64,
    );
    put(
        "engine.readahead.rejected",
        (rb.rejected - ra.rejected) as f64,
    );
    let retried = |s: &HfadStats| s.engine.as_ref().map_or(0, |e| e.total_retried());
    put("engine.retried", (retried(b) - retried(a)) as f64);

    let (ka, kb) = (
        a.store.block_cache.unwrap_or_default(),
        b.store.block_cache.unwrap_or_default(),
    );
    let (hits, misses) = (kb.hits - ka.hits, kb.misses - ka.misses);
    put(
        "storage.prefetch_hits",
        (kb.prefetch_hits - ka.prefetch_hits) as f64,
    );
    put("storage.retried", (kb.retried - ka.retried) as f64);
    put(
        "storage.cache_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    put(
        "storage.cache_evictions",
        (kb.evictions - ka.evictions) as f64,
    );
    let dev = b.store.device.delta_since(&a.store.device);
    put("storage.device_reads_per_op", dev.reads as f64 / ops);
    put("storage.device_writes_per_op", dev.writes as f64 / ops);
    put(
        "storage.write_amp",
        if work.user_bytes == 0 {
            0.0
        } else {
            (dev.writes * hfad_storage::DEFAULT_BLOCK_SIZE as u64) as f64 / work.user_bytes as f64
        },
    );

    let (ga, gb) = (
        a.group_commit.unwrap_or_default(),
        b.group_commit.unwrap_or_default(),
    );
    let commits = gb.commits - ga.commits;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    put(
        "storage.flushes_per_commit",
        ratio(gb.flushes - ga.flushes, commits),
    );
    put(
        "storage.commits_per_batch",
        ratio(commits, gb.batches - ga.batches),
    );
    put(
        "storage.journal_full",
        (gb.journal_full - ga.journal_full) as f64,
    );

    let took = after.at.since(&before.at);
    let wall = took.wall.as_secs_f64();
    put(
        "proc.cpu_util",
        if wall > 0.0 {
            (took.thread + took.others).as_secs_f64() / wall
        } else {
            0.0
        },
    );
    m
}
