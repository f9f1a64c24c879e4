//! The workloads. Each round runs on a fresh store and returns its
//! timings, its set-up time and how many of its operations failed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use hfad_core::{Hfad, HfadConfig, HfadError, ObjectId, ObjectMeta, TagValue};
use hfad_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{Interval, Lap, Mark, Took};
use crate::layers::{deltas, Snapshot, Tracer, Work};
use crate::model::{Corpus, Ids};

/// Backing capacity of every store, well above what a round allocates.
/// An in-memory store's pages become resident only once written.
const CAPACITY: u64 = 64 << 20;
/// Items whose names (and, with full text, terms) and contents are
/// checked after each `ingest` or `tag` round.
const IMPORT_CHECKS: usize = 64;
/// Zipf skew of the `query` workload's document picks.
const QUERY_THETA: f64 = 0.9;

/// What one round measured.
pub struct Round {
    /// Set-up work on the fresh store: format or create, the warm-up, and
    /// for `query` the preload and its drain. The client's CPU spent
    /// polling in `sync_index` is left out of `thread`.
    pub setup: Interval,
    /// The timed window the throughput is computed over, with the same
    /// polling left out. For `query`, the sum of the timed calls (the
    /// checks between them are left out).
    pub window: Interval,
    /// Operations completed inside `window`.
    pub window_ops: u64,
    /// Per-operation wall and client-thread CPU time.
    pub latencies: Vec<Took>,
    /// Allocated store bytes per byte of user content.
    pub space_amp: f64,
    pub tally: Tally,
    /// Time `sync_index` took to drain the lazy indexer.
    pub drain: Duration,
    /// Time the clean reopen took (`durable` only).
    pub open: Duration,
    /// Stats deltas over the measured phase (traced rounds only).
    pub deltas: Option<BTreeMap<&'static str, f64>>,
}

/// Operation outcomes of one round.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures other than the known post-reopen name loss.
    pub unexpected: u64,
    /// Result-set sizes of every lookup and search, and their count.
    pub results: u64,
    pub queries: u64,
}

impl Tally {
    fn pass(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, known: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if !known {
            self.unexpected += 1;
            if self.unexpected <= 5 {
                eprintln!("mismatch: {}", what());
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.pass()
        } else {
            self.fail(false, what)
        }
    }
}

fn space_amp(fs: &Hfad, corpus: &Corpus) -> f64 {
    let allocated = fs.store().stats().allocator.allocated_blocks;
    (allocated * hfad_storage::DEFAULT_BLOCK_SIZE as u64) as f64 / corpus.content_bytes as f64
}

/// Saves item `i` under its names and writes its content; with
/// `full_text` the content is also indexed. Untraced, that is one
/// `create_with_content` (or `create` + `write`); traced, each step is a
/// separate call so each gets a span.
fn save(
    fs: &Hfad,
    corpus: &Corpus,
    i: usize,
    full_text: bool,
    tracer: &mut Tracer,
) -> Result<ObjectId, HfadError> {
    let (tags, content) = (&corpus.tags[i], &corpus.contents[i]);
    if !tracer.is_on() {
        if full_text {
            return fs.create_with_content(tags, content);
        }
        let oid = fs.create(tags)?;
        fs.write(oid, 0, content)?;
        return Ok(oid);
    }
    let meta = ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now());
    let oid = tracer.span("osd.create_object", || fs.store().create_object(meta))?;
    tracer.span("index.add_tags", || fs.add_tags(oid, tags))?;
    tracer.span("osd.write", || fs.write(oid, 0, content))?;
    if full_text {
        tracer.span("index.index_content", || fs.index_content(oid, content))?;
    }
    Ok(oid)
}

/// Saves items `items` of `corpus` into `fs`, appending their ids to
/// `ids` and returning per-save latency.
fn load(
    fs: &Hfad,
    corpus: &Corpus,
    items: Range<usize>,
    full_text: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    ids: &mut Ids,
) -> Vec<Took> {
    let mut latencies = Vec::with_capacity(items.len());
    for i in items {
        let lap = Lap::start();
        let saved = save(fs, corpus, i, full_text, tracer);
        latencies.push(lap.took());
        match saved {
            Ok(oid) => {
                tally.pass();
                ids.push(oid);
            }
            Err(e) => {
                tally.fail(false, || format!("save of item {i}: {e}"));
                ids.push(ObjectId(u64::MAX));
            }
        }
    }
    latencies
}

/// One two-pair name lookup of item `i`, checked against the model.
fn lookup(
    fs: &Hfad,
    corpus: &Corpus,
    ids: &Ids,
    i: usize,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Took {
    let names = corpus.name_pair(i, rng);
    let pairs: Vec<TagValue> = crate::model::tag_values(&names);
    let lap = Lap::start();
    let got = tracer.span("index.lookup", || fs.lookup(&pairs));
    let took = lap.took();
    let want = corpus.expect_names(&names);
    tally.queries += 1;
    match got {
        Ok(got) => {
            tally.results += got.len() as u64;
            tally.check(ids.same_set(&got, &want), || {
                format!("lookup {names:?}: {} ids, want {}", got.len(), want.len())
            });
        }
        Err(e) => tally.fail(false, || format!("lookup {names:?}: {e}")),
    }
    took
}

/// One two-term full-text search drawn from item `i`'s text.
fn search(
    fs: &Hfad,
    corpus: &Corpus,
    ids: &Ids,
    i: usize,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Took {
    let terms = corpus.term_pair(i, rng);
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    let lap = Lap::start();
    let got = tracer.span("index.search_text", || fs.search_text(&refs));
    let took = lap.took();
    let want = corpus.expect_terms(&terms);
    tally.queries += 1;
    match got {
        Ok(got) => {
            tally.results += got.len() as u64;
            tally.check(ids.same_set(&got, &want), || {
                format!("search {terms:?}: {} ids, want {}", got.len(), want.len())
            });
        }
        Err(e) => tally.fail(false, || format!("search {terms:?}: {e}")),
    }
    took
}

/// Reads item `i` back whole and compares it byte for byte.
fn read(
    fs: &Hfad,
    corpus: &Corpus,
    ids: &Ids,
    i: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Took {
    let oid = ids.oid(i);
    let lap = Lap::start();
    let got = tracer.span("osd.read", || fs.read_all(oid));
    let took = lap.took();
    match got {
        Ok(bytes) => tally.check(bytes == corpus.contents[i], || {
            format!("read of item {i}: {} bytes differ", bytes.len())
        }),
        Err(e) => tally.fail(false, || format!("read of item {i}: {e}")),
    }
    took
}

/// Waits in `sync_index` until every queued document is searchable and
/// returns the wall time that took and the CPU time this thread spent
/// in it. `sync_index` polls with `yield_now`, so a waiter burns CPU for
/// as long as it waits, more so the idler the machine is; callers leave
/// that CPU out of the client's cost and count the wall time as drain.
fn drain(fs: &Hfad) -> (Duration, Duration) {
    let start = Mark::now();
    fs.sync_index();
    let took = Mark::now().since(&start);
    (took.wall, took.thread)
}

fn round_rng(seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `ingest` (`full_text`) and `tag`: save the corpus into a fresh
/// in-memory store. The first `warmup` items are saved and indexed as
/// set-up; the timed window saves the rest. For `ingest` the window ends
/// when `sync_index` has made every document searchable; `tag` indexes
/// names only, so its drain finds nothing to wait for.
pub fn import(
    corpus: &Corpus,
    warmup: usize,
    full_text: bool,
    seed: u64,
    round: u64,
    tracer: &mut Tracer,
) -> Result<Round, HfadError> {
    let mut tally = Tally::default();
    let mut ids = Ids::default();
    let start = Mark::now();
    let fs = Hfad::in_memory(CAPACITY, HfadConfig::default())?;
    let warm = 0..warmup;
    load(
        &fs,
        corpus,
        warm,
        full_text,
        &mut Tracer::new(false),
        &mut tally,
        &mut ids,
    );
    let (_, polled) = drain(&fs);
    let mut setup = Mark::now().since(&start);
    setup.thread -= polled;

    let before = Snapshot::take(fs.stats());
    let start = Mark::now();
    let timed = warmup..corpus.len();
    let latencies = load(&fs, corpus, timed, full_text, tracer, &mut tally, &mut ids);
    let (drained, polled) = drain(&fs);
    let mut window = Mark::now().since(&start);
    window.thread -= polled;
    let after = Snapshot::take(fs.stats());

    let mut rng = round_rng(seed, round);
    for _ in 0..IMPORT_CHECKS {
        let i = rng.gen_range(0..corpus.len());
        lookup(&fs, corpus, &ids, i, &mut rng, tracer, &mut tally);
        if full_text {
            search(&fs, corpus, &ids, i, &mut rng, tracer, &mut tally);
        }
        read(&fs, corpus, &ids, i, tracer, &mut tally);
    }
    let work = Work {
        ops: latencies.len() as u64,
        user_bytes: corpus.contents[warmup..]
            .iter()
            .map(|c| c.len() as u64)
            .sum(),
    };
    Ok(Round {
        setup,
        window,
        window_ops: latencies.len() as u64,
        latencies,
        space_amp: space_amp(&fs, corpus),
        tally,
        drain: drained,
        open: Duration::ZERO,
        deltas: tracer.is_on().then(|| deltas(&before, &after, &work)),
    })
}

/// `query`: preload the corpus (set-up), then a read-only mix of name
/// lookups, full-text searches and whole-object reads over Zipf-skewed
/// picks. The first `warmup` operations of the mix are untimed.
pub fn query(
    corpus: &Corpus,
    warmup: usize,
    ops: usize,
    seed: u64,
    round: u64,
    tracer: &mut Tracer,
) -> Result<Round, HfadError> {
    // Preload saves are set-up work: untimed, but counted and checked
    // like every other operation.
    let mut tally = Tally::default();
    let mut ids = Ids::default();
    let start = Mark::now();
    let fs = Hfad::in_memory(CAPACITY, HfadConfig::default())?;
    let all = 0..corpus.len();
    load(
        &fs,
        corpus,
        all,
        true,
        &mut Tracer::new(false),
        &mut tally,
        &mut ids,
    );
    let (drained, polled) = drain(&fs);

    let mut rng = round_rng(seed, round);
    // Popularity ranks land on items in a seeded order, so the hot set is
    // scattered over the store rather than its first-written objects.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.gen_range(0..=k));
    }
    let zipf = Zipf::new(corpus.len(), QUERY_THETA);
    let mut op = |k: usize, tracer: &mut Tracer, tally: &mut Tally| {
        let i = order[zipf.sample(&mut rng)];
        match k % 3 {
            0 => lookup(&fs, corpus, &ids, i, &mut rng, tracer, tally),
            1 => search(&fs, corpus, &ids, i, &mut rng, tracer, tally),
            _ => read(&fs, corpus, &ids, i, tracer, tally),
        }
    };
    for k in 0..warmup {
        op(k, &mut Tracer::new(false), &mut tally);
    }
    let mut setup = Mark::now().since(&start);
    setup.thread -= polled;

    let before = Snapshot::take(fs.stats());
    let start = Mark::now();
    let latencies: Vec<Took> = (0..ops).map(|k| op(k, tracer, &mut tally)).collect();
    let loop_took = Mark::now().since(&start);
    let after = Snapshot::take(fs.stats());
    let work = Work {
        ops: ops as u64,
        user_bytes: 0,
    };
    let sum = |f: fn(&Took) -> u64| Duration::from_nanos(latencies.iter().map(f).sum());
    let window = Interval {
        wall: sum(|t| t.wall),
        thread: sum(|t| t.cpu),
        others: loop_took.others,
    };
    Ok(Round {
        setup,
        window,
        window_ops: ops as u64,
        latencies,
        space_amp: space_amp(&fs, corpus),
        tally,
        drain: drained,
        open: Duration::ZERO,
        deltas: tracer.is_on().then(|| deltas(&before, &after, &work)),
    })
}

/// One tagged durable save: a transaction creates the object and writes
/// its content, commits (one fsync'd group commit), then `add_tags`
/// names it.
fn durable_save(
    fs: &Hfad,
    ts: &hfad_osd::TxnStore,
    corpus: &Corpus,
    i: usize,
    tracer: &mut Tracer,
) -> Result<ObjectId, HfadError> {
    let meta = ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now());
    let (mut txn, oid) = tracer.span("osd.create_object", || {
        let mut txn = ts.begin();
        txn.create(meta).map(|oid| (txn, oid))
    })?;
    tracer.span("osd.write", || txn.write(oid, 0, &corpus.contents[i]))?;
    tracer.span("osd.commit", || txn.commit())?;
    tracer.span("index.add_tags", || fs.add_tags(oid, &corpus.tags[i]))?;
    Ok(oid)
}

/// `durable`: tagged durable saves into a fresh file-backed store in
/// `dir`, a clean close, a reopen, then every object is read back and
/// looked up by its path name. The caller removes `dir`.
pub fn durable(corpus: &Corpus, dir: &Path, tracer: &mut Tracer) -> Result<Round, HfadError> {
    let path = dir.join("durable.hfad");
    let start = Mark::now();
    let fs = Hfad::create_file(&path, CAPACITY, HfadConfig::default())?;
    let ts = fs.txn_store()?;
    let setup = Mark::now().since(&start);

    let before = Snapshot::take(fs.stats());
    let mut tally = Tally::default();
    let mut ids = Ids::default();
    let mut latencies = Vec::with_capacity(corpus.len());
    let start = Mark::now();
    for i in 0..corpus.len() {
        let lap = Lap::start();
        let saved = durable_save(&fs, &ts, corpus, i, tracer);
        latencies.push(lap.took());
        match saved {
            Ok(oid) => {
                tally.pass();
                ids.push(oid);
            }
            Err(e) => {
                tally.fail(false, || format!("durable save of item {i}: {e}"));
                ids.push(ObjectId(u64::MAX));
            }
        }
    }
    let window = Mark::now().since(&start);
    let after = Snapshot::take(fs.stats());
    let space = space_amp(&fs, corpus);
    drop(ts);
    drop(fs);

    let start = Instant::now();
    let (fs, _replayed) = Hfad::open_file(&path, HfadConfig::default())?;
    let open = start.elapsed();
    for i in 0..corpus.len() {
        read(&fs, corpus, &ids, i, tracer, &mut tally);
    }
    // Names do not survive a reopen today: the indices are rebuilt empty
    // on open (`Hfad::assemble`), so every lookup comes back empty. Each
    // such lookup is a failed operation; any other answer than the item
    // itself or nothing is a wrong result.
    for i in 0..corpus.len() {
        let name = &corpus.tags[i][..1];
        let got = tracer.span("index.lookup", || fs.lookup(name));
        tally.queries += 1;
        match got {
            Ok(got) if got == [ids.oid(i)] => {
                tally.results += 1;
                tally.pass();
            }
            Ok(got) if got.is_empty() => tally.fail(true, String::new),
            Ok(got) => {
                tally.results += got.len() as u64;
                tally.fail(false, || format!("reopened lookup of item {i}: {got:?}"));
            }
            Err(e) => tally.fail(false, || format!("reopened lookup of item {i}: {e}")),
        }
    }
    let work = Work {
        ops: corpus.len() as u64,
        user_bytes: corpus.content_bytes,
    };
    Ok(Round {
        setup,
        window,
        window_ops: corpus.len() as u64,
        latencies,
        space_amp: space,
        tally,
        drain: Duration::ZERO,
        open,
        deltas: tracer.is_on().then(|| deltas(&before, &after, &work)),
    })
}
