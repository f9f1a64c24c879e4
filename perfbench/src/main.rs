//! End-to-end and per-layer benchmark of the hFAD native API.
//!
//! ```text
//! hfad_perfbench --workload <tag|query|ingest|durable> --seed <n> --seconds <s> --trace <0|1>
//! hfad_perfbench --self-check <runs> [--workload <name>] [--seconds <s>]
//! ```
//!
//! A run starts one child process per round (`--round <n>`, internal),
//! which prints that round's summary as one JSON line.
//!
//! A run prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod clock;
mod json;
mod layers;
mod model;
mod selfcheck;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hfad_workload::{documents, CorpusConfig};

use clock::Took;
use json::Json;
use layers::Tracer;
use model::Corpus;
use workloads::Round;

/// Every end-to-end metric a plain run prints: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_cpu_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("p50_cpu_us", "us"),
    ("p95_cpu_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
];

/// The workloads `BENCHMARK.json` lists and the self-check runs.
pub const WORKLOADS: &[&str] = &["tag", "query"];
/// Run on request only: `ingest` keeps both cores busy and `durable`
/// waits on the shared disk's fsync, so on a shared machine their
/// figures drift too far between runs to gate on (see README).
pub const UNGATED: &[&str] = &["ingest", "durable"];

/// Documents saved in the timed window of an `ingest` round: twice the
/// engine's 1024-job Index-class admission bound, so the lazy indexer
/// paces the importer.
const INGEST_DOCS: usize = 2048;
/// Documents saved in the timed window of a `tag` round. A gated round's
/// store allocates about 1.5 MiB, within one core's private 2 MiB L2
/// cache, so the shared L3's occupancy by other tenants does not set its
/// speed (see README).
const TAG_DOCS: usize = 128;
/// Documents an `ingest` or `tag` round saves as set-up, before timing.
const WARMUP_DOCS: usize = 32;
/// Documents preloaded per `query` round.
const QUERY_DOCS: usize = 128;
/// Operations of the `query` mix per round, after its untimed warm-up.
const QUERY_OPS: usize = 6144;
const QUERY_WARMUP: usize = 48;
/// Tagged durable saves per `durable` round.
const DURABLE_OPS: usize = 1000;
/// Rounds every run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// No round starts after this much wall time, so a run on a slow
/// machine still ends well inside three minutes.
const WALL_LIMIT: Duration = Duration::from_secs(100);

/// Where the file-backed stores of one process live.
pub fn stores_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("stores")
}

/// A per-process store directory, removed with everything in it when
/// dropped, on error and panic paths too.
struct StoreDir(PathBuf);

impl StoreDir {
    fn create() -> std::io::Result<Self> {
        let dir = stores_root().join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(StoreDir(dir))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the shared parent only once no other run is using it.
        let _ = std::fs::remove_dir(stores_root());
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    self_check: Option<usize>,
    /// Internal: run only round `n`, in this process.
    round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        self_check: None,
        round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--self-check" => args.self_check = Some(number(value()?)? as usize),
            "--round" => args.round = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().chain(UNGATED).any(|k| k == w) {
            return Err(format!(
                "unknown workload {w}; expected one of {WORKLOADS:?} or {UNGATED:?}"
            ));
        }
    }
    if args.seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The metrics, counts and verdict one run prints.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// `v` as a JSON number; a value with no finite measure prints as 0.
fn number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Output {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    number(value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn corpus(items: usize, seed: u64) -> Corpus {
    Corpus::new(documents(&CorpusConfig {
        items,
        seed,
        ..CorpusConfig::default()
    }))
}

/// The per-layer metrics of one traced round.
fn layer_metrics(workload: &str, r: &Round, t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = r.deltas.clone().unwrap_or_default();
    for span in layers::SPANS {
        let name: &'static str = layers::layer_list("durable")
            .map(|(n, ..)| *n)
            .find(|n| n.strip_suffix("_us") == Some(span))
            .expect("every span has a metric");
        m.insert(name, t.mean_us(span));
    }
    m.insert("index.drain_ms", r.drain.as_secs_f64() * 1e3);
    m.insert("osd.open_s", r.open.as_secs_f64());
    m.insert(
        "index.results_per_query",
        r.tally.results as f64 / r.tally.queries.max(1) as f64,
    );
    let ops = r.window_ops as f64;
    let sum_means = |spans: &[&str]| spans.iter().map(|s| t.mean_us(s)).sum::<f64>();
    let traced = match workload {
        "ingest" | "tag" => {
            sum_means(&[
                "osd.create_object",
                "index.add_tags",
                "osd.write",
                "index.index_content",
            ]) + r.drain.as_secs_f64() * 1e6 / ops
        }
        "query" => {
            ["index.lookup", "index.search_text", "osd.read"]
                .iter()
                .map(|s| t.total_us(s).0)
                .sum::<f64>()
                / ops
        }
        _ => sum_means(&[
            "osd.create_object",
            "osd.write",
            "osd.commit",
            "index.add_tags",
        ]),
    };
    m.insert("ledger.traced_us_per_op", traced);
    m
}

/// Runs round `n` of `workload` in this process and summarises it.
fn round(
    workload: &str,
    seed: u64,
    n: u64,
    trace: bool,
) -> Result<(BTreeMap<&'static str, f64>, Vec<Took>), String> {
    // Every round saves a corpus of its own, so a run's medians cover many
    // corpora and do not hang on what one seed happened to generate. A
    // traced round (odd `n`) saves the same corpus as the untraced round
    // before it, so the ledger compares like with like.
    let corpus_seed = seed ^ (n / 2 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let corpus = match workload {
        "query" => corpus(QUERY_DOCS, corpus_seed),
        "durable" => corpus(DURABLE_OPS, corpus_seed),
        "tag" => corpus(WARMUP_DOCS + TAG_DOCS, corpus_seed),
        _ => corpus(WARMUP_DOCS + INGEST_DOCS, corpus_seed),
    };
    let mut tracer = Tracer::new(trace);
    let r = match workload {
        "ingest" | "tag" => {
            let full_text = workload == "ingest";
            workloads::import(&corpus, WARMUP_DOCS, full_text, seed, n, &mut tracer)
        }
        "query" => workloads::query(&corpus, QUERY_WARMUP, QUERY_OPS, seed, n, &mut tracer),
        _ => {
            let stores = StoreDir::create().map_err(|e| format!("store directory: {e}"))?;
            workloads::durable(&corpus, &stores.0, &mut tracer)
        }
    }
    .map_err(|e| format!("{workload} round {n}: {e}"))?;
    let mut m = if trace {
        layer_metrics(workload, &r, &tracer)
    } else {
        BTreeMap::new()
    };
    let ops = r.window_ops as f64;
    let sorted = |f: fn(&Took) -> u64| {
        let mut v: Vec<u64> = r.latencies.iter().map(f).collect();
        v.sort_unstable();
        v
    };
    let (cpu, wall) = (sorted(|t| t.cpu), sorted(|t| t.wall));
    let us = |v: &[u64], q| stats::percentile(v, q) as f64 / 1e3;
    let w = &r.window;
    m.insert("ops_per_cpu_s", ops / w.thread.as_secs_f64());
    m.insert(
        "cpu_us_per_op",
        (w.thread + w.others).as_secs_f64() * 1e6 / ops,
    );
    m.insert("p50_cpu_us", us(&cpu, 0.50));
    m.insert("p99_cpu_us", us(&cpu, 0.99));
    m.insert("setup_s", (r.setup.thread + r.setup.others).as_secs_f64());
    m.insert("peak_rss_mb", layers::peak_rss_mib());
    m.insert("space_amp", r.space_amp);
    m.insert("wall_ops_per_s", ops / w.wall.as_secs_f64());
    m.insert("wall_p50_us", us(&wall, 0.50));
    m.insert("wall_p99_us", us(&wall, 0.99));
    m.insert("wall_setup_s", r.setup.wall.as_secs_f64());
    m.insert("window_s", w.wall.as_secs_f64());
    m.insert("per_op_us", w.wall.as_secs_f64() * 1e6 / ops);
    m.insert("attempted", r.tally.attempted as f64);
    m.insert("failed", r.tally.failed as f64);
    m.insert("unexpected", r.tally.unexpected as f64);
    Ok((m, r.latencies))
}

/// Runs this program with `args` in a child process, waits for it, removes
/// any stores it left behind, and parses the last line it printed.
pub fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let out = child.wait_with_output();
    // A process removes its own stores; this also covers one that died.
    let _ = std::fs::remove_dir_all(stores_root().join(pid.to_string()));
    let _ = std::fs::remove_dir(stores_root());
    let out = out.map_err(|e| format!("wait: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", args.join(" "), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().ok_or("no output")?)
}

/// One run: fresh-process rounds until `seconds` have passed and at
/// least [`MIN_ROUNDS`] rounds are done; with `trace`, every untraced
/// round is followed by a traced one.
fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Output, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut measured = Duration::ZERO;
    let mut plain: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    // Per-call client CPU times of every untraced round, pooled.
    let mut cpu_ns: Vec<u64> = Vec::new();
    for n in 0.. {
        for traced_round in [false, true].into_iter().take(1 + trace as usize) {
            let n = 2 * n + traced_round as u64;
            let args = [
                "--round",
                &n.to_string(),
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--trace",
                if traced_round { "1" } else { "0" },
            ];
            let summary = run_child(&args.map(String::from))?;
            let values: BTreeMap<String, f64> = summary
                .obj()
                .ok_or("round printed no object")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                .collect();
            measured += Duration::from_secs_f64(values["window_s"]);
            if !traced_round {
                let list = summary.get("lat_cpu_ns").map(Json::arr).unwrap_or_default();
                cpu_ns.extend(list.iter().filter_map(Json::num).map(|v| v as u64));
            }
            eprintln!(
                "{workload} round {n}{}: {:.1} ops/cpu-s, p50 {:.0} p99 {:.0} cpu-us, \
                 set-up {:.4} cpu-s; wall: {:.1} ops/s, p50 {:.0} p99 {:.0} us",
                if traced_round { " (traced)" } else { "" },
                values["ops_per_cpu_s"],
                values["p50_cpu_us"],
                values["p99_cpu_us"],
                values["setup_s"],
                values["wall_ops_per_s"],
                values["wall_p50_us"],
                values["wall_p99_us"]
            );
            if traced_round {
                &mut traced
            } else {
                &mut plain
            }
            .push(values);
        }
        let done = plain.len() >= MIN_ROUNDS && started.elapsed() >= budget;
        if done || started.elapsed() >= WALL_LIMIT {
            break;
        }
    }

    let all = plain.iter().chain(&traced);
    let total = |key: &str| all.clone().map(|m| m[key] as u64).sum::<u64>();
    let median = |rounds: &[BTreeMap<String, f64>], key: &str| {
        stats::median(
            &rounds
                .iter()
                .map(|m| *m.get(key).unwrap_or(&0.0))
                .collect::<Vec<_>>(),
        )
    };
    cpu_ns.sort_unstable();
    let pooled = |q| stats::percentile(&cpu_ns, q) as f64 / 1e3;
    let metrics = if trace {
        let untraced = median(&plain, "per_op_us");
        layers::layer_list(workload)
            .map(|&(name, unit, _)| {
                let value = match name {
                    "ledger.untraced_us_per_op" => untraced,
                    "client.p99_cpu_us" => pooled(0.99),
                    "ledger.closure" => median(&traced, "ledger.traced_us_per_op") / untraced,
                    "trace.ops_per_s_ratio" => {
                        median(&traced, "wall_ops_per_s") / median(&plain, "wall_ops_per_s")
                    }
                    _ => median(&traced, name),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "p50_cpu_us" => pooled(0.50),
                    "p95_cpu_us" => pooled(0.95),
                    _ => median(&plain, name),
                };
                (name, unit, value)
            })
            .collect()
    };
    eprintln!(
        "{workload}: {} rounds ({} traced), {:.1} s measured, {:.1} s wall",
        plain.len() + traced.len(),
        traced.len(),
        measured.as_secs_f64(),
        started.elapsed().as_secs_f64()
    );
    Ok(Output {
        correct: total("unexpected") == 0,
        attempted: total("attempted"),
        failed: total("failed"),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.self_check {
        return selfcheck::run(runs, args.workload.as_deref(), args.seconds);
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required");
        return ExitCode::from(2);
    };
    let result = match args.round {
        Some(n) => round(&workload, args.seed, n, args.trace).map(|(m, latencies)| {
            let mut fields: Vec<String> = m
                .iter()
                .map(|(k, &v)| format!("{}: {}", json::quote(k), number(v)))
                .collect();
            let list = |f: fn(&Took) -> u64| {
                let v: Vec<String> = latencies.iter().map(|t| f(t).to_string()).collect();
                v.join(",")
            };
            fields.push(format!("\"lat_cpu_ns\": [{}]", list(|t| t.cpu)));
            format!("{{{}}}", fields.join(", "))
        }),
        None => args
            .seconds
            .ok_or_else(|| "--seconds is required".to_string())
            .and_then(|seconds| run(&workload, args.seed, seconds, args.trace))
            .map(|o| o.to_json()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
