//! `--self-check <runs>`: runs each workload `runs` times with seeds
//! `1..=runs`, each in its own process, and prints every end-to-end
//! metric's median, quartiles and spread against its bound from
//! `BENCHMARK.json`. Spread is the interquartile distance as a share of
//! the median; the benchmark aims to keep it under a third of the bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::layers::PER_LAYER;
use crate::{run_child, stats, END_TO_END, UNGATED, WORKLOADS};

struct Spec {
    run_seconds: u64,
    /// `name -> (unit, bound)` for the end-to-end metrics.
    bounds: BTreeMap<String, (String, f64)>,
}

/// Reads `BENCHMARK.json` and checks it names exactly the workloads and
/// metrics this program runs and prints.
fn read_spec() -> Result<Spec, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text)?;
    let names = |key: &str, field: &str| -> Vec<String> {
        spec.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get(field).and_then(Json::str).map(str::to_string))
            .collect()
    };
    if names("workloads", "name") != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads are not {WORKLOADS:?}"));
    }
    let layer: Vec<(String, String, String)> = spec
        .get("per_layer")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Json::str).unwrap_or("").to_string();
            (f("name"), f("unit"), f("better"))
        })
        .collect();
    let printed: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect();
    if layer != printed {
        return Err("BENCHMARK.json per_layer differs from the metrics a traced run prints".into());
    }
    let mut bounds = BTreeMap::new();
    for m in spec.get("end_to_end").map(Json::arr).unwrap_or_default() {
        let f = |k: &str| m.get(k).and_then(Json::str).unwrap_or("").to_string();
        let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
        bounds.insert(f("name"), (f("unit"), bound));
    }
    let printed: BTreeMap<String, String> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let listed: BTreeMap<String, String> = bounds
        .iter()
        .map(|(n, (u, _))| (n.clone(), u.clone()))
        .collect();
    if listed != printed {
        return Err("BENCHMARK.json end_to_end differs from the metrics a run prints".into());
    }
    let run_seconds = spec
        .get("run_seconds")
        .and_then(Json::num)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;
    Ok(Spec {
        run_seconds,
        bounds,
    })
}

pub fn run(runs: usize, only: Option<&str>, seconds: Option<u64>) -> ExitCode {
    let spec = match read_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = seconds.unwrap_or(spec.run_seconds);
    let mut ok = true;
    let chosen = WORKLOADS.iter().chain(UNGATED).filter(|w| match only {
        Some(o) => o == **w,
        None => WORKLOADS.contains(w),
    });
    for &workload in chosen {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for seed in 1..=runs as u64 {
            let args = [
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ];
            let result = match run_child(&args.map(String::from)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                    continue;
                }
            };
            if result.get("correct") != Some(&Json::Bool(true)) {
                eprintln!("error: {workload} seed {seed} reported incorrect outputs");
                ok = false;
            }
            let count = |k: &str| result.get(k).and_then(Json::num).unwrap_or(0.0);
            shares.push((count("failed"), count("attempted")));
            let metrics = result
                .get("metrics")
                .and_then(Json::obj)
                .cloned()
                .unwrap_or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::num) {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        let same_share = shares
            .windows(2)
            .all(|w| w[0].0 * w[1].1 == w[1].0 * w[0].1);
        let (f, a) = shares.first().copied().unwrap_or_default();
        println!(
            "{workload}: {} runs, failed/attempted {f}/{a} ({})",
            shares.len(),
            if same_share {
                "same share in every run"
            } else {
                "SHARE DIFFERS"
            }
        );
        ok &= same_share;
        println!(
            "  {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, (unit, bound)) in &spec.bounds {
            let v = values.get(name).cloned().unwrap_or_default();
            if v.is_empty() {
                println!("  {name:<12} no values");
                ok = false;
                continue;
            }
            let med = stats::median(&v);
            let (q1, q3) = stats::quartiles(&v);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                f64::INFINITY
            };
            let verdict = if name == "setup_s" {
                "not gated"
            } else if spread < bound / 3.0 {
                "steady"
            } else if spread < *bound {
                "within bound"
            } else {
                ok = false;
                "TOO WIDE"
            };
            println!(
                "  {name:<12} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {:>5.0}%  {verdict} ({unit})",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
