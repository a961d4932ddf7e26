//! `--compare PARENT.jsonl CHANGE.jsonl`: judge a change against its
//! parent from results recorded by alternating runs of the two commits.
//!
//! Each file holds one results document per line, as the harness
//! appends them to `.bench_out/results.jsonl`. The i-th run of a
//! workload in one file pairs with the i-th run of the same workload in
//! the other. One row per (metric, workload): each side's median and
//! quartiles, the change's pair wins, and the verdict against the bounds
//! in `BENCHMARK.json` (see `stats::classify`).

use crate::stats::{self, Better, Verdict};
use serde::Value;

struct Metric {
    name: String,
    better: Better,
    bound: Option<f64>,
}

fn load_metrics(path: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Ok(Value::Array(items)) = doc.field(section) else {
            return Err(format!("{path}: no `{section}` list"));
        };
        for item in items {
            let name = match item.field("name") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err(format!("{path}: a {section} metric has no name")),
            };
            let better = match item.field("better") {
                Ok(Value::Str(s)) => Better::parse(s),
                _ => None,
            }
            .ok_or_else(|| format!("{path}: {name} has no valid `better`"))?;
            let bound = if bounded {
                Some(number(item.field("bound").ok()).ok_or_else(|| format!("{name}: no bound"))?)
            } else {
                None
            };
            out.push(Metric {
                name,
                better,
                bound,
            });
        }
    }
    Ok(out)
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// One results line: the workload and its metric values by name.
type Run = (String, Vec<(String, f64)>);

/// Every results line of `path`, in file order.
fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = serde::json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = match doc.field("workload") {
            Ok(Value::Str(s)) => s.clone(),
            _ => return Err(format!("{path}:{}: no workload", i + 1)),
        };
        let Ok(Value::Object(metrics)) = doc.field("metrics") else {
            return Err(format!("{path}:{}: no metrics", i + 1));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| number(m.field("value").ok()).map(|x| (name.clone(), x)))
            .collect();
        runs.push((workload, values));
    }
    Ok(runs)
}

fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, vals)| vals.iter().find(|(n, _)| n == metric).map(|&(_, x)| x))
        .collect()
}

/// Print the comparison table; returns the process exit code (0 when
/// nothing regressed).
pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: --compare PARENT.jsonl CHANGE.jsonl");
        return 2;
    };
    let loaded = load_metrics("BENCHMARK.json")
        .and_then(|m| Ok((m, load_runs(parent)?, load_runs(change)?)));
    let (metrics, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = parent.iter().map(|(w, _)| w.as_str()).collect();
    workloads.sort();
    workloads.dedup();
    println!(
        "{:<26} {:<15} {:>3}  {:>34}  {:>34}  {:>5}  verdict",
        "metric", "workload", "n", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for w in workloads {
        for m in &metrics {
            let (p, c) = (series(&parent, w, &m.name), series(&change, w, &m.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let n = p.len().min(c.len());
            let verdict = stats::classify(&p, &c, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let wins = p[..n]
                .iter()
                .zip(&c[..n])
                .filter(|&(&a, &b)| m.better.beats(b, a))
                .count();
            let fmt = |xs: &[f64]| {
                let (q1, q2, q3) = stats::quartiles(xs);
                format!("{q2:.6} [{q1:.6}, {q3:.6}]")
            };
            let note = if n < stats::MIN_PAIRS {
                format!(" (needs {} pairs)", stats::MIN_PAIRS)
            } else {
                String::new()
            };
            println!(
                "{:<26} {:<15} {n:>3}  {:>34}  {:>34}  {wins:>2}/{n:<2}  {}{note}",
                m.name,
                w,
                fmt(&p),
                fmt(&c),
                verdict.label()
            );
        }
    }
    i32::from(regressed)
}
