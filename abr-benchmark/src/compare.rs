//! `abr-benchmark compare A B`: one verdict per (workload, end-to-end
//! metric) from two result files, judged by `BENCHMARK.json`'s bounds.
//!
//! A result file holds one JSON record per line, as `--out` appends
//! them. For each pair the medians and the quartile spreads (Python's
//! `statistics.quantiles(n=4)`) of A's and B's untraced runs are
//! compared: a spread wider than the bound makes the pair `unresolved`
//! unless every run of B reads better (or worse) than every run of A;
//! otherwise B's median is `better` or `worse` than A's by more than the
//! bound, or `within` it.

use crate::api::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// One pair's judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians differ by no more than the bound.
    Within,
    /// B is better by more than the bound.
    Better,
    /// B is worse by more than the bound.
    Worse,
    /// A spread exceeds the bound (or a side has fewer than two runs).
    Unresolved,
}

/// How a metric is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of A's median.
    pub bound: f64,
}

/// Judges B's runs against A's for one metric.
pub fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> Verdict {
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let separated = |first: &[f64], second: &[f64]| {
        !a.is_empty()
            && !b.is_empty()
            && first.iter().all(|&x| second.iter().all(|&y| better(x, y)))
    };
    let (ma, mb) = (median(a), median(b));
    let resolved = matches!((spread(a), spread(b)), (Some(sa), Some(sb)) if sa <= rule.bound && sb <= rule.bound);
    if !resolved || ma == 0.0 {
        return if separated(b, a) {
            Verdict::Better
        } else if separated(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = (mb - ma) / ma.abs();
    let worse_by = if rule.lower_is_better {
        change
    } else {
        -change
    };
    if worse_by > rule.bound {
        Verdict::Worse
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The end-to-end rules of a `BENCHMARK.json`.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let v = Json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without `name`")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without `bound`")?;
            Ok(Rule {
                name: name.into(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Untraced values per (workload, metric) in a result file.
pub fn load(results: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in results
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(workload) = rec.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `compare A B [--bench BENCHMARK.json]`. Prints one line per pair;
/// exits 1 when any pair is `worse`.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            other => files.push(other.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: abr-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]".into());
    };
    let rules = rules(&read(&bench)?)?;
    let (a, b) = (load(&read(a_path)?)?, load(&read(b_path)?)?);
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spr A", "spr B", "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        for rule in &rules {
            let key = (w.clone(), rule.name.clone());
            let (va, vb) = (
                a.get(&key).cloned().unwrap_or_default(),
                b.get(&key).cloned().unwrap_or_default(),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, rule);
            any_worse |= v == Verdict::Worse;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma != 0.0 {
                Some((mb - ma) / ma.abs())
            } else {
                None
            };
            println!(
                "{:<14} {:<16} {:>12.5} {:>12.5} {:>9} {:>8} {:>8} {:>5.0}%  {}",
                w,
                rule.name,
                ma,
                mb,
                pct(change),
                pct(spread(&va)),
                pct(spread(&vb)),
                rule.bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(i32::from(any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts_on_synthetic_runs() {
        let lower = rule(true, 0.10);
        let shifted = |f: f64| A.map(|v| v * f);
        assert_eq!(verdict(&A, &shifted(1.05), &lower), Verdict::Within);
        assert_eq!(verdict(&A, &shifted(1.20), &lower), Verdict::Worse);
        assert_eq!(verdict(&A, &shifted(0.80), &lower), Verdict::Better);
        let higher = rule(false, 0.10);
        assert_eq!(verdict(&A, &shifted(1.20), &higher), Verdict::Better);
        assert_eq!(verdict(&A, &shifted(0.80), &higher), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
        let lower = rule(true, 0.10);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&A, &noisy, &lower), Verdict::Unresolved);
        let far = noisy.map(|v| v + 1000.0);
        assert_eq!(verdict(&A, &far, &lower), Verdict::Worse);
        assert_eq!(
            verdict(&A, &[100.0], &lower),
            Verdict::Unresolved,
            "one run has no spread"
        );
    }

    #[test]
    fn result_files_and_bounds_parse() {
        let bench = r#"{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#;
        assert_eq!(
            rules(bench).unwrap(),
            vec![Rule {
                name: "latency_p50_ms".into(),
                lower_is_better: true,
                bound: 0.1
            }]
        );
        let results = concat!(
            r#"{"workload":"w","trace":0,"metrics":{"latency_p50_ms":{"value":2.5,"unit":"ms"}}}"#,
            "\n",
            r#"{"workload":"w","trace":1,"metrics":{"x":{"value":9,"unit":"ms"}}}"#,
            "\n",
            r#"{"workload":"w","trace":0,"metrics":{"latency_p50_ms":{"value":3.5,"unit":"ms"}}}"#,
        );
        let m = load(results).unwrap();
        assert_eq!(
            m[&("w".to_string(), "latency_p50_ms".to_string())],
            vec![2.5, 3.5]
        );
        assert_eq!(m.len(), 1, "traced records are not compared");
    }
}
