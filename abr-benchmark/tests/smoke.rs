//! Runs every workload at toy size, untraced and traced, and checks the
//! output against `BENCHMARK.json`: every end-to-end metric (untraced)
//! and every per-layer metric (traced) is printed with its unit, every
//! answer passed the gate, and the traced spans nest with non-negative
//! self time.

use abr_benchmark::api::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`"))
}

/// Runs one smoke workload; returns its stdout lines and parsed result.
fn run(workload: &str, trace: bool, spans: Option<&Path>) -> (Vec<String>, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_abr-benchmark"));
    cmd.args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("result line is JSON");
    (lines, result)
}

fn assert_metrics(workload: &str, result: &Json, expected: &[Json]) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics")
    };
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload}: exactly the listed metrics"
    );
    for m in expected {
        let name = field(m, "name");
        let got = result.get("metrics").and_then(|ms| ms.get(name));
        let got = got.unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            got.get("unit").and_then(Json::as_str),
            Some(field(m, "unit")),
            "{workload} {name}"
        );
        let value = got.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {got:?}"
        );
    }
}

/// Every span lies inside its parent, and its children cover no more
/// than its own duration.
fn assert_spans_nest(path: &Path) {
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("spans written")).expect("spans parse");
    let events = list(&doc, "traceEvents");
    assert!(!events.is_empty(), "{}: no spans", path.display());
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).expect("numeric field");
    let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
    let mut child_us = vec![0.0; events.len()];
    for (i, e) in events.iter().enumerate() {
        assert_eq!(arg(e, "id"), Some(i as f64));
        let Some(p) = arg(e, "parent") else { continue };
        let parent = &events[p as usize];
        let (ts, end) = (num(e, "ts"), num(e, "ts") + num(e, "dur"));
        let (pts, pend) = (num(parent, "ts"), num(parent, "ts") + num(parent, "dur"));
        assert!(
            ts >= pts - 0.01 && end <= pend + 0.01,
            "span {i} escapes its parent {p}"
        );
        child_us[p as usize] += num(e, "dur");
    }
    for (e, children) in events.iter().zip(child_us) {
        assert!(
            num(e, "dur") - children >= -0.01,
            "negative self time: {e:?}"
        );
    }
}

#[test]
fn every_workload_prints_every_listed_metric_and_nested_spans() {
    let bench = benchmark_json();
    let spans_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for w in list(&bench, "workloads") {
        let name = field(w, "name");
        let (_, untraced) = run(name, false, None);
        assert_metrics(name, &untraced, list(&bench, "end_to_end"));

        let spans = spans_dir.join(format!("smoke-spans-{name}.json"));
        let (lines, traced) = run(name, true, Some(&spans));
        assert_metrics(name, &traced, list(&bench, "per_layer"));
        assert!(
            lines.iter().any(|l| l.starts_with("# traced_end_to_end ")),
            "{name}: traced e2e line"
        );
        assert_spans_nest(&spans);
    }
}

#[test]
fn compare_reads_two_result_files() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let rec = |v: f64| {
        format!(
            r#"{{"workload":"w","trace":0,"metrics":{{"latency_p50_ms":{{"value":{v},"unit":"ms"}}}}}}"#
        )
    };
    let a: Vec<String> = [10.0, 10.1, 9.9, 10.05].iter().map(|&v| rec(v)).collect();
    let b: Vec<String> = [13.0, 13.1, 12.9, 13.05].iter().map(|&v| rec(v)).collect();
    let (pa, pb) = (dir.join("cmp-a.jsonl"), dir.join("cmp-b.jsonl"));
    std::fs::write(&pa, a.join("\n")).unwrap();
    std::fs::write(&pb, b.join("\n")).unwrap();
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_abr-benchmark"))
        .arg("compare")
        .args([&pa, &pb])
        .arg("--bench")
        .arg(&bench)
        .output()
        .expect("compare runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 30% slower median is a regression:\n{stdout}"
    );
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("w ") && l.contains("latency_p50_ms") && l.ends_with("worse")));
}
