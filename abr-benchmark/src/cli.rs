//! The command line: run one workload (the form the benchmark contract
//! invokes), run all four in child processes, or compare result files.

use crate::api::{obj, Json};
use crate::metrics::{self, Metric};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::workloads::{self, Cfg, WORKLOADS};
use crate::{compare, host};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "\
usage: abr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--spans FILE] [--out FILE]
       abr-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]

Without --workload, runs every workload, each in its own child process
(with --trace 1, untraced and then traced, and reports the tracing
overhead). The last line of standard output is one JSON result object.

  --workload NAME  solve_fv1m | table1_mtx | serve_repeat | serve_ingest
  --seed N         input seed (default 1)
  --seconds S      length of the timed phase (default 10)
  --trace 0|1      1 = traced run: per-layer metrics instead of end-to-end
  --smoke          toy sizes and a few ops, for the smoke test
  --spans FILE     with --trace 1, write the spans as Chrome trace JSON
  --out FILE       append each run's record (with host stamp) to FILE";

/// Scratch files of a run live under this directory of the working
/// directory, and are removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

/// Runs the command line; returns the exit code.
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("abr-benchmark: {e}");
            2
        }
    }
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(0);
    }
    let o = parse(args)?;
    match &o.workload {
        Some(w) => run_one(&o, w),
        None => run_all(&o),
    }
}

/// A run's scratch directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run still has its directory there.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn metrics_json(ms: &[Metric]) -> Result<Json, String> {
    let fields = ms
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            Ok((
                m.name.to_string(),
                obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::Obj(fields))
}

fn print_metrics(workload: &str, label: &str, ms: &[Metric]) {
    for m in ms {
        println!(
            "# {workload} {label}{} = {} {}  ({})",
            m.name, m.value, m.unit, m.base
        );
    }
}

fn run_one(o: &Opts, workload: &str) -> Result<i32, String> {
    let stamp = host::stamp(o.seed);
    println!("# host {}", stamp.render());
    let dir = WorkDir::new(workload)?;
    let cfg = Cfg {
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        work_dir: dir.0.clone(),
    };
    let mut tracer = Tracer::new(o.trace);
    let outcome = workloads::run(workload, &cfg, &mut tracer)?;
    let (heap, rss) = (host::peak_heap_mb(), host::peak_rss_mb());
    drop(dir);

    for note in &outcome.notes {
        println!("# {workload} {note}");
    }
    println!("# {workload} {}", metrics::tail_line(&outcome));
    println!("# {workload} peak_rss_mb = {rss} MiB  (VmHWM at exit; not gated)");
    let e2e = metrics::end_to_end(&outcome, heap);
    let skew_ok = outcome
        .layers
        .runs
        .iter()
        .all(|r| r.max_skew <= r.skew_bound);
    let correct = outcome.tally.false_claims == 0 && skew_ok && outcome.tally.attempted > 0;
    println!("# {workload} gate {}", outcome.tally.summary());
    let reported = if o.trace {
        print_metrics(workload, "traced ", &e2e);
        println!("# traced_end_to_end {}", metrics_json(&e2e)?.render());
        let layers = metrics::per_layer(&outcome.layers, &tracer);
        print_metrics(workload, "", &layers);
        let ops = outcome.latencies_ms.len().max(1) as f64;
        for (name, st) in tracer.self_times() {
            println!(
                "# {workload} self {name}: {} spans, total {:.3} ms, self {:.3} ms, self per op {:.4} ms",
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6 / ops
            );
        }
        if let Some(path) = &o.spans {
            std::fs::write(path, tracer.chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        layers
    } else {
        print_metrics(workload, "", &e2e);
        e2e
    };

    let fields = |extra: Vec<(&str, Json)>| -> Result<Json, String> {
        let mut f = extra;
        f.extend([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.tally.attempted as f64)),
            ("failed", Json::Num(outcome.tally.failed as f64)),
            ("metrics", metrics_json(&reported)?),
        ]);
        Ok(obj(f))
    };
    if let Some(path) = &o.out {
        let record = fields(vec![
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(o.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(o.trace)))),
            ("smoke", Json::Bool(o.smoke)),
            ("host", stamp),
            (
                "latency_samples",
                Json::Num(outcome.latencies_ms.len() as f64),
            ),
            ("tail_percentile", Json::Num(outcome.tail_q * 100.0)),
            (
                "latency_tail_ms",
                Json::Num(percentile(&outcome.latencies_ms, outcome.tail_q)),
            ),
            ("peak_rss_mb", Json::Num(rss)),
        ])?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", record.render()).map_err(|e| e.to_string())?;
    }
    println!("{}", fields(Vec::new())?.render());
    Ok(0)
}

/// Runs one workload in a child process; echoes its report lines and
/// returns them with its parsed result line.
fn child(o: &Opts, workload: &str, trace: bool) -> Result<(Vec<String>, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = &o.out {
        cmd.arg("--out").arg(out);
    }
    if let (true, Some(spans)) = (trace, &o.spans) {
        cmd.arg("--spans")
            .arg(spans.with_extension(format!("{workload}.json")));
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    Ok((lines, Json::parse(&last)?))
}

fn metric_value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

fn run_all(o: &Opts) -> Result<i32, String> {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let (_, result) = child(o, w, false)?;
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let untraced = result.get("metrics").cloned().unwrap_or(Json::Null);
        if o.trace {
            let (lines, traced) = child(o, w, true)?;
            correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            let traced_e2e = lines
                .iter()
                .find_map(|l| l.strip_prefix("# traced_end_to_end "))
                .map(Json::parse)
                .transpose()?
                .unwrap_or(Json::Null);
            for name in ["ops_per_s", "latency_p50_ms"] {
                if let (Some(u), Some(t)) = (
                    metric_value(&untraced, name),
                    metric_value(&traced_e2e, name),
                ) {
                    println!(
                        "# {w} tracing overhead {name}: untraced {u} traced {t} ({:+.2}%)",
                        (t - u) / u * 100.0
                    );
                }
            }
        }
        per_workload.push((w.to_string(), untraced));
    }
    let summary = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    println!("{}", summary.render());
    Ok(0)
}
