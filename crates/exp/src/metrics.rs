//! JSONL run-metrics export (ROADMAP item): one JSON object per solve,
//! carrying iterations, the residual trajectory, staleness moments, and —
//! for faulted runs — the full [`FaultReport`]. Rendered through the
//! workspace codec [`crate::json`], behind a [`MetricsSink`] trait so
//! experiments stay agnostic of where the lines go (file, memory,
//! nowhere).

use crate::json::{obj, Value};
use abr_gpu::{FaultReport, UpdateTrace};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The per-solve record a sink receives.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Experiment name (e.g. `"recovery"`).
    pub experiment: String,
    /// Matrix / system label.
    pub matrix: String,
    /// Method / configuration label (e.g. `"recovery-(15)"`).
    pub method: String,
    /// Global iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Final relative residual.
    pub final_residual: f64,
    /// `(global_iteration, relative_residual)` checks, in order — the
    /// concurrent monitor's trajectory for persistent solves, or the
    /// recorded history for sim ones.
    pub residuals: Vec<(usize, f64)>,
    /// Realised update skew watermark (`UpdateTrace::max_skew`).
    pub max_skew: usize,
    /// Mean neighbour-read staleness shift (Eq. 3 measured).
    pub mean_shift: f64,
    /// Fraction of fresh (shift <= 0) neighbour reads.
    pub fraction_fresh: f64,
    /// The live fault runtime's report, when the solve ran one.
    pub fault: Option<FaultReport>,
}

impl RunMetrics {
    /// Copies the staleness moments out of an executor trace.
    pub fn with_trace(mut self, trace: &UpdateTrace) -> RunMetrics {
        self.max_skew = trace.max_skew;
        self.mean_shift = trace.staleness.mean_shift();
        self.fraction_fresh = trace.staleness.fraction_fresh();
        self
    }

    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let residuals =
            self.residuals.iter().map(|&(it, rr)| Value::Arr(vec![count(it), Value::Num(rr)]));
        obj(vec![
            ("experiment", Value::Str(self.experiment.clone())),
            ("matrix", Value::Str(self.matrix.clone())),
            ("method", Value::Str(self.method.clone())),
            ("iterations", count(self.iterations)),
            ("converged", Value::Bool(self.converged)),
            ("final_residual", Value::Num(self.final_residual)),
            ("residuals", Value::Arr(residuals.collect())),
            ("max_skew", count(self.max_skew)),
            ("mean_shift", Value::Num(self.mean_shift)),
            ("fraction_fresh", Value::Num(self.fraction_fresh)),
            ("fault", self.fault.as_ref().map_or(Value::Null, fault_value)),
        ])
        .render()
    }
}

fn count(n: usize) -> Value {
    Value::Num(n as f64)
}

fn fault_value(f: &FaultReport) -> Value {
    let deaths = f.deaths.iter().map(|d| {
        obj(vec![
            ("worker", count(d.worker)),
            ("declared_at", count(d.declared_at)),
            ("detection_lag", count(d.detection_lag)),
        ])
    });
    let reassignments = f.reassignments.iter().map(|r| {
        obj(vec![
            ("shard", count(r.shard)),
            ("new_owner", count(r.new_owner)),
            ("at_floor", count(r.at_floor)),
        ])
    });
    let frozen_spans = f.frozen_spans.iter().map(|s| {
        obj(vec![
            ("block", count(s.block)),
            ("frozen_at", count(s.frozen_at)),
            ("outage_rounds", count(s.outage_rounds)),
            ("thawed", Value::Bool(s.thawed)),
        ])
    });
    obj(vec![
        ("caught_panics", count(f.caught_panics)),
        ("max_outage_rounds", count(f.max_outage_rounds)),
        ("deaths", Value::Arr(deaths.collect())),
        ("reassignments", Value::Arr(reassignments.collect())),
        ("frozen_spans", Value::Arr(frozen_spans.collect())),
    ])
}

/// Where run metrics go. Experiments call [`record`](Self::record) once
/// per solve; the driver decides the destination.
pub trait MetricsSink {
    /// Accepts one solve's record.
    fn record(&mut self, metrics: &RunMetrics);
    /// Flushes buffered output (a no-op for most sinks).
    fn flush(&mut self) {}
}

/// Discards everything (the default when no `--out-metrics` is given).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn record(&mut self, _metrics: &RunMetrics) {}
}

/// Collects rendered JSONL lines in memory (tests, programmatic use).
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    /// The recorded lines, one JSON object each.
    pub lines: Vec<String>,
}

impl MetricsSink for MemorySink {
    fn record(&mut self, metrics: &RunMetrics) {
        self.lines.push(metrics.to_json_line());
    }
}

/// Appends one JSON line per record to a file (the `--out-metrics FILE`
/// sink of the `repro` binary and the daemon's per-request stream).
///
/// Line-buffered: every record hits the file at the newline, so a
/// long-running daemon's metrics are tailable (`tail -f`) and every
/// completed record survives a crash mid-solve. The trailing-flush cost
/// is one small `write(2)` per solve — noise next to the solve itself.
#[derive(Debug)]
pub struct JsonlFileSink {
    path: PathBuf,
    writer: std::io::LineWriter<std::fs::File>,
}

impl JsonlFileSink {
    /// Creates (truncating) the metrics file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlFileSink> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlFileSink { path, writer: std::io::LineWriter::new(file) })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl MetricsSink for JsonlFileSink {
    fn record(&mut self, metrics: &RunMetrics) {
        let line = metrics.to_json_line();
        if let Err(e) = writeln!(self.writer, "{line}") {
            eprintln!("warning: could not write metrics to {}: {e}", self.path.display());
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            eprintln!("warning: could not flush metrics to {}: {e}", self.path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_gpu::persistent::{DeathRecord, FrozenSpan, Reassignment};

    fn sample() -> RunMetrics {
        RunMetrics {
            experiment: "recovery".into(),
            matrix: "L100".into(),
            method: "recovery-(15)".into(),
            iterations: 420,
            converged: true,
            final_residual: 3.5e-11,
            residuals: vec![(10, 0.5), (20, 0.25)],
            max_skew: 4,
            mean_shift: 0.75,
            fraction_fresh: 0.5,
            fault: Some(FaultReport {
                deaths: vec![DeathRecord { worker: 1, declared_at: 18, detection_lag: 8 }],
                reassignments: vec![Reassignment { shard: 1, new_owner: 0, at_floor: 33 }],
                frozen_spans: vec![FrozenSpan {
                    block: 3,
                    frozen_at: 10,
                    outage_rounds: 23,
                    thawed: true,
                }],
                caught_panics: 0,
                max_outage_rounds: 23,
            }),
        }
    }

    #[test]
    fn json_line_carries_every_section() {
        let want = concat!(
            r#"{"experiment":"recovery","matrix":"L100","method":"recovery-(15)","#,
            r#""iterations":420,"converged":true,"final_residual":0.000000000035,"#,
            r#""residuals":[[10,0.5],[20,0.25]],"max_skew":4,"mean_shift":0.75,"#,
            r#""fraction_fresh":0.5,"fault":{"caught_panics":0,"max_outage_rounds":23,"#,
            r#""deaths":[{"worker":1,"declared_at":18,"detection_lag":8}],"#,
            r#""reassignments":[{"shard":1,"new_owner":0,"at_floor":33}],"#,
            r#""frozen_spans":[{"block":3,"frozen_at":10,"outage_rounds":23,"thawed":true}]}}"#,
        );
        assert_eq!(sample().to_json_line(), want);
    }

    #[test]
    fn faultless_record_renders_null_fault() {
        let m = RunMetrics { fault: None, ..sample() };
        assert!(m.to_json_line().contains("\"fault\":null"));
    }

    #[test]
    fn memory_sink_collects_lines() {
        let mut sink = MemorySink::default();
        sink.record(&sample());
        sink.record(&sample());
        sink.flush();
        assert_eq!(sink.lines.len(), 2);
        assert!(sink.lines[0].starts_with('{') && sink.lines[0].ends_with('}'));
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join(format!("abr_metrics_{}.jsonl", std::process::id()));
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.record(&sample());
        sink.record(&RunMetrics { fault: None, ..sample() });
        sink.flush();
        drop(sink);
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"fault\":null"));
    }

    #[test]
    fn file_sink_is_tailable_record_by_record() {
        // No explicit flush, sink still alive: each record must already
        // be on disk (the daemon-crash / `tail -f` guarantee).
        let path = std::env::temp_dir().join(format!("abr_tail_{}.jsonl", std::process::id()));
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.record(&sample());
        let after_one = std::fs::read_to_string(&path).unwrap();
        sink.record(&sample());
        let after_two = std::fs::read_to_string(&path).unwrap();
        drop(sink);
        let _ = std::fs::remove_file(&path);
        assert_eq!(after_one.lines().count(), 1, "first record visible before flush");
        assert_eq!(after_two.lines().count(), 2, "second record visible before flush");
    }

    #[test]
    fn escaping_goes_through_the_shared_shim() {
        let m = RunMetrics { matrix: "a\"b\\c".into(), ..Default::default() };
        assert!(m.to_json_line().contains("a\\\"b\\\\c"));
    }
}
