//! `repro` — regenerates every table and figure of the paper from this
//! workspace's implementation.
//!
//! ```text
//! repro [--scale full|small] [--runs N] [--seed S] [--out DIR]
//!       [--out-metrics FILE] [--mtx PATH] <experiment>...
//!
//! experiments:
//!   table1 nondet (= table2 table3 fig5) fig6 fig7 table4 fig8 table5
//!   fig9 fig10 (= table6) fig11 staleness ablation recovery ingest all
//!
//! `ingest` runs the convergence comparison on an externally supplied
//! MatrixMarket file (`--mtx PATH`; a small sample is checked in at
//! `crates/exp/data/lap8.mtx`) instead of the generator suite.
//! ```
//!
//! Results print as markdown/text; with `--out DIR` each artifact is also
//! written as CSV and compact JSON, and each figure as SVG.
//! `--out-metrics FILE` streams one JSONL record per solve (for the
//! experiments that produce them) to `FILE`.

use abr_exp::experiments::{
    ablation, comm_staleness, convergence_figs, fault_exp, fig11, fig9, ingest, nondet,
    recovery, resilience, table1, theory, timing_tables, verify,
};
use abr_exp::metrics::{JsonlFileSink, MetricsSink, NullSink};
use abr_exp::report::{Figure, Table};
use abr_exp::matrices::full_suite;
use abr_exp::{ExpOptions, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    opts: ExpOptions,
    out: Option<PathBuf>,
    out_metrics: Option<PathBuf>,
    mtx: Option<PathBuf>,
    experiments: Vec<String>,
}

const USAGE: &str = "usage: repro [--scale full|small] [--runs N] [--seed S] \
[--out DIR] [--out-metrics FILE] [--mtx PATH] <experiment>...\nexperiments: table1 nondet \
fig6 fig7 table4 fig8 table5 fig9 fig10 fig11 staleness ablation recovery \
resilience theory verify ingest export-matrices all";

fn parse_args() -> Result<Cli, String> {
    let mut opts = ExpOptions::default();
    let mut out = None;
    let mut out_metrics = None;
    let mut mtx = None;
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(&v).ok_or(format!("bad scale: {v}"))?;
            }
            "--runs" => {
                let v = args.next().ok_or("--runs needs a value")?;
                opts.runs = v.parse().map_err(|_| format!("bad runs: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--out-metrics" => {
                out_metrics =
                    Some(PathBuf::from(args.next().ok_or("--out-metrics needs a value")?));
            }
            "--mtx" => {
                mtx = Some(PathBuf::from(args.next().ok_or("--mtx needs a value")?));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            e if e.starts_with('-') => return Err(format!("unknown flag {e}")),
            e => experiments.push(e.to_string()),
        }
    }
    if experiments.is_empty() {
        return Err(format!("no experiment given; try `repro all`\n{USAGE}"));
    }
    Ok(Cli { opts, out, out_metrics, mtx, experiments })
}

fn emit_table(t: &Table, out: Option<&Path>, stem: &str) {
    println!("{}", t.to_markdown());
    if let Some(dir) = out {
        for (ext, content) in [("csv", t.to_csv()), ("json", t.to_json())] {
            let path = dir.join(format!("{stem}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn emit_figure(f: &Figure, out: Option<&Path>, stem: &str) {
    println!("{}", f.to_text(12));
    if let Some(dir) = out {
        for (ext, content) in [
            ("csv", f.to_csv()),
            ("json", f.to_json()),
            ("svg", abr_exp::svg::figure_to_svg(f)),
        ] {
            let path = dir.join(format!("{stem}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn run_one(
    name: &str,
    opts: &ExpOptions,
    out: Option<&Path>,
    mtx: Option<&Path>,
    sink: &mut dyn MetricsSink,
) -> Result<(), String> {
    let err = |e: abr_sparse::SparseError| format!("{name}: {e}");
    match name {
        "table1" => emit_table(&table1::run(opts).map_err(err)?, out, "table1"),
        "nondet" | "table2" | "table3" | "fig5" => {
            let r = nondet::run(opts).map_err(err)?;
            for (i, t) in r.tables.iter().enumerate() {
                emit_table(t, out, &format!("table{}", i + 2));
            }
            emit_figure(&r.figure, out, "fig5");
        }
        "fig6" | "fig7" => {
            let r = convergence_figs::run(opts).map_err(err)?;
            let figs = if name == "fig6" { &r.fig6 } else { &r.fig7 };
            for (i, f) in figs.iter().enumerate() {
                emit_figure(f, out, &format!("{name}_{i}"));
            }
        }
        "table4" => emit_table(&timing_tables::table4(opts).map_err(err)?, out, "table4"),
        "table5" => emit_table(&timing_tables::table5(opts).map_err(err)?, out, "table5"),
        "fig8" => emit_figure(&timing_tables::fig8(opts).map_err(err)?, out, "fig8"),
        "fig9" => {
            for (i, f) in fig9::run(opts).map_err(err)?.iter().enumerate() {
                emit_figure(f, out, &format!("fig9_{i}"));
            }
        }
        "fig10" | "table6" => {
            let r = fault_exp::run(opts).map_err(err)?;
            for (i, f) in r.figures.iter().enumerate() {
                emit_figure(f, out, &format!("fig10_{i}"));
            }
            emit_table(&r.table, out, "table6");
        }
        "fig11" => emit_table(&fig11::run(opts).map_err(err)?, out, "fig11"),
        "staleness" => {
            emit_table(&comm_staleness::run(opts).map_err(err)?, out, "staleness")
        }
        "recovery" => {
            let r = recovery::run_with_sink(opts, sink).map_err(err)?;
            emit_table(&r.table, out, "recovery");
            emit_figure(&r.figure, out, "recovery_fig10");
        }
        "ingest" => {
            let path = mtx.ok_or("ingest needs --mtx PATH")?;
            emit_table(&ingest::run_with_sink(opts, path, sink).map_err(err)?, out, "ingest");
        }
        "resilience" => emit_table(&resilience::run(opts).map_err(err)?, out, "resilience"),
        "theory" => emit_table(&theory::run(opts).map_err(err)?, out, "theory"),
        "verify" => {
            let checks = verify::run(opts).map_err(err)?;
            emit_table(&verify::table(&checks), out, "verify");
            if checks.iter().any(|c| !c.pass) {
                return Err("verify: at least one claim FAILED".into());
            }
        }
        "ablation" => {
            for (i, t) in ablation::run(opts).map_err(err)?.iter().enumerate() {
                emit_table(t, out, &format!("ablation_{i}"));
            }
        }
        "export-matrices" => {
            let dir = out.ok_or("export-matrices needs --out DIR")?;
            for sys in full_suite(opts.scale).map_err(err)? {
                let path = dir.join(format!("{}.mtx", sys.which.name()));
                let mut buf = Vec::new();
                abr_sparse::io::write_matrix_market(&sys.a, &mut buf)
                    .map_err(|e| format!("serialise {}: {e}", sys.which.name()))?;
                std::fs::write(&path, buf).map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {} ({} x {}, nnz {})", path.display(), sys.a.n_rows(),
                         sys.a.n_cols(), sys.a.nnz());
            }
        }
        // `verify` is intentionally not part of `all`: it re-runs the
        // heavy experiments to grade them and would double the runtime.
        "all" => {
            for e in [
                "table1", "nondet", "fig6", "fig7", "table4", "fig8", "table5", "fig9",
                "fig10", "fig11", "staleness", "ablation", "recovery", "resilience", "theory",
            ] {
                eprintln!("== running {e} ==");
                run_one(e, opts, out, mtx, sink)?;
            }
        }
        other => return Err(format!("unknown experiment: {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut sink: Box<dyn MetricsSink> = match &cli.out_metrics {
        None => Box::new(NullSink),
        Some(path) => match JsonlFileSink::create(path) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
    };
    for name in &cli.experiments {
        if let Err(e) =
            run_one(name, &cli.opts, cli.out.as_deref(), cli.mtx.as_deref(), sink.as_mut())
        {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    sink.flush();
    ExitCode::SUCCESS
}
