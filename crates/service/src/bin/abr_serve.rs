//! `abr-serve` — the solve-service daemon binary.
//!
//! ```text
//! abr-serve [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!           [--admission-timeout-ms N] [--max-rows N]
//!           [--chaos KILL,HANG,POISON] [--metrics FILE]
//! ```
//!
//! Serves until a client sends a `shutdown` frame (the SIGTERM-style
//! drain trigger), then drains gracefully: in-flight solves finish or
//! deadline out, metrics flush, and every worker thread is joined. The
//! drain report prints on exit.

use abr_service::daemon::{ChaosConfig, Daemon, DaemonConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: abr-serve [--addr HOST:PORT] [--workers N] \
[--max-inflight N] [--admission-timeout-ms N] [--max-rows N] \
[--chaos KILL,HANG,POISON] [--metrics FILE]";

fn parse_args() -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig { addr: "127.0.0.1:7414".into(), ..DaemonConfig::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?.parse().map_err(|_| "bad --workers")?
            }
            "--max-inflight" => {
                cfg.max_inflight =
                    value("--max-inflight")?.parse().map_err(|_| "bad --max-inflight")?
            }
            "--admission-timeout-ms" => {
                cfg.admission_timeout_ms = value("--admission-timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --admission-timeout-ms")?
            }
            "--max-rows" => {
                cfg.max_rows = value("--max-rows")?.parse().map_err(|_| "bad --max-rows")?
            }
            "--chaos" => cfg.chaos = Some(ChaosConfig::parse(&value("--chaos")?)?),
            "--metrics" => cfg.metrics_path = Some(value("--metrics")?.into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let chaos = cfg.chaos.is_some();
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("abr-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "abr-serve: listening on {}{}",
        daemon.addr(),
        if chaos { " (chaos mode)" } else { "" }
    );
    while !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("abr-serve: draining...");
    let report = daemon.shutdown(Duration::from_secs(10));
    println!(
        "abr-serve: drained (workers joined: {}, connections joined: {}, \
         completed: {}, shed: {}, cancelled: {}, deadline: {}, failed: {}, evicted: {})",
        report.workers_joined,
        report.connections_joined,
        report.counters.completed,
        report.counters.shed,
        report.counters.cancelled,
        report.counters.deadline_exceeded,
        report.counters.failed,
        report.counters.evicted,
    );
    ExitCode::SUCCESS
}
