//! `htforge-server` — the long-running campaign daemon (DESIGN.md §10).
//!
//! ```text
//! htforge-server [--workers N] [--tenant NAME]            stdio mode
//! htforge-server --socket PATH [--journal PATH] [--fsync always|batch:N|never]
//! htforge-server --dump-journal PATH                      inspect a segment
//! ```
//!
//! Stdio mode speaks the `htforge.job_request/v1` JSONL protocol on
//! stdin and streams `htforge.job_response/v1` lines on stdout; EOF is
//! a graceful drain shutdown. Socket mode binds a Unix socket and
//! serves **concurrent** connections over one shared scheduler and
//! compiled-circuit cache; a client `shutdown` request stops the
//! daemon.
//!
//! With `--journal` every accepted job is written ahead to an
//! append-only segment; after a crash the next start replays it and
//! re-runs accepted-but-unfinished jobs (at-least-once, deduplicated).
//! `SIGTERM`/`SIGINT` trigger a graceful drain: accepted jobs finish,
//! terminal responses flush, the final statistics are logged, and the
//! process exits 0.

use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use htforge::server::{
    read_records_with_archive, serve, serve_unix_socket, FsyncPolicy, JournalConfig, ProgramCache,
    ServerConfig, StatsSnapshot,
};

const USAGE: &str = "\
usage: htforge-server [options]

options:
  --workers N         worker threads (default: one per core, max 8)
  --tenant NAME       tenant for requests that name none (default: default)
  --socket PATH       serve a Unix socket instead of stdin/stdout
  --no-progress       do not stream htforge.job_progress/v1 frames

durability:
  --journal PATH      write-ahead job journal; replayed on restart so
                      accepted jobs survive a crash
  --fsync POLICY      journal fsync policy: always, never, batch:N
                      (default batch:64)
  --dump-journal PATH print a segment's records as JSONL and exit
                      (each line is an htforge.server_journal/v1 doc;
                      a .1 pre-compaction archive is included, so the
                      dump covers the full campaign across rotations)

admission control (0 = unlimited):
  --max-queue N       bound on queued jobs; excess submits are shed
                      with a structured queue_full rejection
  --tenant-active N   per-tenant cap on queued+running jobs
  --tenant-rate R     per-tenant submit rate (jobs/sec token bucket)
  --tenant-burst N    token-bucket burst size (default: max(rate, 1))

Running jobs stream progress frames before their terminal response;
`status` and `metrics` requests introspect the live daemon (the
`metrics` body includes journal replay/recovery statistics). SIGTERM
and SIGINT drain gracefully. The protocol is one JSON object per line;
see DESIGN.md \u{a7}10 and the README quickstart for a copy-pasteable
session.
";

/// Flipped by the SIGTERM/SIGINT handler; every serve loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGTERM (15) and SIGINT (2) via the libc
/// `signal` symbol the Rust runtime already links — no new dependency.
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    for sig in [2, 15] {
        unsafe {
            signal(sig, on_signal as *const () as usize);
        }
    }
}

fn dump_journal(path: &Path) -> Result<(), String> {
    let (records, _) =
        read_records_with_archive(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for doc in &records {
        println!("{}", doc.compact());
    }
    eprintln!(
        "[htforge-server] {}: {} valid record{}",
        path.display(),
        records.len(),
        if records.len() == 1 { "" } else { "s" }
    );
    Ok(())
}

fn log_outcome(mode: &str, stats: &StatsSnapshot) {
    eprintln!(
        "[htforge-server] {mode}: drained {} job{} (completed {}, failed {}, \
         cancelled {}, timeout {}), rejected {}",
        stats.finished(),
        if stats.finished() == 1 { "" } else { "s" },
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.timeout,
        stats.rejected,
    );
}

fn run() -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut socket: Option<PathBuf> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("--{name} requires a value"))
        };
        match arg.as_str() {
            "--workers" => {
                config.workers = value("workers")?
                    .parse()
                    .map_err(|e| format!("invalid --workers: {e}"))?;
            }
            "--tenant" => config.default_tenant = value("tenant")?,
            "--socket" => socket = Some(PathBuf::from(value("socket")?)),
            "--no-progress" => config.progress = false,
            "--journal" => journal_path = Some(PathBuf::from(value("journal")?)),
            "--fsync" => {
                fsync = Some(
                    FsyncPolicy::parse(&value("fsync")?)
                        .map_err(|e| format!("invalid --fsync: {e}"))?,
                );
            }
            "--dump-journal" => return dump_journal(&PathBuf::from(value("dump-journal")?)),
            "--max-queue" => {
                config.admission.max_queue_depth = value("max-queue")?
                    .parse()
                    .map_err(|e| format!("invalid --max-queue: {e}"))?;
            }
            "--tenant-active" => {
                config.admission.tenant_max_active = value("tenant-active")?
                    .parse()
                    .map_err(|e| format!("invalid --tenant-active: {e}"))?;
            }
            "--tenant-rate" => {
                config.admission.tenant_rate_per_sec = value("tenant-rate")?
                    .parse()
                    .map_err(|e| format!("invalid --tenant-rate: {e}"))?;
            }
            "--tenant-burst" => {
                config.admission.tenant_burst = value("tenant-burst")?
                    .parse()
                    .map_err(|e| format!("invalid --tenant-burst: {e}"))?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(path) = journal_path {
        let mut jc = JournalConfig::new(path);
        if let Some(policy) = fsync {
            jc.fsync = policy;
        }
        config.journal = Some(jc);
    } else if fsync.is_some() {
        return Err("--fsync requires --journal".into());
    }

    install_signal_handlers();
    let stop = Arc::new(AtomicBool::new(false));
    // Bridge the process-wide signal flag into the serve loops' flag
    // (they poll every ~50 ms anyway, so a tiny relay thread is the
    // simplest std-only wiring).
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if STOP.load(Ordering::Relaxed) {
                stop.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }

    match socket {
        Some(path) => {
            let stats = serve_unix_socket(&path, &config, Arc::new(ProgramCache::new()), stop)
                .map_err(|e| e.to_string())?;
            log_outcome("socket daemon", &stats);
            Ok(())
        }
        None => {
            let summary = serve(
                BufReader::new(io::stdin()),
                io::stdout(),
                config,
                Arc::new(ProgramCache::new()),
                stop,
            )
            .map_err(|e| e.to_string())?;
            log_outcome("stdio session", &summary.stats);
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let _obs = htforge::obs::init_from_env();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
