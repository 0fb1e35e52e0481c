//! Session plumbing: wires a [`Server`] to byte streams.
//!
//! One session = one request stream + one response stream. A dedicated
//! writer thread owns the output and drains the session's response
//! channel, so workers never block on a slow client and response lines
//! are never interleaved. In stdio mode EOF on the input is a graceful
//! `drain` shutdown: accepted jobs finish, their results flush, and
//! the final `shutdown` line closes the stream.
//!
//! Socket mode ([`serve_unix_socket`]) is concurrent: every accepted
//! connection gets its own reader + writer thread pair and a private
//! response session, all feeding **one** shared [`Server`] (one
//! scheduler, one journal, one cache). A disconnect closes only that
//! connection; a client `shutdown` request — or an external stop flag,
//! the binary's SIGTERM path — drains the whole daemon, flushing
//! terminal responses to still-connected clients before the socket
//! closes.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use crate::cache::ProgramCache;
use crate::core::{Server, ServerConfig, SessionControl, StatsSnapshot};
use crate::protocol::Response;

/// What one session did, for logs and tests.
#[derive(Debug, Clone, Copy)]
pub struct SessionSummary {
    /// Final server statistics (every accepted job is terminal here).
    pub stats: StatsSnapshot,
    /// Whether the client requested shutdown explicitly (vs plain EOF).
    pub client_shutdown: bool,
}

/// Serves one JSONL session over arbitrary streams. Returns when the
/// input reaches EOF or the client sends a `shutdown` request, after
/// every accepted job's terminal response (and the final `shutdown`
/// line) has been written and flushed.
///
/// # Errors
///
/// Propagates I/O errors from either stream; jobs already accepted are
/// still drained and counted before the error is returned.
pub fn serve<R, W>(
    input: R,
    output: W,
    config: ServerConfig,
    cache: Arc<ProgramCache>,
) -> io::Result<SessionSummary>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (server, rx) = Server::start_with_cache(config, cache);
    let writer = thread::spawn(move || -> io::Result<()> {
        let mut out = output;
        for resp in rx {
            writeln!(out, "{}", resp.to_line())?;
            out.flush()?;
        }
        Ok(())
    });

    let mut client_shutdown = false;
    let mut read_error = None;
    for line in input.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                read_error = Some(e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if server.handle_line(&line) == SessionControl::Shutdown {
            client_shutdown = true;
            break;
        }
    }

    server.request_shutdown(false);
    let stats = server.join();
    let write_result = writer
        .join()
        .map_err(|_| io::Error::other("response writer panicked"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    write_result?;
    Ok(SessionSummary {
        stats,
        client_shutdown,
    })
}

/// [`serve`] with an external stop flag: when `stop` flips true (the
/// binary's SIGTERM/SIGINT handler), the session stops reading, drains
/// accepted jobs, flushes their terminal responses and the final
/// `shutdown` line, and returns. The input is read from a helper
/// thread so a quiet stream cannot block the stop check.
///
/// # Errors
///
/// Propagates I/O errors from either stream; jobs already accepted are
/// still drained and counted before the error is returned.
pub fn serve_cancellable<R, W>(
    input: R,
    output: W,
    config: ServerConfig,
    cache: Arc<ProgramCache>,
    stop: Arc<AtomicBool>,
) -> io::Result<SessionSummary>
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    let (server, rx) = Server::start_with_cache(config, cache);
    let writer = thread::spawn(move || -> io::Result<()> {
        let mut out = output;
        for resp in rx {
            let last = matches!(resp, Response::Shutdown { .. });
            writeln!(out, "{}", resp.to_line())?;
            out.flush()?;
            if last {
                break;
            }
        }
        Ok(())
    });

    // Reader thread: lines arrive over a channel so the main loop can
    // poll `stop` between reads instead of blocking on a quiet input.
    let (line_tx, line_rx) = mpsc::channel::<io::Result<String>>();
    let _reader = thread::spawn(move || {
        for line in input.lines() {
            let failed = line.is_err();
            if line_tx.send(line).is_err() || failed {
                break;
            }
        }
    });

    let mut client_shutdown = false;
    let mut read_error = None;
    while !stop.load(Ordering::Relaxed) {
        match line_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Ok(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if server.handle_line(&line) == SessionControl::Shutdown {
                    client_shutdown = true;
                    break;
                }
            }
            Ok(Err(e)) => {
                read_error = Some(e);
                break;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    server.request_shutdown(false);
    let stats = server.join();
    let write_result = writer
        .join()
        .map_err(|_| io::Error::other("response writer panicked"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    write_result?;
    Ok(SessionSummary {
        stats,
        client_shutdown,
    })
    // The reader thread is detached: it exits on input EOF or when the
    // closed channel rejects its next line.
}

/// Serves concurrent sessions over a Unix socket, all feeding one
/// shared [`Server`]. A client `shutdown` request drains the daemon;
/// a plain disconnect (EOF) closes only that connection.
///
/// # Errors
///
/// Propagates socket errors (bind/accept); per-connection I/O errors
/// end that connection and are logged, never the daemon.
pub fn serve_unix_socket(path: &Path, config: &ServerConfig) -> io::Result<()> {
    serve_unix_socket_with(
        path,
        config,
        Arc::new(ProgramCache::new()),
        Arc::new(AtomicBool::new(false)),
    )
    .map(|_| ())
}

/// [`serve_unix_socket`] with a shared cache and an external stop flag
/// (the binary's SIGTERM/SIGINT path). When `stop` flips true the
/// accept loop closes, accepted jobs drain, terminal responses flush
/// to still-connected clients, and the function returns the final
/// statistics.
///
/// # Errors
///
/// Propagates socket bind errors; everything after bind degrades
/// per-connection instead of failing the daemon.
pub fn serve_unix_socket_with(
    path: &Path,
    config: &ServerConfig,
    cache: Arc<ProgramCache>,
    stop: Arc<AtomicBool>,
) -> io::Result<StatsSnapshot> {
    // A stale socket file from a previous run blocks bind; remove it.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let (server, rx0) = Server::start_with_cache(config.clone(), cache);
    let server = Arc::new(server);

    // Session-0 drain: responses with no live connection — recovered
    // jobs finishing after a crash, terminals for disconnected clients
    // — are logged so the channel never backs up and nothing vanishes
    // silently.
    let orphan_drain = thread::spawn(move || {
        for resp in rx0 {
            let last = matches!(resp, Response::Shutdown { .. });
            eprintln!("[htforge-server] unrouted: {}", resp.to_line());
            if last {
                break;
            }
        }
    });

    let client_shutdown = Arc::new(AtomicBool::new(false));
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed)
            || client_shutdown.load(Ordering::Relaxed)
            || server.is_shutting_down()
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let flag = Arc::clone(&client_shutdown);
                connections.push(thread::spawn(move || {
                    if let Err(e) = handle_connection(&server, stream, &flag) {
                        eprintln!("[htforge-server] connection error: {e}");
                    }
                }));
                // Reap finished connection threads so a long-lived
                // daemon doesn't accumulate handles.
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("[htforge-server] accept error: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // Graceful drain: stop accepting, finish accepted jobs, flush
    // terminals to clients still connected, then close everything.
    server.request_shutdown(false);
    let stats = server.drain();
    for conn in connections {
        let _ = conn.join();
    }
    let _ = orphan_drain.join();
    let _ = std::fs::remove_file(path);
    Ok(stats)
}

/// One socket connection: a private response session plus a reader
/// loop that polls the server's shutdown state between read timeouts,
/// so a quiet client never pins the daemon open during a drain.
fn handle_connection(
    server: &Server,
    stream: std::os::unix::net::UnixStream,
    client_shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let (session, rx) = server.open_session();
    let out = stream.try_clone()?;
    let writer = thread::spawn(move || -> io::Result<()> {
        let mut out = out;
        for resp in rx {
            let last = matches!(resp, Response::Shutdown { .. });
            writeln!(out, "{}", resp.to_line())?;
            out.flush()?;
            if last {
                break;
            }
        }
        Ok(())
    });

    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // `read_until` keeps partial bytes in `line` across timeouts, so
    // a slow client's half-written request survives the poll cycle.
    let result: io::Result<bool> = loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break Ok(false), // EOF: client disconnected.
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                let text = text.trim();
                let control = if text.is_empty() {
                    SessionControl::Continue
                } else {
                    server.handle_line_for(session, text)
                };
                line.clear();
                if control == SessionControl::Shutdown {
                    break Ok(true);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if server.is_shutting_down() || client_shutdown.load(Ordering::Relaxed) {
                    break Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };

    let requested_shutdown = matches!(result, Ok(true));
    if requested_shutdown {
        client_shutdown.store(true, Ordering::Relaxed);
    }
    if requested_shutdown || server.is_shutting_down() || client_shutdown.load(Ordering::Relaxed) {
        // Keep the session open through the drain: terminal lines for
        // this client's in-flight jobs flush, and the writer exits on
        // the broadcast `shutdown` line.
        let _ = writer.join();
        server.close_session(session);
    } else {
        // Plain disconnect: close the session first so the writer's
        // channel ends, then reap it. In-flight terminals reroute to
        // the session-0 drain.
        server.close_session(session);
        let _ = writer.join();
    }
    result.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::REQUEST_SCHEMA;
    use htforge_obs::parse_json;

    fn run_lines(lines: &str) -> (Vec<htforge_obs::Json>, SessionSummary) {
        let out: Vec<u8> = Vec::new();
        let sink = std::sync::Arc::new(std::sync::Mutex::new(out));
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let summary = serve(
            lines.as_bytes(),
            Shared(std::sync::Arc::clone(&sink)),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            Arc::new(ProgramCache::new()),
        )
        .unwrap();
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let docs = text.lines().map(|l| parse_json(l).unwrap()).collect();
        (docs, summary)
    }

    #[test]
    fn eof_drains_and_emits_final_shutdown_line() {
        let submit = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"a","kind":"simulate","circuit":"c17","params":{{"vectors":256}}}}"#
        );
        let (docs, summary) = run_lines(&submit);
        assert!(!summary.client_shutdown);
        assert_eq!(summary.stats.completed, 1);
        let types: Vec<_> = docs
            .iter()
            .map(|d| d.get("type").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(types.first().map(String::as_str), Some("ack"));
        assert_eq!(types.last().map(String::as_str), Some("shutdown"));
        assert!(types.iter().any(|t| t == "result"));
    }

    #[test]
    fn garbage_lines_become_error_responses_not_panics() {
        let (docs, summary) = run_lines("}{ nope\n\n[1,2,3]\n");
        assert!(!summary.client_shutdown);
        assert_eq!(summary.stats.submitted, 0);
        // Two non-empty garbage lines → two error lines + shutdown.
        assert_eq!(docs.len(), 3);
        assert!(docs[..2]
            .iter()
            .all(|d| d.get("type").unwrap().as_str() == Some("error")));
    }

    #[test]
    fn progress_frames_stream_before_the_terminal_result() {
        let submit = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"p","kind":"simulate","circuit":"c17","params":{{"vectors":4096,"repeat":4}}}}"#
        );
        let metrics = format!(r#"{{"schema":"{REQUEST_SCHEMA}","op":"metrics"}}"#);
        let (docs, summary) = run_lines(&format!("{submit}\n{metrics}\n"));
        assert_eq!(summary.stats.completed, 1);
        let type_of = |d: &htforge_obs::Json| d.get("type").unwrap().as_str().unwrap().to_owned();
        let first_progress = docs
            .iter()
            .position(|d| type_of(d) == "progress")
            .expect("at least one streamed progress frame");
        let result = docs
            .iter()
            .position(|d| type_of(d) == "result")
            .expect("a terminal result");
        assert!(
            first_progress < result,
            "progress (line {first_progress}) must precede the terminal result (line {result})"
        );
        // Frames validate and share the terminal response's trace id.
        let trace = docs[result].get("trace").unwrap().as_str().unwrap();
        assert_eq!(trace.len(), 16);
        for doc in docs.iter().filter(|d| type_of(d) == "progress") {
            htforge_obs::validate_job_progress(doc.get("progress").unwrap()).unwrap();
            assert_eq!(doc.get("trace").unwrap().as_str(), Some(trace));
        }
        // The terminal line carries a schema-valid per-phase timeline
        // bound to the same trace.
        let timeline = docs[result].get("timeline").expect("timeline");
        htforge_obs::validate_job_timeline(timeline).unwrap();
        assert_eq!(timeline.get("trace").unwrap().as_str(), Some(trace));
        // The report's meta carries the trace too.
        let report = docs[result].get("report").unwrap();
        assert_eq!(
            report.get("meta").unwrap().get("trace").unwrap().as_str(),
            Some(trace)
        );
        // The metrics introspection line embeds a schema-valid
        // snapshot.
        let metrics_doc = docs
            .iter()
            .find(|d| type_of(d) == "metrics")
            .expect("a metrics response");
        htforge_obs::validate_metrics_snapshot(metrics_doc.get("snapshot").unwrap()).unwrap();
    }

    #[test]
    fn disabling_progress_suppresses_frames_but_keeps_timelines() {
        let submit = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"q","kind":"simulate","circuit":"c17","params":{{"vectors":1024}}}}"#
        );
        let out: Vec<u8> = Vec::new();
        let sink = std::sync::Arc::new(std::sync::Mutex::new(out));
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        serve(
            submit.as_bytes(),
            Shared(std::sync::Arc::clone(&sink)),
            ServerConfig {
                workers: 1,
                progress: false,
                ..ServerConfig::default()
            },
            Arc::new(ProgramCache::new()),
        )
        .unwrap();
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let docs: Vec<htforge_obs::Json> = text.lines().map(|l| parse_json(l).unwrap()).collect();
        assert!(docs
            .iter()
            .all(|d| d.get("type").unwrap().as_str() != Some("progress")));
        let result = docs
            .iter()
            .find(|d| d.get("type").unwrap().as_str() == Some("result"))
            .unwrap();
        // Tracing and timelines are not tied to streaming: offline
        // reconstruction still works with progress off.
        assert!(result.get("trace").is_some());
        assert!(result.get("timeline").is_some());
    }

    #[test]
    fn explicit_shutdown_ends_the_session() {
        let lines = format!(
            "{}\n{}\n",
            format_args!(r#"{{"schema":"{REQUEST_SCHEMA}","op":"status"}}"#),
            format_args!(r#"{{"schema":"{REQUEST_SCHEMA}","op":"shutdown","mode":"drain"}}"#),
        );
        let (docs, summary) = run_lines(&lines);
        assert!(summary.client_shutdown);
        let last = docs.last().unwrap();
        assert_eq!(last.get("type").unwrap().as_str(), Some("shutdown"));
        assert_eq!(last.get("mode").unwrap().as_str(), Some("drain"));
    }
}
