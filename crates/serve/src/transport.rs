//! Transports: newline-delimited JSON over any `BufRead`/`Write` pair
//! (stdio) and over a Unix-domain socket.
//!
//! [`serve_lines`] is the whole protocol loop for one byte stream: the
//! calling thread reads and parses request lines and submits jobs; a
//! single responder thread (spawned through
//! [`fume_tabular::workers::scoped_workers`]) resolves tickets and
//! writes response lines. Because submissions enter one FIFO channel
//! and the responder resolves them in channel order, **responses always
//! come back in request order**, even though jobs execute concurrently
//! on the engine's worker pool.

use std::io::{BufRead, Read, Write};
use std::sync::mpsc;

use fume_obs::clock::Stopwatch;
use fume_obs::sync::TrackedMutex;
use fume_tabular::workers;

use crate::engine::{EngineHandle, JobReply, JobSpec, Ticket};
use crate::protocol::{
    parse_request, render_error, render_pong, render_report, render_serve_error,
    render_shutdown_ack, render_stats, Request, RequestError,
};

/// The longest request line [`serve_lines`] reads, not counting its
/// `\n`. The largest valid request is a few hundred bytes; a longer line
/// is answered with a typed `request_too_large` error and the rest of it
/// is skipped unread, so one client cannot grow the server's memory.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// Why [`serve_lines`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The input stream ended (client hung up).
    Eof,
    /// A `shutdown` request was served; the engine is draining.
    Shutdown,
}

enum Pending {
    /// Already-rendered response (pings, parse errors, rejections).
    Immediate(String),
    /// A queued job whose outcome the responder must wait for.
    Job { id: String, ticket: Ticket, started: Stopwatch },
}

fn render_outcome(pending: Pending) -> String {
    match pending {
        Pending::Immediate(line) => line,
        // fume-lint: allow(F009) -- Ticket::wait is not a condvar wait; it re-checks the slot under a loop internally
        Pending::Job { id, ticket, started } => match ticket.wait() {
            Ok(JobReply::Report(report)) => {
                render_report(&id, started.elapsed_nanos(), &report)
            }
            Ok(JobReply::Stats(stats)) => render_stats(&id, &stats),
            Err(error) => render_serve_error(&id, &error),
        },
    }
}

/// One raw request line without its `\n` or `\r\n` terminator — what
/// [`BufRead::lines`] would yield, before any UTF-8 check.
fn strip_eol(raw: &[u8]) -> &[u8] {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    raw.strip_suffix(b"\r").unwrap_or(raw)
}

/// Serves one NDJSON byte stream to completion. Returns on EOF, on a read
/// error, or after acknowledging a `shutdown` request (which also starts
/// the engine's drain). Every other line gets exactly one response, and
/// the session goes on after a bad one: a line longer than
/// [`MAX_REQUEST_LINE_BYTES`] is answered with a typed `request_too_large`
/// error, one that is not valid UTF-8 or not a valid request with a
/// typed `bad_request` error. Write failures (client hung up
/// mid-response) are swallowed: remaining tickets are still resolved so
/// the engine can drain.
pub fn serve_lines<R, W>(handle: EngineHandle<'_, '_>, mut reader: R, writer: W) -> ServeExit
where
    R: BufRead + Send,
    W: Write + Send,
{
    let (tx, rx) = mpsc::channel::<Pending>();
    let rx = TrackedMutex::new("serve.transport.rx", rx);
    let writer = TrackedMutex::new("serve.transport.writer", writer);
    workers::scoped_workers(
        1,
        |_| {
            let rx = rx.lock();
            while let Ok(pending) = rx.recv() {
                let line = render_outcome(pending);
                // fume-lint: allow(F010) -- lock-order: serve.transport.rx < serve.transport.writer (the responder holds rx for its lifetime and takes writer per line)
                let mut w = writer.lock();
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        },
        move || {
            let mut exit = ServeExit::Eof;
            let mut raw = Vec::new();
            loop {
                raw.clear();
                // One byte past the cap tells a line of exactly the cap
                // from a longer one.
                let mut line = reader.by_ref().take(MAX_REQUEST_LINE_BYTES as u64 + 1);
                if !matches!(line.read_until(b'\n', &mut raw), Ok(n) if n > 0) {
                    break;
                }
                if raw.len() > MAX_REQUEST_LINE_BYTES && !raw.ends_with(b"\n") {
                    // Skip the rest of the line without buffering it; a
                    // read error here ends the session at the next read.
                    let _ = reader.skip_until(b'\n');
                    let message = format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes");
                    let error = render_error(None, "request_too_large", &message);
                    if tx.send(Pending::Immediate(error)).is_err() {
                        break;
                    }
                    continue;
                }
                let parsed = match std::str::from_utf8(strip_eol(&raw)) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => parse_request(line),
                    Err(_) => Err(RequestError {
                        id: None,
                        message: "request line is not valid UTF-8".into(),
                    }),
                };
                let pending = match parsed {
                    Err(e) => {
                        Pending::Immediate(render_error(e.id.as_deref(), "bad_request", &e.message))
                    }
                    Ok(Request::Ping { id }) => Pending::Immediate(render_pong(&id)),
                    Ok(Request::Shutdown { id }) => {
                        let _ = tx.send(Pending::Immediate(render_shutdown_ack(&id)));
                        handle.shutdown();
                        exit = ServeExit::Shutdown;
                        break;
                    }
                    Ok(Request::Explain { id, overrides }) => {
                        let started = Stopwatch::start();
                        match handle.explain(overrides) {
                            Ok(ticket) => Pending::Job { id, ticket, started },
                            Err(e) => Pending::Immediate(render_serve_error(&id, &e)),
                        }
                    }
                    Ok(Request::Stats { id }) => {
                        let started = Stopwatch::start();
                        match handle.submit(JobSpec::Stats) {
                            Ok(ticket) => Pending::Job { id, ticket, started },
                            Err(e) => Pending::Immediate(render_serve_error(&id, &e)),
                        }
                    }
                };
                if tx.send(pending).is_err() {
                    break;
                }
            }
            exit
        },
    )
}

/// Unix-domain-socket transport (Linux/macOS).
#[cfg(unix)]
pub mod unix {
    use std::io::{self, BufReader};
    use std::os::unix::net::UnixListener;
    use std::path::Path;

    use fume_obs::clock::Duration;
    use fume_tabular::workers;

    use super::serve_lines;
    use crate::engine::EngineHandle;

    /// How often an idle acceptor re-checks for connections/shutdown.
    const ACCEPT_POLL: Duration = Duration::from_millis(25);

    /// Listens on `path` and serves connections until the engine shuts
    /// down (a client's `shutdown` request, or
    /// [`EngineHandle::shutdown`] from elsewhere). Each of the
    /// `acceptors` threads serves one connection at a time with
    /// [`serve_lines`]. Removes the socket file on exit.
    pub fn serve_unix(
        handle: EngineHandle<'_, '_>,
        path: &Path,
        acceptors: usize,
    ) -> io::Result<()> {
        // A previous run may have left its socket file behind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        workers::scoped_workers(
            acceptors.max(1),
            |_| loop {
                if handle.is_shutting_down() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        serve_lines(handle, BufReader::new(&stream), &stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            },
            || (),
        );
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use fume_core::FumeConfig;
    use fume_lattice::SupportRange;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    fn small_engine() -> Engine {
        let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
        let config = FumeConfig::default()
            .with_forest(fume_forest::DareConfig::small(3))
            .with_support(SupportRange::new(0.02, 0.25).unwrap());
        Engine::new(config, train, test, group, EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        })
        .unwrap()
    }

    fn run_session(input: impl AsRef<[u8]>) -> (ServeExit, Vec<String>) {
        let engine = small_engine();
        let input = input.as_ref();
        let mut out: Vec<u8> = Vec::new();
        let exit = engine.serve(|h| serve_lines(h, input, &mut out));
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (exit, lines)
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let input = "\
            {\"op\":\"ping\",\"id\":\"a\"}\n\
            {\"op\":\"explain\",\"id\":\"b\"}\n\
            {\"op\":\"explain\",\"id\":\"c\"}\n\
            {\"op\":\"stats\",\"id\":\"d\"}\n";
        let (exit, lines) = run_session(input);
        assert_eq!(exit, ServeExit::Eof);
        assert_eq!(lines.len(), 4);
        for (line, id) in lines.iter().zip(["a", "b", "c", "d"]) {
            assert!(
                line.contains(&format!("\"id\":\"{id}\"")),
                "line out of order: {line}"
            );
            assert!(line.contains("\"ok\":true"), "unexpected failure: {line}");
        }
        assert!(lines[3].contains("\"cache_"), "stats payload missing: {}", lines[3]);
    }

    #[test]
    fn identical_requests_share_the_cache_and_the_report() {
        let input = "\
            {\"op\":\"explain\",\"id\":\"r1\"}\n\
            {\"op\":\"explain\",\"id\":\"r2\"}\n\
            {\"op\":\"stats\",\"id\":\"r3\"}\n";
        let (_, lines) = run_session(input);
        assert_eq!(lines.len(), 3);
        let report_of = |line: &str| {
            let at = line.find(",\"report\":").expect("report field");
            line[at + ",\"report\":".len()..line.len() - 1].to_string()
        };
        assert_eq!(
            report_of(&lines[0]),
            report_of(&lines[1]),
            "cache hit must not change the canonical report"
        );
        let stats = &lines[2];
        let hits: u64 = stats
            .split("\"cache_hits\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(hits > 0, "repeat request must hit the cache: {stats}");
    }

    #[test]
    fn shutdown_is_acked_and_later_lines_ignored() {
        let input = "\
            {\"op\":\"shutdown\",\"id\":\"s\"}\n\
            {\"op\":\"ping\",\"id\":\"late\"}\n";
        let (exit, lines) = run_session(input);
        assert_eq!(exit, ServeExit::Shutdown);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"shutdown\":true"));
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_do_not_kill_the_session() {
        let input = "\
            not json at all\n\
            {\"op\":\"warp\",\"id\":\"w\"}\n\
            {\"op\":\"ping\",\"id\":\"p\"}\n";
        let (exit, lines) = run_session(input);
        assert_eq!(exit, ServeExit::Eof);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("\"id\":null"));
        assert!(lines[1].contains("\"ok\":false") && lines[1].contains("\"id\":\"w\""));
        assert!(lines[2].contains("\"pong\":true"));
    }

    #[test]
    fn zero_max_literals_is_a_bad_request_and_the_session_goes_on() {
        let input = "\
            {\"op\":\"explain\",\"id\":\"eta\",\"max_literals\":0}\n\
            {\"op\":\"explain\",\"id\":\"ok\",\"max_literals\":1}\n";
        let (exit, lines) = run_session(input);
        assert_eq!(exit, ServeExit::Eof);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"id\":\"eta\"")
                && lines[0].contains("\"kind\":\"bad_request\"")
                && lines[0].contains("max_literals must be at least 1"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"id\":\"ok\"") && lines[1].contains("\"ok\":true"));
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_a_typed_error_and_the_session_goes_on() {
        let input: &[u8] =
            b"{\"op\":\"ping\",\"id\":\"a\"}\n\xff\xfe not utf8\n{\"op\":\"ping\",\"id\":\"b\"}\n";
        let (exit, lines) = run_session(input);
        assert_eq!(exit, ServeExit::Eof);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"pong\":true") && lines[0].contains("\"id\":\"a\""));
        assert!(
            lines[1].contains("\"ok\":false")
                && lines[1].contains("\"id\":null")
                && lines[1].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"pong\":true") && lines[2].contains("\"id\":\"b\""));
    }

    #[test]
    fn an_oversized_line_is_request_too_large_and_the_session_goes_on() {
        let mut input = b"{\"op\":\"ping\",\"id\":\"a\"}\n".to_vec();
        input.resize(input.len() + MAX_REQUEST_LINE_BYTES + 1, b'x');
        input.extend_from_slice(b"\n{\"op\":\"ping\",\"id\":\"b\"}\n");
        let (exit, lines) = run_session(&input);
        assert_eq!(exit, ServeExit::Eof);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"pong\":true") && lines[0].contains("\"id\":\"a\""));
        assert!(
            lines[1].contains("\"id\":null") && lines[1].contains("\"kind\":\"request_too_large\""),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"pong\":true") && lines[2].contains("\"id\":\"b\""));
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_still_parsed() {
        let mut input = vec![b'x'; MAX_REQUEST_LINE_BYTES];
        input.push(b'\n');
        let (_, lines) = run_session(&input);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"bad_request\""), "{}", lines[0]);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let engine = small_engine();
        let dir = std::env::temp_dir().join(format!("fume-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("engine.sock");
        engine.serve(|h| {
            workers::scoped_workers(
                1,
                |_| {
                    super::unix::serve_unix(h, &sock, 1).unwrap();
                },
                || {
                    // Wait for the listener to appear, then talk to it.
                    while !sock.exists() {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    let stream = UnixStream::connect(&sock).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut w = &stream;
                    let ping = r#"{"op":"ping","id":"u1"}"#;
                    let explain = r#"{"op":"explain","id":"u2"}"#;
                    writeln!(w, "{ping}").unwrap();
                    writeln!(w, "{explain}").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.contains("\"pong\":true"), "{line}");
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.contains("\"id\":\"u2\"") && line.contains("\"report\":{"), "{line}");
                    let shutdown = r#"{"op":"shutdown","id":"u3"}"#;
                    writeln!(w, "{shutdown}").unwrap();
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.contains("\"shutdown\":true"), "{line}");
                },
            );
        });
        assert!(!sock.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
