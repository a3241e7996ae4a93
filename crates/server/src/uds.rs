//! Unix-domain-socket front end (DESIGN.md §15.6).
//!
//! A deliberately minimal line protocol over `std::os::unix::net` — the
//! in-process [`Client`] API is the primary surface, and
//! this front end exists so an external process can drive the service's
//! *registered* named queries without linking the workspace:
//!
//! ```text
//! READ <query-name>\n   ->  OK <distinct> <results> <epoch> <hit|miss>\n
//! FLUSH\n               ->  OK <committed> <epoch>\n
//! PING\n                ->  OK pong\n
//! QUIT\n                ->  (connection closes)
//! ```
//!
//! Errors answer `ERR <message>\n` and keep the connection open. Writes
//! are not exposed over the wire: an [`UpdateBatch`](colorist_store::UpdateBatch)
//! is a rich in-process structure, and serializing one is out of scope
//! for the line protocol.
//!
//! Each accepted connection gets its own handler thread; all handlers
//! share one submission [`Client`], so wire requests ride
//! the same MPMC queue, plan cache and admission path as in-process
//! requests.

use crate::{Client, Server};
use colorist_query::Pattern;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running socket front end; drop or [`UdsFront::stop`] to tear down.
pub struct UdsFront {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Bind `path` and serve the registered `queries` (looked up by
/// case-insensitive pattern name) against `server`'s submission queue.
/// Fails if the socket cannot be bound. A stale *socket* file at `path`
/// is removed first; anything else at the path (a regular file, a
/// directory, a symlink) is never deleted — the bind fails with
/// `AlreadyExists` instead.
pub fn serve(server: &Server, path: &Path, queries: &[Pattern]) -> std::io::Result<UdsFront> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
        Ok(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("refusing to replace non-socket file at `{}`", path.display()),
            ))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let client = server.client();
    let registry: Arc<Vec<Pattern>> = Arc::new(queries.to_vec());
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new().name("colorist-uds-accept".into()).spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { break };
                let client = client.clone();
                let registry = Arc::clone(&registry);
                let _ = std::thread::Builder::new()
                    .name("colorist-uds-conn".into())
                    .spawn(move || handle(conn, &client, &registry));
            }
        })?
    };
    Ok(UdsFront { path: path.to_path_buf(), stop, accept: Some(accept) })
}

impl UdsFront {
    /// The socket path being served.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop accepting, unblock the accept loop, join it, and remove the
    /// socket file. In-flight connection handlers finish their current
    /// line and exit on the next read error.
    pub fn stop(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(h) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // poke the blocking accept so the loop observes the flag
            let _ = UnixStream::connect(&self.path);
            let _ = h.join();
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Drop for UdsFront {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn handle(conn: UnixStream, client: &Client, registry: &[Pattern]) {
    let Ok(reader_side) = conn.try_clone() else { return };
    let mut reader = BufReader::new(reader_side);
    let mut writer = conn;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let reply = respond(line.trim(), client, registry);
        let Some(reply) = reply else { return };
        if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// One request line → one reply line (`None` = close the connection).
fn respond(line: &str, client: &Client, registry: &[Pattern]) -> Option<String> {
    let mut words = line.split_whitespace();
    match (words.next(), words.next()) {
        (Some("QUIT"), _) => None,
        (Some("PING"), _) => Some("OK pong\n".into()),
        (Some("FLUSH"), _) => Some(match client.flush().wait() {
            Ok(r) => format!("OK {} {}\n", r.committed, r.epoch),
            Err(e) => format!("ERR {e}\n"),
        }),
        (Some("READ"), Some(name)) => {
            let Some(pattern) = registry.iter().find(|p| p.name.eq_ignore_ascii_case(name)) else {
                return Some(format!("ERR unknown query `{name}`\n"));
            };
            Some(match client.read(pattern).wait() {
                Ok(r) => format!(
                    "OK {} {} {} {}\n",
                    r.distinct,
                    r.results,
                    r.epoch,
                    if r.cache_hit { "hit" } else { "miss" }
                ),
                Err(e) => format!("ERR {e}\n"),
            })
        }
        (Some(other), _) => Some(format!("ERR unknown command `{other}`\n")),
        (None, _) => Some("ERR empty request\n".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::{catalog, ErGraph};
    use colorist_query::PatternBuilder;

    /// Regression: `serve` must never delete a non-socket file sitting
    /// at the requested path — it fails with `AlreadyExists` and leaves
    /// the file intact.
    #[test]
    fn serve_refuses_to_replace_a_non_socket_file() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let schema = design(&g, Strategy::En).expect("tpcw designs");
        let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 4), 11));
        let server = crate::Server::start(db, &g, &ServerConfig::default());
        let path =
            std::env::temp_dir().join(format!("colorist-uds-occupied-{}.txt", std::process::id()));
        std::fs::write(&path, b"precious").expect("file writes");
        let err = match serve(&server, &path, &[]) {
            Err(e) => e,
            Ok(_) => panic!("bind must refuse an occupied non-socket path"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read(&path).expect("file survives"), b"precious");
        std::fs::remove_file(&path).expect("cleanup");
        server.shutdown();
    }

    /// Drive the wire protocol end-to-end over a real socket: PING,
    /// READ (miss then hit, matching answers), unknown query/command
    /// errors keeping the connection open, FLUSH, QUIT closing it.
    #[test]
    fn line_protocol_serves_registered_queries_over_a_real_socket() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let schema = design(&g, Strategy::Dr).expect("tpcw designs");
        let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 6), 11));
        let q = PatternBuilder::new(&g, "Qw")
            .node("country")
            .node("customer")
            .chain(0, 1, &["in", "address", "has"])
            .expect("path exists")
            .output(1)
            .build()
            .expect("pattern builds");
        let expect = {
            let p = colorist_query::optimize(&db, &g, &q).expect("plan");
            colorist_query::execute(&db, &g, &p).expect("runs")
        };
        let server = crate::Server::start(db, &g, &ServerConfig::default().with_workers(2));
        let sock =
            std::env::temp_dir().join(format!("colorist-uds-test-{}.sock", std::process::id()));
        let front = serve(&server, &sock, std::slice::from_ref(&q)).expect("socket binds");

        let conn = UnixStream::connect(front.path()).expect("connects");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut roundtrip = |req: &str| {
            let mut w = &conn;
            w.write_all(req.as_bytes()).expect("request writes");
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply arrives");
            line
        };
        assert_eq!(roundtrip("PING\n"), "OK pong\n");
        let miss = roundtrip("READ qw\n"); // case-insensitive lookup
        assert_eq!(miss, format!("OK {} {} 0 miss\n", expect.distinct, expect.results));
        let hit = roundtrip("READ Qw\n");
        assert_eq!(hit, format!("OK {} {} 0 hit\n", expect.distinct, expect.results));
        assert!(roundtrip("READ nope\n").starts_with("ERR unknown query"));
        assert!(roundtrip("EXPLODE\n").starts_with("ERR unknown command"));
        assert_eq!(roundtrip("FLUSH\n"), "OK 0 0\n", "nothing admitted, epoch unchanged");

        // QUIT closes this connection; the front end keeps serving others
        {
            let mut w = &conn;
            w.write_all(b"QUIT\n").expect("request writes");
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("EOF"), 0, "connection closed");
        let second = UnixStream::connect(front.path()).expect("reconnects");
        let mut reader2 = BufReader::new(second.try_clone().expect("clone"));
        {
            let mut w = &second;
            w.write_all(b"READ Qw\n").expect("request writes");
        }
        let mut line = String::new();
        reader2.read_line(&mut line).expect("reply arrives");
        assert_eq!(line, format!("OK {} {} 0 hit\n", expect.distinct, expect.results));

        front.stop();
        assert!(!sock.exists(), "socket file removed on stop");
        server.shutdown();
    }
}
