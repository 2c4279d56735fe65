//! The daemon under test: an in-process `Server` reachable over loopback
//! two ways, and a closed-loop client that opens one connection per
//! request.
//!
//! - Through the crate's own accept loop, `router::run_until_drained`. It
//!   sleeps `ACCEPT_POLL` (10 ms) whenever no connection is pending, and a
//!   closed-loop client always arrives during that sleep, so a request's
//!   latency there is the poll, whatever the request costs.
//! - Through [`Route::Direct`]: a listener the benchmark accepts on itself
//!   with a blocking `accept`, handing each connection to the public
//!   `router::handle_connection`. A request's latency there is connect,
//!   parse, dispatch, the handler's work and the response, with no poll.

use lnuca_serve::http::{self, Message};
use lnuca_serve::{router, ServeConfig, Server};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Per-request I/O timeout: a healthy daemon answers far inside it.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// How a request reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `router::handle_connection` on a connection the benchmark accepted.
    Direct,
    /// The daemon's own `router::run_until_drained` accept loop.
    AcceptLoop,
}

impl Route {
    /// The route's name in printed figures and span files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Route::Direct => "direct",
            Route::AcceptLoop => "accept-loop",
        }
    }
}

/// A running daemon.
pub struct Daemon {
    /// The shared server, for in-process calls next to the HTTP ones.
    pub server: Arc<Server>,
    addr: String,
    acceptor: Option<JoinHandle<std::io::Result<()>>>,
    direct_addr: String,
    direct: Option<JoinHandle<()>>,
    stop_direct: Arc<AtomicBool>,
}

fn bind() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    Ok((listener, addr))
}

/// Accepts on `listener` until `stop` is set, serving each connection
/// before accepting the next.
fn serve_directly(server: &Arc<Server>, listener: &TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(stream) = stream {
            router::handle_connection(server, stream);
        }
    }
}

impl Daemon {
    /// Starts a one-worker daemon on `127.0.0.1:0` and returns it once its
    /// first `/healthz` answered.
    ///
    /// The first request is sent before the accept loop starts: the kernel
    /// completes the connection from the listen backlog, so the loop's
    /// first `accept` finds it and set-up never waits out the loop's idle
    /// poll, which would make the figure depend on a race.
    ///
    /// # Errors
    ///
    /// Socket errors, or a first answer other than `200 ok`.
    pub fn start() -> Result<Daemon, String> {
        let (listener, addr) = bind()?;
        let (direct_listener, direct_addr) = bind()?;
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 64,
            journal_dir: None,
            baseline_path: None,
        });
        let mut stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let acceptor = {
            let server = Arc::clone(&server);
            thread::spawn(move || router::run_until_drained(&server, listener))
        };
        let stop_direct = Arc::new(AtomicBool::new(false));
        let direct = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop_direct));
            thread::spawn(move || serve_directly(&server, &direct_listener, &stop))
        };
        let daemon = Daemon {
            server,
            addr,
            acceptor: Some(acceptor),
            direct_addr,
            direct: Some(direct),
            stop_direct,
        };
        stream
            .set_read_timeout(Some(TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
            .and_then(|()| {
                stream.write_all(
                    b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
                )
            })
            .map_err(|e| format!("write /healthz: {e}"))?;
        let answer = http::read_message(&mut stream, true)?;
        if answer.status != 200 || !healthy(&answer) {
            return Err(format!(
                "first /healthz answered {}: {}",
                answer.status,
                answer.text()
            ));
        }
        Ok(daemon)
    }

    /// One request over a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors.
    pub fn request(
        &self,
        route: Route,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Message, String> {
        let addr = match route {
            Route::Direct => &self.direct_addr,
            Route::AcceptLoop => &self.addr,
        };
        http::request(addr, method, target, body, TIMEOUT)
    }

    /// Stops the direct listener, drains the daemon and waits for both
    /// accept threads and the workers.
    ///
    /// # Errors
    ///
    /// An accept thread's error or panic.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let direct = match self.direct.take() {
            Some(handle) => {
                self.stop_direct.store(true, Ordering::SeqCst);
                // Wakes the blocking accept, which then sees the flag.
                match TcpStream::connect(&self.direct_addr) {
                    Ok(_) => handle
                        .join()
                        .map_err(|_| "the direct accept thread panicked".to_owned()),
                    Err(e) => Err(format!("waking the direct accept thread: {e}")),
                }
            }
            None => Ok(()),
        };
        self.server.begin_drain();
        let acceptor = match self.acceptor.take() {
            Some(handle) => match handle.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("accept loop: {e}")),
                Err(_) => Err("the accept loop panicked".to_owned()),
            },
            None => Ok(()),
        };
        direct.and(acceptor)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Whether a `/healthz` answer reports `ok`.
#[must_use]
pub fn healthy(answer: &Message) -> bool {
    serde::json::parse(&answer.text())
        .ok()
        .and_then(|v| v.get("status").and_then(|s| s.as_str().map(|s| s == "ok")))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_routes_answer_and_the_daemon_stops() {
        let daemon = Daemon::start().expect("the daemon starts");
        for route in [Route::Direct, Route::AcceptLoop] {
            let answer = daemon
                .request(route, "GET", "/healthz", b"")
                .expect("an answer");
            assert!(answer.status == 200 && healthy(&answer), "{}", route.name());
        }
        daemon.stop().expect("both accept threads end");
    }
}
