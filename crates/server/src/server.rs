//! The TCP front-end, and the listener every socket in this crate and
//! the cluster tier is served by.
//!
//! Concurrency model: one thread per connection (each blocks in the
//! engine while its request is served — exactly the shape the
//! coalescing engine wants, since many blocked connections means a full
//! window). Requests on one connection are strictly
//! one-request-one-response; concurrency comes from connections, which
//! is how the paper's "many concurrent clients" environment looks to a
//! server anyway.
//!
//! [`Listener`] owns that model once: bind, the accept loop, the
//! connection threads, and their stop. A stop reaches a connection by
//! shutting the read half of its socket: a read blocked there returns
//! EOF at once, so an idle connection ends without polling, while the
//! write half stays open, so a request already inside the engine still
//! writes its reply. [`serve_frames`] is the request loop both
//! [`TcpServer`] and the cluster node run on each connection; each
//! passes its own request handler.
//!
//! Every error is answered on the wire as an `ERROR` frame — including
//! malformed requests, which get [`ServeError::Protocol`] before the
//! connection is dropped. Admission rejections ([`ServeError::Overloaded`])
//! are ordinary responses: the client sees typed backpressure, not a
//! closed socket.

use crate::client::{DictClient, Pending};
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, WireRequest, WireResponse,
};
use crate::ServeError;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A bound TCP socket serving every accepted connection on a thread of
/// its own. Stopping it — [`stop`](Self::stop) or drop — stops
/// accepting, shuts the read half of every live connection and joins
/// their threads (see the [module docs](self)).
#[derive(Debug)]
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` and run `serve` on each accepted connection, on a
    /// thread named `<name>-<n>`. When `serve` returns, the connection is
    /// closed toward the peer.
    ///
    /// # Errors
    /// Propagates bind and thread-spawn failures.
    pub fn bind<A, F>(addr: A, name: &str, serve: F) -> io::Result<Self>
    where
        A: ToSocketAddrs,
        F: Fn(&TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let name = name.to_owned();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &name, &stop, serve))?
        };
        Ok(Listener {
            local_addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, shut the read half of every live connection, and
    /// join their threads. Idempotent.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock `accept` with a throwaway connection; if that fails the
        // listener is already dead and accept has returned anyway.
        let _ = TcpStream::connect(self.local_addr);
        let _ = acceptor.join();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<F>(listener: &TcpListener, name: &str, stop: &AtomicBool, serve: F)
where
    F: Fn(&TcpStream) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    // Each live connection: its socket (to shut at stop) and its thread.
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for (n, stream) in listener.incoming().enumerate() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(socket) = stream.try_clone() else { continue };
        let serve = Arc::clone(&serve);
        let thread = std::thread::Builder::new()
            .name(format!("{name}-{n}"))
            .spawn(move || {
                serve(&stream);
                // Close toward the peer now: `socket` keeps the file
                // open until this thread is reaped.
                let _ = stream.shutdown(Shutdown::Both);
            });
        // Reap finished connections so the list does not grow with
        // connection churn.
        live.retain(|(_, thread)| !thread.is_finished());
        if let Ok(thread) = thread {
            live.push((socket, thread));
        }
    }
    for (socket, _) in &live {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (_, thread) in live {
        let _ = thread.join();
    }
}

/// Serve request frames on `stream` until the peer closes, the listener
/// stops, or the wire fails: each frame is decoded and answered with
/// `handle`'s response. A malformed frame is answered with its
/// [`ServeError::Protocol`], then the connection is dropped — after a
/// framing error the stream position is untrustworthy.
pub fn serve_frames(stream: &TcpStream, mut handle: impl FnMut(WireRequest) -> WireResponse) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let (response, malformed) = match decode_request(&payload) {
            Ok(request) => (handle(request), false),
            Err(e) => (WireResponse::Err(e), true),
        };
        if write_frame(&mut writer, &encode_response(&response)).is_err() || malformed {
            return;
        }
    }
}

/// A wire-protocol server in front of a [`ServeEngine`]
/// (via its [`DictClient`]).
///
/// ```no_run
/// use pdm_server::{EngineConfig, ServeEngine, TcpServer, TcpClient};
/// # fn shards() -> Vec<Box<dyn pdm_dict::Dict + Send>> { unimplemented!() }
///
/// let engine = ServeEngine::new(shards(), EngineConfig::default());
/// let server = TcpServer::bind("127.0.0.1:0", engine.client()).unwrap();
/// let mut client = TcpClient::connect(server.local_addr()).unwrap();
/// client.insert(7, &[42]).unwrap();
/// assert_eq!(client.lookup(7).unwrap(), Some(vec![42]));
/// server.shutdown();
/// let _shards = engine.shutdown();
/// ```
///
/// [`ServeEngine`]: crate::ServeEngine
#[derive(Debug)]
pub struct TcpServer {
    listener: Listener,
}

impl TcpServer {
    /// Bind and start accepting. Pass `"127.0.0.1:0"` to let the OS pick
    /// a port; read it back with [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, client: DictClient) -> io::Result<Self> {
        let listener = Listener::bind(addr, "pdm-serve", move |stream| {
            serve_frames(stream, |request| match request {
                WireRequest::Ping => WireResponse::Pong,
                WireRequest::Op(op) => match client.submit(op).and_then(Pending::wait) {
                    Ok(reply) => WireResponse::Reply(reply),
                    Err(e) => WireResponse::Err(e),
                },
                // Cluster opcodes only make sense on a multi-tenant
                // cluster node; a single-engine server answers them typed.
                _ => WireResponse::Err(ServeError::Protocol(
                    "cluster request on a single-engine server".into(),
                )),
            });
        })?;
        Ok(TcpServer { listener })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stop accepting, end every connection, and join their threads;
    /// dropping the server does the same. A request already in the
    /// engine still answers first: only each connection's read half is
    /// shut. Does **not** shut the engine down — call
    /// [`ServeEngine::shutdown`](crate::ServeEngine::shutdown)
    /// afterwards for the drain + checkpoint.
    pub fn shutdown(mut self) {
        self.listener.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpClient;
    use crate::scheduler::{EngineConfig, ServeEngine};
    use pdm_dict::{Dict, DictParams, Dictionary};

    fn engine(shards: usize, seed: u64) -> ServeEngine {
        let shards = (0..shards as u64)
            .map(|i| {
                let params = DictParams::new(64, 1 << 40, 1)
                    .with_degree(16)
                    .with_epsilon(1.0)
                    .with_seed(seed + i);
                Box::new(Dictionary::new(params, 256).unwrap()) as Box<dyn Dict + Send>
            })
            .collect();
        ServeEngine::new(shards, EngineConfig::default())
    }

    #[test]
    fn tcp_roundtrip_end_to_end() {
        let engine = engine(2, 31);
        let server = TcpServer::bind("127.0.0.1:0", engine.client()).unwrap();
        let addr = server.local_addr();

        std::thread::scope(|s| {
            for t in 0..3u64 {
                s.spawn(move || {
                    let mut client = TcpClient::connect(addr).unwrap();
                    client.ping().unwrap();
                    for i in 0..20 {
                        let key = t * 1000 + i;
                        client.insert(key, &[t]).unwrap();
                        assert_eq!(client.lookup(key).unwrap(), Some(vec![t]));
                    }
                    assert!(client.delete(t * 1000).unwrap());
                    assert!(!client.delete(t * 1000).unwrap());
                    assert_eq!(client.lookup(t * 1000).unwrap(), None);
                });
            }
        });

        // Server-side errors cross the wire typed, not as dropped sockets.
        let mut client = TcpClient::connect(addr).unwrap();
        client.insert(5000, &[9]).unwrap();
        assert_eq!(
            client.insert(5000, &[9]),
            Err(ServeError::Dict(pdm_dict::DictError::DuplicateKey(5000)))
        );

        server.shutdown();
        let shards = engine.shutdown();
        assert_eq!(
            shards.iter().map(|d| d.len()).sum::<usize>(),
            3 * 19 + 1,
            "20 inserts − 1 delete per thread, plus the duplicate probe"
        );
    }

    #[test]
    fn malformed_frame_answers_error_then_drops() {
        use crate::protocol::{read_frame, write_frame, decode_response};
        let engine = engine(1, 47);
        let server = TcpServer::bind("127.0.0.1:0", engine.client()).unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, &[0xEE, 1, 2, 3]).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("typed answer");
        match decode_response(&payload).unwrap() {
            crate::protocol::WireResponse::Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("opcode"), "{msg}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        // The connection was dropped after the answer.
        assert!(read_frame(&mut stream).unwrap().is_none());

        server.shutdown();
        drop(engine.shutdown());
    }
}
