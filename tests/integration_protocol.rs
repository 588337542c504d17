//! Protocol-robustness drills (`pdm-server` wire layer): a server fed
//! truncated frames, oversized length prefixes, random garbage,
//! mid-frame disconnects and keys outside its universe must never
//! panic, never wedge, and keep serving fresh connections exactly. Then
//! the stop contract both TCP front-ends share.
//!
//! Randomization follows the suite convention: deterministic by
//! default, `PROPTEST_SEED=<u64>` rotates the corpus (CI sets it per
//! run).

mod harness;

use harness::ShardProbe;
use pdm_cluster::map::ClusterConfig;
use pdm_cluster::node::build_shard;
use pdm_cluster::{ClusterNode, NodeConfig};
use pdm_dict::{Dict, DictError, DictParams, Dictionary};
use pdm_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, WireRequest, WireResponse, MAX_FRAME,
};
use pdm_server::{EngineConfig, Op, Reply, ServeEngine, ServeError, TcpClient, TcpServer};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A live single-shard server for one drill. Dropping it leaks the
/// engine threads for the remainder of the test binary — fine for a
/// handful of proptest cases — so every path calls [`Fixture::close`].
struct Fixture {
    server: Option<TcpServer>,
    engine: Option<ServeEngine>,
    addr: SocketAddr,
}

fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        shard_capacity: 64,
        ..ClusterConfig::default()
    }
}

fn fixture() -> Fixture {
    fixture_over(build_shard(&small_cluster(), 0))
}

fn fixture_over(shard: Box<dyn Dict + Send>) -> Fixture {
    let engine = ServeEngine::new(vec![shard], EngineConfig::default());
    let server = TcpServer::bind("127.0.0.1:0", engine.client()).expect("bind");
    let addr = server.local_addr();
    Fixture {
        server: Some(server),
        engine: Some(engine),
        addr,
    }
}

impl Fixture {
    /// The liveness probe every drill ends with: a *fresh* connection
    /// must serve a full insert/lookup round-trip exactly.
    fn assert_serves(&self, key: u64) {
        let mut client = TcpClient::connect(self.addr).expect("fresh connect");
        client
            .set_deadline(Some(Duration::from_secs(30)))
            .expect("deadline");
        match client.request(&WireRequest::Op(Op::Insert(key, vec![key]))) {
            Ok(WireResponse::Reply(Reply::Inserted)) => {}
            Ok(WireResponse::Err(e)) => panic!("fresh insert refused: {e}"),
            other => panic!("fresh insert answered {other:?}"),
        }
        match client.request(&WireRequest::Op(Op::Lookup(key))) {
            Ok(WireResponse::Reply(Reply::Lookup(Some(sat)))) => assert_eq!(sat, vec![key]),
            other => panic!("fresh lookup answered {other:?}"),
        }
    }

    fn close(mut self) {
        self.server.take().unwrap().shutdown();
        drop(self.engine.take().unwrap().shutdown());
    }
}

/// Read one length-prefixed response frame off a raw stream; `None` on
/// EOF (the server dropped the connection — a legal robust outcome).
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut len = [0u8; 4];
    let mut at = 0;
    while at < 4 {
        match stream.read(&mut len[at..]) {
            Ok(0) => return None,
            Ok(n) => at += n,
            Err(e) => panic!("reading response header: {e}"),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    assert!(len <= MAX_FRAME, "server sent an oversized frame");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("response payload");
    Some(payload)
}

/// The server's answer to a hostile frame must be *typed*: either a
/// decodable response frame or a clean disconnect — never a hang, never
/// garbage.
fn assert_typed_or_dropped(stream: &mut TcpStream) {
    if let Some(payload) = read_raw_frame(stream) {
        let resp = decode_response(&payload).expect("server response must decode");
        // Any decodable answer is acceptable (garbage that happens to
        // parse as a valid request gets a real reply).
        let _ = resp;
    }
}

fn suite_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0802)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random garbage payloads inside well-formed frames: the server
    /// answers each with a typed response or drops the connection, and
    /// fresh connections keep serving.
    #[test]
    fn garbage_payloads_never_wedge_the_server(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        probe_key in 0u64..(1 << 20),
    ) {
        let f = fixture();
        {
            let mut s = TcpStream::connect(f.addr).unwrap();
            s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            s.write_all(&payload).unwrap();
            s.flush().unwrap();
            assert_typed_or_dropped(&mut s);
        }
        f.assert_serves(probe_key);
        f.close();
    }

    /// A length prefix promising more bytes than ever arrive (the peer
    /// walks away mid-frame): the connection thread must notice the
    /// disconnect instead of waiting forever, and the server stays
    /// fully available.
    #[test]
    fn midframe_disconnects_never_wedge_the_server(
        declared in 1usize..4096,
        fraction in 0.0f64..1.0,
        probe_key in 0u64..(1 << 20),
    ) {
        let f = fixture();
        {
            let sent = ((declared as f64 * fraction) as usize).min(declared - 1);
            let mut s = TcpStream::connect(f.addr).unwrap();
            s.write_all(&(declared as u32).to_le_bytes()).unwrap();
            s.write_all(&vec![0xA5u8; sent]).unwrap();
            s.flush().unwrap();
            // Drop mid-frame: the server sees EOF inside the payload.
        }
        f.assert_serves(probe_key);
        f.close();
    }

    /// Oversized length prefixes (beyond `MAX_FRAME`) are refused
    /// without reading the phantom payload, and the server keeps
    /// serving.
    #[test]
    fn oversized_frames_are_refused_and_survived(
        excess in 1u64..(1 << 30),
        probe_key in 0u64..(1 << 20),
    ) {
        let f = fixture();
        {
            let declared = (MAX_FRAME as u64 + excess).min(u64::from(u32::MAX)) as u32;
            let mut s = TcpStream::connect(f.addr).unwrap();
            s.write_all(&declared.to_le_bytes()).unwrap();
            s.flush().unwrap();
            assert_typed_or_dropped(&mut s);
        }
        f.assert_serves(probe_key);
        f.close();
    }
}

/// A half-written *valid* request (a real insert, cut mid-payload) is
/// indistinguishable from line noise to the server: it must drop the
/// remains without applying anything and keep serving the next
/// connection.
#[test]
fn half_a_valid_request_is_not_applied() {
    use pdm_server::protocol::encode_request;
    let f = fixture();
    let key = suite_seed() % (1 << 20);
    let full = encode_request(&WireRequest::Op(Op::Insert(key, vec![7])));
    {
        let mut s = TcpStream::connect(f.addr).unwrap();
        s.write_all(&(full.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&full[..full.len() / 2]).unwrap();
        s.flush().unwrap();
    }
    // The fresh connection's own insert must succeed — proving the cut
    // insert never reached the dictionary (a duplicate would refuse).
    f.assert_serves(key);
    f.close();
}

/// Many hostile connections at once (garbage, truncations, oversize
/// headers interleaved) followed by the liveness probe: robustness must
/// hold under concurrency, not just one bad peer at a time.
#[test]
fn a_swarm_of_hostile_peers_cannot_take_the_server_down() {
    let f = fixture();
    let seed = suite_seed();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let addr = f.addr;
            s.spawn(move || {
                for i in 0..10u64 {
                    let r = expander::mix::mix64(seed ^ (t << 32) ^ i);
                    let Ok(mut conn) = TcpStream::connect(addr) else {
                        continue;
                    };
                    match r % 3 {
                        0 => {
                            // Garbage frame.
                            let n = (r >> 8) % 256;
                            let body: Vec<u8> =
                                (0..n).map(|j| (r >> (j % 56)) as u8).collect();
                            let _ = conn.write_all(&(body.len() as u32).to_le_bytes());
                            let _ = conn.write_all(&body);
                        }
                        1 => {
                            // Truncation.
                            let _ = conn.write_all(&512u32.to_le_bytes());
                            let _ = conn.write_all(&[0u8; 100]);
                        }
                        _ => {
                            // Oversize header.
                            let _ = conn.write_all(&u32::MAX.to_le_bytes());
                        }
                    }
                    let _ = conn.flush();
                }
            });
        }
    });
    f.assert_serves(seed % (1 << 20));
    f.close();
}

/// Ask for the three operations on a key past the shard's universe (the
/// expanders panic on one), each addressed by `request`: every one must
/// answer the typed refusal.
fn assert_refused_outside_universe(client: &mut TcpClient, request: impl Fn(Op) -> WireRequest) {
    let key = 1 << 30;
    for op in [Op::Lookup(key), Op::Insert(key, vec![key]), Op::Delete(key)] {
        match client.request(&request(op.clone())) {
            Ok(WireResponse::Err(ServeError::Dict(DictError::UnsupportedParams(_)))) => {}
            other => panic!("{op:?} outside the universe answered {other:?}"),
        }
    }
}

/// A key outside the universe is refused at admission, so it cannot
/// wedge the shard worker that would panic on it: the server keeps
/// serving. Both served shapes: the cluster's `DictHandle` (universe
/// 2^21) and a rebuilding `Dictionary` over 2^20 keys.
#[test]
fn a_key_outside_the_universe_is_refused_typed() {
    let params = DictParams::new(64, 1 << 20, 1).with_degree(16).with_epsilon(1.0);
    let shards: [Box<dyn Dict + Send>; 2] = [
        build_shard(&small_cluster(), 0),
        Box::new(Dictionary::new(params, 256).expect("dictionary")),
    ];
    for shard in shards {
        let f = fixture_over(shard);
        let mut client = TcpClient::connect(f.addr).expect("connect");
        // Short: from a wedged shard no answer ever comes.
        client.set_deadline(Some(Duration::from_secs(2))).expect("deadline");
        assert_refused_outside_universe(&mut client, WireRequest::Op);
        f.assert_serves(5);
        f.close();
    }
}

/// The same refusal through a cluster node's shard-addressed operation.
#[test]
fn a_shard_op_outside_the_universe_is_refused_typed() {
    let node = ClusterNode::start("127.0.0.1:0", small_cluster(), &[0], NodeConfig::default())
        .expect("start node");
    let mut client = TcpClient::connect(node.local_addr()).expect("connect");
    client.set_deadline(Some(Duration::from_secs(5))).expect("deadline");
    let shard_op = |op| WireRequest::ShardOp { shard: 0, epoch: 0, op };
    assert_refused_outside_universe(&mut client, shard_op);
    assert_eq!(
        client.request(&shard_op(Op::Insert(5, vec![5]))),
        Ok(WireResponse::Reply(Reply::Inserted))
    );
    assert_eq!(
        client.request(&shard_op(Op::Lookup(5))),
        Ok(WireResponse::Reply(Reply::Lookup(Some(vec![5]))))
    );
    node.shutdown();
}

/// A TCP front-end serving one shard: its address, how it wants a
/// dictionary operation addressed, and its stop.
struct FrontEnd {
    addr: SocketAddr,
    request: fn(Op) -> WireRequest,
    stop: Box<dyn FnOnce() + Send>,
}

fn tcp_server(shard: Box<dyn Dict + Send>) -> FrontEnd {
    let engine = ServeEngine::new(vec![shard], EngineConfig::default());
    let server = TcpServer::bind("127.0.0.1:0", engine.client()).expect("bind");
    FrontEnd {
        addr: server.local_addr(),
        request: WireRequest::Op,
        stop: Box::new(move || {
            server.shutdown();
            drop(engine.shutdown());
        }),
    }
}

fn cluster_node(shard: Box<dyn Dict + Send>) -> FrontEnd {
    let node = ClusterNode::host(
        "127.0.0.1:0",
        small_cluster(),
        vec![(0, shard)],
        NodeConfig::default(),
    )
    .expect("start node");
    FrontEnd {
        addr: node.local_addr(),
        request: |op| WireRequest::ShardOp { shard: 0, epoch: 0, op },
        stop: Box::new(move || node.shutdown()),
    }
}

/// The stop contract at the TCP layer, for both front-ends: a stop
/// ends an idle connection at once, while a request already inside the
/// engine still gets its reply over the wire, and the stop returns once
/// it has.
#[test]
fn a_stop_answers_the_request_inside_the_engine_and_ends_idle_connections() {
    for start in [tcp_server as fn(_) -> FrontEnd, cluster_node] {
        let probe = ShardProbe::new();
        let front = start(probe.wrap(build_shard(&small_cluster(), 0)));
        let mut writer = TcpClient::connect(front.addr).expect("connect");
        assert_eq!(
            writer.request(&(front.request)(Op::Insert(7, vec![7]))),
            Ok(WireResponse::Reply(Reply::Inserted))
        );

        // Park a lookup inside the engine: its worker waits at the gate.
        probe.hold();
        probe.calls.lock().unwrap().clear();
        let mut parked = TcpClient::connect(front.addr).expect("connect");
        parked.set_deadline(Some(Duration::from_secs(30))).expect("deadline");
        let lookup = (front.request)(Op::Lookup(7));
        let parked = std::thread::spawn(move || parked.request(&lookup));
        while probe.calls.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }

        // An idle connection, answered once so its thread is serving.
        let mut idle = TcpStream::connect(front.addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        write_frame(&mut idle, &encode_request(&WireRequest::Ping)).expect("ping");
        let pong = read_frame(&mut idle).expect("pong").expect("pong");
        assert_eq!(decode_response(&pong), Ok(WireResponse::Pong));

        let stopper = std::thread::spawn(front.stop);
        assert_eq!(
            read_frame(&mut idle).expect("a clean close"),
            None,
            "the stop ends an idle connection"
        );
        assert!(!stopper.is_finished(), "the stop waits for the parked request");
        probe.release();
        assert_eq!(
            parked.join().unwrap(),
            Ok(WireResponse::Reply(Reply::Lookup(Some(vec![7])))),
            "the parked request is answered over the wire"
        );
        stopper.join().expect("the stop returns");
    }
}

/// Dropping a front-end without its `shutdown` closes its port too.
#[test]
fn a_dropped_front_end_stops_listening() {
    let engine = ServeEngine::new(vec![build_shard(&small_cluster(), 0)], EngineConfig::default());
    let server = TcpServer::bind("127.0.0.1:0", engine.client()).expect("bind");
    let node = ClusterNode::start("127.0.0.1:0", small_cluster(), &[0], NodeConfig::default())
        .expect("start node");
    let addrs = [server.local_addr(), node.local_addr()];
    drop(server);
    drop(node);
    for addr in addrs {
        let refused = TcpStream::connect(addr).expect_err("a dropped front-end still accepts");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }
    drop(engine.shutdown());
}
