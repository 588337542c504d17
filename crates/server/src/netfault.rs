//! Deterministic network fault injection: the transport-level sibling
//! of `pdm::fault::FaultPlan`.
//!
//! The disk layer replays any failure scenario bit-exactly from a seed;
//! this module extends the same discipline to the wire. A
//! [`NetFaultPlan`] is a declarative list of [`NetFault`]s — per-link
//! drop / delay / duplicate / reorder / truncate windows keyed to
//! **per-connection frame clocks** — enforced by [`ChaosNet`], a
//! frame-aware proxy fleet that [`TcpClient`](crate::TcpClient) /
//! [`TcpServer`](crate::TcpServer) traffic is routed through. Because
//! every fault decision is a pure function of `(link, direction,
//! frame index)`, the same plan against the same request sequence
//! produces the same failures, so a failing chaos drill replays exactly
//! from its seed.
//!
//! On top of the seeded plan, [`ChaosNet`] models **partitions** as
//! runtime state: [`ChaosNet::partition`] splits the links into named
//! groups and black-holes every frame to or from a link outside the
//! first (client-side) group — connections stay open, frames silently
//! vanish, and the client sees exactly what a real partition delivers:
//! timeouts. [`ChaosNet::heal`] lifts the partition.
//!
//! Each link is a [`Listener`], the one every served socket uses: a
//! connection through it runs one pump per direction, and a pump that
//! ends — EOF, a cut, a failed write — shuts both sockets, so its
//! sibling's blocked read returns at once. A stop of the fleet reaches
//! each connection the same way, by shutting the read half of its
//! client socket.
//!
//! Fault semantics per frame (first matching fault wins):
//!
//! * [`NetFault::Drop`] — the frame silently vanishes; the sender never
//!   learns, the receiver times out.
//! * [`NetFault::Delay`] — the frame is forwarded after a fixed pause;
//!   later frames on the same connection and direction queue behind it
//!   (TCP keeps a stream in order, so does the proxy).
//! * [`NetFault::Duplicate`] — the frame is forwarded twice.
//! * [`NetFault::Reorder`] — the frame is held and forwarded *after*
//!   the next frame on the same connection and direction (a late
//!   arrival; if the connection ends first, the held frame is flushed
//!   before close).
//! * [`NetFault::Truncate`] — the frame's length prefix is forwarded
//!   followed by only half its payload, then the connection is cut:
//!   the receiver sees EOF mid-frame.
//!
//! Duplicate, reorder and truncate desynchronize the protocol's strict
//! one-request-one-response rhythm, so a client may read a stale or
//! broken response — always surfacing as a *typed* error, never a
//! hang or a silent wrong answer for the type-checked calls. They are
//! aimed at targeted protocol-robustness tests via the explicit
//! builders; [`NetFaultPlan::random`] draws only drop and delay
//! windows, the flaky-link mix whose drills must stay deterministic
//! end to end.

use crate::protocol::{read_frame, write_frame};
use crate::server::Listener;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bound on the proxy's upstream connection attempt; a dead node makes
/// the accepted client connection close immediately.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(1);

/// Which way a frame crosses a proxied link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Client → node (requests).
    ToNode,
    /// Node → client (responses).
    FromNode,
}

/// One injected network fault. See the [module docs](self) for exact
/// semantics. Frame indices are 0-based and **per connection, per
/// direction**: every new connection through a link starts a fresh
/// clock, mirroring how `pdm::fault::Fault` windows key to per-disk
/// access clocks.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Silently discard a window of frames.
    Drop {
        /// The affected link (proxy endpoint index).
        link: usize,
        /// The affected direction.
        dir: Dir,
        /// First frame index (per connection) that vanishes.
        first_frame: u64,
        /// Number of consecutive frames that vanish.
        count: u64,
    },
    /// Forward a window of frames after a fixed pause each.
    Delay {
        /// The affected link.
        link: usize,
        /// The affected direction.
        dir: Dir,
        /// First delayed frame index (per connection).
        first_frame: u64,
        /// Number of consecutive delayed frames.
        count: u64,
        /// Pause before each delayed frame is forwarded.
        millis: u64,
    },
    /// Forward the `nth_frame`-th frame twice.
    Duplicate {
        /// The affected link.
        link: usize,
        /// The affected direction.
        dir: Dir,
        /// The duplicated frame index (per connection).
        nth_frame: u64,
    },
    /// Hold the `nth_frame`-th frame and deliver it after its successor.
    Reorder {
        /// The affected link.
        link: usize,
        /// The affected direction.
        dir: Dir,
        /// The held frame index (per connection).
        nth_frame: u64,
    },
    /// Forward the frame's length prefix plus half its payload, then
    /// cut the connection (EOF mid-frame at the receiver).
    Truncate {
        /// The affected link.
        link: usize,
        /// The affected direction.
        dir: Dir,
        /// The truncated frame index (per connection).
        nth_frame: u64,
    },
}

/// What the proxy does with one frame (resolved from a plan by
/// [`NetFaultPlan::action`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAction {
    /// Forward unchanged.
    Forward,
    /// Discard silently.
    Drop,
    /// Forward after this pause.
    Delay(Duration),
    /// Forward twice.
    Duplicate,
    /// Hold until the next frame has been forwarded.
    Reorder,
    /// Forward a broken prefix and cut the connection.
    Truncate,
}

/// A deterministic, composable set of injected network faults.
///
/// Built either explicitly with the fluent constructors or
/// pseudo-randomly (but reproducibly) from a seed with
/// [`NetFaultPlan::random`] — the transport mirror of
/// `pdm::FaultPlan`.
///
/// ```
/// use pdm_server::netfault::{Dir, NetFaultPlan};
/// let plan = NetFaultPlan::new()
///     .drop_frames(0, Dir::ToNode, 2, 1)
///     .delay_frames(1, Dir::FromNode, 0, 3, 15)
///     .duplicate(0, Dir::FromNode, 4);
/// assert_eq!(plan.faults().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    faults: Vec<NetFault>,
}

impl NetFaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        NetFaultPlan::default()
    }

    /// Add a [`NetFault::Drop`] window.
    #[must_use]
    pub fn drop_frames(mut self, link: usize, dir: Dir, first_frame: u64, count: u64) -> Self {
        self.faults.push(NetFault::Drop {
            link,
            dir,
            first_frame,
            count,
        });
        self
    }

    /// Add a [`NetFault::Delay`] window.
    #[must_use]
    pub fn delay_frames(
        mut self,
        link: usize,
        dir: Dir,
        first_frame: u64,
        count: u64,
        millis: u64,
    ) -> Self {
        self.faults.push(NetFault::Delay {
            link,
            dir,
            first_frame,
            count,
            millis,
        });
        self
    }

    /// Add a [`NetFault::Duplicate`].
    #[must_use]
    pub fn duplicate(mut self, link: usize, dir: Dir, nth_frame: u64) -> Self {
        self.faults.push(NetFault::Duplicate {
            link,
            dir,
            nth_frame,
        });
        self
    }

    /// Add a [`NetFault::Reorder`].
    #[must_use]
    pub fn reorder(mut self, link: usize, dir: Dir, nth_frame: u64) -> Self {
        self.faults.push(NetFault::Reorder {
            link,
            dir,
            nth_frame,
        });
        self
    }

    /// Add a [`NetFault::Truncate`].
    #[must_use]
    pub fn truncate(mut self, link: usize, dir: Dir, nth_frame: u64) -> Self {
        self.faults.push(NetFault::Truncate {
            link,
            dir,
            nth_frame,
        });
        self
    }

    /// Add an already-constructed fault.
    #[must_use]
    pub fn with_fault(mut self, fault: NetFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// `count` pseudo-random flaky-link faults over `links` proxied
    /// endpoints, deterministic in `seed`. Draws only **drop** and
    /// **delay** windows (weighted toward delays) in the first
    /// `frames_per_conn` frames of each connection: the faults that
    /// model a lossy, laggy network while keeping the strict
    /// one-request-one-response rhythm intact, so a whole cluster drill
    /// over the plan replays deterministically. Duplicate / reorder /
    /// truncate desynchronize that rhythm and must be asked for
    /// explicitly via the builders.
    ///
    /// # Panics
    /// Panics if `links == 0`.
    #[must_use]
    pub fn random(seed: u64, links: usize, frames_per_conn: u64, count: usize) -> Self {
        assert!(links > 0, "need at least one link");
        let mut state = seed ^ 0x5DEE_CE66_D051_F00D;
        let mut next = || {
            // SplitMix64: full-period, seed-deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let window = frames_per_conn.max(1);
        let mut plan = NetFaultPlan::new();
        for _ in 0..count {
            let link = (next() % links as u64) as usize;
            let dir = if next() % 2 == 0 {
                Dir::ToNode
            } else {
                Dir::FromNode
            };
            let first = next() % window;
            if next() % 3 == 0 {
                plan = plan.drop_frames(link, dir, first, 1);
            } else {
                plan = plan.delay_frames(link, dir, first, 1 + next() % 3, 1 + next() % 15);
            }
        }
        plan
    }

    /// The faults in this plan, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[NetFault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Resolve the action for frame number `frame` (per connection,
    /// 0-based) crossing `link` in direction `dir`. The first matching
    /// fault in insertion order wins; no match forwards.
    #[must_use]
    pub fn action(&self, link: usize, dir: Dir, frame: u64) -> FrameAction {
        for fault in &self.faults {
            match *fault {
                NetFault::Drop {
                    link: l,
                    dir: d,
                    first_frame,
                    count,
                } if l == link && d == dir && frame >= first_frame && frame - first_frame < count =>
                {
                    return FrameAction::Drop;
                }
                NetFault::Delay {
                    link: l,
                    dir: d,
                    first_frame,
                    count,
                    millis,
                } if l == link && d == dir && frame >= first_frame && frame - first_frame < count =>
                {
                    return FrameAction::Delay(Duration::from_millis(millis));
                }
                NetFault::Duplicate {
                    link: l,
                    dir: d,
                    nth_frame,
                } if l == link && d == dir && frame == nth_frame => {
                    return FrameAction::Duplicate;
                }
                NetFault::Reorder {
                    link: l,
                    dir: d,
                    nth_frame,
                } if l == link && d == dir && frame == nth_frame => {
                    return FrameAction::Reorder;
                }
                NetFault::Truncate {
                    link: l,
                    dir: d,
                    nth_frame,
                } if l == link && d == dir && frame == nth_frame => {
                    return FrameAction::Truncate;
                }
                _ => {}
            }
        }
        FrameAction::Forward
    }
}

/// Per-link traffic counters (frames, not bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames forwarded unchanged.
    pub forwarded: u64,
    /// Frames discarded by a [`NetFault::Drop`].
    pub dropped: u64,
    /// Frames forwarded after a [`NetFault::Delay`].
    pub delayed: u64,
    /// Frames forwarded twice by a [`NetFault::Duplicate`].
    pub duplicated: u64,
    /// Frames held by a [`NetFault::Reorder`].
    pub reordered: u64,
    /// Frames broken by a [`NetFault::Truncate`].
    pub truncated: u64,
    /// Frames black-holed by an active partition.
    pub blackholed: u64,
}

#[derive(Default)]
struct LinkCells {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    truncated: AtomicU64,
    blackholed: AtomicU64,
}

struct ChaosShared {
    plan: NetFaultPlan,
    /// When unset, every frame forwards regardless of the plan
    /// (partitions still apply). See [`ChaosNet::disarm`].
    armed: AtomicBool,
    /// Per-link partition black-hole switch.
    blocked: Vec<AtomicBool>,
    stats: Vec<LinkCells>,
}

/// A fleet of fault-injecting proxies, one per target endpoint
/// ("link"): clients connect to [`addr`](ChaosNet::addr)`(i)` instead
/// of target `i`, and every frame crossing link `i` is subjected to the
/// plan plus the current partition state. Protocol-agnostic above the
/// framing layer — it speaks length-prefixed frames, not opcodes — so
/// it fronts any [`TcpServer`](crate::TcpServer)-compatible endpoint.
///
/// ```no_run
/// use pdm_server::netfault::{ChaosNet, NetFaultPlan};
/// let targets = vec!["127.0.0.1:4000".parse().unwrap()];
/// let chaos = ChaosNet::start(NetFaultPlan::random(42, 1, 16, 4), &targets).unwrap();
/// let proxied = chaos.addr(0); // hand this to the client instead
/// chaos.partition(&[&[], &[0]]); // link 0 unreachable
/// chaos.heal();
/// chaos.shutdown();
/// ```
pub struct ChaosNet {
    shared: Arc<ChaosShared>,
    links: Vec<Listener>,
}

impl ChaosNet {
    /// Start one proxy listener (on an ephemeral localhost port) per
    /// target address. Link `i` fronts `targets[i]`.
    ///
    /// # Errors
    /// Propagates listener bind / thread spawn failures.
    pub fn start(plan: NetFaultPlan, targets: &[SocketAddr]) -> io::Result<Self> {
        let shared = Arc::new(ChaosShared {
            plan,
            armed: AtomicBool::new(true),
            blocked: targets.iter().map(|_| AtomicBool::new(false)).collect(),
            stats: targets.iter().map(|_| LinkCells::default()).collect(),
        });
        let links = targets
            .iter()
            .enumerate()
            .map(|(link, &target)| {
                let shared = Arc::clone(&shared);
                Listener::bind("127.0.0.1:0", &format!("pdm-chaos-{link}"), move |client| {
                    proxy(client, link, target, &shared);
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(ChaosNet { shared, links })
    }

    /// The proxied address of link `link` (hand this to clients in
    /// place of the real target address).
    #[must_use]
    pub fn addr(&self, link: usize) -> SocketAddr {
        self.links[link].local_addr()
    }

    /// All proxied addresses, in link order.
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.links.iter().map(Listener::local_addr).collect()
    }

    /// Install a named partition. `groups[0]` is the group the clients
    /// share; every link in `groups[1..]` is black-holed (frames in
    /// both directions silently vanish — connections stay open and the
    /// client observes timeouts, exactly like real packet loss). Links
    /// in no group stay reachable. Replaces any previous partition.
    ///
    /// Nodes in this architecture never talk to each other directly
    /// (re-replication is router-mediated), so black-holing the links
    /// outside the client's group models the full partition.
    ///
    /// # Panics
    /// Panics if a group names a link out of range.
    pub fn partition(&self, groups: &[&[usize]]) {
        let mut blocked = vec![false; self.links.len()];
        for group in groups.iter().skip(1) {
            for &link in *group {
                assert!(link < self.links.len(), "link {link} out of range");
                blocked[link] = true;
            }
        }
        if let Some(first) = groups.first() {
            for &link in *first {
                assert!(link < self.links.len(), "link {link} out of range");
                blocked[link] = false;
            }
        }
        for (cell, b) in self.shared.blocked.iter().zip(blocked) {
            cell.store(b, Ordering::Release);
        }
    }

    /// Lift any partition: every link becomes reachable again.
    pub fn heal(&self) {
        for cell in &self.shared.blocked {
            cell.store(false, Ordering::Release);
        }
    }

    /// Whether `link` is currently black-holed by a partition.
    #[must_use]
    pub fn blocked(&self, link: usize) -> bool {
        self.shared.blocked[link].load(Ordering::Acquire)
    }

    /// Stop applying the fault plan: every subsequent frame forwards
    /// unchanged (partitions still apply). Lets a drill run its chaos
    /// phase, quiesce, and then audit / repair over a clean transport —
    /// repairs may open fresh connections whose frame clocks would
    /// otherwise re-enter the plan's early-frame windows.
    pub fn disarm(&self) {
        self.shared.armed.store(false, Ordering::Release);
    }

    /// Re-arm the fault plan after a [`disarm`](Self::disarm).
    pub fn arm(&self) {
        self.shared.armed.store(true, Ordering::Release);
    }

    /// Per-link traffic counters.
    #[must_use]
    pub fn stats(&self) -> Vec<LinkStats> {
        self.shared
            .stats
            .iter()
            .map(|c| LinkStats {
                forwarded: c.forwarded.load(Ordering::Relaxed),
                dropped: c.dropped.load(Ordering::Relaxed),
                delayed: c.delayed.load(Ordering::Relaxed),
                duplicated: c.duplicated.load(Ordering::Relaxed),
                reordered: c.reordered.load(Ordering::Relaxed),
                truncated: c.truncated.load(Ordering::Relaxed),
                blackholed: c.blackholed.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Stop all listeners and forwarding threads and join them; dropping
    /// the fleet does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl std::fmt::Debug for ChaosNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosNet")
            .field("links", &self.links.len())
            .field("plan_faults", &self.shared.plan.faults().len())
            .finish_non_exhaustive()
    }
}

/// Proxy one accepted client connection on `link` to `target`: one pump
/// per direction, the request pump on this thread (see the module docs
/// for how a connection ends).
fn proxy(client: &TcpStream, link: usize, target: SocketAddr, shared: &ChaosShared) {
    // A dead node behind the link: close the accepted connection so the
    // client sees an immediate close, like a refused target.
    let Ok(upstream) = TcpStream::connect_timeout(&target, UPSTREAM_TIMEOUT) else {
        return;
    };
    std::thread::scope(|s| {
        s.spawn(|| pump(&upstream, client, link, Dir::FromNode, shared));
        pump(client, &upstream, link, Dir::ToNode, shared);
    });
}

/// Forward frames from `src` to `dst` for one connection direction,
/// applying partition state and the fault plan per frame.
fn pump(mut src: &TcpStream, mut dst: &TcpStream, link: usize, dir: Dir, shared: &ChaosShared) {
    let mut clock: u64 = 0;
    // Reorder buffer: a held frame goes out right after its successor.
    let mut held: Option<Vec<u8>> = None;
    while let Ok(Some(frame)) = read_frame(&mut src) {
        let n = clock;
        clock += 1;
        let cells = &shared.stats[link];
        if shared.blocked[link].load(Ordering::Acquire) {
            cells.blackholed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let action = if shared.armed.load(Ordering::Acquire) {
            shared.plan.action(link, dir, n)
        } else {
            FrameAction::Forward
        };
        let mut closing = false;
        match action {
            FrameAction::Drop => {
                cells.dropped.fetch_add(1, Ordering::Relaxed);
            }
            FrameAction::Reorder if held.is_none() => {
                cells.reordered.fetch_add(1, Ordering::Relaxed);
                held = Some(frame);
            }
            FrameAction::Truncate => {
                cells.truncated.fetch_add(1, Ordering::Relaxed);
                if !frame.is_empty() {
                    let mut broken = Vec::with_capacity(4 + frame.len() / 2);
                    broken.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    broken.extend_from_slice(&frame[..frame.len() / 2]);
                    let _ = io::Write::write_all(&mut dst, &broken);
                    let _ = io::Write::flush(&mut dst);
                }
                closing = true;
            }
            FrameAction::Forward | FrameAction::Delay(_) | FrameAction::Duplicate
            | FrameAction::Reorder => {
                let copies = if action == FrameAction::Duplicate {
                    cells.duplicated.fetch_add(1, Ordering::Relaxed);
                    2
                } else {
                    if let FrameAction::Delay(pause) = action {
                        cells.delayed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(pause);
                    } else {
                        cells.forwarded.fetch_add(1, Ordering::Relaxed);
                    }
                    1
                };
                for _ in 0..copies {
                    if write_frame(&mut dst, &frame).is_err() {
                        closing = true;
                        break;
                    }
                }
                if !closing {
                    if let Some(late) = held.take() {
                        closing = write_frame(&mut dst, &late).is_err();
                    }
                }
            }
        }
        if closing {
            break;
        }
    }
    // Flush a held frame as a late arrival, then cut both directions so
    // the sibling pump unblocks too.
    if let Some(late) = held.take() {
        let _ = write_frame(&mut dst, &late);
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A minimal frame-echo peer: echoes every frame back, one
    /// connection at a time. Detached — it dies with the test process
    /// (joining it would race proxy shutdown: a stop flag can land
    /// before a goodbye frame crosses the proxy).
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                while let Ok(Some(payload)) = read_frame(&mut stream) {
                    if write_frame(&mut stream, &payload).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn connect(chaos: &ChaosNet) -> TcpStream {
        let s = TcpStream::connect(chaos.addr(0)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = NetFaultPlan::random(42, 3, 16, 8);
        let b = NetFaultPlan::random(42, 3, 16, 8);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 8);
        let c = NetFaultPlan::random(43, 3, 16, 8);
        assert_ne!(a, c, "different seeds draw different plans");
        // Only drop/delay in the random mix (deterministic drills).
        assert!(a.faults().iter().all(|f| matches!(
            f,
            NetFault::Drop { .. } | NetFault::Delay { .. }
        )));
    }

    #[test]
    fn action_first_match_wins_and_windows_bound() {
        let plan = NetFaultPlan::new()
            .drop_frames(0, Dir::ToNode, 2, 2)
            .delay_frames(0, Dir::ToNode, 3, 1, 7);
        assert_eq!(plan.action(0, Dir::ToNode, 1), FrameAction::Forward);
        assert_eq!(plan.action(0, Dir::ToNode, 2), FrameAction::Drop);
        assert_eq!(plan.action(0, Dir::ToNode, 3), FrameAction::Drop, "drop added first wins");
        assert_eq!(plan.action(0, Dir::ToNode, 4), FrameAction::Forward);
        assert_eq!(plan.action(0, Dir::FromNode, 2), FrameAction::Forward, "direction-scoped");
        assert_eq!(plan.action(1, Dir::ToNode, 2), FrameAction::Forward, "link-scoped");
    }

    #[test]
    fn clean_proxy_forwards_both_ways() {
        let addr = echo_server();
        let chaos = ChaosNet::start(NetFaultPlan::new(), &[addr]).unwrap();
        let mut conn = connect(&chaos);
        for tag in [b"aa".as_slice(), b"bb", b"cc"] {
            write_frame(&mut conn, tag).unwrap();
            assert_eq!(read_frame(&mut conn).unwrap().unwrap(), tag);
        }
        let stats = chaos.stats();
        assert_eq!(stats[0].forwarded, 6, "3 requests + 3 echoes");
        chaos.shutdown();
    }

    #[test]
    fn dropped_request_frame_never_arrives() {
        let addr = echo_server();
        let plan = NetFaultPlan::new().drop_frames(0, Dir::ToNode, 0, 1);
        let chaos = ChaosNet::start(plan, &[addr]).unwrap();
        let mut conn = connect(&chaos);
        write_frame(&mut conn, b"lost").unwrap();
        write_frame(&mut conn, b"kept").unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap().unwrap(),
            b"kept",
            "first echo is the surviving second frame"
        );
        assert_eq!(chaos.stats()[0].dropped, 1);
        chaos.shutdown();
    }

    #[test]
    fn duplicate_and_reorder_reshape_the_stream() {
        let addr = echo_server();
        // Request direction: duplicate frame 0, so the echo answers it
        // twice; reorder response frame 1 behind response frame 2.
        let plan = NetFaultPlan::new()
            .duplicate(0, Dir::ToNode, 0)
            .reorder(0, Dir::FromNode, 1);
        let chaos = ChaosNet::start(plan, &[addr]).unwrap();
        let mut conn = connect(&chaos);
        write_frame(&mut conn, b"a").unwrap();
        write_frame(&mut conn, b"b").unwrap();
        // Echo stream: a, a, b. Response frame 1 (second "a") is held
        // and delivered after frame 2 ("b").
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"a");
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"b");
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"a", "late arrival");
        let stats = chaos.stats();
        assert_eq!(stats[0].duplicated, 1);
        assert_eq!(stats[0].reordered, 1);
        chaos.shutdown();
    }

    #[test]
    fn truncated_response_surfaces_as_eof_mid_frame() {
        let addr = echo_server();
        let plan = NetFaultPlan::new().truncate(0, Dir::FromNode, 0);
        let chaos = ChaosNet::start(plan, &[addr]).unwrap();
        let mut conn = connect(&chaos);
        write_frame(&mut conn, b"payload").unwrap();
        let err = read_frame(&mut conn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(chaos.stats()[0].truncated, 1);
        chaos.shutdown();
    }

    #[test]
    fn partition_blackholes_and_heal_restores() {
        let addr = echo_server();
        let chaos = ChaosNet::start(NetFaultPlan::new(), &[addr]).unwrap();
        let mut conn = connect(&chaos);
        conn.set_read_timeout(Some(Duration::from_millis(80))).unwrap();
        chaos.partition(&[&[], &[0]]);
        assert!(chaos.blocked(0));
        write_frame(&mut conn, b"void").unwrap();
        let err = read_frame(&mut conn).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "partitioned link times out, got {err:?}"
        );
        chaos.heal();
        assert!(!chaos.blocked(0));
        write_frame(&mut conn, b"back").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"back");
        assert_eq!(chaos.stats()[0].blackholed, 1);
        chaos.shutdown();
    }

    #[test]
    fn disarm_suspends_the_plan() {
        let addr = echo_server();
        let plan = NetFaultPlan::new().drop_frames(0, Dir::ToNode, 0, u64::MAX);
        let chaos = ChaosNet::start(plan, &[addr]).unwrap();
        chaos.disarm();
        let mut conn = connect(&chaos);
        write_frame(&mut conn, b"through").unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"through");
        chaos.shutdown();
    }
}
