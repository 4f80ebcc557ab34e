//! The in-memory driver: the serving core with no socket.
//!
//! [`Mem`] is an [`Io`] over byte queues, one [`Peer`] per connection
//! token: what the peer sent and the core has not read, and what the
//! core wrote and the peer has not read. [`Loopback`] puts one peer
//! behind `Read + Write` and steps its core synchronously: a write
//! hands the core the bytes and runs the pass they start to its end, a
//! read drains what the core wrote. Its clock never moves, so no idle,
//! stall or resume-grace deadline fires, and every reply a request
//! earns is written before the request's `write` returns. A
//! [`Client`](crate::Client) over a `Loopback` is a session with an
//! in-process daemon — `cps cluster`'s local nodes. The core's own
//! tests drive [`Mem`] directly: many peers, short reads, a peer that
//! stops reading, and a fake clock.

use crate::core::{ConnKind, Core, Io};
use crate::poll::Interest;
use crate::server::ServeConfig;
use cps_engine::EngineConfig;
use cps_obs::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// One in-memory connection.
#[derive(Default)]
pub(crate) struct Peer {
    /// What the peer sent and the core has not read.
    pub(crate) inbox: VecDeque<u8>,
    /// The peer is done sending: once `inbox` is empty, reads end.
    pub(crate) eof: bool,
    /// What the core wrote and the peer has not read.
    pub(crate) outbox: VecDeque<u8>,
    /// What the core last asked to be woken for.
    pub(crate) interest: Option<Interest>,
    /// The core closed the connection.
    pub(crate) closed: bool,
    /// The peer stopped reading: every write would block.
    pub(crate) stuck: bool,
}

/// The in-memory [`Io`]: peers under their tokens, and reads of at
/// most `chunk` bytes.
pub(crate) struct Mem {
    pub(crate) peers: HashMap<u64, Peer>,
    pub(crate) chunk: usize,
}

impl Mem {
    fn peer(&mut self, conn: u64) -> io::Result<&mut Peer> {
        let peer = self.peers.get_mut(&conn).filter(|p| !p.closed);
        peer.ok_or_else(|| io::ErrorKind::NotConnected.into())
    }
}

impl Io for Mem {
    fn read(&mut self, conn: u64, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.chunk;
        let peer = self.peer(conn)?;
        if peer.inbox.is_empty() && !peer.eof {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(chunk);
        peer.inbox.read(&mut buf[..n])
    }

    fn write(&mut self, conn: u64, bytes: &[u8]) -> io::Result<usize> {
        let peer = self.peer(conn)?;
        if peer.stuck {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        peer.outbox.extend(bytes);
        Ok(bytes.len())
    }

    fn interest(&mut self, conn: u64, interest: Interest) {
        if let Ok(peer) = self.peer(conn) {
            peer.interest = Some(interest);
        }
    }

    fn close(&mut self, conn: u64) {
        if let Ok(peer) = self.peer(conn) {
            peer.closed = true;
        }
    }
}

/// The token of a [`Loopback`]'s one connection.
const CONN: u64 = 0;

/// A loopback's clock: it never moves.
const NOW: Duration = Duration::ZERO;

/// A byte transport to an in-process serving core hosting one engine.
/// Build one with [`new`](Self::new) and open a session over it with
/// [`Client::hello`](crate::Client::hello). Its serving constants: one
/// session, a 4,096-record window (the core feeds the engine before a
/// write returns, so nothing waits in it), no idle
/// timeout and no resume grace (nothing reconnects to it).
pub struct Loopback {
    core: Core<Mem>,
    /// The core handed back its run (SHUTDOWN's reply went out).
    finished: bool,
}

/// A loopback's sequencing window, in records.
const WINDOW_CAP: usize = 4096;

impl Loopback {
    /// A core hosting `engine`, its one connection open.
    ///
    /// # Panics
    /// Panics if `engine` fails [`EngineConfig::validate`].
    pub fn new(engine: EngineConfig) -> Loopback {
        let config = ServeConfig {
            engine,
            max_conns: 1,
            idle_timeout: Duration::MAX,
            window_cap: WINDOW_CAP,
            resume_grace: Duration::ZERO,
            telemetry_addr: None,
        };
        let io = Mem {
            peers: HashMap::from([(CONN, Peer::default())]),
            chunk: usize::MAX,
        };
        let mut core = Core::new(io, config, Arc::new(MetricsRegistry::new()), 0);
        core.open(CONN, ConnKind::Wire, NOW);
        Loopback {
            core,
            finished: false,
        }
    }

    /// Streams the hosted engine's journal into `sink` as its epochs
    /// close (see [`cps_engine::Engine::set_journal`]).
    pub fn set_journal(&mut self, sink: impl Write + Send + 'static) {
        self.core.set_journal(sink);
    }

    /// Runs the core until it has read every byte it will take, ending
    /// each pass with a tick; a finished run closes the connection.
    fn step(&mut self) {
        while !self.finished {
            let unread = self.core.io.peers[&CONN].inbox.len();
            self.core.readable(CONN, NOW);
            self.finished = self.core.tick(NOW).is_some();
            let peer = self.core.io.peers.get_mut(&CONN).expect("the one peer");
            peer.closed |= self.finished;
            if peer.inbox.is_empty() || peer.inbox.len() == unread {
                return;
            }
        }
    }
}

impl Write for Loopback {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.core.io.peer(CONN)?.inbox.extend(bytes);
        self.step();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let peer = self.core.io.peers.get_mut(&CONN).expect("the one peer");
        if peer.outbox.is_empty() && !peer.closed {
            // Replies are written before their request's `write`
            // returns: an empty outbox means nothing is coming.
            return Err(io::ErrorKind::WouldBlock.into());
        }
        peer.outbox.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use cps_core::CacheConfig;
    use cps_engine::Engine;

    #[test]
    fn a_frame_past_the_read_chunk_and_the_window_is_served_whole() {
        let config = EngineConfig::new(3, CacheConfig::new(12, 2), 5_000);
        let stream: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 3, i * 7 % 50)).collect();
        let mut client = Client::hello(Loopback::new(config.clone()), None).expect("admitted");
        // One ~180 kB frame: several 64 kB reads, and a 4,096-record
        // window the tail parks behind until the engine drains it.
        client.push_batch(&stream).expect("pushed");
        let served = client.shutdown().expect("SHUTDOWN answered");

        let mut engine = Engine::new(config);
        engine.run(stream.iter().map(|&(t, b)| (t as usize, b)));
        let local = engine.finish().expect("no journal to fail");
        assert_eq!(served.digest, local.digest);
        assert_eq!(served.summary.accesses, 20_000);
    }
}
