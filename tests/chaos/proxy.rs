//! A fault-injecting proxy between clients and a `stqc serve` daemon,
//! Unix or TCP on either side.
//!
//! Requests pass through unchanged. Every response line the daemon sends
//! claims one index from a counter shared by all connections, and the
//! seeded [`Plan`] decides what the client sees of that line. Which
//! connection draws fault `k` depends on scheduling; the fault schedule
//! itself depends only on the seed.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stq_core::Endpoint;
use stq_util::splitmix64;

/// How long a new connection keeps redialing the daemon. A daemon being
/// restarted is down for a moment; without the redial the proxy would
/// accept and close at once, and each dial would cost a client retry.
const REDIAL_WINDOW: Duration = Duration::from_secs(10);

/// The stray line [`Fault::Alien`] sends first: an id no client uses.
pub const ALIEN_LINE: &[u8] = b"{\"id\":\"proxy-alien\",\"ok\":true,\"result\":{\"alien\":true}}\n";

/// What happens to one response line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Nothing of the line arrives; both sockets are shut down.
    Reset,
    /// The first half of the line arrives, then both sockets are shut down.
    Torn,
    /// Three invalid-UTF-8 bytes arrive glued to the front of the line.
    Garbage,
    /// [`ALIEN_LINE`] arrives, then the line.
    Alien,
    /// The line arrives whole, in two writes.
    Short,
    /// The line arrives whole, 2 ms late.
    Stall,
}

/// Faults keyed by response-line index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan(BTreeMap<u64, Fault>);

impl Plan {
    /// `count` faults scattered over the first `span` response lines,
    /// determined by `seed` alone.
    pub fn seeded(seed: u64, count: usize, span: u64) -> Plan {
        let mut faults = BTreeMap::new();
        let mut s = seed;
        for _ in 0..count {
            s = splitmix64(s);
            let at = s % span.max(1);
            s = splitmix64(s);
            let kind = [
                Fault::Reset,
                Fault::Torn,
                Fault::Garbage,
                Fault::Alien,
                Fault::Short,
                Fault::Stall,
            ][(s % 6) as usize];
            faults.insert(at, kind);
        }
        Plan(faults)
    }

    /// One `fault` at response line `at`.
    pub fn at(at: u64, fault: Fault) -> Plan {
        Plan(BTreeMap::from([(at, fault)]))
    }

    /// Faults scheduled.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Either end of a proxied connection.
trait Sock: Read + Write + Send {
    fn clone_sock(&self) -> io::Result<Box<dyn Sock>>;
    fn sever(&self);
}

impl Sock for UnixStream {
    fn clone_sock(&self) -> io::Result<Box<dyn Sock>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Sock for TcpStream {
    fn clone_sock(&self) -> io::Result<Box<dyn Sock>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

fn dial(endpoint: &Endpoint) -> io::Result<Box<dyn Sock>> {
    Ok(match endpoint {
        Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr.as_str())?;
            stream.set_nodelay(true)?;
            Box::new(stream)
        }
    })
}

/// State every connection of one proxy shares.
struct Shared {
    plan: Plan,
    upstream: Endpoint,
    lines: AtomicU64,
    injected: AtomicU64,
    stopping: AtomicBool,
}

/// A running proxy; dropping it stops accepting and removes its socket.
pub struct Proxy {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Listens on `listen` (a socket path, or `HOST:PORT` where port 0
    /// picks a free one) and relays every connection to `upstream`.
    pub fn start(listen: Endpoint, upstream: Endpoint, plan: Plan) -> Proxy {
        let shared = Arc::new(Shared {
            plan,
            upstream,
            lines: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });
        type Accept = Box<dyn Fn() -> io::Result<Box<dyn Sock>> + Send>;
        let (endpoint, accept): (Endpoint, Accept) = match listen {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path).expect("proxy binds its socket");
                let accept = move || Ok(Box::new(listener.accept()?.0) as Box<dyn Sock>);
                (Endpoint::Unix(path), Box::new(accept))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str()).expect("proxy binds its port");
                let bound = listener.local_addr().expect("bound address").to_string();
                let accept = move || {
                    let stream = listener.accept()?.0;
                    stream.set_nodelay(true)?;
                    Ok(Box::new(stream) as Box<dyn Sock>)
                };
                (Endpoint::Tcp(bound), Box::new(accept))
            }
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while let Ok(client) = accept() {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || relay(client, &shared));
                }
            })
        };
        Proxy {
            endpoint,
            shared,
            accept: Some(accept),
        }
    }

    /// Where clients dial the proxy.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Response lines seen so far.
    pub fn lines(&self) -> u64 {
        self.shared.lines.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.shared.injected.load(Ordering::Relaxed)
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Wake the blocked accept so it sees the flag.
        let _ = dial(&self.endpoint);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Serves one client connection: dials the daemon, forwards requests on
/// a second thread, and relays responses line by line through the plan.
fn relay(client: Box<dyn Sock>, shared: &Shared) {
    let give_up = Instant::now() + REDIAL_WINDOW;
    let daemon = loop {
        match dial(&shared.upstream) {
            Ok(daemon) => break daemon,
            Err(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => return client.sever(),
        }
    };
    let (Ok(mut requests), Ok(mut to_daemon)) = (client.clone_sock(), daemon.clone_sock()) else {
        return client.sever();
    };
    std::thread::spawn(move || {
        let _ = io::copy(&mut requests, &mut to_daemon);
        to_daemon.sever();
    });
    let (mut client, mut daemon) = (client, daemon);
    let mut pending = Vec::new();
    let mut chunk = [0u8; 8192];
    'relay: while let Ok(n @ 1..) = daemon.read(&mut chunk) {
        pending.extend_from_slice(&chunk[..n]);
        while let Some(eol) = pending.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = pending.drain(..=eol).collect();
            let index = shared.lines.fetch_add(1, Ordering::Relaxed);
            let fault = shared.plan.0.get(&index).copied();
            if fault.is_some() {
                shared.injected.fetch_add(1, Ordering::Relaxed);
            }
            if deliver(&mut *client, &line, fault).is_err() {
                break 'relay;
            }
        }
    }
    client.sever();
    daemon.sever();
}

/// Writes one response line to the client as `fault` dictates; an error
/// ends the connection.
fn deliver(client: &mut dyn Sock, line: &[u8], fault: Option<Fault>) -> io::Result<()> {
    let half = (line.len() / 2).max(1);
    let severed = || io::Error::new(io::ErrorKind::ConnectionReset, "injected");
    match fault {
        None => client.write_all(line),
        Some(Fault::Reset) => Err(severed()),
        Some(Fault::Torn) => {
            client.write_all(&line[..half])?;
            Err(severed())
        }
        Some(Fault::Garbage) => {
            client.write_all(&[0xFF, 0xFE, 0xF5])?;
            client.write_all(line)
        }
        Some(Fault::Alien) => {
            client.write_all(ALIEN_LINE)?;
            client.write_all(line)
        }
        Some(Fault::Short) => {
            client.write_all(&line[..half])?;
            client.flush()?;
            client.write_all(&line[half..])
        }
        Some(Fault::Stall) => {
            std::thread::sleep(Duration::from_millis(2));
            client.write_all(line)
        }
    }
}

#[test]
fn each_fault_reaches_the_client_as_planned() {
    const LINES: &[u8] = b"{\"id\":1}\n{\"id\":2}\n";
    let scratch = crate::drill::Scratch::new("proxy");
    // A fake daemon: every connection gets the same two lines, then EOF.
    let upstream = scratch.join("upstream.sock");
    let listener = UnixListener::bind(&upstream).expect("fake daemon binds");
    let daemon = std::thread::spawn(move || {
        for conn in listener.incoming().take(9) {
            conn.and_then(|mut c| c.write_all(LINES))
                .expect("fake daemon answers");
        }
    });
    let read_through = |proxy: &Proxy| {
        let mut bytes = Vec::new();
        dial(&proxy.endpoint())
            .and_then(|mut conn| conn.read_to_end(&mut bytes))
            .expect("the proxy relays until the daemon hangs up");
        bytes
    };
    let proxy_with = |name: &str, plan: Plan| {
        let listen = Endpoint::Unix(scratch.join(format!("{name}.sock")));
        Proxy::start(listen, Endpoint::Unix(upstream.clone()), plan)
    };

    let (line1, line2) = LINES.split_at(9);
    let intact = LINES.to_vec();
    let garbled = [&[0xFF, 0xFE, 0xF5][..], LINES].concat();
    let alien = [ALIEN_LINE, LINES].concat();
    let cases: [(Option<Fault>, Option<Vec<u8>>); 7] = [
        (None, Some(intact.clone())),
        (Some(Fault::Reset), Some(Vec::new())),
        (Some(Fault::Torn), None),
        (Some(Fault::Garbage), Some(garbled)),
        (Some(Fault::Alien), Some(alien)),
        (Some(Fault::Short), Some(intact.clone())),
        (Some(Fault::Stall), Some(intact.clone())),
    ];
    for (fault, expected) in cases {
        let plan = fault.map_or_else(Plan::default, |f| Plan::at(0, f));
        let proxy = proxy_with(&format!("{fault:?}"), plan);
        let got = read_through(&proxy);
        match expected {
            Some(bytes) => assert_eq!(got, bytes, "{fault:?}"),
            // Torn: a strict, nonempty prefix of the first line, then EOF.
            None => assert!(!got.is_empty() && line1.starts_with(&got) && got.len() < line1.len()),
        }
        assert_eq!(proxy.injected(), u64::from(fault.is_some()), "{fault:?}");
    }

    // Indices are claimed per response line across connections: a
    // fault at line 3 lands on the second connection's second line.
    let proxy = proxy_with("shared", Plan::at(3, Fault::Alien));
    assert_eq!(read_through(&proxy), intact);
    assert_eq!(read_through(&proxy), [line1, ALIEN_LINE, line2].concat());
    assert_eq!((proxy.lines(), proxy.injected()), (4, 1));

    daemon
        .join()
        .expect("fake daemon served all nine connections");

    let plan = Plan::seeded(7, 10, 100);
    assert_eq!(plan, Plan::seeded(7, 10, 100), "a seed fixes its plan");
    assert_ne!(plan, Plan::seeded(8, 10, 100));
    assert!(plan.len() > 0);
}
