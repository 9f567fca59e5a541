//! The TCP load generator: one process, two threads, one open connection
//! per thread (so at most two at once), requests pipelined on a busy
//! connection.
//!
//! A run is an open loop: request `i` is sent when it is due (`i / rate`
//! after the start) whether or not earlier answers have arrived; latency
//! is timed from the due time, so a stall also counts against every
//! request it delays.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::rng::Rng;

/// Acknowledges received data at once instead of after the kernel's
/// delayed-ACK timer (Linux `TCP_QUICKACK`; the kernel clears it again on
/// its own, so it is re-armed after every read).
///
/// Without it the benchmark would time the server's responses out of a
/// transport stall: the server writes each response line and its newline
/// in two writes on a socket without `TCP_NODELAY`, so the newline waits
/// for the client's delayed ACK and a pipelining client sees every answer
/// late by up to its next send. With quick ACKs the latency figures time
/// the request path itself; the traced run also drives a phase without
/// them and reports the difference as `serve.stall_ms`.
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: `fd` is an open socket owned by `stream` for the duration of
    // the call, and `value` points at a live `i32` whose size is passed as
    // `len`, which is what `setsockopt` reads for this option. A failure
    // only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

/// Threads, and so connections open at once.
pub const THREADS: usize = 2;
/// Requests outstanding on one connection before the sender waits for an
/// answer: keeps unread answers within the socket buffers, so a pipelined
/// write can never deadlock against the server's write.
const MAX_PENDING: usize = 4;
/// No answer for this long while requests are outstanding fails them.
const STALL: Duration = Duration::from_secs(10);

/// While answers are outstanding and the next request is not yet due, the
/// sender polls its socket this often.
const POLL: Duration = Duration::from_micros(100);

/// Connection churn: a new connection after a seeded number of requests
/// drawn from `lo..=hi`, opened once the old one's answers are all in.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    pub lo: u64,
    pub hi: u64,
}

/// What happened to one request. Times are offsets from the run's start.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub done: Option<Duration>,
    pub response: Option<String>,
}

impl Record {
    /// Due-to-answer latency, if answered.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the sender ran: due to sent.
    pub fn lag(&self) -> Option<Duration> {
        self.sent.map(|s| s.saturating_sub(self.due))
    }
}

pub struct RunResult {
    /// One record per request the run attempted (sent, or due and never
    /// sent), in request order.
    pub records: Vec<Record>,
    /// Client-side `connect` durations.
    pub connects: Vec<Duration>,
    /// Start to last answer.
    pub elapsed: Duration,
}

/// One load thread's records (tagged with their request index) and
/// connect times.
type ThreadOutput = (Vec<(usize, Record)>, Vec<Duration>);

/// Drives `requests` at `addr` at `rate` requests per second, with quick
/// ACKs unless `quickack` is off.
pub fn run(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    rate: f64,
    churn: Option<Churn>,
    seed: u64,
    quickack: bool,
) -> RunResult {
    let start = Instant::now();
    let per_thread: Vec<ThreadOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut worker = Worker {
                        addr,
                        start,
                        churn,
                        rng: Rng::new(seed, 0x10ad + t as u64),
                        conn: None,
                        quota: 0,
                        quickack,
                        records: Vec::new(),
                        connects: Vec::new(),
                    };
                    worker.drive(requests, t, rate);
                    (worker.records, worker.connects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut records: Vec<(usize, Record)> = Vec::new();
    let mut connects = Vec::new();
    for (r, c) in per_thread {
        records.extend(r);
        connects.extend(c);
    }
    records.sort_by_key(|(i, _)| *i);
    let elapsed = records
        .iter()
        .filter_map(|(_, r)| r.done)
        .max()
        .unwrap_or_default();
    RunResult {
        records: records.into_iter().map(|(_, r)| r).collect(),
        connects,
        elapsed,
    }
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Indices into the worker's records, oldest first.
    pending: VecDeque<usize>,
    used: u64,
}

struct Worker {
    addr: SocketAddr,
    start: Instant,
    churn: Option<Churn>,
    rng: Rng,
    conn: Option<Conn>,
    quota: u64,
    quickack: bool,
    records: Vec<(usize, Record)>,
    connects: Vec<Duration>,
}

impl Worker {
    fn drive(&mut self, requests: &[Vec<u8>], t: usize, rate: f64) {
        for i in (t..requests.len()).step_by(THREADS) {
            let due = Duration::from_secs_f64(i as f64 / rate);
            self.send(i, due, &requests[i]);
        }
        self.drain();
    }

    /// Sends request `i` at `due` (waiting for it, and reading answers
    /// meanwhile), rotating the connection when churn asks for it.
    fn send(&mut self, i: usize, due: Duration, wire: &[u8]) {
        self.records.push((
            i,
            Record {
                due,
                ..Record::default()
            },
        ));
        let slot = self.records.len() - 1;
        // Wait for the due time, answering what arrives meanwhile.
        loop {
            let now = self.start.elapsed();
            if now >= due {
                break;
            }
            if self.pending() > 0 {
                // A connection that died here leaves nothing pending; the
                // next turn sleeps until the due time.
                if self.poll() {
                    std::thread::sleep(POLL.min(due - now));
                }
            } else {
                std::thread::sleep(due - now);
            }
        }
        if let (Some(churn), Some(conn)) = (self.churn, &self.conn) {
            if conn.used >= self.quota {
                self.drain();
                self.conn = None;
                self.quota = self.rng.range(churn.lo, churn.hi);
            }
        }
        // Keep the pipeline shallow enough that answers fit the buffers.
        while self.pending() >= MAX_PENDING {
            if !self.read_some(STALL) {
                break;
            }
        }
        if self.conn.is_none() {
            if let (Some(churn), 0) = (self.churn, self.quota) {
                self.quota = self.rng.range(churn.lo, churn.hi);
            }
            let t0 = Instant::now();
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    self.connects.push(t0.elapsed());
                    let _ = stream.set_nodelay(true);
                    if self.quickack {
                        quickack(&stream);
                    }
                    let _ = stream.set_write_timeout(Some(STALL));
                    self.conn = Some(Conn {
                        stream,
                        buf: Vec::new(),
                        pending: VecDeque::new(),
                        used: 0,
                    });
                }
                Err(_) => return, // refused: the record stays unanswered
            }
        }
        let conn = self.conn.as_mut().expect("connected above");
        self.records[slot].1.sent = Some(self.start.elapsed());
        if conn.stream.write_all(wire).is_err() {
            self.conn = None;
            return;
        }
        conn.pending.push_back(slot);
        conn.used += 1;
    }

    fn pending(&self) -> usize {
        self.conn.as_ref().map_or(0, |c| c.pending.len())
    }

    /// Takes in whatever answers have already arrived, without blocking.
    fn poll(&mut self) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        if conn.stream.set_nonblocking(true).is_err() {
            self.conn = None;
            return false;
        }
        let alive = self.read_some(Duration::ZERO);
        if let Some(conn) = self.conn.as_mut() {
            if conn.stream.set_nonblocking(false).is_err() {
                self.conn = None;
                return false;
            }
        }
        alive
    }

    /// Reads whatever answers arrive within `timeout` (at once, on a
    /// non-blocking socket). Returns false when
    /// the connection is gone (closed, failed or stalled); its outstanding
    /// requests then stay unanswered.
    fn read_some(&mut self, timeout: Duration) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        // The kernel rounds this timeout up to its tick; it bounds only
        // waits where nothing else is due.
        if !timeout.is_zero() && conn.stream.set_read_timeout(Some(timeout)).is_err() {
            self.conn = None;
            return false;
        }
        let mut chunk = [0u8; 65536];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                self.conn = None;
                false
            }
            Ok(n) => {
                let done = self.start.elapsed();
                if self.quickack {
                    quickack(&conn.stream);
                }
                conn.buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                    let Some(slot) = conn.pending.pop_front() else {
                        // An answer nobody asked for: the stream is
                        // unusable.
                        self.conn = None;
                        return false;
                    };
                    let record = &mut self.records[slot].1;
                    record.done = Some(done);
                    record.response = Some(String::from_utf8_lossy(&line[..pos]).into_owned());
                }
                true
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                timeout < STALL
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => true,
            Err(_) => {
                self.conn = None;
                false
            }
        }
    }

    /// Reads until every outstanding request is answered or the
    /// connection stalls.
    fn drain(&mut self) {
        while self.pending() > 0 {
            if !self.read_some(STALL) {
                break;
            }
        }
        if self.pending() > 0 {
            self.conn = None;
        }
    }
}
