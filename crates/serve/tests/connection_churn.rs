//! Connection churn must not leak: a server that has accepted and closed
//! thousands of connections holds the same file descriptors as a fresh
//! one. Kept in its own test binary so no concurrently running test opens
//! descriptors while the count is taken.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rlc_serve::{ServeConfig, Server};

const CONNECTIONS: usize = 2_000;
/// Slack over the starting count for descriptors the runtime opens on
/// its own (e.g. the socket of a connection still being torn down).
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

fn request(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout is valid");
    stream.write_all(line.as_bytes()).expect("request is sent");
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .expect("response arrives");
    response
}

#[test]
fn churned_connections_release_their_descriptors() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());
    assert!(request(addr, "probe\n").contains("probe"));
    let start = open_fds();

    for k in 0..CONNECTIONS {
        if k % 2 == 0 {
            // A full request/response session.
            assert!(request(addr, "probe\n").contains("probe"));
        } else {
            // Connect and hang up without a word.
            drop(TcpStream::connect(addr).expect("server accepts"));
        }
    }

    // Connection threads notice the hang-ups asynchronously; give them a
    // moment, but a leak never drains.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now_open = open_fds();
    while now_open > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now_open = open_fds();
    }
    assert!(
        now_open <= start + SLACK,
        "{now_open} descriptors open after {CONNECTIONS} connections (started at {start})"
    );

    let stats = request(addr, "shutdown\n");
    assert!(stats.contains("stats"), "{stats}");
    runner
        .join()
        .expect("accept loop does not panic")
        .expect("accept loop ends cleanly");
}
