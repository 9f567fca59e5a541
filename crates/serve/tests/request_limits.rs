//! Request-size limits over TCP: a line over
//! [`MAX_LINE_BYTES`](rlc_serve::protocol::MAX_LINE_BYTES) or a deck over
//! [`MAX_DECK_BYTES`](rlc_serve::protocol::MAX_DECK_BYTES) gets the typed
//! `bad_request` error naming the limit, then the server closes that
//! connection; the server keeps serving new connections.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};

use rlc_serve::protocol::{MAX_DECK_BYTES, MAX_LINE_BYTES};
use rlc_serve::{ServeConfig, Server};

const LINE_DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Sends `request`, returns the one response line, and checks the server
/// then closes the connection (EOF, or a reset when the server left part
/// of the request unread).
fn rejected_then_closed(addr: SocketAddr, request: &[u8]) -> String {
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(request).expect("send request");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read response");
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("connection should be closed, got {other:?} {rest:?}"),
    }
    answer
}

#[test]
fn oversize_requests_are_typed_and_close_only_their_connection() {
    let server = Server::bind(("127.0.0.1", 0), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let accept_loop = std::thread::spawn(move || server.run());

    // A header line with no newline, longer than the line limit.
    let answer = rejected_then_closed(addr, "x".repeat(MAX_LINE_BYTES + 1000).as_bytes());
    assert!(answer.contains("\"kind\": \"bad_request\""), "{answer}");
    assert!(answer.contains("65536-byte limit"), "{answer}");

    // A deck that never terminates, one line past the deck limit.
    let line = format!("* {}\n", "x".repeat(1021));
    let request = format!("analyze\n{}", line.repeat(MAX_DECK_BYTES / line.len() + 1));
    let answer = rejected_then_closed(addr, request.as_bytes());
    assert!(answer.contains("\"kind\": \"bad_request\""), "{answer}");
    assert!(answer.contains("16777216-byte limit"), "{answer}");

    // A healthy request on a new connection is served as usual.
    let (mut reader, mut writer) = connect(addr);
    writer
        .write_all(format!("analyze name=fresh\n{LINE_DECK}.\n").as_bytes())
        .expect("send");
    let mut healthy = String::new();
    reader.read_line(&mut healthy).expect("read");
    assert!(healthy.contains("\"status\": \"ok\""), "{healthy}");

    let (mut reader, mut writer) = connect(addr);
    writer.write_all(b"shutdown\n").expect("send shutdown");
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("read stats");
    assert!(stats.contains("\"bad_requests\": 2"), "{stats}");
    accept_loop.join().expect("thread").expect("run");
}
