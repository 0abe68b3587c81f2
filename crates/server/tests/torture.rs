//! Wire-fault torture: injected short reads, short writes, bit flips,
//! accept failures, and decode faults must always surface as clean
//! protocol errors or closed connections — never a panic, never a hung
//! connection, and never a wedged server.
//!
//! Each test holds
//! [`pqfs_fault::exclusive`] because the registry is process-global, and
//! arms with `arm_limited` so exactly one connection absorbs the fault
//! and the follow-up liveness probe sees a healthy server.

use pqfs_fault::{arm_limited, disarm_all, FaultAction};
use pqfs_ivf::{IvfadcConfig, IvfadcIndex};
use pqfs_obs::jsonv::{parse, Value};
use pqfs_server::proto::{ErrorCode, QueryParams, Response};
use pqfs_server::server::{Server, ServerConfig, ServerHandle};
use pqfs_server::{Client, ClientError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 16;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn start_server() -> ServerHandle {
    let mut rng = StdRng::seed_from_u64(21);
    let mut gen =
        |n: usize| -> Vec<f32> { (0..n * DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect() };
    let train = gen(1000);
    let base = gen(300);
    let config = IvfadcConfig::new(DIM, 4);
    let index = Arc::new(IvfadcIndex::build(&train, &base, &config).expect("fixture index"));
    Server::start(index, ServerConfig::default()).expect("bind loopback")
}

fn sample_query() -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect()
}

/// Sends one query into the faulted connection; the outcome must be a
/// clean typed result — a transport error or a typed error frame, with
/// no panic and no hang past the client timeout.
fn faulted_roundtrip(handle: &ServerHandle) -> Result<Response, ClientError> {
    let mut client =
        Client::connect_with(handle.local_addr(), Some(CLIENT_TIMEOUT)).expect("connect");
    client.query(
        &sample_query(),
        QueryParams {
            topk: 3,
            nprobe: 1,
            keep: 0.05,
            ..QueryParams::default()
        },
    )
}

/// A fresh connection after the fault must see a fully healthy server.
fn assert_server_alive(handle: &ServerHandle) {
    let mut probe =
        Client::connect_with(handle.local_addr(), Some(CLIENT_TIMEOUT)).expect("reconnect");
    let health = probe.health().expect("server still serving after fault");
    assert_eq!(health.dim as usize, DIM);
    let response = probe
        .query(
            &sample_query(),
            QueryParams {
                topk: 3,
                nprobe: 1,
                keep: 0.05,
                ..QueryParams::default()
            },
        )
        .expect("queries still answered after fault");
    assert!(
        matches!(response, Response::Query(_)),
        "healthy answer after fault: {response:?}"
    );
}

/// The acceptable outcomes of a faulted round trip: either the transport
/// broke (typed client error) or the server answered with a typed
/// bad-frame error. Anything else — especially a normal answer — means
/// the fault was silently swallowed.
fn assert_clean_failure(outcome: Result<Response, ClientError>, what: &str) {
    match outcome {
        Err(ClientError::Io(_)) | Err(ClientError::Proto(_)) | Err(ClientError::Disconnected) => {}
        Ok(Response::Error {
            code: ErrorCode::BadFrame,
            ..
        }) => {}
        other => panic!("{what}: expected a clean failure, got {other:?}"),
    }
}

#[test]
fn short_read_on_the_wire_is_a_clean_protocol_error() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    // The server's reader hits EOF 5 bytes into the request header.
    arm_limited("server.conn.read", FaultAction::ShortRead(5), 1);
    assert_clean_failure(faulted_roundtrip(&handle), "short read");
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn bitflip_on_the_wire_fails_the_crc_not_the_server() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    // Flip a payload byte (offset past the 12-byte header) on the read
    // path: the frame CRC must catch it.
    arm_limited("server.conn.read", FaultAction::BitFlip(20), 1);
    let outcome = faulted_roundtrip(&handle);
    assert_clean_failure(outcome, "read bitflip");
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn bitflip_in_the_header_is_rejected() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    // Flip the first magic byte.
    arm_limited("server.conn.read", FaultAction::BitFlip(0), 1);
    assert_clean_failure(faulted_roundtrip(&handle), "header bitflip");
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn short_write_of_the_response_drops_the_connection_cleanly() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    // The server's response write tears after 6 bytes; the client must
    // see a truncated frame or a hangup, never a hang.
    arm_limited("server.conn.write", FaultAction::ShortWrite(6), 1);
    let outcome = faulted_roundtrip(&handle);
    assert!(
        outcome.is_err(),
        "torn response must not parse: {outcome:?}"
    );
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn read_error_mid_frame_is_contained() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    arm_limited("server.conn.read", FaultAction::Error, 1);
    assert_clean_failure(faulted_roundtrip(&handle), "read error");
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn accept_fault_drops_the_connection_but_not_the_acceptor() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    arm_limited("server.accept", FaultAction::Error, 1);
    // The connection is accepted by the kernel then dropped by the
    // server; the round trip must fail cleanly.
    let outcome = faulted_roundtrip(&handle);
    assert!(
        outcome.is_err(),
        "dropped-at-accept connection must error: {outcome:?}"
    );
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn decode_fault_answers_bad_frame_and_closes() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    arm_limited("server.proto.decode", FaultAction::Error, 1);
    assert_clean_failure(faulted_roundtrip(&handle), "decode fault");
    disarm_all();
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn raw_garbage_bytes_get_a_typed_error_never_a_hang() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write garbage");
    // The server answers with a typed bad-frame error (or just hangs
    // up); either way the read terminates.
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    if !buf.is_empty() {
        let frame = pqfs_server::read_frame(&mut &buf[..])
            .expect("server speaks its own protocol even on garbage input")
            .expect("one frame");
        let response = Response::from_frame(&frame).expect("typed error frame");
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::BadFrame,
                    ..
                }
            ),
            "garbage answered with bad-frame: {response:?}"
        );
    }
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn a_peer_stalling_mid_frame_gets_bad_frame_after_the_read_timeout() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    // A valid health-frame header announcing 8 payload bytes that never
    // come: the server's buffered read returns the header, then the
    // payload read must time out instead of waiting forever.
    let mut torn = Vec::from(*b"PQSV");
    torn.extend([1u8, 0x03, 0, 0]);
    torn.extend(8u32.to_le_bytes());
    stream.write_all(&torn).expect("write torn frame");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let frame = pqfs_server::read_frame(&mut &buf[..])
        .expect("a well-formed reply")
        .expect("one frame before the hangup");
    let response = Response::from_frame(&frame).expect("typed error frame");
    assert!(
        matches!(
            response,
            Response::Error {
                code: ErrorCode::BadFrame,
                ..
            }
        ),
        "stall answered with bad-frame: {response:?}"
    );
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}

#[test]
fn a_slow_reader_stalls_only_its_own_connection() {
    let _lock = pqfs_fault::exclusive();
    disarm_all();
    let handle = start_server();
    use std::io::{ErrorKind, Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;
    // Batch requests whose answers (~1.8 MB each) overflow every socket
    // buffer on the way back, pipelined by a peer that drains them at
    // 8 KB per 25 ms: one answer takes seconds to leave. The connection
    // thread leads each of those waves, and a leader that kept the lead
    // until its answer was out would stall every other client that long.
    let count = 512usize;
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<f32> = (0..count * DIM)
        .map(|_| rng.gen_range(0.0f32..255.0))
        .collect();
    let request = pqfs_server::Request::Batch(pqfs_server::QueryRequest {
        params: QueryParams {
            topk: 300,
            nprobe: 4,
            keep: 1.0,
            ..QueryParams::default()
        },
        dim: DIM as u32,
        queries,
    })
    .to_frame();
    let mut bytes = Vec::new();
    pqfs_server::write_frame(&mut bytes, request.kind, &request.payload).expect("encodes");

    // The first stats frame, before the slow peer exists.
    let mut probe =
        Client::connect_with(handle.local_addr(), Some(CLIENT_TIMEOUT)).expect("connect");
    let before = probe.stats().expect("stats frame");

    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let slow = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut offset, mut drained) = (0usize, 0usize);
            let mut sip = [0u8; 8 << 10];
            while !stop.load(Ordering::SeqCst) {
                // Whole frames, back to back: resume a torn write where it
                // stopped so the server never sees a malformed stream.
                match stream.write(&bytes[offset..]) {
                    Ok(n) => offset = (offset + n) % bytes.len(),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => panic!("the server dropped a peer that was only slow: {e}"),
                }
                match stream.read(&mut sip) {
                    Ok(0) => panic!("the server hung up on a peer that was only slow"),
                    Ok(n) => drained += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => panic!("the server dropped a peer that was only slow: {e}"),
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            drained
        })
    };

    let begun = Instant::now();
    let mut asked = 0u64;
    while begun.elapsed() < Duration::from_secs(2) {
        let response = probe
            .query(
                &sample_query(),
                QueryParams {
                    topk: 3,
                    nprobe: 1,
                    keep: 0.05,
                    ..QueryParams::default()
                },
            )
            .expect("answered beside the slow reader");
        assert!(matches!(response, Response::Query(_)), "{response:?}");
        asked += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = probe.stats().expect("stats frame");
    stop.store(true, Ordering::SeqCst);
    let drained = slow.join().expect("slow reader");
    // In those two seconds the slow reader was owed at least one whole
    // answer and took a fraction of it, so its connection thread spent
    // them blocked in a write.
    assert!(
        (1..1 << 20).contains(&drained),
        "the slow reader drained {drained} bytes"
    );
    // What the other client waited for, from the server's own histograms so
    // that the bound scales with the host: a request that arrives while a
    // wave runs waits in the queue for that wave's execution (hundreds of
    // milliseconds for the slow peer's 512 queries in a debug build, over a
    // second on a slow host) and a thread wake-up. Were the lead held until
    // the answer is out, the wait would hold the seconds of the write too.
    // The queue wait is the one stage the slow peer's own requests cannot
    // inflate: they are never queued behind anything but a probe.
    let before = parse(&before).expect("stats frames are JSON");
    let after = parse(&after).expect("stats frames are JSON");
    let field = |frame: &Value, histogram: &str, field: &str| {
        let histograms = frame.get("histograms");
        histograms
            .and_then(|h| h.get(histogram)?.get(field)?.as_u64())
            .unwrap_or(0)
    };
    let executed = |frame| field(frame, "pqfs_server_execute_ns", "count");
    assert!(
        executed(&after) - executed(&before) > asked,
        "no wave of the slow peer ran beside the {asked} probes"
    );
    let waited = field(&after, "pqfs_server_queue_wait_ns", "max_ns");
    let wave = field(&after, "pqfs_server_execute_ns", "max_ns");
    assert!(
        waited <= wave + wave / 2 + 100_000_000,
        "a request beside the slow reader waited {waited} ns; the longest wave ran {wave} ns"
    );
    // Its stream is closed now (dropped with the thread), which fails the
    // blocked write: shutdown must not wait on that peer either.
    assert_server_alive(&handle);
    handle.shutdown_and_join();
}
