//! Codec torture: round-trip properties for every frame type, plus
//! rejection of truncated, oversized, and corrupted encodings.
//!
//! The decoding contract is the same one the persist format upholds:
//! **every** malformed byte sequence yields a typed [`ProtoError`] — no
//! panic, no over-allocation, no silent misparse.

use pqfs_core::Neighbor;
use pqfs_server::proto::{
    frame_bytes, read_frame, ErrorCode, Frame, FrameKind, HealthInfo, ProtoError, QueryAnswer,
    QueryParams, QueryRequest, Request, Response, HEADER_LEN,
};
use proptest::prelude::*;

fn roundtrip_request(req: &Request) -> Request {
    let frame = req.to_frame();
    let bytes = frame_bytes(&frame);
    let got = read_frame(&mut &bytes[..])
        .expect("well-formed frame")
        .expect("one frame present");
    assert_eq!(got, frame, "wire frame survives the transport");
    Request::from_frame(&got).expect("well-formed payload")
}

fn roundtrip_response(resp: &Response) -> Response {
    let frame = resp.to_frame();
    let bytes = frame_bytes(&frame);
    let got = read_frame(&mut &bytes[..])
        .expect("well-formed frame")
        .expect("one frame present");
    Response::from_frame(&got).expect("well-formed payload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_roundtrips(
        topk in 1u32..1000,
        nprobe in 1u32..64,
        keep in 0.001f64..1.0,
        deadline_us in 0u64..2_000_000,
        dim in 1u32..64,
        seed in 0u64..1000,
    ) {
        let queries: Vec<f32> =
            (0..dim).map(|i| (i as f32) * 0.5 + seed as f32).collect();
        let req = Request::Query(QueryRequest {
            params: QueryParams {
                topk,
                nprobe,
                keep,
                deadline_us,
                backend: "fast-scan".to_string(),
            },
            dim,
            queries,
        });
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn batch_roundtrips(
        count in 1u32..8,
        dim in 1u32..32,
        seed in 0u64..1000,
    ) {
        let queries: Vec<f32> = (0..count * dim)
            .map(|i| ((i as u64 * 2654435761 + seed) % 255) as f32)
            .collect();
        let req = Request::Batch(QueryRequest {
            params: QueryParams::default(),
            dim,
            queries,
        });
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn answers_roundtrip(
        n in 0usize..64,
        ok in 0u32..16,
        failed in 0u32..4,
        skipped in 0u32..4,
    ) {
        let answer = QueryAnswer {
            probes_ok: ok,
            probes_failed: failed,
            probes_skipped: skipped,
            neighbors: (0..n)
                .map(|i| Neighbor { id: i as u64 * 7, dist: i as f32 * 0.25 })
                .collect(),
        };
        let single = Response::Query(answer.clone());
        prop_assert_eq!(roundtrip_response(&single), single);
        let batch = Response::Batch(vec![answer.clone(), QueryAnswer::default(), answer]);
        prop_assert_eq!(roundtrip_response(&batch), batch);
    }

    #[test]
    fn nan_and_infinite_floats_roundtrip_bit_exact(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        let req = Request::Query(QueryRequest {
            params: QueryParams::default(),
            dim: 1,
            queries: vec![x],
        });
        let got = roundtrip_request(&req);
        let Request::Query(q) = got else {
            return Err(TestCaseError::fail("wrong request variant"));
        };
        prop_assert_eq!(q.queries[0].to_bits(), bits);
    }

    /// Every truncation of a valid frame is rejected (or, at length 0,
    /// reported as clean EOF) — never a panic or a bogus success.
    #[test]
    fn truncations_never_parse(cut in 0usize..200) {
        let req = Request::Query(QueryRequest {
            params: QueryParams::default(),
            dim: 8,
            queries: vec![1.0; 8],
        });
        let bytes = frame_bytes(&req.to_frame());
        prop_assume!(cut < bytes.len());
        match read_frame(&mut &bytes[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "only empty input is clean EOF"),
            Ok(Some(_)) => return Err(TestCaseError::fail("truncated frame parsed")),
            Err(_) => {}
        }
    }

    /// Every single-byte corruption is caught: by the CRC if it hits the
    /// payload, by header validation or the CRC comparison otherwise.
    /// (A flip inside `payload_len` can also surface as truncation.)
    #[test]
    fn single_bit_flips_never_parse_silently(pos in 0usize..200, bit in 0u8..8) {
        let req = Request::Query(QueryRequest {
            params: QueryParams::default(),
            dim: 8,
            queries: vec![2.5; 8],
        });
        let original = req.to_frame();
        let mut bytes = frame_bytes(&original);
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= 1 << bit;
        match read_frame(&mut &bytes[..]) {
            Err(_) => {}
            Ok(None) => return Err(TestCaseError::fail("corrupt frame read as EOF")),
            Ok(Some(frame)) => {
                // The only undetectable single-bit flip is inside the
                // *kind* byte mapping to another valid kind — the CRC
                // covers only the payload. Assert payload integrity.
                prop_assert_eq!(frame.payload, original.payload);
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The exact wire bytes of one frame of every request and response kind.
/// A round trip cannot show that an encoder change kept the bytes; these
/// pins can.
#[test]
fn golden_frame_bytes() {
    let params = QueryParams {
        topk: 3,
        nprobe: 2,
        keep: 0.5,
        deadline_us: 1000,
        backend: "libpq".to_string(),
    };
    let answer = |id: u64| QueryAnswer {
        probes_ok: 2,
        probes_failed: 1,
        probes_skipped: 0,
        neighbors: vec![Neighbor { id, dist: 1.5 }],
    };
    let requests = [
        Request::Query(QueryRequest {
            params: params.clone(),
            dim: 2,
            queries: vec![1.0, -2.0],
        }),
        Request::Batch(QueryRequest {
            params,
            dim: 1,
            queries: vec![0.25, 4.0],
        }),
        Request::Health,
        Request::Stats,
    ];
    let responses = [
        Response::Query(answer(7)),
        Response::Batch(vec![answer(1), QueryAnswer::default()]),
        Response::Health(HealthInfo {
            vectors: 500_000,
            partitions: 2,
            dim: 128,
        }),
        Response::Stats("{}".to_string()),
        Response::Error {
            code: ErrorCode::BadRequest,
            message: "no".to_string(),
        },
        Response::Overloaded {
            capacity: 64,
            depth: 65,
        },
    ];
    let got: Vec<String> = requests
        .iter()
        .map(|r| hex(&frame_bytes(&r.to_frame())))
        .chain(responses.iter().map(|r| hex(&frame_bytes(&r.to_frame()))))
        .collect();
    // One hex string per frame, in the order of the two arrays above.
    let want = [
        "50515356010100002a0000000300000002000000000000000000e03fe803000000000000056c69627071020000000000803f000000c09385d8dd",
        "50515356010200002e0000000300000002000000000000000000e03fe803000000000000056c6962707101000000020000000000803e0000804013a659ae",
        "50515356010300000000000000000000",
        "50515356010400000000000000000000",
        "50515356018100001c0000000200000001000000000000000100000007000000000000000000c03f996a52a5",
        "505153560182000030000000020000000200000001000000000000000100000001000000000000000000c03f00000000000000000000000000000000aa7e0669",
        "50515356018300001000000020a10700000000000200000080000000633e8c4e",
        "5051535601840000020000007b7d43bfa6a3",
        "5051535601e000000700000002020000006e6fbc554861",
        "5051535601e10000080000004000000041000000dc22176f",
    ];
    assert_eq!(got, want);
}

/// EOF inside the payload is `Truncated("frame payload")`, and a failing
/// read there stays `Io`: neither is a malformed payload.
#[test]
fn a_frame_cut_inside_its_payload_is_truncated_and_a_failed_read_is_io() {
    let bytes = frame_bytes(&Response::Stats("{\"a\":1}".to_string()).to_frame());
    let cut = &bytes[..HEADER_LEN + 3];
    assert!(matches!(
        read_frame(&mut &cut[..]),
        Err(ProtoError::Truncated("frame payload"))
    ));
    struct Broken;
    impl std::io::Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("link down"))
        }
    }
    let mut stream = std::io::Read::chain(cut, Broken);
    assert!(matches!(read_frame(&mut stream), Err(ProtoError::Io(_))));
}

/// Capped strings are cut on a char boundary, so the peer still decodes
/// UTF-8: a 63-byte name plus a two-byte `é` comes back as the 63 bytes.
#[test]
fn capped_strings_are_cut_on_a_char_boundary() {
    let name = "a".repeat(63);
    let req = Request::Query(QueryRequest {
        params: QueryParams {
            backend: format!("{name}é"),
            ..QueryParams::default()
        },
        dim: 1,
        queries: vec![0.0],
    });
    let Request::Query(got) = roundtrip_request(&req) else {
        panic!("wrong request variant");
    };
    assert_eq!(got.params.backend, name);

    let message = "b".repeat((1 << 16) - 1);
    let resp = Response::Error {
        code: ErrorCode::SearchFailed,
        message: format!("{message}é"),
    };
    let want = Response::Error {
        code: ErrorCode::SearchFailed,
        message,
    };
    assert_eq!(roundtrip_response(&resp), want);
}

#[test]
fn health_stats_error_overloaded_roundtrip() {
    let cases = [
        Response::Health(HealthInfo {
            vectors: 123_456,
            partitions: 32,
            dim: 128,
        }),
        Response::Stats("{\"counters\":{}}".to_string()),
        Response::Error {
            code: ErrorCode::BadRequest,
            message: "dim 3 does not match index dim 16".to_string(),
        },
        Response::Error {
            code: ErrorCode::ShuttingDown,
            message: String::new(),
        },
        Response::Overloaded {
            capacity: 256,
            depth: 256,
        },
    ];
    for resp in cases {
        assert_eq!(roundtrip_response(&resp), resp);
    }
    let requests = [Request::Health, Request::Stats];
    for req in requests {
        assert_eq!(roundtrip_request(&req), req);
    }
}

/// A one-vector, 4-dim query frame; its payload is params (topk 4, nprobe
/// 4, keep 8, deadline 8, backend length 1, an empty name), dim, floats.
fn query_frame() -> Frame {
    let req = QueryRequest {
        params: QueryParams::default(),
        dim: 4,
        queries: vec![0.0; 4],
    };
    Request::Query(req).to_frame()
}

#[test]
fn zero_topk_and_zero_dim_are_rejected() {
    // topk is the first payload field, dim the one after params.
    for at in [0, 25] {
        let mut frame = query_frame();
        frame.payload[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Request::from_frame(&frame),
            Err(ProtoError::Malformed(_))
        ));
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut frame = Request::Health.to_frame();
    frame.payload.extend_from_slice(b"junk");
    assert!(matches!(
        Request::from_frame(&frame),
        Err(ProtoError::TrailingBytes(4))
    ));
}

#[test]
fn mismatched_query_byte_count_is_rejected() {
    let mut frame = query_frame();
    frame.payload.truncate(frame.payload.len() - 2);
    assert!(matches!(
        Request::from_frame(&frame),
        Err(ProtoError::Malformed(_))
    ));
}

#[test]
fn request_decoder_rejects_response_kinds_and_vice_versa() {
    let resp_frame = Response::Overloaded {
        capacity: 1,
        depth: 1,
    }
    .to_frame();
    assert!(matches!(
        Request::from_frame(&resp_frame),
        Err(ProtoError::Kind(_))
    ));
    let req_frame = Request::Health.to_frame();
    assert!(matches!(
        Response::from_frame(&req_frame),
        Err(ProtoError::Kind(_))
    ));
}

/// Each header field and the payload CRC fail with their own typed error,
/// and an empty stream is a clean EOF.
#[test]
fn bad_header_fields_and_a_bad_crc_are_typed() {
    assert!(read_frame(&mut &[][..]).unwrap().is_none());
    let read = |at: usize, value: u8| {
        let mut bytes = frame_bytes(&Response::Stats("{}".to_string()).to_frame());
        bytes[at] = value;
        read_frame(&mut &bytes[..])
    };
    assert!(matches!(read(0, b'X'), Err(ProtoError::Magic(_))));
    assert!(matches!(read(4, 9), Err(ProtoError::Version(9))));
    assert!(matches!(read(5, 0x7F), Err(ProtoError::Kind(0x7F))));
    assert!(matches!(read(6, 1), Err(ProtoError::Reserved(1))));
    assert!(matches!(read(11, 0xFF), Err(ProtoError::Oversized { .. })));
    assert!(matches!(
        read(HEADER_LEN, b'['),
        Err(ProtoError::Crc { .. })
    ));
}

#[test]
fn oversized_batch_count_is_rejected_before_allocation() {
    let mut frame = Request::Batch(QueryRequest {
        params: QueryParams::default(),
        dim: 2,
        queries: vec![0.0; 4],
    })
    .to_frame();
    // count field: params(25) + dim(4) = offset 29.
    frame.payload[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::from_frame(&frame),
        Err(ProtoError::Malformed(_))
    ));
}

#[test]
fn two_frames_on_one_stream_read_in_order() {
    let a = Request::Health.to_frame();
    let b = Request::Stats.to_frame();
    let mut stream = frame_bytes(&a);
    stream.extend_from_slice(&frame_bytes(&b));
    let mut cursor = &stream[..];
    let first = read_frame(&mut cursor).unwrap().unwrap();
    let second = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(first.kind, FrameKind::Health);
    assert_eq!(second.kind, FrameKind::Stats);
    assert!(read_frame(&mut cursor).unwrap().is_none());
    assert!(stream.len() > 2 * HEADER_LEN);
}
