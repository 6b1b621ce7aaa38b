//! Codec contract (DESIGN.md §12.1): every frame round-trips bit-exactly,
//! and every malformed input — truncated, oversized, unknown opcode,
//! mid-frame disconnect — maps to a typed error. Nothing here may panic.

use mar_core::QueryRegion;
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_served::{
    decode, encode, read_frame, read_frame_len, DecodeError, Frame, WireError, MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn rect(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect2 {
    Rect2 {
        lo: Point2::new([lx, ly]),
        hi: Point2::new([hx, hy]),
    }
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        Frame::Welcome {
            session: 7,
            token: 0xdead_beef_cafe_f00d,
        },
        Frame::Query { regions: vec![] },
        Frame::Query {
            regions: vec![
                QueryRegion {
                    region: rect(0.0, 0.0, 100.0, 50.0),
                    band: ResolutionBand {
                        w_min: 0.25,
                        w_max: 1.0,
                    },
                },
                QueryRegion {
                    region: rect(-5.5, 3.25, 7.125, 9.75),
                    band: ResolutionBand {
                        w_min: 0.0,
                        w_max: 0.5,
                    },
                },
            ],
        },
        Frame::Result {
            coeffs: 123,
            new_objects: 4,
            bytes: 98765.4321,
            io: 17,
        },
        Frame::Resume {
            token: u64::MAX - 1,
        },
        Frame::Resumed {
            session: 3,
            retained_coeffs: 1000,
            retained_objects: 12,
        },
        Frame::Ack { bytes: 4096.5 },
        Frame::Overload {
            outstanding: 70000.0,
            cap: 65536.0,
        },
        Frame::Error {
            code: 2,
            detail: 42,
        },
        Frame::Bye,
    ]
}

#[test]
fn every_frame_round_trips_exactly() {
    for frame in sample_frames() {
        let buf = encode(&frame).expect("sample frames are small");
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix covers the payload");
        assert_eq!(decode(&buf[4..]), Ok(frame.clone()), "{}", frame.name());
        // And through the stream reader, which reports the wire length
        // (prefix included) the writer put there.
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame_len(&mut cursor).unwrap(),
            Some((frame, buf.len() as u64))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF after");
    }
}

#[test]
fn f64_payloads_cross_bit_exactly() {
    // The transcript-equality guarantee rests on exact f64 transport:
    // NaN payloads, negative zero and subnormals must survive.
    for bits in [
        f64::NAN.to_bits(),
        (-0.0f64).to_bits(),
        f64::MIN_POSITIVE.to_bits() >> 1, // subnormal
        f64::INFINITY.to_bits(),
        0x0123_4567_89ab_cdef,
    ] {
        let frame = Frame::Ack {
            bytes: f64::from_bits(bits),
        };
        let buf = encode(&frame).expect("tiny");
        match decode(&buf[4..]) {
            Ok(Frame::Ack { bytes }) => assert_eq!(bytes.to_bits(), bits),
            other => panic!("ACK round-trip failed: {other:?}"),
        }
    }
}

#[test]
fn truncated_bodies_are_typed_errors() {
    // Chopping any amount off a valid body must yield BadLength (or
    // EmptyPayload when nothing but the length survives), never a panic.
    for frame in sample_frames() {
        let buf = encode(&frame).expect("tiny");
        let payload = &buf[4..];
        for cut in 0..payload.len() {
            match decode(&payload[..cut]) {
                Err(DecodeError::EmptyPayload) => assert_eq!(cut, 0),
                Err(DecodeError::BadLength { opcode, .. }) => {
                    assert_eq!(opcode, frame.opcode(), "cut at {cut}")
                }
                Ok(f) => {
                    // Only legal if the truncation still forms a complete
                    // frame — impossible for fixed layouts, so reaching
                    // here is a bug unless cut == payload.len().
                    panic!("decode accepted a {}-byte prefix as {:?}", cut, f);
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
    }
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    for frame in sample_frames() {
        let mut buf = encode(&frame).expect("tiny")[4..].to_vec();
        buf.push(0xAA);
        assert!(
            matches!(decode(&buf), Err(DecodeError::BadLength { .. })),
            "{} must reject trailing bytes",
            frame.name()
        );
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // A hostile 4 GiB length prefix must be refused from the 4 prefix
    // bytes alone — read_frame never sees (or allocates) the body.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = &wire[..];
    match read_frame(&mut cursor) {
        Err(WireError::Decode(DecodeError::Oversized { len, max })) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(max, MAX_PAYLOAD);
        }
        other => panic!("wanted Oversized, got {other:?}"),
    }

    let just_over = MAX_PAYLOAD + 1;
    let mut wire = Vec::new();
    wire.extend_from_slice(&just_over.to_le_bytes());
    let mut cursor = &wire[..];
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::Decode(DecodeError::Oversized { .. }))
    ));
}

#[test]
fn zero_length_frame_is_a_typed_error() {
    let wire = 0u32.to_le_bytes();
    let mut cursor = &wire[..];
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::Decode(DecodeError::EmptyPayload))
    ));
}

#[test]
fn unknown_opcodes_are_typed_errors() {
    // 4 is the retired `BLOCK`.
    for op in [0u8, 4, 12, 42, 255] {
        assert_eq!(decode(&[op]), Err(DecodeError::UnknownOpcode(op)));
        // With a body attached the opcode is still what fails.
        assert_eq!(
            decode(&[op, 1, 2, 3, 4]),
            Err(DecodeError::UnknownOpcode(op))
        );
    }
}

#[test]
fn query_count_must_match_the_body_exactly() {
    // count = 2 but only one region's bytes present: a hostile count
    // cannot command an allocation beyond the actual body.
    let mut payload = vec![3u8]; // QUERY
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0u8; 48]); // one region, not two
    assert!(matches!(
        decode(&payload),
        Err(DecodeError::BadLength { opcode: 3, .. })
    ));

    // count that claims more than MAX_PAYLOAD worth of regions.
    let mut payload = vec![3u8];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode(&payload),
        Err(DecodeError::BadLength { opcode: 3, .. })
    ));
}

#[test]
fn mid_frame_disconnect_is_distinguished_from_clean_close() {
    let frame = Frame::Welcome {
        session: 1,
        token: 2,
    };
    let buf = encode(&frame).expect("tiny");
    // Clean close: zero bytes.
    let mut empty: &[u8] = &[];
    assert!(matches!(read_frame(&mut empty), Ok(None)));
    // Death during the length prefix.
    for cut in 1..4 {
        let mut cursor = &buf[..cut];
        match read_frame(&mut cursor) {
            Err(WireError::Disconnected { context }) => assert_eq!(context, "length prefix"),
            other => panic!("cut {cut}: wanted Disconnected, got {other:?}"),
        }
    }
    // Death during the payload.
    for cut in 4..buf.len() {
        let mut cursor = &buf[..cut];
        match read_frame(&mut cursor) {
            Err(WireError::Disconnected { context }) => assert_eq!(context, "frame payload"),
            other => panic!("cut {cut}: wanted Disconnected, got {other:?}"),
        }
    }
}

#[test]
fn errors_render_for_operators() {
    let e = DecodeError::Oversized {
        len: 2 << 20,
        max: MAX_PAYLOAD,
    };
    assert!(e.to_string().contains("exceeds"));
    assert!(WireError::from(e).to_string().contains("decode"));
    assert!(WireError::Disconnected {
        context: "length prefix"
    }
    .to_string()
    .contains("length prefix"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics the decoder — it either parses
    /// or yields a typed error.
    #[test]
    fn decode_is_total_on_random_bytes(
        payload in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
    ) {
        let _ = decode(&payload);
    }

    /// Arbitrary byte soup never panics the stream reader either, and a
    /// decoded frame re-encodes to the bytes that produced it.
    #[test]
    fn read_frame_is_total_and_reencodable(
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..128),
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut cursor = &wire[..];
        if let Ok(Some(frame)) = read_frame(&mut cursor) {
            let re = encode(&frame).expect("decoded frames re-encode");
            prop_assert_eq!(&re[..], &wire[..], "decode/encode must be inverse");
        }
    }

    /// Random well-formed QUERY frames round-trip with bit-exact geometry.
    #[test]
    fn random_queries_round_trip(
        coords in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..8)
    ) {
        let regions: Vec<QueryRegion> = coords
            .iter()
            .map(|&(a, b, c, d, e, f)| QueryRegion {
                region: Rect2 {
                    lo: Point2::new([f64::from_bits(a), f64::from_bits(b)]),
                    hi: Point2::new([f64::from_bits(c), f64::from_bits(d)]),
                },
                band: ResolutionBand {
                    w_min: f64::from_bits(e),
                    w_max: f64::from_bits(f),
                },
            })
            .collect();
        let frame = Frame::Query { regions: regions.clone() };
        let buf = encode(&frame).expect("small");
        let back = decode(&buf[4..]).expect("round trip");
        let Frame::Query { regions: got } = back else {
            return Err(TestCaseError::Fail("not a QUERY".into()));
        };
        prop_assert_eq!(got.len(), regions.len());
        for (g, w) in got.iter().zip(&regions) {
            for dim in 0..2 {
                prop_assert_eq!(g.region.lo[dim].to_bits(), w.region.lo[dim].to_bits());
                prop_assert_eq!(g.region.hi[dim].to_bits(), w.region.hi[dim].to_bits());
            }
            prop_assert_eq!(g.band.w_min.to_bits(), w.band.w_min.to_bits());
            prop_assert_eq!(g.band.w_max.to_bits(), w.band.w_max.to_bits());
        }
    }
}
