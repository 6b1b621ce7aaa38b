//! The buffered half of the codec (DESIGN.md §12.1): `encode_into` must
//! be `encode` minus the allocation, and [`FrameReader`] must yield — on
//! any bytes, however the transport chunks them — exactly the frames and
//! typed errors the unbuffered [`read_frame_len`] yields, without ever
//! buffering more than one maximal frame.

use mar_core::QueryRegion;
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_served::codec::READ_CHUNK;
use mar_served::{
    encode, encode_into, encode_query_into, read_frame_len, DecodeError, Frame, FrameReader,
    WireError, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use std::io::Read;

fn region(x: f64) -> QueryRegion {
    QueryRegion {
        region: Rect2 {
            lo: Point2::new([x, -1.0]),
            hi: Point2::new([x + 2.5, 1.0]),
        },
        band: ResolutionBand {
            w_min: 0.25,
            w_max: 1.0,
        },
    }
}

/// One frame of every opcode.
fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        Frame::Welcome {
            session: 7,
            token: 0xfeed_beef,
        },
        Frame::Query {
            regions: vec![region(0.0), region(3.5)],
        },
        Frame::Query { regions: vec![] },
        Frame::Result {
            coeffs: 3,
            new_objects: 1,
            bytes: 1234.5,
            io: 17,
        },
        Frame::Resume { token: 99 },
        Frame::Resumed {
            session: 7,
            retained_coeffs: 40,
            retained_objects: 2,
        },
        Frame::Ack { bytes: 1234.5 },
        Frame::Overload {
            outstanding: 70_000.0,
            cap: 65_536.0,
        },
        Frame::Error {
            code: 3,
            detail: 11,
        },
        Frame::Bye,
    ]
}

#[test]
fn encode_into_appends_exactly_what_encode_returns() {
    let mut out = b"already queued".to_vec();
    let mut expected = out.clone();
    for frame in sample_frames() {
        let alone = encode(&frame).expect("sample frames are small");
        assert_eq!(
            alone.capacity(),
            alone.len(),
            "{}: sized up front",
            frame.name()
        );
        assert_eq!(
            encode_into(&frame, &mut out),
            Ok(alone.len()),
            "{}",
            frame.name()
        );
        expected.extend_from_slice(&alone);
        assert_eq!(out, expected, "{}", frame.name());
        if let Frame::Query { regions } = &frame {
            let mut direct = Vec::new();
            assert_eq!(encode_query_into(regions, &mut direct), Ok(alone.len()));
            assert_eq!(direct, alone, "the slice encoder is the QUERY arm");
        }
    }
}

#[test]
fn an_oversized_frame_leaves_the_buffer_untouched() {
    let regions = vec![region(0.0); MAX_PAYLOAD as usize / 48 + 1];
    let mut out = b"already queued".to_vec();
    for result in [
        encode_query_into(&regions, &mut out),
        encode_into(
            &Frame::Query {
                regions: regions.clone(),
            },
            &mut out,
        ),
        encode(&Frame::Query {
            regions: regions.clone(),
        })
        .map(|buf| buf.len()),
    ] {
        assert!(
            matches!(
                result,
                Err(DecodeError::Oversized {
                    max: MAX_PAYLOAD,
                    ..
                })
            ),
            "{result:?}"
        );
    }
    assert_eq!(out, b"already queued");
}

/// Delivers `bytes` in reads of the given sizes (cycled), then EOF.
struct Chunked<'a> {
    rest: &'a [u8],
    sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
}

impl<'a> Chunked<'a> {
    fn new(bytes: &'a [u8], sizes: &'a [usize]) -> Self {
        Self {
            rest: bytes,
            sizes: sizes.iter().cycle(),
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = *self.sizes.next().expect("cycle of a non-empty slice");
        let n = want.min(buf.len()).min(self.rest.len());
        let (head, tail) = self.rest.split_at(n);
        buf[..n].copy_from_slice(head);
        self.rest = tail;
        Ok(n)
    }
}

/// What a reader reported, in order. Frames are compared as their
/// canonical re-encoding (a decoded NaN is not `==` itself).
#[derive(Debug, PartialEq)]
enum Event {
    Frame(Vec<u8>, u64),
    Decode(DecodeError),
    Disconnected(&'static str),
    CleanClose,
}

/// After these the stream cannot be re-synchronised; both readers stop.
fn fatal(e: &DecodeError) -> bool {
    matches!(e, DecodeError::EmptyPayload | DecodeError::Oversized { .. })
}

fn frame_event(frame: &Frame, wire: u64) -> Event {
    Event::Frame(encode(frame).expect("a decoded frame re-encodes"), wire)
}

fn unbuffered(bytes: &[u8]) -> Vec<Event> {
    let mut cursor = bytes;
    let mut events = Vec::new();
    loop {
        match read_frame_len(&mut cursor) {
            Ok(Some((frame, wire))) => events.push(frame_event(&frame, wire)),
            Ok(None) => events.push(Event::CleanClose),
            Err(WireError::Decode(e)) => {
                let stop = fatal(&e);
                events.push(Event::Decode(e));
                if !stop {
                    continue;
                }
            }
            Err(WireError::Disconnected { context }) => events.push(Event::Disconnected(context)),
            Err(WireError::Io(e)) => panic!("a slice cannot fail: {e}"),
        }
        if !matches!(events.last(), Some(Event::Frame(..))) {
            return events;
        }
    }
}

/// Drives a [`FrameReader`] the way both connection ends do; returns the
/// events and the largest buffer it ever held.
fn buffered(bytes: &[u8], sizes: &[usize]) -> (Vec<Event>, usize) {
    let mut source = Chunked::new(bytes, sizes);
    let mut reader = FrameReader::new();
    let mut events = Vec::new();
    let mut peak = 0;
    loop {
        match reader.next_frame() {
            Ok(Some((frame, wire))) => events.push(frame_event(&frame, wire)),
            Ok(None) => {
                let n = reader.fill(&mut source).expect("a slice cannot fail");
                peak = peak.max(reader.capacity());
                if n == 0 {
                    events.push(match reader.end_of_stream() {
                        Ok(()) => Event::CleanClose,
                        Err(WireError::Disconnected { context }) => Event::Disconnected(context),
                        Err(e) => panic!("end_of_stream only reports disconnects: {e}"),
                    });
                    return (events, peak);
                }
            }
            Err(e) => {
                let stop = fatal(&e);
                events.push(Event::Decode(e));
                if stop {
                    return (events, peak);
                }
            }
        }
    }
}

#[test]
fn a_hostile_prefix_costs_no_buffer_and_a_large_frame_grows_it_as_it_arrives() {
    // Four bytes claiming a maximal frame: nothing is allocated for the
    // claim, and the close mid-frame is typed.
    let claim = MAX_PAYLOAD.to_le_bytes();
    let (events, peak) = buffered(&claim, &[4]);
    assert_eq!(events, [Event::Disconnected("frame payload")]);
    assert_eq!(peak, READ_CHUNK);
    // One past the cap is refused from the prefix alone.
    let (events, peak) = buffered(&(MAX_PAYLOAD + 1).to_le_bytes(), &[4]);
    assert!(matches!(
        events[..],
        [Event::Decode(DecodeError::Oversized { .. })]
    ));
    assert_eq!(peak, READ_CHUNK);

    // The largest QUERY the cap admits, then a small frame behind it.
    let regions = vec![region(1.0); (MAX_PAYLOAD as usize - 5) / 48];
    let mut wire = encode(&Frame::Query { regions }).expect("just under the cap");
    assert!(wire.len() > MAX_PAYLOAD as usize - 48);
    wire.extend(encode(&Frame::Bye).expect("small"));
    let (events, peak) = buffered(&wire, &[3000, 70_000]);
    assert_eq!(events, unbuffered(&wire));
    assert_eq!(events.len(), 3, "QUERY, BYE, clean close");
    assert!(peak > READ_CHUNK && peak <= MAX_PAYLOAD as usize + READ_CHUNK);
}

/// A stretch of wire: well-formed frames, length-prefixed junk (unknown
/// opcodes, wrong body lengths), bare junk (desynchronises the stream),
/// and hostile prefixes.
fn stretch() -> impl Strategy<Value = Vec<u8>> {
    let byte = || (0u16..256).prop_map(|b| b as u8);
    prop_oneof![
        6 => (0usize..11).prop_map(|i| encode(&sample_frames()[i]).expect("small")),
        3 => prop::collection::vec(byte(), 1..64).prop_map(|body| {
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend(body);
            wire
        }),
        1 => prop::collection::vec(byte(), 1..12),
        1 => (0u32..3).prop_map(|i| [0, MAX_PAYLOAD + 1, u32::MAX][i as usize].to_le_bytes().to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes under arbitrary chunking: no panic, a bounded
    /// buffer, and the unbuffered reader's frames and errors exactly.
    #[test]
    fn frame_reader_agrees_with_read_frame_on_any_bytes_and_chunking(
        stretches in prop::collection::vec(stretch(), 0..16),
        sizes in prop::collection::vec(1usize..200, 1..8),
    ) {
        let wire = stretches.concat();
        let (events, peak) = buffered(&wire, &sizes);
        prop_assert_eq!(events, unbuffered(&wire));
        prop_assert!(peak <= MAX_PAYLOAD as usize + READ_CHUNK);
    }
}
