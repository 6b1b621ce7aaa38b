//! Spans recorded from outside the program, around calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request}`. Every span feeds
//! a per-name total (what the per-layer metrics are computed from); the
//! first [`KEEP`] spans are also kept in a buffer allocated up front and
//! written to `out/trace-<workload>.jsonl` when the run ends, so the span
//! file has a fixed size and recording never allocates.

use std::io::Write;
use std::time::Instant;

/// What a span is around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Request,
    Plan,
    EncodeQuery,
    DecodeQuery,
    ServerQuery,
    Descent,
    EncodeResult,
    DecodeResult,
    Connect,
    Disconnect,
    Handshake,
}

impl Name {
    const COUNT: usize = Name::Handshake as usize + 1;

    /// The layer (crate.module) and the call, as the span file spells it.
    fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Plan => "core.retrieval.plan",
            Name::EncodeQuery => "served.codec.encode_query",
            Name::DecodeQuery => "served.codec.decode_query",
            Name::ServerQuery => "core.server.query",
            Name::Descent => "core.index.descent",
            Name::EncodeResult => "served.codec.encode_result",
            Name::DecodeResult => "served.codec.decode_result",
            Name::Connect => "core.server.connect",
            Name::Disconnect => "core.server.disconnect",
            Name::Handshake => "served.client.handshake",
        }
    }
}

/// Spans kept verbatim for the span file.
pub const KEEP: usize = 200_000;
/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

#[derive(Clone, Copy, Default)]
struct Total {
    count: u64,
    ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    kept: Vec<Span>,
    next_id: u32,
    totals: [Total; Name::COUNT],
}

impl Tracer {
    /// A tracer that keeps the first `keep` spans verbatim (0 for the
    /// untraced passes, which only borrow its clock).
    pub fn new(keep: usize) -> Self {
        Self {
            epoch: Instant::now(),
            kept: Vec::with_capacity(keep),
            next_id: 0,
            totals: [Total::default(); Name::COUNT],
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        name: Name,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        let id = self.reserve();
        self.fill(id, name, start_ns, end_ns, parent, request);
        id
    }

    /// Takes the next span id before the span has ended, so that children
    /// recorded while it is open can name it as their parent.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if self.kept.len() < self.kept.capacity() {
            self.kept.push(Span {
                name: Name::Request,
                start_ns: 0,
                end_ns: 0,
                parent: NO_PARENT,
                request: 0,
            });
        }
        id
    }

    /// Closes a reserved span.
    pub fn fill(
        &mut self,
        id: u32,
        name: Name,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) {
        let total = &mut self.totals[name as usize];
        total.count += 1;
        total.ns += end_ns - start_ns;
        if let Some(slot) = self.kept.get_mut(id as usize) {
            *slot = Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            };
        }
    }

    /// Spans recorded, kept or not.
    pub fn spans(&self) -> u32 {
        self.next_id
    }

    /// Mean duration of `name` spans in nanoseconds (0 when none ran).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let t = self.totals[name as usize];
        if t.count == 0 {
            0.0
        } else {
            t.ns as f64 / t.count as f64
        }
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.kept.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
            if s.parent == NO_PARENT {
                write!(w, "null")?;
            } else {
                write!(w, "{}", s.parent)?;
            }
            writeln!(w, ",\"request\":{}}}", s.request)?;
        }
        w.flush()
    }
}
