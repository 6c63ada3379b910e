//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the program, around each call into a
//! layer. They nest by call order: a span opened while another is open
//! is its child, and a span's self time is its duration minus the time
//! its children cover. Nothing is written until the run ends.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Block field of a span that belongs to no code block.
pub const NO_BLOCK: u32 = u32::MAX;

/// Which layer call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole transfer through the traced loop.
    Transfer,
    /// `SpinalSender::new`: framing and per-block encoders.
    SenderNew,
    /// `SpinalSender::poll`.
    SenderPoll,
    /// `SpinalSender::drain_feedback`.
    SenderDrain,
    /// `SpinalReceiver::new`.
    ReceiverNew,
    /// `SpinalReceiver::handle` on an Init datagram.
    ReceiverInit,
    /// `SpinalReceiver::handle` during which a decode attempt ran.
    Attempt,
    /// Any other `SpinalReceiver::handle`.
    Ingest,
    /// `SpinalReceiver::feedback`.
    Feedback,
    /// Reading the delivered payload out of the receiver.
    Deliver,
    /// `Datagram::send` on a loopback endpoint.
    LinkSend,
    /// `Datagram::recv` on a loopback endpoint.
    LinkRecv,
    /// `Packet::decode`.
    WireDecode,
    /// `Packet::encode`.
    WireEncode,
    /// `DecodeService::open_session`.
    Open,
    /// `Session::submit`.
    Submit,
    /// `Session::try_result`.
    TryResult,
    /// `Session::wait_timeout`: the generator blocked on a session.
    Wait,
    /// The generator encoding a pass and pushing it through the channel.
    Generate,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Transfer or session id.
    pub id: u64,
    pub block: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the top level.
    pub parent: u32,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, kind: Kind, id: u64, block: u32) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().map_or(u32::MAX, |&p| p as u32);
        self.spans.push(Span {
            kind,
            id,
            block,
            start_ns: self.now_ns(),
            dur_ns: 0,
            child_ns: 0,
            parent,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one), relabelling it `kind`.
    pub fn end_as(&mut self, idx: usize, kind: Kind) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.kind = kind;
        span.dur_ns = end - span.start_ns;
        let dur = span.dur_ns;
        if let Some(&parent) = self.open.last() {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "kind\tid\tblock\tstart_ns\tdur_ns\tself_ns\tparent")?;
        for s in &self.spans {
            let block = if s.block == NO_BLOCK {
                "-".to_string()
            } else {
                s.block.to_string()
            };
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{:?}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind,
                s.id,
                block,
                s.start_ns,
                s.dur_ns,
                s.self_ns(),
                parent
            )?;
        }
        out.flush()
    }

    pub fn totals(&self, kind: Kind) -> KindTotals {
        let mut t = KindTotals::default();
        for s in self.spans.iter().filter(|s| s.kind == kind) {
            t.count += 1;
            t.dur_ns += s.dur_ns;
            t.self_ns += s.self_ns();
        }
        t
    }

    /// Durations of every span of `kind`, in microseconds.
    pub fn durations_us(&self, kind: Kind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }
}

/// Run `f` inside a span of `kind`; a no-op wrapper when tracing is off.
pub fn span<R>(
    tr: Option<&RefCell<Tracer>>,
    kind: Kind,
    id: u64,
    block: u32,
    f: impl FnOnce() -> R,
) -> R {
    let Some(tr) = tr else {
        return f();
    };
    let idx = tr.borrow_mut().begin(kind, id, block);
    let out = f();
    tr.borrow_mut().end_as(idx, kind);
    out
}

/// Sums over the recorded spans of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}
