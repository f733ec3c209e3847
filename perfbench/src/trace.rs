//! Span recording at the layer boundaries.
//!
//! A [`Recorder`] brackets a call into one layer. [`NoTrace`] runs the
//! call and nothing else; [`Tracer`] also records a span (layer, start,
//! end, parent, op id) into a buffer sized before the run, keeps per-layer
//! self time and call counts, and points the counting allocator at the
//! innermost open span. The two recorders have the same size, so every
//! struct and closure that holds one allocates the same bytes in both
//! modes and the traced run's allocation counts equal the untraced run's.

use crate::alloc;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The layers a span can be charged to, named after the modules they time.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LayerId {
    /// The load generator and the socket glue.
    App = 0,
    /// The drive loop, including host episodes.
    Driver = 1,
    /// `SimNet::advance_to` / `next_delivery`.
    Simnet = 2,
    /// `foxtcp::Tcp` / `xktcp::XkTcp`.
    Tcp = 3,
    /// `foxproto::ip`.
    Ip = 4,
    /// `foxproto::eth`.
    Eth = 5,
    /// `foxproto::dev`, including the simnet `Port` transmit.
    Dev = 6,
}

/// Number of layers.
pub const NLAYERS: usize = 7;

/// Every layer, in index order.
pub const LAYERS: [LayerId; NLAYERS] =
    [LayerId::App, LayerId::Driver, LayerId::Simnet, LayerId::Tcp, LayerId::Ip, LayerId::Eth, LayerId::Dev];

impl LayerId {
    /// The metric name of the layer.
    pub fn name(self) -> &'static str {
        ["app", "driver", "simnet", "tcp", "ip", "eth", "dev"][self as usize]
    }
}

/// Brackets calls into a layer.
pub trait Recorder: Clone + 'static {
    /// Runs `f` as a call into `layer`.
    fn span<T>(&self, layer: LayerId, f: impl FnOnce() -> T) -> T;
}

/// The recorder of the timed run: calls straight through. It carries the
/// cell index only to be the same size as [`Tracer`].
#[derive(Copy, Clone, Debug)]
pub struct NoTrace(#[allow(dead_code)] pub usize);

impl Recorder for NoTrace {
    #[inline(always)]
    fn span<T>(&self, _layer: LayerId, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// One recorded span.
#[derive(Copy, Clone, Debug)]
struct SpanRec {
    layer: LayerId,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

const NO_SPAN: u32 = u32::MAX;
const MAX_DEPTH: usize = 32;

#[derive(Copy, Clone)]
struct Open {
    layer: LayerId,
    start_ns: u64,
    child_ns: u64,
    rec: u32,
    prev_slot: usize,
}

/// Self time and calls per layer, cumulative.
#[derive(Copy, Clone, Debug, Default)]
pub struct LayerTotals {
    /// Nanoseconds spent in each layer minus its child spans.
    pub self_ns: [u64; NLAYERS],
    /// Spans closed per layer.
    pub calls: [u64; NLAYERS],
}

impl LayerTotals {
    /// Totals since `earlier`.
    pub fn since(&self, earlier: &LayerTotals) -> LayerTotals {
        let mut d = LayerTotals::default();
        for l in 0..NLAYERS {
            d.self_ns[l] = self.self_ns[l] - earlier.self_ns[l];
            d.calls[l] = self.calls[l] - earlier.calls[l];
        }
        d
    }
}

/// The state behind a [`Tracer`].
pub struct TraceState {
    cell: usize,
    epoch: Instant,
    stack: RefCell<([Open; MAX_DEPTH], usize)>,
    spans: RefCell<Vec<SpanRec>>,
    totals: RefCell<LayerTotals>,
    op: Cell<u64>,
    keep: Cell<bool>,
}

/// The recorder of the traced run.
#[derive(Clone)]
pub struct Tracer(Rc<TraceState>);

impl Tracer {
    /// A tracer for `cell` that keeps at most `capacity` spans. All its
    /// memory is allocated here, outside every cell.
    pub fn new(cell: usize, capacity: usize) -> Tracer {
        let idle = Open { layer: LayerId::App, start_ns: 0, child_ns: 0, rec: NO_SPAN, prev_slot: 0 };
        Tracer(Rc::new(TraceState {
            cell,
            epoch: Instant::now(),
            stack: RefCell::new(([idle; MAX_DEPTH], 0)),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            totals: RefCell::new(LayerTotals::default()),
            op: Cell::new(0),
            keep: Cell::new(false),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    /// Starts keeping spans (until the buffer is full).
    pub fn keep_spans(&self) {
        self.0.keep.set(true);
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&self, op: u64) {
        self.0.op.set(op);
    }

    /// Cumulative per-layer totals.
    pub fn totals(&self) -> LayerTotals {
        *self.0.totals.borrow()
    }

    /// Appends the kept spans to `out` as Chrome-trace events of process
    /// `pid` (named `process`), comma-separated.
    pub fn chrome_events(&self, pid: usize, process: &str, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, s) in self.0.spans.borrow().iter().enumerate() {
            if s.end_ns < s.start_ns {
                continue; // still open when the run ended
            }
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{process}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
    }
}

impl Recorder for Tracer {
    fn span<T>(&self, layer: LayerId, f: impl FnOnce() -> T) -> T {
        let st = &*self.0;
        let start_ns = self.now_ns();
        {
            let (stack, depth) = &mut *st.stack.borrow_mut();
            assert!(*depth < MAX_DEPTH, "span nesting deeper than {MAX_DEPTH}");
            let parent = if *depth > 0 { stack[*depth - 1].rec } else { NO_SPAN };
            let mut spans = st.spans.borrow_mut();
            let rec = if st.keep.get() && spans.len() < spans.capacity() {
                spans.push(SpanRec { layer, start_ns, end_ns: 0, parent, op: st.op.get() });
                (spans.len() - 1) as u32
            } else {
                NO_SPAN
            };
            let prev_slot = alloc::enter_slot(alloc::slot(st.cell, layer));
            stack[*depth] = Open { layer, start_ns, child_ns: 0, rec, prev_slot };
            *depth += 1;
        }
        let out = f();
        let end_ns = self.now_ns();
        let (stack, depth) = &mut *st.stack.borrow_mut();
        *depth -= 1;
        let open = stack[*depth];
        alloc::enter_slot(open.prev_slot);
        let dur = end_ns - open.start_ns;
        if *depth > 0 {
            stack[*depth - 1].child_ns += dur;
        }
        let mut totals = st.totals.borrow_mut();
        totals.self_ns[open.layer as usize] += dur.saturating_sub(open.child_ns);
        totals.calls[open.layer as usize] += 1;
        if open.rec != NO_SPAN {
            st.spans.borrow_mut()[open.rec as usize].end_ns = end_ns;
        }
        out
    }
}
