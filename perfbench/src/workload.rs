//! The workloads: closed loops with one client, run op by op on a cell.

use crate::alloc::{self, AllocSnap};
use crate::pair::Pair;
use crate::stack::{BenchStation, Counters};
use crate::trace::{LayerId, LayerTotals, Recorder, Tracer};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::bench::BenchProfile;
use foxharness::ConnHandle;
use std::collections::VecDeque;
use std::time::Instant;

/// The port every server listens on.
const PORT: u16 = 2000;
/// Bytes one bulk op delivers to the receiving app.
const CHUNK: u64 = 32 * 1024;
/// Largest piece the bulk sender hands to one `send` call.
const SEND_PIECE: usize = 16 * 1024;
/// Request and reply size of rpc and churn.
const MSG: usize = 64;
/// Virtual time an op may take before it counts as failed.
const OP_DEADLINE: VirtualDuration = VirtualDuration::from_secs(30);
/// Virtual time past its earliest end by which a TIME-WAIT TCB must be gone.
const REAP_SLACK: VirtualDuration = VirtualDuration::from_secs(5);

/// One of the benchmark's workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One-way transfer; an op is 32 KiB delivered to the receiving app.
    Bulk,
    /// An op is one 64 B request and its 64 B echo.
    Rpc,
    /// An op is one whole connection lifecycle.
    Churn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "bulk" => Some(Workload::Bulk),
            "rpc" => Some(Workload::Rpc),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Rpc => "rpc",
            Workload::Churn => "churn",
        }
    }

    /// The machine-and-link era the workload runs under.
    pub fn profile(self) -> BenchProfile {
        match self {
            Workload::Bulk | Workload::Rpc => BenchProfile::Modern,
            Workload::Churn => BenchProfile::Paper1994,
        }
    }

    /// Ops a cell runs before the run loop moves to the next cell.
    pub fn slice_ops(self) -> usize {
        match self {
            // The window-limited sender puts a whole window (8 ops'
            // worth) on the wire in one step, so one op in eight carries
            // that burst; a 16-op slice always holds about two of them.
            Workload::Bulk => 16,
            Workload::Rpc => 100,
            Workload::Churn => 4,
        }
    }

    /// Leading timed ops over which the exact metrics are counted.
    pub fn window_ops(self) -> usize {
        match self {
            Workload::Bulk => 256,
            Workload::Rpc => 2000,
            Workload::Churn => 500,
        }
    }

    /// Untimed warm-up ops for bulk and rpc. Churn warms up until its
    /// TIME-WAIT population has plateaued instead.
    fn warmup_ops(self) -> u64 {
        match self {
            Workload::Bulk => 64,
            Workload::Rpc => 2000,
            Workload::Churn => 0,
        }
    }
}

/// The seeded byte stream every payload is cut from: byte `i` of the
/// stream is `bytes[i % PERIOD]`, and `bytes` repeats its head so that
/// any piece of up to `SEND_PIECE` bytes is one contiguous slice.
pub struct Pattern {
    bytes: Vec<u8>,
}

const PERIOD: usize = 65_521; // prime, so 32 KiB ops never line up with it

impl Pattern {
    /// The stream of `seed` (splitmix64).
    pub fn new(seed: u64) -> Pattern {
        let mut x = seed;
        let mut bytes: Vec<u8> = (0..PERIOD)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        bytes.extend_from_within(..SEND_PIECE);
        Pattern { bytes }
    }

    /// `len` (at most `SEND_PIECE`) stream bytes from offset `off`.
    pub fn at(&self, off: u64, len: usize) -> &[u8] {
        let start = (off % PERIOD as u64) as usize;
        &self.bytes[start..start + len]
    }

    /// Whether `data` equals the stream from offset `off`.
    pub fn matches(&self, mut off: u64, mut data: &[u8]) -> bool {
        while !data.is_empty() {
            let n = data.len().min(SEND_PIECE);
            if data[..n] != *self.at(off, n) {
                return false;
            }
            off += n as u64;
            data = &data[n..];
        }
        true
    }
}

/// Per-connection state of the load generator.
struct App {
    w: Workload,
    pat: Pattern,
    cconn: ConnHandle,
    sconn: ConnHandle,
    /// Ops started, warm-up included; numbers the payloads.
    op: u64,
    /// Bulk: stream bytes the sender app handed over / the receiver read.
    produced: u64,
    consumed: u64,
    /// Churn: closed server connections with the instant they closed.
    time_wait: VecDeque<(ConnHandle, VirtualTime)>,
    tw_hold: VirtualDuration,
    prev_client: Option<ConnHandle>,
    /// A delivered byte differed from the seeded payload.
    bad_data: bool,
    /// A TCB outlived the state that should have released it.
    unreaped: bool,
}

/// Exact metrics of one cell, counted over its window of timed ops.
#[derive(Debug)]
pub struct Exact {
    /// Allocations and bytes per layer.
    pub allocs: AllocSnap,
    /// Peak live heap of the cell, bytes.
    pub heap_peak: i64,
    /// Median virtual op latency, µs.
    pub virtual_p50_us: u64,
    /// Stack counters, both stations.
    pub counters: Counters,
    /// Drive-loop clock advances.
    pub ticks: u64,
    /// TCBs alive at the window's end.
    pub tcbs_live: u64,
}

impl Exact {
    /// Equal counts, whichever layers the allocations were credited to:
    /// an untraced cell credits all of them to its app layer.
    pub fn same_counts(&self, o: &Exact) -> bool {
        let bytes = |e: &Exact| e.allocs.bytes.iter().sum::<u64>();
        self.allocs.total_allocs() == o.allocs.total_allocs()
            && bytes(self) == bytes(o)
            && (self.heap_peak, self.virtual_p50_us, self.counters, self.ticks, self.tcbs_live)
                == (o.heap_peak, o.virtual_p50_us, o.counters, o.ticks, o.tcbs_live)
    }
}

/// Wall-clock results of a cell's timed phase.
pub struct Timed {
    /// Per-op wall time, ns.
    pub lat_ns: Vec<u32>,
    /// Per slice: timed ops and their wall time, ns.
    pub slices: Vec<(u32, u64)>,
    /// Every op of the timed phase, the untimed first op of each slice
    /// included, and their wall time, ns: what the spans cover.
    pub phase_ops: u64,
    pub phase_ns: u64,
    /// Layer totals over the timed phase (traced cells only).
    pub layers: Option<LayerTotals>,
}

/// What the run loop drives: one cell, type-erased.
pub trait Runner {
    /// The stack under test.
    fn stack(&self) -> &'static str;
    /// Handshake and warm-up; returns a fingerprint of the state reached.
    fn setup(&mut self) -> Result<(VirtualTime, Counters), String>;
    /// Runs `k` timed ops.
    fn slice(&mut self, k: usize);
    /// Timed ops run so far.
    fn timed_ops(&self) -> u64;
    /// Whether an op failed (the cell stops).
    fn dead(&self) -> bool;
    /// Ops attempted and failed, warm-up included.
    fn attempts(&self) -> (u64, u64);
    /// Exact metrics, once the window is complete.
    fn exact(&self) -> Option<&Exact>;
    /// The timed-phase results.
    fn timed(&mut self) -> Timed;
    /// Correctness problems seen, empty when none.
    fn problems(&self) -> Vec<String>;
    /// The tracer of a traced cell.
    fn tracer(&self) -> Option<&Tracer>;
    /// Sizes the timing buffers for `ops` timed ops. Called outside the
    /// cell's allocation slot: they are the benchmark's, not the stack's.
    fn reserve(&mut self, ops: usize);
}

/// A stack pair running a workload.
pub struct Cell<C, S, R> {
    stack: &'static str,
    idx: usize,
    pair: Pair<C, S, R>,
    app: App,
    tracer: Option<Tracer>,
    attempted: u64,
    failed: u64,
    lat_ns: Vec<u32>,
    slices: Vec<(u32, u64)>,
    phase_ops: u64,
    phase_ns: u64,
    window_virt_us: Vec<u64>,
    window_start: Option<(AllocSnap, Counters, u64)>,
    layers_start: Option<LayerTotals>,
    exact: Option<Exact>,
}

impl<C: BenchStation, S: BenchStation, R: Recorder> Cell<C, S, R> {
    /// A cell of `stack` at allocation index `idx`.
    pub fn new(
        stack: &'static str,
        idx: usize,
        w: Workload,
        seed: u64,
        pair: Pair<C, S, R>,
        tracer: Option<Tracer>,
    ) -> Self {
        let tw_hold = VirtualDuration::from_millis(w.profile().tcp_config().time_wait_ms);
        Cell {
            stack,
            idx,
            pair,
            app: App {
                w,
                pat: Pattern::new(seed),
                cconn: 0,
                sconn: 0,
                op: 0,
                produced: 0,
                consumed: 0,
                time_wait: VecDeque::with_capacity(4096),
                tw_hold,
                prev_client: None,
                bad_data: false,
                unreaped: false,
            },
            tracer,
            attempted: 0,
            failed: 0,
            lat_ns: Vec::new(),
            slices: Vec::new(),
            phase_ops: 0,
            phase_ns: 0,
            window_virt_us: Vec::with_capacity(w.window_ops()),
            window_start: None,
            layers_start: None,
            exact: None,
        }
    }

    fn deadline(&self) -> VirtualTime {
        self.pair.net.now() + OP_DEADLINE
    }

    /// Runs one op; false if it failed.
    fn op(&mut self) -> bool {
        self.attempted += 1;
        self.app.op += 1;
        if let Some(t) = &self.tracer {
            t.set_op(self.app.op);
        }
        let rec = self.pair.rec.clone();
        let ok = rec.span(LayerId::App, || match self.app.w {
            Workload::Bulk => self.bulk_op(),
            Workload::Rpc => self.rpc_op(),
            Workload::Churn => self.churn_op(),
        });
        if !ok {
            self.failed += 1;
        }
        ok
    }

    fn connect_pair(&mut self) -> bool {
        let c = self.pair.client.connect(PORT);
        let mut s = None;
        let deadline = self.deadline();
        let ok = self.pair.drive(
            |cl, sv, _| {
                if s.is_none() {
                    s = sv.accept();
                }
                s.is_some() && cl.established(c)
            },
            deadline,
        );
        self.app.cconn = c;
        self.app.sconn = s.unwrap_or(0);
        ok
    }

    fn bulk_op(&mut self) -> bool {
        let deadline = self.deadline();
        let App { pat, cconn, sconn, produced, consumed, bad_data, .. } = &mut self.app;
        let (c, s) = (*cconn, *sconn);
        let target = (*consumed / CHUNK + 1) * CHUNK;
        self.pair.drive(
            |cl, sv, _| {
                // Sender app: keep the send buffer full.
                loop {
                    let n = sv.send(s, pat.at(*produced, SEND_PIECE));
                    *produced += n as u64;
                    if n < SEND_PIECE {
                        break;
                    }
                }
                // Receiver app: check and discard what arrived.
                cl.drain(c, &mut |d| {
                    *bad_data |= !pat.matches(*consumed, d);
                    *consumed += d.len() as u64;
                });
                *consumed >= target
            },
            deadline,
        )
    }

    fn rpc_op(&mut self) -> bool {
        let deadline = self.deadline();
        let App { pat, cconn, sconn, op, bad_data, .. } = &mut self.app;
        let (c, s) = (*cconn, *sconn);
        let req = pat.at(*op * MSG as u64, MSG);
        if self.pair.client.send(c, req) != MSG {
            return false;
        }
        let (mut srv, mut srv_n) = ([0u8; MSG], 0usize);
        let (mut cli, mut cli_n) = ([0u8; MSG], 0usize);
        let ok = self.pair.drive(
            |cl, sv, _| {
                // Server app: echo each whole request.
                sv.drain(s, &mut |d| gather(&mut srv, &mut srv_n, d, bad_data));
                if srv_n == MSG {
                    srv_n = 0;
                    *bad_data |= sv.send(s, &srv) != MSG;
                }
                cl.drain(c, &mut |d| gather(&mut cli, &mut cli_n, d, bad_data));
                cli_n == MSG
            },
            deadline,
        );
        *bad_data |= ok && cli != *req;
        ok
    }

    fn churn_op(&mut self) -> bool {
        let deadline = self.deadline();
        let now = self.pair.net.now();
        let Pair { client, server, .. } = &mut self.pair;
        let app = &mut self.app;
        // The last op's client reached CLOSED, so the stack has reaped it.
        if let Some(p) = app.prev_client.take() {
            app.unreaped |= client.alive(p);
        }
        while app.time_wait.front().is_some_and(|&(sc, _)| !server.alive(sc)) {
            app.time_wait.pop_front();
        }
        if let Some(&(_, closed)) = app.time_wait.front() {
            app.unreaped |= now > closed + app.tw_hold + REAP_SLACK;
        }
        let c = client.connect(PORT);
        let App { pat, op, bad_data, time_wait, .. } = app;
        let req = pat.at(*op * MSG as u64, MSG);
        let (mut sent, mut sconn, mut replied, mut closed) = (false, None, false, false);
        let (mut srv, mut srv_n) = ([0u8; MSG], 0usize);
        let (mut cli, mut cli_n) = ([0u8; MSG], 0usize);
        let ok = self.pair.drive(
            |cl, sv, now| {
                if !sent && cl.established(c) {
                    *bad_data |= cl.send(c, req) != MSG;
                    sent = true;
                }
                if sconn.is_none() {
                    sconn = sv.accept();
                }
                if let (Some(sc), false) = (sconn, replied) {
                    sv.drain(sc, &mut |d| gather(&mut srv, &mut srv_n, d, bad_data));
                    if srv_n == MSG {
                        // Server app: reply, then close first.
                        *bad_data |= srv != *req || sv.send(sc, &srv) != MSG;
                        sv.close(sc);
                        sv.forget(sc);
                        time_wait.push_back((sc, now));
                        replied = true;
                    }
                }
                if !closed {
                    cl.drain(c, &mut |d| gather(&mut cli, &mut cli_n, d, bad_data));
                    if cli_n == MSG && cl.peer_closed(c) {
                        *bad_data |= cli != *req;
                        cl.close(c);
                        closed = true;
                    }
                }
                closed && cl.finished(c)
            },
            deadline,
        );
        self.pair.client.forget(c);
        self.app.prev_client = Some(c);
        ok
    }

    fn tcbs_live(&self) -> u64 {
        let app = &self.app;
        match app.w {
            Workload::Bulk | Workload::Rpc => {
                u64::from(self.pair.client.alive(app.cconn)) + u64::from(self.pair.server.alive(app.sconn))
            }
            Workload::Churn => {
                app.time_wait.iter().filter(|&&(sc, _)| self.pair.server.alive(sc)).count() as u64
            }
        }
    }

    fn counters(&self) -> Counters {
        self.pair.client.counters().plus(&self.pair.server.counters())
    }

    fn start_window(&mut self) {
        alloc::reset_peak(self.idx);
        self.window_start = Some((AllocSnap::of(self.idx), self.counters(), self.pair.ticks));
        self.layers_start = self.tracer.as_ref().map(|t| t.totals());
        if let Some(t) = &self.tracer {
            t.keep_spans();
        }
    }

    fn end_window(&mut self) {
        let Some((a0, c0, t0)) = self.window_start else { return };
        let allocs = AllocSnap::of(self.idx).since(&a0);
        let heap_peak = alloc::peak(self.idx);
        let mut v = std::mem::take(&mut self.window_virt_us);
        v.sort_unstable();
        self.exact = Some(Exact {
            allocs,
            heap_peak,
            virtual_p50_us: v[v.len() / 2],
            counters: self.counters().since(&c0),
            ticks: self.pair.ticks - t0,
            tcbs_live: self.tcbs_live(),
        });
    }
}

/// Appends `d` to the `MSG`-byte buffer `buf`; more than `MSG` bytes is
/// a protocol error of the workload.
fn gather(buf: &mut [u8; MSG], n: &mut usize, d: &[u8], bad: &mut bool) {
    let take = d.len().min(MSG - *n);
    buf[*n..*n + take].copy_from_slice(&d[..take]);
    *n += take;
    *bad |= take < d.len();
}

impl<C: BenchStation, S: BenchStation, R: Recorder> Runner for Cell<C, S, R> {
    fn stack(&self) -> &'static str {
        self.stack
    }

    fn setup(&mut self) -> Result<(VirtualTime, Counters), String> {
        let idx = self.idx;
        alloc::in_cell(idx, || {
            self.pair.server.listen(PORT);
            if self.app.w != Workload::Churn && !self.connect_pair() {
                return Err(format!("{}: handshake did not complete", self.stack));
            }
            if self.app.w == Workload::Churn {
                // Warm up until the TIME-WAIT population has plateaued:
                // past one whole hold time, reaping keeps pace with opens.
                let start = self.pair.net.now();
                let until = self.app.tw_hold + VirtualDuration::from_secs(1);
                while self.pair.net.now().saturating_since(start) < until {
                    if !self.op() {
                        return Err(format!("{}: churn warm-up op failed", self.stack));
                    }
                }
            }
            for _ in 0..self.app.w.warmup_ops() {
                if !self.op() {
                    return Err(format!("{}: warm-up op failed", self.stack));
                }
            }
            Ok((self.pair.net.now(), self.counters()))
        })
    }

    fn slice(&mut self, k: usize) {
        if self.dead() {
            return;
        }
        alloc::enter_slot(alloc::slot(self.idx, LayerId::App));
        if self.window_start.is_none() {
            self.start_window();
        }
        let window = self.app.w.window_ops();
        let first = self.lat_ns.len();
        // The first op after a switch from another cell or the reference
        // kernel runs on cold caches: it is run, counted and traced like
        // any other, but not timed.
        let start = Instant::now();
        let (mut t0, mut prev) = (start, start);
        for i in 0..k {
            let v0 = self.pair.net.now();
            if !self.op() {
                break;
            }
            let t = Instant::now();
            if i == 0 {
                t0 = t;
            } else {
                self.lat_ns.push((t - prev).as_nanos().min(u128::from(u32::MAX)) as u32);
            }
            prev = t;
            self.phase_ops += 1;
            if self.exact.is_none() {
                self.window_virt_us.push(self.pair.net.now().saturating_since(v0).as_micros());
                if self.window_virt_us.len() == window {
                    self.end_window();
                }
            }
        }
        self.phase_ns += (prev - start).as_nanos() as u64;
        let done = self.lat_ns.len() - first;
        if done > 0 {
            self.slices.push((done as u32, (prev - t0).as_nanos() as u64));
        }
        alloc::leave_cells();
    }

    fn timed_ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    fn dead(&self) -> bool {
        self.failed > 0
    }

    fn attempts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn exact(&self) -> Option<&Exact> {
        self.exact.as_ref()
    }

    fn timed(&mut self) -> Timed {
        Timed {
            lat_ns: std::mem::take(&mut self.lat_ns),
            slices: std::mem::take(&mut self.slices),
            phase_ops: self.phase_ops,
            phase_ns: self.phase_ns,
            layers: match (&self.tracer, &self.layers_start) {
                (Some(t), Some(l0)) => Some(t.totals().since(l0)),
                _ => None,
            },
        }
    }

    fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        let s = self.stack;
        if self.app.bad_data {
            p.push(format!("{s}: delivered bytes differ from the seeded payload"));
        }
        if self.app.unreaped {
            p.push(format!("{s}: a TCB was not reaped after CLOSED / TIME-WAIT"));
        }
        let c = self.counters();
        if c.csum_fail != 0 || c.retx != 0 {
            p.push(format!("{s}: clean link saw {} checksum failures, {} retransmits", c.csum_fail, c.retx));
        }
        if self.failed != 0 {
            p.push(format!("{s}: {} ops missed their deadline", self.failed));
        }
        p
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn reserve(&mut self, ops: usize) {
        self.lat_ns.reserve(ops);
        self.slices.reserve(ops / self.app.w.slice_ops() + 16);
    }
}
