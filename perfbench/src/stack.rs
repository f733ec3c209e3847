//! The benchmark's own stack assembly: the same public constructors and
//! `BenchProfile` constants as `foxharness::stack`, with a [`Layer`] shim
//! between each pair of layers (tcp | ip | eth | dev), and stations that
//! implement `foxharness::Station` over them.

use crate::shim::Layer;
use crate::trace::{LayerId, Recorder};
use fox_scheduler::SchedHandle;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::bench::BenchProfile;
use foxharness::stack::{ip_of, mac_of, StackKind};
use foxharness::station::{ScaleCounters, StationStats};
use foxharness::{ConnHandle, Station};
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig};
use foxproto::{IpAuxImpl, Protocol};
use foxtcp::{ConnectingSocket, EstablishedSocket, ListeningSocket, Tcp, TcpConnId, TcpEvent};
use foxwire::ipv4::{IpProtocol, Ipv4Addr};
use simnet::{Host, HostHandle, SimNet};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use xktcp::{SockId, XkConfig, XkEvent, XkTcp};

type DevL<R> = Layer<Dev, R>;
type EthL<R> = Layer<Eth<DevL<R>>, R>;
type IpL<R> = Layer<Ip<EthL<R>>, R>;

/// Counters read from a station's public stats.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Segments put on the wire (both directions once summed over a pair).
    pub segs: u64,
    /// Retransmitted segments.
    pub retx: u64,
    /// Segments dropped for a bad checksum.
    pub csum_fail: u64,
    /// Timer-wheel operations.
    pub arms: u64,
    /// Timers cancelled.
    pub cancels: u64,
    /// Timers fired.
    pub fires: u64,
    /// Wheel cascades.
    pub cascades: u64,
    /// Demux lookups.
    pub lookups: u64,
    /// Demux candidates examined.
    pub steps: u64,
    /// Segments the fox fast path handled (zero for xk).
    pub fp_hits: u64,
    /// Segments that fell through to the full DAG (zero for xk).
    pub fp_misses: u64,
}

impl Counters {
    fn new(s: StationStats, w: ScaleCounters, fp_misses: u64) -> Counters {
        Counters {
            segs: s.segments_sent,
            retx: s.retransmits,
            csum_fail: s.checksum_failures,
            arms: w.timer_arms,
            cancels: w.timer_cancels,
            fires: w.timer_fires,
            cascades: w.timer_cascades,
            lookups: w.demux_lookups,
            steps: w.demux_steps,
            fp_hits: s.fastpath_hits,
            fp_misses,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise difference from `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            segs: f(self.segs, o.segs),
            retx: f(self.retx, o.retx),
            csum_fail: f(self.csum_fail, o.csum_fail),
            arms: f(self.arms, o.arms),
            cancels: f(self.cancels, o.cancels),
            fires: f(self.fires, o.fires),
            cascades: f(self.cascades, o.cascades),
            lookups: f(self.lookups, o.lookups),
            steps: f(self.steps, o.steps),
            fp_hits: f(self.fp_hits, o.fp_hits),
            fp_misses: f(self.fp_misses, o.fp_misses),
        }
    }
}

/// What the load generator needs beyond `Station`: allocation-free
/// access to received bytes, TCB liveness, and the raw counters.
pub trait BenchStation: Station {
    /// Hands every buffered received byte of `conn` to `f`, then drops
    /// them. Returns how many there were.
    fn drain(&mut self, conn: ConnHandle, f: &mut dyn FnMut(&[u8])) -> usize;
    /// Whether the stack still holds a TCB for `conn`.
    fn alive(&self, conn: ConnHandle) -> bool;
    /// Drops the glue's bookkeeping for a connection the app is done with.
    fn forget(&mut self, conn: ConnHandle);
    /// The stack's counters.
    fn counters(&self) -> Counters;
    /// The simulated machine, borrowed.
    fn host_ref(&self) -> &HostHandle;
}

fn host_handle(id: u16, cost: simnet::CostModel) -> HostHandle {
    let name: &'static str = match id {
        1 => "host1",
        2 => "host2",
        _ => "host",
    };
    HostHandle::new(Host::new(name, cost, false))
}

/// dev | eth | ip under `profile`, shimmed, for the station `id`.
fn substrate<R: Recorder>(
    net: &SimNet,
    id: u16,
    host: &HostHandle,
    profile: BenchProfile,
    rec: &R,
) -> IpL<R> {
    let mac = mac_of(id);
    let mut dev = Dev::new(net.attach(mac), host.clone());
    dev.set_batching(profile.batch());
    let dev = Layer::new(dev, LayerId::Dev, LayerId::Eth, rec.clone());
    let eth = Layer::new(Eth::new(dev, mac, host.clone()), LayerId::Eth, LayerId::Ip, rec.clone());
    let cfg = IpConfig { local: ip_of(id), prefix_len: 16, gateway: None, ttl: 64 };
    Layer::new(Ip::new(eth, mac, cfg, host.clone()), LayerId::Ip, LayerId::Tcp, rec.clone())
}

/// The TCP aux: the *link* MTU, as `foxharness::stack` passes it.
fn aux(id: u16) -> IpAuxImpl {
    IpAuxImpl::new(ip_of(id), IpProtocol::Tcp, foxwire::ether::MTU)
}

// ----- fox -----

#[derive(Default)]
struct ConnBuf {
    established: bool,
    peer_closed: bool,
    finished: bool,
    /// Accepted through the listener (xk reaps only these).
    child: bool,
    data: Vec<u8>,
}

enum Stage {
    Connecting(ConnectingSocket),
    Established(EstablishedSocket),
}

/// The structured TCP over the shimmed substrate.
pub struct FoxStack<R: Recorder> {
    tcp: Tcp<IpL<R>, IpAuxImpl>,
    _sched: SchedHandle,
    host: HostHandle,
    peer: Ipv4Addr,
    rec: R,
    bufs: BTreeMap<u32, Rc<RefCell<ConnBuf>>>,
    accepted: Rc<RefCell<VecDeque<TcpConnId>>>,
    listener: Option<ListeningSocket>,
    socks: BTreeMap<u32, Stage>,
}

impl<R: Recorder> FoxStack<R> {
    /// Station `id` (peer `peer_id`) on `net` under `profile`.
    pub fn new(net: &SimNet, id: u16, peer_id: u16, profile: BenchProfile, rec: R) -> FoxStack<R> {
        let host = host_handle(id, profile.cost(StackKind::FoxStandard));
        let sched = SchedHandle::new();
        let ip = substrate(net, id, &host, profile, &rec);
        let tcp = Tcp::new(ip, aux(id), IpProtocol::Tcp, profile.tcp_config(), sched.clone(), host.clone());
        FoxStack {
            tcp,
            _sched: sched,
            host,
            peer: ip_of(peer_id),
            rec,
            bufs: BTreeMap::new(),
            accepted: Rc::new(RefCell::new(VecDeque::new())),
            listener: None,
            socks: BTreeMap::new(),
        }
    }

    /// The app's upcall handler for one connection.
    fn handler(&self, buf: Rc<RefCell<ConnBuf>>) -> foxproto::Handler<TcpEvent> {
        let rec = self.rec.clone();
        Box::new(move |ev| {
            rec.span(LayerId::App, || {
                let mut b = buf.borrow_mut();
                match ev {
                    TcpEvent::Established => b.established = true,
                    TcpEvent::Data(d) => b.data.extend_from_slice(&d),
                    TcpEvent::PeerClosed => b.peer_closed = true,
                    TcpEvent::Closed | TcpEvent::Reset | TcpEvent::TimedOut => b.finished = true,
                    TcpEvent::NewConnection(_) | TcpEvent::Urgent(_) => {}
                }
            })
        })
    }

    fn promote(&mut self, conn: ConnHandle) {
        if let Some(Stage::Connecting(_)) = self.socks.get(&conn) {
            let Some(Stage::Connecting(sock)) = self.socks.remove(&conn) else { unreachable!() };
            let stage = match self.rec.span(LayerId::Tcp, || sock.try_established(&self.tcp)) {
                Ok(est) => Stage::Established(est),
                Err(still) => Stage::Connecting(still),
            };
            self.socks.insert(conn, stage);
        }
    }

    fn flag(&self, conn: ConnHandle, f: impl Fn(&ConnBuf) -> bool) -> bool {
        self.bufs.get(&conn).is_some_and(|b| f(&b.borrow()))
    }
}

impl<R: Recorder> Station for FoxStack<R> {
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let buf = Rc::new(RefCell::new(ConnBuf::default()));
        let handler = self.handler(buf.clone());
        let peer = self.peer;
        let sock = self
            .rec
            .span(LayerId::Tcp, || self.tcp.connect(peer, remote_port, 0, handler))
            .expect("active open");
        let conn = sock.id().0;
        self.bufs.insert(conn, buf);
        self.socks.insert(conn, Stage::Connecting(sock));
        conn
    }

    fn listen(&mut self, local_port: u16) {
        let acc = self.accepted.clone();
        let rec = self.rec.clone();
        let handler: foxproto::Handler<TcpEvent> = Box::new(move |ev| {
            rec.span(LayerId::App, || {
                if let TcpEvent::NewConnection(c) = ev {
                    acc.borrow_mut().push_back(c);
                }
            })
        });
        self.listener =
            Some(self.rec.span(LayerId::Tcp, || self.tcp.listen(local_port, handler)).expect("listen"));
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        let child = self.accepted.borrow_mut().pop_front()?;
        let buf = Rc::new(RefCell::new(ConnBuf::default()));
        let handler = self.handler(buf.clone());
        let listener = self.listener.as_ref()?;
        let sock = self.rec.span(LayerId::Tcp, || listener.accept(&mut self.tcp, child, handler)).ok()?;
        self.bufs.insert(child.0, buf);
        self.socks.insert(child.0, Stage::Connecting(sock));
        Some(child.0)
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        self.promote(conn);
        match self.socks.get(&conn) {
            Some(Stage::Established(sock)) => {
                self.rec.span(LayerId::Tcp, || sock.send_data(&mut self.tcp, data)).unwrap_or(0)
            }
            _ => 0,
        }
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        self.bufs.get(&conn).map_or(Vec::new(), |b| std::mem::take(&mut b.borrow_mut().data))
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.bufs.get(&conn).map_or(0, |b| b.borrow().data.len())
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.flag(conn, |b| b.established)
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.flag(conn, |b| b.peer_closed)
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.flag(conn, |b| b.finished)
    }

    fn close(&mut self, conn: ConnHandle) {
        let tcp = &mut self.tcp;
        let _ = self.rec.span(LayerId::Tcp, || match self.socks.remove(&conn) {
            Some(Stage::Connecting(sock)) => sock.close(tcp),
            Some(Stage::Established(sock)) => sock.close(tcp),
            None => tcp.close(TcpConnId(conn)),
        });
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.rec.span(LayerId::Tcp, || self.tcp.step(now))
    }

    fn host(&self) -> HostHandle {
        self.host.clone()
    }

    fn kind(&self) -> &'static str {
        "fox"
    }

    fn stats(&self) -> StationStats {
        let s = self.tcp.stats();
        StationStats {
            segments_sent: s.segments_sent,
            segments_received: s.segments_received,
            retransmits: s.retransmits,
            bytes_sent: s.bytes_sent,
            fastpath_hits: s.fastpath_hits,
            checksum_failures: s.checksum_failures,
            ..StationStats::default()
        }
    }

    fn scale_counters(&self) -> ScaleCounters {
        let (w, d) = (self.tcp.wheel_stats(), self.tcp.demux_stats());
        ScaleCounters {
            timer_arms: w.arms,
            timer_cancels: w.cancels,
            timer_fires: w.fires,
            timer_cascades: w.cascades,
            demux_lookups: d.lookups,
            demux_steps: d.steps,
        }
    }
}

impl<R: Recorder> BenchStation for FoxStack<R> {
    fn drain(&mut self, conn: ConnHandle, f: &mut dyn FnMut(&[u8])) -> usize {
        let Some(b) = self.bufs.get(&conn) else { return 0 };
        let mut b = b.borrow_mut();
        let n = b.data.len();
        if n > 0 {
            f(&b.data);
            b.data.clear();
        }
        n
    }

    fn alive(&self, conn: ConnHandle) -> bool {
        self.tcp.state_of(TcpConnId(conn)).is_some()
    }

    fn forget(&mut self, conn: ConnHandle) {
        self.bufs.remove(&conn);
        self.socks.remove(&conn);
    }

    fn counters(&self) -> Counters {
        Counters::new(self.stats(), self.scale_counters(), self.tcp.stats().fastpath_misses)
    }

    fn host_ref(&self) -> &HostHandle {
        &self.host
    }
}

// ----- x-kernel -----

/// The x-kernel baseline over the shimmed substrate.
pub struct XkStack<R: Recorder> {
    tcp: XkTcp<IpL<R>, IpAuxImpl>,
    host: HostHandle,
    peer: Ipv4Addr,
    rec: R,
    now: VirtualTime,
    time_wait: VirtualDuration,
    listener: Option<SockId>,
    accepted: VecDeque<SockId>,
    /// Connections the app still uses: their events and bytes are
    /// pumped every step.
    conns: Vec<SockId>,
    /// Closed accepted connections, in close order with the earliest
    /// instant their TIME-WAIT can end. xk reaps an accepted socket only
    /// once its event queue is empty, so each is drained from then on
    /// until it is gone; polling only the due front keeps the glue O(1)
    /// per step whatever the TIME-WAIT population.
    closing: VecDeque<(SockId, VirtualTime)>,
    state: BTreeMap<u32, ConnBuf>,
}

impl<R: Recorder> XkStack<R> {
    /// Station `id` (peer `peer_id`) on `net` under `profile`, with
    /// `XkConfig` mapped from the profile's `TcpConfig` field by field as
    /// `foxharness::stack::xk_station` maps it.
    pub fn new(net: &SimNet, id: u16, peer_id: u16, profile: BenchProfile, rec: R) -> XkStack<R> {
        let host = host_handle(id, profile.cost(StackKind::XKernel));
        let ip = substrate(net, id, &host, profile, &rec);
        let t = profile.tcp_config();
        let cfg = XkConfig {
            window: t.initial_window,
            send_buffer: t.send_buffer,
            checksums: t.compute_checksums,
            delayed_ack_ms: t.delayed_ack_ms,
            time_wait_ms: t.time_wait_ms,
            max_retransmits: t.max_retransmits,
            backlog: t.backlog,
            window_scale: t.window_scale,
            sack: t.sack,
            timestamps: t.timestamps,
            ack_coalesce_segments: t.ack_coalesce_segments,
        };
        let tcp = XkTcp::new(ip, aux(id), IpProtocol::Tcp, cfg, host.clone());
        XkStack {
            tcp,
            host,
            peer: ip_of(peer_id),
            rec,
            now: VirtualTime::ZERO,
            time_wait: VirtualDuration::from_millis(t.time_wait_ms),
            listener: None,
            accepted: VecDeque::new(),
            conns: Vec::new(),
            closing: VecDeque::new(),
            state: BTreeMap::new(),
        }
    }

    fn poll(&mut self, c: SockId) -> Option<XkEvent> {
        self.rec.span(LayerId::Tcp, || self.tcp.poll_event(c))
    }

    /// Moves events and received bytes into the glue's buffers.
    fn pump(&mut self) {
        if let Some(l) = self.listener {
            while let Some(ev) = self.poll(l) {
                if let XkEvent::Accepted(c) = ev {
                    self.accepted.push_back(c);
                    self.conns.push(c);
                    self.state.insert(c.0, ConnBuf { child: true, ..ConnBuf::default() });
                }
            }
        }
        for i in 0..self.conns.len() {
            let c = self.conns[i];
            while let Some(ev) = self.poll(c) {
                let Some(b) = self.state.get_mut(&c.0) else { continue };
                match ev {
                    XkEvent::Connected => b.established = true,
                    XkEvent::PeerClosed => b.peer_closed = true,
                    XkEvent::Closed | XkEvent::Reset | XkEvent::TimedOut => b.finished = true,
                    XkEvent::Accepted(_) => {}
                }
            }
            let mut tmp = [0u8; 4096];
            loop {
                let n = self.rec.span(LayerId::Tcp, || self.tcp.recv(c, &mut tmp)).unwrap_or(0);
                if n == 0 {
                    break;
                }
                if let Some(b) = self.state.get_mut(&c.0) {
                    b.data.extend_from_slice(&tmp[..n]);
                }
            }
        }
        while let Some(&(c, due)) = self.closing.front() {
            if due > self.now {
                break;
            }
            while self.poll(c).is_some() {}
            if self.tcp.state_of(c).is_some() {
                break;
            }
            self.closing.pop_front();
        }
    }
}

impl<R: Recorder> Station for XkStack<R> {
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let peer = self.peer;
        let c = self.rec.span(LayerId::Tcp, || self.tcp.connect(peer, remote_port, 0)).expect("connect");
        self.conns.push(c);
        self.state.insert(c.0, ConnBuf::default());
        c.0
    }

    fn listen(&mut self, local_port: u16) {
        self.listener = Some(self.rec.span(LayerId::Tcp, || self.tcp.listen(local_port)).expect("listen"));
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        self.accepted.pop_front().map(|c| c.0)
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        self.rec.span(LayerId::Tcp, || self.tcp.send(SockId(conn), data)).unwrap_or(0)
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        self.state.get_mut(&conn).map_or(Vec::new(), |b| std::mem::take(&mut b.data))
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.state.get(&conn).map_or(0, |b| b.data.len())
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.established)
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.peer_closed)
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.finished)
    }

    fn close(&mut self, conn: ConnHandle) {
        let c = SockId(conn);
        let _ = self.rec.span(LayerId::Tcp, || self.tcp.close(c));
        // An accepted socket is reaped by xk after TIME-WAIT once its
        // events are drained: hand it to the closing queue.
        if self.state.get(&conn).is_some_and(|b| b.child) {
            self.conns.retain(|&x| x != c);
            self.state.remove(&conn);
            self.closing.push_back((c, self.now + self.time_wait));
        }
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.now = now;
        let p = self.rec.span(LayerId::Tcp, || self.tcp.step(now));
        let rec = self.rec.clone();
        rec.span(LayerId::App, || self.pump());
        p
    }

    fn host(&self) -> HostHandle {
        self.host.clone()
    }

    fn kind(&self) -> &'static str {
        "xk"
    }

    fn stats(&self) -> StationStats {
        let s = self.tcp.stats();
        StationStats {
            segments_sent: s.segments_sent,
            segments_received: s.segments_received,
            retransmits: s.retransmits,
            bytes_sent: s.bytes_sent,
            checksum_failures: s.checksum_failures,
            ..StationStats::default()
        }
    }

    fn scale_counters(&self) -> ScaleCounters {
        let (w, s) = (self.tcp.wheel_stats(), self.tcp.stats());
        ScaleCounters {
            timer_arms: w.arms,
            timer_cancels: w.cancels,
            timer_fires: w.fires,
            timer_cascades: w.cascades,
            demux_lookups: s.demux_lookups,
            demux_steps: s.demux_steps,
        }
    }
}

impl<R: Recorder> BenchStation for XkStack<R> {
    fn drain(&mut self, conn: ConnHandle, f: &mut dyn FnMut(&[u8])) -> usize {
        let Some(b) = self.state.get_mut(&conn) else { return 0 };
        let n = b.data.len();
        if n > 0 {
            f(&b.data);
            b.data.clear();
        }
        n
    }

    fn alive(&self, conn: ConnHandle) -> bool {
        self.tcp.state_of(SockId(conn)).is_some()
    }

    fn forget(&mut self, conn: ConnHandle) {
        self.conns.retain(|&x| x.0 != conn);
        self.state.remove(&conn);
    }

    fn counters(&self) -> Counters {
        Counters::new(self.stats(), self.scale_counters(), 0)
    }

    fn host_ref(&self) -> &HostHandle {
        &self.host
    }
}
