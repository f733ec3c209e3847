//! The control path: connection lifecycle, and nothing else.
//!
//! Everything that decides *what a connection is* lives here — passive
//! and active opens, the SYN handshakes, RST handling, the close
//! sequences, timer-driven give-ups, and every write to [`TcpState`].
//! The data path ([`crate::data`]) moves bytes for a connection whose
//! shape control has already decided; it reports events back (see
//! `DataEvent` in [`crate::data::transfer`]) but never mutates the state
//! machine.
//!
//! The boundary is enforced by the compiler: [`ConnCore`]'s `state`
//! field is private to this module (everyone else reads it through
//! [`ConnCore::state`]), and the TCB's sequence/window fields are
//! private to [`crate::data`] (DESIGN.md §5.11).

use crate::data::congestion::CcMachine;
use crate::data::tcb::Tcb;
use crate::TcpConfig;
use foxbasis::seq::Seq;

pub mod segment;
pub mod state;

#[cfg(test)]
mod fuzz;

/// The connection state (paper Fig. 6 `tcp_state`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection. (The paper's `Closed of tcp_action Q.T ref` keeps
    /// the to_do queue so queued actions can still drain; ours lives in
    /// the connection record.)
    Closed,
    /// Passive open, awaiting SYNs; the payload is the paper's `int`
    /// (bounding concurrent embryonic connections).
    Listen {
        /// Maximum embryonic (SYN-received) children.
        backlog: usize,
    },
    /// Active open, SYN sent; the `int` counts remaining retries.
    SynSent {
        /// SYN retransmissions left before giving up.
        retries_left: u32,
    },
    /// SYN-RECEIVED reached from an active open (simultaneous open).
    SynActive,
    /// SYN-RECEIVED reached from a passive open; the `int` counts
    /// retries of our SYN+ACK.
    SynPassive {
        /// SYN+ACK retransmissions left.
        retries_left: u32,
    },
    /// Connection established.
    Estab,
    /// We closed first; the `bool` is the paper's "our FIN has been
    /// acknowledged" flag.
    FinWait1 {
        /// True once the peer has ACKed our FIN.
        fin_acked: bool,
    },
    /// Our FIN acknowledged, awaiting the peer's.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Simultaneous close: FINs crossed.
    Closing,
    /// Peer closed, we closed, awaiting the ACK of our FIN.
    LastAck,
    /// Both closed; lingering 2MSL to absorb stray segments.
    TimeWait,
}

impl TcpState {
    /// True in states where user data may still be sent.
    pub fn can_send(&self) -> bool {
        matches!(self, TcpState::Estab | TcpState::CloseWait)
    }

    /// True in states where incoming segment text is accepted.
    pub fn can_receive(&self) -> bool {
        matches!(self, TcpState::Estab | TcpState::FinWait1 { .. } | TcpState::FinWait2)
    }

    /// True for the two SYN-RECEIVED flavors.
    pub fn is_syn_received(&self) -> bool {
        matches!(self, TcpState::SynActive | TcpState::SynPassive { .. })
    }

    /// True once the connection is past the three-way handshake.
    pub fn is_synchronized(&self) -> bool {
        !matches!(self, TcpState::Closed | TcpState::Listen { .. } | TcpState::SynSent { .. })
    }

    /// The RFC 793 state name, as event exports use it.
    pub fn name(&self) -> &'static str {
        match self {
            TcpState::Closed => "Closed",
            TcpState::Listen { .. } => "Listen",
            TcpState::SynSent { .. } => "SynSent",
            TcpState::SynActive => "SynActive",
            TcpState::SynPassive { .. } => "SynPassive",
            TcpState::Estab => "Estab",
            TcpState::FinWait1 { .. } => "FinWait1",
            TcpState::FinWait2 => "FinWait2",
            TcpState::CloseWait => "CloseWait",
            TcpState::Closing => "Closing",
            TcpState::LastAck => "LastAck",
            TcpState::TimeWait => "TimeWait",
        }
    }
}

/// The per-connection core the State/Receive/Send/Resend modules operate
/// on: everything about a connection *except* the engine-side plumbing
/// (user handler, timer handles). Module-level tests construct one of
/// these, apply one operation, and compare the TCB against the standard
/// — the paper's test structure.
pub struct ConnCore<P> {
    /// Our port.
    pub local_port: u16,
    /// Peer address and port (`None` while listening).
    pub remote: Option<(P, u16)>,
    /// The connection state: written only by `control`.
    state: TcpState,
    /// The transmission control block.
    pub tcb: Tcb<P>,
    /// The MSS we advertise on SYNs (from the aux structure's MTU).
    pub our_mss: u32,
}

impl<P: Clone + PartialEq + std::fmt::Debug> ConnCore<P> {
    /// A fresh closed connection core.
    pub fn new(cfg: &TcpConfig, local_port: u16, iss: Seq, our_mss: u32) -> ConnCore<P> {
        let mut tcb = Tcb::new(iss, cfg.send_buffer, cfg.initial_window);
        // The options we will offer at SYN time (each only turns on if
        // the peer offers it back; see `segment`).
        tcb.offer_wscale = cfg.window_scale;
        tcb.offer_sack = cfg.sack;
        tcb.offer_ts = cfg.timestamps;
        if cfg.window_scale {
            tcb.rcv_wscale = foxwire::tcp::wscale_for(cfg.initial_window);
        }
        tcb.cc = CcMachine::new(cfg.congestion_algorithm);
        ConnCore { local_port, remote: None, state: TcpState::Closed, tcb, our_mss }
    }
}

impl<P> ConnCore<P> {
    /// The connection state.
    pub fn state(&self) -> &TcpState {
        &self.state
    }

    /// Test fixture for unit tests outside `control`: puts the
    /// connection in `state` without running a transition.
    #[cfg(test)]
    pub(crate) fn set_state(&mut self, state: TcpState) {
        self.state = state;
    }
}

/// Control's transition token: proof that the decision to enter
/// ESTABLISHED was made on the control side of the boundary.
///
/// The constructor is visible only inside `control`, and the one data
/// function that completes an establishment
/// (`crate::data::transfer::establish`) demands a handle — so the data
/// path cannot promote a connection on its own, and control cannot
/// forget to run the data-side bookkeeping when it does.
pub(crate) struct EstablishedHandle {
    _token: (),
}

impl EstablishedHandle {
    /// Minted next to a `TcpState::Estab` write, nowhere else.
    pub(in crate::control) fn mint() -> EstablishedHandle {
        EstablishedHandle { _token: () }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(TcpState::Estab.can_send());
        assert!(TcpState::CloseWait.can_send());
        assert!(!TcpState::FinWait1 { fin_acked: false }.can_send());
        assert!(TcpState::FinWait2.can_receive());
        assert!(!TcpState::CloseWait.can_receive());
        assert!(TcpState::SynActive.is_syn_received());
        assert!(TcpState::SynPassive { retries_left: 1 }.is_syn_received());
        assert!(!TcpState::SynSent { retries_left: 1 }.is_synchronized());
        assert!(TcpState::TimeWait.is_synchronized());
    }
}
