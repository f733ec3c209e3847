//! Property-based adversarial tests of the Receive module: arbitrary
//! segments against SEGMENT-ARRIVES from every synchronized state. No
//! input sequence may panic the DAG or break the TCB invariants. They
//! live inside `control` because they position a [`ConnCore`] directly
//! (its state and sequence space), which only in-crate code can do.

use super::segment::segment_arrives;
use super::{ConnCore, TcpState};
use crate::data::tcb::MAX_OUT_OF_ORDER;
use crate::TcpConfig;
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxwire::tcp::{TcpFlags, TcpHeader, TcpSegment};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ArbSegment {
    seq: u32,
    ack: u32,
    flags: u8,
    window: u16,
    payload_len: usize,
}

fn arb_segment() -> impl Strategy<Value = ArbSegment> {
    (any::<u32>(), any::<u32>(), 0u8..64, any::<u16>(), 0usize..2000).prop_map(
        |(seq, ack, flags, window, payload_len)| ArbSegment { seq, ack, flags, window, payload_len },
    )
}

/// Segments biased toward the connection's live window, where the
/// interesting branches are.
fn biased_segment(base_seq: u32, base_ack: u32) -> impl Strategy<Value = ArbSegment> {
    (-20_000i64..20_000, -20_000i64..20_000, 0u8..64, any::<u16>(), 0usize..1600).prop_map(
        move |(dseq, dack, flags, window, payload_len)| ArbSegment {
            seq: (base_seq as i64).wrapping_add(dseq) as u32,
            ack: (base_ack as i64).wrapping_add(dack) as u32,
            flags,
            window,
            payload_len,
        },
    )
}

fn to_segment(a: &ArbSegment) -> TcpSegment {
    let mut h = TcpHeader::new(4000, 80);
    h.seq = Seq(a.seq);
    h.ack = Seq(a.ack);
    h.flags = TcpFlags::from_u8(a.flags);
    h.window = a.window;
    TcpSegment { header: h, payload: vec![0x7u8; a.payload_len].into() }
}

fn estab_core() -> ConnCore<u8> {
    let cfg = TcpConfig::default();
    let mut core: ConnCore<u8> = ConnCore::new(&cfg, 80, Seq(1_000_000), 1460);
    core.remote = Some((9, 4000));
    core.state = TcpState::Estab;
    core.tcb.mss = 1000;
    core.tcb.set_snd_una(Seq(1_000_001));
    core.tcb.set_snd_nxt(Seq(1_000_001));
    core.tcb.set_irs(Seq(5_000_000));
    core.tcb.set_rcv_nxt(Seq(5_000_001));
    core.tcb.set_snd_wnd(4096);
    core
}

fn check_invariants(core: &ConnCore<u8>, context: &str) {
    let tcb = &core.tcb;
    // Circular ordering of the send-side variables.
    assert!(tcb.snd_una().le(tcb.snd_nxt()), "{context}: snd_una must not pass snd_nxt");
    // In-flight data never exceeds what the buffers can back.
    assert!(
        tcb.flight_size() as usize <= tcb.send_buf.capacity() + 2,
        "{context}: flight {} vs buffer {}",
        tcb.flight_size(),
        tcb.send_buf.capacity()
    );
    // Advertised window is bounded by the receive buffer.
    assert!(tcb.rcv_wnd() as usize <= tcb.recv_buf.capacity(), "{context}: window over capacity");
    // The reassembly queue is bounded.
    assert!(tcb.out_of_order.len() <= MAX_OUT_OF_ORDER, "{context}: ooo unbounded");
    // Retransmission queue entries are ordered and within flight.
    let mut prev: Option<Seq> = None;
    for s in tcb.resend_queue.iter() {
        if let Some(p) = prev {
            assert!(p.le(s.seq), "{context}: resend queue out of order");
        }
        prev = Some(s.end());
    }
}

/// Feeds `segs` to SEGMENT-ARRIVES one by one, checking the TCB
/// invariants after each, until the connection closes.
fn run_dag(mut core: ConnCore<u8>, segs: &[ArbSegment], context: &str) {
    let cfg = TcpConfig::default();
    for (i, a) in segs.iter().enumerate() {
        let _ = segment_arrives(&cfg, &mut core, to_segment(a), VirtualTime::from_millis(i as u64));
        core.tcb.to_do.borrow_mut().clear();
        check_invariants(&core, context);
        if core.state == TcpState::Closed {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No arbitrary segment sequence can panic SEGMENT-ARRIVES or break
    /// the TCB invariants, from ESTABLISHED.
    #[test]
    fn receive_dag_is_total_from_estab(
        segs in proptest::collection::vec(arb_segment(), 1..40),
    ) {
        run_dag(estab_core(), &segs, "estab-fuzz");
    }

    /// Same, with segments biased into the live window (deeper branches).
    #[test]
    fn receive_dag_is_total_near_window(
        segs in proptest::collection::vec(biased_segment(5_000_001, 1_000_001), 1..40),
    ) {
        run_dag(estab_core(), &segs, "window-fuzz");
    }

    /// Every non-listen state survives arbitrary segments.
    #[test]
    fn receive_dag_is_total_in_all_states(
        state_ix in 0usize..9,
        segs in proptest::collection::vec(biased_segment(5_000_001, 1_000_001), 1..25),
    ) {
        let states = [
            TcpState::SynSent { retries_left: 3 },
            TcpState::SynActive,
            TcpState::SynPassive { retries_left: 3 },
            TcpState::Estab,
            TcpState::FinWait1 { fin_acked: false },
            TcpState::FinWait2,
            TcpState::CloseWait,
            TcpState::Closing,
            TcpState::TimeWait,
        ];
        let mut core = estab_core();
        core.state = states[state_ix].clone();
        if matches!(core.state, TcpState::FinWait1 { .. } | TcpState::Closing) {
            core.tcb.fin_seq = Some(core.tcb.snd_nxt());
            core.tcb.set_snd_nxt(core.tcb.snd_nxt() + 1);
        }
        run_dag(core, &segs, "state-fuzz");
    }
}
