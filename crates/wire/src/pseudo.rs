//! The TCP/UDP pseudo-header checksum.
//!
//! The paper's `IP_AUX` signature (Fig. 5) carries
//! `val check: address -> ubyte2` — "check computes the pseudo-header
//! checksum" — because TCP's checksum covers values that live in the IP
//! header. Keeping the computation here, parameterized on addresses,
//! is what lets the TCP functor stay independent of the IP version
//! ("any change in the definition of IP ... will affect the IP
//! implementation and the Auxiliary structure, but not TCP").

use crate::ipv4::{IpProtocol, Ipv4Addr};
use foxbasis::checksum::ChecksumAccum;

/// The ones-complement sum (not inverted) of the IPv4 pseudo-header:
/// source address, destination address, zero + protocol, and the
/// transport-layer length.
pub fn v4_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, transport_len: usize) -> u16 {
    debug_assert!(transport_len <= usize::from(u16::MAX));
    let mut acc = ChecksumAccum::new();
    acc.add_bytes(&src.0)
        .add_bytes(&dst.0)
        .add_word(u16::from(protocol.to_u8()))
        .add_word(transport_len as u16);
    acc.sum()
}

/// A started accumulator containing the pseudo-header, ready to absorb
/// the transport header and payload.
pub fn v4_accum(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, transport_len: usize) -> ChecksumAccum {
    let mut acc = ChecksumAccum::new();
    acc.add_bytes(&src.0)
        .add_bytes(&dst.0)
        .add_word(u16::from(protocol.to_u8()))
        .add_word(transport_len as u16);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_manual_layout() {
        // Pseudo-header: 10.0.0.1 | 10.0.0.2 | 0x00 0x06 | len 20
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let manual = foxbasis::checksum::word_check(&[10, 0, 0, 1, 10, 0, 0, 2, 0, 6, 0, 20]);
        assert_eq!(v4_sum(src, dst, IpProtocol::Tcp, 20), manual);
    }

    #[test]
    fn accum_continues_from_pseudo_header() {
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        let body = b"transport bytes here";
        let mut acc = v4_accum(src, dst, IpProtocol::Udp, body.len());
        acc.add_bytes(body);
        let mut manual = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 0, 17];
        manual.extend_from_slice(&(body.len() as u16).to_be_bytes());
        manual.extend_from_slice(body);
        assert_eq!(acc.sum(), foxbasis::checksum::word_check(&manual));
    }
}
