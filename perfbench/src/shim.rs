//! The pass-through shim inserted between two protocol layers.

use crate::trace::{LayerId, Recorder};
use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use foxproto::{Handler, ProtoError, Protocol};

/// Wraps the protocol `P` (the layer `below`) for the layer `above` it.
/// Downcalls (`open`, `send`, `close`, `abort`, `step`) are spans of
/// `below`; upcalls through a handler registered at `open` are spans of
/// `above`. Everything else passes through untouched.
pub struct Layer<P, R> {
    inner: P,
    below: LayerId,
    above: LayerId,
    rec: R,
}

impl<P: Protocol, R: Recorder> Layer<P, R> {
    /// Shims `inner`, which implements layer `below`, for layer `above`.
    pub fn new(inner: P, below: LayerId, above: LayerId, rec: R) -> Layer<P, R> {
        Layer { inner, below, above, rec }
    }
}

impl<P: Protocol, R: Recorder> Protocol for Layer<P, R> {
    type Pattern = P::Pattern;
    type Peer = P::Peer;
    type Incoming = P::Incoming;
    type ConnId = P::ConnId;

    fn open(
        &mut self,
        pattern: P::Pattern,
        mut handler: Handler<P::Incoming>,
    ) -> Result<P::ConnId, ProtoError> {
        let (rec, above) = (self.rec.clone(), self.above);
        let upcall: Handler<P::Incoming> = Box::new(move |m| rec.span(above, || handler(m)));
        self.rec.span(self.below, || self.inner.open(pattern, upcall))
    }

    fn send(
        &mut self,
        conn: P::ConnId,
        to: P::Peer,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError> {
        self.rec.span(self.below, || self.inner.send(conn, to, payload))
    }

    fn close(&mut self, conn: P::ConnId) -> Result<(), ProtoError> {
        self.rec.span(self.below, || self.inner.close(conn))
    }

    fn abort(&mut self, conn: P::ConnId) -> Result<(), ProtoError> {
        self.rec.span(self.below, || self.inner.abort(conn))
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.rec.span(self.below, || self.inner.step(now))
    }
}
