//! Two stations on one simulated segment, and the loop that drives them.

use crate::stack::BenchStation;
use crate::trace::{LayerId, Recorder};
use foxbasis::time::{VirtualDuration, VirtualTime};
use simnet::SimNet;

/// Bounds timer latency, as in `foxharness::drive`.
const TICK: VirtualDuration = VirtualDuration::from_millis(1);

/// A client and a server station on their own network.
pub struct Pair<C, S, R> {
    /// The segment both stations sit on.
    pub net: SimNet,
    /// The connecting side.
    pub client: C,
    /// The listening side.
    pub server: S,
    /// The recorder every layer of both stations shares.
    pub rec: R,
    /// Drive-loop iterations that advanced the clock.
    pub ticks: u64,
}

impl<C: BenchStation, S: BenchStation, R: Recorder> Pair<C, S, R> {
    /// Drives both stations until `done(client, server, now)` holds or
    /// `deadline` passes; returns whether `done` held.
    ///
    /// This is `foxharness::drive`'s loop step for step (settle at the
    /// current instant, check `done`, advance to the next delivery or
    /// tick), written out so that the simnet calls can be timed as their
    /// own layer. The assembly check runs `foxharness::bulk_transfer`,
    /// which uses `foxharness::drive` itself.
    pub fn drive(
        &mut self,
        mut done: impl FnMut(&mut C, &mut S, VirtualTime) -> bool,
        deadline: VirtualTime,
    ) -> bool {
        let Pair { net, client, server, rec, ticks } = self;
        rec.span(LayerId::Driver, || {
            let mut now = rec.span(LayerId::Simnet, || net.now());
            loop {
                for _ in 0..64 {
                    let mut progress = false;
                    client.host_ref().begin(now);
                    progress |= client.step(now);
                    client.host_ref().end();
                    server.host_ref().begin(now);
                    progress |= server.step(now);
                    server.host_ref().end();
                    if let Some(t) = rec.span(LayerId::Simnet, || net.next_delivery()) {
                        if t <= now {
                            rec.span(LayerId::Simnet, || net.advance_to(now));
                            progress = true;
                        }
                    }
                    if !progress {
                        break;
                    }
                }
                if rec.span(LayerId::App, || done(client, server, now)) {
                    return true;
                }
                if now >= deadline {
                    return false;
                }
                let mut next = now + TICK;
                if let Some(t) = rec.span(LayerId::Simnet, || net.next_delivery()) {
                    next = next.min(t.max(now + VirtualDuration::from_micros(1)));
                }
                next = next.min(deadline);
                rec.span(LayerId::Simnet, || net.advance_to(next));
                now = next;
                *ticks += 1;
            }
        })
    }
}
