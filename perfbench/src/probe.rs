//! Pass-through `rcce::PointToPoint` decorators that time the protocol
//! layers from outside.
//!
//! A [`Timed`] protocol forwards every call to the protocol it wraps and
//! returns a future that measures host time and counts polls around
//! each poll of the wrapped future. The executor polls the wrapper
//! exactly when it would have polled the wrapped future, so virtual time
//! cannot move; only host time is added. Polls aggregate per layer into
//! one [`LayerClock`]; no span is recorded per poll.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use rcce::protocol::LocalBoxFuture;
use rcce::{PointToPoint, RankCtx, SessionBuilder};
use vscc::Vscc;

/// Host time and poll count accumulated inside one protocol layer.
#[derive(Default)]
pub struct LayerClock {
    nanos: Cell<u64>,
    polls: Cell<u64>,
}

impl LayerClock {
    /// Seconds of host time spent inside the layer's futures.
    pub fn secs(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    /// Polls of the layer's futures.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }
}

/// A protocol decorator charging every poll to a [`LayerClock`].
pub struct Timed {
    inner: Rc<dyn PointToPoint>,
    clock: Rc<LayerClock>,
}

impl Timed {
    pub fn new(inner: Rc<dyn PointToPoint>, clock: Rc<LayerClock>) -> Self {
        Timed { inner, clock }
    }
}

impl PointToPoint for Timed {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(TimedFuture { inner: self.inner.send(ctx, dest, data, flow), clock: &self.clock })
    }

    fn recv<'a>(
        &'a self,
        ctx: &'a RankCtx,
        src: usize,
        buf: &'a mut [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(TimedFuture { inner: self.inner.recv(ctx, src, buf, flow), clock: &self.clock })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedFuture<'a> {
    inner: LocalBoxFuture<'a, ()>,
    clock: &'a LayerClock,
}

impl Future for TimedFuture<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let start = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        let clock = self.clock;
        clock.nanos.set(clock.nanos.get() + start.elapsed().as_nanos() as u64);
        clock.polls.set(clock.polls.get() + 1);
        out
    }
}

/// The two protocol layers of a session: on-chip (`rcce`) and
/// inter-device (`vscc`).
#[derive(Default)]
pub struct Probes {
    pub onchip: Rc<LayerClock>,
    pub inter: Rc<LayerClock>,
}

impl Probes {
    /// `v.session_builder()` with both protocols it installs wrapped:
    /// the confined blocking on-chip protocol of a multi-device system
    /// and the scheme's inter-device protocol.
    pub fn session_builder(&self, v: &Vscc) -> SessionBuilder {
        assert!(v.devices.len() > 1, "the decorators mirror the multi-device session wiring");
        let onchip = rcce::BlockingProtocol::confined(0, vscc::schemes::SEND_AREA_BYTES);
        v.session_builder()
            .onchip_protocol(Rc::new(Timed::new(Rc::new(onchip), self.onchip.clone())))
            .interdevice_protocol(Rc::new(Timed::new(
                v.scheme.protocol_with_obs(v.metrics()),
                self.inter.clone(),
            )))
    }
}
