//! Delegating wrappers that time calls into a layer's public API from
//! outside the program. They forward every call unchanged, so a run
//! through them computes exactly what the bare run computes; the tests
//! hold them to bit-identical report digests.

use anta::engine::Engine;
use anta::oracle::Oracle;
use anta::time::SimDuration;
use anta::trace::TraceMode;
use sim::protocol::harness::ByzSupport;
use sim::protocol::{InstanceFaults, LockProfile, PaymentSpec, ProtocolOutcome, WorkloadConfig};
use sim::ProtocolHarness;
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use telemetry::{Event, TelemetrySink};

/// Counters a [`TimedHarness`] fills. Statistics only: every field is
/// `Relaxed` and publishes no other data.
#[derive(Debug, Default)]
pub struct HarnessClock {
    instances: AtomicU64,
    instance_ns: AtomicU64,
    build_ns: AtomicU64,
    classify_ns: AtomicU64,
    engine_ns: AtomicU64,
    msgs_sent: AtomicU64,
    msgs_delivered: AtomicU64,
}

/// A snapshot of a [`HarnessClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HarnessTimes {
    /// `ProtocolHarness::instance` calls.
    pub instances: u64,
    /// Seconds inside `instance`.
    pub instance_s: f64,
    /// Seconds inside `build_engine`.
    pub build_s: f64,
    /// Seconds inside `classify`, `griefed`, `latency` and `lock_events`.
    pub classify_s: f64,
    /// Seconds between `build_engine` returning and `classify` starting on
    /// the same thread: the engine run.
    pub engine_s: f64,
    /// Messages sent, summed over classified engines.
    pub msgs_sent: u64,
    /// Messages delivered, summed over classified engines.
    pub msgs_delivered: u64,
}

impl HarnessTimes {
    /// Harness self time: instance build, engine build and classification.
    pub fn harness_s(&self) -> f64 {
        self.instance_s + self.build_s + self.classify_s
    }
}

fn secs(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 * 1e-9
}

impl HarnessClock {
    /// The counters so far.
    pub fn times(&self) -> HarnessTimes {
        HarnessTimes {
            instances: self.instances.load(Ordering::Relaxed),
            instance_s: secs(&self.instance_ns),
            build_s: secs(&self.build_ns),
            classify_s: secs(&self.classify_ns),
            engine_s: secs(&self.engine_ns),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_delivered: self.msgs_delivered.load(Ordering::Relaxed),
        }
    }
}

fn add_elapsed(total: &AtomicU64, since: Instant) {
    total.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

thread_local! {
    /// When this thread's last `build_engine` returned; taken by the next
    /// `classify` on the same thread.
    static ENGINE_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// A [`ProtocolHarness`] that forwards every call to `inner` and times the
/// calls into `clock`.
#[derive(Debug)]
pub struct TimedHarness<'c, H> {
    inner: H,
    clock: &'c HarnessClock,
}

impl<'c, H> TimedHarness<'c, H> {
    /// Wraps `inner`, accumulating into `clock`.
    pub fn new(inner: H, clock: &'c HarnessClock) -> Self {
        TimedHarness { inner, clock }
    }
}

impl<H: ProtocolHarness> ProtocolHarness for TimedHarness<'_, H> {
    type Msg = H::Msg;
    type Instance = H::Instance;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports(&self, workload: &WorkloadConfig) -> bool {
        self.inner.supports(workload)
    }

    fn byz_support(&self) -> ByzSupport {
        self.inner.byz_support()
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> Self::Instance {
        let t0 = Instant::now();
        let inst = self.inner.instance(spec, faults);
        add_elapsed(&self.clock.instance_ns, t0);
        self.clock.instances.fetch_add(1, Ordering::Relaxed);
        inst
    }

    fn build_engine(
        &self,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) -> Engine<Self::Msg> {
        let t0 = Instant::now();
        let eng = self.inner.build_engine(inst, spec, oracle, trace_mode);
        add_elapsed(&self.clock.build_ns, t0);
        ENGINE_START.with(|s| s.set(Some(Instant::now())));
        eng
    }

    fn classify(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        if let Some(start) = ENGINE_START.with(Cell::take) {
            add_elapsed(&self.clock.engine_ns, start);
        }
        let t0 = Instant::now();
        let outcome = self.inner.classify(eng, inst, spec, quiescent, truncated);
        add_elapsed(&self.clock.classify_ns, t0);
        let trace = eng.trace();
        self.clock
            .msgs_sent
            .fetch_add(trace.sent_count() as u64, Ordering::Relaxed);
        self.clock
            .msgs_delivered
            .fetch_add(trace.delivered_total() as u64, Ordering::Relaxed);
        outcome
    }

    fn griefed(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        outcome: ProtocolOutcome,
    ) -> bool {
        let t0 = Instant::now();
        let griefed = self.inner.griefed(eng, inst, outcome);
        add_elapsed(&self.clock.classify_ns, t0);
        griefed
    }

    fn latency(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        let t0 = Instant::now();
        let latency = self.inner.latency(eng, inst, spec, outcome);
        add_elapsed(&self.clock.classify_ns, t0);
        latency
    }

    fn lock_events(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        let t0 = Instant::now();
        let profile = self.inner.lock_events(eng, inst, spec);
        add_elapsed(&self.clock.classify_ns, t0);
        profile
    }
}

/// A [`TelemetrySink`] that forwards to `inner`, counting events and the
/// time spent emitting and flushing.
pub struct TimedSink<'s> {
    inner: &'s mut dyn TelemetrySink,
    /// Events forwarded.
    pub events: u64,
    /// Time inside `emit` and `flush`.
    pub busy: Duration,
}

impl<'s> TimedSink<'s> {
    /// Wraps `inner`.
    pub fn new(inner: &'s mut dyn TelemetrySink) -> Self {
        TimedSink {
            inner,
            events: 0,
            busy: Duration::ZERO,
        }
    }
}

impl TelemetrySink for TimedSink<'_> {
    fn emit(&mut self, event: &Event) {
        let t0 = Instant::now();
        self.inner.emit(event);
        self.busy += t0.elapsed();
        self.events += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.flush();
        self.busy += t0.elapsed();
        r
    }
}
