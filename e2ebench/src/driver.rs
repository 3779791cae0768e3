//! The single driver thread: feeds requests into the `Frontend`, polls it,
//! dispatches ready micro-batches and books every answer.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use hdp_osr_core::{
    CollectiveModel, FlushTrigger, Frontend, ModelRegistry, Prediction, ServePolicy, TraceSink,
};

use osr_eval::metrics::OpenSetConfusion;

use crate::fleet::{self, Fleet};
use crate::hostspeed::{self, HostSpeed, Ticks};
use crate::summary;
use crate::trace::{FlushSink, Tracer, NONE};
use crate::workload::{tenant_name, Arrival, Clients, Workload};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Measured,
}

/// Requests sent, answered with a prediction, shed at enqueue, and answered
/// with a typed error, for one phase.
#[derive(Clone, Copy, Default)]
pub struct PhaseCounts {
    pub sent: u64,
    pub succeeded: u64,
    pub shed: u64,
    pub failed: u64,
}

/// A request the front-end accepted and has not answered yet.
struct Pending {
    tenant: usize,
    point: usize,
    client: usize,
    phase: Phase,
    /// Due time (open loop) or submit time (closed loop); also the
    /// `now_ns` handed to `enqueue`.
    due_ns: u64,
    span: u64,
}

/// What the measured phase's answers add up to. Answers are folded in as
/// they arrive, so the driver's memory does not grow with the request log.
#[derive(Default)]
pub struct Measured {
    /// Answers with a prediction.
    pub answered: u64,
    /// Latencies, due time to answer, of the answers since the last full
    /// run of `TAIL_CHUNK`.
    chunk: Vec<f64>,
    /// p50 and p90 of each run of `CHUNK` consecutive answers.
    pub chunk_p50_p90: Vec<[f64; 2]>,
    /// p99 of each run of `TAIL_CHUNK` consecutive answers.
    pub chunk_p99: Vec<f64>,
    /// The figures of successive windows of dispatch rounds, each window
    /// the first rounds to span a second since the last one ended.
    pub windows: Vec<WindowFigures>,
    window_start_ns: u64,
    window_answers: u64,
    /// Queue wait and service (seal to answer) of the window's answers, ms.
    window_parts: Vec<[f32; 2]>,
    /// Server time: the driver's time sending requests (`enqueue` and its
    /// bookkeeping of them) and inside `poll`, `dispatch` and `flush_all`.
    window_busy_ns: u64,
    window_sampling_ns: u64,
    window_ticks: Option<Ticks>,
    pub in_slo: u64,
    pub degraded: u64,
    pub confusion: OpenSetConfusion,
    /// Traced runs only: seal time minus submit time, and answer minus seal.
    /// Driver lag has its own field in [`RunLog`].
    pub queue_wait_ms: Vec<f32>,
    pub service_ms: Vec<f32>,
}

/// One throughput window's figures. Server time is scaled to the reference
/// host by multiplying it by `availability / factor`: the time the same
/// work would have taken on a host that ran every runnable vCPU (no steal)
/// at the reference speed.
pub struct WindowFigures {
    /// Answers per second of wall time, sampling time left out.
    pub rate: f64,
    /// Answers per second of scaled server time.
    pub capacity: f64,
    /// p50 of the window's latencies, each its queue wait plus its scaled
    /// service time.
    pub scaled_p50: f64,
    pub factor: f64,
    pub availability: f64,
}

pub struct Round {
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Flush {
    pub seq: u64,
    /// Span id of the flush in a traced run.
    pub span: u64,
    pub trigger: FlushTrigger,
    pub fill: usize,
    pub attempts: u32,
    /// Seal time: the first member's submit time plus its queue wait.
    pub flushed_at_ns: u64,
    pub answer_ns: u64,
}

#[derive(Clone, Copy)]
pub enum RegEvent {
    Insert(usize),
    Resolve(usize),
}

/// Process-wide counters the layers keep, read between phases.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub one_vs_all: u64,
    pub batch_vs_one: u64,
    pub predictive: u64,
    pub retries: u64,
    pub degraded: u64,
    pub cold_loads: u64,
    pub evictions: u64,
    pub load_failures: u64,
}

impl Counters {
    pub fn read() -> Self {
        use osr_stats::counters as c;
        Self {
            one_vs_all: c::predictive_one_vs_all_calls(),
            batch_vs_one: c::predictive_batch_vs_one_calls(),
            predictive: c::predictive_logpdf_calls(),
            retries: c::serve_retries(),
            degraded: c::degraded_batches(),
            cold_loads: c::frontend_cold_loads(),
            evictions: c::frontend_evictions(),
            load_failures: c::snapshot_load_failures(),
        }
    }

    pub fn since(&self, start: &Self) -> Self {
        Self {
            one_vs_all: self.one_vs_all - start.one_vs_all,
            batch_vs_one: self.batch_vs_one - start.batch_vs_one,
            predictive: self.predictive - start.predictive,
            retries: self.retries - start.retries,
            degraded: self.degraded - start.degraded,
            cold_loads: self.cold_loads - start.cold_loads,
            evictions: self.evictions - start.evictions,
            load_failures: self.load_failures - start.load_failures,
        }
    }
}

/// Closed-loop rounds `[warm, warm + window)` whose predictions are folded
/// into a digest and whose kernel counts are kept: the batch contents of
/// those rounds depend only on the seed, so both repeat exactly.
pub struct DigestWindow {
    pub first: usize,
    pub len: usize,
    pub digest: u64,
    pub requests: u64,
    pub counters: Counters,
}

/// Everything one serve produced, in the order the driver saw it.
pub struct RunLog {
    pub phases: [PhaseCounts; 2],
    pub measured: Measured,
    /// Responses naming a request id that was not awaiting an answer: one
    /// the driver never got from `enqueue`, or one answered before.
    pub stray_answers: u64,
    /// Accepted requests still unanswered when the run ended.
    pub unanswered: u64,
    /// Answers booked after the measured phase began, whatever their phase.
    pub answered_since_start: u64,
    pub rounds: Vec<Round>,
    pub flushes: Vec<Flush>,
    pub reg_events: Vec<RegEvent>,
    /// Index of the first registry event of the measured phase.
    pub reg_measured_from: usize,
    /// Traced runs only: how late each measured request was sent.
    pub lag_ms: Vec<f32>,
    pub refresh_save_ms: Vec<f64>,
    pub refresh_insert_us: Vec<f64>,
    pub save_failures: u64,
    pub measured_start_ns: u64,
    pub measured_end_ns: u64,
    /// Counters before the first request, at the start of the measured
    /// phase, and after the last answer.
    pub counters_begin: Counters,
    pub counters_start: Counters,
    pub counters_end: Counters,
    pub window: Option<DigestWindow>,
    /// Every reference-kernel timing of the run, in nanoseconds.
    pub host_timings: Vec<f64>,
}

impl RunLog {
    fn phase(&mut self, phase: Phase) -> &mut PhaseCounts {
        &mut self.phases[phase as usize]
    }
}

pub struct Driver<'a> {
    w: &'a Workload,
    fleet: &'a Fleet,
    pending: HashMap<u64, Pending>,
    traced: bool,
    models: &'a [Arc<dyn CollectiveModel>],
    names: Vec<String>,
    sizes: Vec<usize>,
    registry: &'a ModelRegistry,
    snapshot_dir: &'a Path,
    fe: Frontend,
    tracer: &'a Tracer,
    sink: Arc<FlushSink>,
    workers: usize,
    policy: ServePolicy,
    sent_total: u64,
    polls: u64,
    refreshes: usize,
    speed: HostSpeed,
    last_sample_ns: u64,
    pub log: RunLog,
}

/// A request meets the SLO when answered, not degraded, within this time.
pub const SLO_MS: f64 = 20.0;

/// p50 and p90 are taken over runs of this many consecutive answers, which
/// leaves twenty beyond a run's p90.
const CHUNK: usize = 200;

/// p99 is taken over runs of this many, which leaves ten beyond a run's p99.
const TAIL_CHUNK: usize = 5 * CHUNK;

/// An idle open-loop driver polls for deadline flushes this often; it
/// also polls after every batch of arrivals it sends.
const POLL_EVERY_NS: u64 = 50_000;

/// A traced run records the per-request spans (`request`, and the
/// `frontend.enqueue` under it) and `frontend.poll` spans for one call in
/// this many, which bounds the span store on the closed loop.
const SPAN_EVERY: u64 = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn prediction_code(p: Option<Prediction>) -> u64 {
    match p {
        Some(Prediction::Known(c)) => c as u64,
        Some(Prediction::Unknown) => u64::MAX,
        None => u64::MAX - 1,
    }
}

impl<'a> Driver<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        w: &'a Workload,
        fleet: &'a Fleet,
        models: &'a [Arc<dyn CollectiveModel>],
        registry: &'a ModelRegistry,
        snapshot_dir: &'a Path,
        fe: Frontend,
        tracer: &'a Tracer,
        sink: Arc<FlushSink>,
        workers: usize,
    ) -> Self {
        Self {
            w,
            fleet,
            pending: HashMap::new(),
            traced: tracer.enabled(),
            models,
            names: (0..w.tenants).map(tenant_name).collect(),
            sizes: fleet.test_sizes(),
            registry,
            snapshot_dir,
            fe,
            tracer,
            sink,
            workers,
            policy: ServePolicy::default(),
            sent_total: 0,
            polls: 0,
            refreshes: 0,
            speed: HostSpeed::new(workers),
            last_sample_ns: tracer.now_ns(),
            log: RunLog {
                phases: [PhaseCounts::default(); 2],
                measured: Measured::default(),
                stray_answers: 0,
                unanswered: 0,
                answered_since_start: 0,
                rounds: Vec::new(),
                flushes: Vec::new(),
                reg_events: (0..w.tenants.min(w.registry_capacity))
                    .map(RegEvent::Insert)
                    .collect(),
                reg_measured_from: 0,
                lag_ms: Vec::new(),
                refresh_save_ms: Vec::new(),
                refresh_insert_us: Vec::new(),
                save_failures: 0,
                measured_start_ns: 0,
                measured_end_ns: 0,
                counters_begin: Counters::read(),
                counters_start: Counters::default(),
                counters_end: Counters::default(),
                window: None,
                host_timings: Vec::new(),
            },
        }
    }

    fn begin_measured(&mut self, now_ns: u64) {
        self.log.measured_start_ns = now_ns;
        self.start_window(now_ns);
        self.log.counters_start = Counters::read();
        self.log.reg_measured_from = self.log.reg_events.len();
    }

    /// Send one request; `client` is the closed-loop client or `usize::MAX`.
    fn send(
        &mut self,
        tenant: usize,
        point: usize,
        client: usize,
        due_ns: u64,
        phase: Phase,
        lag_from: u64,
    ) {
        let start = self.tracer.now_ns();
        if self.traced && phase == Phase::Measured {
            self.log
                .lag_ms
                .push(start.saturating_sub(lag_from) as f32 / 1e6);
        }
        let t = &self.fleet.tenants[tenant];
        let result = self
            .fe
            .enqueue(&self.names[tenant], t.points[point].clone(), due_ns);
        let end = self.tracer.now_ns();
        self.log.phase(phase).sent += 1;
        self.sent_total += 1;
        let sampled = self.sent_total.is_multiple_of(SPAN_EVERY);
        match result {
            Ok(id) => {
                let span = if sampled { self.tracer.new_id() } else { NONE };
                if sampled {
                    self.tracer.span("frontend.enqueue", start, end, span, id);
                }
                let pending = Pending {
                    tenant,
                    point,
                    client,
                    phase,
                    due_ns,
                    span,
                };
                if self.pending.insert(id, pending).is_some() {
                    self.log.stray_answers += 1;
                }
            }
            Err(_) => {
                if sampled {
                    self.tracer.span("frontend.enqueue", start, end, NONE, NONE);
                }
                self.log.phase(phase).shed += 1;
            }
        }
    }

    /// Make the refreshes the requests sent so far are due.
    fn refresh_if_due(&mut self) {
        if let Some(every) = self.w.refresh_every {
            while (self.refreshes as u64) < self.sent_total / every {
                self.refresh();
            }
        }
    }

    /// Add the time since `start_ns` to the window's server time.
    fn server_time(&mut self, start_ns: u64) {
        let m = &mut self.log.measured;
        m.window_busy_ns += self.tracer.now_ns().saturating_sub(start_ns);
    }

    /// Re-save one tenant's snapshot and re-insert its model, round robin.
    fn refresh(&mut self) {
        let tenant = self.refreshes % self.w.tenants;
        self.refreshes += 1;
        let name = &self.names[tenant];
        let store = fleet::snapshot_store(self.snapshot_dir, tenant);
        let start = self.tracer.now_ns();
        if store.save(&self.fleet.tenants[tenant].model).is_err() {
            self.log.save_failures += 1;
        }
        let mid = self.tracer.now_ns();
        self.registry.insert(name, Arc::clone(&self.models[tenant]));
        let end = self.tracer.now_ns();
        self.tracer.span("snapshot.save", start, mid, NONE, NONE);
        self.tracer.span("registry.insert", mid, end, NONE, NONE);
        self.log.refresh_save_ms.push((mid - start) as f64 / 1e6);
        self.log.refresh_insert_us.push((end - mid) as f64 / 1e3);
        self.log.reg_events.push(RegEvent::Insert(tenant));
    }

    fn poll(&mut self) {
        let start = self.tracer.now_ns();
        self.fe.poll(start);
        let end = self.tracer.now_ns();
        self.server_time(start);
        self.polls += 1;
        if self.tracer.enabled() && self.polls.is_multiple_of(SPAN_EVERY) {
            self.tracer.span("frontend.poll", start, end, NONE, NONE);
        }
    }

    fn flush_all(&mut self) {
        let start = self.tracer.now_ns();
        self.fe.flush_all(start);
        self.server_time(start);
    }

    /// Sample the host's speed when [`hostspeed::EVERY_NS`] has passed
    /// since the last sample.
    fn sample_speed_if_due(&mut self) {
        if self.tracer.now_ns() >= self.last_sample_ns + hostspeed::EVERY_NS {
            let before = self.speed.spent_ns;
            self.speed.sample();
            self.log.measured.window_sampling_ns += self.speed.spent_ns - before;
            self.last_sample_ns = self.tracer.now_ns();
        }
    }

    fn start_window(&mut self, now_ns: u64) {
        let m = &mut self.log.measured;
        m.window_start_ns = now_ns;
        m.window_answers = 0;
        m.window_parts.clear();
        m.window_busy_ns = 0;
        m.window_sampling_ns = 0;
        m.window_ticks = Ticks::read();
        self.speed.take_window();
    }

    /// Close the throughput window at `end_ns` once it spans a second.
    fn close_window_if_due(&mut self, end_ns: u64) {
        let m = &self.log.measured;
        if m.window_answers == 0 || end_ns < m.window_start_ns + 1_000_000_000 {
            return;
        }
        let wall_ns = (end_ns - m.window_start_ns).saturating_sub(m.window_sampling_ns);
        let answers = m.window_answers as f64;
        let factor = self.speed.take_window();
        let availability = Ticks::availability(m.window_ticks, Ticks::read());
        let scale = availability / factor;
        let scaled: Vec<f64> = m
            .window_parts
            .iter()
            .map(|[wait, service]| f64::from(*wait) + f64::from(*service) * scale)
            .collect();
        let figures = WindowFigures {
            rate: answers / (wall_ns.max(1) as f64 / 1e9),
            capacity: answers / (m.window_busy_ns.max(1) as f64 / 1e9 * scale),
            scaled_p50: summary::quantile(&summary::sorted(&scaled), 0.5),
            factor,
            availability,
        };
        self.log.measured.windows.push(figures);
        self.start_window(end_ns);
    }

    fn finish(&mut self) {
        self.log.counters_end = Counters::read();
        self.log.unanswered = self.pending.len() as u64;
        self.log.host_timings = std::mem::take(&mut self.speed.all);
    }

    /// Dispatch every ready micro-batch and book the answers; returns the
    /// clients of the answered requests in answer order.
    fn dispatch(&mut self, round: usize) -> Vec<usize> {
        let span = self.tracer.new_id();
        self.tracer.set_dispatch(span);
        let sink: Arc<dyn TraceSink> = self.sink.clone();
        let start = self.tracer.now_ns();
        let outcomes = self
            .fe
            .dispatch(self.registry, self.workers, &self.policy, Some(&sink));
        let end = self.tracer.now_ns();
        self.server_time(start);
        self.tracer
            .span_with_id(span, "frontend.dispatch", start, end, NONE, NONE);
        self.log.rounds.push(Round {
            start_ns: start,
            end_ns: end,
        });

        // The front-end resolved models in its schedule order, earliest
        // deadline first with the flush sequence breaking ties; rebuild it.
        let mut order: Vec<(u64, u64, usize)> = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            let due = o
                .responses
                .first()
                .and_then(|r| self.pending.get(&r.request_id))
                .map_or(0, |p| p.due_ns);
            let tenant = self
                .names
                .iter()
                .position(|n| *n == o.tenant)
                .unwrap_or(usize::MAX);
            order.push((due.saturating_add(self.w.max_delay_ns), o.flush_seq, tenant));
        }
        order.sort_unstable();
        self.log
            .reg_events
            .extend(order.iter().map(|&(_, _, t)| RegEvent::Resolve(t)));

        let window = self.log.window.as_ref().map(|w| w.first..w.first + w.len);
        let in_window = window.is_some_and(|w| w.contains(&round));
        let mut clients = Vec::new();
        for o in &outcomes {
            let (degraded, attempts) = match &o.outcome {
                Ok(c) => (c.served_via.is_degraded(), c.attempts),
                Err(_) => (false, 0),
            };
            let flushed_at_ns = o
                .responses
                .first()
                .and_then(|r| Some(self.pending.get(&r.request_id)?.due_ns + r.queue_wait_ns))
                .unwrap_or(end);
            let flush_span = self
                .tracer
                .span("frontend.flush", flushed_at_ns, end, span, NONE);
            self.log.flushes.push(Flush {
                seq: o.flush_seq,
                span: flush_span,
                trigger: o.trigger,
                fill: o.responses.len(),
                attempts,
                flushed_at_ns,
                answer_ns: end,
            });
            for r in &o.responses {
                let Some(p) = self.pending.remove(&r.request_id) else {
                    self.log.stray_answers += 1;
                    continue;
                };
                let prediction = r.result.as_ref().ok().copied();
                if in_window {
                    if let Some(w) = self.log.window.as_mut() {
                        let code = prediction_code(prediction);
                        let fields = [r.request_id, p.client as u64, p.point as u64, code];
                        w.digest = fields.into_iter().fold(w.digest, fnv);
                        w.requests += 1;
                    }
                }
                if end >= self.log.measured_start_ns && self.log.measured_start_ns > 0 {
                    self.log.answered_since_start += 1;
                }
                match prediction {
                    Some(_) => self.log.phase(p.phase).succeeded += 1,
                    None => self.log.phase(p.phase).failed += 1,
                }
                if let (Phase::Measured, Some(pred)) = (p.phase, prediction) {
                    let m = &mut self.log.measured;
                    let latency_ms = end.saturating_sub(p.due_ns) as f64 / 1e6;
                    let sealed = p.due_ns + r.queue_wait_ns;
                    m.window_parts.push([
                        r.queue_wait_ns as f32 / 1e6,
                        end.saturating_sub(sealed) as f32 / 1e6,
                    ]);
                    m.answered += 1;
                    m.chunk.push(latency_ms);
                    if m.chunk.len().is_multiple_of(CHUNK) {
                        let last = summary::sorted(&m.chunk[m.chunk.len() - CHUNK..]);
                        let pct = |q| summary::quantile(&last, q);
                        m.chunk_p50_p90.push([pct(0.50), pct(0.90)]);
                    }
                    if m.chunk.len() == TAIL_CHUNK {
                        m.chunk.sort_by(f64::total_cmp);
                        m.chunk_p99.push(summary::quantile(&m.chunk, 0.99));
                        m.chunk.clear();
                    }
                    m.window_answers += 1;
                    m.degraded += u64::from(degraded);
                    m.in_slo += u64::from(!degraded && latency_ms <= SLO_MS);
                    m.confusion
                        .record(pred, self.fleet.tenants[p.tenant].truth[p.point]);
                    if self.traced {
                        m.queue_wait_ms.push(r.queue_wait_ns as f32 / 1e6);
                        m.service_ms.push(end.saturating_sub(sealed) as f32 / 1e6);
                    }
                }
                if p.span != NONE {
                    self.tracer.span_with_id(
                        p.span,
                        "request",
                        p.due_ns,
                        end,
                        flush_span,
                        r.request_id,
                    );
                }
                clients.push(p.client);
            }
        }
        self.close_window_if_due(end);
        clients
    }

    /// Open loop: send each arrival when it falls due, whatever the server
    /// is doing, until the schedule is spent and every queue is drained.
    pub fn run_open(&mut self, script: &[Arrival], warm_ns: u64, end_ns: u64) {
        let mut next = 0;
        let (mut polled_at, mut last_poll) = (0, 0);
        let mut measuring = false;
        loop {
            let now = self.tracer.now_ns();
            if !measuring && now >= warm_ns {
                measuring = true;
                self.begin_measured(warm_ns);
            }
            while let Some(a) = script.get(next).filter(|a| a.due_ns <= now) {
                let phase = if a.due_ns < warm_ns {
                    Phase::Warmup
                } else {
                    Phase::Measured
                };
                let start = self.tracer.now_ns();
                self.send(a.tenant, a.point, usize::MAX, a.due_ns, phase, a.due_ns);
                self.server_time(start);
                self.refresh_if_due();
                next += 1;
            }
            let drained = next == script.len();
            if drained {
                self.flush_all();
            } else if next > polled_at || self.tracer.now_ns() >= last_poll + POLL_EVERY_NS {
                polled_at = next;
                last_poll = self.tracer.now_ns();
                self.poll();
            }
            if self.fe.ready_batches() > 0 {
                self.dispatch(0);
            } else if drained && self.fe.queue_depth() == 0 {
                break;
            } else {
                // Sample the host's speed only where no arrival falls due
                // during the sample.
                let clear_until = self.tracer.now_ns() + 2 * hostspeed::NOMINAL_NS as u64;
                if script.get(next).is_none_or(|a| a.due_ns > clear_until) {
                    self.sample_speed_if_due();
                }
                std::hint::spin_loop();
            }
        }
        let last_answer = self.log.rounds.last().map_or(0, |r| r.end_ns);
        self.log.measured_end_ns = end_ns.max(last_answer);
        self.finish();
    }

    /// Closed loop: every client re-sends as soon as it is answered. Runs
    /// `warm_rounds` warm-up dispatch rounds, then measures until `seconds`
    /// have passed and the digest window of `window` rounds is complete.
    pub fn run_closed(
        &mut self,
        clients: &mut Clients,
        warm_rounds: usize,
        window: usize,
        seconds: f64,
    ) {
        self.log.window = Some(DigestWindow {
            first: warm_rounds,
            len: window,
            digest: FNV_OFFSET,
            requests: 0,
            counters: Counters::default(),
        });
        let mut ready: Vec<usize> = (0..clients.len()).collect();
        let mut answered_at = vec![0u64; clients.len()];
        let mut window_start = Counters::default();
        let mut round = 0;
        loop {
            if round == warm_rounds {
                self.begin_measured(self.tracer.now_ns());
                window_start = self.log.counters_start;
            }
            let phase = if round < warm_rounds {
                Phase::Warmup
            } else {
                Phase::Measured
            };
            let start = self.tracer.now_ns();
            for c in std::mem::take(&mut ready) {
                let (tenant, point) = clients.next(c, &self.sizes);
                let now = self.tracer.now_ns();
                let lag_from = if round == 0 { now } else { answered_at[c] };
                self.send(tenant, point, c, now, phase, lag_from);
            }
            self.server_time(start);
            self.refresh_if_due();
            self.poll();
            ready = self.dispatch(round);
            let answered = self.log.rounds.last().map_or(0, |r| r.end_ns);
            for &c in &ready {
                answered_at[c] = answered;
            }
            self.sample_speed_if_due();
            round += 1;
            if round == warm_rounds + window {
                if let Some(w) = self.log.window.as_mut() {
                    w.counters = Counters::read().since(&window_start);
                }
            }
            let elapsed = self
                .tracer
                .now_ns()
                .saturating_sub(self.log.measured_start_ns) as f64
                / 1e9;
            if round >= warm_rounds + window && elapsed >= seconds {
                break;
            }
        }
        self.log.measured_end_ns = self.log.rounds.last().map_or(0, |r| r.end_ns);
        self.finish();
    }
}
