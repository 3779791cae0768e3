//! Per-sweep observability: the [`SweepTrace`] record and the sampler's
//! global metrics.
//!
//! Every Gibbs sweep ([`crate::Hdp::sweep`]) — full-franchise or warm
//! batch — reports into the process-wide metrics registry (sweep count,
//! seat-move count, wall-time histogram, current concentrations), and the
//! `*_traced` sweep variants additionally return a [`SweepTrace`] snapshot
//! of the sampler's convergence-relevant state.
//!
//! Traces are the substrate of the golden-trace determinism suite, so the
//! serialized form must be a pure function of `(data, config, seed)`:
//! [`SweepTrace`] therefore hand-implements `Serialize`/`Deserialize` and
//! **excludes `wall_ns`** — wall-time varies run to run and belongs in the
//! metrics histogram, not in the deterministic record. `wall_ns` stays on
//! the struct for programmatic consumers; deserialized traces carry 0.

use std::sync::OnceLock;

use serde::{field, DeError, Deserialize, Serialize, Value};

use osr_stats::metrics::{global, Counter, Gauge, Histogram};

use crate::state::HdpState;

/// Registry name of the sweep counter.
pub const SWEEPS_METRIC: &str = "hdp.sweeps";
/// Registry name of the seat-move counter (Eq. 7 item reseatings plus
/// Eq. 8 table dish resamplings).
pub const SEAT_MOVES_METRIC: &str = "hdp.seat_moves";
/// Registry name of the per-sweep wall-time histogram (nanoseconds).
pub const SWEEP_TIME_METRIC: &str = "hdp.sweep_time_ns";
/// Registry name of the γ gauge (last value any sampler thread wrote).
pub const GAMMA_METRIC: &str = "hdp.gamma";
/// Registry name of the α₀ gauge (last value any sampler thread wrote).
pub const ALPHA_METRIC: &str = "hdp.alpha";

pub(crate) struct SweepMetrics {
    pub sweeps: Counter,
    pub seat_moves: Counter,
    pub sweep_time_ns: Histogram,
    pub gamma: Gauge,
    pub alpha: Gauge,
}

/// Registry handles, resolved once per process; the per-sweep hot path is
/// pure relaxed atomics.
pub(crate) fn sweep_metrics() -> &'static SweepMetrics {
    static CELL: OnceLock<SweepMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = global();
        SweepMetrics {
            sweeps: reg.counter(SWEEPS_METRIC),
            seat_moves: reg.counter(SEAT_MOVES_METRIC),
            sweep_time_ns: reg.histogram(SWEEP_TIME_METRIC),
            gamma: reg.gauge(GAMMA_METRIC),
            alpha: reg.gauge(ALPHA_METRIC),
        }
    })
}

/// Record one finished sweep into the global registry.
pub(crate) fn record_sweep(state: &HdpState, wall_ns: u64, seat_moves: u64) {
    let m = sweep_metrics();
    m.sweeps.inc();
    m.seat_moves.add(seat_moves);
    m.sweep_time_ns.record(wall_ns);
    // Gauges race benignly across sampler threads: "a recent value".
    m.gamma.set(state.gamma);
    m.alpha.set(state.alpha);
}

/// Convergence-relevant snapshot of one Gibbs sweep.
///
/// All fields except [`wall_ns`](Self::wall_ns) are deterministic functions
/// of `(data, config, seed)`; the serialized (JSON) form contains exactly
/// those fields and is therefore byte-identical across runs and worker
/// counts.
#[derive(Debug, Clone)]
pub struct SweepTrace {
    /// 0-based sweep index within this sampler/session's lifetime.
    pub sweep: usize,
    /// Joint log marginal likelihood after the sweep.
    pub log_likelihood: f64,
    /// Live dishes (subclasses) after the sweep.
    pub n_dishes: usize,
    /// Total tables across all groups (`m_··`).
    pub total_tables: usize,
    /// Tables per group, training groups first (a warm session's batch
    /// group is the last entry).
    pub tables_per_group: Vec<usize>,
    /// Top-level concentration γ after the sweep.
    pub gamma: f64,
    /// Group-level concentration α₀ after the sweep.
    pub alpha: f64,
    /// Seating decisions taken in this sweep (item reseatings + table dish
    /// resamplings).
    pub seat_moves: u64,
    /// Sweep wall-time in nanoseconds. **Not serialized** (run-dependent);
    /// 0 after deserialization.
    pub wall_ns: u64,
}

pub(crate) fn build_trace(
    state: &HdpState,
    sweep: usize,
    wall_ns: u64,
    seat_moves: u64,
    log_likelihood: f64,
) -> SweepTrace {
    SweepTrace {
        sweep,
        log_likelihood,
        n_dishes: state.n_dishes(),
        total_tables: state.total_tables(),
        tables_per_group: state.tables.iter().map(Vec::len).collect(),
        gamma: state.gamma,
        alpha: state.alpha,
        seat_moves,
        wall_ns,
    }
}

impl Serialize for SweepTrace {
    fn to_value(&self) -> Value {
        // wall_ns deliberately omitted: see the struct docs.
        Value::Obj(vec![
            ("sweep".to_string(), self.sweep.to_value()),
            ("log_likelihood".to_string(), self.log_likelihood.to_value()),
            ("n_dishes".to_string(), self.n_dishes.to_value()),
            ("total_tables".to_string(), self.total_tables.to_value()),
            ("tables_per_group".to_string(), self.tables_per_group.to_value()),
            ("gamma".to_string(), self.gamma.to_value()),
            ("alpha".to_string(), self.alpha.to_value()),
            ("seat_moves".to_string(), self.seat_moves.to_value()),
        ])
    }
}

impl Deserialize for SweepTrace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(entries) => Ok(Self {
                sweep: field(entries, "sweep")?,
                log_likelihood: field(entries, "log_likelihood")?,
                n_dishes: field(entries, "n_dishes")?,
                total_tables: field(entries, "total_tables")?,
                tables_per_group: field(entries, "tables_per_group")?,
                gamma: field(entries, "gamma")?,
                alpha: field(entries, "alpha")?,
                seat_moves: field(entries, "seat_moves")?,
                wall_ns: 0,
            }),
            other => Err(DeError::expected("struct SweepTrace", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepTrace {
        SweepTrace {
            sweep: 3,
            log_likelihood: -123.456,
            n_dishes: 4,
            total_tables: 9,
            tables_per_group: vec![4, 3, 2],
            gamma: 95.5,
            alpha: 9.25,
            seat_moves: 170,
            wall_ns: 987_654,
        }
    }

    #[test]
    fn serialization_excludes_wall_time() {
        let v = sample().to_value();
        assert!(v.get("wall_ns").is_none(), "wall_ns must not be serialized");
        assert_eq!(v.get("sweep"), Some(&Value::Num(3.0)));
    }

    #[test]
    fn roundtrip_preserves_everything_but_wall_time() {
        let t = sample();
        let back = SweepTrace::from_value(&t.to_value()).unwrap();
        assert_eq!(back.sweep, t.sweep);
        assert_eq!(back.log_likelihood, t.log_likelihood);
        assert_eq!(back.n_dishes, t.n_dishes);
        assert_eq!(back.total_tables, t.total_tables);
        assert_eq!(back.tables_per_group, t.tables_per_group);
        assert_eq!(back.gamma, t.gamma);
        assert_eq!(back.alpha, t.alpha);
        assert_eq!(back.seat_moves, t.seat_moves);
        assert_eq!(back.wall_ns, 0, "wall time is run-local, not persisted");
    }
}
