//! Percentiles from raw samples, and the named metrics a run reports.

use serde::{DeError, Deserialize, Serialize, Value};

/// Quantile `q` of ascending `sorted`, interpolating linearly between order
/// statistics; 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One named metric: the value reported, plus the median, quartiles and
/// size of the sample it was computed from.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Shown and written to the report, but left out of the result line.
    pub report_only: bool,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A metric whose value is computed from `samples`, whose spread is
    /// reported alongside it.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: &[f64]) {
        let s = sorted(samples);
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            report_only: false,
        });
    }

    /// A metric computed from `n` raw samples, with its quartiles over the
    /// per-window or per-chunk values `windows` it is the median of.
    pub fn windowed(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        n: usize,
        windows: &[f64],
    ) {
        self.push(name, unit, value, windows);
        if let Some(m) = self.0.last_mut() {
            m.n = n;
        }
    }

    /// Percentile `p` of raw `samples`.
    pub fn pct(&mut self, name: &str, unit: &'static str, p: f64, samples: &[f64]) {
        let value = quantile(&sorted(samples), p);
        self.push(name, unit, value, samples);
    }

    /// A single count or ratio.
    pub fn one(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, &[value]);
    }

    /// Keep the last metric pushed out of the result line.
    pub fn report_only(&mut self) {
        if let Some(m) = self.0.last_mut() {
            m.report_only = true;
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `{name: {value, unit}}`: the shape of the result line.
    pub fn values(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .filter(|m| !m.report_only)
                .map(|m| {
                    let v = obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", str_val(m.unit)),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }

    /// `{name: {value, unit, n, q1, median, q3}}`: the detailed report.
    pub fn detailed(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|m| {
                    let v = obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", str_val(m.unit)),
                        ("n", Value::Num(m.n as f64)),
                        ("q1", Value::Num(m.q1)),
                        ("median", Value::Num(m.median)),
                        ("q3", Value::Num(m.q3)),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A [`Value`] tree as a serializable and deserializable document.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self(v.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
