//! Fixture: the dish-bank predictive kernels (predictive-no-alloc scope).

pub struct DishBank {
    scores: Vec<f64>,
}

impl DishBank {
    pub fn score_all(&self, slots: &[usize], out: &mut Vec<f64>) {
        let tmp = Vec::new();
        let seed = vec![0.0; slots.len()]; // osr-lint: allow(predictive-no-alloc, fixture shows the pragma escape)
        out.extend(seed);
        out.extend(tmp);
    }

    pub fn block_predictive(&mut self, points: &[&[f64]]) -> f64 {
        let staged = self.scores.clone();
        let started = std::time::Instant::now();
        staged.len() as f64 + points.len() as f64 + started.elapsed().as_secs_f64()
    }

    pub fn predictive_one(&self, x: &[f64]) -> Vec<f64> {
        // Convenience wrappers off the hot path may allocate freely.
        let mut out = Vec::new();
        out.extend_from_slice(x);
        out
    }
}

fn lowrank_log_det(chol: &[f64], helmert: &[f64]) -> f64 {
    let lanes = helmert.to_vec();
    let gram: Vec<f64> = Vec::with_capacity(lanes.len());
    chol[0] + lanes.len() as f64 + gram.len() as f64
}
