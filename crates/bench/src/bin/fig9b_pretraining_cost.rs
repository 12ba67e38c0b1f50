//! E-F9b — Reproduces paper Fig. 9b: offline pre-training cost as the
//! history corpus grows. The paper sweeps 1k–15k DAGs on their cluster; we
//! sweep a machine-appropriate range and verify the same super-linear
//! growth shape (clustering's pairwise GED work plus per-cluster training).

use streamtune_bench::harness::{is_fast, pretraining_costs, write_json};

fn main() {
    let points = pretraining_costs(is_fast());
    // Shape check: super-linear growth.
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        let size_ratio = last.num_dags as f64 / first.num_dags as f64;
        let time_ratio = last.seconds / first.seconds.max(1e-9);
        println!(
            "\nGrowth: corpus ×{size_ratio:.1} → time ×{time_ratio:.1} (paper: non-linear increase)"
        );
    }
    write_json("fig9b_pretraining_cost", &points);
}
