//! E-F9a — Reproduces paper Fig. 9a: wall-clock recommendation time of
//! StreamTune, DS2 and ContTune across the PQP template families (online
//! tuning cost, model inference only — excludes deployment waits).
//!
//! Measured for real on this machine: we time the tuner's decision path
//! (model fits + recommendation searches) per tuning process.

use streamtune_bench::harness::{is_fast, recommendation_times, write_json};

fn main() {
    let rows = recommendation_times(is_fast());
    println!("\nPaper shape to verify: DS2 cheapest; StreamTune flat as query complexity");
    println!("grows; ContTune rises sharply with operator count (per-op GPs).");
    write_json("fig9a_recommendation_time", &rows);
}
