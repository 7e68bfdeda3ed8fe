//! The CPU's current speed, read from a fixed amount of benchmark-owned
//! work.
//!
//! The machine the benchmark was tuned on is a 2-vCPU virtual machine whose
//! CPU speed drifts with its host's load: a pure loop ran 0.72× to 1.38×
//! its median rate within 20 seconds, without steal time. A compute-bound
//! round slows with it, and no statistic over the round's own steps can tell
//! that apart from a slower program. Timing this reference work next to
//! every round gives the speed the round ran at, and the round's times are
//! scaled to [`NOMINAL_MS`], the reference's duration at the tuning
//! machine's median speed. The work is the benchmark's own, so no change to
//! the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Duration of one [`reference_ms`] chunk at the tuning machine's median
/// speed.
pub const NOMINAL_MS: f64 = 1.0;
/// Elements of the reference's working set: 64 KiB of `f64`, about the L2
/// footprint of a policy over 330 decisions plus a small MLP.
const WORDS: usize = 8192;
/// Passes over the working set per chunk: about [`NOMINAL_MS`].
const PASSES: usize = 12;
/// Chunks per reading; the reading is their mean.
const CHUNKS: usize = 10;

/// One chunk of reference work in milliseconds: xorshift-indexed loads,
/// an exponential and a multiply-add per element, as in softmax sampling
/// and MLP inference.
fn chunk_ms(data: &mut [f64]) -> f64 {
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0.0;
    for _ in 0..PASSES {
        for i in 0..WORDS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = data[state as usize % WORDS];
            acc += (x * 1e-3).exp() * data[i];
            data[i] = x * 0.999 + 1e-3;
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The mean duration of a few chunks of reference work, in milliseconds.
pub fn reference_ms() -> f64 {
    let mut data: Vec<f64> = (0..WORDS).map(|i| (i % 97) as f64 * 0.01).collect();
    let total: f64 = (0..CHUNKS).map(|_| chunk_ms(&mut data)).sum();
    black_box(&data);
    total / CHUNKS as f64
}
