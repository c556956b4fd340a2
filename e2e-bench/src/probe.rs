//! Host speed probe.
//!
//! The shared virtual machines this benchmark runs on change speed by up to
//! 2× over tens of seconds, with no steal time recorded, and the simulator
//! slows with them. A fixed loop in the benchmark's own code, which no
//! change to the workspace can speed up or slow down, is timed on
//! [`THREADS`] threads at the start and at the end of every repetition.
//! The untraced run reports host-time metrics in *reference time*: each
//! repetition's figures scaled by [`REFERENCE_S`] over that repetition's
//! probe time, so a slow stretch of the host slows the probe and the
//! workload alike and cancels out.
//!
//! The loop is throughput-bound, like the simulator: several independent
//! xorshift chains with unpredictable branches and cache-resident table
//! accesses, so it slows when co-scheduled work competes for the core. A
//! latency-bound loop (one dependent chain) was tried first and did not
//! follow the host's slow stretches.

use std::hint::black_box;
use std::time::Instant;

/// Threads the probe runs on at once: as many as the workloads keep busy.
pub const THREADS: usize = 2;

/// Probe time on the reference host: the median probe on a 2-vCPU Xeon
/// virtual machine (2 MiB L2 per core), so reference-time figures read
/// close to the wall-clock time of a typical moment there.
pub const REFERENCE_S: f64 = 0.016;

/// The repetition metric that carries the probe time to the parent.
pub const METRIC: &str = "host.probe_s";

/// Independent xorshift lanes per thread.
const LANES: usize = 8;

/// Words in each thread's table (256 KiB, cache-resident).
const TABLE_WORDS: usize = 1 << 16;

/// Loop iterations per burst, and bursts per probe.
const STEPS: u64 = 1_000_000;
const BURSTS: usize = 3;

fn walk(table: &mut [u32], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        for lane in &mut lanes {
            *lane ^= *lane << 13;
            *lane ^= *lane >> 7;
            *lane ^= *lane << 17;
            let i = (*lane as usize) & mask;
            let v = table[i];
            if v & 1 == 0 {
                table[i] = v.rotate_left(3) ^ (*lane as u32);
            } else {
                acc = acc.wrapping_add(u64::from(v));
            }
        }
    }
    acc
}

/// Times the probe: the median burst, in seconds.
pub fn measure() -> f64 {
    let mut tables: Vec<Vec<u32>> = (0..THREADS)
        .map(|t| {
            (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9) ^ t as u32)
                .collect()
        })
        .collect();
    let mut times: Vec<f64> = (0..BURSTS as u64)
        .map(|b| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for (t, table) in tables.iter_mut().enumerate() {
                    scope.spawn(move || black_box(walk(table, b * 31 + t as u64)));
                }
            });
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[BURSTS / 2]
}
