//! Host-speed calibration.
//!
//! On a shared host the same code runs at very different speeds from
//! one minute to the next. The closed-loop workloads therefore run a
//! fixed calibration burst (map inserts, a sort and hashing over
//! pseudo-random keys: pointer-chasing and allocation like the lifter's)
//! between operations, and scale each operation's time by how long the
//! bursts around it took against [`REFERENCE_NS`]. A change to the
//! program does not change the burst, so scaled times still move with
//! the program; they move far less with the host. The unscaled figures
//! are printed too.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one burst takes on the reference host (the host the bounds in
/// `BENCHMARK.json` were set on, when it ran at full speed). Scaled
/// times read as times on that host.
pub const REFERENCE_NS: f64 = 400_000.0;

/// Run one calibration burst; returns its nanoseconds.
pub fn burst() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    for i in 0..2048u64 {
        let k = next() % 8192;
        tree.insert(k, i);
        *hash.entry(k >> 2).or_insert(0u64) += i;
    }
    let mut keys: Vec<u64> = tree
        .keys()
        .map(|k| k.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .collect();
    keys.sort_unstable();
    black_box((keys, hash.len()));
    t0.elapsed().as_nanos() as f64
}

/// Host-speed scale now: [`REFERENCE_NS`] over the median of five
/// bursts; below 1 while the host runs slow.
pub fn scale_now() -> f64 {
    let mut b: Vec<f64> = (0..5).map(|_| burst()).collect();
    b.sort_by(f64::total_cmp);
    REFERENCE_NS / b[2]
}
