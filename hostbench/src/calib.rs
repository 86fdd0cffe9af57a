//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! between solves on the same CPU, so that host-time metrics can be
//! scaled to one nominal host speed.
//!
//! On a shared VM the same single-CPU code runs up to 1.7 times slower
//! for minutes at a time, with CPU time in step and almost no stolen
//! time. A run cannot outlast such a period. The slowdown hits
//! cache-bound code and barely touches a loop in registers, so the
//! reference is a sort: rounds of sorting 64 Ki pseudo-random `u32`
//! (256 KiB, the size of a private L2), which slowed with the router in
//! step (see README.md). It uses none of the program's code, so no
//! change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference sample takes at the nominal host speed. Host
/// times are scaled to it: a run whose samples take twice this long
/// reports half its measured seconds.
pub const NOMINAL_SAMPLE_S: f64 = 0.030;

/// `u32` sorted per round (256 KiB).
const SORT_LEN: usize = 1 << 16;
/// Rounds per sample.
const ROUNDS: usize = 24;

/// Fill `buf` with xorshift64 output from state `x`; returns the state.
fn fill(buf: &mut [u32], mut x: u64) -> u64 {
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x as u32;
    }
    x
}

/// The reference kernel: `rounds` times, refill `buf` and sort it.
/// Returns a checksum of the sorted rounds so none can be skipped.
pub fn kernel(buf: &mut [u32], rounds: usize, seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut sum = 0u64;
    for _ in 0..rounds {
        x = fill(buf, x);
        buf.sort_unstable();
        sum = sum.wrapping_add(buf[buf.len() / 2] as u64);
    }
    sum
}

/// Wall seconds of one reference sample on the calling thread. The
/// buffer is made and touched before the clock starts.
pub fn sample() -> f64 {
    let mut buf = vec![0u32; SORT_LEN];
    fill(&mut buf, 1);
    let t = Instant::now();
    black_box(kernel(black_box(&mut buf), ROUNDS, 1));
    t.elapsed().as_secs_f64()
}

/// The factor that scales a run's host seconds to the nominal host
/// speed: the nominal sample time over the median of the run's samples.
pub fn speed_factor(median_sample_s: f64) -> f64 {
    NOMINAL_SAMPLE_S / median_sample_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_sorts_and_is_deterministic() {
        let mut a = vec![0u32; 1000];
        let s = kernel(&mut a, 3, 7);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mut b = vec![0u32; 1000];
        assert_eq!(s, kernel(&mut b, 3, 7));
        assert_eq!(a, b);
        assert_ne!(s, kernel(&mut b, 3, 9));
    }

    #[test]
    fn a_slower_host_scales_seconds_down() {
        assert_eq!(speed_factor(NOMINAL_SAMPLE_S), 1.0);
        assert_eq!(speed_factor(2.0 * NOMINAL_SAMPLE_S), 0.5);
        assert!(sample() > 0.0);
    }
}
