//! Host-speed calibration.
//!
//! The shared host runs this benchmark at a speed that shifts for minutes
//! at a time, by up to a third, whatever the code does. A fixed
//! floating-point kernel that belongs to the benchmark (not to the crates
//! it measures) is timed at even points through the run; its time
//! against [`REFERENCE_MS`], summarised with the statistic a gated timing
//! uses (10th percentile or median), is the run's host slowdown for that
//! timing, and the timing is reported scaled by it, as it would read on
//! the reference host. A change to the crates moves the timings and not the
//! kernel, so it shows in full; a shift of the host moves both, and
//! cancels.
//!
//! The kernel is throughput-bound on exponentials, square roots and fused
//! multiply-adds in eight independent chains over an L1/L2-resident
//! array, like the plant physics. On the development VM its time tracked
//! the tick loop's through the host's slow stretches (correlation 0.75
//! over 360 adjacent pairs), while a latency-bound integer chain did not
//! (0.33): the slowdown comes from neighbours competing for the core's
//! execution units, which a dependent chain barely uses.

use std::time::Instant;

use crate::stats::{low_decile, median};

/// The kernel's time on the reference host (the 2-core development VM in
/// a calm period), ms.
pub const REFERENCE_MS: f64 = 7.0;

/// Elements of the kernel's working array.
const ELEMENTS: usize = 16_384;

/// Passes over the array per sample (about 8 ms on the reference host).
const PASSES: usize = 48;

/// The statistic a gated timing summarises its samples with.
#[derive(Clone, Copy, Debug)]
pub enum Stat {
    /// 10th percentile ([`low_decile`]).
    LowDecile,
    /// Median.
    Median,
}

/// Calibration samples taken through one run.
#[derive(Debug)]
pub struct HostSpeed {
    data: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// A calibration with its fixed input array and no samples.
    #[must_use]
    pub fn new() -> Self {
        HostSpeed {
            data: (0..ELEMENTS).map(|i| (i as f64 * 0.37).sin()).collect(),
            samples_ms: Vec::new(),
        }
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let data = std::hint::black_box(&self.data);
        let t0 = Instant::now();
        std::hint::black_box(kernel(data));
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Number of samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// The kernel's low-decile time, ms.
    #[must_use]
    pub fn kernel_ms(&self) -> f64 {
        low_decile(&self.samples_ms)
    }

    /// The kernel's median time, ms.
    #[must_use]
    pub fn kernel_median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// How much slower than the reference host this run's host was (above
    /// 1 when slower), by the statistic a timing is summarised with: a
    /// 10th percentile leaves out the host's slow stretches, a median
    /// takes in their share of the run, and the kernel's time is read the
    /// same way.
    #[must_use]
    pub fn slowdown(&self, stat: Stat) -> f64 {
        let kernel_ms = match stat {
            Stat::LowDecile => self.kernel_ms(),
            Stat::Median => self.kernel_median_ms(),
        };
        kernel_ms / REFERENCE_MS
    }
}

fn kernel(data: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    for pass in 0..PASSES {
        let shift = pass as f64 * 1e-6;
        for (i, chunk) in data.chunks_exact(8).enumerate() {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a += (x * 1e-3 + shift).exp() * (x + 1.0).sqrt()
                    - (i as f64).mul_add(1e-9, x) * 0.5;
            }
        }
    }
    acc.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_finite() {
        let h = HostSpeed::new();
        let a = kernel(&h.data);
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), kernel(&h.data).to_bits());
    }

    #[test]
    fn slowdown_reads_the_kernel_like_the_timing() {
        let mut h = HostSpeed::new();
        h.samples_ms = (1..=20).map(f64::from).collect();
        assert_eq!(h.kernel_ms(), 2.0);
        assert_eq!(h.slowdown(Stat::LowDecile), 2.0 / REFERENCE_MS);
        assert_eq!(h.slowdown(Stat::Median), 10.5 / REFERENCE_MS);
    }
}
