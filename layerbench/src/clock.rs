//! Host clock calibration of the end-to-end timings.
//!
//! On a shared host the core's effective speed follows other tenants'
//! load: this program ran up to about 1.8x slower for minutes at a time,
//! so whole runs landed in a slow stretch and no statistic inside a run
//! could recover the fast figure. The benchmark therefore times a fixed
//! probe beside the workload and reports every end-to-end timing in
//! *reference seconds*: wall seconds scaled by how fast the probe ran in
//! the same run.
//!
//! The probe is a chain of dependent fused multiply-adds. Its time is set
//! by the core's speed alone (no memory traffic, no data-dependent
//! branches), and none of it is the program's code, so a change to the
//! program cannot move it while a change to the host moves both. It is
//! sampled between repetitions over the whole run and, like the other
//! statistics, its fastest sample counts. Wall-clock figures are printed
//! beside the calibrated ones.

use std::hint::black_box;
use std::time::Instant;

/// Dependent multiply-adds per probe sample (about 0.3 ms).
const CHAIN: usize = 100_000;

/// The probe's fastest time on the 2-vCPU Xeon VM the benchmark was made
/// on, so that reference seconds read as wall seconds there when the host
/// runs at full speed.
const REFERENCE_PROBE_S: f64 = 2.8e-4;

/// Fastest probe time over a run.
pub struct ClockProbe {
    fastest: f64,
    samples: usize,
}

impl Default for ClockProbe {
    fn default() -> Self {
        ClockProbe {
            fastest: f64::INFINITY,
            samples: 0,
        }
    }
}

impl ClockProbe {
    /// Times `n` probe samples.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            let mut x = black_box(1.000_000_1f64);
            for _ in 0..CHAIN {
                x = x.mul_add(0.999_999_9, 1e-9);
            }
            black_box(x);
            self.fastest = self.fastest.min(t.elapsed().as_secs_f64());
            self.samples += 1;
        }
    }

    /// Reference seconds per wall second in this run.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_S / self.fastest
    }

    pub fn fastest_s(&self) -> f64 {
        self.fastest
    }

    pub fn samples(&self) -> usize {
        self.samples
    }
}
