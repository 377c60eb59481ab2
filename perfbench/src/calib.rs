//! Host-speed calibration.
//!
//! The benchmark's host changes speed in regimes that last seconds to
//! tens of seconds, so wall time alone drifts between runs of the same
//! code. Every timed operation is therefore bracketed by a fixed kernel
//! that lives here, never in the program, and its wall time is scaled by
//! `CAL_REF / calib_ms`. Because the kernel's code never changes, this
//! cancels the host's speed but not the program's: a slower program still
//! reads slower.
//!
//! The kernel has to slow down when the miner does. On a 2-vCPU VM
//! (Xeon, 48 KiB L1d and 2 MiB L2 per core, shared 300 MiB L3), probes
//! of 90–160 s that alternated the miner with candidate kernels found
//! that pure integer work barely moves (4% spread) while mining swings by
//! 20%, and that a multi-megabyte pointer chase tracks mining poorly
//! (correlation 0.2–0.5). Branchy sorting of an L1-resident array plus
//! random probes of an L2-resident table tracked it best: correlation
//! 0.6–0.9 per rep and above 0.9 over 10-s windows, whose medians' spread
//! it cut from about 11% to 2–4%. Both buffers are allocated once: a
//! kernel that allocates on every call over-corrects in slow regimes.

use std::time::Instant;

/// Reference kernel time in milliseconds. A normalised time is what the
/// operation would have taken on a host that runs the kernel in exactly
/// `CAL_REF` ms.
pub const CAL_REF: f64 = 10.0;

/// Elements of the sorted array (16 KiB, L1-resident).
const SORT_LEN: usize = 1 << 12;
/// Sorts per kernel call.
const SORT_ROUNDS: u32 = 120;
/// Slots of the probed table (256 KiB, L2-resident).
const TABLE_LEN: usize = 1 << 15;
/// Table probes per kernel call.
const PROBES: usize = 1_500_000;

/// The calibrator: the kernel and its buffers, allocated once.
pub struct Calibrator {
    source: Vec<u32>,
    scratch: Vec<u32>,
    table: Vec<u64>,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

impl Calibrator {
    /// Allocates and fills the kernel's buffers from a fixed LCG.
    pub fn new() -> Self {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        Calibrator {
            source: (0..SORT_LEN)
                .map(|_| (lcg(&mut state) >> 32) as u32)
                .collect(),
            scratch: vec![0; SORT_LEN],
            table: vec![0; TABLE_LEN],
        }
    }

    /// Runs the kernel once and returns a value that depends on every
    /// step, so the work cannot be elided.
    fn run(&mut self) -> u64 {
        let mut acc = 0u64;
        for round in 0..SORT_ROUNDS {
            for (d, s) in self.scratch.iter_mut().zip(&self.source) {
                *d = s.rotate_left(round) ^ round;
            }
            self.scratch.sort_unstable();
            acc = acc.wrapping_add(u64::from(self.scratch[SORT_LEN / 3]));
        }
        let table = &mut self.table;
        table.fill(0);
        let mut state = 0x1234_u64;
        for _ in 0..PROBES {
            let x = lcg(&mut state);
            let slot = &mut table[(x >> 20) as usize % TABLE_LEN];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x | 1);
            } else {
                acc = acc.wrapping_add(*slot);
                *slot >>= 1;
            }
        }
        acc
    }

    /// Milliseconds of one kernel call on the calling thread. Operations
    /// that keep two cores busy are calibrated the same way: in probes a
    /// two-thread burst, by its wall time or its per-thread mean, tracked
    /// them worse than one thread, since whether the second vCPU is
    /// available flickers faster than a burst samples it.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(self.run());
        start.elapsed().as_secs_f64() * 1000.0
    }

    /// Runs `op` bracketed by calibrations.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.measure();
        let start = Instant::now();
        let out = op();
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let after = self.measure();
        (out, Timing::new(wall_ms, before, after))
    }
}

/// One timed operation: its wall time, the mean of its bracketing
/// calibrations, and the wall time scaled to reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Raw wall milliseconds.
    pub wall_ms: f64,
    /// Mean of the calibration before and after.
    pub calib_ms: f64,
    /// `wall_ms` at reference speed.
    pub norm_ms: f64,
}

impl Timing {
    /// Builds a timing from a wall time and its two calibrations.
    pub fn new(wall_ms: f64, calib_before_ms: f64, calib_after_ms: f64) -> Self {
        let calib_ms = (calib_before_ms + calib_after_ms) / 2.0;
        Timing {
            wall_ms,
            calib_ms,
            norm_ms: wall_ms * CAL_REF / calib_ms,
        }
    }

    /// Scales another wall time measured inside this bracket (a time the
    /// program reports about its own phases, or one request of a window).
    pub fn scale(&self, inner_wall_ms: f64) -> f64 {
        inner_wall_ms * CAL_REF / self.calib_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_divides_by_the_bracket_mean() {
        // A host running the kernel at 20 ms is half reference speed.
        assert_eq!(Timing::new(100.0, 20.0, 20.0).norm_ms, 50.0);
        let t = Timing::new(100.0, 5.0, 15.0);
        assert_eq!(t.calib_ms, 10.0);
        assert_eq!(t.norm_ms, 100.0);
        assert_eq!(Timing::new(30.0, CAL_REF, CAL_REF).norm_ms, 30.0);
        assert_eq!(Timing::new(80.0, 40.0, 40.0).scale(8.0), 2.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut k = Calibrator::new();
        assert_eq!(k.run(), k.run());
        assert_eq!(k.run(), Calibrator::new().run());
    }
}
