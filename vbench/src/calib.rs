//! Host-speed calibration: a fixed reference kernel timed beside the
//! work, so end-to-end times can be read at one reference speed.
//!
//! On a shared host the same code runs faster or slower as the
//! neighbours' load changes: on the two-thread host the bounds were set
//! on, at one of two speeds about 1.3 times apart that switch every few
//! seconds, and by up to 1.6 times from one hour to the next. The
//! kernel — a breadth-first flood over a fixed obstacle grid with a
//! snapshot copy after each flood, the same kind of work as maze search
//! and the best-state clone — slows with it. So a run times the kernel
//! right before every set-up and every timed slot, and reads the slot's
//! wall time at the reference speed: times [`NOMINAL_S`] over that
//! sample ([`Calibration::at_reference`]). Each time is scaled by the
//! host's speed of its own moment, so a run's times do not depend on
//! how its fast and slow spells fell. Over ten seeds per workload, the
//! interquartile spread of the rates and latencies was 10–26% of their
//! median read raw and 2.5–7.5% read this way.
//!
//! A sample times the kernel's second call of two: the first brings its
//! grids back into cache after the routing that preceded it, so how
//! much of the cache a router uses cannot move the sample. The kernel
//! is part of the benchmark, not of the router, so a change to the
//! router cannot move it either.
//!
//! The kernel runs on one thread, also for the workloads that keep two
//! busy. Run on both hardware threads at once it measured contention
//! between them that came and went by the hour (its time rose 45% from
//! one hour to the next) while two-thread chip routing ran at the same
//! speed, so it would have put that swing into the results.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Side of the kernel's grid, in cells.
const SIDE: usize = 96;
/// Floods per kernel call.
const SOURCES: usize = 3;

/// The kernel's time per sample at the reference speed: its median over
/// the runs the bounds were set with, on the two-thread host. A fixed
/// constant, so the reference speed is the same for every commit.
pub const NOMINAL_S: f64 = 0.47e-3;

/// The reference kernel: a fixed grid, about a fifth of it blocked.
#[derive(Debug, Clone)]
pub struct Kernel {
    blocked: Vec<bool>,
    dist: Vec<u32>,
    snapshot: Vec<u32>,
    queue: VecDeque<usize>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// The kernel's grid, the same on every host and run.
    pub fn new() -> Kernel {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let blocked = (0..SIDE * SIDE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 59 < 7
            })
            .collect();
        Kernel {
            blocked,
            dist: vec![u32::MAX; SIDE * SIDE],
            snapshot: vec![0; SIDE * SIDE],
            queue: VecDeque::with_capacity(SIDE * SIDE),
        }
    }

    /// Floods the grid from `source` and returns the sum of the reached
    /// cells' distances.
    fn flood(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.dist[source] = 0;
        self.queue.push_back(source);
        let mut sum = 0u64;
        while let Some(cell) = self.queue.pop_front() {
            let d = self.dist[cell];
            sum += u64::from(d);
            let (x, y) = (cell % SIDE, cell / SIDE);
            let mut visit = |next: usize| {
                if !self.blocked[next] && self.dist[next] == u32::MAX {
                    self.dist[next] = d + 1;
                    self.queue.push_back(next);
                }
            };
            if x > 0 {
                visit(cell - 1);
            }
            if x + 1 < SIDE {
                visit(cell + 1);
            }
            if y > 0 {
                visit(cell - SIDE);
            }
            if y + 1 < SIDE {
                visit(cell + SIDE);
            }
        }
        sum
    }

    /// One kernel call: a flood from each of the sources, each followed
    /// by a snapshot copy of the distances. Returns a checksum, the same
    /// on every call.
    pub fn run(&mut self) -> u64 {
        let mut sum = 0u64;
        for s in 0..SOURCES {
            let source = (s * 2 + 1) * SIDE * SIDE / (SOURCES * 2) + SIDE / 2;
            sum = sum.wrapping_mul(31).wrapping_add(self.flood(source));
            self.snapshot.copy_from_slice(&self.dist);
            sum ^= u64::from(black_box(&self.snapshot)[source + 1]);
        }
        sum
    }
}

/// Kernel times taken through a run.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    kernel: Kernel,
    /// Seconds per sample, in the order the samples were taken.
    pub samples_s: Vec<f64>,
}

impl Calibration {
    /// Calls the kernel twice and times the second call, which finds
    /// the kernel's grids in cache.
    pub fn sample(&mut self) {
        black_box(self.kernel.run());
        let start = Instant::now();
        black_box(self.kernel.run());
        self.samples_s.push(start.elapsed().as_secs_f64());
    }

    /// `secs` of wall time at the reference speed, scaled by the latest
    /// sample; unscaled before the first.
    pub fn at_reference(&self, secs: f64) -> f64 {
        self.samples_s.last().map_or(secs, |&k| secs * NOMINAL_S / k)
    }

    /// How much slower than nominal the host ran through the run: the
    /// median sample over the nominal time; 1 without samples.
    pub fn host_factor(&self) -> f64 {
        median(&self.samples_s).map_or(1.0, |m| m / NOMINAL_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_repeats_itself() {
        let mut k = Kernel::new();
        let first = k.run();
        assert_eq!(k.run(), first);
        assert_eq!(Kernel::new().run(), first);
        assert_ne!(first, 0);
    }

    #[test]
    fn times_scale_by_the_latest_sample() {
        let mut c = Calibration::default();
        assert_eq!(c.at_reference(0.3), 0.3);
        assert_eq!(c.host_factor(), 1.0);
        c.samples_s = vec![NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S];
        assert!((c.at_reference(0.3) - 0.15).abs() < 1e-12);
        assert!((c.host_factor() - 2.0).abs() < 1e-12);
        c.sample();
        assert_eq!(c.samples_s.len(), 4);
        assert!(c.samples_s[3] > 0.0);
    }
}
