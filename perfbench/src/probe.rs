//! Reference-core time.
//!
//! Virtual machines move their vCPUs between host cores of different
//! speed, and on a 2-vCPU VM the same code was measured at two speeds
//! about 1.7× apart that switched every few seconds. A run's wall-time
//! median then depends on how its time happened to split between the
//! two, which made the same code's medians spread by up to half their
//! value across runs.
//!
//! So each thread that times something keeps a [`Speedometer`]: a fixed
//! pointer walk, re-timed whenever its last timing is older than
//! [`STALE`], converts wall time on the current core into
//! *reference-core time* — the time on a core that runs the walk in
//! [`REF_US`]. The end-to-end times are reported in reference-core
//! units; the walk is the benchmark's own code, so no change to the
//! program under test can move it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Walk time of the reference core, microseconds.
pub const REF_US: f64 = 100.0;
/// Age after which the next reading re-times the walk.
const STALE: Duration = Duration::from_millis(10);
/// Entries in the walked map (a few hundred KiB of tree nodes, like the
/// maps the simulated host walks every tick).
const ENTRIES: u32 = 4096;
/// Walks per timing; the fastest of `TRIES` timings counts, so a cold
/// cache after the program's own work does not read as a slow core.
const WALKS: usize = 8;
const TRIES: usize = 2;

pub struct Speedometer {
    map: BTreeMap<u32, u64>,
    factor: f64,
    last: Instant,
    /// Every walk timing taken, microseconds.
    pub walks_us: Samples,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        let mut x: u64 = 1;
        let map = (0..ENTRIES)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (i.wrapping_mul(2_654_435_761), x)
            })
            .collect();
        let mut s = Speedometer {
            map,
            factor: 1.0,
            last: Instant::now(),
            walks_us: Samples::new(),
        };
        s.retime();
        s
    }

    fn retime(&mut self) {
        let us = (0..TRIES)
            .map(|_| {
                let t = Instant::now();
                let mut sum = 0u64;
                for _ in 0..WALKS {
                    for v in self.map.values() {
                        sum = sum.wrapping_add(*v);
                    }
                }
                std::hint::black_box(sum);
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::MAX, f64::min);
        self.walks_us.push(us);
        self.factor = REF_US / us;
        self.last = Instant::now();
    }

    /// Reference-core seconds per wall second on the current core.
    /// Take it before starting a timing, so a re-timing is not timed.
    pub fn factor(&mut self) -> f64 {
        if self.last.elapsed() >= STALE {
            self.retime();
        }
        self.factor
    }
}

/// Reference-core time of a span measured in pieces: each piece is
/// scaled by the factor read when it began.
pub struct RefClock {
    total_s: f64,
    piece: Instant,
    factor: f64,
}

impl RefClock {
    pub fn start(sm: &mut Speedometer) -> RefClock {
        let factor = sm.factor();
        RefClock {
            total_s: 0.0,
            piece: Instant::now(),
            factor,
        }
    }

    /// End the current piece when the speedometer is due to re-time
    /// (the re-timing itself is left out), and start the next one.
    pub fn lap(&mut self, sm: &mut Speedometer) {
        if sm.last.elapsed() >= STALE {
            self.total_s += self.piece.elapsed().as_secs_f64() * self.factor;
            self.factor = sm.factor();
            self.piece = Instant::now();
        }
    }

    pub fn stop(self) -> f64 {
        self.total_s + self.piece.elapsed().as_secs_f64() * self.factor
    }
}

/// CPU time the hypervisor gave to other guests while this VM's vCPUs
/// wanted to run: the `steal` column of the `cpu` line of `/proc/stat`,
/// in clock ticks summed over all CPUs. 0 where it cannot be read.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}
