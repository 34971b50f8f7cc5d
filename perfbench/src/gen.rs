//! Seeded input generation: workload definitions, container plans,
//! per-tick events (memory cycle, demand, `docker update`, launch and
//! terminate) and the reader key mix.
//!
//! Every input is a pure function of `--seed`, drawn from the
//! benchmark's own generator so that the inputs never change when the
//! code under test changes. The program under test receives only the
//! generated inputs.

/// Host shape every workload runs on.
pub const HOST_CPUS: u32 = 128;
pub const MIB: u64 = 1 << 20;

/// The two memory settings a `docker update` toggles a container
/// between, as `(reservation, limit)` in MiB. The ranges are disjoint,
/// so every toggle re-anchors the effective memory view at the new
/// reservation: each update moves the view.
pub const RANGE_A: (u64, u64) = (64, 256);
pub const RANGE_B: (u64, u64) = (384, 768);

/// Ticks in one charge/release cycle of a churning container.
pub const CYCLE: u64 = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Containers on the main host.
    pub large: usize,
    /// Containers on the scale-probe host (`large / 8`): the tick cost
    /// at both sizes gives `tick_exponent`.
    pub small: usize,
    /// Containers charge and release memory in a staggered cycle and
    /// vary their demand, so most views change every tick.
    pub churn: bool,
    /// Step once per `PERIOD` of wall time and keep the readers busy in
    /// between, instead of stepping back to back.
    pub paced: bool,
    /// Share of containers given a `docker update` each tick.
    pub update_share: f64,
    /// Replace (terminate + launch) one container every this many
    /// ticks; 0 never does.
    pub replace_every: u64,
    /// Wire requests per connection between two back-to-back ticks
    /// (paced workloads read until the next tick is due instead).
    pub reads_per_tick: usize,
    /// Share of `--seconds` spent on the scale-probe host.
    pub small_share: f64,
    /// Host memory as a multiple of the containers' mean footprint.
    pub memory_headroom: f64,
}

/// The update period of the paper (§5.4): one tick per 24 ms.
pub const PERIOD_MS: u64 = 24;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tick_scale",
        why: "near-zero churn on 500 and 4000 containers with every consumer attached, so per-container tick work that ignores churn dominates",
        large: 4000,
        small: 500,
        churn: false,
        paced: false,
        update_share: 0.005,
        replace_every: 0,
        reads_per_tick: 64,
        small_share: 0.2,
        memory_headroom: 2.0,
    },
    Workload {
        name: "read_serve",
        why: "200 steady containers stepped every 24 ms while 2 closed-loop connections read a skewed key mix, so view serving dominates",
        large: 200,
        small: 25,
        churn: false,
        paced: true,
        update_share: 0.015,
        replace_every: 0,
        reads_per_tick: 0,
        small_share: 0.15,
        memory_headroom: 2.0,
    },
    Workload {
        name: "churn_propagate",
        why: "1000 containers whose views change every tick plus 2% limit updates per tick, so publish, journal and fleet ingest work on real change",
        large: 1000,
        small: 125,
        churn: true,
        paced: false,
        update_share: 0.02,
        replace_every: 4,
        reads_per_tick: 24,
        small_share: 0.2,
        memory_headroom: 1.012,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How one container slot behaves over its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// `--cpus` quota.
    pub cpus: u32,
    /// `--cpu-shares`.
    pub shares: u64,
    /// Resident memory range in MiB; a steady container sits at `lo`.
    pub usage_lo: u64,
    pub usage_hi: u64,
    /// Offset into the charge/demand cycle.
    pub phase: u64,
}

impl Plan {
    /// Resident memory the container holds during `tick`, in MiB.
    pub fn usage_mib(&self, tick: u64) -> u64 {
        if self.usage_hi == self.usage_lo {
            return self.usage_lo;
        }
        // Triangle wave over one cycle.
        let pos = (tick + self.phase) % CYCLE;
        let up = if pos < CYCLE / 2 { pos } else { CYCLE - pos };
        self.usage_lo + (self.usage_hi - self.usage_lo) * up / (CYCLE / 2)
    }

    /// Runnable threads during `tick`.
    pub fn runnable(&self, tick: u64, churn: bool) -> u32 {
        if churn {
            1 + ((tick + self.phase) % 4) as u32
        } else {
            1
        }
    }

    /// Mean resident memory over a cycle, in MiB.
    pub fn mean_usage_mib(&self) -> f64 {
        (self.usage_lo + self.usage_hi) as f64 / 2.0
    }
}

/// What happens between two ticks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TickEvents {
    /// Slot whose container is terminated and relaunched with a fresh plan.
    pub replace: Option<usize>,
    /// Slots given a `docker update` (distinct).
    pub updates: Vec<usize>,
}

/// The per-host input stream: container plans and tick events.
#[derive(Debug, Clone)]
pub struct Inputs {
    w: Workload,
    slots: usize,
    plans: Rng,
    events: Rng,
}

const STREAM_PLANS: u64 = 1;
const STREAM_EVENTS: u64 = 2;
const STREAM_KEYS: u64 = 16;

impl Inputs {
    pub fn new(w: &Workload, seed: u64, slots: usize) -> Inputs {
        Inputs {
            w: *w,
            slots,
            plans: Rng::new(seed, STREAM_PLANS),
            events: Rng::new(seed, STREAM_EVENTS),
        }
    }

    /// The next container's plan (initial launches, then replacements).
    pub fn next_plan(&mut self) -> Plan {
        let r = &mut self.plans;
        let cpus = [1, 2, 4, 8][r.below(4) as usize];
        let shares = [512, 1024, 2048][r.below(3) as usize];
        let phase = r.below(CYCLE);
        let (usage_lo, usage_hi) = if self.w.churn {
            (16 + r.below(16), 160 + r.below(40))
        } else {
            let u = 32 + r.below(160);
            (u, u)
        };
        Plan {
            cpus,
            shares,
            usage_lo,
            usage_hi,
            phase,
        }
    }

    /// Events to apply after tick `tick` has run.
    pub fn tick_events(&mut self, tick: u64) -> TickEvents {
        let r = &mut self.events;
        let replace = (self.w.replace_every > 0 && tick.is_multiple_of(self.w.replace_every))
            .then(|| r.below(self.slots as u64) as usize);
        let want = ((self.slots as f64 * self.w.update_share).round() as usize).max(1);
        let mut updates: Vec<usize> = Vec::with_capacity(want);
        while updates.len() < want.min(self.slots) {
            let s = r.below(self.slots as u64) as usize;
            if !updates.contains(&s) && Some(s) != replace {
                updates.push(s);
            }
        }
        TickEvents { replace, updates }
    }
}

/// Who issues a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    Slot(usize),
    Host,
    /// A container id the daemon does not know.
    Unknown(u32),
}

/// What is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Sysconf(&'static str),
    Read(&'static str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub caller: Caller,
    pub req: Req,
}

const SYSCONF_KEYS: [&str; 4] = ["nprocessors_onln", "phys_pages", "avphys_pages", "pagesize"];

/// The seeded, skewed reader key mix: ~4% host or unknown callers; of
/// the rest, half hit a hot tenth of the slots and half spread over
/// every slot.
/// Half the requests are `sysconf` (mostly the CPU and memory sizes a
/// JVM or OpenMP runtime asks for), half read one of the six rendered
/// files.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: Rng,
    slots: usize,
    hot: usize,
}

impl KeyStream {
    pub fn new(seed: u64, stream: u64, slots: usize) -> KeyStream {
        KeyStream {
            rng: Rng::new(seed, STREAM_KEYS + stream),
            slots,
            hot: (slots / 10).max(4).min(slots),
        }
    }

    pub fn next_key(&mut self) -> Key {
        let r = &mut self.rng;
        let who = r.unit();
        let caller = if who < 0.02 {
            Caller::Host
        } else if who < 0.04 {
            Caller::Unknown(1_000_000 + r.below(1000) as u32)
        } else if r.unit() < 0.5 {
            Caller::Slot(r.below(self.hot as u64) as usize)
        } else {
            Caller::Slot(r.below(self.slots as u64) as usize)
        };
        let req = if r.unit() < 0.5 {
            let x = r.unit();
            let k = if x < 0.45 {
                0
            } else if x < 0.8 {
                1
            } else if x < 0.9 {
                2
            } else {
                3
            };
            Req::Sysconf(SYSCONF_KEYS[k])
        } else {
            // The two cgroup interface files exist only inside a
            // container; host and unknown callers read the other four.
            let paths = &arv_viewd::CONTAINER_PATHS;
            let n = if matches!(caller, Caller::Slot(_)) {
                paths.len()
            } else {
                4
            };
            Req::Read(paths[r.below(n as u64) as usize])
        };
        Key { caller, req }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a run feeds the program, for `ticks` ticks.
    fn input_sequence(w: &Workload, seed: u64, ticks: u64) -> String {
        let mut out = String::new();
        let mut inputs = Inputs::new(w, seed, w.large);
        let plans: Vec<Plan> = (0..w.large).map(|_| inputs.next_plan()).collect();
        for t in 0..ticks {
            let ev = inputs.tick_events(t);
            let p = plans[(t as usize) % plans.len()];
            out.push_str(&format!(
                "{t}:{ev:?}:{}:{}\n",
                p.usage_mib(t),
                p.runnable(t, w.churn)
            ));
            if ev.replace.is_some() {
                out.push_str(&format!("{:?}\n", inputs.next_plan()));
            }
        }
        out.push_str(&format!("{plans:?}\n"));
        for stream in 0..2 {
            let mut keys = KeyStream::new(seed, stream, w.large);
            for _ in 0..500 {
                out.push_str(&format!("{:?}\n", keys.next_key()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in &WORKLOADS {
            assert_eq!(input_sequence(w, 7, 64), input_sequence(w, 7, 64));
        }
    }

    #[test]
    fn different_seed_different_inputs() {
        for w in &WORKLOADS {
            assert_ne!(input_sequence(w, 7, 64), input_sequence(w, 8, 64));
        }
    }

    #[test]
    fn updates_are_distinct_and_skip_the_replaced_slot() {
        let w = workload("churn_propagate").unwrap();
        let mut inputs = Inputs::new(w, 3, w.large);
        for t in 0..200 {
            let ev = inputs.tick_events(t);
            assert_eq!(ev.updates.len(), 20);
            let mut u = ev.updates.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), ev.updates.len());
            assert!(ev.replace.is_none_or(|r| !ev.updates.contains(&r)));
        }
    }

    #[test]
    fn churn_cycle_stays_in_range_and_moves() {
        let p = Plan {
            cpus: 2,
            shares: 1024,
            usage_lo: 20,
            usage_hi: 180,
            phase: 3,
        };
        let seen: Vec<u64> = (0..CYCLE).map(|t| p.usage_mib(t)).collect();
        assert!(seen.iter().all(|u| (20..=180).contains(u)));
        assert!(seen.contains(&20) && seen.contains(&180));
        assert!(
            p.usage_mib(0) < RANGE_A.1,
            "usage stays under the smaller limit"
        );
    }
}
