//! Seeded workload generation: catalog plans, pre-generated event sources,
//! per-home phase offsets and `FaultPlanner`/`FaultInjector` faults.
//!
//! Models are trained on a fixed catalog draw (seed [`CATALOG_SEED`]), so
//! every benchmark seed serves the same floor plans (14–49 groups each);
//! the benchmark seed picks which simulated days are served, each home's
//! phase offset and plan, and every fault. The program under test only
//! ever receives the generated events.

use dice_datasets::DatasetId;
use dice_faults::{FaultInjector, FaultPlanner};
use dice_sim::Simulator;
use dice_types::{DeviceRegistry, Event, EventLog, TimeDelta, Timestamp};

/// The catalog seed every plan is simulated with.
pub const CATALOG_SEED: u64 = 7;

/// Simulated hours each plan is trained on.
const TRAINING_HOURS: i64 = 48;

/// Minutes in one simulated day; sources for phase-offset homes span one.
const DAY_MINUTES: i64 = 24 * 60;

/// The three serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ~10k homes on the four ISLA/WSU catalog plans, 1/16 faulty, served
    /// by `Fleet::run` on one shard.
    FleetSmallHomes,
    /// A few hundred homes on the five `D_*` testbed routines, every one
    /// faulty, served by `Fleet::run` on one shard.
    FleetTestbedFaulty,
    /// One hh102-width home served by `HomeGateway::run`, cycling 24 h
    /// slices that each carry one fault.
    GatewayHh102,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::FleetSmallHomes,
        Kind::FleetTestbedFaulty,
        Kind::GatewayHh102,
    ];

    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetSmallHomes => "fleet-small-homes",
            Kind::FleetTestbedFaulty => "fleet-testbed-faulty",
            Kind::GatewayHh102 => "gateway-hh102",
        }
    }

    /// Whether the workload's serving path is the fleet (else the gateway).
    pub fn serves_fleet(self) -> bool {
        !matches!(self, Kind::GatewayHh102)
    }

    fn datasets(self) -> &'static [DatasetId] {
        match self {
            Kind::FleetSmallHomes => &[
                DatasetId::HouseA,
                DatasetId::HouseB,
                DatasetId::HouseC,
                DatasetId::Twor,
            ],
            Kind::FleetTestbedFaulty => &[
                DatasetId::DHouseA,
                DatasetId::DHouseB,
                DatasetId::DHouseC,
                DatasetId::DTwor,
                DatasetId::DHh102,
            ],
            Kind::GatewayHh102 => &[DatasetId::Hh102],
        }
    }
}

/// Input size: the full benchmark, or a smoke size for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` states.
    Full,
    /// A few seconds end to end, for the self-test.
    Smoke,
}

/// Sizes of one workload at one scale.
#[derive(Debug, Clone, Copy)]
struct Shape {
    homes: usize,
    minutes: i64,
    /// Distinct faulty streams; faulty homes share them round-robin.
    fault_pool: usize,
}

fn shape(kind: Kind, scale: Scale) -> Shape {
    match (kind, scale) {
        (Kind::FleetSmallHomes, Scale::Full) => Shape {
            homes: 10_000,
            minutes: 60,
            fault_pool: 625,
        },
        (Kind::FleetSmallHomes, Scale::Smoke) => Shape {
            homes: 160,
            minutes: 20,
            fault_pool: 10,
        },
        (Kind::FleetTestbedFaulty, Scale::Full) => Shape {
            homes: 256,
            minutes: 60,
            fault_pool: 64,
        },
        (Kind::FleetTestbedFaulty, Scale::Smoke) => Shape {
            homes: 10,
            minutes: 20,
            fault_pool: 5,
        },
        // Gateway "homes" are the 24 h slices served one after another.
        (Kind::GatewayHh102, Scale::Full) => Shape {
            homes: 3,
            minutes: DAY_MINUTES,
            fault_pool: 3,
        },
        (Kind::GatewayHh102, Scale::Smoke) => Shape {
            homes: 2,
            minutes: 120,
            fault_pool: 2,
        },
    }
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// draws, so they cannot shift when a library's RNG changes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded from `seed` and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One catalog floor plan and its simulator.
#[derive(Debug)]
pub struct Plan {
    /// The plan's simulator (catalog seed).
    pub sim: Simulator,
}

impl Plan {
    /// The plan's device registry.
    pub fn registry(&self) -> &DeviceRegistry {
        self.sim.registry()
    }

    /// The plan's training log: the first `TRAINING_HOURS` simulated.
    pub fn training_log(&self) -> EventLog {
        self.sim
            .log_between(Timestamp::ZERO, Timestamp::from_hours(TRAINING_HOURS))
    }
}

/// The catalog plans of `kind`.
pub fn plans(kind: Kind) -> Vec<Plan> {
    kind.datasets()
        .iter()
        .map(|&dataset| Plan {
            sim: Simulator::new(dataset.scenario(CATALOG_SEED)).expect("catalog scenario"),
        })
        .collect()
}

/// A pre-generated event stream with a per-minute index.
#[derive(Debug)]
pub struct Source {
    events: Vec<Event>,
    /// `minute_start[m]` is the index of the first event at or after minute
    /// `m` of the source; one extra entry closes the last minute.
    minute_start: Vec<usize>,
    /// Simulated time of the source's minute 0.
    origin: Timestamp,
}

impl Source {
    fn new(mut log: EventLog, origin: Timestamp, minutes: i64) -> Self {
        let events = log.events().to_vec();
        let mut minute_start = Vec::with_capacity(minutes as usize + 1);
        let mut i = 0;
        for m in 0..=minutes {
            let boundary = origin + TimeDelta::from_mins(m);
            while i < events.len() && events[i].at() < boundary {
                i += 1;
            }
            minute_start.push(i);
        }
        Source {
            events,
            minute_start,
            origin,
        }
    }

    /// Events of source minute `m`, in time order.
    pub fn minute(&self, m: usize) -> &[Event] {
        &self.events[self.minute_start[m]..self.minute_start[m + 1]]
    }
}

/// One served home: its id, plan (model index), source and phase offset.
#[derive(Debug, Clone, Copy)]
pub struct Home {
    /// Wire home id.
    pub id: u32,
    /// Index of the plan (and model) serving the home.
    pub plan: usize,
    /// Index of the home's source.
    pub source: usize,
    /// Source minute the home's stream starts at.
    pub offset: usize,
    /// Whether the home's stream carries injected faults.
    pub faulty: bool,
}

/// The generated serving input: sources and homes over `[0, minutes)`.
#[derive(Debug)]
pub struct Inputs {
    /// Served minutes per home.
    pub minutes: usize,
    /// Event sources homes read from.
    pub sources: Vec<Source>,
    /// Served homes, ascending by id.
    pub homes: Vec<Home>,
}

/// Moves an event by `by` (negative shifts to earlier).
fn shifted(event: &Event, by: TimeDelta) -> Event {
    let mut out = *event;
    match &mut out {
        Event::Sensor(r) => r.at -= by,
        Event::Actuator(a) => a.at -= by,
    }
    out
}

impl Inputs {
    /// The served range every home's stream lies in.
    pub fn range(&self) -> (Timestamp, Timestamp) {
        (Timestamp::ZERO, Timestamp::from_mins(self.minutes as i64))
    }

    /// Calls `f` with each event of `home`'s stream in minute `m`, shifted
    /// into the served range.
    #[inline]
    pub fn for_minute(&self, home: &Home, m: usize, mut f: impl FnMut(&Event)) {
        let source = &self.sources[home.source];
        let shift = (source.origin + TimeDelta::from_mins(home.offset as i64)) - Timestamp::ZERO;
        for event in source.minute(home.offset + m) {
            f(&shifted(event, shift));
        }
    }

    /// `home`'s whole stream, shifted into the served range.
    pub fn stream(&self, home: &Home) -> Vec<Event> {
        let mut out = Vec::new();
        for m in 0..self.minutes {
            self.for_minute(home, m, |e| out.push(*e));
        }
        out
    }

    /// Events across every home's stream.
    pub fn total_events(&self) -> usize {
        self.homes
            .iter()
            .map(|h| {
                let s = &self.sources[h.source];
                s.minute_start[h.offset + self.minutes] - s.minute_start[h.offset]
            })
            .sum()
    }
}

/// Generates the serving input of `kind` at `scale` from `seed`.
pub fn inputs(kind: Kind, scale: Scale, seed: u64, plans: &[Plan]) -> Inputs {
    let shape = shape(kind, scale);
    let minutes = shape.minutes;
    let mut rng = SplitMix::new(seed, 1);
    // The served days start after training, on a seed-chosen day.
    let live_day =
        |rng: &mut SplitMix| TRAINING_HOURS * 60 + DAY_MINUTES * (1 + rng.below(8) as i64);

    let mut sources = Vec::new();
    let mut homes = Vec::with_capacity(shape.homes);
    let planner = FaultPlanner::new(seed);
    let injector = FaultInjector::new(seed ^ 0x00FA_0175);

    // One faulty stream per pool slot: the slot's plan, a seeded day and
    // phase offset, one sensor fault, and on actuated plans every other
    // slot an actuator fault too.
    let mut pool = Vec::with_capacity(shape.fault_pool);
    for slot in 0..shape.fault_pool {
        let plan_idx = match kind {
            Kind::FleetSmallHomes => rng.below(plans.len() as u64) as usize,
            _ => slot % plans.len(),
        };
        let plan = &plans[plan_idx];
        let offset = if minutes < DAY_MINUTES {
            rng.below((DAY_MINUTES - minutes) as u64) as i64
        } else {
            0
        };
        let start = Timestamp::from_mins(live_day(&mut rng) + offset);
        let len = TimeDelta::from_mins(minutes);
        let log = plan.sim.log_between(start, start + len);
        let trial = slot as u64;
        let fault = planner.sensor_fault(trial, plan.registry(), start, len);
        let mut log = injector.inject_sensor(log, plan.registry(), &fault);
        if plan.registry().num_actuators() > 0 && slot % 2 == 1 {
            let fault = planner.actuator_fault(trial, plan.registry(), start, len);
            log = injector.inject_actuator(log, &fault);
        }
        pool.push((plan_idx, sources.len()));
        sources.push(Source::new(log, start, minutes));
    }

    // One healthy day per plan for the phase-offset homes.
    let healthy_base = sources.len();
    if kind == Kind::FleetSmallHomes {
        for plan in plans {
            let start = Timestamp::from_mins(live_day(&mut rng));
            let log = plan
                .sim
                .log_between(start, start + TimeDelta::from_mins(DAY_MINUTES));
            sources.push(Source::new(log, start, DAY_MINUTES));
        }
    }

    let faulty_residue = seed % 16;
    let mut faulty_homes = 0;
    for h in 0..shape.homes {
        let faulty =
            kind != Kind::FleetSmallHomes || (h as u64 + faulty_residue).is_multiple_of(16);
        let home = if faulty {
            let (plan, source) = pool[faulty_homes % pool.len()];
            faulty_homes += 1;
            Home {
                id: h as u32,
                plan,
                source,
                offset: 0,
                faulty,
            }
        } else {
            let plan = rng.below(plans.len() as u64) as usize;
            Home {
                id: h as u32,
                plan,
                source: healthy_base + plan,
                offset: rng.below((DAY_MINUTES - minutes) as u64) as usize,
                faulty,
            }
        };
        homes.push(home);
    }
    Inputs {
        minutes: minutes as usize,
        sources,
        homes,
    }
}
