//! Deterministic fault injection for the communication ring.
//!
//! A [`FaultPlan`] is a *seeded, declarative* description of everything that
//! should go wrong in a world: per-link delivery jitter, delivery
//! reordering, N-message stalls on a chosen link, a rank that dies after
//! its K-th communication operation, and payload corruption for checksum
//! tests. The plan is pure data — cloning it and running the same world
//! twice injects byte-identical faults at identical points, which is what
//! lets the chaos suite assert *equivalence* (delay-only plans must not
//! change training results at all) rather than mere survival.
//!
//! Mechanically, each rank's [`Communicator`](crate::Communicator) owns a
//! `RankInjector` derived from the plan. Every link `(src, dst)` gets its
//! own SplitMix64 stream seeded from `(plan.seed, src, dst)`, so fault
//! decisions on one link never perturb another link's stream — adding a
//! stall to link (0,1) cannot change which messages get jittered on (2,3).
//!
//! Fault classes:
//!
//! * **Delay jitter** (`with_delay_jitter`) — every message on every link
//!   gets an extra delivery delay uniform in `[0, max]`. Delay-only: never
//!   changes results, only timing.
//! * **Reorder** (`with_reorder`) — with probability `p`, a message is held
//!   back and delivered *after* the next message on the same link (one-slot
//!   swap). Held messages are always flushed before the sender blocks in a
//!   receive and when its communicator drops, so reordering can delay but
//!   never lose a delivery. Tag matching makes this invisible to results.
//! * **Stall** (`with_stall`) — messages `after..after+count` on one link
//!   each get a fixed extra delay, modelling a transient link brown-out.
//! * **Dead rank** (`with_dead_rank`) — the rank completes `at_op`
//!   communication operations, then every later operation fails with
//!   [`CommError::PeerDead`](crate::CommError::PeerDead) and the abort
//!   protocol tears down the surviving ranks.
//! * **Corruption** (`with_corruption`) — one message on one link has a
//!   payload bit flipped *after* its checksum was computed; the receiver
//!   detects [`CommError::Corrupt`](crate::CommError::Corrupt).

use std::time::Duration;

/// A stalled window on one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StallSpec {
    src: usize,
    dst: usize,
    /// Messages already delivered on the link before the stall begins.
    after: u64,
    /// How many consecutive messages the stall covers.
    count: u64,
    /// Extra delivery delay per stalled message.
    extra: Duration,
}

/// A rank crash scheduled at a communication-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeadRankSpec {
    rank: usize,
    /// Operations the rank completes before dying.
    at_op: u64,
}

/// A single corrupted message on one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CorruptSpec {
    src: usize,
    dst: usize,
    /// Index of the corrupted message on the link (0-based).
    msg: u64,
}

/// Seeded, declarative description of the faults to inject into a world.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay_jitter: Option<Duration>,
    reorder_prob: f64,
    stalls: Vec<StallSpec>,
    dead: Vec<DeadRankSpec>,
    corruptions: Vec<CorruptSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_jitter: None,
            reorder_prob: 0.0,
            stalls: Vec::new(),
            dead: Vec::new(),
            corruptions: Vec::new(),
        }
    }

    /// Add uniform `[0, max]` delivery jitter to every message on every
    /// link.
    pub fn with_delay_jitter(mut self, max: Duration) -> Self {
        self.delay_jitter = Some(max);
        self
    }

    /// Hold each message back one slot with probability `prob` (clamped to
    /// `[0, 1]`), swapping it with the next message on the same link.
    pub fn with_reorder(mut self, prob: f64) -> Self {
        self.reorder_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Stall messages `after..after+count` on link `src → dst` by `extra`
    /// each.
    pub fn with_stall(
        mut self,
        src: usize,
        dst: usize,
        after: u64,
        count: u64,
        extra: Duration,
    ) -> Self {
        self.stalls.push(StallSpec {
            src,
            dst,
            after,
            count,
            extra,
        });
        self
    }

    /// Kill `rank` after it completes `at_op` communication operations.
    /// Call repeatedly to schedule several victims (e.g. two simultaneous
    /// deaths for an 8 → 6 elastic shrink).
    pub fn with_dead_rank(mut self, rank: usize, at_op: u64) -> Self {
        self.dead.push(DeadRankSpec { rank, at_op });
        self
    }

    /// Flip one payload bit of message `msg` on link `src → dst`.
    pub fn with_corruption(mut self, src: usize, dst: usize, msg: u64) -> Self {
        self.corruptions.push(CorruptSpec { src, dst, msg });
        self
    }

    /// The plan's determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan can only delay or reorder deliveries — the class
    /// of plans under which training must be bit-identical to a fault-free
    /// run.
    pub fn is_delay_only(&self) -> bool {
        self.dead.is_empty() && self.corruptions.is_empty()
    }

    /// Render the plan as a compact spec string a multi-process launcher
    /// can pass on a worker's command line. Exact: [`from_spec`](Self::from_spec)
    /// reconstructs a plan that injects byte-identically (the reorder
    /// probability travels as f64 bits, not decimal).
    pub fn to_spec(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("seed={}", self.seed);
        if let Some(j) = self.delay_jitter {
            let _ = write!(s, ";jitter_ns={}", j.as_nanos());
        }
        if self.reorder_prob > 0.0 {
            let _ = write!(s, ";reorder_bits={:016x}", self.reorder_prob.to_bits());
        }
        for st in &self.stalls {
            let _ = write!(
                s,
                ";stall={},{},{},{},{}",
                st.src,
                st.dst,
                st.after,
                st.count,
                st.extra.as_nanos()
            );
        }
        for d in &self.dead {
            let _ = write!(s, ";dead={},{}", d.rank, d.at_op);
        }
        for c in &self.corruptions {
            let _ = write!(s, ";corrupt={},{},{}", c.src, c.dst, c.msg);
        }
        s
    }

    /// Parse a spec produced by [`to_spec`](Self::to_spec). Returns `None`
    /// on any malformed field.
    pub fn from_spec(spec: &str) -> Option<FaultPlan> {
        fn nums<const N: usize>(v: &str) -> Option<[u64; N]> {
            let parts: Vec<u64> = v
                .split(',')
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            parts.try_into().ok()
        }
        let mut plan: Option<FaultPlan> = None;
        for field in spec.split(';') {
            let (key, val) = field.split_once('=')?;
            if key == "seed" {
                plan = Some(FaultPlan::new(val.parse().ok()?));
                continue;
            }
            // Every other key follows the seed.
            let p = plan?;
            plan = Some(match key {
                "jitter_ns" => p.with_delay_jitter(Duration::from_nanos(val.parse().ok()?)),
                "reorder_bits" => {
                    let bits = u64::from_str_radix(val, 16).ok()?;
                    p.with_reorder(f64::from_bits(bits))
                }
                "stall" => {
                    let [src, dst, after, count, extra_ns] = nums::<5>(val)?;
                    p.with_stall(
                        src as usize,
                        dst as usize,
                        after,
                        count,
                        Duration::from_nanos(extra_ns),
                    )
                }
                "dead" => {
                    let [rank, at_op] = nums::<2>(val)?;
                    p.with_dead_rank(rank as usize, at_op)
                }
                "corrupt" => {
                    let [src, dst, msg] = nums::<3>(val)?;
                    p.with_corruption(src as usize, dst as usize, msg)
                }
                _ => return None,
            });
        }
        plan
    }
}

/// SplitMix64 step.
fn mix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)`.
fn mix_unit(state: &mut u64) -> f64 {
    (mix_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-link fault state: an independent RNG stream and a sent-message
/// counter.
#[derive(Debug)]
struct LinkFaultState {
    rng: u64,
    sent: u64,
}

/// Faults the injector decided to apply to one outgoing message.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct SendFaults {
    /// Extra delivery delay (jitter + stalls).
    pub extra_delay: Duration,
    /// Flip a payload bit after checksumming.
    pub corrupt: bool,
    /// Hold the message one slot (deliver after the link's next message).
    pub hold: bool,
    /// Number of distinct fault events decided (for the traffic meter).
    pub injected: u64,
}

/// One rank's materialised view of a [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct RankInjector {
    plan: FaultPlan,
    rank: usize,
    links: Vec<LinkFaultState>,
    ops: u64,
    dead: bool,
}

impl RankInjector {
    pub(crate) fn new(plan: FaultPlan, rank: usize, world: usize) -> Self {
        let links = (0..world)
            .map(|dst| {
                // Independent stream per directed link: seed mixed with
                // (src, dst) so links never share decisions.
                let mut s = plan.seed ^ 0x5FA0_17AB_C0FF_EE00;
                s = s.wrapping_add((rank as u64) << 32 ^ dst as u64);
                let _ = mix_next(&mut s);
                LinkFaultState { rng: s, sent: 0 }
            })
            .collect();
        RankInjector {
            plan,
            rank,
            links,
            ops: 0,
            dead: false,
        }
    }

    /// Called at the start of every communication operation on this rank.
    /// Returns true when the plan says the rank is dead from this operation
    /// onward.
    pub(crate) fn op_kills_rank(&mut self) -> bool {
        if self.dead {
            return true;
        }
        let spec = self.plan.dead.iter().find(|d| d.rank == self.rank).copied();
        if let Some(d) = spec {
            if self.ops >= d.at_op {
                self.dead = true;
                return true;
            }
            self.ops += 1;
        }
        false
    }

    /// Decide the faults for the next message on link `self.rank → dst`.
    pub(crate) fn on_send(&mut self, dst: usize) -> SendFaults {
        let st = &mut self.links[dst];
        let idx = st.sent;
        st.sent += 1;
        let mut f = SendFaults::default();
        if let Some(max) = self.plan.delay_jitter {
            let d = max.mul_f64(mix_unit(&mut st.rng));
            if !d.is_zero() {
                f.extra_delay += d;
                f.injected += 1;
            }
        }
        if self.plan.reorder_prob > 0.0 && mix_unit(&mut st.rng) < self.plan.reorder_prob {
            f.hold = true;
            f.injected += 1;
        }
        for s in &self.plan.stalls {
            if s.src == self.rank && s.dst == dst && idx >= s.after && idx < s.after + s.count {
                f.extra_delay += s.extra;
                f.injected += 1;
            }
        }
        for c in &self.plan.corruptions {
            if c.src == self.rank && c.dst == dst && c.msg == idx {
                f.corrupt = true;
                f.injected += 1;
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_delay_only());
        let mut inj = RankInjector::new(plan, 0, 4);
        for dst in 1..4 {
            for _ in 0..16 {
                assert_eq!(inj.on_send(dst), SendFaults::default());
            }
        }
        assert!(!inj.op_kills_rank());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(99)
            .with_delay_jitter(Duration::from_micros(500))
            .with_reorder(0.3);
        let decide = |plan: FaultPlan| -> Vec<SendFaults> {
            let mut inj = RankInjector::new(plan, 1, 4);
            (0..64)
                .map(|i| inj.on_send((i % 3) + 1 - usize::from((i % 3) + 1 == 1)))
                .collect::<Vec<_>>()
        };
        // Simpler: fixed dst sequence.
        let seq = |plan: FaultPlan| -> Vec<SendFaults> {
            let mut inj = RankInjector::new(plan, 1, 4);
            (0..64).map(|i| inj.on_send([0, 2, 3][i % 3])).collect()
        };
        let _ = decide;
        let a = seq(plan.clone());
        let b = seq(plan.clone());
        assert_eq!(a, b, "same plan must inject identically");
        let c = seq(FaultPlan::new(100)
            .with_delay_jitter(Duration::from_micros(500))
            .with_reorder(0.3));
        assert_ne!(a, c, "different seed must differ somewhere");
    }

    #[test]
    fn links_have_independent_streams() {
        let plan = FaultPlan::new(7).with_reorder(0.5);
        let mut inj = RankInjector::new(plan.clone(), 0, 3);
        let link1: Vec<bool> = (0..64).map(|_| inj.on_send(1).hold).collect();
        // Interleaving traffic on link 2 must not change link 1's stream.
        let mut inj2 = RankInjector::new(plan, 0, 3);
        let mut link1_interleaved = Vec::new();
        for _ in 0..64 {
            let _ = inj2.on_send(2);
            link1_interleaved.push(inj2.on_send(1).hold);
        }
        assert_eq!(link1, link1_interleaved);
    }

    #[test]
    fn dead_rank_counts_ops() {
        let plan = FaultPlan::new(0).with_dead_rank(2, 3);
        assert!(!plan.is_delay_only());
        let mut inj = RankInjector::new(plan.clone(), 2, 4);
        for _ in 0..3 {
            assert!(!inj.op_kills_rank(), "survives its first 3 ops");
        }
        assert!(inj.op_kills_rank(), "dies on op 4");
        assert!(inj.op_kills_rank(), "stays dead");
        // Other ranks are unaffected.
        let mut other = RankInjector::new(plan, 1, 4);
        for _ in 0..100 {
            assert!(!other.op_kills_rank());
        }
    }

    #[test]
    fn spec_round_trips_exactly() {
        let plans = [
            FaultPlan::new(42),
            FaultPlan::new(7)
                .with_delay_jitter(Duration::from_micros(500))
                .with_reorder(0.3),
            FaultPlan::new(99)
                .with_stall(0, 1, 2, 3, Duration::from_millis(7))
                .with_stall(2, 3, 0, 1, Duration::from_nanos(1))
                .with_dead_rank(2, 5)
                .with_dead_rank(5, 9)
                .with_corruption(0, 1, 4)
                .with_corruption(3, 0, 9),
        ];
        for plan in plans {
            let spec = plan.to_spec();
            let back =
                FaultPlan::from_spec(&spec).unwrap_or_else(|| panic!("spec must parse: {spec}"));
            assert_eq!(back, plan, "round trip through {spec}");
        }
        // An exact f64 round trip, not a decimal approximation.
        let p = FaultPlan::new(1).with_reorder(0.1 + 0.2);
        assert_eq!(FaultPlan::from_spec(&p.to_spec()).unwrap(), p);
        // Malformed specs are rejected, not misparsed.
        for bad in [
            "",
            "jitter_ns=5",
            "seed=1;stall=1,2",
            "seed=x",
            "seed=1;what=3",
        ] {
            assert!(FaultPlan::from_spec(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn stall_and_corruption_target_exact_messages() {
        let plan = FaultPlan::new(5)
            .with_stall(0, 1, 2, 2, Duration::from_millis(7))
            .with_corruption(0, 1, 4);
        let mut inj = RankInjector::new(plan, 0, 2);
        let faults: Vec<SendFaults> = (0..6).map(|_| inj.on_send(1)).collect();
        assert!(faults[0].extra_delay.is_zero() && !faults[0].corrupt);
        assert!(faults[1].extra_delay.is_zero());
        assert_eq!(faults[2].extra_delay, Duration::from_millis(7));
        assert_eq!(faults[3].extra_delay, Duration::from_millis(7));
        assert!(faults[4].corrupt);
        assert!(!faults[5].corrupt && faults[5].extra_delay.is_zero());
    }
}
