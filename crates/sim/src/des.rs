//! The sharded discrete-event open-system engine.
//!
//! The legacy open-system path simulated every payment in isolation and
//! replayed the lock events through a sequential admission sweep
//! afterwards, so contention was an accounting afterthought and the
//! sweep serialized the whole campaign. This module replaces it with a
//! single discrete-event simulation: arrivals, admission/queueing,
//! lock/release and patience expiry are all in-band events against the
//! carried [`LiquidityBook`], so payments genuinely interleave on shared
//! escrows.
//!
//! Parallelism comes from **venue sharding**. Two payments can only
//! contend when their routes share a venue, so the venue set is
//! partitioned into connected components of the "routes overlap" graph
//! (union-find over every spec's [`VenueRoute`]); each component is one
//! *shard* with its own event heap, FIFO admission gate and
//! [`LiquidityBook::shard_view`]. Shards share nothing, so they run on
//! the worker pool ([`experiments::parallel_map`]) and merge
//! deterministically — shard order is first-arrival order, per-spec
//! results go back to spec order, and [`LiquidityBook::merge`] sums the
//! disjoint per-venue columns — which keeps the report **bit-identical
//! across thread counts**. A hub workload is one shard (every route
//! crosses the hub: contention is genuinely sequential); packetized
//! workloads split into one shard per path and scale near-linearly.
//!
//! Event ordering is total and payload-free: `(time, rank, seq)` with
//! ranks unlock < unreserve < rebalance < lock < arrival < expiry, and
//! `seq` — push order within the shard — the *sole* remaining
//! tiebreaker. Same-time same-rank events therefore pop in insertion
//! order, never in venue/amount order (see
//! `same_tick_same_rank_pops_in_insertion_order`).
//!
//! **Routed mode.** For the network families
//! ([`TopologyFamily::ScaleFree`] / [`TopologyFamily::SmallWorld`],
//! see `crate::workload`), passing a [`RoutingConfig`] switches
//! admission from the spec's pinned static route to live pathfinding:
//! each arrival asks a [`Router`] for the cheapest feasible path (then
//! for a venue-disjoint split) against the *current* book, so payments
//! route around drained venues. Successful payments *consume* spent
//! liquidity at their venues; an optional periodic [`EventKind::
//! Rebalance`] event models circular rebalancing flows that restore it.
//! Dynamic routes destroy venue-disjointness, so a routed run is one
//! shard — trivially bit-identical across thread counts, with the
//! router's deterministic tie-breaking keeping route choice a pure
//! function of the inputs.

use crate::faults::FaultPlan;
use crate::metrics::{
    BatchMetrics, InstanceResult, LiquidityStats, OpenReport, OpenTelemetry, RoutingStats,
    SimReport, VenueEvents,
};
use crate::runner::{run_instance_isolated, SimConfig};
use crate::workload::{PaymentSpec, ValuePlan, VenueRoute};
use anta::time::{SimDuration, SimTime};
use experiments::parallel_map;
use experiments::stats::Summary;
use protocol::harness::{sample_instance_faults, ProtocolHarness};
use protocol::liquidity::{AdmissionPolicy, LiquidityBook, LiquidityConfig};
use protocol::network::{GraphFamily, Router, RoutingConfig, VenueGraph};
use protocol::ProtocolOutcome;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Same-instant event ranks: actual unlocks settle first (the audit never
/// overstates a venue's simultaneous locked value), reservation returns
/// free gate capacity next, then rebalancing flows (a restore at `t`
/// sees every release that settled at `t`), then actual locks, then
/// arrivals (so a release at time `t` is visible to a payment arriving
/// at `t`), and a patience expiry loses to everything — a release at
/// exactly the deadline still admits.
pub(crate) const RANK_UNLOCK: u8 = 0;
pub(crate) const RANK_UNRESERVE: u8 = 1;
pub(crate) const RANK_REBALANCE: u8 = 2;
pub(crate) const RANK_LOCK: u8 = 3;
const RANK_ARRIVAL: u8 = 4;
const RANK_EXPIRY: u8 = 5;

/// What a popped event does to its shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Audited lock (`delta > 0`) or unlock (`delta < 0`) at a venue.
    Book {
        /// Global venue id.
        venue: u32,
        /// Signed locked-value delta.
        delta: i64,
    },
    /// A reservation return at a venue (frees admission capacity).
    Unreserve {
        /// Global venue id.
        venue: u32,
        /// Reserved amount being returned.
        amount: u64,
        /// Liquidity permanently spent at the venue when the reservation
        /// settles (a routed payment that *succeeded* moved value off the
        /// venue; zero for failures and for non-routed runs, which model
        /// collateral as returning intact).
        consume: u64,
    },
    /// A payment (shard-local index) reaches the admission gate.
    Arrival {
        /// Index into the shard's member list.
        local: u32,
    },
    /// A queued payment's patience runs out.
    Expiry {
        /// Index into the shard's member list.
        local: u32,
    },
    /// A periodic circular rebalancing flow: restores every venue's spent
    /// liquidity and reschedules itself one period later (routed mode
    /// only, and only while undecided payments remain).
    Rebalance,
}

/// One pending shard event. Ordering is **total on `(time, rank, seq)`
/// and nothing else** — the payload is deliberately excluded, so
/// same-time same-rank events pop in push order (`seq`), never in
/// venue/amount order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) time: SimTime,
    pub(crate) rank: u8,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.rank, self.seq) == (other.time, other.rank, other.seq)
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.rank, self.seq).cmp(&(other.time, other.rank, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Partitions the specs into venue-disjoint shards: union-find over each
/// route's venues, then one shard per connected component, ordered by
/// first arrival (specs are arrival-sorted, so the scan order is the
/// arrival order). Returns each shard's spec indices, in spec order.
pub(crate) fn shard_specs(specs: &[PaymentSpec], venues_hint: usize) -> Vec<Vec<usize>> {
    let max_venue = specs
        .iter()
        .filter_map(|s| s.venues.max_venue())
        .max()
        .map(|v| v as usize + 1)
        .unwrap_or(0);
    let n = venues_hint.max(max_venue).max(1);
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            // Path halving keeps the forest shallow without a rank array.
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for spec in specs {
        let mut venues = spec.venues.venues.iter();
        if let Some(&first) = venues.next() {
            let root = find(&mut parent, first);
            for &v in venues {
                let r = find(&mut parent, v);
                if r != root {
                    parent[r as usize] = root;
                }
            }
        }
    }
    let mut shard_of_root: BTreeMap<u32, usize> = BTreeMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let first = spec.venues.venues.first().copied().unwrap_or(0);
        let root = find(&mut parent, first);
        let shard = *shard_of_root.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[shard].push(i);
    }
    members
}

/// Everything one shard reports back for the deterministic merge.
pub(crate) struct ShardOutcome {
    /// `(spec index, result)` for every member, in spec order.
    pub(crate) results: Vec<(usize, InstanceResult)>,
    /// The shard's liquidity columns (zeros outside its venues).
    pub(crate) book: LiquidityBook,
    pub(crate) admitted: usize,
    pub(crate) rejected: usize,
    pub(crate) queued: usize,
    /// Gate waits of admitted queued payments (ticks).
    pub(crate) waits: Vec<u64>,
    /// Wasted waits of rejected payments (ticks).
    pub(crate) rejected_waits: Vec<u64>,
    /// Last event or decision instant in this shard.
    pub(crate) horizon: SimTime,
    pub(crate) goodput_value: u64,
    pub(crate) offered_value: u64,
    /// Per-venue activity counters (this shard's venues only).
    pub(crate) venue_events: BTreeMap<u32, VenueEvents>,
    /// Pathfinder counters (routed mode only).
    pub(crate) routing: Option<RoutingStats>,
}

/// The live-routing side of a shard: the venue network, the pathfinder
/// scratch, the knobs, and the countdown that stops rebalancing from
/// rescheduling forever once every payment has decided.
struct RoutedState {
    graph: VenueGraph,
    router: Router,
    cfg: RoutingConfig,
    /// Payments not yet admitted or rejected.
    undecided: usize,
    stats: RoutingStats,
}

impl RoutedState {
    fn new(family: GraphFamily, seed: u64, cfg: RoutingConfig, undecided: usize) -> Self {
        RoutedState {
            // Same family + same seed as workload generation: the router
            // sees exactly the network the specs' endpoints were drawn on.
            graph: VenueGraph::generate(family, seed),
            router: Router::new(),
            cfg,
            undecided,
            stats: RoutingStats::default(),
        }
    }
}

/// One shard's live simulation state: an event heap, the FIFO admission
/// gate and a shard-local liquidity view.
struct ShardSim<'a, H: ProtocolHarness> {
    harness: &'a H,
    specs: &'a [PaymentSpec],
    /// Spec indices of this shard's payments, in arrival order.
    members: &'a [usize],
    plan: &'a FaultPlan,
    policy: AdmissionPolicy,
    book: LiquidityBook,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// FIFO admission gate: shard-local indices of waiting payments.
    queue: VecDeque<u32>,
    decided: Vec<bool>,
    /// Per-member collateral demand (`VenueRoute::demand`).
    demands: Vec<Vec<(u32, u64)>>,
    results: Vec<Option<InstanceResult>>,
    queue_high: usize,
    admitted: usize,
    rejected: usize,
    queued: usize,
    waits: Vec<u64>,
    rejected_waits: Vec<u64>,
    horizon: SimTime,
    goodput_value: u64,
    offered_value: u64,
    /// Per-venue activity counters, keyed by global venue id. Shards are
    /// venue-disjoint, so the post-run merge is a plain union.
    venue_events: BTreeMap<u32, VenueEvents>,
    /// Live-routing state (`None` for static-route runs).
    routed: Option<RoutedState>,
}

/// The payee-visible value of a payment (its final-hop amount).
fn delivered(spec: &PaymentSpec) -> u64 {
    spec.plan.amounts.last().map(|a| a.amount).unwrap_or(0)
}

impl<'a, H: ProtocolHarness> ShardSim<'a, H> {
    fn new(
        harness: &'a H,
        specs: &'a [PaymentSpec],
        members: &'a [usize],
        plan: &'a FaultPlan,
        policy: AdmissionPolicy,
        template: &LiquidityBook,
        routed: Option<RoutedState>,
    ) -> Self {
        let mut sim = ShardSim {
            harness,
            specs,
            members,
            plan,
            policy,
            book: template.shard_view(),
            heap: BinaryHeap::with_capacity(members.len() * 4),
            seq: 0,
            queue: VecDeque::new(),
            decided: vec![false; members.len()],
            demands: members
                .iter()
                .map(|&si| specs[si].venues.demand(&specs[si].plan))
                .collect(),
            results: members.iter().map(|_| None).collect(),
            queue_high: 0,
            admitted: 0,
            rejected: 0,
            queued: 0,
            waits: Vec::new(),
            rejected_waits: Vec::new(),
            horizon: SimTime::ZERO,
            goodput_value: 0,
            offered_value: 0,
            venue_events: BTreeMap::new(),
            routed,
        };
        for (local, &si) in members.iter().enumerate() {
            sim.push(
                specs[si].arrival,
                RANK_ARRIVAL,
                EventKind::Arrival {
                    local: local as u32,
                },
            );
        }
        if let Some(rt) = &sim.routed {
            let period = rt.cfg.rebalance_period;
            if !period.is_zero() {
                sim.push(
                    SimTime::from_ticks(period.ticks()),
                    RANK_REBALANCE,
                    EventKind::Rebalance,
                );
            }
        }
        sim
    }

    fn push(&mut self, time: SimTime, rank: u8, kind: EventKind) {
        self.heap.push(Reverse(Event {
            time,
            rank,
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
    }

    /// Drives the shard to quiescence and reports.
    fn run(mut self) -> ShardOutcome {
        while let Some(Reverse(ev)) = self.heap.pop() {
            match ev.kind {
                EventKind::Book { venue, delta } => {
                    self.book.apply_lock(ev.time, venue, delta);
                    let ve = self.venue_events.entry(venue).or_default();
                    if delta < 0 {
                        ve.releases += 1;
                    } else {
                        ve.locks += 1;
                    }
                    self.horizon = self.horizon.max(ev.time);
                }
                EventKind::Unreserve {
                    venue,
                    amount,
                    consume,
                } => {
                    self.book.unreserve(venue, amount);
                    if consume > 0 {
                        // The payment moved value off this venue: its
                        // liquidity stays spent until a rebalancing flow
                        // restores it.
                        self.book.consume(venue, consume);
                    }
                    self.horizon = self.horizon.max(ev.time);
                    // Capacity came back: the gate's head may now fit.
                    self.drain_queue(ev.time);
                }
                EventKind::Arrival { local } => self.on_arrival(local, ev.time),
                EventKind::Expiry { local } => self.on_expiry(local, ev.time),
                EventKind::Rebalance => self.on_rebalance(ev.time),
            }
        }
        debug_assert!(
            self.queue.is_empty(),
            "every queued payment decides by its expiry event"
        );
        self.book.finish(self.horizon);
        ShardOutcome {
            results: self
                .members
                .iter()
                .zip(self.results)
                .map(|(&si, r)| (si, r.expect("every member decided")))
                .collect(),
            book: self.book,
            admitted: self.admitted,
            rejected: self.rejected,
            queued: self.queued,
            waits: self.waits,
            rejected_waits: self.rejected_waits,
            horizon: self.horizon,
            goodput_value: self.goodput_value,
            offered_value: self.offered_value,
            venue_events: self.venue_events,
            routing: self.routed.as_ref().map(|rt| rt.stats),
        }
    }

    fn on_arrival(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        let spec = &self.specs[self.members[li]];
        self.offered_value += delivered(spec);
        if self.routed.is_some() {
            self.on_arrival_routed(local, t);
            return;
        }
        if !self.policy.bounded() {
            self.admit(local, t);
            return;
        }
        // FIFO gate: an empty queue and a fitting demand admit on the
        // spot; head-of-line blocking otherwise.
        if self.queue.is_empty() && self.book.fits(&self.demands[li]) {
            self.admit(local, t);
            return;
        }
        // Queue only when waiting could ever help: the payer must have
        // patience and the demand must fit an *idle* venue. A demand no
        // budget can satisfy is refused on the spot with zero wasted wait.
        let can_wait =
            !self.policy.max_wait().is_zero() && self.book.could_ever_fit(&self.demands[li]);
        if can_wait {
            self.queue.push_back(local);
            let deadline = SimTime::from_ticks(
                spec.arrival
                    .ticks()
                    .saturating_add(self.policy.max_wait().ticks()),
            );
            self.push(deadline, RANK_EXPIRY, EventKind::Expiry { local });
        } else {
            self.reject(local, t);
        }
    }

    /// Routed admission: ask the pathfinder instead of checking the
    /// spec's static demand. FIFO fairness is kept — a non-empty gate
    /// means the head gets the next shot at the book, not this arrival.
    fn on_arrival_routed(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        if self.queue.is_empty() {
            if let Some(paths) = self.try_route(li, true) {
                self.admit_routed(local, t, paths);
                return;
            }
        }
        let spec = &self.specs[self.members[li]];
        let amount = delivered(spec);
        let rt = self.routed.as_ref().expect("routed arrival");
        let min_share = amount.div_ceil(rt.cfg.max_split.max(1) as u64);
        let rebalancing = !rt.cfg.rebalance_period.is_zero();
        // Waiting can only help when capacity can come back — a
        // reservation return (bounded gate) or a rebalancing flow — and
        // when even the smallest split share could ever fit a venue.
        let can_wait = !self.policy.max_wait().is_zero()
            && (self.policy.bounded() || rebalancing)
            && self.book.could_ever_fit(&[(0, min_share)]);
        if can_wait {
            self.queue.push_back(local);
            let deadline = SimTime::from_ticks(
                spec.arrival
                    .ticks()
                    .saturating_add(self.policy.max_wait().ticks()),
            );
            self.push(deadline, RANK_EXPIRY, EventKind::Expiry { local });
        } else {
            self.reject(local, t);
        }
    }

    /// One rebalancing flow: restore every venue's spent liquidity, give
    /// the gate's head a fresh shot, and reschedule one period later —
    /// but only while undecided payments remain, so the heap drains once
    /// the campaign is over. The horizon is deliberately *not* advanced:
    /// rebalancing is background plumbing, not payment activity.
    fn on_rebalance(&mut self, t: SimTime) {
        let period = match &self.routed {
            Some(rt) if !rt.cfg.rebalance_period.is_zero() && rt.undecided > 0 => {
                rt.cfg.rebalance_period
            }
            _ => return,
        };
        let restored = self.book.restore_all();
        if let Some(rt) = self.routed.as_mut() {
            rt.stats.rebalances += 1;
            rt.stats.restored_value += restored;
        }
        self.drain_queue(t);
        self.push(
            SimTime::from_ticks(t.ticks().saturating_add(period.ticks())),
            RANK_REBALANCE,
            EventKind::Rebalance,
        );
    }

    /// Asks the router for a feasible admission: a single cheapest path
    /// first, then venue-disjoint splits of increasing width. Returns
    /// `(path, per-hop share)` legs, or `None` when nothing fits right
    /// now. `at_arrival` distinguishes a payment's first attempt (counted
    /// as `no_path` on failure) from gate re-polls (not counted).
    fn try_route(&mut self, li: usize, at_arrival: bool) -> Option<Vec<(VenueRoute, u64)>> {
        let specs = self.specs;
        let spec = &specs[self.members[li]];
        let (src, dst) = spec.endpoints.expect("routed specs carry endpoints");
        let amount = delivered(spec);
        let rt = self.routed.as_mut().expect("routed mode");
        rt.stats.pathfind_calls += 1;
        if let Some(path) =
            rt.router
                .route(&rt.graph, src, dst, amount, rt.cfg.max_hops, &self.book)
        {
            return Some(vec![(path, amount)]);
        }
        for parts in 2..=rt.cfg.max_split {
            rt.stats.pathfind_calls += 1;
            if let Some(paths) = rt.router.route_multi(
                &rt.graph,
                src,
                dst,
                amount,
                parts,
                rt.cfg.max_hops,
                &self.book,
            ) {
                return Some(paths);
            }
        }
        if at_arrival {
            rt.stats.no_path += 1;
        }
        None
    }

    /// Runs an admitted routed payment: one deterministic instance per
    /// leg (leg 0 keeps the spec's seed, so a single-path admission
    /// replays the exact static-route faults), merged into one result —
    /// Success only when every leg succeeds, worst outcome otherwise.
    /// Only then are the book events scheduled, because the settlement's
    /// `consume` depends on the merged outcome.
    fn admit_routed(&mut self, local: u32, t: SimTime, paths: Vec<(VenueRoute, u64)>) {
        let li = local as usize;
        self.decided[li] = true;
        self.admitted += 1;
        self.horizon = self.horizon.max(t);
        self.note_decided();
        let specs = self.specs;
        let spec = &specs[self.members[li]];
        let wait = t.saturating_since(spec.arrival);
        {
            let rt = self.routed.as_mut().expect("routed admission");
            rt.stats.routed += 1;
            if paths.len() > 1 {
                rt.stats.split += 1;
            } else if paths[0].0 != spec.venues {
                rt.stats.rerouted += 1;
            }
        }
        // Per-leg salted seeds keep legs independent; salt 0 for leg 0.
        const SPLIT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
        let harness = self.harness;
        let plan = self.plan;
        let mut runs: Vec<(VenueRoute, InstanceResult)> = Vec::with_capacity(paths.len());
        for (j, (path, share)) in paths.into_iter().enumerate() {
            let sub = PaymentSpec {
                id: spec.id,
                family: spec.family,
                arrival: spec.arrival,
                n: path.hops(),
                plan: ValuePlan::uniform(path.hops(), share),
                params: spec.params,
                seed: spec.seed ^ SPLIT_SEED_SALT.wrapping_mul(j as u64),
                packet: spec.packet,
                route: spec.route,
                venues: path,
                endpoints: spec.endpoints,
            };
            let r = run_instance_isolated(harness, &sub, plan, true, &mut self.queue_high);
            runs.push((sub.venues, r));
        }
        // Merge: conjunction of legs. Latency is the slowest leg, peaks
        // and event counts sum, lock events concatenate with each leg's
        // hops offset past the previous legs' (matching the combined
        // route below, so the venue lookup stays a plain index).
        fn severity(o: ProtocolOutcome) -> u8 {
            match o {
                ProtocolOutcome::Violation => 4,
                ProtocolOutcome::Failed => 3,
                ProtocolOutcome::Stuck => 2,
                ProtocolOutcome::Refund => 1,
                _ => 0,
            }
        }
        let faults = runs[0].1.faults;
        let mut outcome = ProtocolOutcome::Success;
        let mut griefed = false;
        let mut latency = SimDuration::ZERO;
        let mut peak_locked = 0u64;
        let mut events = 0u64;
        let mut lock_profile: Vec<(SimTime, u32, i64)> = Vec::new();
        let mut all_venues: Vec<u32> = Vec::new();
        for (path, r) in &runs {
            if severity(r.outcome) > severity(outcome) {
                outcome = r.outcome;
            }
            griefed |= r.griefed;
            latency = latency.max(r.latency);
            peak_locked += r.peak_locked;
            events += r.events;
            let offset = all_venues.len() as u32;
            for &(te, hop, dv) in &r.lock_profile {
                lock_profile.push((te, hop + offset, dv));
            }
            all_venues.extend(path.venues.iter().copied());
        }
        let route_all = VenueRoute::new(all_venues);
        if !wait.is_zero() {
            self.queued += 1;
            self.waits.push(wait.ticks());
            for ev in lock_profile.iter_mut() {
                ev.0 += wait;
            }
            latency += wait;
        }
        // Schedule the audit stream and measure the per-venue footprint,
        // exactly as static admission does.
        let mut per_venue: BTreeMap<u32, (i64, i64, SimTime)> = BTreeMap::new();
        for &(te, hop, dv) in lock_profile.iter() {
            let Some(venue) = route_all.venue(hop as usize) else {
                continue;
            };
            let e = per_venue.entry(venue).or_insert((0, 0, te));
            e.0 += dv;
            e.1 = e.1.max(e.0);
            e.2 = e.2.max(te);
            let rank = if dv < 0 { RANK_UNLOCK } else { RANK_LOCK };
            self.push(te, rank, EventKind::Book { venue, delta: dv });
        }
        let success = outcome == ProtocolOutcome::Success;
        for &venue in per_venue.keys() {
            let ve = self.venue_events.entry(venue).or_default();
            ve.admitted += 1;
            if !wait.is_zero() {
                ve.queued += 1;
            }
        }
        if self.policy.bounded() {
            for (&venue, &(_, peak, last)) in &per_venue {
                if peak > 0 {
                    self.book.reserve(venue, peak as u64);
                    self.push(
                        last,
                        RANK_UNRESERVE,
                        EventKind::Unreserve {
                            venue,
                            amount: peak as u64,
                            consume: if success { peak as u64 } else { 0 },
                        },
                    );
                }
            }
        }
        if success {
            self.goodput_value += delivered(spec);
        }
        self.results[li] = Some(InstanceResult {
            id: spec.id,
            family: spec.family,
            outcome,
            griefed,
            faults,
            latency,
            peak_locked,
            events,
            packet: spec.packet,
            route: spec.route,
            lock_profile,
        });
    }

    /// Routed mode tracks how many payments are still undecided so the
    /// rebalance event knows when to stop rescheduling itself.
    fn note_decided(&mut self) {
        if let Some(rt) = self.routed.as_mut() {
            rt.undecided -= 1;
        }
    }

    fn on_expiry(&mut self, local: u32, t: SimTime) {
        if self.decided[local as usize] {
            return; // Admitted before the deadline: the expiry is stale.
        }
        self.queue.retain(|&q| q != local);
        self.reject(local, t);
        // An expired head unblocks the payments waiting behind it.
        self.drain_queue(t);
    }

    /// Admits from the gate's head while capacity lasts (FIFO: a blocked
    /// head blocks everyone behind it, whatever they demand). In routed
    /// mode the head's shot is a fresh pathfinding attempt against the
    /// current book rather than its static demand.
    fn drain_queue(&mut self, t: SimTime) {
        if self.routed.is_some() {
            while let Some(&head) = self.queue.front() {
                match self.try_route(head as usize, false) {
                    Some(paths) => {
                        self.queue.pop_front();
                        self.admit_routed(head, t, paths);
                    }
                    None => break,
                }
            }
            return;
        }
        while let Some(&head) = self.queue.front() {
            if !self.book.fits(&self.demands[head as usize]) {
                break;
            }
            self.queue.pop_front();
            self.admit(head, t);
        }
    }

    fn admit(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        self.decided[li] = true;
        self.admitted += 1;
        self.horizon = self.horizon.max(t);
        self.note_decided();
        let spec = &self.specs[self.members[li]];
        let wait = t.saturating_since(spec.arrival);
        for &(venue, _) in &self.demands[li] {
            let ve = self.venue_events.entry(venue).or_default();
            ve.admitted += 1;
            if !wait.is_zero() {
                ve.queued += 1;
            }
        }
        let mut r =
            run_instance_isolated(self.harness, spec, self.plan, true, &mut self.queue_high);
        if !wait.is_zero() {
            self.queued += 1;
            self.waits.push(wait.ticks());
            // A delayed start shifts the whole (deterministic) run by the
            // wait, payer-visible latency included.
            for ev in r.lock_profile.iter_mut() {
                ev.0 += wait;
            }
            r.latency += wait;
        }
        // Schedule the audit stream and measure the per-venue footprint:
        // peak locked (the reservation) and last event (its release).
        let mut per_venue: BTreeMap<u32, (i64, i64, SimTime)> = BTreeMap::new();
        for &(te, hop, dv) in r.lock_profile.iter() {
            let Some(venue) = spec.venues.venue(hop as usize) else {
                continue;
            };
            let e = per_venue.entry(venue).or_insert((0, 0, te));
            e.0 += dv;
            e.1 = e.1.max(e.0);
            e.2 = e.2.max(te);
            let rank = if dv < 0 { RANK_UNLOCK } else { RANK_LOCK };
            self.push(te, rank, EventKind::Book { venue, delta: dv });
        }
        if self.policy.bounded() {
            for (&venue, &(_, peak, last)) in &per_venue {
                if peak > 0 {
                    self.book.reserve(venue, peak as u64);
                    self.push(
                        last,
                        RANK_UNRESERVE,
                        EventKind::Unreserve {
                            venue,
                            amount: peak as u64,
                            consume: 0,
                        },
                    );
                }
            }
        }
        if r.outcome == ProtocolOutcome::Success {
            self.goodput_value += delivered(spec);
        }
        self.results[li] = Some(r);
    }

    fn reject(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        self.decided[li] = true;
        self.rejected += 1;
        self.horizon = self.horizon.max(t);
        self.note_decided();
        let spec = &self.specs[self.members[li]];
        // The payment never starts: no locks, no run, only the payer's
        // *actual* wasted patience (zero for an on-the-spot refusal).
        let wasted = t.saturating_since(spec.arrival).min(self.policy.max_wait());
        for &(venue, _) in &self.demands[li] {
            let ve = self.venue_events.entry(venue).or_default();
            ve.rejected += 1;
            if !wasted.is_zero() {
                ve.expired += 1;
            }
        }
        self.rejected_waits.push(wasted.ticks());
        self.results[li] = Some(InstanceResult {
            id: spec.id,
            family: spec.family,
            outcome: ProtocolOutcome::Rejected,
            griefed: false,
            faults: sample_instance_faults(self.harness, spec, self.plan),
            latency: wasted,
            peak_locked: 0,
            events: 0,
            packet: spec.packet,
            route: spec.route,
            lock_profile: Vec::new(),
        });
    }
}

/// Open-system steady state over pre-generated specs: shards the venue
/// set, runs one discrete-event simulation per shard on the worker pool,
/// and merges deterministically (see the module docs; the public surface
/// is [`crate::runner::run_open_specs_with`] and its siblings). The
/// per-venue telemetry sidecar is moved out of the same merged shard
/// outcomes as the report, so it costs nothing extra and matches it
/// bit-for-bit.
pub(crate) fn run_open_specs_des<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: Option<&RoutingConfig>,
) -> (OpenReport, OpenTelemetry) {
    let raw = run_open_specs_raw(harness, specs, cfg, liq, routing);
    let telemetry = OpenTelemetry {
        venues: raw.venues,
        venue_events: raw.venue_events,
        routing: raw.routing,
    };
    let mut batch = BatchMetrics::with_capacity(raw.results.len());
    for r in raw.results {
        batch.push(r);
    }
    let report = OpenReport {
        sim: SimReport::merge(vec![batch], true),
        liquidity: raw.liquidity,
        routing: raw.routing,
    };
    (report, telemetry)
}

/// The unaggregated outcome of one open-system run: spec-ordered rows,
/// the liquidity stats, and the raw wait samples the stats summarized —
/// the campaign layer folds all of these into its streaming sketches
/// instead of materializing a [`SimReport`] per epoch.
pub(crate) struct OpenRaw {
    /// Per-instance rows, in spec order.
    pub results: Vec<InstanceResult>,
    /// The epoch's liquidity-side statistics.
    pub liquidity: LiquidityStats,
    /// Gate waits of admitted-but-queued payments (ticks), merge order.
    pub waits: Vec<u64>,
    /// Wasted waits of rejected payments (ticks), merge order.
    pub rejected_waits: Vec<u64>,
    /// Per-venue end-of-run samples (venue-id order) — the raw material
    /// of the campaign's per-epoch venue time-series.
    pub venues: Vec<protocol::VenueSample>,
    /// Per-venue DES activity counters (venue-id order).
    pub venue_events: Vec<(u32, VenueEvents)>,
    /// Pathfinder counters (routed runs only).
    pub routing: Option<RoutingStats>,
}

/// The engine behind [`run_open_specs_des`] (see [`OpenRaw`]).
///
/// `routing` switches on liquidity-aware admission-time pathfinding; it
/// only takes effect for workloads whose family carries a venue network
/// ([`crate::workload::TopologyFamily::graph`]). A routed run is a
/// single shard: dynamic routes may touch any venue, so venue-disjoint
/// sharding is impossible — and a single shard is trivially
/// bit-identical across thread counts.
pub(crate) fn run_open_specs_raw<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: Option<&RoutingConfig>,
) -> OpenRaw {
    assert!(
        harness.supports(&cfg.workload),
        "{} does not support this workload ({:?}); gate on supports()",
        harness.name(),
        cfg.workload.family,
    );
    debug_assert!(
        specs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "open-system admission needs arrival-ordered specs"
    );
    let venues = cfg.workload.family.venues();
    let routed_cfg: Option<(RoutingConfig, GraphFamily)> =
        routing.and_then(|rc| cfg.workload.family.graph().map(|fam| (*rc, fam)));
    let members = if routed_cfg.is_some() {
        vec![(0..specs.len()).collect::<Vec<usize>>()]
    } else {
        shard_specs(specs, venues)
    };
    let template = LiquidityBook::new(liq, venues);
    let seed = cfg.workload.seed;
    let outcomes: Vec<ShardOutcome> = parallel_map(&members, cfg.threads, |shard| {
        let routed = routed_cfg.map(|(rc, fam)| RoutedState::new(fam, seed, rc, shard.len()));
        ShardSim::new(
            harness,
            specs,
            shard,
            &cfg.faults,
            liq.policy,
            &template,
            routed,
        )
        .run()
    });

    // Deterministic merge: shard outcomes arrive in shard order whatever
    // the thread count, per-spec results go back to spec order, and the
    // venue-disjoint book columns sum.
    let mut book = template;
    let mut per_spec: Vec<Option<InstanceResult>> = specs.iter().map(|_| None).collect();
    let (mut admitted, mut rejected, mut queued) = (0usize, 0usize, 0usize);
    let mut waits: Vec<u64> = Vec::new();
    let mut rejected_waits: Vec<u64> = Vec::new();
    let mut horizon_end = SimTime::ZERO;
    let (mut goodput_value, mut offered_value) = (0u64, 0u64);
    let mut venue_events: BTreeMap<u32, VenueEvents> = BTreeMap::new();
    let mut routing_stats: Option<RoutingStats> = routed_cfg.map(|_| RoutingStats::default());
    for shard in outcomes {
        admitted += shard.admitted;
        rejected += shard.rejected;
        queued += shard.queued;
        waits.extend(shard.waits);
        rejected_waits.extend(shard.rejected_waits);
        horizon_end = horizon_end.max(shard.horizon);
        goodput_value += shard.goodput_value;
        offered_value += shard.offered_value;
        for (venue, ev) in shard.venue_events {
            venue_events.entry(venue).or_default().absorb(&ev);
        }
        if let (Some(acc), Some(rs)) = (routing_stats.as_mut(), shard.routing.as_ref()) {
            acc.absorb(rs);
        }
        book.merge(&shard.book);
        for (si, r) in shard.results {
            debug_assert!(per_spec[si].is_none(), "spec {si} decided twice");
            per_spec[si] = Some(r);
        }
    }
    book.finish(horizon_end);

    let horizon = horizon_end.saturating_since(SimTime::ZERO);
    let liquidity = LiquidityStats {
        offered: specs.len(),
        admitted,
        rejected,
        queued,
        wait: Summary::of(&waits),
        rejected_wait: Summary::of(&rejected_waits),
        shards: members.len(),
        horizon,
        budget: book.budget(),
        venues: book.venues(),
        peak_locked_venue: book.peak_locked_venue(),
        peak_reserved_venue: book.peak_reserved_venue(),
        utilization_ppm: book.utilization_ppm(horizon),
        budget_violations: book.violations(),
        drained: book.drained(),
        goodput_value,
        offered_value,
    };
    let results: Vec<InstanceResult> = per_spec
        .into_iter()
        .map(|r| r.expect("every spec decided"))
        .collect();
    let venues_series = book.venue_samples();
    OpenRaw {
        results,
        liquidity,
        waits,
        rejected_waits,
        venues: venues_series,
        venue_events: venue_events.into_iter().collect(),
        routing: routing_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// Satellite regression: two venues releasing at the same tick pop in
    /// insertion order — `seq` is the sole tiebreaker after `(time,
    /// rank)`, the payload (venue, amount) never orders events.
    #[test]
    fn same_tick_same_rank_pops_in_insertion_order() {
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        // Push venue 9 before venue 2: venue order would pop 2 first,
        // insertion order must pop 9 first.
        for (seq, venue) in [(0u64, 9u32), (1, 2)] {
            heap.push(Reverse(Event {
                time: t(100),
                rank: RANK_UNLOCK,
                seq,
                kind: EventKind::Book {
                    venue,
                    delta: -(venue as i64),
                },
            }));
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(ev)| match ev.kind {
                EventKind::Book { venue, .. } => venue,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![9, 2], "insertion order, not venue order");
    }

    #[test]
    fn event_order_is_time_then_rank_then_seq() {
        let ev = |time, rank, seq| Event {
            time: t(time),
            rank,
            seq,
            kind: EventKind::Arrival { local: 0 },
        };
        assert!(ev(5, RANK_EXPIRY, 0) < ev(6, RANK_UNLOCK, 1));
        assert!(ev(5, RANK_UNLOCK, 7) < ev(5, RANK_UNRESERVE, 0));
        assert!(ev(5, RANK_LOCK, 3) < ev(5, RANK_LOCK, 4));
        // Equality ignores the payload entirely.
        let a = Event {
            kind: EventKind::Book { venue: 1, delta: 5 },
            ..ev(5, RANK_LOCK, 3)
        };
        assert_eq!(a, ev(5, RANK_LOCK, 3));
    }

    #[test]
    fn hub_routes_collapse_to_one_shard() {
        let specs = workload::generate(&WorkloadConfig::new(
            TopologyFamily::HubAndSpoke { spokes: 6 },
            32,
            7,
        ));
        let members = shard_specs(&specs, 6);
        assert_eq!(members.len(), 1, "every route crosses the hub");
        assert_eq!(members[0].len(), 32);
        assert!(members[0].windows(2).all(|w| w[0] < w[1]), "spec order");
    }

    #[test]
    fn packetized_paths_shard_independently() {
        let (paths, hops) = (4usize, 3usize);
        let specs = workload::generate(&WorkloadConfig::new(
            TopologyFamily::Packetized { paths, hops },
            40,
            11,
        ));
        let members = shard_specs(&specs, paths * hops);
        assert_eq!(members.len(), paths, "one shard per disjoint path");
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), specs.len());
        // Shards are venue-disjoint.
        let mut seen: Vec<Vec<u32>> = Vec::new();
        for shard in &members {
            let mut venues: Vec<u32> = shard
                .iter()
                .flat_map(|&si| specs[si].venues.venues.iter().copied())
                .collect();
            venues.sort_unstable();
            venues.dedup();
            for prior in &seen {
                assert!(prior.iter().all(|v| !venues.contains(v)));
            }
            seen.push(venues);
        }
    }
}
