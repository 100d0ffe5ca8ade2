//! Liquidity-aware dynamic routing over random venue networks: the
//! routed open-system engine must stay **bit-identical across thread
//! counts** on both network families, the pathfinder's chosen routes
//! must be feasible at the admission instant and within the hop cap,
//! and rebalancing flows must actually restore spent liquidity.
//!
//! Engine runs are comparatively slow in debug builds, so the proptest
//! case counts are modest; the properties are exact, not statistical.

use crosschain::anta::time::SimDuration;
use crosschain::payment::ValuePlan;
use crosschain::sim::prelude::*;
use proptest::prelude::*;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig {
        cases: n,
        ..ProptestConfig::default()
    }
}

/// A tight-budget routed workload on the given network family: bursty
/// arrivals over small per-venue budgets, so admission genuinely
/// contends and the router genuinely reroutes.
fn routed_cfg(family: TopologyFamily, payments: usize, seed: u64, threads: usize) -> SimConfig {
    let mut workload = WorkloadConfig::new(family, payments, seed);
    workload.amount = (100, 2_000);
    workload.max_commission = 0;
    workload.arrivals = ArrivalProcess::Bursty {
        burst: 16,
        gap: SimDuration::from_millis(30),
    };
    SimConfig {
        threads,
        batch: 16,
        ..SimConfig::new(workload)
    }
}

/// Everything a routed open report asserts: the closed-world counters,
/// the liquidity audit and the routing counters, flattened for exact
/// comparison.
#[allow(clippy::type_complexity)]
fn routed_digest(
    r: &crosschain::sim::OpenReport,
) -> (
    (usize, usize, usize, usize, Option<u64>),
    (u64, u64, u64, usize, bool, u64),
    Option<(u64, u64, u64, u64, u64, u64, u64)>,
) {
    let l = &r.liquidity;
    (
        (
            r.sim.instances,
            l.admitted,
            l.rejected,
            l.queued,
            r.sim.peak_locked_global,
        ),
        (
            l.horizon.ticks(),
            l.peak_locked_venue,
            l.peak_reserved_venue,
            l.budget_violations,
            l.drained,
            l.goodput_value,
        ),
        r.routing.map(|rs| {
            (
                rs.routed,
                rs.rerouted,
                rs.split,
                rs.no_path,
                rs.pathfind_calls,
                rs.rebalances,
                rs.restored_value,
            )
        }),
    )
}

fn assert_threads_identical(family: TopologyFamily, seed: u64) {
    let routing = RoutingConfig::with_rebalance(SimDuration::from_millis(20));
    let liq = LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let run = |threads: usize| {
        let cfg = routed_cfg(family, 160, seed, threads);
        let specs = crosschain::sim::workload::generate(&cfg.workload);
        crosschain::sim::run_open_specs_routed_with(
            &TimeBoundedHarness,
            &specs,
            &cfg,
            &liq,
            &routing,
        )
    };
    let serial = run(1);
    let two = run(2);
    let parallel = run(4);
    assert_eq!(routed_digest(&serial), routed_digest(&two));
    assert_eq!(routed_digest(&serial), routed_digest(&parallel));
    for (a, b) in serial.sim.families.iter().zip(&parallel.sim.families) {
        assert_eq!(a.success.hits, b.success.hits);
        assert_eq!(a.instances, b.instances);
    }
    let rs = serial.routing.expect("routed run reports routing stats");
    assert!(rs.routed > 0, "the pathfinder actually admitted payments");
    assert!(
        rs.rebalances > 0,
        "the rebalancing period fired at least once"
    );
    assert_eq!(
        serial.liquidity.shards, 1,
        "a routed run is a single shard by construction"
    );
}

#[test]
fn routed_scalefree_report_identical_across_thread_counts() {
    assert_threads_identical(
        TopologyFamily::ScaleFree {
            venues: 96,
            attach: 2,
        },
        0xE11A,
    );
}

#[test]
fn routed_smallworld_report_identical_across_thread_counts() {
    assert_threads_identical(
        TopologyFamily::SmallWorld {
            nodes: 48,
            rewire_permille: 100,
        },
        0xE11B,
    );
}

/// Rebalancing restores spent liquidity: with successful payments
/// consuming venue budgets, a rebalanced run must restore value, and its
/// success count must be at least the unrebalanced run's on the same
/// specs (capacity only ever comes back).
#[test]
fn rebalancing_restores_spent_liquidity() {
    let family = TopologyFamily::ScaleFree {
        venues: 96,
        attach: 2,
    };
    let cfg = routed_cfg(family, 200, 0x51EE7, 0);
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    let liq = LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let still = crosschain::sim::run_open_specs_routed_with(
        &TimeBoundedHarness,
        &specs,
        &cfg,
        &liq,
        &RoutingConfig::new(),
    );
    let rebalanced = crosschain::sim::run_open_specs_routed_with(
        &TimeBoundedHarness,
        &specs,
        &cfg,
        &liq,
        &RoutingConfig::with_rebalance(SimDuration::from_millis(10)),
    );
    let rs = rebalanced.routing.unwrap();
    assert!(rs.rebalances > 0);
    assert!(
        rs.restored_value > 0,
        "successful payments spend liquidity; rebalancing must restore some"
    );
    assert!(
        successes(&rebalanced) >= successes(&still),
        "restored capacity can only help ({} vs {})",
        successes(&rebalanced),
        successes(&still)
    );
    assert_eq!(rebalanced.liquidity.budget_violations, 0);
    assert!(rebalanced.liquidity.drained);
}

/// Successful payments across every family of a report.
fn successes(r: &crosschain::sim::OpenReport) -> usize {
    r.sim.families.iter().map(|f| f.success.hits).sum()
}

/// Walks a route through the graph from `src`, asserting every hop is a
/// real edge adjacent to the walk's current node, and returns the node
/// it ends at.
fn walk(g: &VenueGraph, src: u32, venues: &[u32]) -> u32 {
    let mut at = src;
    for &v in venues {
        let (a, b) = g.endpoints(v);
        at = if a == at {
            b
        } else if b == at {
            a
        } else {
            panic!("venue {v} ({a}-{b}) is not adjacent to node {at}");
        };
    }
    at
}

proptest! {
    #![proptest_config(cases(24))]

    /// Every route the pathfinder returns is feasible against the book
    /// **at the instant it was chosen** (its aggregate per-venue demand
    /// fits), is a real walk from src to dst, and never exceeds the hop
    /// cap — under arbitrary pre-existing reservations and spends.
    #[test]
    fn chosen_paths_are_feasible_and_hop_capped(
        seed in 0u64..1_000,
        attach in 2usize..4,
        amount in 100u64..3_000,
        load_seed in 0u64..1_000,
    ) {
        let family = GraphFamily::ScaleFree { venues: 64, attach };
        let g = VenueGraph::generate(family, seed);
        let liq = LiquidityConfig::reject(4_000);
        let mut book = LiquidityBook::new(&liq, g.venues());
        // Deterministically pre-load some venues with reservations and
        // spends so feasibility genuinely bites.
        let mut x = load_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in 0..g.venues() as u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 => book.reserve(v, x % 4_000),
                1 => book.consume(v, x % 4_000),
                _ => {}
            }
        }
        let mut router = Router::new();
        let nodes = g.nodes() as u32;
        let src = (seed as u32) % nodes;
        let dst = (src + 1 + (load_seed as u32) % (nodes - 1)) % nodes;
        // The offset is in [1, nodes-1], so dst never collides with src.
        prop_assert!(src != dst);

        if let Some(path) = router.route(&g, src, dst, amount, 8, &book) {
            prop_assert!(path.hops() >= 1 && path.hops() <= 8);
            prop_assert_eq!(walk(&g, src, &path.venues), dst);
            let demand = path.demand(&ValuePlan::uniform(path.hops(), amount));
            prop_assert!(book.fits(&demand), "single path must fit at choice time");
        }
        if let Some(legs) = router.route_multi(&g, src, dst, amount, 2, 8, &book) {
            let mut seen: Vec<u32> = Vec::new();
            let mut total = 0u64;
            for (path, share) in &legs {
                prop_assert!(path.hops() >= 1 && path.hops() <= 8);
                prop_assert_eq!(walk(&g, src, &path.venues), dst);
                for &v in &path.venues {
                    prop_assert!(!seen.contains(&v), "split paths are venue-disjoint");
                    seen.push(v);
                }
                let demand = path.demand(&ValuePlan::uniform(path.hops(), *share));
                prop_assert!(book.fits(&demand), "each leg must fit at choice time");
                total += share;
            }
            prop_assert_eq!(total, amount, "shares cover the full value");
        }
    }
}

/// Feasible-edge BFS distances from `from`, test-local and independent
/// of the router: `None` marks nodes `from` cannot reach.
fn feasible_dist(g: &VenueGraph, from: u32, fits: &dyn Fn(u32) -> bool) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.nodes()];
    dist[from as usize] = Some(0);
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        let next = dist[u as usize].map(|d| d + 1);
        for &(v, venue) in g.neighbors(u) {
            if dist[v as usize].is_none() && fits(venue) {
                dist[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The least total load over every shortest feasible path from `at` to
/// the node whose feasible distances are `to_dst`, by enumerating those
/// paths: stepping only to a neighbour one hop closer visits exactly the
/// shortest paths, each once.
fn min_shortest_load(
    g: &VenueGraph,
    at: u32,
    to_dst: &[Option<usize>],
    fits: &dyn Fn(u32) -> bool,
    load: &dyn Fn(u32) -> u64,
) -> u64 {
    let here = to_dst[at as usize].expect("enumeration stays on shortest paths");
    if here == 0 {
        return 0;
    }
    g.neighbors(at)
        .iter()
        .filter(|&&(v, venue)| to_dst[v as usize] == Some(here - 1) && fits(venue))
        .map(|&(v, venue)| load(venue) + min_shortest_load(g, v, to_dst, fits, load))
        .min()
        .expect("a node at distance ≥ 1 has a neighbour one hop closer")
}

proptest! {
    #![proptest_config(cases(64))]

    /// On small graphs (≤ 40 nodes) of both families, `route` returns
    /// `None` exactly when the destination's feasible BFS distance
    /// exceeds the hop cap; otherwise its route has exactly that many
    /// hops, every hop fits the book, and its total load is the minimum
    /// over all shortest feasible paths. On the empty network `shortest`
    /// is hop-minimal and `reachable` is the plain BFS ball.
    #[test]
    fn routes_are_hop_minimal_then_load_minimal(
        small_world in 0u8..2,
        size in 6usize..39,
        seed in 0u64..1_000,
        amount in 100u64..3_000,
        load_seed in 0u64..1_000,
        max_hops in 1usize..=8,
    ) {
        let family = if small_world == 1 {
            GraphFamily::SmallWorld { nodes: size, rewire_permille: 200 }
        } else {
            GraphFamily::ScaleFree { venues: 2 * size, attach: 2 }
        };
        let g = VenueGraph::generate(family, seed);
        prop_assert!(g.nodes() <= 40);
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(4_000), g.venues());
        let mut x = load_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for v in 0..g.venues() as u32 {
            let r = next();
            match r % 4 {
                0 => book.reserve(v, r % 4_000),
                1 => book.consume(v, r % 4_000),
                _ => {}
            }
        }
        let fits = |venue: u32| book.fits(&[(venue, amount)]);
        let load = |venue: u32| book.load_at(venue);
        let any = |_: u32| true;
        let nodes = g.nodes() as u64;
        let mut router = Router::new();
        let mut ball = Vec::new();
        for _ in 0..16 {
            let src = (next() % nodes) as u32;
            let dst = ((u64::from(src) + 1 + next() % (nodes - 1)) % nodes) as u32;
            let to_dst = feasible_dist(&g, dst, &fits);
            match (to_dst[src as usize], router.route(&g, src, dst, amount, max_hops, &book)) {
                (Some(d), Some(path)) if d <= max_hops => {
                    prop_assert_eq!(path.hops(), d);
                    prop_assert_eq!(walk(&g, src, &path.venues), dst);
                    prop_assert!(path.venues.iter().all(|&v| fits(v)));
                    let total: u64 = path.venues.iter().map(|&v| load(v)).sum();
                    prop_assert_eq!(total, min_shortest_load(&g, src, &to_dst, &fits, &load));
                }
                (d, path) => prop_assert!(
                    path.is_none() && d.map_or(true, |d| d > max_hops),
                    "distance {:?} under cap {} but route {:?}",
                    d,
                    max_hops,
                    path
                ),
            }

            let plain = feasible_dist(&g, src, &any);
            let hops = router.shortest(&g, src, dst, max_hops).map(|p| p.hops());
            prop_assert_eq!(hops, plain[dst as usize].filter(|&d| d <= max_hops));
            router.reachable(&g, src, max_hops, &mut ball);
            let expect: Vec<u32> = (0..g.nodes() as u32)
                .filter(|&n| n != src && plain[n as usize].is_some_and(|d| d <= max_hops))
                .collect();
            prop_assert_eq!(&ball, &expect);
        }
    }
}
