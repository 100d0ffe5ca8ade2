//! Random venue networks and liquidity-aware dynamic routing.
//!
//! The paper proves its success guarantee on a fixed payment path; this
//! module asks whether the guarantee survives *realistic routing*:
//! thousands of shared venues whose balances drain and recover under
//! load. It provides
//!
//! * [`VenueGraph`] — seeded, deterministic generators for two standard
//!   random-network families: scale-free graphs grown by
//!   Barabási–Albert-style preferential attachment
//!   ([`GraphFamily::ScaleFree`]) and small-world graphs built by
//!   Watts–Strogatz ring rewiring ([`GraphFamily::SmallWorld`]). Every
//!   *edge* of the graph is one escrow venue (its id is the edge index),
//!   so a path between two nodes is a [`VenueRoute`];
//! * [`Router`] — a bounded-hop cheapest-feasible-path search that
//!   consults the live [`LiquidityBook`] at the admission instant, so
//!   payments route *around* drained venues, plus
//!   [`Router::route_multi`] which maps a split payment onto
//!   venue-disjoint parallel paths;
//! * [`RoutingConfig`] — the knobs a routed open-system run carries: hop
//!   cap, split width and the rebalancing period (`SimDuration::ZERO`
//!   disables rebalancing).
//!
//! Everything here is deterministic given `(family, seed)`: graph
//! generation draws from a salted [`StdRng`] and the pathfinder's
//! tie-breaking is a total order (see [`Router`]), which is what
//! lets routed open-system reports stay bit-identical across thread
//! counts.

use anta::time::SimDuration;
use payment::{VenueId, VenueRoute};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::liquidity::LiquidityBook;

/// Hop cap for routed payments: endpoint pairs are sampled so a path of
/// at most this many venues exists on the empty network, and the
/// pathfinder never returns a longer one.
pub const MAX_NET_HOPS: usize = 8;

/// Which random-network family to generate, with its size knobs. The
/// venue count ([`GraphFamily::venues`]) is exact — generators produce
/// precisely that many edges — so liquidity books and reports can be
/// sized without building the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// Scale-free graph grown by preferential attachment: starting from
    /// a triangle, each new node attaches `attach` edges to existing
    /// nodes sampled proportionally to their current degree
    /// (Barabási–Albert). Produces hub-dominated degree distributions —
    /// the payment-network shape where a few venues carry most routes.
    ScaleFree {
        /// Exact number of venues (edges) to generate; floored at 3.
        venues: usize,
        /// Edges each new node attaches with; clamped to `1..=3`.
        attach: usize,
    },
    /// Small-world graph by Watts–Strogatz rewiring: a ring of `nodes`
    /// nodes where each connects to its two nearest clockwise
    /// neighbours (distance 1 and 2, so exactly `2 × nodes` edges),
    /// then each edge's far endpoint is rewired to a uniform random
    /// node with probability `rewire_permille / 1000` (self-loops and
    /// duplicate edges are re-drawn a bounded number of times, then
    /// kept in place).
    SmallWorld {
        /// Ring size; floored at 6. The venue count is `2 × nodes`.
        nodes: usize,
        /// Rewiring probability in parts per thousand.
        rewire_permille: u64,
    },
}

impl GraphFamily {
    /// Short stable label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            GraphFamily::ScaleFree { .. } => "scalefree",
            GraphFamily::SmallWorld { .. } => "smallworld",
        }
    }

    /// The exact number of venues (edges) [`VenueGraph::generate`]
    /// produces for this family.
    pub fn venues(&self) -> usize {
        match self {
            GraphFamily::ScaleFree { venues, .. } => (*venues).max(3),
            GraphFamily::SmallWorld { nodes, .. } => 2 * (*nodes).max(6),
        }
    }
}

/// An undirected venue network: nodes are chains/participants, each edge
/// is one escrow venue whose id is its index in edge order. Generated
/// deterministically from `(family, seed)`; adjacency lists are sorted
/// ascending by `(neighbour, venue)`, which the pathfinder's
/// deterministic scan order relies on.
#[derive(Debug, Clone)]
pub struct VenueGraph {
    nodes: usize,
    edges: Vec<(u32, u32)>,
    adj: Vec<Vec<(u32, VenueId)>>,
}

impl VenueGraph {
    /// Generates the family's network from the given seed. Both
    /// generators guarantee every node has degree ≥ 2 and the edge
    /// count equals [`GraphFamily::venues`] exactly.
    pub fn generate(family: GraphFamily, seed: u64) -> VenueGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5C3_9D71_6A0F_44D9);
        let edges = match family {
            GraphFamily::ScaleFree { venues, attach } => {
                let venues = venues.max(3);
                let attach = attach.clamp(1, 3);
                // Seed triangle, then preferential attachment: the pool
                // holds every edge endpoint, so sampling it uniformly is
                // degree-proportional sampling.
                let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
                let mut pool: Vec<u32> = vec![0, 1, 1, 2, 2, 0];
                let mut next_node: u32 = 3;
                while edges.len() < venues {
                    let u = next_node;
                    next_node += 1;
                    let want = attach.min(venues - edges.len()).min(next_node as usize - 1);
                    let mut targets: Vec<u32> = Vec::with_capacity(want);
                    while targets.len() < want {
                        let t = pool[rng.gen_range(0..pool.len())];
                        if t != u && !targets.contains(&t) {
                            targets.push(t);
                        }
                    }
                    for t in targets {
                        edges.push((u, t));
                        pool.push(u);
                        pool.push(t);
                    }
                }
                edges
            }
            GraphFamily::SmallWorld {
                nodes,
                rewire_permille,
            } => {
                let n = nodes.max(6);
                let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
                for i in 0..n as u32 {
                    edges.push((i, (i + 1) % n as u32));
                }
                for i in 0..n as u32 {
                    edges.push((i, (i + 2) % n as u32));
                }
                let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
                let mut present: std::collections::BTreeSet<(u32, u32)> =
                    edges.iter().map(|&(a, b)| norm(a, b)).collect();
                for edge in &mut edges {
                    if rng.gen_range(0..1000u64) >= rewire_permille {
                        continue;
                    }
                    let (u, old) = *edge;
                    // Rewire the far endpoint; bounded re-draws keep the
                    // generator total even on dense rings.
                    for _ in 0..8 {
                        let t = rng.gen_range(0..n) as u32;
                        if t != u && !present.contains(&norm(u, t)) {
                            present.remove(&norm(u, old));
                            present.insert(norm(u, t));
                            *edge = (u, t);
                            break;
                        }
                    }
                }
                edges
            }
        };
        let nodes = edges
            .iter()
            .map(|&(a, b)| a.max(b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut adj: Vec<Vec<(u32, VenueId)>> = vec![Vec::new(); nodes];
        for (id, &(a, b)) in edges.iter().enumerate() {
            adj[a as usize].push((b, id as VenueId));
            adj[b as usize].push((a, id as VenueId));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        VenueGraph { nodes, edges, adj }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of venues (edges).
    pub fn venues(&self) -> usize {
        self.edges.len()
    }

    /// The two endpoints of a venue (edge).
    pub fn endpoints(&self, venue: VenueId) -> (u32, u32) {
        self.edges[venue as usize]
    }

    /// The node's adjacency list, sorted ascending by
    /// `(neighbour, venue)`.
    pub fn neighbors(&self, node: u32) -> &[(u32, VenueId)] {
        &self.adj[node as usize]
    }

    /// The node's degree (parallel edges counted separately).
    pub fn degree(&self, node: u32) -> usize {
        self.adj[node as usize].len()
    }
}

/// The knobs of a routed open-system run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Longest admissible path, in venues; [`MAX_NET_HOPS`] is the
    /// conventional cap (workload endpoint sampling guarantees a path
    /// within it exists on the empty network).
    pub max_hops: usize,
    /// Widest split the router may try when no single path fits: the
    /// payment is divided over `2..=max_split` venue-disjoint paths.
    /// `1` disables splitting.
    pub max_split: usize,
    /// Period of the circular rebalancing flow that restores spent
    /// venue liquidity; [`SimDuration::ZERO`] disables rebalancing.
    pub rebalance_period: SimDuration,
}

impl RoutingConfig {
    /// The conventional configuration: [`MAX_NET_HOPS`], two-way
    /// splitting, no rebalancing.
    pub fn new() -> Self {
        RoutingConfig {
            max_hops: MAX_NET_HOPS,
            max_split: 2,
            rebalance_period: SimDuration::ZERO,
        }
    }

    /// Same knobs with the given rebalancing period.
    pub fn with_rebalance(period: SimDuration) -> Self {
        RoutingConfig {
            rebalance_period: period,
            ..RoutingConfig::new()
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig::new()
    }
}

/// Bounded-hop cheapest-feasible-path search with reusable scratch.
///
/// An edge is *feasible* when the liquidity book can cover the payment's
/// per-hop amount at that venue right now ([`LiquidityBook::fits`]) and
/// the venue is not banned by an earlier leg of a split; its *cost* is
/// the venue's committed load ([`LiquidityBook::load_at`]), so among
/// feasible routes the search prefers idle venues. A search runs three
/// passes over the feasible edges:
///
/// 1. **forward BFS** from the source, layer by layer, stopping as soon
///    as the destination is discovered at depth `d` (or returning `None`
///    when the frontier empties or `d` would exceed the hop cap) — a
///    failed search costs one O(V + E) sweep;
/// 2. **backward marking** from the destination: a node at depth `k - 1`
///    joins the *shortest-path DAG* when it has a feasible edge to a DAG
///    node at depth `k`, so the DAG holds exactly the nodes that lie on
///    some `d`-hop feasible path;
/// 3. **cost labels over the DAG** in increasing depth: each node keeps
///    the cheapest DAG predecessor, scanning its own adjacency list in
///    ascending `(neighbour, venue)` order and replacing a label only on
///    a strictly lower cost. That list order is the order in which the
///    sweep of rule 3 below offers candidates to the node (source nodes
///    ascending, each source's list in `(neighbour, venue)` order), so
///    both keep the same label.
///
/// Every `d`-hop walk to the destination is a shortest path, so each of
/// its prefixes ends at a node of its own BFS depth, and every
/// predecessor that could label a DAG node is itself a DAG node: the
/// labels are those of a layered relaxation over all walks of exactly
/// `k` hops, restricted to where they can matter.
///
/// # Deterministic tie-breaking contract
///
/// Routed reports must be bit-identical across thread counts, so route
/// choice is a pure function of `(graph, book, src, dst, amount)` under
/// a total preference order:
///
/// 1. **fewest hops** — the search examines layers in increasing path
///    length and returns at the first layer containing the destination;
/// 2. **minimal total committed load** — within a layer, labels keep the
///    cheapest predecessor (sum of [`LiquidityBook::load_at`] over the
///    path's venues);
/// 3. **scan order** — exact cost ties keep the *first* label found by
///    the deterministic relaxation sweep: source-layer nodes in
///    ascending node id, each adjacency list in ascending
///    `(neighbour, venue)` order, and strictly-better-only updates.
///
/// Rule 3 makes the choice independent of anything but the inputs —
/// no hashing, no iteration-order dependence — which is what the
/// 1-vs-4-thread digest tests pin.
#[derive(Debug, Default)]
pub struct Router {
    scratch: Scratch,
    /// Venue `v` is banned while `banned[v] == ban_tick`; bumping the
    /// tick lifts every ban in O(1).
    banned: Vec<u64>,
    ban_tick: u64,
}

/// Per-node search state, reused across calls. A node's fields are
/// valid only while its `stamp` equals the scratch's current tick.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    stamp: u64,
    depth: u32,
    on_dag: bool,
    cost: u64,
    prev_node: u32,
    prev_venue: VenueId,
}

#[derive(Debug, Default)]
struct Scratch {
    labels: Vec<Label>,
    /// BFS visit order: the source, then each depth's nodes contiguously.
    queue: Vec<u32>,
    /// Shortest-path DAG nodes in non-increasing depth (destination
    /// first, source last).
    dag: Vec<u32>,
    tick: u64,
}

/// The edge rule of one search: feasibility and cost per venue.
struct Edges<'a> {
    /// `None` means the empty network: every edge feasible at zero cost.
    book: Option<&'a LiquidityBook>,
    amount: u64,
    banned: &'a [u64],
    ban_tick: u64,
}

impl Edges<'_> {
    fn feasible(&self, venue: VenueId) -> bool {
        if self.banned.get(venue as usize) == Some(&self.ban_tick) {
            return false;
        }
        match self.book {
            Some(b) => b.fits(&[(venue, self.amount)]),
            None => true,
        }
    }

    fn cost(&self, venue: VenueId) -> u64 {
        self.book.map_or(0, |b| b.load_at(venue))
    }
}

impl Scratch {
    /// Forward BFS from `src` over the edges `feasible` admits, for at
    /// most `max_hops` layers, recording each visited node's depth and
    /// its place in `queue`. Returns the depth of `dst` as soon as it is
    /// discovered, `None` when it is not within `max_hops`.
    fn bfs(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: Option<u32>,
        max_hops: usize,
        feasible: impl Fn(VenueId) -> bool,
    ) -> Option<usize> {
        if self.labels.len() < g.nodes() {
            self.labels.resize(g.nodes(), Label::default());
        }
        self.tick += 1;
        let t = self.tick;
        self.labels[src as usize] = Label {
            stamp: t,
            ..Label::default()
        };
        self.queue.clear();
        self.queue.push(src);
        let mut head = 0;
        for depth in 1..=max_hops {
            let end = self.queue.len();
            if head == end {
                return None;
            }
            for i in head..end {
                let u = self.queue[i];
                for &(v, venue) in g.neighbors(u) {
                    if self.labels[v as usize].stamp == t || !feasible(venue) {
                        continue;
                    }
                    self.labels[v as usize] = Label {
                        stamp: t,
                        depth: depth as u32,
                        ..Label::default()
                    };
                    self.queue.push(v);
                    if dst == Some(v) {
                        return Some(depth);
                    }
                }
            }
            head = end;
        }
        None
    }

    /// The three-pass search described on [`Router`].
    fn search(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        max_hops: usize,
        edges: &Edges,
    ) -> Option<VenueRoute> {
        let nodes = g.nodes();
        if src == dst || max_hops == 0 || src as usize >= nodes || dst as usize >= nodes {
            return None;
        }
        let hops = self.bfs(g, src, Some(dst), max_hops, |v| edges.feasible(v))?;
        let t = self.tick;
        let labels = &mut self.labels;

        // Backward pass: mark the shortest-path DAG, destination first.
        self.dag.clear();
        self.dag.push(dst);
        labels[dst as usize].on_dag = true;
        let mut i = 0;
        while let Some(&v) = self.dag.get(i) {
            i += 1;
            let below = labels[v as usize].depth.wrapping_sub(1);
            for &(u, venue) in g.neighbors(v) {
                let l = &labels[u as usize];
                if l.stamp == t && l.depth == below && !l.on_dag && edges.feasible(venue) {
                    labels[u as usize].on_dag = true;
                    self.dag.push(u);
                }
            }
        }

        // Cost labels in increasing depth: the source is the last DAG
        // node and keeps its zero cost.
        for &v in self.dag.iter().rev().skip(1) {
            let below = labels[v as usize].depth - 1;
            let mut best: Option<(u64, u32, VenueId)> = None;
            for &(u, venue) in g.neighbors(v) {
                let l = &labels[u as usize];
                if l.stamp != t || !l.on_dag || l.depth != below || !edges.feasible(venue) {
                    continue;
                }
                let cost = l.cost.saturating_add(edges.cost(venue));
                if !matches!(best, Some((c, _, _)) if c <= cost) {
                    best = Some((cost, u, venue));
                }
            }
            let (cost, prev_node, prev_venue) =
                best.expect("every DAG node but the source has a DAG predecessor");
            let l = &mut labels[v as usize];
            l.cost = cost;
            l.prev_node = prev_node;
            l.prev_venue = prev_venue;
        }

        let mut venues = vec![0; hops];
        let mut node = dst;
        for slot in venues.iter_mut().rev() {
            let l = &labels[node as usize];
            *slot = l.prev_venue;
            node = l.prev_node;
        }
        debug_assert_eq!(node, src);
        Some(VenueRoute::new(venues))
    }
}

/// Whether no venue appears twice in `venues`.
fn distinct(venues: &[VenueId]) -> bool {
    venues
        .iter()
        .enumerate()
        .all(|(i, v)| !venues[..i].contains(v))
}

impl Router {
    /// A router with empty scratch; arrays are sized lazily on first
    /// use and reused across calls.
    pub fn new() -> Self {
        Router::default()
    }

    /// The cheapest feasible path from `src` to `dst` for a payment
    /// carrying `amount` per hop, under the tie-breaking contract above.
    /// `None` when no path of at most `max_hops` venues fits the book at
    /// this instant. A hop-minimal path never revisits a venue, so every
    /// venue carries `amount` exactly once and the per-hop feasibility
    /// test already covers the route's aggregate demand.
    pub fn route(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        max_hops: usize,
        book: &LiquidityBook,
    ) -> Option<VenueRoute> {
        let edges = Edges {
            book: Some(book),
            amount,
            banned: &[],
            ban_tick: 0,
        };
        let path = self.scratch.search(g, src, dst, max_hops, &edges)?;
        debug_assert!(
            distinct(&path.venues)
                && book.fits(&path.venues.iter().map(|&v| (v, amount)).collect::<Vec<_>>()),
            "a hop-minimal feasible path is simple and fits the book"
        );
        Some(path)
    }

    /// Splits the payment over `parts` venue-disjoint feasible paths:
    /// path `j` carries `amount / parts` per hop (the remainder goes to
    /// the first paths, mirroring `ValuePlan`-style splitting), and each
    /// path is found by the same search with every earlier path's venues
    /// banned. Returns `(path, per-hop share)` pairs, or `None` when any
    /// share cannot be routed — splitting is all-or-nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn route_multi(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        parts: usize,
        max_hops: usize,
        book: &LiquidityBook,
    ) -> Option<Vec<(VenueRoute, u64)>> {
        if parts < 2 || amount < parts as u64 {
            return None;
        }
        let base = amount / parts as u64;
        let rem = (amount % parts as u64) as usize;
        if self.banned.len() < g.venues() {
            self.banned.resize(g.venues(), 0);
        }
        self.ban_tick += 1;
        let mut out = Vec::with_capacity(parts);
        for j in 0..parts {
            let share = base + u64::from(j < rem);
            let edges = Edges {
                book: Some(book),
                amount: share,
                banned: &self.banned,
                ban_tick: self.ban_tick,
            };
            let path = self.scratch.search(g, src, dst, max_hops, &edges)?;
            for &v in &path.venues {
                debug_assert_ne!(
                    self.banned[v as usize], self.ban_tick,
                    "a hop-minimal path over unbanned venues never revisits one"
                );
                self.banned[v as usize] = self.ban_tick;
            }
            out.push((path, share));
        }
        Some(out)
    }

    /// The static shortest path on the empty network (every edge
    /// feasible, zero cost): hop-count-minimal, tie-broken by the same
    /// deterministic scan order. This is the route the workload
    /// generator pins into [`crate::workload::PaymentSpec::venues`] as
    /// the static-routing baseline.
    pub fn shortest(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        max_hops: usize,
    ) -> Option<VenueRoute> {
        let edges = Edges {
            book: None,
            amount: 0,
            banned: &[],
            ban_tick: 0,
        };
        self.scratch.search(g, src, dst, max_hops, &edges)
    }

    /// Fills `out` with every node reachable from `src` within
    /// `max_hops` edges, excluding `src` itself, sorted ascending — the
    /// workload generator's fallback when a uniformly sampled endpoint
    /// pair is further apart than the hop cap. Runs the search's
    /// forward BFS with every edge feasible.
    pub fn reachable(&mut self, g: &VenueGraph, src: u32, max_hops: usize, out: &mut Vec<u32>) {
        out.clear();
        if src as usize >= g.nodes() {
            return;
        }
        self.scratch.bfs(g, src, None, max_hops, |_| true);
        out.extend_from_slice(&self.scratch.queue[1..]);
        out.sort_unstable();
    }
}

/// The layered Bellman–Ford search the three-pass [`Router`] replaced,
/// kept as the differential oracle: layer `k` holds the cheapest
/// feasible walk of exactly `k` hops to each node, relaxed by a sweep
/// over every node of layer `k - 1` in ascending id, and the search
/// returns at the first layer that reaches the destination.
#[cfg(test)]
pub(crate) mod legacy {
    use super::*;

    /// The old search: `book == None` is the empty network and
    /// `banned[v]` excludes venue `v`.
    pub(crate) fn search(
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        max_hops: usize,
        book: Option<&LiquidityBook>,
        banned: &[bool],
    ) -> Option<VenueRoute> {
        let nodes = g.nodes();
        if src == dst || max_hops == 0 || src as usize >= nodes || dst as usize >= nodes {
            return None;
        }
        // `label[k * nodes + v]`: (cost, prev node, prev venue) of the
        // cheapest `k`-hop walk to `v`.
        let mut label: Vec<Option<(u64, u32, VenueId)>> = vec![None; nodes * (max_hops + 1)];
        label[src as usize] = Some((0, u32::MAX, u32::MAX));
        for k in 0..max_hops {
            let mut layer_alive = false;
            for u in 0..nodes {
                let Some((cu, _, _)) = label[k * nodes + u] else {
                    continue;
                };
                for &(nbr, venue) in g.neighbors(u as u32) {
                    if banned.get(venue as usize).copied().unwrap_or(false) {
                        continue;
                    }
                    let step = match book {
                        Some(b) => {
                            if !b.fits(&[(venue, amount)]) {
                                continue;
                            }
                            b.load_at(venue)
                        }
                        None => 0,
                    };
                    let slot = &mut label[(k + 1) * nodes + nbr as usize];
                    let nc = cu.saturating_add(step);
                    if !matches!(*slot, Some((c, _, _)) if c <= nc) {
                        *slot = Some((nc, u as u32, venue));
                        layer_alive = true;
                    }
                }
            }
            if label[(k + 1) * nodes + dst as usize].is_some() {
                let mut venues = Vec::with_capacity(k + 1);
                let mut node = dst as usize;
                for layer in (1..=k + 1).rev() {
                    let (_, prev, venue) = label[layer * nodes + node].expect("labelled walk");
                    venues.push(venue);
                    node = prev as usize;
                }
                venues.reverse();
                return Some(VenueRoute::new(venues));
            }
            if !layer_alive {
                return None;
            }
        }
        None
    }

    /// The old split: each share searched with the earlier legs'
    /// venues banned, rejecting a leg that revisits a venue.
    pub(crate) fn route_multi(
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        parts: usize,
        max_hops: usize,
        book: &LiquidityBook,
    ) -> Option<Vec<(VenueRoute, u64)>> {
        if parts < 2 || amount < parts as u64 {
            return None;
        }
        let base = amount / parts as u64;
        let rem = (amount % parts as u64) as usize;
        let mut banned = vec![false; g.venues()];
        let mut out = Vec::with_capacity(parts);
        for j in 0..parts {
            let share = base + u64::from(j < rem);
            let path = search(g, src, dst, share, max_hops, Some(book), &banned)?;
            for &v in &path.venues {
                if std::mem::replace(&mut banned[v as usize], true) {
                    return None;
                }
            }
            out.push((path, share));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liquidity::LiquidityConfig;

    fn scalefree(venues: usize, seed: u64) -> VenueGraph {
        VenueGraph::generate(GraphFamily::ScaleFree { venues, attach: 2 }, seed)
    }

    fn smallworld(nodes: usize, seed: u64) -> VenueGraph {
        VenueGraph::generate(
            GraphFamily::SmallWorld {
                nodes,
                rewire_permille: 100,
            },
            seed,
        )
    }

    /// A graph over `nodes` nodes from an explicit edge list (parallel
    /// edges and self-loops allowed), adjacency sorted as `generate`
    /// sorts it.
    fn from_edges(nodes: usize, edges: Vec<(u32, u32)>) -> VenueGraph {
        let mut adj: Vec<Vec<(u32, VenueId)>> = vec![Vec::new(); nodes];
        for (id, &(a, b)) in edges.iter().enumerate() {
            adj[a as usize].push((b, id as VenueId));
            adj[b as usize].push((a, id as VenueId));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        VenueGraph { nodes, edges, adj }
    }

    /// One step of a xorshift64 stream: cheap deterministic test data.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn generators_hit_exact_venue_counts_and_min_degree() {
        for seed in [1u64, 7, 42] {
            for venues in [3usize, 64, 257, 1000] {
                let fam = GraphFamily::ScaleFree { venues, attach: 2 };
                let g = VenueGraph::generate(fam, seed);
                assert_eq!(g.venues(), fam.venues());
                assert_eq!(g.venues(), venues.max(3));
                assert!((0..g.nodes()).all(|n| g.degree(n as u32) >= 1));
            }
            for nodes in [6usize, 128, 500] {
                let fam = GraphFamily::SmallWorld {
                    nodes,
                    rewire_permille: 100,
                };
                let g = VenueGraph::generate(fam, seed);
                assert_eq!(g.venues(), fam.venues());
                assert_eq!(g.venues(), 2 * nodes);
                assert!((0..g.nodes()).all(|n| g.degree(n as u32) >= 2));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = scalefree(200, 9);
        let b = scalefree(200, 9);
        assert_eq!(a.edges, b.edges);
        let c = scalefree(200, 10);
        assert_ne!(a.edges, c.edges, "different seeds, different graphs");
        let w1 = smallworld(100, 5);
        let w2 = smallworld(100, 5);
        assert_eq!(w1.edges, w2.edges);
    }

    #[test]
    fn adjacency_is_sorted_and_mirrors_edges() {
        let g = smallworld(50, 3);
        for n in 0..g.nodes() as u32 {
            let adj = g.neighbors(n);
            assert!(adj.windows(2).all(|w| w[0] <= w[1]));
            for &(nbr, venue) in adj {
                let (a, b) = g.endpoints(venue);
                assert!((a, b) == (n, nbr) || (a, b) == (nbr, n));
            }
        }
    }

    /// A 4-cycle with one budget-exhausted edge: the router must take
    /// the long way around.
    #[test]
    fn router_avoids_drained_venues() {
        // Square 0-1-2-3: venue 0 = (0,1), 1 = (1,2), 2 = (2,3), 3 = (3,0).
        let g = from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 4);
        let mut router = Router::new();
        // Empty book: 0 → 2 has two 2-hop paths; scan order picks the
        // one through node 1 (venues 0, 1).
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![0, 1]);
        // Drain venue 0: the router must go the other way (venues 3, 2).
        book.reserve(0, 95);
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![3, 2]);
        // Drain that side too: no feasible path remains.
        book.reserve(2, 95);
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_none());
        // Spent liquidity blocks identically until restored.
        book.unreserve(2, 95);
        book.consume(2, 95);
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_none());
        book.restore_all();
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_some());
    }

    #[test]
    fn equal_cost_ties_break_by_scan_order_and_load_breaks_ties_first() {
        let g = from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 4);
        let mut router = Router::new();
        // Load venue 0 lightly: still feasible, but the idle side
        // (venues 3, 2) is now strictly cheaper and must win.
        book.reserve(0, 10);
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![3, 2]);
    }

    #[test]
    fn route_multi_returns_disjoint_paths_covering_the_amount() {
        let g = smallworld(40, 11);
        let book = LiquidityBook::new(&LiquidityConfig::reject(1000), g.venues());
        let mut router = Router::new();
        let parts = router
            .route_multi(&g, 0, 5, 101, 2, MAX_NET_HOPS, &book)
            .expect("two disjoint paths exist on a ring lattice");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1 + parts[1].1, 101);
        assert!(parts[0].1 == 51 && parts[1].1 == 50);
        let mut seen = std::collections::BTreeSet::new();
        for (path, _) in &parts {
            assert!(path.hops() <= MAX_NET_HOPS);
            for &v in &path.venues {
                assert!(seen.insert(v), "venue {v} appears in two split paths");
            }
        }
    }

    #[test]
    fn shortest_and_reachable_respect_the_hop_cap() {
        let g = smallworld(60, 2);
        let mut router = Router::new();
        let mut reach = Vec::new();
        router.reachable(&g, 0, 2, &mut reach);
        for &b in &reach {
            let p = router.shortest(&g, 0, b, 2).expect("reachable within cap");
            assert!(p.hops() <= 2);
            // The path really connects 0 to b along graph edges.
            let mut at = 0u32;
            for &v in &p.venues {
                let (x, y) = g.endpoints(v);
                at = if x == at { y } else { x };
            }
            assert_eq!(at, b);
        }
        // Nodes outside the 2-hop ball are not reachable within it.
        let ball: std::collections::BTreeSet<u32> = reach.iter().copied().collect();
        for b in 0..g.nodes() as u32 {
            if b != 0 && !ball.contains(&b) {
                assert!(router.shortest(&g, 0, b, 2).is_none());
            }
        }
    }

    #[test]
    fn routes_are_stable_across_router_instances() {
        // The scratch is stamp-versioned; a fresh router must agree with
        // a heavily reused one.
        let g = scalefree(300, 4);
        let book = LiquidityBook::new(&LiquidityConfig::reject(500), g.venues());
        let mut warm = Router::new();
        for i in 0..50u32 {
            let _ = warm.route(&g, i % 7, (i % 11) + 1, 10, MAX_NET_HOPS, &book);
        }
        for (a, b) in [(0u32, 9u32), (3, 17), (5, 40)] {
            let mut fresh = Router::new();
            assert_eq!(
                warm.route(&g, a, b, 10, MAX_NET_HOPS, &book),
                fresh.route(&g, a, b, 10, MAX_NET_HOPS, &book)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 64,
            ..proptest::ProptestConfig::default()
        })]

        /// The three-pass search returns exactly the layered oracle's
        /// route — hop count, venues and tie-breaks — on scale-free,
        /// small-world and random multigraphs (parallel edges and
        /// self-loops included), under idle books (every cost ties, so
        /// scan order decides), light and heavy loads, banned venues,
        /// every hop cap up to [`MAX_NET_HOPS`] and the empty network.
        /// One router serves every call, so stale scratch would show.
        #[test]
        fn three_pass_search_matches_layered_oracle(
            family in 0u8..3,
            size in 6usize..160,
            seed in 0u64..1_000_000,
            loads in 0u8..3,
            ban_permille in 0u64..300,
            amount in 1u64..3_000,
        ) {
            let g = match family {
                0 => scalefree(size, seed),
                1 => smallworld(size / 2 + 6, seed),
                _ => {
                    let nodes = size / 3 + 2;
                    let mut x = seed | 1;
                    let edges = (0..size)
                        .map(|_| {
                            let a = (next(&mut x) % nodes as u64) as u32;
                            (a, (next(&mut x) % nodes as u64) as u32)
                        })
                        .collect();
                    from_edges(nodes, edges)
                }
            };
            let budget = 4_000;
            let mut book = LiquidityBook::new(&LiquidityConfig::reject(budget), g.venues());
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in 0..g.venues() as u32 {
                let r = next(&mut x);
                match (loads, r % 4) {
                    (1, 0) => book.reserve(v, r % 64),
                    (2, 0) => book.reserve(v, r % budget),
                    (2, 1) => book.consume(v, r % budget),
                    _ => {}
                }
            }
            let bans: Vec<bool> = (0..g.venues())
                .map(|_| next(&mut x) % 1_000 < ban_permille)
                .collect();
            let stamps: Vec<u64> = bans.iter().map(|&b| u64::from(b)).collect();
            let nodes = g.nodes() as u64;
            let mut router = Router::new();
            for _ in 0..12 {
                let src = (next(&mut x) % nodes) as u32;
                let dst = (next(&mut x) % nodes) as u32;
                for max_hops in 1..=MAX_NET_HOPS {
                    for book in [Some(&book), None] {
                        for banned in [false, true] {
                            let expect = legacy::search(
                                &g,
                                src,
                                dst,
                                amount,
                                max_hops,
                                book,
                                if banned { &bans } else { &[] },
                            );
                            let edges = Edges {
                                book,
                                amount,
                                banned: if banned { &stamps } else { &[] },
                                ban_tick: 1,
                            };
                            let got = router.scratch.search(&g, src, dst, max_hops, &edges);
                            proptest::prop_assert_eq!(got, expect);
                        }
                    }
                }
                let expect = legacy::search(&g, src, dst, amount, MAX_NET_HOPS, Some(&book), &[]);
                proptest::prop_assert_eq!(
                    router.route(&g, src, dst, amount, MAX_NET_HOPS, &book),
                    expect
                );
                let expect = legacy::search(&g, src, dst, 0, MAX_NET_HOPS, None, &[]);
                proptest::prop_assert_eq!(router.shortest(&g, src, dst, MAX_NET_HOPS), expect);
                for parts in 2..=3 {
                    proptest::prop_assert_eq!(
                        router.route_multi(&g, src, dst, amount, parts, MAX_NET_HOPS, &book),
                        legacy::route_multi(&g, src, dst, amount, parts, MAX_NET_HOPS, &book)
                    );
                }
            }
        }
    }
}
