//! The `O(n)` tree moment engine, with incremental repair.
//!
//! The conductance matrix of a coupled-tree network is block-diagonal per
//! net (nets are resistively disjoint), and each block is tree-structured,
//! so `G·x = b` solves in two `O(n)` passes per net:
//!
//! 1. leaves→root: accumulate the subtree injection sums `S_i`;
//! 2. top-down: `V_root = R_drv·S_root`, then `V_i = V_parent + r_i·S_i`.
//!
//! The capacitance matvec in the moment recursion `G·m_k = −C·m_{k−1}` is
//! `O(#caps)`, so a transfer function costs `O(order · (n + k))` — against
//! `O(n³)` for the dense [`crate::MomentEngine`], which stays the
//! reference (both are exact; they are cross-checked on randomized
//! branching networks in the tests).
//!
//! Inside a what-if loop (move one wire, resize one driver) most of that
//! work repeats: a value change on net *B* can only perturb
//!
//! * the `G`-solve of *B*'s own block (driver or wire resistance), and
//! * the `−C·m_{k−1}` right-hand sides whose *rows* live on *B* (its own
//!   capacitors), which in turn feed nets coupled to *B* at the next
//!   moment order.
//!
//! [`IncrTreeEngine`] owns the traversal structures, caches the full
//! moment vectors per driven (source) net, and on [`IncrTreeEngine::refresh`]
//! diffs element *values* against the network (topology is frozen —
//! the [`xtalk_circuit::Delta`] contract). A subsequent query repairs
//! only the dirty blocks per moment order using the propagation
//!
//! ```text
//! dirty₀ = {src} if the source driver changed, else ∅
//! dirtyₖ = dirtyₖ₋₁ ∪ N(dirtyₖ₋₁) ∪ gdirty ∪ cdirty      (k ≥ 1)
//! ```
//!
//! where `N(·)` is coupling adjacency, `gdirty` marks nets whose
//! conductances changed and `cdirty` nets whose capacitor rows changed.
//! Clean blocks are reused verbatim. A cold cache runs the same per-block
//! kernel with every block dirty.
//!
//! **Bit-identity.** Every block is always computed by the same kernel
//! from the same inputs in the same floating-point order: the rhs
//! accumulation keeps the per-row relative order of the `C` entries, and
//! the dirty sets are conservative supersets. So a repaired cache is
//! bit-identical to a cold build on the edited network — the property the
//! `incremental` audit family enforces end to end.

use crate::MomentError;
use xtalk_circuit::{NetId, Network, NodeId};

/// Moment-block repair statistics for one engine (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Per-net moment blocks solved (cold builds and repairs).
    pub blocks_recomputed: u64,
    /// Per-net moment blocks reused verbatim from cache during repair.
    pub blocks_reused: u64,
    /// `refresh` calls that found at least one changed value.
    pub refreshes_dirty: u64,
    /// `refresh` calls that found nothing changed.
    pub refreshes_clean: u64,
}

/// The `O(n)` tree moment engine: it caches the moment vectors of each
/// queried source net and repairs them after value-only network edits
/// instead of recomputing them (see the [module docs](self) for the
/// kernel, the invalidation rule and the bit-identity argument).
///
/// # Examples
///
/// ```
/// use xtalk_circuit::{Delta, NetRole, NetworkBuilder};
/// use xtalk_moments::IncrTreeEngine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let v = b.add_net("v", NetRole::Victim);
/// let a = b.add_net("a", NetRole::Aggressor);
/// let vn = b.add_node(v, "v0");
/// let an = b.add_node(a, "a0");
/// b.add_driver(v, vn, 100.0)?;
/// b.add_driver(a, an, 100.0)?;
/// b.add_sink(vn, 10e-15)?;
/// b.add_sink(an, 10e-15)?;
/// b.add_coupling_cap(vn, an, 20e-15)?;
/// let mut network = b.build()?;
///
/// let mut incr = IncrTreeEngine::new(&network, 4);
/// let before = incr.transfer_taylor(a, network.victim_output())?;
///
/// network.apply_delta(&Delta::SetCouplingCap { index: 0, farads: 30e-15 })?;
/// incr.refresh(&network);
/// let after = incr.transfer_taylor(a, network.victim_output())?;
///
/// // Repaired answer is bit-identical to a cold build.
/// let cold = IncrTreeEngine::new(&network, 4).transfer_taylor(a, network.victim_output())?;
/// assert!(after.iter().zip(&cold).all(|(x, y)| x.to_bits() == y.to_bits()));
/// assert!(before[1] < after[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrTreeEngine {
    n: usize,
    num_nets: usize,
    moment_order: usize,
    /// Per node: resistance to its tree parent (0 for roots).
    parent_res: Vec<f64>,
    /// Per node: parent index, usize::MAX for roots.
    parent: Vec<usize>,
    /// Per node: its net's driver resistance if it is the root, else 0.
    root_res: Vec<f64>,
    /// Global traversal order, each net contiguous, roots first.
    order: Vec<usize>,
    /// Per net: its `[start, end)` slice of `order`.
    net_ranges: Vec<(usize, usize)>,
    /// Per net: owning-net index of each node.
    node_net: Vec<usize>,
    /// Per net: driver attachment node and resistance.
    driver_node: Vec<usize>,
    driver_ohms: Vec<f64>,
    /// Capacitance triplets in the reference construction order
    /// (ground caps, sinks per net, coupling caps ×4) — the diff target.
    c_entries: Vec<(usize, usize, f64)>,
    /// The same triplets grouped by *row* net, relative order preserved.
    net_c_entries: Vec<Vec<(usize, usize, f64)>>,
    /// Coupling adjacency over nets (sorted, deduplicated).
    net_neighbors: Vec<Vec<usize>>,
    /// Cached moment vectors per driven (source) net, indexed by net.
    cache: Vec<Option<Vec<Vec<f64>>>>,
    /// Nets whose conductances (driver or wire R) changed since repair.
    gdirty: Vec<bool>,
    cdirty: Vec<bool>,
    any_dirty: bool,
    stats: IncrStats,
}

impl IncrTreeEngine {
    /// Builds the traversal structures; no moments are computed until
    /// the first query (demand-driven).
    ///
    /// # Panics
    ///
    /// Panics when `moment_order == 0`; at least `h0` is required.
    #[must_use]
    pub fn new(network: &Network, moment_order: usize) -> Self {
        assert!(moment_order > 0, "taylor order must be at least 1");
        let _span = xtalk_obs::span!("moments.incr_build");
        let n = network.node_count();
        let num_nets = network.nets().count();
        let mut parent_res = vec![0.0; n];
        let mut parent = vec![usize::MAX; n];
        let mut root_res = vec![0.0; n];
        let mut node_net = vec![0usize; n];
        let mut order = Vec::with_capacity(n);
        let mut net_ranges = Vec::with_capacity(num_nets);
        let mut driver_node = Vec::with_capacity(num_nets);
        let mut driver_ohms = Vec::with_capacity(num_nets);
        for (id, net) in network.nets() {
            let tree = network.tree(id);
            let start = order.len();
            root_res[tree.root().index()] = net.driver().ohms;
            driver_node.push(net.driver().node.index());
            driver_ohms.push(net.driver().ohms);
            for &node in tree.order() {
                node_net[node.index()] = id.index();
                order.push(node.index());
                if let Some((p, r)) = tree.parent(node) {
                    parent[node.index()] = p.index();
                    parent_res[node.index()] = r;
                }
            }
            net_ranges.push((start, order.len()));
        }

        // Fixed construction order: `refresh` diffs against it, and the
        // per-row relative order fixes every floating-point accumulation.
        let mut c_entries = Vec::new();
        for gc in network.ground_caps() {
            c_entries.push((gc.node.index(), gc.node.index(), gc.farads));
        }
        for (_, net) in network.nets() {
            for s in net.sinks() {
                c_entries.push((s.node.index(), s.node.index(), s.farads));
            }
        }
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            c_entries.push((a, a, cc.farads));
            c_entries.push((b, b, cc.farads));
            c_entries.push((a, b, -cc.farads));
            c_entries.push((b, a, -cc.farads));
        }
        let mut net_c_entries = vec![Vec::new(); num_nets];
        for &(i, j, c) in &c_entries {
            net_c_entries[node_net[i]].push((i, j, c));
        }

        let mut net_neighbors = vec![Vec::new(); num_nets];
        for cc in network.coupling_caps() {
            let (na, nb) = (node_net[cc.a.index()], node_net[cc.b.index()]);
            if na != nb {
                net_neighbors[na].push(nb);
                net_neighbors[nb].push(na);
            }
        }
        for nb in &mut net_neighbors {
            nb.sort_unstable();
            nb.dedup();
        }

        IncrTreeEngine {
            n,
            num_nets,
            moment_order,
            parent_res,
            parent,
            root_res,
            order,
            net_ranges,
            node_net,
            driver_node,
            driver_ohms,
            c_entries,
            net_c_entries,
            net_neighbors,
            cache: vec![None; num_nets],
            gdirty: vec![false; num_nets],
            cdirty: vec![false; num_nets],
            any_dirty: false,
            stats: IncrStats::default(),
        }
    }

    /// Diffs element values against `network` (same topology — the
    /// [`xtalk_circuit::Delta`] contract) and marks the touched nets
    /// dirty. Cached moments are repaired lazily on the next query.
    /// Returns `true` when at least one value changed.
    ///
    /// # Panics
    ///
    /// Panics if the network's node or net count differs from the one
    /// the engine was built on (a topology change, which deltas never
    /// produce).
    pub fn refresh(&mut self, network: &Network) -> bool {
        assert_eq!(network.node_count(), self.n, "topology changed under engine");
        assert_eq!(network.nets().count(), self.num_nets);
        let mut changed = false;
        for (id, net) in network.nets() {
            let k = id.index();
            let ohms = net.driver().ohms;
            if ohms.to_bits() != self.driver_ohms[k].to_bits() {
                self.driver_ohms[k] = ohms;
                self.root_res[self.driver_node[k]] = ohms;
                self.gdirty[k] = true;
                changed = true;
            }
            let tree = network.tree(id);
            for &node in tree.order() {
                if let Some((_, r)) = tree.parent(node) {
                    if r.to_bits() != self.parent_res[node.index()].to_bits() {
                        self.parent_res[node.index()] = r;
                        self.gdirty[k] = true;
                        changed = true;
                    }
                }
            }
        }

        // Walk the C triplets in their construction order against the
        // network's current values.
        let mut idx = 0usize;
        let mut diff_c = |entries: &mut [(usize, usize, f64)],
                          cdirty: &mut [bool],
                          node_net: &[usize],
                          value: f64| {
            let (row, _, stored) = &mut entries[idx];
            if value.to_bits() != stored.to_bits() {
                *stored = value;
                cdirty[node_net[*row]] = true;
                changed = true;
            }
            idx += 1;
        };
        for gc in network.ground_caps() {
            diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, gc.farads);
        }
        for (_, net) in network.nets() {
            for s in net.sinks() {
                diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, s.farads);
            }
        }
        for cc in network.coupling_caps() {
            diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, cc.farads);
            diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, cc.farads);
            diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, -cc.farads);
            diff_c(&mut self.c_entries, &mut self.cdirty, &self.node_net, -cc.farads);
        }
        assert_eq!(idx, self.c_entries.len(), "capacitor table changed shape");

        if changed {
            // Regroup only the rows of nets whose C values moved.
            for k in 0..self.num_nets {
                if self.cdirty[k] {
                    self.net_c_entries[k].clear();
                }
            }
            for &(i, j, c) in &self.c_entries {
                if self.cdirty[self.node_net[i]] {
                    self.net_c_entries[self.node_net[i]].push((i, j, c));
                }
            }
            self.any_dirty = true;
            self.stats.refreshes_dirty += 1;
        } else {
            self.stats.refreshes_clean += 1;
        }
        changed
    }

    /// Taylor coefficients `h_0 … h_{order−1}` of the transfer function
    /// from the source of `net` to `output`, served from the
    /// per-source-net cache (repaired first when dirty).
    ///
    /// # Errors
    ///
    /// Currently infallible for validated networks; the `Result` mirrors
    /// [`crate::MomentEngine::transfer_taylor`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of bounds.
    pub fn transfer_taylor(
        &mut self,
        net: NetId,
        output: NodeId,
    ) -> Result<Vec<f64>, MomentError> {
        let vectors = self.moment_vectors(net)?;
        Ok(vectors.iter().map(|m| m[output.index()]).collect())
    }

    /// The cached moment vectors for driven net `net`, computing or
    /// repairing as needed. Same contract as
    /// [`crate::MomentEngine::moment_vectors`] at the order fixed in
    /// [`IncrTreeEngine::new`].
    ///
    /// # Errors
    ///
    /// Currently infallible for validated networks (see
    /// [`IncrTreeEngine::transfer_taylor`]).
    pub fn moment_vectors(&mut self, net: NetId) -> Result<&[Vec<f64>], MomentError> {
        if self.any_dirty {
            self.repair_all();
        }
        let src = net.index();
        if self.cache[src].is_none() {
            let mut vectors = vec![vec![0.0; self.n]; self.moment_order];
            self.stats.blocks_recomputed += self.recompute(src, &mut vectors, true);
            self.cache[src] = Some(vectors);
        }
        Ok(self.cache[src].as_deref().expect("just computed"))
    }

    /// Monotonic repair statistics.
    #[must_use]
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Repairs every cached source net against the accumulated dirty
    /// flags, then clears them.
    fn repair_all(&mut self) {
        let _span = xtalk_obs::span!("moments.incr_repair");
        let mut recomputed = 0u64;
        let mut cached = 0u64;
        for src in 0..self.num_nets {
            if let Some(mut vectors) = self.cache[src].take() {
                recomputed += self.recompute(src, &mut vectors, false);
                cached += 1;
                self.cache[src] = Some(vectors);
            }
        }
        let reused = cached * (self.moment_order * self.num_nets) as u64 - recomputed;
        self.stats.blocks_recomputed += recomputed;
        self.stats.blocks_reused += reused;
        xtalk_obs::counter!(perf: "incr.moments.blocks.recomputed").add(recomputed);
        xtalk_obs::counter!(perf: "incr.moments.blocks.reused").add(reused);
        self.gdirty.fill(false);
        self.cdirty.fill(false);
        self.any_dirty = false;
    }

    /// Recomputes the dirty blocks of source net `src`'s moment vectors
    /// in place — every block when `cold`, else those the dirty flags
    /// reach — and returns how many blocks it solved.
    fn recompute(&self, src: usize, vectors: &mut [Vec<f64>], cold: bool) -> u64 {
        let mut recomputed = 0u64;
        let mut rhs = vec![0.0; self.n];
        // m0 is non-zero only on the source net's block and depends only
        // on its driver (R·(1/R) is not always exactly 1.0).
        let mut dirty_prev = vec![false; self.num_nets];
        if cold || self.gdirty[src] {
            rhs[self.driver_node[src]] = 1.0 / self.driver_ohms[src];
            self.solve_block(src, &mut rhs, &mut vectors[0]);
            dirty_prev[src] = true;
            recomputed += 1;
        }
        for k in 1..self.moment_order {
            let mut dirty = if cold {
                vec![true; self.num_nets]
            } else {
                self.gdirty.clone()
            };
            for b in 0..self.num_nets {
                if self.cdirty[b] || dirty_prev[b] {
                    dirty[b] = true;
                }
                if dirty_prev[b] {
                    for &nb in &self.net_neighbors[b] {
                        dirty[nb] = true;
                    }
                }
            }
            let (prev, rest) = vectors.split_at_mut(k);
            let prev = &prev[k - 1];
            let cur = &mut rest[0];
            for (b, _) in dirty.iter().enumerate().filter(|(_, d)| **d) {
                recomputed += 1;
                let (s, e) = self.net_ranges[b];
                for &node in &self.order[s..e] {
                    rhs[node] = 0.0;
                }
                for &(i, j, c) in &self.net_c_entries[b] {
                    rhs[i] -= c * prev[j];
                }
                self.solve_block(b, &mut rhs, cur);
            }
            dirty_prev = dirty;
        }
        recomputed
    }

    /// Per-net `G`-solve over net `b`'s contiguous slice of the traversal
    /// order (parents precede children). The block's `rhs` entries are
    /// overwritten with their subtree injection sums; its voltages go into
    /// `out`, other entries of both are untouched.
    fn solve_block(&self, b: usize, rhs: &mut [f64], out: &mut [f64]) {
        let (s, e) = self.net_ranges[b];
        let block = &self.order[s..e];
        for &node in block.iter().rev() {
            let p = self.parent[node];
            if p != usize::MAX {
                rhs[p] += rhs[node];
            }
        }
        for &node in block {
            let p = self.parent[node];
            if p == usize::MAX {
                out[node] = self.root_res[node] * rhs[node];
            } else {
                out[node] = out[p] + self.parent_res[node] * rhs[node];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MomentEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xtalk_circuit::{Delta, NetRole, NetworkBuilder};

    /// A chain-coupled cluster: `lanes` parallel wires of `segs` RC
    /// segments each, lane 0 the victim, each lane coupled to the next.
    fn chain_cluster(lanes: usize, segs: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let mut last = Vec::new();
        let mut lane_nodes = Vec::new();
        for l in 0..lanes {
            let role = if l == 0 { NetRole::Victim } else { NetRole::Aggressor };
            let net = b.add_net(format!("n{l}"), role);
            let mut prev = b.add_node(net, format!("l{l}_0"));
            b.add_driver(net, prev, 80.0 + 7.0 * l as f64).unwrap();
            let mut nodes = vec![prev];
            for i in 1..=segs {
                let node = b.add_node(net, format!("l{l}_{i}"));
                b.add_resistor(prev, node, 12.0 + i as f64).unwrap();
                b.add_ground_cap(node, (3.0 + 0.1 * i as f64) * 1e-15).unwrap();
                nodes.push(node);
                prev = node;
            }
            b.add_sink(prev, 9e-15).unwrap();
            if l == 0 {
                b.set_victim_output(prev);
            }
            last.push(prev);
            lane_nodes.push(nodes);
        }
        for l in 1..lanes {
            #[allow(clippy::needless_range_loop)]
            for i in 1..=segs {
                b.add_coupling_cap(lane_nodes[l - 1][i], lane_nodes[l][i], 5e-15)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: h[{k}] differs: {x:e} vs {y:e}"
            );
        }
    }

    /// A two-net network: a randomly branching victim tree and an
    /// aggressor chain randomly coupled into it.
    fn random_coupled_tree(rng: &mut StdRng) -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let n_victim = rng.random_range(3..12);
        let mut vnodes = vec![b.add_node(v, "v0")];
        b.add_driver(v, vnodes[0], rng.random_range(50.0..1000.0)).unwrap();
        for i in 1..n_victim {
            let parent = vnodes[rng.random_range(0..vnodes.len())];
            let node = b.add_node(v, format!("v{i}"));
            b.add_resistor(parent, node, rng.random_range(2.0..150.0)).unwrap();
            b.add_ground_cap(node, rng.random_range(1e-15..20e-15)).unwrap();
            vnodes.push(node);
        }
        b.add_sink(*vnodes.last().unwrap(), rng.random_range(2e-15..30e-15)).unwrap();
        b.set_victim_output(*vnodes.last().unwrap());

        let mut ap = b.add_node(a, "a0");
        b.add_driver(a, ap, rng.random_range(50.0..1000.0)).unwrap();
        for i in 1..rng.random_range(2..8) {
            let node = b.add_node(a, format!("a{i}"));
            b.add_resistor(ap, node, rng.random_range(2.0..150.0)).unwrap();
            b.add_ground_cap(node, rng.random_range(1e-15..20e-15)).unwrap();
            if rng.random_bool(0.7) {
                let vn = vnodes[rng.random_range(0..vnodes.len())];
                b.add_coupling_cap(node, vn, rng.random_range(2e-15..40e-15)).unwrap();
            }
            ap = node;
        }
        b.add_sink(ap, rng.random_range(2e-15..30e-15)).unwrap();
        b.build().unwrap()
    }

    /// Asserts that `incr` answers every source net of `net` bit for bit
    /// like a cold engine built on `net`.
    fn assert_matches_cold(incr: &mut IncrTreeEngine, net: &Network, order: usize, what: &str) {
        let mut cold = IncrTreeEngine::new(net, order);
        for (s, _) in net.nets() {
            let hc = cold.transfer_taylor(s, net.victim_output()).unwrap();
            let hi = incr.transfer_taylor(s, net.victim_output()).unwrap();
            assert_bits_eq(&hc, &hi, what);
        }
    }

    #[test]
    fn matches_dense_engine_on_random_networks() {
        let mut rng = StdRng::seed_from_u64(0x7e3e);
        for case in 0..100 {
            let net = random_coupled_tree(&mut rng);
            let dense = MomentEngine::new(&net).unwrap();
            let mut fast = IncrTreeEngine::new(&net, 5);
            for (src, _) in net.nets() {
                let hd = dense.transfer_taylor(src, net.victim_output(), 5).unwrap();
                let hf = fast.transfer_taylor(src, net.victim_output()).unwrap();
                for k in 0..5 {
                    assert!(
                        (hd[k] - hf[k]).abs() <= 1e-9 * hd[k].abs().max(1e-40),
                        "case {case} h[{k}]: dense {} vs tree {}",
                        hd[k],
                        hf[k]
                    );
                }
            }
        }
    }

    #[test]
    fn dc_solution_is_indicator_of_driven_net() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = random_coupled_tree(&mut rng);
        let mut fast = IncrTreeEngine::new(&net, 1);
        let agg = net.aggressor_nets().next().unwrap().0;
        let m = fast.moment_vectors(agg).unwrap();
        for (id, info) in net.nets() {
            let expect = if id == agg { 1.0 } else { 0.0 };
            for &node in info.nodes() {
                assert!(
                    (m[0][node.index()] - expect).abs() < 1e-12,
                    "node {node} of {id}"
                );
            }
        }
    }

    #[test]
    fn scales_to_thousands_of_nodes() {
        // A 4000-node pair of coupled chains: far beyond what the dense
        // engine could factor in reasonable test time.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let mut vp = b.add_node(v, "v0");
        let mut ap = b.add_node(a, "a0");
        b.add_driver(v, vp, 200.0).unwrap();
        b.add_driver(a, ap, 200.0).unwrap();
        let n = 2000;
        for i in 1..=n {
            let vn = b.add_node(v, format!("v{i}"));
            let an = b.add_node(a, format!("a{i}"));
            b.add_resistor(vp, vn, 1.0).unwrap();
            b.add_resistor(ap, an, 1.0).unwrap();
            b.add_ground_cap(vn, 0.5e-15).unwrap();
            b.add_ground_cap(an, 0.5e-15).unwrap();
            b.add_coupling_cap(an, vn, 0.8e-15).unwrap();
            vp = vn;
            ap = an;
        }
        b.add_sink(vp, 10e-15).unwrap();
        b.add_sink(ap, 10e-15).unwrap();
        b.set_victim_output(vp);
        let net = b.build().unwrap();

        let mut fast = IncrTreeEngine::new(&net, 4);
        let agg = net.aggressor_nets().next().unwrap().0;
        let h = fast.transfer_taylor(agg, net.victim_output()).unwrap();
        // a1 equals the closed form on this monster too.
        let a1 = crate::tree::coupling_a1(&net, agg, net.victim_output());
        assert!((h[1] - a1).abs() < 1e-9 * a1);
    }

    #[test]
    fn cold_answers_do_not_depend_on_query_order() {
        // Each source's cache entry is computed on its own: querying the
        // sources in reverse order gives the same bits.
        for (lanes, segs) in [(2, 3), (4, 5), (6, 2)] {
            let net = chain_cluster(lanes, segs);
            let mut forward = IncrTreeEngine::new(&net, 4);
            let mut backward = IncrTreeEngine::new(&net, 4);
            let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
            for &s in sources.iter().rev() {
                backward.transfer_taylor(s, net.victim_output()).unwrap();
            }
            for &s in &sources {
                let hf = forward.transfer_taylor(s, net.victim_output()).unwrap();
                let hb = backward.transfer_taylor(s, net.victim_output()).unwrap();
                assert_bits_eq(&hf, &hb, "query order");
            }
        }
    }

    #[test]
    fn repair_after_each_delta_kind_is_bit_identical_to_full() {
        let mut net = chain_cluster(4, 4);
        let victim = net.victim();
        let sink_node = net.net(victim).sinks()[0].node;
        let mut incr = IncrTreeEngine::new(&net, 4);
        let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
        for &s in &sources {
            incr.transfer_taylor(s, net.victim_output()).unwrap();
        }
        let deltas = [
            Delta::ResizeDriver { net: victim, ohms: 133.0 },
            Delta::SetSinkCap { node: sink_node, farads: 11e-15 },
            Delta::SetCouplingCap { index: 2, farads: 8e-15 },
            Delta::SetResistor { index: 5, ohms: 44.0 },
            Delta::SetGroundCap { index: 3, farads: 2e-15 },
        ];
        for d in deltas {
            net.apply_delta(&d).unwrap();
            assert!(incr.refresh(&net), "{d} should dirty the engine");
            assert_matches_cold(&mut incr, &net, 4, "after delta");
        }
    }

    #[test]
    fn random_delta_revert_sequences_stay_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0x1234);
        let mut net = chain_cluster(5, 3);
        let mut incr = IncrTreeEngine::new(&net, 4);
        let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
        let mut undo = Vec::new();
        for step in 0..60 {
            if !undo.is_empty() && rng.random_bool(0.3) {
                let d: Delta = undo.pop().unwrap();
                net.apply_delta(&d).unwrap();
            } else {
                let d = match rng.random_range(0..3) {
                    0 => Delta::ResizeDriver {
                        net: sources[rng.random_range(0..sources.len())],
                        ohms: rng.random_range(40.0..400.0),
                    },
                    1 => Delta::SetCouplingCap {
                        index: rng.random_range(0..net.coupling_caps().len()),
                        farads: rng.random_range(1e-15..20e-15),
                    },
                    _ => Delta::SetResistor {
                        index: rng.random_range(0..net.resistors().len()),
                        ohms: rng.random_range(5.0..80.0),
                    },
                };
                undo.push(net.apply_delta(&d).unwrap());
            }
            incr.refresh(&net);
            assert_matches_cold(&mut incr, &net, 4, &format!("step {step}"));
        }
    }

    #[test]
    fn repair_on_random_branching_networks_is_bit_identical_to_cold() {
        // Value deltas of every kind on branching victim trees, so the
        // block kernel's repair path sees more than chain lanes.
        let mut rng = StdRng::seed_from_u64(0xb4a7);
        for case in 0..40 {
            let mut net = random_coupled_tree(&mut rng);
            let mut incr = IncrTreeEngine::new(&net, 5);
            assert_matches_cold(&mut incr, &net, 5, &format!("case {case} cold"));
            let nets: Vec<_> = net.nets().map(|(id, _)| id).collect();
            for step in 0..8 {
                let d = match rng.random_range(0..5) {
                    0 => Delta::ResizeDriver {
                        net: nets[rng.random_range(0..nets.len())],
                        ohms: rng.random_range(50.0..1000.0),
                    },
                    1 => {
                        let n = nets[rng.random_range(0..nets.len())];
                        Delta::SetSinkCap {
                            node: net.net(n).sinks()[0].node,
                            farads: rng.random_range(2e-15..30e-15),
                        }
                    }
                    2 if !net.coupling_caps().is_empty() => Delta::SetCouplingCap {
                        index: rng.random_range(0..net.coupling_caps().len()),
                        farads: rng.random_range(2e-15..40e-15),
                    },
                    3 => Delta::SetResistor {
                        index: rng.random_range(0..net.resistors().len()),
                        ohms: rng.random_range(2.0..150.0),
                    },
                    _ => Delta::SetGroundCap {
                        index: rng.random_range(0..net.ground_caps().len()),
                        farads: rng.random_range(1e-15..20e-15),
                    },
                };
                net.apply_delta(&d).unwrap();
                assert!(incr.refresh(&net), "{d} should dirty the engine");
                assert_matches_cold(&mut incr, &net, 5, &format!("case {case} step {step}"));
            }
        }
    }

    #[test]
    fn distant_edit_reuses_most_blocks() {
        // 8-lane chain: an edit on lane 7's driver cannot reach lane 0's
        // block before moment order runs out, so most blocks are reused.
        let mut net = chain_cluster(8, 3);
        let far = net.nets().last().unwrap().0;
        let mut incr = IncrTreeEngine::new(&net, 4);
        let victim = net.victim();
        incr.transfer_taylor(victim, net.victim_output()).unwrap();
        let before = incr.stats();
        net.apply_delta(&Delta::ResizeDriver { net: far, ohms: 500.0 }).unwrap();
        incr.refresh(&net);
        incr.transfer_taylor(victim, net.victim_output()).unwrap();
        let after = incr.stats();
        let recomputed = after.blocks_recomputed - before.blocks_recomputed;
        let reused = after.blocks_reused - before.blocks_reused;
        assert!(reused > recomputed, "reused {reused} vs recomputed {recomputed}");
        // Lane 7 dirty at k=1 spreads one lane per order: blocks 7,{6,7},{5..7}
        // plus m0's reuse of all 8 — well under half recomputed.
        assert!(recomputed <= 7, "recomputed {recomputed}");
    }

    #[test]
    fn clean_refresh_touches_nothing() {
        let net = chain_cluster(3, 3);
        let mut incr = IncrTreeEngine::new(&net, 4);
        incr.transfer_taylor(net.victim(), net.victim_output()).unwrap();
        let before = incr.stats();
        assert!(!incr.refresh(&net));
        incr.transfer_taylor(net.victim(), net.victim_output()).unwrap();
        let after = incr.stats();
        assert_eq!(before.blocks_recomputed, after.blocks_recomputed);
        assert_eq!(after.refreshes_clean, before.refreshes_clean + 1);
    }

    #[test]
    #[should_panic(expected = "taylor order must be at least 1")]
    fn zero_order_panics() {
        let net = chain_cluster(2, 2);
        let _ = IncrTreeEngine::new(&net, 0);
    }
}
