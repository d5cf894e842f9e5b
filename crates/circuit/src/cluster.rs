//! Coupled-cluster partitioning of a streamed deck.
//!
//! Full-chip screening needs to analyze every net of a flat extracted
//! deck as a victim in turn, but closed-form metrics only see a victim
//! plus its capacitively coupled aggressors. [`CouplingClusters`]
//! partitions the deck's nets into *coupling islands* — the connected
//! components of the graph whose edges are coupling capacitors — with a
//! union-find sweep over the element table of a
//! [`DeckIndex`](crate::spice::stream::DeckIndex). Nets in different
//! islands interact through no element, so each island can be
//! materialized and analyzed independently (and in parallel) with
//! results bit-identical to a whole-deck analysis. The partition also
//! indexes every island's nodes and elements once, so materializing an
//! island costs time proportional to the island, not the deck.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::cluster::CouplingClusters;
//! use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
//!
//! // Two coupled pairs: nets {0,1} and {2,3} form separate islands.
//! let deck = "\
//! *! net 0 victim v\n*! net 1 aggressor a\n\
//! *! net 2 aggressor b\n*! net 3 aggressor c\n\
//! RDRV0 s0 n0 100\nRDRV1 s1 n1 100\nRDRV2 s2 n2 100\nRDRV3 s3 n3 100\n\
//! CL0 n0 0 10f\nCL1 n1 0 10f\nCL2 n2 0 10f\nCL3 n3 0 10f\n\
//! CC0 n0 n1 5f\nCC1 n2 n3 5f\n.end\n";
//! let index = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default())?;
//! let clusters = CouplingClusters::partition(&index);
//! assert_eq!(clusters.len(), 2);
//! assert_eq!(clusters.members(clusters.cluster_of(3).unwrap()), &[2, 3]);
//!
//! // Materialize net 3's island with net 3 as the victim.
//! let network = clusters.victim_network(&index, 3)?;
//! assert_eq!(network.net_count(), 2);
//! # Ok::<(), xtalk_circuit::spice::SpiceParseError>(())
//! ```

use crate::spice::stream::{DeckIndex, NodeUse, Selection};
use crate::spice::SpiceParseError;
use crate::Network;

/// Union-find parent array with path halving.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so representatives are
            // stable regardless of edge order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Per-island bucket kinds, in the order each island's buckets sit in
/// [`CouplingClusters`]'s flat item array.
const NETS: usize = 0;
const NODES: usize = 1;
const RESISTORS: usize = 2;
const GROUND_CAPS: usize = 3;
const SINKS: usize = 4;
const COUPLING_CAPS: usize = 5;
const KINDS: usize = 6;

/// The deck's nets partitioned into coupling islands, with every
/// island's nets, nodes and elements indexed once so that
/// materializing an island costs time proportional to the island.
///
/// Cluster ids are dense, `0..len()`, ordered by each island's smallest
/// member net index; member lists are ascending. Both properties make
/// reports deterministic for any traversal order.
///
/// The per-island lists are stored CSR-style — one flat `u32` array
/// plus offsets — so decks with many singleton islands pay no per-island
/// allocation.
#[derive(Debug, Clone)]
pub struct CouplingClusters {
    cluster_of_net: Vec<u32>,
    /// Island `c`'s list of kind `k` is
    /// `items[starts[c * KINDS + k]..starts[c * KINDS + k + 1]]`: member
    /// nets ascending, node ids in name order, element indices in deck
    /// order.
    starts: Vec<u32>,
    items: Vec<u32>,
    /// Each resolved node's position in its island's node list, indexed
    /// by node id.
    node_slot: Vec<u32>,
}

impl CouplingClusters {
    /// Partitions `index`'s nets by union-find over its coupling
    /// capacitors, then buckets every node and element by island with
    /// one counting sort.
    ///
    /// An element joins island `c` when every endpoint resolves to a net
    /// of `c`; any other element (an endpoint unreachable from any
    /// driver, or a resistor between islands) belongs to no island and
    /// is skipped by cluster materialization. Whole-deck materialization
    /// rejects those instead.
    #[must_use]
    pub fn partition(index: &DeckIndex) -> Self {
        let n = index.net_count();
        let mut uf = UnionFind::new(n);
        for (a, b, _) in &index.coupling_caps {
            let (Some(na), Some(nb)) = (
                index.node_net[a.node as usize],
                index.node_net[b.node as usize],
            ) else {
                continue;
            };
            uf.union(na, nb);
        }
        // Dense cluster ids in order of first appearance over ascending
        // net index == ordered by smallest member.
        let mut cluster_of_net = vec![u32::MAX; n];
        let mut clusters = 0u32;
        for net in 0..n as u32 {
            let root = uf.find(net);
            if cluster_of_net[root as usize] == u32::MAX {
                cluster_of_net[root as usize] = clusters;
                clusters += 1;
            }
            cluster_of_net[net as usize] = cluster_of_net[root as usize];
        }

        // Counting sort of (island, kind) buckets: count, prefix-sum,
        // then fill in the same order, so each bucket keeps the order
        // its items were visited in. Last, each island's nodes are put
        // in name order.
        let mut starts = vec![0u32; clusters as usize * KINDS + 1];
        for_each_item(index, &cluster_of_net, |bucket, _| {
            starts[bucket + 1] += 1;
        });
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut items = vec![0u32; starts[starts.len() - 1] as usize];
        for_each_item(index, &cluster_of_net, |bucket, item| {
            items[cursor[bucket] as usize] = item;
            cursor[bucket] += 1;
        });
        let mut node_slot = vec![u32::MAX; index.node_name_count()];
        for c in 0..clusters as usize {
            let at = c * KINDS + NODES;
            let nodes = &mut items[starts[at] as usize..starts[at + 1] as usize];
            index.order_nodes(nodes, &mut node_slot);
        }
        CouplingClusters {
            cluster_of_net,
            starts,
            items,
            node_slot,
        }
    }

    /// Number of islands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() / KINDS
    }

    /// True when the deck declared no nets at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The island containing `net`, or `None` when `net` is out of
    /// range.
    #[must_use]
    pub fn cluster_of(&self, net: usize) -> Option<usize> {
        self.cluster_of_net.get(net).map(|&c| c as usize)
    }

    /// Ascending net indices of island `cluster`.
    ///
    /// # Panics
    ///
    /// Panics when `cluster >= len()`.
    #[must_use]
    pub fn members(&self, cluster: usize) -> &[u32] {
        self.bucket(cluster, NETS)
    }

    fn bucket(&self, cluster: usize, kind: usize) -> &[u32] {
        let at = cluster * KINDS + kind;
        &self.items[self.starts[at] as usize..self.starts[at + 1] as usize]
    }

    /// Materializes the island containing `net` as a standalone
    /// [`Network`] with `net` as the victim and every other member as an
    /// aggressor — the unit of work for screen-then-escalate analysis.
    ///
    /// The construction order matches whole-deck materialization
    /// restricted to the island, so analysis results are bit-identical
    /// to running the full deck with the same victim designation. The
    /// cost is proportional to the island, not the deck.
    ///
    /// # Errors
    ///
    /// [`SpiceParseError::Invalid`] when the island fails
    /// [`NetworkBuilder::build`](crate::NetworkBuilder::build)
    /// validation (e.g. a member net without sinks).
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range for the index this partition
    /// was built from.
    pub fn victim_network(
        &self,
        index: &DeckIndex,
        net: usize,
    ) -> Result<Network, SpiceParseError> {
        let cluster = self.cluster_of(net).expect("net index out of range");
        index.materialize(&Selection {
            victim: Some(u32::try_from(net).unwrap_or(u32::MAX)),
            nets: self.bucket(cluster, NETS),
            nodes: self.bucket(cluster, NODES),
            node_slot: &self.node_slot,
            resistors: self.bucket(cluster, RESISTORS),
            ground_caps: self.bucket(cluster, GROUND_CAPS),
            sinks: self.bucket(cluster, SINKS),
            coupling_caps: self.bucket(cluster, COUPLING_CAPS),
        })
    }
}

/// Calls `visit(bucket, item)` for every item that belongs to an
/// island, bucket `= island * KINDS + kind`: nets and resolved nodes
/// ascending, then each element table in deck order.
fn for_each_item(index: &DeckIndex, cluster_of_net: &[u32], mut visit: impl FnMut(usize, u32)) {
    let island = |nu: &NodeUse| {
        index.node_net[nu.node as usize].map(|net| cluster_of_net[net as usize] as usize)
    };
    let bucket = |c: usize, kind: usize| c * KINDS + kind;
    let id = |k: usize| u32::try_from(k).unwrap_or(u32::MAX);
    for (net, &c) in cluster_of_net.iter().enumerate() {
        visit(bucket(c as usize, NETS), id(net));
    }
    for (node, net) in index.node_net.iter().enumerate() {
        if let Some(net) = net {
            visit(
                bucket(cluster_of_net[*net as usize] as usize, NODES),
                id(node),
            );
        }
    }
    for (k, (a, b, _)) in index.resistors.iter().enumerate() {
        if let (Some(ca), Some(cb)) = (island(a), island(b)) {
            if ca == cb {
                visit(bucket(ca, RESISTORS), id(k));
            }
        }
    }
    for (k, (n, _)) in index.ground_caps.iter().enumerate() {
        if let Some(c) = island(n) {
            visit(bucket(c, GROUND_CAPS), id(k));
        }
    }
    for (k, (n, _)) in index.sinks.iter().enumerate() {
        if let Some(c) = island(n) {
            visit(bucket(c, SINKS), id(k));
        }
    }
    // Both endpoints of a resolved coupling cap share an island by
    // construction of the partition.
    for (k, (a, b, _)) in index.coupling_caps.iter().enumerate() {
        if let (Some(ca), Some(_)) = (island(a), island(b)) {
            visit(bucket(ca, COUPLING_CAPS), id(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::stream::StreamOptions;
    use crate::spice::{parse_deck, write_deck};
    use crate::{NetRole, NetworkBuilder, NodeId};
    use xtalk_tech::{PexDeckSpec, Technology};

    /// Two independent coupled pairs plus one uncoupled net.
    fn five_net_deck() -> String {
        let mut out = String::new();
        for (i, role) in [
            (0, "victim"),
            (1, "aggressor"),
            (2, "aggressor"),
            (3, "aggressor"),
            (4, "aggressor"),
        ] {
            out.push_str(&format!("*! net {i} {role} net{i}\n"));
        }
        for i in 0..5 {
            out.push_str(&format!("RDRV{i} s{i} n{i} 10{i}\n"));
            out.push_str(&format!("CL{i} n{i} 0 1{i}f\n"));
        }
        out.push_str("CC0 n0 n1 5f\nCC1 n2 n3 7f\n.end\n");
        out
    }

    fn index_of(deck: &str) -> DeckIndex {
        DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default()).unwrap()
    }

    fn lenient_index_of(deck: &str) -> DeckIndex {
        let options = StreamOptions {
            lenient: true,
            ..StreamOptions::default()
        };
        DeckIndex::from_reader(deck.as_bytes(), options).unwrap()
    }

    /// A network's contents on the nets named in `nets`, by node names
    /// and value bits, each list in the network's order.
    #[derive(Debug, PartialEq)]
    struct Named {
        nets: Vec<String>,
        nodes: Vec<String>,
        resistors: Vec<(String, String, u64)>,
        ground_caps: Vec<(String, u64)>,
        sinks: Vec<(String, u64)>,
        coupling_caps: Vec<(String, String, u64)>,
    }

    fn named(network: &Network, nets: &[&str]) -> Named {
        let kept = |node: NodeId| nets.contains(&network.net(network.node_net(node)).name());
        let name = |node: NodeId| network.node_name(node).to_string();
        Named {
            nets: network
                .nets()
                .map(|(_, net)| net.name())
                .filter(|n| nets.contains(n))
                .map(str::to_string)
                .collect(),
            nodes: (0..network.node_count())
                .map(|i| NodeId(u32::try_from(i).unwrap()))
                .filter(|&n| kept(n))
                .map(name)
                .collect(),
            resistors: network
                .resistors()
                .iter()
                .filter(|r| kept(r.a) && kept(r.b))
                .map(|r| (name(r.a), name(r.b), r.ohms.to_bits()))
                .collect(),
            ground_caps: network
                .ground_caps()
                .iter()
                .filter(|g| kept(g.node))
                .map(|g| (name(g.node), g.farads.to_bits()))
                .collect(),
            sinks: network
                .nets()
                .flat_map(|(_, net)| net.sinks())
                .filter(|s| kept(s.node))
                .map(|s| (name(s.node), s.farads.to_bits()))
                .collect(),
            coupling_caps: network
                .coupling_caps()
                .iter()
                .filter(|c| kept(c.a) && kept(c.b))
                .map(|c| (name(c.a), name(c.b), c.farads.to_bits()))
                .collect(),
        }
    }

    /// Elements whose endpoints all resolve to nets of one island,
    /// counted straight from the index's element tables.
    fn in_one_island(index: &DeckIndex, clusters: &CouplingClusters) -> usize {
        let island = |nu: &NodeUse| {
            index.node_net[nu.node as usize].and_then(|net| clusters.cluster_of(net as usize))
        };
        let same = |a: &NodeUse, b: &NodeUse| island(a).is_some() && island(a) == island(b);
        index
            .resistors
            .iter()
            .filter(|(a, b, _)| same(a, b))
            .count()
            + index
                .ground_caps
                .iter()
                .filter(|(n, _)| island(n).is_some())
                .count()
            + index
                .sinks
                .iter()
                .filter(|(n, _)| island(n).is_some())
                .count()
            + index
                .coupling_caps
                .iter()
                .filter(|(a, b, _)| same(a, b))
                .count()
    }

    fn bucketed_elements(clusters: &CouplingClusters) -> usize {
        (0..clusters.len())
            .flat_map(|c| [RESISTORS, GROUND_CAPS, SINKS, COUPLING_CAPS].map(|k| (c, k)))
            .map(|(c, k)| clusters.bucket(c, k).len())
            .sum()
    }

    #[test]
    fn partitions_into_islands_with_singletons() {
        let index = index_of(&five_net_deck());
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters.members(0), &[0, 1]);
        assert_eq!(clusters.members(1), &[2, 3]);
        assert_eq!(clusters.members(2), &[4]);
        assert_eq!(clusters.cluster_of(3), Some(1));
        assert_eq!(clusters.cluster_of(4), Some(2));
        assert_eq!(clusters.cluster_of(5), None);
        assert!(!clusters.is_empty());
    }

    #[test]
    fn transitive_coupling_merges_islands() {
        // 0-1, 1-2 coupled: one island of three.
        let deck = "\
*! net 0 victim v\n*! net 1 aggressor a\n*! net 2 aggressor b\n\
RDRV0 s0 n0 100\nRDRV1 s1 n1 100\nRDRV2 s2 n2 100\n\
CL0 n0 0 10f\nCL1 n1 0 10f\nCL2 n2 0 10f\n\
CC0 n0 n1 5f\nCC1 n1 n2 5f\n";
        let clusters = CouplingClusters::partition(&index_of(deck));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters.members(0), &[0, 1, 2]);
    }

    #[test]
    fn victim_network_reroles_members() {
        let index = index_of(&five_net_deck());
        let clusters = CouplingClusters::partition(&index);
        // Net 3 (declared aggressor) becomes the victim of its island.
        let network = clusters.victim_network(&index, 3).unwrap();
        assert_eq!(network.net_count(), 2);
        assert_eq!(network.victim().index(), 1); // net 3 is second member
        assert_eq!(network.coupling_caps().len(), 1);
        // The singleton materializes too (no aggressors, no couplings).
        let lone = clusters.victim_network(&index, 4).unwrap();
        assert_eq!(lone.net_count(), 1);
        assert!(lone.coupling_caps().is_empty());
    }

    #[test]
    fn island_networks_carry_exactly_their_elements() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let x = b.add_net("far", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        let x0 = b.add_node(x, "x0");
        b.add_driver(v, v0, 150.0).unwrap();
        b.add_driver(a, a0, 90.0).unwrap();
        b.add_driver(x, x0, 80.0).unwrap();
        b.add_resistor(v0, v1, 25.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_sink(x0, 9e-15).unwrap();
        b.add_coupling_cap(v1, a0, 22e-15).unwrap();
        let deck = write_deck(&b.build().unwrap());
        let index = index_of(&deck);
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 2);
        let island = clusters.victim_network(&index, 0).unwrap();
        let whole = parse_deck(&deck).unwrap();
        // The island is the whole network minus the uncoupled net.
        assert_eq!(island.net_count(), 2);
        assert_eq!(island.node_count(), whole.node_count() - 1);
        assert_eq!(island.resistors(), whole.resistors());
        assert_eq!(island.coupling_caps().len(), 1);
        assert_eq!(
            island.node_name(island.victim_output()),
            whole.node_name(whole.victim_output()),
        );
    }

    #[test]
    fn every_island_is_the_whole_deck_restricted_to_it() {
        let mut spec = PexDeckSpec::new(3, 5, 3);
        spec.fold_cards = true;
        spec.benign_directives = true;
        let deck = spec.deck_string(&Technology::p25());
        let index = lenient_index_of(&deck);
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 3);
        let whole = index.clone().into_network().unwrap();
        for net in 0..index.net_count() {
            let island = clusters.victim_network(&index, net).unwrap();
            let members = clusters.members(clusters.cluster_of(net).unwrap());
            let names: Vec<&str> = members
                .iter()
                .map(|&m| index.net_name(m as usize))
                .collect();
            let got = named(&island, &names);
            assert_eq!(got.nodes.len(), island.node_count(), "net {net}");
            assert!(
                got.nodes.windows(2).all(|w| w[0] < w[1]),
                "net {net}: name order"
            );
            assert_eq!(got, named(&whole, &names), "net {net}");
            assert_eq!(island.net(island.victim()).name(), index.net_name(net));
        }
        assert_eq!(
            bucketed_elements(&clusters),
            in_one_island(&index, &clusters)
        );
        assert_eq!(
            bucketed_elements(&clusters),
            whole.resistors().len()
                + whole.ground_caps().len()
                + whole.nets().map(|(_, n)| n.sinks().len()).sum::<usize>()
                + whole.coupling_caps().len(),
        );
    }

    #[test]
    fn coupling_to_an_unreachable_node_is_skipped() {
        let deck = five_net_deck().replace(".end\n", "CC9 n4 floating 3f\n.end\n");
        let index = index_of(&deck);
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 3);
        let lone = clusters.victim_network(&index, 4).unwrap();
        assert_eq!(lone.net_count(), 1);
        assert!(lone.coupling_caps().is_empty());
        assert_eq!(
            bucketed_elements(&clusters),
            in_one_island(&index, &clusters)
        );
        // Five sinks and the two reachable couplings.
        assert_eq!(bucketed_elements(&clusters), 5 + 2);
        // The whole deck still rejects it at the referencing token.
        let err = index.into_network().unwrap_err();
        assert!(
            err.to_string().contains("\"floating\" not reachable"),
            "{err}"
        );
        assert_eq!(err.position(), Some((18, 8)));
    }

    #[test]
    fn resistor_between_nets_is_invalid_in_one_island_and_skipped_across() {
        // R9 joins nets 0 and 1 (one island), R8 nets 1 and 2 (two).
        let deck = five_net_deck().replace(".end\n", "R9 n0 n1 5\nR8 n1 n2 5\n.end\n");
        let index = index_of(&deck);
        let clusters = CouplingClusters::partition(&index);
        for net in [0, 1] {
            let err = clusters.victim_network(&index, net).unwrap_err();
            assert!(matches!(err, SpiceParseError::Invalid(_)), "{err}");
        }
        // R8 belongs to neither island, so net 2's island is untouched.
        let island = clusters.victim_network(&index, 2).unwrap();
        assert!(island.resistors().is_empty());
        assert_eq!(
            bucketed_elements(&clusters),
            in_one_island(&index, &clusters)
        );
        // Five sinks, two couplings and R9.
        assert_eq!(bucketed_elements(&clusters), 5 + 2 + 1);
    }
}
