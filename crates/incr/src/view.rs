//! Per-net truncated analysis views and the base→view element index.
//!
//! A [`View`] re-roles one base net as the victim and keeps only its
//! *directly coupled* neighbours as aggressors — the paper's locality
//! assumption made structural: noise is injected exclusively through
//! coupling capacitors, and second-hop nets perturb the victim only
//! through their (small) loading of the first-hop aggressors. Truncating
//! at one hop makes each view O(neighbourhood) instead of O(cluster),
//! which is where the incremental engine's asymptotic win comes from on
//! chain-coupled clusters that form one giant coupling island.
//!
//! One [`ViewIndex`], built once per session, lists for every base
//! element the views holding it and its id inside each. Translating a
//! [`Delta`] through it answers two questions at once: *which views
//! does this edit affect* (exact invalidation — an unlisted view
//! provably does not depend on the element), and *what is the
//! equivalent edit inside each of them*.

use std::sync::Arc;
use xtalk_circuit::{CircuitError, Delta, NetId, NetRole, Network, NetworkBuilder, NodeId};
use xtalk_moments::IncrTreeEngine;

/// Taylor order the noise pipeline consumes (`h0..h3`).
pub(crate) const MOMENT_ORDER: usize = 4;

/// One net's truncated analysis view: the re-roled victim, its 1-hop
/// aggressors and an incremental moment engine over the view network.
#[derive(Debug)]
pub(crate) struct View {
    /// The base net this view analyzes as victim.
    pub target: NetId,
    /// The target net's name, shared by every report row of this view.
    pub name: Arc<str>,
    /// The truncated network (victim + direct neighbours).
    pub network: Network,
    /// Incrementally-repairable moment engine over `network`.
    pub engine: IncrTreeEngine,
}

/// The base elements one view holds, as `(base index, view id)` pairs in
/// base table order, read once by [`ViewIndex::new`].
#[derive(Debug, Default)]
pub(crate) struct Members {
    nets: Vec<(usize, NetId)>,
    nodes: Vec<(usize, NodeId)>,
    resistors: Vec<(usize, usize)>,
    ground_caps: Vec<(usize, usize)>,
    coupling_caps: Vec<(usize, usize)>,
}

impl View {
    /// Builds the view of `target` over `base`, plus the base elements it
    /// holds. Element iteration follows the base table order throughout,
    /// so two builds of the same view are identical and view ids are
    /// index-stable.
    pub fn build(base: &Network, target: NetId) -> Result<(View, Members), CircuitError> {
        let mut included = vec![false; base.net_count()];
        included[target.index()] = true;
        for cc in base.coupling_caps() {
            let (na, nb) = (base.node_net(cc.a), base.node_net(cc.b));
            if na == target {
                included[nb.index()] = true;
            }
            if nb == target {
                included[na.index()] = true;
            }
        }

        let mut b = NetworkBuilder::new();
        let mut m = Members::default();
        let mut node_map = vec![None; base.node_count()];
        for (id, net) in base.nets() {
            if !included[id.index()] {
                continue;
            }
            let role = if id == target {
                NetRole::Victim
            } else {
                NetRole::Aggressor
            };
            let view_net = b.add_net(net.name(), role);
            m.nets.push((id.index(), view_net));
            for &node in net.nodes() {
                let view_node = b.add_node(view_net, base.node_name(node));
                node_map[node.index()] = Some(view_node);
                m.nodes.push((node.index(), view_node));
            }
            let driver = net.driver();
            let dnode = node_map[driver.node.index()].expect("driver node just added");
            b.add_driver(view_net, dnode, driver.ohms)?;
            for s in net.sinks() {
                let snode = node_map[s.node.index()].expect("sink node just added");
                b.add_sink(snode, s.farads)?;
            }
        }

        for (i, r) in base.resistors().iter().enumerate() {
            if let (Some(a), Some(bb)) = (node_map[r.a.index()], node_map[r.b.index()]) {
                m.resistors.push((i, m.resistors.len()));
                b.add_resistor(a, bb, r.ohms)?;
            }
        }
        for (i, gc) in base.ground_caps().iter().enumerate() {
            if let Some(node) = node_map[gc.node.index()] {
                m.ground_caps.push((i, m.ground_caps.len()));
                b.add_ground_cap(node, gc.farads)?;
            }
        }
        for (i, cc) in base.coupling_caps().iter().enumerate() {
            if let (Some(a), Some(bb)) = (node_map[cc.a.index()], node_map[cc.b.index()]) {
                m.coupling_caps.push((i, m.coupling_caps.len()));
                b.add_coupling_cap(a, bb, cc.farads)?;
            }
        }

        if target == base.victim() {
            if let Some(out) = node_map[base.victim_output().index()] {
                b.set_victim_output(out);
            }
        }
        // Re-roled nets observe at the builder default: the victim's
        // first sink — the same convention the screening views use.

        let network = b.build()?;
        let engine = IncrTreeEngine::new(&network, MOMENT_ORDER);
        let view = View {
            target,
            name: Arc::from(base.net(target).name()),
            network,
            engine,
        };
        Ok((view, m))
    }
}

/// Base element → the views holding it, in CSR form: element `e`'s
/// bucket is `items[start[e]..start[e + 1]]`, its `(view, view id)`
/// pairs in ascending view order.
#[derive(Debug)]
struct Buckets<T> {
    start: Vec<u32>,
    items: Vec<(u32, T)>,
}

impl<T: Copy> Buckets<T> {
    /// Buckets `len` base elements from every view's member list, taken
    /// in view order; the stable sort keeps each bucket in that order.
    fn new(len: usize, views: &[Members], list: impl Fn(&Members) -> &[(usize, T)]) -> Self {
        let mut entries: Vec<(usize, u32, T)> = Vec::new();
        for (v, m) in views.iter().enumerate() {
            entries.extend(list(m).iter().map(|&(e, id)| (e, v as u32, id)));
        }
        entries.sort_by_key(|&(e, _, _)| e);
        let mut start = vec![0u32; len + 1];
        for &(e, _, _) in &entries {
            start[e + 1] += 1;
        }
        for e in 0..len {
            start[e + 1] += start[e];
        }
        let items = entries.into_iter().map(|(_, v, id)| (v, id)).collect();
        Buckets { start, items }
    }

    /// The views holding element `e`, each with the matching in-view
    /// edit made by `edit`.
    fn route(&self, e: usize, edit: impl Fn(T) -> Delta) -> Vec<(usize, Delta)> {
        let (lo, hi) = (self.start[e] as usize, self.start[e + 1] as usize);
        self.items[lo..hi]
            .iter()
            .map(|&(v, id)| (v as usize, edit(id)))
            .collect()
    }
}

/// For every base net, node, resistor, ground cap and coupling cap, the
/// views holding it and its id inside each. Topology never changes
/// within a session, so the index built at session start stays exact.
#[derive(Debug)]
pub(crate) struct ViewIndex {
    nets: Buckets<NetId>,
    nodes: Buckets<NodeId>,
    resistors: Buckets<usize>,
    ground_caps: Buckets<usize>,
    coupling_caps: Buckets<usize>,
}

impl ViewIndex {
    /// Indexes `members`, the element lists of views `0..members.len()`.
    pub fn new(base: &Network, members: &[Members]) -> Self {
        ViewIndex {
            nets: Buckets::new(base.net_count(), members, |m| &m.nets),
            nodes: Buckets::new(base.node_count(), members, |m| &m.nodes),
            resistors: Buckets::new(base.resistors().len(), members, |m| &m.resistors),
            ground_caps: Buckets::new(base.ground_caps().len(), members, |m| &m.ground_caps),
            coupling_caps: Buckets::new(base.coupling_caps().len(), members, |m| &m.coupling_caps),
        }
    }

    /// Translates a base-network delta, already accepted by the base,
    /// into every view it affects: `(view, in-view delta)` in ascending
    /// view order.
    ///
    /// The list is *exact*, not conservative: every element a delta can
    /// name (a net's driver, a sink node, a resistor, a capacitor) is
    /// either present in a view — and then its value is shared with the
    /// base — or absent, and then no quantity of that view depends on it.
    pub fn translate(&self, delta: &Delta) -> Vec<(usize, Delta)> {
        match *delta {
            Delta::ResizeDriver { net, ohms } => self
                .nets
                .route(net.index(), |net| Delta::ResizeDriver { net, ohms }),
            Delta::SetSinkCap { node, farads } => self
                .nodes
                .route(node.index(), |node| Delta::SetSinkCap { node, farads }),
            Delta::SetResistor { index, ohms } => self
                .resistors
                .route(index, |index| Delta::SetResistor { index, ohms }),
            Delta::SetGroundCap { index, farads } => self
                .ground_caps
                .route(index, |index| Delta::SetGroundCap { index, farads }),
            Delta::SetCouplingCap { index, farads } => self
                .coupling_caps
                .route(index, |index| Delta::SetCouplingCap { index, farads }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xtalk_tech::{ClusterSpec, Technology};

    fn cluster(lanes: usize) -> (Network, Vec<NetId>) {
        ClusterSpec::figure4_family(lanes)
            .build(&Technology::p25())
            .unwrap()
    }

    /// Every net's view, in net order, and their element index.
    fn session_views(base: &Network) -> (Vec<View>, ViewIndex) {
        let (views, members): (Vec<View>, Vec<Members>) = base
            .nets()
            .map(|(id, _)| View::build(base, id).unwrap())
            .unzip();
        let index = ViewIndex::new(base, &members);
        (views, index)
    }

    #[test]
    fn view_keeps_only_one_hop_neighbours() {
        let (base, lanes) = cluster(6);
        let (v, _) = View::build(&base, lanes[2]).unwrap();
        // Lane 2 couples to lanes 1 and 3 only.
        assert_eq!(v.network.net_count(), 3);
        assert_eq!(v.network.victim_net().name(), base.net(lanes[2]).name());
        assert_eq!(&*v.name, base.net(lanes[2]).name());
        let (end, _) = View::build(&base, lanes[0]).unwrap();
        assert_eq!(end.network.net_count(), 2);
    }

    #[test]
    fn view_of_base_victim_preserves_output_node() {
        let (base, _) = cluster(4);
        let (v, _) = View::build(&base, base.victim()).unwrap();
        assert_eq!(
            v.network.node_name(v.network.victim_output()),
            base.node_name(base.victim_output())
        );
    }

    #[test]
    fn translation_is_exact_per_element() {
        let (base, lanes) = cluster(6);
        let (_, index) = session_views(&base);
        let views = |d: Delta| -> Vec<usize> {
            index.translate(&d).into_iter().map(|(v, _)| v).collect()
        };
        // Lane 1's driver is in the views of lanes 0, 1 and 2.
        let lane = |k: usize| lanes[k].index();
        assert_eq!(
            views(Delta::ResizeDriver { net: lanes[1], ohms: 50.0 }),
            [lane(0), lane(1), lane(2)]
        );
        // Couplings between lanes 0-1 are the first `segments` caps. Lane
        // 2's view holds lane 1 but not lane 0, so only lanes 0 and 1 see
        // them.
        let segs = base.couplings_between(lanes[0], lanes[1]).count();
        assert_eq!(
            views(Delta::SetCouplingCap { index: 0, farads: 1e-15 }),
            [lane(0), lane(1)]
        );
        assert!(
            !views(Delta::SetCouplingCap { index: segs, farads: 1e-15 }).contains(&lane(0)),
            "lane 1-2 coupling is outside lane 0's view"
        );
    }

    #[test]
    fn translated_delta_applies_with_matching_values() {
        let (mut base, lanes) = cluster(4);
        let (mut views, index) = session_views(&base);
        let d = Delta::SetResistor { index: 3, ohms: 99.0 };
        let (_, vd) = index
            .translate(&d)
            .into_iter()
            .find(|&(v, _)| v == lanes[1].index())
            .expect("lane 1's own resistor is in view");
        let v = &mut views[lanes[1].index()];
        base.apply_delta(&d).unwrap();
        v.network.apply_delta(&vd).unwrap();
        // The translated resistor carries the same new value.
        let Delta::SetResistor { index, .. } = vd else { unreachable!() };
        assert_eq!(v.network.resistors()[index].ohms, 99.0);
        assert_eq!(base.resistors()[3].ohms, 99.0);
        // And a rebuild of the view from the edited base matches element
        // for element.
        let (fresh, _) = View::build(&base, lanes[1]).unwrap();
        assert_eq!(fresh.network.resistors(), v.network.resistors());
        assert_eq!(fresh.network.coupling_caps(), v.network.coupling_caps());
    }

    /// The per-view scan the index replaces, from first principles: a
    /// view holds an element iff every node it touches belongs to the
    /// target or a net coupled to it; nets and nodes keep their names,
    /// and the k-th held resistor or capacitor of the base is the view's
    /// k-th.
    fn brute_force_translate(base: &Network, views: &[View], delta: &Delta) -> Vec<(usize, Delta)> {
        let mut out = Vec::new();
        for (v, view) in views.iter().enumerate() {
            let held_net = |net: NetId| {
                net == view.target
                    || base.couplings_between(view.target, net).next().is_some()
            };
            let held_node = |node: NodeId| held_net(base.node_net(node));
            let view_nets: HashMap<&str, NetId> =
                view.network.nets().map(|(id, n)| (n.name(), id)).collect();
            let view_nodes: HashMap<&str, NodeId> = view
                .network
                .nets()
                .flat_map(|(_, n)| n.nodes().iter().map(|&id| (view.network.node_name(id), id)))
                .collect();
            let rank = |held: &dyn Fn(usize) -> bool, index: usize| {
                held(index).then(|| (0..index).filter(|&i| held(i)).count())
            };
            let translated = match *delta {
                Delta::ResizeDriver { net, ohms } => held_net(net).then(|| Delta::ResizeDriver {
                    net: view_nets[base.net(net).name()],
                    ohms,
                }),
                Delta::SetSinkCap { node, farads } => held_node(node).then(|| Delta::SetSinkCap {
                    node: view_nodes[base.node_name(node)],
                    farads,
                }),
                Delta::SetResistor { index, ohms } => {
                    let r = base.resistors();
                    rank(&|i| held_node(r[i].a) && held_node(r[i].b), index)
                        .map(|index| Delta::SetResistor { index, ohms })
                }
                Delta::SetGroundCap { index, farads } => {
                    let g = base.ground_caps();
                    rank(&|i| held_node(g[i].node), index)
                        .map(|index| Delta::SetGroundCap { index, farads })
                }
                Delta::SetCouplingCap { index, farads } => {
                    let c = base.coupling_caps();
                    rank(&|i| held_node(c[i].a) && held_node(c[i].b), index)
                        .map(|index| Delta::SetCouplingCap { index, farads })
                }
            };
            out.extend(translated.map(|d| (v, d)));
        }
        out
    }

    #[test]
    fn index_matches_a_brute_force_scan_of_every_view() {
        let (base, _) = cluster(16);
        let (views, index) = session_views(&base);
        let mut deltas = Vec::new();
        for (id, net) in base.nets() {
            deltas.push(Delta::ResizeDriver { net: id, ohms: 77.0 });
            for &node in net.nodes() {
                deltas.push(Delta::SetSinkCap { node, farads: 3e-15 });
            }
        }
        for index in 0..base.resistors().len() {
            deltas.push(Delta::SetResistor { index, ohms: 5.0 });
        }
        for index in 0..base.ground_caps().len() {
            deltas.push(Delta::SetGroundCap { index, farads: 1e-15 });
        }
        for index in 0..base.coupling_caps().len() {
            deltas.push(Delta::SetCouplingCap { index, farads: 2e-15 });
        }
        let mut routed = 0;
        for d in &deltas {
            let expected = brute_force_translate(&base, &views, d);
            assert!(!expected.is_empty(), "{d} reaches at least its own net's view");
            assert_eq!(index.translate(d), expected, "{d}");
            routed += expected.len();
        }
        // Interior lanes' elements sit in three views, so the index is
        // far from one entry per element.
        assert!(routed > 2 * deltas.len());
    }
}
